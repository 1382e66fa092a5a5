"""Config validation, artifact layout, determinism, and the CLI."""

import json
import math

import numpy as np
import pytest

from dpogl import accountant as acc
from dpogl import topology
from dpogl.cli import main as cli_main
from dpogl.harness import ConfigError, ExperimentConfig, run_experiment
from dpogl.topology import generate_structure

BASE = {
    "seed": 3,
    "epochs": 6,
    "inter_group_period": 2,
    "structure": {"kind": "RI", "num_workers": 6, "num_groups": 3},
    "data": {"num_classes": 3, "dims": 3, "per_class": 20},
    "heatmap_epochs": [4],
}


def raw_config(tmp_path, **overrides):
    raw = json.loads(json.dumps(BASE))
    raw["output_dir"] = str(tmp_path / "out")
    raw.update(overrides)
    return raw


def make_config(tmp_path, **overrides):
    return ExperimentConfig.from_dict(raw_config(tmp_path, **overrides))


def test_defaults_are_resolved(tmp_path):
    config = make_config(tmp_path)
    assert config.participation == 0.7
    assert config.clip == 0.05
    assert config.sigma == 2.0
    assert config.delta == 1e-5
    assert config.variant == "examples_consistent"
    assert config.bound == "delay"
    assert config.alpha_grid == tuple(acc.DEFAULT_ALPHA_GRID)
    assert config.data["test_fraction"] == 0.2
    assert config.data["dirichlet_beta"] == 0.1


@pytest.mark.parametrize("mutation, fragment", [
    (dict(epochs=None), "epochs"),
    (dict(epochs=True), "epochs"),
    (dict(epochs=-1), "epochs"),
    (dict(inter_group_period=0), "inter_group_period"),
    (dict(batch_size=0), "batch_size"),
    (dict(learning_rate=0.0), "learning_rate"),
    (dict(clip=0.0), "clip"),
    (dict(clip=[0.1, float("nan"), 0.1]), "clip[1]"),
    (dict(sigma=-0.5), "sigma"),
    (dict(participation=0.0), "participation"),
    (dict(participation=1.5), "participation"),
    (dict(delta=0.0), "delta"),
    (dict(delta=1.5), "delta"),
    (dict(variant="other"), "variant"),
    (dict(bound="tightest"), "bound"),
    (dict(alpha_grid=[]), "alpha_grid"),
    (dict(alpha_grid=[2.0, 1.0]), "alpha_grid[1]"),
    (dict(heatmap_epochs=[0]), "heatmap_epochs[0]"),
    (dict(surprise=1), "surprise"),
    (dict(structure={"kind": "ZZ", "num_workers": 4, "num_groups": 2}),
     "structure.kind"),
    (dict(structure={"kind": "RI", "num_workers": 2, "num_groups": 3}),
     "structure"),
    (dict(structure={"num_workers": 4, "num_groups": 2}), "'kind'"),
    (dict(data={"num_classes": 1}), "data.num_classes"),
    (dict(data={"test_fraction": 1.0}), "data.test_fraction"),
    (dict(data={"dirichlet_beta": 0.0}), "data.dirichlet_beta"),
])
def test_field_level_diagnostics(tmp_path, mutation, fragment):
    raw = raw_config(tmp_path, **mutation)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(raw)
    assert fragment in str(err.value)


def test_missing_required_fields(tmp_path):
    raw = raw_config(tmp_path)
    raw.pop("epochs")
    with pytest.raises(ConfigError, match="epochs"):
        ExperimentConfig.from_dict(raw)
    raw = raw_config(tmp_path)
    raw.pop("structure")
    with pytest.raises(ConfigError, match="structure"):
        ExperimentConfig.from_dict(raw)


def test_cross_field_validation_uses_trainer_rules(tmp_path):
    with pytest.raises(ConfigError, match="threat_model"):
        make_config(tmp_path, algorithm="dpogl_plus")
    with pytest.raises(ConfigError, match="epochs"):
        make_config(tmp_path, algorithm="dpogl_plus", threat_model="tm2",
                    epochs=1, inter_group_period=4)
    with pytest.raises(ConfigError, match="clip"):
        make_config(tmp_path, clip=[0.1, 0.2])  # 3 groups
    with pytest.raises(ConfigError, match="noise scale"):
        make_config(tmp_path, clip="inf", sigma=1.0)


def test_explicit_structure_and_inf_clip(tmp_path):
    config = make_config(
        tmp_path,
        structure={"num_workers": 3, "members_of_group": [[1, 0], [1, 2]],
                   "kind": "custom"},
        clip="inf", sigma=0.0)
    assert config.structure["members_of_group"] == [[0, 1], [1, 2]]
    assert config.num_groups() == 2
    assert math.isinf(config.clip)
    with pytest.raises(ConfigError, match="out-of-range"):
        make_config(tmp_path, structure={"num_workers": 2,
                                         "members_of_group": [[0, 5]]})


def test_config_hash_ignores_output_dir_only(tmp_path):
    a = make_config(tmp_path)
    b = ExperimentConfig.from_dict(raw_config(tmp_path / "elsewhere"))
    assert a.config_hash() == b.config_hash()
    # alpha_grid spelled out explicitly still hashes like the default
    c = make_config(tmp_path, alpha_grid=list(acc.DEFAULT_ALPHA_GRID))
    assert c.config_hash() == a.config_hash()
    d = make_config(tmp_path, seed=4)
    assert d.config_hash() != a.config_hash()


def read_lines(path):
    return path.read_text().strip().split("\n")


def test_run_experiment_artifacts(tmp_path):
    config = make_config(tmp_path)
    manifest = run_experiment(config)
    out = tmp_path / "out"
    assert manifest["outputs"] == ["heatmap_epoch_4.csv", "metrics.csv",
                                   "pwp.csv"]
    assert manifest["accounting_error"] is None
    metrics = read_lines(out / "metrics.csv")
    assert metrics[0] == "epoch,avg_train_loss,avg_test_acc"
    assert len(metrics) == 1 + config.epochs
    pwp = read_lines(out / "pwp.csv")
    assert pwp[0] == "epoch,worker,eps_rdp,alpha_star,eps_dp"
    assert len(pwp) == 1 + config.epochs * 6  # tm1: every worker defined
    heat = read_lines(out / "heatmap_epoch_4.csv")
    assert heat[0] == "n,i,eps"
    assert len(heat) == 1 + 6 * 5
    stored = json.loads((out / "manifest.json").read_text())
    assert stored == manifest


def test_reruns_are_byte_identical(tmp_path):
    config_a = make_config(tmp_path)
    run_experiment(config_a)
    first = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    config_b = ExperimentConfig.from_dict(
        raw_config(tmp_path, output_dir=str(tmp_path / "out2")))
    run_experiment(config_b)
    second = {p.name: p.read_bytes() for p in (tmp_path / "out2").iterdir()}
    assert first == second


def test_pwp_csv_matches_accountant(tmp_path):
    config = make_config(tmp_path)
    run_experiment(config, with_training=False)
    rows = read_lines(tmp_path / "out" / "pwp.csv")[1:]
    from dpogl.harness import _hyper_params
    structure = generate_structure("RI", 6, 3)
    hp = _hyper_params(config)
    by_epoch = {}
    for line in rows:
        t, n, eps_rdp, alpha_star, eps_dp = line.split(",")
        by_epoch.setdefault(int(t), []).append(
            (int(n), float(eps_rdp), float(alpha_star), float(eps_dp)))
    for t in range(1, config.epochs + 1):
        curves = acc.delay_curve_matrix(structure, hp, t, config.alpha_grid,
                                        config.variant)
        want = acc.pwp_rows_from_curves(curves, structure, hp.threat_model,
                                        config.delta, config.alpha_grid)
        assert by_epoch[t] == want  # 17 significant digits round-trip


def test_heatmap_trusted_sentinel(tmp_path):
    config = make_config(
        tmp_path, threat_model="tm2",
        structure={"kind": "GL", "num_workers": 4, "num_groups": 1},
        heatmap_epochs=[3])
    run_experiment(config, with_training=False)
    rows = read_lines(tmp_path / "out" / "heatmap_epoch_3.csv")[1:]
    assert len(rows) == 12
    assert all(row.endswith(",trusted") for row in rows)


def test_heatmap_epoch_beyond_training_horizon(tmp_path):
    config = make_config(tmp_path, epochs=2, heatmap_epochs=[10])
    manifest = run_experiment(config, with_training=False)
    assert "heatmap_epoch_10.csv" in manifest["outputs"]


def test_account_only_skips_training(tmp_path):
    manifest = run_experiment(make_config(tmp_path), with_training=False)
    assert "metrics.csv" not in manifest["outputs"]
    assert not (tmp_path / "out" / "metrics.csv").exists()
    assert (tmp_path / "out" / "pwp.csv").exists()


def test_accounting_failure_keeps_training_outputs(tmp_path):
    config = make_config(tmp_path, bound="degradation", participation=1.0)
    manifest = run_experiment(config)  # RI ring is not a string
    assert manifest["accounting_error"] is not None
    assert "string" in manifest["accounting_error"]
    assert manifest["outputs"] == ["metrics.csv"]
    assert not (tmp_path / "out" / "pwp.csv").exists()
    noiseless = make_config(tmp_path, sigma=0.0,
                            output_dir=str(tmp_path / "out2"))
    manifest2 = run_experiment(noiseless)
    assert "noise" in manifest2["accounting_error"]
    assert manifest2["outputs"] == ["metrics.csv"]


def test_accounting_invariant_violations_propagate(tmp_path, monkeypatch):
    """Only documented preconditions become an accounting_error; any other
    ValueError inside accounting is a fault and escapes run_experiment."""
    assert issubclass(acc.AccountingPreconditionError, ValueError)

    def broken(*args, **kwargs):
        raise ValueError("undefined pair among admissible observers")

    monkeypatch.setattr(acc, "pwp_rows_from_curves", broken)
    with pytest.raises(ValueError, match="undefined pair"):
        run_experiment(make_config(tmp_path), with_training=False)


def test_degradation_bound_pipeline_on_a_string(tmp_path):
    config = make_config(
        tmp_path, bound="degradation", participation=1.0, epochs=5,
        inter_group_period=2, clip=0.5,
        structure={"num_workers": 3, "members_of_group": [[0, 1], [1, 2]]},
        heatmap_epochs=[4])
    manifest = run_experiment(config, with_training=False)
    assert manifest["accounting_error"] is None
    heat = read_lines(tmp_path / "out" / "heatmap_epoch_4.csv")[1:]
    values = {tuple(r.split(",")[:2]): r.split(",")[2] for r in heat}
    assert values[("0", "1")] != "trusted"
    assert float(values[("0", "2")]) <= float(values[("0", "1")])


def test_structure_facts_are_computed_once_per_run(tmp_path, monkeypatch):
    """The whole degradation pipeline shares one distance computation."""
    calls = []
    real = topology.distance_matrix

    def counting(adjacency):
        calls.append(adjacency.shape)
        return real(adjacency)

    monkeypatch.setattr(topology, "distance_matrix", counting)
    config = make_config(
        tmp_path, bound="degradation", participation=1.0, epochs=6, clip=0.5,
        structure={"num_workers": 10,
                   "members_of_group": [[0, 1, 2, 3], [3, 4, 5], [5, 6, 7, 8, 9]]},
        heatmap_epochs=[4, 9])
    manifest = run_experiment(config, with_training=False)
    assert manifest["accounting_error"] is None
    assert calls == [(3, 3)]


def test_lb_structure_from_partition_labels(tmp_path):
    config = make_config(
        tmp_path, epochs=2,
        structure={"kind": "LB", "num_workers": 5, "num_groups": 3},
        data={"num_classes": 3, "dims": 3, "per_class": 30,
              "dirichlet_beta": 50.0})
    manifest = run_experiment(config, with_training=False)
    assert manifest["accounting_error"] is None


def test_csv_dataset_source(tmp_path):
    lines = []
    rng = np.random.default_rng(0)
    for k in range(40):
        x = rng.normal(size=2) + (3.0 if k % 2 else 0.0)
        lines.append(f"{x[0]},{x[1]},{k % 2}")
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    config = make_config(
        tmp_path, epochs=2,
        structure={"kind": "GL", "num_workers": 4, "num_groups": 1},
        data={"csv": str(csv_path)})
    manifest = run_experiment(config)
    assert manifest["accounting_error"] is None
    assert "metrics.csv" in manifest["outputs"]


# ---------------------------------------------------------------------------
# command-line interface

def write_config(tmp_path, **overrides):
    raw = raw_config(tmp_path, **overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def test_cli_run_and_account(tmp_path, capsys):
    path = write_config(tmp_path)
    assert cli_main(["run", str(path)]) == 0
    assert (tmp_path / "out" / "metrics.csv").exists()
    assert cli_main(["account", str(path), "--out", str(tmp_path / "acct")]) == 0
    assert not (tmp_path / "acct" / "metrics.csv").exists()
    assert (tmp_path / "acct" / "pwp.csv").exists()
    out = capsys.readouterr().out
    assert "pwp.csv" in out and "manifest.json" in out


def test_cli_overrides(tmp_path):
    path = write_config(tmp_path)
    assert cli_main(["account", str(path), "--out", str(tmp_path / "o2"),
                     "--heatmap-epochs", "2,5", "--variant", "as_printed",
                     "--threat", "tm2"]) == 0
    manifest = json.loads((tmp_path / "o2" / "manifest.json").read_text())
    assert manifest["variant"] == "as_printed"
    assert manifest["threat_model"] == "tm2"
    assert "heatmap_epoch_2.csv" in manifest["outputs"]
    assert "heatmap_epoch_5.csv" in manifest["outputs"]
    assert "heatmap_epoch_4.csv" not in manifest["outputs"]


def test_cli_env_seed_override(tmp_path, monkeypatch):
    path = write_config(tmp_path)
    monkeypatch.setenv("OGL_SEED", "41")
    assert cli_main(["account", str(path), "--out", str(tmp_path / "o3")]) == 0
    manifest = json.loads((tmp_path / "o3" / "manifest.json").read_text())
    assert manifest["seed"] == 41
    monkeypatch.setenv("OGL_SEED", "not-a-seed")
    assert cli_main(["account", str(path)]) == 2


def test_cli_rejects_bad_configs(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert cli_main(["run", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_main(["run", str(bad)]) == 2
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"epochs": -3}))
    assert cli_main(["run", str(wrong)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err


def test_cli_accounting_failure_still_exits_zero(tmp_path, capsys):
    path = write_config(tmp_path, bound="degradation", participation=1.0)
    assert cli_main(["run", str(path)]) == 0
    assert "accounting disabled" in capsys.readouterr().err


def test_cli_distances(tmp_path, capsys):
    ring = tmp_path / "ring.json"
    ring.write_text(generate_structure("RI", 8, 4).to_json())
    assert cli_main(["distances", str(ring)]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "group-to-group distance"
    assert out[2] == "0,0,1,2,1"
    assert "group-to-worker distance" in out
    assert cli_main(["distances", str(tmp_path / "absent.json")]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({"N": 3, "M": 2,
                                  "members_of_group": [[0, 1]]}))
    assert cli_main(["distances", str(broken)]) == 2
