"""Config validation, artifact layout, determinism, and the CLI."""

import dataclasses
import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from dpogl import accountant as acc
from dpogl import oracles as orc
from dpogl import harness
from dpogl import topology
from dpogl.cli import main as cli_main
from dpogl.harness import ConfigError, ExperimentConfig, run_experiment
from dpogl.topology import generate_structure
from pair_cells import worker_rows

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
    (dict(variant="other"), "variant"),  # no such field: refused as unknown
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
    (dict(structure=[]), "'structure'"),
    (dict(data=5), "'data'"),
    (dict(structure={**BASE["structure"], "extra": 1}), "structure.extra"),
    (dict(data={**BASE["data"], "extra": 1}), "data.extra"),
    (dict(structure={"num_workers": 3, "members_of_group": [[0, -1]]}),
     "structure.members_of_group[0][1]"),
    (dict(structure={"num_workers": 3, "members_of_group": [1]}),
     "'structure.members_of_group'"),
    (dict(data={"csv": 3}), "data.csv"),
    (dict(alpha_grid=2.0), "'alpha_grid'"),
    (dict(heatmap_epochs=4), "'heatmap_epochs'"),
    (dict(output_dir=""), "output_dir"),
    (dict(clip=[]), "'clip' must not be an empty list"),
    (dict(structure={"kind": "RI", "num_groups": 3}), "'num_workers'"),
    # integers beyond the float or the index range are refused, not raised
    (dict(learning_rate=10**400), "'learning_rate' must be finite"),
    (dict(structure={**BASE["structure"], "num_workers": 10**400}),
     "structure:"),
    (dict(data={"test_fraction": -0.1}), "data.test_fraction"),
])
def test_field_level_diagnostics(tmp_path, mutation, fragment):
    raw = raw_config(tmp_path, **mutation)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(raw)
    assert fragment in str(err.value)


@pytest.mark.parametrize("field, value", [
    ("epochs", -1), ("inter_group_period", 0), ("local_iterations", 0),
    ("batch_size", 0), ("learning_rate", 0.0), ("clip", 0.0),
    ("sigma", -0.5), ("participation", 0.0), ("participation", 1.5),
    ("algorithm", "x"), ("delta", 0.0), ("delta", 1e-320),
    ("alpha_grid", [2.0, 1.0]), ("clip", 1e308),  # c * sigma overflows
    ("seed", -1),
])
def test_config_ranges_are_the_library_rules(tmp_path, field, value):
    """A config refuses a value with the very text of the library type that
    runs it, so the loader holds no second copy of the rule."""
    with pytest.raises(ConfigError) as config_err:
        make_config(tmp_path, **{field: value})
    with pytest.raises(ValueError) as library_err:
        if field == "delta":
            acc._check_delta(value)
        elif field == "alpha_grid":
            acc._check_grid(value)
        else:
            hp = harness._hyper_params(make_config(tmp_path))
            dataclasses.replace(hp, **{field: value})
    assert str(config_err.value) == str(library_err.value)


def test_noise_std_bound_counts_the_mechanism_window(tmp_path):
    """c * sigma is finite, but sqrt(W) * c * sigma is not once W = 4."""
    plus = dict(algorithm="dpogl_plus", threat_model="tm2",
                inter_group_period=4, clip=1e308, sigma=1.5)
    assert make_config(tmp_path, **{**plus, "inter_group_period": 1})
    with pytest.raises(ConfigError, match="noise std .* group 0"):
        make_config(tmp_path, **plus)


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


def test_generated_structures_are_checked_without_a_build(tmp_path):
    """A generated structure is checked by its kind's rules alone: a GL
    config of a million workers loads without a tuple per worker, and each
    rule still refuses with the text of ``generate_structure``."""
    tracemalloc.start()
    try:
        config = make_config(tmp_path, structure={
            "kind": "GL", "num_workers": 10**6, "num_groups": 1})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert config.structure["num_workers"] == 10**6
    assert peak < 10 * 2**20
    for kind, n, m in (("GL", 4, 2), ("CL", 2, 3), ("RI", 2, 3),
                       ("RI", 10**400, 3)):
        with pytest.raises(ValueError) as library_err:
            generate_structure(kind, n, m)
        with pytest.raises(ConfigError) as config_err:
            make_config(tmp_path, structure={"kind": kind, "num_workers": n,
                                             "num_groups": m})
        assert str(config_err.value) == f"structure: {library_err.value}"


def test_loading_a_config_does_not_import_hashlib():
    """OpenSSL's import is a quarter of dpogl's own, so ``hashlib`` waits
    for the first ``config_hash`` call."""
    root = Path(__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, dpogl; "
         "c = dpogl.ExperimentConfig.from_dict({'epochs': 2, 'structure': "
         "{'kind': 'RI', 'num_workers': 6, 'num_groups': 3}}); "
         "assert '_hashlib' not in sys.modules, 'imported by from_dict'; "
         "c.config_hash(); assert '_hashlib' in sys.modules"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert result.returncode == 0, result.stderr


def test_config_hash_ignores_output_dir_only(tmp_path):
    a = make_config(tmp_path)
    b = ExperimentConfig.from_dict(raw_config(tmp_path / "elsewhere"))
    assert a.config_hash() == b.config_hash()
    # alpha_grid spelled out explicitly still hashes like the default
    c = make_config(tmp_path, alpha_grid=list(acc.DEFAULT_ALPHA_GRID))
    assert c.config_hash() == a.config_hash()
    d = make_config(tmp_path, seed=4)
    assert d.config_hash() != a.config_hash()


# The fuzz edits field names taken from the rule tables themselves, so a new
# field cannot escape it; "extra" stands for an unknown name at each level.
FUZZ_FIELDS = {
    None: [f.name for f in dataclasses.fields(ExperimentConfig)],
    "structure": sorted({*harness._EXPLICIT, *harness._GENERATED}),
    "data": sorted({*harness._CSV_DATA, *harness._SYNTHETIC}),
}
FUZZ_BASES = [
    BASE,
    {"epochs": 4, "structure": {"num_workers": 3,
                                "members_of_group": [[1, 0], [1, 2]]},
     "data": {"csv": "d.csv", "num_classes": 2}, "clip": "inf", "sigma": 0.0},
]
FUZZ_VALUES = [
    True, False, None, -1, 0, 1, 2, 3, 7, 10**400, 0.0, 0.5, 1.5, -0.5,
    1e-320, 1e308, math.nan, math.inf, -math.inf, "inf", "RI", "LB", "ZZ",
    "dpogl_plus", "tm2", "degradation", "", "d.csv", [], [1], [2.0, 1.0],
    [0.5, 0.5, 0.5], [[0, 1], [1, 2]], [[0, -1]], {}, {"a": 1},
]
FUZZ_EDITS = hs.lists(hs.sampled_from(list(FUZZ_FIELDS)).flatmap(
    lambda level: hs.tuples(
        hs.just(level), hs.sampled_from(FUZZ_FIELDS[level] + ["extra"]),
        hs.none() | hs.sampled_from(range(len(FUZZ_VALUES))))),
    min_size=1, max_size=3)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(base=hs.sampled_from(FUZZ_BASES), edits=FUZZ_EDITS)
def test_config_boundary_fuzz(base, edits):
    """Only ConfigError leaves from_dict, and an accepted config's
    normalized content plus output_dir, through JSON, reloads to an equal
    config with the same hash."""
    raw = json.loads(json.dumps(base))
    for level, name, k in edits:  # k None removes the field
        target = raw
        if level is not None:
            if not isinstance(raw.get(level), dict):
                raw[level] = {}
            target = raw[level]
        if k is None:
            target.pop(name, None)
        else:
            target[name] = json.loads(json.dumps(FUZZ_VALUES[k]))
    try:
        config = ExperimentConfig.from_dict(raw)
    except ConfigError:
        return
    text = json.dumps({**config.normalized(), "output_dir": config.output_dir})
    reloaded = ExperimentConfig.from_dict(json.loads(text))
    assert reloaded == config
    assert reloaded.config_hash() == config.config_hash()


def test_readme_configuration_table_is_the_field_table():
    """README lists every field in order with its rule's default: a
    backticked JSON value, '—' for a required field, a word for null."""
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    section = readme.split("## Configuration\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+?) \|", section, re.M)
    defaults = {f.name: f.metadata["rule"][1]
                for f in dataclasses.fields(ExperimentConfig)}
    assert [name for name, _ in rows] == list(defaults)
    for name, text in rows:
        if text == "—":
            assert defaults[name] is harness._REQUIRED, name
        elif text.startswith("`"):
            assert json.loads(text.strip("`")) == defaults[name], name
        else:
            assert defaults[name] is None, name
    synthetic = re.search(r"synthetic Gaussian class blobs by default —\s*`"
                          r"(\{.*?\})`", section, re.S).group(1)
    assert json.loads(synthetic) == {
        name: default for name, (_, default) in harness._SYNTHETIC.items()
        if name != "csv"}


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
    sweep = acc.delay_sweep(structure, hp)
    for t in range(1, config.epochs + 1):
        curves = sweep.at(t)
        workers, table = worker_rows(
            structure, hp.threat_model, acc.pwp_rows_from_curves(
                [curves], structure, hp.threat_model, config.delta,
                config.alpha_grid)[0])
        want = [(w, *row) for w, row in zip(workers.tolist(), table.tolist())]
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


PWP_HEADER = b"epoch,worker,eps_rdp,alpha_star,eps_dp\n"


def test_artifacts_with_no_row(tmp_path):
    """pwp.csv is its header alone when no epoch is accounted (T = 0) or no
    worker has an admissible observer; a one-worker heatmap is its header
    alone.  A heatmap past a T = 0 horizon is still written in full."""
    def account(name, **overrides):
        config = make_config(tmp_path, output_dir=str(tmp_path / name),
                             **overrides)
        manifest = run_experiment(config, with_training=False)
        assert manifest["accounting_error"] is None
        return {p.name: p.read_bytes()
                for p in (tmp_path / name).iterdir() if p.suffix == ".csv"}

    written = account("t0_heatmap", epochs=0, heatmap_epochs=[3])
    assert written.keys() == {"pwp.csv", "heatmap_epoch_3.csv"}
    assert written["pwp.csv"] == PWP_HEADER
    heatmap = written["heatmap_epoch_3.csv"]
    assert len(heatmap.splitlines()) == 1 + 6 * 5
    # delay heatmaps do not depend on T: this is the golden run's epoch 3
    assert (hashlib.sha256(heatmap).hexdigest()
            == GOLDEN_RUNS["run_dpogl_tm1"][2]["heatmap_epoch_3.csv"])
    assert account("t0", epochs=0, heatmap_epochs=[]) == {
        "pwp.csv": PWP_HEADER}
    one_worker = account(
        "one_worker", heatmap_epochs=[3],
        structure={"kind": "GL", "num_workers": 1, "num_groups": 1})
    assert one_worker == {"pwp.csv": PWP_HEADER,
                          "heatmap_epoch_3.csv": b"n,i,eps\n"}
    trusted_world = account(
        "gl_tm2", threat_model="tm2", heatmap_epochs=[],
        structure={"kind": "GL", "num_workers": 4, "num_groups": 1})
    assert trusted_world == {"pwp.csv": PWP_HEADER}


@pytest.mark.parametrize("bound", ["delay", "degradation"])
def test_nothing_to_account_builds_no_sweep(tmp_path, bound):
    """With T = 0 and no heatmap epoch no bound is evaluated, so no sweep
    is built and no precondition applies: sigma = 1e200 (whose delay weight
    underflows to 0) leaves pwp.csv as its header and no accounting_error,
    under either bound."""
    config = make_config(
        tmp_path, epochs=0, heatmap_epochs=[], bound=bound, sigma=1e200,
        participation=1.0,
        structure={"num_workers": 5, "members_of_group": [[0, 1, 2],
                                                          [2, 3, 4]]})
    manifest = run_experiment(config, with_training=False)
    assert manifest["accounting_error"] is None
    assert manifest["outputs"] == ["pwp.csv"]
    assert (tmp_path / "out" / "pwp.csv").read_bytes() == PWP_HEADER


@pytest.mark.parametrize("bound", ["delay", "degradation"])
def test_pwp_rows_come_from_one_call_per_run(tmp_path, monkeypatch, bound):
    """All T epochs' pwp.csv rows come from one ``pwp_rows_from_curves``
    call, fed an iterator of epochs rather than a stack of curves; heatmap
    epochs inside and past T are converted on their own."""
    calls = []
    batched = acc.pwp_rows_from_curves

    def counted(curves_by_epoch, *args, **kwargs):
        assert not isinstance(curves_by_epoch, (list, tuple, np.ndarray))
        rows = batched(curves_by_epoch, *args, **kwargs)
        calls.append(rows.shape)
        return rows

    monkeypatch.setattr(acc, "pwp_rows_from_curves", counted)
    config = make_config(
        tmp_path, bound=bound, participation=1.0, heatmap_epochs=[4, 9],
        structure={"num_workers": 5, "members_of_group": [[0, 1, 2],
                                                          [2, 3, 4]]})
    manifest = run_experiment(config, with_training=False)
    assert manifest["accounting_error"] is None
    assert manifest["outputs"] == ["heatmap_epoch_4.csv",
                                   "heatmap_epoch_9.csv", "pwp.csv"]
    assert calls == [(config.epochs, 3, 3)]  # sets {0, 1}, {2}, {3, 4}
    assert len(read_lines(tmp_path / "out" / "pwp.csv")) == 1 + 6 * 5


def test_degradation_epochs_come_from_one_over_call(tmp_path, monkeypatch):
    """pwp.csv takes all T epochs of the degradation sweep from one
    ``Thm2Sweep.over`` call, and each heatmap epoch is one ``at`` call,
    itself a one-epoch ``over``."""
    calls = []
    over, at = acc.Thm2Sweep.over, acc.Thm2Sweep.at

    def counted_over(self, epochs):
        epochs = list(epochs)
        calls.append(("over", epochs))
        return over(self, epochs)

    def counted_at(self, t):
        calls.append(("at", t))
        return at(self, t)

    monkeypatch.setattr(acc.Thm2Sweep, "over", counted_over)
    monkeypatch.setattr(acc.Thm2Sweep, "at", counted_at)
    config = make_config(
        tmp_path, bound="degradation", participation=1.0, heatmap_epochs=[4, 9],
        structure={"num_workers": 5, "members_of_group": [[0, 1, 2],
                                                          [2, 3, 4]]})
    manifest = run_experiment(config, with_training=False)
    assert manifest["accounting_error"] is None
    assert calls == [("at", 4), ("over", [4]), ("at", 9), ("over", [9]),
                     ("over", list(range(1, config.epochs + 1)))]


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


def test_delay_account_holds_no_curve_tensor(tmp_path):
    """The delay pipeline's tracemalloc peak stays below the size of one
    (N, N, G) curve tensor (12.6 MB at N=256 and the default grid)."""
    config = make_config(
        tmp_path, epochs=20, heatmap_epochs=[10, 20],
        structure={"kind": "RI", "num_workers": 256, "num_groups": 32})
    tensor_bytes = 256 * 256 * len(acc.DEFAULT_ALPHA_GRID) * 8
    tracemalloc.start()
    try:
        run_experiment(config, with_training=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < tensor_bytes


RING8 = {"kind": "RI", "num_workers": 8, "num_groups": 4}
STRING4 = {"num_workers": 9,
           "members_of_group": [[0, 1, 2], [2, 3, 4], [4, 5, 6], [6, 7, 8]]}


@pytest.mark.parametrize("overrides", [
    dict(sigma=[2.0, 2.0, 1e-200, 2.0]),   # sigma^2 underflows to 0
    dict(sigma=[2.0, 2.0, 1e200, 2.0]),    # sigma^2 overflows
    dict(sigma=[2.0, 2.0, 1e-160, 2.0]),   # 2 pi^2 / sigma^2 overflows
    dict(participation=[0.7, 0.7, 1e-200, 0.7]),  # pi^2 underflows to 0
    dict(bound="degradation", structure=STRING4, participation=1.0,
         sigma=[2.0, 2.0, 1e-200, 2.0]),
    dict(bound="degradation", structure=STRING4, participation=1.0,
         sigma=[2.0, 2.0, 1e200, 2.0]),
], ids=["delay-sigma-1e-200", "delay-sigma-1e200", "delay-sigma-1e-160",
        "delay-participation-1e-200", "degradation-sigma-1e-200",
        "degradation-sigma-1e200"])
def test_extreme_group_budgets_are_refused(tmp_path, capsys, overrides):
    """A per-group budget that is not finite and > 0 is an accounting
    precondition failure that names the group, like sigma = 0: no
    traceback, no misleading error and no exact 0 for a connected pair."""
    path = write_config(tmp_path, **{"structure": RING8, "epochs": 4,
                                     "heatmap_epochs": [3], **overrides})
    assert cli_main(["account", str(path)]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["accounting_error"].startswith("group 2: ")
    assert "not finite and > 0" in manifest["accounting_error"]
    assert manifest["outputs"] == []
    assert "accounting disabled: group 2: " in capsys.readouterr().err


def test_overflowing_mechanism_variance_is_refused(tmp_path, capsys):
    """W (c sigma)^2 that overflows is refused with the group named.  Its
    budget alpha / (2 sigma^2) is still a normal float, so the budget check
    passes; the infinite variance used to make NaN and 0 mu factors and
    print exact zeros for connected pairs, with RuntimeWarnings."""
    overrides = dict(structure=STRING4, bound="degradation", participation=1.0,
                     epochs=12, local_iterations=1, learning_rate=0.01,
                     clip=[0.05, 1e10, 0.05, 0.05],
                     sigma=[2.0, 1e150, 2.0, 2.0], heatmap_epochs=[12])
    hp = harness._hyper_params(make_config(tmp_path, **overrides))
    string = topology.GroupStructure(9, STRING4["members_of_group"])
    path = write_config(tmp_path, **overrides)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sweep in (acc.lsi_recursion, acc.thm2_curve_sweep):
            with pytest.raises(acc.AccountingPreconditionError,
                               match="^group 1: the mechanism variance"):
                sweep(string, hp, 1.0, 12)
        assert cli_main(["account", str(path)]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["accounting_error"].startswith(
        "group 1: the mechanism variance W (c sigma)^2 is not finite")
    assert manifest["outputs"] == []
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["manifest.json"]
    assert "accounting disabled: group 1: " in capsys.readouterr().err


def test_overflowing_lsi_spread_is_refused(tmp_path, capsys):
    """(1 + (1 + eta beta)^L)^2 past the float range is an accounting
    precondition failure under both commands; it used to escape as an
    OverflowError, exit 1 and leave no manifest."""
    overrides = dict(seed=0, epochs=6, inter_group_period=1,
                     local_iterations=200, learning_rate=1.0, participation=1.0,
                     clip=0.5, sigma=1.0, bound="degradation",
                     heatmap_epochs=[6], structure={
                         "num_workers": 5,
                         "members_of_group": [[0, 1, 2], [2, 3, 4]]},
                     data={"num_classes": 3, "dims": 2, "per_class": 20})
    path = write_config(tmp_path, **overrides)
    for command, outputs in (("run", ["metrics.csv"]), ("account", [])):
        out = tmp_path / command
        assert cli_main([command, str(path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["accounting_error"].startswith("the LSI spread")
        assert manifest["outputs"] == outputs
        assert "accounting disabled: the LSI spread" in capsys.readouterr().err


def test_delta_with_infinite_reciprocal_is_refused(tmp_path, capsys):
    """log(1/delta) would be inf in every eps_dp of pwp.csv."""
    for delta in (1e-320, 5e-324, 5.5e-309):
        with pytest.raises(ConfigError, match=r"^delta must lie in \(0, 1\]"):
            make_config(tmp_path, delta=delta)
        assert cli_main(["account", str(write_config(tmp_path,
                                                     delta=delta))]) == 2
        assert ("config error: delta must lie in (0, 1]"
                in capsys.readouterr().err)
        K = np.array([[np.nan, 0.5], [0.5, np.nan]])
        with pytest.raises(ValueError, match="delta"):
            acc.dp_matrix_from_curves(K, delta)
        with pytest.raises(ValueError, match="delta"):
            acc.pwp_rows_from_curves([K], topology.GroupStructure(2, [[0], [1]]),
                                     "tm1", delta)
        with pytest.raises(ValueError, match="delta"):
            orc.rdp_to_dp([0.5], delta, (2.0,))
    # the smallest normal delta still has a finite reciprocal
    make_config(tmp_path, delta=2.2250738585072014e-308)


def _pwp_by_worker(path):
    rows = {}
    for line in read_lines(path)[1:]:
        t, worker, eps_rdp, alpha_star, eps_dp = line.split(",")
        rows.setdefault(int(worker), []).append(
            (int(t), float(eps_rdp), float(alpha_star), float(eps_dp)))
    return rows


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("overrides", [
    dict(epochs=40, structure={"kind": "RI", "num_workers": 16,
                               "num_groups": 8}),
    dict(epochs=40, bound="degradation", participation=1.0,
         structure={"num_workers": 9, "members_of_group": [
             [0, 1, 2], [2, 3, 4], [4, 5, 6], [6, 7, 8]]}),
])
def test_pwp_is_monotone_in_t(tmp_path, overrides):
    """Per worker, eps_dp never decreases in t.  eps_rdp is the curve at
    alpha*, and alpha* never increases, so eps_rdp never decreases while
    alpha* holds; it may drop where alpha* moves to a smaller order."""
    run_experiment(make_config(tmp_path, heatmap_epochs=[], **overrides),
                   with_training=False)
    for rows in _pwp_by_worker(tmp_path / "out" / "pwp.csv").values():
        assert [r[0] for r in rows] == list(range(1, 41))
        for (_, rdp0, alpha0, dp0), (_, rdp1, alpha1, dp1) in zip(rows, rows[1:]):
            assert dp1 >= dp0
            assert alpha1 <= alpha0
            if alpha1 == alpha0:
                assert rdp1 >= rdp0
        assert rows[-1][3] > rows[0][3]


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
    # a declared class with no row: nothing to split or partition for it,
    # and every epoch is still scored
    path = write_config(tmp_path, epochs=2,
                        structure={"kind": "GL", "num_workers": 4, "num_groups": 1},
                        data={"csv": str(csv_path), "num_classes": 3})
    assert cli_main(["run", str(path)]) == 0
    rows = read_lines(tmp_path / "out" / "metrics.csv")[1:]
    assert [row.split(",")[0] for row in rows] == ["1", "2"]
    assert all(math.isfinite(float(x)) for row in rows for x in row.split(","))


# ---------------------------------------------------------------------------
# artifact text: the writers against straight-line references

def _reference_heatmap_text(matrix):
    """One f-string per off-diagonal cell, formatting every cell."""
    rows = [f"{n},{i},{'trusted' if c != c else format(c, '.17g')}"
            for n, cells in enumerate(matrix.tolist())
            for i, c in enumerate(cells) if i != n]
    return "\n".join(["n,i,eps", *rows]) + "\n"


def _reference_pwp_lines(t, workers, table):
    """One f-string per row, formatting every float."""
    return [f"{t},{worker},{eps_rdp:.17g},{alpha_star:.17g},{eps_dp:.17g}"
            for worker, (eps_rdp, alpha_star, eps_dp)
            in zip(workers.tolist(), table.tolist())]


def _written_text(header, lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "artifact.csv"
        harness._write_lines(path, header, lines)
        return path.read_bytes().decode("utf-8")


_SUBNORMAL = 5e-324


@hs.composite
def _palettes(draw):
    """A few floats that the writer must keep apart: NaN, both zeros, a
    subnormal, a huge value and a pair of adjacent floats."""
    x = draw(hs.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                       allow_infinity=False))
    extra = draw(hs.lists(hs.floats(allow_nan=False, allow_infinity=False),
                          max_size=3))
    return [math.nan, 0.0, -0.0, _SUBNORMAL, 1e300, x,
            float(np.nextafter(x, math.inf)), *extra]


@hs.composite
def _matrices(draw):
    size = draw(hs.integers(1, 20))
    palette = draw(_palettes())
    picks = draw(hs.lists(hs.integers(0, len(palette) - 1),
                          min_size=size * size, max_size=size * size))
    return np.array([palette[k] for k in picks]).reshape(size, size)


def _pwp_epoch(t, rows):
    """(t, workers, table) as ``worker_rows`` gathers them from the set rows
    of ``pwp_rows_from_curves``, from
    (worker, eps_rdp, alpha_star, eps_dp) rows."""
    workers = np.array([row[0] for row in rows], dtype=np.int64)
    table = np.array([row[1:] for row in rows], dtype=np.float64)
    return t, workers, table.reshape(-1, 3)


@hs.composite
def _pwp_epochs(draw):
    """(t, workers, table) per epoch, as the pipeline's are: the same
    workers at every epoch, each mapped to one of a few group sets, and
    each reading its set's row, drawn per epoch.  There may be no observed
    worker, and then every epoch has none."""
    size = draw(hs.integers(1, 20))
    palette = [v for v in draw(_palettes()) if v == v]  # pwp holds no NaN
    value = hs.sampled_from(palette)
    workers = sorted(draw(hs.lists(hs.integers(0, size - 1), unique=True)))
    num_sets = draw(hs.integers(1, max(1, len(workers))))
    set_of = [draw(hs.integers(0, num_sets - 1)) for _ in workers]
    epochs = []
    for t in range(1, draw(hs.integers(1, 4)) + 1):
        set_rows = [(draw(value), draw(value), draw(value))
                    for _ in range(num_sets)]
        epochs.append(_pwp_epoch(t, [(w, *set_rows[k])
                                     for w, k in zip(workers, set_of)]))
    return epochs


def _pwp_writer_lines(epochs):
    """The pwp.csv writer's lines for (t, workers, table) epochs.  Each run
    of consecutive epochs with the same workers is one writer call; in it,
    the workers whose rows are bit-equal at every epoch of the run share a
    group set, numbered in bit order rather than in worker order."""
    lines = []
    for _, run in itertools.groupby(epochs, key=lambda e: e[1].tolist()):
        ts, workers, tables = zip(*run)
        bits = np.stack(tables, axis=1).view(np.int64)  # (k, epochs, 3)
        _, first, rows = np.unique(bits.reshape(len(bits), 3 * len(ts)),
                                   axis=0, return_index=True,
                                   return_inverse=True)
        blocks = harness._pwp_blocks(ts, workers[0], rows.reshape(-1),
                                     [table[first] for table in tables])
        lines += "\n".join(blocks).splitlines()
    return lines


_EDGE_CELLS = np.array([[0.0, -0.0, math.nan], [_SUBNORMAL, 1e300, 0.1],
                        [float(np.nextafter(0.1, 1.0)), -0.0, 0.0]])


@hs.composite
def _heatmap_cases(draw):
    """A (P, P) set-pair matrix, the set of each of N workers, and a (P, P)
    undefined mask that covers every NaN cell, as the pipeline's does."""
    matrix = draw(_matrices())
    owner = np.array(draw(hs.lists(hs.integers(0, matrix.shape[0] - 1),
                                   min_size=1, max_size=20)))
    picks = draw(hs.lists(hs.booleans(), min_size=matrix.size,
                          max_size=matrix.size))
    return matrix, owner, np.isnan(matrix) | np.reshape(picks, matrix.shape)


def _one_worker_per_set(matrix):
    return matrix, np.arange(matrix.shape[0]), np.isnan(matrix)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(_heatmap_cases())
@example(_one_worker_per_set(_EDGE_CELLS))
@example(_one_worker_per_set(np.array([[math.nan]])))
def test_heatmap_text_matches_reference_bitwise(case):
    """The heatmap writer formats each distinct bit pattern of the set-pair
    matrix once, builds each set's lines once, gathers them to worker
    pairs, and still writes the reference's bytes: -0.0 stays apart from
    0.0, adjacent floats stay apart, undefined cells read 'trusted' and the
    diagonal is skipped."""
    matrix, owner, undefined = case
    text = _written_text("n,i,eps",
                         harness._heatmap_blocks(matrix, owner, undefined))
    cells = np.where(undefined, math.nan, matrix)[np.ix_(owner, owner)]
    assert text == _reference_heatmap_text(cells)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(_pwp_epochs())
@example([_pwp_epoch(1, [(0, 0.0, 2.0, -0.0), (2, _SUBNORMAL, 1e300, 0.0)]),
          _pwp_epoch(2, []),
          _pwp_epoch(3, [(1, 0.1, float(np.nextafter(0.1, 1.0)), 0.1)])])
def test_pwp_text_matches_reference_bitwise(epochs):
    """pwp.csv formats the distinct floats of all epochs' set rows once,
    builds each set's text once per epoch, gathers it to the set's workers,
    and still writes the reference's bytes, including epochs with no
    observed worker, whose arrays are (0,) and (0, 3)."""
    assert _pwp_writer_lines(epochs) == [
        line for epoch in epochs for line in _reference_pwp_lines(*epoch)]


# SHA-256 of every file of seven small runs: the first four recorded before
# the writers formatted each distinct value once, the next two before the
# block rule lost its second counting convention, every manifest.json of
# those six after that (the manifest and config hash no longer hold a
# ``variant``), and the last run before the writers built text per group
# set.
# Recorded with numpy 2.4.6 (Python 3.11.7, x86-64): metrics.csv depends on
# the floating-point summation order of the numpy build, so another build
# may change its digest.
GOLDEN_RUNS = {
    "run_dpogl_tm1": (True, dict(heatmap_epochs=[3, 6]), {
        "heatmap_epoch_3.csv": "187fea00e8ef91aea4d72814c50c04e1351e9cbe485f316690ecb62e0cf54277",
        "heatmap_epoch_6.csv": "af1e05ba5eac288387bc131ed961937bfd75a359527af8dd7de26fcd64d1a277",
        "manifest.json": "bb97777ca1048fa7fc277aa026091fb47120fd276cc36178d476901589283ea1",
        "metrics.csv": "f66b13293da2fdf1640cab8aa3c6f84f29c48505a3865582f1be6403408c05df",
        "pwp.csv": "6a25c48397e86bbafe1c61a228a3ba3aac2086cefd6d5f1c1e9a704f68a3e891",
    }),
    "run_dpogl_plus_tm2": (True, dict(algorithm="dpogl_plus",
                                      threat_model="tm2",
                                      heatmap_epochs=[4, 6]), {
        "heatmap_epoch_4.csv": "bff725a003198a1240742901c962157bf56443c2fcfb49b634b33da0567dda23",
        "heatmap_epoch_6.csv": "31235eef9cd23578223bb187cc564759577df51c78ad385f3f711e0f46882b93",
        "manifest.json": "9ccb69b5a7ebc2084769896014ddbaf7d6aa9d217c2e1f604991e55f8cdea81d",
        "metrics.csv": "ceebc7ed9405a383f60f40b4b5cf40600feabf9291248c5a2c541f60b7c165b1",
        "pwp.csv": "4373f6b231131b16fbc933ce62d722ba8b59262404c59f8421ef9c701dde652f",
    }),
    "account_delay": (False, dict(
        epochs=10, heatmap_epochs=[5, 10, 13],
        structure={"kind": "RI", "num_workers": 12, "num_groups": 4}), {
        "heatmap_epoch_10.csv": "f607d63093c5237ce61c429a7d0284392fae51b7cde8f53c569feacc1252b6df",
        "heatmap_epoch_13.csv": "357c113ab3ee0277a3a78432943100bdfbffb42ed48a70db554b3ca4b3a2ef9a",
        "heatmap_epoch_5.csv": "3c14b4ec7feb63d6b50d19a6b2fd9ab3ea8b74ea31a6fb1a9b6527b54d37aba0",
        "manifest.json": "a2cf96f770bff2b961cb6530065c2515904101565366f8577809fd4604e45dce",
        "pwp.csv": "8a3fdcd1e70ceaffa32639b854d6f93980a7bf6c05b9bfea698309be7369343e",
    }),
    "account_degradation": (False, dict(
        bound="degradation", participation=1.0, clip=0.5, epochs=12,
        heatmap_epochs=[6, 12],
        data={"num_classes": 3, "dims": 2, "per_class": 20},
        structure={"num_workers": 7,
                   "members_of_group": [[0, 1, 2], [2, 3, 4], [4, 5, 6]]}), {
        "heatmap_epoch_12.csv": "e8dc8edfc5e6543bb6995cec3eacceed49f73fb493144417c9c253634fb226b7",
        "heatmap_epoch_6.csv": "b3981a64695ec09a64ad1dea70867728ed8a06005fb0af85ee9998ed36a345c6",
        "manifest.json": "0b277f26ca9cab9352d77ea0dfa1fbea01abe2b736bf044f462aad9879e7feff",
        "pwp.csv": "22241904f2c1d3cf1d4eafc2975cac4bb48a3b65bd5af11ccc8de676e9f7a323",
    }),
    # the window convention of dpogl_plus; one local step at a small
    # learning rate keeps mu above 0
    "account_degradation_plus": (False, dict(
        bound="degradation", algorithm="dpogl_plus", threat_model="tm2",
        inter_group_period=3, participation=1.0,
        clip=0.5, sigma=1.0, local_iterations=1, learning_rate=0.01,
        epochs=18, heatmap_epochs=[12, 18, 21],
        data={"num_classes": 3, "dims": 2, "per_class": 20},
        structure={"num_workers": 9,
                   "members_of_group": [[0, 1, 2], [2, 3, 4], [4, 5, 6],
                                        [6, 7, 8]]}), {
        "heatmap_epoch_12.csv": "f397051530c2ebef584a57d219bdd447ac71a02cda9d034483e4dda9531df4de",
        "heatmap_epoch_18.csv": "d05b1dee91fa1cf57e639162278d10efdc9ae071489c2c6f7244baf392ac04db",
        "heatmap_epoch_21.csv": "71e84b7ca94cab11c8a27ee79806d42ae75c837730c7e473f2b454447b921a75",
        "manifest.json": "269e172d94a01064beb099bb6252acc48ec064da58ae2c592f39eba5bffdc1ac",
        "pwp.csv": "b1d9e479fbca04c66f28c025e57636ba13e76e98a6e83f664eabe89e01c563a6",
    }),
    # the delay path with per-group lists; group 0's delay weight
    # 2 pi^2 / sigma^2 rounds differently under array ``**`` than under
    # scalar ``**``
    "account_delay_lists": (False, dict(
        inter_group_period=3, epochs=15,
        heatmap_epochs=[6, 15, 18],
        sigma=[1.5952888379372823, 2.0, 0.7, 3.3],
        participation=[0.8133073424482733, 0.7, 1.0, 0.25],
        structure={"kind": "RI", "num_workers": 12, "num_groups": 4}), {
        "heatmap_epoch_15.csv": "4a7de603654a5ce4c93e23a0ec3d2db46b69835ab18ea0592fedc93980f8a204",
        "heatmap_epoch_18.csv": "3b4136e7f066b24c946be06ca2e1d5f23dba5907a0b92c30be5f1baf2bc48de7",
        "heatmap_epoch_6.csv": "0a5c130fa87d02c53784d04ea2666ce3117b2bcd314255f1cf3bc76a9677ad83",
        "manifest.json": "4c538796fa32abafaa4960fb65ea46df04329cacb1afe5b6d0f5d6af33e93c6a",
        "pwp.csv": "ebdd366901794230b74fe32ec7b3816f0446c1cc8712a3f6761530d15ea8a652",
    }),
    # worker 0 sits in three groups, group 3 is a one-worker set, and the
    # workers of a set share their pwp.csv rows and heatmap lines
    "account_delay_shared_sets_tm2": (False, dict(
        threat_model="tm2", epochs=8, heatmap_epochs=[4, 8, 11],
        structure={"num_workers": 7,
                   "members_of_group": [[0, 1, 2], [0, 3, 4], [0, 5], [6]]}), {
        "heatmap_epoch_11.csv": "3074c922a9e91fd2bcd885d2b2e59e24d01324b4a85db8c709d1b4563b03f37b",
        "heatmap_epoch_4.csv": "e6c36c40dae1be890ddd9b40a6cac97d550e7df7ac06ac1061689b70a74c8322",
        "heatmap_epoch_8.csv": "4af230d1be0c42126b2e022d798aeaf439d0d1ffea0788eba895f2a04f2cdf53",
        "manifest.json": "8ae17052ee5d0b9043d6f9394e1570421fe6557bf0c95a04b615b9faa0e2a2f9",
        "pwp.csv": "93434005fdc757c811686b9afbff890d4f3fd585515ecf9b3a7de354a11b93d5",
    }),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_artifacts_match_golden_digests(tmp_path, name):
    with_training, overrides, digests = GOLDEN_RUNS[name]
    manifest = run_experiment(make_config(tmp_path, **overrides),
                              with_training=with_training)
    assert manifest["accounting_error"] is None
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (tmp_path / "out").iterdir()}
    assert written == digests


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


def test_cli_overrides(tmp_path, capsys):
    path = write_config(tmp_path)
    assert cli_main(["account", str(path), "--out", str(tmp_path / "o2"),
                     "--heatmap-epochs", "2,5", "--threat", "tm2"]) == 0
    manifest = json.loads((tmp_path / "o2" / "manifest.json").read_text())
    assert "variant" not in manifest
    assert manifest["threat_model"] == "tm2"
    assert "heatmap_epoch_2.csv" in manifest["outputs"]
    assert "heatmap_epoch_5.csv" in manifest["outputs"]
    assert "heatmap_epoch_4.csv" not in manifest["outputs"]
    with pytest.raises(SystemExit) as exit_info:  # no such flag
        cli_main(["account", str(path), "--variant", "as_printed"])
    assert exit_info.value.code == 2
    capsys.readouterr()
    assert cli_main(["account", str(path), "--out", str(tmp_path / "o4"),
                     "--heatmap-epochs", "2,x"]) == 2
    assert capsys.readouterr().err == (
        "config error: --heatmap-epochs must be comma-separated integers\n")
    assert not (tmp_path / "o4").exists()


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
    removed = write_config(tmp_path, variant="as_printed")
    assert cli_main(["account", str(removed)]) == 2
    assert "config error: unknown field 'variant'" in capsys.readouterr().err
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"epochs": 3, "output_dir": "r\xe9sultats"}')
    for command in ("run", "account"):
        assert cli_main([command, str(latin)]) == 2
        assert "config error: config file is not UTF-8" in \
            capsys.readouterr().err
    latin_csv = tmp_path / "latin.csv"
    latin_csv.write_bytes(b"0.5,1.0,0\n\xe9,2.0,1\n")
    bad_value = tmp_path / "bad_value.csv"
    bad_value.write_text("0.5,1.0,0\nx,2.0,1\n")
    one_column = tmp_path / "one_column.csv"
    one_column.write_text("0\n1\n0\n1\n")
    one_class = tmp_path / "one_class.csv"  # and no data.num_classes
    one_class.write_text("".join(f"{k * 0.5},{k},0\n" for k in range(8)))
    for command in ("run", "account"):
        for csv in (tmp_path / "absent.csv", latin_csv):
            path = write_config(tmp_path, data={"csv": str(csv)})
            assert cli_main([command, str(path)]) == 2
            assert "config error: cannot read data.csv file" in \
                capsys.readouterr().err
        # a readable file with a bad value inside is not a config error
        path = write_config(tmp_path, data={"csv": str(bad_value)})
        assert cli_main([command, str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        for csv, message in (
                (one_column, "CSV rows need at least one feature column plus a label"),
                (one_class, "need at least two classes")):
            path = write_config(tmp_path, data={"csv": str(csv)})
            assert cli_main([command, str(path)]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
        # neither is an LB structure that the partition cannot build
        path = write_config(tmp_path, structure={
            "kind": "LB", "num_workers": 6, "num_groups": 3})
        assert cli_main([command, str(path)]) == 1
        assert "worker 3 has no labels" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_accounting_failure_still_exits_zero(tmp_path, capsys):
    path = write_config(tmp_path, bound="degradation", participation=1.0)
    assert cli_main(["run", str(path)]) == 0
    assert "accounting disabled" in capsys.readouterr().err


def test_cli_distances(tmp_path, capsys):
    ring = write_config(tmp_path, structure={"kind": "RI", "num_workers": 8,
                                             "num_groups": 4})
    assert cli_main(["distances", str(ring)]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "group-to-group distance"
    assert out[2] == "0,0,1,2,1"
    assert "group-to-worker distance" in out
    assert cli_main(["distances", str(tmp_path / "absent.json")]) == 2
    orphan = write_config(tmp_path, structure={"num_workers": 3,
                                               "members_of_group": [[0, 1]]})
    assert cli_main(["distances", str(orphan)]) == 2
    fractional = write_config(tmp_path, structure={
        "num_workers": 3.7, "members_of_group": [[0, 1], [1, 2]]})
    capsys.readouterr()
    assert cli_main(["distances", str(fractional)]) == 2
    assert "config error: field 'structure.num_workers'" in \
        capsys.readouterr().err
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"epochs": 3, "output_dir": "r\xe9sultats"}')
    assert cli_main(["distances", str(latin)]) == 2
    assert "config error: config file is not UTF-8" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # distances writes nothing


def test_module_entry_point():
    """``python -m dpogl`` runs the CLI and exits with its code."""
    root = Path(__file__).resolve().parents[1]

    def module(*args):
        return subprocess.run(
            [sys.executable, "-m", "dpogl", *args], cwd=root,
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(root / "src")})

    shown = module("distances", "configs/desk_default.json")
    assert shown.returncode == 0, shown.stderr
    assert shown.stdout.startswith("group-to-group distance\n")
    assert module("run", "/nonexistent.json").returncode == 2


def test_cli_distances_of_an_lb_structure(tmp_path, capsys):
    """distances prints the structure that ``prepare`` builds from the
    realized partition: here a 4-group LB string."""
    path = write_config(tmp_path, seed=0, structure={
        "kind": "LB", "num_workers": 8, "num_groups": 4}, data={
        "num_classes": 4, "dims": 3, "per_class": 20, "dirichlet_beta": 0.1})
    structure = harness.prepare(
        ExperimentConfig.from_dict(json.loads(path.read_text())))[3]
    assert cli_main(["distances", str(path)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    M = structure.num_groups
    printed = [[float(x) for x in line.split(",")[1:]]
               for line in lines[2:M + 2] + lines[M + 4:]]
    assert printed[:M] == structure.distances.tolist()
    assert printed[M:] == structure.set_distances[
        :, structure.group_set_of_worker].tolist()
    assert structure.distances.max() == 3  # not a one-hop structure
