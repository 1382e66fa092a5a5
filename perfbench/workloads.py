"""The benchmark's workloads: exact experiment configs and why each exists.

Every config is generated from the workload seed; the program sees nothing
but the generated configs.  An untraced run cycles through
``INPUTS_PER_RUN`` configs, whose ``seed`` is ``workload seed * INPUTS_PER_RUN
+ j``: participation is drawn from the config seed, and on the train
workloads one draw can hold 27 % more gradient steps than another (36,510 to
46,240 on train_ri over seeds 0-9), so a run that averaged a single draw
would measure the draw more than the program.  ``tiny`` variants keep each
workload's shape at a size the self-test can afford.
"""

from __future__ import annotations

INPUTS_PER_RUN = 4


def _ri(num_workers: int, num_groups: int) -> dict:
    return {"kind": "RI", "num_workers": num_workers, "num_groups": num_groups}


def _open_string(num_groups: int) -> dict:
    """Group m holds workers {2m, 2m+1, 2m+2}: adjacent groups share one."""
    return {"num_workers": 2 * num_groups + 1,
            "members_of_group": [[2 * m, 2 * m + 1, 2 * m + 2]
                                 for m in range(num_groups)]}


def _train_ri(tiny: bool) -> dict:
    return {"algorithm": "dpogl", "threat_model": "tm1",
            "epochs": 20 if tiny else 100, "bound": "delay",
            "heatmap_epochs": [10, 20] if tiny else [50, 100],
            "structure": _ri(8, 4) if tiny else _ri(64, 16)}


def _train_ri_plus(tiny: bool) -> dict:
    return {**_train_ri(tiny), "algorithm": "dpogl_plus", "threat_model": "tm2"}


def _account_ri(tiny: bool) -> dict:
    return {"algorithm": "dpogl", "threat_model": "tm1",
            "epochs": 20 if tiny else 100, "bound": "delay",
            "heatmap_epochs": [10, 20] if tiny else [50, 100],
            "structure": _ri(12, 4) if tiny else _ri(256, 32)}


def _account_string(tiny: bool) -> dict:
    # T=60 is the first horizon at which every pair of the M=6 string has a
    # delivered block (the far ends are five hops apart).
    return {"algorithm": "dpogl", "threat_model": "tm1",
            "epochs": 30 if tiny else 60, "participation": 1.0,
            "bound": "degradation",
            "heatmap_epochs": [20, 30] if tiny else [30, 60],
            "structure": _open_string(3 if tiny else 6)}


# name -> (config maker, runs training?, why)
WORKLOADS = {
    "train_ri": (
        _train_ri, True,
        "dpogl run on an RI ring, N=64 M=16 T=100: local SGD, RNG streams and "
        "per-epoch metrics carry ~85% of the time, delay accounting the rest"),
    "train_ri_plus": (
        _train_ri_plus, True,
        "dpogl_plus/tm2 run on the train_ri ring: the windowed trainer path "
        "(one clip+noise per window) and the tm2 envelope"),
    "account_ri": (
        _account_ri, False,
        "delay account on an RI ring, N=256 M=32 T=100: no trainer; per-epoch "
        "structure rebuilds and a 12.6 MB curve tensor (above L2, below L3)"),
    "account_string": (
        _account_string, False,
        "degradation account on an open string, M=6 N=13 T=60: per-pair "
        "thm2 curves, LSI recursion and mu factors; no other workload runs it"),
}


def names() -> list[str]:
    return list(WORKLOADS)


def configs(name: str, seed: int, tiny: bool = False) -> list[dict]:
    """The raw experiment configs of workload ``name`` for workload seed
    ``seed``."""
    make = WORKLOADS[name][0]
    return [{"seed": seed * INPUTS_PER_RUN + j, **make(tiny)}
            for j in range(INPUTS_PER_RUN)]


def with_training(name: str) -> bool:
    """True for a ``dpogl run`` workload, False for ``dpogl account``."""
    return WORKLOADS[name][1]


def why(name: str) -> str:
    return WORKLOADS[name][2]
