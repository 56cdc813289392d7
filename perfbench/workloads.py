"""The benchmark's four workloads: which CLI jobs each runs, at what sizes.

Sizes are scaled down from the paper-figure defaults so that one repetition
(a fresh interpreter, the import, and every job) takes 4-7 s on a 2-core box
and a 30 s run holds three or more repetitions.  Each workload keeps the code
path and call structure of its full-size job; README.md says why each exists.
"""
from __future__ import annotations

from dataclasses import dataclass

# The CLI seed is the benchmark seed modulo this; reference row digests are
# recorded for every CLI seed in range(SEED_MODULUS), so `cli.rows_changed`
# is defined at any benchmark seed.
SEED_MODULUS = 32
REFERENCE_SEED = 0


@dataclass(frozen=True)
class Job:
    command: str  # also the stem of the job's CSV and manifest
    config: dict


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int  # LAGPC_WORKERS for every job of the workload
    jobs: tuple


_K_MAP = [2.5 * i for i in range(9)]  # 0..20 dB, crosses the 10 dB r switch

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "design-map",
            1,
            (
                Job("design-fast", {"k_db": _K_MAP}),
                Job("design-slow", {"k_db": _K_MAP, "r_p": 2.0, "p_out_p": 0.01, "r_cr": 1.0}),
                Job("asymptotic-check", {}),
            ),
        ),
        Workload(
            "ergodic-sweep",
            1,
            (
                Job(
                    "reproduce-figure",
                    {"figure": 3, "n_ergodic": 50_000, "bf_grid_n": 61, "bf_mc_n": 10_000},
                ),
            ),
        ),
        Workload(
            "outage-sweep",
            2,
            (
                Job(
                    "reproduce-figure",
                    {"figure": 5, "n_outage": 100_000, "bf_grid_n": 31, "bf_mc_n": 10_000},
                ),
            ),
        ),
        Workload(
            "lattice-codec",
            1,
            (
                Job(
                    "lattice-sim",
                    {
                        "k_db": 10.0,
                        "rate": 2.0,
                        "snr_db": [22.0, 24.0, 26.0],
                        "schemes": ["la_gpc", "interference_as_noise"],
                        "trials": 100,
                        "theory_n": 100_000,
                    },
                ),
            ),
        ),
    )
}


def cli_seed(seed: int) -> int:
    return seed % SEED_MODULUS
