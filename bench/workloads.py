"""Seeded workload generator: the CLI arguments of one benchmark invocation.

Seed 0 gives exactly the documented command of each workload.  Any other
seed redraws only the reduced temperatures, keeping their count and range,
so the work per invocation stays the same size.  The program sees nothing
but the generated arguments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Temperatures are drawn without replacement from a lattice of this step, so
# every draw is distinct and prints exactly under the CLI's ``%g`` file names.
_LATTICE_STEP = 1e-3


@dataclass(frozen=True)
class Workload:
    """What a workload runs; why it runs it is in BENCHMARK.json."""

    base_argv: tuple
    seed0_temperatures: tuple
    temperature_range: tuple
    enhancements: tuple


def _grid(first: int, last: int, step: float) -> tuple:
    return tuple(float(f"{k * step:g}") for k in range(first, last + 1))


WORKLOADS = {
    "surface": Workload(
        base_argv=("rates", "--config", "fig2", "--threads", "1"),
        seed0_temperatures=_grid(1, 19, 0.05),
        temperature_range=(0.05, 0.95),
        enhancements=(100.0,),
    ),
    "dm_wide": Workload(
        base_argv=(
            "dm",
            "--config",
            "fig3",
            "--threads",
            "1",
            "--set",
            "emission.l_max=6",
            "--set",
            "grid.verify_quadrature=true",
        ),
        seed0_temperatures=(0.5, 0.9),
        temperature_range=(0.5, 0.9),
        enhancements=(10.0, 100.0),
    ),
    "fidelity_scan": Workload(
        base_argv=(
            "fidelity",
            "--config",
            "fig3",
            "--threads",
            "1",
            "--set",
            "grid.temperatures=" + ",".join(f"{t:g}" for t in _grid(1, 95, 0.01)),
            "--set",
            "emission.enhancements=10,30,100",
        ),
        seed0_temperatures=_grid(1, 95, 0.01),
        temperature_range=(0.01, 0.95),
        enhancements=(10.0, 30.0, 100.0),
    ),
}


@dataclass(frozen=True)
class Invocation:
    """One generated CLI invocation and the outputs it must produce."""

    workload: str
    seed: int
    argv: tuple
    temperatures: tuple

    @property
    def spec(self) -> Workload:
        return WORKLOADS[self.workload]

    def expected_files(self) -> tuple:
        """Names the manifest must list: every data file and its SVG plot."""
        kind = self.argv[0]
        if kind == "rates":
            stems = ["rates_cp", "rates_bqp"]
        elif kind == "dm":
            stems = [
                f"dm_{t:g}_{e:g}" for t in self.temperatures for e in self.spec.enhancements
            ]
        else:
            stems = ["fidelity"]
        data_ext = ".json" if kind == "dm" else ".csv"
        return tuple(sorted([s + data_ext for s in stems] + [s + ".svg" for s in stems]))


def draw_temperatures(workload: str, seed: int) -> tuple:
    """Sorted distinct reduced temperatures for a seed; seed 0 gives the preset list."""
    spec = WORKLOADS[workload]
    if seed == 0:
        return spec.seed0_temperatures
    lo, hi = (round(x / _LATTICE_STEP) for x in spec.temperature_range)
    picks = random.Random(seed).sample(range(lo, hi + 1), len(spec.seed0_temperatures))
    return tuple(float(f"{k * _LATTICE_STEP:g}") for k in sorted(picks))


def generate(workload: str, seed: int) -> Invocation:
    """The invocation for ``workload`` under ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {sorted(WORKLOADS)}")
    spec = WORKLOADS[workload]
    temps = draw_temperatures(workload, seed)
    argv = list(spec.base_argv)
    if seed != 0:
        setting = "grid.temperatures=" + ",".join(f"{t:g}" for t in temps)
        if any(a.startswith("grid.temperatures=") for a in argv):
            argv = [setting if a.startswith("grid.temperatures=") else a for a in argv]
        else:
            argv += ["--set", setting]
    return Invocation(workload, seed, tuple(argv), temps)
