"""Design pools of the three workloads and the seeded lists drawn from them.

A *design* is one exploration problem: a case study, its template sizes
and, where it differs from the case default, a deadline. Every list a
seed draws holds every pool entry the same number of times, shuffled;
the seed changes the order (and, on ``sweep-rerun``, which entries are
edited), never how much work the list holds, so figures from different
seeds measure the same work.

This module imports nothing from ``repro`` at import time, so the
set-up probe can draw a list before it starts its clock.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
DATA_DIR = BENCH_DIR / "data"
ROOT = BENCH_DIR.parent

WORKLOADS = ("cut-growth", "verify-bound", "sweep-rerun")

#: Size argument names per case study, in the order a design's name shows them.
SIZE_ARGS: Dict[str, Tuple[str, ...]] = {
    "rpl": ("n_a", "n_b"),
    "epn": ("left", "right", "apu"),
    "wsn": ("num_sensors", "num_relays", "tiers"),
}


class Design(NamedTuple):
    case: str
    sizes: Tuple[int, ...]
    deadline: Optional[float] = None

    @property
    def name(self) -> str:
        text = ",".join(str(size) for size in self.sizes)
        if self.deadline is not None:
            text += f",dl={self.deadline:g}"
        return f"{self.case}({text})"

    def kwargs(self) -> Dict[str, float]:
        kwargs: Dict[str, float] = dict(zip(SIZE_ARGS[self.case], self.sizes))
        if self.deadline is not None:
            kwargs["deadline"] = self.deadline
        return kwargs

    def build(self):
        """``(mapping_template, specification)`` from the case's public builder.

        The builder is looked up on its module at call time, so a wrapper
        installed there by the traced run sees the call.
        """
        import importlib

        module = importlib.import_module(f"repro.casestudies.{self.case}")
        return module.build_problem(**self.kwargs())

    def job_spec(self):
        """The same design as a runtime :class:`repro.runtime.job.JobSpec`."""
        from repro.runtime.job import JobSpec

        problem = {} if self.deadline is None else {"deadline": self.deadline}
        return JobSpec(
            self.case,
            sizes=dict(zip(SIZE_ARGS[self.case], self.sizes)),
            problem=problem,
            label=self.name,
        )


def rpl(n_a: int, n_b: int, deadline: Optional[float] = None) -> Design:
    return Design("rpl", (n_a, n_b), deadline)


def epn(left: int, right: int, apu: int) -> Design:
    return Design("epn", (left, right, apu))


def wsn(sensors: int, relays: int, tiers: int) -> Design:
    return Design("wsn", (sensors, relays, tiers))


#: The candidate MILP is 80-92% of exploration time here: thousands of
#: certificate cuts pile up (rpl(3,3) ends at 7,533 cuts / 9,751 rows).
CUT_GROWTH = (
    rpl(3, 3),
    rpl(3, 0),
    rpl(2, 2),
    rpl(2, 0, 42.0),
    epn(2, 1, 1),
    epn(2, 2, 1),
    epn(3, 0, 0),
)

#: Refinement is 28-76% of exploration time and no design passes 128
#: cuts or 920 rows, so cut-pool or MILP changes should not move it.
VERIFY_BOUND = (
    wsn(1, 2, 1),
    wsn(2, 2, 1),
    wsn(3, 2, 1),
    wsn(2, 2, 2),
    rpl(1, 0),
    rpl(1, 1),
    rpl(2, 0, 46.0),
    epn(1, 0, 0),
    epn(1, 1, 0),
    epn(1, 1, 1),
)

#: Table II EPN rows up to (2,1,1) plus RPL and WSN jobs, in strata.
#: The warm pass edits one entry per stratum, a seeded choice: four of
#: thirteen. Members of a stratum cost about the same to re-run once
#: edited (measured on a 2-core Xeon, over an unedited warm job:
#: +0.17 s, +0.09 s, +0.01 to +0.04 s, -0.06 to 0.00 s), so every seed
#: gives the warm pass about the same work. wsn(2,2,2) and rpl(2,1) cost
#: far more than the rest and are edited on every seed.
SWEEP_STRATA = (
    (wsn(2, 2, 2),),
    (rpl(2, 1),),
    (epn(1, 1, 1), epn(2, 2, 0), epn(4, 0, 0), rpl(1, 1), epn(1, 1, 0)),
    (epn(2, 1, 1), epn(1, 0, 0), epn(2, 0, 0), epn(3, 0, 0), epn(2, 1, 0), rpl(1, 2)),
)

#: The loosened deadline an edited sweep entry gets (case defaults:
#: epn 11, rpl 44, wsn 9). Loosening keeps each edited design feasible
#: and re-uses most of the cold pass's cached queries.
SWEEP_EDIT_DEADLINE = {"epn": 12.0, "rpl": 46.0, "wsn": 10.0}

#: How many times each pool entry appears in one list. verify-bound
#: holds enough designs for a tail percentile with ten samples beyond it.
COPIES = {"cut-growth": 1, "verify-bound": 6, "sweep-rerun": 1}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def pool(workload: str) -> Tuple[Design, ...]:
    if workload == "cut-growth":
        return CUT_GROWTH
    if workload == "verify-bound":
        return VERIFY_BOUND
    if workload == "sweep-rerun":
        return tuple(design for stratum in SWEEP_STRATA for design in stratum)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def draw_list(workload: str, seed: int) -> List[Design]:
    """The workload's design list for ``seed`` (the cold list on sweep-rerun)."""
    designs = list(pool(workload)) * COPIES[workload]
    _rng(workload, seed).shuffle(designs)
    return designs


def edited(design: Design) -> Design:
    return design._replace(deadline=SWEEP_EDIT_DEADLINE[design.case])


def rerun_list(seed: int) -> List[Design]:
    """sweep-rerun's warm list: the cold list, one entry per stratum edited."""
    rng = _rng("sweep-rerun-edit", seed)
    chosen = {rng.choice(stratum) for stratum in SWEEP_STRATA}
    return [
        edited(design) if design in chosen else design
        for design in draw_list("sweep-rerun", seed)
    ]


def all_designs() -> List[Design]:
    """Every design any list can hold, edited sweep variants included."""
    designs = list(CUT_GROWTH) + list(VERIFY_BOUND)
    for design in pool("sweep-rerun"):
        designs += [design, edited(design)]
    return list(dict.fromkeys(designs))


def load_json(name: str):
    with open(DATA_DIR / name, encoding="utf-8") as handle:
        return json.load(handle)
