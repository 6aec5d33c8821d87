"""Regenerate the benchmark's committed data files.

    python3 perfbench/make_data.py expected   # data/expected.json
    python3 perfbench/make_data.py ref-milp   # data/ref_milp.json
    python3 perfbench/make_data.py counters   # data/counters.json

``expected`` explores every design any list can hold with
``ContrArcExplorer`` defaults, requires ``audit_architecture`` to pass
and, for RPL designs, requires ``MonolithicExplorer`` to reach the same
optimum. It stores each optimum's cost, implementations and edges.
``counters`` runs each workload's traced pass at the default seed and
stores its exact work counters. ``ref-milp`` draws the host probe's
frozen MILP; re-drawing it breaks comparison with earlier history rows.
"""

import json
import sys

from pools import DATA_DIR, ROOT, WORKLOADS, all_designs

sys.path.insert(0, str(ROOT / "src"))

DEFAULT_SEED = 1


def _write(name: str, data) -> None:
    DATA_DIR.mkdir(exist_ok=True)
    with open(DATA_DIR / name, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")


def expected() -> None:
    from repro.explore.audit import audit_architecture
    from repro.explore.baseline import MonolithicExplorer
    from repro.explore.engine import ContrArcExplorer

    table = {}
    for design in all_designs():
        problem = design.build()
        result = ContrArcExplorer(*problem).explore()
        if not result.is_optimal:
            raise SystemExit(f"{design.name}: {result.status.value}")
        if not audit_architecture(*problem, result.architecture).holds:
            raise SystemExit(f"{design.name}: optimum fails the audit")
        entry = {
            "cost": result.cost,
            "selected": {
                name: impl.name
                for name, impl in sorted(result.architecture.selected_impls.items())
            },
            "edges": sorted(result.architecture.selected_edges),
        }
        if design.case == "rpl":
            baseline = MonolithicExplorer(*problem).explore()
            if abs(baseline.cost - result.cost) > 1e-6:
                raise SystemExit(
                    f"{design.name}: ContrArc {result.cost} != monolithic {baseline.cost}"
                )
            entry["monolithic_cost"] = baseline.cost
        table[design.name] = entry
        print(design.name, result.cost, flush=True)
    _write("expected.json", table)


def ref_milp() -> None:
    """A 16-item, 4-constraint binary knapsack (about 4 ms in HiGHS)."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    rng = np.random.default_rng(20240325)
    items, rows = 16, 4
    values = rng.integers(5, 60, items)
    weights = rng.integers(1, 30, (rows, items))
    capacity = weights.sum(axis=1) // 3
    c = -values.astype(float)
    result = milp(
        c,
        constraints=LinearConstraint(weights, -np.inf, capacity),
        bounds=Bounds(0, 1),
        integrality=np.ones(items),
    )
    loop_n = 20000
    _write(
        "ref_milp.json",
        {
            "c": c.tolist(),
            "A": weights.tolist(),
            "b": capacity.tolist(),
            "objective": float(result.fun),
            "loop_n": loop_n,
            "loop_sum": sum((i * i) % 7 for i in range(loop_n)),
        },
    )


def counters() -> None:
    from run import collect_counters

    table = {}
    for workload in WORKLOADS:
        _, found, tally = collect_counters(workload, DEFAULT_SEED)
        if tally.failed:
            raise SystemExit(f"{workload}: {tally.failures}")
        table[workload] = {"seed": DEFAULT_SEED, "counters": found}
        print(workload, found, flush=True)
    _write("counters.json", table)


if __name__ == "__main__":
    {"expected": expected, "ref-milp": ref_milp, "counters": counters}[sys.argv[1]]()
