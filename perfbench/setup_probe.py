"""Set-up time of one workload, measured in this fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed>

Times importing ``repro``, building every design in the seed's list with
its case study's ``build_problem`` and, on sweep-rerun, opening the
oracle cache store. Prints the seconds as its last line.
"""

import sys
import tempfile
import time

from pools import BENCH_DIR, ROOT, draw_list

workload, seed = sys.argv[1], int(sys.argv[2])
designs = draw_list(workload, seed)
sys.path.insert(0, str(ROOT / "src"))
(BENCH_DIR / "out").mkdir(exist_ok=True)
with tempfile.TemporaryDirectory(prefix="setup-", dir=BENCH_DIR / "out") as workdir:
    started = time.perf_counter()
    import repro  # noqa: F401
    from repro.explore.engine import ContrArcExplorer  # noqa: F401

    for design in designs:
        design.build()
    if workload == "sweep-rerun":
        from repro.runtime.store import SQLiteStore
        from repro.runtime.sweep import run_sweep  # noqa: F401

        SQLiteStore(f"{workdir}/oracle.db").close()
    elapsed = time.perf_counter() - started
print(elapsed)
