"""Host-speed probe and the run stamp of the history file.

The reference slice is benchmark-owned work that no change to the
program can move: a frozen MILP (``data/ref_milp.json``) solved by
``scipy.optimize.milp`` directly, plus a fixed pure-Python loop. Runs
interleave slices with the designs; their median says whether a shift
in the program's figures came with a shift in host speed.

The figures are not scaled by it: the few slices that fit between
sweep passes or next to set-up launches did not track those figures
(see ``README.md``, "Host probe").
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, List

from pools import BENCH_DIR, ROOT, load_json

HISTORY = BENCH_DIR / "out" / "history.jsonl"


class HostProbe:
    """Times reference slices; :attr:`times` holds one entry per slice."""

    def __init__(self) -> None:
        import numpy as np
        from scipy.optimize import Bounds, LinearConstraint

        frozen = load_json("ref_milp.json")
        self._c = np.array(frozen["c"], dtype=float)
        self._constraints = LinearConstraint(
            np.array(frozen["A"], dtype=float), -np.inf, np.array(frozen["b"])
        )
        self._bounds = Bounds(0, 1)
        self._integrality = np.ones(len(self._c))
        self._objective = frozen["objective"]
        self._loop_n = frozen["loop_n"]
        self._loop_sum = frozen["loop_sum"]
        self.times: List[float] = []

    def slice(self) -> float:
        from scipy.optimize import milp

        started = time.perf_counter()
        result = milp(
            self._c,
            constraints=self._constraints,
            bounds=self._bounds,
            integrality=self._integrality,
        )
        total = 0
        for i in range(self._loop_n):
            total += (i * i) % 7
        elapsed = time.perf_counter() - started
        if abs(result.fun - self._objective) > 1e-6 or total != self._loop_sum:
            raise RuntimeError("reference slice returned a wrong answer")
        self.times.append(elapsed)
        return elapsed

    def median(self) -> float:
        return statistics.median(self.times)


def _git_sha() -> str:
    """HEAD's sha, or ``unknown`` outside a git checkout."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp() -> Dict[str, Any]:
    import numpy
    import scipy

    return {
        "sha": _git_sha(),
        "cpu": _cpu_model(),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def append_history(record: Dict[str, Any], path: Path = HISTORY) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    line = dict(stamp(), ts=time.time(), **record)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")
