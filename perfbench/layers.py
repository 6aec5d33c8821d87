"""Outside-in layer tracing for the traced run.

:func:`install` wraps the public entry points of each layer, from the
benchmark's side, with span recorders; no program file changes. Spans
are ``(name, start, end, parent, design)`` rows kept in memory and
written once, when the run ends. Each design runs in a forked child (see
``run.in_child``), which hands its spans back to the parent. A layer's
self time is its spans' time minus the time their child spans cover
(spans nest strictly: each design runs on one thread).

Layer          entry point wrapped
-------------  --------------------------------------------------------
casestudies    ``repro.casestudies.{rpl,epn,wsn}.build_problem``
engine         the design span: ``ContrArcExplorer(...)`` to result
encoding       ``build_candidate_milp`` (as the engine calls it)
solver.solve   ``IncrementalSession.solve``, ``get_backend(...)`` callables
solver.matrix  ``Model.to_matrix_form``
refinement     ``RefinementChecker.check_all``
certificates   ``generate_cuts`` (as the engine calls it)
graph          the matchers registered in ``repro.graph.matchers.MATCHERS``

``OracleCache.sat_query`` is counted (queries, hits), not spanned.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: Layers whose self times make up a design span, in report order.
EXPLORE_LAYERS = (
    "engine",
    "encoding",
    "solver.solve",
    "solver.matrix",
    "refinement",
    "certificates",
    "graph",
)


class SpanRecorder:
    """In-memory span store. Only records while :attr:`design` is set."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index, design]`` rows.
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.design: Optional[int] = None
        self._stack: List[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.design])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def clear(self) -> None:
        self.spans, self.counts, self._stack = [], Counter(), []

    def merge(self, spans: List[list], counts: Dict[str, int]) -> None:
        """Append spans and counts recorded by a forked child of this process."""
        offset = len(self.spans)
        for name, start, end, parent, design in spans:
            parent = None if parent is None else parent + offset
            self.spans.append([name, start, end, parent, design])
        self.counts.update(counts)

    def self_times(self) -> Dict[str, float]:
        """Per span name: total span time minus child-span coverage."""
        own: Dict[str, float] = {}
        for name, start, end, parent, _ in self.spans:
            duration = end - start
            own[name] = own.get(name, 0.0) + duration
            if parent is not None:
                parent_name = self.spans[parent][0]
                own[parent_name] = own.get(parent_name, 0.0) - duration
        return own

    def total(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, design) in enumerate(self.spans):
                row = {
                    "id": index,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "design": design,
                }
                handle.write(json.dumps(row) + "\n")


def _spanned(
    recorder: SpanRecorder,
    name: str,
    fn: Callable,
    after: Optional[Callable] = None,
) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if recorder.design is None:
            return fn(*args, **kwargs)
        index = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(index)
        if after is not None:
            after(recorder.counts, args, result)
        return result

    return wrapper


def _count_rows0(counts, args, model) -> None:
    counts["encoding.rows0"] += model.num_constraints


def _count_solve(counts, args, result) -> None:
    counts["solver.solves"] += 1


def _count_provenance(counts, args, result) -> None:
    provenance = args[0].last_provenance or {}
    for key in ("checks", "verified", "cache_hit", "carried"):
        counts[f"refinement.{key}"] += provenance.get(key, 0)


def _count_cuts(counts, args, cuts) -> None:
    counts["certificates.cuts_emitted"] += len(cuts)


def _count_embeddings(counts, args, embeddings) -> None:
    counts["graph.embeddings"] += len(embeddings)


class Installed:
    """The wrappers :func:`install` put in place; :meth:`remove` undoes them."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def patch(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = value
            self._undo.append(lambda: owner.__setitem__(attr, original))
        else:
            original = owner.__dict__[attr]
            setattr(owner, attr, value)
            self._undo.append(lambda: setattr(owner, attr, original))

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()


def install(recorder: SpanRecorder) -> Installed:
    """Wrap every layer entry point with ``recorder``'s spans and counts."""
    from repro.casestudies import epn, rpl, wsn
    from repro.explore import engine
    from repro.explore.refinement_check import RefinementChecker
    from repro.graph import matchers
    from repro.runtime.oracle import OracleCache
    from repro.solver.model import Model
    from repro.solver.session import IncrementalSession

    installed = Installed()
    for module in (rpl, epn, wsn):
        installed.patch(
            module,
            "build_problem",
            _spanned(recorder, "casestudies", module.build_problem),
        )
    installed.patch(
        engine,
        "build_candidate_milp",
        _spanned(recorder, "encoding", engine.build_candidate_milp, _count_rows0),
    )
    installed.patch(
        IncrementalSession,
        "solve",
        _spanned(recorder, "solver.solve", IncrementalSession.solve, _count_solve),
    )
    get_backend = engine.get_backend
    installed.patch(
        engine,
        "get_backend",
        lambda name: _spanned(
            recorder, "solver.solve", get_backend(name), _count_solve
        ),
    )
    installed.patch(
        Model,
        "to_matrix_form",
        _spanned(recorder, "solver.matrix", Model.to_matrix_form),
    )
    installed.patch(
        RefinementChecker,
        "check_all",
        _spanned(
            recorder, "refinement", RefinementChecker.check_all, _count_provenance
        ),
    )
    installed.patch(
        engine,
        "generate_cuts",
        _spanned(recorder, "certificates", engine.generate_cuts, _count_cuts),
    )
    for key, matcher in list(matchers.MATCHERS.items()):
        installed.patch(
            matchers.MATCHERS,
            key,
            _spanned(recorder, "graph", matcher, _count_embeddings),
        )

    sat_query = OracleCache.sat_query

    @functools.wraps(sat_query)
    def counted_sat_query(self, *args, **kwargs):
        if recorder.design is None:
            return sat_query(self, *args, **kwargs)
        hits = self.stats.hits
        result = sat_query(self, *args, **kwargs)
        recorder.counts["refinement.sat_queries"] += 1
        recorder.counts["refinement.sat_hits"] += self.stats.hits - hits
        return result

    installed.patch(OracleCache, "sat_query", counted_sat_query)
    return installed
