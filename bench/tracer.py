"""Spans and counters recorded around calls into the ``sparsedyn`` layers.

The tracer never edits the package: it replaces, for the duration of a
traced op, the module attribute each caller looks up (for example both
``trees.sample_forest`` and ``empirical.sample_forest``) with a timing
wrapper, and wraps the callables the benchmark itself passes in (model
rules via ``dataclasses.replace``, the covariance functional, the mark
samplers).  Spans are aggregated in memory per (phase, name, parent) and
written with the run record when the run ends.

Self time is a span's duration minus the time covered by its child spans,
so the self times of all spans of an op add up to the op's duration.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from collections import defaultdict
from contextlib import contextmanager

from sparsedyn import dynamics, empirical, graphs, localtopo, rng, trees


def _erased(tracer, out, args, kwargs):
    tracer.count("graphs.erased_fallback", int(out.erased_fallback))


def _forest(tracer, out, args, kwargs):
    tracer.count("trees.vertices", out.graph.vertex_count)
    tracer.count("trees.truncated", int(out.truncated.sum()))


def _draws(tracer, out, args, kwargs):
    tracer.count("rng.draws", out.size)


def _paths_hashed(tracer, out, args, kwargs):
    tracer.count("empirical.paths_hashed", sum(m.count for m in args[:2]))


def _replica_chunk(tracer, out, args, kwargs):
    tracer.count("dynamics.replica_chunks", 1)


def _vertex_updates(tracer, out, args, kwargs):
    tracer.count("dynamics.vertex_updates", out.size)


def _balls(tracer, out, args, kwargs):
    cyclic = sum(k for code, k in out.counts.items() if code.startswith(b"G"))
    tracer.count("localtopo.balls", out.total)
    tracer.count("localtopo.cyclic_balls", cyclic)


# (span name, module, attribute, result hook).  Every module binding a caller
# in the workloads looks up is listed, so nested library calls are caught too.
PATCHES = [
    ("graphs.generate", graphs, "gen_configuration_model", _erased),
    ("graphs.generate", graphs, "gen_random_regular", None),
    ("graphs.traverse", dynamics, "distances_to", None),
    ("graphs.traverse", graphs, "component_of", None),
    ("graphs.traverse", graphs, "ball", None),
    ("trees.sample", trees, "sample_forest", _forest),
    ("trees.sample", empirical, "sample_forest", _forest),
    ("rng.uniform", rng, "uniform", _draws),
    ("rng.gauss", rng, "gauss", _draws),
    ("dynamics.engine", dynamics, "simulate_discrete", None),
    ("dynamics.engine", dynamics, "simulate_diffusion", None),
    ("dynamics.engine", empirical, "simulate_discrete", None),
    ("dynamics.engine", empirical, "simulate_diffusion", None),
    ("dynamics.engine", dynamics, "replica_paths_discrete", _replica_chunk),
    ("dynamics.engine", dynamics, "replica_paths_diffusion", _replica_chunk),
    ("empirical.stat", empirical, "global_empirical", None),
    ("empirical.stat", empirical, "tv_discrete", _paths_hashed),
    ("empirical.root_law", empirical, "root_law_monte_carlo", None),
    ("localtopo.histogram", localtopo, "neighborhood_histogram", _balls),
    ("localtopo.limit_histogram", localtopo, "histogram_of_samples", _balls),
    ("localtopo.tv", localtopo, "histogram_tv", None),
]


class Tracer:
    """Aggregates spans per (phase, name, parent) and counters per phase."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.phase = "setup"
        self.spans: dict = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counters: dict = defaultdict(float)
        self.errors: dict = defaultdict(int)  # (phase, span name, exception class)
        self._stack: list[list] = []  # [name, child time]

    def count(self, name: str, value) -> None:
        self.counters[(self.phase, name)] += value

    def fn(self, name: str, f, on_result=None):
        """Timing wrapper around ``f`` recording a span called ``name``."""

        @functools.wraps(f)
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            frame = [name, 0.0]
            self._stack.append(frame)
            start = self.clock()
            try:
                out = f(*args, **kwargs)
            except Exception as exc:
                self.errors[(self.phase, name, type(exc).__name__)] += 1
                raise
            finally:
                dur = self.clock() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += dur
                rec = self.spans[(self.phase, name, parent)]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
            if on_result is not None:
                on_result(self, out, args, kwargs)
            return out

        return traced

    def model(self, m):
        """Copy of a dynamics model whose vectorised rules record spans."""
        rules = {
            attr: self.fn("dynamics.step", getattr(m, attr), _vertex_updates)
            for attr in ("batch_step", "batch_drift", "replica_drift")
            if getattr(m, attr, None) is not None
        }
        return dataclasses.replace(m, **rules)

    @contextmanager
    def installed(self):
        """Patch every binding in PATCHES for the duration of the block."""
        aux_of = dynamics.GraphAux.__dict__["of"]
        saved = []
        try:
            dynamics.GraphAux.of = staticmethod(self.fn("graphs.csr_build", aux_of.__func__))
            for name, module, attr, hook in PATCHES:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.fn(name, original, hook))
            yield self
        finally:
            dynamics.GraphAux.of = aux_of
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def totals(self, setup: bool) -> dict:
        """{name: [calls, total, self]} over the set-up phase or over all ops."""
        out: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for (phase, name, _), rec in self.spans.items():
            if (phase == "setup") == setup:
                acc = out[name]
                for i, v in enumerate(rec):
                    acc[i] += v
        return out

    def record(self) -> dict:
        """JSON-ready dump of the span tree, counters and errors."""
        return {
            "spans": [
                {"phase": ph, "name": name, "parent": parent,
                 "calls": c, "total_s": t, "self_s": s}
                for (ph, name, parent), (c, t, s) in sorted(
                    self.spans.items(), key=lambda kv: (str(kv[0][0]), kv[0][1], str(kv[0][2])))
            ],
            "counters": [
                {"phase": ph, "name": name, "value": v}
                for (ph, name), v in sorted(self.counters.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))
            ],
            "errors": [
                {"phase": ph, "span": name, "exception": exc, "count": n}
                for (ph, name, exc), n in sorted(self.errors.items(), key=lambda kv: str(kv[0]))
            ],
        }


class Off:
    """Stand-in for :class:`Tracer` in untraced runs: wraps nothing."""

    @staticmethod
    def fn(name, f, on_result=None):
        return f

    @staticmethod
    def model(m):
        return m

    @contextmanager
    def installed(self):
        yield self


OFF = Off()
