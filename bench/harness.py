"""Run loop, metrics and run records of the benchmark (entry point: run.py).

An untraced run (``--trace 0``) times set-up in fresh processes, then runs
ops until their summed latency reaches ``--seconds``, and reports the
end-to-end metrics.  A traced run (``--trace 1``) runs every op twice, once
plain and once with the tracer installed, checks that both give the same
digest, and reports the per-layer metrics plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

from sparsedyn import rng

import tracer as tracing
from run import PINNED_THREADS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"
SETUP_REPEATS = 5
TAIL_BEYOND = 10
HELD_OUT_SEED = 1904  # kept out of tuning; confirms a claim made on other seeds

# per-layer metric -> (kind, span or counter name); see NOTES.md for the map
# from each metric to the end-to-end metric it should move
LAYER_METRICS = {
    "graphs.generate_s": ("self", "graphs.generate"),
    "graphs.erased_fallback": ("counter", "graphs.erased_fallback"),
    "graphs.csr_build_s": ("self", "graphs.csr_build"),
    "graphs.csr_build_calls": ("calls", "graphs.csr_build"),
    "graphs.traverse_s": ("self", "graphs.traverse"),
    "trees.sample_s": ("self", "trees.sample"),
    "trees.sample_calls": ("calls", "trees.sample"),
    "trees.vertices": ("counter", "trees.vertices"),
    "trees.truncated": ("counter", "trees.truncated"),
    "rng.uniform_s": ("self", "rng.uniform"),
    "rng.gauss_s": ("self", "rng.gauss"),
    "rng.draws": ("counter", "rng.draws"),
    "dynamics.step_s": ("self", "dynamics.step"),
    "dynamics.step_calls": ("calls", "dynamics.step"),
    "dynamics.vertex_updates": ("counter", "dynamics.vertex_updates"),
    "dynamics.engine_self_s": ("self", "dynamics.engine"),
    "dynamics.replica_chunks": ("counter", "dynamics.replica_chunks"),
    "dynamics.functional_s": ("self", "dynamics.functional"),
    "dynamics.functional_calls": ("calls", "dynamics.functional"),
    "empirical.stat_s": ("self", "empirical.stat"),
    "empirical.paths_hashed": ("counter", "empirical.paths_hashed"),
    "empirical.root_law_self_s": ("self", "empirical.root_law"),
    "empirical.init_s": ("self", "empirical.init"),
    "localtopo.histogram_s": ("self", "localtopo.histogram"),
    "localtopo.limit_histogram_s": ("self", "localtopo.limit_histogram"),
    "localtopo.tv_s": ("self", "localtopo.tv"),
    "localtopo.balls": ("counter", "localtopo.balls"),
    "localtopo.cyclic_balls": ("counter", "localtopo.cyclic_balls"),
}
CODE_SPANS = ("localtopo.histogram", "localtopo.limit_histogram")


class Run:
    """Ops of one run: latencies, samples, failures, digests."""

    def __init__(self, workload, state, seed: int):
        self.workload = workload
        self.state = state
        self.seed = seed
        self.samples_per_op = workload.samples(state)
        self.latencies: list[float] = []
        self.samples = 0
        self.failures: list[dict] = []
        self.digests: list[str] = []
        self.check_failures = 0

    def op(self, index: int, tracer=tracing.OFF) -> str:
        """Time one op (traced only inside the op), check it outside the timed
        window, and return its digest."""
        key = rng.stream_key(self.seed, index)
        op = tracer.fn("op", self.workload.op)
        with tracer.installed():
            start = time.perf_counter()
            try:
                result = op(self.state, key, tracer)
            except Exception as exc:
                self.latencies.append(time.perf_counter() - start)
                return self._fail(index, key, exc, "op")
            self.latencies.append(time.perf_counter() - start)
        try:
            digest = self.workload.check(self.state, key, result)
        except Exception as exc:
            self.check_failures += 1
            return self._fail(index, key, exc, "check")
        self.samples += self.samples_per_op
        self.digests.append(digest)
        return digest

    def _fail(self, index, key, exc, stage) -> str:
        self.failures.append({
            "op": index, "op_seed": key, "stage": stage, "exception": type(exc).__name__,
            "message": str(exc), "latency_s": self.latencies[-1],
            "traceback": traceback.format_exc(limit=-3),
        })
        return f"{stage}-error:{type(exc).__name__}"

    @property
    def timed_s(self) -> float:
        return sum(self.latencies)


def tail(latencies, beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """Latency at the highest percentile with at least ``beyond`` ops above it,
    and that percentile; the maximum (percentile 100) when there are too few ops."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= beyond:
        return xs[-1], 100.0
    return xs[n - 1 - beyond], 100.0 * (n - beyond) / n


def time_setup(workload: str, seed: int, repeats: int = SETUP_REPEATS) -> list[float]:
    """Seconds from process start to set-up done, in ``repeats`` fresh processes."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload, "--seed", str(seed)]
    out = []
    for _ in range(repeats):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            out.append(time.perf_counter() - start)
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up process failed: {line!r}")
    return out


def end_to_end(run: Run, setup_times: list[float]) -> dict:
    tail_s, _ = tail(run.latencies)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "samples_per_s": (run.samples / run.timed_s, "1/s"),
        "op_p50_s": (statistics.median(run.latencies), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tr: tracing.Tracer, ops: int, overhead: float) -> dict:
    """Each metric is one set-up's share plus the mean over the traced ops."""
    setup, per_op = tr.totals(setup=True), tr.totals(setup=False)

    def counter(name):
        s = sum(v for (ph, n), v in tr.counters.items() if n == name and ph == "setup")
        o = sum(v for (ph, n), v in tr.counters.items() if n == name and ph != "setup")
        return s + o / ops

    def span(name, col):
        return setup[name][col] + per_op[name][col] / ops

    out = {}
    for metric, (kind, name) in LAYER_METRICS.items():
        if kind == "counter":
            out[metric] = (counter(name), "1/op")
        elif kind == "calls":
            out[metric] = (span(name, 0), "1/op")
        else:
            out[metric] = (span(name, 2), "s/op")
    balls = counter("localtopo.balls")
    out["localtopo.cyclic_share"] = (counter("localtopo.cyclic_balls") / balls if balls else 0.0, "1")
    errors = sum(n for (_, name, _), n in tr.errors.items() if name in CODE_SPANS)
    out["localtopo.code_errors"] = (errors / ops, "1/op")
    out["trace.overhead"] = (overhead, "1")
    return out


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in PINNED_THREADS},
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "random"),
        "commit": _commit(),
    }


def bench(name: str, seed: int, seconds: float, trace: bool, quick: bool = False) -> dict:
    """One benchmark run; returns the run record (result line under "result").

    ``quick`` uses the workload's small sizes and skips timing set-up."""
    workload = WORKLOADS[name]
    size = workload.quick if quick else workload.full
    setup_times = [] if trace or quick else time_setup(name, seed)
    tr = tracing.Tracer() if trace else tracing.OFF
    with tr.installed():
        state = workload.setup(seed, size)
    plain = Run(workload, state, seed)
    traced = Run(workload, state, seed) if trace else None
    mismatches = []
    index = 0
    while index == 0 or plain.timed_s + (traced.timed_s if trace else 0.0) < seconds:
        digest = plain.op(index)
        if trace:
            tr.phase = index
            traced_digest = traced.op(index, tr)
            if traced_digest != digest:
                mismatches.append({"op": index, "plain": digest, "traced": traced_digest})
        index += 1
    runs = [plain, traced] if trace else [plain]
    attempted = sum(len(r.latencies) for r in runs)
    failed = sum(len(r.failures) for r in runs)
    correct = not mismatches and not any(r.check_failures for r in runs)
    if trace:
        metrics = per_layer(tr, index, traced.timed_s / plain.timed_s)
    else:
        metrics = end_to_end(plain, setup_times)
    tail_s, tail_pct = tail(plain.latencies)
    return {
        "workload": name,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "environment": environment(),
        "ops": index,
        "op_tail": {"value_s": tail_s, "percentile": tail_pct, "ops": len(plain.latencies)},
        "error_rate": failed / attempted,
        "failures": [f for r in runs for f in r.failures],
        "failures_by_class": _by_class(f for r in runs for f in r.failures),
        "latencies_s": plain.latencies,
        "setup_times_s": setup_times,
        "digests": plain.digests,
        "digest_mismatches": mismatches,
        "trace_record": tr.record() if trace else None,
        "result": {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def _by_class(failures) -> dict:
    return dict(Counter(f["exception"] for f in failures))


def quick(seed: int) -> bool:
    """One small op per workload, plain and traced, with every check."""
    ok = True
    for name in WORKLOADS:
        rec = bench(name, seed, 0.0, trace=True, quick=True)
        ok &= rec["result"]["correct"]
        print(f"{name:12s} {'ok' if rec['result']['correct'] else 'FAILED'} "
              f"digest={rec['digests']} failures={rec['failures_by_class']} "
              f"op={rec['latencies_s'][0]:.3f}s")
    return ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="sparsedyn benchmark: one workload per run.")
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="one small op per workload, all checks")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.quick:
        return 0 if quick(args.seed) else 1
    if args.workload is None:
        p.error("--workload is required")
    if args.setup_only:
        WORKLOADS[args.workload].setup(args.seed, WORKLOADS[args.workload].full)
        print("ready", flush=True)
        return 0
    rec = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    RUNS.mkdir(exist_ok=True)
    path = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(rec, indent=1, default=str))
    print(f"workload {args.workload} seed {args.seed}: {rec['ops']} ops, "
          f"tail at p{rec['op_tail']['percentile']:.1f}, record {path.relative_to(ROOT)}")
    for f in rec["failures"]:
        print(f"failed op {f['op']} (op seed {f['op_seed']}, {f['stage']}): {f['exception']}: {f['message']}")
    for m in rec["digest_mismatches"]:
        print(f"digest mismatch on op {m['op']}: plain {m['plain']} traced {m['traced']}")
    for k, v in rec["result"]["metrics"].items():
        print(f"{k} {v['value']:.6g} {v['unit']}")
    print(json.dumps(rec["result"]))
    return 0
