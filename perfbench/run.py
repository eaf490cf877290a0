"""Benchmark for dpknn: closed-loop query streams, end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload paper-exact --seed 1 --seconds 10 --trace 0

One process answers one workload, as a single caller waiting for each
answer.  ``--trace 0`` times the stream with nothing wrapped and prints the
end-to-end metrics; ``--trace 1`` times half the run untraced, replays the
same queries with every query-path layer wrapped, and prints the per-layer
metrics.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The line before it holds the
environment stamp and the answer and ledger digests.  The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
COVERAGE_FLOOR = 0.9
P95_BLOCK = 200  # queries per block for latency_p95_ms: ten samples lie beyond each block's p95
# Stores built only to time set-up, on top of those the stream builds: at
# least SETUP_MIN, then more until SETUP_SECONDS have gone or SETUP_MAX were built.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 32, 2.0


def _import_package():
    """Import dpknn from this checkout's sources, never from anywhere else."""
    if not (SRC / "dpknn" / "__init__.py").is_file():
        sys.exit(f"perfbench: no dpknn sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import dpknn

    if Path(dpknn.__file__).resolve().parent != (SRC / "dpknn").resolve():
        sys.exit(f"perfbench: imported dpknn from {dpknn.__file__}, not from {SRC}")


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None where it cannot be asked."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent), GIT_CONFIG_NOSYSTEM="1",
               GIT_CONFIG_GLOBAL=os.devnull)
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _blocks(res, block) -> np.ndarray:
    """Per-query latencies in ms, as rows of ``block`` consecutive queries (at least one row)."""
    latency = np.asarray(res.latency_ns, dtype=np.float64) / 1e6
    block = min(block, latency.shape[0])
    return latency[: latency.shape[0] // block * block].reshape(-1, block)


def _qps(res, block) -> float:
    """Queries per second of query time: the median over blocks of ``block`` queries."""
    return float(np.median(1e3 * block / _blocks(res, block).sum(axis=1)))


def _verify_first(stream, wl, stores):
    """Build the first store of each timed run, then run the untimed verification.

    The verification answers the stream's first queries on a fresh store; it
    also fills caches before timing, and must agree with every timed run.
    The timed runs' stores are built before it, so that the allocator has
    settled after the large transient of a build when timing starts.
    """
    from workloads import count_of, run

    firsts = [stream.open(0) for _ in range(stores)]  # each handed to run(), which frees it
    return firsts, run(stream, stop=count_of(wl.warmup_queries))


def _differs(warm, timed):
    if timed.answers[: len(warm.answers)] == warm.answers:
        return []
    return ["the timed run's answers differ from the untimed verification of the same queries"]


def end_to_end(wl, seed, seconds):
    from workloads import Stream, run, timed_until

    stream = Stream(wl, seed)
    while len(stream.setup_s) < SETUP_MIN or (
            sum(stream.setup_s) < SETUP_SECONDS and len(stream.setup_s) < SETUP_MAX):
        stream.open(0)
    firsts, warm = _verify_first(stream, wl, 1)
    timed = run(stream, stop=timed_until(seconds, wl.min_queries), prefix=wl.min_queries,
                first=firsts.pop())
    problems = warm.problems + timed.problems + _differs(warm, timed)
    latency_ms = np.array(timed.latency_ns) / 1e6
    metrics = {
        "qps": _metric(_qps(timed, wl.block_queries), "1/s"),
        "latency_p50_ms": _metric(np.percentile(latency_ms, 50), "ms"),
        # A burst of slow queries in a minority of blocks does not move it.
        "latency_p95_ms": _metric(np.median(np.percentile(_blocks(timed, P95_BLOCK), 95, axis=1)), "ms"),
        "setup_s": _metric(np.median(stream.setup_s), "s"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
        "accuracy": _metric(timed.accuracy(wl.min_queries), "fraction"),
    }
    info = {
        "latency_samples": len(latency_ms),
        "setup_samples": len(stream.setup_s),
        "answers_digest": timed.answers_digest(wl.min_queries),
        "ledger_digest": timed.ledger_digest(),
        "digest_prefix_queries": wl.min_queries,
    }
    return timed.attempted + warm.attempted, timed.failed + warm.failed, problems, metrics, info


def traced(wl, seed, seconds):
    from tracing import SPAN_NAMES, LayerCounts, Tracer
    from workloads import Stream, count_of, run, timed_until

    stream = Stream(wl, seed)
    firsts, warm = _verify_first(stream, wl, 2)
    plain = run(stream, stop=timed_until(seconds / 2, wl.warmup_queries), first=firsts.pop())
    n = plain.attempted
    tracer = Tracer()
    counts = LayerCounts(tracer, wl.hashed)
    with tracer.installed():
        replay = run(stream, stop=count_of(n), observer=counts, first=firsts.pop())
    problems = warm.problems + plain.problems + replay.problems + _differs(warm, plain)
    if replay.answers != plain.answers or replay.ledger_digest() != plain.ledger_digest():
        problems.append("the traced replay changed answers or ledgers")

    calls = tracer.calls
    expect = {"engine.answer_query": n,
              "lsh.retrieve": n if wl.hashed else 0,
              "lsh.add": n if wl.reuse else 0,
              "engine.add_example": n if wl.reuse else 0}
    for name, want in expect.items():
        if calls[name] != want:
            problems.append(f"trace: {name} recorded {calls[name]} calls, expected {want}")
    for name in ("engine.select_neighbors", "kernels.kernel_weights", "accounting.active_mask",
                 "mechanisms.noisy_count", "mechanisms.noisy_argmax"):
        if calls[name] < n:
            problems.append(f"trace: {name} recorded {calls[name]} calls for {n} queries")
    if counts.charges and not calls["accounting.spend"]:
        problems.append("trace: charges were released but accounting.spend recorded no call")

    query_ns = sum(replay.latency_ns)
    coverage = sum(tracer.self_ns.values()) / query_ns

    def per_query(x):
        return x / n

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {f"{name}.self_ms": _metric(tracer.self_ns[name] / n / 1e6, "ms")
               for name in SPAN_NAMES}
    metrics.update({
        "accounting.charges_per_query": _metric(per_query(counts.charges), "count"),
        "engine.eligible_per_query": _metric(per_query(counts.eligible), "count"),
        "engine.selected_per_query": _metric(per_query(counts.selected), "count"),
        "engine.retired_per_query": _metric(per_query(counts.retired), "count"),
        "kernels.rows_per_query": _metric(per_query(tracer.rows), "count"),
        "kernels.bytes_per_query": _metric(per_query(tracer.rows) * tracer.dim * 8, "bytes"),
        "kernels.select_yield": _metric(ratio(counts.selected, tracer.rows), "fraction"),
        "lsh.candidates_per_query": _metric(per_query(tracer.candidates), "count"),
        "lsh.candidate_yield": _metric(ratio(counts.selected, tracer.candidates), "fraction"),
        # An exhaustive scan misses no above-threshold row.
        "lsh.recall": _metric(ratio(counts.found, counts.above) if wl.hashed else 1.0, "fraction"),
        "lsh.build_s": _metric(np.median(stream.build_s) if wl.hashed else 0.0, "s"),
        "mechanisms.draws_per_query": _metric(per_query(counts.draws), "count"),
        "trace.coverage_frac": _metric(coverage, "fraction"),
        "trace.overhead_frac": _metric(
            1.0 - _qps(replay, wl.block_queries) / _qps(plain, wl.block_queries), "fraction"),
    })
    trace_file = OUT / f"{wl.name}.spans.csv"
    tracer.write(trace_file)
    info = {"traced_queries": n, "spans": len(tracer.spans),
            "span_file": str(trace_file.relative_to(ROOT)), "coverage_ok": coverage >= COVERAGE_FLOOR,
            "answers_digest": replay.answers_digest(), "ledger_digest": replay.ledger_digest()}
    if coverage < COVERAGE_FLOOR:
        print(f"perfbench: WARNING trace.coverage_frac {coverage:.3f} is below {COVERAGE_FLOOR}: "
              "a query-path layer is no longer wrapped", file=sys.stderr)
    attempted = warm.attempted + plain.attempted + replay.attempted
    return attempted, warm.failed + plain.failed + replay.failed, problems, metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    measure = traced if args.trace else end_to_end
    attempted, failed, problems, metrics, info = measure(wl, args.seed, args.seconds)
    for problem in problems:
        print(f"perfbench: CHECK FAILED {problem}", file=sys.stderr)
    ok = not problems and failed == 0
    stamp = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
             "environment": environment(), **info, "problems": problems}
    print(json.dumps({"info": stamp}))
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
