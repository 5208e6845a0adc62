"""splitops benchmark: three workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload relspace --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``):

* ``relspace``  - bulk elimination: ``square(ennea, trialgebra)`` plus
  squares, maltese products, duals, arity-3 dimensions and JSON round trips.
* ``symmetry``  - push-forwards and membership queries:
  ``monomial_automorphisms(octo)`` plus small automorphism searches,
  table and relabelling isomorphisms, and non-automorphisms.
* ``operators`` - rewriting and certificates:
  ``verify_commuting_family(trialgebra, [rb, rb])`` plus single operators,
  commuting families and the operator lemmas.

Load shape: one client in one thread runs the workload's op list as a
closed loop, one op at a time, in a process of its own.  Pass ``k`` draws
fresh relabelled inputs from ``(workload, seed, k)``.  Passes repeat while
the next one is expected to end within ``--seconds``; there is always at
least one.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median time of one
pass over the op list), ``heavy_s`` (median time of the heavy op),
``light_p50_ms`` and ``light_p90_ms`` (over every light op run),
``setup_s`` (median over five cold processes of importing splitops and
building the catalog entries the workload uses) and ``peak_rss_mb``.
Times are scaled to a reference processor speed measured while they run
(``speed.py``); the raw medians are printed on the line before the result.

``--trace 1`` ignores ``--seconds``: it sets up and runs pass 0 with every
traced splitops function wrapped (``tracing.py``), then runs pass 0 again
untraced on fresh inputs, and prints the per-layer metrics.  Span times
are raw seconds; ``trace.overhead_s`` is the scaled traced pass time minus
the scaled untraced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An op fails when it
raises or its verdict differs from the hand-written one; ``failed /
attempted`` is the error rate.  Exit code 2 means the benchmark could not
run (for example, no ``src/splitops`` next to ``bench/``).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 120


@dataclass
class PassResult:
    """Times of one pass; scaled by a speed probe when one ran, else raw."""

    wall_s: float = 0.0
    heavy_s: float = 0.0
    light_s: list[float] = field(default_factory=list)
    raw_wall_s: float = 0.0
    verdicts: list = field(default_factory=list)
    failures: list[str] = field(default_factory=list)


def _use_source_tree() -> None:
    if not (SRC / "splitops" / "__init__.py").is_file():
        raise FileNotFoundError(f"no splitops sources at {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH)]


def run_pass(ops, tracer=None, probe=None) -> PassResult:
    """Run one op list in order and check every verdict."""
    result = PassResult()
    for op in ops.ops:
        heavy = op is ops.heavy
        stolen = probe.stolen if probe else 0.0
        t0 = perf_counter()
        try:
            verdict = tracer.run_op(op.call, heavy) if tracer else op.call()
        except Exception as exc:  # one failing op must not stop the run
            verdict = f"raised {type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        t1 = perf_counter()
        raw = t1 - t0 - ((probe.stolen if probe else 0.0) - stolen)
        seconds = raw * probe.scale(t0, t1) if probe else raw
        if verdict != op.expected:
            result.failures.append(f"{op.name}: got {verdict!r}, expected {op.expected!r}")
        result.verdicts.append(verdict)
        result.raw_wall_s += raw
        result.wall_s += seconds
        if heavy:
            result.heavy_s = seconds
        else:
            result.light_s.append(seconds)
    return result


def time_set_up(workload: str) -> dict:
    """Import splitops and build the workload's catalog objects, timed."""
    from speed import SpeedProbe

    with SpeedProbe() as probe:
        probe.busy(0.1)
        stolen = probe.stolen
        start = perf_counter()
        _use_source_tree()
        from workloads import Workload

        Workload(workload).set_up()
        end = perf_counter()
        raw = end - start - (probe.stolen - stolen)
        probe.busy(0.1)
    return {"setup_s": raw * probe.scale(start, end), "raw_s": raw}


def _cold_set_up(workload: str) -> dict:
    """time_set_up in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--time-set-up"],
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _percentile(samples: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) by statistics.quantiles."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100)[q - 1]


def _report(passes: list[PassResult], metrics: dict) -> dict:
    failures = [f for p in passes for f in p.failures]
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    attempted = sum(1 + len(p.light_s) for p in passes)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    from speed import SpeedProbe
    from workloads import Workload, digest

    setup = [_cold_set_up(workload) for _ in range(SETUP_RUNS)]
    w = Workload(workload)
    w.set_up()
    passes: list[PassResult] = []
    start = perf_counter()
    with SpeedProbe() as probe:
        while True:
            ops = w.op_list(seed, len(passes))
            if not passes:
                print(f"inputs sha256 {digest(ops)}")
            gc.collect()
            passes.append(run_pass(ops, probe=probe))
            del ops
            elapsed = perf_counter() - start
            if elapsed * (len(passes) + 1) / len(passes) > seconds:
                break
    light = [s for p in passes for s in p.light_s]
    print(
        f"passes {len(passes)}, light samples {len(light)}, "
        f"raw wall_s {statistics.median(p.raw_wall_s for p in passes):.3f}, "
        f"raw set-up s {statistics.median(s['raw_s'] for s in setup):.4f}"
    )
    metrics = {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "heavy_s": (statistics.median(p.heavy_s for p in passes), "s"),
        "light_p50_ms": (1000 * statistics.median(light), "ms"),
        "light_p90_ms": (1000 * _percentile(light, 90), "ms"),
        "setup_s": (statistics.median(s["setup_s"] for s in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return _report(passes, metrics)


def per_layer(workload: str, seed: int) -> dict:
    from speed import SpeedProbe
    from tracing import Tracer
    from workloads import Workload, digest

    with SpeedProbe() as probe:
        tracer = Tracer(clock=probe.clock)
        tracer.install()
        try:
            w = Workload(workload)
            tracer.enabled = True
            w.set_up()
            tracer.enabled = False
            ops = w.op_list(seed, 0)
            print(f"inputs sha256 {digest(ops)}")
            gc.collect()
            tracer.enabled = True
            traced = run_pass(ops, tracer, probe)
            tracer.enabled = False
        finally:
            tracer.uninstall()
        del ops
        gc.collect()
        untraced = run_pass(w.op_list(seed, 0), probe=probe)
    passes = [traced, untraced]
    if traced.verdicts != untraced.verdicts:
        traced.failures.append("traced and untraced passes gave different verdicts")
    metrics = tracer.metrics()
    metrics["trace.wall_s"] = (traced.wall_s, "s")
    metrics["trace.untraced_wall_s"] = (untraced.wall_s, "s")
    metrics["trace.overhead_s"] = (traced.wall_s - untraced.wall_s, "s")
    metrics["trace.light_samples"] = (float(len(traced.light_s)), "count")
    return _report(passes, metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("relspace", "symmetry", "operators"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--time-set-up", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.time_set_up:
        print(json.dumps(time_set_up(args.workload)))
        return 0
    try:
        _use_source_tree()
    except FileNotFoundError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        result = per_layer(args.workload, args.seed)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
