"""Benchmark for troplin: one closed-loop client, three seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli_roundtrip --seed 1 --seconds 40 --trace 0

One client in one CPython process and thread makes one decision call at a
time and waits for it.  A pass runs a workload's whole op sequence, which the
seed fixes; passes repeat while another one fits in ``--seconds`` (at least
two always run), so every pass has the same mix of ops.  Every time is
scaled by a fixed reference load timed around it, because the host's speed
wanders by up to 2x (see ``at_reference_speed``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one pass
untraced and one traced, prints the per-layer metrics, and writes the spans
and counters to ``.perfbench/``.  The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
MIN_PASSES = 2
REPEAT_S = 0.02
MAX_REPEATS = 3
FAILURES_SHOWN = 5
# seconds one reference() call takes on the baseline host at its fastest
REF_S = 0.0011


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def import_troplin() -> float:
    """Import the checkout's own troplin and return the seconds it took."""
    if not (SRC / "troplin" / "__init__.py").is_file():
        raise SystemExit(f"error: no troplin package under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import troplin
    import troplin.cli  # noqa: F401  (the CLI is only imported on demand)

    elapsed = time.perf_counter() - start
    if Path(troplin.__file__).resolve().parent != SRC / "troplin":
        raise SystemExit(f"error: imported troplin from {troplin.__file__}, not {SRC}")
    return elapsed


# -- machine speed ---------------------------------------------------------------


def reference() -> None:
    """A fixed load of the kind troplin runs: Fraction arithmetic, frozenset
    hashing and sorting, in the standard library alone."""
    total = Fraction(0)
    seen = {}
    for i in range(1, 400):
        total += Fraction(i % 7 + 1, i)
        seen[frozenset((i % 13, i % 5, i % 3))] = total
    sorted(seen, key=sorted)


def reference_time() -> float:
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def at_reference_speed(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` scaled to the host's fastest speed.

    The host's speed wanders by up to 2x, for seconds to minutes at a time,
    so a whole run can fall in a slow spell.  The reference is timed just
    before and just after the measured work; what the work took, over what
    the reference took around it, stays the same while both slow down.
    """
    return elapsed * REF_S / ((before + after) / 2)


# -- timing --------------------------------------------------------------------


def time_op(op, wrap=None) -> tuple[float, str | None]:
    """Prepare fresh inputs, then time one call; a failure is returned, never raised."""
    call = op.prepare()
    if wrap is not None:
        call = wrap(call)
    start = time.perf_counter()
    try:
        problem = call()
    except Exception as exc:  # every failure counts; the run goes on
        problem = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, problem


def run_pass(ops, wrap=None) -> list[tuple[float, str | None, str]]:
    """Run each op once, in order."""
    return [(*time_op(op, wrap), op.label) for op in ops]


def timed_setup(build, seed, workdir, small) -> float:
    """Seconds, at reference speed, to generate a pass's inputs, write its
    files and build every op's objects."""
    before = reference_time()
    start = time.perf_counter()
    ops = build(seed, workdir, small)
    for op in ops:
        op.prepare()
    elapsed = time.perf_counter() - start
    return at_reference_speed(elapsed, before, reference_time())


# -- end-to-end mode --------------------------------------------------------------


def measure(ops, seconds, started):
    """Whole passes over ``ops`` until the next one would end past ``seconds``.

    Within a pass an op runs back to back until it has taken ``REPEAT_S``
    or run ``MAX_REPEATS`` times, so quick ops are timed many times and
    slow ones once per pass.  The reference runs between any two calls.
    Returns every sample and each op's median time at reference speed.
    """
    samples: list[tuple[float, str | None, str]] = []
    scaled: list[list[float]] = [[] for _ in ops]
    passes = 0
    before = reference_time()
    while True:
        began = time.perf_counter()
        for idx, op in enumerate(ops):
            spent = 0.0
            for _ in range(MAX_REPEATS):
                elapsed, problem = time_op(op)
                after = reference_time()
                samples.append((elapsed, problem, op.label))
                scaled[idx].append(at_reference_speed(elapsed, before, after))
                before = after
                spent += elapsed
                if spent >= REPEAT_S:
                    break
        passes += 1
        now = time.perf_counter()
        if passes >= MIN_PASSES and now - started + (now - began) > seconds:
            return samples, [statistics.median(x) for x in scaled], passes


def end_to_end(per_op, setup_s):
    """Metrics of one pass in which every op takes its median time of the run."""
    ms = [x * 1000.0 for x in per_op]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(per_op) / sum(per_op), "1/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p90_ms": (statistics.quantiles(ms, n=10)[-1], "ms"),
        "peak_rss_mb": (peak, "MB"),
    }


# -- traced mode --------------------------------------------------------------------


def install_probes(tracer) -> None:
    """Wrap the layer boundaries the per-layer metrics are read from."""
    from troplin import cli, complexes, io, linalg, lp, matroids, points, recognize, valuated
    from troplin.complexes import WeightedComplex
    from troplin.polyhedra import Polyhedron

    def feasible(counters, args, result):
        counters["lp.feasible"] += result.feasible

    def cut(counters, args, result):
        counters["polyhedra.cuts.split"] += bool(result)

    def untagged(counters, args, result):
        counters["recognize.untagged"] += not args[0].chain_tagged

    def flats(counters, args, result):
        counters["recognize.flats_found"] += len(result.sets)
        counters["recognize.subsets_probed"] += 2 ** args[0].n - 1

    functions = [
        ("cli.main", cli, "main", None),
        ("io.complex_from_json", io, "complex_from_json", None),
        ("io.complex_to_json", io, "complex_to_json", None),
        ("lp.lp_feasible", lp, "lp_feasible", feasible),
        ("linalg.lattice_quotient_generator", linalg, "lattice_quotient_generator", None),
        ("complexes.is_balanced", complexes, "is_balanced", None),
        ("complexes.recession_fan", complexes, "recession_fan", None),
        ("complexes.star_fan", complexes, "star_fan", None),
        ("complexes.segment_in_support", complexes, "segment_in_support", None),
        ("recognize.recognize_fan", recognize, "recognize_fan", untagged),
        ("recognize.recover_flat_family", recognize, "recover_flat_family", flats),
        ("recognize.decide_complex", recognize, "decide_complex", None),
        ("recognize.local_check", recognize, "local_check", None),
        ("recognize.convexity_probe", recognize, "convexity_probe", None),
        ("matroids.verify_flat_family", matroids, "verify_flat_family", None),
        ("matroids.matroid_from_flats", matroids, "matroid_from_flats", None),
        ("valuated.certify_cell", valuated, "certify_cell", None),
        ("valuated.member", valuated, "member", None),
        ("points.segment", points, "segment", None),
    ]
    for name, module, attr, observe in functions:
        tracer.patch_function(name, module, attr, observe)
    tracer.patch_method("polyhedra.Polyhedron", Polyhedron, "__init__")
    tracer.patch_method("polyhedra.intersection", Polyhedron, "intersection")
    tracer.patch_method("polyhedra.contains_polyhedron", Polyhedron, "contains_polyhedron")
    tracer.patch_method("polyhedra.cuts", Polyhedron, "cuts", cut)
    tracer.patch_method("polyhedra.split", Polyhedron, "split")
    tracer.patch_cached_property("polyhedra.hrep", Polyhedron, "hrep")
    tracer.patch_method("complexes.validate", WeightedComplex, "_validate_common_faces")
    tracer.patch_method("complexes.support_contains", WeightedComplex, "support_contains")


CALLS = [
    "cli.main", "io.complex_from_json", "polyhedra.Polyhedron", "polyhedra.hrep",
    "polyhedra.intersection", "polyhedra.contains_polyhedron", "polyhedra.cuts",
    "polyhedra.split", "lp.lp_feasible", "linalg.lattice_quotient_generator",
    "complexes.is_balanced", "complexes.segment_in_support", "complexes.support_contains",
    "recognize.recognize_fan", "valuated.certify_cell", "valuated.member", "points.segment",
]
SELF = [
    "cli.main", "io.complex_from_json", "io.complex_to_json", "polyhedra.Polyhedron",
    "polyhedra.hrep", "polyhedra.intersection", "polyhedra.contains_polyhedron",
    "lp.lp_feasible", "complexes.validate", "complexes.is_balanced",
    "complexes.recession_fan", "complexes.star_fan", "complexes.segment_in_support",
    "recognize.recognize_fan", "recognize.recover_flat_family", "recognize.decide_complex",
    "recognize.local_check", "recognize.convexity_probe", "matroids.verify_flat_family",
    "matroids.matroid_from_flats", "valuated.certify_cell", "valuated.member", "points.segment",
]


def layer_metrics(tracer, overhead: float):
    """Per-layer metrics, and the base of every ratio for the report."""
    totals = tracer.totals()
    counters = tracer.counters

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    metrics = {}
    for name in CALLS:
        metrics[f"{name}.calls"] = (calls(name), "count")
    for name in SELF:
        metrics[f"{name}.self_s"] = (totals.get(name, (0, 0.0))[1], "s")
    ratios = {
        "polyhedra.split_ratio": (counters["polyhedra.cuts.split"], calls("polyhedra.cuts"), "cut tests that split"),
        "lp.redundant_ratio": (counters["lp.feasible"], calls("lp.lp_feasible"), "LP solves that were feasible"),
        "recognize.untagged_share": (counters["recognize.untagged"], calls("recognize.recognize_fan"), "recognize_fan inputs without chain tags"),
        "recognize.flat_hit_ratio": (counters["recognize.flats_found"], counters["recognize.subsets_probed"], "probed subsets that were flats"),
    }
    bases = {}
    for name, (hits, base, what) in ratios.items():
        metrics[name] = (hits / base if base else 0.0, "ratio")
        bases[name] = f"{hits} of {base} {what}"
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    bases["trace.overhead_ratio"] = "untraced ops_per_s over traced ops_per_s"
    return metrics, bases


def traced(build, seed, workdir, small, label):
    """One untraced pass, then one traced pass over the same op sequence."""
    from tracer import Tracer

    plain = run_pass(build(seed, workdir, small))
    ops = build(seed, workdir, small)
    tracer = Tracer()
    install_probes(tracer)
    try:
        samples = run_pass(ops, wrap=lambda fn: tracer.wrap("op", fn))
    finally:
        tracer.restore()
    overhead = sum(s[0] for s in samples) / sum(s[0] for s in plain)
    metrics, bases = layer_metrics(tracer, overhead)
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"spans-{label}.jsonl.gz"
    tracer.write(trace_file)
    return plain + samples, len(ops), 2, metrics, bases, trace_file


# -- entry point ------------------------------------------------------------------------


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="tiny inputs, for smoke tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    started = time.perf_counter()
    reference()  # the first call warms up Fraction and the allocator
    before = reference_time()
    import_s = at_reference_speed(import_troplin(), before, reference_time())
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    build = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.trace:
            label = f"{args.workload}-seed{args.seed}"
            samples, n_ops, passes, metrics, bases, trace_file = traced(
                build, args.seed, workdir, args.small, label
            )
        else:
            setup_times = [timed_setup(build, args.seed, workdir, args.small) for _ in range(SETUP_REPEATS)]
            ops = build(args.seed, workdir, args.small)
            n_ops = len(ops)
            samples, per_op, passes = measure(ops, args.seconds, started)
            metrics = end_to_end(per_op, import_s + statistics.median(setup_times))
            bases = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [(op, problem) for _, problem, op in samples if problem is not None]
    for op, problem in failures[:FAILURES_SHOWN]:
        print(f"FAILED {op}: {problem}", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  mode {'traced' if args.trace else 'end-to-end'}")
    print(f"python {platform.python_version()}  platform {platform.platform()}  nproc {os.cpu_count()}")
    print(f"commit {git_commit()}")
    print("wall times: single CPython process, this machine; one closed-loop client")
    print(f"ops per pass {n_ops}  passes {passes}  op samples {len(samples)}")
    print(f"fail_rate {len(failures) / len(samples):.6f} ({len(failures)} of {len(samples)} ops)")
    if args.trace:
        print(f"spans written to {trace_file.relative_to(ROOT)}")
    else:
        beyond = sum(1 for x in per_op if x * 1000.0 > metrics["op_p90_ms"][0])
        raw_ms = statistics.median(s[0] for s in samples) * 1000.0
        print(f"latencies: each op's median of its {len(samples) / n_ops:.1f} calls on average; {beyond} ops beyond p90")
        print(f"times at reference speed (reference() in {REF_S * 1000:g} ms); median raw wall time of a call {raw_ms:.4g} ms")
    for name, (value, unit) in metrics.items():
        note = f"  ({bases[name]})" if name in bases else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    result = {
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
