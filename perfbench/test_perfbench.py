"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer as tracing

run.import_troplin()

import workloads  # noqa: E402  (needs the checkout's troplin on sys.path)
from troplin import io as tio  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def smoke(workload: str, trace: int) -> tuple[dict, str]:
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--small")
    assert done.returncode == 0, done.stderr
    *text, last = done.stdout.strip().splitlines()
    return json.loads(last), "\n".join(text)


@pytest.fixture(scope="module")
def traced_runs():
    return {w: smoke(w, 1)[0]["metrics"] for w in WORKLOAD_NAMES}


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_prints_every_end_to_end_metric(workload):
    result, text = smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0
        assert f"{metric['name']} = " in text
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_prints_every_per_layer_metric(workload, traced_runs):
    metrics = traced_runs[workload]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert metrics[metric["name"]]["unit"] == metric["unit"]


def test_traced_runs_show_the_predicted_layer_split(traced_runs):
    cli, memory, val = (traced_runs[w] for w in ("cli_roundtrip", "memory_fans", "valuated_complexes"))

    def value(metrics, name):
        return metrics[name]["value"]

    assert value(memory, "lp.lp_feasible.calls") == 0 < value(cli, "lp.lp_feasible.calls")
    assert value(memory, "complexes.validate.self_s") == 0 < value(cli, "complexes.validate.self_s")
    assert value(memory, "recognize.untagged_share") == 0
    assert value(cli, "recognize.untagged_share") == 1
    assert value(val, "complexes.recession_fan.self_s") > 0
    assert value(cli, "complexes.recession_fan.self_s") == value(memory, "complexes.recession_fan.self_s") == 0


def test_self_times_of_a_known_span_tree():
    spans = [
        ("op", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("a", 5.0, 9.0, 0),
        ("c", 6.0, 7.0, 3),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx([3.0, 2.0, 1.0, 3.0, 1.0])
    assert sum(own) == pytest.approx(10.0)
    tracer = tracing.Tracer()
    tracer.spans.extend(spans)
    assert tracer.totals() == {"op": (1, 3.0), "a": (2, 5.0), "b": (1, 1.0), "c": (1, 1.0)}


def test_overlapping_children_are_subtracted_once():
    spans = [("p", 0.0, 4.0, -1), ("x", 1.0, 3.0, 0), ("y", 2.0, 4.0, 0)]
    assert tracing.self_times(spans) == pytest.approx([1.0, 2.0, 2.0])


def test_tracer_records_nesting_and_counters():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    def inner(x):
        return x + 1

    def observe(counters, args, result):
        counters["inner.big"] += result > 1

    traced_inner = tracer.wrap("inner", inner, observe)
    outer = tracer.wrap("outer", lambda: traced_inner(traced_inner(0)))
    assert outer() == 2
    assert [(s[0], s[3]) for s in tracer.spans] == [("outer", -1), ("inner", 0), ("inner", 0)]
    assert tracer.counters["inner.big"] == 1
    assert sum(tracing.self_times(tracer.spans)) == tracer.spans[0][2] - tracer.spans[0][1]


def _bindings():
    import troplin
    from troplin.complexes import WeightedComplex
    from troplin.polyhedra import Polyhedron

    modules = [m for name, m in sys.modules.items() if name == "troplin" or name.startswith("troplin.")]
    snapshot = {(id(m), k): v for m in modules for k, v in vars(m).items()}
    for cls in (Polyhedron, WeightedComplex):
        snapshot.update({(id(cls), k): v for k, v in vars(cls).items()})
    assert troplin
    return snapshot


def test_traced_run_restores_every_wrapped_name(tmp_path):
    before = _bindings()
    probe = tracing.Tracer()
    run.install_probes(probe)
    patched = probe.patched()
    assert len(patched) >= 27
    assert any(_bindings()[(id(owner), attr)] is not original for owner, attr, original in patched)
    probe.restore()
    assert _bindings() == before

    build = workloads.WORKLOADS["valuated_complexes"]
    run.traced(build, 1, tmp_path, True, "restore-test")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def _inputs(workload: str, seed: int, workdir: Path) -> list[str]:
    workdir.mkdir()
    ops = workloads.WORKLOADS[workload](seed, workdir, True)
    out = []
    for op in ops:
        item = op.input
        if isinstance(item, workloads.Matroid):
            item = tio.matroid_to_json(item)
        elif isinstance(item, workloads.Recipe):
            case = item.make()
            item = [item.mutant, tio.valuated_to_json(case.valuated), tio.complex_to_json(case.complex_)]
        out.append(op.label + " " + json.dumps(item, sort_keys=True))
    return out


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_seed_fixes_the_inputs(workload, tmp_path):
    first = _inputs(workload, 5, tmp_path / "a")
    again = _inputs(workload, 5, tmp_path / "b")
    other = _inputs(workload, 6, tmp_path / "c")
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_another_seed_still_fails_nothing(workload, tmp_path):
    ops = workloads.WORKLOADS[workload](6, tmp_path, True)
    problems = [(label, p) for _, p, label in run.run_pass(ops) if p is not None]
    assert problems == []


def test_mutants_are_rejected_with_their_reason():
    for kind in (workloads.DROP, workloads.DOUBLE):
        recipe = workloads.Recipe(lambda: workloads.tree_line(5, [3, 1, 5, 2, 4]), kind)
        ops = workloads._mutant_ops(recipe)
        assert [op.prepare()() for op in ops] == [None, None]


def test_every_call_gets_fresh_objects():
    recipe = workloads.valuated_recipes(1, True)[0]
    first, second = recipe.make(), recipe.make()
    assert first.complex_ is not second.complex_
    assert first.complex_.cells[0] is not second.complex_.cells[0]
    assert tio.complex_to_json(first.complex_) == tio.complex_to_json(second.complex_)


def test_latencies_come_from_each_ops_median():
    metrics = run.end_to_end([0.004, 0.001, 0.002, 0.003], setup_s=0.5)
    assert metrics["ops_per_s"] == (pytest.approx(400.0), "1/s")
    assert metrics["op_p50_ms"] == (pytest.approx(2.5), "ms")
    assert metrics["setup_s"] == (0.5, "s")


def test_times_are_scaled_by_the_reference_around_them():
    assert run.at_reference_speed(0.01, run.REF_S, run.REF_S) == pytest.approx(0.01)
    # a host at half speed doubles both the work and the reference
    assert run.at_reference_speed(0.02, 2 * run.REF_S, 2 * run.REF_S) == pytest.approx(0.01)
    assert run.at_reference_speed(0.03, run.REF_S, 2 * run.REF_S) == pytest.approx(0.02)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = bench("--workload", "memory_fans", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
