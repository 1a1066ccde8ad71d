"""Tests of the benchmark's own code.

    python3 -m pytest bench/tests -q
"""
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import mconvex.embeddings.search  # noqa: E402
import mconvex.embeddings.classify  # noqa: E402
import runner  # noqa: E402
from tracer import PER_LAYER, Tracer, install  # noqa: E402
from workloads import WORKLOADS, build_ops, op_key  # noqa: E402


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


# ---------------------------------------------------------------------------
# span self-time arithmetic
# ---------------------------------------------------------------------------

def test_self_time_of_nested_spans():
    # A [0, 10] holds B [1, 3] and C [4, 8]; C holds D [5, 6]
    tr = Tracer(clock=fake_clock([0, 1, 3, 4, 5, 6, 8, 10]))
    tr.open("A")
    tr.open("B")
    tr.close()
    tr.open("C")
    tr.open("D")
    tr.close()
    tr.close()
    tr.close()
    tr.end_op(1)
    self_time = {name: st.self_time for name, st in tr.stats.items()}
    assert self_time == {"A": 4, "B": 2, "C": 3, "D": 1}
    assert tr.root_total == 10 == sum(self_time.values())
    parents = {rec[1]: rec[4] for rec in tr.spans}
    ids = {rec[1]: rec[0] for rec in tr.spans}
    assert parents == {"A": None, "B": ids["A"], "C": ids["A"], "D": ids["C"]}


def test_recursive_spans_and_exceptions():
    # f [0, 6] calls itself [1, 4], which raises
    tr = Tracer(clock=fake_clock([0, 1, 4, 6]))
    tr.open("f")
    tr.open("f")
    tr.close(ValueError)
    tr.close()
    tr.end_op(1)
    st = tr.stats["f"]
    assert (st.calls, st.self_time) == (2, 6)
    assert st.raised == {"ValueError": 1}
    assert tr.root_total == 6


def test_end_op_scales_the_op_to_reference_seconds():
    # op 1: g [0, 4] holds h [1, 2]; op 2: g [10, 12]
    tr = Tracer(clock=fake_clock([0, 1, 2, 4, 10, 12]))
    tr.open("g")
    tr.open("h")
    tr.close()
    tr.close()
    tr.end_op(0.5)
    tr.open("g")
    tr.close()
    tr.end_op(2)
    assert tr.stats["g"].self_time == 3 * 0.5 + 2 * 2
    assert tr.stats["h"].self_time == 1 * 0.5
    assert tr.root_total == 4 * 0.5 + 2 * 2 == sum(st.self_time for st in tr.stats.values())


def test_meter_times_the_work_without_its_kernel_runs():
    import calibration
    start = time.perf_counter()
    with calibration.Meter() as meter:
        time.sleep(0.05)
    outside = time.perf_counter() - start
    assert len(meter.samples) == 2 * calibration.BRACKET
    assert 0.05 <= meter.seconds <= outside - sum(meter.samples)
    assert meter.factor > 0


def test_spans_of_the_first_round_are_kept_in_full():
    tr = Tracer(clock=fake_clock(range(100)))
    for run_id in (0, 0, 0, 1, 1):
        tr.run_id = run_id
        tr.open("x")
        tr.close()
        tr.end_op(1)
    assert len(tr.spans) == 3 and tr.dropped == 2
    assert {rec[5] for rec in tr.spans} == {0}
    assert tr.stats["x"].calls == 5 and tr.stats["x"].self_time == 5


# ---------------------------------------------------------------------------
# seed handling
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_ops(workload):
    assert build_ops(workload, 7) == build_ops(workload, 7)


@pytest.mark.parametrize("workload", ["b4-rigidity", "small-instances", "htree-metric"])
def test_other_seed_other_ops(workload):
    a = {op_key(op) for op in build_ops(workload, 7)}
    b = {op_key(op) for op in build_ops(workload, 8)}
    assert not a & b


def test_laakso_ops_do_not_depend_on_the_seed():
    assert build_ops("laakso-dp", 1) == build_ops("laakso-dp", 2)


# ---------------------------------------------------------------------------
# tracing leaves outputs byte-identical; checker and frozen references
# ---------------------------------------------------------------------------

SMALL_OPS = [
    {"id": "laakso", "kind": "cli", "argv": ["laakso-ratio", "--m", "1..2", "--p", "2"],
     "instances": 2, "inputs": {}},
    {"id": "b4", "kind": "cli", "argv": ["b4-search", "--trials", "3", "--seed", "4"],
     "instances": 3, "inputs": {}},
    {"id": "gap", "kind": "cli", "argv": ["distortion-gap", "--trials", "5", "--seed", "4"],
     "instances": 5, "inputs": {}},
    {"id": "fork", "kind": "cli",
     "argv": ["classify", "--kind", "fork", "--delta", "1/128", "--trials", "20",
              "--seed", "4"], "instances": 20, "inputs": {}},
    {"id": "prop21", "kind": "cli", "argv": ["prop21-check", "--trials", "5", "--seed", "4"],
     "instances": 5, "inputs": {}},
    {"id": "htree", "kind": "cli",
     "argv": ["htree-validate", "--sequences", "1", "--exhaustive-depth", "4",
              "--samples", "50", "--seed", "4"], "instances": 1, "inputs": {}},
    {"id": "verify", "kind": "verify-metric", "argv": ["verify-metric", "--depth", "6",
                                                       "--seed", "4"],
     "instances": 1, "inputs": {}},
]


def _quotient_ops():
    return [op for op in build_ops("small-instances", 4) if op["id"].endswith("-0")
            and op["id"].startswith("quotient")]


def _outputs(ops, work, tracer=None):
    out = {}
    for op in ops:
        _, text, error, _ = runner.run_op(op, work, tracer)
        assert error is None, (op["id"], error)
        out[op["id"]] = text
    return out


def test_tracing_leaves_outputs_byte_identical(tmp_path):
    ops = SMALL_OPS + _quotient_ops()
    runner.write_inputs(ops, tmp_path)
    orig = mconvex.embeddings.search.b4_bound_check
    plain = _outputs(ops, tmp_path)
    tracer = Tracer()
    inst = install(tracer)
    try:
        # a name bound with `from ... import` is rebound in the importing module
        assert mconvex.embeddings.search.b4_bound_check is not orig
        traced = _outputs(ops, tmp_path, tracer)
    finally:
        inst.undo()
    assert mconvex.embeddings.search.b4_bound_check is orig
    assert mconvex.embeddings.classify.b4_bound_check is orig
    assert traced == plain
    assert _outputs(ops, tmp_path) == plain
    # the search's own b4_bound_check call (distortion-gap) was traced
    assert tracer.stats["embeddings.b4_bound_check"].calls == 3 + 1
    assert tracer.stats["cli"].calls == len(ops) - 1
    assert tracer.stats["bench.op"].calls == 1
    assert tracer.stack == []


def test_corrupted_reference_counts_the_op_as_failed(tmp_path):
    ops = [SMALL_OPS[3], SMALL_OPS[4]]
    runner.write_inputs(ops, tmp_path)
    refs = {op_key(op): text for op, text in zip(ops, _outputs(ops, tmp_path).values())}

    good = runner.Run(ops)
    good.round(tmp_path, refs)
    assert (good.attempted, len(good.failures)) == (2, 0)

    key = op_key(ops[0])
    corrupted = dict(refs, **{key: refs[key].replace("1/128", "1/129")})
    bad = runner.Run(ops)
    bad.round(tmp_path, corrupted)
    assert (bad.attempted, len(bad.failures)) == (2, 1)
    assert bad.failures[0]["problems"] == ["output differs from the frozen reference"]
    assert len(bad.failures) / bad.attempted > len(good.failures) / good.attempted


def test_failed_certificate_counts_the_op_as_failed():
    op = SMALL_OPS[3]
    text = json.dumps({"unclassified": 1, "variants": {"Unclassified": 1, "I": 19}})
    assert runner.judge(op, text, None, {}) == ["unclassified instances"]
    assert runner.judge(op, None, "exit 1", {}) == ["exit 1"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_frozen_references_cover_the_default_seed(workload):
    refs = runner.load_references(workload)
    assert {op_key(op) for op in build_ops(workload, 1)} == set(refs)


# ---------------------------------------------------------------------------
# the result contract
# ---------------------------------------------------------------------------

def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "small-instances",
                           "--seed", "3", "--seconds", "0.1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "laakso-dp",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
