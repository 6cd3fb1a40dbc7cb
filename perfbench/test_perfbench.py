"""Self-tests for the benchmark, outside the repository's test suite.

Each output check must fire on a perturbed result, the tracer must leave
capcont as it found it, and the runner must print exactly the metrics that
BENCHMARK.json names. Run with:

    python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

import capcont.cli  # noqa: E402
import capcont.continuity  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from capcont.channels import channel_to_dict, depolarizing, identity  # noqa: E402
from capcont.continuity import random_nearby_pair  # noqa: E402
from capcont.distance import diamond_distance  # noqa: E402
from capcont.sampling import rng_for  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _write(path: Path, ch) -> Path:
    path.write_text(json.dumps(channel_to_dict(ch)))
    return path


# ------------------------------------------------------------------ checks

def test_op_failed_counts_nonzero_exit_and_uncertified():
    assert workloads.op_failed(1, None)
    assert workloads.op_failed(2, {"violations": 1})
    assert workloads.op_failed(0, {"certified": False})
    assert not workloads.op_failed(0, {"certified": True})
    assert not workloads.op_failed(0, {"count": 3})


def test_bracket_is_exact_on_identity_vs_depolarizing(tmp_path):
    for d, p in ((2, 0.1), (3, 0.2)):
        a = _write(tmp_path / f"id{d}.json", identity(d))
        b = _write(tmp_path / f"dep{d}.json", depolarizing(d, p))
        assert workloads.bracket_upper(a, b) == pytest.approx(
            2 * p * (d * d - 1) / (d * d), abs=1e-12)


def test_bracket_bounds_the_certified_sdp_value(tmp_path):
    ch_a, ch_b = random_nearby_pair(3, 3, rng_for(5, 3, 0))
    upper = workloads.bracket_upper(_write(tmp_path / "a.json", ch_a),
                                    _write(tmp_path / "b.json", ch_b))
    res = diamond_distance(ch_a, ch_b)
    assert res.certified()
    assert res.dual_value <= res.value <= upper + 1e-6 * (1 + res.value)


def test_diamond_check_fires_on_each_perturbation():
    good = {"value": 0.5, "lower_bound": 0.4999999, "probe_lower_bound": 0.45,
            "certified": True}
    assert workloads.check_diamond(good, upper=0.6) == []
    assert workloads.check_diamond(dict(good, value=0.61), upper=0.6)
    assert workloads.check_diamond(dict(good, lower_bound=0.5 + 2e-6), upper=0.6)
    assert workloads.check_diamond(dict(good, probe_lower_bound=0.5 + 2e-6), upper=0.6)
    # An uncertified value is a failed op, and the bracket is not applied to it.
    uncertified = dict(good, value=0.61, certified=False)
    assert workloads.check_diamond(uncertified, upper=0.6) == []
    assert workloads.op_failed(0, uncertified)


def _discontinuity_rows():
    return [{"n": n, "diamond_eps": 2 / math.log2(n), "two_over_log_n": 2 / math.log2(n),
             "classical_lb": 1.0, "quantum_lb": 1.0, "corollary_bound": 20.0}
            for n in range(2, workloads.DISCONTINUITY_N_MAX + 1)]


@pytest.mark.parametrize("key, value", [
    ("diamond_eps", 2 / math.log2(5) + 2e-6),
    ("classical_lb", 1.0 - 1e-8),
    ("quantum_lb", 1.0 + 1e-8),
    ("corollary_bound", 0.5),
])
def test_discontinuity_check_fires(key, value):
    rows = _discontinuity_rows()
    assert workloads.check_discontinuity({"rows": rows}) == []
    rows[3][key] = value
    assert workloads.check_discontinuity({"rows": rows})


def test_discontinuity_check_fires_on_missing_row():
    assert workloads.check_discontinuity({"rows": _discontinuity_rows()[:-1]})


def test_harness_check_fires():
    eps = 2 * 0.1 * 3 / 4
    good = {"violations": 0, "count": 2, "reports": [{"epsilon": eps}, {"epsilon": eps}]}
    expect = {"count": 2, "eps": eps}
    assert workloads.check_harness(good, expect) == []
    assert workloads.check_harness(dict(good, violations=1), expect)
    assert workloads.check_harness(dict(good, count=3), expect)
    assert workloads.check_harness(good, {"count": 3, "eps": eps})
    off = dict(good, reports=[{"epsilon": eps}, {"epsilon": eps + 2e-6}])
    assert workloads.check_harness(off, expect)
    assert workloads.check_harness(off, {"count": 2, "eps": None}) == []


def test_capacity_check_fires():
    assert workloads.check_capacity({"per_copy_value": 0.5004}, {"value": 0.5}) == []
    assert workloads.check_capacity({"per_copy_value": 0.5011}, {"value": 0.5})
    assert workloads.check_capacity({"per_copy_value": 0.4989}, {"value": 0.5})


def test_capacity_closed_forms():
    values = {(k, c, n): v for k, c, n, v in workloads.CAPACITY_CASES}
    assert values[("coherent", "erasure:d=3,p=0.2", 1)] == pytest.approx(0.9509775, abs=1e-7)
    assert values[("coherent", "dephasing:p=0.2", 1)] == pytest.approx(0.2780719, abs=1e-7)
    assert values[("holevo", "depolarizing:d=2,p=0.2", 1)] == pytest.approx(0.5310044, abs=1e-7)


# ----------------------------------------------------------------- inputs

def test_diamond_inputs_follow_the_seed(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "DIAMOND_PAIRS_PER_DIM", 2)
    builds = {}
    for tag, seed in (("x", 3), ("y", 3), ("z", 4)):
        work = tmp_path / tag
        work.mkdir()
        ops = workloads.Diamond().build(work, seed)
        dims = [json.loads(Path(op.expect["a"]).read_text())["d_in"] for op in ops]
        assert sorted(dims) == sorted(list(workloads.DIAMOND_DIMS) * 2)
        builds[tag] = [Path(op.expect["b"]).read_text() for op in ops]
    assert builds["x"] == builds["y"]
    assert builds["x"] != builds["z"]


def test_harness_and_capacity_rounds():
    harness = workloads.Harness().build(Path("."), 7)
    assert all(op.argv[-2:] == ("--seed", "7") for op in harness)
    assert {op.argv[1] for op in harness} == {"fannes", "af", "theorem3", "corollaries"}
    capacity = workloads.Capacity().build(Path("."), 7)
    assert len(capacity) == len(workloads.CAPACITY_CASES) * len(workloads.CAPACITY_OP_SEEDS)


# ------------------------------------------------------------------ speed

def test_probe_scaling_drops_sample_time_and_rescales():
    probe = speed.Probe()
    ref = speed.REF_PROBE_S
    # A slow host: every sample reads twice the reference time.
    probe.starts, probe.costs, probe.values = [0.0, 0.5, 1.0], [1e-3] * 3, [2 * ref] * 3
    # The op [0.1, 0.9] holds the sample at 0.5 and borrows its neighbours.
    assert probe.scaled(0.1, 0.9) == pytest.approx((0.8 - 1e-3) / 2)
    probe.values[0] = 4 * ref
    assert probe.scaled(0.1, 0.9) == pytest.approx((0.8 - 1e-3) * 3 / 8)
    assert speed.Probe().scaled(0.0, 1.0) == 1.0


# ----------------------------------------------------------------- tracer

def test_tracer_spans_nest_and_uninstall_restores():
    originals = (capcont.continuity.entropy_of_matrix, capcont.cli.main,
                 numpy.linalg.eigh, capcont.linalg.DensityMatrix.__init__)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert capcont.continuity.entropy_of_matrix is not originals[0]
        code = capcont.cli.main(["verify", "theorem3", "--channel-a", "identity:d=2",
                                 "--channel-b", "depolarizing:d=2,p=0.1", "--trials", "3"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert (capcont.continuity.entropy_of_matrix, capcont.cli.main,
            numpy.linalg.eigh, capcont.linalg.DensityMatrix.__init__) == originals
    m = tracing.layer_metrics(tracer, rounds=1, overhead_s=0.0)
    assert m["continuity.reports"] == 3
    assert m["sdp.solve.calls"] == 1 and m["distance.diamond.calls"] == 1
    assert m["sdp.iters"] > 0 and m["sdp.solve.s.nc_le24"] == m["sdp.solve.s"]
    assert m["linalg.eig.calls"] > 0 and m["cli.parse.s"] > 0
    for stat in tracer.stats.values():
        assert stat.self_s >= 0.0 and stat.incl_s >= 0.0
    # Self times partition the main span: nothing is counted twice.
    total_self = sum(stat.self_s for stat in tracer.stats.values())
    assert total_self == pytest.approx(tracer.stats["cli.main"].incl_s, rel=1e-9)


# ----------------------------------------------------------------- runner

def test_metric_names_and_units_match_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    assert layer == tracing.PER_LAYER_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
def test_runner_prints_the_benchmark_metrics(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "harness", "--seed", "2",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    wanted = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "diamond", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
