"""Span arithmetic, the traced child, and the metric list."""

import json
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

import run
import tracing

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent


def spans(rows):
    """rows of (name, parent, start, end) -> layer_totals arguments."""
    names = sorted({r[0] for r in rows})
    return (names, array("i", [names.index(r[0]) for r in rows]),
            array("i", [r[1] for r in rows]),
            array("d", [r[2] for r in rows]), array("d", [r[3] for r in rows]))


def test_self_time_on_a_hand_built_tree():
    #   main 0..10
    #     a 1..4          self 3 - 1 = 2
    #       b 2..3        self 1
    #     a 5..9          self 4 - 2.5 = 1.5
    #       a 6..8.5      nested in a: inclusive not counted again
    #         b 7..7.5
    totals = tracing.layer_totals(*spans([
        ("main", -1, 0.0, 10.0),
        ("a", 0, 1.0, 4.0),
        ("b", 1, 2.0, 3.0),
        ("a", 0, 5.0, 9.0),
        ("a", 3, 6.0, 8.5),
        ("b", 4, 7.0, 7.5),
    ]))
    assert totals["main"] == {"calls": 1, "s": 10.0, "self_s": 3.0}
    assert totals["a"] == {"calls": 3, "s": 7.0, "self_s": 2.0 + 1.5 + 2.0}
    assert totals["b"] == {"calls": 2, "s": 1.5, "self_s": 1.5}
    # self times partition the root span
    assert sum(t["self_s"] for t in totals.values()) == 10.0


def test_recorder_round_trip(tmp_path):
    ticks = iter(range(100))
    rec = tracing.SpanRecorder(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    wrapped_leaf = rec.wrap("leaf", leaf)
    outer = rec.wrap("outer", lambda: wrapped_leaf() + wrapped_leaf())
    assert outer() == 2
    rec.dump(tmp_path / "t", {"c": 3})
    counters, names, *arrays = tracing.load(tmp_path / "t")
    assert counters == {"c": 3}
    assert list(arrays[1]) == [-1, 0, 0]
    totals = tracing.layer_totals(names, *arrays)
    assert totals["outer"] == {"calls": 1, "s": 5.0, "self_s": 3.0}
    assert totals["leaf"] == {"calls": 2, "s": 2.0, "self_s": 2.0}


@pytest.mark.parametrize("n, p", [(5, 0), (11, 0), (12, 9), (13, 16),
                                  (101, 90), (500, 90)])
def test_tail_percentile_leaves_ten_beyond(n, p):
    assert run.tail_percentile(n) == p
    if p:
        rank = p / 100 * (n - 1)
        assert n - 1 - int(rank) >= run.TAIL_MIN_BEYOND


def test_benchmark_json_matches_the_metric_lists():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def traced(tmp_path, argv):
    env = run.checkout_env(ROOT)
    path = tmp_path / "trace"
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "traced_child.py"), str(path), *argv],
        env=env, capture_output=True, timeout=120)
    plain = subprocess.run([sys.executable, "-m", "awcalc", *argv], env=env,
                           capture_output=True, timeout=120)
    assert done.returncode == plain.returncode == 0
    assert done.stdout == plain.stdout
    counters, names, *arrays = tracing.load(path)
    return counters, tracing.layer_totals(names, *arrays)


def test_identities_never_reach_the_family_layers(tmp_path):
    _, totals = traced(tmp_path, ["verify-identities", "--qsqrt", "1/2",
                                  "--trials", "1"])
    assert totals["qoperators.verify_identity"]["calls"] == 4
    assert totals["qoperators.apply_Dq"]["calls"] > 0
    for name, row in totals.items():
        if name.startswith(("proof_engine.", "askey_wilson.")):
            assert row["calls"] == 0, name


def test_chain_repeats_operator_inputs(tmp_path):
    counters, totals = traced(tmp_path, [
        "verify-chain", "--qsqrt", "1/2", "--sigmas=-1/3,1,0,1/2",
        "--nmax", "4", "--k", "1,2"])
    calls = totals["qoperators.apply_Dq"]["calls"]
    assert 0 < counters["qoperators.apply_Dq.distinct"] < calls
    assert totals[f"{tracing.CHAIN_EQUATION}.eq_final"]["calls"] > 0
    assert totals["cli.main"]["calls"] == 1
