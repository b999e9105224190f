"""tools/bench_pair.py's judgement of paired runs, on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pair.py"
_spec = importlib.util.spec_from_file_location("bench_pair", _PATH)
bench_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pair)

_STEADY = [100.0 + k for k in range(10)]  # interquartile range 5.5, 5 % of the median


def _judged(parent: list[float], change: list[float], better: str) -> dict:
    """The summary entry of metric m on workload w, ten pairs of runs."""
    runs = [{"workload": "w", "side": side, "pair": pair,
             "result": {"metrics": {"m": {"value": values[pair]}}}}
            for pair in range(10) for side, values in (("parent", parent), ("change", change))]
    summary = bench_pair.summarize(runs)
    bench_pair.judge(runs, summary, [{"name": "m", "better": better, "bound": 0.25}])
    return summary["w"]["m"]


@pytest.mark.parametrize("parent, change, better, unresolved", [
    (_STEADY, _STEADY[::-1], "higher", False),
    # the parent's spread, 55 against a bound of 26, hides a move of the bound
    ([60.0 + 10.0 * k for k in range(10)], _STEADY, "higher", True),
    ([60.0 + 10.0 * k for k in range(10)], _STEADY, "lower", True),
    # the change's spread alone is enough
    (_STEADY, [60.0 + 10.0 * k for k in range(10)], "higher", True),
    # every change run better than every parent run settles it, either way round
    ([60.0 + 10.0 * k for k in range(10)], [200.0 + 10.0 * k for k in range(10)], "higher", False),
    ([200.0 + 10.0 * k for k in range(10)], [60.0 + 10.0 * k for k in range(10)], "lower", False),
    # a change worse in every run is not excepted
    ([60.0 + 10.0 * k for k in range(10)], [10.0 + 5.0 * k for k in range(10)], "higher", True),
], ids=["steady", "parent-spread", "parent-spread-lower", "change-spread", "all-better",
        "all-better-lower", "all-worse"])
def test_unresolved_when_the_spread_exceeds_the_bound(parent, change, better, unresolved):
    m = _judged(parent, change, better)
    assert m["unresolved"] is unresolved
    assert m["won_pairs"] <= 10 and m["parent_iqr"] > 0.0


def test_worse_than_bound_and_won_pairs():
    """A steady change 30 % below a steady parent is worse than the 25 %
    bound where higher is better, and wins every pair where lower is."""
    slower = [0.7 * v for v in _STEADY]
    m = _judged(_STEADY, slower, "higher")
    assert m["worse_than_bound"] and m["won_pairs"] == 0 and not m["unresolved"]
    m = _judged(_STEADY, slower, "lower")
    assert not m["worse_than_bound"] and m["won_pairs"] == 10


def test_failed_shares_per_side():
    """Per workload and side the median of the runs' failed shares and the
    largest distinct_failed; more_failed only where the change's median
    share exceeds the parent's."""
    def run(workload, side, failed, distinct):
        return {"workload": workload, "side": side,
                "result": {"attempted": 48, "failed": failed},
                "accuracy_line": {"distinct_failed": distinct}}

    runs = [run("tall", "parent", 19, 19), run("tall", "parent", 19, 19),
            run("tall", "parent", 38, 19), run("tall", "change", 19, 19),
            run("tall", "change", 24, 20), run("tall", "change", 24, 22),
            run("strip", "parent", 0, 0), run("strip", "change", 0, 0),
            run("strip", "change", 1, 1), run("strip", "change", 0, 0)]
    out = bench_pair.failures(runs)
    assert out["tall"]["parent"] == {"failed_share": 19 / 48, "distinct_failed": 19}
    assert out["tall"]["change"] == {"failed_share": 24 / 48, "distinct_failed": 22}
    assert out["tall"]["more_failed"] is True
    # one failing run of three leaves the median at 0, but distinct_failed shows it
    assert out["strip"]["change"] == {"failed_share": 0.0, "distinct_failed": 1}
    assert out["strip"]["more_failed"] is False
