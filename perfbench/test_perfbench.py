"""Fast checks of the benchmark's own arithmetic; no benchmark run needed.

    python3 -m pytest perfbench -q
"""

import types

import pytest

import run
import tracer


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["b", 5.0, 6.0, 0],
    ]
    out = tracer.self_times(spans)
    assert out["root"] == {"count": 1, "total_s": 10.0, "self_s": 6.0}
    assert out["a"] == {"count": 1, "total_s": 3.0, "self_s": 2.0}
    assert out["leaf"]["self_s"] == out["leaf"]["total_s"] == 1.0


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [["p", 0.0, 4.0, -1], ["c", 1.0, 3.0, 0], ["c", 2.0, 5.0, 0]]
    out = tracer.self_times(spans)
    assert out["p"]["self_s"] == pytest.approx(1.0)
    assert out["c"]["count"] == 2
    assert out["c"]["total_s"] == pytest.approx(5.0)


def test_self_times_sum_per_name():
    spans = [["f", 0.0, 1.0, -1], ["f", 2.0, 2.5, -1]]
    assert tracer.self_times(spans)["f"] == {"count": 2, "total_s": 1.5, "self_s": 1.5}


@pytest.mark.parametrize("n", [0, 1, 5, 10])
def test_no_tail_percentile_below_eleven_samples(n):
    assert run.tail_percentile(list(range(n))) is None


def test_tail_percentile_leaves_ten_samples_beyond():
    values = [float(v) for v in range(100, 0, -1)]
    assert run.tail_percentile(values) == {"p": 90.0, "value": 90.0}
    assert run.tail_percentile(values, higher_is_better=True) == {"p": 10.0, "value": 11.0}
    eleven = run.tail_percentile([3.0] * 10 + [1.0])
    assert eleven["value"] == 1.0 and eleven["p"] == pytest.approx(100 / 11)


def fake_module(name, source, **bound):
    mod = types.ModuleType(name)
    mod.__dict__.update(bound)
    exec(source, mod.__dict__)
    return mod


def test_tracer_wraps_every_binding_and_tolerates_missing_names():
    core = fake_module("hybridreid.core", "def leaf(x):\n    return x + 1\n"
                                          "def _private(x):\n    return x\n")
    user = fake_module("hybridreid.user", "def outer(x):\n    return leaf(x) * 2\n",
                       leaf=core.leaf)
    t = tracer.Tracer()
    t.install([core, user], methods=(("encoder", "MLPEncoder", "forward"),))
    assert core.leaf is user.leaf
    assert core._private.__module__ == "hybridreid.core"
    assert not hasattr(core._private, "__wrapped__")
    assert user.outer(1) == 4
    summary = t.summary()
    assert summary["installed"] == ["core.leaf", "user.outer"]
    assert summary["spans"]["user.outer"]["count"] == 1
    assert [s[3] for s in t.spans] == [-1, 0]

    values, absent = run.layer_metrics([summary])
    assert "encoder.forward_s" in absent and values["encoder.forward_s"] == 0.0
    assert set(absent) == set(run.PER_LAYER)
