"""tools/workcount.py credits each call under the training loop to the
outermost layer it runs under, and every layer it names exists."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import workcount  # noqa: E402


def _leaf(x):
    return len(x)


def _layer(x):
    return _leaf(x) + _leaf(x)


def _gate(x):
    _layer(x)
    _leaf(x)
    return 0


def test_calls_under_the_gate_are_credited_to_the_outermost_layer():
    counter = workcount.Counter(_gate.__code__, {_layer.__code__: "layer", _leaf.__code__: "leaf"})
    sys.setprofile(counter)
    try:
        _leaf([1])      # outside the gate: not counted
        _gate([1])
    finally:
        sys.setprofile(None)
    assert counter.entries == {"layer": 1, "leaf": 1}
    # _layer and its two _leaf calls, each calling len
    assert counter.counts["layer"] == {"call": 3, "c_call": 2}
    assert counter.counts["leaf"] == {"call": 1, "c_call": 1}
    assert counter.counts["other"] == {"call": 0, "c_call": 0}


def test_every_counted_layer_exists():
    for name in (workcount.GATE, *workcount.LAYERS):
        assert workcount.resolve(name).co_name == name.rsplit(".", 1)[-1]
