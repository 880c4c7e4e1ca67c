"""The declared-state codec (:mod:`repro.state`).

The per-class round trips live next to each component's tests (the
hypothesis properties in ``tests/test_serving_stream.py``); this file
pins the mechanism itself: the key rule, inheritance order, and the
bound and mismatch errors every declaration gets for free.
"""

from __future__ import annotations

import json
from collections import deque

import numpy as np
import pytest

from repro.state import (
    COMPONENTS,
    FLOAT,
    INT,
    NESTED,
    RNG,
    Stateful,
    optional,
    window,
)


class Leaf(Stateful):
    _persisted = {"_count": INT, "label": optional(FLOAT)}

    def __init__(self):
        self._count = 0
        self.label = None


class Holder(Stateful):
    _persisted = {
        "_recent": window(FLOAT, "window", maxlen=True),
        "leaf": NESTED,
        "leaves": COMPONENTS,
        "_rng": RNG,
    }

    def __init__(self, window=3, leaf=True, n_leaves=2):
        self.window = window
        self._recent = deque(maxlen=window)
        self.leaf = Leaf() if leaf else None
        self.leaves = [Leaf() for _ in range(n_leaves)]
        self._rng = np.random.default_rng(7)


def _json(state):
    return json.loads(json.dumps(state))


def test_keys_drop_one_leading_underscore_in_declaration_order():
    leaf = Leaf()
    leaf._count, leaf.label = 4, 2.5
    assert list(leaf.state_dict().items()) == [("count", 4), ("label", 2.5)]


def test_two_fields_on_one_key_rejected_at_class_definition():
    with pytest.raises(TypeError, match="collide"):
        class Clash(Stateful):  # noqa: F841 - the definition is the test
            _persisted = {"_n": INT, "n": INT}

    with pytest.raises(TypeError, match="collide"):
        class InheritedClash(Leaf):  # noqa: F841
            _persisted = {"count": INT}


def test_subclass_extends_parent_fields_after_them():
    class Child(Leaf):
        _persisted = {"_extra": FLOAT}

        def __init__(self):
            super().__init__()
            self._extra = 1.5

    assert list(Child().state_dict()) == ["count", "label", "extra"]
    assert list(Leaf().state_dict()) == ["count", "label"]


def test_roundtrip_restores_windows_components_and_rng_in_place():
    a = Holder()
    a._recent.extend([1.0, 2.0, 3.0, 4.0])
    a.leaf._count = 9
    a.leaves[1].label = 0.25
    a._rng.random(5)
    b = Holder()
    leaf, rng = b.leaf, b._rng
    b.load_state_dict(_json(a.state_dict()))
    assert b.state_dict() == a.state_dict()
    assert b.leaf is leaf and b._rng is rng  # restored in place
    assert b._recent.maxlen == 3
    assert b._rng.random() == a._rng.random()


def test_window_bound_is_checked_before_any_field_is_assigned():
    state = Holder().state_dict()
    state["recent"] = [0.0] * 4
    b = Holder()
    b._recent.append(5.0)
    with pytest.raises(ValueError, match="4 saved recent exceed window 3"):
        b.load_state_dict(state)
    assert list(b._recent) == [5.0]


def test_component_mismatches_are_value_errors():
    with pytest.raises(ValueError, match="leaf state does not match"):
        Holder(leaf=False).load_state_dict(Holder().state_dict())
    with pytest.raises(ValueError, match="leaf state does not match"):
        Holder().load_state_dict(Holder(leaf=False).state_dict())
    with pytest.raises(ValueError, match="saved leaves 3 do not match configured leaves 2"):
        Holder(n_leaves=2).load_state_dict(Holder(n_leaves=3).state_dict())
