"""Declared resumable state: one JSON codec behind every ``state_dict``.

A class lists its resumable attributes once, in ``_persisted``
(attribute -> :class:`Field`, in key order).  An attribute's key is its
name minus one leading ``_``.  ``load_state_dict`` decodes every field
before it assigns any; nested components restore in place, so methods
bound to them stay valid.  Field groups that are not a whole object use
:func:`declare`, :func:`dump` and :func:`load`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict
from operator import attrgetter

__all__ = [
    "Field", "Stateful", "declare", "dump", "load", "scalar", "optional",
    "choice", "seq", "window", "record", "INT", "FLOAT", "BOOL", "STR",
    "LIST", "COUNTS", "FIXED", "NESTED", "COMPONENTS", "RNG",
]


class Field:
    """Codec of one attribute: ``encode(value)`` gives its JSON form and
    ``decode(data, current, owner, key)`` the restored value, where
    ``current`` is the value it replaces and ``key`` its saved name."""

    def __init__(self, encode, decode):
        self.encode, self.decode = encode, decode


def _same(value):
    return value


def scalar(cast) -> Field:
    """A value saved as it is and cast with ``cast`` on load."""
    return Field(_same, lambda data, *_: cast(data))


def optional(inner: Field) -> Field:
    """``None`` or a value of ``inner``."""
    return Field(
        lambda v: None if v is None else inner.encode(v),
        lambda data, *ctx: None if data is None else inner.decode(data, *ctx),
    )


def choice(*allowed: str) -> Field:
    """A string from a closed set."""
    def decode(data, current, owner, key):
        if data not in allowed:
            raise ValueError(f"unknown {type(owner).__name__} {key} {data!r}")
        return str(data)
    return Field(_same, decode)


def seq(item: Field | None = None, cast=list) -> Field:
    """A list (or, with ``cast=tuple``, a tuple) of ``item`` values, or of
    values kept as they are when ``item`` is ``None``."""
    if item is None:
        return Field(list, lambda data, *_: cast(data))
    encode, decode = item.encode, item.decode
    return Field(
        list if encode is _same else lambda v: list(map(encode, v)),
        lambda data, current, owner, key: cast(
            [decode(x, None, owner, key) for x in data]
        ),
    )


def window(item: Field, bound: str, maxlen: bool = False) -> Field:
    """A deque of at most ``bound`` items, ``bound`` an owner attribute
    path; ``maxlen`` restores it as ``deque(maxlen=bound)``."""
    items = seq(item)

    def decode(data, current, owner, key):
        limit = attrgetter(bound)(owner)
        if len(data) > limit:
            name = bound.rpartition(".")[2]
            raise ValueError(f"{len(data)} saved {key} exceed {name} {limit}")
        values = items.decode(data, current, owner, key)
        return deque(values, maxlen=limit if maxlen else None)
    return Field(items.encode, decode)


def record(cls) -> Field:
    """A dataclass record, saved as a dict and rebuilt by keyword."""
    return Field(asdict, lambda data, *_: cls(**data))


def _check_fixed(data, current, owner, key):
    if data != current:
        raise ValueError(f"saved {key} {data!r} does not match {current!r}")
    return current


def _load_nested(data, current, owner, key):
    if (data is not None) != hasattr(current, "load_state_dict"):
        raise ValueError(f"saved {key} state does not match configuration")
    if data is not None:
        current.load_state_dict(data)
    return current


def _load_components(data, current, owner, key):
    keyed = isinstance(current, dict)
    if (set(data) != set(current)) if keyed else len(data) != len(current):
        raise ValueError(
            f"saved {key} {sorted(data) if keyed else len(data)} do not match "
            f"configured {key} {sorted(current) if keyed else len(current)}"
        )
    for name, saved in data.items() if keyed else enumerate(data):
        current[name].load_state_dict(saved)
    return current


def _set_rng(data, current, *_):
    current.bit_generator.state = data
    return current


INT, FLOAT, BOOL, STR = map(scalar, (int, float, bool, str))
LIST = seq()
COUNTS = Field(dict, lambda data, *_: {str(k): int(v) for k, v in data.items()})
#: A configuration echo the saved state must match (never assigned anew).
FIXED = Field(_same, _check_fixed)
#: A component with its own ``state_dict``, saved as ``null`` when it is
#: ``None`` or has none; saved and configured state must agree.
NESTED = Field(
    lambda v: v.state_dict() if hasattr(v, "state_dict") else None, _load_nested
)
#: A list (matched by position) or dict (by name) of components.
COMPONENTS = Field(
    lambda v: {n: c.state_dict() for n, c in v.items()} if isinstance(v, dict)
    else [c.state_dict() for c in v],
    _load_components,
)
#: A ``numpy.random.Generator``, restored in place.
RNG = Field(lambda g: g.bit_generator.state, _set_rng)


def declare(persisted: dict) -> tuple:
    """``(attribute, key, field)`` triples; two attributes on one key raise."""
    fields = tuple((a, a[1:] if a[:1] == "_" else a, f) for a, f in persisted.items())
    keys = [key for _, key, _ in fields]
    clashes = sorted({key for key in keys if keys.count(key) > 1})
    if clashes:
        raise TypeError(f"persisted attributes collide on keys {clashes}")
    return fields


def dump(obj, fields) -> dict:
    """``obj``'s declared fields as a JSON-ready dict."""
    return {key: f.encode(getattr(obj, attr)) for attr, key, f in fields}


def load(obj, fields, state: dict) -> None:
    """Decode every declared field from ``state``, then assign them all."""
    values = [
        (attr, f.decode(state[key], getattr(obj, attr), obj, key))
        for attr, key, f in fields
    ]
    for attr, value in values:
        setattr(obj, attr, value)


class Stateful:
    """Mixin: ``state_dict``/``load_state_dict`` from ``_persisted``."""

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("_persisted")
        if own is not None:
            cls._fields = declare({**{a: f for a, _, f in cls._fields}, **own})

    def state_dict(self) -> dict:
        """JSON-serializable resumable state (configuration not included)."""
        return dump(self, self._fields)

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output onto a same-config instance."""
        load(self, self._fields, state)
