"""Stable operating-point keying for cross-session solution sharing.

An installation that serves many users of the same simulated engine
(ROADMAP item 4) wants to recognise "this exact deck at this exact
operating point has been solved before" — across sessions, serve calls,
and (eventually) shards.  That requires keys that are *stable*: two
processes building the same :class:`~repro.tess.engine.EngineSpec` and
asking for the same fuel flow must derive byte-identical keys, with no
dependence on float repr rounding, dict ordering, or object identity.

The scheme:

* every float is keyed by ``float.hex()`` — the exact bit pattern, so
  1.30 and 1.3000000000000001 are different operating points (they
  produce different solves) while re-parsed literals collide correctly;
* composite values (dataclasses, mappings) are serialised as
  sort-keyed JSON over those hex strings and digested with SHA-256;
* the fuel-flow axis is kept *out* of the family key: a family is one
  operating line (deck + flight condition + configuration context), and
  ``wf`` is the coordinate along it that exact-match lookups and
  nearest-neighbour interpolation index on.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from functools import lru_cache, wraps
from typing import Any, Callable

__all__ = [
    "stable_value", "context_key", "deck_key", "flight_key", "wf_key",
    "combine_keys", "spec_memo", "value_memo",
]


def stable_value(value: Any) -> Any:
    """A JSON-able, bit-stable view of ``value``: floats become their
    ``hex()`` form, dataclasses become sorted field dicts, mappings and
    sequences recurse.  Raises ``TypeError`` for types with no stable
    serialisation (better loud than a silently colliding key)."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return float(value).hex()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: stable_value(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): stable_value(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [stable_value(v) for v in value]
    raise TypeError(f"no stable key form for {type(value).__name__!r}")


def _digest(payload: Any) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def context_key(**values: Any) -> str:
    """Digest of arbitrary keyword context (placement maps, dispatch
    modes, schedule settings) — the configuration half of a family."""
    return _digest(stable_value(values))


def _typed_memo(fn: Callable[..., Any], types_of: Callable[..., tuple]) -> Callable[..., Any]:
    """``fn`` of hashable values, keeping the 64 most recently used
    entries, keyed by the values *and* ``types_of(*values)``: ``==``
    alone would let a deck written with ``2`` take the entry of one
    written with ``2.0``, and those two digest differently.
    ``cache_clear``/``cache_info`` are the ``lru_cache`` ones."""

    @lru_cache(maxsize=64)
    def cached(values: tuple, _types: tuple) -> Any:
        return fn(*values)

    @wraps(fn)
    def memoised(*values: Any) -> Any:
        return cached(values, types_of(*values))

    memoised.cache_clear = cached.cache_clear
    memoised.cache_info = cached.cache_info
    return memoised


def spec_memo(fn: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """Memoise a pure function of one frozen, ``vars()``-able dataclass
    instance, keyed by the instance and its field types."""
    return _typed_memo(fn, lambda spec: tuple(map(type, vars(spec).values())))


def value_memo(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Memoise a pure function of hashable positional values, keyed by
    them and their types (not by the types inside a tuple argument)."""
    return _typed_memo(fn, lambda *values: tuple(map(type, values)))


@spec_memo
def deck_key(spec: Any) -> str:
    """Digest of an engine deck: every design field of the (frozen)
    :class:`~repro.tess.engine.EngineSpec`, bit-stable.  Computed once
    per deck."""
    return _digest(stable_value(spec))


def flight_key(flight: Any) -> str:
    """Digest of a :class:`~repro.tess.atmosphere.FlightCondition`."""
    return _digest(stable_value(flight))


def wf_key(wf: float) -> str:
    """The exact-match key along the operating line: the fuel flow's
    bit pattern.  Two requests share a point iff their ``wf`` bits
    agree — anything else is a *near* hit at best."""
    return float(wf).hex()


def combine_keys(*parts: str) -> str:
    """Fold component keys (deck, flight, context) into one family key."""
    return hashlib.sha256("\x1f".join(parts).encode()).hexdigest()
