"""The installation-wide operating-point solution store (ROADMAP item 4).

At installation scale most requests land on or near operating points the
installation has already solved — many users, one popular engine deck,
a handful of operating lines.  The :class:`OpPointCache` makes that pay:
it is keyed on *(family, fuel flow)*, where a family is one operating
line (engine deck + flight condition + placement/dispatch context,
digested by :mod:`repro.tess.opkey`), and serves three tiers:

* **exact hit** — the requested fuel-flow *bit pattern* is stored with
  ``"cold"`` provenance: the Newton solve is skipped entirely and the
  stored solution is returned.  Exactness is bitwise: cold solves are
  deterministic, so a cache-served answer equals a fresh cold solve of
  the same point float-for-float (the differential oracle in
  tests/serve/test_opcache.py).
* **seed hit** — the exact point is stored but was itself produced by a
  warm-started solve: its ``x`` is handed back as the initial guess, and
  the solver confirms it in a single residual sweep (0 iterations).
* **near hit** — the point is new, but neighbours exist on the family's
  operating line: the nearest bracketing pair is linearly interpolated
  (solution *and* Jacobian) into an ``x0``/``jac0`` that converges in
  ~1 iteration; a single-sided neighbour within ``near_window`` relative
  distance seeds the same way.

Everything else is a **miss** and is solved cold — deliberately *not*
warm-started from the session's own prior point — so that what enters
the store under ``"cold"`` provenance is bitwise-canonical and exact
hits stay skip-safe.  Stored solutions never downgrade: a ``"cold"``
entry is not overwritten by a warm-started result for the same point.

The arrays inside are private copies, never views over wire buffers.

The store also crosses process boundaries, in the one vocabulary the
shard plane has: :meth:`OpPointCache.export` returns plain records for
the frame codec (:mod:`repro.serve.shm`) — arrays as raw little-endian
float64 bytes, so an exact hit stays bitwise-exact after a round-trip,
the point summary as the dict it is, so a ``bool`` stays a ``bool`` —
and :meth:`OpPointCache.preload` checks each record, then imports
through the normal :meth:`~OpPointCache.store` path.  No second byte
format, no version: parent and workers are one build.  The sharded
serve plane pre-seeds every worker's cache from the installation-wide
store at episode open and merges each worker's solved points back at
settle.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..tess.opkey import wf_key

__all__ = ["OpSolution", "WarmStart", "OpPointCache"]


def _f8(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def _store_args(family, wf, x, rows, jacobian, point, provenance) -> tuple:
    """One :meth:`OpPointCache.export` record — its fields are this
    signature — as :meth:`OpPointCache.store` arguments, or a
    ``ValueError``.  Types are checked exactly: an ``int`` fuel flow or
    a ``bool`` row count would come back out of the store as something
    else."""
    if not (
        type(family) is str
        and type(provenance) is str
        and type(wf) is float
        and math.isfinite(wf)  # a nan on the sorted axis breaks its bisect
        and type(x) is bytes
        and len(x) % 8 == 0
        and type(rows) is int
        and (
            rows == 0 if jacobian is None
            else type(jacobian) is bytes and jacobian and rows > 0
            and len(jacobian) % (8 * rows) == 0
        )
        and type(point) is dict
        and set(map(type, point.values())) <= {bool, int, float}
    ):
        raise ValueError("a field has the wrong type or shape")
    jac = None
    if jacobian is not None:
        jac = np.frombuffer(jacobian, dtype="<f8").reshape(rows, -1)
    return family, wf, np.frombuffer(x, dtype="<f8"), jac, point, provenance


@dataclass
class OpSolution:
    """One stored solved operating point: the full solution vector
    ``x = [beta_fan, beta_hpc, bpr, pr_hpt, pr_lpt, n1, n2]``, the final
    Jacobian estimate, the user-facing point summary, and the
    provenance of the solve that produced it."""

    wf: float
    x: np.ndarray
    jacobian: Optional[np.ndarray]
    point: Dict[str, float]
    provenance: str

    @property
    def canonical(self) -> bool:
        """True when the stored solve was cold — the bitwise-exactness
        tier.  Warm-derived entries are tolerance-exact only."""
        return self.provenance == "cold"


@dataclass
class WarmStart:
    """What a lookup hands back: the tier (``"exact"``, ``"seed"``,
    ``"interp"``, or ``"miss"``) plus whatever seed material exists.
    ``solution`` is populated only for exact hits."""

    kind: str
    x0: Optional[np.ndarray] = None
    jac0: Optional[np.ndarray] = None
    solution: Optional[OpSolution] = None

    @property
    def skip_solve(self) -> bool:
        return self.kind == "exact"


@dataclass
class _Family:
    """One operating line: entries keyed by fuel-flow bit pattern plus a
    sorted coordinate axis for neighbour search."""

    entries: Dict[str, OpSolution] = field(default_factory=dict)
    axis: List[float] = field(default_factory=list)


class OpPointCache:
    """Installation-wide (family, operating point) → solution store.

    ``near_window`` bounds single-sided warm starts: a lone neighbour
    further than this relative fuel-flow distance is ignored (a cold
    solve beats extrapolating far off the known line).  Bracketed
    points always interpolate — the operating line is smooth and
    monotone between solved neighbours.
    """

    def __init__(self, near_window: float = 0.15):
        self.near_window = near_window
        self._families: Dict[str, _Family] = {}
        self._cold_upgrades: Set[Tuple[str, str]] = set()
        self.exact_hits = 0
        self.near_hits = 0
        self.misses = 0

    # ------------------------------------------------------------- lookup
    def lookup(self, family: str, wf: float) -> WarmStart:
        """Resolve one operating-point request (see the module doc for
        the tiers) and count it as a hit or a miss."""
        wf = float(wf)
        fam = self._families.get(family)
        if fam is not None:
            entry = fam.entries.get(wf_key(wf))
            if entry is not None:
                if entry.canonical:
                    self.exact_hits += 1
                    return WarmStart(
                        kind="exact",
                        x0=entry.x.copy(),
                        jac0=self._copy(entry.jacobian),
                        solution=entry,
                    )
                self.near_hits += 1
                return WarmStart(
                    kind="seed",
                    x0=entry.x.copy(),
                    jac0=self._copy(entry.jacobian),
                )
            ws = self._near(fam, wf)
            if ws is not None:
                self.near_hits += 1
                return ws
        self.misses += 1
        return WarmStart(kind="miss")

    def _near(self, fam: _Family, wf: float) -> Optional[WarmStart]:
        axis = fam.axis
        if not axis:
            return None
        i = bisect_left(axis, wf)
        lo = axis[i - 1] if i > 0 else None
        hi = axis[i] if i < len(axis) else None
        if lo is not None and hi is not None:
            e_lo = fam.entries[wf_key(lo)]
            e_hi = fam.entries[wf_key(hi)]
            t = (wf - lo) / (hi - lo)
            x0 = (1.0 - t) * e_lo.x + t * e_hi.x
            if e_lo.jacobian is not None and e_hi.jacobian is not None:
                jac0 = (1.0 - t) * e_lo.jacobian + t * e_hi.jacobian
            else:
                jac0 = self._copy((e_hi if t >= 0.5 else e_lo).jacobian)
            return WarmStart(kind="interp", x0=x0, jac0=jac0)
        nearest = lo if hi is None else hi
        scale = max(abs(wf), 1e-9)
        if abs(wf - nearest) / scale <= self.near_window:
            e = fam.entries[wf_key(nearest)]
            return WarmStart(
                kind="interp", x0=e.x.copy(), jac0=self._copy(e.jacobian)
            )
        return None

    # -------------------------------------------------------------- store
    def store(
        self,
        family: str,
        wf: float,
        x: np.ndarray,
        jacobian: Optional[np.ndarray],
        point: Dict[str, float],
        provenance: str,
    ) -> bool:
        """Record a solved point.  First write wins except for the cold
        upgrade (a cold solve may replace a warm-derived entry, never
        the reverse) — so the bitwise tier is monotone.  The arrays are
        copied in; callers may hand views freely.  Returns whether the
        entry was (re)written."""
        wf = float(wf)
        key = wf_key(wf)
        fam = self._families.setdefault(family, _Family())
        old = fam.entries.get(key)
        if old is not None and not (provenance == "cold" and not old.canonical):
            return False
        if old is None:
            insort(fam.axis, wf)
        else:
            # the cold upgrade rewrote an existing (warm-derived)
            # entry — remembered so delta exports that exclude a
            # preload seed still ship the upgraded solution
            self._cold_upgrades.add((family, key))
        fam.entries[key] = OpSolution(
            wf=wf,
            x=np.array(x, dtype=float, copy=True),
            jacobian=self._copy(jacobian),
            point=dict(point),
            provenance=provenance,
        )
        return True

    # ---------------------------------------------------------------- wire
    def key_set(self) -> Set[Tuple[str, str]]:
        """The ``(family, wf_key)`` pairs currently stored — what a
        shard worker remembers at episode open so its settle-time
        :meth:`export` ships only the points *it* solved, not the seed
        it was handed."""
        return {
            (name, key)
            for name, fam in self._families.items()
            for key in fam.entries
        }

    def cold_upgraded(self) -> Set[Tuple[str, str]]:
        """The ``(family, wf_key)`` pairs whose stored entry has been
        *rewritten* by the cold upgrade since this cache was built.  A
        delta export that excludes a preload seed must keep these — the
        seed's warm-derived entry was replaced by this process's
        bitwise-canonical solve, and dropping it from the export would
        leave the merged store's bitwise tier non-monotone."""
        return set(self._cold_upgrades)

    def export(self, exclude: Optional[Set[Tuple[str, str]]] = None) -> List[dict]:
        """Stored solutions as plain records in the shard frame codec's
        vocabulary, one dict per entry: ``x`` and ``jacobian`` as raw
        little-endian float64 bytes (row-major, the row count in
        ``rows``; ``None`` and 0 without a Jacobian) — bit patterns
        preserved, so a ``"cold"`` entry re-imported elsewhere still
        serves bitwise-exact hits — and ``point`` as the dict it is.
        ``exclude`` drops specific ``(family, wf_key)`` pairs (the
        delta-export path).  Deterministic: families sorted by name,
        entries in operating-line order."""
        records: List[dict] = []
        for name in sorted(self._families):
            fam = self._families[name]
            for wf in fam.axis:
                key = wf_key(wf)
                if exclude is not None and (name, key) in exclude:
                    continue
                e = fam.entries[key]
                jac = e.jacobian
                records.append({
                    "family": name,
                    "wf": e.wf,
                    "x": _f8(e.x),
                    "rows": 0 if jac is None else len(jac),
                    "jacobian": None if jac is None else _f8(jac),
                    "point": dict(e.point),
                    "provenance": e.provenance,
                })
        return records

    def preload(self, records) -> int:
        """Import :meth:`export` records through the normal
        :meth:`store` path — provenance preserved, first-write-wins and
        the cold upgrade apply, counters untouched.  The records come
        from another process: each one's field set, types and array
        shapes are checked before anything is stored, and anything
        export does not write refuses the whole import (``ValueError``)
        — silently misreading bit-exact solution data is the one
        failure mode this store cannot afford.  Returns the number of
        entries actually written."""
        if not isinstance(records, list):
            raise ValueError(f"op-cache import is not a list: {records!r:.80}")
        parsed = []
        for rec in records:
            try:
                parsed.append(_store_args(**rec))
            except (TypeError, ValueError) as exc:  # TypeError: other fields
                raise ValueError(
                    f"op-cache import record {len(parsed)}: {exc} ({rec!r:.160})"
                ) from None
        return sum(self.store(*args) for args in parsed)

    # ---------------------------------------------------------------- misc
    @staticmethod
    def _copy(arr: Optional[np.ndarray]) -> Optional[np.ndarray]:
        return None if arr is None else np.array(arr, dtype=float, copy=True)

    def __len__(self) -> int:
        return sum(len(f.entries) for f in self._families.values())

    def stats(self) -> Dict[str, int]:
        return {
            "entries": sum(len(f.entries) for f in self._families.values()),
            "families": len(self._families),
            "exact_hits": self.exact_hits,
            "near_hits": self.near_hits,
            "misses": self.misses,
        }
