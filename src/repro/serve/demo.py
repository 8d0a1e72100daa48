"""The ``python -m repro serve`` scenario: a multi-tenant session mix.

:func:`build_session_specs` draws ``n`` sessions from a few workload
*classes* (distinct fuel-flow ladders over the Table-2 all-remote
placement — the "several users asked for nearly the same study" shape
of a real installation); the CLI serves them and prints the report's
records: who ran live, who replayed from the workload cache, virtual
seconds each, and points/sec of wall-clock throughput.
"""

from __future__ import annotations

from typing import List

from .session import SessionSpec

__all__ = ["build_session_specs"]

#: base fuel flows of the demo's workload classes, kg/s
CLASS_BASE_WF = (1.30, 1.38, 1.46, 1.54)


def build_session_specs(
    n: int,
    classes: int = 4,
    points: int = 3,
    transient_every: int = 0,
    op_cache: bool = False,
) -> List[SessionSpec]:
    """``n`` sessions cycling through ``classes`` workload classes.

    Sessions of the same class share a workload key, so with dedup on
    the first of each class runs live and the rest replay.  Class ``c``
    solves ``points`` steady points stepping up from ``CLASS_BASE_WF[c]``;
    with ``transient_every`` > 0 every that-many-th session also runs a
    short transient from its last point.  ``op_cache=True`` opts every
    session into the installation-wide operating-point cache (the
    class ladders overlap, so later sessions land exact/near hits).
    """
    classes = max(1, min(classes, len(CLASS_BASE_WF)))
    specs = []
    for i in range(n):
        c = i % classes
        base = CLASS_BASE_WF[c]
        wf_points = tuple(round(base + 0.04 * j, 6) for j in range(points))
        transient_s = 0.2 if transient_every and (i % transient_every == 0) else 0.0
        specs.append(
            SessionSpec(
                name=f"session-{i:02d}",
                points=wf_points,
                transient_s=transient_s,
                op_cache=op_cache,
            )
        )
    return specs
