"""Procedures and executables: the units Schooner distributes.

A :class:`Procedure` packages an implementation with its UTS export
signature, source language, cost model, and statefulness.  An
:class:`Executable` is the "file on the remote machine" — a bundle of
procedures plus their export specification, installed at a path that the
user types into the AVS pathname widget.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple, Union

from ..machines.arch import Architecture
from ..machines.fortran import Language, compiled_name, name_synonyms
from ..uts.spec import SpecFile
from ..uts.types import Signature, UTSType
from ..uts.values import conformer_for
from .errors import SchoonerError

__all__ = ["Procedure", "Executable", "STATE_ARG", "TIMELINE_ARG"]

# Implementations that want per-instance state declare a parameter with
# this name; the runtime passes the instance's state dict.
STATE_ARG = "_state"
# Implementations that perform their own time-costed work (e.g. an
# encapsulated PVM cluster, Figure 1) declare this parameter to receive
# the calling line's timeline and charge it directly.
TIMELINE_ARG = "_timeline"

FlopsModel = Union[float, Callable[[Dict[str, Any]], float]]


def _param_names(impl: Callable[..., Any]) -> frozenset:
    """The implementation's parameter names, cached per function object —
    ``inspect.signature`` is far too slow to re-run on every call."""
    try:
        return _PARAM_CACHE[impl]
    except (KeyError, TypeError):
        pass
    try:
        names = frozenset(inspect.signature(impl).parameters)
    except (TypeError, ValueError):  # builtins etc.
        names = frozenset()
    try:
        _PARAM_CACHE[impl] = names
    except TypeError:  # unhashable callable
        pass
    return names


_PARAM_CACHE: Dict[Callable[..., Any], frozenset] = {}


@dataclass(frozen=True)
class Procedure:
    """One remotely callable procedure.

    ``impl`` receives the sent (val/var) parameters as keyword arguments
    and returns the result (res/var) parameters — as a dict keyed by
    parameter name, as a tuple in signature order, or as a bare value
    when there is exactly one result parameter.

    ``flops`` models the computational cost of one call, either as a
    constant or as a function of the (conformed) sent arguments; the
    hosting machine converts it to virtual seconds.

    ``stateless`` procedures can migrate freely (paper §4.2: "this kind
    of procedure migration is currently feasible only if the procedure
    is stateless").  Stateful procedures need ``state_spec`` — the
    "planned addition ... to describe a list of state variables whose
    values are to be transferred when the procedure is moved".
    """

    name: str
    signature: Signature
    impl: Callable[..., Any]
    language: Language = Language.FORTRAN
    flops: FlopsModel = 1.0e4
    stateless: bool = True
    state_spec: Optional[Dict[str, UTSType]] = None
    # a stateful procedure may still declare that re-executing a call is
    # harmless (it only reads its state, or writes values derived solely
    # from its arguments); the retry machinery may then re-issue a call
    # whose *reply* was lost.  None = infer from ``stateless``.
    idempotent: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.name != self.signature.name:
            raise SchoonerError(
                f"procedure name {self.name!r} does not match its "
                f"signature name {self.signature.name!r}"
            )
        # derived once: every bind of every line asks for them
        object.__setattr__(self, "_synonyms", name_synonyms(self.name, self.language))

    @property
    def retry_ok(self) -> bool:
        """May a call be re-executed when the caller cannot tell whether
        the first execution happened (lost reply)?"""
        if self.idempotent is not None:
            return self.idempotent
        return self.stateless

    @property
    def wants_state(self) -> bool:
        """True when the implementation declares a ``_state`` parameter."""
        return self._has_param(STATE_ARG)

    @property
    def wants_timeline(self) -> bool:
        """True when the implementation declares a ``_timeline`` parameter."""
        return self._has_param(TIMELINE_ARG)

    def _has_param(self, name: str) -> bool:
        return name in _param_names(self.impl)

    def cost_flops(self, args: Dict[str, Any]) -> float:
        if callable(self.flops):
            return float(self.flops(args))
        return float(self.flops)

    def synonyms(self) -> frozenset:
        """All names the Manager stores for this procedure (§4.1)."""
        return self._synonyms


@dataclass
class Executable:
    """A bundle of procedures as installed on a machine.

    The same Executable object can be installed on several machines —
    the simulated analogue of compiling the same sources for each
    architecture.  :meth:`compiled_symbols` applies the target
    compiler's Fortran case rules, which is what creates the section-4.1
    name-case problem in the first place.
    """

    name: str
    procedures: Tuple[Procedure, ...] = field(default_factory=tuple)
    #: the take plan of the declared state, built once: ``(var, type,
    #: conformer)`` for every ``state_spec`` variable, sorted by name
    state_plan: Tuple[Tuple[str, UTSType, Callable[[Any], Any]], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.procedures = tuple(self.procedures)
        seen = set()
        types: Dict[str, UTSType] = {}
        for p in self.procedures:
            if p.name.lower() in seen and p.language is Language.FORTRAN:
                raise SchoonerError(
                    f"executable {self.name!r}: Fortran procedures "
                    f"{p.name!r} collide case-insensitively"
                )
            seen.add(p.name.lower())
            types.update(p.state_spec or ())
        self.state_plan = tuple(
            (var, t, conformer_for(t)) for var, t in sorted(types.items())
        )

    def procedure_named(self, name: str) -> Procedure:
        for p in self.procedures:
            if name in p.synonyms() or p.name == name:
                return p
        raise SchoonerError(f"executable {self.name!r} has no procedure {name!r}")

    @property
    def export_spec(self) -> SpecFile:
        """The UTS export specification file co-located with the code."""
        from ..uts.parser import Declaration

        return SpecFile(
            tuple(Declaration("export", p.signature) for p in self.procedures)
        )

    def compiled_symbols(self, arch: Architecture) -> Dict[str, Procedure]:
        """Symbol table after compiling on ``arch``: Fortran names take
        the compiler's case, C names are preserved."""
        return {
            compiled_name(p.name, p.language, arch.fortran_case): p
            for p in self.procedures
        }
