"""Gas thermodynamics for the engine flow path.

A one-dimensional engine deck needs a working-fluid model: this one is a
thermally perfect gas with a linear-in-temperature specific heat and a
fuel-air-ratio correction for combustion products.  Enthalpy is the
exact integral of cp, and the enthalpy inversion is closed-form (the cp
model is linear, so h(T) is quadratic).

Units are SI throughout: K, Pa, kg/s, J/kg, W.

The gas path computes in Python floats: a square root here is
``math.sqrt``, correctly rounded like ``np.sqrt``, so every value is
bitwise what the numpy scalar expression gives (docs/PERFORMANCE.md,
"Third pass: a cold point on plain floats", lists where the two differ
on a bad input, and why no station reaches it or where the numpy
outcome is kept).

The component bodies a balance evaluates (``repro.tess.components``:
compressor, turbine, combustor, duct, bleed, splitter, mixer,
afterburner, nozzle) do not call :func:`cp`, :func:`gamma`,
:func:`enthalpy`, :func:`temperature_from_enthalpy` or the
``GasState`` properties: each computes the expressions below in its
own body, with the same float operations in the same order, and builds
its outlet ``GasState`` once.  A change to the gas model here is a
change to those bodies too; ``tests/tess/test_gas_path_floats.py``
holds each body bitwise to the property chain it replaced.
"""

from __future__ import annotations

from math import sqrt
from typing import NamedTuple

__all__ = [
    "R_AIR",
    "cp",
    "gamma",
    "enthalpy",
    "temperature_from_enthalpy",
    "GasState",
    "FUEL_LHV",
]

R_AIR = 287.05  # J/(kg K)
FUEL_LHV = 43.0e6  # J/kg, Jet-A lower heating value

# cp(T) = _CP_A + _CP_B * T for dry air; ~1005 J/(kg K) at 288 K rising
# to ~1155 at 1000 K, matching air tables to a few percent.
_CP_A = 944.0
_CP_B = 0.21
# combustion products run a few percent higher, scaled by the burned
# fuel fraction far/(1+far)
_PRODUCTS_FACTOR = 1.45


def _far_scale(far: float) -> float:
    return 1.0 + _PRODUCTS_FACTOR * far / (1.0 + far)


def cp(T: float, far: float = 0.0) -> float:
    """Specific heat at constant pressure, J/(kg K)."""
    return (_CP_A + _CP_B * T) * _far_scale(far)


def gamma(T: float, far: float = 0.0) -> float:
    """Ratio of specific heats."""
    c = cp(T, far)
    return c / (c - R_AIR)


def enthalpy(T: float, far: float = 0.0) -> float:
    """Specific enthalpy, J/kg, with h(0) = 0."""
    return (_CP_A * T + 0.5 * _CP_B * T * T) * _far_scale(far)


def temperature_from_enthalpy(h: float, far: float = 0.0) -> float:
    """Invert :func:`enthalpy` (closed form: h is quadratic in T)."""
    s = _far_scale(far)
    # 0.5*b*T^2 + a*T - h/s = 0
    a, b = _CP_A, _CP_B
    disc = a * a + 2.0 * b * h / s
    if disc < 0:
        raise ValueError(f"enthalpy {h} out of range")
    return (-a + sqrt(disc)) / b


class _Station(NamedTuple):
    W: float
    Tt: float
    Pt: float
    far: float = 0.0


class GasState(_Station):
    """The flow state at an engine station: what TESS passes between
    modules over the AVS dataflow network ("engine-station" port type).

    ``W``   mass flow, kg/s
    ``Tt``  total temperature, K
    ``Pt``  total pressure, Pa
    ``far`` fuel-air ratio (fuel flow / *air* flow)

    An immutable named tuple: every way to build one (the constructor,
    :meth:`with_`, ``_replace``, ``_make``, unpickling) rejects a
    non-positive ``Tt`` or ``Pt``.
    """

    __slots__ = ()

    def __new__(cls, W: float, Tt: float, Pt: float, far: float = 0.0) -> "GasState":
        self = tuple.__new__(cls, (W, Tt, Pt, far))
        if Tt <= 0 or Pt <= 0:
            raise ValueError(f"non-physical station state {self!r}")
        return self

    @classmethod
    def _make(cls, iterable) -> "GasState":
        return cls(*iterable)

    @property
    def cp(self) -> float:
        return cp(self.Tt, self.far)

    @property
    def gamma(self) -> float:
        return gamma(self.Tt, self.far)

    @property
    def ht(self) -> float:
        """Total specific enthalpy, J/kg."""
        return enthalpy(self.Tt, self.far)

    @property
    def corrected_flow(self) -> float:
        """W * sqrt(theta) / delta with sea-level-static references."""
        theta = self.Tt / 288.15
        delta = self.Pt / 101325.0
        return self.W * sqrt(theta) / delta

    def with_(self, W=None, Tt=None, Pt=None, far=None) -> "GasState":
        """This state with the given fields replaced (and validated
        like any other)."""
        return GasState(
            self.W if W is None else W,
            self.Tt if Tt is None else Tt,
            self.Pt if Pt is None else Pt,
            self.far if far is None else far,
        )
