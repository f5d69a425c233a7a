"""Conversion between dimensionless spectra and physical energy scales.

One dimensionless energy unit corresponds to (hbar^2/m) (l/L)^2 joules for a
potential of dimensionless length l realized with physical length L, under
the kinetic term -(1/2) d^2/dx^2 (c = 1/sqrt(2)) every command uses. Reports
carry all three customary forms: joules, h * Hz, and k_B * K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["CONSTANTS", "ATOM_MASS_KG", "PhysicalContext", "EnergyScale", "energy_scale"]

# literals, not scipy.constants, which adds about 0.14 s to every start-up;
# tests/test_units.py pins them to scipy's values
h = 6.62607015e-34  # J s, exact in the 2019 SI
hbar = h / (2.0 * math.pi)
k_B = 1.380649e-23  # J/K, exact in the 2019 SI
_ATOMIC_MASS_KG = 1.66053906892e-27  # CODATA 2022

CONSTANTS = {
    "hbar_J_s": hbar,
    "h_J_s": h,
    "k_B_J_per_K": k_B,
    "atomic_mass_kg": _ATOMIC_MASS_KG,
}

# isotope masses in atomic mass units
_ATOM_MASS_U = {
    "li7": 7.0160034366,
    "na23": 22.9897692820,
    "k39": 38.9637064864,
    "rb87": 86.9091805310,
    "cs133": 132.9054519610,
}

ATOM_MASS_KG = {name: u * _ATOMIC_MASS_KG for name, u in _ATOM_MASS_U.items()}


@dataclass(frozen=True)
class PhysicalContext:
    """Atom mass and the dimensionless/physical lengths of one realization."""

    mass: float
    l: float
    L: float

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.mass, self.l, self.L)):
            raise ValueError(
                f"mass and lengths must be positive and finite: mass={self.mass!r}, l={self.l!r}, L={self.L!r}"
            )

    @classmethod
    def for_atom(cls, atom: str, l: float, L: float) -> "PhysicalContext":
        key = atom.lower()
        if key not in ATOM_MASS_KG:
            raise ValueError(f"unknown atom {atom!r}; known: {sorted(ATOM_MASS_KG)}")
        return cls(mass=ATOM_MASS_KG[key], l=l, L=L)


@dataclass(frozen=True)
class EnergyScale:
    """Energy per dimensionless unit, in the three reporting forms."""

    joule: float

    @property
    def h_hz(self) -> float:
        return self.joule / h

    @property
    def kb_kelvin(self) -> float:
        return self.joule / k_B

    def as_dict(self) -> dict:
        return {"scale_J": self.joule, "scale_hHz": self.h_hz, "scale_kBK": self.kb_kelvin}


def energy_scale(ctx: PhysicalContext) -> EnergyScale:
    """hbar^2/m times the squared length ratio."""
    return EnergyScale(joule=hbar**2 / ctx.mass * (ctx.l / ctx.L) ** 2)
