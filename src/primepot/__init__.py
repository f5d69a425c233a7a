"""primepot: 1D quantum potentials with prescribed integer spectra.

Build a potential whose bound states are the first N primes (or lucky
numbers, or any admissible finite sequence), verify it with an independent
eigensolver, simulate its phase-only holographic synthesis, and run the
transmission-resonance filter for numbers that are both lucky and prime.
"""

from ._kernels import backend_name
from .grid import Grid, PotentialGrid, default_grid
from .susy import KINETIC_HALF, design_potential, gaps_from_spectrum
from .eigensolver import bound_states, compare_spectrum
from .sequences import first_lucky, first_primes, sieve_lucky, sieve_primes

__version__ = "0.1.0"

__all__ = [
    "backend_name",
    "Grid",
    "PotentialGrid",
    "default_grid",
    "KINETIC_HALF",
    "design_potential",
    "gaps_from_spectrum",
    "bound_states",
    "compare_spectrum",
    "first_primes",
    "first_lucky",
    "sieve_primes",
    "sieve_lucky",
]
