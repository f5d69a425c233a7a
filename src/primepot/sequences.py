"""Integer sequences and counting functions: sieves, Moebius weights, gaps.

Primes come from the classic Eratosthenes sieve; lucky numbers from the
position-based survivor sieve. The counting estimates bundle the exact
staircase count with its three smooth approximations (x/ln x, the
logarithmic integral from 2, and the Moebius-weighted refinement).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_TERMS",
    "EXACT_COUNT_LIMIT",
    "LUCKY_LIMIT",
    "sieve_primes",
    "first_primes",
    "sieve_lucky",
    "first_lucky",
    "moebius",
    "moebius_table",
    "log_integral",
    "riemann_r",
    "CountingEstimates",
    "counting_estimates",
    "check_growth_bound",
    "validate_sequence",
]

DEFAULT_TERMS = 25  # Moebius terms of the Riemann R and prime density series
EXACT_COUNT_LIMIT = 10**9  # largest x counted exactly: the sieve takes one byte per integer
EULER_GAMMA = 0.5772156649015329  # the Euler-Mascheroni constant
LI_2 = 1.045163780117493  # li(2), the principal value from 0
LUCKY_LIMIT = 4 * 10**6  # largest lucky sieve: its cost is superlinear, 8.5 s at this limit on 2 vCPUs


def validate_sequence(values) -> np.ndarray:
    """Check strictly increasing positive integers; return as int64 array."""
    seq = np.asarray(values, dtype=np.int64)
    if seq.ndim != 1:
        raise ValueError("sequence must be one-dimensional")
    if seq.size and seq.min() < 1:
        raise ValueError("sequence values must be >= 1")
    if seq.size >= 2 and not np.all(np.diff(seq) > 0):
        raise ValueError("sequence must be strictly increasing")
    return seq


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit, ascending. limit < 2 gives an empty array."""
    if limit < 0:
        raise ValueError("limit must be non-negative")
    if limit > EXACT_COUNT_LIMIT:
        raise ValueError(f"limit={limit} exceeds {EXACT_COUNT_LIMIT:.0e}, the largest prime sieve")
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.nonzero(is_prime)[0].astype(np.int64)


def _first(n: int, sieve, limit: int) -> np.ndarray:
    """The first n values of `sieve`, doubling `limit` until it holds n of them."""
    if n < 0:
        raise ValueError("n must be non-negative")
    values = sieve(limit)
    while values.size < n:
        limit *= 2
        values = sieve(limit)
    return values[:n]


def first_primes(n: int) -> np.ndarray:
    """The first n primes."""
    # p_n < n(ln n + ln ln n) for n >= 6; pad and retry on the rare miss
    return _first(n, sieve_primes, 15 if n < 6 else int(n * (math.log(n) + math.log(math.log(n))) + 10))


def sieve_lucky(limit: int) -> np.ndarray:
    """All lucky numbers <= limit via the survivor-position sieve.

    Stage one removes every second integer; each later stage takes the next
    surviving value s and removes every s-th element of the current list,
    counting positions in the list rather than values.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if limit > LUCKY_LIMIT:
        raise ValueError(f"limit={limit} exceeds {LUCKY_LIMIT:.0e}, the largest lucky sieve")
    survivors = np.arange(1, limit + 1, 2, dtype=np.int64)
    stage = 1
    while stage < survivors.size:
        step = int(survivors[stage])
        if step > survivors.size:
            break
        survivors = np.delete(survivors, np.s_[step - 1 :: step])
        stage += 1
    return survivors


def first_lucky(n: int) -> np.ndarray:
    """The first n lucky numbers."""
    return _first(n, sieve_lucky, max(10, 4 * n))


def moebius(n: int) -> int:
    """Moebius function: 1 at n=1, 0 on squareful n, else (-1)^#prime factors."""
    if n < 1:
        raise ValueError("moebius is defined for n >= 1")
    if n == 1:
        return 1
    k = 0
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            k += 1
        d += 1 if d == 2 else 2
    if n > 1:
        k += 1
    return -1 if k % 2 else 1


@functools.lru_cache(maxsize=8)
def moebius_table(terms: int) -> tuple[tuple[int, int], ...]:
    """The (m, moebius(m)) pairs with moebius(m) != 0 for m = 1..terms, in
    order: the weights of the Riemann R and prime density series. Cached, so
    a series call factors no integer; a tuple, so no caller can edit it."""
    if terms < 1:
        raise ValueError("terms must be >= 1")
    return tuple((m, mu) for m in range(1, terms + 1) if (mu := moebius(m)))


def log_integral(x: float) -> float:
    """li(x) - li(2), the integral of dt/ln t from 2 to x; 0 for x <= 2.

    Ramanujan's series, li(x) = gamma + ln ln x + sqrt(x) sum_{n >= 1}
    (-1)^(n-1) (ln x)^n / (n! 2^(n-1)) sum_{k <= (n-1)/2} 1/(2k+1): its terms
    peak near n = ln x / 2, then fall factorially until one no longer
    changes the sum.
    """
    if not math.isfinite(x):
        raise ValueError(f"x={x!r} must be finite")
    if x <= 2.0:
        return 0.0
    lx = math.log(x)
    total, inner, term, n = 0.0, 1.0, lx, 1  # term = (-1)^(n-1) (ln x)^n / (n! 2^(n-1))
    while total + term * inner != total or n <= lx:
        total += term * inner
        n += 1
        term *= -lx / (2.0 * n)
        inner += n % 2 / n
    return EULER_GAMMA + math.log(lx) + math.sqrt(x) * total - LI_2


def riemann_r(x: float, terms: int = DEFAULT_TERMS) -> float:
    """Moebius-weighted series of logarithmic integrals truncated at `terms`.

    Terms with x**(1/n) < 2 contribute nothing (li vanishes there) and stop
    the summation early.
    """
    if not (math.isfinite(x) and x > 2.0):
        raise ValueError(f"x={x!r} must be finite and exceed 2")
    total = 0.0
    for n, mu in moebius_table(terms):
        root = x ** (1.0 / n)
        if root < 2.0:
            break
        total += mu / n * log_integral(root)
    return total


@dataclass(frozen=True)
class CountingEstimates:
    """Exact prime count at x alongside its smooth approximations."""

    x: float
    exact: int
    gauss: float
    li: float
    riemann_r: float

    def as_dict(self) -> dict:
        return {
            "x": self.x,
            "exact": self.exact,
            "gauss": self.gauss,
            "li": self.li,
            "riemann_r": self.riemann_r,
        }


def counting_estimates(x: float, terms: int = DEFAULT_TERMS) -> CountingEstimates:
    """Exact sieve count of primes <= x (x <= EXACT_COUNT_LIMIT) plus the three smooth estimates."""
    refined = riemann_r(x, terms)  # first: it rejects a bad x or terms
    if x > EXACT_COUNT_LIMIT:
        raise ValueError(f"x={x!r} exceeds {EXACT_COUNT_LIMIT:.0e}, the largest x whose primes are counted exactly")
    return CountingEstimates(
        x=float(x),
        exact=int(sieve_primes(int(math.floor(x))).size),
        gauss=x / math.log(x),
        li=log_integral(x),
        riemann_r=refined,
    )


def check_growth_bound(seq, bound: float) -> bool:
    """True iff every element satisfies e_n <= bound * n**2, n counted from 1."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    values = validate_sequence(seq)
    if values.size == 0:
        return True
    n = np.arange(1, values.size + 1, dtype=np.float64)
    return bool(np.all(values <= bound * n * n))
