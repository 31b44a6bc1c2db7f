"""Prime fields: validation, sampling and enumeration.

Symbols are plain ints in ``[0, modulus)``. The field object carries the
modulus, validates symbols (one that belongs to a different field, or is not
reduced, is rejected instead of silently wrapped), samples uniform vectors
and enumerates every vector of a length. Arithmetic is written mod q where it
is used, in the protocol and the auditor.
"""

import itertools
from dataclasses import dataclass


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# for every n below this bound (Sorenson & Webster, "Strong pseudoprimes to
# twelve prime bases", 2017). No exact test above it is fast enough, so
# PrimeField refuses moduli from the bound up.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Exact for ``n < _MR_EXACT_BELOW``."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field of integers modulo a prime."""

    modulus: int

    def __post_init__(self):
        if not isinstance(self.modulus, int) or isinstance(self.modulus, bool):
            raise ValueError(f"field modulus must be an int, got {self.modulus!r}")
        if self.modulus >= _MR_EXACT_BELOW:
            raise ValueError(f"field modulus must be below {_MR_EXACT_BELOW}, got {self.modulus}")
        if not _is_prime(self.modulus):
            raise ValueError(f"field modulus must be prime, got {self.modulus}")

    def check(self, symbol: int) -> int:
        """Validate that ``symbol`` is a reduced element of this field."""
        if not isinstance(symbol, int) or isinstance(symbol, bool):
            raise ValueError(f"field symbol must be an int, got {symbol!r}")
        if not 0 <= symbol < self.modulus:
            raise ValueError(
                f"symbol {symbol} does not belong to the field of order {self.modulus}"
            )
        return symbol

    def sample_vector(self, rng, length: int) -> tuple[int, ...]:
        """``length`` symbols drawn uniformly, deterministic given the rng's state.

        Each symbol is a ``getrandbits`` draw of the modulus's bit length,
        redrawn while it is not below the modulus. This is how
        ``random.Random.randrange(modulus)`` draws, so the stream is the
        same, without its per-call argument checks.
        """
        if not isinstance(length, int) or isinstance(length, bool) or length < 0:
            raise ValueError(f"length must be an int >= 0, got {length!r}")
        q = self.modulus
        bits = q.bit_length()
        getrandbits = rng.getrandbits
        symbols = []
        for _ in range(length):
            r = getrandbits(bits)
            while r >= q:
                r = getrandbits(bits)
            symbols.append(r)
        return tuple(symbols)

    def iter_vectors(self, length: int):
        """Every length-``length`` vector over the field, lexicographically."""
        return itertools.product(range(self.modulus), repeat=length)
