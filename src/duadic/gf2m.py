"""Arithmetic in GF(2^m) via log/antilog tables.

Field elements are plain Python ints: the bits of an element are its
coordinates in the polynomial basis (bit i = coefficient of alpha^i).
Addition is xor. The zero element is 0 and has no discrete log.
"""

from functools import lru_cache

from ._numpy import np

M_MIN = 2
M_MAX = 20


def _prime_factors(n):
    """Distinct prime factors of n by trial division (n < 2^20 here)."""
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


def _mulmod(a, b, modulus, m):
    """Carry-less multiply of a and b reduced by the degree-m modulus."""
    r = 0
    while a:
        if a & 1:
            r ^= b
        a >>= 1
        b <<= 1
        if (b >> m) & 1:
            b ^= modulus
    return r


def _x_order_is_full(modulus, m):
    n = (1 << m) - 1

    def powx(e):
        r, base = 1, 2
        while e:
            if e & 1:
                r = _mulmod(r, base, modulus, m)
            base = _mulmod(base, base, modulus, m)
            e >>= 1
        return r

    # x is primitive iff x^n = 1 and x^(n/p) != 1 for every prime p | n
    if powx(n) != 1:
        return False
    return all(powx(n // p) != 1 for p in _prime_factors(n))


def smallest_primitive_modulus(m):
    """Lexicographically smallest primitive polynomial of degree m, as a bitmask."""
    if not M_MIN <= m <= M_MAX:
        raise ValueError(f"extension degree m={m} outside supported range {M_MIN}..{M_MAX}")
    # monic degree m with nonzero constant term; scan in numeric (= lex) order
    for mask in range((1 << m) + 1, 1 << (m + 1), 2):
        if _x_order_is_full(mask, m):
            return mask
    raise AssertionError(f"no primitive polynomial of degree {m}")  # unreachable


class GF2m:
    """The field GF(2^m), 2 <= m <= 20, with alpha = x primitive.

    Tables: antilog[e] = alpha^e for e in Z_n, log[a] = e with alpha^e = a
    for nonzero a (n = 2^m - 1). Immutable after construction; safe for
    concurrent reads.
    """

    __slots__ = ("m", "n", "modulus", "_antilog", "_log")

    def __init__(self, m):
        self.modulus = smallest_primitive_modulus(m)
        self.m = m
        self.n = (1 << m) - 1
        antilog = [0] * self.n
        x = 1
        top = 1 << m
        for e in range(self.n):
            antilog[e] = x
            x <<= 1
            if x & top:
                x ^= self.modulus
        self._antilog = np.array(antilog, dtype=np.uint32)
        log = np.full(1 << m, -1, dtype=np.int32)
        log[self._antilog] = np.arange(self.n, dtype=np.int32)
        self._antilog.flags.writeable = False
        log.flags.writeable = False
        self._log = log

    @property
    def alpha(self):
        return int(self._antilog[1])

    @staticmethod
    def add(a, b):
        return a ^ b

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return int(self._antilog[(int(self._log[a]) + int(self._log[b])) % self.n])

    def pow_alpha(self, e):
        """alpha^e for any integer e (reduced mod n)."""
        return int(self._antilog[e % self.n])

    def log(self, a):
        """Discrete log base alpha; a must be a nonzero field element."""
        if not 0 < a < (1 << self.m):
            raise ValueError(f"log domain error: {a} is zero or not an element of GF(2^{self.m})")
        return int(self._log[a])

    def inv(self, a):
        return int(self._antilog[(self.n - self.log(a)) % self.n])

    # raw table views for vectorized callers (read-only arrays)
    @property
    def antilog_table(self):
        return self._antilog

    @property
    def log_table(self):
        return self._log

    def __repr__(self):
        return f"GF2m(m={self.m}, modulus={self.modulus:#x})"


@lru_cache(maxsize=None)
def field(m):
    """Shared per-degree field instance (construction is the expensive part)."""
    return GF2m(m)
