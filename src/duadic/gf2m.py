"""The field GF(2^m) as its antilog table.

Field elements are plain Python ints: the bits of an element are its
coordinates in the polynomial basis (bit i = coefficient of alpha^i).
Addition is xor. The zero element is 0 and is no power of alpha.
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


def _times_constant(c, v, modulus, m, out):
    """Write c * v into out, for a field element c and uint32 arrays v and
    out of field elements.

    Multiplying by c is GF(2)-linear, so the product is the xor, over the
    bytes of v, of a lookup in a 256-entry table per byte, built from the
    images c * alpha^i of the basis elements alpha^i. Each byte of v is
    taken out as a uint8 index.
    """
    out.fill(0)
    for low in range(0, m, 8):
        table = np.zeros(256, dtype=np.uint32)
        for k in range(min(8, m - low)):
            table[1 << k : 2 << k] = table[: 1 << k] ^ _mulmod(c, 1 << (low + k), modulus, m)
        out ^= table[(v >> low).astype(np.uint8)]


class GF2m:
    """The field GF(2^m), 2 <= m <= 20, with alpha = x primitive, as its tables.

    antilog_table[e] = alpha^e for e in Z_n (n = 2^m - 1), a read-only
    numpy array, so an instance is safe for concurrent reads. No command
    takes a discrete log, so no log table is kept.

    The antilog table starts from a[0] = 1, and the filled prefix a[0:B]
    doubles: a[B:2B] = alpha^B * a[0:B], written by `_times_constant`
    straight into the table, ceil(log2 n) = m numpy passes in all.
    """

    __slots__ = ("m", "n", "modulus", "antilog_table")

    def __init__(self, m):
        self.modulus = smallest_primitive_modulus(m)
        self.m = m
        self.n = (1 << m) - 1
        antilog = np.empty(self.n, dtype=np.uint32)
        antilog[0] = 1
        filled, x = 1, 2  # x = alpha^filled from here on
        while filled < self.n:
            step = min(filled, self.n - filled)
            _times_constant(x, antilog[:step], self.modulus, m, antilog[filled : filled + step])
            filled += step
            x = _mulmod(x, x, self.modulus, m)
        antilog.flags.writeable = False
        self.antilog_table = antilog

    def __repr__(self):
        return f"GF2m(m={self.m}, modulus={self.modulus:#x})"


@lru_cache(maxsize=None)
def field(m):
    """Shared per-degree field instance (construction is the expensive part)."""
    return GF2m(m)
