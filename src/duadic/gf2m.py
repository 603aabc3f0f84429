"""The field GF(2^m) as its degree and primitive modulus, and its antilog
table built on demand.

Field elements are plain Python ints: the bits of an element are its
coordinates in the polynomial basis (bit i = coefficient of alpha^i).
Addition is xor. The zero element is 0 and is no power of alpha.
"""

from functools import lru_cache

from ._numpy import np

M_MIN = 2
M_MAX = 20

# Entries of an n-indexed array that one setup step processes at a time, so
# the temporaries of the field and coset setup do not grow with n.
SETUP_BLOCK = 1 << 13


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
    taken out as a uint8 index, SETUP_BLOCK entries at a time.
    """
    tables = []
    for low in range(0, m, 8):
        table = np.zeros(256, dtype=np.uint32)
        for k in range(min(8, m - low)):
            table[1 << k : 2 << k] = table[: 1 << k] ^ _mulmod(c, 1 << (low + k), modulus, m)
        tables.append(table)
    for start in range(0, len(v), SETUP_BLOCK):
        block, dest = v[start : start + SETUP_BLOCK], out[start : start + SETUP_BLOCK]
        dest.fill(0)
        for low, table in zip(range(0, m, 8), tables):
            dest ^= table[(block >> low).astype(np.uint8)]


class GF2m:
    """The field GF(2^m), 2 <= m <= 20, with alpha = x primitive: its degree
    m, n = 2^m - 1 and the modulus, the smallest primitive polynomial of
    degree m. An instance keeps no table, so it is small and safe for
    concurrent reads; `antilog` builds the powers of alpha for a caller that
    needs them. No command takes a discrete log, so no log table is built.
    """

    __slots__ = ("m", "n", "modulus")

    def __init__(self, m):
        self.modulus = smallest_primitive_modulus(m)
        self.m = m
        self.n = (1 << m) - 1

    def antilog(self):
        """alpha^e for e in Z_n as a new read-only uint32 array, which only
        the caller holds.

        The table starts from a[0] = 1, and the filled prefix a[0:B]
        doubles: a[B:2B] = alpha^B * a[0:B], written by `_times_constant`
        straight into the table, ceil(log2 n) = m passes in all.
        """
        antilog = np.empty(self.n, dtype=np.uint32)
        antilog[0] = 1
        filled, x = 1, 2  # x = alpha^filled from here on
        while filled < self.n:
            step = min(filled, self.n - filled)
            _times_constant(x, antilog[:step], self.modulus, self.m, antilog[filled : filled + step])
            filled += step
            x = _mulmod(x, x, self.modulus, self.m)
        antilog.flags.writeable = False
        return antilog

    def __repr__(self):
        return f"GF2m(m={self.m}, modulus={self.modulus:#x})"


@lru_cache(maxsize=None)
def field(m):
    """Shared per-degree field instance."""
    return GF2m(m)
