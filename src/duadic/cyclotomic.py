"""Residue arithmetic mod n = 2^m - 1: 2-weights, 2-cyclotomic cosets, and
the weight-class defining sets T that drive every code in this package.

Defining sets are stored as n-bit bitmaps (Python ints, bit j = membership
of residue j), so unions and intersections are word-parallel, and so are
the BCH run scans of `bounds.max_ap_run`, which AND rotations of the
bitmap.
"""

from dataclasses import dataclass
from functools import lru_cache

from ._bits import from_bool as _bool_to_bits
from ._bits import to_bool as _bits_to_bool
from ._numpy import np
from .gf2m import M_MAX, M_MIN, SETUP_BLOCK


def _doubled(x, m):
    """2x mod n, n = 2^m - 1, over an int32 array of residues: doubling mod
    n rotates the m-bit residue left by one."""
    return (x << 1 | x >> (m - 1)) & ((1 << m) - 1)


def rotations(x, m):
    """Yield x * 2^k mod n, n = 2^m - 1, for k = 0..m-1 over an int32 array
    of residues."""
    yield x
    for _ in range(m - 1):
        x = _doubled(x, m)
        yield x


@lru_cache(maxsize=None)
def leaders_of_z_n(m):
    """The coset leaders of Z_n, n = 2^m - 1, ascending, as a read-only
    int32 array: the residues at most each of their m rotations. The scan
    starts from 0 and the odd residues, since an even j > 0 has j / 2 in
    its coset, and takes SETUP_BLOCK of them at a time. After each rotation
    the residues that exceed it are dropped, so later rotations run over
    fewer of them. Kept once per m.
    `DefiningSet.coset_leaders` and `gf2poly.class_polys` take masks of
    it, by membership and by weight, and `gf2poly._minimal_poly_table`
    writes its entries at these residues."""
    n = (1 << m) - 1
    found = [np.zeros(1, dtype=np.int32)]
    for start in range(1, n, 2 * SETUP_BLOCK):
        leaders = rotated = np.arange(start, min(start + 2 * SETUP_BLOCK, n), 2, dtype=np.int32)
        for _ in range(m - 1):
            rotated = _doubled(rotated, m)
            kept = leaders <= rotated
            leaders, rotated = leaders[kept], rotated[kept]
        found.append(leaders)
    leaders = np.concatenate(found)
    leaders.flags.writeable = False
    return leaders


@dataclass(frozen=True)
class CyclotomicCoset:
    """Orbit of s under doubling mod n; leader is the smallest member."""

    n: int
    leader: int
    elements: tuple

    @property
    def size(self):
        return len(self.elements)


def coset(s, n):
    """The 2-cyclotomic coset of s mod n (n odd), elements sorted ascending."""
    if not 0 <= s < n:
        raise ValueError(f"coset representative {s} not in Z_{n}")
    if n % 2 == 0:
        raise ValueError(f"doubling is not invertible mod the even n={n}")
    orbit = [s]
    x = 2 * s % n
    while x != s:
        orbit.append(x)
        x = 2 * x % n
    orbit.sort()
    return CyclotomicCoset(n=n, leader=orbit[0], elements=tuple(orbit))


@dataclass(frozen=True)
class DefiningSet:
    """A subset of Z_n, n = 2^m - 1, closed under doubling, as an n-bit bitmap."""

    n: int
    bits: int

    def __post_init__(self):
        if self.n & (self.n + 1) or not M_MIN <= self.n.bit_length() <= M_MAX:
            raise ValueError(f"n={self.n} is not 2^m - 1 with {M_MIN} <= m <= {M_MAX}")
        if self.bits >> self.n:
            raise ValueError("bitmap has bits beyond Z_n")

    @classmethod
    def full(cls, n):
        return cls(n=n, bits=(1 << n) - 1)

    def __contains__(self, j):
        return bool((self.bits >> (j % self.n)) & 1)

    @property
    def size(self):
        return self.bits.bit_count()

    def bool_array(self):
        return _bits_to_bool(self.bits, self.n)

    def __or__(self, other):
        if self.n != other.n:
            raise ValueError("defining sets live in different Z_n")
        return DefiningSet(n=self.n, bits=self.bits | other.bits)

    def complement(self):
        return DefiningSet(n=self.n, bits=((1 << self.n) - 1) ^ self.bits)

    def negated(self):
        """The set {-j mod n : j in self} (bit 0 fixed, bits 1..n-1 reversed)."""
        arr = self.bool_array()
        out = np.empty_like(arr)
        out[0] = arr[0]
        out[1:] = arr[:0:-1]
        return DefiningSet(n=self.n, bits=_bool_to_bits(out))

    def with_zero(self):
        return DefiningSet(n=self.n, bits=self.bits | 1)

    def is_closed_under_doubling(self):
        arr = self.bool_array()
        idx = np.flatnonzero(arr)
        return bool(arr[(2 * idx) % self.n].all())

    def coset_leaders(self):
        """Leaders of the cosets making up this set, ascending, for a set
        closed under doubling: the leaders of Z_n that lie in the set.

        A set that doubling does not close gets its members that are
        leaders of Z_n, which need not name its cosets.
        """
        leaders = leaders_of_z_n(self.n.bit_length())
        return leaders[self.bool_array()[leaders]].tolist()


def check_r(r):
    """Raise ValueError unless r, the number of weight classes, is a
    positive even integer of at most 2 * M_MAX. The weights of 1..n-1 lie
    below m <= M_MAX, so a larger r only adds empty classes."""
    if r < 2 or r % 2:
        raise ValueError(f"r must be a positive even integer, got {r}")
    if r > 2 * M_MAX:
        raise ValueError(f"r must be at most {2 * M_MAX}, got {r}")


@dataclass(frozen=True)
class WeightClassSpec:
    """Parameters (r, m, S) selecting the residue classes of w_2 that form T.

    Checked specs require odd m and |S| = r/2, the regime where duadic
    structure can hold; unchecked=True relaxes both for exploration and
    disables theorem classification.
    """

    r: int
    m: int
    S: tuple
    unchecked: bool = False

    def __post_init__(self):
        s = tuple(sorted(self.S))
        if len(set(s)) != len(s):
            raise ValueError(f"duplicate residues in S={self.S}")
        object.__setattr__(self, "S", s)
        check_r(self.r)
        if not M_MIN <= self.m <= M_MAX:
            raise ValueError(f"m={self.m} outside supported range {M_MIN}..{M_MAX}")
        if any(not 0 <= c < self.r for c in s):
            raise ValueError(f"S={s} must contain residues in Z_{self.r}")
        if len(s) >= self.r:
            raise ValueError("S must be a proper subset of Z_r")
        if not self.unchecked:
            if self.m % 2 == 0 or self.m < 3:
                raise ValueError(f"m must be odd and >= 3 (got {self.m}); pass unchecked=True to relax")
            if len(s) != self.r // 2:
                raise ValueError(f"|S| must be r/2 = {self.r // 2} (got {len(s)}); pass unchecked=True to relax")

    @property
    def n(self):
        return (1 << self.m) - 1

    @property
    def t(self):
        return self.m % self.r

    @property
    def complement(self):
        """S' = Z_r \\ S, ascending: the other half of a would-be splitting."""
        return tuple(c for c in range(self.r) if c not in self.S)


@lru_cache(maxsize=64)
def _weight_class_bitmaps(m, r):
    """Bitmaps W_c = {1 <= j <= n-1 : w_2(j) = c mod r}, one per class c."""
    n = (1 << m) - 1
    w = np.bitwise_count(np.arange(n, dtype=np.uint32))
    w %= np.uint8(r)
    masks = []
    for c in range(r):
        arr = w == c
        arr[0] = False  # j ranges over 1..n-1
        masks.append(_bool_to_bits(arr))
    return tuple(masks)


def defining_set(spec):
    """T = {1 <= j <= n-1 : w_2(j) mod r in S}, as a DefiningSet."""
    masks = _weight_class_bitmaps(spec.m, spec.r)
    bits = 0
    for c in spec.S:
        bits |= masks[c]
    return DefiningSet(n=spec.n, bits=bits)
