"""Residue arithmetic mod n = 2^m - 1: 2-weights, 2-cyclotomic cosets, and
the weight-class defining sets T that drive every code in this package.

Defining sets are stored as n-bit bitmaps (Python ints, bit j = membership
of residue j), so unions and intersections are word-parallel, and so are
the BCH run scans of `bounds.max_ap_run`, which AND rotations of the
bitmap.
"""

from dataclasses import dataclass
from functools import lru_cache, reduce

from ._bits import from_bool as _bool_to_bits
from ._bits import to_bool as _bits_to_bool
from ._numpy import np
from .gf2m import M_MAX, M_MIN


def rotations(x, m):
    """Yield x * 2^k mod n, n = 2^m - 1, for k = 0..m-1 over an int32 array
    of residues: doubling mod n rotates the m-bit residue left by one."""
    n = (1 << m) - 1
    yield x
    for _ in range(m - 1):
        x = (x << 1 | x >> (m - 1)) & n
        yield x


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

    def indices(self):
        return np.flatnonzero(self.bool_array())

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
        """Leaders of the cosets making up this set, ascending.

        Each member's orbit minimum is taken over its m rotations. The
        leader of an orbit is its smallest member in the set.
        """
        members = self.indices().astype(np.int32)
        orbit_min = reduce(np.minimum, rotations(members, self.n.bit_length()))
        _, first = np.unique(orbit_min, return_index=True)
        return np.sort(members[first]).tolist()


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


def complement_spec(spec):
    """The spec for S' = Z_r \\ S (the other half of a would-be splitting)."""
    s = set(spec.S)
    comp = tuple(c for c in range(spec.r) if c not in s)
    return WeightClassSpec(r=spec.r, m=spec.m, S=comp, unchecked=spec.unchecked)


@lru_cache(maxsize=64)
def _weight_class_bitmaps(m, r):
    """Bitmaps W_c = {1 <= j <= n-1 : w_2(j) = c mod r}, one per class c."""
    n = (1 << m) - 1
    j = np.arange(n, dtype=np.uint32)
    w = (np.bitwise_count(j) % np.uint32(r)).astype(np.uint8)
    masks = []
    for c in range(r):
        arr = w == c
        arr[0] = False  # j ranges over 1..n-1
        masks.append(_bool_to_bits(arr))
    return tuple(masks)


def weight_classes(m, r):
    """The classes W_c = {1 <= j <= n-1 : w_2(j) = c mod r} as DefiningSets, c in Z_r."""
    n = (1 << m) - 1
    return [DefiningSet(n=n, bits=bits) for bits in _weight_class_bitmaps(m, r)]


def defining_set(spec):
    """T = {1 <= j <= n-1 : w_2(j) mod r in S}, as a DefiningSet."""
    masks = _weight_class_bitmaps(spec.m, spec.r)
    bits = 0
    for c in spec.S:
        bits |= masks[c]
    return DefiningSet(n=spec.n, bits=bits)
