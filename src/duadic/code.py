"""Cyclic codes from defining sets: generator matrices, duals, extensions,
and the structural predicates (self-dual, doubly-even).

A code holds only its generator g, its check polynomial h and its defining
set T; T fixes the length n = 2^m - 1, the field GF(2^m) and k = n - |T|.
Codewords and matrix rows are int bitvectors, bit i = coordinate c_i.
"""

from dataclasses import dataclass

from . import gf2poly
from .cyclotomic import DefiningSet, defining_set


@dataclass(frozen=True)
class CyclicCode:
    """[n, k] binary cyclic code with generator g, check polynomial
    h = (x^n + 1) / g and root-exponent set T; g has the roots alpha^i,
    i in T, and h the roots alpha^i, i not in T."""

    g: int
    h: int
    T: DefiningSet

    @property
    def n(self):
        return self.T.n

    @property
    def k(self):
        return self.T.n - self.T.size

    def generator_row(self, i):
        """Cyclic-shift generator matrix row x^i * g."""
        return self.g << i

    def contains(self, word):
        """Membership: word(x) is q(x) g(x) for some q, found by
        multiplication. A codeword c = q g, deg q < k, has
        c h = q (x^n + 1) = q x^n + q, so q is c h >> n, and only the bits of c
        at n - k and above reach x^n: q = (c >> (n - k)) h >> k. The answer is
        whether q g is the word, which rests on g alone: a wrong h can only
        reject a codeword, never accept a non-codeword."""
        if word >> self.n:
            raise ValueError("word longer than the code length")
        q = gf2poly.mul(word >> (self.n - self.k), self.h) >> self.k
        return gf2poly.mul(q, self.g) == word


@dataclass(frozen=True)
class ExtendedCode:
    """The base code lengthened by one overall parity coordinate at index n."""

    base: CyclicCode

    @property
    def n(self):
        return self.base.n + 1

    @property
    def k(self):
        return self.base.k

    @property
    def parity_bit(self):
        # every generator row is a shift of g, so one parity serves all rows
        return self.base.g.bit_count() & 1

    def generator_row(self, i):
        return self.base.generator_row(i) | self.parity_bit << self.base.n

    def contains(self, word):
        if word >> self.n:
            raise ValueError("word longer than the extended length")
        base_part = word & ((1 << self.base.n) - 1)
        return self.base.contains(base_part) and word.bit_count() % 2 == 0


def from_defining_set(T):
    """Build the cyclic code whose generator has roots alpha^i, i in T, and
    whose check polynomial has the roots alpha^i, i in Z_n \\ T."""
    if not T.is_closed_under_doubling():
        raise ValueError("defining set is not closed under doubling")
    return CyclicCode(g=gf2poly.generator_poly(T), h=gf2poly.generator_poly(T.complement()), T=T)


def from_class_polys(spec, polys):
    """The code of a weight-class spec, with its check polynomial, from the
    class polynomials `polys` = gf2poly.class_polys(spec.m, spec.r).

    T_S is the disjoint union of the classes W_c, c in S, and Z_n \\ T_S is
    {0} together with T_{Z_r \\ S}, so g = prod_{c in S} P_c and
    h = (x + 1) prod_{c not in S} P_c; both products come from the set's
    memoised subset products.
    """
    if (polys.m, polys.r) != (spec.m, spec.r):
        raise ValueError(f"class polynomials of m={polys.m}, r={polys.r} do not belong to m={spec.m}, r={spec.r}")
    T = defining_set(spec)
    g = polys.product(spec.S)
    if gf2poly.degree(g) != T.size:
        raise AssertionError("generator degree disagrees with the defining set")
    h = gf2poly.mul(0b11, polys.product(spec.complement))
    return CyclicCode(g=g, h=h, T=T)


def dual(code):
    """The dual code: generated by the reciprocal of the check polynomial,
    with defining set Z_n \\ (-T) and check polynomial the reciprocal of g,
    since rev(g) * rev(h) = rev(x^n + 1) = x^n + 1.

    g * h = x^n + 1 is verified as an independent invariant.
    """
    if gf2poly.mul(code.g, code.h) != gf2poly.x_pow_plus_one(code.n):
        raise AssertionError("generator times check polynomial is not x^n + 1")
    g_dual = gf2poly.reciprocal(code.h)
    T_dual = code.T.negated().complement()
    if gf2poly.degree(g_dual) != T_dual.size:
        raise AssertionError("dual generator degree disagrees with dual defining set")
    return CyclicCode(g=g_dual, h=gf2poly.reciprocal(code.g), T=T_dual)


def extend(code):
    return ExtendedCode(base=code)


def _self_orthogonal(ext):
    """Whether the extended code is self-orthogonal, read off the base
    code's defining set T: it is iff T, -T and {0} cover Z_n.

    The parity bit gives every pair of odd words of C an even inner product
    once the even-like subcode E (defining set T u {0}) is orthogonal to C:
    the odd words form one coset u + E, and the extended words of u and
    u + e meet in wt(u) + 1 + <u, e> = <u, e> mod 2. A pair with an even
    word gains nothing from the parity bit. So the extension is
    self-orthogonal iff E lies in the dual C^perp (defining set Z_n \\ -T),
    and for cyclic codes that containment is the reverse containment of
    defining sets, Z_n \\ -T <= T u {0}.
    """
    T = ext.base.T
    return (T | T.negated()).with_zero() == DefiningSet.full(T.n)


def is_self_dual(ext):
    """dim = length/2 and G * G^T = 0 over GF(2)."""
    return 2 * ext.k == ext.n and _self_orthogonal(ext)


def is_doubly_even(ext):
    """Row-level certificate: self-orthogonal and every row weight = 0 mod 4.

    For binary self-orthogonal codes, wt(u + v) = wt(u) + wt(v) - 2|u & v|
    with |u & v| even, so doubly-even rows force every codeword to be
    doubly-even; no enumeration needed at any dimension.
    """
    row_weight = ext.base.g.bit_count() + ext.parity_bit
    return row_weight % 4 == 0 and _self_orthogonal(ext)
