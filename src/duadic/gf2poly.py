"""Polynomials over GF(2) as int bitvectors (bit i = coefficient of x^i)
and the synthesis of generator/check polynomials from defining sets.

A generator or check polynomial at n = 2^m - 1 is a product of up to n
linear factors over GF(2^m). No field is passed in: the n of a defining
set or coset fixes m, and the field is field(m). The path that builds a
polynomial costs O(n log^2 n) rather than O(n^2):

- The minimal polynomials of all cosets of GF(2^m) are expanded together
  in one vectorised pass over the orbits of the leaders of Z_n and kept
  per m (`_minimal_poly_table`). The leader array is itself kept per m
  (`cyclotomic.leaders_of_z_n`) and shared with `DefiningSet.coset_leaders`.
- `generator_poly(T)` multiplies the minimal polynomials of the cosets
  of T, each read by `minimal_poly(cs)`, through a balanced product tree.
- The code of a weight-class spec (r, m, S) needs no per-coset product.
  T_S is the disjoint union of the classes W_c, c in S, and Z_n \\ T_S
  is {0} together with T_{Z_r \\ S}. So `class_polys` builds the r class
  polynomials P_c of an (m, r) once, and g = prod_{c in S} P_c and the
  cofactor prod_{c not in S} P_c of the check polynomial
  h = (x + 1) prod_{c not in S} P_c are subset products of them
  (`code.from_class_polys`). `ClassPolys.product` splits the class indices
  [0, r) in balanced halves and memoises the product of every subset it
  meets, so the specs of one field share their sub-products and a
  polynomial of a catalog spec costs about one product of two halves.
- Negation pairs the polynomials. n - j complements the m-bit expansion
  of j, so -W_c = W_{(m-c) mod r}, and the minimal polynomial of
  alpha^{-j} is the reciprocal of that of alpha^j. `class_polys` builds
  one class of each pair {c, (m-c) mod r} and reverses it for the other
  (at odd m no class pairs with itself), and `_minimal_poly_table`
  expands one coset of each pair {C, -C}.
- `mul` picks its method by operand size alone. Shift-xor costs one
  big-int shift and xor per set bit of the sparser operand: quadratic, but
  with no fixed cost, so below FFT_MIN_BITS it beats the transform. That
  covers the many small products of small fields and the lower levels of
  every product tree.
- Above it, `mul` convolves the 0/1 coefficient vectors with a float64
  FFT, rounds, and reduces mod 2. numpy's transform holds about four
  buffers of the transform length at once, so a product of more than
  FFT_MAX_BITS bits (la + lb - 1 for operands of la and lb bits) is split
  into halves of its longer operand first. Each FFT's buffers then stay
  near 2 MB.
- The exact coefficients are integers below 2^18, far inside float64's
  exact range, and the transform's error is far below 1/2. That margin is
  measured, not proven, so the rounding guard requires every coefficient
  within ROUNDING_TOLERANCE of an integer and raises otherwise: a lost
  digit fails loudly instead of returning a wrong product.
"""

from bisect import bisect_left
from functools import lru_cache

from ._bits import from_bool, to_bool
from ._numpy import np
from .cyclotomic import coset, leaders_of_z_n, rotations, weight_classes
from .gf2m import field

NEG_INF = float("-inf")

# Smaller operand bit length from which `mul` uses the FFT.
FFT_MIN_BITS = 1024

# Longest product, in bits, that one FFT computes; a longer one is split.
FFT_MAX_BITS = 1 << 18

# Largest allowed distance of an FFT coefficient from the nearest integer.
ROUNDING_TOLERANCE = 0.25


def degree(p):
    """Degree of p; the zero polynomial has degree -inf."""
    return p.bit_length() - 1 if p else NEG_INF


def mul(a, b):
    """Product in GF(2)[x]. Shift-xor when an operand is shorter than
    FFT_MIN_BITS; otherwise FFT, after halving the longer operand until the
    product fits in FFT_MAX_BITS."""
    la, lb = a.bit_length(), b.bit_length()
    if min(la, lb) < FFT_MIN_BITS:
        return _mul_shift_xor(a, b)
    if la + lb - 1 > FFT_MAX_BITS:
        if la < lb:
            a, b, la = b, a, lb
        half = la // 2
        return mul(a & ((1 << half) - 1), b) ^ (mul(a >> half, b) << half)
    return _mul_fft(a, b)


def _mul_shift_xor(a, b):
    if a.bit_count() > b.bit_count():
        a, b = b, a
    r = 0
    while a:
        low = a & -a
        r ^= b << (low.bit_length() - 1)
        a ^= low
    return r


@lru_cache(maxsize=1024)
def _fft_length(n):
    """Smallest 2^i 3^j 5^k >= n, a length numpy's FFT handles at full speed."""
    best = 1 << (n - 1).bit_length()
    odd = 1
    while odd < best:
        odd3 = odd
        while odd3 < best:
            length = odd3 << ((n - 1) // odd3).bit_length()
            best = min(best, length)
            odd3 *= 3
        odd *= 5
    return best


def _mul_fft(a, b):
    """Integer convolution of the coefficient vectors by FFT, then mod 2.
    Raises when a coefficient is not within ROUNDING_TOLERANCE of an integer."""
    nbits = a.bit_length() + b.bit_length() - 1
    length = _fft_length(nbits)
    spectrum = np.fft.rfft(to_bool(a, a.bit_length()), length)
    spectrum *= np.fft.rfft(to_bool(b, b.bit_length()), length)
    conv = np.fft.irfft(spectrum, length)[:nbits]
    del spectrum  # freed before the rounding allocates its own buffer
    exact = np.rint(conv)
    conv -= exact
    worst = float(np.abs(conv, out=conv).max())
    if not worst < ROUNDING_TOLERANCE:
        raise ArithmeticError(f"FFT product lost precision: a coefficient was {worst:.3g} from an integer")
    return from_bool((exact.astype(np.int32) & 1).astype(bool))


def divmod_(a, b):
    """Quotient and remainder of a by b, deg(rem) < deg(b)."""
    if b == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    db = b.bit_length() - 1
    q = 0
    while a and a.bit_length() - 1 >= db:
        shift = a.bit_length() - 1 - db
        q |= 1 << shift
        a ^= b << shift
    return q, a


def mod(a, b):
    return divmod_(a, b)[1]


def reciprocal(p):
    """x^deg(p) * p(1/x): the coefficient string reversed."""
    if p == 0:
        return 0
    return int(bin(p)[2:][::-1], 2)


def x_pow_plus_one(n):
    """x^n + 1."""
    return (1 << n) | 1


@lru_cache(maxsize=None)
def _minimal_poly_table(m):
    """Minimal polynomial of alpha^j in field(m) for every j in Z_n, as uint32 bitmasks.

    The leaders of Z_n are read from `cyclotomic.leaders_of_z_n`, and
    orbits[:, k] = leader * 2^k mod n. Each coset's product
    prod (x - alpha^i) is expanded in GF(2^m)[x] with numpy over its row of
    int32 exponents, all cosets of one size at a time. Only a coset C whose
    leader is at most n - max(C), the leader of -C, is expanded; the
    reversed masks fill the entries of -C.
    """
    fld, n = field(m), (1 << m) - 1
    leaders = leaders_of_z_n(m)
    orbits = np.stack(list(rotations(leaders, m)), axis=1)
    orbits = orbits[leaders <= n - orbits.max(axis=1)]
    # m doublings run round a coset of size d exactly m / d times
    sizes = m // (orbits == orbits[:, :1]).sum(axis=1)
    table = np.empty(n, dtype=np.uint32)
    # the sizes that occur, each once; np.unique would import numpy.ma
    for size in np.flatnonzero(np.bincount(sizes)).tolist():
        exps = orbits[sizes == size, :size]
        polys = _expand_roots(fld, exps)
        shifts = np.arange(size + 1, dtype=np.uint32)
        reversed_polys = np.bitwise_or.reduce(((polys[:, None] >> shifts) & 1) << shifts[::-1], axis=1)
        for k in range(size):
            table[exps[:, k]] = polys
            table[(n - exps[:, k]) % n] = reversed_polys
    return table


def _expand_roots(fld, exps):
    """Bitmasks of prod_k (x - alpha^exps[:, k]) for each row of int32
    exponents; each product must lie in GF(2)[x]."""
    antilog, log, n = fld.antilog_table, fld.log_table, fld.n
    rows, size = exps.shape
    coeffs = np.zeros((rows, size + 1), dtype=np.uint32)
    coeffs[:, 0] = 1
    for j in range(size):
        low = coeffs[:, : j + 1].copy()
        scaled = antilog[(log[low] + exps[:, j : j + 1]) % n]
        scaled[low == 0] = 0
        coeffs[:, : j + 1] = scaled
        coeffs[:, 1 : j + 2] ^= low
    if coeffs.max() > 1:
        raise AssertionError(f"a coset product left GF(2) in GF(2^{fld.m})")
    return np.bitwise_or.reduce(coeffs << np.arange(size + 1, dtype=np.uint32), axis=1)


def minimal_poly(cs):
    """prod_{i in cs} (x - alpha^i) for a 2-cyclotomic coset cs mod
    n = 2^m - 1, alpha the primitive element of field(m).

    Read from the field's table of minimal polynomials. An n that is not
    2^m - 1 is rejected, and so is a cs that is not one whole orbit under
    doubling mod n: a set that doubling does not map onto itself, or that
    is larger than the orbit of its first element.
    """
    n = cs.n
    if n & (n + 1):
        raise ValueError(f"coset mod {n}: n is not 2^m - 1")
    members = set(cs.elements)
    p = _minimal_poly_table(n.bit_length()).item(cs.elements[0] % n) if members else 0
    if len(cs.elements) != p.bit_length() - 1 or {2 * e % n for e in members} != members:
        raise ValueError(f"coset {cs.elements} is not a doubling orbit mod {n}")
    return p


def product(polys):
    """Product of a list of polynomials through a balanced binary tree.

    Runs of small factors are first folded left to right up to
    FFT_MIN_BITS: shift-xor by a small factor costs only its few set bits,
    which is cheaper than the tree's products of equal-sized operands.
    """
    folded = []
    for p in polys:
        if folded and folded[-1].bit_length() < FFT_MIN_BITS:
            folded[-1] = mul(folded[-1], p)
        else:
            folded.append(p)
    if not folded:
        return 1
    while len(folded) > 1:
        paired = [mul(a, b) for a, b in zip(folded[::2], folded[1::2])]
        folded = paired + folded[len(paired) * 2 :]
    return folded[0]


def generator_poly(T):
    """Product of the minimal polynomials of the cosets in T; deg = |T|."""
    return product([minimal_poly(coset(leader, T.n)) for leader in T.coset_leaders()])


class ClassPolys:
    """The class polynomials P_c, c in Z_r, of field(m), with a memo of
    their subset products.

    The memo lives as long as the set, which one command builds per (m, r).
    """

    def __init__(self, m, polys):
        self.polys = tuple(polys)
        self.m, self.r = m, len(self.polys)
        self._memo = {}

    def product(self, classes):
        """prod_{c in classes} P_c for a strictly increasing sequence of classes."""
        return self._product(tuple(classes), 0, len(self.polys))

    def _product(self, classes, lo, hi):
        """The product for classes inside [lo, hi): the product of the
        products over [lo, mid) and [mid, hi), memoised by classes."""
        if len(classes) < 2:
            return self.polys[classes[0]] if classes else 1
        mid = (lo + hi) // 2
        cut = bisect_left(classes, mid)
        if cut == 0:
            return self._product(classes, mid, hi)
        if cut == len(classes):
            return self._product(classes, lo, mid)
        found = self._memo.get(classes)
        if found is None:
            found = mul(self._product(classes[:cut], lo, mid), self._product(classes[cut:], mid, hi))
            self._memo[classes] = found
        return found


def class_polys(m, r):
    """The class polynomials P_c = prod_{j in W_c} (x - alpha^j), c in Z_r,
    of field(m), where W_c = {1 <= j <= n-1 : w_2(j) = c mod r}, as a
    ClassPolys; an empty class gives 1.

    -W_c = W_{(m-c) mod r}, so of each pair of classes only the smaller
    index is built and its partner is its reciprocal; a class that is its
    own partner (2c = m mod r, only at even m) is built directly.
    """
    polys = [None] * r
    for c, w in enumerate(weight_classes(m, r)):
        partner = (m - c) % r
        if c <= partner:
            polys[c] = generator_poly(w)
            if partner != c:
                polys[partner] = reciprocal(polys[c])
    return ClassPolys(m, polys)


def check_poly(g, n):
    """h with g*h = x^n + 1; rejects non-divisors."""
    q, rem = divmod_(x_pow_plus_one(n), g)
    if rem:
        raise ValueError("generator polynomial does not divide x^n + 1")
    return q


def to_hex(p):
    """Coefficient mask, LSB = constant term (x^3+x+1 -> '0xB')."""
    return f"{p:#X}".replace("0X", "0x")


def from_hex(s):
    return int(s, 16)


def pretty(p):
    """Sparse exponent form, e.g. 'x^3 + x + 1'."""
    if p == 0:
        return "0"
    terms = []
    for d in range(p.bit_length() - 1, -1, -1):
        if (p >> d) & 1:
            terms.append("1" if d == 0 else "x" if d == 1 else f"x^{d}")
    return " + ".join(terms)
