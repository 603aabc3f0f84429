"""Polynomials over GF(2) as int bitvectors (bit i = coefficient of x^i)
and the synthesis of generator/check polynomials from defining sets.

A generator or check polynomial at n = 2^m - 1 is a product of up to n
linear factors over GF(2^m). No field is passed in: the n of a defining
set or coset fixes m, and the field is field(m). The path that builds a
polynomial costs O(n log^2 n) rather than O(n^2):

- The minimal polynomials of all cosets of GF(2^m) are found together
  and kept per m (`_minimal_poly_table`): for one leader e of each pair
  {C, -C}, one vectorised Berlekamp-Massey pass (Massey, IEEE Trans. IT
  15, 1969) over the 2m bits s_k = bit 0 of alpha^(e k) gives the
  minimal polynomial of alpha^(-e), and its reversal is that of
  alpha^e. The rows alpha^(e k) are streamed off the field's antilog
  table, which the build makes and frees, so no n-entry field table
  outlives it. Each row is certified by its degree and a root. The table
  holds each polynomial once, at its coset's leader, and 0 elsewhere.
  The leader array is kept per m (`cyclotomic.leaders_of_z_n`);
  `DefiningSet.coset_leaders` and `class_polys` take their leaders off
  it by mask.
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
  (at odd m no class pairs with itself). It reads the leaders of a class
  off the leaders of Z_n by their weight mod r.
- `mul` picks its method by operand size alone. Shift-xor costs one
  big-int shift and xor per set bit of the sparser operand: quadratic, but
  with no fixed cost, so below FFT_MIN_BITS it beats the transform. That
  covers the many small products of small fields and the lower levels of
  every product tree.
- Above it, `mul` convolves the 0/1 coefficient vectors with a float64
  FFT, rounds into an int32 buffer, and takes the parity in place.
  numpy's transform holds about four buffers of the transform length at
  once, so a product of more than FFT_MAX_BITS = 2^16 + FFT_MIN_BITS bits
  (la + lb - 1 for operands of la and lb bits) is split first, and each
  float64 buffer holds at most 0.54 MB. The one split rule is Karatsuba's
  (Karatsuba and Ofman, 1962): both operands are cut at half the longer
  one, into three products. When the shorter operand has no high half,
  one of them is 0 and the split costs two.
- The exact coefficients are integers below 2^16, far inside float64's
  exact range, and the transform's error is far below 1/2. That margin is
  measured, not proven, so the rounding guard requires every coefficient
  within ROUNDING_TOLERANCE of an integer and raises otherwise: a lost
  digit fails loudly instead of returning a wrong product.
- No command divides: membership is two products (`CyclicCode.contains`).
  `check_poly`, which no command calls, holds the package's only division.
"""

from bisect import bisect_left
from functools import lru_cache, reduce

from ._bits import from_bool, to_bool
from ._numpy import np
from .cyclotomic import coset, leaders_of_z_n, rotations
from .gf2m import SETUP_BLOCK, field

NEG_INF = float("-inf")

# Smaller operand bit length from which `mul` uses the FFT.
FFT_MIN_BITS = 1024

# Longest product, in bits, that one FFT computes, so each float64 buffer
# holds at most 0.54 MB; a longer one is split. `product` folds its leaves
# to just over FFT_MIN_BITS, so the products of its tree run a little over
# powers of two: the added FFT_MIN_BITS keeps one that is a few bits over
# 2^16 in one transform instead of three.
FFT_MAX_BITS = (1 << 16) + FFT_MIN_BITS

# Largest allowed distance of an FFT coefficient from the nearest integer.
ROUNDING_TOLERANCE = 0.25


def degree(p):
    """Degree of p; the zero polynomial has degree -inf."""
    return p.bit_length() - 1 if p else NEG_INF


def mul(a, b):
    """Product in GF(2)[x]. Shift-xor when an operand is shorter than
    FFT_MIN_BITS, one FFT when the product fits in FFT_MAX_BITS, else one
    Karatsuba split at half the longer operand into three products."""
    la, lb = a.bit_length(), b.bit_length()
    if min(la, lb) < FFT_MIN_BITS:
        return _mul_shift_xor(a, b)
    if la + lb - 1 <= FFT_MAX_BITS:
        return _mul_fft(a, b)
    # (a0 + a1 x^h)(b0 + b1 x^h) = a0 b0 + (a0 b0 + a1 b1 + (a0 + a1)(b0 + b1)) x^h + a1 b1 x^2h;
    # an operand of at most half bits has a zero high half: a1 b1 = 0 by shift-xor, and the split costs two
    half = max(la, lb) // 2
    low = (1 << half) - 1
    a0, a1, b0, b1 = a & low, a >> half, b & low, b >> half
    p0, p2 = mul(a0, b0), mul(a1, b1)
    return p0 ^ ((p0 ^ p2 ^ mul(a0 ^ a1, b0 ^ b1)) << half) ^ (p2 << 2 * half)


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
    Raises when a coefficient is not within ROUNDING_TOLERANCE of an integer.
    The rounding writes an int32 buffer, and the error and the parity are
    taken in place, so no second float64 buffer is allocated."""
    nbits = a.bit_length() + b.bit_length() - 1
    length = _fft_length(nbits)
    spectrum = np.fft.rfft(to_bool(a, a.bit_length()), length)
    spectrum *= np.fft.rfft(to_bool(b, b.bit_length()), length)
    conv = np.fft.irfft(spectrum, length)[:nbits]
    del spectrum  # freed before the rounding allocates its own buffer
    exact = np.rint(conv, out=np.empty(nbits, dtype=np.int32), casting="unsafe")
    conv -= exact
    worst = float(np.abs(conv, out=conv).max())
    if not worst < ROUNDING_TOLERANCE:
        raise ArithmeticError(f"FFT product lost precision: a coefficient was {worst:.3g} from an integer")
    exact &= 1  # the parity; packbits reads a nonzero entry as a set bit
    return from_bool(exact)


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
    """Minimal polynomial of the cosets of field(m), as an n-entry uint32
    table of bitmasks: the entry at a coset leader j is the minimal
    polynomial of alpha^j, and every other entry is 0.

    Of each pair {C, -C} the coset whose leader e is at most n - max(C)
    is computed, by `_minimal_polys` over SETUP_BLOCK leaders at a time.
    Its reversal goes to n - max(C), the leader of -C. The field's
    antilog table is built for this and freed before the table is
    allocated, so no n-entry field table outlives the build.
    """
    n = (1 << m) - 1
    leaders = leaders_of_z_n(m)
    top = reduce(np.maximum, rotations(leaders, m))
    half = leaders <= n - top
    exps = leaders[half]
    # m doublings run round a coset of size d exactly m / d times
    sizes = m // sum(x == exps for x in rotations(exps, m))
    antilog = field(m).antilog()
    blocks = range(0, len(exps), SETUP_BLOCK)
    polys = np.concatenate(
        [_minimal_polys(antilog, exps[i : i + SETUP_BLOCK], sizes[i : i + SETUP_BLOCK], m) for i in blocks]
    )
    del antilog
    table = np.zeros(n, dtype=np.uint32)
    table[exps] = polys
    # row 0 is the coset {0}, its own negation
    table[n - top[half][1:]] = _reversed(polys, sizes)[1:]
    return table


def _minimal_polys(antilog, exps, sizes, m):
    """The minimal polynomial M of alpha^e for each leader e in exps, whose
    coset has the size in sizes, as int64 bitmasks.

    Bit 0 of alpha^(e k) is not always 0 (alpha^0 = 1), so its least
    recurrence is M reversed: the rows alpha^(e k), k < 2m, are streamed
    off the antilog table into `_berlekamp_massey`. An M whose degree is
    not its coset's size or that misses alpha^e raises AssertionError.
    """
    polys = _reversed(_berlekamp_massey((row & 1 for row in _powers(antilog, exps, 2 * m)), len(exps)), sizes)
    # M(alpha^e): the xor of alpha^(e i) over the terms x^i of M, rows 0..m read again
    root = np.zeros(len(exps), dtype=np.uint32)
    for i, row in enumerate(_powers(antilog, exps, m + 1)):
        root ^= np.where(polys >> i & 1, row, 0)
    if np.any(polys >> sizes != 1) or root.any():
        raise AssertionError(f"a Berlekamp-Massey row is not a minimal polynomial of GF(2^{m})")
    return polys


def _powers(antilog, exps, count):
    """Yield the rows alpha^(e k), k = 0..count-1, over the exponents e in
    exps, each a new uint32 array read off the antilog table."""
    e_k = np.zeros_like(exps)
    for _ in range(count):
        yield antilog[e_k]
        e_k += exps
        e_k[e_k >= len(antilog)] -= len(antilog)


def _berlekamp_massey(rows, width):
    """Berlekamp-Massey over `width` binary sequences at once: the k-th of
    rows holds their terms s_k. Returns, as int64 bitmasks, the connection
    polynomial C, C(0) = 1, of the shortest recurrence sum_i c_i s_(k-i) = 0
    of each; one of order L (below 32 here) is fixed by its first 2L terms.
    int64, as in `mindist`'s transform, runs numpy loops already paged in."""
    conn = np.ones(width, dtype=np.int64)
    prev = conn.copy()  # C before the order last grew
    order = np.zeros_like(conn)
    gap = conn.copy()  # steps since the order last grew
    window = np.zeros_like(conn)  # bit i = s_(k-i)
    for k, terms in enumerate(rows):
        window = (window << 1) | terms
        wrong = np.bitwise_count(conn & window).astype(np.int64) & 1  # C misses s_k
        grow = wrong & (2 * order <= k)
        keep = grow - 1  # all ones where the order stays, zero where it grows
        fixed = conn ^ ((prev << gap) & -wrong)
        prev = (prev & keep) | (conn & ~keep)
        order += grow * (k + 1 - 2 * order)
        gap = ((gap + 1) & keep) | grow
        conn = fixed
    return conn


def _reversed(polys, degrees):
    """x^d p(1/x) for each p and its d in degrees: bit i of p moves
    to bit d - i, and bits above d are dropped."""
    top = int(degrees.max())
    flipped = np.zeros_like(polys)
    for i in range(top + 1):
        flipped |= ((polys >> i) & 1) << (top - i)
    return flipped >> (top - degrees)


def minimal_poly(cs):
    """prod_{i in cs} (x - alpha^i) for a 2-cyclotomic coset cs mod
    n = 2^m - 1, alpha the primitive element of field(m).

    Read from the field's table of minimal polynomials at the least
    member of cs, its leader, in whatever order cs lists its elements. An
    n that is not 2^m - 1 is rejected, and so is a cs that is not one
    whole orbit under doubling mod n: a set that doubling does not map
    onto itself, or that is larger than the orbit of its least member.
    """
    n = cs.n
    if n & (n + 1):
        raise ValueError(f"coset mod {n}: n is not 2^m - 1")
    members = set(cs.elements)
    p = _minimal_poly_table(n.bit_length()).item(min(members) % n) if members else 0
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
    return _leaders_product(T.coset_leaders(), T.n)


def _leaders_product(leaders, n):
    """Product of the minimal polynomials of the cosets mod n with the given leaders."""
    return product([minimal_poly(coset(leader, n)) for leader in leaders])


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

    Doubling keeps w_2, so the coset leaders of W_c are the nonzero
    leaders of Z_n of weight c mod r. -W_c = W_{(m-c) mod r}, so of each
    pair of classes only the smaller index is built and its partner is its
    reciprocal; a class that is its own partner (2c = m mod r, only at even
    m) is built directly.
    """
    leaders = leaders_of_z_n(m)[1:]
    weights = np.bitwise_count(leaders) % r
    polys = [None] * r
    for c in range(r):
        partner = (m - c) % r
        if c <= partner:
            polys[c] = _leaders_product(leaders[weights == c].tolist(), (1 << m) - 1)
            if partner != c:
                polys[partner] = reciprocal(polys[c])
    return ClassPolys(m, polys)


def check_poly(g, n):
    """h with g*h = x^n + 1, by bit-by-bit long division, the package's only
    division: quadratic, and called by no command. Rejects a g that does not
    divide x^n + 1, the zero polynomial included."""
    rem, h, top = x_pow_plus_one(n), 0, g.bit_length()
    while top and rem.bit_length() >= top:
        shift = rem.bit_length() - top
        h |= 1 << shift
        rem ^= g << shift
    if rem:
        raise ValueError("generator polynomial does not divide x^n + 1")
    return h


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
