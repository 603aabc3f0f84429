"""Exact and bounded minimum-distance computation.

Exact distances and weight distributions come from a Walsh-Hadamard
transform of the generator columns over the whole message space (O(k 2^k)
additions), budgeted at k <= 24. Above the budget, a BCH certificate
supplies the lower bound and a seeded information-set search (Lee-Brickell,
messages of weight <= 3) supplies the upper bound: batches of trials are
row-reduced together on bit-packed generator columns, and each trial scans
only the redundancy part of its reduced rows.
"""

from dataclasses import dataclass

from ._bits import from_bool
from ._numpy import np
from .bounds import best_certificate
from .code import ExtendedCode

ENUM_BUDGET_K = 24
LOW_BITS = 12  # message bits per transform row
BLOCK_BITS = 16  # at most 2^16 messages per block
PAIR_BLOCK_WORDS = 1 << 13  # uint64 words (64 KB) per block of row pairs, and per batch of trials, in the search
ISD_MEMORY_BUDGET = 1 << 30  # bytes: packed generator rows and columns, a batch of permuted columns, one trial's rows


@dataclass(frozen=True)
class CertifiedBound:
    """Minimum-distance interval [lower, upper] with its evidence.

    witness is a verified codeword of weight upper; the bound is exact when
    the interval has collapsed. min_odd_weight is reported by full
    enumeration only (None when the code has no odd-weight codeword).
    """

    lower: int
    upper: int
    witness: int
    method: str
    min_odd_weight: int | None = None
    seed: int | None = None
    effort: int | None = None

    def __post_init__(self):
        if not 1 <= self.lower <= self.upper:
            raise ValueError(f"invalid bound interval [{self.lower}, {self.upper}]")
        if self.witness.bit_count() != self.upper:
            raise ValueError("witness weight does not match the upper bound")

    @property
    def exact(self):
        return self.lower == self.upper

    def to_json(self):
        return {
            "lower": self.lower,
            "upper": self.upper,
            "exact": self.exact,
            "method": self.method,
            "witness_hex": f"{self.witness:#x}",
            "min_odd_weight": self.min_odd_weight,
            "seed": self.seed,
            "effort": self.effort,
        }


@dataclass(frozen=True)
class WeightDistribution:
    """Counts A_w of codewords of each weight w = 0..n."""

    n: int
    k: int
    counts: tuple

    @property
    def is_doubly_even(self):
        return all(c == 0 for w, c in enumerate(self.counts) if w % 4)


def _encode(c, message):
    word = 0
    while message:
        low = message & -message
        word ^= c.generator_row(low.bit_length() - 1)
        message ^= low
    return word


def _wht(v):
    """Walsh-Hadamard transform of v (rows, A, B) over its last two axes.
    Butterflies run along the middle axis, then again after a transposing
    copy, so every pass streams contiguous runs of at least A or B entries.
    Each butterfly writes (u + w, u - w) into a second buffer, and the two
    buffers swap: two passes over the halves, where in place takes three."""
    out = np.empty_like(v)
    for _ in range(2):
        rows, size, inner = v.shape
        h = 1
        while h < size:
            shape = (rows, size // (2 * h), 2, h * inner)
            pairs, sums = v.reshape(shape), out.reshape(shape)
            np.add(pairs[:, :, 0], pairs[:, :, 1], out=sums[:, :, 0])
            np.subtract(pairs[:, :, 0], pairs[:, :, 1], out=sums[:, :, 1])
            v, out = out, v
            h *= 2
        transposed = out.reshape(rows, inner, size)
        np.copyto(transposed, v.transpose(0, 2, 1))
        v, out = transposed, v.reshape(rows, inner, size)
    return v


def _weight_blocks(c):
    """Yield (first message, weights of the next messages in order) over all
    2^k messages: wt(mG) = (n - sum_j (-1)^<m, col_j>) / 2 over the columns.

    Messages m = (m_h << a) | l and columns split into a = min(k, LOW_BITS)
    low bits and k - a high bits. Row m_h of a block gets V[l'] = sum over the
    columns with low part l' of (-1)^popcount(m_h & high part), and the
    transform of V gives the column sum for every l. The transform runs in
    int16 when 2n < 2^15: its values lie in [-n, n], and the weights come
    from n - v <= 2n.
    """
    n, k = c.n, c.k
    if k < 1:
        raise ValueError("the zero code has no nonzero codeword")
    if k > ENUM_BUDGET_K:
        raise ValueError(f"k={k} exceeds the 2^{ENUM_BUDGET_K} enumeration budget; use bounded_min_distance")
    a = min(k, LOW_BITS)
    cols = _generator_columns(c)[0].astype(np.int64)  # k <= 24: one word per column
    lo, hi = cols & ((1 << a) - 1), cols >> a
    # a power of two of rows, so at most 2^BLOCK_BITS signs unless one row has more
    rows = 1 << max(0, min(k - a, BLOCK_BITS - a, ((1 << BLOCK_BITS) // n).bit_length() - 1))
    index = ((np.arange(rows)[:, None] << a) | lo).ravel()
    dtype = np.int16 if 2 * n < 1 << 15 else np.int32
    for first in range(0, 1 << (k - a), rows):
        m_h = np.arange(first, first + rows)[:, None]
        v = np.zeros(rows << a, dtype=dtype)
        np.add.at(v, index, 1 - 2 * (np.bitwise_count(m_h & hi) & 1).astype(dtype).ravel())
        v = _wht(v.reshape(rows, 1 << (a - a // 2), 1 << (a // 2)))
        yield first << a, (n - v.reshape(-1)) >> 1


def exact_min_distance(c):
    """Exact minimum distance by a transform over the full message space
    (k <= 24). The witness is the first minimum-weight codeword in Gray-code
    order: among the lightest messages, the one of smallest Gray rank."""
    counts = np.zeros(c.n + 1, dtype=np.int64)
    best = (c.n + 1, 0)  # (weight, Gray rank), heavier than any codeword
    for first, weights in _weight_blocks(c):
        counts += np.bincount(weights, minlength=c.n + 1)
        if first == 0:
            weights[0] = c.n + 1  # message 0
        w = int(weights.min())
        if w <= best[0]:
            rank = first + np.flatnonzero(weights == w)
            for shift in (1, 2, 4, 8, 16):  # inverse Gray code: prefix xor of the k <= 24 bits
                rank ^= rank >> shift
            best = min(best, (w, int(rank.min())))
    d, rank = best
    return CertifiedBound(
        lower=d, upper=d, witness=_encode(c, rank ^ (rank >> 1)),
        method="enumeration", min_odd_weight=next((w for w in range(1, c.n + 1, 2) if counts[w]), None),
    )


def weight_distribution(c):
    """Full weight distribution by a transform over the message space (k <= 24)."""
    counts = sum(np.bincount(weights, minlength=c.n + 1) for _, weights in _weight_blocks(c))
    return WeightDistribution(n=c.n, k=c.k, counts=tuple(int(x) for x in counts))


def _transpose_bits(a):
    """The bit transpose of L packed vectors of 64W bits: a is (W, L), word
    w of vector i at a[w, i], and the result is the (ceil(L/64), 64W) array
    whose column p packs, in the same word-major way, bit p of vectors
    0..L-1, vector 0 in bit 0. One word row at a time, so at most 64L bools
    are held."""
    words, length = a.shape
    out = np.zeros((-(-length // 64) * 8, 64 * words), dtype=np.uint8)
    for w in range(words):
        bits = np.unpackbits(np.ascontiguousarray(a[w]).view(np.uint8).reshape(length, 8), axis=1, bitorder="little")
        out[:(length + 7) // 8, 64 * w:64 * (w + 1)] = np.packbits(bits, axis=0, bitorder="little")
    return np.ascontiguousarray(out.reshape(-1, 8, 64 * words).transpose(0, 2, 1)).view("<u8")[..., 0]


def _generator_columns(c):
    """The generator matrix as packed columns: a (ceil(k/64), n) uint64
    array whose column j packs coordinate j of the k generator rows."""
    words = -(-c.n // 64)
    rows = np.frombuffer(b"".join(c.generator_row(i).to_bytes(8 * words, "little") for i in range(c.k)), dtype="<u8")
    return np.ascontiguousarray(_transpose_bits(rows.reshape(c.k, words).T)[:, :c.n])


def _reduced_trials(cols, k, effort, rng, batch):
    """Yield (perm, pivots, rest, parts) for `effort` trials. perm is drawn by
    rng.permutation(n), one trial after another. The other three give the
    reduced row echelon form of the generator with its columns in perm
    order, as the Python-int `row_reduce` of the test oracles gives it:
    pivots at the highest positions first, rows in pivot order. pivots are
    the k pivot positions, descending; rest the other n - k positions,
    ascending; and parts the rows' bits at rest as a
    (ceil((n - k)/64), k) uint64 array, row t in column t.

    `batch` trials are eliminated together in column form, one position j
    from n - 1 down: if column j has a bit in a row r not yet pivoted (the
    lowest such r), every column left of j with bit r set becomes
    c ^ col_j ^ e_r. Columns right of j are final by then. The rows keep
    the generator's labels; label[j] is the row pivoted at j, so reading it
    down the pivots puts the rows in pivot order.
    """
    words, n = cols.shape
    for first in range(0, effort, batch):
        perms = [rng.permutation(n) for _ in range(min(batch, effort - first))]
        x = cols[:, np.stack(perms)]  # (words, trial, position)
        t = np.arange(len(perms))
        used = np.zeros((words, len(perms)), dtype=cols.dtype)
        label = np.full((n, len(perms)), -1)  # the row pivoted at each position, -1 for none
        found = np.zeros(len(perms), dtype=np.intp)
        for j in range(n - 1, -1, -1):
            if found.min() == k:
                break
            col = x[:, :, j]
            free = col & ~used
            has = free != 0
            w = has.argmax(axis=0)
            has = has[w, t]
            low = free[w, t]
            low &= ~low + 1  # the lowest free bit, 0 when there is none
            r = np.bitwise_count(low - 1) & 63
            delta = col * has
            delta[w, t] ^= low
            x[:, :, :j] ^= ((x[w, t, :j] >> r[:, None]) & 1) * delta[:, :, None]
            used[w, t] |= low
            label[j] = np.where(has, 64 * w + r, -1)
            found += has
        for i, perm in enumerate(perms):
            pivots = n - 1 - np.flatnonzero(label[::-1, i] >= 0)
            rest = np.flatnonzero(label[:, i] < 0)
            yield perm, pivots, rest, _transpose_bits(x[:, i, rest])[:, label[pivots, i]]


def bounded_min_distance(c, effort, seed=0, v_candidates=None):
    """BCH lower bound plus a randomized information-set upper bound.

    Each of the `effort` trials permutes the columns, row-reduces to a
    systematic form, and scans all codewords built from messages of weight
    at most 3. The trials are row-reduced in batches of about
    PAIR_BLOCK_WORDS words and scanned in order; the search stops once the
    best word reaches the lower bound. Deterministic for a fixed seed;
    effort 0 reports the first generator row itself as the upper witness,
    reads no other row and builds no random generator. Raises ValueError
    for a negative effort, and before allocating when the packed generator
    rows and columns, one batch of permuted columns and one trial's reduced
    rows would exceed ISD_MEMORY_BUDGET bytes.
    """
    if effort < 0:
        raise ValueError(f"effort must be a non-negative integer, got {effort}")
    n, k = c.n, c.k
    words = -(-k // 64)
    batch = max(1, PAIR_BLOCK_WORDS // max(1, words * n))
    # 8-byte words: the generator rows, their columns and a batch of permuted copies, one trial's reduced rows
    need = 8 * (k * -(-n // 64) + (1 + batch) * words * n + -(-(n - k) // 64) * k)
    if effort and need > ISD_MEMORY_BUDGET:
        raise ValueError(f"information-set search on a [{n},{k}] code needs about {need >> 20} MiB, "
                         f"over the {ISD_MEMORY_BUDGET >> 20} MiB budget; effort 0 needs only one row")
    base = c.base if isinstance(c, ExtendedCode) else c
    cert = best_certificate(base.T, v_candidates)
    lower = cert.d_lower
    if isinstance(c, ExtendedCode):
        lower += lower & 1  # extended weights are even

    best_word = c.generator_row(0)
    best_w = best_word.bit_count()
    if effort and best_w > lower:
        trials = _reduced_trials(_generator_columns(c), k, effort, np.random.default_rng(seed), batch)
        for perm, pivots, rest, parts in trials:
            chosen = list(_light_messages_best(parts))
            # the word's support: the chosen rows' pivots and the positions where their parts xor to 1
            hot = np.unpackbits(np.bitwise_xor.reduce(parts[:, chosen], axis=1).view(np.uint8),
                                count=len(rest), bitorder="little")
            support = perm[np.concatenate([pivots[chosen], rest[hot.astype(bool)]])]
            if len(support) < best_w:
                word = np.zeros(n, dtype=bool)
                word[support] = True
                best_word, best_w = from_bool(word), len(support)
                if best_w <= lower:
                    break
    if not c.contains(best_word):
        raise AssertionError("information-set witness failed codeword verification")
    if best_w < lower:
        raise AssertionError("found a codeword below the BCH lower bound")
    return CertifiedBound(
        lower=lower, upper=best_w, witness=best_word, method="bch+information-set", seed=seed, effort=effort,
    )


def _light_messages_best(rows):
    """Lightest combination of at most 3 reduced rows, as a tuple of row
    indices: the first lightest in the order rows, pairs, triples, each in
    combinations order.

    Each row is given by its bits off the pivots, packed word-major into a
    (W, k) uint64 array, row i in column i. Every reduced row has one pivot
    bit of its own, so a combination of p rows weighs p plus the weight of
    the xor of their columns.

    A block is a range of pair positions in combinations order, at most
    PAIR_BLOCK_WORDS words (or one pair); each pair (j, l) is read off its
    position and the block is one gather-xor of rows j and l. For each i,
    the triples (i, j, l) with j > i are a suffix of the block and take one
    xor against row i. The best candidate is the minimum (weight, stage,
    combination), stage 1/2/3 for rows/pairs/triples.
    """
    words, k = rows.shape
    size = max(1, PAIR_BLOCK_WORDS // words)
    pairs, triples = np.empty((words, size), dtype=rows.dtype), np.empty((words, size), dtype=rows.dtype)
    counts = np.empty((words, max(size, k)), dtype=np.uint8)
    weights = np.empty(max(size, k), dtype=np.min_scalar_type(64 * words))

    def lightest(block):
        """(weight, index) of the first lightest column of block."""
        cols = block.shape[1]
        np.bitwise_count(block, out=counts[:, :cols])
        np.add.reduce(counts[:, :cols], axis=0, out=weights[:cols])
        p = int(weights[:cols].argmin())
        return int(weights[p]), p

    w, i = lightest(rows)
    best = (w + 1, 1, (i,))
    run_start = np.cumsum([0, *range(k - 1, 0, -1)])  # position of pair (j, j + 1)
    total = int(run_start[-1])
    for first in range(0, total, size):
        q = np.arange(first, min(first + size, total))
        j = np.searchsorted(run_start, q, "right") - 1
        l = q - run_start[j] + j + 1
        block = pairs[:, :len(q)]
        np.take(rows, j, axis=1, out=block)
        np.bitwise_xor(block, np.take(rows, l, axis=1, out=triples[:, :len(q)]), out=block)
        w, p = lightest(block)
        best = min(best, (w + 2, 2, (int(j[p]), int(l[p]))))
        for i, s in enumerate(np.searchsorted(j, np.arange(j[-1]), "right").tolist()):  # the pairs with j > i
            out = triples[:, s:len(q)]
            np.bitwise_xor(block[:, s:], rows[:, i:i + 1], out=out)
            w, p = lightest(out)
            if w + 3 <= best[0]:
                best = min(best, (w + 3, 3, (i, int(j[s + p]), int(l[s + p]))))
    return best[2]
