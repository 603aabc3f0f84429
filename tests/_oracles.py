"""Slow, obviously correct references that the tests check the library against."""

import numpy as np

from duadic.code import row_reduce


def rank(rows):
    return len(row_reduce(rows)[0])


def matrix_product_is_zero(rows_a, rows_b):
    """Explicit A * B^T = 0 over GF(2); the small-scale oracle for the
    lag-based self-orthogonality shortcut."""
    return all((ra & rb).bit_count() % 2 == 0 for ra in rows_a for rb in rows_b)


def evaluate(fld, p, x):
    """Horner evaluation of p at the field element x."""
    acc = 0
    for d in range(p.bit_length() - 1, -1, -1):
        acc = fld.mul(acc, x) ^ ((p >> d) & 1)
    return acc


def eval_at_powers(fld, p, exponents=None):
    """Evaluate p at alpha^e for each exponent e, vectorized over all points.

    Returns a uint32 array of field elements; exponents defaults to all of Z_n.
    """
    n = fld.n
    if exponents is None:
        exponents = np.arange(n, dtype=np.int64)
    else:
        exponents = np.asarray(exponents, dtype=np.int64) % n
    antilog = fld.antilog_table
    log = fld.log_table
    acc = np.zeros(len(exponents), dtype=np.uint32)
    for d in range(p.bit_length() - 1, -1, -1):
        nz = acc != 0
        acc[nz] = antilog[(log[acc[nz]].astype(np.int64) + exponents[nz]) % n]
        if (p >> d) & 1:
            acc ^= 1
    return acc
