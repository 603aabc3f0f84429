import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duadic import gf2m
from duadic.gf2m import GF2m, _mulmod, _prime_factors, field, smallest_primitive_modulus

from _oracles import antilog_table, field_mul, log_table

# Prime factors of 2^m - 1 for every supported degree, kept by hand as the
# reference for the trial division that `smallest_primitive_modulus` uses.
ORDER_FACTORS = {
    2: (3,),
    3: (7,),
    4: (3, 5),
    5: (31,),
    6: (3, 7),
    7: (127,),
    8: (3, 5, 17),
    9: (7, 73),
    10: (3, 11, 31),
    11: (23, 89),
    12: (3, 5, 7, 13),
    13: (8191,),
    14: (3, 43, 127),
    15: (7, 31, 151),
    16: (3, 5, 17, 257),
    17: (131071,),
    18: (3, 7, 19, 73),
    19: (524287,),
    20: (3, 5, 11, 31, 41),
}

# Frozen output of an independent exhaustive search (order-of-x checked by
# walking all powers for m <= 14, by factored order checks above).
SMALLEST_PRIMITIVE = {
    2: 0x7, 3: 0xB, 4: 0x13, 5: 0x25, 6: 0x43, 7: 0x83, 8: 0x11D,
    9: 0x211, 10: 0x409, 11: 0x805, 12: 0x1053, 13: 0x201B, 14: 0x402B,
    15: 0x8003, 16: 0x1002D, 17: 0x20009, 18: 0x40027, 19: 0x80027,
    20: 0x100009,
}


@pytest.mark.parametrize("m,expected", sorted(SMALLEST_PRIMITIVE.items()))
def test_smallest_primitive_modulus(m, expected):
    assert smallest_primitive_modulus(m) == expected


@pytest.mark.parametrize("m", [0, 1, 21, -3])
def test_degree_out_of_range_rejected(m):
    with pytest.raises(ValueError):
        GF2m(m)


def test_factor_table_consistent():
    for m, primes in ORDER_FACTORS.items():
        n = (1 << m) - 1
        assert tuple(_prime_factors(n)) == primes
        rest = n
        for p in primes:
            assert n % p == 0
            while rest % p == 0:
                rest //= p
        assert rest == 1


@pytest.mark.parametrize("m", range(2, 21))
def test_alpha_has_full_order(m):
    f = field(m)
    n = f.n
    assert int(f.antilog_table[0]) == 1 and int(f.antilog_table[1]) == 2  # alpha = x
    for p in ORDER_FACTORS[m]:
        assert int(f.antilog_table[n // p]) != 1


@pytest.mark.parametrize("m", range(2, 21))
def test_antilog_and_log_tables_are_inverse(m):
    # the field keeps no log table; the tests' one inverts the antilog table
    f = field(m)
    antilog, log = f.antilog_table, log_table(f)
    assert antilog.shape == (f.n,) and log.shape == (1 << m,)
    # antilog maps Z_n one-to-one onto the nonzero elements 1..2^m - 1
    assert np.array_equal(np.sort(antilog), np.arange(1, 1 << m))
    assert np.array_equal(log[antilog], np.arange(f.n))
    assert log[0] == -1  # zero has no discrete log
    assert not hasattr(f, "log_table")


@pytest.mark.parametrize("m", range(2, 21))
def test_antilog_table_follows_the_recurrence(m):
    # a[e + 1] = x * a[e] mod the modulus over the whole table at once, and
    # alpha^n = 1 closes the cycle
    f = field(m)
    a = f.antilog_table.astype(np.int64)
    step = a << 1
    step ^= np.where(step >> m, f.modulus, 0)
    assert a[0] == 1 and step[-1] == 1
    assert np.array_equal(step[:-1], a[1:])


@pytest.mark.parametrize("m", range(2, 21))
def test_doubling_fill_equals_the_power_by_power_loop(m):
    # from alpha^0 alone, one `_times_constant` pass per doubling of the filled prefix, at every m
    with mock.patch.object(gf2m, "_times_constant", wraps=gf2m._times_constant) as times:
        f = GF2m(m)
    assert np.array_equal(f.antilog_table, antilog_table(m, f.modulus))
    assert times.call_count == math.ceil(math.log2(f.n)) == m


_elements = st.integers(2, 20).flatmap(
    lambda m: st.tuples(st.just(m), *(st.integers(0, (1 << m) - 1) for _ in range(3)))
)


@settings(max_examples=300, deadline=None)
@given(_elements)
def test_field_axioms_sampled(sample):
    # the table product agrees with the independent carry-less product
    # reduced by the modulus, and obeys the field axioms
    m, a, b, c = sample
    f = field(m)
    assert field_mul(f, a, b) == _mulmod(a, b, f.modulus, m)
    assert field_mul(f, a, b) == field_mul(f, b, a)
    assert field_mul(f, field_mul(f, a, b), c) == field_mul(f, a, field_mul(f, b, c))
    assert field_mul(f, a, b ^ c) == field_mul(f, a, b) ^ field_mul(f, a, c)
    assert field_mul(f, a, 1) == a
    if a:
        assert field_mul(f, a, int(f.antilog_table[-int(log_table(f)[a]) % f.n])) == 1


@settings(max_examples=300, deadline=None)
@given(_elements)
def test_frobenius(sample):
    # squaring is additive: (a + b)^2 = a^2 + b^2 in characteristic 2
    m, a, b, _ = sample
    f = field(m)
    assert field_mul(f, a ^ b, a ^ b) == field_mul(f, a, a) ^ field_mul(f, b, b)


def test_gcd_identity_of_two_power_orders():
    # gcd(2^m - 1, 2^l - 1) = 2^gcd(m, l) - 1, backing the coprimality of the
    # certified differences with n.
    for m in range(1, 21):
        for l in range(1, 21):
            assert math.gcd((1 << m) - 1, (1 << l) - 1) == (1 << math.gcd(m, l)) - 1


def test_field_cache_returns_same_instance():
    assert field(9) is field(9)
