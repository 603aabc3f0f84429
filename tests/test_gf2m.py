import math
import random

import pytest

from duadic.gf2m import GF2m, _prime_factors, field, smallest_primitive_modulus

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
    assert f.pow_alpha(0) == 1
    for p in ORDER_FACTORS[m]:
        assert f.pow_alpha(n // p) != 1


def test_tables_are_inverse_bijections():
    f = field(8)
    assert f.pow_alpha(0) == 1
    seen = set()
    for e in range(f.n):
        a = f.pow_alpha(e)
        assert f.log(a) == e
        seen.add(a)
    assert len(seen) == f.n


def test_log_of_zero_is_an_error():
    f = field(5)
    with pytest.raises(ValueError):
        f.log(0)
    with pytest.raises(ValueError):
        f.log(1 << 5)


def test_char2_addition():
    f = field(6)
    rng = random.Random(0)
    for _ in range(50):
        a = rng.randrange(1 << 6)
        assert f.add(a, a) == 0


def test_exponent_arithmetic_m3():
    f = field(3)
    assert f.mul(f.pow_alpha(3), f.pow_alpha(5)) == f.pow_alpha(1)


def test_field_axioms_sampled():
    f = field(5)
    rng = random.Random(1)
    one = 1
    for _ in range(200):
        a, b, c = (rng.randrange(32) for _ in range(3))
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.mul(a, one) == a
        if a:
            assert f.mul(a, f.inv(a)) == one


def test_frobenius():
    for m in (3, 7, 11):
        f = field(m)
        rng = random.Random(m)
        for _ in range(100):
            a, b = rng.randrange(1 << m), rng.randrange(1 << m)
            lhs = f.mul(f.add(a, b), f.add(a, b))
            rhs = f.add(f.mul(a, a), f.mul(b, b))
            assert lhs == rhs


def test_gcd_identity_of_two_power_orders():
    # gcd(2^m - 1, 2^l - 1) = 2^gcd(m, l) - 1, backing the coprimality of the
    # certified differences with n.
    for m in range(1, 21):
        for l in range(1, 21):
            assert math.gcd((1 << m) - 1, (1 << l) - 1) == (1 << math.gcd(m, l)) - 1


def test_field_cache_returns_same_instance():
    assert field(9) is field(9)
