import itertools

import numpy as np
import pytest

import chibox.thetagroup
from chibox import (
    NonUnitError,
    ThetaComb,
    bitstring,
    chi_comb,
    comb_degree,
    comb_to_table,
    compose,
    element_order,
    fixed_points,
    group_inverse,
    group_mul,
    group_pow,
    identity_comb,
    identity_table,
    invert,
    is_involution,
    is_permutation,
    iterate,
    iterate_coeffs,
    make_chi_nm,
    make_theta,
    order_exponent,
    pointwise_add,
    predicate_fixed_set,
    table_degree,
)

import golden
import oracles
from oracles import fixed_point_predicate


def coprime_pairs(n_max):
    for n in range(3, n_max + 1):
        for m in range(2, n):
            if n % m != 0:
                yield n, m


def all_units(n, m):
    ell = n // m
    for bits in itertools.product((0, 1), repeat=ell):
        yield ThetaComb(n, m, (1,) + bits)


def test_comb_construction_and_validation():
    c = ThetaComb(8, 3, (1, 1, 0))
    assert c.ell == 2
    assert c.is_unit()
    assert bitstring(c) == "110"
    assert ThetaComb(8, 3, "110") == c
    with pytest.raises(ValueError):
        ThetaComb(8, 3, (1, 1))
    with pytest.raises(ValueError):
        ThetaComb(8, 3, (1, 2, 0))
    with pytest.raises(ValueError):
        ThetaComb(8, 1, (1, 1))
    with pytest.raises(ValueError):
        ThetaComb(8, 3, "1x0")
    assert not ThetaComb(8, 3, (0, 1, 0)).is_unit()


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: ThetaComb(0, 3, (1,)), "n must be positive, got 0"),
        (lambda: predicate_fixed_set(8, 3, -1), "j must be non-negative"),
        # m <= 0 is refused before floor(n/m) is taken
        (lambda: identity_comb(8, 0), "m must be at least 2, got 0"),
        (lambda: chi_comb(8, 0), "m must be at least 2, got 0"),
        (lambda: order_exponent(8, 0), "m must be at least 2, got 0"),
        (lambda: iterate_coeffs(8, 0, 1), "m must be at least 2, got 0"),
        (lambda: predicate_fixed_set(8, 0, 1), "m must be at least 2, got 0"),
        (lambda: order_exponent(8, -3), "m must be at least 2, got -3"),
    ],
)
def test_rejects_invalid_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_identity_and_chi_combs():
    ident = identity_comb(8, 3)
    assert ident.coeffs == (1, 0, 0)
    assert comb_to_table(ident) == identity_table(8)
    chi = chi_comb(8, 3)
    assert chi.coeffs == (1, 1, 0)
    assert comb_to_table(chi) == make_chi_nm(8, 3)
    with pytest.raises(ValueError):
        chi_comb(3, 4)


def test_comb_to_table_is_theta_sum():
    for n, m in ((5, 3), (8, 3), (9, 2)):
        ell = n // m
        coeffs = tuple(1 if j % 2 == 0 else 0 for j in range(ell + 1))
        c = ThetaComb(n, m, coeffs)
        want = None
        for j, a in enumerate(coeffs):
            if not a:
                continue
            t = make_theta(n, m, j)
            want = t if want is None else pointwise_add(want, t)
        assert comb_to_table(c) == want


def test_group_mul_matches_composition():
    rng = np.random.default_rng(23)
    for n, m in coprime_pairs(12):
        ell = n // m
        for _ in range(4):
            a = ThetaComb(n, m, (1,) + tuple(rng.integers(0, 2, size=ell)))
            b = ThetaComb(n, m, (1,) + tuple(rng.integers(0, 2, size=ell)))
            ab = group_mul(a, b)
            assert comb_to_table(ab) == compose(comb_to_table(a), comb_to_table(b))
            assert ab.coeffs == group_mul(b, a).coeffs
        # every pair of units against the coefficient-by-coefficient product
        for a, b in itertools.product(all_units(n, m), repeat=2):
            assert group_mul(a, b).coeffs == oracles.group_mul(a, b).coeffs, (n, m, a.coeffs, b.coeffs)


def test_group_inverse_exhaustive():
    for n, m in coprime_pairs(10):
        ident = identity_comb(n, m)
        for c in all_units(n, m):
            inv = group_inverse(c)
            assert group_mul(c, inv).coeffs == ident.coeffs
            assert group_mul(inv, c).coeffs == ident.coeffs
            assert comb_to_table(inv) == invert(comb_to_table(c))


@pytest.mark.parametrize("n, m", [(1025, 2), (4099, 5), (16385, 2)])
def test_group_laws_at_large_ell(n, m):
    # a seeded random unit of ell up to 8192: inverse on both sides, the
    # order reaches the identity and half the order does not
    rng = np.random.default_rng(n)
    u = ThetaComb(n, m, (1,) + tuple(int(b) for b in rng.integers(0, 2, n // m)))
    ident = identity_comb(n, m)
    inv = group_inverse(u)
    assert group_mul(u, inv) == ident and group_mul(inv, u) == ident
    order = element_order(u)
    assert group_pow(u, order) == ident
    if order > 1:
        assert group_pow(u, order // 2) != ident
    if n == 1025:
        assert group_pow(u, 12345) == oracles.group_pow(u, 12345)


def test_comb_degree_equals_the_materialized_degree():
    checked = 0
    for n in range(1, 13):
        for m in range(2, n + 1):
            if n % m == 0:
                continue
            for c in all_units(n, m):
                for u in (c, group_inverse(c)):
                    assert comb_degree(u) == table_degree(comb_to_table(u)), (n, m, u.coeffs)
                checked += 1
    assert checked == 164
    assert comb_degree(ThetaComb(8, 3, (0, 0, 0))) is None


def test_element_order_exhaustive():
    for n, m in coprime_pairs(10):
        ident = identity_comb(n, m)
        for c in all_units(n, m):
            k, acc = 1, c
            while acc.coeffs != ident.coeffs:
                acc = group_mul(acc, c)
                k += 1
            assert element_order(c) == k
            # orders are powers of two in a 2-group
            assert k & (k - 1) == 0


def test_group_size_distinct_tables():
    for n, m in coprime_pairs(10):
        tables = {comb_to_table(c).entries.tobytes() for c in all_units(n, m)}
        assert len(tables) == 1 << (n // m)


def test_is_involution_matches_tables():
    for n, m in coprime_pairs(10):
        for c in all_units(n, m):
            t = comb_to_table(c)
            assert is_involution(c) == (compose(t, t) == identity_table(n))


def test_chi83_worked_example():
    chi = chi_comb(8, 3)
    inv = group_inverse(chi)
    assert bitstring(inv) == "111"
    square = group_mul(chi, chi)
    assert bitstring(square) == "101"
    assert element_order(chi) == 4
    assert order_exponent(8, 3) == 2
    assert comb_to_table(inv) == invert(make_chi_nm(8, 3))
    assert comb_to_table(square) == iterate(make_chi_nm(8, 3), 2)


def test_iterate_coeffs_matches_materialized_powers():
    for n, m in ((5, 3), (8, 3), (9, 2), (11, 3)):
        chi_table = make_chi_nm(n, m)
        for k in range(0, 33):
            c = iterate_coeffs(n, m, k)
            assert isinstance(c, ThetaComb)
            assert group_pow(chi_comb(n, m), k).coeffs == c.coeffs, (n, m, k)
            assert comb_to_table(c) == iterate(chi_table, k), (n, m, k)


def test_group_pow_reduces_the_power_by_the_order(monkeypatch):
    # a seeded random unit and chi itself, raised to a power of about 4000
    # digits: at most 2*log2(order) products, equal to the reduced power
    rng = np.random.default_rng(7)
    n, m = 65, 2
    unit = ThetaComb(n, m, (1,) + tuple(int(b) for b in rng.integers(0, 2, n // m)))
    k = int(rng.integers(1, 2**62)) << 13000 | 5
    calls = []
    mul = group_mul
    monkeypatch.setattr(chibox.thetagroup, "group_mul", lambda f, g: calls.append(1) or mul(f, g))
    for f in (unit, chi_comb(n, m)):
        order = element_order(f)
        calls.clear()
        got = group_pow(f, k)
        assert len(calls) <= 2 * (order.bit_length() - 1), len(calls)
        want = identity_comb(n, m)
        for _ in range((k - 1) % order + 1):
            want = mul(want, f)
        assert got == want
    assert group_pow(chi_comb(n, m), k) == iterate_coeffs(n, m, k)
    # f^0 is the identity even for a non-unit
    assert group_pow(ThetaComb(8, 3, (0, 1, 0)), 0) == identity_comb(8, 3)


def test_iterate_coeffs_spot_values():
    assert iterate_coeffs(8, 3, 0).coeffs == (1, 0, 0)
    assert iterate_coeffs(8, 3, 1).coeffs == (1, 1, 0)
    assert iterate_coeffs(8, 3, 2).coeffs == (1, 0, 1)
    assert iterate_coeffs(8, 3, 4).coeffs == (1, 0, 0)
    # binomial coefficients mod 2: (1+z)^3 = 1 + z + z^2 + z^3
    assert iterate_coeffs(9, 2, 3).coeffs == (1, 1, 1, 1, 0)
    with pytest.raises(ValueError, match="m must not divide n, got n=6 m=3"):
        iterate_coeffs(6, 3, 2)
    with pytest.raises(ValueError):
        iterate_coeffs(8, 3, -1)


def test_non_unit_rejected():
    z = ThetaComb(8, 3, (0, 1, 0))
    u = chi_comb(8, 3)
    with pytest.raises(NonUnitError):
        group_mul(z, u)
    with pytest.raises(NonUnitError):
        group_inverse(z)
    with pytest.raises(NonUnitError):
        element_order(z)
    with pytest.raises(NonUnitError):
        group_pow(z, 1)
    # the empty product needs no group operation
    assert group_pow(z, 0).coeffs == (1, 0, 0)
    with pytest.raises(ValueError):
        group_mul(u, chi_comb(7, 3))


@pytest.mark.parametrize(
    "op",
    [
        lambda c: group_mul(c, c),
        lambda c: group_pow(c, 1),
        group_inverse,
        element_order,
        is_involution,
    ],
    ids=["group_mul", "group_pow", "group_inverse", "element_order", "is_involution"],
)
def test_group_operations_refuse_m_dividing_n(op):
    # G_{n,m} needs m not dividing n: chi_{8,2} is not even a permutation, so
    # it has no inverse and no order, and the group operations give none
    c = ThetaComb(8, 2, (1, 1, 0, 0, 0))
    assert not is_permutation(comb_to_table(c))[0]
    with pytest.raises(ValueError, match="m must not divide n, got n=8 m=2"):
        op(c)


def test_predicate_matches_enumeration():
    for n, m in coprime_pairs(10):
        chi_table = make_chi_nm(n, m)
        r = order_exponent(n, m)
        for j in range(0, r + 1):
            pred = predicate_fixed_set(n, m, j)
            enum = fixed_points(iterate(chi_table, 1 << j))
            for words in (pred, enum):
                assert words.dtype == np.int64 and (np.diff(words) > 0).all(), (n, m, j)
            assert np.array_equal(pred, enum), (n, m, j)
            # scalar and vector forms agree
            scal = [x for x in range(1 << n) if fixed_point_predicate(n, m, j, x)]
            assert scal == pred.tolist(), (n, m, j)


def test_fixed_points_chi83_frozen():
    pts = fixed_points(make_chi_nm(8, 3))
    assert tuple(pts) == golden.FIXED_CHI83
    assert len(pts) == 48
    assert np.array_equal(predicate_fixed_set(8, 3, 0), pts)
    sq = fixed_points(iterate(make_chi_nm(8, 3), 2))
    assert len(sq) == 192
    assert 255 in sq
    assert set(pts) <= set(sq)
    # x with only coordinate x_5 set is moved by the square
    assert 32 not in sq
    assert np.array_equal(predicate_fixed_set(8, 3, 1), sq)
    # a window wider than the word (w = 3 * 2^j > 8) fixes every word
    for j in (3, 10, 40):
        every = predicate_fixed_set(8, 3, j)
        assert every.dtype == np.int64 and np.array_equal(every, np.arange(256)), j


def test_every_intermediate_power_has_nontrivial_fixed_points():
    # for each j strictly between 0 and the order exponent, chi^{2^j}
    # fixes some word besides the all-zero and all-one constants
    for n, m in coprime_pairs(12):
        r = order_exponent(n, m)
        trivial = {0, (1 << n) - 1}
        for j in range(1, r):
            pts = set(predicate_fixed_set(n, m, j))
            assert pts - trivial, (n, m, j)


def test_fixed_sets_depend_only_on_two_adic_valuation():
    # Fix(chi^k) equals Fix(chi^{2^v}) where 2^v is the largest power of
    # two dividing k
    for n, m in coprime_pairs(10):
        chi_table = make_chi_nm(n, m)
        ord_chi = element_order(chi_comb(n, m))
        for k in range(1, ord_chi + 1):
            v = (k & -k).bit_length() - 1
            lhs = fixed_points(iterate(chi_table, k))
            rhs = fixed_points(iterate(chi_table, 1 << v))
            assert np.array_equal(lhs, rhs), (n, m, k)


def test_predicate_requires_coprime_m():
    with pytest.raises(ValueError):
        fixed_point_predicate(6, 3, 1, 0)
    with pytest.raises(ValueError):
        predicate_fixed_set(6, 3, 1)


def test_predicate_keeps_the_table_size_cap():
    # the wide window (j = 4 at n = 100) goes through the same n <= 24 check
    for n, m, j in ((25, 7, 2), (100, 7, 4)):
        with pytest.raises(ValueError, match="dimension n"):
            predicate_fixed_set(n, m, j)
