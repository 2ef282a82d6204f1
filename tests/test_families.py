import ast
import inspect
import itertools
import re
import tracemalloc

import numpy as np
import pytest

from chibox import (
    FamilyParseError,
    FamilySpec,
    ThetaComb,
    TruthTable,
    build,
    comb_to_table,
    compose,
    identity_table,
    is_permutation,
    make_cchi,
    make_chi,
    make_chi_nm,
    make_chi_prime3,
    make_concat,
    make_theta,
    parse_family,
    pointwise_add,
    spec_string,
    table_degree,
    thetagroup,
)
from chibox.cli import main
from chibox.families import FAMILIES

import golden
import oracles


def test_chi_small_tables():
    assert list(make_chi(3).entries) == [0, 3, 6, 1, 5, 4, 2, 7]
    assert make_chi(5)[3] == 11
    assert compose(make_chi(3), make_chi(3)) == identity_table(3)


def test_chi_nm_spot_values():
    assert make_chi_nm(5, 3)[8] == 9
    assert make_chi_nm(5, 2) == make_chi(5)
    # chi_n is built as chi_{n,2}: same windows in the same order, so the same table
    for n in range(3, 17):
        assert np.array_equal(make_chi(n).entries, make_chi_nm(n, 2).entries), n
    with pytest.raises(ValueError, match="chi needs n >= 3, got 2"):
        make_chi(2)


def test_chi_nm_is_theta0_plus_theta1():
    for n in range(3, 13):
        for m in range(2, n):
            lhs = make_chi_nm(n, m)
            rhs = pointwise_add(make_theta(n, m, 0), make_theta(n, m, 1))
            assert lhs == rhs


def test_theta_zero_power_is_identity():
    for n in (3, 5, 8):
        for m in (2, 3):
            assert make_theta(n, m, 0) == identity_table(n)


def test_theta_vanishing_when_m_coprime():
    for n in range(3, 13):
        for m in range(2, n):
            if n % m == 0:
                continue
            for k in range(0, 2 * (n // m) + 3):
                t = make_theta(n, m, k)
                assert (t == TruthTable(n, np.zeros(1 << n, dtype=np.int64))) == (m * k > n)


def test_theta_survives_wrap_when_m_divides_n():
    # with m | n the wrapped window can miss every inverted factor, so the
    # vanishing rule above genuinely needs the non-divisibility hypothesis
    t = make_theta(4, 2, 3)
    assert t != TruthTable(4, [0] * 16)
    assert table_degree(t) == 3


def test_theta_parameter_cap():
    with pytest.raises(ValueError):
        make_theta(8, 3, 25)
    with pytest.raises(ValueError):
        make_theta(8, 25, 1)


def test_permutation_iff_m_does_not_divide_n():
    for n in range(4, 13):
        for m in range(2, min(n, 9)):
            ok, _ = is_permutation(make_chi_nm(n, m))
            assert ok == (n % m != 0), (n, m)


def test_involution_iff_short_window():
    # chi_{n,m} squares to the identity exactly when n < 2m
    for n in range(3, 11):
        for m in range(2, n):
            if n % m == 0:
                continue
            f = make_chi_nm(n, m)
            assert (compose(f, f) == identity_table(n)) == (n < 2 * m), (n, m)
    f = make_chi_nm(6, 4)
    assert compose(f, f) == identity_table(6)


def test_chi_prime3_spot_values():
    f = make_chi_prime3(5)
    assert f[0] == 0
    assert f[31] == 31
    assert table_degree(f) == 3
    ok, _ = is_permutation(f)
    assert ok


def test_cchi_basics():
    f = make_cchi(8)
    ok, _ = is_permutation(f)
    assert ok
    assert table_degree(f) == 2
    assert compose(f, f) != identity_table(8)
    g = make_cchi(12)
    ok, _ = is_permutation(g)
    assert ok
    assert table_degree(g) == 2


def test_tables_match_the_full_word_references():
    # every window on the half-word product terms equals the rotated-word table
    for n in range(1, 13):
        if n >= 3:
            assert make_chi(n) == oracles.windowed(n, [2], [1], linear=True)
        if n >= 4:
            assert make_chi_prime3(n) == oracles.windowed(n, [1, 2], [3], linear=True)
        for m in range(2, n + 3):
            if m < n:
                assert make_chi_nm(n, m) == oracles.windowed(n, [m], range(1, m), linear=True)
            ell = n // m
            for k in range(2 * ell + 3):  # past the wrap, m | n and m > n included
                assert make_theta(n, m, k) == oracles.theta(n, m, k), (n, m, k)
            if ell > 5:
                continue
            refs = [oracles.theta(n, m, k).entries for k in range(ell + 1)]
            for coeffs in itertools.product((0, 1), repeat=ell + 1):
                want = np.zeros(1 << n, dtype=np.int64)
                for ref, a in zip(refs, coeffs):
                    want ^= ref * a
                assert np.array_equal(comb_to_table(ThetaComb(n, m, coeffs)).entries, want), (n, m, coeffs)
    for n in (8, 12, 16):
        assert make_cchi(n) == oracles.cchi(n)


@pytest.mark.parametrize(
    "make",
    [
        lambda: make_chi_nm(16, 3),
        lambda: make_cchi(16),
        lambda: comb_to_table(ThetaComb(16, 3, "111111")),
        lambda: build(parse_family("comb:16:3:111111")),
    ],
    ids=["chi_nm:16:3", "cchi:16", "comb:16:3:111111", "build comb:16:3:111111"],
)
def test_build_peak_memory(make):
    # the output plus either one term's outer AND or the table's own copy; no full-word scratch
    make()
    tracemalloc.start()
    try:
        make()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * (1 << 16), peak


def test_cchi_rejects_bad_sizes():
    for n in (4, 6, 7, 9, 10, 14):
        with pytest.raises(ValueError):
            make_cchi(n)


def test_concat_places_first_part_low():
    f = make_concat([make_chi(3), make_chi(5)])
    a = make_chi(3)
    b = make_chi(5)
    assert f.n == 8
    for x in range(256):
        assert f[x] == (a[x & 7] | (b[x >> 3] << 3))
    ok, _ = is_permutation(f)
    assert ok


def test_concat_validation():
    with pytest.raises(ValueError):
        make_concat([])
    with pytest.raises(ValueError, match="concat dimension 25 exceeds the cap 24"):
        make_concat([make_chi(13), make_chi(12)])


@pytest.mark.parametrize(
    "spec, total",
    [
        ("concat(chi:24,chi:24)", 48),
        ("concat(chi:24,chi:2)", 26),
        ("concat(concat(chi:20,chi:20),chi:3)", 43),
    ],
)
def test_concat_over_the_cap_is_refused_before_any_part_is_built(spec, total):
    # the sum of the parts is known from the spec, so no 2^24-word part is made
    fs = parse_family(spec)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="concat dimension %d exceeds the cap 24" % total):
            build(fs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_concat_refuses_a_bad_part_before_building_a_larger_one():
    # parts are built smallest first, so chi:-3 is refused before chi:20 exists
    fs = parse_family("concat(chi:20,chi:-3)")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="chi needs n >= 3, got -3"):
            build(fs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * (1 << 20), peak
    # of two faulty parts, the smaller one is named
    with pytest.raises(ValueError, match="chi needs n >= 3, got -3"):
        build(parse_family("concat(chi:2,chi:-3)"))


def test_concat_assembles_parts_in_spec_order():
    # built smallest first, placed as written: first part lowest bits
    f = build(parse_family("concat(chi:5,chi:3,chi:5)"))
    assert f == make_concat([make_chi(5), make_chi(3), make_chi(5)])
    assert f != make_concat([make_chi(3), make_chi(5), make_chi(5)])


def test_parse_round_trip():
    texts = (
        "chi:5",
        "chi_nm:8:3",
        "theta:8:3:2",
        "chi_prime3:7",
        "cchi:8",
        "comb:7:3:111",
        "comb:8:3:011",
        "concat(chi:3,chi:3)",
        "concat(comb:5:2:101,chi:3)",
        "concat(chi:3,concat(chi:4,chi_nm:5:3))",
        "concat(" * 24 + "chi:3" + ")" * 24,
    )
    for text in texts:
        fs = parse_family(text)
        assert spec_string(fs) == text
        build(fs)
    assert {parse_family(text).family for text in texts} == set(FAMILIES) | {"concat"}


def test_parse_matches_direct_constructors():
    assert build(parse_family("chi:5")) == make_chi(5)
    assert build(parse_family("chi_nm:8:3")) == make_chi_nm(8, 3)
    assert build(parse_family("theta:8:3:1")) == make_theta(8, 3, 1)
    assert build(parse_family("chi_prime3:6")) == make_chi_prime3(6)
    assert build(parse_family("cchi:8")) == make_cchi(8)
    assert build(parse_family("comb:8:3:101")) == pointwise_add(make_theta(8, 3, 0), make_theta(8, 3, 2))
    assert build(parse_family("concat(chi:3,chi:3)")) == make_concat([make_chi(3), make_chi(3)])


def test_parse_errors():
    for text in (
        "",
        "bogus:5",
        "chi",
        "chi:",
        "chi:x",
        "chi:5:2",
        "concat()",
        "concat(chi:3",
        "concat(chi:3,)",
        "chi:5 trailing",
        "theta:8:3",
        "comb:7:3",
        "comb:7:3:1:1",
        "comb:x:3:1",
        "concat(" * 25 + "chi:3" + ")" * 25,
    ):
        with pytest.raises(FamilyParseError):
            parse_family(text)


@pytest.mark.parametrize("n, m, coeffs", [(7, 3, "11"), (7, 1, "1111"), (7, 3, "1x1")])
def test_comb_build_errors_are_the_messages_group_prints(capsys, n, m, coeffs):
    spec = "comb:%d:%d:%s" % (n, m, coeffs)
    with pytest.raises(ValueError) as exc:
        build(parse_family(spec))
    assert not isinstance(exc.value, FamilyParseError)
    err = "error: %s\n" % exc.value
    assert main(["construct", spec]) == 3 and capsys.readouterr().err == err
    assert main(["group", "--n", str(n), "--m", str(m), "--coeffs", coeffs, "order"]) == 3
    assert capsys.readouterr().err == err


def test_every_family_is_documented_and_thetagroup_uses_no_private_family_name(capsys):
    with pytest.raises(SystemExit):
        main(["construct", "-h"])
    help_text = capsys.readouterr().out
    for key in FAMILIES:
        label = re.compile(r"(?<![\w])%s:" % re.escape(key))
        assert label.search(parse_family.__doc__), key
        assert label.search(help_text), key
    private = []
    for node in ast.walk(ast.parse(inspect.getsource(thetagroup))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("families"):
            private += [a.name for a in node.names if a.name.startswith("_")]
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "families":
            private += [node.attr] if node.attr.startswith("_") else []
    assert not private


def test_build_rejects_out_of_range_parameters():
    # parse accepts the shape, construction enforces the ranges
    with pytest.raises(ValueError):
        build(parse_family("chi:2"))
    with pytest.raises(ValueError):
        build(parse_family("chi:25"))
    with pytest.raises(ValueError):
        build(parse_family("chi_nm:5:5"))
    with pytest.raises(ValueError):
        build(parse_family("chi_nm:5:1"))
    with pytest.raises(ValueError):
        build(parse_family("cchi:10"))
    with pytest.raises(ValueError):
        build(parse_family("concat(chi:13,chi:12)"))


@pytest.mark.parametrize(
    "call, exc, match",
    [
        (lambda: make_theta(8, 1, 1), ValueError, "theta needs m >= 2 and k >= 0"),
        (lambda: make_theta(8, 3, -1), ValueError, "theta needs m >= 2 and k >= 0"),
        (lambda: make_chi_prime3(3), ValueError, "chi_prime3 needs n >= 4"),
        (lambda: parse_family("concat(chi:3))"), FamilyParseError, "unbalanced parentheses"),
        (lambda: parse_family("concat((chi:3)"), FamilyParseError, "unbalanced parentheses"),
        (lambda: build(FamilySpec("frob")), ValueError, "unknown family 'frob'"),
    ],
)
def test_rejects_invalid_input(call, exc, match):
    with pytest.raises(exc, match=match):
        call()


def test_family_spec_is_plain_data():
    fs = FamilySpec(family="chi", n=5)
    assert spec_string(fs) == "chi:5"


def test_benchmark_degrees():
    for name in golden.FUNCTIONS:
        f = build(parse_family(golden.SPEC[name]))
        assert f.n == golden.N[name]
        assert table_degree(f) == golden.DEGREE[name]
