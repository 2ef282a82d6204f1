"""Acceptance gate: one test per published claim, one pass/fail line each.

Criteria 1-4 compare the computed spectra of the six benchmark functions
with the published rows of tests/golden.py.  Five published rows fail a
count identity that every true row satisfies; golden.ERRATA lists them,
and there the criterion demands the frozen COMPUTED row, which
tests/test_metrics.py re-derives from the definitions with
tests/oracles.py and which also checks that each of those published rows
still fails its identities.  The boomerang row of cchi:8 passes every
identity yet differs from the BCT of make_cchi(8); nothing in the repo
settles which is wrong, so criterion 3 fails on it with a per-value
diagnostic that names the source of the published cchi:8 rows, the
spectra of chi_3 beside chi_5.  Criterion 9 asserts the fixed-point law that holds at every
(n, m, k) with n <= 12; the claim it replaces fails at chi_{8,3} itself,
which the test also asserts.
"""

import itertools
import time
from decimal import Decimal

import numpy as np

from chibox import (
    ThetaComb,
    anf,
    area_estimate,
    boomerang_spectrum,
    build,
    check_template,
    chi_comb,
    comb_to_table,
    component_degree,
    compose,
    cycle_structure,
    differential_spectrum,
    dlct_spectrum,
    element_order,
    fixed_points,
    group_inverse,
    group_mul,
    identity_comb,
    identity_table,
    invert,
    is_involution,
    is_permutation,
    iterate,
    iterate_coeffs,
    make_cchi,
    make_chi,
    make_chi_nm,
    make_chi_prime3,
    make_theta,
    order_exponent,
    parse_family,
    pointwise_add,
    predicate_fixed_set,
    shipped_libraries,
    table_degree,
    walsh_spectrum,
)

import golden

SPECTRUM = {
    "differential": differential_spectrum,
    "walsh": walsh_spectrum,
    "boomerang": boomerang_spectrum,
    "dlct": dlct_spectrum,
}


def build_named(name):
    return build(parse_family(golden.SPEC[name]))


def coprime_pairs(n_max):
    for n in range(3, n_max + 1):
        for m in range(2, n):
            if n % m != 0:
                yield n, m


def expected_row(key):
    """The row a criterion demands: the true row for an erratum, else the published one."""
    return golden.COMPUTED[key] if key in golden.ERRATA else golden.PUBLISHED[key]


def describe_row_mismatch(name, metric, got_head, got_row):
    key = (name, metric)
    want_head, want_row = expected_row(key)
    n = golden.N[name]
    if key in golden.ERRATA:
        want = "corrected"
        lines = ["%s %s (erratum: %s):" % (golden.SPEC[name], metric, golden.ERRATA[key].reason)]
    else:
        want = "published"
        lines = ["%s %s:" % (golden.SPEC[name], metric)]
    if got_head != want_head:
        lines.append("  headline: computed %d, %s %d" % (got_head, want, want_head))
    for v in sorted(set(got_row) | set(want_row)):
        g, w = got_row.get(v, 0), want_row.get(v, 0)
        if g != w:
            lines.append("  value %d: computed count %d, %s count %d" % (v, g, want, w))
    dom = golden.domain_size(metric, n)
    lines.append(
        "  counts: computed total %d, %s total %d, domain size %d"
        % (sum(got_row.values()), want, sum(want_row.values()), dom)
    )
    if metric == "walsh":
        lines.append(
            "  signed first moment: computed %d, %s %d, required %d"
            % (
                sum(v * c for v, c in got_row.items()),
                want,
                sum(v * c for v, c in want_row.items()),
                1 << (2 * n),
            )
        )
    got_broken = golden.broken_identities(name, metric, got_row)
    want_broken = golden.broken_identities(name, metric, want_row)
    lines.append(
        "  identities broken: computed %s, %s %s"
        % (got_broken or "none", want, want_broken or "none")
    )
    if not got_broken and not want_broken:
        lines.append("  no count identity tells the two rows apart")
    if name == "cchi8":
        lines.append(
            "  all four published cchi:8 rows are the spectra of concat(chi:3,chi:5), chi_3 on the low 3 bits"
            " (test_metrics.py::test_published_cchi8_rows_are_the_spectra_of_chi3_beside_chi5)"
        )
    return "\n".join(lines)


def check_against_reference(metric, budget_each):
    failures = []
    for name in golden.FUNCTIONS:
        t0 = time.perf_counter()
        rep = SPECTRUM[metric](build_named(name))
        elapsed = time.perf_counter() - t0
        assert elapsed < budget_each, (name, metric, elapsed)
        got = (rep["headline"], dict(rep["spectrum"]))
        if got != expected_row((name, metric)):
            failures.append(describe_row_mismatch(name, metric, *got))
    return failures


def test_01_differential_spectra():
    heads = tuple(SPECTRUM["differential"](build_named(n))["headline"] for n in golden.FUNCTIONS)
    assert heads == (8, 14, 38, 16, 112, 64)
    failures = check_against_reference("differential", 1.0)
    assert not failures, "\n" + "\n".join(failures)


def test_02_walsh_spectra():
    heads = tuple(SPECTRUM["walsh"](build_named(n))["headline"] for n in golden.FUNCTIONS)
    assert heads == (8, 4, 4, 16, 32, 64)
    failures = check_against_reference("walsh", 1.0)
    assert not failures, "\n" + "\n".join(failures)


def test_03_boomerang_spectra():
    heads = tuple(SPECTRUM["boomerang"](build_named(n))["headline"] for n in golden.FUNCTIONS)
    assert heads == (16, 24, 58, 64, 224, 256)
    failures = check_against_reference("boomerang", 30.0)
    assert not failures, "\n" + "\n".join(failures)


def test_04_dlct_spectra():
    heads = tuple(SPECTRUM["dlct"](build_named(n))["headline"] for n in golden.FUNCTIONS)
    assert heads == (16, 16, 32, 32, 128, 128)
    failures = check_against_reference("dlct", 5.0)
    assert not failures, "\n" + "\n".join(failures)


def test_05_cchi8_inverse_component_degrees():
    t0 = time.perf_counter()
    a = anf(invert(make_cchi(8)))
    degrees = {component_degree(a, mask) for mask in range(1, 256)}
    assert time.perf_counter() - t0 < 5.0
    assert degrees == {4}


def test_06_chi83_worked_example():
    chi = make_chi_nm(8, 3)
    assert cycle_structure(chi)["order"] == 4
    assert table_degree(chi) == 3
    inv_comb = group_inverse(chi_comb(8, 3))
    assert inv_comb.coeffs == (1, 1, 1)
    inv_table = pointwise_add(
        pointwise_add(make_theta(8, 3, 0), make_theta(8, 3, 1)), make_theta(8, 3, 2)
    )
    assert invert(chi) == inv_table
    assert comb_to_table(inv_comb) == inv_table
    assert table_degree(inv_table) == 5
    square = pointwise_add(make_theta(8, 3, 0), make_theta(8, 3, 2))
    assert iterate(chi, 2) == square
    assert square[255] == 255


def test_07_permutation_criterion():
    t0 = time.perf_counter()
    for n in range(4, 13):
        for m in range(2, min(n, 9)):
            ok, _ = is_permutation(make_chi_nm(n, m))
            assert ok == (n % m != 0), (n, m)
    assert time.perf_counter() - t0 < 10.0


def test_08_group_laws():
    t0 = time.perf_counter()
    for n, m in coprime_pairs(10):
        ell = n // m
        ident = identity_comb(n, m)
        units = [ThetaComb(n, m, (1,) + bits) for bits in itertools.product((0, 1), repeat=ell)]
        tables = {}
        for c in units:
            tables[c.coeffs] = comb_to_table(c)
            inv = group_inverse(c)
            assert group_mul(c, inv).coeffs == ident.coeffs
            assert group_mul(inv, c).coeffs == ident.coeffs
            k, acc = 1, c
            while acc.coeffs != ident.coeffs:
                acc = group_mul(acc, c)
                k += 1
            assert element_order(c) == k, (n, m, c.coeffs)
        assert len({t.entries.tobytes() for t in tables.values()}) == 1 << ell
        for a, b in itertools.product(units, repeat=2):
            ab = group_mul(a, b)
            assert ab.coeffs == group_mul(b, a).coeffs
            assert comb_to_table(ab) == compose(tables[a.coeffs], tables[b.coeffs])
    assert time.perf_counter() - t0 < 30.0


def test_09_fixed_point_characterization():
    t0 = time.perf_counter()
    # part one: the window predicate agrees with direct enumeration
    for n, m in coprime_pairs(12):
        chi = make_chi_nm(n, m)
        r = order_exponent(n, m)
        for j in range(0, r + 1):
            enum = fixed_points(iterate(chi, 1 << j))
            assert np.array_equal(predicate_fixed_set(n, m, j), enum), (n, m, j)
    # part two: for every k in 1..ord(chi_{n,m}), enumeration finds
    #   Fix(chi^k) = Fix(chi^(2^v)) with 2^v the largest power of two
    #   dividing k (the 2-adic law), and a fixed word besides the two
    #   constants exactly when k is even or m >= 3.  Why the rule holds:
    #   - chi_{n,m} flips x_i exactly when x_{i+1..i+m-1} are all 0 and
    #     x_{i+m} = 1.  For m >= 3 that needs two adjacent zeros, which the
    #     word 1^(n-1)0 lacks, so chi fixes it, and so does every power.
    #   - For m = 2 every non-constant cyclic word contains "01", whose 0
    #     is x_{i+1} for a flipped x_i, so Fix(chi) is the two constants,
    #     and so is Fix(chi^k) for odd k by the 2-adic law.
    #   - For m = 2 and even k, chi^2 = theta_0 + theta_2 (or the identity
    #     when ell = 1), and theta_{2,2} is nonzero at x only when x_{i+1}
    #     and x_{i+3} are both 0 (the width-4 window of the predicate).
    #     1^(n-1)0 has a single zero, so chi^2 fixes it, and so does chi^k.
    violations = []
    for n, m in coprime_pairs(12):
        chi = make_chi_nm(n, m)
        trivial = {0, (1 << n) - 1}
        order = element_order(chi_comb(n, m))
        fixed = {k: fixed_points(iterate(chi, k)) for k in range(1, order + 1)}
        for k, pts in fixed.items():
            nontrivial = [x for x in pts if x not in trivial]
            if not np.array_equal(pts, fixed[k & -k]) or bool(nontrivial) != (k % 2 == 0 or m >= 3):
                violations.append((n, m, k, len(nontrivial)))
    # the claim this replaces: nontrivial fixed words exist exactly when the
    # coefficient form of chi^k is 1 + z^(2^j) with j >= 1.  That of chi_{8,3}
    # is 1 + z, yet it fixes 0b01010101.
    assert iterate_coeffs(8, 3, 1).coeffs == (1, 1, 0)
    assert 0b01010101 in fixed_points(make_chi_nm(8, 3))
    assert time.perf_counter() - t0 < 30.0
    assert not violations, (
        "the 2-adic law or the existence rule fails at %d (n, m, k) cases, "
        "listed with the number of fixed words outside the two constant "
        "words (first 12 shown): %s" % (len(violations), violations[:12])
    )


def test_10_degree_laws():
    t0 = time.perf_counter()
    for n in range(3, 13):
        for m in range(2, n):
            k = 0
            while m * k <= n:
                assert table_degree(make_theta(n, m, k)) == (m - 1) * k + 1, (n, m, k)
                k += 1
    for n, m in coprime_pairs(12):
        ell = n // m
        assert table_degree(invert(make_chi_nm(n, m))) == (m - 1) * ell + 1, (n, m)
    assert time.perf_counter() - t0 < 10.0


def test_11_theta_vanishing():
    t0 = time.perf_counter()
    for n in range(3, 13):
        for m in range(2, n):
            if n % m == 0:
                continue
            for k in range(0, 2 * (n // m) + 3):
                t = make_theta(n, m, k)
                is_zero = not t.entries.any()
                assert is_zero == (m * k > n), (n, m, k)
    assert time.perf_counter() - t0 < 5.0


def test_12_involution_criteria():
    t0 = time.perf_counter()
    for n, m in coprime_pairs(10):
        ident = identity_table(n)
        for bits in itertools.product((0, 1), repeat=n // m):
            c = ThetaComb(n, m, (1,) + bits)
            t = comb_to_table(c)
            assert is_involution(c) == (compose(t, t) == ident), (n, m, c.coeffs)
    chi3 = make_chi(3)
    assert compose(chi3, chi3) == identity_table(3)
    chi64 = make_chi_nm(6, 4)
    assert compose(chi64, chi64) == identity_table(6)
    assert time.perf_counter() - t0 < 10.0


def test_13_cost_model():
    libs = shipped_libraries()
    assert area_estimate("chi_prime3", 5, libs, "umc180") == Decimal("23.35")
    assert area_estimate("chi", 5, libs, "umc180") == Decimal("23.35")
    assert check_template("chi_prime3", 5)[2] == 4
    assert check_template("chi", 5)[2] == 3
    for tech in libs:
        for n in (8, 12, 16, 20, 24):
            assert area_estimate("chi_prime3", n, libs, tech) <= area_estimate("cchi", n, libs, tech), (tech, n)


def test_14_chi_prime_equivalence():
    t0 = time.perf_counter()
    for n in (5, 7, 8):
        f = make_chi_nm(n, 3)
        g = make_chi_prime3(n)
        for metric in ("differential", "boomerang", "dlct"):
            rf, rg = SPECTRUM[metric](f), SPECTRUM[metric](g)
            assert rf["headline"] == rg["headline"], (n, metric)
            assert dict(rf["spectrum"]) == dict(rg["spectrum"]), (n, metric)
        wf, wg = walsh_spectrum(f), walsh_spectrum(g)
        assert wf["headline"] == wg["headline"], n
        absf, absg = {}, {}
        for v, c in wf["spectrum"]:
            absf[abs(v)] = absf.get(abs(v), 0) + c
        for v, c in wg["spectrum"]:
            absg[abs(v)] = absg.get(abs(v), 0) + c
        assert absf == absg, n
    assert time.perf_counter() - t0 < 30.0
