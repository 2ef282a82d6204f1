import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from chibox import (
    DOM_A_NONZERO,
    DOM_AB_NONZERO,
    DOM_ALL_PAIRS,
    NotAPermutation,
    TruthTable,
    boomerang_spectrum,
    build,
    compose,
    differential_spectrum,
    dlct_spectrum,
    identity_table,
    invert,
    is_permutation,
    make_chi,
    make_chi_nm,
    parse_family,
    render_spectrum,
    shift,
    walsh_spectrum,
)

from chibox import cli, metrics
from chibox.boolmap import dump_json

import golden
from oracles import walsh_table
import oracles

SPECTRUM = {
    "differential": differential_spectrum,
    "walsh": walsh_spectrum,
    "boomerang": boomerang_spectrum,
    "dlct": dlct_spectrum,
}

DOMAIN = {
    "differential": DOM_A_NONZERO,
    "walsh": DOM_ALL_PAIRS,
    "boomerang": DOM_AB_NONZERO,
    "dlct": DOM_A_NONZERO,
}


def build_named(name):
    return build(parse_family(golden.SPEC[name]))


@pytest.mark.parametrize("name,metric", sorted(golden.COMPUTED))
def test_benchmark_spectra(name, metric):
    f = build_named(name)
    rep = SPECTRUM[metric](f)
    head, row = golden.COMPUTED[(name, metric)]
    assert rep["metric"] == metric
    assert rep["n"] == golden.N[name]
    assert rep["domain"] == DOMAIN[metric]
    assert rep["headline"] == head
    assert dict(rep["spectrum"]) == row
    # the frozen row itself, re-derived from the definition
    assert oracles.spectrum_row(metric, f.entries) == (head, row)


def test_frozen_rows_cover_their_domains():
    for (name, metric), (_, row) in golden.COMPUTED.items():
        assert golden.broken_identities(name, metric, row) == [], (name, metric)


def test_errata_are_the_refuted_published_rows():
    assert set(golden.ERRATA) == {
        ("chi83", "differential"),
        ("chi64", "walsh"),
        ("chi3_chi3", "walsh"),
        ("chi64", "boomerang"),
        ("chi64", "dlct"),
    }
    # each published row still fails exactly the identities its erratum
    # names, so no erratum outlives its cause; the true rows it gives way
    # to are the COMPUTED rows, which pass them all (see above)
    for key, erratum in golden.ERRATA.items():
        name, metric = key
        published = golden.PUBLISHED[key][1]
        assert golden.broken_identities(name, metric, published) == list(erratum.breaks), key


def test_published_cchi8_rows_are_the_spectra_of_chi3_beside_chi5():
    # the source of the published cchi:8 rows: chi_3 on the low 3 bits beside
    # chi_5 on the high 5, built on full words by the oracles and measured from
    # the definitions, equals all four rows, boomerang and headlines included
    low, high = oracles.windowed(3, [2], [1], linear=True), oracles.windowed(5, [2], [1], linear=True)
    x = np.arange(1 << 8)
    entries = low.entries[x & 7] | (high.entries[x >> 3] << 3)
    for metric in SPECTRUM:
        assert oracles.spectrum_row(metric, entries) == golden.PUBLISHED[("cchi8", metric)], metric


def test_benchmarks_fix_zero():
    for name in golden.FUNCTIONS:
        assert build_named(name)[0] == 0


def test_identity_table_spectra():
    f = identity_table(4)
    rep = differential_spectrum(f)
    assert rep["headline"] == 16
    assert dict(rep["spectrum"]) == {0: 225, 16: 15}
    rep = walsh_spectrum(f)
    assert rep["headline"] == 0
    assert dict(rep["spectrum"]) == {0: 240, 16: 16}
    rep = boomerang_spectrum(f)
    assert rep["headline"] == 16
    assert dict(rep["spectrum"]) == {16: 225}
    rep = dlct_spectrum(f)
    assert rep["headline"] == 8
    assert dict(rep["spectrum"]) == {-8: 120, 8: 120}


def test_differential_values_even_and_rows_sum():
    f = make_chi(5)
    ent = f.entries
    x = np.arange(32)
    for a in (1, 7, 21):
        row = np.bincount(ent ^ ent[x ^ a], minlength=32)
        assert row.sum() == 32
        assert row[0] == 0
        assert np.all(row % 2 == 0)
    rep = differential_spectrum(f)
    assert all(v % 2 == 0 for v, _ in rep["spectrum"])


def test_walsh_cross_check_and_parseval():
    rng = np.random.default_rng(29)
    for n in (3, 4, 5, 6):
        f = TruthTable(n, rng.integers(0, 1 << n, size=1 << n))
        table = walsh_table(f.entries)
        rows = metrics._walsh_block(f.entries, np.arange(1 << n, dtype=np.int64))
        assert np.array_equal(rows, table), n
        rep = walsh_spectrum(f)
        assert sum(v * v * c for v, c in rep["spectrum"]) == 1 << (3 * n)
        assert sum(c for _, c in rep["spectrum"]) == 1 << (2 * n)
    # per-component Parseval on a single mask row
    f = make_chi(5)
    row = metrics._walsh_block(f.entries, np.array([11], dtype=np.int64))[0]
    assert int(np.sum(np.asarray(row, dtype=np.int64) ** 2)) == 1 << 10


def test_walsh_headline_counts_nonzero_masks_only():
    # the identity has W(a, b) = 2^n exactly at a = b, so restricting the
    # maximum to a != 0 is what makes its nonlinearity come out as zero
    rep = walsh_spectrum(identity_table(5))
    assert rep["headline"] == 0


def test_spectra_invariant_under_bit_relabeling():
    n = 5
    rev = TruthTable(
        n, [int(format(x, "05b")[::-1], 2) for x in range(1 << n)]
    )
    f = make_chi(5)
    g = compose(rev, compose(f, invert(rev)))
    assert g != f
    for metric, fn in SPECTRUM.items():
        a = fn(f)
        b = fn(g)
        assert a["headline"] == b["headline"], metric
        assert dict(a["spectrum"]) == dict(b["spectrum"]), metric


# map -> least t dividing n with F o S^t = S^t o F
ROTATION_PERIOD = {
    "chi_nm:8:3": 1,
    "chi_prime3:8": 1,
    "theta:8:3:2": 1,
    "chi_nm:6:3": 1,
    "concat(chi:3,chi:3)": 3,
    "cchi:8": 8,
    "random:8": 8,
    "perturbed chi_nm:8:3": 8,
}


@pytest.mark.parametrize("name", sorted(ROTATION_PERIOD))
def test_spectra_over_rotation_orbits(name):
    if name == "random:8":
        f = TruthTable(8, np.random.default_rng(8).permutation(1 << 8))
    elif name == "perturbed chi_nm:8:3":
        # F(1) and F(2) swapped: a permutation without the symmetry
        ent = make_chi_nm(8, 3).entries.copy()
        ent[[1, 2]] = ent[[2, 1]]
        f = TruthTable(8, ent)
    else:
        f = build(parse_family(name))
    t, rot = metrics._period(f)
    assert t == ROTATION_PERIOD[name]
    assert np.array_equal(rot, shift(f.n, t).entries)
    words, sizes = metrics._orbits(f)
    assert words[0] == 0 and sizes[0] == 1
    assert sizes.sum() == 1 << f.n
    # Burnside: the orbits of S^t, a shift of order L = n/t, number
    # (1/L) sum_{k<L} 2^gcd(kt, n)
    n = f.n
    assert len(words) == sum(2 ** math.gcd(k * t, n) for k in range(n // t)) // (n // t)
    for metric, spectrum in SPECTRUM.items():
        if metric == "boomerang" and not is_permutation(f)[0]:
            continue
        rep = spectrum(f)
        assert (rep["headline"], dict(rep["spectrum"])) == oracles.spectrum_row(metric, f.entries), (name, metric)


@pytest.mark.parametrize("name", ["chi_nm:9:3", "chi_nm:9:4", "random:8"])
def test_blocked_spectra_across_block_boundaries(name):
    if name == "random:8":
        f = TruthTable(8, np.random.default_rng(88).permutation(1 << 8))
    else:
        f = build(parse_family(name))
    height = metrics._BLOCK >> f.n
    words, sizes = metrics._orbits(f)
    # rows a != 0 of each orbit size: some weight spans more than one block
    # and ends in a partial one; chi_nm:9:3 has sizes 1, 3 and 9, and
    # chi_nm:9:4, a permutation, 56 rows of size 9
    rows_per_weight = np.bincount(sizes[1:])
    assert any(c > height and c % height for c in rows_per_weight), rows_per_weight
    weight = dict(zip(words.tolist(), sizes.tolist()))
    for nonzero in (False, True):
        blocks = list(metrics._blocks(f, nonzero))
        assert all(0 < rows.size <= height for _, rows in blocks)
        # every representative exactly once, with its orbit size
        listed = sorted((int(a), w) for w, rows in blocks for a in rows)
        assert listed == [(a, weight[a]) for a in words[int(nonzero):].tolist()]
    for metric, spectrum in SPECTRUM.items():
        if metric == "boomerang" and not is_permutation(f)[0]:
            continue
        rep = spectrum(f)
        assert (rep["headline"], dict(rep["spectrum"])) == oracles.spectrum_row(metric, f.entries), (name, metric)


@pytest.mark.parametrize("n", range(1, 17))
def test_wht_equals_the_butterfly(n):
    # the two float32 matrix products are exact on +-1 rows and on DDT rows,
    # the row a = 0, a single 2^n, among them
    rng = np.random.default_rng(100 + n)
    height = max(2, metrics._BLOCK >> n)
    signs = 1 - 2 * rng.integers(0, 2, size=(height, 1 << n))
    ent = rng.integers(0, 1 << n, size=1 << n)
    rows = np.concatenate(([0], rng.integers(1, 1 << n, size=height - 1)))
    ddt = metrics._ddt_block(ent, rows)
    assert ddt[0, 0] == 1 << n and np.count_nonzero(ddt[0]) == 1
    for block in (signs, ddt):
        got = metrics._wht(block.astype(np.float32))
        assert got.dtype == np.int32
        assert np.array_equal(got, oracles.wht(block.astype(np.int32))), n


def test_walsh_rows_of_the_identity_at_n20():
    # W(a, b) = 2^n at b = a and 0 elsewhere: the largest value float32 must
    # hold exactly, at the widest row the CLI takes
    n = 20
    f = identity_table(n)
    for a in (1, 0x5A5A5, (1 << n) - 1):
        row = metrics._walsh_block(f.entries, np.array([a], dtype=np.int64))[0]
        assert row.dtype == np.int32
        assert np.flatnonzero(row).tolist() == [a]
        assert row[a] == 1 << n


def test_identity_spectra_at_n13():
    size = 1 << 13
    f = identity_table(13)
    assert dict(walsh_spectrum(f)["spectrum"]) == {size: size, 0: size * size - size}
    half = (size - 1) * size // 2
    assert dict(dlct_spectrum(f)["spectrum"]) == {-(size // 2): half, size // 2: half}


def test_spectra_check_their_count_identities(monkeypatch, capsys):
    # one wrong entry, as an inexact matrix product would give, fails a count
    # identity and ends in an internal error, never in a printed row
    wht, ddt_block = metrics._wht, metrics._ddt_block

    def corrupt(fn):
        def wrong(*args):
            out = fn(*args)
            out.flat[1] += 2
            return out

        return wrong

    f = make_chi(5)
    monkeypatch.setattr(metrics, "_wht", corrupt(wht))
    with pytest.raises(RuntimeError, match="^walsh spectrum of n=5 fails its count identity"):
        walsh_spectrum(f)
    with pytest.raises(RuntimeError, match="^dlct spectrum of n=5 fails its count identity"):
        dlct_spectrum(f)
    for metric in ("walsh", "dlct"):
        assert cli.main(["analyze", "chi:5", "--metrics", metric]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: internal error: %s spectrum of n=5" % metric)
        assert err.count("\n") == 1 and err.endswith("\n")
    monkeypatch.setattr(metrics, "_wht", wht)
    monkeypatch.setattr(metrics, "_ddt_block", corrupt(ddt_block))
    with pytest.raises(RuntimeError, match="^differential spectrum of n=5 fails its count identity"):
        differential_spectrum(f)


def test_dlct_pass_checks_its_ddt_and_parseval_link(monkeypatch):
    # moving 2 between two transform entries of one row keeps every DLCT
    # count and sum, so only the link 4 sum DLCT^2 = 2^n sum delta^2 sees it
    wht, ddt_block = metrics._wht, metrics._ddt_block

    def moved(block):
        out = wht(block)
        out[0, 1] += 2
        out[0, 2] -= 2
        return out

    f = make_chi(5)
    monkeypatch.setattr(metrics, "_wht", moved)
    with pytest.raises(RuntimeError, match=r"^dlct spectrum of n=5 fails its count identity: sum v\^2 c"):
        dlct_spectrum(f)
    # a wrong DDT block fails the DDT's own identity inside the DLCT's pass
    monkeypatch.setattr(metrics, "_wht", wht)

    def wrong(*args):
        out = ddt_block(*args)
        out.flat[1] += 2
        return out

    monkeypatch.setattr(metrics, "_ddt_block", wrong)
    with pytest.raises(RuntimeError, match="^differential spectrum of n=5 fails its count identity"):
        dlct_spectrum(f)


def test_boomerang_columns_check_their_count_identity(monkeypatch, capsys):
    # one wrong boomerang entry breaks sum_(a != 0) beta(a,b) = sum_a
    # delta(a,b)^2 - 2^n in its column and ends in an internal error
    block = metrics._boomerang_block

    def wrong(*args):
        beta, squares = block(*args)
        beta[-1, 1] += 2
        return beta, squares

    monkeypatch.setattr(metrics, "_boomerang_block", wrong)
    pattern = r"^boomerang spectrum of n=5 fails its count identity: sum_\(a != 0\) beta\(a,\d+\) = "
    with pytest.raises(RuntimeError, match=pattern):
        boomerang_spectrum(make_chi(5))
    assert cli.main(["analyze", "chi:5", "--metrics", "bct"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: internal error: boomerang spectrum of n=5 fails its count identity")
    assert err.count("\n") == 1 and err.endswith("\n")


def _table(spec):
    if spec.startswith("random:"):
        n = int(spec.split(":")[1])
        return TruthTable(n, np.random.default_rng(100 + n).permutation(1 << n))
    return build(parse_family(spec))


SHARED_PASS_MAPS = ["random:%d" % n for n in range(1, 10)] + ["cchi:8", "chi_nm:9:4", "chi_nm:6:3"]


@pytest.mark.parametrize("spec", SHARED_PASS_MAPS)
def test_reports_do_not_depend_on_the_metrics_asked_with_them(spec):
    # dlct runs first and hands its DDT report to ddt: each report is the
    # same bytes alone, beside the other of the two, and among all four
    spectra = ["ddt", "walsh", "dlct"] + (["bct"] if is_permutation(_table(spec))[0] else [])
    alone = {}
    for name in spectra:
        [(rep, text)] = cli._metric_reports(_table(spec), {name})
        alone[name] = (dump_json(rep), text)
    for selected in ({"ddt", "dlct"}, set(spectra)):
        reports = cli._metric_reports(_table(spec), selected)
        assert [(dump_json(rep), text) for rep, text in reports] == [alone[s] for s in cli.METRIC_ORDER if s in selected]
    f = _table(spec)
    assert dlct_spectrum(f) == dlct_spectrum(_table(spec))
    assert differential_spectrum(f) == differential_spectrum(_table(spec))


def test_ddt_report_is_handed_over_once_and_only_to_its_table(monkeypatch):
    calls = []
    ddt_block = metrics._ddt_block
    monkeypatch.setattr(metrics, "_ddt_block", lambda *args: calls.append(1) or ddt_block(*args))
    rng = np.random.default_rng(7)
    a, b = (TruthTable(8, rng.permutation(1 << 8)) for _ in range(2))
    twin = TruthTable(8, a.entries)
    assert twin == a
    want_a, want_b = oracles.spectrum_row("differential", a.entries), oracles.spectrum_row("differential", b.entries)
    dlct_spectrum(a)
    calls.clear()
    # a table of the same n but other entries gets its own DDT
    rep = differential_spectrum(b)
    assert (rep["headline"], dict(rep["spectrum"])) == want_b
    assert calls
    # an equal table is not the same object: it is built again
    dlct_spectrum(a)
    calls.clear()
    rep = differential_spectrum(twin)
    assert (rep["headline"], dict(rep["spectrum"])) == want_a and calls
    # the table the pass ran on gets its report without a block, once
    dlct_spectrum(a)
    calls.clear()
    rep = differential_spectrum(a)
    assert (rep["headline"], dict(rep["spectrum"])) == want_a and not calls
    differential_spectrum(a)
    assert calls


def test_ddt_report_holder_keeps_no_table_alive():
    f = TruthTable(9, np.random.default_rng(9).permutation(1 << 9))
    ref = weakref.ref(f)
    dlct_spectrum(f)
    del f
    assert ref() is None
    # the report held for it goes to no other table
    g = make_chi(9)
    assert differential_spectrum(g) == differential_spectrum(make_chi(9))


def test_boomerang_requires_permutation():
    with pytest.raises(NotAPermutation):
        boomerang_spectrum(make_chi_nm(6, 3))


def _bct(f):
    # every column b != 0, not only the orbit representatives, in blocks of
    # columns of the height boomerang_spectrum gives them, _BLOCK / 4 cells
    inv = invert(f).entries
    size = 1 << f.n
    height = max(1, (metrics._BLOCK >> 2) >> f.n)
    table = np.zeros((size, size), dtype=np.int64)
    for lo in range(1, size, height):
        cols = np.arange(lo, min(lo + height, size))
        table[:, cols] = metrics._boomerang_block(f.entries, inv, cols)[0].T
    return table


@pytest.mark.parametrize("n", range(1, 9))
def test_boomerang_table_of_random_permutations(n):
    rng = np.random.default_rng(n)
    for _ in range(3 if n < 8 else 1):
        ent = rng.permutation(1 << n)
        f = TruthTable(n, ent)
        assert np.array_equal(_bct(f)[1:, 1:], oracles.boomerang_table(ent)[1:, 1:])


def test_boomerang_table_in_pair_chunks(monkeypatch):
    # every column enumerates the pairs {t, t'} of its classes in chunks of
    # at most _BLOCK; at a small cap the chunks cut through the classes, the
    # large ones of chi_nm:7:6 and chi_nm:8:5 among them
    small = 97
    most = 0
    for spec in ("chi_nm:7:4", "chi_nm:8:5", "cchi:8", "chi:7", "chi_nm:7:6"):
        f = build(parse_family(spec))
        want = oracles.boomerang_table(f.entries)[1:, 1:]
        assert np.array_equal(_bct(f)[1:, 1:], want), spec
        with monkeypatch.context() as patch:
            patch.setattr(metrics, "_BLOCK", small)
            assert np.array_equal(_bct(f)[1:, 1:], want), spec
        # column b has sum_g C(DDT(g,b)/2, 2) pairs
        half = oracles.differential_table(f.entries)[1:, 1:] // 2
        most = max(most, int((half * (half - 1) // 2).sum(axis=0).max()))
    assert most > small


@pytest.mark.parametrize("spec", ["chi_nm:7:6", "chi_nm:8:5", "chi_nm:7:4", "chi_nm:8:7"])
def test_boomerang_columns_in_blocks(monkeypatch, spec):
    # at a cap of 2^(n+4), a block holds 4 columns and its pairs run in
    # chunks of 2^(n+4), fewer than some blocks have, so the chunks cut
    # through the classes and run from one column into the next
    f = _table(spec)
    small = 1 << (f.n + 4)
    monkeypatch.setattr(metrics, "_BLOCK", small)
    want = oracles.boomerang_table(f.entries)
    assert np.array_equal(_bct(f)[1:, 1:], want[1:, 1:]), spec
    half = oracles.differential_table(f.entries)[1:, 1:] // 2
    per_column = (half * (half - 1) // 2).sum(axis=0)
    blocks = [cols for _, cols in metrics._blocks(f, True, small >> 2)]
    assert max(cols.size for cols in blocks) == 4
    assert max(int(per_column[cols - 1].sum()) for cols in blocks) > small
    rep = boomerang_spectrum(f)
    assert (rep["headline"], dict(rep["spectrum"])) == oracles.spectrum_row("boomerang", f.entries), spec


def test_boomerang_memory_capped_by_the_pair_chunks(monkeypatch):
    # chi_{9,8} is close to the identity, so its classes are large: no
    # temporary outgrows the chunks of _BLOCK pairs and a 2^n row (about
    # 0.09 MB), while one chunk per column peaks at 0.52 MB and a
    # [2^n, 2^n] buffer at 0.9 MB
    f = make_chi_nm(9, 8)
    monkeypatch.setattr(metrics, "_BLOCK", 1 << 10)
    tracemalloc.start()
    try:
        boomerang_spectrum(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 18, peak


def test_boomerang_ddt_identity_at_n10():
    # sum of beta over a, b != 0 = sum of DDT^2 over a != 0 - (2^n - 1) 2^n
    n = 10
    f = TruthTable(n, np.random.default_rng(10).permutation(1 << n))
    bct = boomerang_spectrum(f)
    ddt = differential_spectrum(f)
    assert sum(c for _, c in bct["spectrum"]) == ((1 << n) - 1) ** 2
    bct_sum = sum(v * c for v, c in bct["spectrum"])
    assert bct_sum == sum(v * v * c for v, c in ddt["spectrum"]) - ((1 << n) - 1) * (1 << n)


def test_non_permutation_differential_still_defined():
    rep = differential_spectrum(make_chi_nm(6, 3))
    assert sum(c for _, c in rep["spectrum"]) == golden.domain_size("differential", 6)
    assert rep["headline"] >= 2


def test_render_spectrum_format():
    rep = walsh_spectrum(make_chi(5))
    assert render_spectrum(rep) == "{0^647,-8^126,8^210,-16^10,16^30,32}"
    rep = differential_spectrum(make_chi(5))
    assert render_spectrum(rep) == "{0^676,2^176,4^120,8^20}"
    one = {"metric": "walsh", "n": 2, "headline": 0, "spectrum": ((-4, 1), (0, 2), (4, 13)), "domain": DOM_ALL_PAIRS}
    assert render_spectrum(one) == "{0^2,-4,4^13}"


def test_report_json_shape():
    rep = differential_spectrum(make_chi(5))
    text = dump_json(rep)
    assert text.endswith("\n")
    assert ": " not in text
    doc = json.loads(text)
    assert doc == {
        "metric": "differential",
        "n": 5,
        "headline": 8,
        "spectrum": [[0, 676], [2, 176], [4, 120], [8, 20]],
        "domain": "a nonzero, all b",
    }
    values = [v for v, _ in doc["spectrum"]]
    assert values == sorted(values)


def test_report_counts_helpers():
    rep = differential_spectrum(make_chi(5))
    assert dict(rep["spectrum"]) == {0: 676, 2: 176, 4: 120, 8: 20}
    assert sum(c for _, c in rep["spectrum"]) == 992
