import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chibox import (
    NotAPermutation,
    TruthTable,
    anf,
    bits_of,
    component_degree,
    compose,
    cycle_structure,
    fixed_points,
    identity_table,
    invert,
    is_permutation,
    iterate,
    make_chi,
    make_chi_nm,
    pointwise_add,
    shift,
    table_degree,
    table_from_json,
    table_to_json,
)

from chibox import boolmap

import oracles


def random_table(rng, n):
    return TruthTable(n, rng.integers(0, 1 << n, size=1 << n))


def random_permutation(rng, n):
    return TruthTable(n, rng.permutation(1 << n))


def test_word_bit_round_trip():
    assert bits_of(1, 3) == (1, 0, 0)
    assert bits_of(4, 3) == (0, 0, 1)
    for n in (1, 5, 8):
        for x in range(1 << n):
            assert sum(b << i for i, b in enumerate(bits_of(x, n))) == x


def test_truth_table_validation():
    with pytest.raises(ValueError):
        TruthTable(3, np.zeros(4, dtype=np.int64))
    with pytest.raises(ValueError):
        TruthTable(2, [0, 1, 2, 4])
    with pytest.raises(ValueError):
        TruthTable(2, [0, 1, 2, -1])
    with pytest.raises(ValueError):
        identity_table(0)
    with pytest.raises(ValueError):
        identity_table(25)
    f = identity_table(3)
    with pytest.raises((ValueError, RuntimeError)):
        f.entries[0] = 7


@pytest.mark.parametrize(
    "entries",
    [
        [0, 1.5, 2, 3.9],
        np.arange(4, dtype=np.float64),
        np.array([False, True, False, True]),
        ["0", "1", "2", "3"],
        [0, 1, 2, None],
        [0, 1, 2, 1 << 63],
        [0, 1, 2, 1 << 80],
        [0, 1, 2, [3]],
    ],
)
def test_truth_table_takes_only_integer_words(entries):
    # entries that are not integers, or do not fit int64, are refused rather
    # than rounded, parsed or wrapped
    with pytest.raises(ValueError):
        TruthTable(2, entries)


def test_truth_table_copies_its_entries():
    for ent in (np.array([3, 0, 1, 2]), np.array([3, 0, 1, 2], dtype=np.uint8), [3, 0, 1, 2]):
        f = TruthTable(2, ent)
        assert f.entries.dtype == np.int64 and f.entries.tolist() == [3, 0, 1, 2]
        ent[0] = 1
        assert f[0] == 3


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: component_degree(anf(identity_table(3)), 8), "mask out of range"),
        (lambda: component_degree(anf(identity_table(3)), -1), "mask out of range"),
    ],
)
def test_rejects_invalid_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_tables_equal_only_tables_of_their_own_kind():
    f = make_chi(5)
    assert f == TruthTable(5, f.entries.copy())
    assert f != identity_table(5) and f != make_chi(6)
    assert f.__eq__(f.entries) is NotImplemented and f != "chi:5"


def test_identity_and_constant():
    f = identity_table(3)
    assert list(f.entries) == list(range(8))
    g = TruthTable(3, [5] * 8)
    assert all(g[x] == 5 for x in range(8))
    assert len(f) == 8
    assert f[6] == 6
    assert f == identity_table(3)
    assert f != g


def test_shift_moves_coordinates_down():
    # output coordinate i of shift(n, t) reads input coordinate i + t
    s = shift(4, 1)
    assert s[0b0010] == 0b0001
    for n in (3, 5, 7):
        for t in range(n):
            s = shift(n, t)
            for x in (0, 1, (1 << n) - 1, 5 % (1 << n)):
                got = bits_of(s[x], n)
                src = bits_of(x, n)
                assert got == tuple(src[(i + t) % n] for i in range(n))
    assert shift(5, 0) == identity_table(5)


def test_shift_composition_law():
    for n in (3, 6):
        for a in range(n):
            for b in range(n):
                assert compose(shift(n, a), shift(n, b)) == shift(n, (a + b) % n)


def test_pointwise_ops_match_definitions():
    rng = np.random.default_rng(7)
    f = random_table(rng, 5)
    g = random_table(rng, 5)
    h = random_table(rng, 5)
    s = pointwise_add(f, g)
    c = compose(f, g)
    for x in range(32):
        assert s[x] == f[x] ^ g[x]
        assert c[x] == f[g[x]]
    with pytest.raises(ValueError):
        pointwise_add(f, identity_table(4))
    del h


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_composition_distributes_over_xor(seed):
    rng = np.random.default_rng(seed)
    f = random_table(rng, 5)
    g = random_table(rng, 5)
    h = random_table(rng, 5)
    assert compose(pointwise_add(f, g), h) == pointwise_add(compose(f, h), compose(g, h))


def test_is_permutation_and_witness():
    ok, witness = is_permutation(make_chi(5))
    assert ok and witness is None
    ok, witness = is_permutation(make_chi_nm(6, 3))
    assert not ok
    u, v = witness
    f = make_chi_nm(6, 3)
    assert u < v and f[u] == f[v]
    assert (u, v) == (0, 9)


def test_invert_round_trip():
    rng = np.random.default_rng(11)
    for n in (3, 5, 8):
        f = random_permutation(rng, n)
        g = invert(f)
        assert compose(f, g) == identity_table(n)
        assert compose(g, f) == identity_table(n)
    with pytest.raises(NotAPermutation):
        invert(make_chi_nm(6, 3))
    try:
        invert(make_chi_nm(6, 3))
    except NotAPermutation as exc:
        assert "both map to" in str(exc)


def test_iterate():
    f = make_chi(5)
    assert iterate(f, 0) == identity_table(5)
    assert iterate(f, 1) == f
    acc = identity_table(5)
    for k in range(1, 6):
        acc = compose(f, acc)
        assert iterate(f, k) == acc
    with pytest.raises(ValueError):
        iterate(f, -1)


def _least_order(f):
    rep = cycle_structure(f)
    # verify lcm of cycle lengths is the least k with f^k = id
    assert iterate(f, rep["order"]) == identity_table(f.n)
    left = rep["order"]
    p = 2
    while p * p <= left:
        if left % p == 0:
            assert iterate(f, rep["order"] // p) != identity_table(f.n)
            while left % p == 0:
                left //= p
        p += 1
    if left > 1:
        assert iterate(f, rep["order"] // left) != identity_table(f.n)
    return rep


def test_cycle_structure():
    rep = cycle_structure(make_chi_nm(8, 3))
    assert rep["cycle_lengths"] == ((1, 48), (2, 72), (4, 16))
    assert rep["order"] == 4
    assert rep["fixed_point_count"] == 48
    rep = cycle_structure(make_chi_nm(5, 3))
    assert rep["cycle_lengths"] == ((1, 12), (2, 10))
    assert rep["order"] == 2
    assert cycle_structure(identity_table(4))["cycle_lengths"] == ((1, 16),)
    rng = np.random.default_rng(3)
    for n in (4, 6, 8):
        _least_order(random_permutation(rng, n))
    # cycles of 1 to 40 words cut from a shuffled n = 12 word list: many
    # lengths, most of them repeated, and fixed points
    ent = np.arange(1 << 12)
    words = rng.permutation(1 << 12)
    cuts = np.cumsum(rng.integers(1, 41, size=1 << 12))
    for cycle in np.split(words, cuts[cuts < words.size]):
        ent[cycle] = np.roll(cycle, 1)
    f = TruthTable(12, ent)
    rep = cycle_structure(f)
    assert rep["cycle_lengths"] == oracles.cycle_lengths(ent)
    assert len(rep["cycle_lengths"]) > 30 and rep["fixed_point_count"] > 1
    assert rep["fixed_point_count"] == len(fixed_points(f))
    assert rep["order"] == math.lcm(*(length for length, _ in rep["cycle_lengths"]))
    for n in (1, 2, 16):
        f = random_permutation(rng, n)
        assert cycle_structure(f)["cycle_lengths"] == oracles.cycle_lengths(f.entries)
    with pytest.raises(NotAPermutation):
        cycle_structure(make_chi_nm(6, 3))


@pytest.mark.parametrize("n", range(1, 13))
def test_cycle_structure_against_a_cycle_walk(n):
    # wherever the doubling stops, after a few rounds on chi_{n,3}, whose
    # cycles are short, or after up to n on a random permutation, the cycles
    # are those of a walk word by word
    rng = np.random.default_rng(40 + n)
    maps = [random_permutation(rng, n) for _ in range(3)]
    if n > 3 and n % 3:
        maps.append(make_chi_nm(n, 3))
    for f in maps:
        assert cycle_structure(f)["cycle_lengths"] == oracles.cycle_lengths(f.entries)


def test_fixed_points_match_length_one_cycles():
    rng = np.random.default_rng(5)
    for n in (3, 5, 8):
        f = random_permutation(rng, n)
        pts = fixed_points(f)
        assert pts.dtype == np.int64
        assert pts.tolist() == sorted(x for x in range(1 << n) if f[x] == x)
        assert len(pts) == cycle_structure(f)["fixed_point_count"]
    assert len(fixed_points(make_chi_nm(5, 3))) == 12


def test_anf_round_trip():
    rng = np.random.default_rng(13)
    for n in range(3, 11):
        f = random_table(rng, n)
        a = anf(f)
        assert isinstance(a, np.ndarray) and a.dtype == np.int64 and a.shape == (1 << n,)
        # the transform is an involution: the ANF of the coefficient table is f
        assert np.array_equal(anf(TruthTable(n, a)), f.entries)


def test_component_degree():
    f = make_chi(5)
    a = anf(f)
    for mask in range(1, 32):
        d = component_degree(a, mask)
        assert d == 2
    assert component_degree(anf(identity_table(4)), 1) == 1
    zero = TruthTable(3, [0] * 8)
    assert component_degree(anf(zero), 7) is None
    one = TruthTable(3, [7] * 8)
    assert component_degree(anf(one), 1) == 0


def test_table_degree_examples():
    assert table_degree(make_chi(5)) == 2
    assert table_degree(make_chi_nm(8, 3)) == 3
    assert table_degree(make_chi_nm(6, 4)) == 4
    assert table_degree(identity_table(6)) == 1
    assert table_degree(TruthTable(4, [0] * 16)) is None
    assert table_degree(TruthTable(4, [9] * 16)) == 0


def test_table_degree_is_the_largest_coordinate_degree():
    # coordinate 0 is linear and coordinate 2 is x0 x1 x2; against the
    # coordinate degrees one by one on random maps
    x = np.arange(8)
    assert table_degree(TruthTable(3, (x & 1) | ((x == 7) << 2))) == 3
    rng = np.random.default_rng(5)
    for n in range(1, 9):
        f = random_table(rng, n)
        degrees = [component_degree(anf(f), 1 << i) for i in range(n)]
        degrees = [d for d in degrees if d is not None]
        assert table_degree(f) == (max(degrees) if degrees else None), n


def test_table_degree_copies_the_table_once():
    # the Moebius transform needs one 2^n-word copy of the entries; a second
    # copy, such as a table built around it, doubles the peak
    n = 20
    f = make_chi_nm(n, 3)
    tracemalloc.start()
    try:
        assert table_degree(f) == 3
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * (1 << n), peak


def test_iterate_holds_three_tables_at_most():
    # f^8 by three squarings: besides f, at most the current square, the
    # next square's index result and its TruthTable copy are alive; an
    # identity factor to compose with would make it four tables
    n = 20
    f = make_chi_nm(n, 3)
    tracemalloc.start()
    try:
        g = iterate(f, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g == identity_table(n)  # chi_{20,3} has order 8
    assert peak <= 3 * 8 * (1 << n) + (1 << 16), peak / (8 * (1 << n))


def test_degree_bounded_by_n():
    rng = np.random.default_rng(17)
    for n in (3, 5, 7):
        for _ in range(5):
            d = table_degree(random_table(rng, n))
            assert d is None or 0 <= d <= n


def test_serialization_round_trip():
    f = make_chi_nm(8, 3)
    text = table_to_json(f, "chi_nm:8:3")
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc["n"] == 8
    assert doc["family"] == "chi_nm:8:3"
    assert len(doc["entries"]) == 256
    assert all(len(h) == 2 and h == h.lower() for h in doc["entries"])
    g, family = table_from_json(text)
    assert g == f
    assert family == "chi_nm:8:3"
    # 5-bit words need two hex digits
    doc5 = json.loads(table_to_json(make_chi(5)))
    assert all(len(h) == 2 for h in doc5["entries"])
    doc4 = json.loads(table_to_json(identity_table(4)))
    assert all(len(h) == 1 for h in doc4["entries"])


@pytest.mark.parametrize("n", range(1, 18))
def test_table_document_equals_the_reference_writer(n):
    # dump_json writes the entries from one digit array; the reference makes
    # one string per entry and lets json.dumps quote the family
    rng = np.random.default_rng(n)
    for f in (identity_table(n), random_permutation(rng, n), random_table(rng, n)):
        entries = oracles.hex_entries(f)
        for family in ("", 'quo"te', "back\\slash", "n\u00e4ive \u2713", "chi_nm:%d:3" % n):
            doc = {"n": n, "family": family, "entries": entries}
            assert table_to_json(f, family) == json.dumps(doc, separators=(",", ":")) + "\n"


def test_serialization_rejects_bad_documents():
    with pytest.raises(ValueError):
        table_from_json('{"n":2,"family":"","entries":["0","1","2"]}')
    with pytest.raises(ValueError):
        table_from_json('{"n":2,"family":"","entries":["0","1","2","zz"]}')
    with pytest.raises(ValueError):
        table_from_json('{"n":0,"family":"","entries":[]}')
    with pytest.raises(ValueError):
        table_from_json('{"n":2,"family":"","entries":["0","1","2","7"]}')


FAMILIES = ("", 'quo"te', "back\\slash", "n\u00e4ive \u2713", '"entries":[')


def read_both(text):
    """table_from_json and the one-int-per-entry reference agree on text: same result or both reject it."""
    try:
        want = oracles.table_from_json(text)
    except (KeyError, TypeError, ValueError):
        with pytest.raises((KeyError, TypeError, ValueError)):
            table_from_json(text)
        return None
    got = table_from_json(text)
    assert got[0] == want[0] and got[1] == want[1]
    return got


@pytest.mark.parametrize("n", range(1, 18))
def test_table_document_read_equals_the_reference_reader(n):
    # every document dump_json writes is read from one byte array, not by
    # json, and so is the same layout with uppercase digits
    rng = np.random.default_rng(100 + n)
    for f in (random_permutation(rng, n), random_table(rng, n)):
        for family in FAMILIES:
            text = table_to_json(f, family)
            cut = text.rindex("[")
            for spelling in (text, text[:cut] + text[cut:].upper()):
                assert boolmap._read_dumped(spelling) is not None
                assert read_both(spelling) == (f, family)


def test_table_document_at_n21_on_sampled_words():
    # six-digit words; the one-object-per-entry references take seconds at
    # 2^21 entries, so json reads the document and a seeded sample of its
    # words is checked against the reference's formatting and parsing
    n = 21
    rng = np.random.default_rng(n)
    f = random_table(rng, n)
    text = table_to_json(f, "chi_nm:21:3")
    doc = json.loads(text)
    assert (doc["n"], doc["family"], len(doc["entries"])) == (n, "chi_nm:21:3", 1 << n)
    words = rng.integers(0, 1 << n, size=4096)
    assert [doc["entries"][u] for u in words] == ["%06x" % f[u] for u in words]
    got, family = table_from_json(text)
    assert family == "chi_nm:21:3"
    assert [got[u] for u in words] == [int(doc["entries"][u], 16) for u in words]
    assert got == f


def test_table_document_round_trip_at_n24():
    rng = np.random.default_rng(24)
    f = random_table(rng, 24)
    text = table_to_json(f)
    assert boolmap._read_dumped(text) is not None
    assert table_from_json(text) == (f, "")


def variants(f, family):
    """(accepted, rejected): other spellings of f's document that the reference reads or refuses."""
    n = f.n
    canonical = table_to_json(f, family)
    entries = json.loads(canonical)["entries"]
    compact = {"separators": (",", ":")}

    def doc(words, head=None, **kw):
        return json.dumps({**(head or {"n": n, "family": family}), "entries": words}, **kw)

    def edit(i, word):
        return doc(entries[:i] + [word] + entries[i + 1 :], **compact)

    accepted = [
        canonical.rstrip("\n"),
        canonical + "\n",
        canonical.encode(),
        edit(1, "0x" + entries[1]),
        edit(1, " " + entries[1]),
        edit(1, "0_" + entries[1]),
        edit(1, "\uff10" + entries[1]),  # a fullwidth digit zero
        doc([h.upper() for h in entries], **compact),
        doc([h.lstrip("0") or "0" for h in entries], **compact),
        doc(["000" + h for h in entries], **compact),
        doc(entries, indent=2),
        doc(entries),
        json.dumps({"entries": entries, "n": n, "family": family}, **compact),
        canonical.replace('"entries":', '"entries":["1"],"entries":', 1),
        canonical.replace('{"n":', '{"entries":["1"],"n":', 1),
        canonical.replace('"entries":[', '"entries":%s,"family":"x","entries":[' % json.dumps(entries), 1),
    ]
    rejected = [
        doc(entries, head={"n": True, "family": family}, **compact),
        doc(entries, head={"n": float(n), "family": family}, **compact),
        doc(entries, head={"n": 20.0, "family": family}, **compact),
        doc(entries, head={"n": 0, "family": family}, **compact),
        doc(entries, head={"n": 25, "family": family}, **compact),
        doc(entries, head={"family": family}, **compact),
        json.dumps({"n": n, "family": family}),
        doc(entries[:-1], **compact),
        doc(entries + entries[:1], **compact),
        '{"n":%d,"entries":%s,"family":"x","entries":["1"]}' % (n, json.dumps(entries)),
        edit(1, "f" * len(entries[1]) if n % 4 else "1" + entries[1]),  # a word outside F_2^n
        edit(1, "zz"[: len(entries[1])]),
        edit(1, ""),
        edit(1, int(entries[1], 16)),
        edit(1, None),
        canonical[: len(canonical) // 2],
        canonical[:-3] + "}\n",
        canonical[:-2],
        canonical + "x",
        canonical.rstrip("\n") + "}",
        canonical.replace("]}", "]]}"),
        "[" + canonical + "]",
    ]
    return accepted, rejected


@pytest.mark.parametrize("n", [1, 2, 4, 5, 8, 9, 13])
def test_other_table_documents_read_as_the_reference_reads_them(n):
    rng = np.random.default_rng(200 + n)
    f = random_permutation(rng, n)
    for family in FAMILIES:
        accepted, rejected = variants(f, family)
        for text in accepted:
            assert read_both(text) is not None, text[:80]
        for text in rejected:
            assert read_both(text) is None, text[:80]


def test_order_is_lcm():
    rep = cycle_structure(make_chi_nm(8, 3))
    assert rep["order"] == math.lcm(*[length for length, _ in rep["cycle_lengths"]])
