import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import chibox
from chibox import TruthTable, iterate, make_chi_nm, parse_family, spec_string, table_from_json, table_to_json
from chibox.boolmap import dump_json
from chibox.cli import main

import golden
import oracles

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_construct_text(capsys):
    rc, out, err = run_cli(capsys, "construct", "chi:5")
    assert rc == 0 and err == ""
    assert "family: chi:5" in out
    assert "n: 5" in out
    assert "permutation: true" in out
    assert "degree: 2" in out


def test_construct_structured(capsys):
    rc, out, _ = run_cli(capsys, "construct", "chi_nm:8:3", "--format", "structured")
    assert rc == 0
    doc = json.loads(out)
    assert doc["command"] == "construct"
    assert doc["family"] == "chi_nm:8:3"
    assert doc["n"] == 8
    assert doc["permutation"] is True
    assert doc["witness"] is None
    assert doc["degree"] == 3
    assert len(doc["entries"]) == 256
    assert all(len(h) == 2 for h in doc["entries"])


def test_construct_reports_collision(capsys):
    rc, out, _ = run_cli(capsys, "construct", "chi_nm:6:3")
    assert rc == 0
    assert "permutation: false" in out
    assert "collision: 000000 and 100100 both map to 000000" in out
    rc, out, _ = run_cli(capsys, "construct", "chi_nm:6:3", "--format", "structured")
    doc = json.loads(out)
    assert doc["witness"] == [0, 9]


def test_construct_writes_table_document(tmp_path, capsys):
    path = tmp_path / "chi53.tbl"
    rc, out, _ = run_cli(capsys, "construct", "chi_nm:5:3", "-o", str(path))
    assert rc == 0
    assert "wrote: %s" % path in out
    table, family = table_from_json(path.read_text())
    assert family == "chi_nm:5:3"
    assert table == make_chi_nm(5, 3)


def test_analyze_matches_frozen_row(capsys):
    rc, out, _ = run_cli(capsys, "analyze", "chi:5", "--metrics", "ddt", "--format", "structured")
    assert rc == 0
    doc = json.loads(out)
    rep = doc["reports"][0]
    assert rep["metric"] == "differential"
    assert rep["headline"] == 8
    assert dict((v, c) for v, c in rep["spectrum"]) == golden.COMPUTED[("chi5", "differential")][1]


def test_analyze_text_spectrum(capsys):
    rc, out, _ = run_cli(capsys, "analyze", "chi:5", "--metrics", "ddt,walsh")
    assert rc == 0
    assert "differential: uniformity 8, spectrum {0^676,2^176,4^120,8^20}" in out
    assert "walsh: nonlinearity 8, spectrum {0^647,-8^126,8^210,-16^10,16^30,32}" in out


def test_analyze_canonical_metric_order(capsys):
    rc, out, _ = run_cli(
        capsys, "analyze", "chi:5", "--metrics", "cycles,walsh,ddt", "--format", "structured"
    )
    assert rc == 0
    doc = json.loads(out)
    assert [rep["metric"] for rep in doc["reports"]] == ["differential", "walsh", "cycles"]


def test_analyze_cycles_and_degree(capsys):
    rc, out, _ = run_cli(
        capsys, "analyze", "chi_nm:8:3", "--metrics", "degree,cycles", "--format", "structured"
    )
    assert rc == 0
    doc = json.loads(out)
    deg, cyc = doc["reports"]
    assert deg == {"metric": "degree", "n": 8, "value": 3}
    assert cyc["order"] == 4
    assert cyc["fixed_point_count"] == 48
    assert cyc["cycle_lengths"] == [[1, 48], [2, 72], [4, 16]]


def test_library_reports_are_the_printed_documents(tmp_path, capsys):
    # analyze prints what the library returns: the spectra and cycle_structure
    # give the report documents themselves, and the CLI dispatches to them
    library = {
        "ddt": chibox.differential_spectrum,
        "walsh": chibox.walsh_spectrum,
        "bct": chibox.boomerang_spectrum,
        "dlct": chibox.dlct_spectrum,
    }
    for name, fn in library.items():
        assert chibox.cli.SPECTRUM_FOR[name] is fn, name
    perm = TruthTable(7, np.random.default_rng(5).permutation(1 << 7))
    path = tmp_path / "random.tbl"
    path.write_text(table_to_json(perm, "random"))
    for target, table in (("chi_nm:7:3", make_chi_nm(7, 3)), ("cchi:8", chibox.make_cchi(8)), (str(path), perm)):
        want = [fn(table) for fn in library.values()] + [chibox.cycle_structure(table)]
        argv = ("analyze", target, "--metrics", "ddt,walsh,bct,dlct,cycles", "--format", "structured")
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, err) == (0, ""), target
        assert json.loads(out)["reports"] == [json.loads(dump_json(rep)) for rep in want], target


def test_analyze_from_file_equals_from_spec(tmp_path, capsys):
    path = tmp_path / "f.tbl"
    rc, _, _ = run_cli(capsys, "construct", "chi_nm:5:3", "-o", str(path))
    assert rc == 0
    rc, from_spec, _ = run_cli(
        capsys, "analyze", "chi_nm:5:3", "--metrics", "ddt,walsh,bct,dlct", "--format", "structured"
    )
    assert rc == 0
    rc, from_file, _ = run_cli(
        capsys, "analyze", str(path), "--metrics", "ddt,walsh,bct,dlct", "--format", "structured"
    )
    assert rc == 0
    assert from_spec == from_file


def test_analyze_reads_symmetry_off_the_entries_not_the_family(tmp_path, capsys):
    # a document labelled chi_nm:8:3 whose entries F(1) and F(2) are swapped:
    # the map has no rotation symmetry left, whatever its family field says
    ent = make_chi_nm(8, 3).entries.copy()
    ent[[1, 2]] = ent[[2, 1]]
    path = tmp_path / "perturbed.tbl"
    path.write_text(table_to_json(TruthTable(8, ent), family="chi_nm:8:3"))
    rc, out, _ = run_cli(
        capsys, "analyze", str(path), "--metrics", "ddt,walsh,bct,dlct", "--format", "structured"
    )
    assert rc == 0
    reports = json.loads(out)["reports"]
    assert [rep["metric"] for rep in reports] == ["differential", "walsh", "boomerang", "dlct"]
    for rep in reports:
        spectrum = {v: c for v, c in rep["spectrum"]}
        assert (rep["headline"], spectrum) == oracles.spectrum_row(rep["metric"], ent), rep["metric"]


def test_analyze_deterministic(capsys):
    rc, first, _ = run_cli(capsys, "analyze", "cchi:8", "--metrics", "ddt", "--format", "structured")
    assert rc == 0
    rc, second, _ = run_cli(capsys, "analyze", "cchi:8", "--metrics", "ddt", "--format", "structured")
    assert rc == 0
    assert first == second


def test_analyze_output_flag_writes_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    rc, out, _ = run_cli(
        capsys, "analyze", "chi:5", "--metrics", "ddt", "--format", "structured", "-o", str(path)
    )
    assert rc == 0
    assert path.read_text() == out


def test_group_inverse(capsys):
    rc, out, _ = run_cli(
        capsys, "group", "--n", "8", "--m", "3", "--coeffs", "110", "inverse", "--format", "structured"
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["inverse"] == "111"
    assert doc["degree"] == 5
    rc, out, _ = run_cli(capsys, "group", "--n", "8", "--m", "3", "--coeffs", "110", "inverse")
    assert "inverse: 111" in out
    assert "degree: 5" in out
    # the inverse and its degree are symbolic, so n > 24 needs no table
    coeffs = "11" + "0" * 20
    rc, out, err = run_cli(capsys, "group", "--n", "64", "--m", "3", "--coeffs", coeffs, "inverse")
    assert rc == 0 and err == ""
    assert out == "inverse: %s\ndegree: 43\n" % ("1" * 22)


def test_group_order_and_involution(capsys):
    rc, out, _ = run_cli(capsys, "group", "--n", "8", "--m", "3", "--coeffs", "110", "order")
    assert rc == 0 and out == "order: 4\n"
    rc, out, _ = run_cli(capsys, "group", "--n", "6", "--m", "4", "--coeffs", "11", "involution")
    assert rc == 0 and out == "involution: true\n"
    rc, out, _ = run_cli(capsys, "group", "--n", "8", "--m", "3", "--coeffs", "110", "involution")
    assert rc == 0 and out == "involution: false\n"


def test_group_iterate(capsys):
    rc, out, _ = run_cli(
        capsys, "group", "--n", "8", "--m", "3", "--coeffs", "110", "iterate:2", "--format", "structured"
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["power"] == 2
    assert doc["iterate"] == "101"
    rc, out, _ = run_cli(capsys, "group", "--n", "8", "--m", "3", "--coeffs", "110", "iterate:4")
    assert rc == 0 and out == "iterate 4: 100\n"


def test_group_materialize(tmp_path, capsys):
    path = tmp_path / "sq.tbl"
    rc, out, _ = run_cli(
        capsys,
        "group", "--n", "8", "--m", "3", "--coeffs", "101", "materialize",
        "--format", "structured", "-o", str(path),
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["permutation"] is True
    table, family = table_from_json(path.read_text())
    assert family == "comb:8:3:101"
    assert table == iterate(make_chi_nm(8, 3), 2)


@pytest.mark.parametrize("n, m, coeffs", [(8, 3, "101"), (7, 3, "111"), (7, 2, "1011"), (5, 2, "011"), (1, 2, "1")])
def test_group_materialize_label_is_a_spec_construct_reads(capsys, n, m, coeffs):
    # the label materialize writes parses back to itself, and construct
    # prints the same first lines for it
    rc, out, _ = run_cli(capsys, "group", "--n", str(n), "--m", str(m), "--coeffs", coeffs, "materialize")
    assert rc == 0
    label = out.splitlines()[0].removeprefix("family: ")
    assert label == "comb:%d:%d:%s" % (n, m, coeffs)
    assert spec_string(parse_family(label)) == label
    rc, by_spec, err = run_cli(capsys, "construct", label)
    assert rc == 0 and err == "" and by_spec.startswith(out)


def test_construct_comb_writes_the_bytes_of_group_materialize(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for fmt in ("text", "structured"):
        assert run_cli(capsys, "construct", "comb:8:3:101", "--format", fmt, "-o", str(a))[0] == 0
        argv = ("group", "--n", "8", "--m", "3", "--coeffs", "101", "materialize", "--format", fmt, "-o", str(b))
        assert run_cli(capsys, *argv)[0] == 0
        assert a.read_bytes() == b.read_bytes()


def test_construct_non_unit_comb_reports_the_collision(capsys):
    rc, out, err = run_cli(capsys, "construct", "comb:7:3:011")
    assert rc == 0 and err == ""
    assert out == (
        "family: comb:7:3:011\nn: 7\npermutation: false\n"
        "collision: 0000000 and 1101010 both map to 0000000\ndegree: 5\n"
    )
    # theta_{3,1} + theta_{3,2} from the rotated-word reference, x0 the first bit
    table = oracles.theta(7, 3, 1).entries ^ oracles.theta(7, 3, 2).entries
    assert table[0b0101011] == table[0] == 0


def test_analyze_comb_spec_equals_its_materialized_document(tmp_path, capsys):
    path = tmp_path / "u.json"
    assert run_cli(capsys, "group", "--n", "7", "--m", "3", "--coeffs", "111", "materialize", "-o", str(path))[0] == 0
    metrics = "ddt,walsh,bct,dlct,degree,cycles"
    for fmt in ("text", "structured"):
        by_spec = run_cli(capsys, "analyze", "comb:7:3:111", "--metrics", metrics, "--format", fmt)
        assert by_spec[0] == 0
        assert by_spec == run_cli(capsys, "analyze", str(path), "--metrics", metrics, "--format", fmt)


@pytest.mark.parametrize(
    "spec, rc, err",
    [
        ("comb:7:0:1", 3, "error: m must be at least 2, got 0\n"),
        ("comb:30:3:11111111111", 3, "error: dimension n must be an integer in 1..24, got 30\n"),
        ("comb:0:3:1", 3, "error: n must be positive, got 0\n"),
        ("comb:7:3:", 3, "error: coefficient string must be nonempty over {0,1}, got ''\n"),
        ("comb:7:3:\u0661\u0661\u0661", 3, "error: coefficient string must be nonempty over {0,1}, got '\u0661\u0661\u0661'\n"),
        ("comb:7:3", 2, "error: unrecognized family spec 'comb:7:3'\n"),
        ("comb:7:x:111", 2, "error: m must be an integer, got 'x'\n"),
    ],
)
def test_comb_spec_errors_are_one_line_before_any_term_is_built(capsys, monkeypatch, spec, rc, err):
    def no_terms(*args):
        raise AssertionError("a theta term was built")

    monkeypatch.setattr(chibox.families, "_theta", no_terms)
    assert run_cli(capsys, "construct", spec) == (rc, "", err)


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "chi_nm:8:3"),
        ("construct", "comb:8:3:101"),
        ("group", "--n", "8", "--m", "3", "--coeffs", "101", "materialize"),
        ("group", "--n", "1", "--m", "2", "--coeffs", "1", "materialize"),
        ("construct", "chi_nm:5:3"),
        ("construct", "chi_nm:13:3"),
    ],
)
def test_table_document_entries_equal_stdout_entries(tmp_path, capsys, argv):
    path = tmp_path / "t.tbl"
    rc, out, _ = run_cli(capsys, *argv, "--format", "structured", "-o", str(path))
    assert rc == 0
    printed = json.loads(out)
    written = path.read_text()
    assert json.loads(written)["entries"] == printed["entries"]
    table, family = table_from_json(written)
    assert written == chibox.table_to_json(table, family)


@pytest.mark.parametrize("fmt, bound", [("structured", 10), ("text", 8)])
def test_construct_memory_peak(capsys, fmt, bound):
    # the entries are written from one digit array, never as 2^n strings,
    # and text output does not format them at all
    n = 16
    main(["construct", "chi_nm:%d:3" % n, "--format", fmt])
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert main(["construct", "chi_nm:%d:3" % n, "--format", fmt]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out
    assert peak < bound * 8 * (1 << n), peak / (8 * (1 << n))


def test_table_read_memory_peak():
    # a document as dump_json writes it is read from one byte array, never
    # as one Python object per entry
    n = 16
    f = make_chi_nm(n, 3)
    text = table_to_json(f, "chi_nm:%d:3" % n)
    table_from_json(text)
    tracemalloc.start()
    try:
        table, family = table_from_json(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table == f and family == "chi_nm:%d:3" % n
    assert peak <= 4 * 8 * (1 << n), peak / (8 * (1 << n))


def test_analyze_reads_a_respelled_document_alike(tmp_path, capsys):
    canonical = tmp_path / "canonical.tbl"
    rc, _, _ = run_cli(capsys, "construct", "chi_nm:8:3", "-o", str(canonical))
    assert rc == 0
    doc = json.loads(canonical.read_text())
    doc["entries"] = ["0x" + h for h in doc["entries"]]
    respelled = tmp_path / "respelled.tbl"
    respelled.write_text(json.dumps(doc, indent=2))
    for fmt in ("text", "structured"):
        argv = ("--metrics", "ddt,walsh,degree,cycles", "--format", fmt)
        first = run_cli(capsys, "analyze", str(canonical), *argv)
        assert first[0] == 0
        assert run_cli(capsys, "analyze", str(respelled), *argv) == first


def test_fixed_points_counts(capsys):
    rc, out, _ = run_cli(
        capsys, "fixed-points", "--n", "8", "--m", "3", "--power", "1", "--format", "structured"
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["count"] == 48
    assert doc["predicate_count"] == 48
    assert doc["agree"] is True
    assert len(doc["sample"]) == 16
    assert doc["sample"][0] == "00"
    assert int(doc["sample"][1], 16) == golden.FIXED_CHI83[1]

    rc, out, _ = run_cli(
        capsys, "fixed-points", "--n", "8", "--m", "3", "--power", "2", "--format", "structured"
    )
    doc = json.loads(out)
    assert doc["count"] == 192 and doc["agree"] is True

    rc, out, _ = run_cli(
        capsys, "fixed-points", "--n", "8", "--m", "3", "--power", "4", "--format", "structured"
    )
    doc = json.loads(out)
    assert doc["count"] == 256

    # a window wider than the word fixes everything, whatever the power
    rc, out, _ = run_cli(
        capsys, "fixed-points", "--n", "8", "--m", "3", "--power", "1073741824", "--format", "structured"
    )
    doc = json.loads(out)
    assert doc["count"] == 256 and doc["predicate_count"] == 256 and doc["agree"] is True

    # powers that are not powers of two fall back to plain enumeration
    rc, out, _ = run_cli(
        capsys, "fixed-points", "--n", "8", "--m", "3", "--power", "3", "--format", "structured"
    )
    doc = json.loads(out)
    assert doc["predicate_count"] is None and doc["agree"] is None
    assert doc["count"] == 48


@pytest.mark.parametrize("power, reduced", [(2**13000 + 3, 3), (2**13000, 8), (11, 3)])
def test_fixed_points_reduce_the_power_by_the_order(capsys, monkeypatch, power, reduced):
    # chi_{16,3} has order 2^3, so a power of about 3900 digits composes at
    # most 2*3 tables and reports what its reduced power reports
    calls = []
    compose = chibox.boolmap.compose
    monkeypatch.setattr(chibox.boolmap, "compose", lambda f, g: calls.append(1) or compose(f, g))
    argv = ("fixed-points", "--n", "16", "--m", "3", "--format", "structured", "--power")
    rc, out, err = run_cli(capsys, *argv, str(power))
    assert rc == 0 and err == "" and len(calls) <= 6
    doc = json.loads(out)
    assert doc["power"] == power
    rc, want, _ = run_cli(capsys, *argv, str(reduced))
    assert rc == 0 and doc == {**json.loads(want), "power": power}


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int-string digit limit")
def test_powers_over_the_int_string_limit_are_refused_by_length(capsys):
    # one digit over the interpreter's limit: one short line that names the
    # limit and the digit count, not the digits; at the limit the power is read
    limit = sys.get_int_max_str_digits()
    over = "1" + "0" * limit
    for argv in (
        ("fixed-points", "--n", "8", "--m", "3", "--power", over),
        ("group", "--n", "8", "--m", "3", "--coeffs", "110", "iterate:" + over),
    ):
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 2 and out == "" and err.count("\n") == 1 and len(err) < 200, err
        assert err.startswith("error: ") and str(limit) in err and str(limit + 1) in err
    rc, out, err = run_cli(capsys, "fixed-points", "--n", "8", "--m", "3", "--power", "1" + "0" * (limit - 1))
    assert rc == 0 and err == ""


def test_fixed_points_internal_error_is_one_line(capsys, monkeypatch):
    # a predicate that disagrees with enumeration is an internal error, exit 3
    monkeypatch.setattr(chibox.thetagroup, "predicate_fixed_set", lambda n, m, j: [])
    rc, out, err = run_cli(capsys, "fixed-points", "--n", "8", "--m", "3", "--power", "2")
    assert rc == 3 and out == ""
    assert err.startswith("error: internal error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_fixed_points_text(capsys):
    rc, out, _ = run_cli(capsys, "fixed-points", "--n", "5", "--m", "3", "--power", "1")
    assert rc == 0
    assert "fixed points of chi_{5,3}^1: 12" in out
    assert "agreement: yes" in out


def test_cost_command(capsys):
    rc, out, _ = run_cli(capsys, "cost", "chi", "--n", "5", "--lib", "umc180")
    assert rc == 0
    assert "area_ge: 23.35" in out
    assert "latency_stages: 3" in out
    rc, out, _ = run_cli(
        capsys, "cost", "chi_prime3", "--n", "5", "--lib", "umc180", "--format", "structured"
    )
    doc = json.loads(out)
    assert doc["area_ge"] == "23.35"
    assert doc["latency_stages"] == 4


def test_cost_custom_gate_csv(tmp_path, capsys):
    csv_path = tmp_path / "gates.csv"
    csv_path.write_text(
        "gate,technology,ge\nXOR,demo,2.00\nAND,demo,1.00\nNOT,demo,0.50\n"
    )
    rc, out, _ = run_cli(
        capsys, "cost", "chi", "--n", "4", "--lib", "demo", "--gates", str(csv_path)
    )
    assert rc == 0
    assert "area_ge: 14.00" in out


# (template, n, library) -> area_ge: each template at its smallest n and at n = 20
COST_PINNED = {
    ("chi", 3, "umc180"): "14.01",
    ("chi", 3, "nangate45"): "12.00",
    ("chi", 20, "umc180"): "93.40",
    ("chi", 20, "nangate45"): "80.00",
    ("chi_prime3", 4, "umc180"): "18.68",
    ("chi_prime3", 4, "nangate45"): "16.00",
    ("chi_prime3", 20, "umc180"): "93.40",
    ("chi_prime3", 20, "nangate45"): "80.00",
    ("cchi", 8, "umc180"): "38.03",
    ("cchi", 8, "nangate45"): "32.67",
    ("cchi", 20, "umc180"): "94.07",
    ("cchi", 20, "nangate45"): "80.67",
}
COST_STAGES = {"chi": 3, "chi_prime3": 4, "cchi": 3}


@pytest.mark.parametrize("template, n, lib", list(COST_PINNED))
def test_cost_pinned_output(capsys, template, n, lib):
    area, stages = COST_PINNED[template, n, lib], COST_STAGES[template]
    argv = ("cost", template, "--n", str(n), "--lib", lib)
    assert run_cli(capsys, *argv) == (
        0,
        "template: %s\nn: %d\nlibrary: %s\narea_ge: %s\nlatency_stages: %d\n" % (template, n, lib, area, stages),
        "",
    )
    assert run_cli(capsys, *argv, "--format", "structured") == (
        0,
        '{"command":"cost","template":"%s","n":%d,"library":"%s","area_ge":"%s","latency_stages":%d}\n'
        % (template, n, lib, area, stages),
        "",
    )


def test_cost_error_order(tmp_path, capsys):
    missing = str(tmp_path / "no.csv")
    # the template is checked before --gates is read
    assert run_cli(capsys, "cost", "frob", "--n", "5", "--lib", "umc180", "--gates", missing) == (
        3,
        "",
        "error: unknown template 'frob'\n",
    )
    assert run_cli(capsys, "cost", "chi", "--n", "2", "--lib", "umc180", "--gates", missing) == (
        3,
        "",
        "error: chi needs n >= 3, got 2\n",
    )
    # --gates is read before the library is looked up
    rc, out, err = run_cli(capsys, "cost", "chi", "--n", "5", "--lib", "intel14", "--gates", missing)
    assert (rc, out) == (4, "") and err.startswith("error: cannot read %s: " % missing) and err.count("\n") == 1
    have = "nangate15,nangate45,smic130,smic65,std350,stm65,tsmc28,tsmc65,umc180"
    assert run_cli(capsys, "cost", "chi", "--n", "5", "--lib", "intel14") == (
        3,
        "",
        "error: unknown library 'intel14' (have: %s)\n" % have,
    )
    # a library that lacks a gate the template needs
    gates = tmp_path / "gates.csv"
    gates.write_text("gate,technology,ge\nXOR,t,1\nNOT,t,1\n")
    assert run_cli(capsys, "cost", "chi", "--n", "5", "--lib", "t", "--gates", str(gates)) == (
        3,
        "",
        "error: gate AND unavailable in library t\n",
    )


def test_exit_code_2_usage(capsys):
    rc, _, err = run_cli(capsys, "analyze", "bogus:9", "--metrics", "ddt")
    assert rc == 2 and "error:" in err
    rc, _, err = run_cli(capsys, "analyze", "chi:5", "--metrics", "ddt,frob")
    assert rc == 2
    rc, _, err = run_cli(capsys, "analyze", "chi:5", "--metrics", "")
    assert rc == 2
    rc, _, err = run_cli(capsys, "group", "--n", "8", "--m", "3", "--coeffs", "110", "frobnicate")
    assert rc == 2
    rc, _, err = run_cli(capsys, "group", "--n", "8", "--m", "3", "--coeffs", "110", "iterate:x")
    assert rc == 2
    rc, _, err = run_cli(capsys, "construct", "chi")
    assert rc == 2
    rc, _, err = run_cli(capsys, "construct", "concat(" * 2000 + "chi:3" + ")" * 2000)
    assert rc == 2 and err.startswith("error:") and err.count("\n") == 1


def test_exit_code_3_domain(capsys):
    rc, _, err = run_cli(capsys, "construct", "chi:2")
    assert rc == 3 and "error:" in err
    rc, _, err = run_cli(capsys, "analyze", "chi_nm:6:3", "--metrics", "bct")
    assert rc == 3 and err == "error: boomerang spectrum needs a permutation\n"
    rc, _, err = run_cli(capsys, "group", "--n", "6", "--m", "3", "--coeffs", "110", "order")
    assert rc == 3
    rc, _, err = run_cli(capsys, "group", "--n", "8", "--m", "3", "--coeffs", "010", "inverse")
    assert rc == 3
    rc, _, err = run_cli(capsys, "fixed-points", "--n", "6", "--m", "3", "--power", "1")
    assert rc == 3
    rc, _, err = run_cli(capsys, "cost", "chi", "--n", "5", "--lib", "intel14")
    assert rc == 3
    rc, _, err = run_cli(capsys, "group", "--n", "8", "--m", "3", "--coeffs", "110", "iterate:-1")
    assert rc == 3
    rc, _, err = run_cli(capsys, "group", "--n", "8", "--m", "0", "--coeffs", "110", "order")
    assert rc == 3 and err.startswith("error:") and err.count("\n") == 1
    rc, _, err = run_cli(capsys, "fixed-points", "--n", "8", "--m", "0", "--power", "1")
    assert rc == 3 and err.startswith("error:") and err.count("\n") == 1


def test_exit_code_4_io(tmp_path, capsys):
    rc, _, err = run_cli(capsys, "analyze", "/no/such/table.tbl", "--metrics", "ddt")
    assert rc == 4 and "error:" in err
    bad = tmp_path / "bad.tbl"
    bad.write_text("{not json")
    rc, _, err = run_cli(capsys, "analyze", str(bad), "--metrics", "ddt")
    assert rc == 4
    rc, _, err = run_cli(
        capsys, "construct", "chi:5", "-o", str(tmp_path / "missing" / "x.tbl")
    )
    assert rc == 4
    rc, _, err = run_cli(
        capsys, "cost", "chi", "--n", "5", "--lib", "umc180", "--gates", str(tmp_path / "no.csv")
    )
    assert rc == 4
    # a malformed gate CSV is a file-format error, an unknown library in a good one is not
    gates = tmp_path / "gates.csv"
    gates.write_text("gate,technology\nXOR,demo\n")
    rc, _, err = run_cli(capsys, "cost", "chi", "--n", "5", "--lib", "demo", "--gates", str(gates))
    assert rc == 4 and err.startswith("error:") and err.count("\n") == 1
    gates.write_text("gate,technology,ge\nXOR,demo,2.00\n")
    rc, _, err = run_cli(capsys, "cost", "chi", "--n", "5", "--lib", "umc180", "--gates", str(gates))
    assert rc == 3
    # a boolean is not a dimension
    boolean_n = tmp_path / "bool.tbl"
    boolean_n.write_text('{"n":true,"family":"","entries":["0","1"]}\n')
    rc, _, err = run_cli(capsys, "analyze", str(boolean_n), "--metrics", "ddt")
    assert rc == 4 and err.startswith("error:") and err.count("\n") == 1
    # and a file that is not text cannot be read
    binary = tmp_path / "binary.tbl"
    binary.write_bytes(b"\xff\xfe\x00{")
    rc, _, err = run_cli(capsys, "analyze", str(binary), "--metrics", "ddt")
    assert rc == 4 and err.startswith("error:") and err.count("\n") == 1


# malformed input files that must end in exit 4, not in a traceback or an internal error
MALFORMED = {
    "hex word of 2^80": b'{"n":1,"family":"","entries":["0","ffffffffffffffffffff"]}',
    "nested 200 000 deep": b'{"n":1,"family":"","entries":' + b"[" * 200000 + b"]" * 200000 + b"}",
    "GE of NaN": b"gate,technology,ge\nXOR,t,NaN\nAND,t,1\nNOT,t,1\n",
    "GE of Infinity": b"gate,technology,ge\nXOR,t,Infinity\nAND,t,1\nNOT,t,1\n",
    "GE over the csv field limit": b"gate,technology,ge\nXOR,t," + b"1" * 200000 + b"\nAND,t,1\nNOT,t,1\n",
}


# a well-formed gate CSV whose chi area at n = 3 exceeds the decimal range
GE_OVERFLOW = b"gate,technology,ge\nXOR,t,9e999999\nAND,t,1\nNOT,t,1\n"
# well-formed gate CSVs whose chi areas need more than the context's 28 digits:
# 6 + 3e-999999 at n = 3, and 39930.740603574074060357407394910 at n = 12345
GE_TINY = b"gate,technology,ge\nXOR,t,1e-999999\nAND,t,1\nNOT,t,1\n"
GE_LONG = b"gate,technology,ge\nXOR,t,1.234567890123456789012345678\nAND,t,1\nNOT,t,1\n"


@pytest.mark.parametrize(
    "n, gates, why",
    [
        ("3", GE_OVERFLOW, "overflows the decimal range"),
        ("3", GE_TINY, "needs more than 28 significant digits"),
        ("12345", GE_LONG, "needs more than 28 significant digits"),
    ],
)
def test_area_the_decimal_context_cannot_hold_exits_3(tmp_path, capsys, n, gates, why):
    # an area that would be rounded is refused, not printed as exact
    path = tmp_path / "gates.csv"
    path.write_bytes(gates)
    rc, out, err = run_cli(capsys, "cost", "chi", "--n", n, "--lib", "t", "--gates", str(path))
    assert (rc, out) == (3, "")
    assert err == "error: area of chi at n=%s in library t %s\n" % (n, why)


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_files_exit_4_with_one_error_line(tmp_path, capsys, case):
    path = tmp_path / "doc"
    path.write_bytes(MALFORMED[case])
    if case.startswith("GE"):
        argv = ("cost", "chi", "--n", "5", "--lib", "t", "--gates", str(path))
    else:
        argv = ("analyze", str(path), "--metrics", "degree")
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (4, ""), err
    assert err.startswith("error: bad ") and err.count("\n") == 1, err


def test_console_script_entry_point():
    # run the declared console script as its generated wrapper does, so the
    # check needs no install; an installed chibox script runs as well
    argv = ["construct", "chi:3", "--format", "structured"]
    commands = []
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: [project.scripts] is not read
        tomllib = None
    if tomllib is not None:
        scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
        module, func = scripts["chibox"].split(":")
        wrapper = "import sys; from %s import %s; sys.exit(%s())" % (module, func, func)
        env = dict(os.environ, PYTHONPATH=str(Path(chibox.__file__).parent.parent))
        commands.append(([sys.executable, "-c", wrapper] + argv, env))
    exe = shutil.which("chibox")
    if exe is not None:
        commands.append(([exe] + argv, None))
    if not commands:
        pytest.skip("no tomllib to read [project.scripts] and no chibox script on PATH")
    for cmd, env in commands:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, (cmd, proc.stderr)
        doc = json.loads(proc.stdout)
        assert doc["entries"] == ["0", "3", "6", "1", "5", "4", "2", "7"]


@pytest.mark.parametrize(
    "argv",
    [
        ("group", "--n", "abc", "--m", "3", "--coeffs", "11", "order"),
        ("analyze", "chi:5"),
        ("construct", "chi:5", "--format", "json"),
        ("construct", "chi:5", "--frob"),
        ("frobnicate",),
        (),
    ],
)
def test_argparse_usage_errors_are_one_line(capsys, argv):
    # a malformed argv is reported like every other usage error: exit 2 and
    # one error: line, no usage block and no SystemExit
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err


def test_help_still_prints_help(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: chibox")


@pytest.mark.parametrize(
    "argv, err",
    [
        (("group", "--n", "0", "--m", "3", "--coeffs", "1", "order"), "error: n must be positive, got 0\n"),
        (("fixed-points", "--n", "0", "--m", "3", "--power", "1"), "error: n must be positive, got 0\n"),
        (("fixed-points", "--n", "-2", "--m", "0", "--power", "1"), "error: n must be positive, got -2\n"),
        (("fixed-points", "--n", "8", "--m", "3", "--power", "-1"), "error: power must be non-negative\n"),
    ],
)
def test_domain_errors_name_the_bad_argument(capsys, argv, err):
    assert run_cli(capsys, *argv) == (3, "", err)


@pytest.mark.parametrize(
    "argv, err",
    [
        (("group", "--n", "0", "--m", "0", "--coeffs", "x", "order"), "n must be positive, got 0"),
        (("group", "--n", "6", "--m", "1", "--coeffs", "x", "order"), "m must be at least 2, got 1"),
        (("group", "--n", "6", "--m", "3", "--coeffs", "2", "order"), "m must not divide n, got n=6 m=3"),
        (("group", "--n", "6", "--m", "3", "--coeffs", "1", "materialize"), "m must not divide n, got n=6 m=3"),
        (("group", "--n", "7", "--m", "3", "--coeffs", "2", "order"),
         "coefficient string must be nonempty over {0,1}, got '2'"),
        (("fixed-points", "--n", "0", "--m", "1", "--power", "-1"), "n must be positive, got 0"),
        (("fixed-points", "--n", "6", "--m", "1", "--power", "-1"), "m must be at least 2, got 1"),
        (("fixed-points", "--n", "6", "--m", "3", "--power", "-1"), "m must not divide n, got n=6 m=3"),
    ],
)
def test_group_parameters_fail_in_one_order(capsys, argv, err):
    # n, then m, then m dividing n, all before the coefficients and the power
    assert run_cli(capsys, *argv) == (3, "", "error: %s\n" % err)


def _mostly(valid, junk):
    # one draw in four from junk; hypothesis favours the least integer, so it
    # selects valid
    return st.integers(0, 3).flatmap(lambda i: junk if i == 3 else valid)


# integer fields of the fuzzed grammar: mostly 2..10 for n and 2..5 for m, k
# and the power, so every table has n <= 10, else -3..1 or a spelling that
# int() refuses or reads as a large number
FUZZ_JUNK_INT = st.sampled_from(["", "x", "1e3", "\u0665", "7_0", "12345678901234567890"])
FUZZ_EDGE = st.one_of(st.integers(-3, 1).map(str), FUZZ_JUNK_INT)
FUZZ_INT = _mostly(st.sampled_from(["5", "8", "3", "7", "4", "6", "9", "10", "2"]), FUZZ_EDGE)
FUZZ_SMALL = _mostly(st.sampled_from(["3", "2", "4", "5"]), FUZZ_EDGE)


def _coeff_bits(n, m):
    """Mostly the ell + 1 bits a valid n and m ask for (ell capped at 5), else junk or a wrong length."""
    try:
        ell = max(0, min(int(n) // int(m), 5))
    except (ValueError, ZeroDivisionError):
        ell = 0
    return _mostly(
        st.text(alphabet="01", min_size=ell + 1, max_size=ell + 1),
        st.one_of(st.sampled_from(["", "1x", "\u0661"]), st.text(alphabet="01x", max_size=8)),
    )


def _family_specs(n):
    return _mostly(
        st.one_of(
            st.builds("chi:{}".format, n),
            st.builds("chi_nm:{}:{}".format, n, FUZZ_SMALL),
            st.builds("theta:{}:{}:{}".format, n, FUZZ_SMALL, FUZZ_SMALL),
            st.builds("chi_prime3:{}".format, n),
            st.builds("cchi:{}".format, n),
            st.tuples(n, FUZZ_SMALL).flatmap(lambda nm: _coeff_bits(*nm).map(lambda bits: "comb:%s:%s:%s" % (*nm, bits))),
        ),
        st.sampled_from(["", "bogus:5", "chi", "chi:5:2", "concat()", "concat(chi:3", "concat((chi:3)", "concat(chi:3))"]),
    )


# a concat of at most two parts of n <= 5 each stays within n <= 10
FUZZ_SPEC = st.one_of(
    _family_specs(FUZZ_INT),
    st.lists(_family_specs(_mostly(st.sampled_from(["3", "5", "4", "2"]), FUZZ_EDGE)), min_size=1, max_size=2).map(
        lambda parts: "concat(%s)" % ",".join(parts)
    ),
)
FUZZ_METRICS = _mostly(
    st.lists(st.sampled_from(chibox.cli.METRIC_ORDER), min_size=1, max_size=4, unique=True),
    st.lists(st.sampled_from(["ddt", "frob", "", "DDT"]), max_size=3),
).map(",".join)
FUZZ_QUERY = _mostly(
    st.sampled_from(["inverse", "order", "involution", "materialize", "iterate:1", "iterate:2", "iterate:5"]),
    st.one_of(st.sampled_from(["frob", "iterate"]), FUZZ_INT.map("iterate:{}".format)),
)


# the documents an argv may name: drawn with it, except "missing/x", whose
# directory does not exist, and "out", which -o writes
FUZZ_HEX = st.text(alphabet="0123456789abcdef", min_size=1, max_size=20)
FUZZ_ENTRY = st.one_of(FUZZ_HEX, st.integers(-1, 1 << 70), st.floats(), st.none(), st.lists(FUZZ_HEX, max_size=2))
FUZZ_DEEP = MALFORMED["nested 200 000 deep"]
FUZZ_GE = st.one_of(
    st.decimals(min_value=0, max_value=100, places=2).map(str),
    st.sampled_from(["NaN", "sNaN", "Infinity", "-0", "1e-999", "1e999", "NA", "abc", "", "1" * 200000]),
)


@st.composite
def _table_document(draw):
    """A table document of n <= 8 as dump_json writes it, mostly with one byte
    changed or a few entries respelled, or an array nested 200 000 deep."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 3)))
    words = rng.permutation(1 << n) if draw(st.booleans()) else rng.integers(0, 1 << n, size=1 << n)
    text = table_to_json(TruthTable(n, words), "fuzz").encode()
    kind = draw(st.sampled_from(["as written", "one byte", "entries", "deep"]))
    if kind == "one byte":
        i = draw(st.integers(0, len(text) - 1))
        text = text[:i] + bytes([draw(st.integers(0, 255))]) + text[i + 1 :]
    elif kind == "entries":
        entries = json.loads(text)["entries"]
        for _ in range(draw(st.integers(1, 3))):
            entries[draw(st.integers(0, len(entries) - 1))] = draw(FUZZ_ENTRY)
        text = json.dumps({"n": n, "family": "fuzz", "entries": entries}).encode()
    elif kind == "deep":
        text = FUZZ_DEEP
    return text


@st.composite
def _gate_csv(draw):
    header = draw(_mostly(st.just("gate,technology,ge"), st.just("gate,technology")))
    rows = ["%s,demo,%s" % (gate, draw(FUZZ_GE)) for gate in ("XOR", "AND", "NOT")]
    return "\n".join([header] + rows).encode() + b"\n"


@st.composite
def _case(draw):
    """(argv, documents): the argv names its files by their keys in documents, or as missing/x or out."""
    documents = {}
    command = draw(st.sampled_from(["construct", "analyze", "group", "fixed-points", "cost"]))
    if command == "construct":
        argv = [command, draw(FUZZ_SPEC)]
    elif command == "analyze":
        target = draw(st.one_of(FUZZ_SPEC, st.sampled_from(["table.tbl", "missing/x"])))
        if target == "table.tbl":
            documents[target] = draw(_table_document())
        argv = [command, target, "--metrics", draw(FUZZ_METRICS)]
    elif command == "group":
        n, m = draw(FUZZ_INT), draw(FUZZ_SMALL)
        argv = [command, "--n", n, "--m", m, "--coeffs", draw(_coeff_bits(n, m)), draw(FUZZ_QUERY)]
    elif command == "fixed-points":
        argv = [command, "--n", draw(FUZZ_INT), "--m", draw(FUZZ_SMALL), "--power", draw(FUZZ_SMALL)]
    else:
        template = draw(_mostly(st.sampled_from(["chi", "chi_prime3", "cchi"]), st.just("frob")))
        argv = [command, template, "--n", draw(FUZZ_INT), "--lib", draw(st.sampled_from(["umc180", "demo", "nope"]))]
        gates = draw(st.sampled_from([None, "gates.csv", "missing/x"]))
        if gates == "gates.csv":
            documents[gates] = draw(_gate_csv())
        argv += ["--gates", gates] if gates else []
    if draw(st.booleans()):
        argv += ["--format", draw(_mostly(st.sampled_from(["text", "structured"]), st.sampled_from(["json", ""])))]
    if draw(st.booleans()):
        argv += ["-o", draw(_mostly(st.just("out"), st.just("missing/x")))]
    # one argv in eight gets an unknown flag, none of them a prefix of a real
    # one (argparse would take it), and one in eight loses an argument
    if draw(st.integers(0, 7)) == 7:
        argv.append(draw(st.sampled_from(["--frob", "-x", "--zzz"])))
    if draw(st.integers(0, 7)) == 7:
        del argv[draw(st.integers(0, len(argv) - 1))]
    return argv, documents


@settings(max_examples=300, deadline=None)
@given(case=_case())
@example(case=(["analyze", "table.tbl", "--metrics", "degree"], {"table.tbl": MALFORMED["hex word of 2^80"]}))
@example(case=(["analyze", "table.tbl", "--metrics", "degree"], {"table.tbl": FUZZ_DEEP}))
@example(case=(["cost", "chi", "--n", "5", "--lib", "t", "--gates", "gates.csv"], {"gates.csv": MALFORMED["GE of NaN"]}))
@example(case=(["cost", "chi", "--n", "3", "--lib", "t", "--gates", "gates.csv"], {"gates.csv": GE_OVERFLOW}))
@example(case=(["cost", "chi", "--n", "3", "--lib", "t", "--gates", "gates.csv"], {"gates.csv": GE_TINY}))
@example(case=(["cost", "chi", "--n", "12345", "--lib", "t", "--gates", "gates.csv"], {"gates.csv": GE_LONG}))
@example(case=(["construct", "comb:7:0:1"], {}))  # m is checked before n // m
@example(case=(["construct", "comb:30:3:11111111111"], {}))  # the n cap, before any term
def test_fuzzed_argv_ends_in_an_exit_code_and_one_error_line(tmp_path_factory, case):
    argv, documents = case
    root = tmp_path_factory.getbasetemp() / "fuzz"
    root.mkdir(exist_ok=True)
    for name, body in documents.items():
        (root / name).write_bytes(body)
    argv = [str(root / a) if a in (*documents, "missing/x", "out") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert rc in (0, 2, 3, 4), (argv, rc)
    if rc == 0:
        assert err == "", (argv, err)
    else:
        assert out == "", (argv, out)
        assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
