import csv
import io
from decimal import Decimal
from importlib import resources

import pytest

from chibox import (
    GATE_KINDS,
    TEMPLATES,
    GateUnavailableError,
    area_estimate,
    check_template,
    load_gate_libraries,
    shipped_libraries,
)

# the nine bundled technologies of data/gates.csv
TECHNOLOGIES = ("umc180", "tsmc65", "tsmc28", "smic130", "smic65", "nangate45", "nangate15", "std350", "stm65")


def test_shipped_csv_round_trips():
    # every row of the CSV, as csv reads it, is one cell of the loaded libraries
    text = resources.files("chibox").joinpath("data/gates.csv").read_text()
    libs = load_gate_libraries(text)
    assert libs == shipped_libraries()
    assert set(libs) == set(TECHNOLOGIES)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["gate", "technology", "ge"]
    cells = {(gate, tech): ge for gate, tech, ge in rows[1:]}
    assert len(cells) == len(rows) - 1
    loaded = {(gate, tech): str(value) for tech, lib in libs.items() for gate, value in lib.items()}
    assert loaded == {key: ge for key, ge in cells.items() if ge != "NA"}


def test_area_values_are_exact_decimals():
    libs = shipped_libraries()
    umc = libs["umc180"]
    assert umc["XOR"] == Decimal("2.67")
    assert umc["AND"] == Decimal("1.33")
    assert umc["NOT"] == Decimal("0.67")
    assert umc["NAND3"] == Decimal("1.33")
    assert area_estimate("chi", 5, libs, "umc180") == Decimal("23.35")
    assert area_estimate("chi_prime3", 5, libs, "umc180") == Decimal("23.35")
    assert str(area_estimate("chi", 5, libs, "umc180")) == "23.35"


def test_latency_stages():
    assert check_template("chi", 5)[2] == 3
    assert check_template("chi_prime3", 5)[2] == 4
    assert check_template("cchi", 8)[2] == 3


def test_area_scales_linearly_in_width():
    libs = shipped_libraries()
    for tech in TECHNOLOGIES:
        a5 = area_estimate("chi", 5, libs, tech)
        a10 = area_estimate("chi", 10, libs, tech)
        assert a10 == 2 * a5


def test_chi_prime3_never_costs_more_than_cchi():
    libs = shipped_libraries()
    for tech in TECHNOLOGIES:
        for n in (8, 12, 16, 20):
            lean = area_estimate("chi_prime3", n, libs, tech)
            wide = area_estimate("cchi", n, libs, tech)
            assert lean <= wide, (tech, n)
            assert lean < wide, (tech, n)


def test_nand_nor_cost_one_everywhere():
    for tech, lib in shipped_libraries().items():
        assert lib["NAND"] == Decimal("1.00"), tech
        assert lib["NOR"] == Decimal("1.00"), tech


def test_unavailable_gate_raises():
    # NA leaves a kind out of its library: XOR3 in nangate45
    assert "XOR3" not in shipped_libraries()["nangate45"]
    libs = {"demo": {"XOR": Decimal(2), "NOT": Decimal(1)}, "umc180": shipped_libraries()["umc180"]}
    with pytest.raises(GateUnavailableError, match="gate AND unavailable in library demo"):
        area_estimate("chi", 5, libs, "demo")
    with pytest.raises(GateUnavailableError, match="gate NAND3 unavailable in library demo"):
        area_estimate("chi_prime3", 5, libs, "demo")
    # the same template prices fine where the cell exists
    assert area_estimate("chi", 5, libs, "umc180") == Decimal("23.35")


def test_unknown_library_lists_the_known_ones():
    with pytest.raises(ValueError, match=r"unknown library 'intel14' \(have: a,b\)"):
        area_estimate("chi", 5, {"b": {}, "a": {}}, "intel14")
    # the template is checked first
    with pytest.raises(ValueError, match="unknown template 'frob'"):
        area_estimate("frob", 5, {}, "intel14")


def test_csv_validation():
    with pytest.raises(ValueError):
        load_gate_libraries("kind,technology,ge\nNOT,umc180,0.67\n")
    with pytest.raises(ValueError):
        load_gate_libraries("gate,technology,ge\nFROB,umc180,0.67\n")
    with pytest.raises(ValueError):
        load_gate_libraries("gate,technology,ge\nNOT,umc180,-1\n")
    with pytest.raises(ValueError):
        load_gate_libraries("gate,technology,ge\nNOT,umc180,abc\n")
    with pytest.raises(ValueError):
        load_gate_libraries("gate,technology,ge\nNOT,umc180,0.67\nNOT,umc180,0.5\n")


@pytest.mark.parametrize("ge", ["NaN", "sNaN", "-NaN", "Infinity", "-Infinity", "inf", "0", "-0"])
def test_ge_must_be_finite_and_positive(ge):
    with pytest.raises(ValueError, match="GE value must be positive, got %s for NOT/demo" % ge):
        load_gate_libraries("gate,technology,ge\nNOT,demo,%s\n" % ge)


def test_ge_takes_any_finite_positive_decimal():
    libs = load_gate_libraries("gate,technology,ge\nNOT,demo,1e-999\nXOR,demo,1e999\n")
    assert libs["demo"] == {"NOT": Decimal("1e-999"), "XOR": Decimal("1e999")}


def test_area_beyond_the_decimal_range_is_a_value_error():
    # 9e999999 is a valid GE, but three of it exceed the decimal context's exponent range
    libs = load_gate_libraries("gate,technology,ge\nXOR,t,9e999999\nAND,t,1\nNOT,t,1\n")
    with pytest.raises(ValueError, match="area of chi at n=3 in library t overflows the decimal range"):
        area_estimate("chi", 3, libs, "t")


@pytest.mark.parametrize("ge, n", [("1e-999999", 3), ("1.234567890123456789012345678", 12345)])
def test_area_the_decimal_context_would_round_is_a_value_error(ge, n):
    # the exact areas, 6 + 3e-999999 and 39930.740603574074060357407394910, need
    # more than the context's 28 digits; their rounded sums are not areas
    libs = load_gate_libraries("gate,technology,ge\nXOR,t,%s\nAND,t,1\nNOT,t,1\n" % ge)
    with pytest.raises(ValueError, match="area of chi at n=%d in library t needs more than 28 significant digits" % n):
        area_estimate("chi", n, libs, "t")


def test_area_with_28_significant_digits_is_exact():
    libs = load_gate_libraries("gate,technology,ge\nXOR,t,1.234567890123456789012345678\nAND,t,1\nNOT,t,1\n")
    assert area_estimate("chi", 3, libs, "t") == Decimal("9.703703670370370367037037034")


def test_na_marks_gate_unavailable():
    libs = load_gate_libraries("gate,technology,ge\nNOT,demo,0.5\nXOR,demo,0.5\nAND,demo,NA\n")
    assert libs["demo"] == {"NOT": Decimal("0.5"), "XOR": Decimal("0.5")}
    with pytest.raises(GateUnavailableError, match="gate AND unavailable in library demo"):
        area_estimate("chi", 5, libs, "demo")


def test_template_by_name():
    assert check_template("chi", 5) is TEMPLATES["chi"]
    assert check_template("chi_prime3", 5)[2] == 4
    assert check_template("cchi", 8)[1] == (("NOT", 1),)
    with pytest.raises(ValueError, match="unknown template 'frob'"):
        check_template("frob", 5)
    with pytest.raises(ValueError, match="cchi needs n = 2k with k even and at least 4, got 10"):
        check_template("cchi", 10)
    for n in (-8, 0, 4, 6, 7, 9, 14):
        with pytest.raises(ValueError):
            check_template("cchi", n)
    for n in (8, 12, 16, 20):
        check_template("cchi", n)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: load_gate_libraries("gate,technology,ge\nNOT,umc180\n"), "malformed gate row"),
        (lambda: check_template("chi", 2), "chi needs n >= 3"),
        (lambda: check_template("chi_prime3", 3), "chi_prime3 needs n >= 4"),
    ],
)
def test_rejects_invalid_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_blank_gate_rows_are_skipped():
    libs = load_gate_libraries("gate,technology,ge\n\nNOT,demo,0.5\n\n")
    assert libs["demo"] == {"NOT": Decimal("0.5")}


def test_gate_inventories():
    per_bit, shared, _ = TEMPLATES["chi"]
    assert dict(per_bit) == {"XOR": 1, "AND": 1, "NOT": 1}
    assert shared == ()
    per_bit, shared, _ = TEMPLATES["chi_prime3"]
    assert dict(per_bit) == {"XOR": 1, "NAND3": 1, "NOT": 1}
    assert shared == ()
    per_bit, shared, _ = TEMPLATES["cchi"]
    assert dict(per_bit) == {"XOR": 1, "AND": 1, "NOT": 1}
    assert shared == (("NOT", 1),)
    for per_bit, shared, stages in TEMPLATES.values():
        assert set(GATE_KINDS) >= {g for g, _ in per_bit + shared}
        assert all(count >= 1 for _, count in per_bit + shared)
        assert stages >= 1
