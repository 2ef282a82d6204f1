import csv
import io
from decimal import Decimal

import pytest

from chibox import (
    GATE_KINDS,
    TECHNOLOGIES,
    CircuitTemplate,
    GateLibrary,
    GateUnavailableError,
    area_estimate,
    cchi_template,
    chi_prime3_template,
    chi_template,
    latency_stages,
    load_gate_libraries,
    load_gate_library,
    shipped_gate_csv,
    shipped_libraries,
    template_by_name,
)


def test_shipped_csv_round_trips():
    # every row of the CSV, as csv reads it, is one cell of the loaded libraries
    text = shipped_gate_csv()
    libs = load_gate_libraries(text)
    assert set(libs) == set(TECHNOLOGIES)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["gate", "technology", "ge"]
    cells = {(gate, tech): ge for gate, tech, ge in rows[1:]}
    assert len(cells) == len(rows) - 1
    loaded = {(gate, tech): str(value) for tech, lib in libs.items() for gate, value in lib.ge.items()}
    assert loaded == {key: ge for key, ge in cells.items() if ge != "NA"}


def test_area_values_are_exact_decimals():
    lib = shipped_libraries()["umc180"]
    assert lib.area_of("XOR") == Decimal("2.67")
    assert lib.area_of("AND") == Decimal("1.33")
    assert lib.area_of("NOT") == Decimal("0.67")
    assert lib.area_of("NAND3") == Decimal("1.33")
    assert area_estimate(chi_template(5), lib) == Decimal("23.35")
    assert area_estimate(chi_prime3_template(5), lib) == Decimal("23.35")


def test_latency_stages():
    assert latency_stages(chi_template(5)) == 3
    assert latency_stages(chi_prime3_template(5)) == 4
    assert latency_stages(cchi_template(8)) == 3


def test_area_scales_linearly_in_width():
    for tech in TECHNOLOGIES:
        lib = shipped_libraries()[tech]
        a5 = area_estimate(chi_template(5), lib)
        a10 = area_estimate(chi_template(10), lib)
        assert a10 == 2 * a5


def test_chi_prime3_never_costs_more_than_cchi():
    libs = shipped_libraries()
    for tech in TECHNOLOGIES:
        lib = libs[tech]
        for n in (8, 12, 16, 20):
            lean = area_estimate(chi_prime3_template(n), lib)
            wide = area_estimate(cchi_template(n), lib)
            assert lean <= wide, (tech, n)
            assert lean < wide, (tech, n)


def test_nand_nor_cost_one_everywhere():
    for tech, lib in shipped_libraries().items():
        assert lib.area_of("NAND") == Decimal("1.00"), tech
        assert lib.area_of("NOR") == Decimal("1.00"), tech


def test_unavailable_gate_raises():
    lib = shipped_libraries()["nangate45"]
    with pytest.raises(GateUnavailableError):
        lib.area_of("XOR3")
    t = CircuitTemplate("x3", (("XOR3", 1),), 4, 1)
    with pytest.raises(GateUnavailableError):
        area_estimate(t, lib)
    # the same template prices fine where the cell exists
    assert area_estimate(t, shipped_libraries()["umc180"]) == 4 * Decimal("4.67")


def test_load_single_library():
    lib = load_gate_library(shipped_gate_csv(), "tsmc65")
    assert isinstance(lib, GateLibrary)
    assert lib.area_of("XOR") == Decimal("2.50")
    with pytest.raises(ValueError):
        load_gate_library(shipped_gate_csv(), "intel14")


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
    assert libs["demo"].ge == {"NOT": Decimal("1e-999"), "XOR": Decimal("1e999")}


def test_na_marks_gate_unavailable():
    libs = load_gate_libraries("gate,technology,ge\nNOT,demo,0.5\nXOR3,demo,NA\n")
    lib = libs["demo"]
    assert lib.area_of("NOT") == Decimal("0.5")
    with pytest.raises(GateUnavailableError):
        lib.area_of("XOR3")


def test_template_by_name():
    assert template_by_name("chi", 5).per_bit_gates == chi_template(5).per_bit_gates
    assert template_by_name("chi_prime3", 5).latency_stages == 4
    assert template_by_name("cchi", 8).extra_gates == (("NOT", 1),)
    with pytest.raises(ValueError):
        template_by_name("frob", 5)
    with pytest.raises(ValueError):
        template_by_name("cchi", 10)


def test_template_validation():
    with pytest.raises(ValueError):
        CircuitTemplate("bad", (("FROB", 1),), 4, 1)
    with pytest.raises(ValueError):
        CircuitTemplate("bad", (("NOT", 0),), 4, 1)
    with pytest.raises(ValueError):
        CircuitTemplate("bad", (("NOT", 1),), 0, 1)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: load_gate_libraries("gate,technology,ge\nNOT,umc180\n"), "malformed gate row"),
        (lambda: CircuitTemplate("bad", (("NOT", 1),), 4, 0), "latency_stages must be at least 1"),
        (lambda: chi_template(2), "chi needs n >= 3"),
        (lambda: chi_prime3_template(3), "chi_prime3 needs n >= 4"),
    ],
)
def test_rejects_invalid_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_blank_gate_rows_are_skipped():
    libs = load_gate_libraries("gate,technology,ge\n\nNOT,demo,0.5\n\n")
    assert libs["demo"].ge == {"NOT": Decimal("0.5")}


def test_gate_inventories():
    t = chi_template(5)
    assert dict(t.per_bit_gates) == {"XOR": 1, "AND": 1, "NOT": 1}
    assert t.bit_count == 5
    t = chi_prime3_template(6)
    assert dict(t.per_bit_gates) == {"XOR": 1, "NAND3": 1, "NOT": 1}
    t = cchi_template(8)
    assert dict(t.per_bit_gates) == {"XOR": 1, "AND": 1, "NOT": 1}
    assert t.extra_gates == (("NOT", 1),)
    assert set(GATE_KINDS) >= {g for g, _ in t.per_bit_gates}
