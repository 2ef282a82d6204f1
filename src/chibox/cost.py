"""Table-driven gate-equivalent area and latency-stage estimation.

Gate areas are exact decimals in GE (area normalized to one 2-input NAND)
and are compared exactly, never through floats.  A circuit template lists
the gates instantiated per output coordinate plus any gates shared across
the whole circuit, and carries its stage count in the NAND/NOR timing model.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from importlib import resources

GATE_KINDS = ("NOT", "AND", "OR", "NAND", "NOR", "XOR", "XNOR", "AND3", "NAND3", "XOR3")

TECHNOLOGIES = (
    "umc180",
    "tsmc65",
    "tsmc28",
    "smic130",
    "smic65",
    "nangate45",
    "nangate15",
    "std350",
    "stm65",
)


class GateUnavailableError(ValueError):
    """A template needs a gate kind the library does not price."""


@dataclass(frozen=True)
class GateLibrary:
    """GE per gate kind for one technology; missing kinds are unavailable."""

    name: str
    ge: dict

    def area_of(self, kind):
        if kind not in self.ge:
            raise GateUnavailableError("gate %s unavailable in library %s" % (kind, self.name))
        return self.ge[kind]


def load_gate_libraries(text):
    """Parse `gate,technology,ge` rows into libraries keyed by technology.

    The ge field NA marks an unavailable cell; values must be finite
    positive decimals; gate kinds outside the known set are rejected.
    """
    libs = {}
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["gate", "technology", "ge"]:
        raise ValueError("expected header gate,technology,ge")
    for row in rows[1:]:
        if not row:
            continue
        if len(row) != 3:
            raise ValueError("malformed gate row %r" % (row,))
        gate, tech, ge = (field.strip() for field in row)
        if gate not in GATE_KINDS:
            raise ValueError("unknown gate kind %r" % (gate,))
        table = libs.setdefault(tech, {})
        if gate in table:
            raise ValueError("duplicate entry for %s in %s" % (gate, tech))
        if ge == "NA":
            continue
        try:
            value = Decimal(ge)
        except InvalidOperation:
            raise ValueError("bad GE value %r for %s/%s" % (ge, gate, tech)) from None
        if not value.is_finite() or value <= 0:
            raise ValueError("GE value must be positive, got %s for %s/%s" % (ge, gate, tech))
        table[gate] = value
    return {tech: GateLibrary(tech, table) for tech, table in libs.items()}


def load_gate_library(text, technology):
    libs = load_gate_libraries(text)
    if technology not in libs:
        raise ValueError("unknown library %r" % (technology,))
    return libs[technology]


def shipped_gate_csv():
    return resources.files("chibox").joinpath("data/gates.csv").read_text()


def shipped_libraries():
    return load_gate_libraries(shipped_gate_csv())


@dataclass(frozen=True)
class CircuitTemplate:
    """Gate inventory of one circuit.

    per_bit_gates lists (kind, count) instantiated for every output
    coordinate; extra_gates are shared once across the circuit; bit_count is
    the output width and latency_stages the depth in the NAND/NOR model.
    """

    name: str
    per_bit_gates: tuple
    bit_count: int
    latency_stages: int
    extra_gates: tuple = ()

    def __post_init__(self):
        if self.latency_stages < 1:
            raise ValueError("latency_stages must be at least 1")
        if self.bit_count < 1:
            raise ValueError("bit_count must be positive")
        for kind, count in tuple(self.per_bit_gates) + tuple(self.extra_gates):
            if kind not in GATE_KINDS:
                raise ValueError("unknown gate kind %r" % (kind,))
            if count < 1:
                raise ValueError("gate count must be positive, got %r for %s" % (count, kind))


def chi_template(n):
    """chi_n: one XOR, one 2-input AND, one inverter per output bit.

    The AND has one complemented input, supplied by the inverter; the XOR
    adds the linear term.  Two stages for the XOR plus one for the AND.
    """
    if n < 3:
        raise ValueError("chi needs n >= 3, got %d" % (n,))
    return CircuitTemplate("chi", (("XOR", 1), ("AND", 1), ("NOT", 1)), n, 3)


def chi_prime3_template(n):
    """chi'_{n,3}: one XOR, one 3-input NAND, one inverter per output bit.

    The NAND3 computes the complemented triple product directly; two stages
    for it plus two for the XOR.
    """
    if n < 4:
        raise ValueError("chi_prime3 needs n >= 4, got %d" % (n,))
    return CircuitTemplate("chi_prime3", (("XOR", 1), ("NAND3", 1), ("NOT", 1)), n, 4)


def cchi_template(n):
    """cchi_n: the chi inventory per bit plus one standalone inverter.

    Every coordinate costs one XOR, one 2-input product gate and one
    inverter for its complemented product input; the boundary coordinate
    whose linear term is complemented as well costs the one extra inverter
    over the plain chi inventory.  Depth matches chi.
    """
    half = n // 2
    if n % 2 or half % 2 or half < 4:
        raise ValueError("cchi needs n = 2k with k even and at least 4, got %d" % (n,))
    return CircuitTemplate("cchi", (("XOR", 1), ("AND", 1), ("NOT", 1)), n, 3, (("NOT", 1),))


TEMPLATE_BUILDERS = {
    "chi": chi_template,
    "chi_prime3": chi_prime3_template,
    "cchi": cchi_template,
}


def template_by_name(name, n):
    if name not in TEMPLATE_BUILDERS:
        raise ValueError("unknown template %r" % (name,))
    return TEMPLATE_BUILDERS[name](n)


def area_estimate(template, lib):
    """Total GE: bit_count times the per-bit inventory plus the shared gates."""
    total = Decimal(0)
    for kind, count in template.per_bit_gates:
        total += lib.area_of(kind) * count * template.bit_count
    for kind, count in template.extra_gates:
        total += lib.area_of(kind) * count
    return total


def latency_stages(template):
    return template.latency_stages
