"""Table-driven gate-equivalent area and latency-stage estimation.

Gate areas are exact decimals in GE (area normalized to one 2-input NAND)
and are compared exactly, never through floats.  A library is a plain
{gate kind: GE} dict, and load_gate_libraries keys them by technology.
"""

from __future__ import annotations

import csv
import io
from decimal import Decimal, Inexact, InvalidOperation, Overflow, localcontext
from importlib import resources

GATE_KINDS = ("NOT", "AND", "OR", "NAND", "NOR", "XOR", "XNOR", "AND3", "NAND3", "XOR3")

# template -> ((kind, count) per output bit, (kind, count) shared once, stages in the NAND/NOR model).
# chi: the XOR adds the linear term and the AND takes one input complemented
# by the inverter; two stages for the XOR plus one for the AND.  chi_prime3:
# the NAND3 computes the complemented triple product directly; two stages for
# it plus two for the XOR.  cchi: chi's inventory on every coordinate, plus
# one inverter for the boundary coordinate whose linear term is complemented
# as well; depth matches chi.
TEMPLATES = {
    "chi": ((("XOR", 1), ("AND", 1), ("NOT", 1)), (), 3),
    "chi_prime3": ((("XOR", 1), ("NAND3", 1), ("NOT", 1)), (), 4),
    "cchi": ((("XOR", 1), ("AND", 1), ("NOT", 1)), (("NOT", 1),), 3),
}


class GateUnavailableError(ValueError):
    """A template needs a gate kind the library does not price."""


def load_gate_libraries(text):
    """Parse `gate,technology,ge` rows into {technology: {gate kind: Decimal GE}}.

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
    return libs


def shipped_libraries():
    return load_gate_libraries(resources.files("chibox").joinpath("data/gates.csv").read_text())


def check_template(template, n):
    """The TEMPLATES row of template, once n is a width the circuit exists at."""
    if template not in TEMPLATES:
        raise ValueError("unknown template %r" % (template,))
    if template == "chi" and n < 3:
        raise ValueError("chi needs n >= 3, got %d" % (n,))
    if template == "chi_prime3" and n < 4:
        raise ValueError("chi_prime3 needs n >= 4, got %d" % (n,))
    if template == "cchi" and (n % 4 or n < 8):
        raise ValueError("cchi needs n = 2k with k even and at least 4, got %d" % (n,))
    return TEMPLATES[template]


def area_estimate(template, n, libs, technology):
    """Total GE of template at width n in libs[technology]: n times the per-bit gates plus the shared ones."""
    per_bit, shared, _ = check_template(template, n)
    if technology not in libs:
        raise ValueError("unknown library %r (have: %s)" % (technology, ",".join(sorted(libs))))
    ge = libs[technology]
    total = Decimal(0)
    with localcontext() as ctx:
        ctx.traps[Inexact] = True  # an area the context would round is refused, never shown as exact
        for gates, scale in ((per_bit, n), (shared, 1)):
            for kind, count in gates:
                if kind not in ge:
                    raise GateUnavailableError("gate %s unavailable in library %s" % (kind, technology))
                try:
                    total += ge[kind] * count * scale
                except Inexact as exc:
                    why = "needs more than %d significant digits" % ctx.prec
                    if isinstance(exc, Overflow):
                        why = "overflows the decimal range"
                    raise ValueError("area of %s at n=%d in library %s %s" % (template, n, technology, why)) from None
    return total
