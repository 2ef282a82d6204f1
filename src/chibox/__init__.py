"""chibox: construction, symbolic algebra, profiling and costing of the chi family.

The package is organized as:

  boolmap     truth tables and the mapping algebra (+, compose),
              permutation machinery, the cycles report, ANF and degrees
  families    constructors for chi, chi_{n,m}, theta_{m,k}, chi'_{n,3},
              cchi, theta combinations and block concatenation
  thetagroup  coefficient-vector algebra of the unit group G_{n,m}
  metrics     differential, Walsh, boomerang and DLCT spectra, each
              returned as the report document chibox analyze prints
  cost        gate-equivalent area and latency-stage estimation
  cli         the chibox command line tool
"""

from .boolmap import (
    MAX_N,
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
    pointwise_add,
    shift,
    table_degree,
    table_from_json,
    table_to_json,
)
from .cost import (
    GATE_KINDS,
    TEMPLATES,
    GateUnavailableError,
    area_estimate,
    check_template,
    load_gate_libraries,
    shipped_libraries,
)
from .families import (
    FamilyParseError,
    FamilySpec,
    build,
    make_cchi,
    make_chi,
    make_chi_nm,
    make_chi_prime3,
    make_comb,
    make_concat,
    make_theta,
    parse_family,
    spec_string,
)
from .metrics import (
    DOM_A_NONZERO,
    DOM_AB_NONZERO,
    DOM_ALL_PAIRS,
    boomerang_spectrum,
    differential_spectrum,
    dlct_spectrum,
    render_spectrum,
    walsh_spectrum,
)
from .thetagroup import (
    NonUnitError,
    ThetaComb,
    bitstring,
    chi_comb,
    comb_degree,
    comb_to_table,
    element_order,
    group_inverse,
    group_mul,
    group_pow,
    identity_comb,
    is_involution,
    iterate_coeffs,
    order_exponent,
    predicate_fixed_set,
)

__version__ = "1.0.0"
