"""Symbolic algebra of theta combinations and the unit group G_{n,m}.

A combination sum a_k theta_{m,k} (0 <= k <= ell, ell = floor(n/m)) is held
as its coefficient bit vector.  Reading the coefficients as the polynomial
sum a_k z^k makes composition of unit combinations the polynomial product in
F_2[z]/(z^(ell+1)), so inverses, orders and iterates are closed-form; the
coefficient vector is simultaneously the group element and the polynomial,
no second representation exists.  Units are exactly the combinations with
a_0 = 1; the group operations refuse an m that divides n.
"""

from __future__ import annotations

from dataclasses import dataclass

from .boolmap import _power, fixed_points
from .families import check_nm, comb_coeffs, make_comb


class NonUnitError(ValueError):
    """Group operation on a combination whose constant coefficient is 0."""


@dataclass(frozen=True)
class ThetaComb:
    """Coefficient vector (a_0, ..., a_ell) of sum a_k theta_{m,k} on F_2^n, from bits or a_0 first text."""

    n: int
    m: int
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", comb_coeffs(self.n, self.m, self.coeffs))

    @property
    def ell(self):
        return self.n // self.m

    def is_unit(self):
        return self.coeffs[0] == 1


def identity_comb(n, m):
    check_nm(n, m)
    return ThetaComb(n, m, (1,) + (0,) * (n // m))


def chi_comb(n, m):
    """chi_{n,m} = theta_0 + theta_{m,1} as a combination."""
    check_nm(n, m)
    ell = n // m
    if ell < 1:
        raise ValueError("chi_{n,m} needs m <= n")
    return ThetaComb(n, m, (1, 1) + (0,) * (ell - 1))


def bitstring(c):
    return "".join(str(b) for b in c.coeffs)


def order_exponent(n, m):
    """r with ord(chi_{n,m}) = 2^r, i.e. r = ceil(log2(ell+1))."""
    check_nm(n, m)
    return (n // m).bit_length()


def comb_to_table(c):
    """Materialize the combination through families.make_comb."""
    return make_comb(c.n, c.m, c.coeffs)


def comb_degree(c):
    """Algebraic degree of comb_to_table(c): (m-1)K + 1, K the top index with a_K = 1.

    theta_{m,k} has degree (m-1)k + 1: its top monomial is the product of its
    (m-1)k + 1 window variables, distinct since mK <= n, and no theta of a
    lower index holds that monomial.  None for the zero combination.
    """
    top = max((k for k, a in enumerate(c.coeffs) if a), default=None)
    return None if top is None else (c.m - 1) * top + 1


def check_group(n, m):
    """Raise ValueError unless G_{n,m} is defined: n >= 1, m >= 2 and m does not divide n."""
    check_nm(n, m)
    if n % m == 0:
        raise ValueError("m must not divide n, got n=%d m=%d" % (n, m))


def _require_unit(c):
    check_group(c.n, c.m)
    if not c.is_unit():
        raise NonUnitError("constant coefficient a_0 must be 1 for group operations")


def _require_same(f, g):
    if (f.n, f.m) != (g.n, g.m):
        raise ValueError("mismatched parameters: (%d,%d) vs (%d,%d)" % (f.n, f.m, g.n, g.m))


def group_mul(f, g):
    """Product in G_{n,m}: polynomial multiplication truncated mod z^(ell+1), f read as one int.

    Materializing the result equals composing the materialized factors.
    """
    _require_same(f, g)
    _require_unit(f)
    _require_unit(g)
    a, out = int(bitstring(f)[::-1], 2), 0
    for j, b in enumerate(g.coeffs):
        if b:
            out ^= a << j
    return ThetaComb(f.n, f.m, format(out & ((2 << f.ell) - 1), "0%db" % (f.ell + 1))[::-1])


def group_inverse(f):
    """Inverse f^(ord(f) - 1), a power read off element_order."""
    return group_pow(f, element_order(f) - 1)


def element_order(f):
    """Compositional order: 1 for the identity, else 2^ceil(log2((ell+1)/j)).

    j is the lowest nonzero non-constant coefficient index.
    """
    _require_unit(f)
    j = next((i for i in range(1, f.ell + 1) if f.coeffs[i]), None)
    if j is None:
        return 1
    q = -(-(f.ell + 1) // j)
    return 1 << (q - 1).bit_length()


def is_involution(f):
    """True iff f composed with itself is the identity, i.e. ord(f) <= 2."""
    return element_order(f) <= 2


def group_pow(f, k):
    """f^k = f^k', k' = (k-1) mod ord(f) + 1, by binary exponentiation; f^0 is the identity."""
    if k < 0:
        raise ValueError("iterate power must be non-negative")
    if k == 0:
        return identity_comb(f.n, f.m)
    return _power(group_mul, f, (k - 1) % element_order(f) + 1)


def iterate_coeffs(n, m, k):
    """Coefficients of chi_{n,m}^k: a_j = 1 iff j precedes k digit-wise in base 2.

    That is the parity of binomial(k, j) by Lucas' theorem, truncated at ell.
    """
    check_group(n, m)
    if k < 0:
        raise ValueError("k must be non-negative")
    ell = n // m
    return ThetaComb(n, m, tuple(1 if (j & k) == j else 0 for j in range(ell + 1)))


def predicate_fixed_set(n, m, j):
    """Fix(chi_{n,m}^(2^j)) as an ascending int64 array: the zero set of theta_{m,2^j}.

    In F_2[z], (1+z)^(2^j) = 1 + z^(2^j), so chi^(2^j) = theta_0 + theta_{m,2^j}
    and x is fixed exactly when theta_{m,2^j}(x) = 0: no cyclic window
    (x_{i+1},...,x_{i+w}), w = 2^j * m, reads (0_{m-1}, *, ..., 0_{m-1}, 1).
    iterate_coeffs truncates at ell, so when the window cannot fit (w > n)
    the power is the identity and every word is fixed.
    """
    if j < 0:
        raise ValueError("j must be non-negative")
    return fixed_points(comb_to_table(iterate_coeffs(n, m, 1 << j)))
