"""Constructors for the chi family of shift-invariant maps.

Every table is the XOR of product terms, each the outer AND of two tables
over the high and low halves of the input word (_table).  Window offsets wrap
mod n except on cchi's six boundary coordinates, whose published branch table
is taken literally (no index wraps inside any branch).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .boolmap import MAX_N, TruthTable, _check_n


class FamilyParseError(ValueError):
    """Raised when a family spec string does not match the grammar."""


def _half(need, shift, width):
    """Bit i of entry v: the product of coordinate i's literals x_j + c (j a bit of need[c][i])
    with shift <= j < shift + width, each x_j read off bit j - shift of v."""
    ones, zeros = (need >> shift) & ((1 << width) - 1)
    v = np.arange(1 << width, dtype=np.int64)[:, None]
    hit = ((v & (ones | zeros)) == ones) & ((ones & zeros) == 0)  # x_j (x_j + 1) = 0
    return (hit << np.arange(need.shape[1])).sum(axis=1)


def _table(n, terms):
    """Table of the XOR of terms; a term lists, per output coordinate i, literals (j, c) meaning x_j + c.

    Coordinate i of a term is their product, so with s = n // 2 the term's
    table is H[x >> s] & L[x mod 2^s], the products over the high and low bits.
    """
    _check_n(n)
    s = n // 2
    out = np.zeros((1 << (n - s), 1 << s), dtype=np.int64)
    for term in terms:
        need = np.array([[sum({1 << j for j, c in lits if c == b}) for lits in term] for b in (0, 1)])
        out ^= np.bitwise_and.outer(_half(need, s, n - s), _half(need, 0, s))
    return TruthTable(n, out.reshape(-1))


def _window(n, ones, zeros):
    """Term y_i = prod_{t in ones} x_{i+t} prod_{t in zeros} (x_{i+t} + 1), offsets mod n."""
    _check_n(n)
    lits = {(t % n, 0) for t in ones} | {(t % n, 1) for t in zeros}
    return [[((i + t) % n, c) for t, c in lits] for i in range(n)]


def _theta(n, m, k):
    """Term theta_{m,k}: y_i = x_{i+mk} prod_{1<=j<=mk-1, m does not divide j} (x_{i+j} + 1)."""
    if not (isinstance(m, int) and m >= 2 and isinstance(k, int) and k >= 0):
        raise ValueError("theta needs m >= 2 and k >= 0, got m=%r k=%r" % (m, k))
    if m > MAX_N or k > MAX_N:
        raise ValueError("theta parameters are capped at %d, got m=%r k=%r" % (MAX_N, m, k))
    return _window(n, [m * k], [j for j in range(1, m * k) if j % m])


def make_chi(n):
    """chi_n = chi_{n,2}: y_i = x_i + (x_{i+1} + 1) x_{i+2}."""
    if n < 3:
        raise ValueError("chi needs n >= 3, got %r" % (n,))
    return make_chi_nm(n, 2)


def make_chi_nm(n, m):
    """chi_{n,m}: y_i = x_i + x_{i+m} prod_{j=1}^{m-1} (x_{i+j} + 1).

    Construction is allowed even when m divides n; the table is then not a
    permutation and is_permutation reports the collision.
    """
    if not (isinstance(m, int) and 2 <= m < n):
        raise ValueError("chi_nm needs n > m >= 2, got n=%r m=%r" % (n, m))
    return _table(n, [_window(n, [0], []), _window(n, [m], range(1, m))])


def make_theta(n, m, k):
    """theta_{m,k}: y_i = x_{i+mk} prod_{1<=j<=mk-1, m does not divide j} (x_{i+j} + 1).

    k = 0 gives the identity.  The product runs over j regardless of n, with
    all indices reduced mod n, so the table is the zero map whenever the
    window cannot fit (mk > n and m does not divide n).
    """
    return _table(n, [_theta(n, m, k)])


def check_nm(n, m):
    """Raise ValueError unless n >= 1 and m >= 2, the widths every theta combination needs."""
    if n < 1:
        raise ValueError("n must be positive, got %r" % (n,))
    if m < 2:
        raise ValueError("m must be at least 2, got %r" % (m,))


def comb_coeffs(n, m, coeffs):
    """Bits (a_0, ..., a_ell), ell = n // m, of sum a_k theta_{m,k}, checked; coeffs is bits or a_0 first text."""
    check_nm(n, m)
    if isinstance(coeffs, str) and (not coeffs or any(ch not in "01" for ch in coeffs)):
        raise ValueError("coefficient string must be nonempty over {0,1}, got %r" % (coeffs,))
    bits = tuple(int(c) for c in coeffs)
    if len(bits) != n // m + 1:
        raise ValueError("coeffs must have ell+1 = %d bits for n=%d m=%d, got %d" % (n // m + 1, n, m, len(bits)))
    if any(c not in (0, 1) for c in bits):
        raise ValueError("coefficients must be bits")
    return bits


def make_comb(n, m, coeffs):
    """sum a_k theta_{m,k}, theta_{m,0} the identity; as for chi_nm, m | n or a_0 = 0 gives a non-permutation."""
    return _table(n, (_theta(n, m, k) for k, a in enumerate(comb_coeffs(n, m, coeffs)) if a))


def make_chi_prime3(n):
    """chi'_{n,3}: y_i = x_i + x_{i+1} x_{i+2} (x_{i+3} + 1)."""
    if n < 4:
        raise ValueError("chi_prime3 needs n >= 4, got %r" % (n,))
    return _table(n, [_window(n, [0], []), _window(n, [1, 2], [3])])


def make_cchi(n):
    """cchi_n for n = 2k, k even: the seven-branch variant of chi.

    chi's terms, y_i = x_i + (x_{i+1} + 1) x_{i+2}, with the published branch
    table on the six boundary coordinates, indices taken literally.
    """
    if n % 2:
        raise ValueError("cchi needs n = 2k with k even, got n=%r" % (n,))
    k = n // 2
    if k % 2 or k < 4:
        raise ValueError("cchi needs n = 2k with k even and k >= 4, got n=%r" % (n,))
    linear, quadratic = _window(n, [0], []), _window(n, [2], [1])
    linear[k - 3], quadratic[k - 3] = [(k, 0)], [(k - 2, 1), (0, 0)]
    linear[k - 2], quadratic[k - 2] = [(k - 1, 0)], [(0, 1), (1, 0)]
    linear[k - 1], quadratic[k - 1] = [(k - 3, 1)], [(k, 1), (k + 1, 1)]
    linear[k], quadratic[k] = [(k - 2, 0)], [(k + 1, 1), (k + 2, 0)]
    linear[2 * k - 2], quadratic[2 * k - 2] = [(2 * k - 2, 0)], [(2 * k - 1, 1), (k - 1, 0)]
    linear[2 * k - 1], quadratic[2 * k - 1] = [(2 * k - 1, 0)], [(k - 1, 1), (k, 0)]
    return _table(n, [linear, quadratic])


def _check_concat(total):
    if total > MAX_N:
        raise ValueError("concat dimension %d exceeds the cap %d" % (total, MAX_N))


def make_concat(parts):
    """Concatenation: parts act on consecutive blocks, first part lowest bits."""
    parts = list(parts)
    if not parts:
        raise ValueError("concat needs at least one part")
    total = sum(p.n for p in parts)
    _check_concat(total)
    x = np.arange(1 << total, dtype=np.int64)
    y = np.zeros_like(x)
    offset = 0
    for p in parts:
        block = (x >> offset) & ((1 << p.n) - 1)
        y |= p.entries[block] << offset
        offset += p.n
    return TruthTable(total, y)


@dataclass(frozen=True)
class FamilySpec:
    """Parsed form of a family spec string.

    family is a FAMILIES key or concat; n is the dimension (for concat, the
    sum over parts); m, k and coeffs are the other fields FAMILIES names, as
    in comb:<n>:<m>:<a_0...a_ell>; parts is the tuple of sub-specs for concat.
    """

    family: str
    n: int = 0
    m: int = 0
    k: int = 0
    coeffs: str = ""
    parts: tuple = field(default_factory=tuple)


def _depths(text):
    # parenthesis nesting depth after each character
    return list(itertools.accumulate((ch == "(") - (ch == ")") for ch in text))


def _split_args(body):
    # split on commas at nesting depth zero
    depths = _depths(body)
    if min(depths, default=0) < 0 or body.count("(") != body.count(")"):
        raise FamilyParseError("unbalanced parentheses in %r" % (body,))
    cuts = [i for i, ch in enumerate(body) if ch == "," and not depths[i]]
    return [body[a + 1 : b] for a, b in zip([-1] + cuts, cuts + [len(body)])]


def _int_field(text, what):
    try:
        return int(text)
    except ValueError:
        raise FamilyParseError("%s must be an integer, got %r" % (what, text)) from None


# family name -> (constructor, the spec fields it takes, in spec order)
FAMILIES = {
    "chi": (make_chi, ("n",)),
    "chi_nm": (make_chi_nm, ("n", "m")),
    "theta": (make_theta, ("n", "m", "k")),
    "chi_prime3": (make_chi_prime3, ("n",)),
    "cchi": (make_cchi, ("n",)),
    "comb": (make_comb, ("n", "m", "coeffs")),
}


def _fields(fs):
    if fs.family not in FAMILIES:
        raise ValueError("unknown family %r" % (fs.family,))
    return [getattr(fs, name) for name in FAMILIES[fs.family][1]]


def parse_family(text):
    """Parse a spec string per the grammar.

    chi:<n>  chi_nm:<n>:<m>  theta:<n>:<m>:<k>  chi_prime3:<n>  cchi:<n>
    comb:<n>:<m>:<a_0...a_ell>  concat(<spec>,<spec>,...)

    concat nests at most MAX_N deep: a table has at most MAX_N bits, so any
    deeper nesting only wraps single parts.
    """
    text = text.strip()
    if max(_depths(text), default=0) > MAX_N:
        raise FamilyParseError("concat nests more than %d deep" % MAX_N)
    if text.startswith("concat(") and text.endswith(")"):
        body = text[len("concat(") : -1]
        if not body.strip():
            raise FamilyParseError("concat needs at least one part")
        parts = tuple(parse_family(p) for p in _split_args(body))
        return FamilySpec("concat", n=sum(p.n for p in parts), parts=parts)
    head, _, rest = text.partition(":")
    args = rest.split(":") if rest else []
    if head in FAMILIES and len(args) == len(names := FAMILIES[head][1]):
        return FamilySpec(head, **{k: a if k == "coeffs" else _int_field(a, k) for k, a in zip(names, args)})
    raise FamilyParseError("unrecognized family spec %r" % (text,))


def spec_string(fs):
    """Canonical spec string for a FamilySpec, inverse of parse_family."""
    if fs.family == "concat":
        return "concat(%s)" % ",".join(spec_string(p) for p in fs.parts)
    return ":".join([fs.family] + ["%s" % v for v in _fields(fs)])


def build(fs):
    """Materialize a FamilySpec into its TruthTable.

    A concat over the cap is refused before any part is built, and its parts
    are built smallest first, so a faulty part is refused before a larger one
    is built; equal parts are built once.
    """
    if fs.family == "concat":
        _check_concat(fs.n)
        tables = {p: build(p) for p in sorted(dict.fromkeys(fs.parts), key=lambda p: p.n)}
        return make_concat([tables[p] for p in fs.parts])
    fields = _fields(fs)  # before the lookup, so an unknown family is a ValueError
    return FAMILIES[fs.family][0](*fields)
