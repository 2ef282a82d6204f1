"""Exhaustive cryptographic spectra: differential, Walsh, boomerang, DLCT.

Each operation enumerates its full table and reports the value multiset plus
the headline statistic.  The enumeration domains are fixed so the multiset
cardinalities are reproducible:

  differential  delta(a,b) over a != 0, all b        (2^n - 1) * 2^n values
  walsh         W(a,b) over all (a,b)                 2^(2n) values
  boomerang     beta(a,b) over a != 0, b != 0         (2^n - 1)^2 values
  dlct          DLCT(a,b) over a != 0, all b          (2^n - 1) * 2^n values

Headlines follow the defining maxima: Delta over a != 0 (all b), NL from the
largest |W| over a != 0 (all b), B and DL over a, b != 0.  In W(a,b) the mask
a applies to the output and b to the input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boolmap import NotAPermutation, dump_json, invert, is_permutation

DOM_A_NONZERO = "a nonzero, all b"
DOM_ALL_PAIRS = "all (a,b)"
DOM_AB_NONZERO = "a nonzero, b nonzero"


@dataclass(frozen=True)
class SpectrumReport:
    """One spectrum: metric name, headline statistic, and the value multiset.

    multiset is a tuple of (value, count) pairs sorted ascending by value;
    domain names the enumerated (a,b) region.
    """

    metric: str
    n: int
    headline: int
    multiset: tuple
    domain: str

    def counts(self):
        return dict(self.multiset)

    def total(self):
        return sum(c for _, c in self.multiset)


def _spectrum(metric, n, rows, domain, headline):
    """Report of the value multiset of rows, each an int64 array over [-2^n, 2^n].

    Every row is tallied with one bincount at offset 2^n; headline maps the
    sorted (value, count) multiset to the headline statistic.
    """
    size = 1 << n
    hist = np.zeros(2 * size + 1, dtype=np.int64)
    for row in rows:
        hist += np.bincount(row + size, minlength=2 * size + 1)
    multiset = tuple((int(i) - size, int(hist[i])) for i in np.flatnonzero(hist))
    return SpectrumReport(metric, n, headline(multiset), multiset, domain)


def _largest(multiset):
    return multiset[-1][0]


def _values_without(multiset, value, count):
    """The values still present once count copies of value are set aside."""
    return [v for v, c in multiset if c > (count if v == value else 0)]


def _parity_sign(words, mask):
    # (-1)^(popcount(words & mask)) as an int64 vector
    return 1 - 2 * (np.bitwise_count(words & np.int64(mask)).astype(np.int64) & 1)


def _wht(vec):
    # in-place size-doubling butterflies; vec is int64, length a power of two
    v = vec.copy()
    h = 1
    while h < v.size:
        v = v.reshape(-1, 2, h)
        a = v[:, 0, :] + v[:, 1, :]
        b = v[:, 0, :] - v[:, 1, :]
        v[:, 0, :] = a
        v[:, 1, :] = b
        v = v.reshape(-1)
        h *= 2
    return v


def _ddt_rows(f):
    # row a of the DDT, delta(a, .), for every a != 0
    ent = f.entries
    x = np.arange(1 << f.n, dtype=np.int64)
    for a in range(1, 1 << f.n):
        yield np.bincount(ent ^ ent[x ^ a], minlength=1 << f.n)


def differential_spectrum(f):
    """delta(a,b) = #{x : F(x+a) + F(x) = b}, tallied over a != 0 and all b."""
    return _spectrum("differential", f.n, _ddt_rows(f), DOM_A_NONZERO, _largest)


def walsh_values(f, a):
    """Signed Walsh row W(a, .) for one output mask a, all input masks b."""
    return _wht(_parity_sign(f.entries, a))


def walsh_spectrum(f):
    """Signed Walsh values over all (a,b); headline NL = 2^(n-1) - max|W|/2.

    The row a = 0 holds one 2^n and zeros, so max|W| over a != 0 is the
    largest |value| left once that single 2^n is set aside.
    """
    n = f.n
    rows = (walsh_values(f, a) for a in range(1 << n))

    def nonlinearity(multiset):
        return (1 << (n - 1)) - max(abs(v) for v in _values_without(multiset, 1 << n, 1)) // 2

    return _spectrum("walsh", n, rows, DOM_ALL_PAIRS, nonlinearity)


def boomerang_spectrum(f):
    """beta(a,b) = #{x : F^-1(F(x)+b) + F^-1(F(x+a)+b) = a} over a, b != 0."""
    ok, _ = is_permutation(f)
    if not ok:
        raise NotAPermutation("boomerang spectrum needs a permutation")
    n = f.n
    size = 1 << n
    inv = invert(f).entries
    ent = f.entries
    x = np.arange(size, dtype=np.int64)
    avec = np.arange(1, size, dtype=np.int64)
    xa = x[:, None] ^ avec[None, :]

    def columns():
        # beta(., b) over a != 0, for every b != 0
        for b in range(1, size):
            u = inv[ent ^ b]
            yield (u[xa] ^ u[x][:, None] == avec[None, :]).sum(axis=0)

    return _spectrum("boomerang", n, columns(), DOM_AB_NONZERO, _largest)


def dlct_spectrum(f):
    """DLCT(a,b) = #{x : b.F(x) = b.F(x+a)} - 2^(n-1) over a != 0, all b.

    Row a is half the transform of the output-difference histogram: with
    c_v = #{x : F(x)+F(x+a) = v}, DLCT(a,b) = (sum_v c_v (-1)^(b.v)) / 2.
    The headline is the maximum over b != 0; DLCT(a,0) = 2^(n-1) in every row.
    """
    n = f.n
    rows = (_wht(row) // 2 for row in _ddt_rows(f))

    def uniformity(multiset):
        return max(_values_without(multiset, 1 << (n - 1), (1 << n) - 1))

    return _spectrum("dlct", n, rows, DOM_A_NONZERO, uniformity)


def render_spectrum(report):
    """Compact {value^count, ...} rendering, count 1 printed bare.

    Values are ordered by absolute value, the negative sign first within a
    pair, mirroring the usual presentation of signed spectra.
    """
    items = sorted(report.multiset, key=lambda vc: (abs(vc[0]), vc[0]))
    parts = []
    for v, c in items:
        parts.append("%d^%d" % (v, c) if c != 1 else "%d" % v)
    return "{%s}" % ",".join(parts)


def report_doc(report):
    """The JSON document of a report, as printed by chibox analyze."""
    return {
        "metric": report.metric,
        "n": report.n,
        "headline": report.headline,
        "spectrum": [[int(v), int(c)] for v, c in report.multiset],
        "domain": report.domain,
    }


def report_to_json(report):
    return dump_json(report_doc(report))
