"""Exhaustive cryptographic spectra: differential, Walsh, boomerang, DLCT.

Each operation computes one row per rotation orbit of its table and reports
the value multiset plus the headline statistic.  The multisets are those of
the full tables over fixed domains, so their cardinalities are reproducible:

  differential  delta(a,b) over a != 0, all b        (2^n - 1) * 2^n values
  walsh         W(a,b) over all (a,b)                 2^(2n) values
  boomerang     beta(a,b) over a != 0, b != 0         (2^n - 1)^2 values
  dlct          DLCT(a,b) over a != 0, all b          (2^n - 1) * 2^n values

Headlines follow the defining maxima: Delta over a != 0 (all b), NL from the
largest |W| over a != 0 (all b), B and DL over a, b != 0.  In W(a,b) the mask
a applies to the output and b to the input.

Rotation symmetry.  Let S be the cyclic shift of the coordinates and t the
least divisor of n with F o S^t = S^t o F, read off the entries (t = n when
F has no such symmetry; the family label is never consulted).  S^t is a
linear bit permutation that commutes with F, so all four tables satisfy
T(S^t a, S^t b) = T(a, b): the row of S^t a (the column of S^t b for the
boomerang table) is the row of a with its entries permuted.  So the tally
takes one row per orbit of S^t, its least word, weighted by the orbit size.
The maps of the paper, chi, chi_{n,m}, theta_{m,k}, chi'_{n,3} and their
group products, have t = 1, which cuts the rows about n-fold.

Blocks.  The DDT, Walsh and DLCT rows are computed in blocks: the least
words of one orbit size, at most 2^14 cells (2^14 / 2^n rows, one row when
n > 14) at a time.  A DDT block is one bincount of F(x+a) + F(x) offset by
the row's place in the block; a Walsh or DLCT block is one pass of int32
butterflies over the flattened block, the widest of width 2^n.  Each block
is tallied with one bincount, so the numpy calls per row fall by the block
height while the temporaries stay a few hundred kilobytes.  The DDT energy
that sorts the boomerang columns below comes from the same blocks.

The boomerang table is built column by column from the identity of Cid et
al. (EUROCRYPT 2018) and Boura and Canteaut (ToSC 2018(3)):

  beta(a,b) = #{(x,g) : D_gF(x) = b = D_gF(x+a)} = #{x : v_b(x) = v_b(x+a)}

where D_gF(x) = F(x) + F(x+g) and v_b(x) = x + F^-1(F(x)+b) is the one g
with D_gF(x) = b.  So beta(., b) counts the pairs (x, x+a) inside the
differential classes S_{g,b} = {x : D_gF(x) = b}, of sizes delta(g,b).
Column b takes the cheaper of two counts, read off its DDT energy
P_b = sum_g delta(g,b)^2 (about 2^(2n)/2 is where their costs cross),
which is summed from the DDT rows of the orbit representatives g alone:

  P_b < 2^(2n)/2  pairs: S_{g,b} = T + {0, g} with T its half whose bit at
                  the top bit of g is clear; each unordered pair {t, t'} of
                  T stands for four pairs at a = t+t' and four at t+t'+g,
                  and the pairs (t, t+g) add delta(g,b) at a = g.  About
                  P_b/8 pair visits.
  otherwise       compare v_b(x) with v_b(x+a) at every (a, x): 2^(2n).
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
    """Report of the value multiset of rows, (weight, flat integer array over [-2^n, 2^n]) pairs.

    Every flat array, one row or a block of rows, is tallied with one
    bincount at offset 2^n and counted weight times; headline maps the
    sorted (value, count) multiset to the headline statistic.
    """
    size = 1 << n
    # the arrays of one weight share a tally, scaled once at the end, so a
    # table without symmetry (all of weight 1) costs one bincount and one
    # add per array
    tally = {}
    for weight, row in rows:
        counts = np.bincount(row + size, minlength=2 * size + 1)
        if weight in tally:
            tally[weight] += counts
        else:
            tally[weight] = counts
    hist = np.zeros(2 * size + 1, dtype=np.int64)
    for weight, counts in tally.items():
        hist += weight * counts
    multiset = tuple((int(i) - size, int(hist[i])) for i in np.flatnonzero(hist))
    return SpectrumReport(metric, n, headline(multiset), multiset, domain)


def _largest(multiset):
    return multiset[-1][0]


def _values_without(multiset, value, count):
    """The values still present once count copies of value are set aside."""
    return [v for v, c in multiset if c > (count if v == value else 0)]


def _wht(block):
    """Walsh-Hadamard transform of every row of an int32 [rows, 2^n] block, in place.

    One pass of size-doubling butterflies over the flattened block; the
    widest pairs the two halves of a row, so rows never mix.  int32 is
    exact: every value and partial sum is bounded by 2^n <= 2^24.
    """
    flat = block.reshape(-1)
    h = 1
    while h < block.shape[1]:
        v = flat.reshape(-1, 2, h)
        lo, hi = v[:, 0], v[:, 1]
        total = lo + hi
        np.subtract(lo, hi, out=hi)
        lo[...] = total
        h *= 2
    return block


def _period(f):
    """(t, S^t entries) for the least t dividing n with F o S^t = S^t o F.

    One O(2^n) comparison per divisor, read off the entries alone; t = n,
    where S^t is the identity, always qualifies.  S^t is the word rotation
    of boolmap.shift, applied to the word array directly.
    """
    n, ent = f.n, f.entries
    x = np.arange(1 << n, dtype=np.int64)
    for t in range(1, n + 1):
        if n % t == 0:
            rot = ((x >> t) | (x << (n - t))) & ((1 << n) - 1)
            if np.array_equal(ent[rot], rot[ent]):
                return t, rot


def _orbits(f):
    """(words, sizes): the least word of every orbit of S^t, t = _period(f), and its size.

    words ascends, so words[0] = 0 with size 1; with no symmetry (t = n)
    every word is its own orbit.
    """
    t, rot = _period(f)
    least = image = np.arange(1 << f.n, dtype=np.int64)
    for _ in range(f.n // t - 1):
        image = rot[image]
        least = np.minimum(least, image)
    sizes = np.bincount(least)
    words = np.flatnonzero(sizes)
    return words, sizes[words]


# A block of rows holds at most this many cells, one row when a row is longer,
# so an int64 temporary of a block takes at most 128 KiB: a smaller cap brings
# back the per-call overhead, a larger one raises the peak memory.
_BLOCK = 1 << 14


def _blocks(f, nonzero):
    """Yield (weight, rows): the orbit representatives of one orbit weight, in blocks.

    Each block holds at most _BLOCK // 2^n of the words of _orbits(f) with
    that orbit size; nonzero leaves out the word 0.
    """
    words, sizes = _orbits(f)
    if nonzero:
        words, sizes = words[1:], sizes[1:]
    height = max(1, _BLOCK >> f.n)
    for weight in np.flatnonzero(np.bincount(sizes)):
        rows = words[sizes == weight]
        for i in range(0, rows.size, height):
            yield int(weight), rows[i : i + height]


def _ddt_block(ent, rows):
    # the DDT rows delta(a, .) of every a in rows, as an int64 [rows, 2^n] block
    size = ent.size
    n = size.bit_length() - 1
    x = np.arange(size, dtype=np.int64)
    offset = np.arange(rows.size, dtype=np.int64)[:, None] << n
    counts = np.bincount(((ent ^ ent[x ^ rows[:, None]]) + offset).reshape(-1), minlength=rows.size << n)
    return counts.reshape(rows.size, size)


def differential_spectrum(f):
    """delta(a,b) = #{x : F(x+a) + F(x) = b}, tallied over a != 0 and all b."""
    blocks = ((w, _ddt_block(f.entries, rows).reshape(-1)) for w, rows in _blocks(f, True))
    return _spectrum("differential", f.n, blocks, DOM_A_NONZERO, _largest)


def _walsh_block(ent, rows):
    # W(a, .) of every output mask a in rows: the transform of (-1)^(a.F(x))
    parity = np.bitwise_count(ent & rows[:, None]) & 1
    return _wht(1 - 2 * parity.astype(np.int32))


def walsh_values(f, a):
    """Signed Walsh row W(a, .) for one output mask a, all input masks b, as int32."""
    return _walsh_block(f.entries, np.array([a], dtype=np.int64))[0]


def walsh_spectrum(f):
    """Signed Walsh values over all (a,b); headline NL = 2^(n-1) - max|W|/2.

    The row a = 0 holds one 2^n and zeros, so max|W| over a != 0 is the
    largest |value| left once that single 2^n is set aside.
    """
    n = f.n
    blocks = ((w, _walsh_block(f.entries, rows).reshape(-1)) for w, rows in _blocks(f, False))

    def nonlinearity(multiset):
        return (1 << (n - 1)) - max(abs(v) for v in _values_without(multiset, 1 << n, 1)) // 2

    return _spectrum("walsh", n, blocks, DOM_ALL_PAIRS, nonlinearity)


def _pair_counts(ent, light):
    """U(a, b) for the light columns b, as the rows of a [len(light), 2^n] table.

    U(a, b) counts the (g, {t, t'}) with a in {t+t', t+t'+g} and t != t' in
    T_{g,b}, the half of S_{g,b} whose bit at the top bit of g is clear.
    Each g costs one sort of its half-space by (column, t) and two add.at
    calls over its pairs, at most 2^(2n-3) of them, so the table is the
    only buffer that outlives one g.
    """
    size = ent.size
    n = size.bit_length() - 1
    x = np.arange(size, dtype=np.int64)
    column = np.full(size, -1, dtype=np.int64)
    column[light] = np.arange(light.size)
    dtype = np.min_scalar_type(size - 1)  # U(a, b) <= 2^(n-2)
    counts = np.zeros((light.size, size), dtype=dtype)
    flat = counts.reshape(-1)
    one = dtype.type(1)
    for g in range(1, size):
        t = x[(x & (1 << (g.bit_length() - 1))) == 0]
        c = column[ent[t] ^ ent[t ^ g]]
        keep = c >= 0
        s = np.sort((c[keep] << n) | t[keep])
        c = s >> n
        # r[i]: members of i's class after i; pair i with each of them
        r = np.searchsorted(c, c, side="right") - np.arange(1, s.size + 1)
        total = int(r.sum())
        if not total:
            continue
        i = np.repeat(np.arange(s.size), r)
        j = np.arange(total) - np.repeat(np.cumsum(r) - r, r) + i + 1
        pair = s[i] ^ (s[j] & (size - 1))  # column << n | t+t'
        np.add.at(flat, pair, one)
        np.add.at(flat, pair ^ g, one)
    return counts


def _light_columns(ent, inv, light):
    # beta(., b) = 4 U(., b) + delta(., b), and delta(., b) is the tally of v_b
    x = np.arange(ent.size, dtype=np.int64)
    for b, pairs in zip(light, _pair_counts(ent, light)):
        ddt = np.bincount(x ^ inv[ent ^ b], minlength=ent.size)
        yield int(b), (4 * pairs.astype(np.int64) + ddt)[1:]


def _heavy_columns(ent, inv, heavy):
    # beta(a, b) = #{x : v_b(x) = v_b(x+a)}, over one reused [2^n, 2^n] buffer
    size = ent.size
    x = np.arange(size, dtype=np.int64)
    shifted = np.empty((size, size), dtype=np.min_scalar_type(size - 1))
    for b in heavy:
        # shifted[a, x] = v_b(x+a): rows h..2h-1 are rows 0..h-1 with the
        # halves of every 2h-block of x swapped
        v = shifted[0]
        v[:] = x ^ inv[ent ^ b]
        h = 1
        while h < size:
            src = shifted[:h].reshape(h, -1, 2, h)
            dst = shifted[h : 2 * h].reshape(h, -1, 2, h)
            dst[:, :, 0] = src[:, :, 1]
            dst[:, :, 1] = src[:, :, 0]
            h *= 2
        yield int(b), (shifted[1:] == v).sum(axis=1)


def _energy(f):
    """P_b = sum_{g != 0} delta(g,b)^2 for every b, from the DDT rows of the orbit representatives.

    delta(S^t g, S^t b) = delta(g, b), so the orbit of g adds
    sum_{k < w} delta(g, S^(kt) b)^2 to P_b, w its size: the squares of the
    representatives of one weight are summed, then their w rotations added.
    """
    _, rot = _period(f)
    squares = {}
    for w, rows in _blocks(f, True):
        block = _ddt_block(f.entries, rows)
        squares[w] = squares.get(w, 0) + (block * block).sum(axis=0)
    energy = np.zeros(rot.size, dtype=np.int64)
    for w, part in squares.items():
        for _ in range(w):
            energy += part
            part = part[rot]
    return energy


# Column b is counted pair by pair when its DDT energy P_b < 2^(2n) / _LIGHT.
_LIGHT = 2


def _boomerang_columns(f, b):
    """Yield (b, beta(a, b) for a = 1..2^n-1) for the given columns b != 0, light first.

    Column b is light when its DDT energy P_b = sum_g delta(g,b)^2 is below
    2^(2n)/2, heavy otherwise; the energies come from the DDT rows of the
    orbit representatives.  See the module docstring for the two counts.
    """
    ok, _ = is_permutation(f)
    if not ok:
        raise NotAPermutation("boomerang spectrum needs a permutation")
    size = 1 << f.n
    ent = f.entries
    inv = invert(f).entries
    light = _energy(f)[b] * _LIGHT < size * size
    if light.any():
        yield from _light_columns(ent, inv, b[light])
    if not light.all():
        yield from _heavy_columns(ent, inv, b[~light])


def boomerang_columns(f):
    """Yield (b, beta(a, b) for a = 1..2^n-1) for every b != 0, light columns first."""
    return _boomerang_columns(f, np.arange(1, 1 << f.n))


def boomerang_spectrum(f):
    """beta(a,b) = #{x : F^-1(F(x)+b) + F^-1(F(x+a)+b) = a} over a, b != 0.

    Built from beta(a,b) = #{(x,g) : D_gF(x) = b = D_gF(x+a)}: a column whose
    DDT energy sum_g delta(g,b)^2 is below 2^(2n)/2 counts the pairs inside
    its differential classes, any other compares v_b(x) = x + F^-1(F(x)+b)
    with v_b(x+a) at every (a, x).  Raises NotAPermutation if F is not a
    permutation.
    """
    words, sizes = _orbits(f)
    weight = dict(zip(words.tolist(), sizes.tolist()))
    columns = ((weight[b], column) for b, column in _boomerang_columns(f, words[1:]))
    return _spectrum("boomerang", f.n, columns, DOM_AB_NONZERO, _largest)


def dlct_spectrum(f):
    """DLCT(a,b) = #{x : b.F(x) = b.F(x+a)} - 2^(n-1) over a != 0, all b.

    Row a is half the transform of the output-difference histogram: with
    c_v = #{x : F(x)+F(x+a) = v}, DLCT(a,b) = (sum_v c_v (-1)^(b.v)) / 2.
    The headline is the maximum over b != 0; DLCT(a,0) = 2^(n-1) in every row.
    """
    n = f.n
    ddt = ((w, _ddt_block(f.entries, rows).astype(np.int32)) for w, rows in _blocks(f, True))
    blocks = ((w, _wht(block).reshape(-1) >> 1) for w, block in ddt)

    def uniformity(multiset):
        return max(_values_without(multiset, 1 << (n - 1), (1 << n) - 1))

    return _spectrum("dlct", n, blocks, DOM_A_NONZERO, uniformity)


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
