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

Blocks.  All four spectra take their representatives from the same blocks:
the least words of one orbit size, at most 2^14 cells (2^14 / 2^n rows, one
row when n > 14) at a time, each block carrying its orbit size as weight.
A DDT block is one bincount of F(x+a) + F(x) offset by the row's place in
the block; a Walsh or DLCT block is transformed by two float32 matrix
products, H_(2^n) = H_(2^hi) (x) H_(2^lo) applied to each row read as a
[2^hi, 2^lo] matrix, which BLAS runs as sgemm (exact, see _wht; the
OPENBLAS_NUM_THREADS environment variable sets the threads it may use).
Each block is tallied with one bincount, so the numpy calls per row fall by
the block height while the temporaries stay a few hundred kilobytes.  The
boomerang table takes the words of a block of at most 2^12 cells as its
columns b and counts them together, one sort and one pair enumeration a
block.  The DLCT transforms DDT blocks, so its pass tallies them into the
DDT multiset too, and differential_spectrum hands that report back for the
same table instead of building the blocks again.

Self-check.  Before it is reported, every multiset must have the size of
its domain and, for DDT, Walsh and DLCT, the sum or sum of squares of a
true table (see _report).  The DLCT's pass checks its DDT multiset as well,
and the two against each other: 4 sum DLCT^2 = 2^n sum delta^2 over a != 0,
Parseval on each row.  Every boomerang column b must meet sum_(a != 0)
beta(a,b) = sum_a delta(a,b)^2 - 2^n, with delta(., b) tallied in the same
pass.  A wrong entry raises RuntimeError instead of being reported.

The boomerang table is built column by column from the identity of Cid et
al. (EUROCRYPT 2018) and Boura and Canteaut (ToSC 2018(3)):

  beta(a,b) = #{(x,g) : D_gF(x) = b = D_gF(x+a)} = #{x : v_b(x) = v_b(x+a)}

where D_gF(x) = F(x) + F(x+g) and v_b(x) = x + F^-1(F(x)+b) is the one g
with D_gF(x) = b.  So beta(., b) counts the pairs (x, x+a) inside the
differential classes S_{g,b} = {x : D_gF(x) = b}, of sizes delta(g,b).
S_{g,b} = T + {0, g} with T its half {x : x < x+g}; each unordered pair
{t, t'} of T stands for four pairs at a = t+t' and four at t+t'+g, and
the pairs (t, t+g) add delta(g,b) at a = g.  A column takes about
sum_g delta(g,b)^2 / 8 pair visits.  The pairs of a block's columns are
enumerated in chunks of at most _BLOCK, so no temporary outgrows a
_BLOCK-entry chunk or a block of columns.
"""

from __future__ import annotations

import functools
import weakref

import numpy as np

from .boolmap import NotAPermutation, _cycle_labels, invert, shift

DOM_A_NONZERO = "a nonzero, all b"
DOM_ALL_PAIRS = "all (a,b)"
DOM_AB_NONZERO = "a nonzero, b nonzero"


def _check(metric, n, got, want, identity, *args):
    # the one error of a spectrum that fails an identity every true table meets
    if got != want:
        msg = "%s spectrum of n=%d fails its count identity: %s = %d, not %d"
        raise RuntimeError(msg % (metric, n, identity % args, got, want))


def _count(hist, weight, row):
    # tally a flat integer array over [-2^n, 2^n] into a _tally histogram, weight times
    hist += weight * np.bincount(row + (hist.size >> 1), minlength=hist.size)


def _tally(n, blocks):
    """The int64 histogram over [-2^n, 2^n], offset by 2^n, of weighted blocks.

    blocks yields (weight, flat integer array over [-2^n, 2^n]) pairs, one
    row or a block of rows each, and each array is tallied with one bincount.
    """
    hist = np.zeros((2 << n) + 1, dtype=np.int64)
    for weight, row in blocks:
        _count(hist, weight, row)
    return hist


def _report(metric, n, hist, domain, headline, moments):
    """The report document {"metric", "n", "headline", "spectrum", "domain"} of a _tally histogram.

    spectrum is the value multiset as (value, count) pairs ascending by value,
    and domain names the enumerated (a,b) region; headline maps the spectrum
    to the headline statistic.  Before it returns, the multiset must meet the
    count identities of every true table, sum v^k c = want for each (k, want)
    of moments, k = 0 giving the size of the domain; a mismatch raises
    RuntimeError.
    """
    size = 1 << n
    multiset = tuple((int(i) - size, int(hist[i])) for i in np.flatnonzero(hist))
    for k, want in moments:
        _check(metric, n, sum(v**k * c for v, c in multiset), want, "sum v^%d c", k)
    return {"metric": metric, "n": n, "headline": headline(multiset), "spectrum": multiset, "domain": domain}


def _largest(multiset):
    return multiset[-1][0]


def _values_without(multiset, value, count):
    """The values still present once count copies of value are set aside."""
    return [v for v, c in multiset if c > (count if v == value else 0)]


@functools.cache
def _hadamard(k):
    # the Sylvester-Hadamard matrix H_(2^k), H[u, v] = (-1)^(u.v), as float32
    u = np.arange(1 << k)
    return 1 - 2 * (np.bitwise_count(u[:, None] & u) & 1).astype(np.float32)


def _wht(block):
    """Walsh-Hadamard transform of every row of a float32 [rows, 2^n] block, as int32.

    H_(2^n) = H_(2^hi) (x) H_(2^lo) with lo = ceil(n/2): read as a
    [2^hi, 2^lo] matrix X, a row transforms to H_hi X H_lo, one matrix
    product over the rows of every X and one over each X's columns, both
    float32 BLAS.  float32 is exact: every partial sum of either product is
    a signed sum of distinct entries of one row, so it is an integer bounded
    by their absolute sum, 2^n for a +-1 Walsh row and for a DDT row, and
    n <= 24 keeps that within the 2^24 that float32 holds exactly, whatever
    order the sums run in.
    """
    rows, size = block.shape
    n = size.bit_length() - 1
    lo = (n + 1) // 2
    half = block.reshape(-1, 1 << lo) @ _hadamard(lo)
    full = np.matmul(_hadamard(n - lo), half.reshape(rows, 1 << (n - lo), 1 << lo))
    return full.reshape(rows, size).astype(np.int32)


def _period(f):
    """(t, S^t entries) for the least t dividing n with F o S^t = S^t o F.

    One O(2^n) comparison per divisor, read off the entries alone; t = n,
    where S^t is the identity, always qualifies.
    """
    n, ent = f.n, f.entries
    for t in range(1, n + 1):
        if n % t == 0:
            rot = shift(n, t).entries
            if np.array_equal(ent[rot], rot[ent]):
                return t, rot


def _orbits(f):
    """(words, sizes): the least word of every orbit of S^t, t = _period(f), and its size.

    words ascends, so words[0] = 0 with size 1; with no symmetry (t = n)
    every word is its own orbit.
    """
    sizes = np.bincount(_cycle_labels(_period(f)[1]))
    words = np.flatnonzero(sizes)
    return words, sizes[words]


# A block of rows holds at most this many cells (one row when a row is longer)
# and the boomerang columns count their pairs in chunks of at most this many,
# so an int64 temporary of a block or a chunk takes at most 128 KiB: a smaller
# cap brings back the per-call overhead, a larger one raises the peak memory.
# A block of boomerang columns holds a quarter as many cells, since the kernel
# keeps about ten arrays of a block's size alive.
_BLOCK = 1 << 14


def _blocks(f, nonzero, cells=None):
    """Yield (weight, rows): the orbit representatives of one orbit weight, in blocks.

    Each block holds at most cells // 2^n (cells defaults to _BLOCK), and at
    least one, of the words of _orbits(f) with that orbit size; nonzero
    leaves out the word 0.
    """
    words, sizes = _orbits(f)
    if nonzero:
        words, sizes = words[1:], sizes[1:]
    height = max(1, (cells or _BLOCK) >> f.n)
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


def _differential(n, hist):
    cells = ((1 << n) - 1) << n
    return _report("differential", n, hist, DOM_A_NONZERO, _largest, [(0, cells), (1, cells)])


# The DDT report of the last dlct_spectrum call, with a weak reference to its
# table.  A TruthTable defines __eq__ and so cannot be hashed: the reference
# keys it by identity, and the holder keeps no rows and never keeps a table
# alive.
_held_ddt = None


def differential_spectrum(f):
    """delta(a,b) = #{x : F(x+a) + F(x) = b}, tallied over a != 0 and all b.

    When the last dlct_spectrum call was on this same table object and no
    differential_spectrum call came since, its pass has already tallied and
    checked every DDT block, and that report is returned instead.
    """
    global _held_ddt
    held, _held_ddt = _held_ddt, None
    if held is not None and held[0]() is f:
        return held[1]
    blocks = ((w, _ddt_block(f.entries, rows).reshape(-1)) for w, rows in _blocks(f, True))
    return _differential(f.n, _tally(f.n, blocks))


def _walsh_block(ent, rows):
    # W(a, .) of every output mask a in rows: the transform of (-1)^(a.F(x))
    parity = np.bitwise_count(ent & rows[:, None]) & 1
    return _wht(1 - 2 * parity.astype(np.float32))


def walsh_spectrum(f):
    """Signed Walsh values over all (a,b); headline NL = 2^(n-1) - max|W|/2.

    The row a = 0 holds one 2^n and zeros, so max|W| over a != 0 is the
    largest |value| left once that single 2^n is set aside.
    """
    n = f.n
    blocks = ((w, _walsh_block(f.entries, rows).reshape(-1)) for w, rows in _blocks(f, False))

    def nonlinearity(multiset):
        return (1 << (n - 1)) - max(abs(v) for v in _values_without(multiset, 1 << n, 1)) // 2

    moments = [(0, 1 << (2 * n)), (2, 1 << (3 * n))]
    return _report("walsh", n, _tally(n, blocks), DOM_ALL_PAIRS, nonlinearity, moments)


def _boomerang_block(ent, inv, cols):
    """(beta, squares) of the columns b in cols, from the pairs inside their differential classes.

    beta is the int64 [cols, 2^n] block of beta(a, b), 0 at a = 0, and
    squares[j] = sum_a delta(a, b)^2 for b = cols[j].  beta(., b) = 4 U +
    delta(., b), where U(a) counts the pairs {t, t'} of one half T_{g,b} with
    a in {t+t', t+t'+g} and delta(., b) is the tally of v_b; see the module
    docstring.  All columns of the block share one sort and one enumeration
    of their pairs.
    """
    size = ent.size
    n = size.bit_length() - 1
    x = np.arange(size, dtype=np.int64)
    # y = x + g, the partner of x in its class; v = (column, g), the column's
    # place in the block above g, read off the flat index (column, x)
    y = inv[ent ^ cols[:, None]]
    v = y ^ np.arange(cols.size << n).reshape(cols.size, size)
    delta = np.bincount(v.reshape(-1), minlength=cols.size << n).reshape(cols.size, size)
    # one sort orders the halves T = {x : x < x + g} of all columns by
    # (column, g, t): a class is a run
    v <<= n
    v |= x
    cls = np.sort(v[x < y])
    del v, y  # freed early, as are the class keys below: they set the block's peak memory
    t = cls & (size - 1)
    cls >>= n
    g = cls & (size - 1)
    # the partner words keep their column's place: (column, t)
    tb = cls ^ g
    tb |= t
    # r[i]: members of i's class after i; the pairs end[i]-r[i] .. end[i]-1
    # pair i with each of them, pair k with the word at k + skip[i]
    r = np.searchsorted(cls, cls, side="right") - np.arange(1, t.size + 1)
    del cls
    end = np.cumsum(r)
    skip = np.arange(1, t.size + 1) - (end - r)
    pairs = np.zeros(cols.size << n, dtype=np.int64)
    # T holds 2^(n-1) words a column, so end is never empty
    total = int(end[-1])
    for lo in range(0, total, _BLOCK):
        hi = min(lo + _BLOCK, total)
        # the words i0..i1-1 own the pairs lo..hi-1, cnt[i] of them each
        i0 = np.searchsorted(end, lo, side="right")
        i1 = np.searchsorted(end, hi - 1, side="right") + 1
        cnt = np.minimum(end[i0:i1], hi) - np.maximum(end[i0:i1] - r[i0:i1], lo)
        # d: the column's offset and t + t' of every pair, then t + t' + g, in place
        d = np.arange(lo, hi)
        d += np.repeat(skip[i0:i1], cnt)
        d = tb[d]
        d ^= np.repeat(t[i0:i1], cnt)
        pairs += np.bincount(d, minlength=cols.size << n)
        d ^= np.repeat(g[i0:i1], cnt)
        pairs += np.bincount(d, minlength=cols.size << n)
    pairs *= 4
    pairs += delta.reshape(-1)
    return pairs.reshape(cols.size, size), (delta * delta).sum(axis=1)


def boomerang_spectrum(f):
    """beta(a,b) = #{x : F^-1(F(x)+b) + F^-1(F(x+a)+b) = a} over a, b != 0.

    Built from beta(a,b) = #{(x,g) : D_gF(x) = b = D_gF(x+a)}: one column per
    rotation orbit, weighted by the orbit size, counted in blocks of columns
    of at most _BLOCK / 4 cells whose pairs are enumerated in chunks of at
    most _BLOCK.  Every column must meet sum_(a != 0) beta(a,b) = sum_a
    delta(a,b)^2 - 2^n, else RuntimeError.  Raises NotAPermutation if F is
    not a permutation.
    """
    try:
        inv = invert(f).entries
    except NotAPermutation:
        raise NotAPermutation("boomerang spectrum needs a permutation") from None
    n, size = f.n, 1 << f.n

    def columns():
        for w, cols in _blocks(f, True, _BLOCK >> 2):
            beta, squares = _boomerang_block(f.entries, inv, cols)
            for b, got, want in zip(cols.tolist(), beta.sum(axis=1).tolist(), (squares - size).tolist()):
                _check("boomerang", n, got, want, "sum_(a != 0) beta(a,%d)", b)
            yield w, beta[:, 1:].reshape(-1)

    return _report("boomerang", n, _tally(n, columns()), DOM_AB_NONZERO, _largest, [(0, (size - 1) ** 2)])


def dlct_spectrum(f):
    """DLCT(a,b) = #{x : b.F(x) = b.F(x+a)} - 2^(n-1) over a != 0, all b.

    Row a is half the transform of the output-difference histogram: with
    c_v = #{x : F(x)+F(x+a) = v}, DLCT(a,b) = (sum_v c_v (-1)^(b.v)) / 2.
    The headline is the maximum over b != 0; DLCT(a,0) = 2^(n-1) in every row.
    Row a sums to 2^(n-1) c_0, so the table sums to 2^(n-1) times the pairs
    x != y with F(x) = F(y), sum_y k_y (k_y - 1) over the preimage counts.

    The pass tallies the DDT blocks it transforms as well.  That multiset
    must meet the DDT's own identities, and the two must meet Parseval's
    link 4 sum DLCT^2 = 2^n sum delta^2 (both over a != 0); the checked DDT
    report is then held for differential_spectrum on the same table.
    """
    global _held_ddt
    n = f.n
    k = np.bincount(f.entries)
    collisions = int((k * (k - 1)).sum())
    ddt_hist = np.zeros((2 << n) + 1, dtype=np.int64)

    def blocks():
        for w, rows in _blocks(f, True):
            ddt = _ddt_block(f.entries, rows)
            _count(ddt_hist, w, ddt.reshape(-1))
            # freed before the transform makes its temporaries, which would
            # otherwise come on top of it at the peak
            ddt = ddt.astype(np.float32)
            yield w, _wht(ddt).reshape(-1) >> 1

    hist = _tally(n, blocks())
    differential = _differential(n, ddt_hist)
    # every delta is even, so 2^n sum delta^2 / 4 is exact
    squares = sum(v * v * c for v, c in differential["spectrum"])

    def uniformity(multiset):
        return max(_values_without(multiset, 1 << (n - 1), (1 << n) - 1))

    cells = ((1 << n) - 1) << n
    moments = [(0, cells), (1, collisions << (n - 1)), (2, squares << n >> 2)]
    report = _report("dlct", n, hist, DOM_A_NONZERO, uniformity, moments)
    _held_ddt = (weakref.ref(f), differential)
    return report


def render_spectrum(report):
    """Compact {value^count, ...} rendering of a report's spectrum, count 1 printed bare.

    Values are ordered by absolute value, the negative sign first within a
    pair, mirroring the usual presentation of signed spectra.
    """
    items = sorted(report["spectrum"], key=lambda vc: (abs(vc[0]), vc[0]))
    parts = []
    for v, c in items:
        parts.append("%d^%d" % (v, c) if c != 1 else "%d" % v)
    return "{%s}" % ",".join(parts)
