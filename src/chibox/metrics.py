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
boomerang table takes the words of a block as its columns b and tallies
them one at a time.

Self-check.  Before it is reported, every multiset must have the size of
its domain and, for DDT, Walsh and DLCT, the sum or sum of squares of a
true table (see _spectrum), so a wrong entry raises RuntimeError instead.

The boomerang table is built column by column from the identity of Cid et
al. (EUROCRYPT 2018) and Boura and Canteaut (ToSC 2018(3)):

  beta(a,b) = #{(x,g) : D_gF(x) = b = D_gF(x+a)} = #{x : v_b(x) = v_b(x+a)}

where D_gF(x) = F(x) + F(x+g) and v_b(x) = x + F^-1(F(x)+b) is the one g
with D_gF(x) = b.  So beta(., b) counts the pairs (x, x+a) inside the
differential classes S_{g,b} = {x : D_gF(x) = b}, of sizes delta(g,b).
S_{g,b} = T + {0, g} with T its half {x : x < x+g}; each unordered pair
{t, t'} of T stands for four pairs at a = t+t' and four at t+t'+g, and
the pairs (t, t+g) add delta(g,b) at a = g.  A column takes about
sum_g delta(g,b)^2 / 8 pair visits, enumerated in chunks of at most _BLOCK
pairs, so no temporary outgrows a _BLOCK-entry chunk or a 2^n row.
"""

from __future__ import annotations

import functools

import numpy as np

from .boolmap import NotAPermutation, _cycle_labels, invert, shift

DOM_A_NONZERO = "a nonzero, all b"
DOM_ALL_PAIRS = "all (a,b)"
DOM_AB_NONZERO = "a nonzero, b nonzero"


def _spectrum(metric, n, rows, domain, headline, moments):
    """The report document {"metric", "n", "headline", "spectrum", "domain"} of rows.

    rows yields (weight, flat integer array over [-2^n, 2^n]) pairs; spectrum
    is their value multiset as (value, count) pairs ascending by value, and
    domain names the enumerated (a,b) region.  Every flat array, one row or
    a block of rows, is tallied with one bincount at offset 2^n and counted
    weight times; headline maps the spectrum to the headline statistic.
    Before it returns, the multiset must meet the count identities of every
    true table, sum v^k c = want for each (k, want) of moments, k = 0 giving
    the size of the domain; a mismatch raises RuntimeError.
    """
    size = 1 << n
    hist = np.zeros(2 * size + 1, dtype=np.int64)
    for weight, row in rows:
        hist += weight * np.bincount(row + size, minlength=2 * size + 1)
    multiset = tuple((int(i) - size, int(hist[i])) for i in np.flatnonzero(hist))
    for k, want in moments:
        got = sum(v**k * c for v, c in multiset)
        if got != want:
            msg = "%s spectrum of n=%d fails its count identity: sum v^%d c = %d, not %d"
            raise RuntimeError(msg % (metric, n, k, got, want))
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
# and a boomerang column counts its pairs in chunks of at most this many, so an
# int64 temporary of a block or a chunk takes at most 128 KiB: a smaller cap
# brings back the per-call overhead, a larger one raises the peak memory.
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
    cells = ((1 << f.n) - 1) << f.n
    return _spectrum("differential", f.n, blocks, DOM_A_NONZERO, _largest, [(0, cells), (1, cells)])


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

    return _spectrum("walsh", n, blocks, DOM_ALL_PAIRS, nonlinearity, [(0, 1 << (2 * n)), (2, 1 << (3 * n))])


def _boomerang_column(ent, inv, b):
    """beta(a, b) for a = 1..2^n-1, from the pairs inside the differential classes of column b.

    beta(., b) = 4 U + delta(., b), where U(a) counts the pairs {t, t'} of
    one half T_{g,b} with a in {t+t', t+t'+g} and delta(., b) is the tally
    of v_b; see the module docstring.
    """
    size = ent.size
    n = size.bit_length() - 1
    x = np.arange(size, dtype=np.int64)
    v = x ^ inv[ent ^ b]
    t = x[x < x ^ v]
    s = np.sort((v[t] << n) | t)
    g, t = s >> n, s & (size - 1)
    # r[i]: members of i's class after i; the pairs end[i]-r[i] .. end[i]-1
    # pair i with each of them, pair k with the word at k + skip[i]
    r = np.searchsorted(g, g, side="right") - np.arange(1, s.size + 1)
    end = np.cumsum(r)
    skip = np.arange(1, s.size + 1) - (end - r)
    pairs = np.zeros(size, dtype=np.int64)
    # T holds 2^(n-1) words, so end is never empty
    total = int(end[-1])
    for lo in range(0, total, _BLOCK):
        hi = min(lo + _BLOCK, total)
        # the words i0..i1-1 own the pairs lo..hi-1, cnt[i] of them each
        i0 = np.searchsorted(end, lo, side="right")
        i1 = np.searchsorted(end, hi - 1, side="right") + 1
        cnt = np.minimum(end[i0:i1], hi) - np.maximum(end[i0:i1] - r[i0:i1], lo)
        # d: t + t' of every pair, then t + t' + g, computed in place
        d = np.arange(lo, hi)
        d += np.repeat(skip[i0:i1], cnt)
        d = t[d]
        d ^= np.repeat(t[i0:i1], cnt)
        pairs += np.bincount(d, minlength=size)
        d ^= np.repeat(g[i0:i1], cnt)
        pairs += np.bincount(d, minlength=size)
    return (4 * pairs + np.bincount(v, minlength=size))[1:]


def boomerang_spectrum(f):
    """beta(a,b) = #{x : F^-1(F(x)+b) + F^-1(F(x+a)+b) = a} over a, b != 0.

    Built from beta(a,b) = #{(x,g) : D_gF(x) = b = D_gF(x+a)}: one column per
    rotation orbit, weighted by the orbit size, each counting the pairs
    inside its differential classes in chunks of at most _BLOCK pairs.
    Raises NotAPermutation if F is not a permutation.
    """
    try:
        inv = invert(f).entries
    except NotAPermutation:
        raise NotAPermutation("boomerang spectrum needs a permutation") from None
    columns = ((w, _boomerang_column(f.entries, inv, b)) for w, rows in _blocks(f, True) for b in rows.tolist())
    return _spectrum("boomerang", f.n, columns, DOM_AB_NONZERO, _largest, [(0, ((1 << f.n) - 1) ** 2)])


def dlct_spectrum(f):
    """DLCT(a,b) = #{x : b.F(x) = b.F(x+a)} - 2^(n-1) over a != 0, all b.

    Row a is half the transform of the output-difference histogram: with
    c_v = #{x : F(x)+F(x+a) = v}, DLCT(a,b) = (sum_v c_v (-1)^(b.v)) / 2.
    The headline is the maximum over b != 0; DLCT(a,0) = 2^(n-1) in every row.
    Row a sums to 2^(n-1) c_0, so the table sums to 2^(n-1) times the pairs
    x != y with F(x) = F(y), sum_y k_y (k_y - 1) over the preimage counts.
    """
    n = f.n
    k = np.bincount(f.entries)
    collisions = int((k * (k - 1)).sum())
    ddt = ((w, _ddt_block(f.entries, rows).astype(np.float32)) for w, rows in _blocks(f, True))
    blocks = ((w, _wht(block).reshape(-1) >> 1) for w, block in ddt)

    def uniformity(multiset):
        return max(_values_without(multiset, 1 << (n - 1), (1 << n) - 1))

    cells = ((1 << n) - 1) << n
    return _spectrum("dlct", n, blocks, DOM_A_NONZERO, uniformity, [(0, cells), (1, collisions << (n - 1))])


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
