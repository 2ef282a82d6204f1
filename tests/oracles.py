"""Spectra and fixed-point tests straight from their definitions.

Each table is built by evaluating the defining count or sum at every (a, b)
pair, one row of a at a time: no fast transform, no identity between tables
and no code shared with chibox.metrics.  The conventions are those of
chibox.metrics:

  differential  delta(a,b) = #{x : F(x+a) + F(x) = b}
  walsh         W(a,b)     = sum_x (-1)^(a.F(x) + b.x), mask a on the output
  boomerang     beta(a,b)  = #{x : F^-1(F(x)+b) + F^-1(F(x+a)+b) = a}
  dlct          DLCT(a,b)  = #{x : b.F(x) = b.F(x+a)} - 2^(n-1)

spectrum_row reduces a table to the (headline, {value: count}) form of
tests/golden.py over the same domains and headline maxima.  Every table
costs O(2^(3n)) time and O(2^(2n)) memory, well under a second at n = 8.

fixed_point_predicate tests one word against the cyclic window whose
zero set chibox.thetagroup.predicate_fixed_set reads off the closed-form
power theta_0 + theta_{m,2^j} materialized on all words at once,
cycle_lengths walks the cycles of a permutation one word at a time, wht
is the int32 butterfly that chibox.metrics._wht's matrix products replace,
and hex_entries formats a table's entries one Python string at a time, the
form chibox.boolmap.dump_json writes from one binascii.hexlify call.
table_from_json reads any table document through json.loads and int(h, 16)
per entry, the reference for chibox.boolmap.table_from_json, which reads
documents in dump_json's layout with one binascii.unhexlify call.  windowed, theta and cchi build the
family tables on full words, one rotated copy of x per window offset and one
bit extraction per branch literal: the references for the half-word product
terms of chibox.families.  group_mul multiplies two unit combinations
coefficient by coefficient, the O(ell^2) double loop over coefficient
tuples that chibox.thetagroup.group_mul replaces by shifts of one int, and
group_pow raises a unit to a power by square-and-multiply over it, with no
reduction by the order.
"""

import json

import numpy as np

from chibox.boolmap import TruthTable, _check_n
from chibox.thetagroup import ThetaComb, identity_comb


def _dot(u, v):
    # u.v over F_2 as int64 0/1, broadcasting
    return (np.bitwise_count(u & v) & 1).astype(np.int64)


def differential_table(ent):
    x = np.arange(ent.size)
    return np.array(
        [((ent[x ^ a] ^ ent)[:, None] == x[None, :]).sum(axis=0) for a in x]
    )


def walsh_table(ent):
    x = np.arange(ent.size)
    bx = _dot(x[:, None], x[None, :])  # [x, b] -> b.x
    return np.array(
        [(1 - 2 * (_dot(a, ent)[:, None] ^ bx)).sum(axis=0) for a in x]
    )


def boomerang_table(ent):
    x = np.arange(ent.size)
    inv = np.empty_like(ent)
    inv[ent] = x
    if not np.array_equal(ent[inv], x):
        raise ValueError("the boomerang table needs a permutation")
    u = inv[ent[:, None] ^ x[None, :]]  # [x, b] -> F^-1(F(x)+b)
    return np.array([((u ^ u[x ^ a]) == a).sum(axis=0) for a in x])


def dlct_table(ent):
    x = np.arange(ent.size)
    bf = _dot(ent[:, None], x[None, :])  # [x, b] -> b.F(x)
    return np.array(
        [(bf == bf[x ^ a]).sum(axis=0) - ent.size // 2 for a in x]
    )


TABLE = {
    "differential": differential_table,
    "walsh": walsh_table,
    "boomerang": boomerang_table,
    "dlct": dlct_table,
}


def spectrum_row(metric, entries):
    """(headline, {value: count}) of one metric of the map with these entries.

    Domains: all (a,b) for walsh, a,b != 0 for boomerang, a != 0 otherwise.
    Headlines: Delta over a != 0; NL = 2^(n-1) - max|W|/2 over a != 0; the
    boomerang and DLCT maxima over a, b != 0.
    """
    ent = np.asarray(entries, dtype=np.int64)
    t = TABLE[metric](ent)
    if metric == "walsh":
        domain = t
        head = ent.size // 2 - int(np.abs(t[1:]).max()) // 2
    elif metric == "differential":
        domain = t[1:]
        head = int(domain.max())
    else:
        domain = t[1:, 1:] if metric == "boomerang" else t[1:]
        head = int(t[1:, 1:].max())
    values, counts = np.unique(domain, return_counts=True)
    return head, {int(v): int(c) for v, c in zip(values, counts)}


def fixed_point_predicate(n, m, j, x):
    """Window test for 'x is a fixed point of chi_{n,m}^(2^j)'.

    True iff x, read cyclically, contains no window (x_{i+1},...,x_{i+w}) of
    the form (0_{m-1}, *, 0_{m-1}, *, ..., 0_{m-1}, 1) with w = 2^j * m: a
    zero block of width m-1 before every stride-m slot, the last slot forced
    to 1.  Positions visited twice under the cyclic wrap must satisfy both
    constraints, which makes the test vacuously true exactly when the window
    cannot fit, matching the identity iterate.
    """
    if n % m == 0:
        raise ValueError("m must not divide n for the fixed-point predicate")
    if j < 0:
        raise ValueError("j must be non-negative")
    if not 0 <= x < (1 << n):
        raise ValueError("x out of range for n=%d" % (n,))
    width = (1 << j) * m
    for i in range(n):
        hit = True
        for t in range(1, width + 1):
            b = (x >> ((i + t) % n)) & 1
            if t == width:
                if b != 1:
                    hit = False
            elif t % m and b != 0:
                hit = False
            if not hit:
                break
        if hit:
            return False
    return True


def cycle_lengths(entries):
    """((length, multiplicity), ...) of the cycles of a permutation, by length."""
    ent = [int(y) for y in entries]
    seen = [False] * len(ent)
    counts = {}
    for u in range(len(ent)):
        length = 0
        v = u
        while not seen[v]:
            seen[v] = True
            v = ent[v]
            length += 1
        if length:
            counts[length] = counts.get(length, 0) + 1
    return tuple(sorted(counts.items()))


def wht(block):
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


def hex_entries(f):
    """F(u) for every u as lowercase hex, zero-padded to ceil(n/4) digits."""
    width = (f.n + 3) // 4
    return ["%0*x" % (width, y) for y in f.entries.tolist()]


def table_from_json(text):
    """(TruthTable, family string) of a table document, one Python int per entry."""
    doc = json.loads(text)
    n = doc["n"]
    _check_n(n)
    entries = [int(h, 16) for h in doc["entries"]]
    return TruthTable(n, np.asarray(entries, dtype=np.int64)), str(doc.get("family", ""))


def windowed(n, ones, zeros, linear):
    """Table of y_i = [x_i +] prod_{t in ones} x_{i+t} prod_{t in zeros} (x_{i+t} + 1).

    All coordinates at once, on rotated words; offsets wrap mod n.
    """
    _check_n(n)
    x = np.arange(1 << n, dtype=np.int64)
    y = np.full_like(x, (1 << n) - 1)
    rot, low = np.empty_like(x), np.empty_like(x)
    for t, flip in {(t % n, 0) for t in ones} | {(t % n, -1) for t in zeros}:
        # bit i of rot is x_{i+t}, complemented when flip is -1
        np.right_shift(x, t, out=rot)
        np.left_shift(x, n - t, out=low)
        rot |= low
        rot ^= flip
        y &= rot
    if linear:
        y ^= x
    return TruthTable(n, y)


def theta(n, m, k):
    return windowed(n, [m * k], [j for j in range(1, m * k) if j % m], linear=False)


def cchi(n):
    """cchi_n (n = 2k, k even, k >= 4): chi off the block boundary, the branch table on it."""
    k = n // 2
    x = np.arange(1 << n, dtype=np.int64)
    y = np.array(windowed(n, [2], [1], linear=True).entries)

    def b(i):
        return (x >> i) & 1

    def nb(i):
        return b(i) ^ 1

    def put(i, yi):
        y[:] = (y & ~(1 << i)) | (yi << i)

    put(k - 3, b(k) ^ (nb(k - 2) & b(0)))
    put(k - 2, b(k - 1) ^ (nb(0) & b(1)))
    put(k - 1, nb(k - 3) ^ (nb(k) & nb(k + 1)))
    put(k, b(k - 2) ^ (nb(k + 1) & b(k + 2)))
    put(2 * k - 2, b(2 * k - 2) ^ (nb(2 * k - 1) & b(k - 1)))
    put(2 * k - 1, b(2 * k - 1) ^ (nb(k - 1) & b(k)))
    return TruthTable(n, y)


def group_mul(f, g):
    """Product of two combinations of the same (n, m), truncated mod z^(ell+1)."""
    ell = f.ell
    out = [0] * (ell + 1)
    for i, a in enumerate(f.coeffs):
        if not a:
            continue
        for j, b in enumerate(g.coeffs):
            if b and i + j <= ell:
                out[i + j] ^= 1
    return ThetaComb(f.n, f.m, tuple(out))


def group_pow(f, k):
    """f^k for k >= 0 by square-and-multiply over group_mul."""
    acc = identity_comb(f.n, f.m)
    while k:
        if k & 1:
            acc = group_mul(acc, f)
        k >>= 1
        if k:
            f = group_mul(f, f)
    return acc
