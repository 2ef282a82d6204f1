"""Truth-table algebra for vectorial Boolean functions F: F_2^n -> F_2^n.

A function is stored as an array of 2^n output words indexed by the input
word.  Bit i of a word holds coordinate x_i, so x_0 is the least significant
bit, and every coordinate index in a formula is reduced mod n.  The mapping
algebra (pointwise addition and composition), permutation machinery
(inverse, iterates, cycle structure), and the algebraic normal form all live
here.
"""

from __future__ import annotations

import binascii
import json
import math
from dataclasses import dataclass

import numpy as np

MAX_N = 24


class NotAPermutation(ValueError):
    """The operation needs a bijective table but the entries collide."""


def _check_n(n):
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= MAX_N:
        raise ValueError("dimension n must be an integer in 1..%d, got %r" % (MAX_N, n))


def dump_json(doc):
    """The byte form of every chibox document: compact one-line JSON plus newline.

    A TruthTable value, always the last field, is written as the array of its
    entries in hex (hex_digits), quoted and comma-separated in one uint8 array.
    """
    key, table = next(reversed(doc.items()), (None, None))
    if not isinstance(table, TruthTable):
        return json.dumps(doc, separators=(",", ":")) + "\n"
    width = (table.n + 3) // 4
    cells = np.full((1 << table.n, width + 3), ord(","), dtype=np.uint8)
    cells[:, [0, -2]] = ord('"')
    cells[:, 1:-2] = hex_digits(table.entries, table.n)
    head = json.dumps({**doc, key: []}, separators=(",", ":"))[:-2]
    return "%s%s]}\n" % (head, str(memoryview(cells.reshape(-1)[:-1]), "ascii"))


def hex_digits(words, n):
    """[len(words), ceil(n/4)] uint8 array of each word's lowercase hex digits, zero-padded.

    Each word is below 2^MAX_N, so the last ceil(n/4) of its 8 hexlified big-endian uint32 digits hold it.
    """
    hexed = binascii.hexlify(np.asarray(words, dtype=">u4").tobytes())
    return np.frombuffer(hexed, dtype=np.uint8).reshape(-1, 8)[:, 8 - (n + 3) // 4 :]


def bits_of(word, n):
    """Unpack a word into the coordinate tuple (x_0, ..., x_{n-1})."""
    return tuple((word >> i) & 1 for i in range(n))


@dataclass(frozen=True, eq=False)
class TruthTable:
    """Immutable table of a map F_2^n -> F_2^n.

    entries[u] is the output word F(u), a word of F_2^n; the array is a read-only int64 copy.
    """

    n: int
    entries: np.ndarray

    def __post_init__(self):
        _check_n(self.n)
        ent = np.asarray(self.entries)
        if ent.dtype.kind not in "iu":
            raise ValueError("entries must be integers that fit int64")
        if ent.shape != (1 << self.n,):
            raise ValueError("entries must have exactly 2^n elements")
        if int(ent.min()) < 0 or int(ent.max()) >> self.n:
            raise ValueError("entries contain a word outside F_2^n")
        ent = ent.astype(np.int64)
        ent.setflags(write=False)
        object.__setattr__(self, "entries", ent)

    def __eq__(self, other):
        if not isinstance(other, TruthTable):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.entries, other.entries)

    def __getitem__(self, u):
        return int(self.entries[u])

    def __len__(self):
        return 1 << self.n


def identity_table(n):
    _check_n(n)
    return TruthTable(n, np.arange(1 << n, dtype=np.int64))


def shift(n, t):
    """Table of the cyclic shift S^t: output coordinate i is input coordinate i+t.

    shift(n, 0) is the identity and shift(n, a) composed with shift(n, b)
    equals shift(n, a+b).
    """
    _check_n(n)
    t %= n
    x = np.arange(1 << n, dtype=np.int64)
    mask = (1 << n) - 1
    # y_i = x_{i+t}: bit i+t of the input lands at bit i of the output
    y = ((x >> t) | (x << (n - t))) & mask if t else x
    return TruthTable(n, y)


def _same_n(f, g):
    if f.n != g.n:
        raise ValueError("dimension mismatch: %d vs %d" % (f.n, g.n))


def pointwise_add(f, g):
    """Entry-wise XOR of the two output words, the + of the mapping algebra."""
    _same_n(f, g)
    return TruthTable(f.n, f.entries ^ g.entries)


def compose(f, g):
    """Table of f after g: entry u is f(g(u))."""
    _same_n(f, g)
    return TruthTable(f.n, f.entries[g.entries])


def is_permutation(f):
    """(True, None) when entries are pairwise distinct, else (False, (u, v)).

    The witness is the pair of smallest inputs colliding at the smallest
    repeated output value.
    """
    ent = f.entries
    counts = np.bincount(ent, minlength=1 << f.n)
    repeated = np.flatnonzero(counts > 1)
    if repeated.size == 0:
        return True, None
    pre = np.flatnonzero(ent == repeated[0])
    return False, (int(pre[0]), int(pre[1]))


def _require_permutation(f):
    ok, witness = is_permutation(f)
    if not ok:
        raise NotAPermutation(
            "inputs %d and %d both map to %d" % (witness[0], witness[1], f[witness[0]])
        )


def invert(f):
    """Inverse table of a permutation; raises NotAPermutation otherwise."""
    _require_permutation(f)
    inv = np.empty(1 << f.n, dtype=np.int64)
    inv[f.entries] = np.arange(1 << f.n, dtype=np.int64)
    return TruthTable(f.n, inv)


def iterate(f, k):
    """k-fold composition of f with itself by binary exponentiation; k >= 0."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return identity_table(f.n) if k == 0 else _power(compose, f, k)


def _power(mul, base, k):
    """base^k under the associative mul, by square-and-multiply; k >= 1."""
    acc = None
    while True:
        if k & 1:
            acc = base if acc is None else mul(base, acc)
        k >>= 1
        if not k:
            return acc
        base = mul(base, base)


def _cycle_labels(p):
    """The least word of each word's cycle under the permutation p, an array of 2^n words, as int32.

    Pointer doubling: after round k, label[u] is the least of u, p(u), ...,
    p^(2^k - 1)(u) and q is p^(2^k), so n rounds cover every cycle.  The
    doubling stops early once a round leaves the labels unchanged: then
    labels never fall along steps of q, which return to their start, so the
    windows of 2^k words that tile a cycle all hold its least word.
    """
    q = p.astype(np.int32)
    label = np.arange(p.size, dtype=np.int32)
    for _ in range(p.size.bit_length() - 1):
        merged = np.minimum(label, label[q])
        if np.array_equal(merged, label):
            break
        label = merged
        q = q[q]
    return label


def cycle_structure(f):
    """The cycles report document of a permutation; raises NotAPermutation otherwise.

    The document is {"metric": "cycles", "n", "order", "fixed_point_count",
    "cycle_lengths"}: cycle_lengths is the multiset of cycle lengths as
    (length, multiplicity) pairs ascending by length, order the lcm of the
    lengths present.  The tally of the _cycle_labels gives each cycle's
    length, and the tally of the lengths their multiplicities.
    """
    _require_permutation(f)
    sizes = np.bincount(_cycle_labels(f.entries))
    counts = np.bincount(sizes[sizes > 0])
    lengths = np.flatnonzero(counts).tolist()
    return {
        "metric": "cycles",
        "n": f.n,
        "order": math.lcm(*lengths),
        "fixed_point_count": int(counts[1]),
        "cycle_lengths": tuple((length, int(counts[length])) for length in lengths),
    }


def fixed_points(f):
    """All inputs u with f(u) = u, as an ascending int64 array."""
    return np.flatnonzero(f.entries == np.arange(1 << f.n, dtype=np.int64))


def anf(f):
    """ANF coefficients of every coordinate at once via the Moebius transform, an int64 array.

    Bit i of entry u is the coefficient of the monomial prod_{j in u} x_j in
    output coordinate i, where u is read as a subset of variable indices.
    """
    # in-place butterfly, one pass per variable, all coordinates in parallel
    a = f.entries.copy()
    for i in range(f.n):
        view = a.reshape(-1, 2, 1 << i)
        view[:, 1, :] ^= view[:, 0, :]
    return a


def _top_degree(coeffs):
    """Largest popcount among the indices of the nonzero coeffs, None when every one is zero."""
    live = np.flatnonzero(coeffs)
    return int(np.bitwise_count(live).max()) if live.size else None


def component_degree(a, mask):
    """Algebraic degree of the component function mask . F, given the ANF coefficients a = anf(F).

    mask selects output coordinates whose XOR forms the component; returns
    None for the identically-zero function (degree undefined).
    """
    if not 0 <= mask < a.size:
        raise ValueError("mask out of range")
    return _top_degree(np.bitwise_count(a & np.int64(mask)) & 1)


def table_degree(f):
    """Algebraic degree of the mapping: the largest monomial with a nonzero coefficient in any coordinate.

    Returns None for the zero map (degree undefined).
    """
    return _top_degree(anf(f))


def table_to_json(f, family=""):
    """Serialize a table to the interchange document.

    Fields: n, family (free-form provenance string), entries (entry u = F(u)
    in hex, see dump_json).
    """
    return dump_json({"n": f.n, "family": family, "entries": f})


def _read_dumped(text):
    """(head, entries) of a document whose entries array is as dump_json writes it, else None.

    That array is the last field: 2^n quoted words of ceil(n/4) hex digits of
    either case, comma-separated, followed only by "}" and an optional newline.
    The head, with the array emptied, goes through json; the words, padded to 8
    digits with "0", go through one binascii.unhexlify as big-endian uint32s.
    A lowercase word is hex_digits of its value, so dump_json writes it back.
    """
    start = text.rfind('"entries":[') + len('"entries":[')
    if start < len('"entries":['):
        return None
    try:
        doc = json.loads(text[:start] + "]}")
        n = doc["n"]
        _check_n(n)
        width = (n + 3) // 4
        end = start + ((width + 3) << n)
        if text[end:] not in ("}", "}\n"):
            return None
        cells = np.frombuffer(text[start:end].encode("ascii"), dtype=np.uint8)
    except (KeyError, ValueError):
        return None
    cells = cells.reshape(1 << n, width + 3)
    quotes, commas = cells[:, [0, -2]], cells[:-1, -1]
    if not ((quotes == ord('"')).all() and (commas == ord(",")).all() and cells[-1, -1] == ord("]")):
        return None
    digits = np.full((1 << n, 8), ord("0"), dtype=np.uint8)
    digits[:, 8 - width :] = cells[:, 1:-2]
    try:
        return doc, np.frombuffer(binascii.unhexlify(digits), dtype=">u4")
    except binascii.Error:
        return None


def table_from_json(text):
    """Parse the interchange document; returns (TruthTable, family string).

    A document whose entries are as dump_json writes them is read in one
    pass (_read_dumped); any other JSON document, bytes included, goes
    through json.loads, with int(h, 16) per entry.
    """
    parsed = _read_dumped(text) if isinstance(text, str) else None
    if parsed is None:
        doc = json.loads(text)
        _check_n(doc["n"])
        words = [int(h, 16) for h in doc["entries"]]
    else:
        doc, words = parsed
    return TruthTable(doc["n"], words), str(doc.get("family", ""))
