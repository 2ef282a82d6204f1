"""Outside-in span tracer for chibox.

The tracer replaces every public function of the traced chibox modules with
a wrapper that records a span (name, start, end, parent) in memory.  Modules
that captured a function at import (``from .boolmap import invert``, the
``cli.SPECTRUM_FOR`` table, ``cost.TEMPLATE_BUILDERS``) are patched as
well, so every call lands in its own span and, for example, the spectra
are not charged to ``cli.main``.  Nothing under ``src/`` is changed, and
``uninstall`` restores every patched reference.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

LAYERS = ("families", "boolmap", "thetagroup", "metrics", "cost", "cli")

BOOLMAP_NAMED = (
    "is_permutation",
    "invert",
    "cycle_structure",
    "table_degree",
    "iterate",
    "fixed_points",
    "table_to_json",
    "table_from_json",
)
SPECTRA = ("differential", "walsh", "dlct", "boomerang")

# Spans with these names keep their own self time.  Any other span whose
# parent is in the same layer is charged to the parent's key, so helpers
# such as anf under table_degree or walsh_values under walsh_spectrum count
# toward the function that called them.
NAMED = frozenset(
    ["boolmap." + f for f in BOOLMAP_NAMED]
    + ["metrics.%s_spectrum" % s for s in SPECTRA]
    + ["thetagroup.comb_to_table", "thetagroup.predicate_fixed_set", "cost.area_estimate", "cli.main"]
)


def _table_size(args, result):
    """2^n of the first truth table among the result and the first argument."""
    for value in (result[0] if isinstance(result, tuple) and result else result, args[0] if args else None):
        entries = getattr(value, "entries", None)
        if entries is not None and hasattr(value, "n"):
            return len(entries)
    return 0


# (size, extra) of a finished call: size is the 2^n words the call worked
# on, extra the exit code of cli.main or the bytes table_to_json returned.
SIZERS = {
    "cli.main": lambda args, result: (0, result),
    "boolmap.table_to_json": lambda args, result: (_table_size(args, None), len(result)),
    "thetagroup.predicate_fixed_set": lambda args, result: (1 << args[0], 0),
}

RAISED = -1


class Tracer:
    """Spans are [name, start, end, parent index, size, extra]; parents precede children."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        sizer = SIZERS.get(name, lambda args, result: (_table_size(args, result), 0))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, RAISED]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            rec[4], rec[5] = sizer(args, result)
            return result

        return traced

    def install(self):
        """Wrap the public functions of each layer and every module-level reference to them."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules["chibox." + layer]
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                    wrappers[obj] = self._wrap("%s.%s" % (layer, name), obj)
        for name, module in sorted(sys.modules.items()):
            if name != "chibox" and not name.startswith("chibox."):
                continue
            namespace = vars(module)
            for container in [namespace] + [v for v in namespace.values() if isinstance(v, dict)]:
                for key, value in list(container.items()):
                    if inspect.isfunction(value) and value in wrappers:
                        self._patches.append((container, key, value))
                        container[key] = wrappers[value]

    def uninstall(self):
        for container, key, original in reversed(self._patches):
            container[key] = original
        self._patches.clear()


def layer_metrics(spans, wall_s, output_bytes):
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    count = len(spans)
    layer = [s[0].split(".", 1)[0] for s in spans]
    child = [0.0] * count
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    self_s = [s[2] - s[1] - child[i] for i, s in enumerate(spans)]
    key = []
    for i, s in enumerate(spans):
        parent = s[3]
        if s[0] in NAMED or parent < 0 or layer[parent] != layer[i]:
            key.append(s[0])
        else:
            key.append(key[parent])
    entering = [s[3] < 0 or layer[s[3]] != layer[i] for i, s in enumerate(spans)]

    def self_of(pred):
        return sum(self_s[i] for i in range(count) if pred(i))

    def entries_of(pred):
        return sum(spans[i][4] for i in range(count) if pred(i) and entering[i])

    def calls_of(pred):
        return sum(1 for i in range(count) if pred(i) and entering[i])

    def in_layer(name):
        return lambda i: layer[i] == name

    out = {}
    fam = in_layer("families")
    out["families.build.self_s"] = (self_of(fam), "s")
    out["families.build.calls"] = (calls_of(fam), "count")
    out["families.build.entries"] = (entries_of(fam), "count")

    for f in BOOLMAP_NAMED:
        out["boolmap.%s.self_s" % f] = (self_of(lambda i, k="boolmap." + f: key[i] == k), "s")
    bm = in_layer("boolmap")
    out["boolmap.calls"] = (calls_of(bm), "count")
    out["boolmap.entries"] = (entries_of(bm), "count")
    out["boolmap.table_to_json.bytes"] = (
        sum(spans[i][5] for i in range(count) if spans[i][0] == "boolmap.table_to_json"),
        "B",
    )

    def theta_op(i):
        return layer[i] == "thetagroup" and key[i] not in ("thetagroup.comb_to_table", "thetagroup.predicate_fixed_set")

    out["thetagroup.comb_to_table.self_s"] = (self_of(lambda i: key[i] == "thetagroup.comb_to_table"), "s")
    out["thetagroup.predicate_fixed_set.self_s"] = (
        self_of(lambda i: key[i] == "thetagroup.predicate_fixed_set"),
        "s",
    )
    out["thetagroup.predicate_fixed_set.words"] = (
        sum(spans[i][4] for i in range(count) if spans[i][0] == "thetagroup.predicate_fixed_set"),
        "count",
    )
    out["thetagroup.group_ops.self_s"] = (self_of(theta_op), "s")
    out["thetagroup.group_ops.calls"] = (calls_of(theta_op), "count")

    for s in SPECTRA:
        name = "metrics.%s_spectrum" % s
        t = self_of(lambda i: key[i] == name)
        sizes = [spans[i][4] for i in range(count) if spans[i][0] == name and spans[i][4]]
        if s == "walsh":
            cells = sum(q * q for q in sizes)
        elif s == "boomerang":
            cells = sum((q - 1) ** 2 for q in sizes)
        else:
            cells = sum((q - 1) * q for q in sizes)
        out[name + ".self_s"] = (t, "s")
        out[name + ".cells"] = (cells, "count")
        out[name + ".cells_per_s"] = (cells / t if t > 0 else 0.0, "1/s")
        if s == "boomerang":
            # what the current all-triples pass computes: 2^n * (2^n - 1)^2
            # index lookups, over an int64 index matrix of 2^n * (2^n - 1)
            out[name + ".ops"] = (sum(q * (q - 1) ** 2 for q in sizes), "ops_computed")
            out[name + ".bytes"] = (sum(8 * q * (q - 1) for q in sizes), "B_computed")

    out["cost.area_estimate.self_s"] = (self_of(lambda i: key[i] == "cost.area_estimate"), "s")

    mains = [s for s in spans if s[0] == "cli.main"]
    out["cli.main.self_s"] = (self_of(in_layer("cli")), "s")
    out["cli.main.calls"] = (len(mains), "count")
    out["cli.main.errors"] = (sum(1 for s in mains if s[5] != 0), "count")
    out["cli.output_bytes"] = (output_bytes, "B")

    out["bench.unattributed_s"] = (wall_s - sum(self_s), "s")
    return out
