"""Spans recorded from outside the program, and the arithmetic on them.

A traced op runs ``traced_child.py``, which replaces awcalc's public
functions with span-recording wrappers at module-attribute level (every
module that re-imported a name gets the wrapper too), then calls
``awcalc.cli.main``. A span is (name, start, end, parent); spans are kept in
flat arrays in memory and written once, at exit, as one JSON header line
followed by the raw arrays. Self time is computed by the benchmark, not by
the child, so that it does not inflate the traced op's wall time.

This module does not import awcalc; ``install`` receives the modules.
"""

from __future__ import annotations

import json
import time
from array import array

# functions wrapped per module; the span name is "<module>.<function>"
FUNCTIONS = {
    "qpoly": ("to_laurent", "from_laurent", "resultant"),
    "qoperators": ("apply_Dq", "apply_Sq", "verify_identity",
                   "verify_k_fold_rule"),
    "askey_wilson": ("build_family", "solve_operator_equation",
                     "three_term_data", "family_to_dict"),
    "proof_engine": ("derived_family", "chain_coeffs", "extract_rn_fg",
                     "verify_final_matches_aw", "check_nonvanishing",
                     "check_no_common_zeros"),
}
# class -> methods; both spellings of a product share the span "<Class>.mul"
METHODS = {"qpoly": {"LaurentSym": ("__mul__", "__rmul__"),
                     "PolyX": ("__mul__", "__rmul__")}}
# spans named per equation tag: "proof_engine.verify_chain_equation.<tag>"
CHAIN_EQUATION = "proof_engine.verify_chain_equation"


class SpanRecorder:
    """Flat, append-only span store: index i is one call, its parent is the
    index of the wrapped call that was running when it started (-1 for
    none). Indices grow in start order, so a parent precedes its children."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, nid: int, fn, args, kwargs):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = self.clock()
            self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self.name_index(name)

        def wrapper(*args, **kwargs):
            return self.call(nid, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path, counters: dict) -> None:
        header = {"names": self.names, "count": len(self.start),
                  "counters": counters}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)


def load(path) -> tuple[dict, list[str], array, array, array, array]:
    """Read what ``SpanRecorder.dump`` wrote."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return (header["counters"], header["names"], *arrays)


def layer_totals(names, name_id, parent, start, end) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds ``s`` and ``self_s``.

    Self time of a span is its duration minus the durations of its direct
    children. Inclusive time counts a span only when no span of the same
    name encloses it, so recursion is not counted twice; spans are properly
    nested, so an earlier same-name span still open when this one starts
    encloses it.
    """
    n = len(start)
    child_sum = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child_sum[p] += end[i] - start[i]
    out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in names}
    open_until = [float("-inf")] * len(names)
    for i in range(n):
        nid = name_id[i]
        dur = end[i] - start[i]
        row = out[names[nid]]
        row["calls"] += 1
        row["self_s"] += dur - child_sum[i]
        if start[i] >= open_until[nid]:
            row["s"] += dur
            open_until[nid] = end[i]
    return out


def _replace_everywhere(modules, original, replacement) -> None:
    """Point every module attribute bound to ``original`` at ``replacement``:
    the defining module and every module that imported the name."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(rec: SpanRecorder, mods: dict) -> dict:
    """Wrap the traced functions of awcalc's modules.

    ``mods`` maps the layer names of FUNCTIONS and METHODS to the imported
    modules, plus "all" to every awcalc module to patch. Returns a callable
    per counter name that reads its value at exit.
    """
    everywhere = mods["all"]
    originals = {}
    for layer, funcs in FUNCTIONS.items():
        for func in funcs:
            original = getattr(mods[layer], func)
            originals[f"{layer}.{func}"] = original
            _replace_everywhere(everywhere, original,
                                rec.wrap(f"{layer}.{func}", original))
    for layer, classes in METHODS.items():
        for cls_name, methods in classes.items():
            cls = getattr(mods[layer], cls_name)
            for meth in methods:
                setattr(cls, meth, rec.wrap(f"{layer}.{cls_name}.mul",
                                            getattr(cls, meth)))

    # verify_chain_equation: one span name per equation tag
    pe = mods["proof_engine"]
    chain_eq = pe.verify_chain_equation
    tag_ids = {tag: rec.name_index(f"{CHAIN_EQUATION}.{tag}")
               for tag in pe.CHAIN_EQUATIONS}

    def traced_chain_eq(base, dfam, which, *args, **kwargs):
        nid = tag_ids.get(which)
        if nid is None:
            return chain_eq(base, dfam, which, *args, **kwargs)
        return rec.call(nid, chain_eq, (base, dfam, which) + args, kwargs)

    _replace_everywhere(everywhere, chain_eq, traced_chain_eq)

    # distinct operator inputs, counted where the wrapped call lands
    distinct = {"apply_Dq": set(), "apply_Sq": set()}
    for op_name, seen in distinct.items():
        inner = getattr(pe, op_name)   # already the span wrapper

        def counting(ctx, p, _inner=inner, _seen=seen):
            _seen.add((ctx.v, p.coeffs))
            return _inner(ctx, p)

        _replace_everywhere(everywhere, inner, counting)

    # derived families actually built (cache misses at k >= 1)
    derived_cached = originals["proof_engine.derived_family"]
    derived_span = pe.derived_family
    built = [0]

    def counting_derived(*args, **kwargs):
        before = derived_cached.cache_info().misses
        out = derived_span(*args, **kwargs)
        if derived_cached.cache_info().misses > before and out.k >= 1:
            built[0] += len(out.polys)
        return out

    _replace_everywhere(everywhere, derived_span, counting_derived)
    chain_cached = originals["proof_engine.chain_coeffs"]

    return {
        "qoperators.apply_Dq.distinct": lambda: len(distinct["apply_Dq"]),
        "qoperators.apply_Sq.distinct": lambda: len(distinct["apply_Sq"]),
        "proof_engine.derived_family.misses":
            lambda: derived_cached.cache_info().misses,
        "proof_engine.derived_family.polys_built": lambda: built[0],
        "proof_engine.chain_coeffs.hits": lambda: chain_cached.cache_info().hits,
        "proof_engine.chain_coeffs.misses":
            lambda: chain_cached.cache_info().misses,
    }

