"""In-memory spans and counters around the public functions of each layer.

Only the traced run installs these wrappers; the timed runs call the
package untouched.  A span records its name, start, end, parent span and
request id in flat arrays, and the arrays are written out once, when the
run ends.  Gaussian arithmetic is counted but never spanned: a span per
scalar operation would swamp the run.

Every wrapper is installed from here, outside the package: a function is
replaced wherever a permfunc module holds a reference to it, and a method
on every class that defines it.  Names a later version of the package no
longer has are skipped, and their metrics read 0.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from collections import Counter

# (module, attribute, span group): module-level functions, patched by identity.
FUNCTIONS = [
    ("permfunc.perm", "x_set", "perm.x_set"),
    ("permfunc.groups", "enumerate_group", "groups.enumerate"),
    ("permfunc.matrices", "integer_grid", "matrices.integer_grid"),
    ("permfunc.kernels", "gmf_sum", "kernels.gmf_sum"),
    ("permfunc.kernels", "det_gaussian_int", "kernels.det"),
    ("permfunc.cli", "build_parser", "cli.parse"),
    ("permfunc.cli", "main", "cli.main"),
]
FUNCTIONS += [
    ("permfunc.matrices", name, "matrices.build")
    for name in (
        "linear_sum",
        "perm_matrix",
        "scalar_mul",
        "block_matrix",
        "s_matrix",
        "mat_add",
        "mat_mul",
        "conjugate_transpose",
    )
]
FUNCTIONS += [
    ("permfunc.engine", name, "engine")
    for name in (
        "gmf_naive",
        "gmf_linear_sum",
        "det_linear_sum",
        "per_linear_sum",
        "det_cauchy_binet_sum",
        "gmf_block",
        "gmf_s_matrix",
        "det_exact",
    )
]

# (module, base class, method names, span group): methods on every class
# of the module that defines them.
METHODS = [
    ("permfunc.groups", "GroupSpec", ("contains",), "groups.contains"),
    (
        "permfunc.characters",
        "CharacterSpec",
        ("evaluate", "conjugate_evaluate", "evaluate_float"),
        "characters.eval",
    ),
    ("permfunc.matrices", "Matrix", ("__init__",), "matrices.build"),
]

GAUSSIAN_OPS = {
    "__mul__": "gaussian.mul_calls",
    "__rmul__": "gaussian.mul_calls",
    "__add__": "gaussian.add_calls",
    "__radd__": "gaussian.add_calls",
    "__pow__": "gaussian.pow_calls",
}

COLUMNS = (("group", "H"), ("parent", "i"), ("rid", "i"), ("outer", "b"), ("start", "d"), ("end", "d"))


class Tracer:
    """Span and counter store for one traced process."""

    def __init__(self):
        self.groups: list[str] = []
        self._group_ids: dict[str, int] = {}
        self.cols = {name: array(code) for name, code in COLUMNS}
        self.counts: Counter = Counter()
        self.request = -1
        self._stack = [-1]
        self._depth: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self._after = {
            "perm.x_set": self._x_set_elements,
            "kernels.gmf_sum": self._gmf_sum_perms,
            "engine": self._engine_terms,
        }

    def _x_set_elements(self, args, result):
        self.counts["perm.x_set_elements"] += len(result)

    def _gmf_sum_perms(self, args, result):
        self.counts["kernels.gmf_sum_perms"] += len(args[0]) if args else 0

    def _engine_terms(self, args, result):
        self.counts["engine.terms"] += getattr(result, "term_count", 0)

    def group_id(self, group: str) -> int:
        if group not in self._group_ids:
            self._group_ids[group] = len(self.groups)
            self.groups.append(group)
        return self._group_ids[group]

    # -- recording -----------------------------------------------------------

    def span(self, group: str, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(args, result)``
        runs for calls not nested inside another span of the same group."""
        gid = self.group_id(group)
        cols, stack, depth = self.cols, self._stack, self._depth
        c_group, c_parent, c_rid = cols["group"], cols["parent"], cols["rid"]
        c_outer, c_start, c_end = cols["outer"], cols["start"], cols["end"]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(c_start)
            outer = depth[gid] == 0
            depth[gid] += 1
            c_group.append(gid)
            c_parent.append(stack[-1])
            c_rid.append(self.request)
            c_outer.append(outer)
            c_end.append(0.0)
            stack.append(idx)
            c_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                c_end[idx] = clock()
                stack.pop()
                depth[gid] -= 1
            if after is not None and outer:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def add_span(self, group: str, start: float, end: float) -> None:
        """Record a span measured outside any wrapper (e.g. a module import)."""
        self.cols["group"].append(self.group_id(group))
        self.cols["parent"].append(self._stack[-1])
        self.cols["rid"].append(self.request)
        self.cols["outer"].append(True)
        self.cols["start"].append(start)
        self.cols["end"].append(end)

    def request_span(self, fn):
        """Run ``fn`` under a root span of the current request."""
        return self.span("request", fn)()

    # -- installing and removing wrappers -------------------------------------

    def _set(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _replace_everywhere(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "permfunc" or mod_name.startswith("permfunc.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self) -> None:
        counts = self.counts
        for mod_name, attr, group in FUNCTIONS:
            mod = sys.modules.get(mod_name)
            original = getattr(mod, attr, None) if mod else None
            if original is None:
                continue
            self._replace_everywhere(original, self.span(group, original, self._after.get(group)))
        for mod_name, base_name, methods, group in METHODS:
            mod = sys.modules.get(mod_name)
            base = getattr(mod, base_name, None) if mod else None
            if base is None:
                continue
            for cls in list(vars(mod).values()):
                if not (isinstance(cls, type) and issubclass(cls, base)):
                    continue
                for method in methods:
                    if method in vars(cls):
                        self._set(cls, method, self.span(group, vars(cls)[method]))
        gaussian = sys.modules.get("permfunc.gaussian")
        scalar = getattr(gaussian, "GaussianRational", None)
        for method, key in GAUSSIAN_OPS.items():
            if scalar is not None and method in vars(scalar):
                self._set(scalar, method, _counted(counts, key, vars(scalar)[method]))
        perm = sys.modules.get("permfunc.perm")
        permutation = getattr(perm, "Permutation", None)
        if permutation is not None:
            init = vars(permutation)["__init__"]
            enumerating = self.group_id("groups.enumerate")
            depth = self._depth

            def counted_init(obj, *args, **kwargs):
                counts["perm.permutations_built"] += 1
                if depth[enumerating]:
                    counts["groups.elements_enumerated"] += 1
                init(obj, *args, **kwargs)

            self._set(permutation, "__init__", counted_init)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- output ----------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the spans and counters: one JSON header line, then the columns."""
        header = {
            "groups": self.groups,
            "counts": dict(self.counts),
            "columns": [[name, code, len(self.cols[name])] for name, code in COLUMNS],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for name, _ in COLUMNS:
                self.cols[name].tofile(fh)

    def merge_file(self, path: str, rid: int) -> None:
        """Append spans written by another process, all under request ``rid``."""
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            loaded = {}
            for name, code, length in header["columns"]:
                column = array(code)
                column.fromfile(fh, length)
                loaded[name] = column
        offset = len(self.cols["start"])
        remap = array("H", (self.group_id(g) for g in header["groups"]))
        self.cols["group"].extend(remap[g] for g in loaded["group"])
        self.cols["parent"].extend(p + offset if p >= 0 else -1 for p in loaded["parent"])
        self.cols["rid"].extend([rid] * len(loaded["rid"]))
        for name in ("outer", "start", "end"):
            self.cols[name].extend(loaded[name])
        self.counts.update(header["counts"])


def _counted(counts, key, fn):
    def wrapper(*args):
        counts[key] += 1
        return fn(*args)

    wrapper.__wrapped__ = fn
    return wrapper


def layer_totals(tracer: Tracer, rid: int | None = None):
    """Per span group: outermost calls, their inclusive ms, and self ms.

    A span's self time is its duration minus the durations of its direct
    children; spans nest properly within a process, so children never
    overlap.  ``rid`` restricts the totals to one request.
    """
    cols = tracer.cols
    starts, ends, parents = cols["start"], cols["end"], cols["parent"]
    durations = [e - s for s, e in zip(starts, ends)]
    children = [0.0] * len(durations)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p] += durations[i]
    calls: Counter = Counter()
    inclusive_ms: Counter = Counter()
    self_ms: Counter = Counter()
    for i, gid in enumerate(cols["group"]):
        if rid is not None and cols["rid"][i] != rid:
            continue
        group = tracer.groups[gid]
        self_ms[group] += (durations[i] - children[i]) * 1e3
        if cols["outer"][i]:
            calls[group] += 1
            inclusive_ms[group] += durations[i] * 1e3
    return calls, inclusive_ms, self_ms


def out_dir(root: str) -> str:
    path = os.path.join(root, ".perfbench-out")
    os.makedirs(path, exist_ok=True)
    return path
