"""Span tracing of g2kit from outside the package.

`Tracer.install` wraps every public module-level function of the g2kit
layers, plus `Mat7.__matmul__`, at every binding in a `g2kit.*` module
namespace (``from .x import y`` copies bindings, and `cli.FRAMES` and
`cli.COMMANDS` hold functions in dicts).  Each call records a span: name,
parent span, operation id, start and end.  Spans stay in memory as flat
arrays until `dump` writes them out; `layer_metrics` derives calls, self
time and distinct-argument ratios from them.
"""

from __future__ import annotations

import functools
import importlib
import pickle
import time
import zlib
from array import array
from types import FunctionType

LAYERS = ("linalg", "forms", "frames", "so7", "invariants", "torsion", "liealg", "sampling", "serialize", "cli")

# functions reported one by one (`<module>.<function>.calls` and `.self_us_per_call`)
FUNCTIONS = (
    "linalg.matmul", "linalg.integer_rows", "linalg.rref", "linalg.solve", "linalg.nullspace",
    "forms.wedge", "forms.hodge",
    "frames.cross", "frames.build_frame",
    "so7.cross_operator", "so7.split_so7", "so7.decompose_endo", "so7.g2_basis",
    "invariants.char_poly", "invariants.i0", "invariants.i1", "invariants.i2",
    "invariants.verify_quadratic_relations", "invariants.special_case_check",
    "torsion.characteristic_vector", "torsion.torsion_energies", "torsion.classify",
    "liealg.koszul", "liealg.curvature", "liealg.ce_differential", "liealg.torsion_forms",
    "liealg.geometry_torsion_report", "liealg.bryant_scalar_check", "liealg.alt_scalar_curvature",
    "serialize.mat_from_json", "serialize.algebra_from_json", "serialize.canonical_json",
    "cli.render",
)

# functions whose arguments are hashed, for `<name>.distinct_ratio`
DISTINCT = (
    "linalg.integer_rows", "liealg.koszul", "liealg.curvature",
    "so7.decompose_endo", "invariants.char_poly", "frames.build_frame",
)

# both frame builders report as one function: the frame rebuilt per report
ALIASES = {
    "frames.build_standard_frame": "frames.build_frame",
    "frames.build_cayley_frame": "frames.build_frame",
}

# per-coordinate helpers with trivial bodies, called ~10^5 times per run: a
# span each would cost more than their work, so their time stays with the caller
UNTRACED = frozenset({"linalg.as_fraction", "forms.sort_with_sign"})


def _arg_key(variant: int, args: tuple, kwargs: dict) -> int:
    """Stable hash of a call's arguments; `variant` tells aliased functions apart.

    Fractions, tuples and frozen dataclasses hash the same in every process.
    Unhashable arguments (a `G2Frame` holds `KForm`s) fall back to a CRC of
    their repr.
    """
    try:
        return hash((variant, args, tuple(sorted(kwargs.items()))))
    except TypeError:
        return zlib.crc32(repr((variant, args, sorted(kwargs.items()))).encode())


class Tracer:
    """Records one span per traced call; spans of one operation share `op`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.cols = {
            "name": array("i"), "parent": array("i"), "op": array("i"),
            "key": array("q"), "start": array("q"), "end": array("q"),
        }
        self.stack = [-1]
        self.op = 0
        self._restore: list[tuple[object, str, object]] = []

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, fn, name: str, variant: int):
        idx = self._name_index(name)
        keyed = name in DISTINCT
        cols, stack, clock, tracer = self.cols, self.stack, time.perf_counter_ns, self
        name_add, parent_add, op_add = cols["name"].append, cols["parent"].append, cols["op"].append
        key_add, start_add, end_add = cols["key"].append, cols["start"].append, cols["end"].append
        end_col = cols["end"]

        def traced(*args, **kwargs):
            span = len(end_col)
            name_add(idx)
            parent_add(stack[-1])
            op_add(tracer.op)
            key_add(_arg_key(variant, args, kwargs) if keyed else 0)
            end_add(0)
            stack.append(span)
            start_add(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end_col[span] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def _set(self, owner, key, value) -> None:
        """Rebind `owner.key` (or `owner[key]` for a dict) and remember the old value."""
        if isinstance(owner, dict):
            self._restore.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._restore.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def install(self) -> None:
        import g2kit

        modules = [importlib.import_module(f"g2kit.{layer}") for layer in LAYERS]
        layer_names = {m.__name__ for m in modules}
        wrappers: dict[int, object] = {}
        for mod in modules:
            for value in vars(mod).values():
                if not (isinstance(value, FunctionType) and value.__module__ in layer_names):
                    continue
                name = f"{value.__module__.rsplit('.', 1)[1]}.{value.__name__}"
                if not value.__name__.startswith("_") and name not in UNTRACED and id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(value, ALIASES.get(name, name), len(wrappers))
        for mod in modules + [g2kit]:
            namespace = vars(mod)
            for attr, value in list(namespace.items()):
                if id(value) in wrappers:
                    self._set(mod, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._set(value, key, wrappers[id(item)])
        mat7 = g2kit.linalg.Mat7
        self._set(mat7, "__matmul__", self._wrap(mat7.__matmul__, "linalg.matmul", len(wrappers)))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    def dump(self, path) -> None:
        with open(path, "wb") as fh:
            pickle.dump({"names": self.names, **self.cols}, fh, protocol=pickle.HIGHEST_PROTOCOL)


def load(path) -> dict:
    """Read spans written by `Tracer.dump` (files this benchmark wrote itself)."""
    with open(path, "rb") as fh:
        return pickle.load(fh)


def layer_metrics(span_sets: list[dict]) -> dict[str, float]:
    """Per-layer and per-function metrics from one or more span dumps.

    Self time is a span's duration minus the durations of its direct child
    spans (calls are nested and single-threaded, so children never overlap).
    """
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    keys: dict[str, set[int]] = {name: set() for name in DISTINCT}
    for dump in span_sets:
        names, parent, key = dump["names"], dump["parent"], dump["key"]
        own = [e - s for s, e in zip(dump["start"], dump["end"])]
        dur = list(own)
        for span, p in enumerate(parent):
            if p >= 0:
                own[p] -= dur[span]
        for span, n in enumerate(dump["name"]):
            name = names[n]
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + own[span]
            if name in keys:
                keys[name].add(key[span])

    out: dict[str, float] = {}
    for layer in LAYERS:
        members = [name for name in calls if name.split(".", 1)[0] == layer]
        out[f"{layer}.calls"] = sum(calls[name] for name in members)
        out[f"{layer}.self_s"] = sum(self_ns[name] for name in members) / 1e9
    for name in FUNCTIONS:
        n = calls.get(name, 0)
        out[f"{name}.calls"] = n
        out[f"{name}.self_us_per_call"] = self_ns.get(name, 0) / 1e3 / n if n else 0.0
    for name in DISTINCT:
        n = calls.get(name, 0)
        out[f"{name}.distinct_ratio"] = len(keys[name]) / n if n else 0.0
    return out
