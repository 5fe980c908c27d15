"""Layer tracing for the meetjoin benchmark, built only from benchmark code.

`install` wraps the public functions and methods of each meetjoin layer
module in place, including the copies other modules imported by name
(`cli` holds its own reference to `theorem_det`, for instance) and the
values of module-level dicts (`cli._COMMANDS`). Nothing under `src/` is
edited.

Every wrapped call pushes a frame on one stack. When it returns, its
self time is its duration minus the durations of the traced calls made
directly inside it. Calls of per-entry operations (Scalar arithmetic,
`leq`, meets and joins, matrix indexing, ...) are only aggregated by
name, because a single request makes hundreds of thousands of them;
every other call is also kept as a span record with a parent id.
"""

from __future__ import annotations

import functools
import json
import sys
import time

LAYERS = (
    "scalar",
    "matrix",
    "posets",
    "rowadjusted",
    "numtheory",
    "formats",
    "randomcheck",
    "cli",
)

# Per-entry operations: aggregated by name, never kept as span records.
LEAF_NAMES = frozenset(
    {
        "leq",
        "meet",
        "join",
        "bound",
        "as_scalar",
        "check_element",
        "check_mode",
        "index",
        "value",
        "has_value",
        "n",
        "m",
        "row",
        "is_square",
        "tally",
        "__getitem__",
        "__eq__",
        "__hash__",
        "__contains__",
        "__bool__",
    }
)
LEAF_CLASSES = frozenset({"Scalar"})

# Methods that are bookkeeping of the class machinery, not layer work.
SKIPPED_METHODS = frozenset({"__repr__", "__setattr__", "__delattr__", "__post_init__"})


class Tracer:
    """Call stack, per-name statistics and span records for wrapped calls.

    `stats[name]` is `[calls, self_ns, errors]`. A span record is
    `[id, parent_id, name, start_ns, end_ns, self_ns]`; parent 0 is the
    root. `clock` returns integer nanoseconds and can be replaced in tests.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.stats: dict[str, list[int]] = {}
        self.spans: list[list] = []
        # A frame is [child_ns, span_id]; leaf frames carry their parent's id.
        self._stack: list[list[int]] = [[0, 0]]
        self._next_id = 1

    def wrap(self, name: str, fn, leaf: bool):
        stat = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        clock = self.clock

        if leaf:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                frame = [0, stack[-1][1]]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    stat[2] += 1
                    raise
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    stack[-1][0] += elapsed
                    stat[0] += 1
                    stat[1] += elapsed - frame[0]

            return traced

        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1][1]
            frame = [0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat[2] += 1
                raise
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                stack[-1][0] += elapsed
                self_ns = elapsed - frame[0]
                stat[0] += 1
                stat[1] += self_ns
                spans.append([span_id, parent, name, start, end, self_ns])

        return traced

    def write_spans(self, path) -> None:
        """Write one JSON object per span, in completion order."""
        keys = ("id", "parent", "name", "start_ns", "end_ns", "self_ns")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def _is_public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def install(tracer: Tracer, package: str = "meetjoin") -> None:
    """Wrap every public function and method of the layer modules.

    The layer modules must already be imported. Names are
    `<layer>.<function>` or `<layer>.<Class>.<method>`.
    """
    replaced: dict[int, object] = {}
    for layer in LAYERS:
        module = sys.modules[f"{package}.{layer}"]
        for attr, value in list(vars(module).items()):
            if not _is_public(attr) or getattr(value, "__module__", None) != module.__name__:
                continue
            if isinstance(value, type):
                _wrap_class(tracer, layer, value)
            elif callable(value):
                wrapped = tracer.wrap(f"{layer}.{attr}", value, attr in LEAF_NAMES)
                replaced[id(value)] = wrapped
    # Rebind every reference to a wrapped function, wherever it was imported.
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == package or module_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in replaced:
                setattr(module, attr, replaced[id(value)])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in replaced:
                        value[key] = replaced[id(item)]


def _wrap_class(tracer: Tracer, layer: str, cls: type) -> None:
    if issubclass(cls, BaseException):
        return
    leaf_class = cls.__name__ in LEAF_CLASSES
    for attr, value in list(vars(cls).items()):
        if not _is_public(attr) or attr in SKIPPED_METHODS:
            continue
        if leaf_class and attr == "__init__":
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        leaf = leaf_class or attr in LEAF_NAMES
        if isinstance(value, property) and value.fget is not None:
            setattr(cls, attr, property(tracer.wrap(name, value.fget, leaf)))
        elif isinstance(value, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(name, value.__func__, leaf)))
        elif isinstance(value, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(name, value.__func__, leaf)))
        elif callable(value) and not isinstance(value, type):
            setattr(cls, attr, tracer.wrap(name, value, leaf))


def _sum(stats, names, column):
    return sum(stats[n][column] for n in names if n in stats)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of the benchmark, as name -> (value, unit)."""
    stats = tracer.stats

    def calls(*names):
        return (_sum(stats, names, 0), "count")

    def self_s(*names):
        return (_sum(stats, names, 1) / 1e9, "s")

    def layer_names(layer):
        return [n for n in stats if n.startswith(layer + ".")]

    bound = (
        "posets.FinitePoset.meet",
        "posets.FinitePoset.join",
        "posets.DivisorLattice.meet",
        "posets.DivisorLattice.join",
    )
    out = {
        "scalar.ops": calls(*layer_names("scalar")),
        "posets.bound.calls": calls(*bound),
        "posets.bound.self_s": self_s(*bound),
        "posets.bound.errors": (_sum(stats, bound, 2), "count"),
        "posets.leq.calls": calls("posets.FinitePoset.leq", "posets.DivisorLattice.leq"),
        "posets.closure_set.calls": calls("posets.closure_set"),
        "posets.closure_set.self_s": self_s("posets.closure_set"),
        "posets.linear_extension.self_s": self_s("posets.linear_extension"),
        "posets.mobius_matrix.self_s": self_s("posets.mobius_matrix"),
        "posets.poset_build.self_s": self_s("posets.FinitePoset.__init__", "posets.build_poset"),
        "formats.parse.self_s": self_s(
            "formats.parse_poset_file", "formats.parse_family_file", "formats.parse_matrix_text"
        ),
        "formats.render.self_s": self_s(
            "formats.render_matrix_machine", "formats.render_matrix_human", "formats.render_elements"
        ),
        "numtheory.make_family.self_s": self_s("numtheory.make_family"),
        "randomcheck.random_instance.self_s": self_s("randomcheck.random_instance"),
        "randomcheck.check_instance.self_s": self_s("randomcheck.check_instance"),
    }
    for op, key in (("det", "det"), ("rank", "rank"), ("inverse", "inverse"), ("matmul", "__matmul__")):
        out[f"matrix.{op}.calls"] = calls(f"matrix.Matrix.{key}")
        out[f"matrix.{op}.self_s"] = self_s(f"matrix.Matrix.{key}")
    for fn in ("theorem_det", "theorem_inverse", "theta_table", "rank_report"):
        out[f"rowadjusted.{fn}.self_s"] = self_s(f"rowadjusted.{fn}")
    for fn in ("psi_table", "factorize", "build_matrix"):
        out[f"rowadjusted.{fn}.calls"] = calls(f"rowadjusted.{fn}")
        out[f"rowadjusted.{fn}.self_s"] = self_s(f"rowadjusted.{fn}")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s(*layer_names(layer))
    return out
