"""Per-layer tracing for the benchmark's traced run.

The layers are elfol's modules. `Tracer.install` wraps the public functions
listed in `SPANNED`, `COUNTED_GENERATORS` and `COUNTED_METHODS`, and
rebinds each wrapper on every `elfol.*` module whose attribute is that same
function object: `alpha_key` and `subst_map`, for instance, are imported by
name into `prover`, `schemas`, `models` and `reduction`, and
`forward_chain` reaches `schemas.enumerate_instances` through its module.
Nothing in elfol itself changes.

A spanned function gets a count for every call and a span at its outermost
entry only, so a recursive function such as `eval_formula` (millions of
calls in the witness check) keeps few spans. Self time is a span's duration
minus the part its child spans cover; it is summed per function as spans
close, so the totals are exact even when spans beyond `SPAN_CAP` per
function are not kept in memory.

`layer_metrics` reports the per-layer metrics that BENCHMARK.json names;
a name with no counter behind it is an error, not a silent 0.
"""

from __future__ import annotations

import json
import re
import sys
from contextlib import contextmanager
from time import perf_counter

SPANNED = (
    ("core", "alpha_key"),
    ("core", "free_vars"),
    ("core", "subst_map"),
    ("core", "well_formed"),
    ("syntax", "parse_kb"),
    ("syntax", "parse_formula"),
    ("syntax", "render"),
    ("kb", "load_files"),
    ("prover", "prove"),
    ("prover", "unify"),
    ("prover", "forward_chain"),
    ("schemas", "match_conclusion"),
    ("schemas", "enumerate_instances"),
    ("schemas", "instantiate"),
    ("models", "eval_formula"),
    ("models", "model_satisfies"),
    ("models", "find_counterexample"),
    ("reduction", "reduce_kb"),
    ("reduction", "reduce_formula"),
    ("lexicon", "load_bundle"),
    ("lexicon", "witness_model"),
)
COUNTED_GENERATORS = (("models", "enumerate_models", "models"),)
COUNTED_METHODS = (("quantifiers", "QuantRegistry", "resolve"),)

# per-layer metrics read from the setup phase; all others from the ops
SETUP_LAYERS = ("lexicon.load_bundle", "lexicon.witness_model")

# counters kept beside calls and self time; each starts at 0
COUNTERS = (
    "prover.explored",
    "prover.unify.hits",
    "schemas.match_conclusion.hits",
    "schemas.enumerate_instances.instances",
    "prover.forward_chain.clauses",
    "prover.forward_chain.useful_clauses",
    "reduction.reduce_kb.axioms_out",
    "models.enumerate_models.models",
)
# a metric `<layer>.<kind>_ratio` is the counter `<layer>.<kind>s` over
# the counter `<layer>.<DENOMINATORS[kind]>`
DENOMINATORS = {"hit": "calls", "useful_clause": "clauses"}
SPAN_CAP = 2000  # spans kept in memory per function

_SCHEMA_INSTANCE_LABEL = re.compile(r"\[\d+\]$")


class Tracer:
    def __init__(self):
        self.calls: dict = {}
        self.self_s: dict = {}
        self.extra: dict = dict.fromkeys(COUNTERS, 0)
        self.spans: list = []  # (id, parent id, op id, name, start, end)
        self.kept: dict = {}  # name -> spans kept
        self.dropped = 0
        self._stack: list = []  # open frames: [child time, span id]
        self._active: dict = {}
        self._next_id = 0
        self._op_id = None
        self._bindings: list = []  # (owner, attribute, original, wrapper)

    # -- counters -------------------------------------------------------

    def _add(self, key: str, value) -> None:
        self.extra[key] += value

    def _on_result(self, name: str, result) -> None:
        if name == "prover.prove":
            self._add("prover.explored", result.explored)
        elif name == "prover.unify":
            self._add("prover.unify.hits", result is not None)
        elif name == "schemas.match_conclusion":
            self._add("schemas.match_conclusion.hits", bool(result))
        elif name == "schemas.enumerate_instances":
            self._add("schemas.enumerate_instances.instances", len(result))
            if self._active.get("prover.forward_chain"):
                self._add("prover.forward_chain.clauses", len(result))
        elif name == "prover.forward_chain":
            useful = {
                detail for _f, _rule, detail in result.steps
                if _SCHEMA_INSTANCE_LABEL.search(detail)
            }
            self._add("prover.forward_chain.useful_clauses", len(useful))
        elif name == "reduction.reduce_kb":
            self._add("reduction.reduce_kb.axioms_out", len(result[0].axioms))

    # -- spans ----------------------------------------------------------

    def _open(self):
        self._next_id += 1
        frame = [0.0, self._next_id]
        parent = self._stack[-1][1] if self._stack else None
        self._stack.append(frame)
        return frame, parent

    def _close(self, name, frame, parent, start, end) -> None:
        self._stack.pop()
        dur = end - start
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[0]
        if self._stack:
            self._stack[-1][0] += dur
        if self.kept.get(name, 0) < SPAN_CAP:
            self.kept[name] = self.kept.get(name, 0) + 1
            self.spans.append((frame[1], parent, self._op_id, name, start, end))
        else:
            self.dropped += 1

    @contextmanager
    def root(self, name: str, op_id):
        """A root span for one op (or for set-up): the spans it causes carry
        its op id."""
        self._op_id = op_id
        frame, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(name, frame, parent, start, perf_counter())
            self._op_id = None

    def _span_wrapper(self, name: str, fn):
        calls = self.calls
        active = self._active
        calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)

        def traced(*args, **kwargs):
            calls[name] += 1
            if active.get(name):
                return fn(*args, **kwargs)
            active[name] = True
            frame, parent = self._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                active[name] = False
                self._close(name, frame, parent, start, end)
            self._on_result(name, result)
            return result

        return traced

    def _generator_wrapper(self, key: str, fn):
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self._add(key, 1)
                yield item

        return counted

    def _method_wrapper(self, name: str, fn):
        calls = self.calls
        calls.setdefault(name, 0)

        def counted(obj, *args, **kwargs):
            calls[name] += 1
            return fn(obj, *args, **kwargs)

        return counted

    # -- installation ---------------------------------------------------

    def _wrappers(self):
        for module, attr in SPANNED:
            original = getattr(sys.modules[f"elfol.{module}"], attr)
            yield original, self._span_wrapper(f"{module}.{attr}", original)
        for module, attr, counter in COUNTED_GENERATORS:
            original = getattr(sys.modules[f"elfol.{module}"], attr)
            key = f"{module}.{attr}.{counter}"
            yield original, self._generator_wrapper(key, original)

    def install(self) -> None:
        if not self._bindings:
            elfol_modules = [
                m for n, m in sorted(sys.modules.items())
                if (n == "elfol" or n.startswith("elfol.")) and m is not None
            ]
            for original, wrapper in self._wrappers():
                for mod in elfol_modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._bindings.append((mod, attr, original, wrapper))
            for module, cls_name, attr in COUNTED_METHODS:
                cls = getattr(sys.modules[f"elfol.{module}"], cls_name)
                original = vars(cls)[attr]
                wrapper = self._method_wrapper(f"{module}.{attr}", original)
                self._bindings.append((cls, attr, original, wrapper))
        for owner, attr, _original, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._bindings:
            setattr(owner, attr, original)

    @contextmanager
    def paused(self):
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    # -- results --------------------------------------------------------

    def metrics(self) -> dict:
        out = {f"{name}.calls": n for name, n in self.calls.items()}
        out.update(
            (f"{name}.self_s", t) for name, t in self.self_s.items() if name in self.calls
        )
        out.update(self.extra)
        return out

    def write_spans(self, path, label: str) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"phase": label, "spans_dropped": self.dropped}) + "\n")
            for sid, parent, op, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "op": op, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )


def layer_metrics(setup: Tracer, ops: Tracer, overhead_s: float, names) -> dict:
    """{name: value} for each per-layer metric in `names`: `lexicon.*`
    from the set-up tracer, the rest from the ops tracer, ratios by the
    rule at `DENOMINATORS` (0 when nothing was counted), and
    `trace.overhead_s` as given."""
    s = setup.metrics()
    o = ops.metrics()

    def get(name):
        src = s if name.startswith(SETUP_LAYERS) else o
        if name not in src:
            raise KeyError(f"no counter for per-layer metric {name!r}")
        return src[name]

    out = {}
    for name in names:
        layer, _, metric = name.rpartition(".")
        if name == "trace.overhead_s":
            out[name] = overhead_s
        elif metric.endswith("_ratio"):
            kind = metric[: -len("_ratio")]
            den = get(f"{layer}.{DENOMINATORS[kind]}")
            out[name] = get(f"{layer}.{kind}s") / den if den else 0.0
        else:
            out[name] = get(name)
    return out
