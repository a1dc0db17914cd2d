"""The bundled freight-planning knowledge base.

Ships as `.elf` files under `data/`: signature declarations, the lexical
axioms, the four axiom schemas, per-scenario fact sets, and the canonical
query suite. `load_bundle` reads them all through `kb.load_parts`, the
loader every kb file goes through, and checks only the bundle's own rules;
`witness_model` builds a finite intensional model satisfying the whole
bundle, used to certify joint satisfiability.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from ..core import (
    Atom,
    Const,
    Ka,
    Lambda,
    PredConst,
    Signature,
    That,
    Var,
    children,
)
from ..kb import KbError, KnowledgeBase, load_parts
from ..models import IntensionalModel, eval_formula, reified_key
from ..quantifiers import DEFAULT_REGISTRY, QuantRegistry
from ..schemas import InstanceBounds, ground_atoms
from ..syntax import QueryForm

DATA_DIR = Path(__file__).parent / "data"


@dataclass
class Bundle:
    signature: Signature
    registry: QuantRegistry
    axioms: list
    schemas: list
    scenarios: dict  # name -> list of facts
    queries: list  # QueryForm, spans kept

    def kb_for(self, case: QueryForm) -> KnowledgeBase:
        return self._kb(case.scenarios)

    def full_kb(self) -> KnowledgeBase:
        return self._kb(sorted(self.scenarios))

    def _kb(self, scenario_names) -> KnowledgeBase:
        facts = [f for name in scenario_names for f in self.scenarios[name]]
        return KnowledgeBase(
            self.signature, facts, list(self.axioms), list(self.schemas),
            self.registry,
        )


def load_bundle() -> Bundle:
    """The shipped knowledge base and query suite, read through
    `kb.load_parts`. Only the bundle's own rules are checked here: each file
    holds only its own kind of entry, each scenario-*.elf file is one
    scenario, queries name known scenarios, and there are at least six."""
    qpath, scenario_paths = DATA_DIR / "queries.elf", sorted(DATA_DIR.glob("scenario-*.elf"))
    paths = [DATA_DIR / "core.elf", DATA_DIR / "axioms.elf", DATA_DIR / "schemas.elf"]
    paths += [*scenario_paths, qpath]
    kinds = ["declarations", "axioms", "schemas"] + ["facts"] * len(scenario_paths) + ["queries"]
    (decls, _), (axioms, _), (schemas, _), *parts, (_, queries) = loaded = load_parts(paths)
    for kind, path, (kb, forms) in zip(kinds, paths, loaded):
        held = {"axioms": kb.axioms, "facts": kb.facts, "schemas": kb.schemas, "queries": forms}
        if any(entries for name, entries in held.items() if name != kind):
            raise KbError(f"{path.name} must contain {kind} only", str(path))
    scenarios = {path.stem: kb.facts for path, (kb, _) in zip(scenario_paths, parts)}
    for form in queries:
        if unknown := [name for name in form.scenarios if name not in scenarios]:
            raise KbError(f"query {form.name} references unknown scenario {unknown[0]}",
                          str(qpath), form.span)
    if len(queries) < 6:
        raise KbError("query suite must hold at least six entries", str(qpath))
    return Bundle(decls.signature, DEFAULT_REGISTRY, axioms.axioms, schemas.schemas,
                  scenarios, queries)


# ---------------------------------------------------------------------------
# The witness model


SEND_OFF_TYPE = Ka(
    Lambda(("x",), Atom(PredConst("send-off"), (Var("x"), Const("r1"))))
)


def witness_model(
    bundle: Bundle, bounds: Optional[InstanceBounds] = None
) -> IntensionalModel:
    """A finite model satisfying every axiom, every bounded schema instance,
    and every scenario fact of the bundle.

    Two worlds connected one way; three individuals double as the cities
    with juice factories and as the railcars (two of them tankers sitting
    in Elmira); the compatible action types are realized in the reachable
    world. The `correct` extension is computed from the truth values of the
    reified contents, and the `sounds` tables are full because nobody in
    the model ever considers anything.
    """
    bounds = bounds if bounds is not None else InstanceBounds()
    w0, w1 = "w0", "w1"
    worlds = (w0, w1)

    plain = [
        "b1", "f1", "i1", "i2", "i3", "ev-enter", "ev-none", "coll-cars",
        "coll-tie", "t1", "r1", "a1", "a2", "ev1", "tt", "p1",
    ]
    constants = {
        "b1": "b1", "f1": "f1", "cars": "coll-cars", "tie-coll": "coll-tie",
        "t1": "t1", "r1": "r1", "a1": "a1", "a2": "a2", "now": "tt",
        "two-pm": "tt", "p1": "p1", "t3": "t1", "src1": "f1",
    }
    functions = {
        "enter": ({("b1", "f1"): "ev-enter"}, "ev-none"),
        "end-of": ({}, "tt"),
    }

    # reified individuals: one per monadic predicate (kind/action types),
    # one for the bundled send-off action type, one per reified sentence
    # content we must interpret
    reified = {}
    reified_sources = {}
    reified_individuals = set()

    def reify(term, individual):
        key = reified_key(term, {})
        reified[key] = individual
        reified_sources[key] = term
        reified_individuals.add(individual)
        return individual

    sig = bundle.signature
    unary_preds = sorted(p for p, a in sig.predicates.items() if a == 1)
    kind_of = {}
    for p in unary_preds:
        kind_of[p] = reify(Ka(PredConst(p)), f"kind-{p}")
    do_send = reify(SEND_OFF_TYPE, "type-send-off")

    # sentence contents needed by schema instances and scenario facts
    content_atoms = ground_atoms(sig, bounds.max_formula_instances)
    content_of = {}
    for i, atom in enumerate(content_atoms):
        content_of[atom] = reify(That(atom), f"prop-{i + 1}")
    extra_contents = {}
    sources = [f for facts in bundle.scenarios.values() for f in facts]
    sources.extend(q.goal for q in bundle.queries)
    for f in sources:
        for t in _that_terms(f):
            key = reified_key(t, {})
            if key not in reified:
                label = f"prop-x{len(extra_contents) + 1}"
                extra_contents[key] = reify(t, label)

    domain = tuple(plain) + tuple(
        sorted(reified_individuals, key=lambda d: (len(d), d))
    )

    predicates = {}

    def uniform(pred, ext):
        for w in worlds:
            predicates[(pred, w)] = frozenset(ext)

    cities = ["i1", "i2", "i3"]
    uniform("city", {(c,) for c in cities})
    uniform("oj", {(c,) for c in cities})
    uniform("big", {(c,) for c in cities})
    uniform("car", {(c,) for c in cities})
    uniform("tanker", {("i1",), ("i2",)})
    uniform("in-elmira", {("i1",), ("i2",)})
    uniform(
        "member",
        {(c, "coll-cars") for c in cities} | {("i1", "coll-tie"), ("i2", "coll-tie")},
    )
    uniform("majority", {("coll-cars", "coll-tie")})
    uniform("result-state", {("ev-enter",)})
    uniform("contained-in", {("b1", "f1")})
    uniform("action-type", {("a1",), ("a2",)})
    predicates[("compatible-with", w0)] = frozenset({("a1", "a2")})
    predicates[("compatible-with", w1)] = frozenset()
    predicates[("realize", w0)] = frozenset()
    predicates[("realize", w1)] = frozenset({("ev1", "a1"), ("ev1", "a2")})
    uniform("person", set())
    uniform("consider", set())
    uniform("feel-that", set())
    uniform("reasonable", {("p1",)})
    uniform("reliable", {("p1",)})
    uniform("send-off", {("t1", "r1")})
    uniform("enough", {(kind_of["oranges"],)})
    uniform("fill-with", {("t1", kind_of["beer"])})
    uniform("source-of", {("f1", kind_of["oranges"])})
    uniform("beer", set())
    uniform("oranges", set())

    model = IntensionalModel(
        worlds=worlds,
        accessibility=frozenset({(w0, w1)}),
        domain=domain,
        constants=constants,
        predicates=predicates,
        functions=functions,
        reified=reified,
        reified_individuals=frozenset(reified_individuals),
        reified_sources=reified_sources,
    )

    # correct: a reified content is in the extension exactly where the
    # content itself is true
    for w in worlds:
        ext = set()
        for atom, ind in content_of.items():
            if eval_formula(model, w, {}, atom, bundle.registry):
                ext.add((ind,))
        for key, ind in extra_contents.items():
            content = reified_sources[key].body
            if eval_formula(model, w, {}, content, bundle.registry):
                ext.add((ind,))
        predicates[("correct", w)] = frozenset(ext)

    # graded attitudes: unconstrained by axioms; make the asserted ones true
    attitude_ext = {"probably": set(), "maybe": set()}
    for facts in bundle.scenarios.values():
        for f in facts:
            match f:
                case Atom(PredConst(pname), (That(_),)) if pname in attitude_ext:
                    attitude_ext[pname].add((reified[reified_key(f.args[0], {})],))
    for pname, ext in attitude_ext.items():
        uniform(pname, ext)

    # every monadic predicate sounds however you like: full extensions make
    # the modifier equivalence hold vacuously (nobody considers anything)
    modifiers = {}
    for p in unary_preds:
        for w in worlds:
            modifiers[("sounds", p, w)] = frozenset({(d,) for d in domain})
    model.modifiers = modifiers

    model.term_ops = {
        ("do", do_send, w0): frozenset({("t1",)}),
        ("do", do_send, w1): frozenset({("t1",)}),
    }
    return model


def _that_terms(f) -> list:
    """The outermost `that` terms in f, in traversal order."""
    if isinstance(f, That):
        return [f]
    return [t for child in children(f) for t in _that_terms(child)]
