"""The compiled evaluator against the tree-walking oracle in oracle_eval.py.

Each check compiles a formula once and evaluates the closure at every world
of one or more models; the oracle re-walks the tree for each. Both must give
the same value, or raise the same exception type with the same message.

`first_failure` must agree with the oracle's instance-by-instance check on
the bundle's witness model and on random models of the bundled schemas.
"""

import random
import re
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elfol.core import (
    And,
    Atom,
    Const,
    Ka,
    Lambda,
    Modal,
    Not,
    PredConst,
    QuantRef,
    RestrictedQuant,
    Signature,
    That,
    TrueF,
    Var,
    alpha_key,
    children,
    free_vars_ordered,
    map_children,
)
from elfol.kb import KnowledgeBase
from elfol.lexicon import load_bundle, witness_model
from elfol.models import (
    EvalError,
    IntensionalModel,
    ModelRejection,
    compile_formula,
    compile_term,
    _total,
    eval_formula,
    first_failure,
)
from elfol.quantifiers import DEFAULT_REGISTRY, QuantRegistry
from elfol.schemas import (
    EnumerationCeiling,
    InstanceBounds,
    Schema,
    enumerate_instances,
    weakening_valid,
)
from elfol.syntax import parse_formula, parse_term, render

import oracle_eval
from gen import TEST_SIG, AstGen

# quantifier references the registry refuses, each with its own message
BAD_QUANTS = (
    QuantRef("umpteen"),
    QuantRef("all", 2),
    QuantRef("at-least"),
    QuantRef("at-most", -1),
)


def outcome(thunk):
    try:
        return ("value", thunk())
    except Exception as e:  # the exception itself is the observation
        return ("raised", type(e), str(e))


def same_everywhere(f, models, env, registry=DEFAULT_REGISTRY):
    """Compile f once; at every world of every model its closure must agree
    with the oracle."""
    holds = compile_formula(f, registry)
    for m in models:
        for w in m.worlds:
            got = outcome(lambda: holds(m, w, dict(env)))
            want = outcome(
                lambda: oracle_eval.eval_formula(m, w, dict(env), f, registry)
            )
            assert got == want, (f, w, env)


def perturb(f, rng: random.Random):
    """f with some quantifiers made unknown and some restrictors made a
    monadic atom over the bound variable, which the evaluator reads as a
    set."""
    f = map_children(f, lambda c: perturb(c, rng))
    if isinstance(f, RestrictedQuant):
        if rng.random() < 0.15:
            f = replace(f, quant=rng.choice(BAD_QUANTS))
        if rng.random() < 0.3:
            sort = Atom(PredConst(rng.choice("PQ")), (Var(f.var),))
            f = replace(f, restrictor=sort)
    return f


def reified_terms(node):
    out = [node] if isinstance(node, (Ka, That)) else []
    for child in children(node):
        out.extend(reified_terms(child))
    return out


def random_model(rng: random.Random, f) -> IntensionalModel:
    """A small model over the test signature that leaves some of it
    uninterpreted: constants, functions and reified denotations go missing
    at random."""
    worlds = ("w0", "w1")[: rng.randint(1, 2)]
    domain = tuple(f"d{i}" for i in range(rng.randint(1, 3)))

    def subset(items):
        return frozenset(x for x in items if rng.random() < 0.5)

    def tuples(arity):
        return list(product(domain, repeat=arity))

    predicates = {
        (p, w): subset(tuples(arity))
        for p, arity in sorted(TEST_SIG.predicates.items())
        for w in worlds
        if rng.random() < 0.9
    }
    functions = {
        fn: (
            {args: rng.choice(domain) for args in tuples(arity) if rng.random() < 0.7},
            rng.choice(domain),
        )
        for fn, arity in sorted(TEST_SIG.functions.items())
        if rng.random() < 0.85
    }
    modifiers = {
        ("m1", p, w): subset(tuples(arity))
        for p, arity in sorted(TEST_SIG.predicates.items())
        for w in worlds
    }
    term_ops = {
        ("op1", d, w): subset(tuples(1)) for d in domain for w in worlds
    }
    reified = {}
    for t in reified_terms(f):
        names = free_vars_ordered(t)
        for vals in product(domain, repeat=len(names)):
            if rng.random() < 0.7:
                reified[(alpha_key(t), vals)] = rng.choice(domain)
    return IntensionalModel(
        worlds=worlds,
        accessibility=subset(product(worlds, repeat=2)),
        domain=domain,
        constants={
            c: rng.choice(domain)
            for c in sorted(TEST_SIG.constants)
            if rng.random() < 0.85
        },
        predicates=predicates,
        functions=functions,
        modifiers=modifiers,
        term_ops=term_ops,
        reified=reified,
    )


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_compiled_agrees_with_the_oracle_on_generated_formulas(seed):
    rng = random.Random(seed)
    scope = frozenset({"u"}) if rng.random() < 0.3 else frozenset()
    f = AstGen(rng).formula(scope, depth=rng.randint(1, 4))
    f = perturb(f, rng)
    models = [random_model(rng, f) for _ in range(2)]
    env = {}
    if scope and rng.random() < 0.7:  # else ?u is unbound
        env["u"] = rng.choice(models[0].domain)
    same_everywhere(f, models, env)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_compiled_terms_agree_with_the_oracle(seed):
    rng = random.Random(seed)
    t = AstGen(rng).term(frozenset({"u"}), depth=2)
    m = random_model(rng, t)
    env = {"u": m.domain[0]} if rng.random() < 0.7 else {}
    fn = compile_term(t)
    assert outcome(lambda: fn(m, env)) == outcome(
        lambda: oracle_eval.eval_term(m, env, t)
    )


def test_witness_model_agrees_on_every_bundle_formula():
    bundle = load_bundle()
    m = witness_model(bundle)
    kb = bundle.full_kb()
    formulas = list(kb.axioms) + list(kb.facts)
    for schema in kb.schemas:
        formulas.extend(enumerate_instances(schema, kb.signature, kb.registry))
    assert len(formulas) > 29_000
    for f in formulas:
        same_everywhere(f, [m], {}, kb.registry)


# ---------------------------------------------------------------------------
# Quantifiers over `true`, monadic atoms and their conjunctions, which the
# evaluator counts as set intersections

QUANTS = st.sampled_from([
    QuantRef("all"), QuantRef("some"), QuantRef("no"), QuantRef("most"),
    QuantRef("at-least", 2), QuantRef("at-most", 1), QuantRef("exactly", 1),
    QuantRef("fewer-than", 2), *BAD_QUANTS,
])


def conjunctions(var: str):
    """`true`, (P ?var) for a few P and their conjunctions, which may
    repeat a predicate."""
    leaves = st.one_of(
        st.just(TrueF()),
        st.sampled_from("PQR").map(lambda p: Atom(PredConst(p), (Var(var),))),
    )
    return st.recursive(leaves, lambda parts: st.builds(And, parts, parts), max_leaves=4)


@st.composite
def counted_formulas(draw, depth: int = 2):
    """A quantifier counted as sets, then possibly put in the restrictor or
    the body of a quantifier that is not, binding the same name or not."""
    var = draw(st.sampled_from("xy"))
    f = RestrictedQuant(draw(QUANTS), var, draw(conjunctions(var)), draw(conjunctions(var)))
    if depth and draw(st.booleans()):
        outer = draw(st.sampled_from("xy"))
        inner = draw(counted_formulas(depth - 1))
        part = draw(st.sampled_from([inner, Not(inner), And(inner, f)]))
        sort = Atom(PredConst(draw(st.sampled_from("PQR"))), (Var(outer),))
        parts = draw(st.sampled_from([(sort, part), (part, sort), (TrueF(), And(sort, part))]))
        f = RestrictedQuant(draw(QUANTS), outer, *parts)
    return f


@st.composite
def monadic_models(draw):
    """A model over P, Q and R with one or two worlds, whose extension keys
    may be missing and whose tuples may lie outside the domain or have
    another arity; the domain may list an individual twice."""
    worlds = ("w0", "w1")[: draw(st.integers(1, 2))]
    individuals = st.sampled_from(["d0", "d1", "d2", "d3"])
    domain = tuple(draw(st.lists(individuals, min_size=1, max_size=3, unique=True)))
    if draw(st.integers(0, 3)) == 0:
        domain += (draw(st.sampled_from(domain)),)
    tuples = [(d,) for d in domain] + [("d9",), ("d0", "d0"), ()]
    predicates = {
        (p, w): frozenset(draw(st.sets(st.sampled_from(tuples))))
        for p in "PQR"
        for w in worlds
        if draw(st.integers(0, 5))  # else the key is missing
    }
    return IntensionalModel(
        worlds=worlds, accessibility=frozenset(), domain=domain, predicates=predicates
    )


@settings(max_examples=400, deadline=None)
@given(f=counted_formulas(), ms=st.lists(monadic_models(), min_size=1, max_size=2),
       bound=st.booleans())
def test_quantifiers_counted_as_sets_agree_with_the_oracle(f, ms, bound):
    # one closure runs on each model in turn, so it meets each domain
    same_everywhere(f, ms, {"x": "d0"} if bound else {})


@pytest.mark.parametrize("text, twice, once", [
    # with d0 listed twice it is counted twice, as the oracle's loop counts it
    ("(quant (exactly 2) ?x true (P ?x))", True, False),
    ("(quant (exactly 2) ?x (P ?x) (and (Q ?x) (P ?x)))", True, False),
    # (d9) names no individual and (d1 d1) and () have another arity
    ("(quant (at-most 1) ?x (Q ?x) true)", False, True),
    ("(quant all ?x (R ?x) (Q ?x))", True, True),
    ("(quant some ?x true (and (R ?x) (R ?x)))", False, False),
])
def test_counted_quantifiers_count_each_listed_individual_and_no_stray_tuple(
    text, twice, once
):
    models = [
        IntensionalModel(
            worlds=("w0",),
            accessibility=frozenset(),
            domain=domain,
            predicates={
                ("P", "w0"): frozenset({("d0",)}),
                ("Q", "w0"): frozenset({("d0",), ("d9",), ("d1", "d1")}),
                ("R", "w0"): frozenset({("d9",), ("d1", "d1"), ()}),
            },
        )
        for domain in (("d0", "d1", "d0"), ("d0", "d1"))
    ]
    f = parse_formula(text)
    holds = compile_formula(f)  # one closure for both domains
    assert [holds(m, "w0", {}) for m in models] == [twice, once]
    same_everywhere(f, models, {})


def test_a_counted_quantifier_reads_the_domain_of_each_model_it_meets():
    holds = compile_formula(parse_formula("(quant some ?x true (P ?x))"))
    for d in ("d0", "d1", "d2", "d1"):
        m = IntensionalModel(
            worlds=("w0",),
            accessibility=frozenset(),
            domain=(d,),
            predicates={("P", "w0"): frozenset({(d,)})},
        )
        assert holds(m, "w0", {}) is True


# ---------------------------------------------------------------------------
# What compiling must not do


class CountingRegistry(QuantRegistry):
    def __init__(self):
        super().__init__()
        self.resolved = []

    def resolve(self, ref):
        self.resolved.append(ref)
        return super().resolve(ref)


def small_model():
    return IntensionalModel(
        worlds=("w0", "w1"),
        accessibility=frozenset(),
        domain=("d0", "d1"),
        constants={"a": "d0"},
        predicates={("P", "w0"): frozenset({("d0",)})},
    )


@pytest.mark.parametrize(
    "text, value",
    [
        ("(or (P a) (quant (exactly 20) ?x (P ?x) (P ?x)))", True),
        ("(implies (not (P a)) (quant (exactly 20) ?x true (P ?x)))", True),
        ("(quant all ?x (Q ?x) (quant (exactly 20) ?y true (P ?y)))", True),
        ("(quant some ?x (and (P ?x) (not (P ?x))) (quant (exactly 20) ?y true (P ?y)))",
         False),
        ("(and (P zz) (quant (exactly 20) ?x (P ?x) (P ?x)))", None),
    ],
)
def test_an_unreached_quantifier_is_never_resolved(text, value):
    # verifying (exactly 20) would search 2^21 sets; compiling it, or
    # short-circuiting past it, must not look it up
    reg = CountingRegistry()
    holds = compile_formula(parse_formula(text), reg)
    assert reg.resolved == []
    m = small_model()
    if value is None:
        with pytest.raises(EvalError, match="uninterpreted constant zz"):
            holds(m, "w0", {})
    else:
        assert holds(m, "w0", {}) is value
    assert QuantRef("exactly", 20) not in reg.resolved


def test_a_quantifier_is_resolved_once_per_closure():
    reg = CountingRegistry()
    holds = compile_formula(parse_formula("(quant most ?x true (P ?x))"), reg)
    m = small_model()
    assert [holds(m, w, {}) for w in m.worlds * 3] == [False] * 6
    assert reg.resolved == [QuantRef("most")]


A = Const("a")
BAD_NODES = [
    (parse_formula("(quant umpteen ?x true (P ?x))"), EvalError,
     "unknown quantifier 'umpteen'"),
    (parse_formula("((mod m1 (lambda (?y) (P ?y))) a)"), EvalError,
     "modifiers apply to predicate constants in models"),
    (parse_formula("(P zz)"), EvalError, "uninterpreted constant zz"),
    (parse_formula("(P (f a))"), EvalError, "uninterpreted function f"),
    (parse_formula("(P (that (P a)))"), ModelRejection,
     "no denotation for reified term class"),
    (parse_formula("(P ?v)"), EvalError, "unbound variable ?v"),
    # the body fails at d0 before the restrictor fails at d1
    (parse_formula("(quant all ?x (or (P ?x) (Q zz)) (Q yy))"), EvalError,
     "uninterpreted constant yy"),
    (Atom(Lambda(("y", "z"), TrueF()), (A,)), EvalError, "lambda arity mismatch"),
    (Modal("perhaps", TrueF()), EvalError, "unknown modal flavor perhaps"),
    (Not(A), EvalError, "not a formula: Const(name='a')"),
    (Atom(PredConst("P"), (TrueF(),)), EvalError, "not a term: TrueF()"),
    (Atom(A, (A,)), EvalError, "not a predicate expression: Const(name='a')"),
]


@pytest.mark.parametrize("f, error, message", BAD_NODES)
def test_errors_are_raised_by_the_closure_not_the_compiler(f, error, message):
    holds = compile_formula(f)
    with pytest.raises(error, match=re.escape(message)):
        holds(small_model(), "w0", {})
    same_everywhere(f, [small_model()], {})
    with pytest.raises(error, match=re.escape(message)):
        eval_formula(small_model(), "w0", {}, f)


def test_reified_term_reads_free_variables_in_first_occurrence_order():
    t = parse_term("(that (R ?y ?x))")
    m = small_model()
    m.reified = {(alpha_key(t), ("d1", "d0")): "d0"}
    fn = compile_term(t)
    assert fn(m, {"x": "d0", "y": "d1"}) == "d0"
    with pytest.raises(ModelRejection):
        fn(m, {"x": "d1", "y": "d0"})
    with pytest.raises(KeyError):
        fn(m, {"x": "d0"})


# ---------------------------------------------------------------------------
# Schema instances checked by first_failure

BUNDLE = load_bundle()
SMALL = InstanceBounds(max_quant_param=2, max_formula_instances=4)
# what the bundled schema bodies name besides their metavariables
SCHEMA_PREDICATES = {"correct": 1, "person": 1, "consider": 3, "feel-that": 3}

signatures = st.builds(
    lambda preds, sorts, consts: Signature(
        predicates={**preds, **{p: 1 for p in sorts}}, constants=consts
    ),
    st.dictionaries(st.sampled_from("pqr"), st.integers(0, 2), max_size=3),
    st.sets(st.sampled_from(["correct", "person"])),
    st.sets(st.sampled_from("ab"), max_size=2),
)


def schema_model(rng: random.Random, sig: Signature, formulas) -> IntensionalModel:
    """A small model over sig and the bundled schemas' own vocabulary;
    constants, `end-of` and reified denotations go missing at random."""
    worlds = ("w0", "w1")[: rng.randint(1, 2)]
    domain = tuple(f"d{i}" for i in range(rng.randint(1, 3)))

    def subset(items):
        return frozenset(x for x in items if rng.random() < 0.5)

    def tuples(arity):
        return list(product(domain, repeat=arity))

    arities = {**SCHEMA_PREDICATES, **sig.predicates}
    reified = {}
    for t in {t for f in formulas for t in reified_terms(f)}:
        for vals in product(domain, repeat=len(free_vars_ordered(t))):
            if rng.random() < 0.7:
                reified[(alpha_key(t), vals)] = rng.choice(domain)
    return IntensionalModel(
        worlds=worlds,
        accessibility=subset(product(worlds, repeat=2)),
        domain=domain,
        constants={c: rng.choice(domain) for c in sorted(sig.constants) if rng.random() < 0.85},
        predicates={
            (p, w): subset(tuples(arity))
            for p, arity in sorted(arities.items())
            for w in worlds
            if rng.random() < 0.9
        },
        functions=(
            {"end-of": ({(d,): rng.choice(domain) for d in domain}, rng.choice(domain))}
            if rng.random() < 0.85 else {}
        ),
        modifiers={
            ("sounds", p, w): subset(tuples(1))
            for p, arity in sorted(arities.items()) if arity == 1
            for w in worlds
        },
        term_ops={("do", d, w): subset(tuples(1)) for d in domain for w in worlds},
        reified=reified,
    )


# adding a conjunct is valid under no quantifier that can be true of some
# sets and false of others, so its instances take both values
CONJ_ADD = Schema(
    "conj-add",
    (("P1", 1), ("P2", 1), ("P3", 1)),
    (),
    (("Q", "any"),),
    parse_formula(
        "(implies (quant Q ?x (P1 ?x) (P2 ?x))"
        " (quant Q ?x (P1 ?x) (and (P2 ?x) (P3 ?x))))"
    ),
)
SCHEMAS = [*BUNDLE.schemas, CONJ_ADD]


def schema_kb(sig: Signature, schemas=SCHEMAS) -> KnowledgeBase:
    return KnowledgeBase(signature=sig, schemas=list(schemas), registry=BUNDLE.registry)


@settings(max_examples=50, deadline=None)
@given(sig=signatures, seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_first_failure_agrees_with_the_oracle_on_random_schema_models(sig, seed):
    rng = random.Random(seed)
    reg = BUNDLE.registry
    instances = [
        inst for s in SCHEMAS for inst in enumerate_instances(s, sig, reg, SMALL)
    ]
    models = [schema_model(rng, sig, instances) for _ in range(2)]
    kb = schema_kb(sig)
    for m in models:
        assert outcome(lambda: first_failure(m, kb, bounds=SMALL)) == outcome(
            lambda: oracle_eval.first_failure(m, kb, bounds=SMALL)
        )


def bundle_failure(m, bounds=None):
    """first_failure on the full bundle, checked against the oracle."""
    kb = BUNDLE.full_kb()
    got = outcome(lambda: first_failure(m, kb, bounds=bounds))
    assert got == outcome(lambda: oracle_eval.first_failure(m, kb, bounds=bounds))
    return got


def test_first_failure_matches_the_oracle_on_the_witness_model():
    assert bundle_failure(witness_model(BUNDLE)) == ("value", None)


def test_first_failure_matches_the_oracle_when_correct_fails_at_w1():
    m = witness_model(BUNDLE)
    ind = min(d for (d,) in m.predicates[("correct", "w1")] if d.startswith("prop-"))
    m.predicates[("correct", "w1")] -= {(ind,)}
    _, (kind, f, w) = bundle_failure(m)
    assert (kind, w) == ("schema-instance", "w1")
    assert render(f).startswith("(equiv (correct (that ")


def test_first_failure_matches_the_oracle_when_do_reified_action_fails():
    # doing the kind `beer` at w0 without being beer
    m = witness_model(BUNDLE)
    beer = next(
        v for k, v in m.reified.items() if m.reified_sources[k] == parse_term("(ka beer)")
    )
    m.term_ops[("do", beer, "w0")] = frozenset({("i1",)})
    _, (kind, f, w) = bundle_failure(m)
    assert (kind, render(f), w) == (
        "schema-instance",
        "(quant all ?x true (implies ((do (ka beer)) ?x) (beer ?x)))",
        "w0",
    )


def test_first_failure_matches_the_oracle_on_a_schema_that_is_not_valid():
    kb = schema_kb(Signature(predicates={"A": 1, "B": 1, "C": 1}), [CONJ_ADD])
    m = IntensionalModel(
        worlds=("w0",),
        accessibility=frozenset(),
        domain=("d0", "d1"),
        predicates={
            ("A", "w0"): frozenset({("d0",), ("d1",)}),
            ("B", "w0"): frozenset({("d0",)}),
        },
    )
    got = first_failure(m, kb, bounds=SMALL)
    assert got == oracle_eval.first_failure(m, kb, bounds=SMALL)
    kind, f, w = got
    assert kind == "schema-instance" and w == "w0"
    assert compile_formula(f, kb.registry)(m, w, {}) is False


def test_first_failure_matches_the_oracle_over_the_ceiling():
    got = bundle_failure(witness_model(BUNDLE), InstanceBounds(ceiling=10))
    assert got[:2] == ("raised", EnumerationCeiling)


@pytest.mark.parametrize("edit, message", [
    (lambda m: m.predicates.update({("big", "w1"): frozenset({("i1", "i2")})}),
     "predicate big at world w1 has a tuple of length 2, not its declared arity 1"),
    (lambda m: m.functions.update({"end-of": ({("tt", "tt"): "tt"}, "tt")}),
     "function end-of has an argument list of length 2, not its declared arity 1"),
])
def test_first_failure_checks_arities_before_evaluating(edit, message):
    # the axiom on contained-in would fail first, but nothing is evaluated
    m = witness_model(BUNDLE)
    m.predicates[("contained-in", "w0")] = frozenset()
    edit(m)
    with pytest.raises(EvalError, match=re.escape(message)):
        first_failure(m, BUNDLE.full_kb())


# conjunct drops under a right-up quantifier, each instance valid; the
# first cannot raise, so first_failure skips its instances, while the
# others can, through a reified term or a constant, and are evaluated
DROP_PREDS = (("P1", 1), ("P2", 1), ("P3", 1))
DROPS = [
    Schema(name, DROP_PREDS, (), (("Q", "right-up"),), parse_formula(text))
    for name, text in zip(("drop", "drop-that", "drop-const"), (
        "(implies (quant Q ?x (P1 ?x) (and (P2 ?x) (P3 ?x)))"
        " (quant Q ?x (P1 ?x) (P2 ?x)))",
        "(implies (quant Q ?x (and (P1 ?x) (correct (that (P3 ?x)))) (and (P2 ?x) (P3 ?x)))"
        " (quant Q ?x (and (P1 ?x) (correct (that (P3 ?x)))) (P2 ?x)))",
        "(implies (quant Q ?x (P1 ?x) (and (P2 ?x) (near ?x a)))"
        " (quant Q ?x (P1 ?x) (P2 ?x)))",
    ))
]
DROP_SIG = Signature(
    predicates={"p": 1, "person": 1, "correct": 1, "near": 2}, constants={"a", "b"}
)
FACTS = [parse_formula(text) for text in ("(person a)", "(near b a)")]


def test_only_the_drop_that_cannot_raise_is_skipped():
    reg = BUNDLE.registry
    assert all(weakening_valid(s, reg) for s in DROPS)
    assert [_total(s.body, reg, s) for s in DROPS] == [True, False, False]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    raising=st.lists(st.sampled_from(DROPS[1:]), max_size=2),
    failing=st.lists(st.sampled_from([CONJ_ADD, *FACTS]), min_size=1, max_size=2),
    ceiling=st.sampled_from([SMALL.ceiling, 100, 200]),
)
def test_skipping_a_weakening_valid_schema_changes_no_failure(seed, raising, failing, ceiling):
    # each kb has the skipped drop first, then drops that may raise, then a
    # schema or fact that may fail; under a ceiling of 100 the skipped
    # drop's 135 instances are too many, and under 200 CONJ_ADD's 324
    rng = random.Random(seed)
    schemas = [DROPS[0], *raising] + [f for f in failing if isinstance(f, Schema)]
    kb = KnowledgeBase(
        signature=DROP_SIG,
        facts=[f for f in failing if not isinstance(f, Schema)],
        schemas=schemas,
        registry=BUNDLE.registry,
    )
    bounds = replace(SMALL, ceiling=ceiling)
    instances = [
        inst for s in DROPS for inst in enumerate_instances(s, DROP_SIG, kb.registry, SMALL)
    ]
    for m in (schema_model(rng, DROP_SIG, instances) for _ in range(2)):
        assert outcome(lambda: first_failure(m, kb, bounds=bounds)) == outcome(
            lambda: oracle_eval.first_failure(m, kb, bounds=bounds)
        )
