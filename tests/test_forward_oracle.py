"""forward_chain against the reference in oracle_forward.py, which builds
and tries every schema instance, those of the schemas the monotone rule
subsumes included.

Both must derive the same facts up to alpha-equivalence and agree on
`exhausted`. Where no step of the reference cites an instance of a
subsumed schema, the rendered derived lists and the (rule, detail) steps
must be identical too. Where one does, forward_chain derives that fact in
the same round by the monotone rule instead: it comes later in the round,
is labelled `monotone-quant`, and keeps the fact's bound variable.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import elfol.schemas
from elfol.core import (
    And, Atom, Const, Implies, PredConst, QuantRef, RestrictedQuant, Signature, Var,
    alpha_key, conjoin, forall,
)
from elfol.kb import KnowledgeBase
from elfol.lexicon import load_bundle
from elfol.prover import ProverConfig, forward_chain
from elfol.schemas import InstanceBounds, weakening_valid
from elfol.syntax import parse_formula, render

import fuzz
import oracle_forward

BUNDLE = load_bundle()


def compare(kb, cfg=None) -> bool:
    """Check forward_chain against the reference on kb; whether a step of
    the reference cites a subsumed schema."""
    ref = oracle_forward.forward_chain(kb, cfg)
    new = forward_chain(kb, cfg)
    assert {alpha_key(f) for f in new.derived} == {alpha_key(f) for f in ref.derived}
    assert new.exhausted == ref.exhausted
    subsumed = {s.name for s in kb.schemas if weakening_valid(s, kb.registry)}
    cited = any(detail.rpartition("[")[0] in subsumed for _f, _r, detail in ref.steps)
    if not cited:
        assert [render(f) for f in new.derived] == [render(f) for f in ref.derived]
        assert [s[1:] for s in new.steps] == [s[1:] for s in ref.steps]
    return cited


@pytest.fixture()
def shared_instances(monkeypatch):
    """The reference builds the same 24,565 conjunct-drop instances on every
    call; build each schema's once per test and signature value.
    enumerate_instances is deterministic and the reference only reads the
    list."""
    built = {}
    enumerate_instances = elfol.schemas.enumerate_instances

    def shared(s, sig, registry, bounds=None):
        preds = tuple(sorted(sig.predicates.items()))
        key = (s, preds, frozenset(sig.constants), id(registry), bounds)
        if key not in built:
            built[key] = enumerate_instances(s, sig, registry, bounds)
        return built[key]

    monkeypatch.setattr(elfol.schemas, "enumerate_instances", shared)


@pytest.mark.parametrize("seed", range(1, 6))
def test_bundle_splits(seed, shared_instances):
    # the saturate benchmark's splits: four per seed, 8 facts and 7
    b = BUNDLE
    facts = [f for name in sorted(b.scenarios) for f in b.scenarios[name]]
    rng = random.Random(seed)
    for _ in range(4):
        order = rng.sample(facts, len(facts))
        for part in (order[:8], order[8:]):
            kb = KnowledgeBase(b.signature, part, list(b.axioms), list(b.schemas), b.registry)
            # no bundle fact lets a conjunct-drop instance fire within
            # forward_chain's quantifier bound, so nothing is relabelled
            assert not compare(kb)


def test_instances_follow_the_signature_and_bounds(shared_instances):
    """forward_chain reuses a schema's instance clauses across calls; over
    the same schema objects, each call must still read the signature it is
    given, as it stands, and the bounds."""
    b = BUNDLE
    kb = b.full_kb()
    compare(kb)
    # one more one-place predicate gives do-reified-action one more
    # instance; the subsumed conjunct-drop schema, which forward_chain never
    # enumerates and the reference takes seconds over, is left out
    sig = replace(b.signature, predicates={**b.signature.predicates, "shiny": 1})
    facts = kb.facts + [parse_formula(f"((do (ka {p})) t1)") for p in ("shiny", "dull")]
    schemas = [s for s in kb.schemas if not weakening_valid(s, kb.registry)]
    kb2 = replace(kb, signature=sig, facts=facts, schemas=schemas)
    compare(kb2)
    derived = {render(f) for f in forward_chain(kb2).derived}
    assert "(shiny t1)" in derived and "(dull t1)" not in derived
    sig.predicates["dull"] = 1  # changed in place, after a call
    compare(kb2)
    assert "(dull t1)" in {render(f) for f in forward_chain(kb2).derived}
    low = InstanceBounds(ceiling=10)
    ref, new = oracle_forward.forward_chain(kb, None, low), forward_chain(kb, instance_bounds=low)
    assert [render(f) for f in new.derived] == [render(f) for f in ref.derived]
    assert new.steps == ref.steps
    # the reference drops a failed schema without reporting it
    assert (new.exhausted, new.skipped_schemas) == (
        True, ["correct-iff-content", "sounds-as-considered", "do-reified-action"]
    )


def test_firing_instance_is_relabelled():
    facts = [
        parse_formula("(quant some ?y (P ?y) (and (Q ?y) (P ?y)))"),
        parse_formula("(Q a)"),
    ]
    kb = KnowledgeBase(fuzz.FUZZ_SIG, facts, [], [fuzz.CONJ_DROP])
    assert compare(kb)
    ref = oracle_forward.forward_chain(kb)
    new = forward_chain(kb)
    assert [(render(f), rule) for f, rule, _d in ref.steps] == [
        ("(quant some ?x (P ?x) (Q ?x))", "axiom-match"),
        ("(quant some ?y (P ?y) (P ?y))", "monotone-quant"),
    ]
    assert [(render(f), rule, d) for f, rule, d in new.steps] == [
        ("(quant some ?y (P ?y) (Q ?y))", "monotone-quant", "some"),
        ("(quant some ?y (P ?y) (P ?y))", "monotone-quant", "some"),
    ]


# right-up, right-down and neither; (at-least 3) is over forward_chain's
# quantifier bound, so no instance has it
QUANTS = [
    QuantRef("some"), QuantRef("all"), QuantRef("most"), QuantRef("at-least", 1),
    QuantRef("at-least", 2), QuantRef("at-least", 3), QuantRef("no"),
    QuantRef("at-most", 1), QuantRef("fewer-than", 2), QuantRef("exactly", 1),
]


def conjunctive_fact(rng: random.Random) -> RestrictedQuant:
    """A quantified fact over the fuzz signature whose body is a conjunction
    of two or three atoms, mostly monadic in the bound variable."""
    var = rng.choice("xy")
    x = Var(var)

    def atom():
        roll = rng.random()
        if roll < 0.8:
            return Atom(PredConst(rng.choice("PQ")), (x,))
        c = Const(rng.choice(fuzz.CONSTS))
        return Atom(PredConst("R"), (x, c) if roll < 0.9 else (c, x))

    body = And(atom(), atom())
    if rng.random() < 0.25:
        body = And(body, atom()) if rng.random() < 0.5 else And(atom(), body)
    return RestrictedQuant(rng.choice(QUANTS), var, atom(), body)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_fuzz_kbs_with_conjunctive_quantified_facts(seed):
    rng = random.Random(seed)
    kb = fuzz.read_off_kb(rng, fuzz.random_model(rng))
    facts = kb.facts + [conjunctive_fact(rng) for _ in range(rng.randint(1, 4))]
    rng.shuffle(facts)
    compare(KnowledgeBase(kb.signature, facts, kb.axioms, list(BUNDLE.schemas)))


# Semi-naive matching: a join is enumerated only in the rounds where it
# uses a fact new to that round. Each axiom below is read in a round where
# its antecedents meet facts of different ages.
ROUNDS_SIG = Signature(predicates={
    "P": 1, "Q": 1, "R": 2, "S": 1, "T": 1, "T2": 1, "U": 2, "V": 1,
})
ROUNDS_AXIOMS = [
    "(forall ?x (implies (P ?x) (Q ?x)))",  # round 0: (Q a)
    "(forall ?x (forall ?y (implies (R ?x ?y) (S ?y))))",  # round 0: (S b)
    # round 1: the round-0 fact (R a b) first, then the new (Q a)
    "(forall ?x (forall ?y (implies (and (R ?x ?y) (Q ?x)) (T ?y))))",
    # round 1: the new (Q a) first, then the round-0 fact (R a b)
    "(forall ?x (forall ?y (implies (and (Q ?x) (R ?x ?y)) (T2 ?y))))",
    # round 1: two new facts, (Q a) and (S b)
    "(forall ?x (forall ?y (implies (and (Q ?x) (S ?y)) (U ?x ?y))))",
    # round 2: (U a b) and (T b) from round 1, with (P a) from round 0
    "(forall ?x (forall ?y (implies (and (U ?x ?y) (and (P ?x) (T ?y))) (V ?x))))",
]


@pytest.mark.parametrize("max_depth", [1, 2, 3, 4])
def test_joins_of_old_and_new_facts_match_the_reference(max_depth):
    kb = KnowledgeBase(
        ROUNDS_SIG,
        [parse_formula("(P a)"), parse_formula("(R a b)"), parse_formula("(R c c)")],
        [parse_formula(ax) for ax in ROUNDS_AXIOMS],
    )
    cfg = ProverConfig(max_depth=max_depth)
    ref = oracle_forward.forward_chain(kb, cfg)
    new = forward_chain(kb, cfg)
    assert [render(f) for f in new.derived] == [render(f) for f in ref.derived]
    assert new.steps == ref.steps
    assert new.exhausted == ref.exhausted
    # rounds 0-2 derive, round 3 derives nothing: fewer rounds stop short
    assert [render(f) for f in new.derived] == [
        "(Q a)", "(S b)", "(S c)", "(T b)", "(T2 b)", "(U a b)", "(U a c)", "(V a)",
    ][:[0, 3, 7, 8, 8][max_depth]]
    assert new.exhausted == (max_depth < 4)


def chain_axiom(rng: random.Random):
    """A universal over ?x and ?y whose antecedent joins two or three atoms
    of the fuzz signature and whose consequent is one more."""

    def atom():
        v, w = (Var(n) for n in rng.sample("xy", 2))
        roll = rng.random()
        if roll < 0.6:
            return Atom(PredConst(rng.choice("PQ")), (v,))
        return Atom(PredConst("R"), (v, w if roll < 0.9 else Const(rng.choice(fuzz.CONSTS))))

    body = Implies(conjoin([atom() for _ in range(rng.randint(2, 3))]), atom())
    return forall("x", forall("y", body))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_fuzz_kbs_with_conjunctive_chain_axioms(seed):
    rng = random.Random(seed)
    kb = fuzz.read_off_kb(rng, fuzz.random_model(rng))
    axioms = kb.axioms + [chain_axiom(rng) for _ in range(rng.randint(1, 4))]
    rng.shuffle(axioms)
    cfg = ProverConfig(max_depth=rng.randint(1, 6))
    compare(KnowledgeBase(kb.signature, kb.facts, axioms, kb.schemas), cfg)
