"""The in-place model search against the generator-chain search it replaced
(`oracle_models`): the same models in the same order from
`enumerate_models`, plain, canonical and with a settled test, and the same
countermodel or the same error with the same message from
`find_counterexample`."""

import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_models as oracle
from elfol import models
from elfol.core import And, Atom, Implies, PredConst, RestrictedQuant, Signature, Var
from elfol.lexicon import load_bundle
from elfol.models import (
    EnumerationError,
    SearchBounds,
    dump_model,
    enumerate_models,
    find_counterexample,
    formula_vocabulary,
    model_count,
)
from elfol.quantifiers import DEFAULT_REGISTRY
from elfol.schemas import InstanceBounds, enumerate_instances
from elfol.syntax import parse_formula

from gen import AstGen
from test_models import SEARCH_CASES, SEARCH_QUANTS, search_case

BUNDLE = load_bundle()


def answer(search, f, bounds, registry=None):
    """A search's answer as ("model", dump or None) or ("raises", type,
    message)."""
    try:
        m = search(f, bounds, registry)
    except Exception as e:
        return "raises", type(e), str(e)
    return "model", None if m is None else dump_model(m)


def sequence(enumerate, *args, **kw):
    """The dumps of every model enumerate yields, then its error if it
    raises, as (type, message)."""
    dumps = []
    try:
        for m in enumerate(*args, **kw):
            dumps.append(dump_model(m))
    except Exception as e:
        dumps.append((type(e), str(e)))
    return dumps


def validate_formulas() -> list:
    """The 162 instances `elfol validate --schema monotone-conj-drop`
    checks, then the conjunct drop under three downward quantifiers: as
    `validate` would build it, then with the dropped conjunct's predicate
    sorting before the kept one's, with the restrictor first or last, so
    the prune-first predicate order is not the name order."""
    schema = next(s for s in BUNDLE.schemas if s.name == "monotone-conj-drop")
    sig = Signature(predicates={"p1": 1, "p2": 1, "p3": 1})
    instances = enumerate_instances(
        schema, sig, BUNDLE.registry, InstanceBounds(max_formula_instances=2)
    )
    assert len(instances) == 162
    drop = "(implies (quant {q} ?x ({r} ?x) (and ({b} ?x) ({c} ?x))) (quant {q} ?x ({r} ?x) ({b} ?x)))"
    return instances + [
        parse_formula(drop.format(q=q, r=r, b=b, c=c))
        for r, b, c in [("p1", "p2", "p3"), ("p1", "p3", "p2"), ("p3", "p2", "p1")]
        for q in ("no", "(fewer-than 2)", "(at-most 1)")
    ]


def test_every_validate_instance_and_downward_drop_gives_the_oracle_answer():
    bounds = SearchBounds(max_domain=4, max_worlds=1)
    formulas = validate_formulas()
    found = [answer(find_counterexample, f, bounds, BUNDLE.registry) for f in formulas]
    assert found == [answer(oracle.find_counterexample, f, bounds, BUNDLE.registry) for f in formulas]
    assert found[:162] == [("model", None)] * 162
    assert all(kind == "model" and dump is not None for kind, dump in found[162:])


def test_validate_builds_the_pinned_number_of_models(monkeypatch):
    # each size is searched with the unmarked and mixed predicates first,
    # so polarity closes prefixes early; a search of each size in name
    # order alone builds 19,666 models
    built = []
    search = models._models

    def counted(*args):
        built.append(0)
        for m in search(*args):
            built[-1] += 1
            yield m

    monkeypatch.setattr(models, "_models", counted)
    bounds = SearchBounds(max_domain=4, max_worlds=1)
    formulas = validate_formulas()
    for f in formulas[:162]:
        assert find_counterexample(f, bounds, BUNDLE.registry) is None
    assert sum(built) == 6_990
    # the models each search builds, size by size: a drop as `validate`
    # builds it has the prune-first order as its name order, so each size is
    # searched once; in the other role orders the countermodel's size is
    # searched again in name order
    searches = [[1], [0, 1], [0, 1]] + [[1, 2], [0, 1, 3], [0, 1, 3]] * 2
    assert len(formulas) == 162 + len(searches)
    for f, expected in zip(formulas[162:], searches):
        built.clear()
        assert find_counterexample(f, bounds, BUNDLE.registry) is not None
        assert built == expected


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    case=st.sampled_from(SEARCH_CASES),
)
def test_search_cases_give_the_oracle_answer(seed, case):
    f, bounds = search_case(random.Random(seed), case)
    assert answer(find_counterexample, f, bounds) == answer(oracle.find_counterexample, f, bounds)


SHAPES = [
    (size, worlds, preds, consts)
    for size in (1, 2, 3)
    for worlds in (1, 2)
    for preds in ((), (("P", 1),), (("R", 2),), (("P", 1), ("R", 2)), (("P", 1), ("P", 1)))
    for consts in ((), ("a",), ("a", "b"), ("a", "a"))
    if model_count(size, worlds, preds, consts) <= 20_000
]


@pytest.mark.parametrize("canonical", [False, True])
@pytest.mark.parametrize(
    "size,worlds,preds,consts",
    SHAPES,
    ids=[
        f"D{size}-W{worlds}-{'+'.join(p for p, _ in preds)}-c{len(consts)}"
        for size, worlds, preds, consts in SHAPES
    ],
)
def test_enumeration_yields_the_oracle_sequence(size, worlds, preds, consts, canonical):
    args = size, worlds, preds, consts
    assert sequence(enumerate_models, *args, canonical=canonical) == sequence(
        oracle.enumerate_models, *args, canonical=canonical
    )


def settled_formulas() -> list:
    """Conjunct drops over A, B and C in every role order under every
    quantifier, then generated implications over monadic and binary
    predicates."""
    atoms = [Atom(PredConst(n), (Var("x"),)) for n in "ABC"]
    formulas = [
        Implies(RestrictedQuant(q, "x", r, And(b, c)), RestrictedQuant(q, "x", r, b))
        for q in SEARCH_QUANTS
        for r, b, c in permutations(atoms)
    ]
    rng = random.Random(7)
    gen = AstGen(rng, reified=False, functions=False, modifiers=False, constants=False)
    while len(formulas) < 100:
        f = Implies(gen.closed_formula(depth=2), gen.closed_formula(depth=2))
        try:
            formula_vocabulary(f)
        except EnumerationError:
            continue
        formulas.append(f)
    return formulas


@pytest.mark.parametrize("canonical", [False, True])
def test_enumeration_with_a_settled_test_yields_the_oracle_sequence(canonical):
    skipped = 0  # models the settled test skips in plain enumeration
    for f in settled_formulas():
        preds, consts = formula_vocabulary(f)
        settled = models._settled(f, preds, consts, DEFAULT_REGISTRY)
        old_settled = oracle._settled(f, preds, consts, DEFAULT_REGISTRY)
        assert (settled is None) == (old_settled is None)
        for worlds in (1, 2):
            for size in (1, 2, 3):
                if model_count(size, worlds, preds, consts) > 5_000:
                    continue
                args = size, worlds, preds, consts
                new = sequence(enumerate_models, *args, canonical=canonical, settled=settled)
                old = sequence(
                    oracle.enumerate_models, *args, canonical=canonical, settled=old_settled
                )
                assert new == old
                skipped += model_count(*args) - len(new)
    assert canonical or skipped > 10_000


@pytest.mark.parametrize("text,ceiling", [
    ("(implies (P a) (P a))", 100),
    ("(quant all ?x (R ?x ?x) (R ?x ?x))", 500),
    ("(quant all ?x (and (P ?x) (Q ?x)) (nec (implies (P ?x) (P ?x))))", 1_000),
])
@pytest.mark.parametrize("max_worlds", [1, 2])
def test_a_ceiling_error_is_raised_at_the_same_size_with_the_same_message(
    text, ceiling, max_worlds
):
    f = parse_formula(text)
    bounds = SearchBounds(max_domain=6, max_worlds=max_worlds, ceiling=ceiling)
    found = answer(find_counterexample, f, bounds)
    assert found[:2] == ("raises", EnumerationError)
    assert found == answer(oracle.find_counterexample, f, bounds)
