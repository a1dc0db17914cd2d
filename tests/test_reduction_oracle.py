"""The environment-passing reducer against the substitution-based one it
replaced (`oracle_reduction`): equal reduced axioms, facts, goals and
signatures, the same side tables in the same order, and the same error with
the same message, on the bundle's knowledge bases and on generated
formulas."""

import random

import pytest

import oracle_reduction as oracle
from elfol import reduction
from elfol.core import (
    And,
    Atom,
    Implies,
    Ka,
    Lambda,
    Modal,
    Or,
    POSSIBLY,
    PredConst,
    RestrictedQuant,
    TermDerived,
    That,
    TrueF,
    children,
    free_vars,
)
from elfol.kb import KnowledgeBase
from elfol.lexicon import load_bundle
from elfol.reduction import ReductionContext
from elfol.syntax import parse_formula, render

from gen import QUANTS, AstGen

BUNDLE = load_bundle()


def _seeded_domain(seed: int) -> tuple:
    """Six fresh constant names drawn as the deep-search benchmark draws them."""
    rng = random.Random(seed)
    taken = BUNDLE.signature.all_names()
    names = []
    while len(names) < 6:
        name = f"{rng.choice('bdfghkmnpqstvwxz')}{rng.randrange(1000)}"
        if name not in taken and name not in names:
            names.append(name)
    return tuple(names)


SIX = tuple(f"c{i}" for i in range(1, 7))
BUNDLE_CONTEXTS = {
    "six-one-world": ReductionContext(domain=SIX, worlds=("w0",)),
    "six-two-worlds": ReductionContext(
        domain=SIX, worlds=("w0", "w1"), accessibility=(("w0", "w1"),)
    ),
    "seeded": ReductionContext(domain=_seeded_domain(1), worlds=("w0",)),
}
SMALL_CONTEXTS = [
    ReductionContext(domain=("a", "b"), worlds=("w0",)),
    ReductionContext(
        domain=("a", "b", "c"), worlds=("w0", "w1"),
        accessibility=(("w0", "w1"), ("w1", "w1")),
    ),
    # at-least 2 and above exceed the ceiling here: comb(4, 2) = 6 > 5
    ReductionContext(domain=("a", "b", "c", "d"), worlds=("w0",), expansion_ceiling=5),
]


def outcome(module, kb, ctx, goals):
    """Everything a reduction run gives back, or the error it raised."""
    try:
        reduced, tables = module.reduce_kb(kb, ctx)
        reduced_goals = [module.reduce_formula(g, ctx, tables) for g in goals]
    except Exception as e:
        return ("raised", type(e), str(e))
    return (
        reduced.axioms,
        reduced.facts,
        reduced_goals,
        [render(f) for f in reduced.facts + reduced_goals],
        reduced.signature,
        list(tables.reified_consts.items()),
        list(tables.reified_terms.items()),
        list(tables.op_preds.items()),
        list(tables.mod_preds.items()),
        tables.dropped_schemas,
    )


def assert_same(kb, ctx, goals=()):
    want = outcome(oracle, kb, ctx, goals)
    got = outcome(reduction, kb, ctx, goals)
    assert got == want


# Every query's kb over one world, and the modal scenario's over two as
# test_golden reduces it: each extra world multiplies the time.
@pytest.mark.parametrize("case, ctx", [
    pytest.param(case, BUNDLE_CONTEXTS[name], id=f"{case.name}-{name}")
    for case in BUNDLE.queries
    for name in BUNDLE_CONTEXTS
    if name != "six-two-worlds" or case.name == "compatible-possible"
])
def test_bundled_query_kb(case, ctx):
    assert_same(BUNDLE.kb_for(case), ctx, [case.goal])


@pytest.mark.parametrize("ctx", BUNDLE_CONTEXTS.values(), ids=list(BUNDLE_CONTEXTS))
def test_full_bundle(ctx):
    assert_same(BUNDLE.full_kb(), ctx, [c.goal for c in BUNDLE.queries])


def scoped_formula(gen: AstGen, rng: random.Random):
    """A closed formula of two nested quantifiers, often binding one name,
    whose leaves use their variables inside lambda atoms, ka and that terms
    and term-derived predicates, where a lambda parameter often shadows a
    quantified variable."""
    outer, inner = rng.choice([("z0", "z1"), ("z0", "z0"), ("z0", "v0")])
    scope = frozenset({outer, inner})

    def leaf():
        kind = rng.choice(["lambda", "ka", "that", "op", "plain"])
        if kind in ("lambda", "ka"):
            p = rng.choice([outer, inner, "v1"])
            lam = Lambda((p,), gen.formula(scope | {p}, rng.randint(0, 2)))
            if kind == "lambda":
                return Atom(lam, (gen.term(scope, 1),))
            return Atom(PredConst("P"), (Ka(lam),))
        if kind == "that":
            return Atom(PredConst("P"), (That(gen.formula(scope, rng.randint(0, 2))),))
        if kind == "op":
            return Atom(TermDerived("op1", gen.term(scope, 1)), (gen.term(scope, 1),))
        return gen.formula(scope, rng.randint(0, 2))

    body = rng.choice([And, Or, Implies])(leaf(), leaf())
    restrictor = leaf() if rng.random() < 0.5 else TrueF()
    f = RestrictedQuant(
        rng.choice(QUANTS), outer, gen.formula(frozenset({outer}), 0),
        RestrictedQuant(rng.choice(QUANTS), inner, restrictor, body),
    )
    return Modal(POSSIBLY, f) if rng.random() < 0.2 else f


def generated_formulas(seed: int, n: int) -> list:
    rng = random.Random(seed)
    gen = AstGen(rng)
    return [
        gen.closed_formula(depth=rng.randint(1, 3)) if i % 2 else scoped_formula(gen, rng)
        for i in range(n)
    ]


FORMULAS = generated_formulas(7, 240)
# reduce_kb does not ask for closed axioms: a variable free in a reified term
# stays free after expansion, which is an error
_gen = AstGen(random.Random(8))
OPEN = [_gen.formula(frozenset({"z0", "v0"}), 2) for _ in range(len(FORMULAS) // 8)]


@pytest.mark.parametrize("ctx", SMALL_CONTEXTS, ids=["two", "three-modal", "ceiling"])
def test_generated_formulas(ctx):
    for f in FORMULAS:
        assert_same(KnowledgeBase(), ctx, [f])


@pytest.mark.parametrize("ctx", SMALL_CONTEXTS, ids=["two", "three-modal", "ceiling"])
def test_generated_kbs(ctx):
    """Axioms at every world and facts at the first, numbering obj-kN in one
    side table across all of them."""
    for i in range(0, len(FORMULAS), 8):
        chunk = FORMULAS[i:i + 8]
        kb = KnowledgeBase(axioms=chunk[:4] + [OPEN[i // 8]], facts=chunk[4:6])
        assert_same(kb, ctx, chunk[6:])


def walk(node, bound=()):
    """(node, the names bound around it) for every node under node."""
    yield node, bound
    if isinstance(node, RestrictedQuant):
        bound = bound + (node.var,)
    elif isinstance(node, Lambda):
        bound = bound + node.params
    for child in children(node):
        yield from walk(child, bound)


def test_generated_formulas_cover_the_features():
    """The generated suite exercises what the environment must get right."""
    nodes = [(n, set(bound)) for f in FORMULAS for n, bound in walk(f)]
    quants = {n.quant.name for n, _ in nodes if isinstance(n, RestrictedQuant)}
    assert {"all", "most", "exactly", "at-most", "at-least"} <= quants
    assert any(isinstance(n, Modal) for n, _ in nodes)
    # a lambda atom, a ka and a that with a quantified variable free in them
    for kind in (Lambda, Ka, That):
        assert any(isinstance(n, kind) and free_vars(n) & bound for n, bound in nodes)
    # a quantifier, and a lambda, binding a name already bound around it
    assert any(isinstance(n, RestrictedQuant) and n.var in bound for n, bound in nodes)
    assert any(isinstance(n, Lambda) and bound & set(n.params) for n, bound in nodes)
    errors = set()
    for ctx in SMALL_CONTEXTS:
        for f in FORMULAS + OPEN:
            result = outcome(reduction, KnowledgeBase(axioms=[f]), ctx, [])
            if result[0] == "raised":
                errors.add(result[2].split(":")[0])
    assert errors == {
        "at-least 2 over 4 constants exceeds the expansion ceiling",
        "term-derived predicate argument must reduce to a constant",
        "reified term is open after expansion",
    }


@pytest.mark.parametrize("quant, reified", [
    ("(at-least 0)", 1),
    ("(exactly 0)", 7),
    ("(at-most 0)", 7),
    ("(fewer-than 0)", 1),
    ("(at-least 7)", 1),
    ("most", 7),
])
def test_counts_build_instances_only_when_needed(quant, reified):
    """Counts `gen.QUANTS` never draws, over six constants. The `that` term
    in the restrictor numbers one reified constant per instance built, and
    the reified fact after it takes the next number: a count that needs no
    instance (at-least 0, fewer-than 0, at-least 7) builds none, and one
    that needs any builds all six."""
    kb = KnowledgeBase(
        axioms=[parse_formula(f"(quant {quant} ?x (P (that (Q ?x))) (Q ?x))")],
        facts=[parse_formula("(P (that (R c1)))")],
    )
    ctx = BUNDLE_CONTEXTS["six-one-world"]
    assert_same(kb, ctx)
    _, tables = reduction.reduce_kb(kb, ctx)
    assert len(tables.reified_terms) == reified


def test_a_count_that_needs_no_instance_leaves_an_open_body_alone():
    """At-least 0 is true without its body, so an open reified term in the
    body is never reduced and raises nothing."""
    kb = KnowledgeBase(
        axioms=[parse_formula("(quant (at-least 0) ?x (Q ?x) (P (that (R ?y))))")]
    )
    ctx = BUNDLE_CONTEXTS["six-one-world"]
    assert_same(kb, ctx)
    reduced, tables = reduction.reduce_kb(kb, ctx)
    assert reduced.axioms == [TrueF()]
    assert not tables.reified_terms
