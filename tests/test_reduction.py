"""Classical reduction: faithfulness, expansion shape, effort comparison."""

import random
from itertools import product
from math import comb

import pytest

from elfol.core import QuantRef, RestrictedQuant, TrueF, children, disjuncts
from elfol.models import IntensionalModel, eval_formula
from elfol.prover import ProverConfig
from elfol.reduction import (
    ReductionContext,
    ReductionError,
    SideTables,
    compare_effort,
    reduce_formula,
    reduce_kb,
)
from elfol.syntax import parse_formula, parse_term, render

from gen import AstGen
from oracle_reduction import induced_classical_model


class TestReduceFormula:
    def test_possibility_expands_over_worlds(self):
        ctx = ReductionContext(domain=("a",), worlds=("w0", "w1"))
        out = reduce_formula(parse_formula("(poss (P a))"), ctx)
        assert out == parse_formula(
            "(or (and (acc w0 w0) (P a w0)) (and (acc w0 w1) (P a w1)))"
        )

    def test_necessity_expands_dually(self):
        ctx = ReductionContext(domain=("a",), worlds=("w0", "w1"))
        out = reduce_formula(parse_formula("(nec (P a))"), ctx)
        assert out == parse_formula(
            "(and (implies (acc w0 w0) (P a w0))"
            " (implies (acc w0 w1) (P a w1)))"
        )

    def test_bare_existential_base_case(self):
        ctx = ReductionContext(domain=("a", "b"), worlds=("w",))
        out = reduce_formula(
            parse_formula("(quant (at-least 1) ?x true (P ?x))"), ctx
        )
        assert out == parse_formula("(or (P a w) (P b w))")

    def test_at_least_three_over_six_constants(self):
        ctx = ReductionContext(
            domain=tuple(f"c{i}" for i in range(1, 7)), worlds=("w0",)
        )
        out = reduce_formula(
            parse_formula("(quant (at-least 3) ?c (city ?c) (oj ?c))"), ctx
        )
        options = disjuncts(out)
        assert len(options) == comb(6, 3) == 20
        from elfol.core import Atom, Equal, Not, conjuncts

        for option in options:
            # three distinctness constraints plus three memberships, each
            # membership an and-pair of restrictor and body atoms
            leaves = conjuncts(option)
            distinct = [f for f in leaves if isinstance(f, Not)]
            atoms = [f for f in leaves if isinstance(f, Atom)]
            assert len(distinct) == 3
            assert all(isinstance(f.body, Equal) for f in distinct)
            assert len(atoms) == 6

    def test_monotone_growth_matches_binomials(self):
        for n in (3, 4, 5):
            ctx = ReductionContext(
                domain=tuple(f"c{i}" for i in range(n)), worlds=("w0",)
            )
            for k in (1, 2, 3):
                if k > n:
                    continue
                out = reduce_formula(
                    RestrictedQuant(
                        QuantRef("at-least", k), "x", TrueF(),
                        parse_formula("(P ?x)"),
                    ),
                    ctx,
                )
                assert len(disjuncts(out)) == comb(n, k)

    def test_reified_terms_become_opaque_constants(self):
        ctx = ReductionContext(domain=("t1",), worlds=("w0",))
        tables = SideTables()
        out = reduce_formula(
            parse_formula("((do (ka (lambda (?x) (send-off ?x r1)))) t1)"),
            ctx,
            tables,
        )
        assert render(out) == "(do%obj-k1 t1 w0)"
        assert "obj-k1" in tables.reified_terms

    def test_modified_atom_gets_fresh_predicate(self):
        ctx = ReductionContext(domain=("p1",), worlds=("w0",))
        out = reduce_formula(parse_formula("((mod sounds reasonable) p1)"), ctx)
        assert render(out) == "(sounds%reasonable p1 w0)"

    def test_requires_closed_input(self):
        ctx = ReductionContext(domain=("a",), worlds=("w0",))
        with pytest.raises(ReductionError):
            reduce_formula(parse_formula("(P ?x)"), ctx)

    def test_context_requires_domain_closure(self):
        with pytest.raises(ReductionError):
            ReductionContext(domain=(), worlds=("w0",))
        with pytest.raises(ReductionError):
            ReductionContext(domain=("a",), worlds=())

    @pytest.mark.parametrize("kwargs", [
        # a domain constant that is also a world would be both an
        # individual and a world argument
        dict(domain=("w0", "b"), worlds=("w0",)),
        # obj-kN names the reified terms; a domain constant of that name
        # would be identified with the first one
        dict(domain=("obj-k1", "b"), worlds=("w0",)),
        dict(domain=("b",), worlds=("w0", "obj-k12")),
        dict(domain=("b",), worlds=("w0",), accessibility=(("w0", "w9"),)),
        dict(domain=("b",), worlds=("w0", "w1"), accessibility=(("w0", "w1:w2"),)),
    ])
    def test_context_rejects_ambiguous_names(self, kwargs):
        with pytest.raises(ReductionError):
            ReductionContext(**kwargs)

    def test_context_accepts_names_near_the_reserved_form(self):
        ctx = ReductionContext(
            domain=("obj-k", "obj-kx", "xobj-k1"), worlds=("w0", "w1"),
            accessibility=(("w0", "w1"), ("w1", "w1")),
        )
        out = reduce_formula(parse_formula("(P (that (Q obj-k)))"), ctx)
        assert render(out) == "(P obj-k1 w0)"

    def test_expansion_ceiling(self):
        ctx = ReductionContext(
            domain=tuple(f"c{i}" for i in range(24)),
            worlds=("w0",),
            expansion_ceiling=1000,
        )
        with pytest.raises(ReductionError):
            reduce_formula(
                RestrictedQuant(
                    QuantRef("at-least", 12), "x", TrueF(), parse_formula("(P ?x)")
                ),
                ctx,
            )

    def test_deterministic(self):
        ctx = ReductionContext(domain=("a", "b", "c"), worlds=("w0", "w1"))
        f = parse_formula("(poss (quant most ?x (P ?x) (Q ?x)))")
        assert render(reduce_formula(f, ctx)) == render(reduce_formula(f, ctx))


DOMAIN = ("a", "b", "c")
WORLDS = ("w0", "w1")
PREDS = {"P": 1, "Q": 1, "R": 2}


def random_ctx_model(rng):
    predicates = {}
    for name, ar in PREDS.items():
        for w in WORLDS:
            tuples = [t for t in product(DOMAIN, repeat=ar) if rng.random() < 0.5]
            predicates[(name, w)] = frozenset(tuples)
    acc = frozenset((x, y) for x in WORLDS for y in WORLDS if rng.random() < 0.5)
    return IntensionalModel(
        worlds=WORLDS,
        accessibility=acc,
        domain=DOMAIN,
        constants={c: c for c in DOMAIN},
        predicates=predicates,
    )


def test_reduction_preserves_truth_on_random_suite(rng):
    ctx = ReductionContext(domain=DOMAIN, worlds=WORLDS)
    g = AstGen(rng, reified=False, functions=False, modifiers=False)
    for _ in range(120):
        f = g.closed_formula(depth=rng.randint(1, 3))
        m = random_ctx_model(rng)
        tables = SideTables()
        rf = reduce_formula(f, ctx, tables)
        cm = induced_classical_model(m, ctx, tables)
        assert eval_formula(m, m.w0, {}, f) == eval_formula(cm, cm.w0, {}, rf), render(f)


def test_reduction_faithful_when_constants_co_denote(rng):
    """Domain closure does not require distinct denotations; the expansion's
    explicit distinctness conjuncts keep counting honest when two constants
    name one individual."""
    ctx = ReductionContext(domain=DOMAIN, worlds=WORLDS)
    g = AstGen(rng, reified=False, functions=False, modifiers=False)
    for _ in range(80):
        # constants map ONTO a 1- or 2-element domain: closure holds,
        # distinctness does not
        domain = tuple(f"d{i}" for i in range(rng.randint(1, 2)))
        mapping = {}
        for i, c in enumerate(DOMAIN):
            mapping[c] = domain[i % len(domain)]
        predicates = {}
        for name, ar in PREDS.items():
            for w in WORLDS:
                tuples = [
                    t for t in product(domain, repeat=ar) if rng.random() < 0.5
                ]
                predicates[(name, w)] = frozenset(tuples)
        acc = frozenset(
            (x, y) for x in WORLDS for y in WORLDS if rng.random() < 0.5
        )
        m = IntensionalModel(
            worlds=WORLDS, accessibility=acc, domain=domain,
            constants=mapping, predicates=predicates,
        )
        f = g.closed_formula(depth=rng.randint(1, 2))
        tables = SideTables()
        rf = reduce_formula(f, ctx, tables)
        cm = induced_classical_model(m, ctx, tables)
        assert eval_formula(m, m.w0, {}, f) == eval_formula(cm, cm.w0, {}, rf), render(f)


def test_reduction_faithful_for_operator_vocabulary(rng):
    """Hand-built check covering modifiers, derived predicates, and reified
    terms, which the random suite leaves out."""
    ka = parse_term("(ka P)")
    m = IntensionalModel(
        worlds=("w0",),
        accessibility=frozenset(),
        domain=("a", "kP"),
        constants={"a": "a"},
        predicates={("P", "w0"): frozenset({("a",)})},
        modifiers={("m1", "P", "w0"): frozenset({("a",)})},
        term_ops={("op1", "kP", "w0"): frozenset({("a",)})},
        reified={("(ka;p:P;)", ()): "kP"},
    )
    ctx = ReductionContext(domain=("a",), worlds=("w0",))
    for text in ("((mod m1 P) a)", "((op1 (ka P)) a)", "(P a)"):
        f = parse_formula(text)
        tables = SideTables()
        rf = reduce_formula(f, ctx, tables)
        cm = induced_classical_model(m, ctx, tables)
        assert eval_formula(m, "w0", {}, f) == eval_formula(cm, cm.w0, {}, rf), text


class TestCompareEffort:
    def test_tautology_reports_equal_lengths(self, bundle):
        kb = bundle.kb_for(next(c for c in bundle.queries if c.name == "enter"))
        goal = parse_formula("(implies (contained-in b1 f1) (contained-in b1 f1))")
        ctx = ReductionContext(domain=("b1", "f1"), worlds=("w0",))
        report, ext, red = compare_effort(kb, goal, ctx)
        assert ext.proved and red.proved
        assert report.extended.proof_len == 1
        assert report.reduced.proof_len == 1
        assert report.ratio == 1.0

    def test_conjunct_drop_scenario_reduction_is_strictly_harder(self, bundle):
        case = next(c for c in bundle.queries if c.name == "conjunct-drop")
        kb = bundle.kb_for(case)
        ctx = ReductionContext(
            domain=tuple(f"c{i}" for i in range(1, 7)), worlds=("w0",)
        )
        deep = ProverConfig(
            max_depth=40, max_lexical_steps=8, timeout_ms=120_000,
            max_explored=2_000_000,
        )
        report, ext, red = compare_effort(
            kb, case.goal, ctx, cfg=ProverConfig(), reduced_cfg=deep
        )
        assert report.extended.outcome == "proved"
        assert report.reduced.outcome == "proved"
        assert report.extended.proof_len == 1
        assert report.reduced.proof_len > report.extended.proof_len
        assert report.reduced.explored > report.extended.explored
        assert report.ratio > 1

    def test_do_scenario_reduction_loses_the_inference(self, bundle):
        # reified terms reduce to opaque constants, so the unpacking step is
        # simply gone on the reduced side
        case = next(c for c in bundle.queries if c.name == "do-implies-done")
        kb = bundle.kb_for(case)
        ctx = ReductionContext(domain=("t1", "r1"), worlds=("w0",))
        report, ext, red = compare_effort(kb, case.goal, ctx)
        assert ext.proved
        assert not red.proved

    def test_render_table_and_json(self, bundle):
        kb = bundle.kb_for(next(c for c in bundle.queries if c.name == "enter"))
        goal = parse_formula("(contained-in b1 f1)")
        ctx = ReductionContext(domain=("b1", "f1"), worlds=("w0",))
        report, _, _ = compare_effort(kb, goal, ctx)
        table = report.render_table()
        assert "encoding" in table and "extended" in table
        lines = report.to_json_lines().splitlines()
        assert len(lines) == 3


def test_reduced_kb_carries_context_facts(bundle):
    case = next(c for c in bundle.queries if c.name == "compatible-possible")
    kb = bundle.kb_for(case)
    ctx = ReductionContext(
        domain=("a1", "a2"), worlds=("w0", "w1"),
        accessibility=(("w0", "w1"),),
    )
    reduced, tables = reduce_kb(kb, ctx)
    rendered = [render(f) for f in reduced.facts]
    assert "(acc w0 w1)" in rendered
    assert "(not (= a1 a2))" in rendered
    assert tables.dropped_schemas  # schemas do not survive reduction


def test_reduced_axioms_share_their_nodes(bundle):
    """Each constant, each quantifier instance and each witness tuple's
    distinctness conjunction is one node object, however often the reduced
    axioms use it: conjunct-drop's reduced axioms are trees of 276,390 nodes
    built from 25,590 objects."""
    case = next(c for c in bundle.queries if c.name == "conjunct-drop")
    ctx = ReductionContext(domain=tuple(f"c{i}" for i in range(1, 7)), worlds=("w0",))
    reduced, _ = reduce_kb(bundle.kb_for(case), ctx)
    sizes = {}  # id of a node object -> number of nodes in its tree

    def size(node):
        if id(node) not in sizes:
            sizes[id(node)] = 1 + sum(size(child) for child in children(node))
        return sizes[id(node)]

    assert sum(size(a) for a in reduced.axioms) == 276_390
    assert len(sizes) <= 26_000
