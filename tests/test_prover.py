"""Backward chaining, unification, forward chaining, and trace replay."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elfol.core import (
    And,
    Const,
    Equiv,
    FunApp,
    Implies,
    Lambda,
    Or,
    RestrictedQuant,
    Signature,
    Var,
    alpha_equivalent,
    alpha_key,
    conjuncts,
    disjuncts,
    exists,
    forall,
    free_vars,
    fresh_name,
    map_children,
    subst_map,
)
from elfol.kb import KnowledgeBase
from elfol.lexicon import load_bundle
from elfol.prover import (
    EXHAUSTED,
    FAILED,
    ProverConfig,
    TraceNode,
    _compile_axiom,
    _head,
    _spine,
    forward_chain,
    prove,
    replay,
    unify,
)
from elfol.models import SearchBounds, find_counterexample
from elfol.quantifiers import DEFAULT_REGISTRY
from elfol.reduction import ReductionContext, reduce_formula, reduce_kb
from elfol.schemas import InstanceBounds, Schema, weakening_valid
from elfol.syntax import parse_formula, parse_term, render

import fuzz
from gen import AstGen


class TestUnify:
    def test_variable_binding(self):
        env = unify(parse_formula("(contained-in ?x f1)"),
                    parse_formula("(contained-in b1 f1)"))
        assert env == {"x": Const("b1")}

    def test_reified_term_binds_whole(self):
        t = parse_term("(ka (lambda (?x) (send-off ?x r1)))")
        env = unify(Var("v"), t)
        assert env == {"v": t}

    def test_occurs_check(self):
        assert unify(Var("x"), FunApp("f", (Var("x"),))) is None

    def test_reified_terms_unify_only_up_to_alpha(self):
        a = parse_term("(that (P ?x))")
        b = parse_term("(that (P c))")
        assert unify(a, b) is None
        c = parse_term("(that (P c))")
        assert unify(b, c) == {}

    def test_quantified_formulas_unify_alpha_aware(self):
        a = parse_formula("(quant most ?z (member ?z ?coll) (tanker ?z))")
        b = parse_formula("(quant most ?w (member ?w cars) (tanker ?w))")
        env = unify(a, b)
        assert env == {"coll": Const("cars")}

    def test_bound_variable_cannot_escape(self):
        a = parse_formula("(quant all ?z true (R ?v ?z))")
        b = parse_formula("(quant all ?w true (R ?w ?w))")
        assert unify(a, b) is None

    def test_mismatched_quantifiers(self):
        a = parse_formula("(quant all ?z true (P ?z))")
        b = parse_formula("(quant some ?z true (P ?z))")
        assert unify(a, b) is None

    def test_shadowing_binder_pairs_get_their_own_marks(self):
        # the inner ?x shadows the outer one, so the pair (?x, ?x) and the
        # pair (?z, ?z) below it once shared a mark and (R ?x ?z) unified
        # with (R ?z ?z)
        shape = "(forall ?x (implies (exists ?x (forall ?z {})) (P ?x)))"
        a = parse_formula(shape.format("(R ?x ?z)"))
        b = parse_formula(shape.format("(R ?z ?z)"))
        assert not alpha_equivalent(a, b)
        assert unify(a, b) is None
        assert unify(a, a) == {}

    def test_bound_variable_is_not_read_through_env(self):
        # env binds a free ?v1; the ?v1 that the quantifier binds is another
        # variable, so the formula stays an alpha-variant of the one over ?y
        a = parse_formula("(quant some ?v1 (P ?v1) (Q ?v1))")
        b = parse_formula("(quant some ?y (P ?y) (Q ?y))")
        env = {"v1": Const("c")}
        assert unify(a, b, env) == env
        pinned = parse_formula("(quant some ?y true (Q c))")
        assert unify(parse_formula("(quant some ?v1 true (Q ?v1))"), pinned, env) is None

    def test_term_read_through_env_is_not_read_under_binders(self):
        # env's (f ?x) names a free ?x, not the ?x that the quantifier binds,
        # so ?v5 is not the (f ?y) of the other side
        a = parse_formula("(quant all ?x (P ?x) (R ?x ?v5))")
        b = parse_formula("(quant all ?y (P ?y) (R ?y (f ?y)))")
        env = {"v5": parse_term("(f ?x)")}
        assert unify(a, b, env) is None
        assert unify(b, a, env) is None
        # a term read through env still unifies with a free variable
        c = parse_formula("(quant all ?y (P ?y) (R ?y (f ?x)))")
        assert unify(a, c, env) == env

    def test_reified_terms_under_binders_compare_by_binder(self):
        a = parse_formula("(quant all ?x (P ?x) (R ?x (that (P ?x))))")
        b = parse_formula("(quant all ?y (P ?y) (R ?y (that (P ?y))))")
        c = parse_formula("(quant all ?x (P ?x) (R ?x (that (P c))))")
        assert unify(a, b) == {}
        assert unify(a, c, {"x": Const("c")}) is None

    def test_rigid_variables_are_bound_on_neither_side(self):
        clause = parse_formula("(R ?v1 c)")
        body = parse_formula("(R ?x ?x)")
        assert unify(clause, body) == {"v1": Var("x"), "x": Const("c")}
        assert unify(clause, body, {}, frozenset({"x"})) is None
        assert unify(body, clause, {}, frozenset({"x"})) is None
        # a rigid variable may still be the value of another variable
        env = unify(parse_formula("(R ?v1 ?v2)"), body, {}, frozenset({"x"}))
        assert env == {"v1": Var("x"), "v2": Var("x")}


def tiny_kb(facts=(), axioms=(), schemas=()):
    sig = Signature(
        functions={"f": 1},
        predicates={"P": 1, "Q": 1, "R": 2, "S": 0},
        constants={"a", "b", "c"},
    )
    return KnowledgeBase(sig, list(facts), list(axioms), list(schemas))


class TestProve:
    def test_fact_match(self):
        kb = tiny_kb(facts=[parse_formula("(P a)")])
        r = prove(kb, parse_formula("(P a)"))
        assert r.proved and r.trace.rule == "fact-match"
        assert r.trace.lexical_steps() == 0

    def test_chaining_through_axiom(self):
        kb = tiny_kb(
            facts=[parse_formula("(P a)")],
            axioms=[parse_formula("(forall ?x (implies (P ?x) (Q ?x)))")],
        )
        r = prove(kb, parse_formula("(Q a)"))
        assert r.proved
        assert r.trace.rule == "axiom-match"
        assert r.trace.lexical_steps() == 1

    def test_conjunctive_antecedents_split(self):
        kb = tiny_kb(
            facts=[parse_formula("(P a)"), parse_formula("(Q a)")],
            axioms=[
                parse_formula(
                    "(forall ?x (implies (and (P ?x) (Q ?x)) (R ?x ?x)))"
                )
            ],
        )
        r = prove(kb, parse_formula("(R a a)"))
        assert r.proved and len(r.trace.children) == 2

    def test_antecedent_variable_solved_by_fact_search(self):
        kb = tiny_kb(
            facts=[parse_formula("(R a b)")],
            axioms=[parse_formula("(forall ?x (forall ?y (implies (R ?x ?y) (P ?x))))")],
        )
        r = prove(kb, parse_formula("(P a)"))
        assert r.proved
        assert alpha_equivalent(r.trace.children[0].formula, parse_formula("(R a b)"))

    def test_negative_goal_only_via_negated_consequent(self):
        kb = tiny_kb(
            facts=[parse_formula("(P a)")],
            axioms=[parse_formula("(forall ?x (implies (P ?x) (not (Q ?x))))")],
        )
        assert prove(kb, parse_formula("(not (Q a))")).proved
        assert not prove(kb, parse_formula("(not (P b))")).proved

    def test_equivalence_rewrite_both_directions(self):
        kb = tiny_kb(
            facts=[parse_formula("(P a)")],
            axioms=[parse_formula("(forall ?x (equiv (P ?x) (Q ?x)))")],
        )
        r = prove(kb, parse_formula("(Q a)"))
        assert r.proved and r.trace.rule == "equiv-rewrite"
        kb2 = tiny_kb(
            facts=[parse_formula("(Q a)")],
            axioms=[parse_formula("(forall ?x (equiv (P ?x) (Q ?x)))")],
        )
        assert prove(kb2, parse_formula("(P a)")).proved

    def test_rewrite_loop_terminates(self):
        kb = tiny_kb(axioms=[parse_formula("(forall ?x (equiv (P ?x) (Q ?x)))")])
        r = prove(kb, parse_formula("(P a)"))
        assert not r.proved

    def test_reflexivity(self):
        kb = tiny_kb()
        assert prove(kb, parse_formula("(= a a)")).proved
        assert not prove(kb, parse_formula("(= a b)")).proved

    def test_monotone_rule_fires_only_with_right_up(self):
        fact_up = parse_formula("(quant (at-least 2) ?x (P ?x) (and (Q ?x) (R ?x ?x)))")
        kb = tiny_kb(facts=[fact_up])
        goal = parse_formula("(quant (at-least 2) ?x (P ?x) (Q ?x))")
        r = prove(kb, goal)
        assert r.proved and r.trace.rule == "monotone-quant"
        fact_down = parse_formula(
            "(quant (fewer-than 2) ?x (P ?x) (and (Q ?x) (R ?x ?x)))"
        )
        kb2 = tiny_kb(facts=[fact_down])
        goal2 = parse_formula("(quant (fewer-than 2) ?x (P ?x) (Q ?x))")
        assert not prove(kb2, goal2).proved

    def test_monotone_rule_downward_weakening(self):
        # right-down: a smaller body follows from a provable larger one
        fact = parse_formula("(quant (fewer-than 2) ?x (P ?x) (Q ?x))")
        kb = tiny_kb(facts=[fact])
        goal = parse_formula("(quant (fewer-than 2) ?x (P ?x) (and (Q ?x) (S)))")
        r = prove(kb, goal)
        assert r.proved and r.trace.rule == "monotone-quant"

    def test_structural_rules(self):
        kb = tiny_kb(facts=[parse_formula("(P a)"), parse_formula("(and (Q a) (Q b))")])
        assert prove(kb, parse_formula("(and (P a) (Q b))")).proved  # intro+elim
        assert prove(kb, parse_formula("(or (Q c) (P a))")).proved  # or-intro
        assert prove(kb, parse_formula("(implies (Q c) (Q c))")).proved  # impl-intro

    def test_case_analysis_on_disjunctive_fact(self):
        kb = tiny_kb(
            facts=[parse_formula("(or (P a) (Q a))")],
            axioms=[
                parse_formula("(forall ?x (implies (P ?x) (S)))"),
                parse_formula("(forall ?x (implies (Q ?x) (S)))"),
            ],
        )
        r = prove(kb, parse_formula("(S)"), ProverConfig(max_depth=10))
        assert r.proved and r.trace.rule == "or-elim"

    def test_exhaustion_reported_distinctly(self):
        # an unprovable goal in a kb with a growing rewrite frontier exhausts
        kb = tiny_kb(
            axioms=[
                parse_formula(
                    "(forall ?x (implies (P (f ?x)) (P ?x)))"
                )
            ],
        )
        r = prove(kb, parse_formula("(P a)"), ProverConfig(max_depth=4))
        assert not r.proved
        assert r.outcome == EXHAUSTED
        # a definitively failing goal reports plain failure
        r2 = prove(tiny_kb(), parse_formula("(P a)"))
        assert r2.outcome == FAILED

    def test_rewrite_never_binds_the_goal_quantifiers_variable(self):
        # the equivalence rewrites (P ?y c) to (Q ?y); applying it to the
        # body (P ?x ?x) would bind the bound ?x to c. The model with domain
        # {d0, d1}, c = d1, R = {d0}, P = {(d0, d0)} and Q = {} satisfies
        # the kb and falsifies the goal.
        sig = Signature(predicates={"R": 1, "P": 2, "Q": 1}, constants={"c"})
        kb = KnowledgeBase(
            sig,
            [parse_formula("(quant (at-least 1) ?x (R ?x) (and (P ?x ?x) (R ?x)))")],
            [parse_formula("(forall ?y (equiv (P ?y c) (Q ?y)))")],
        )
        goal = parse_formula("(quant (at-least 1) ?x (R ?x) (Q c))")
        assert prove(kb, goal).outcome == FAILED

    def test_open_goal_rejected(self):
        with pytest.raises(ValueError):
            prove(tiny_kb(), parse_formula("(P ?x)"))

    def test_config_bounds_must_be_positive(self):
        with pytest.raises(ValueError):
            ProverConfig(max_depth=0)
        with pytest.raises(ValueError):
            ProverConfig(timeout_ms=-1)

    def test_timeout_reports_exhaustion(self, bundle):
        case = next(c for c in bundle.queries if c.name == "not-derivable")
        kb = bundle.kb_for(case)
        cfg = ProverConfig(max_depth=30, timeout_ms=1, max_explored=100_000_000)
        r = prove(kb, case.goal, cfg)
        assert not r.proved and r.outcome == EXHAUSTED

    def test_pretty_trace_marks_lexical_steps(self):
        kb = tiny_kb(
            facts=[parse_formula("(P a)")],
            axioms=[parse_formula("(forall ?x (implies (P ?x) (Q ?x)))")],
        )
        r = prove(kb, parse_formula("(Q a)"))
        text = r.trace.pretty()
        assert "[lex]" in text and "fact-match" in text

    def test_deterministic_traces(self):
        kb = tiny_kb(
            facts=[parse_formula("(P a)"), parse_formula("(P b)")],
            axioms=[parse_formula("(forall ?x (implies (P ?x) (Q ?x)))")],
        )
        runs = {prove(kb, parse_formula("(Q a)")).trace.to_json() for _ in range(5)}
        assert len(runs) == 1

    def test_lexical_budget_prunes(self):
        kb = tiny_kb(
            facts=[parse_formula("(P a)")],
            axioms=[
                parse_formula("(forall ?x (implies (P ?x) (Q ?x)))"),
                parse_formula("(forall ?x (implies (Q ?x) (R ?x ?x)))"),
                parse_formula("(forall ?x (implies (R ?x ?x) (S)))"),
            ],
        )
        assert prove(kb, parse_formula("(S)"), ProverConfig(max_lexical_steps=3)).proved
        r = prove(kb, parse_formula("(S)"), ProverConfig(max_lexical_steps=2))
        assert not r.proved and r.outcome == EXHAUSTED

    def test_or_elim_proves_at_every_budget_that_suffices(self):
        kb = KnowledgeBase(
            Signature(predicates={p: 1 for p in "prsu"}, constants={"c"}),
            [parse_formula("(or (and (p c) (s c)) (r c))")],
            [parse_formula(a) for a in (
                "(implies (u c) (s c))",
                "(implies (p c) (u c))",
                "(implies (r c) (s c))",
            )],
        )
        assert prove(kb, parse_formula("(s c)"), ProverConfig(max_lexical_steps=2)).proved

    @pytest.mark.parametrize("depth, lexical", [(6, 3), (8, 4)])
    def test_no_bound_past_a_proof_without_lexical_steps_is_hit(self, depth, lexical):
        # a closed subgoal's search stops at its first proof that takes no
        # lexical step, so the bounds its later rules would hit cannot make
        # the outcome exhausted; at 6/3 it read exhausted before the stop,
        # and failed from 8/4 on
        kb = KnowledgeBase(
            Signature(predicates={"p": 1, "q": 1, "s": 1, "r": 2, "t": 2},
                      constants={"a", "b", "c", "d"}),
            [parse_formula(f) for f in (
                "(p b)", "(not (p c))", "(p d)", "(q a)", "(s d)", "(r b a)",
                "(not (r d a))", "(t b a)", "(not (t b b))", "(not (t c c))",
                "(t c d)", "(t d a)", "(quant (fewer-than 2) ?x (q ?x) (s ?x))",
                "(quant (at-most 1) ?x (p ?x) (t ?x ?x))",
            )],
            [parse_formula(a) for a in (
                "(quant all ?y true (equiv (and (p ?y) (r ?y d)) (s ?y)))",
                "(quant all ?x true (implies (s c) (p ?x)))",
                "(quant all ?x true (implies (and (s ?x) (s d)) (t a ?x)))",
                "(quant all ?x true (implies (p c) (p ?x)))",
            )],
        )
        cfg = ProverConfig(max_depth=depth, max_lexical_steps=lexical)
        assert prove(kb, parse_formula("(or (s b) (t d b))"), cfg).outcome == FAILED


def test_a_failed_search_fails_alike_at_larger_bounds():
    # a failed search hit no bound, so larger ones explore the same tree;
    # on tests/fuzz.py kbs, some with disjunctive facts added
    small = ProverConfig(max_depth=4, max_lexical_steps=1)
    large = ProverConfig(max_depth=7, max_lexical_steps=3)
    failed = 0
    for seed in range(1000):
        rng = random.Random(seed)
        kb = fuzz.read_off_kb(rng, fuzz.random_model(rng))
        gen = AstGen(rng, reified=False, functions=False, modifiers=False)
        facts = list(kb.facts)
        for _ in range(rng.randint(0, 2)):
            if facts:
                facts.append(Or(rng.choice(facts), gen.closed_formula(depth=1)))
        kb = KnowledgeBase(kb.signature, facts, kb.axioms, kb.schemas, kb.registry)
        for goal in fuzz.sample_goals(rng, kb, gen):
            r = prove(kb, goal, small)
            if r.outcome == FAILED:
                failed += 1
                r2 = prove(kb, goal, large)
                assert (r2.outcome, r2.explored) == (FAILED, r.explored), (seed, render(goal))
    assert failed > 1500, failed


@st.composite
def case_split_kbs(draw):
    """A kb and goal (s c), where a disjunctive fact's first case proves the
    goal both by and-elim and through a chain of axioms from another of its
    conjuncts, and each other case needs a chain of its own; the axioms come
    in any order, some of them universal, with unrelated facts and axioms.
    Where the first case's chain is the longer, a search that keeps that
    case's first proof fails at budgets between the two chains' lengths."""
    preds = {"s": 1, "t": 1, "w": 1}
    axioms = []

    def fresh():
        preds[name := f"q{len(preds)}"] = 1
        return name

    def chain_to_s(length):
        start = prev = fresh()
        for i in range(length):
            step = "s" if i == length - 1 else fresh()
            axioms.append(
                f"(forall ?x (implies ({prev} ?x) ({step} ?x)))" if draw(st.booleans())
                else f"(implies ({prev} c) ({step} c))"
            )
            prev = step
        return start

    first = [f"({chain_to_s(draw(st.integers(1, 3)))} c)", "(s c)"]
    split = f"({chain_to_s(draw(st.integers(1, 3)))} c)"
    if draw(st.booleans()):
        split = f"(or {split} ({chain_to_s(draw(st.integers(1, 3)))} c))"
    split = f"(or (and {' '.join(draw(st.permutations(first)))}) {split})"
    facts = [split] + ["(t c)"] * draw(st.integers(0, 1))
    axioms += ["(implies (t c) (w c))"] * draw(st.integers(0, 1))
    kb = KnowledgeBase(
        Signature(predicates=preds, constants={"c"}),
        [parse_formula(f) for f in facts],
        [parse_formula(a) for a in draw(st.permutations(axioms))],
    )
    return kb, parse_formula("(s c)")


@settings(max_examples=80, deadline=None)
@given(case_split_kbs(), st.integers(4, 10))
def test_a_goal_proved_at_a_lexical_budget_is_proved_at_the_next(kb_goal, depth):
    kb, goal = kb_goal
    proved = [
        prove(kb, goal, ProverConfig(max_depth=depth, max_lexical_steps=k)).proved
        for k in range(1, 9)
    ]
    assert proved == sorted(proved), proved


class TestLexiconInferences:
    """The worked inferences from the bundled knowledge base."""

    def test_enter_containment_one_step(self, bundle):
        case = next(c for c in bundle.queries if c.name == "enter")
        r = prove(bundle.kb_for(case), case.goal)
        assert r.proved and r.trace.lexical_steps() == 1

    def test_conjunct_drop_via_monotone_rule(self, bundle):
        case = next(c for c in bundle.queries if c.name == "conjunct-drop")
        r = prove(bundle.kb_for(case), case.goal)
        assert r.proved and r.trace.rule == "monotone-quant"
        assert r.trace.lexical_steps() == 0

    def test_majority_most_within_two_lexical_steps(self, bundle):
        case = next(c for c in bundle.queries if c.name == "majority-most")
        r = prove(bundle.kb_for(case), case.goal)
        assert r.proved and r.trace.lexical_steps() <= 2

    def test_rewritten_quantifier_body_reachable_without_weakening(self, bundle):
        # the spelled-out membership body is reachable by rewriting alone
        case = next(c for c in bundle.queries if c.name == "majority-most")
        goal = parse_formula(
            "(quant most ?z (member ?z cars) (and (tanker ?z) (in-elmira ?z)))"
        )
        r = prove(bundle.kb_for(case), goal)
        assert r.proved and r.trace.rule == "equiv-rewrite"
        assert replay(r.trace, bundle.kb_for(case)) == []

    def test_every_monotone_step_uses_a_right_up_or_down_quantifier(self, bundle):
        for case in bundle.queries:
            if case.expect != "provable":
                continue
            r = prove(bundle.kb_for(case), case.goal)

            def check(node):
                if node.rule == "monotone-quant":
                    q = bundle.registry.resolve(node.formula.quant)
                    assert q.right in ("up", "down")
                for c in node.children:
                    check(c)

            check(r.trace)


class TestForwardChain:
    def test_modal_consequent_derived(self, bundle):
        case = next(c for c in bundle.queries if c.name == "compatible-possible")
        kb = bundle.kb_for(case)
        result = forward_chain(kb)
        expected = parse_formula(
            "(poss (exists ?u (exists ?v (and (realize ?u a1) (realize ?v a2)))))"
        )
        assert any(alpha_equivalent(f, expected) for f in result.derived)

    def test_modifier_equivalence_both_directions(self, bundle):
        case = next(c for c in bundle.queries if c.name == "sounds-reasonable")
        kb = bundle.kb_for(case)
        result = forward_chain(kb)
        modified = parse_formula("((mod sounds reasonable) p1)")
        assert any(alpha_equivalent(f, modified) for f in result.derived)
        # and conversely, from the modified atom back to the analysis
        kb2 = kb.with_facts([modified])
        back = forward_chain(kb2)
        analysis = next(f for f in bundle.scenarios["scenario-sounds"])
        assert any(alpha_equivalent(f, analysis) for f in back.derived)

    def test_empty_kb_derives_nothing(self):
        assert forward_chain(tiny_kb()).derived == []

    def test_monotone_forward_drops_conjuncts(self):
        fact = parse_formula("(quant (at-least 2) ?x (P ?x) (and (Q ?x) (S)))")
        kb = tiny_kb(facts=[fact])
        result = forward_chain(kb)
        assert any(
            alpha_equivalent(f, parse_formula("(quant (at-least 2) ?x (P ?x) (Q ?x))"))
            for f in result.derived
        )

    def test_no_duplicates_modulo_alpha(self):
        kb = tiny_kb(
            facts=[parse_formula("(P a)")],
            axioms=[parse_formula("(forall ?x (equiv (P ?x) (Q ?x)))")],
        )
        result = forward_chain(kb)
        from elfol.core import alpha_key

        keys = [alpha_key(f) for f in result.derived]
        assert len(keys) == len(set(keys))

    def test_deterministic(self, bundle):
        case = next(c for c in bundle.queries if c.name == "compatible-possible")
        kb = bundle.kb_for(case)
        a = [render(f) for f in forward_chain(kb).derived]
        b = [render(f) for f in forward_chain(kb).derived]
        assert a == b

    def test_schema_over_the_ceiling_is_skipped_and_reported(self, bundle):
        facts = [f for name in sorted(bundle.scenarios) for f in bundle.scenarios[name]]
        kb = bundle.full_kb().with_facts(facts[:8])
        result = forward_chain(kb)
        assert len(result.derived) == 5
        assert (result.exhausted, result.skipped_schemas) == (False, [])
        # 12 and 17 instances are over a ceiling of 10; the subsumed
        # monotone-conj-drop is not enumerated, so it is not skipped
        result = forward_chain(kb, instance_bounds=InstanceBounds(ceiling=10))
        assert result.skipped_schemas == [
            "correct-iff-content", "sounds-as-considered", "do-reified-action"
        ]
        assert (len(result.derived), result.exhausted) == (3, True)


CONJ_DROP = (
    "(implies (quant Q ?x (P1 ?x) (and (P2 ?x) (P3 ?x)))"
    " (quant Q ?x (P1 ?x) (P2 ?x)))"
)
PREDS = (("P1", 1), ("P2", 1), ("P3", 1))


class TestForwardSubsumed:
    def subsumed(self, body, quants=(("Q", "right-up"),)):
        schema = Schema("s", PREDS, (), tuple(quants), parse_formula(body))
        return weakening_valid(schema, DEFAULT_REGISTRY)

    def test_right_up_conjunct_drop(self):
        assert self.subsumed(CONJ_DROP)

    @pytest.mark.parametrize("constraint", ["right-down", "any"])
    def test_other_constraints(self, constraint):
        assert not self.subsumed(CONJ_DROP, (("Q", constraint),))

    @pytest.mark.parametrize("body", [
        # another restrictor
        "(implies (quant Q ?x (P1 ?x) (and (P2 ?x) (P3 ?x))) (quant Q ?x (P3 ?x) (P2 ?x)))",
        # another bound variable
        "(implies (quant Q ?x (P1 ?x) (and (P2 ?x) (P3 ?x))) (quant Q ?y (P1 ?y) (P2 ?y)))",
        # the conclusion's body is a conjunction
        "(implies (quant Q ?x (P1 ?x) (and (P2 ?x) (and (P3 ?x) (P1 ?x))))"
        " (quant Q ?x (P1 ?x) (and (P2 ?x) (P3 ?x))))",
        # the conclusion's body is no conjunct of the premise's
        "(implies (quant Q ?x (P1 ?x) (and (P2 ?x) (P3 ?x))) (quant Q ?x (P1 ?x) (P1 ?x)))",
        # one conjunct only
        "(implies (quant Q ?x (P1 ?x) (P2 ?x)) (quant Q ?x (P1 ?x) (P2 ?x)))",
        # an outer universal
        "(forall ?y (implies (quant Q ?x (P1 ?x) (and (P2 ?x) (P3 ?y)))"
        " (quant Q ?x (P1 ?x) (P2 ?x))))",
    ])
    def test_other_shapes(self, body):
        assert not self.subsumed(body)

    def test_concrete_quantifiers(self):
        some = CONJ_DROP.replace("quant Q", "quant some")
        no = CONJ_DROP.replace("quant Q", "quant no")
        assert self.subsumed(some, ())
        assert not self.subsumed(no, ())

    def test_bundled_schemas(self, bundle):
        assert [weakening_valid(s, bundle.registry) for s in bundle.schemas] == [
            True, False, False, False
        ]


class TestReplay:
    def test_tampered_trace_detected(self, bundle):
        case = next(c for c in bundle.queries if c.name == "enter")
        kb = bundle.kb_for(case)
        r = prove(kb, case.goal)
        assert replay(r.trace, kb) == []
        tampered = TraceNode(
            r.trace.rule, parse_formula("(contained-in f1 b1)"), r.trace.children,
            r.trace.detail,
        )
        assert replay(tampered, kb)

    def test_fact_swap_detected(self, bundle):
        case = next(c for c in bundle.queries if c.name == "enter")
        kb = bundle.kb_for(case)
        r = prove(kb, case.goal)
        empty = kb.with_facts([])
        assert replay(r.trace, empty)


# A trace that replay accepts though it is unsound: its equiv-rewrite
# descends into the quantifier, so that ?x is free when (r c ?y) is unified
# with (r ?x ?x), and the unifier binds ?x to c.
CAPTURE_KB = KnowledgeBase(
    Signature(predicates={"p": 1, "r": 2, "s": 1}, constants={"c"}),
    [parse_formula("(quant (at-least 1) ?x (p ?x) (and (p ?x) (r ?x ?x)))")],
    [parse_formula("(quant all ?y true (equiv (r c ?y) (s ?y)))")],
    [],
)
CAPTURE_TRACE = TraceNode(
    "monotone-quant",
    parse_formula("(quant (at-least 1) ?x (p ?x) (s c))"),
    (TraceNode(
        "equiv-rewrite",
        parse_formula("(quant (at-least 1) ?x (p ?x) (and (p ?x) (s c)))"),
        (TraceNode("fact-match", CAPTURE_KB.facts[0]),),
        "axiom-1",
    ),),
    "at-least 1",
)


def test_the_capture_trace_is_unsound():
    premises = And(CAPTURE_KB.axioms[0], CAPTURE_KB.facts[0])
    claim = Implies(premises, CAPTURE_TRACE.formula)
    assert find_counterexample(claim, SearchBounds(max_domain=2)) is not None


@pytest.mark.xfail(strict=True, reason=(
    "replay checks an equiv-rewrite with the search's own unify, and"
    " _replay_equiv's diff renames a quantifier's variable and descends, so"
    " the variable is free where (r c ?y) is unified with (r ?x ?x)"
))
def test_replay_rejects_a_rewrite_that_binds_a_quantified_variable():
    assert replay(CAPTURE_TRACE, CAPTURE_KB)


def test_structural_rules_prove_only_validities(rng):
    """Implication/conjunction/disjunction introductions from an empty kb can
    only ever establish valid formulas; spot-check against the evaluator."""
    from gen import AstGen
    from elfol.core import And, Implies, Or
    from elfol.models import eval_formula
    from test_models import random_models

    kb = tiny_kb()
    g = AstGen(rng, reified=False, functions=False, modifiers=False)
    models = random_models(rng, 12)
    cfg = ProverConfig(max_depth=8, timeout_ms=3000, max_explored=4000)
    for _ in range(40):
        f = g.closed_formula(depth=1)
        h = g.closed_formula(depth=1)
        family = [
            Implies(f, f),
            Implies(And(f, h), f),
            Implies(And(f, h), And(h, f)),
            Implies(f, Or(h, f)),
            Implies(And(f, h), Or(f, h)),
        ]
        for goal in family:
            r = prove(kb, goal, cfg)
            assert r.proved, render(goal)
            assert replay(r.trace, kb) == []
            for m in models:
                for w in m.worlds:
                    assert eval_formula(m, w, {}, goal) is True


def test_soundness_fuzz_small(rng):
    violations = []
    proved = 0
    for _ in range(100):
        v, p, problems, _n = fuzz.soundness_trial(rng)
        violations.extend(v)
        proved += p
        assert problems == []
    assert violations == []
    assert proved > 50  # the sampler must actually exercise the prover


# ---------------------------------------------------------------------------
# Clause-head prefilter: the search skips a clause whose head differs from
# the goal's, which is sound only if such pairs never unify.


def _reduced_pool():
    bundle = load_bundle()
    case = next(c for c in bundle.queries if c.name == "conjunct-drop")
    ctx = ReductionContext(domain=("c1", "c2", "c3"), worlds=("w0",))
    kb, tables = reduce_kb(bundle.kb_for(case), ctx)
    clauses = [c for a in kb.axioms for c in _compile_axiom(a, "") if not c.rewrite]
    goals = list(kb.facts)
    for c in clauses:
        goals += [c.consequent, *c.antecedents]
    goal = reduce_formula(case.goal, ctx, tables)
    goals += [d for c in conjuncts(goal) for d in disjuncts(c)]
    return clauses, goals


REDUCED_CLAUSES, REDUCED_GOALS = _reduced_pool()


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    reduced=st.booleans(),
    goal_kind=st.sampled_from(("instance", "generated", "reduced")),
)
def test_formulas_with_another_head_never_unify(seed, reduced, goal_kind):
    rng = random.Random(seed)
    g = AstGen(rng)
    if reduced:
        clause = rng.choice(REDUCED_CLAUSES).consequent
    else:
        clause = g.formula(frozenset({"x", "y"}), rng.randint(0, 2))
    if goal_kind == "instance":  # unifies with clause unless the heads differ
        goal = subst_map(clause, {"x": g.term(frozenset(), 1), "y": g.term(frozenset(), 1)})
    elif goal_kind == "generated":
        goal = g.formula(frozenset({"x", "y"}), rng.randint(0, 2))
    else:
        goal = rng.choice(REDUCED_GOALS)
    if _head(clause) != _head(goal):
        assert unify(clause, goal) is None


def test_head_prefilter_keeps_every_unifier_in_the_reduced_kb():
    skipped = kept = unified = 0
    for clause in REDUCED_CLAUSES:
        assert clause.head == _head(clause.consequent)
        for goal in REDUCED_GOALS:
            env = unify(clause.consequent, goal)
            if clause.head != _head(goal):
                assert env is None
                skipped += 1
            else:
                kept += 1
                unified += env is not None
    # both branches are taken, and most pairs are skipped
    assert unified > 0 and skipped > kept


# ---------------------------------------------------------------------------
# Indexed retrieval: a closed goal looks facts up by alpha_key, which is
# exact only if closed formulas unify exactly when alpha-equivalent; and the
# explored bound must stop a search one entry past it.


ENV_NAMES = ("v", "v1", "v2", "v3", "z", "z1", "x")


def _new_binder(old: str, body_free: set, taken: set, rng) -> str:
    """A name for a binder of old that captures nothing in its scope."""
    names = ("v1", "v2", "v3", old, fresh_name("v", body_free | taken))
    return rng.choice(
        [n for n in names if n not in taken and (n == old or n not in body_free)]
    )


def _variant(f, rng, pin=0.0):
    """f with its binders renamed, many to v<N> names; with probability pin
    a quantifier's variable is replaced by a constant in its whole scope,
    which keeps f closed but (when the variable occurs) not alpha-equivalent."""
    if type(f) is RestrictedQuant:
        scope = free_vars(f.restrictor) | free_vars(f.body)
        if rng.random() < pin:
            name, value = f.var, Const(rng.choice(sorted(fuzz.CONSTS)))
        else:
            name = _new_binder(f.var, scope, set(), rng)
            value = Var(name)
        m = {f.var: value}
        return RestrictedQuant(
            f.quant, name,
            _variant(subst_map(f.restrictor, m), rng, pin),
            _variant(subst_map(f.body, m), rng, pin),
        )
    if type(f) is Lambda:
        scope, names = free_vars(f.body), []
        for p in f.params:
            names.append(_new_binder(p, scope, set(names), rng))
        m = {p: Var(n) for p, n in zip(f.params, names)}
        return Lambda(tuple(names), _variant(subst_map(f.body, m), rng, pin))
    return map_children(f, lambda c: _variant(c, rng, pin))


def _swap_constants(f, rng):
    if type(f) is Const:
        return Const(rng.choice(sorted(fuzz.CONSTS)))
    return map_children(f, lambda c: _swap_constants(c, rng))


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(("variant", "pinned", "constants", "other")),
)
def test_closed_formulas_unify_exactly_when_alpha_equivalent(seed, kind):
    rng = random.Random(seed)
    g = AstGen(rng)
    a = g.closed_formula(depth=rng.randint(0, 3))
    if kind == "other":
        b = g.closed_formula(depth=rng.randint(0, 3))
    elif kind == "constants":
        b = _swap_constants(_variant(a, rng), rng)
    else:
        b = _variant(a, rng, pin=0.3 if kind == "pinned" else 0.0)
    assert not free_vars(b)
    if kind == "variant":
        assert alpha_key(a) == alpha_key(b)
    env = {
        n: Const(rng.choice(sorted(fuzz.CONSTS)))
        for n in rng.sample(ENV_NAMES, rng.randint(0, 3))
    }
    assert (unify(a, b, env) is not None) == (alpha_key(a) == alpha_key(b))


# and-elim compares a closed goal with a closed conjunct by alpha_key and
# calls unify only otherwise, so the two must agree on every closed pair,
# binders that shadow binders and reified subterms included.


def _shadowed(f, rng):
    """f with every binder renamed to x, y or w, so that inner binders often
    shadow outer ones; an occurrence of an outer name inside then refers to
    the inner binder. The result is closed if f is, but need not be
    alpha-equivalent to f."""
    if type(f) is RestrictedQuant:
        m = {f.var: Var(rng.choice("xy"))}
        return RestrictedQuant(
            f.quant, m[f.var].name,
            _shadowed(subst_map(f.restrictor, m), rng),
            _shadowed(subst_map(f.body, m), rng),
        )
    if type(f) is Lambda:
        names = rng.sample("xyw", len(f.params))
        m = {p: Var(n) for p, n in zip(f.params, names)}
        return Lambda(tuple(names), _shadowed(subst_map(f.body, m), rng))
    return map_children(f, lambda c: _shadowed(c, rng))


def _shadowing_formula(g, rng):
    """A closed formula under two binders, with most inner binders (lambda
    parameters included) renamed to shadow one of them."""
    body = g.formula(frozenset("xy"), depth=rng.randint(1, 3))
    return _shadowed(forall("x", exists("y", body)), rng)


def _assert_unify_iff_alpha_key(a, b, env) -> bool:
    assert not free_vars(a) and not free_vars(b)
    same = alpha_key(a) == alpha_key(b)
    assert (unify(a, b, env) is not None) == same
    return same


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(("variant", "pinned", "reshadowed", "other")),
)
def test_shadowing_closed_formulas_unify_exactly_when_alpha_equivalent(seed, kind):
    rng = random.Random(seed)
    g = AstGen(rng)
    a = _shadowing_formula(g, rng)
    if kind == "other":
        b = _shadowing_formula(g, rng)
    elif kind == "reshadowed":
        b = _shadowed(a, rng)
    else:
        b = _variant(a, rng, pin=0.3 if kind == "pinned" else 0.0)
    if kind == "variant":
        assert alpha_key(a) == alpha_key(b)
    env = {
        n: Const(rng.choice(sorted(fuzz.CONSTS)))
        for n in rng.sample(ENV_NAMES, rng.randint(0, 3))
    }
    _assert_unify_iff_alpha_key(a, b, env)


def test_fuzz_and_bundle_conjuncts_unify_exactly_when_alpha_equivalent():
    rng = random.Random(24)
    facts = []
    for _ in range(12):
        kb = fuzz.read_off_kb(rng, fuzz.random_model(rng))
        gen = AstGen(rng, reified=False, functions=False, modifiers=False)
        facts += kb.facts + fuzz.sample_goals(rng, kb, gen)
    bundle = load_bundle()
    facts += bundle.full_kb().facts
    for name, ctx in (
        ("conjunct-drop", ReductionContext(("d1", "d2", "d3"), ("w0",))),
        ("compatible-possible", ReductionContext(("a1", "a2"), ("w0", "w1"), (("w0", "w1"),))),
    ):
        case = next(c for c in bundle.queries if c.name == name)
        reduced, _ = reduce_kb(bundle.kb_for(case), ctx)
        facts += reduced.facts + reduced.axioms
    parts = list(dict.fromkeys(c for f in facts for c in conjuncts(f)))
    pool = parts + [
        variant(c) for c in parts for variant in (
            lambda c: _variant(c, rng),
            lambda c: _variant(c, rng, pin=0.3),
            lambda c: _shadowed(c, rng),
        )
    ]
    matches = sum(_assert_unify_iff_alpha_key(a, b, {}) for a in pool for b in pool)
    # pairs of distinct objects both unify and fail to
    assert len(parts) > 100 and len(pool) < matches < len(pool) ** 2


# A closed goal under and, or, implies or equiv skips each ground clause
# whose consequent has another `_spine` key, which is exact only if closed
# formulas with different keys never unify.


def _regrow_right(f, g, rng):
    """f with the right side of one node on its left spine drawn anew, so
    that the spine key stays the same."""
    if not isinstance(f, (And, Or, Implies, Equiv)):
        return f
    if rng.random() < 0.5:
        return type(f)(f.left, g.closed_formula(depth=rng.randint(0, 2)))
    return type(f)(_regrow_right(f.left, g, rng), f.right)


def _spined(g, rng):
    """A closed formula, often under one or two more spine connectives."""
    f = g.closed_formula(depth=rng.randint(0, 3))
    for _ in range(rng.choice((0, 0, 1, 2))):
        ctor = rng.choice((And, Or, Implies, Equiv))
        f = ctor(f, g.closed_formula(depth=rng.randint(0, 1)))
    return f


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(("variant", "pinned", "regrown", "other")),
)
def test_closed_formulas_with_different_spine_keys_never_unify(seed, kind):
    rng = random.Random(seed)
    g = AstGen(rng)
    a = _spined(g, rng)
    if kind == "other":
        b = _spined(g, rng)
    elif kind == "regrown":
        b = _regrow_right(_variant(a, rng), g, rng)
        assert _spine(a) == _spine(b)
    else:
        b = _variant(a, rng, pin=0.3 if kind == "pinned" else 0.0)
    assert not free_vars(a) and not free_vars(b)
    if alpha_equivalent(a, b):
        assert _spine(a) == _spine(b)
    if _spine(a) != _spine(b):
        assert unify(a, b, {}) is None


def _sweep_cases():
    """(kb, goal, cfg) for every bundled query and the goals of a few fuzz
    kbs."""
    bundle = load_bundle()
    cases = [
        pytest.param(bundle.kb_for(c), c.goal, ProverConfig(), id=c.name)
        for c in bundle.queries
    ]
    rng = random.Random(19)
    for i in range(8):
        kb = fuzz.read_off_kb(rng, fuzz.random_model(rng))
        gen = AstGen(rng, reified=False, functions=False, modifiers=False)
        for j, goal in enumerate(fuzz.sample_goals(rng, kb, gen)):
            cases.append(pytest.param(kb, goal, fuzz.FUZZ_CFG, id=f"fuzz-{i}.{j}"))
    return cases


def _outcome(r):
    return r.outcome, r.explored, r.trace.to_json() if r.trace is not None else None


@pytest.mark.parametrize("kb, goal, cfg", _sweep_cases())
def test_explored_bound_stops_the_search_one_past_it(kb, goal, cfg):
    unbounded = prove(kb, goal, replace(cfg, max_explored=100_000))
    e = unbounded.explored
    assert e <= 100_000
    rng = random.Random(e)
    below = list(range(1, min(e, 301))) + rng.sample(range(301, e), min(20, max(0, e - 301)))
    for k in below:
        r = prove(kb, goal, replace(cfg, max_explored=k))
        assert (r.outcome, r.explored) == (EXHAUSTED, k + 1), k
    for k in (e, e + 1, 2 * e):
        if k == 0:
            continue  # a search that visits nothing; the bound must be positive
        assert _outcome(prove(kb, goal, replace(cfg, max_explored=k))) == _outcome(unbounded)


# ---------------------------------------------------------------------------
# Schema errors: the search and replay skip an instance that instantiate
# rejects with a SchemaError, and let anything else through.


def _schema_proof(bundle):
    case = next(c for c in bundle.queries if c.name == "correct-elim")
    kb = bundle.kb_for(case)
    r = prove(kb, case.goal)
    assert r.proved and "schema-apply" in r.trace.to_json()
    return kb, case.goal, r.trace


@pytest.mark.parametrize("where", ["match_conclusion", "instantiate"])
def test_unexpected_schema_errors_propagate(bundle, monkeypatch, where):
    import elfol.prover as prover_mod

    kb, goal, trace = _schema_proof(bundle)

    def broken(*args):
        raise TypeError("broken")

    monkeypatch.setattr(prover_mod, where, broken)
    with pytest.raises(TypeError):
        prove(kb, goal)
    with pytest.raises(TypeError):
        replay(trace, kb)


def test_schema_errors_skip_the_instance(bundle, monkeypatch):
    import elfol.prover as prover_mod
    from elfol.schemas import SchemaError

    kb, goal, trace = _schema_proof(bundle)

    def rejecting(*args):
        raise SchemaError("rejected")

    monkeypatch.setattr(prover_mod, "instantiate", rejecting)
    r = prove(kb, goal)
    assert r.trace is None or "schema-apply" not in r.trace.to_json()
    assert replay(trace, kb)  # the schema step no longer re-derives
