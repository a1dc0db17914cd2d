"""prove against the untabled search kept in oracle_prover.py.

`elfol.prover` skips a closed call that repeats an earlier complete failure
at no larger a budget, and reads the hypotheses through `_Hyps`. On every
input here both must give the same outcome and a byte-identical
`trace.to_json()`, and the tabled search must explore no more entries.
It also skips the ground clauses whose spine key differs from a closed
goal's, which only the reduced kbs and the ground connective axioms added
to fuzz kbs here give it the chance to do.
Each bound is set high enough that the oracle never reaches the explored or
time bound, since the tabled search, exploring less, could go past where
the oracle stopped.
"""

import random
import re

import pytest

from elfol import prover
from elfol.core import And, Equiv, Implies, Or, Signature
from elfol.kb import KnowledgeBase
from elfol.lexicon import load_bundle
from elfol.prover import EXHAUSTED, FAILED, PROVED, ProverConfig, _Hyps, _Search, prove, replay
from elfol.reduction import ReductionContext, reduce_formula, reduce_kb
from elfol.syntax import parse_formula

import fuzz
import oracle_prover
from gen import AstGen
from test_effort_curve import DEEP_CFG

BUNDLE = load_bundle()


def compare(kb, goal, cfg: ProverConfig):
    """Check prove against the oracle on goal; the entries the table saved,
    or None where the oracle stopped at the explored bound."""
    want = oracle_prover.prove(kb, goal, cfg)
    if want.explored > cfg.max_explored:
        return None
    got = prove(kb, goal, cfg)
    assert got.outcome == want.outcome
    assert (got.trace and got.trace.to_json()) == (want.trace and want.trace.to_json())
    assert got.explored <= want.explored
    return want.explored - got.explored


@pytest.mark.parametrize("case", BUNDLE.queries, ids=lambda c: c.name)
def test_bundled_query(case):
    assert compare(BUNDLE.kb_for(case), case.goal, ProverConfig()) is not None


@pytest.mark.parametrize("n", range(3, 7))
def test_conjunct_drop_reduction(n):
    case = next(c for c in BUNDLE.queries if c.name == "conjunct-drop")
    ctx = ReductionContext(domain=tuple(f"c{i}" for i in range(1, n + 1)), worlds=("w0",))
    kb, tables = reduce_kb(BUNDLE.kb_for(case), ctx)
    saved = compare(kb, reduce_formula(case.goal, ctx, tables), DEEP_CFG)
    assert saved is not None
    assert saved > 0 or n == 3  # at three constants no failure repeats


def _hypothesis_goals(rng, kb, gen) -> list:
    """Goals that add hypotheses: impl-intro antecedents and or-elim cases,
    over the kb's facts, so that closed subgoals repeat under them."""
    facts = list(kb.facts)
    goals = []
    for _ in range(4):
        a, b, c = (gen.closed_formula(depth=rng.randint(0, 2)) for _ in range(3))
        f = rng.choice(facts) if facts else a
        goals.append(rng.choice([
            Implies(Or(a, f), Or(b, f)),
            Implies(a, Implies(Or(b, c), And(f, c))),
            And(Or(a, f), Implies(b, f)),
            Implies(And(a, Or(f, b)), c),
            Or(a, And(b, f)),
        ]))
    return goals


def test_fuzz_kbs():
    """tests/fuzz.py kbs, some with disjunctive facts added, under random
    depth and lexical bounds."""
    saved = runs = 0
    for seed in range(200):
        rng = random.Random(seed)
        kb = fuzz.read_off_kb(rng, fuzz.random_model(rng))
        gen = AstGen(rng, reified=False, functions=False, modifiers=False)
        facts = list(kb.facts)
        for _ in range(rng.randint(0, 3)):
            if facts:
                facts.append(Or(rng.choice(facts), gen.closed_formula(depth=1)))
        kb = KnowledgeBase(
            kb.signature, facts, kb.axioms,
            kb.schemas if rng.random() < 0.5 else [], kb.registry,
        )
        cfg = ProverConfig(
            max_depth=rng.randint(3, 12), max_lexical_steps=rng.randint(1, 7),
            timeout_ms=120_000, max_explored=50_000,
        )
        for goal in fuzz.sample_goals(rng, kb, gen) + _hypothesis_goals(rng, kb, gen):
            n = compare(kb, goal, cfg)
            runs += n is not None
            saved += bool(n)
    # the table is exercised, not only the searches it leaves alone
    assert runs > 1300 and saved > 600, (runs, saved)


def _ground_axioms(rng, kb, gen) -> list:
    """Ground implications and equivalences whose consequents are and, or,
    implies or equiv of closed formulas, most of them kb facts, so that
    closed goals under those connectives meet ground clauses of their
    head, with the same spine key and with another."""
    facts = list(kb.facts) or [gen.closed_formula(depth=1)]

    def closed():
        return rng.choice(facts) if rng.random() < 0.7 else gen.closed_formula(depth=1)

    axioms = []
    for _ in range(rng.randint(3, 8)):
        consequent = rng.choice((And, Or, Implies, Equiv))(closed(), closed())
        axioms.append(rng.choice((Implies, Equiv))(closed(), consequent))
    return axioms


def _unindexed_explored(kb, goal, cfg) -> int:
    """explored by prove with the spine filter turned off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(prover, "_SPINE", ())
        return prove(kb, goal, cfg).explored


def test_fuzz_kbs_with_ground_connective_axioms():
    """tests/fuzz.py kbs with ground axioms added whose consequents are
    connectives, and goals that are those consequents, their parts combined
    anew, and the fuzz goals: the spine filter skips ground clauses on some
    of them, and the search still gives the oracle's outcome and trace."""
    runs = indexed = 0
    for seed in range(120):
        rng = random.Random(seed)
        kb = fuzz.read_off_kb(rng, fuzz.random_model(rng))
        gen = AstGen(rng, reified=False, functions=False, modifiers=False)
        ground = _ground_axioms(rng, kb, gen)
        kb = KnowledgeBase(
            kb.signature, kb.facts, kb.axioms + ground,
            kb.schemas if rng.random() < 0.5 else [], kb.registry,
        )
        cfg = ProverConfig(
            max_depth=rng.randint(3, 8), max_lexical_steps=rng.randint(1, 4),
            timeout_ms=120_000, max_explored=50_000,
        )
        heads = [a.right for a in ground]
        goals = rng.sample(heads, min(3, len(heads))) + [
            type(h)(h.left, rng.choice(heads).right) for h in rng.sample(heads, 2)
        ] + fuzz.sample_goals(rng, kb, gen)
        for goal in goals:
            if compare(kb, goal, cfg) is None:
                continue
            runs += 1
            indexed += _unindexed_explored(kb, goal, cfg) > prove(kb, goal, cfg).explored
    assert runs > 800 and indexed > 300, (runs, indexed)


# ---------------------------------------------------------------------------
# What the table must not skip, and what a skip must still report


SIG = Signature(predicates={p: 1 for p in "abdeghqxy"}, constants={"c"})


def _kb(facts, axioms) -> KnowledgeBase:
    return KnowledgeBase(
        SIG, [parse_formula(f) for f in facts], [parse_formula(a) for a in axioms], []
    )


def _solve(search, goal, depth, lex_budget):
    return next(
        search.solve(
            parse_formula(goal), {}, depth, frozenset(), _Hyps(), lex_budget, frozenset()
        ),
        None,
    )


# (x c) <- (g c) <- (x c) loops; (x c) <- (q c) closes it
CUT_KB = _kb(
    ["(q c)"],
    [
        "(implies (g c) (x c))",
        "(implies (x c) (g c))",
        "(implies (q c) (x c))",
    ],
)


def test_a_failure_cut_by_the_ancestor_check_is_not_tabled():
    # inside (x c), (g c) fails at depth 2 with 3 lexical steps left, only
    # because its subgoal (x c) is an ancestor. Under the or, (g c) comes up
    # again at depth 2 with 3 steps left, where it proves by (x c) <- (q c).
    goal = parse_formula("(and (x c) (or (g c) (h c)))")
    result = prove(CUT_KB, goal, ProverConfig())
    assert result.outcome == PROVED
    assert result.trace.to_json() == oracle_prover.prove(CUT_KB, goal).trace.to_json()


def test_a_failure_cut_by_the_ancestor_check_leaves_no_table_entry():
    search = _Search(CUT_KB, ProverConfig())
    assert _solve(search, "(x c)", 0, 4) is not None
    assert search.failures == {}
    assert _solve(search, "(g c)", 1, 3) is not None


# (a c) <- (b c) <- (d c): two lexical steps
CHAIN_KB = _kb(["(d c)"], ["(implies (b c) (a c))", "(implies (d c) (b c))"])


def test_a_tabled_failure_that_hit_a_bound_still_reports_exhausted():
    search = _Search(CHAIN_KB, ProverConfig())
    assert _solve(search, "(a c)", 0, 1) is None
    assert search.exhausted
    # the skipped call has the effect on exhausted that the call would have
    search.exhausted = False
    explored = search.explored
    assert _solve(search, "(a c)", 1, 1) is None
    assert search.explored == explored, "the repeated failure was searched again"
    assert search.exhausted
    goal = parse_formula("(or (and (a c) (h c)) (a c))")
    cfg = ProverConfig(max_lexical_steps=1)
    assert prove(CHAIN_KB, goal, cfg).outcome == EXHAUSTED
    assert oracle_prover.prove(CHAIN_KB, goal, cfg).outcome == EXHAUSTED


def test_a_failure_at_a_smaller_budget_does_not_stop_a_larger_one():
    # under (x c) <- (a c), (a c) fails with one lexical step left; as the
    # or's second disjunct it has two, and proves
    kb = _kb(["(d c)"], [
        "(implies (a c) (x c))", "(implies (b c) (a c))", "(implies (d c) (b c))",
    ])
    goal = parse_formula("(or (x c) (a c))")
    cfg = ProverConfig(max_lexical_steps=2)
    result = prove(kb, goal, cfg)
    assert result.outcome == PROVED
    assert result.trace.to_json() == oracle_prover.prove(kb, goal, cfg).trace.to_json()


def test_or_elim_backtracks_into_a_case_for_a_proof_that_leaves_a_step():
    # with two lexical steps, the case (and (p c) (s c)) first proves (s c)
    # by (u c) <- (p c), which leaves none for (s c) <- (r c) in the case
    # (r c). Or-elim backtracks into the first case, whose and-elim takes
    # no step, so (s c) proves with one step, and so does the goal's first
    # disjunct.
    kb = KnowledgeBase(
        Signature(predicates={p: 1 for p in "pqrsuv"}, constants={"c"}),
        [parse_formula("(or (and (p c) (s c)) (r c))"), parse_formula("(q c)")],
        [parse_formula(a) for a in (
            "(implies (u c) (s c))",
            "(implies (p c) (u c))",
            "(implies (r c) (s c))",
            "(implies (q c) (v c))",
        )],
        [],
    )
    goal = parse_formula("(or (s c) (and (v c) (s c)))")
    cfg = ProverConfig(max_lexical_steps=2)
    result = prove(kb, goal, cfg)
    assert result.outcome == PROVED
    case_split = result.trace.children[0]
    assert [c.rule for c in case_split.children] == ["fact-match", "and-elim", "axiom-match"]
    assert result.trace.lexical_steps() == 1
    assert result.trace.to_json() == oracle_prover.prove(kb, goal, cfg).trace.to_json()


def test_a_failure_that_hit_no_bound_is_repeated_only_at_its_own_budgets():
    # with no bound hit yet, a call with less room could hit one where the
    # tabled call did not, so it is searched again. (h c) <- (g c) gives the
    # call an entry to visit, so that a search of it shows in explored.
    search = _Search(_kb([], ["(implies (g c) (h c))"]), ProverConfig())
    assert _solve(search, "(h c)", 0, 2) is None
    assert not search.exhausted
    explored = search.explored
    assert _solve(search, "(h c)", 0, 2) is None
    assert search.explored == explored
    assert _solve(search, "(h c)", 1, 1) is None
    assert search.explored > explored
    # (a c) <- (b c) <- (e c) fails with three steps and hits no bound; with
    # two, under (y c) <- (d c), (e c) is reached with none left
    kb = _kb(["(d c)"], [
        "(implies (b c) (a c))", "(implies (e c) (b c))", "(implies (d c) (y c))",
    ])
    goal = parse_formula("(or (a c) (and (y c) (a c)))")
    cfg = ProverConfig(max_lexical_steps=3)
    assert prove(kb, parse_formula("(a c)"), cfg).outcome == FAILED
    assert prove(kb, goal, cfg).outcome == oracle_prover.prove(kb, goal, cfg).outcome == EXHAUSTED


def test_a_skip_renumbers_only_the_fresh_variables_named_after_it():
    # the second (g c) under the inner or is skipped, and with it the
    # renaming its search would take, so the fresh variable that (R c ?w)
    # leaves unbound in the trace is ?v3 here and ?v4 in the untabled search
    kb = KnowledgeBase(
        Signature(predicates={"P": 1, "R": 2, "g": 1, "k": 1}, constants={"c"}),
        [],
        [parse_formula(a) for a in (
            "(forall ?u (forall ?w (implies (R ?u ?w) (P ?u))))",
            "(forall ?a (forall ?b (R ?a ?b)))",
            "(forall ?z (implies (k ?z) (g ?z)))",
        )],
        [],
    )
    goal = parse_formula("(or (or (g c) (g c)) (P c))")
    want, got = oracle_prover.prove(kb, goal), prove(kb, goal)
    assert got.outcome == want.outcome == PROVED
    assert replay(got.trace, kb) == []

    def numbers_dropped(trace):
        return re.sub(r"\?v\d+", "?v", trace.to_json())

    assert numbers_dropped(got.trace) == numbers_dropped(want.trace)
