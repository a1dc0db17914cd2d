"""Pins for the clause shapes that the bundled queries never apply.

A bare axiom, a bare schema, an equivalence rewrite at the top of a goal
and a schema equivalence over universals each take their own step in
backward search and in replay. Each small KB below reaches one of them;
the pins hold its outcome, explored count, the fresh v<N> names the search
handed out and the sha256 of its trace, and replay must accept the trace.
"""

import hashlib

import pytest

from elfol.core import Signature
from elfol.kb import KnowledgeBase
from elfol.prover import ProverConfig, _Budget, _Hyps, _Search, prove, replay
from elfol.schemas import Schema
from elfol.syntax import parse_formula

SIG = Signature(
    functions={"f": 1},
    predicates={"P": 1, "Q": 1, "R": 2, "S": 0},
    constants={"a", "b", "c"},
)

# (schema name, its predicate metavariables, its body)
SCHEMAS = {
    "excluded-middle": ((("P1", 1),), "(forall ?x (or (P1 ?x) (not (P1 ?x))))"),
    "swap": ((("P1", 2),), "(forall ?x (forall ?y (equiv (P1 ?x ?y) (P1 ?y ?x))))"),
}

# name -> (facts, axioms, schemas, goal)
CASES = {
    # a bare axiom proves the antecedent of an implication
    "bare-axiom": (
        [],
        ["(forall ?x (R ?x ?x))", "(forall ?x (implies (R ?x a) (P ?x)))"],
        [],
        "(P a)",
    ),
    # a bare schema proves the antecedent of an implication
    "bare-schema": (
        [],
        ["(forall ?x (implies (or (R ?x a) (not (R ?x a))) (Q ?x)))"],
        ["excluded-middle"],
        "(Q b)",
    ),
    # a conjunct of the goal is rewritten by each side of an equivalence;
    # axiom-1's rewrite of (P a) leaves an open subgoal and is skipped
    "top-level-rewrite": (
        ["(R a c)", "(P b)"],
        [
            "(forall ?x (forall ?y (equiv (P ?x) (R ?x ?y))))",
            "(forall ?x (equiv (P ?x) (R ?x c)))",
        ],
        [],
        "(and (P a) (R b c))",
    ),
    # a schema equivalence over two universals: its metavariable matches
    # the whole goal by abstraction, and the search tries both directions
    # of many instances before or-intro closes the proof
    "schema-equivalence": (
        ["(R a b)"],
        [],
        ["swap"],
        "(or (R a c) (R b a))",
    ),
}

# name -> (outcome, explored, fresh_counter, sha256 of trace.to_json())
PINS = {
    "bare-axiom": (
        "proved", 2, 2, "ee7b9bb93fbb5e87f4e08949e50d941e70940b27c1c033558c4d483ca18c7676"
    ),
    "bare-schema": (
        "proved", 3, 2, "bee76ed22c95e9b48dba599a2b507e37f2497fceaa55f4441f3193e07727ce3e"
    ),
    "top-level-rewrite": (
        "proved", 6, 5, "77e5a9f33ed34fa33bad42a6e9b0af12f5bbca1318554bb59d81af8be24e3b70"
    ),
    "schema-equivalence": (
        "proved", 24, 32, "5833e6ab6980b9930f478887d24cc98cbf3a52ef9bd85e9ef68db8a5a319b36d"
    ),
}


def _kb(name: str) -> KnowledgeBase:
    facts, axioms, schemas, _goal = CASES[name]
    return KnowledgeBase(
        SIG,
        [parse_formula(f) for f in facts],
        [parse_formula(a) for a in axioms],
        [Schema(s, SCHEMAS[s][0], (), (), parse_formula(SCHEMAS[s][1])) for s in schemas],
    )


def _fresh_counter(kb: KnowledgeBase, goal, cfg: ProverConfig) -> int:
    search = _Search(kb, cfg)
    proofs = search.solve(goal, {}, 0, frozenset(), _Hyps(), cfg.max_lexical_steps, frozenset())
    try:
        next(proofs, None)
    except _Budget:
        pass
    return search.fresh_counter


@pytest.mark.parametrize("name", list(CASES))
def test_clause_path_pins(name):
    kb, goal, cfg = _kb(name), parse_formula(CASES[name][3]), ProverConfig()
    result = prove(kb, goal, cfg)
    digest = hashlib.sha256(result.trace.to_json().encode("utf-8")).hexdigest()
    got = (result.outcome, result.explored, _fresh_counter(kb, goal, cfg), digest)
    assert got == PINS[name]
    assert replay(result.trace, kb) == []
