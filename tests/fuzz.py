"""Soundness fuzzing harness: sample a model, read off a true knowledge
base, sample a goal; any proof of a goal false in the model is a soundness
violation. `cited_premises` gives the stronger check: a proved goal must
follow, in every small model, from the premises its trace cites."""

from __future__ import annotations

import random
from itertools import product

from elfol.core import (
    And,
    Atom,
    Const,
    Equiv,
    Implies,
    Not,
    PredConst,
    RestrictedQuant,
    Signature,
    Var,
    alpha_key,
    forall,
    free_vars,
)
from elfol.kb import KnowledgeBase
from elfol.models import IntensionalModel, eval_formula
from elfol.prover import ProverConfig, prove, replay
from elfol.quantifiers import DEFAULT_REGISTRY
from elfol.schemas import Schema
from elfol.syntax import parse_formula

from gen import QUANTS, AstGen

PREDS = (("P", 1), ("Q", 1), ("R", 2))
CONSTS = ("a", "b", "c")

FUZZ_SIG = Signature(
    predicates=dict(PREDS),
    constants=set(CONSTS),
)

CONJ_DROP = Schema(
    "monotone-conj-drop",
    (("P1", 1), ("P2", 1), ("P3", 1)),
    (),
    (("Q", "right-up"),),
    parse_formula(
        "(implies (quant Q ?x (P1 ?x) (and (P2 ?x) (P3 ?x)))"
        " (quant Q ?x (P1 ?x) (P2 ?x)))"
    ),
)

FUZZ_CFG = ProverConfig(
    max_depth=6, max_lexical_steps=4, timeout_ms=2000, max_explored=1500
)


def random_model(rng: random.Random) -> IntensionalModel:
    worlds = tuple(f"w{i}" for i in range(rng.randint(1, 2)))
    domain = tuple(f"d{i}" for i in range(rng.randint(1, 3)))
    predicates = {}
    for name, arity in PREDS:
        for w in worlds:
            tuples = [
                t for t in product(domain, repeat=arity) if rng.random() < 0.5
            ]
            predicates[(name, w)] = frozenset(tuples)
    acc = frozenset((a, b) for a in worlds for b in worlds if rng.random() < 0.4)
    constants = {c: domain[rng.randrange(len(domain))] for c in CONSTS}
    return IntensionalModel(
        worlds=worlds,
        accessibility=acc,
        domain=domain,
        constants=constants,
        predicates=predicates,
    )


def holds_everywhere(m, f) -> bool:
    return all(eval_formula(m, w, {}, f) for w in m.worlds)


def read_off_kb(rng: random.Random, m: IntensionalModel) -> KnowledgeBase:
    gen = AstGen(rng, reified=False, functions=False, modifiers=False)
    facts = []
    for name, arity in PREDS:
        for combo in product(CONSTS, repeat=arity):
            atom = Atom(PredConst(name), tuple(Const(c) for c in combo))
            true = eval_formula(m, m.w0, {}, atom)
            roll = rng.random()
            if true and roll < 0.6:
                facts.append(atom)
            elif not true and roll < 0.15:
                facts.append(Not(atom))
    for _ in range(4):
        f = gen.closed_formula(depth=1)
        if isinstance(f, RestrictedQuant) and eval_formula(m, m.w0, {}, f):
            facts.append(f)
    axioms = []
    attempts = 0
    while len(axioms) < 3 and attempts < 30:
        attempts += 1
        left = gen.formula(frozenset({"x"}), depth=rng.randint(0, 1))
        right = gen.formula(frozenset({"x"}), depth=rng.randint(0, 1))
        shape = rng.random()
        if shape < 0.55:
            candidate = forall("x", Implies(left, right))
        elif shape < 0.8:
            candidate = forall("x", Equiv(left, right))
        else:
            candidate = forall("x", right)
        if free_vars(candidate):
            continue
        if holds_everywhere(m, candidate):
            axioms.append(candidate)
    return KnowledgeBase(FUZZ_SIG, facts, axioms, [CONJ_DROP], DEFAULT_REGISTRY)


def _atom(rng: random.Random, terms: list) -> Atom:
    name, arity = rng.choice(PREDS)
    return Atom(PredConst(name), tuple(rng.choice(terms) for _ in range(arity)))


def _capture_shape(rng: random.Random, m, facts: list, axioms: list) -> None:
    """Add the true ones of a few equivalences between a binary atom with a
    constant and another atom, such as (forall ?y (equiv (R c ?y) (Q ?y))),
    or between an atom and a quantifier over ?x whose body mentions ?y, such
    as (forall ?y (equiv (Q ?y) (quant some ?x (P ?x) (R ?x ?y)))), and of a
    few quantified facts whose body repeats the bound variable, such as
    (quant some ?x (P ?x) (and (Q ?x) (R ?x ?x))). Rewriting such a body by
    the first kind is sound only if ?x is not bound to c, and by the second
    only if ?y is not bound to a variable that the new quantifier binds."""
    x, y = Var("x"), Var("y")
    consts = [Const(c) for c in CONSTS]
    for _ in range(3):
        c = rng.choice(consts)
        if rng.random() < 0.5:
            left = Atom(PredConst("R"), (c, y) if rng.random() < 0.5 else (y, c))
            right = _atom(rng, [y, y] + consts)
        else:
            left = _atom(rng, [y, c])
            body = Atom(PredConst("R"), (x, y) if rng.random() < 0.5 else (y, x))
            right = RestrictedQuant(rng.choice(QUANTS), "x", _atom(rng, [x]), body)
        candidate = forall("y", Equiv(left, right))
        if holds_everywhere(m, candidate):
            axioms.append(candidate)
    for _ in range(2):
        body = And(_atom(rng, [x]), Atom(PredConst("R"), (x, x)))
        fact = RestrictedQuant(rng.choice(QUANTS), "x", _atom(rng, [x]), body)
        if eval_formula(m, m.w0, {}, fact):
            facts.append(fact)


def sample_goals(rng: random.Random, kb: KnowledgeBase, gen: AstGen) -> list:
    """A mix of arbitrary formulas (may be false: these are the soundness
    probes) and formulas built over kb facts (usually provable: these keep
    the prover exercised)."""
    goals = [gen.closed_formula(depth=2), gen.closed_formula(depth=1)]
    if kb.facts:
        f1 = kb.facts[rng.randrange(len(kb.facts))]
        f2 = kb.facts[rng.randrange(len(kb.facts))]
        from elfol.core import Or

        goals.append(
            rng.choice(
                [
                    f1,
                    And(f1, f2),
                    Or(gen.closed_formula(depth=1), f1),
                    Implies(gen.closed_formula(depth=1), f2),
                ]
            )
        )
    return goals


def sample_trial(rng: random.Random) -> tuple:
    """(model, kb, goals): a kb read off the model with the capture shape
    added (`_capture_shape`), `sample_goals`' goals, and one goal that
    keeps a quantified fact's quantifier and restrictor over a new atom as
    its body, which only the monotone rule proves, after rewriting the
    fact's body."""
    m = random_model(rng)
    kb = read_off_kb(rng, m)
    _capture_shape(rng, m, kb.facts, kb.axioms)
    gen = AstGen(rng, reified=False, functions=False, modifiers=False)
    goals = sample_goals(rng, kb, gen)
    quantified = [f for f in kb.facts if isinstance(f, RestrictedQuant)]
    if quantified:
        f = rng.choice(quantified)
        body = _atom(rng, [Var(f.var)] + [Const(c) for c in CONSTS])
        goals.append(RestrictedQuant(f.quant, f.var, f.restrictor, body))
    return m, kb, goals


def soundness_trial(rng: random.Random):
    """Sample one model, kb and several goals (`sample_trial`). Returns
    (violations, proved, replay_problems, goals_sampled)."""
    m, kb, goals = sample_trial(rng)
    violations = []
    proved = 0
    replay_problems = []
    for goal in goals:
        result = prove(kb, goal, FUZZ_CFG)
        if result.proved:
            proved += 1
            if not eval_formula(m, m.w0, {}, goal):
                violations.append((m, kb, goal, result.trace))
            replay_problems.extend(replay(result.trace, kb))
    return violations, proved, replay_problems, len(goals)


def cited_premises(trace, kb: KnowledgeBase) -> list:
    """The kb facts that trace's fact-match leaves match and the axioms that
    its axiom-N labels name, each once, in kb order. A schema-apply or
    monotone-quant step cites nothing: the fuzz kbs' one schema and the
    monotone rule are valid in every model."""
    fact_keys = {alpha_key(f) for f in kb.facts}
    cited_facts, cited_axioms = set(), set()

    def walk(node):
        if node.rule == "fact-match" and alpha_key(node.formula) in fact_keys:
            cited_facts.add(alpha_key(node.formula))
        if node.detail.startswith("axiom-"):
            cited_axioms.add(int(node.detail[len("axiom-"):]) - 1)
        for child in node.children:
            walk(child)

    walk(trace)
    facts = [f for f in kb.facts if alpha_key(f) in cited_facts]
    return facts + [a for i, a in enumerate(kb.axioms) if i in cited_axioms]
