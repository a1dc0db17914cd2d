"""Seeded generator of small knowledge bases and goals.

Each knowledge base is read off a random finite model: every fact holds at
the model's current world w0 and every axiom holds at every world. So any
goal the prover proves from the knowledge base must be true at w0 of that
model, and `models.eval_formula`, which shares no code with the search,
checks it.

The generator draws two shapes on purpose:

- equivalence axioms that carry a constant and a binary predicate, such as
  `(forall ?y (equiv (r ?y c) (q ?y)))`, made true by defining `q` from `r`
  in the model;
- quantified facts whose body repeats the bound variable, such as
  `(quant some ?x (p ?x) (and (r ?x ?x) (p ?x)))`.

Nothing drawn is filtered on whether the prover gets it right.

This module belongs to the benchmark: the test-suite fuzzers may change
without changing the benchmark's inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from elfol.core import (
    And,
    Atom,
    Const,
    Equiv,
    Implies,
    Modal,
    NECESSARILY,
    Not,
    Or,
    POSSIBLY,
    PredConst,
    QuantRef,
    RestrictedQuant,
    TrueF,
    Var,
)
from elfol.models import IntensionalModel, eval_formula
from elfol.syntax import render

PREDS = (("p", 1), ("q", 1), ("s", 1), ("r", 2), ("t", 2))
UNARY = tuple(name for name, arity in PREDS if arity == 1)
BINARY = tuple(name for name, arity in PREDS if arity == 2)
CONSTS = ("a", "b", "c", "d")
QUANTS = (
    QuantRef("all"),
    QuantRef("some"),
    QuantRef("no"),
    QuantRef("most"),
    QuantRef("at-least", 1),
    QuantRef("at-least", 2),
    QuantRef("at-most", 1),
    QuantRef("exactly", 1),
    QuantRef("fewer-than", 2),
)

CONJ_DROP_SCHEMA = """(schema monotone-conj-drop
  (pred-vars (P1 1) (P2 1) (P3 1))
  (quant-vars (Q right-up))
  (implies (quant Q ?x (P1 ?x) (and (P2 ?x) (P3 ?x)))
           (quant Q ?x (P1 ?x) (P2 ?x))))
"""


@dataclass
class GeneratedKb:
    text: str  # .elf source: declarations, facts, axioms, maybe a schema
    model: IntensionalModel  # the model the facts and axioms were read off
    goals: list  # closed formulas


def _atom(pred: str, *args) -> Atom:
    return Atom(PredConst(pred), tuple(args))


class KbGen:
    def __init__(self, rng: random.Random):
        self.rng = rng

    # -- models ---------------------------------------------------------

    def model(self, n_worlds: int, n_domain: int) -> IntensionalModel:
        rng = self.rng
        worlds = tuple(f"w{i}" for i in range(n_worlds))
        domain = tuple(f"e{i}" for i in range(n_domain))
        predicates = {}
        for name, arity in PREDS:
            for w in worlds:
                predicates[(name, w)] = frozenset(
                    t for t in product(domain, repeat=arity) if rng.random() < 0.5
                )
        acc = frozenset(
            (u, v) for u in worlds for v in worlds if rng.random() < 0.5
        )
        constants = {c: rng.choice(domain) for c in CONSTS}
        return IntensionalModel(
            worlds=worlds, accessibility=acc, domain=domain,
            constants=constants, predicates=predicates,
        )

    def _define(self, m: IntensionalModel, pred: str, var: str, body) -> RestrictedQuant:
        """Make `pred` hold of exactly the individuals satisfying `body` at
        each world; return the equivalence axiom that now holds."""
        for w in m.worlds:
            m.predicates[(pred, w)] = frozenset(
                (d,) for d in m.domain if eval_formula(m, w, {var: d}, body)
            )
        left, right = body, _atom(pred, Var(var))
        if self.rng.random() < 0.5:
            left, right = right, left
        return RestrictedQuant(QuantRef("all"), var, TrueF(), Equiv(left, right))

    # -- formulas -------------------------------------------------------

    def term(self, scope: tuple):
        if scope and self.rng.random() < 0.6:
            return Var(self.rng.choice(scope))
        return Const(self.rng.choice(CONSTS))

    def atom(self, scope: tuple) -> Atom:
        if self.rng.random() < 0.6:
            return _atom(self.rng.choice(UNARY), self.term(scope))
        return _atom(self.rng.choice(BINARY), self.term(scope), self.term(scope))

    def formula(self, scope: tuple, depth: int):
        rng = self.rng
        if depth <= 0:
            return self.atom(scope)
        kind = rng.choice(
            ("atom", "not", "and", "or", "implies", "quant", "quant", "modal")
        )
        if kind == "atom":
            return self.atom(scope)
        if kind == "not":
            return Not(self.formula(scope, depth - 1))
        if kind in ("and", "or", "implies"):
            ctor = {"and": And, "or": Or, "implies": Implies}[kind]
            return ctor(self.formula(scope, depth - 1), self.formula(scope, depth - 1))
        if kind == "modal":
            flavor = rng.choice((POSSIBLY, NECESSARILY))
            return Modal(flavor, self.formula(scope, depth - 1))
        var = "x" if "x" not in scope else "y"
        inner = scope + (var,)
        restrictor = _atom(rng.choice(UNARY), Var(var))
        return RestrictedQuant(
            rng.choice(QUANTS), var, restrictor, self.formula(inner, depth - 1)
        )

    def repeated_var_quant(self) -> RestrictedQuant:
        """A quantified formula whose body applies a binary predicate to the
        bound variable twice."""
        rng = self.rng
        body = _atom(rng.choice(BINARY), Var("x"), Var("x"))
        if rng.random() < 0.7:
            other = _atom(rng.choice(UNARY), Var("x"))
            body = And(body, other) if rng.random() < 0.5 else And(other, body)
        return RestrictedQuant(
            rng.choice(QUANTS), "x", _atom(rng.choice(UNARY), Var("x")), body
        )

    # -- knowledge bases ------------------------------------------------

    def kb(
        self, n_goals: int, n_worlds: int, n_domain: int, with_schema: bool
    ) -> GeneratedKb:
        """A knowledge base read off a fresh model of the given size, with
        `n_goals` goals. The caller fixes the sizes, so that two seeds draw
        inputs of the same size mix."""
        rng = self.rng
        m = self.model(n_worlds, n_domain)
        w0 = m.w0
        axioms = []
        # equivalence axioms with a constant and a binary predicate: define a
        # unary predicate from a binary one so that the axiom is true
        for pred in rng.sample(("q", "s"), rng.randint(1, 2)):
            k = Const(rng.choice(CONSTS))
            rel = rng.choice(BINARY)
            body = rng.choice(
                (
                    _atom(rel, Var("y"), k),
                    _atom(rel, k, Var("y")),
                    And(_atom("p", Var("y")), _atom(rel, Var("y"), k)),
                )
            )
            axioms.append(self._define(m, pred, "y", body))
        # further axioms: whatever random implications happen to hold
        for _ in range(12):
            if len(axioms) >= 4:
                break
            left = self.formula(("x",), rng.randint(0, 1))
            right = self.formula(("x",), rng.randint(0, 1))
            cand = RestrictedQuant(QuantRef("all"), "x", TrueF(), Implies(left, right))
            if all(eval_formula(m, w, {}, cand) for w in m.worlds):
                axioms.append(cand)

        facts = []
        for name, arity in PREDS:
            for combo in product(CONSTS, repeat=arity):
                a = _atom(name, *(Const(c) for c in combo))
                roll = rng.random()
                if eval_formula(m, w0, {}, a):
                    if roll < 0.5:
                        facts.append(a)
                elif roll < 0.1:
                    facts.append(Not(a))
        for _ in range(6):
            f = self.repeated_var_quant() if rng.random() < 0.5 else self.formula((), 1)
            if isinstance(f, RestrictedQuant) and eval_formula(m, w0, {}, f):
                facts.append(f)

        goals = [self.goal(facts) for _ in range(n_goals)]
        return GeneratedKb(self._text(facts, axioms, with_schema), m, goals)

    def goal(self, facts: list):
        """A goal over the kb's vocabulary. Some are built from facts (often
        provable), some are arbitrary (often false: the soundness probes)."""
        rng = self.rng
        roll = rng.random()
        if roll < 0.3 or not facts:
            return self.formula((), rng.randint(1, 2))
        f1, f2 = rng.choice(facts), rng.choice(facts)
        if roll < 0.45:
            return f1
        if roll < 0.55:
            return And(f1, f2)
        if roll < 0.65:
            return Or(self.formula((), 1), f1)
        quants = [f for f in facts if isinstance(f, RestrictedQuant)]
        if quants:
            # same quantifier and restrictor as a fact, another body
            q = rng.choice(quants)
            return RestrictedQuant(q.quant, q.var, q.restrictor, self.atom((q.var,)))
        return Implies(self.formula((), 1), f2)

    @staticmethod
    def _text(facts, axioms, with_schema: bool) -> str:
        lines = [f"(declare pred {name} {arity})" for name, arity in PREDS]
        lines.append("(declare const " + " ".join(CONSTS) + ")")
        lines.extend(f"(fact {render(f)})" for f in facts)
        lines.extend(f"(axiom {render(a)})" for a in axioms)
        if with_schema:
            lines.append(CONJ_DROP_SCHEMA)
        return "\n".join(lines) + "\n"
