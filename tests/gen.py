"""Seeded random generators for well-formed expressions over a test signature."""

from __future__ import annotations

import random

from elfol.core import (
    And,
    Atom,
    Const,
    Equal,
    Equiv,
    FunApp,
    Implies,
    Ka,
    Lambda,
    Modal,
    Modified,
    NECESSARILY,
    Not,
    Or,
    POSSIBLY,
    PredConst,
    QuantRef,
    RestrictedQuant,
    Signature,
    TermDerived,
    That,
    TrueF,
    Var,
    fresh_name,
)

TEST_SIG = Signature(
    functions={"f": 1, "g": 2},
    predicates={"P": 1, "Q": 1, "R": 2, "S": 0},
    constants={"a", "b", "c"},
    modifiers={"m1"},
    term_ops={"op1": 1},
)

QUANTS = [
    QuantRef("all"),
    QuantRef("some"),
    QuantRef("no"),
    QuantRef("most"),
    QuantRef("at-least", 1),
    QuantRef("at-least", 2),
    QuantRef("at-least", 3),
    QuantRef("at-most", 1),
    QuantRef("exactly", 1),
    QuantRef("fewer-than", 2),
]


class AstGen:
    """Random well-formed ASTs. Feature flags trim the language for callers
    that need the plainly-enumerable fragment (no functions, reification,
    modifiers, or derived predicates). With constants=False no constant
    occurs, so an atom outside every quantifier is the 0-ary S."""

    def __init__(self, rng: random.Random, reified=True, functions=True,
                 modifiers=True, equality=True, modal=True, constants=True):
        self.rng = rng
        self.constants = constants
        self.reified = reified
        self.functions = functions
        self.modifiers = modifiers
        self.equality = equality
        self.modal = modal

    def term(self, scope, depth=2):
        opts = ["const"] if self.constants else []
        if scope:
            opts.append("var")
        if depth > 0 and self.functions:
            opts += ["fun", "fun"]
        if depth > 0 and self.reified:
            opts += ["ka", "that"]
        kind = self.rng.choice(opts)
        if kind == "var":
            return Var(self.rng.choice(sorted(scope)))
        if kind == "const":
            return Const(self.rng.choice(sorted(TEST_SIG.constants)))
        if kind == "fun":
            name = self.rng.choice(sorted(TEST_SIG.functions))
            arity = TEST_SIG.functions[name]
            return FunApp(name, tuple(self.term(scope, depth - 1) for _ in range(arity)))
        if kind == "ka":
            return Ka(self.predexpr(scope, depth - 1, arity=1))
        return That(self.formula(scope, depth - 1))

    def predexpr(self, scope, depth=1, arity=None):
        opts = ["const"]
        if depth > 0:
            opts.append("lambda")
            if self.modifiers:
                opts += ["mod", "op"]
        kind = self.rng.choice(opts)
        if kind == "lambda" and arity:  # grammar requires one or more params
            params = []
            avoid = set(scope)
            for _ in range(arity):
                p = fresh_name("v", avoid)
                avoid.add(p)
                params.append(p)
            return Lambda(tuple(params), self.formula(scope | set(params), depth - 1))
        if kind == "mod":
            return Modified("m1", self.predexpr(scope, depth - 1, arity))
        if kind == "op" and (arity is None or arity == 1):
            return TermDerived("op1", self.term(scope, depth - 1))
        choices = [
            p for p, a in sorted(TEST_SIG.predicates.items())
            if arity is None or a == arity
        ]
        if not choices:
            return PredConst("P")
        return PredConst(self.rng.choice(choices))

    def atom(self, scope, depth):
        arity = self.rng.choice([0, 1, 1, 1, 2])
        if not (self.constants or scope):
            arity = 0
        pred = self.predexpr(scope, depth - 1, arity=arity)
        from elfol.core import pred_arity

        n = pred_arity(pred, TEST_SIG)
        if n is None:
            n = arity
        return Atom(pred, tuple(self.term(scope, 1) for _ in range(n)))

    def formula(self, scope=frozenset(), depth=3):
        scope = frozenset(scope)
        if depth <= 0:
            if self.equality and (self.constants or scope) and self.rng.random() < 0.15:
                return Equal(self.term(scope, 1), self.term(scope, 1))
            return self.atom(scope, 1)
        kinds = ["atom", "not", "and", "or", "implies", "equiv", "quant"]
        if self.modal:
            kinds += ["poss", "nec"]
        kind = self.rng.choice(kinds)
        if kind == "atom":
            return self.atom(scope, depth)
        if kind == "not":
            return Not(self.formula(scope, depth - 1))
        if kind in ("and", "or", "implies", "equiv"):
            ctor = {"and": And, "or": Or, "implies": Implies, "equiv": Equiv}[kind]
            return ctor(self.formula(scope, depth - 1), self.formula(scope, depth - 1))
        if kind in ("poss", "nec"):
            return Modal(
                POSSIBLY if kind == "poss" else NECESSARILY,
                self.formula(scope, depth - 1),
            )
        var = fresh_name("z", scope)
        q = self.rng.choice(QUANTS)
        restrictor = (
            TrueF()
            if self.rng.random() < 0.25
            else self.formula(scope | {var}, 0)
        )
        return RestrictedQuant(q, var, restrictor, self.formula(scope | {var}, depth - 1))

    def closed_formula(self, depth=3):
        return self.formula(frozenset(), depth)
