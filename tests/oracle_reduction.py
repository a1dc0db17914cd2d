"""The substitution-based reducer, kept as the differential oracle for
`elfol.reduction.Reducer`.

This `Reducer` substitutes each domain constant into a quantifier's
restrictor and body with `subst_map` and reduces the result, at every
nesting level, and builds the distinctness conjuncts of every witness tuple
afresh. `elfol.reduction.Reducer` passes an environment of constants down
instead and shares the nodes it builds. On every input both must give equal
axioms, facts and formulas, the same side tables in the same order, and the
same error with the same message.

`induced_classical_model` is the evaluation side of the faithfulness
oracle: it folds an intensional model into a classical one that the reduced
formulas are evaluated in.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import comb
from typing import Optional

from elfol.core import (
    And,
    Atom,
    Const,
    Equal,
    Equiv,
    Formula,
    FunApp,
    Implies,
    Ka,
    Lambda,
    Modal,
    Modified,
    Not,
    Or,
    POSSIBLY,
    PredConst,
    RestrictedQuant,
    TermDerived,
    That,
    TrueF,
    Var,
    conjoin,
    conjuncts,
    disjoin,
    free_vars,
    subst_map,
)
from elfol.kb import KnowledgeBase
from elfol.models import IntensionalModel, eval_term
from elfol.quantifiers import UnknownQuantifierError
from elfol.reduction import (
    ACC,
    ReductionContext,
    ReductionError,
    SideTables,
    reduced_signature,
)
from elfol.syntax import render


class Reducer:
    def __init__(self, ctx: ReductionContext, tables: Optional[SideTables] = None):
        self.ctx = ctx
        self.tables = tables if tables is not None else SideTables()

    # -- terms ----------------------------------------------------------------

    def term(self, t):
        match t:
            case Var(_) | Const(_):
                return t
            case FunApp(fn, args):
                return FunApp(fn, tuple(self.term(a) for a in args))
            case Ka(_) | That(_):
                if free_vars(t):
                    raise ReductionError(
                        f"reified term is open after expansion: {render(t)}"
                    )
                return Const(self.tables.reified_const(t))
        raise ReductionError(f"cannot reduce term {t!r}")

    def _term_token(self, t) -> str:
        reduced = self.term(t)
        if isinstance(reduced, Const):
            return reduced.name
        raise ReductionError(
            f"term-derived predicate argument must reduce to a constant: {render(t)}"
        )

    # -- formulas ---------------------------------------------------------------

    def formula(self, f: Formula, w: str) -> Formula:
        match f:
            case TrueF():
                return f
            case Atom(pred, args):
                return self.atom(pred, args, w)
            case Equal(l, r):
                return Equal(self.term(l), self.term(r))
            case Not(b):
                return Not(self.formula(b, w))
            case And(l, r):
                return And(self.formula(l, w), self.formula(r, w))
            case Or(l, r):
                return Or(self.formula(l, w), self.formula(r, w))
            case Implies(l, r):
                return Implies(self.formula(l, w), self.formula(r, w))
            case Equiv(l, r):
                return Equiv(self.formula(l, w), self.formula(r, w))
            case Modal(flavor, body):
                parts = []
                for w2 in self.ctx.worlds:
                    guard = Atom(PredConst(ACC), (Const(w), Const(w2)))
                    inner = self.formula(body, w2)
                    if flavor == POSSIBLY:
                        parts.append(And(guard, inner))
                    else:
                        parts.append(Implies(guard, inner))
                return disjoin(parts) if flavor == POSSIBLY else conjoin(parts)
            case RestrictedQuant(_, _, _, _):
                return self.quant(f, w)
        raise ReductionError(f"cannot reduce formula {f!r}")

    def atom(self, pred, args, w: str) -> Formula:
        new_args = tuple(self.term(a) for a in args)
        world_arg = (Const(w),)
        match pred:
            case PredConst(name):
                return Atom(PredConst(name), new_args + world_arg)
            case Lambda(params, body):
                if len(params) != len(args):
                    raise ReductionError("lambda arity mismatch")
                return self.formula(subst_map(body, dict(zip(params, args))), w)
            case Modified(modifier, base):
                if not isinstance(base, PredConst):
                    raise ReductionError(
                        "only modified predicate constants reduce"
                    )
                key = (modifier, base.name)
                name = self.tables.mod_preds.setdefault(key, f"{modifier}%{base.name}")
                return Atom(PredConst(name), new_args + world_arg)
            case TermDerived(op, arg):
                token = self._term_token(arg)
                key = (op, token)
                name = self.tables.op_preds.setdefault(key, f"{op}%{token}")
                return Atom(PredConst(name), new_args + world_arg)
        raise ReductionError(f"cannot reduce predicate {pred!r}")

    def quant(self, f: RestrictedQuant, w: str) -> Formula:
        q = f.quant
        domain = self.ctx.domain

        # Each instance is built once, on first use, and then shared. First
        # uses come in the same order as before, so obj-kN numbering holds.
        @cache
        def member(c: str) -> Formula:
            inst_r = subst_map(f.restrictor, {f.var: Const(c)})
            inst_b = subst_map(f.body, {f.var: Const(c)})
            if isinstance(f.restrictor, TrueF):
                return self.formula(inst_b, w)
            return And(self.formula(inst_r, w), self.formula(inst_b, w))

        @cache
        def counter(c: str) -> Formula:
            # member of the restrictor but not the body
            inst_r = subst_map(f.restrictor, {f.var: Const(c)})
            inst_b = subst_map(f.body, {f.var: Const(c)})
            neg = Not(self.formula(inst_b, w))
            if isinstance(f.restrictor, TrueF):
                return neg
            return And(self.formula(inst_r, w), neg)

        def at_least(n: int, make) -> Formula:
            if n == 0:
                return TrueF()
            if n > len(domain):
                return Not(TrueF())
            if comb(len(domain), n) > self.ctx.expansion_ceiling:
                raise ReductionError(
                    f"at-least {n} over {len(domain)} constants exceeds the "
                    f"expansion ceiling"
                )
            options = []
            for combo in combinations(domain, n):
                parts = [
                    Not(Equal(Const(a), Const(b)))
                    for a, b in combinations(combo, 2)
                ]
                parts.extend(make(c) for c in combo)
                options.append(conjoin(parts))
            return disjoin(options)

        if q.name == "all":
            parts = []
            for c in domain:
                inst_r = subst_map(f.restrictor, {f.var: Const(c)})
                inst_b = subst_map(f.body, {f.var: Const(c)})
                if isinstance(f.restrictor, TrueF):
                    parts.append(self.formula(inst_b, w))
                else:
                    parts.append(
                        Implies(self.formula(inst_r, w), self.formula(inst_b, w))
                    )
            return conjoin(parts)
        if q.name == "some":
            return at_least(1, member)
        if q.name == "no":
            return Not(at_least(1, member))
        if q.name == "at-least":
            return at_least(q.param, member)
        if q.name == "at-most":
            return Not(at_least(q.param + 1, member))
        if q.name == "fewer-than":
            return Not(at_least(q.param, member))
        if q.name == "exactly":
            return And(
                at_least(q.param, member), Not(at_least(q.param + 1, member))
            )
        if q.name == "most":
            options = []
            for k in range(len(domain)):
                options.append(
                    And(
                        at_least(k + 1, member),
                        Not(at_least(k + 1, counter)),
                    )
                )
            return disjoin(options)
        raise UnknownQuantifierError(f"quantifier {q.name} is not reducible")


def reduce_formula(
    f: Formula, ctx: ReductionContext, tables: Optional[SideTables] = None
) -> Formula:
    """Classical first-order form of a closed formula, at the current world."""
    if free_vars(f):
        raise ReductionError("reduce requires a closed formula")
    return Reducer(ctx, tables).formula(f, ctx.worlds[0])


def reduce_kb(kb: KnowledgeBase, ctx: ReductionContext):
    tables = SideTables()
    reducer = Reducer(ctx, tables)
    out = KnowledgeBase(registry=kb.registry)
    for axiom in kb.axioms:
        for w in ctx.worlds:
            translated = reducer.formula(axiom, w)
            for part in conjuncts(translated):
                out.axioms.append(part)
    for fact in kb.facts:
        out.facts.append(reducer.formula(fact, ctx.worlds[0]))
    for a, b in ctx.accessibility:
        out.facts.append(Atom(PredConst(ACC), (Const(a), Const(b))))
    for a, b in combinations(ctx.domain, 2):
        out.facts.append(Not(Equal(Const(a), Const(b))))
    for schema in kb.schemas:
        tables.dropped_schemas.append(schema.name)
    out.signature = reduced_signature(kb.signature, ctx, tables)
    return out, tables


def induced_classical_model(
    m: IntensionalModel, ctx: ReductionContext, tables: SideTables
) -> IntensionalModel:
    """Fold an intensional model's worlds into the domain so reduced formulas
    can be evaluated classically: predicates gain a world column, `acc`
    interprets the accessibility relation, and opaque constants denote what
    their source terms denote."""
    domain = tuple(m.domain) + tuple(m.worlds)
    constants = dict(m.constants)
    for w in m.worlds:
        constants[w] = w
    predicates: dict = {}
    cw = "cw"
    for (name, w), ext in m.predicates.items():
        key = (name, cw)
        predicates.setdefault(key, set())
        predicates[key] |= {t + (w,) for t in ext}
    predicates[(ACC, cw)] = set(m.accessibility)
    for (mo, base, w), ext in m.modifiers.items():
        name = tables.mod_preds.get((mo, base))
        if name is None:
            continue
        key = (name, cw)
        predicates.setdefault(key, set())
        predicates[key] |= {t + (w,) for t in ext}
    for (op, ind, w), ext in m.term_ops.items():
        for (o, token), name in tables.op_preds.items():
            if o != op:
                continue
            src = tables.reified_terms.get(token)
            if src is not None:
                denot = eval_term(m, {}, src)
            elif token in m.constants:
                denot = m.constants[token]
            else:
                continue
            if denot != ind:
                continue
            key = (name, cw)
            predicates.setdefault(key, set())
            predicates[key] |= {t + (w,) for t in ext}
    for name, term in tables.reified_terms.items():
        constants[name] = eval_term(m, {}, term)
    return IntensionalModel(
        worlds=(cw,),
        accessibility=frozenset(),
        domain=domain,
        constants=constants,
        predicates={k: frozenset(v) for k, v in predicates.items()},
        functions=dict(m.functions),
    )
