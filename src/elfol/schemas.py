"""Axiom schemas: templates quantifying over predicates, closed formulas,
and quantifier classes.

A schema body is an ordinary formula in which declared metavariables stand
in for predicate expressions (written as predicate names), closed formulas
(written as zero-argument atoms), or quantifier symbols. Instantiation
replaces metavariables and beta-reduces lambda bindings at application
sites. Goal-directed matching is restricted to the pattern fragment: a
predicate metavariable is solved only where the template applies it to
distinct variables, by abstracting the goal over chosen argument terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from math import prod
from typing import Optional

from .core import (
    Atom,
    Const,
    Equiv,
    Formula,
    Implies,
    Ka,
    Lambda,
    PredConst,
    PredExpr,
    QuantRef,
    RestrictedQuant,
    Signature,
    TERM_TYPES,
    Term,
    That,
    Var,
    alpha_equivalent,
    alpha_key,
    children,
    conjuncts,
    free_vars,
    map_children,
    nodes,
    same_shape,
    strip_universals,
    subst_map,
)
from .quantifiers import DOWN, UP, QuantRegistry, UnknownQuantifierError


class SchemaError(ValueError):
    pass


@dataclass(frozen=True)
class Schema:
    name: str
    pred_metavars: tuple  # (name, arity) pairs
    formula_metavars: tuple  # names
    quant_metavars: tuple  # (name, constraint) pairs; constraint right-up/right-down/any
    body: Formula

    @property
    def pred_arities(self) -> dict:
        return dict(self.pred_metavars)

    @property
    def quant_constraints(self) -> dict:
        return dict(self.quant_metavars)

    def metavar_names(self) -> set:
        return (
            {n for n, _ in self.pred_metavars}
            | set(self.formula_metavars)
            | {n for n, _ in self.quant_metavars}
        )

    @cached_property
    def binds_backward(self) -> bool:
        """Whether some side that `match_conclusion` matches mentions every
        metavariable. If none does, no match is total (`binding_total`),
        and backward search skips the schema."""
        return any(self.metavar_names() <= _mentioned(t) for _, t in _conclusions(self.body)[1])

    def rematches(self, side) -> bool:
        """Whether matching side, a part of the body, against an instance
        of it gives back only that instance's binding: side mentions every
        metavariable and applies none, so each is read off as it stands."""
        preds = [n.pred.name for n in nodes(side) if type(n) is Atom and type(n.pred) is PredConst]
        applied = any(name in self.pred_arities for name in preds)
        return self.metavar_names() <= _mentioned(side) and not applied


# ---------------------------------------------------------------------------
# Instantiation


def _quant_ok(constraint: str, ref: QuantRef, registry: QuantRegistry) -> bool:
    try:
        q = registry.resolve(ref)
    except UnknownQuantifierError:
        return False
    if constraint == "right-up":
        return q.right == UP
    if constraint == "right-down":
        return q.right == DOWN
    return True


def weakening_valid(s: Schema, registry: QuantRegistry) -> bool:
    """Whether every instance of s is valid by right-up conjunct dropping:
    s is a closed `(implies (quant Q ?x R B) (quant Q ?x R A))` with Q
    right-up, two or more conjuncts in B and the atom A one of them, its
    metavariables read as symbols. Within R, A holds wherever B does, so an
    upward quantifier true of B is true of A, at every world of every
    model."""
    body = s.body
    if not isinstance(body, Implies) or free_vars(body):
        return False
    p, c = body.left, body.right
    if not (isinstance(p, RestrictedQuant) and isinstance(c, RestrictedQuant)):
        return False
    if (p.quant, p.var, p.restrictor) != (c.quant, c.var, c.restrictor):
        return False
    constraints = s.quant_constraints
    if p.quant.name in constraints:
        right_up = constraints[p.quant.name] == "right-up"
    else:
        right_up = _quant_ok("right-up", p.quant, registry)
    parts = conjuncts(p.body)
    return right_up and len(parts) >= 2 and isinstance(c.body, Atom) and c.body in parts


def beta_reduce(lam: Lambda, args) -> Formula:
    if len(lam.params) != len(args):
        raise SchemaError(
            f"lambda of arity {len(lam.params)} applied to {len(args)} arguments"
        )
    return subst_map(lam.body, dict(zip(lam.params, args)))


def instantiate(s: Schema, binding: dict, registry: QuantRegistry) -> Formula:
    """Replace metavariables by their bindings; beta-reduce lambda bindings.

    The binding must be total and satisfy the schema's quantifier
    constraints; predicate bindings must match declared arities.
    """
    missing = s.metavar_names() - set(binding)
    if missing:
        raise SchemaError(f"binding is missing metavariables: {sorted(missing)}")
    for name, arity in s.pred_metavars:
        val = binding[name]
        if isinstance(val, Lambda) and len(val.params) != arity:
            raise SchemaError(f"{name} bound to lambda of wrong arity")
    for name, constraint in s.quant_metavars:
        ref = binding[name]
        if not isinstance(ref, QuantRef):
            raise SchemaError(f"{name} must be bound to a quantifier")
        if not _quant_ok(constraint, ref, registry):
            raise SchemaError(
                f"{name} bound to {ref.name}, which violates constraint {constraint}"
            )
    for name in s.formula_metavars:
        val = binding[name]
        if free_vars(val):
            raise SchemaError(f"{name} must be bound to a closed formula")
    return substitute(s, s.body, binding)


def substitute(s: Schema, node, binding: dict):
    """node, a part of s's body, with instantiate's replacements under
    binding; the binding is not checked."""
    preds = s.pred_arities
    fvs = set(s.formula_metavars)

    def walk(node):
        if isinstance(node, Atom) and isinstance(node.pred, PredConst):
            name = node.pred.name
            if name in preds:
                val = binding[name]
                new_args = tuple(walk(a) for a in node.args)
                if isinstance(val, Lambda):
                    return beta_reduce(val, new_args)
                return Atom(val, new_args)
            if name in fvs and not node.args:
                return binding[name]
        elif isinstance(node, PredConst) and node.name in preds:
            return binding[node.name]
        elif isinstance(node, RestrictedQuant) and node.quant.name in binding:
            q = binding[node.quant.name]
            return RestrictedQuant(q, node.var, walk(node.restrictor), walk(node.body))
        try:
            return map_children(node, walk)
        except TypeError:
            raise SchemaError(f"cannot instantiate node {node!r}") from None

    return walk(node)


# ---------------------------------------------------------------------------
# Goal-directed matching (pattern fragment)


@dataclass
class _MatchState:
    metas: dict = field(default_factory=dict)  # metavar -> PredExpr|Formula|QuantRef
    fo: dict = field(default_factory=dict)  # stripped universal var -> Term
    pairs: tuple = ()  # (template bound var, goal bound var) pairs

    def child(self, **updates) -> "_MatchState":
        st = _MatchState(dict(self.metas), dict(self.fo), self.pairs)
        for k, v in updates.items():
            setattr(st, k, v)
        return st


def _subterms_in_order(node, out: list, seen: set) -> None:
    """Closed terms appearing in the goal, in discovery order."""
    if isinstance(node, TERM_TYPES) and not free_vars(node):
        k = alpha_key(node)
        if k not in seen:
            seen.add(k)
            out.append(node)
    if isinstance(node, (Ka, That)):
        return
    for child in children(node):
        _subterms_in_order(child, out, seen)


def _replace_term(node, target: Term, replacement: Term):
    """Replace alpha-equal occurrences of a closed term."""
    if isinstance(node, TERM_TYPES) and alpha_equivalent(node, target):
        return replacement
    return map_children(node, lambda child: _replace_term(child, target, replacement))


def _eta(value: PredExpr) -> PredExpr:
    """lambda (?u...) (P ?u...) collapses to P.

    Not applied when P is itself a lambda: re-applying the collapsed value
    would beta-reduce one step further than the goal it was read off."""
    if isinstance(value, Lambda) and isinstance(value.body, Atom):
        body = value.body
        if (
            not isinstance(body.pred, Lambda)
            and len(body.args) == len(value.params)
            and all(
                isinstance(a, Var) and a.name == p
                for a, p in zip(body.args, value.params)
            )
            and not (free_vars(body.pred) & set(value.params))
        ):
            return body.pred
    return value


class _Matcher:
    def __init__(self, schema: Schema, registry: QuantRegistry, universals):
        self.schema = schema
        self.registry = registry
        self.universals = set(universals)
        self.pred_arities = schema.pred_arities
        self.formula_mvs = set(schema.formula_metavars)
        self.quant_constraints = schema.quant_constraints

    def match(self, template, goal, st: _MatchState) -> list:
        """Every extension of st under which template matches goal."""
        kind = type(template)
        if kind is Atom and type(template.pred) is PredConst:
            name = template.pred.name
            if name in self.pred_arities:
                return self._solve_pred_application(name, template.args, goal, st)
            if name in self.formula_mvs:
                return self._bind_meta(name, goal, st)
        if kind is PredConst and template.name in self.pred_arities:
            return self._bind_meta(template.name, goal, st)
        if kind is Var:
            return self._var(template.name, goal, st)
        if kind is RestrictedQuant:
            if type(goal) is not RestrictedQuant:
                return []
            pair = ((template.var, goal.var),)
            states = [
                s.child(pairs=s.pairs + pair)
                for s in self._quant(template.quant, goal.quant, st)
            ]
        elif not same_shape(template, goal):
            return []
        elif kind is Lambda:
            states = [st.child(pairs=st.pairs + tuple(zip(template.params, goal.params)))]
        else:
            states = [st]
        for x, y in zip(children(template), children(goal)):
            states = [s2 for s in states for s2 in self.match(x, y, s)]
        if kind is RestrictedQuant or kind is Lambda:  # pairs hold in scope only
            states = [s.child(pairs=st.pairs) for s in states]
        return states

    def _bind_meta(self, name: str, value, st: _MatchState) -> list:
        """Bind a predicate or formula metavariable to a closed value, or
        check the value against an earlier binding."""
        if free_vars(value):
            return []
        if name in st.metas:
            return [st] if alpha_equivalent(st.metas[name], value) else []
        st2 = st.child()
        st2.metas[name] = value
        return [st2]

    def _quant(self, q1: QuantRef, q2: QuantRef, st: _MatchState) -> list:
        if q1.name in self.quant_constraints:
            if not _quant_ok(self.quant_constraints[q1.name], q2, self.registry):
                return []
            if q1.name in st.metas:
                return [st] if st.metas[q1.name] == q2 else []
            st2 = st.child()
            st2.metas[q1.name] = q2
            return [st2]
        return [st] if q1 == q2 else []

    def _var(self, x: str, goal, st: _MatchState) -> list:
        """A template variable: a quantified one matches the goal variable
        it is paired with, a stripped universal is bound to a goal term, and
        any other matches only itself. A universal lies outside every
        quantifier of the template, so it is neither bound to nor compared
        with a term in which a goal binder the match is in binds a variable:
        that variable would be captured. The goal's other free variables
        are read as constants. Matching is one way, so replay, which matches
        a trace's formulas with it, shares no unifier with the search; on a
        closed goal every enclosing binder has been entered, so a universal
        is bound only to a closed term."""
        paired = dict(st.pairs)
        if x in paired:
            return [st] if type(goal) is Var and goal.name == paired[x] else []
        if x in self.universals:
            if not free_vars(goal).isdisjoint(g for _, g in st.pairs):
                return []
            if x in st.fo:
                return [st] if alpha_equivalent(st.fo[x], goal) else []
            st2 = st.child()
            st2.fo[x] = goal
            return [st2]
        return [st] if type(goal) is Var and goal.name == x else []

    def _solve_pred_application(self, name, args, goal, st: _MatchState) -> list:
        """Match M(x1..xk) against a goal formula by abstraction, or, once M
        is bound, match M's binding applied to x1..xk: abstracting again
        would also abstract the constants of the binding."""
        arity = self.pred_arities[name]
        if len(args) != arity:
            return []
        if name in st.metas:
            applied = substitute(self.schema, Atom(PredConst(name), args), st.metas)
            return self.match(applied, goal, st)
        argnames = []
        for a in args:
            if not isinstance(a, Var):
                return []  # outside the pattern fragment
            argnames.append(a.name)
        if len(set(argnames)) != len(argnames):
            return []
        paired = dict(st.pairs)
        params = tuple(f"u{i}" for i in range(arity))

        def finish(abstracted, st2) -> list:
            leaked = free_vars(abstracted) - set(params)
            if leaked:
                return []
            return self._bind_meta(name, _eta(Lambda(params, abstracted)), st2)

        def solve(i, current, st2) -> list:
            if i == arity:
                return finish(current, st2)
            x = argnames[i]
            u = Var(params[i])
            if x in paired:
                replaced = subst_map(current, {paired[x]: u})
                return solve(i + 1, replaced, st2)
            if x in self.universals:
                if x in st2.fo:
                    t = st2.fo[x]
                    if not free_vars(t).isdisjoint(g for _, g in st2.pairs):
                        return []  # a binder here would capture t's variable
                    return solve(i + 1, _replace_term(current, t, u), st2)
                out = []
                candidates: list = []
                _subterms_in_order(current, candidates, set())
                for t in candidates:
                    st3 = st2.child()
                    st3.fo[x] = t
                    out.extend(solve(i + 1, _replace_term(current, t, u), st3))
                return out
            return []

        return solve(0, goal, st)


def _conclusions(body: Formula) -> tuple:
    """The universals stripped from a schema body, and its (label, side)
    conclusion positions: the consequent of an implication, either side of
    an equivalence, or else the whole matrix."""
    universals, matrix = strip_universals(body)
    if isinstance(matrix, Implies):
        return universals, [("consequent", matrix.right)]
    if isinstance(matrix, Equiv):
        return universals, [("left", matrix.left), ("right", matrix.right)]
    return universals, [("body", matrix)]


def _mentioned(expr) -> set:
    """The predicate and quantifier names that expr mentions."""
    return {n.quant.name if type(n) is RestrictedQuant else n.name
            for n in nodes(expr) if type(n) in (PredConst, RestrictedQuant)}


def match_conclusion(
    s: Schema, goal: Formula, registry: QuantRegistry
) -> list:
    """All metavariable bindings under which a conclusion side of the schema
    (`_conclusions`) matches goal. Bindings may be partial: metavariables
    occurring only in premise positions are left unbound. Each is a dict
    with a "_universals" entry mapping stripped universal variables to the
    terms instantiating them (where determined).
    """
    universals, sides = _conclusions(s.body)
    matcher = _Matcher(s, registry, universals)
    out = []
    seen = set()
    for label, template in sides:
        for st in matcher.match(template, goal, _MatchState()):
            key = (
                label,
                tuple(sorted((k, v if type(v) is QuantRef else alpha_key(v))
                             for k, v in st.metas.items())),
                tuple(sorted((x, alpha_key(t)) for x, t in st.fo.items())),
            )
            if key not in seen:
                seen.add(key)
                out.append({**st.metas, "_universals": dict(st.fo), "_position": label})
    return out


def binding_total(s: Schema, binding: dict) -> bool:
    return s.metavar_names() <= set(binding)


# ---------------------------------------------------------------------------
# Bounded enumeration of instances


@dataclass(frozen=True)
class InstanceBounds:
    max_quant_param: int = 3
    max_formula_instances: int = 12
    ceiling: int = 100_000


class EnumerationCeiling(Exception):
    def __init__(self, count_formula: str, count: int, ceiling: int):
        self.count = count
        super().__init__(
            f"instance count {count_formula} = {count} exceeds ceiling {ceiling}"
        )


def ground_atoms(sig: Signature, limit: int) -> list:
    """The first `limit` ground atoms over declared constants, deterministic."""
    out = []
    consts = sorted(sig.constants)
    for pname in sorted(sig.predicates):
        arity = sig.predicates[pname]
        if arity == 0:
            out.append(Atom(PredConst(pname), ()))
        else:
            for combo in product(consts, repeat=arity):
                out.append(Atom(PredConst(pname), tuple(Const(c) for c in combo)))
                if len(out) >= limit:
                    return out
        if len(out) >= limit:
            return out
    return out


def enumerate_bindings(
    s: Schema,
    sig: Signature,
    registry: QuantRegistry,
    bounds: Optional[InstanceBounds] = None,
):
    """Every binding of s's metavariables to predicate constants,
    registered quantifiers satisfying constraints, and bounded ground
    atoms, as dicts in a deterministic order. They come one at a time, so
    a caller holds its instances but not every binding; EnumerationCeiling
    is raised on the call, before any is built, when there would be too
    many."""
    bounds = bounds if bounds is not None else InstanceBounds()
    axes = [
        (name, [PredConst(p) for p in sorted(sig.predicates) if sig.predicates[p] == arity])
        for name, arity in s.pred_metavars
    ]
    if s.formula_metavars:
        atoms = ground_atoms(sig, bounds.max_formula_instances)
        axes += [(name, atoms) for name in s.formula_metavars]
    for name, constraint in s.quant_metavars:
        pool = [q.ref for q in registry.entries(bounds.max_quant_param)]
        axes.append((name, [r for r in pool if _quant_ok(constraint, r, registry)]))
    counts = [len(cands) for _, cands in axes]
    if prod(counts) > bounds.ceiling:
        formula = " * ".join(map(str, counts)) or "1"
        raise EnumerationCeiling(formula, prod(counts), bounds.ceiling)
    names = [name for name, _ in axes]
    return (dict(zip(names, combo)) for combo in product(*(cands for _, cands in axes)))


def enumerate_instances(
    s: Schema,
    sig: Signature,
    registry: QuantRegistry,
    bounds: Optional[InstanceBounds] = None,
) -> list:
    """The instance of s under each binding enumerate_bindings gives, in
    its order."""
    return [instantiate(s, b, registry) for b in enumerate_bindings(s, sig, registry, bounds)]
