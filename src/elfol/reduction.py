"""Compilation of the extended language into plain first-order form.

Given explicit, finite lists of domain constants and world constants, every
construct beyond classical FOL is expanded away: possibility/necessity
become disjunctions/conjunctions over world constants guarded by
accessibility atoms, every predicate gains a trailing world argument,
restricted quantifiers expand by domain closure (numeric ones over
pairwise-distinct witness tuples, `most` by cardinality comparison),
reified terms become opaque fresh constants, and modified or term-derived
predicates become fresh predicate symbols keyed by operator and base.

The reducer never substitutes into a quantifier's scope: it passes an
environment from each bound variable to its domain constant down through
formulas and terms, and applies it with `subst_map` only to a reified term
or a lambda atom, as substituting at every level gave. Each constant is
built once. A quantifier's instances, one (restrictor, body) pair per domain
constant, are built once, in domain order, and only when `all` or a count
needs them; its members and counterexamples are built from those pairs.
Each witness tuple's distinctness conjunction is built once, and the
tuple's members are folded onto it in place. The node objects are shared
across the output. Sharing is safe because nodes are immutable and
`core._cached` keeps only values that depend on the node alone. The names
`obj-k<N>` of reified terms are reserved: a context may not use them, nor
name one constant as both an individual and a world.

The reduction deliberately loses the structure inside reified terms and
schemas; measuring what that costs a prover is the point of
`compare_effort`.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, field
from itertools import combinations
from math import comb
from types import MappingProxyType
from typing import Mapping, Optional

from .core import (
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
    Signature,
    TermDerived,
    That,
    TrueF,
    Var,
    conjoin,
    conjuncts,
    disjoin,
    free_vars,
    alpha_key,
    subst_map,
)
from .kb import KnowledgeBase
from .prover import ProveResult, ProverConfig, prove
from .quantifiers import UnknownQuantifierError
from .syntax import ParseError, parse_term, render

ACC = "acc"
RESERVED = re.compile(r"obj-k[0-9]+")  # the names `SideTables` gives reified terms
_NO_ENV = MappingProxyType({})
_BINARY = (And, Or, Implies, Equiv)


class ReductionError(Exception):
    pass


def _is_constant(name: str) -> bool:
    """Whether name parses as the constant of that name."""
    try:
        return parse_term(name) == Const(name)
    except ParseError:
        return False


@dataclass(frozen=True)
class ReductionContext:
    domain: tuple  # individual constant names; closure assumption
    worlds: tuple  # world constant names; first is the current world
    accessibility: tuple = ()  # (w, w') pairs asserted in the reduced kb
    expansion_ceiling: int = 20_000

    def __post_init__(self):
        if not self.domain:
            raise ReductionError(
                "reduction requires domain closure: provide domain constants"
            )
        if not self.worlds:
            raise ReductionError("reduction requires at least one world constant")
        for kind, items in (("domain", self.domain), ("world", self.worlds)):
            if len(set(items)) != len(items):
                raise ReductionError(f"duplicate {kind} constants")
            for c in items:
                if not _is_constant(c):
                    raise ReductionError(f"{kind} name {c!r} is not a constant")
                if RESERVED.fullmatch(c):
                    raise ReductionError(
                        f"{c} has the form obj-k<N>, reserved for reified terms"
                    )
        for c in self.domain:
            if c in self.worlds:
                raise ReductionError(f"{c} is both a domain and a world constant")
        for pair in self.accessibility:
            for c in pair:
                if c not in self.worlds:
                    raise ReductionError(
                        f"accessibility pair {':'.join(pair)} names {c}, "
                        f"which is not a declared world"
                    )


@dataclass
class SideTables:
    """Fresh symbols introduced by a reduction run."""

    reified_consts: dict = field(default_factory=dict)  # alpha key -> const name
    reified_terms: dict = field(default_factory=dict)  # const name -> source term
    op_preds: dict = field(default_factory=dict)  # (op, token) -> pred name
    mod_preds: dict = field(default_factory=dict)  # (mod, base) -> pred name
    dropped_schemas: list = field(default_factory=list)

    def reified_const(self, term) -> str:
        key = alpha_key(term)
        if key not in self.reified_consts:
            name = f"obj-k{len(self.reified_consts) + 1}"
            self.reified_consts[key] = name
            self.reified_terms[name] = term
        return self.reified_consts[key]


def _close(expr, env: Mapping):
    """expr with the environment's constants put for its free variables."""
    return subst_map(expr, {v: env[v] for v in free_vars(expr) if v in env})


class Reducer:
    """Reduces formulas under an environment from each variable bound by an
    enclosing quantifier to its domain constant (see the module docstring)."""

    def __init__(self, ctx: ReductionContext, tables: Optional[SideTables] = None):
        self.ctx = ctx
        self.tables = tables if tables is not None else SideTables()
        self.consts = {c: Const(c) for c in (*ctx.domain, *ctx.worlds)}
        self.distinct = {}  # witness tuple -> conjunction of its distinctness

    # -- terms ----------------------------------------------------------------

    def term(self, t, env: Mapping):
        kind = type(t)
        if kind is Var:
            return env.get(t.name, t)
        if kind is Const:
            return t
        if kind is FunApp:
            return FunApp(t.fn, tuple([self.term(a, env) for a in t.args]))
        if kind is Ka or kind is That:
            t = _close(t, env)
            if free_vars(t):
                raise ReductionError(
                    f"reified term is open after expansion: {render(t)}"
                )
            return Const(self.tables.reified_const(t))
        raise ReductionError(f"cannot reduce term {t!r}")

    def _term_token(self, t, env: Mapping) -> str:
        reduced = self.term(t, env)
        if isinstance(reduced, Const):
            return reduced.name
        raise ReductionError(
            f"term-derived predicate argument must reduce to a constant: "
            f"{render(_close(t, env))}"
        )

    # -- formulas ---------------------------------------------------------------

    def formula(self, f: Formula, w: str, env: Mapping = _NO_ENV) -> Formula:
        kind = type(f)
        if kind is Atom:
            return self.atom(f.pred, f.args, w, env)
        if kind in _BINARY:
            return kind(self.formula(f.left, w, env), self.formula(f.right, w, env))
        if kind is Not:
            return Not(self.formula(f.body, w, env))
        if kind is RestrictedQuant:
            return self.quant(f, w, env)
        if kind is TrueF:
            return f
        if kind is Equal:
            return Equal(self.term(f.left, env), self.term(f.right, env))
        if kind is Modal:
            possibly = f.flavor == POSSIBLY
            parts = [
                (And if possibly else Implies)(
                    Atom(PredConst(ACC), (self.consts[w], self.consts[w2])),
                    self.formula(f.body, w2, env),
                )
                for w2 in self.ctx.worlds
            ]
            return disjoin(parts) if possibly else conjoin(parts)
        raise ReductionError(f"cannot reduce formula {f!r}")

    def atom(self, pred, args, w: str, env: Mapping) -> Formula:
        new_args = (
            *[env.get(a.name, a) if type(a) is Var else self.term(a, env) for a in args],
            self.consts[w],
        )
        kind = type(pred)
        if kind is PredConst:
            return Atom(pred, new_args)
        if kind is Lambda:
            if len(pred.params) != len(args):
                raise ReductionError("lambda arity mismatch")
            closed = _close(Atom(pred, args), env)
            return self.formula(
                subst_map(closed.pred.body, dict(zip(pred.params, closed.args))), w
            )
        if kind is Modified:
            if not isinstance(pred.base, PredConst):
                raise ReductionError("only modified predicate constants reduce")
            table, key = self.tables.mod_preds, (pred.modifier, pred.base.name)
        elif kind is TermDerived:
            table, key = self.tables.op_preds, (pred.op, self._term_token(pred.arg, env))
        else:
            raise ReductionError(f"cannot reduce predicate {pred!r}")
        return Atom(PredConst(table.setdefault(key, "%".join(key))), new_args)

    def quant(self, f: RestrictedQuant, w: str, env: Mapping) -> Formula:
        q = f.quant
        domain = self.ctx.domain
        plain = type(f.restrictor) is TrueF
        # Each instance's (restrictor, body) pair is built once, over the
        # whole domain in order and restrictor first, when `all` or a count
        # first needs one, so obj-kN numbering holds and a count that needs
        # no instance (at-least 0) reduces none. The members, and for `most`
        # the counterexamples, are built once from those pairs and shared.
        pairs = {}
        members = {}  # negated -> {constant: its member (counterexample) formula}

        def instances() -> dict:
            if not pairs:
                for c in domain:
                    inner = {**env, f.var: self.consts[c]}
                    pairs[c] = (
                        self.formula(f.restrictor, w, inner),
                        self.formula(f.body, w, inner),
                    )
            return pairs

        def at_least(n: int, negated: bool = False) -> Formula:
            """At least n constants are members (counterexamples: in the
            restrictor but not the body, if negated)."""
            if n == 0:
                return TrueF()
            if n > len(domain):
                return Not(TrueF())
            if comb(len(domain), n) > self.ctx.expansion_ceiling:
                raise ReductionError(
                    f"at-least {n} over {len(domain)} constants exceeds the "
                    f"expansion ceiling"
                )
            member = members.get(negated)
            if member is None:
                member = members[negated] = {}
                for c, (r, b) in instances().items():
                    b = Not(b) if negated else b
                    member[c] = b if plain else And(r, b)
            options = []
            for combo in combinations(domain, n):
                out = self._distinct(combo)
                for c in combo:
                    out = member[c] if out is None else And(out, member[c])
                options.append(out)
            return disjoin(options)

        if q.name == "all":
            return conjoin(
                [b if plain else Implies(r, b) for r, b in instances().values()]
            )
        if q.name == "some":
            return at_least(1)
        if q.name == "no":
            return Not(at_least(1))
        if q.name == "at-least":
            return at_least(q.param)
        if q.name == "at-most":
            return Not(at_least(q.param + 1))
        if q.name == "fewer-than":
            return Not(at_least(q.param))
        if q.name == "exactly":
            return And(at_least(q.param), Not(at_least(q.param + 1)))
        if q.name == "most":
            return disjoin(
                [
                    And(at_least(k + 1), Not(at_least(k + 1, negated=True)))
                    for k in range(len(domain))
                ]
            )
        raise UnknownQuantifierError(f"quantifier {q.name} is not reducible")

    def _distinct(self, combo: tuple) -> Optional[Formula]:
        """The conjunction of (not (= a b)) over the tuple's pairs, or None
        for one constant. It is built once per tuple and shared: every
        option for the tuple starts from it and folds the members onto it
        in place, as `conjoin` folds to the left."""
        if combo not in self.distinct:
            pairs = [
                Not(Equal(self.consts[a], self.consts[b]))
                for a, b in combinations(combo, 2)
            ]
            self.distinct[combo] = conjoin(pairs) if pairs else None
        return self.distinct[combo]


def reduce_formula(
    f: Formula, ctx: ReductionContext, tables: Optional[SideTables] = None
) -> Formula:
    """Classical first-order form of a closed formula, at the current world."""
    if free_vars(f):
        raise ReductionError("reduce requires a closed formula")
    return Reducer(ctx, tables).formula(f, ctx.worlds[0])


def reduced_signature(sig: Signature, ctx: ReductionContext, tables: SideTables) -> Signature:
    out = Signature()
    for name, arity in sig.predicates.items():
        out.predicates[name] = arity + 1
    out.predicates[ACC] = 2
    for key, name in tables.mod_preds.items():
        base_arity = sig.predicates.get(key[1], 0)
        out.predicates[name] = base_arity + 1
    for key, name in tables.op_preds.items():
        op_arity = sig.term_ops.get(key[0], 1)
        out.predicates[name] = op_arity + 1
    out.functions.update(sig.functions)
    out.constants |= sig.constants
    out.constants |= set(ctx.domain)
    out.constants |= set(ctx.worlds)
    out.constants |= set(tables.reified_terms)
    return out


def reduce_kb(kb: KnowledgeBase, ctx: ReductionContext):
    """Reduce a knowledge base: axioms per world, facts at the current world,
    accessibility and constant-distinctness context facts added. Schemas do
    not survive reduction; they are recorded in the side tables.

    Returns (reduced KnowledgeBase, SideTables).
    """
    tables = SideTables()
    reducer = Reducer(ctx, tables)
    out = KnowledgeBase(registry=kb.registry)
    for axiom in kb.axioms:
        for w in ctx.worlds:
            out.axioms.extend(conjuncts(reducer.formula(axiom, w)))
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


# ---------------------------------------------------------------------------
# Effort comparison


@dataclass
class RunStats:
    encoding: str
    explored: int
    proof_len: Optional[int]
    outcome: str

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class EffortReport:
    extended: RunStats
    reduced: RunStats
    ratio: Optional[float]  # reduced length / extended length, when both proved

    def render_table(self) -> str:
        rows = [("encoding", "explored", "proof_len", "outcome")]
        for s in (self.extended, self.reduced):
            length = "-" if s.proof_len is None else str(s.proof_len)
            rows.append((s.encoding, str(s.explored), length, s.outcome))
        widths = [max(len(r[i]) for r in rows) for i in range(4)]
        lines = [
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
            for row in rows
        ]
        if self.ratio is not None:
            lines.append(f"length ratio reduced:extended = {self.ratio:g}")
        return "\n".join(lines)

    def to_json_lines(self) -> str:
        dicts = (self.extended.to_dict(), self.reduced.to_dict(), {"length_ratio": self.ratio})
        return "\n".join(json.dumps(d, sort_keys=True) for d in dicts)


def _stats(encoding: str, result: ProveResult) -> RunStats:
    length = result.trace.length() if result.trace is not None else None
    return RunStats(encoding, result.explored, length, result.outcome)


def compare_effort(
    kb: KnowledgeBase,
    goal: Formula,
    ctx: ReductionContext,
    cfg: Optional[ProverConfig] = None,
    reduced_cfg: Optional[ProverConfig] = None,
):
    """Prove the goal in both encodings and report the effort.

    Returns (EffortReport, extended ProveResult, reduced ProveResult).
    """
    cfg = cfg if cfg is not None else ProverConfig()
    reduced_cfg = reduced_cfg if reduced_cfg is not None else cfg
    extended = prove(kb, goal, cfg)
    reduced_kb, tables = reduce_kb(kb, ctx)
    reduced = prove(reduced_kb, reduce_formula(goal, ctx, tables), reduced_cfg)
    ratio = None
    if extended.proved and reduced.proved:
        ext_len = extended.trace.length()
        if ext_len:
            ratio = reduced.trace.length() / ext_len
    report = EffortReport(
        _stats("extended", extended), _stats("reduced", reduced), ratio
    )
    return report, extended, reduced
