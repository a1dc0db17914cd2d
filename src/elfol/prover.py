"""Bounded backward-chaining prover with replayable traces.

Search is depth-first over a fixed rule order: facts, axioms, schemas, the
monotone-quantifier rule, then structural rules. Every successful proof is
a tree of steps whose rule applications can be re-validated against the
knowledge base (`replay`). Replay matches one way, reading the trace's
formulas as given, and shares no unifier with the search: a search bug
that binds a variable it should not shows as a step that does not
re-derive. The lexical-step count of a trace is the number of axiom and
schema applications in it.

Axioms and schema instances compile to clauses of one shape
(`_compile_axiom`): for all its variables, a clause's consequent holds
wherever its antecedents do. An implication gives one clause, a bare
formula one without antecedents, and an equivalence two rewrite clauses,
each side once the consequent with the other as its one antecedent.
`_Search._apply` proves a goal by any of them, and `forward_chain` derives
facts by the same clauses read forward. It is semi-naive: each round
matches an antecedent only against the facts of its head, and enumerates
only the joins that use a fact added since the round before. Every other
join was matched, to the same fact, in an earlier round. Schema instance
clauses are built once per schema, signature, registry and bounds.

Rules look entries up rather than scan them: a closed goal finds the
facts, hypotheses and hypothesis conjuncts equal to it by `alpha_key`, and
the facts, fact conjuncts and clauses a rule tries are those whose head
(`_head`) is the goal's. A closed goal under and, or, implies or equiv also
skips the ground clauses whose left spine key (`_spine`) differs from its
own, since a closed goal and a ground consequent unify only when they are
alpha-equivalent. `explored` counts the entries visited, and only a clause
visited takes fresh variable names.

There are no modal inference rules: modal goals are provable only through
axioms whose consequents are modal. Negative goals are provable only
through facts or axioms with negated consequents. Failure at the
configured bounds is reported distinctly from definitive failure.

A closed goal yields a later proof only if it takes fewer lexical steps
than every proof before it, and its search stops at a proof that takes
none (`_Search.solve`). A bound that its remaining rules would hit past
that proof could only cut proofs the search discards, so it does not make
the outcome `exhausted`: a search that hits no other bound reads `failed`.

A closed subgoal whose search proved nothing is tabled for the rest of the
search, and a later call that repeats it at no larger a budget is skipped
(`_Search.solve`). A failure that an ancestor check (a subgoal repeating
one on its own path) cut is not tabled, since it depends on the path.
Outcomes and proofs are those of an untabled search, and only `explored`
can differ: the fresh variables (v<N>) that a proof leaves unbound are
renamed in order (`_resolve_trace`), so no skip shows in their names.

A schema clause whose subgoal has a dead head is skipped
(`_Search._live_heads`): no fact, fact conjunct, clause, rule or schema
clause that could prove its own subgoals concludes it, except the other
side of the same equivalence, which gives the subgoal's parent goal back
and is cut by the ancestor check. Such a subgoal has no proof, so the
search order and every proof are kept; only a bound hit in its search is
lost, and the outcome reads `failed` where that bound made it `exhausted`.
Under hypotheses, or with a disjunctive fact, nothing is skipped.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from typing import Optional

from .core import (
    And,
    Atom,
    Equal,
    Equiv,
    Formula,
    FunApp,
    Implies,
    Ka,
    Lambda,
    Modal,
    Not,
    Or,
    PredConst,
    RestrictedQuant,
    Signature,
    TERM_TYPES,
    That,
    TrueF,
    Var,
    alpha_equivalent,
    alpha_key,
    children,
    conjoin,
    conjuncts,
    disjuncts,
    free_vars,
    free_vars_ordered,
    same_shape,
    shape,
    strip_universals,
    subst_map,
)
from .kb import KnowledgeBase
from .quantifiers import DOWN, UP, UnknownQuantifierError
from .schemas import (
    EnumerationCeiling,
    InstanceBounds,
    Schema,
    SchemaError,
    _Matcher,
    _MatchState,
    binding_total,
    instantiate,
    match_conclusion,
    weakening_valid,
)
from .syntax import render

PROVED = "proved"
FAILED = "failed"
EXHAUSTED = "exhausted"
REWRITE_STEPS = 3  # equivalence rewrites tried inside one monotone-quant rule


@dataclass(frozen=True)
class ProverConfig:
    max_depth: int = 8
    max_lexical_steps: int = 4
    timeout_ms: int = 10_000
    max_explored: int = 200_000

    def __post_init__(self):
        for name in ("max_depth", "max_lexical_steps", "timeout_ms", "max_explored"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class TraceNode:
    rule: str
    formula: Formula
    children: tuple = ()
    detail: str = ""

    def lexical_steps(self) -> int:
        own = 1 if self.rule in ("axiom-match", "schema-apply") else 0
        return own + sum(c.lexical_steps() for c in self.children)

    def length(self) -> int:
        """Proof length: rule applications, not counting leaf fact matches."""
        own = 0 if self.rule == "fact-match" else 1
        return own + sum(c.length() for c in self.children)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule if not self.detail else f"{self.rule}({self.detail})",
            "formula": render(self.formula),
            "lexical_steps": self.lexical_steps(),
            "children": [c.to_dict() for c in self.children],
        }

    def pretty(self, indent: int = 0) -> str:
        tag = self.rule if not self.detail else f"{self.rule}({self.detail})"
        lex = " [lex]" if self.rule in ("axiom-match", "schema-apply") else ""
        lines = ["  " * indent + f"{tag}{lex}  {render(self.formula)}"]
        for c in self.children:
            lines.append(c.pretty(indent + 1))
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


@dataclass
class ProveResult:
    outcome: str  # PROVED | FAILED | EXHAUSTED
    trace: Optional[TraceNode]
    explored: int
    elapsed_ms: float

    @property
    def proved(self) -> bool:
        return self.outcome == PROVED


# ---------------------------------------------------------------------------
# First-order unification (metavariable-free; reified terms are opaque wholes)


def walk(term, env: dict):
    while isinstance(term, Var) and term.name in env:
        term = env[term.name]
    return term


def resolve_term(term, env: dict):
    term = walk(term, env)
    if type(term) is FunApp:
        return FunApp(term.fn, tuple(resolve_term(a, env) for a in term.args))
    return term


def resolve_formula(f, env: dict):
    """f with every variable bound in env replaced by its resolved term.

    Also applies to a reified term or a lambda: substitution drops the
    entries for variables that are not free in f.
    """
    if not env:
        return f
    return subst_map(f, {v: resolve_term(Var(v), env) for v in env})


def _occurs(name: str, term, env: dict) -> bool:
    term = walk(term, env)
    if type(term) is FunApp:
        return any(_occurs(name, a, env) for a in term.args)
    return name in free_vars(term)


def _bind(name: str, term, env: dict, bound: frozenset):
    if type(term) not in TERM_TYPES or _occurs(name, term, env):
        return None
    if free_vars(resolve_term(term, env)) & bound:
        return None  # a bound variable would escape its scope
    env2 = dict(env)
    env2[name] = term
    return env2


def unify(a, b, env: Optional[dict] = None, rigid: frozenset = frozenset()):
    """Most general unifier of two terms or formulas extending env, or None.

    Reified terms unify only when alpha-equivalent (after resolution) or by
    binding a variable to the whole reified term. Quantified and lambda
    sub-structures must correspond up to bound-variable renaming. The
    variables named in rigid are bound on neither side: each unifies only
    with itself or with a variable that may be bound to it.
    """
    env = dict(env) if env else {}
    return _unify(a, b, env, {}, {}, 0, rigid)


def _unify(a, b, env, pa: dict, pb: dict, depth: int, rigid: frozenset):
    """pa and pb map the names bound by the quantifiers entered so far on
    each side to the depth of the pair that binds them, so a shadowing pair
    gets a mark of its own; depth counts the pairs entered. A bound name is
    looked up before env, which may bind a free variable of the same name."""
    if type(a) is Var and a.name in pa:
        return env if type(b) is Var and pb.get(b.name) == pa[a.name] else None
    if type(b) is Var and b.name in pb:
        return None  # bound on one side only
    # a term read through env lies outside every binder entered here
    if type(a) is Var and a.name in env:
        a, pa = walk(a, env), {}
    if type(b) is Var and b.name in env:
        b, pb = walk(b, env), {}
    if type(a) is Var and a.name not in rigid:
        if type(b) is Var and a.name == b.name:
            return env
        return _bind(a.name, b, env, frozenset(pb))
    if type(b) is Var and b.name not in rigid:
        return _bind(b.name, a, env, frozenset(pa))
    if not same_shape(a, b):
        return None
    if type(a) in (Ka, That, Lambda):
        ra = _resolve_reified(a, env, pa)
        rb = _resolve_reified(b, env, pb)
        return env if alpha_equivalent(ra, rb) else None
    if type(a) is RestrictedQuant:
        pa = {**pa, a.var: depth}
        pb = {**pb, b.var: depth}
        depth += 1
    for x, y in zip(children(a), children(b)):
        env = _unify(x, y, env, pa, pb, depth, rigid)
        if env is None:
            return None
    return env


def _resolve_reified(t, env: dict, bound: dict):
    """t resolved through env, with each name bound by an enclosing pair
    renamed to that pair's mark, so that the two sides compare by
    alpha-equivalence."""
    return subst_map(t, {
        v: Var(f"#{bound[v]}") if v in bound else resolve_term(Var(v), env)
        for v in free_vars(t)
    })


# ---------------------------------------------------------------------------
# Search machinery


class _Budget(Exception):
    pass


def _head(f: Formula):
    """What unification needs to agree on first: an atom's arity and its
    predicate's name, or else its predicate's `shape` (say a modifier or an
    operator), else the node type. Formulas whose heads differ never unify."""
    if type(f) is Atom:
        p = f.pred
        return (p.name if type(p) is PredConst else shape(p)), len(f.args)
    return type(f)


_SPINE = (And, Or, Implies, Equiv)


def _spine(f: Formula) -> tuple:
    """The node types down f's left spine through _SPINE, which bind
    nothing, and the `alpha_key` of the formula at its end: closed formulas
    with different keys are not alpha-equivalent."""
    types = ()
    while type(f) in _SPINE:
        types, f = types + (type(f),), f.left
    return types, alpha_key(f)


@dataclass
class _Clause:
    """For all vars, the consequent holds where every antecedent does. A
    rewrite clause is one direction of an equivalence: its one antecedent
    is the other side."""

    vars: tuple
    antecedents: tuple
    consequent: Formula
    label: str = ""
    rewrite: bool = False

    def __post_init__(self):
        self.head = _head(self.consequent)

    def renamed(self, ren: dict) -> "_Clause":
        if not ren:
            return self
        return _Clause(
            tuple(ren[v].name for v in self.vars),
            tuple(subst_map(a, ren) for a in self.antecedents),
            subst_map(self.consequent, ren), self.label, self.rewrite,
        )


def _splits(facts, split) -> list:
    """(fact, parts) for each fact that split cuts into two or more parts."""
    return [(f, parts) for f in facts if len(parts := split(f)) > 1]


def _by(key, entries) -> dict:
    """key(entry) -> the entries with that key, in order."""
    index = {}
    for entry in entries:
        index.setdefault(key(entry), []).append(entry)
    return index


class _Hyps:
    """The hypotheses (`extra`) a subgoal may use besides the kb facts:
    impl-intro antecedents and or-elim cases, closed, in the order added.
    What the search reads of them is built once, when one is added: the
    sorted `alpha_key`s that key the ancestor check, the (hypothesis,
    conjunct) pairs and-elim takes, and the disjunctive hypotheses or-elim
    splits. The `alpha_key` indexes for closed goals, and each extension by
    one more hypothesis, are built the first time they are asked for."""

    __slots__ = ("formulas", "keys", "pairs", "splits", "_indexes", "_added")

    def __init__(self, formulas=(), keys=(), pairs=(), splits=()):
        self.formulas = formulas
        self.keys = keys
        self.pairs = pairs
        self.splits = splits
        self._indexes = None
        self._added = {}

    def add(self, f: Formula) -> "_Hyps":
        """These hypotheses followed by f."""
        k = alpha_key(f)
        hyps = self._added.get(k)
        if hyps is None or (hyps.formulas[-1] is not f and hyps.formulas[-1] != f):
            cs, ds = conjuncts(f), disjuncts(f)
            hyps = self._added[k] = _Hyps(
                self.formulas + (f,),
                tuple(sorted(self.keys + (k,))),
                self.pairs + (tuple((f, c) for c in cs) if len(cs) > 1 else ()),
                self.splits + (((f, ds),) if len(ds) > 1 else ()),
            )
        return hyps

    def indexes(self):
        """alpha_key -> hypotheses, and alpha_key -> (hypothesis, conjunct)
        pairs of the conjunct."""
        if self._indexes is None:
            pairs = _by(lambda pair: alpha_key(pair[1]), self.pairs)
            self._indexes = _by(alpha_key, self.formulas), pairs
        return self._indexes


def _compile_axiom(axiom: Formula, label: str) -> tuple:
    """The clauses of an axiom: an implication's consequent with its
    antecedent's conjuncts, a bare matrix with none, or an equivalence's
    two rewrite clauses, the one whose consequent is the left side first."""
    vs, matrix = strip_universals(axiom)
    vs = tuple(vs)
    if isinstance(matrix, Implies):
        return (_Clause(vs, tuple(conjuncts(matrix.left)), matrix.right, label),)
    if isinstance(matrix, Equiv):
        l, r = matrix.left, matrix.right
        return (_Clause(vs, (r,), l, label, True), _Clause(vs, (l,), r, label, True))
    return (_Clause(vs, (), matrix, label),)


# the heads that the structural, monotone and reflexivity rules prove
_RULE_HEADS = frozenset((And, Or, Implies, RestrictedQuant, Equal, TrueF))


class _Search:
    def __init__(self, kb: KnowledgeBase, cfg: ProverConfig):
        self.kb = kb
        self.cfg = cfg
        self.registry = kb.registry
        self.explored = 0
        self.exhausted = False
        self.deadline = time.monotonic() + cfg.timeout_ms / 1000.0
        self.fresh_counter = 0
        compiled = [_compile_axiom(ax, f"axiom-{i + 1}") for i, ax in enumerate(kb.axioms)]
        self.clauses = [c for cs in compiled for c in cs]
        self.equivalences = [cs for cs in compiled if cs[0].rewrite]
        conjunct_pairs = [(f, c) for f, cs in _splits(kb.facts, conjuncts) for c in cs]
        # table -> head -> the entries with that head; see _same_head
        self.heads = {
            "facts": _by(_head, kb.facts),
            "conjuncts": _by(lambda pair: _head(pair[1]), conjunct_pairs),
            "axioms": _by(lambda c: c.head, [c for c in self.clauses if not c.rewrite]),
            "rewrites": _by(lambda c: c.head, [c for c in self.clauses if c.rewrite]),
        }
        self.spines = {}  # (table, spine key) -> entries; see _same_head
        self.fact_keys = {}  # alpha_key -> the facts with it, each built when first read
        self.fact_splits = _splits(kb.facts, disjuncts)
        self.live = None  # see _live_heads, built when a schema is first tried
        # (visited key, split_done) -> (lex_budget, depth, hit a bound) of a
        # closed call that proved nothing; see solve
        self.failures = {}
        self.cuts = 0  # ancestor-check cuts so far
        self.hits = 0  # depth and lexical bound cuts so far
        self.dead = 0  # schema clauses skipped for a subgoal with no live head

    def _live_heads(self) -> dict:
        """(schema, clause) -> the heads that the subgoals of that clause of
        the schema's body can have and be proved without hypotheses, where
        that is not every head. A head is live if a fact, fact conjunct,
        clause or rule (_RULE_HEADS) has it, or a live schema clause, one
        whose subgoals have heads live for it, concludes it: a least
        fixpoint. A rewrite clause does not count its other side's clause
        where that side `rematches`: matched against its instance, the side
        gives back the clause's own goal, an ancestor the ancestor check
        cuts. Or-elim on a disjunctive fact proves a goal of any head."""
        sides = {}  # (schema, clause) -> (head, subgoal heads, clause not counted)
        for k, s in enumerate(() if self.fact_splits else self.kb.schemas):
            if s.binds_backward:
                metas = {PredConst(name) for name in s.metavar_names()}
                for i, c in enumerate(_compile_axiom(s.body, s.name)):
                    heads = [None if type(f) is Atom and f.pred in metas else _head(f)
                             for f in (c.consequent, *c.antecedents)]
                    loop = c.rewrite and s.rematches(c.antecedents[0])
                    sides[k, i] = heads[0], set(heads[1:]) - {None}, (k, 1 - i) if loop else None
        base = {*self.heads["facts"], *self.heads["conjuncts"], *(c.head for c in self.clauses),
                *_RULE_HEADS}
        live, fired = {}, set()
        for _ in range(len(sides) + 1):  # fired grows until it is the fixpoint
            live = {key: base | {sides[j][0] for j in fired if j != out}
                    for key, (_, _, out) in sides.items()}
            fired = {key for key, (_, needs, _) in sides.items()
                     if None in live[key] or needs <= live[key]}
        return {key: heads for key, heads in live.items() if None not in heads}

    # -- bookkeeping --------------------------------------------------------

    def tick(self):
        """Count one entry visited; stop past max_explored or the deadline."""
        self.explored += 1
        if self.explored > self.cfg.max_explored:
            self.exhausted = True
            raise _Budget()
        if self.explored % 256 == 0 and time.monotonic() > self.deadline:
            self.exhausted = True
            raise _Budget()

    def _each(self, entries):
        """Yield each entry after ticking it, one at a time."""
        for entry in entries:
            self.tick()
            yield entry

    def _bound_hit(self):
        """The depth or lexical bound cut the search here."""
        self.exhausted = True
        self.hits += 1

    def _same_head(self, table: str, goal, closed=False):
        """Yield the entries of a table whose head is goal's, in order,
        ticking each: formulas whose heads differ never unify. The tables are
        the facts, the conjuncts of the conjunctive facts, and the clauses
        that do not rewrite and those that do. A closed goal under a
        connective skips the ground clauses whose `_spine` key differs too."""
        head = _head(goal)
        entries = self.heads[table].get(head, ())
        if closed and head in _SPINE:
            key = (table, _spine(goal))
            kept = self.spines.get(key)
            if kept is None:
                kept = self.spines[key] = [
                    c for c in entries if c.vars or _spine(c.consequent) == key[1]
                ]
            entries = kept
        return self._each(entries)

    def renaming(self, vs) -> dict:
        """A fresh name v<N> for each of vs."""
        ren = {}
        for v in vs:
            self.fresh_counter += 1
            ren[v] = Var(f"v{self.fresh_counter}")
        return ren

    # -- the solver ---------------------------------------------------------

    def solve(self, goal, env, depth, visited, extra, lex_budget, split_done):
        """Yield (env, trace, lexical_used) for each way to prove goal under
        the hypotheses extra, a `_Hyps`.

        A closed goal yields a later proof only if it takes fewer lexical
        steps than every proof before: its proofs bind only their own fresh
        variables, so one that costs no less cannot help the caller. For
        the same reason its search stops after a proof that takes no
        lexical step, and the bounds its remaining rules would hit are not
        hit. A closed call that yields nothing is tabled under its
        ancestor-check key and split_done (see the module docstring),
        unless an ancestor check cut the search below it."""
        if depth > self.cfg.max_depth:
            self._bound_hit()
            return
        goal = resolve_formula(goal, env)
        if free_vars(goal):
            yield from self._rules(goal, env, depth, visited, extra, lex_budget, split_done, False)
            return
        key = (alpha_key(goal), extra.keys)
        if key in visited:
            self.cuts += 1
            return
        visited = visited | {key}
        failed = self.failures.get((key, split_done))
        if failed is not None and self._repeats(failed, lex_budget, depth):
            return
        cuts, hits, least = self.cuts, self.hits, None
        for proof in self._rules(goal, env, depth, visited, extra, lex_budget, split_done, True):
            if least is None or proof[2] < least:
                least = proof[2]
                yield proof
                if least == 0:
                    return  # no later proof can take fewer steps
        if least is None and self.cuts == cuts:
            self.failures[key, split_done] = (lex_budget, depth, self.hits != hits)

    def _repeats(self, failed, lex_budget, depth) -> bool:
        """Whether a call at lex_budget and depth repeats the tabled failure
        failed; if so, it has the effect on exhausted that the call would
        have. A failure that hit no bound is only repeated at its own
        budgets until a bound has been hit, since with less room the call
        could hit one."""
        budget, at_depth, hit = failed
        if lex_budget > budget or depth < at_depth:
            return False
        if not (hit or self.exhausted) and (lex_budget, depth) != (budget, at_depth):
            return False
        if hit:
            self._bound_hit()
        return True

    def _rules(self, goal, env, depth, visited, extra, lex_budget, split_done, closed):
        yield from self._reflexivity(goal, env)
        yield from self._facts(goal, env, extra, closed)
        for rule in (self._axioms, self._schemas, self._monotone, self._structural):
            yield from rule(goal, env, depth, visited, extra, lex_budget, split_done, closed)

    def _reflexivity(self, goal, env):
        if isinstance(goal, Equal):
            self.tick()
            e2 = unify(goal.left, goal.right, env)
            if e2 is not None:
                yield e2, TraceNode("reflexivity", resolve_formula(goal, e2)), 0
        elif isinstance(goal, TrueF):
            self.tick()
            yield env, TraceNode("fact-match", goal, detail="true"), 0

    def _facts(self, goal, env, extra, closed):
        if closed:
            # two closed formulas unify exactly when they are alpha-equivalent
            k = alpha_key(goal)
            same = self.fact_keys.get(k)
            if same is None:  # alpha-equivalent formulas share a head
                facts = self.heads["facts"].get(_head(goal), ())
                same = self.fact_keys[k] = [f for f in facts if alpha_key(f) == k]
            for _fact in self._each(chain(same, extra.indexes()[0].get(k, ()))):
                yield dict(env), TraceNode("fact-match", goal), 0
            return
        for fact in chain(self._same_head("facts", goal), self._each(extra.formulas)):
            e2 = unify(goal, fact, env)
            if e2 is not None:
                yield e2, TraceNode("fact-match", resolve_formula(goal, e2)), 0

    def _prove_all(self, subgoals, env, depth, visited, extra, lex_budget, split_done):
        """Yield (env, traces tuple, lexical sum) proving every subgoal."""
        if not subgoals:
            yield env, (), 0
            return
        head, *rest = subgoals
        for e1, t1, l1 in self.solve(
            head, env, depth, visited, extra, lex_budget, split_done
        ):
            for e2, ts, l2 in self._prove_all(
                rest, e1, depth, visited, extra, lex_budget - l1, split_done
            ):
                yield e2, (t1,) + ts, l1 + l2

    def _apply(self, rule, c, goal, env, depth, visited, extra, lex_budget, split_done):
        """Yield each proof of goal by the renamed clause c: its consequent
        unified with goal, its antecedents proved one level deeper. A rewrite
        needs its other side closed. Every rule but equiv-rewrite costs one
        lexical step."""
        e2 = unify(c.consequent, goal, env)
        if e2 is None:
            return
        subgoals = [resolve_formula(a, e2) for a in c.antecedents]
        if c.rewrite and free_vars(subgoals[0]):
            return
        cost = 0 if rule == "equiv-rewrite" else 1
        for e3, traces, lex in self._prove_all(
            subgoals, e2, depth + 1, visited, extra, lex_budget - cost, split_done
        ):
            yield e3, TraceNode(rule, resolve_formula(goal, e3), traces, c.label), cost + lex

    def _axioms(self, goal, env, depth, visited, extra, lex_budget, split_done, closed):
        if lex_budget < 1:
            if self.clauses:
                self._bound_hit()
            return
        for clause in self._same_head("axioms", goal, closed):
            c = clause.renamed(self.renaming(clause.vars))
            yield from self._apply(
                "axiom-match", c, goal, env, depth, visited, extra, lex_budget, split_done
            )

    def _schemas(self, goal, env, depth, visited, extra, lex_budget, split_done, closed):
        if not closed:
            return
        if lex_budget < 1:
            if self.kb.schemas:
                self._bound_hit()
            return
        if self.live is None:
            self.live = self._live_heads()
        live = {} if extra.formulas else self.live
        for index, schema in enumerate(self.kb.schemas):
            if not schema.binds_backward:
                continue
            self.tick()
            for binding in match_conclusion(schema, goal, self.registry):
                meta = {k: v for k, v in binding.items() if not k.startswith("_")}
                if not binding_total(schema, meta):
                    continue  # premise-only metavariables stay open; skip
                self.tick()
                try:
                    inst = instantiate(schema, meta, self.registry)
                except SchemaError:
                    continue
                clauses = _compile_axiom(inst, schema.name)
                ren = self.renaming(clauses[0].vars)  # one set for both directions
                for i, c in enumerate(clauses):
                    heads = live.get((index, i))
                    if heads and any(_head(a) not in heads for a in c.antecedents):
                        self.dead += 1
                        continue
                    yield from self._apply(
                        "schema-apply", c.renamed(ren), goal, env, depth, visited,
                        extra, lex_budget, split_done,
                    )

    # -- monotone quantifier rule -------------------------------------------

    def _monotone(self, goal, env, depth, visited, extra, lex_budget, split_done, closed):
        if not isinstance(goal, RestrictedQuant) or not closed:
            return
        try:
            qdef = self.registry.resolve(goal.quant)
        except UnknownQuantifierError:
            return
        if qdef.right not in (UP, DOWN):
            return
        for e1, stmt_trace, lex in self._quant_statements(
            goal, env, depth, visited, extra, lex_budget, split_done
        ):
            # stmt_trace proves (quant q x R C); rewrite C until the goal body
            # relates to it by conjunct weakening in the right direction
            yield from self._monotone_close(goal, qdef, stmt_trace, e1, lex)

    def _quant_statements(self, goal, env, depth, visited, extra, lex_budget, split_done):
        """Provable statements (quant q x R C) sharing the goal's quantifier,
        variable, and restrictor; yields (env, trace, lex)."""
        q, x, restr = goal.quant, goal.var, goal.restrictor
        rigid = frozenset((x,))
        for fact in chain(self.kb.facts, extra.formulas):
            if not isinstance(fact, RestrictedQuant) or fact.quant != q:
                continue
            self.tick()
            renamed_restr = subst_map(fact.restrictor, {fact.var: Var(x)})
            renamed_body = subst_map(fact.body, {fact.var: Var(x)})
            if alpha_equivalent(renamed_restr, restr):
                stmt = RestrictedQuant(q, x, restr, renamed_body)
                yield env, TraceNode("fact-match", stmt), 0
        if lex_budget < 1:
            return
        for clause in self.clauses:
            cq = clause.consequent
            if clause.rewrite or not clause.antecedents or not (
                isinstance(cq, RestrictedQuant) and cq.quant == q
            ):
                continue
            self.tick()
            c = clause.renamed(self.renaming(clause.vars))
            cq = c.consequent
            renamed_restr = subst_map(cq.restrictor, {cq.var: Var(x)})
            renamed_body = subst_map(cq.body, {cq.var: Var(x)})
            e2 = unify(renamed_restr, restr, env, rigid)
            if e2 is None:
                continue
            subgoals = [resolve_formula(a, e2) for a in c.antecedents]
            for e3, traces, lex in self._prove_all(
                subgoals, e2, depth + 1, visited, extra, lex_budget - 1, split_done
            ):
                body = resolve_formula(renamed_body, e3)
                if free_vars(body) - {x}:
                    continue
                stmt = RestrictedQuant(q, x, restr, body)
                yield e3, TraceNode("axiom-match", stmt, traces, c.label), 1 + lex

    def _monotone_close(self, goal, qdef, stmt_trace, env, lex):
        """Search bounded equivalence rewrites of the proved statement's body
        for one the goal body follows from by conjunct weakening."""

        def related(body_c) -> bool:
            cs = conjuncts(body_c)
            if qdef.right == UP:
                return any(alpha_equivalent(goal.body, c) for c in cs)
            bs = conjuncts(goal.body)
            return any(alpha_equivalent(body_c, b) for b in bs) or alpha_equivalent(
                body_c, goal.body
            )

        frontier = [stmt_trace]
        seen = {alpha_key(stmt_trace.formula)}
        for _ in range(REWRITE_STEPS + 1):
            next_frontier = []
            for trace in frontier:
                stmt = trace.formula
                body_c = stmt.body
                if alpha_equivalent(stmt, goal):
                    if trace.rule == "equiv-rewrite":
                        # the rewrite chain alone reaches the goal; no
                        # weakening step left to take
                        yield env, trace, lex
                        return
                    continue  # the bare statement is the goal: not this rule
                if related(body_c):
                    yield env, TraceNode(
                        "monotone-quant", goal, (trace,), qdef.display
                    ), lex
                    return
                for body2, label in self._body_rewrites(body_c, goal.var):
                    stmt2 = RestrictedQuant(goal.quant, goal.var, goal.restrictor, body2)
                    k = alpha_key(stmt2)
                    if k in seen:
                        continue
                    seen.add(k)
                    next_frontier.append(
                        TraceNode("equiv-rewrite", stmt2, (trace,), label)
                    )
            frontier = next_frontier
            if not frontier:
                return

    def _body_rewrites(self, body, rigid_var):
        """One-step rewrites of a quantifier body using kb equivalences,
        applied at the whole body or one of its conjuncts."""
        cs = conjuncts(body)
        positions = [(-1, body)] + (
            [(i, c) for i, c in enumerate(cs)] if len(cs) > 1 else []
        )
        rigid = frozenset((rigid_var,))
        for pair in self.equivalences:
            for pos, sub in positions:
                for clause in pair:
                    self.tick()
                    c = clause.renamed(self.renaming(clause.vars))
                    e = unify(c.consequent, sub, {}, rigid)
                    if e is None:
                        continue
                    newsub = resolve_formula(c.antecedents[0], e)
                    if free_vars(newsub) - free_vars(sub):
                        continue
                    if pos == -1:
                        yield newsub, c.label
                    else:
                        cs2 = list(cs)
                        cs2[pos] = newsub
                        yield conjoin(cs2), c.label

    # -- structural rules ----------------------------------------------------

    def _structural(self, goal_r, env, depth, visited, extra, lex_budget, split_done, closed):
        if isinstance(goal_r, And):
            self.tick()
            parts = conjuncts(goal_r)
            for e2, traces, lex in self._prove_all(
                parts, env, depth + 1, visited, extra, lex_budget, split_done
            ):
                yield e2, TraceNode(
                    "and-intro", resolve_formula(goal_r, e2), traces
                ), lex
        # and-elim from conjunctive facts and hypotheses; closed pairs unify
        # iff alpha-equivalent
        hyp_pairs = extra.indexes()[1].get(alpha_key(goal_r), ()) if closed else extra.pairs
        for fact, c in chain(self._same_head("conjuncts", goal_r), self._each(hyp_pairs)):
            if closed and not free_vars(c):
                e2 = dict(env) if alpha_key(c) == alpha_key(goal_r) else None
            else:
                e2 = unify(goal_r, c, env)
            if e2 is not None:
                yield e2, TraceNode(
                    "and-elim",
                    resolve_formula(goal_r, e2),
                    (TraceNode("fact-match", fact),),
                ), 0
        # top-level use of equivalence axioms
        if closed:
            for clause in self._same_head("rewrites", goal_r, closed):
                c = clause.renamed(self.renaming(clause.vars))
                yield from self._apply(
                    "equiv-rewrite", c, goal_r, env, depth, visited, extra,
                    lex_budget, split_done,
                )
        if isinstance(goal_r, Or):
            for d in disjuncts(goal_r):
                self.tick()
                for e2, t1, lex in self.solve(
                    d, env, depth + 1, visited, extra, lex_budget, split_done
                ):
                    yield e2, TraceNode(
                        "or-intro", resolve_formula(goal_r, e2), (t1,)
                    ), lex
        if isinstance(goal_r, Implies) and not free_vars(goal_r.left):
            self.tick()
            for e2, t1, lex in self.solve(
                goal_r.right, env, depth + 1, visited, extra.add(goal_r.left),
                lex_budget, split_done,
            ):
                yield e2, TraceNode(
                    "impl-intro", resolve_formula(goal_r, e2), (t1,)
                ), lex
        # case analysis on disjunctive facts, last resort
        if closed:
            for fact, ds in chain(self.fact_splits, extra.splits):
                fkey = alpha_key(fact)
                if fkey in split_done:
                    continue
                self.tick()
                for traces, lex in self._cases(
                    goal_r, ds, env, depth + 1, visited, extra, lex_budget, split_done | {fkey}
                ):
                    yield env, TraceNode(
                        "or-elim", goal_r, (TraceNode("fact-match", fact),) + traces,
                        f"{len(ds)} cases",
                    ), lex

    def _cases(self, goal, cases, env, depth, visited, extra, lex_budget, split_done):
        """Yield (traces tuple, lexical sum) proving the closed goal under
        each case in turn as a hypothesis."""
        if not cases:
            yield (), 0
            return
        case, *rest = cases
        for _e1, t1, l1 in self.solve(
            goal, env, depth, visited, extra.add(case), lex_budget, split_done
        ):
            for ts, l2 in self._cases(
                goal, rest, env, depth, visited, extra, lex_budget - l1, split_done
            ):
                yield (t1,) + ts, l1 + l2


def _resolve_trace(node: TraceNode, env: dict, names=None) -> TraceNode:
    """node resolved through env, with the fresh variables it leaves free
    renamed v1, v2, ... in preorder: a proof's names do not depend on how
    many the search handed out before it."""
    f, names = resolve_formula(node.formula, env), {} if names is None else names
    if free_vars(f):
        for v in free_vars_ordered(f):
            names.setdefault(v, Var(f"v{len(names) + 1}"))
        f = subst_map(f, names)
    children = tuple(_resolve_trace(c, env, names) for c in node.children)
    return TraceNode(node.rule, f, children, node.detail)


def prove(kb: KnowledgeBase, goal: Formula, cfg: Optional[ProverConfig] = None) -> ProveResult:
    """Backward-chaining proof search for a closed goal."""
    cfg = cfg if cfg is not None else ProverConfig()
    if free_vars(goal):
        raise ValueError("prove requires a closed goal")
    search = _Search(kb, cfg)
    start = time.monotonic()
    try:
        for env, trace, lex in search.solve(
            goal, {}, 0, frozenset(), _Hyps(), cfg.max_lexical_steps, frozenset()
        ):
            elapsed = (time.monotonic() - start) * 1000
            return ProveResult(PROVED, _resolve_trace(trace, env), search.explored, elapsed)
    except _Budget:
        pass
    elapsed = (time.monotonic() - start) * 1000
    outcome = EXHAUSTED if search.exhausted else FAILED
    return ProveResult(outcome, None, search.explored, elapsed)


# ---------------------------------------------------------------------------
# Forward chaining


@dataclass
class ForwardResult:
    derived: list  # new formulas in derivation order
    steps: list  # (formula, rule, detail)
    exhausted: bool = False
    # schemas whose instances could not be enumerated at the bounds; any
    # makes the result exhausted
    skipped_schemas: list = field(default_factory=list)


def _match_new(ants, env, facts, new, fresh):
    """The envs, in naive order, under which ants unify with facts of their
    heads: those that use a new fact, or all of them if fresh. facts and
    new map a head to the round's facts and to the new ones, which end it."""
    if not ants:
        if fresh:
            yield env
        return
    head = _head(ants[0])
    fs = facts.get(head, ())
    old = len(fs) - len(new.get(head, ()))
    for i in range(0 if fresh or len(ants) > 1 else old, len(fs)):
        e2 = unify(ants[0], fs[i], env)
        if e2 is not None:
            yield from _match_new(ants[1:], e2, facts, new, fresh or i >= old)


@lru_cache(maxsize=64)
def _instance_clauses(schema, predicates, constants, registry, bounds) -> Optional[tuple]:
    """forward_chain's clauses of schema's bounded instances, or None if
    enumeration fails. Enumeration reads only these arguments, all but the
    registry compared by value, so a cached tuple (never changed) is exact."""
    from .schemas import enumerate_instances

    sig = Signature(predicates=dict(predicates), constants=set(constants))
    try:
        instances = enumerate_instances(schema, sig, registry, bounds)
    except (EnumerationCeiling, SchemaError):
        return None
    return tuple(c for k, inst in enumerate(instances)
                 for c in reversed(_compile_axiom(inst, f"{schema.name}[{k}]")))


def forward_chain(
    kb: KnowledgeBase, cfg: Optional[ProverConfig] = None, instance_bounds=None
) -> ForwardResult:
    """Saturate the fact set under single applications of axioms, bounded
    schema instances, and the monotone conjunct-dropping rule.

    A schema the monotone rule subsumes is not enumerated: for a
    `schemas.weakening_valid` schema, each (closed) fact an instance's
    premise unifies with is one the rule splits, in the same round. A schema
    whose enumeration fails at the bounds is named in `skipped_schemas`, and
    the result is exhausted. Instance clauses are compiled once per schema,
    signature (read by value at each call), registry and bounds.

    Matching is head-indexed and semi-naive (`_match_new`), and the
    monotone rule reads only new facts. What is left out uses only facts of
    the round before, and no clause is renamed, so it gave the same fact
    there and `add` would reject it: the output is the naive loop's."""
    cfg = cfg if cfg is not None else ProverConfig()
    bounds = instance_bounds or InstanceBounds(max_quant_param=2, max_formula_instances=8)
    # read forward, an equivalence rewrites its left side first, by its
    # second clause, whose one antecedent is that side
    clauses = [
        c for i, ax in enumerate(kb.axioms)
        for c in reversed(_compile_axiom(ax, f"axiom-{i + 1}"))
    ]
    skipped = []
    sig = kb.signature
    inputs = (tuple(sorted(sig.predicates.items())), frozenset(sig.constants), kb.registry, bounds)
    for schema in kb.schemas:
        if weakening_valid(schema, kb.registry):
            continue
        if (compiled := _instance_clauses(schema, *inputs)) is None:
            skipped.append(schema.name)
        else:
            clauses += compiled
    facts = list(kb.facts)
    keys = {alpha_key(f) for f in facts}
    steps = []
    exhausted = bool(skipped)

    def add(f, rule, detail) -> bool:
        k = alpha_key(f)
        if k in keys:
            return False
        keys.add(k)
        facts.append(f)
        steps.append((f, rule, detail))
        return True

    seen = 0  # facts matched in an earlier round
    for _round in range(cfg.max_depth):
        if len(facts) > cfg.max_explored:
            exhausted = True
            break
        new, seen = facts[seen:], len(facts)
        heads, new_heads = _by(_head, facts), _by(_head, new)
        changed = False
        for clause in clauses:
            rule = "equiv-rewrite" if clause.rewrite else "axiom-match"
            for env in _match_new(clause.antecedents, {}, heads, new_heads, not _round):
                derived = resolve_formula(clause.consequent, env)
                if not free_vars(derived):
                    changed |= add(derived, rule, clause.label)
        for fact in new:
            if isinstance(fact, RestrictedQuant) and not free_vars(fact):
                try:
                    qdef = kb.registry.resolve(fact.quant)
                except UnknownQuantifierError:
                    continue
                if qdef.right != UP:
                    continue
                cs = conjuncts(fact.body)
                if len(cs) < 2:
                    continue
                for c in cs:
                    reduced = RestrictedQuant(fact.quant, fact.var, fact.restrictor, c)
                    changed |= add(reduced, "monotone-quant", qdef.display)
        if not changed:
            break
    else:
        exhausted = True
    derived = facts[len(kb.facts):]
    return ForwardResult(derived, steps, exhausted, skipped)


# ---------------------------------------------------------------------------
# Trace replay


def replay(trace: TraceNode, kb: KnowledgeBase, extra=()) -> list:
    """Re-validate every step of a trace against kb; returns problems.

    A clause, schema or rewrite step is checked by one-way matching
    (`_instance`), with the trace's own free variables read as constants,
    so replay shares no unifier with the search."""
    problems: list = []
    clauses = [c for ax in kb.axioms for c in _compile_axiom(ax, "")]
    _replay(trace, kb, clauses, tuple(extra), problems)
    return problems


def _replay(
    node: TraceNode, kb: KnowledgeBase, clauses: list, extra: tuple, problems: list
) -> None:
    rule = node.rule
    f = node.formula
    premises = [c.formula for c in node.children]
    ok = False
    if rule == "fact-match":
        ok = isinstance(f, TrueF) or any(
            alpha_equivalent(f, fact) for fact in list(kb.facts) + list(extra)
        )
    elif rule == "reflexivity":
        ok = isinstance(f, Equal) and alpha_equivalent(f.left, f.right)
    elif rule == "axiom-match":
        axioms = [c for c in clauses if not c.rewrite]
        ok = _instance(_NO_METAVARS, axioms, kb.registry, f, premises)
    elif rule == "schema-apply":
        ok = any(
            _instance(s, _compile_axiom(s.body, ""), kb.registry, f, premises)
            for s in kb.schemas if s.name == node.detail
        )
    elif rule == "equiv-rewrite":
        ok = len(premises) == 1 and _replay_equiv(
            premises[0], f, [c for c in clauses if c.rewrite], kb.registry
        )
    elif rule == "monotone-quant":
        ok = _replay_monotone(node, kb)
    elif rule == "and-intro":
        ok = isinstance(f, And) and [
            alpha_key(c) for c in conjuncts(f)
        ] == [alpha_key(p) for p in premises]
    elif rule == "and-elim":
        ok = len(premises) == 1 and any(
            alpha_equivalent(f, c) for c in conjuncts(premises[0])
        )
    elif rule == "or-intro":
        ok = (
            isinstance(f, Or)
            and len(premises) == 1
            and any(alpha_equivalent(premises[0], d) for d in disjuncts(f))
        )
    elif rule == "impl-intro":
        ok = isinstance(f, Implies) and len(premises) == 1 and alpha_equivalent(
            premises[0], f.right
        )
    elif rule == "or-elim":
        ok = _replay_or_elim(node, kb, clauses, extra, problems)
        if ok:
            return  # children validated with case assumptions inside
    else:
        problems.append(f"unknown rule {rule}")
        return
    if not ok:
        problems.append(f"{rule} does not re-derive {render(f)}")
    for child in node.children:
        child_extra = extra
        if rule == "impl-intro":
            child_extra = extra + (f.left,)
        _replay(child, kb, clauses, child_extra, problems)


# axioms and rewrites are matched as the body of a schema without metavariables
_NO_METAVARS = Schema("", (), (), (), TrueF())


def _instance(schema: Schema, clauses, registry, formula, premises) -> bool:
    """Some clause of schema's body is matched one way: its consequent by
    formula, then each antecedent by the premise in its place, under one
    `_Matcher` state. The state binds the clause's variables and schema's
    metavariables, and the premises' free variables are read as constants."""
    for c in clauses:
        if len(c.antecedents) != len(premises):
            continue
        matcher = _Matcher(schema, registry, c.vars)
        states = matcher.match(c.consequent, formula, _MatchState())
        for a, p in zip(c.antecedents, premises):
            states = [s2 for s in states for s2 in matcher.match(a, p, s)]
        if states:
            return True
    return False


# node types that replay descends into to find the one rewritten subformula
_REWRITE_INSIDE = (And, Or, Implies, Equiv, Not, Modal, RestrictedQuant)


def _replay_equiv(source: Formula, target: Formula, rewrites: list, registry) -> bool:
    """target is source with one subformula rewritten by one of the rewrite
    clauses of the kb's equivalences: its consequent matches the part of
    source and its antecedent the part of target. A variable that a
    quantifier binds above the part is free in it, and so is read as a
    constant."""

    def diff(a, b) -> bool:
        if alpha_equivalent(a, b):
            return False
        if _instance(_NO_METAVARS, rewrites, registry, a, (b,)):
            return True
        if type(a) not in _REWRITE_INSIDE or not same_shape(a, b):
            return False
        xs, ys = children(a), children(b)
        if type(a) is RestrictedQuant:
            ys = [subst_map(y, {b.var: Var(a.var)}) for y in ys]
        changed = [
            (x, y) for x, y in zip(xs, ys) if not alpha_equivalent(x, y)
        ]
        return len(changed) == 1 and diff(*changed[0])

    return diff(source, target)


def _replay_monotone(node: TraceNode, kb: KnowledgeBase) -> bool:
    f = node.formula
    if not isinstance(f, RestrictedQuant) or len(node.children) != 1:
        return False
    src = node.children[0].formula
    if not isinstance(src, RestrictedQuant) or src.quant != f.quant:
        return False
    if not alpha_equivalent(
        RestrictedQuant(f.quant, f.var, f.restrictor, TrueF()),
        RestrictedQuant(src.quant, src.var, src.restrictor, TrueF()),
    ):
        return False
    try:
        qdef = kb.registry.resolve(f.quant)
    except UnknownQuantifierError:
        return False
    src_body = subst_map(src.body, {src.var: Var(f.var)})
    if qdef.right == UP:
        return any(alpha_equivalent(f.body, c) for c in conjuncts(src_body))
    if qdef.right == DOWN:
        return any(alpha_equivalent(src_body, c) for c in conjuncts(f.body))
    return False


def _replay_or_elim(
    node: TraceNode, kb: KnowledgeBase, clauses: list, extra, problems
) -> bool:
    if len(node.children) < 2:
        return False
    fact_node = node.children[0]
    _replay(fact_node, kb, clauses, extra, problems)
    ds = disjuncts(fact_node.formula)
    cases = node.children[1:]
    if len(ds) != len(cases):
        return False
    for d, case in zip(ds, cases):
        if not alpha_equivalent(case.formula, node.formula):
            return False
        _replay(case, kb, clauses, extra + (d,), problems)
    return True
