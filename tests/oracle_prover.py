"""The backward search without its failure table, kept as the differential
oracle for `elfol.prover.prove`.

Its rules are the search's: the same rule order, the same or-elim, which
backtracks into its cases, and the same cut, by which a closed goal yields
a later proof only if it takes fewer lexical steps than every proof before
and stops after one that takes none. A bound past that stop is not hit, so
it does not make the outcome `exhausted`.
What it lacks is what only saves work. It tries every closed subgoal in
full each time it comes up, where `elfol.prover._Search` skips a call that
repeats an earlier complete failure at no larger a budget. It also keeps
`extra` as a plain tuple, re-splits it on every call and sorts its
`alpha_key`s for every closed goal, where the search reads the hypotheses
through `_Hyps`; and it tries every clause of the goal's head and ticks
every schema, where the search skips the ground clauses whose spine key
differs from a closed goal's and the schemas that can never bind backward.
On every input both must give the same outcome and a byte-identical
`trace.to_json()`, and `elfol.prover.prove` must explore no more entries
than this one.
"""

from __future__ import annotations

import time
from itertools import chain
from typing import Optional

from elfol.core import (
    And,
    Equal,
    Formula,
    Implies,
    Or,
    RestrictedQuant,
    TrueF,
    Var,
    alpha_equivalent,
    alpha_key,
    conjoin,
    conjuncts,
    disjuncts,
    free_vars,
    subst_map,
)
from elfol.kb import KnowledgeBase
from elfol.prover import (
    EXHAUSTED,
    FAILED,
    PROVED,
    ProveResult,
    ProverConfig,
    TraceNode,
    _Budget,
    _by,
    _compile_axiom,
    _head,
    _resolve_trace,
    resolve_formula,
    unify,
)
from elfol.quantifiers import DOWN, UP, UnknownQuantifierError
from elfol.schemas import binding_total, instantiate, match_conclusion, SchemaError


def _splits(facts, split) -> list:
    """(fact, parts) for each fact that split cuts into two or more parts."""
    return [(f, parts) for f in facts if len(parts := split(f)) > 1]



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
        self.fact_keys = _by(alpha_key, kb.facts)
        self.fact_splits = _splits(kb.facts, disjuncts)

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

    def _same_head(self, table: str, head):
        """Yield the entries of a table whose head is head, in order, ticking
        each: formulas whose heads differ never unify."""
        return self._each(self.heads[table].get(head, ()))

    def renaming(self, vs) -> dict:
        """A fresh name v<N> for each of vs."""
        ren = {}
        for v in vs:
            self.fresh_counter += 1
            ren[v] = Var(f"v{self.fresh_counter}")
        return ren

    # -- the solver ---------------------------------------------------------

    def solve(self, goal, env, depth, visited, extra, lex_budget, split_done):
        """Yield (env, trace, lexical_used) for each way to prove goal; a
        closed goal yields a later proof only if it takes fewer lexical
        steps than every proof before, and none after one that takes no
        lexical step."""
        if depth > self.cfg.max_depth:
            self.exhausted = True
            return
        goal = resolve_formula(goal, env)
        if free_vars(goal):
            yield from self._rules(goal, env, depth, visited, extra, lex_budget, split_done)
            return
        key = (alpha_key(goal), tuple(sorted(alpha_key(f) for f in extra)))
        if key in visited:
            return
        visited = visited | {key}
        least = None
        for proof in self._rules(goal, env, depth, visited, extra, lex_budget, split_done):
            if least is None or proof[2] < least:
                least = proof[2]
                yield proof
                if least == 0:
                    return

    def _rules(self, goal, env, depth, visited, extra, lex_budget, split_done):
        closed = not free_vars(goal)
        yield from self._reflexivity(goal, env)
        yield from self._facts(goal, env, extra, closed)
        yield from self._axioms(goal, env, depth, visited, extra, lex_budget, split_done)
        yield from self._schemas(goal, env, depth, visited, extra, lex_budget, split_done)
        yield from self._monotone(goal, env, depth, visited, extra, lex_budget, split_done)
        yield from self._structural(goal, env, depth, visited, extra, lex_budget, split_done)

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
            for _fact in self._each(self.fact_keys.get(alpha_key(goal), ())):
                yield dict(env), TraceNode("fact-match", goal), 0
            kb_facts = ()
        else:
            kb_facts = self._same_head("facts", _head(goal))
        for fact in chain(kb_facts, self._each(extra)):
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

    def _axioms(self, goal, env, depth, visited, extra, lex_budget, split_done):
        if lex_budget < 1:
            if self.clauses:
                self.exhausted = True
            return
        for clause in self._same_head("axioms", _head(goal)):
            c = clause.renamed(self.renaming(clause.vars))
            yield from self._apply(
                "axiom-match", c, goal, env, depth, visited, extra, lex_budget, split_done
            )

    def _schemas(self, goal, env, depth, visited, extra, lex_budget, split_done):
        if free_vars(goal):
            return
        if lex_budget < 1:
            if self.kb.schemas:
                self.exhausted = True
            return
        for schema in self.kb.schemas:
            self.tick()
            for binding in match_conclusion(schema, goal, self.registry):
                meta = {
                    k: v for k, v in binding.items() if not k.startswith("_")
                }
                if not binding_total(schema, meta):
                    continue  # premise-only metavariables stay open; skip
                self.tick()
                try:
                    inst = instantiate(schema, meta, self.registry)
                except SchemaError:
                    continue
                clauses = _compile_axiom(inst, schema.name)
                ren = self.renaming(clauses[0].vars)  # one set for both directions
                for c in clauses:
                    yield from self._apply(
                        "schema-apply", c.renamed(ren), goal, env, depth, visited,
                        extra, lex_budget, split_done,
                    )

    # -- monotone quantifier rule -------------------------------------------

    def _monotone(self, goal, env, depth, visited, extra, lex_budget, split_done):
        goal = resolve_formula(goal, env)
        if not isinstance(goal, RestrictedQuant) or free_vars(goal):
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
            yield from self._monotone_close(
                goal, qdef, stmt_trace, e1, lex, depth
            )

    def _quant_statements(self, goal, env, depth, visited, extra, lex_budget, split_done):
        """Provable statements (quant q x R C) sharing the goal's quantifier,
        variable, and restrictor; yields (env, trace, lex)."""
        q, x, restr = goal.quant, goal.var, goal.restrictor
        rigid = frozenset((x,))
        for fact in list(self.kb.facts) + list(extra):
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

    def _monotone_close(self, goal, qdef, stmt_trace, env, lex, depth):
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
        for _ in range(self.cfg.rewrite_steps + 1):
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

    def _structural(self, goal, env, depth, visited, extra, lex_budget, split_done):
        goal_r = resolve_formula(goal, env)
        closed = not free_vars(goal_r)
        if isinstance(goal_r, And):
            self.tick()
            parts = conjuncts(goal_r)
            for e2, traces, lex in self._prove_all(
                parts, env, depth + 1, visited, extra, lex_budget, split_done
            ):
                yield e2, TraceNode(
                    "and-intro", resolve_formula(goal_r, e2), traces
                ), lex
        # and-elim from conjunctive facts; closed pairs unify iff alpha-equivalent
        for fact, c in chain(
            self._same_head("conjuncts", _head(goal_r)),
            self._each((f, c) for f, cs in _splits(extra, conjuncts) for c in cs),
        ):
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
            for clause in self._same_head("rewrites", _head(goal_r)):
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
                goal_r.right, env, depth + 1, visited, extra + (goal_r.left,),
                lex_budget, split_done,
            ):
                yield e2, TraceNode(
                    "impl-intro", resolve_formula(goal_r, e2), (t1,)
                ), lex
        # case analysis on disjunctive facts, last resort
        if closed:
            for fact, ds in chain(self.fact_splits, _splits(extra, disjuncts)):
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
            goal, env, depth, visited, extra + (case,), lex_budget, split_done
        ):
            for ts, l2 in self._cases(
                goal, rest, env, depth, visited, extra, lex_budget - l1, split_done
            ):
                yield (t1,) + ts, l1 + l2



def prove(kb: KnowledgeBase, goal: Formula, cfg: Optional[ProverConfig] = None) -> ProveResult:
    """Backward-chaining proof search for a closed goal."""
    cfg = cfg if cfg is not None else ProverConfig()
    if free_vars(goal):
        raise ValueError("prove requires a closed goal")
    search = _Search(kb, cfg)
    start = time.monotonic()
    try:
        for env, trace, lex in search.solve(
            goal, {}, 0, frozenset(), (), cfg.max_lexical_steps, frozenset()
        ):
            elapsed = (time.monotonic() - start) * 1000
            return ProveResult(PROVED, _resolve_trace(trace, env), search.explored, elapsed)
    except _Budget:
        pass
    elapsed = (time.monotonic() - start) * 1000
    outcome = EXHAUSTED if search.exhausted else FAILED
    return ProveResult(outcome, None, search.explored, elapsed)
