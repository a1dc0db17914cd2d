"""Reference forward chaining: `prover.forward_chain` as it was before it
skipped the schemas that its monotone rule subsumes, and before it matched
by head and only joins that use a new fact. It builds every bounded
instance of every schema, tries each as a clause, and matches every
antecedent against every fact of every round, so the differential tests
can check that skipping and semi-naive matching change no derived fact."""

from __future__ import annotations

from typing import Optional

from elfol.core import RestrictedQuant, alpha_key, conjuncts, free_vars
from elfol.kb import KnowledgeBase
from elfol.prover import (
    ForwardResult,
    ProverConfig,
    _compile_axiom,
    resolve_formula,
    unify,
)
from elfol.quantifiers import UP, UnknownQuantifierError


def match_conjuncts(ants, env, facts):
    """Every env under which ants unify, in order, with facts: each
    antecedent is tried against the whole snapshot, in its order."""
    if not ants:
        yield env
        return
    head, *rest = ants
    for fact in facts:
        e2 = unify(head, fact, env)
        if e2 is not None:
            yield from match_conjuncts(rest, e2, facts)


def forward_chain(
    kb: KnowledgeBase, cfg: Optional[ProverConfig] = None, instance_bounds=None
) -> ForwardResult:
    """Saturate the fact set under single applications of axioms, bounded
    schema instances, and the monotone conjunct-dropping rule."""
    from elfol.schemas import InstanceBounds, enumerate_instances

    cfg = cfg if cfg is not None else ProverConfig()
    bounds = instance_bounds if instance_bounds is not None else InstanceBounds(
        max_quant_param=2, max_formula_instances=8
    )
    clauses = [
        c for i, ax in enumerate(kb.axioms) for c in _compile_axiom(ax, f"axiom-{i + 1}")
    ]
    for si, schema in enumerate(kb.schemas):
        try:
            for k, inst in enumerate(
                enumerate_instances(schema, kb.signature, kb.registry, bounds)
            ):
                clauses.extend(_compile_axiom(inst, f"{schema.name}[{k}]"))
        except Exception:
            continue
    facts = list(kb.facts)
    keys = {alpha_key(f) for f in facts}
    steps = []
    exhausted = False

    def add(f, rule, detail) -> bool:
        k = alpha_key(f)
        if k in keys:
            return False
        keys.add(k)
        facts.append(f)
        steps.append((f, rule, detail))
        return True

    for _round in range(cfg.max_depth):
        if len(facts) > cfg.max_explored:
            exhausted = True
            break
        snapshot = list(facts)
        changed = False
        for clause in clauses:
            if not clause.rewrite and not clause.antecedents:
                if not free_vars(clause.consequent):
                    changed |= add(clause.consequent, "axiom-match", clause.label)
                continue
            if not clause.rewrite:
                for env in match_conjuncts(list(clause.antecedents), {}, snapshot):
                    derived = resolve_formula(clause.consequent, env)
                    if not free_vars(derived):
                        changed |= add(derived, "axiom-match", clause.label)
            else:
                # an equivalence's rewrite clauses come left side first, and
                # each rewrites its consequent side into its antecedent
                for fact in snapshot:
                    env = unify(clause.consequent, fact, {})
                    if env is None:
                        continue
                    derived = resolve_formula(clause.antecedents[0], env)
                    if not free_vars(derived):
                        changed |= add(derived, "equiv-rewrite", clause.label)
        for fact in snapshot:
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
    return ForwardResult(derived, steps, exhausted)
