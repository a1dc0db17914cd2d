"""Reference forward chaining: `prover.forward_chain` as it was before it
skipped the schemas that its monotone rule subsumes. It builds every
bounded instance of every schema and tries each as a clause, so the
differential tests can check that skipping changes no derived fact."""

from __future__ import annotations

from typing import Optional

from elfol.core import RestrictedQuant, alpha_key, conjuncts, free_vars
from elfol.kb import KnowledgeBase
from elfol.prover import (
    ForwardResult,
    ProverConfig,
    _compile_axiom,
    _match_conjuncts,
    resolve_formula,
    unify,
)
from elfol.quantifiers import UP, UnknownQuantifierError


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
        _compile_axiom(ax, f"axiom-{i + 1}") for i, ax in enumerate(kb.axioms)
    ]
    for si, schema in enumerate(kb.schemas):
        try:
            for k, inst in enumerate(
                enumerate_instances(schema, kb.signature, kb.registry, bounds)
            ):
                clauses.append(_compile_axiom(inst, f"{schema.name}[{k}]"))
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
            if clause.kind == "bare":
                if not free_vars(clause.consequent):
                    changed |= add(clause.consequent, "axiom-match", clause.label)
                continue
            if clause.kind == "impl":
                for env in _match_conjuncts(list(clause.antecedents), {}, snapshot):
                    derived = resolve_formula(clause.consequent, env)
                    if not free_vars(derived):
                        changed |= add(derived, "axiom-match", clause.label)
            else:
                for src, dst in (
                    (clause.left, clause.right),
                    (clause.right, clause.left),
                ):
                    for fact in snapshot:
                        env = unify(src, fact, {})
                        if env is None:
                            continue
                        derived = resolve_formula(dst, env)
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
