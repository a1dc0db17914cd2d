"""The tree-walking evaluator, kept as the differential oracle for the
compiled one in `elfol.models`.

Every call re-dispatches on the node type; `models.compile_formula` must
give the same value, or raise the same exception type with the same
message, on every formula, model, world and environment.

`first_failure` is the instance-by-instance check that `models.first_failure`
must agree with: it builds every bounded schema instance and compiles each
one on its own.
"""

from __future__ import annotations

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
    NECESSARILY,
    Not,
    Or,
    POSSIBLY,
    PredConst,
    RestrictedQuant,
    TermDerived,
    That,
    TrueF,
    Var,
)
from elfol.models import (
    _EMPTY,
    EvalError,
    IntensionalModel,
    ModelRejection,
    compile_formula,
    reified_key,
)
from elfol.quantifiers import DEFAULT_REGISTRY, QuantRegistry, UnknownQuantifierError
from elfol.schemas import InstanceBounds, enumerate_instances


def eval_term(m: IntensionalModel, env: dict, term):
    match term:
        case Var(name):
            try:
                return env[name]
            except KeyError:
                raise EvalError(f"unbound variable ?{name}") from None
        case Const(name):
            try:
                return m.constants[name]
            except KeyError:
                raise EvalError(f"uninterpreted constant {name}") from None
        case FunApp(fn, args):
            vals = tuple(eval_term(m, env, a) for a in args)
            entry = m.functions.get(fn)
            if entry is None:
                raise EvalError(f"uninterpreted function {fn}")
            table, default = entry
            return table.get(vals, default)
        case Ka(_) | That(_):
            key = reified_key(term, env)
            try:
                return m.reified[key]
            except KeyError:
                raise ModelRejection(
                    f"no denotation for reified term class {key[0]}"
                ) from None
    raise EvalError(f"not a term: {term!r}")


def _atom_holds(m, w, env, pred, vals, registry) -> bool:
    match pred:
        case PredConst(name):
            return vals in m.predicates.get((name, w), frozenset())
        case Lambda(params, body):
            if len(params) != len(vals):
                raise EvalError("lambda arity mismatch")
            env2 = dict(env)
            env2.update(zip(params, vals))
            return eval_formula(m, w, env2, body, registry)
        case Modified(modifier, base):
            if not isinstance(base, PredConst):
                raise EvalError(
                    "modifiers apply to predicate constants in models"
                )
            return vals in m.modifiers.get((modifier, base.name, w), _EMPTY)
        case TermDerived(op, arg):
            ind = eval_term(m, env, arg)
            return vals in m.term_ops.get((op, ind, w), _EMPTY)
    raise EvalError(f"not a predicate expression: {pred!r}")


def eval_formula(
    m: IntensionalModel,
    w,
    env: dict,
    f: Formula,
    registry: Optional[QuantRegistry] = None,
) -> bool:
    registry = registry if registry is not None else DEFAULT_REGISTRY
    match f:
        case TrueF():
            return True
        case Atom(pred, args):
            vals = tuple(eval_term(m, env, a) for a in args)
            return _atom_holds(m, w, env, pred, vals, registry)
        case Equal(l, r):
            return eval_term(m, env, l) == eval_term(m, env, r)
        case Not(body):
            return not eval_formula(m, w, env, body, registry)
        case And(l, r):
            return eval_formula(m, w, env, l, registry) and eval_formula(
                m, w, env, r, registry
            )
        case Or(l, r):
            return eval_formula(m, w, env, l, registry) or eval_formula(
                m, w, env, r, registry
            )
        case Implies(l, r):
            return not eval_formula(m, w, env, l, registry) or eval_formula(
                m, w, env, r, registry
            )
        case Equiv(l, r):
            return eval_formula(m, w, env, l, registry) == eval_formula(
                m, w, env, r, registry
            )
        case RestrictedQuant(qref, var, restrictor, body):
            try:
                q = registry.resolve(qref)
            except UnknownQuantifierError as e:
                raise EvalError(str(e)) from None
            n_ab = 0
            n_anb = 0
            env2 = dict(env)
            for d in m.domain:
                env2[var] = d
                if eval_formula(m, w, env2, restrictor, registry):
                    if eval_formula(m, w, env2, body, registry):
                        n_ab += 1
                    else:
                        n_anb += 1
            return q.truth(n_ab, n_anb)
        case Modal(flavor, body):
            if flavor == POSSIBLY:
                return any(
                    (w, w2) in m.accessibility
                    and eval_formula(m, w2, env, body, registry)
                    for w2 in m.worlds
                )
            if flavor == NECESSARILY:
                return all(
                    (w, w2) not in m.accessibility
                    or eval_formula(m, w2, env, body, registry)
                    for w2 in m.worlds
                )
            raise EvalError(f"unknown modal flavor {flavor}")
    raise EvalError(f"not a formula: {f!r}")


def first_failure(
    m: IntensionalModel,
    kb,
    registry: Optional[QuantRegistry] = None,
    bounds: Optional[InstanceBounds] = None,
) -> Optional[tuple]:
    registry = registry if registry is not None else getattr(
        kb, "registry", DEFAULT_REGISTRY
    )
    for axiom in kb.axioms:
        holds = compile_formula(axiom, registry)
        for w in m.worlds:
            if not holds(m, w, {}):
                return "axiom", axiom, w
    for schema in kb.schemas:
        for inst in enumerate_instances(schema, kb.signature, registry, bounds):
            holds = compile_formula(inst, registry)
            for w in m.worlds:
                if not holds(m, w, {}):
                    return "schema-instance", inst, w
    for fact in kb.facts:
        if not compile_formula(fact, registry)(m, m.w0, {}):
            return "fact", fact, m.w0
    return None
