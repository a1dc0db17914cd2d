"""Finite possible-worlds models and a total evaluator.

A model has a nonempty finite set of worlds with a designated current world,
an arbitrary accessibility relation, a constant domain of individuals (some
of which may be denotations of reified expressions), and a world-indexed
interpretation of predicates, modifiers, and term-derived operators.
Constants and functions are rigid (world-independent).

Reified terms denote through an injective table keyed by the term's
alpha-equivalence class together with the values of its free variables; a
missing entry rejects the model for that formula rather than defaulting to
false.

`enumerate_models` and `find_counterexample` drive bounded validity
checking by exhaustive search over small signatures. Both read one search,
`_models`, which keeps a single model for each size and updates it in
place: depth first, it assigns each extension, then each constant, on the
way down and puts it back on backtrack. `enumerate_models` yields a fresh
copy of each model it reaches; `find_counterexample` evaluates the formula
on the model itself and copies out only the countermodel it returns.

The search visits only canonical models: a model is canonical when it
comes first in `enumerate_models` order among all the models that
permuting its domain gives. Permuting the domain changes neither whether a
function-free formula is true at w0 nor whether evaluating it raises, since
quantifiers only count and atoms and equations are preserved under the
permutation. So the models that falsify a formula or raise on it are
closed under domain permutations, and the first of them in the full order
comes first in its own orbit: it is canonical, and the canonical search
meets it after the same non-falsifying models, less their non-canonical
ones. It returns the same countermodel, or raises the same error, as a
search of every model.

The search also skips each prefix of the canonical order whose every
completion satisfies the formula, found by monotonicity. Each predicate
occurrence is marked by polarity (negation and the left side of an
implication flip the mark, an equivalence is read as two implications, and
a quantifier passes the mark to its restrictor and body through its left
and right profiles, a `none` entry erasing it), and each negative
occurrence of P is renamed to a fresh P⁻ (P's name followed by ` -`,
which the parser cannot produce). The renamed formula grows with
each P and shrinks with each P⁻, so if it is true with each unassigned P
read as ∅ and each unassigned P⁻ as every tuple, the formula is true in
every completion. The searched model holds each P⁻ beside its P, so the
renamed formula is evaluated on it as it stands at the prefix. No prefix
is skipped while a predicate with an unmarked occurrence is unassigned,
nor for a formula that could raise (one with a constant, or a quantifier
the registry cannot resolve). So only subtrees without a countermodel are
skipped, in an unchanged order: the first countermodel, and every error,
stay the same.

Where it can prune, `find_counterexample` searches each size with the
predicates in a prune-first order: those with an unmarked occurrence, then
those that occur with both marks, then those with one mark, each group in
name order. With the predicates that decide the formula assigned first, the
polarity test closes prefixes sooner than in name order, where a dropped
conjunct's predicate may come before the kept one's. Where that search
meets a countermodel and the two orders differ, the size is searched again
in name order, for its first countermodel. The answer is unchanged: whether
a countermodel of a size exists does not depend on the order, since in any
order the canonical search keeps one model of each orbit and skips only
prefixes without a countermodel, and a formula that can be pruned cannot
raise. The ceiling is checked in name order before the search, so its error
names the predicates in the same order as before.

`first_failure` checks each schema by building each bounded instance with
`instantiate`, in `enumerate_bindings` order, and compiling it as it would
an axiom. The instance ceiling is checked when the schema is reached. The
instances of a `schemas.weakening_valid` schema, a conjunct dropped under a
right-up quantifier, hold at every world of every model by monotonicity;
when no instance can raise either, `first_failure` checks only the ceiling
there, since none of them can be its answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import permutations, product
from math import factorial
from typing import Optional

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
    alpha_key,
    conjuncts,
    free_vars,
    free_vars_ordered,
    map_children,
    nodes,
)
from .quantifiers import (
    DEFAULT_REGISTRY,
    DOWN,
    UP,
    QuantRegistry,
    UnknownQuantifierError,
)
from .schemas import (
    InstanceBounds,
    Schema,
    enumerate_bindings,
    instantiate,
    weakening_valid,
)


class EvalError(Exception):
    """The model cannot interpret the formula (not a truth value)."""


class ModelRejection(EvalError):
    """The model lacks a required reified-term denotation."""


@dataclass
class IntensionalModel:
    worlds: tuple  # world names; worlds[0] is the current world
    accessibility: frozenset  # pairs (w, w')
    domain: tuple  # individuals
    constants: dict = field(default_factory=dict)  # name -> individual
    predicates: dict = field(default_factory=dict)  # (name, world) -> set of tuples
    functions: dict = field(default_factory=dict)  # name -> (table dict, default)
    modifiers: dict = field(default_factory=dict)  # (mod, pred, world) -> set of tuples
    term_ops: dict = field(default_factory=dict)  # (op, individual, world) -> set
    reified: dict = field(default_factory=dict)  # (alpha key, env values) -> individual
    reified_individuals: frozenset = frozenset()
    reified_sources: dict = field(default_factory=dict)  # key -> source Term (closed)

    @property
    def w0(self):
        return self.worlds[0]


_EMPTY: frozenset = frozenset()


def reified_key(term, env: dict, names: Optional[list] = None) -> tuple:
    """(term's alpha key, the values in env of its free variables); names,
    if given, is free_vars_ordered(term)."""
    if names is None:
        names = free_vars_ordered(term)
    return (alpha_key(term), tuple([env[n] for n in names]))


def eval_formula(
    m: IntensionalModel,
    w,
    env: dict,
    f: Formula,
    registry: Optional[QuantRegistry] = None,
) -> bool:
    return compile_formula(f, registry)(m, w, env)


# ---------------------------------------------------------------------------
# The compiled evaluator
#
# A term compiles to fn(m, env) and a formula to fn(m, w, env), once per
# node, so evaluating the same formula at many worlds or in many models
# dispatches on node types only once. Compiling never raises an evaluation
# error: each error is raised by the closure of the node that meets it, in
# the order a walk over the tree would meet it (arguments left to right and
# before the predicate; `and`/`or`/`implies` short-circuit; the body of a
# quantifier only where its restrictor holds). A quantifier is resolved in
# the registry on its first evaluation and kept by its closure. A
# quantifier whose restrictor and body are each `true`, a monadic atom
# (P ?x) over its own variable, or a conjunction of these, cannot raise: it
# counts |A∩B| and |A\B| as intersections of the domain's 1-tuples with the
# extensions, calling no closure per individual. Any other quantifier reads
# the guard (`_guard`) of its restrictor, or of its `implies` body's left
# side, once per evaluation, and skips that part at each individual it excludes.


def _raises(message: str):
    def fail(*_):
        raise EvalError(message)

    return fail


def compile_term(term):
    """fn(m, env) -> the individual that term denotes in m under env."""
    match term:
        case Var(name):
            def var(m, env):
                try:
                    return env[name]
                except KeyError:
                    raise EvalError(f"unbound variable ?{name}") from None

            return var
        case Const(name):
            def const(m, env):
                try:
                    return m.constants[name]
                except KeyError:
                    raise EvalError(f"uninterpreted constant {name}") from None

            return const
        case FunApp(fn, args):
            args = _compile_args(args)

            def funapp(m, env):
                vals = args(m, env)
                entry = m.functions.get(fn)
                if entry is None:
                    raise EvalError(f"uninterpreted function {fn}")
                table, default = entry
                return table.get(vals, default)

            return funapp
        case Ka(_) | That(_):
            names = None  # term's free-variable order, found on first use

            def reified(m, env):
                nonlocal names
                if names is None:
                    names = free_vars_ordered(term)
                key = reified_key(term, env, names)
                try:
                    return m.reified[key]
                except KeyError:
                    raise ModelRejection(
                        f"no denotation for reified term class {key[0]}"
                    ) from None

            return reified
    return _raises(f"not a term: {term!r}")


def _compile_args(args):
    """fn(m, env) -> the tuple of the values of args, left to right."""
    fns = [compile_term(a) for a in args]
    return lambda m, env: tuple([fn(m, env) for fn in fns])


def compile_formula(f: Formula, registry: Optional[QuantRegistry] = None):
    """fn(m, w, env) -> the truth of f at world w of m under env."""
    registry = registry if registry is not None else DEFAULT_REGISTRY

    def part(g):
        return compile_formula(g, registry)

    match f:
        case TrueF():
            return lambda m, w, env: True
        case Atom(pred, args):
            return _compile_atom(pred, args, registry)
        case Equal(l, r):
            l, r = compile_term(l), compile_term(r)
            return lambda m, w, env: l(m, env) == r(m, env)
        case Not(body):
            body = part(body)
            return lambda m, w, env: not body(m, w, env)
        case And(l, r):
            l, r = part(l), part(r)
            return lambda m, w, env: l(m, w, env) and r(m, w, env)
        case Or(l, r):
            l, r = part(l), part(r)
            return lambda m, w, env: l(m, w, env) or r(m, w, env)
        case Implies(l, r):
            l, r = part(l), part(r)
            return lambda m, w, env: not l(m, w, env) or r(m, w, env)
        case Equiv(l, r):
            l, r = part(l), part(r)
            return lambda m, w, env: l(m, w, env) == r(m, w, env)
        case RestrictedQuant(qref, var, restrictor, body):
            return _compile_quant(qref, var, restrictor, body, registry)
        case Modal(flavor, body):
            body = part(body)
            if flavor == POSSIBLY:
                return lambda m, w, env: any(
                    (w, w2) in m.accessibility and body(m, w2, env)
                    for w2 in m.worlds
                )
            if flavor == NECESSARILY:
                return lambda m, w, env: all(
                    (w, w2) not in m.accessibility or body(m, w2, env)
                    for w2 in m.worlds
                )
            return _raises(f"unknown modal flavor {flavor}")
    return _raises(f"not a formula: {f!r}")


def _compile_atom(pred, args, registry):
    # a monadic atom (P ?x), the most common atom in model checking, reads
    # ?x and P's extension without building its argument tuple through
    # compiled terms
    if isinstance(pred, PredConst) and len(args) == 1 and isinstance(args[0], Var):
        name, x = pred.name, args[0].name

        def monadic(m, w, env):
            try:
                val = env[x]
            except KeyError:
                raise EvalError(f"unbound variable ?{x}") from None
            return (val,) in m.predicates.get((name, w), _EMPTY)

        return monadic
    args = _compile_args(args)
    match pred:
        case PredConst(name):
            return lambda m, w, env: args(m, env) in m.predicates.get((name, w), _EMPTY)
        case Lambda(params, body):
            body = compile_formula(body, registry)

            def lam(m, w, env):
                vals = args(m, env)
                if len(params) != len(vals):
                    raise EvalError("lambda arity mismatch")
                env2 = dict(env)
                env2.update(zip(params, vals))
                return body(m, w, env2)

            return lam
        case Modified(modifier, base):
            def modified(m, w, env):
                vals = args(m, env)
                if not isinstance(base, PredConst):
                    raise EvalError(
                        "modifiers apply to predicate constants in models"
                    )
                return vals in m.modifiers.get((modifier, base.name, w), _EMPTY)

            return modified
        case TermDerived(op, arg):
            arg = compile_term(arg)

            def derived(m, w, env):
                vals = args(m, env)
                return vals in m.term_ops.get((op, arg(m, env), w), _EMPTY)

            return derived
    message = f"not a predicate expression: {pred!r}"

    def unknown(m, w, env):
        args(m, env)
        raise EvalError(message)

    return unknown


def _compile_quant(qref, var, restrictor, body, registry):
    sorts = _sorts(restrictor, var), _sorts(body, var)
    # members(m, w, env2) yields the individuals the restrictor admits, each
    # bound to var in env2 before the body runs; a restrictor of the shapes
    # counted as sets cannot raise, so they are read off the extensions, and
    # any other is evaluated lazily, between body evaluations, where its guard admits
    if sorts[0] is not None:
        def members(m, w, env2):
            a = m.domain
            for p in sorts[0]:
                ext = m.predicates.get((p, w), _EMPTY)
                a = [d for d in a if (d,) in ext]
            return a
    else:
        admits = _guard(restrictor, var)
        restrictor = compile_formula(restrictor, registry)

        def members(m, w, env2):
            cands = admits(m, w, env2) if admits else None
            for d in m.domain if cands is None else [d for d in m.domain if d in cands]:
                env2[var] = d
                if restrictor(m, w, env2):
                    yield d

    # an individual the body's guard does not admit makes the body true
    guarded = _guard(body.left, var) if type(body) is Implies else None
    body = compile_formula(body, registry)

    def count(m, w, env, truth):
        n_ab = n_anb = 0
        env2 = dict(env)
        cands = guarded(m, w, env) if guarded else None
        for d in members(m, w, env2):
            if cands is None or d in cands:
                env2[var] = d
                if not body(m, w, env2):
                    n_anb += 1
                    continue
            n_ab += 1
        return truth(n_ab, n_anb)

    if None not in sorts:
        loop, (restricting, holding) = count, sorts
        seen = None, None  # the last domain counted (a tuple) and its 1-tuples

        # no stray tuple meets the domain's 1-tuples; a domain that lists
        # an individual twice is counted by the loop
        def count(m, w, env, truth):
            nonlocal seen
            if seen[0] is not m.domain:
                seen = m.domain, frozenset(zip(m.domain))
            a = seen[1]
            if len(a) != len(m.domain):
                return loop(m, w, env, truth)
            get = m.predicates.get
            for p in restricting:
                a = a.intersection(get((p, w), _EMPTY))
            ab = a
            for p in holding:
                ab = ab.intersection(get((p, w), _EMPTY))
            return truth(len(ab), len(a) - len(ab))

    truth = None  # the quantifier's truth condition, resolved on first use

    def quant(m, w, env):
        nonlocal truth
        if truth is None:
            truth = _truth(registry, qref)
        return count(m, w, env, truth)

    return quant


def _sorts(f, var) -> Optional[tuple]:
    """The predicates of f if it is `true`, a monadic atom (P ?var) over a
    predicate constant, or a conjunction of these; else None."""
    if type(f) is And:
        left, right = _sorts(f.left, var), _sorts(f.right, var)
        return None if None in (left, right) else left + right
    if type(f) is Atom and type(f.pred) is PredConst and f.args == (Var(var),):
        return (f.pred.name,)
    return () if type(f) is TrueF else None


def _guard(f, var):
    """fn(m, w, env) -> the set of individuals d at which f may hold with var
    bound to d, or None for all; None if f has no guard, its first conjunct
    that mentions var, where it and each conjunct before it apply a predicate
    constant to variables. Bound, these cannot raise, and f is false at each
    d they exclude. fn reads the guard's extension at w once, as `in` does:
    ∅ if an earlier conjunct is false, None if env lacks one of their variables."""
    leading = []
    for c in conjuncts(f):
        if not (type(c) is Atom and type(c.pred) is PredConst
                and all(type(a) is Var for a in c.args)):
            return None
        names = tuple(a.name for a in c.args)
        if var in names:
            break
        leading.append((c.pred.name, names))
    else:
        return None
    pred, n, k = c.pred.name, len(names), names.index(var)
    at = [i for i, x in enumerate(names) if x == var]

    def admits(m, w, env):
        get = m.predicates.get
        try:
            fixed = [(i, env[x]) for i, x in enumerate(names) if x != var]
            if not all(tuple([env[x] for x in xs]) in get((p, w), _EMPTY) for p, xs in leading):
                return _EMPTY
        except KeyError:
            return None
        return {t[k] for t in get((pred, w), _EMPTY) if len(t) == n
                and all(t[i] == v for i, v in fixed) and all(t[i] == t[k] for i in at)}

    return admits


def _truth(registry, ref):
    try:
        return registry.resolve(ref).truth
    except UnknownQuantifierError as e:
        raise EvalError(str(e)) from None


# ---------------------------------------------------------------------------
# Knowledge-base satisfaction


def first_failure(
    m: IntensionalModel, kb, bounds: Optional[InstanceBounds] = None
) -> Optional[tuple]:
    """The first of kb's formulas that m falsifies, as (kind, formula,
    world) with kind "axiom", "schema-instance" or "fact"; None if m
    satisfies kb, under kb's registry. Axioms come first, then each
    schema's bounded instances, then the facts; an axiom or instance is
    tried at every world in order, a fact at the current world only. Each
    schema instance is built and compiled in enumerate_bindings' order. A
    `weakening_valid` schema whose instances cannot raise is only checked
    against the instance ceiling: each of its instances holds at every
    world of every model.

    Raises EvalError, before anything is evaluated, if a predicate or
    function of kb's signature has a tuple or argument list in m whose
    length is not its declared arity."""
    registry, sig = kb.registry, kb.signature
    shapes = [
        (f"predicate {name} at world {w} has a tuple", sig.predicates.get(name), ext)
        for (name, w), ext in m.predicates.items()
    ] + [
        (f"function {name} has an argument list", sig.functions.get(name), table)
        for name, (table, _) in m.functions.items()
    ]
    for what, arity, tuples in shapes:
        wrong = sorted({len(t) for t in tuples} - {arity})
        if arity is not None and wrong:
            raise EvalError(f"{what} of length {wrong[0]}, not its declared arity {arity}")
    for axiom in kb.axioms:
        holds = compile_formula(axiom, registry)
        for w in m.worlds:
            if not holds(m, w, {}):
                return "axiom", axiom, w
    for schema in kb.schemas:
        bindings = enumerate_bindings(schema, sig, registry, bounds)
        if weakening_valid(schema, registry) and _total(schema.body, registry, schema):
            continue
        for binding in bindings:
            inst = instantiate(schema, binding, registry)
            holds = compile_formula(inst, registry)
            for w in m.worlds:
                if not holds(m, w, {}):
                    return "schema-instance", inst, w
    for fact in kb.facts:
        if not compile_formula(fact, registry)(m, m.w0, {}):
            return "fact", fact, m.w0
    return None


# the nodes whose evaluation raises nothing of its own
_TOTAL = (Var, PredConst, TrueF, Atom, Equal, Not, And, Or, Implies, Equiv)


def _total(node, registry, schema: Optional[Schema] = None) -> bool:
    """Whether evaluating node (with schema, each instance of node, a part
    of schema's body) can never raise, at any world of any model, with its
    free variables bound: each atom applies a predicate constant or
    predicate metavariable to variables, each quantifier resolves or is a
    quantifier metavariable, and each modality is known; no constant,
    function, reified term or formula metavariable occurs."""
    formula_metas = schema.formula_metavars if schema else ()
    quant_metas = schema.quant_constraints if schema else ()
    for n in nodes(node):
        kind = type(n)
        if kind is RestrictedQuant:
            if not (n.quant.name in quant_metas or registry.known(n.quant)):
                return False
        elif kind is Modal:
            if n.flavor not in (POSSIBLY, NECESSARILY):
                return False
        elif kind not in _TOTAL or kind is PredConst and n.name in formula_metas:
            return False
    return True


def model_satisfies(
    m: IntensionalModel, kb, bounds: Optional[InstanceBounds] = None
) -> bool:
    """True iff every axiom and every bounded schema instance holds at every
    world, and every fact holds at the current world."""
    return first_failure(m, kb, bounds) is None


# ---------------------------------------------------------------------------
# Bounded enumeration


class EnumerationError(Exception):
    pass


@dataclass(frozen=True)
class SearchBounds:
    max_domain: int = 4
    max_worlds: int = 1
    ceiling: int = 2_000_000


def model_count(domain_size, world_count, predicates, constants) -> int:
    count = 2 ** (world_count * world_count)
    for _, arity in predicates:
        count *= 2 ** ((domain_size ** arity) * world_count)
    count *= domain_size ** len(constants)
    return count


def _checked_count(domain_size, world_count, predicates, constants, ceiling) -> int:
    """model_count, or EnumerationError if it exceeds the ceiling."""
    count = model_count(domain_size, world_count, predicates, constants)
    if count > ceiling:
        parts = [f"2^{world_count * world_count}"]
        for name, arity in predicates:
            parts.append(f"2^({domain_size}^{arity}*{world_count})")
        if constants:
            parts.append(f"{domain_size}^{len(constants)}")
        raise EnumerationError(
            f"model count {' * '.join(parts)} = {count} exceeds ceiling {ceiling}"
        )
    return count


def enumerate_models(
    domain_size: int,
    world_count: int,
    predicates,
    constants=(),
    ceiling: int = 2_000_000,
    *,
    canonical: bool = False,
    settled=None,
):
    """Every model with exactly these sizes over the given predicate list,
    in a fixed deterministic order, each a fresh object; with
    canonical=True, only the models that come first in that order among
    their images under permutations of the domain, in the same order. The
    ceiling applies to the full count in both modes.

    The order is the lexicographic order of (accessibility, the extension
    of each (predicate, world) in predicate-list then world order, the
    value of each constant), each read as an index: a set as the bit mask
    of its members in `product(domain, repeat=arity)` order, a constant as
    its individual's position in the domain.

    settled, if given, is `_settled`'s answer for a formula over these
    predicates: no model is yielded that completes a prefix at which the
    formula holds in every completion by polarity."""
    predicates = tuple(predicates)
    for m in _models(
        domain_size, world_count, predicates, tuple(constants), ceiling, canonical, settled
    ):
        yield _copy(m, predicates)


def _copy(m: IntensionalModel, predicates: tuple) -> IntensionalModel:
    """A fresh copy of `_models`' model, without the P + _NEGATIVE twins."""
    return IntensionalModel(
        worlds=m.worlds,
        accessibility=m.accessibility,
        domain=m.domain,
        constants=dict(m.constants),
        predicates={(name, w): m.predicates[name, w] for name, _ in predicates for w in m.worlds},
    )


def _models(domain_size, world_count, predicates, constants, ceiling, canonical, settled):
    """Yield one model, updated in place, as each model enumerate_models
    yields in turn.

    Depth first over the positions, each (predicate, world) extension then
    each constant, each holding a bit mask over the tuples of one arity: an
    extension any subset, a constant a single individual (the mask 1 << i
    for domain[i], so masks keep the domain's order). A prefix carries the
    permutations that leave it unchanged (its stabilizer in the group). A
    next value v is dropped, with every completion, as soon as one of them
    maps v to a smaller value, since that permutation maps each completion
    to an earlier model. An open extension P is empty, and with settled its
    twin P + _NEGATIVE, assigned along with P, holds every tuple."""
    count = _checked_count(domain_size, world_count, predicates, constants, ceiling)
    worlds = tuple(f"w{i}" for i in range(world_count))
    domain = tuple(f"d{i}" for i in range(domain_size))
    m = IntensionalModel(worlds=worlds, accessibility=frozenset(), domain=domain)
    exts = m.predicates
    # without settled every predicate counts as unmarked, so no prefix is tested
    polar, rank = settled if settled is not None else (None, {p: 0 for p, _ in predicates})
    subsets = {}  # arity -> the frozenset of each mask's tuples, by mask
    slots = []  # per position: (arity, the dict and key it sets, the key's
    # P + _NEGATIVE twin or None, its masks in increasing order, their values)
    first_test = 0  # the shortest prefix that leaves only marked predicates open
    for name, arity in predicates:
        if arity not in subsets:
            subsets[arity] = _all_subsets(tuple(product(domain, repeat=arity)))
        masks = range(len(subsets[arity]))
        for w in worlds:
            exts[name, w] = _EMPTY
            twin = None
            if polar is not None:
                twin = name + _NEGATIVE, w
                exts[twin] = subsets[arity][-1]
            if not rank[name]:
                first_test = len(slots) + 1
            slots.append((arity, exts, (name, w), twin, masks, subsets[arity]))
    n_ext = len(slots)
    tested = range(first_test, n_ext)  # the lengths of the prefixes tested
    singletons = [1 << i for i in range(domain_size)]
    individual = dict(zip(singletons, domain))
    slots += [(1, m.constants, c, None, singletons, individual) for c in constants]
    # never use more permutations than there are models to save
    used = canonical and factorial(domain_size) <= count
    images = {a: _mask_images(domain_size, a, used) for a in {s[0] for s in slots}}
    group = range(factorial(domain_size) - 1 if used else 0)  # all but identity
    n, w0 = len(slots), worlds[0]
    for acc in _all_subsets(tuple(product(worlds, repeat=2))):
        m.accessibility = acc
        if n == 0:
            yield m
            continue
        if 0 in tested and polar(m, w0, {}):
            continue
        # per position on the path: its masks not yet tried, and the
        # stabilizer of the prefix before it
        stack = [(iter(slots[0][4]), group)]
        while stack:
            i = len(stack) - 1
            rest, stabilizer = stack[-1]
            arity, table, key, twin, _, value = slots[i]
            lo, hi, half = images[arity]
            low = (1 << half) - 1
            for v in rest:
                a, b = v & low, v >> half
                fixed = []
                for p in stabilizer:
                    u = lo[p][a] | hi[p][b]
                    if u < v:
                        break
                    if u == v:
                        fixed.append(p)
                else:
                    table[key] = value[v]
                    if twin:
                        exts[twin] = value[v]
                    if i + 1 == n:
                        yield m
                    elif not (i + 1 in tested and polar(m, w0, {})):
                        stack.append((iter(slots[i + 1][4]), fixed))
                        break
            else:
                # the last mask, every tuple, is fixed by every permutation,
                # so a twin ends its loop holding every tuple again
                if i < n_ext:
                    table[key] = _EMPTY
                stack.pop()


def _all_subsets(items: tuple) -> list:
    """The frozenset of items[i] for each i whose bit is set in mask, for
    each mask from 0 to 2**len(items) - 1."""
    subsets = [()]
    for item in items:
        subsets += [s + (item,) for s in subsets]
    return [frozenset(s) for s in subsets]


@cache
def _mask_images(domain_size: int, arity: int, used: bool) -> tuple:
    """(lo, hi, half): with group the permutations of range(domain_size)
    but the identity, or none unless used, the image of a mask over
    product(range(domain_size), repeat=arity) under group[p] is
    lo[p][m & low] | hi[p][m >> half], with low = 2**half - 1. Two
    half-width tables per permutation stay small where one full table
    (2**(n**arity) entries) would not. Built once per key, and only read."""
    tuples = list(product(range(domain_size), repeat=arity))
    index = {t: i for i, t in enumerate(tuples)}
    half = (len(tuples) + 1) // 2
    lo, hi = [], []
    for perm in list(permutations(range(domain_size)))[1:] if used else ():
        targets = [index[tuple([perm[x] for x in t])] for t in tuples]
        lo.append(_bit_images(targets[:half]))
        hi.append(_bit_images(targets[half:]))
    return tuple(lo), tuple(hi), half


def _bit_images(targets: list) -> tuple:
    """Per mask over len(targets) bits, the mask with bit i moved to bit
    targets[i]."""
    table = [0]
    for t in targets:
        bit = 1 << t
        table += [m | bit for m in table]
    return tuple(table)


# the nodes formula_vocabulary passes over
_ENUMERABLE = (Var, PredConst, TrueF, Equal, Not, And, Or, Implies, Equiv, RestrictedQuant, Modal)


def formula_vocabulary(f: Formula):
    """(predicates, constants) mentioned by a formula; raises if the formula
    uses constructs outside the enumerable fragment."""
    preds: dict = {}
    consts: list = []
    for node in nodes(f):
        if isinstance(node, Atom):
            if not isinstance(node.pred, PredConst):
                raise EnumerationError(
                    "model enumeration covers predicate-constant atoms only"
                )
            name, arity = node.pred.name, len(node.args)
            if preds.get(name, arity) != arity:
                raise EnumerationError(f"predicate {name} used at mixed arities")
            preds[name] = arity
        elif isinstance(node, Const):
            if node.name not in consts:
                consts.append(node.name)
        elif isinstance(node, (FunApp, Ka, That)):
            raise EnumerationError(
                "model enumeration covers function-free formulas only"
            )
        elif not isinstance(node, _ENUMERABLE):
            raise EnumerationError(f"unsupported node {node!r}")
    return tuple(sorted(preds.items())), tuple(consts)


def find_counterexample(
    f: Formula,
    bounds: Optional[SearchBounds] = None,
    registry: Optional[QuantRegistry] = None,
) -> Optional[IntensionalModel]:
    """First enumerated model falsifying the closed formula f at the current
    world, or None if f holds in every model within bounds. Only canonical
    models are visited, and a prefix whose every completion satisfies f by
    polarity is not completed. Where polarity can prune, each size is
    searched in `_settled`'s prune-first order, and again in name order only
    if the two orders differ and the first search meets a countermodel. The
    module docstring says why the answer is the same as a search of every
    model's."""
    bounds = bounds if bounds is not None else SearchBounds()
    preds, consts = _search_vocabulary(f, bounds)
    registry = registry if registry is not None else DEFAULT_REGISTRY
    holds = compile_formula(f, registry)
    settled = _settled(f, preds, consts, registry)
    order = preds if settled is None else tuple(sorted(preds, key=lambda p: settled[1][p[0]]))
    for world_count in range(1, bounds.max_worlds + 1):
        for domain_size in range(1, bounds.max_domain + 1):
            # the ceiling error names preds in name order
            _checked_count(domain_size, world_count, preds, consts, bounds.ceiling)
            size = domain_size, world_count
            for m in _models(*size, order, consts, bounds.ceiling, True, settled):
                if not holds(m, m.w0, {}):
                    if order != preds:
                        # a countermodel of this size exists in any order;
                        # the name order's first is the answer
                        m = next(m for m in _models(
                            *size, preds, consts, bounds.ceiling, True, settled
                        ) if not holds(m, m.w0, {}))
                    return _copy(m, preds)
    return None


# appended to a predicate's name to mark its negative occurrences; no parsed
# name holds a space
_NEGATIVE = " -"
_SIGN = {UP: 1, DOWN: -1}  # a profile entry's effect on a mark; none: 0


def _polarize(f: Formula, registry) -> tuple:
    """(f with equivalences read as two implications and each negative
    occurrence of a predicate P renamed to P + _NEGATIVE, the names of the
    predicates with an occurrence that has no mark, the names of those with
    both a positive and a negative occurrence). Negation and the left
    side of an implication flip the mark; a quantifier's restrictor and
    body take it through the quantifier's left and right profile entries,
    `up` keeping it, `down` flipping it and `none` erasing it. f must be
    `_total`, so every quantifier resolves."""
    marked = {0: set(), 1: set(), -1: set()}  # mark -> the names with an occurrence of it

    def walk(node, sign):
        kind = type(node)
        if kind is Atom:
            marked[sign].add(node.pred.name)
            if sign < 0:
                return Atom(PredConst(node.pred.name + _NEGATIVE), node.args)
            return node
        if kind is Not:
            return Not(walk(node.body, -sign))
        if kind is Implies:
            return Implies(walk(node.left, -sign), walk(node.right, sign))
        if kind is Equiv:
            l, r = node.left, node.right
            return And(
                Implies(walk(l, -sign), walk(r, sign)),
                Implies(walk(r, -sign), walk(l, sign)),
            )
        if kind is RestrictedQuant:
            q = registry.resolve(node.quant)
            return RestrictedQuant(
                node.quant,
                node.var,
                walk(node.restrictor, sign * _SIGN.get(q.left, 0)),
                walk(node.body, sign * _SIGN.get(q.right, 0)),
            )
        return map_children(node, lambda child: walk(child, sign))

    polar = walk(f, 1)
    return polar, marked[0], marked[1] & marked[-1]


def _settled(f: Formula, preds: tuple, consts: tuple, registry):
    """enumerate_models' settled argument for a search for a countermodel
    to f: (the polarized f compiled, each predicate's rank: 0 with an
    unmarked occurrence, else 1 with both marks, else 2); or None where
    polarity cannot prune: f names a constant or could raise, the search
    has constants or names a predicate twice, or every predicate has an
    unmarked occurrence. Sorted by rank, preds are in prune-first order.

    f, polarized, is increasing in each predicate P and decreasing in each
    P + _NEGATIVE. So at a prefix, with an unassigned P read as the empty
    set and an unassigned P + _NEGATIVE as every tuple, the polarized f is
    true only if f is true in every completion."""
    arity = dict(preds)
    if consts or len(arity) != len(preds) or not _total(f, registry):
        return None
    polar, unmarked, mixed = _polarize(f, registry)
    if arity.keys() <= unmarked:
        return None
    rank = {p: 0 if p in unmarked else 1 if p in mixed else 2 for p in arity}
    return compile_formula(polar, registry), rank


def check_search_size(f: Formula, bounds: Optional[SearchBounds] = None) -> None:
    """Raise now, before any model is built, the error that
    find_counterexample(f, bounds) raises if no countermodel comes first:
    a bad formula or bound, or the ceiling error of the first size, in its
    order, whose model count is over the ceiling."""
    bounds = bounds if bounds is not None else SearchBounds()
    preds, consts = _search_vocabulary(f, bounds)
    for world_count in range(1, bounds.max_worlds + 1):
        for domain_size in range(1, bounds.max_domain + 1):
            _checked_count(domain_size, world_count, preds, consts, bounds.ceiling)


def _search_vocabulary(f: Formula, bounds: SearchBounds) -> tuple:
    """(predicates, constants) a search for a countermodel to f ranges
    over; raises on an open formula or an empty bound."""
    if free_vars(f):
        raise ValueError("find_counterexample requires a closed formula")
    for name, value in (
        ("max_domain", bounds.max_domain), ("max_worlds", bounds.max_worlds)
    ):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    return formula_vocabulary(f)


# ---------------------------------------------------------------------------
# Textual model format (dump is re-parsable)


# section -> (IntensionalModel field, key symbols before the world, whether
# a world's entry groups its tuples by individual); a key is the key symbols,
# then the individual if grouped, then the world
_WORLD_SECTIONS = {
    "pred": ("predicates", 1, False),
    "mod": ("modifiers", 2, False),
    "op": ("term_ops", 1, True),
}


def _dump_tuples(ext) -> str:
    return "".join(" (" + " ".join(str(x) for x in t) + ")" for t in sorted(ext))


def _dump_world_section(m: IntensionalModel, section: str) -> list:
    """One line per key of the section, with an entry for every world."""
    field_name, n_keys, by_individual = _WORLD_SECTIONS[section]
    table = getattr(m, field_name)
    lines = []
    for key in sorted({k[:n_keys] for k in table}):
        chunks = []
        for w in m.worlds:
            if by_individual:
                inner = "".join(
                    f" ({ind}{_dump_tuples(ext)})"
                    for ind, ext in sorted(
                        (k[n_keys], tuple(sorted(ext)))
                        for k, ext in table.items()
                        if k[:n_keys] == key and k[-1] == w
                    )
                )
            else:
                inner = _dump_tuples(table.get(key + (w,), ()))
            chunks.append(f"({w}{inner})")
        lines.append(f"  ({section} {' '.join(key)} " + " ".join(chunks) + ")")
    return lines


def dump_model(m: IntensionalModel) -> str:
    """Stable, diffable s-expression listing of a model."""
    from .syntax import render

    lines = ["(model", "  (worlds " + " ".join(m.worlds) + ")"]
    lines.append("  (acc" + "".join(f" ({a} {b})" for a, b in sorted(m.accessibility)) + ")")
    lines.append("  (domain " + " ".join(str(d) for d in m.domain) + ")")
    if m.reified_individuals:
        listed = [d for d in m.domain if d in m.reified_individuals]
        lines.append("  (reified-domain " + " ".join(str(d) for d in listed) + ")")
    lines += [f"  (const {name} {m.constants[name]})" for name in sorted(m.constants)]
    lines += _dump_world_section(m, "pred")
    for fn in sorted(m.functions):
        table, default = m.functions[fn]
        entries = "".join(
            " ((" + " ".join(str(x) for x in args) + f") {val})"
            for args, val in sorted(table.items())
        )
        lines.append(f"  (fn {fn} (default {default}){entries})")
    lines += _dump_world_section(m, "mod") + _dump_world_section(m, "op")
    for key in sorted(m.reified_sources, key=lambda k: (k[0], str(k[1]))):
        if key[1] == () and key in m.reified:
            lines.append(f"  (reify {render(m.reified_sources[key])} {m.reified[key]})")
    lines.append(")")
    return "\n".join(lines)


def parse_model(text: str) -> IntensionalModel:
    """Parse the model file format used by the eval subcommand.

    Reified entries are written with the surface term, e.g.
    ``(reify (ka city) r0)``. Every world and individual the model uses must
    be declared, once, in its worlds and domain sections. Each section but
    acc, each constant, function, function entry and reified term, and each
    pred, mod or op key at a world is given once; the tuples of one pred,
    mod or op key, and the arguments of one function, have one length.
    """
    from . import syntax

    p = syntax.Parser(text)
    p.expect("(")
    head = p.expect_symbol("model")
    if head.text != "model":
        p.fail("expected (model ...)", span=p.span(head))
    lists: dict = {"worlds": [], "domain": [], "reified-domain": []}  # tokens
    acc: list = []  # (the entry's "(", its worlds)
    tables: dict = {f: {} for f in ("constants", "predicates", "functions",
                                    "modifiers", "term_ops", "reified", "reified_sources")}
    uses: list = []  # (token, "world" or "individual"), checked at the end
    late: list = []  # (token, message) of repeats and length clashes, checked last
    lengths: dict = {}  # (section, name) -> the length of its first tuple

    def opens():  # the next token if it is a "(", consumed; else None
        if p.at("("):
            return p.next()

    def symbols(use=None) -> list:
        out = []
        while p.at("symbol") or p.at("int"):
            out.append(p.next())
        p.expect(")")
        uses.extend((tok, use) for tok in out if use)
        return out

    def names(use="individual") -> tuple:
        return tuple(tok.text for tok in symbols(use))

    def name(use=None):  # the token
        tok = p.expect_symbol("world" if use == "world" else "name")
        if use:
            uses.append((tok, use))
        return tok

    def once(seen, key, tok, what: str) -> None:
        if key in seen:
            late.append((tok, f"{what} declared twice"))

    def sized(start, section: str, label: str, t: tuple) -> tuple:
        n = lengths.setdefault((section, label), len(t))
        if len(t) != n:
            message = f"{section} {label!r} has a tuple of length {len(t)}, not {n}"
            late.append((start, message))
        return t

    def tuple_list(section: str, label: str) -> frozenset:
        return frozenset(sized(start, section, label, names()) for start in iter(opens, None))

    def world_entry(table: dict, section: str, label: str, key: tuple, tok) -> None:
        once(table, key, tok, f"{section} {' '.join(key[:-1])!r} at world {key[-1]!r}")
        table[key] = tuple_list(section, label)

    given: set = set()  # the sections of lists read so far
    while opens():
        kind_tok = p.expect_symbol("model section")
        kind = kind_tok.text
        if kind in lists:
            once(given, kind, kind_tok, f"section {kind!r}")
            given.add(kind)
            lists[kind] = symbols("individual" if kind == "reified-domain" else None)
        elif kind == "acc":
            acc += [(start, names("world")) for start in iter(opens, None)]
            p.expect(")")
        elif kind == "const":
            const = name()
            once(tables["constants"], const.text, const, f"constant {const.text!r}")
            tables["constants"][const.text] = name("individual").text
            p.expect(")")
        elif kind in _WORLD_SECTIONS:
            field_name, n_keys, by_individual = _WORLD_SECTIONS[kind]
            table = tables[field_name]
            key = tuple(name().text for _ in range(n_keys))
            label = " ".join(key)
            while opens():
                w = name("world")
                if by_individual:
                    while opens():
                        ind = name("individual")
                        world_entry(table, kind, label, key + (ind.text, w.text), ind)
                        p.expect(")")
                else:
                    world_entry(table, kind, label, key + (w.text,), w)
                p.expect(")")
            p.expect(")")
        elif kind == "fn":
            fn = name()
            once(tables["functions"], fn.text, fn, f"function {fn.text!r}")
            fn_table: dict = {}  # argument tuple or "default" -> individual
            while start := opens():
                if p.peek() is not None and p.peek().text == "default":
                    key = p.next().text
                else:
                    key = sized(p.expect("("), "fn", fn.text, names())
                entry = key if key == "default" else "(" + " ".join(key) + ")"
                once(fn_table, key, start, f"function {fn.text!r} entry {entry!r}")
                fn_table[key] = name("individual").text
                p.expect(")")
            default = fn_table.pop("default", None)
            if default is None:
                p.fail(f"function {fn.text} needs a (default ...) entry")
            tables["functions"][fn.text] = (fn_table, default)
            p.expect(")")
        elif kind == "reify":
            start = p.peek()
            term = p.term()
            ind = name("individual").text
            if free_vars(term):
                p.fail("a reified term in a model must be closed", span=p.span(start))
            key = reified_key(term, {})
            once(tables["reified"], key, start, f"reified term {syntax.render(term)!r}")
            tables["reified"][key] = ind
            tables["reified_sources"][key] = term
            p.expect(")")
        else:
            p.fail(f"unknown model section {kind!r}")
    p.expect(")")
    if not p.at_end():
        p.fail("trailing input after model")
    worlds, domain, reified_dom = ([t.text for t in lists[k]] for k in lists)
    if not worlds:
        raise EnumerationError("model needs at least one world")
    if not domain:
        raise EnumerationError("model needs a nonempty domain")
    if len(set(tables["reified"].values())) != len(tables["reified"]):
        raise EnumerationError(
            "reified denotation must be injective on term classes"
        )
    for start, pair in acc:
        if len(pair) != 2:
            p.fail(f"an acc entry is a pair of worlds, found {len(pair)}", span=p.span(start))
    for section, what in (("worlds", "world"), ("domain", "individual")):
        for i, tok in enumerate(lists[section]):
            if tok.text in (t.text for t in lists[section][:i]):
                p.fail(f"{what} {tok.text!r} declared twice", span=p.span(tok))
    declared = {"world": set(worlds), "individual": set(domain)}
    for tok, what in uses:
        if tok.text not in declared[what]:
            p.fail(f"undeclared {what} {tok.text!r}", span=p.span(tok))
    if late:
        tok, message = late[0]
        p.fail(message, span=p.span(tok))
    return IntensionalModel(
        worlds=tuple(worlds),
        accessibility=frozenset(pair for _, pair in acc),
        domain=tuple(domain),
        reified_individuals=frozenset(reified_dom),
        **tables,
    )
