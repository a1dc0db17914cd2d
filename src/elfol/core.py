"""Abstract syntax for the extended first-order language.

Terms, predicate expressions, and formulas are immutable dataclasses.
Beyond plain FOL the language has restricted quantifiers with arbitrary
quantifier symbols, possibility/necessity operators, predicate modifiers,
operators that turn terms into predicates, and two reifying term
constructors: ``ka`` (predicate to individual) and ``that`` (sentence to
individual).

Structural operations (well-formedness, free variables, capture-avoiding
substitution, alpha-equivalence) live here as pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Union, get_args

# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class FunApp:
    fn: str
    args: tuple


@dataclass(frozen=True)
class Ka:
    """Reifies a monadic predicate expression into an individual term."""

    pred: "PredExpr"


@dataclass(frozen=True)
class That:
    """Reifies a sentence into an individual term."""

    body: "Formula"


Term = Union[Var, Const, FunApp, Ka, That]
TERM_TYPES = get_args(Term)

# ---------------------------------------------------------------------------
# Predicate expressions


@dataclass(frozen=True)
class PredConst:
    name: str


@dataclass(frozen=True)
class Lambda:
    params: tuple
    body: "Formula"


@dataclass(frozen=True)
class Modified:
    """A modifier applied to a predicate expression, e.g. (mod sounds reasonable)."""

    modifier: str
    base: "PredExpr"


@dataclass(frozen=True)
class TermDerived:
    """A declared operator turning a term into a predicate, e.g. (do t)."""

    op: str
    arg: Term


PredExpr = Union[PredConst, Lambda, Modified, TermDerived]

# ---------------------------------------------------------------------------
# Formulas


@dataclass(frozen=True)
class QuantRef:
    """Reference to a quantifier, optionally parametric: all, most, (at-least 3)."""

    name: str
    param: Optional[int] = None


@dataclass(frozen=True)
class TrueF:
    """The always-true formula; used as the unrestricted quantifier restrictor."""


@dataclass(frozen=True)
class Atom:
    pred: PredExpr
    args: tuple


@dataclass(frozen=True)
class Equal:
    left: Term
    right: Term


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Equiv:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class RestrictedQuant:
    quant: QuantRef
    var: str
    restrictor: "Formula"
    body: "Formula"


POSSIBLY = "possibly"
NECESSARILY = "necessarily"


@dataclass(frozen=True)
class Modal:
    flavor: str  # POSSIBLY or NECESSARILY
    body: "Formula"


Formula = Union[
    TrueF, Atom, Equal, Not, And, Or, Implies, Equiv, RestrictedQuant, Modal
]

Expr = Union[Term, PredExpr, Formula]

# ---------------------------------------------------------------------------
# Signature


@dataclass
class Signature:
    """Declared symbols. Names must be unique across categories.

    functions   name -> arity
    predicates  name -> arity
    constants   set of individual constant names
    modifiers   set of predicate-modifier names
    term_ops    name -> result arity of the derived predicate
    """

    functions: dict = field(default_factory=dict)
    predicates: dict = field(default_factory=dict)
    constants: set = field(default_factory=set)
    modifiers: set = field(default_factory=set)
    term_ops: dict = field(default_factory=dict)

    def all_names(self) -> set:
        names = set(self.functions) | set(self.predicates) | set(self.constants)
        return names | set(self.modifiers) | set(self.term_ops)


def pred_arity(pe: PredExpr, sig: Signature) -> Optional[int]:
    """Arity of a predicate expression over sig, or None if undetermined."""
    match pe:
        case PredConst(name):
            return sig.predicates.get(name)
        case Lambda(params, _):
            return len(params)
        case Modified(_, base):
            return pred_arity(base, sig)
        case TermDerived(op, _):
            return sig.term_ops.get(op)
    return None


# ---------------------------------------------------------------------------
# Well-formedness


@dataclass(frozen=True)
class Diagnostic:
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path or '<root>'}: {self.message}"


def well_formed(expr: Expr, sig: Signature) -> list:
    """Every violation of the construction rules, with a path into expr.

    Empty list iff expr is well-formed over sig.
    """
    out: list = []
    _wf(expr, sig, frozenset(), "", out)
    return out


def _wf(expr: Expr, sig: Signature, bound: frozenset, path: str, out: list) -> None:
    def bad(msg, p=None):
        out.append(Diagnostic(p if p is not None else path, msg))

    def sub(p):
        return f"{path}.{p}" if path else p

    match expr:
        case Var(_):
            pass
        case Const(name):
            if name not in sig.constants:
                bad(f"unknown constant '{name}'")
        case FunApp(fn, args):
            arity = sig.functions.get(fn)
            if arity is None:
                bad(f"unknown function symbol '{fn}'")
            elif arity != len(args):
                bad(f"function '{fn}' expects {arity} args, got {len(args)}")
            for i, a in enumerate(args):
                _wf(a, sig, bound, sub(f"args[{i}]"), out)
        case Ka(pred):
            ar = pred_arity(pred, sig)
            if ar is not None and ar != 1:
                bad(f"ka requires a monadic predicate, got arity {ar}")
            if loose := sorted(free_vars(pred) - bound):
                bad(f"reified term has unbound variables: {', '.join(loose)}")
            _wf(pred, sig, bound, sub("pred"), out)
        case That(body):
            if loose := sorted(free_vars(body) - bound):
                bad(f"reified sentence has unbound variables: {', '.join(loose)}")
            _wf(body, sig, bound, sub("body"), out)
        case PredConst(name):
            if name not in sig.predicates:
                bad(f"unknown predicate '{name}'")
        case Lambda(params, body):
            if len(set(params)) != len(params):
                bad("duplicate lambda parameters")
            clash = set(params) & bound
            if clash:
                bad(f"rebinding of bound variable: {', '.join(sorted(clash))}")
            _wf(body, sig, bound | set(params), sub("body"), out)
        case Modified(modifier, base):
            if modifier not in sig.modifiers:
                bad(f"unknown modifier '{modifier}'")
            _wf(base, sig, bound, sub("base"), out)
        case TermDerived(op, arg):
            if op not in sig.term_ops:
                bad(f"unknown term-derived operator '{op}'")
            _wf(arg, sig, bound, sub("arg"), out)
        case TrueF():
            pass
        case Atom(pred, args):
            ar = pred_arity(pred, sig)
            if ar is not None and ar != len(args):
                bad(f"predicate of arity {ar} applied to {len(args)} args")
            _wf(pred, sig, bound, sub("pred"), out)
            for i, a in enumerate(args):
                _wf(a, sig, bound, sub(f"args[{i}]"), out)
        case Equal(left, right):
            _wf(left, sig, bound, sub("left"), out)
            _wf(right, sig, bound, sub("right"), out)
        case Not(body):
            _wf(body, sig, bound, sub("body"), out)
        case And(l, r) | Or(l, r) | Implies(l, r) | Equiv(l, r):
            _wf(l, sig, bound, sub("left"), out)
            _wf(r, sig, bound, sub("right"), out)
        case RestrictedQuant(_, var, restrictor, body):
            if var in bound:
                bad(f"rebinding of bound variable: {var}")
            inner = bound | {var}
            _wf(restrictor, sig, inner, sub("restrictor"), out)
            _wf(body, sig, inner, sub("body"), out)
        case Modal(flavor, body):
            if flavor not in (POSSIBLY, NECESSARILY):
                bad(f"unknown modal flavor '{flavor}'")
            _wf(body, sig, bound, sub("body"), out)
        case _:
            bad(f"unrecognized node {expr!r}")


# ---------------------------------------------------------------------------
# Generic traversal
#
# One entry per node type: (children, rebuild, tag). `children` lists a
# node's direct sub-expressions in field order; binder names, quantifier
# references and symbol names are not children. `rebuild(node, fn)` builds
# the same node type with fn applied to each child, in the same order.
# `tag(node)` names the node type and its non-child, non-binder fields; it
# is also the text `alpha_key` opens the node with, so a tag that starts
# with "(" is closed by ")" after the children. Two nodes have the same
# shape when their tags and child counts are equal.


def _no_children(node) -> tuple:
    return ()


def _same(node, fn):
    return node


def _binary(node) -> tuple:
    return (node.left, node.right)


def _rebuild_binary(node, fn):
    return type(node)(fn(node.left), fn(node.right))


def _fixed(tag: str):
    return lambda node: tag


_TRAVERSAL = {
    Var: (_no_children, _same, lambda n: f"?!{n.name};"),
    Const: (_no_children, _same, lambda n: f"c:{n.name};"),
    PredConst: (_no_children, _same, lambda n: f"p:{n.name};"),
    TrueF: (_no_children, _same, _fixed("true;")),
    FunApp: (
        lambda n: n.args,
        lambda n, fn: FunApp(n.fn, tuple(map(fn, n.args))),
        lambda n: f"(f:{n.fn};",
    ),
    Ka: (lambda n: (n.pred,), lambda n, fn: Ka(fn(n.pred)), _fixed("(ka;")),
    That: (lambda n: (n.body,), lambda n, fn: That(fn(n.body)), _fixed("(that;")),
    Lambda: (
        lambda n: (n.body,),
        lambda n, fn: Lambda(n.params, fn(n.body)),
        lambda n: f"(lam{len(n.params)};",
    ),
    Modified: (
        lambda n: (n.base,),
        lambda n, fn: Modified(n.modifier, fn(n.base)),
        lambda n: f"(mod:{n.modifier};",
    ),
    TermDerived: (
        lambda n: (n.arg,),
        lambda n, fn: TermDerived(n.op, fn(n.arg)),
        lambda n: f"(op:{n.op};",
    ),
    Atom: (
        lambda n: (n.pred, *n.args),
        lambda n, fn: Atom(fn(n.pred), tuple(map(fn, n.args))),
        _fixed("(atom;"),
    ),
    Equal: (_binary, _rebuild_binary, _fixed("(=;")),
    Not: (lambda n: (n.body,), lambda n, fn: Not(fn(n.body)), _fixed("(not;")),
    And: (_binary, _rebuild_binary, _fixed("(And;")),
    Or: (_binary, _rebuild_binary, _fixed("(Or;")),
    Implies: (_binary, _rebuild_binary, _fixed("(Implies;")),
    Equiv: (_binary, _rebuild_binary, _fixed("(Equiv;")),
    RestrictedQuant: (
        lambda n: (n.restrictor, n.body),
        lambda n, fn: RestrictedQuant(n.quant, n.var, fn(n.restrictor), fn(n.body)),
        lambda n: f"(q:{n.quant.name}:{n.quant.param};",
    ),
    Modal: (
        lambda n: (n.body,),
        lambda n, fn: Modal(n.flavor, fn(n.body)),
        lambda n: f"({n.flavor};",
    ),
}


def _traversal(node) -> tuple:
    try:
        return _TRAVERSAL[type(node)]
    except KeyError:
        raise TypeError(f"not an expression: {node!r}") from None


def children(node: Expr) -> tuple:
    """Direct sub-expressions of node, in field order.

    An Atom gives its predicate then its arguments; a RestrictedQuant its
    restrictor then its body; leaves give (). Raises TypeError on a non-node.
    """
    return _traversal(node)[0](node)


def map_children(node: Expr, fn) -> Expr:
    """The same node type rebuilt with fn applied to each child; a leaf is
    returned as is. Raises TypeError on a non-node."""
    return _traversal(node)[1](node, fn)


def shape(node: Expr) -> tuple:
    """(tag, number of children): what two nodes must share before their
    children can be compared pairwise. Raises TypeError on a non-node."""
    kids, _, tag = _traversal(node)
    return tag(node), len(kids(node))


def same_shape(a: Expr, b: Expr) -> bool:
    return type(a) is type(b) and shape(a) == shape(b)


def nodes(expr: Expr) -> list:
    """expr and every node below it, in preorder (children in field order)."""
    return _preorder(expr, [])


def _preorder(node: Expr, out: list) -> list:
    out.append(node)
    for child in children(node):
        _preorder(child, out)
    return out


def _cached(expr: Expr, attr: str, compute):
    """compute(expr), computed once per node object and kept in its instance
    ``__dict__`` under attr, which equality, hashing and ``repr`` ignore."""
    value = getattr(expr, attr, None)
    if value is None:
        value = compute(expr)
        object.__setattr__(expr, attr, value)
    return value


# ---------------------------------------------------------------------------
# Free variables


_NO_VARS = frozenset()


def free_vars(expr: Expr) -> frozenset:
    """Names with a free occurrence. Reified subexpressions are transparent.
    `_cached` keeps it on inner nodes; leaves other than Var share one set."""
    if type(expr) is Var:
        return frozenset((expr.name,))
    if type(expr) in (Const, PredConst, TrueF):
        return _NO_VARS
    return _cached(expr, "_free_vars", _free_vars)


def _free_vars(expr: Expr) -> frozenset:
    out = _NO_VARS
    for child in children(expr):
        fv = free_vars(child)
        if not fv <= out:
            out = out | fv if out else fv
    if type(expr) is Lambda:
        out = out.difference(expr.params)
    elif type(expr) is RestrictedQuant:
        out = out - {expr.var}
    return out or _NO_VARS


def free_vars_ordered(expr: Expr) -> list:
    """Free variables in order of first free occurrence (canonical traversal)."""
    out: list = []
    _fvo(expr, frozenset(), out)
    return out


def _fvo(expr: Expr, bound: frozenset, out: list) -> None:
    if type(expr) is Var:
        if expr.name not in bound and expr.name not in out:
            out.append(expr.name)
        return
    if type(expr) is Lambda:
        bound = bound | set(expr.params)
    elif type(expr) is RestrictedQuant:
        bound = bound | {expr.var}
    for child in children(expr):
        _fvo(child, bound, out)


# ---------------------------------------------------------------------------
# Substitution

_DIGITS = "0123456789"


def fresh_name(base: str, avoid: Iterable) -> str:
    """Deterministic fresh variable name: base0, base1, ... first not in avoid."""
    avoid = set(avoid)
    stem = base.rstrip(_DIGITS) or base
    i = 0
    while f"{stem}{i}" in avoid:
        i += 1
    return f"{stem}{i}"


def substitute(expr: Expr, var: str, term: Term) -> Expr:
    """Capture-avoiding substitution of term for free occurrences of var."""
    return subst_map(expr, {var: term})


def subst_map(expr: Expr, mapping: Mapping) -> Expr:
    """Simultaneous capture-avoiding substitution."""
    mapping = {v: t for v, t in mapping.items() if t != Var(v)}
    if not mapping:
        return expr
    return _subst(expr, mapping)


def _subst(expr: Expr, m: Mapping) -> Expr:
    if type(expr) is Var:
        return m.get(expr.name, expr)
    if type(expr) is Lambda:
        params, (body,), m2 = _subst_binder2(list(expr.params), [expr.body], m)
        if m2 is None:
            return expr
        return Lambda(tuple(params), _subst(body, m2))
    if type(expr) is RestrictedQuant:
        (var,), (restrictor, body), m2 = _subst_binder2(
            [expr.var], [expr.restrictor, expr.body], m
        )
        if m2 is None:
            return expr
        return RestrictedQuant(expr.quant, var, _subst(restrictor, m2), _subst(body, m2))
    return map_children(expr, lambda child: _subst(child, m))


def _subst_binder2(params: list, bodies: list, m: Mapping):
    """Shared binder handling: drop shadowed entries, rename on capture risk."""
    relevant = set().union(*map(free_vars, bodies))
    live = {v: t for v, t in m.items() if v not in params and v in relevant}
    if not live:
        return params, bodies, None
    incoming = set().union(*map(free_vars, live.values()))
    renames = {}
    avoid = incoming | relevant | set(params)
    new_params = []
    for p in params:
        if p in incoming:
            p2 = fresh_name(p, avoid)
            avoid.add(p2)
            renames[p] = Var(p2)
            new_params.append(p2)
        else:
            new_params.append(p)
    if renames:
        bodies = [_subst(b, renames) for b in bodies]
    return new_params, bodies, live


# ---------------------------------------------------------------------------
# Alpha-equivalence


def alpha_equivalent(a: Expr, b: Expr) -> bool:
    """True iff a and b are equal up to renaming of bound variables."""
    return alpha_key(a) == alpha_key(b)


def alpha_key(expr: Expr) -> str:
    """Canonical string key: equal for exactly the alpha-equivalent
    expressions. It depends on the node alone, so `_cached` keeps it."""
    return _cached(expr, "_alpha_key", _alpha_key)


def _alpha_key(expr: Expr) -> str:
    parts: list = []
    _ak(expr, {}, parts)
    return "".join(parts)


def _ak(expr: Expr, binders: dict, out: list, depth: int = 0) -> None:
    """Append expr's key to out. A bound variable is numbered by the depth
    of its binder (de Bruijn levels), so a shadowing binder gets a number
    of its own; a free variable keeps its name."""
    if type(expr) is Var:
        out.append(f"?{binders.get(expr.name, '!' + expr.name)};")
        return
    kids, _, tag = _traversal(expr)
    if type(expr) is Lambda:
        binders = dict(binders)
        for p in expr.params:
            binders[p] = str(depth)
            depth += 1
    elif type(expr) is RestrictedQuant:
        binders = {**binders, expr.var: str(depth)}
        depth += 1
    opening = tag(expr)
    out.append(opening)
    for child in kids(expr):
        _ak(child, binders, out, depth)
    if opening[0] == "(":
        out.append(")")


# ---------------------------------------------------------------------------
# Small structural helpers used across modules


def conjuncts(f: Formula) -> list:
    """Flatten an And-tree into its leaves, left to right."""
    if isinstance(f, And):
        return conjuncts(f.left) + conjuncts(f.right)
    return [f]


def disjuncts(f: Formula) -> list:
    if isinstance(f, Or):
        return disjuncts(f.left) + disjuncts(f.right)
    return [f]


def conjoin(fs: list) -> Formula:
    if not fs:
        return TrueF()
    out = fs[0]
    for f in fs[1:]:
        out = And(out, f)
    return out


def disjoin(fs: list) -> Formula:
    if not fs:
        return Not(TrueF())
    out = fs[0]
    for f in fs[1:]:
        out = Or(out, f)
    return out


def strip_universals(f: Formula) -> tuple:
    """Peel outer unrestricted universal quantifiers; returns (vars, matrix)."""
    out = []
    while (
        isinstance(f, RestrictedQuant)
        and f.quant == QuantRef("all")
        and f.restrictor == TrueF()
    ):
        out.append(f.var)
        f = f.body
    return out, f


def forall(var: str, body: Formula) -> Formula:
    return RestrictedQuant(QuantRef("all"), var, TrueF(), body)


def exists(var: str, body: Formula) -> Formula:
    return RestrictedQuant(QuantRef("some"), var, TrueF(), body)
