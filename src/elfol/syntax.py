"""Concrete syntax: parse knowledge-base text to ASTs and render ASTs back.

The grammar is parenthesized and unambiguous:

    term     := ?name | name | ( name term* ) | ( ka predexpr ) | ( that formula )
    predexpr := name | ( lambda ( ?name+ ) formula ) | ( mod name predexpr )
              | ( opname term )
    formula  := true | ( predexpr term* ) | ( = term term ) | ( not f )
              | ( and f f ) | ( or f f ) | ( implies f f ) | ( equiv f f )
              | ( quant q ?name f f ) | ( poss f ) | ( nec f )
    q        := name | ( name integer )

``(forall ?x F)`` and ``(exists ?x F)`` are sugar for ``(quant all ?x true F)``
and ``(quant some ?x true F)``. Comments run from ``;`` to end of line.

A knowledge-base file is a sequence of top-level forms: ``(declare ...)``,
``(axiom F)``, ``(fact F)``, ``(schema name decls... F)``, ``(query ...)``.

Tokens are ``(kind, text, start, end)`` tuples read by one compiled pattern;
they carry offsets into the text, not lines and columns. A `SourceSpan` is
resolved only when one is needed: for a `ParseError`, or for the span of an
entry that a caller keeps (see `Parser.span`).
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import repeat, tee
from operator import attrgetter
from typing import NamedTuple, Optional

from .core import (
    And,
    Atom,
    Const,
    Equal,
    Equiv,
    Expr,
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
    PredExpr,
    QuantRef,
    RestrictedQuant,
    Signature,
    Term,
    TermDerived,
    That,
    TrueF,
    Var,
)

FORMULA_KEYWORDS = {
    "true",
    "not",
    "and",
    "or",
    "implies",
    "equiv",
    "quant",
    "poss",
    "nec",
    "forall",
    "exists",
    "=",
    "lambda",
    "mod",
    "ka",
    "that",
    "kind",
}
_BINARY = {"and": And, "or": Or, "implies": Implies, "equiv": Equiv}
_CONNECTIVES = {*_BINARY, "not", "=", "poss", "nec", "quant", "forall", "exists"}


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan, expected: tuple = ()):
        self.message = message
        self.span = span
        self.expected = expected
        detail = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{span}: {message}{detail}")


# ---------------------------------------------------------------------------
# Tokenizer


class _Token(NamedTuple):
    kind: str  # "(" | ")" | "symbol" | "int"
    text: str
    start: int  # offsets into the source text
    end: int


# One group per token kind, numbered as in _KINDS; a comment matches no
# group, and the spaces between tokens match nothing.
_TOKEN = re.compile(r"(\()|(\))|([+-]?\d+(?![^ \t\r\n();]))|([^ \t\r\n();]+)|;.*")
_KINDS = (None, "(", ")", "int", "symbol")
_GROUP = attrgetter("lastindex")  # None for a comment


def _tokenize(text: str) -> list:
    """The tokens of text, built in C-level loops that each read one match
    at a time."""
    kinds, texts, starts, ends = tee(filter(_GROUP, _TOKEN.finditer(text)), 4)
    return list(map(tuple.__new__, repeat(_Token), zip(
        map(_KINDS.__getitem__, map(_GROUP, kinds)), map(re.Match.group, texts),
        map(re.Match.start, starts), map(re.Match.end, ends),
    )))


class Parser:
    """Token reader and recursive-descent parser over one source text; the
    model file reader shares its tokens and located errors.

    Tokens carry offsets, not positions. `span` resolves a token's line and
    column on demand, from a table of the text's newline offsets built the
    first time a span is asked for: once per entry a caller keeps, and once
    per error.
    """

    # Deepest parenthesis nesting accepted. The parser spends about one
    # Python frame per level and the tree walkers downstream up to four, so
    # this keeps every stage well inside the default recursion limit of 1000.
    MAX_NESTING = 200

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.n = len(self.tokens)
        self.pos = 0
        self.text = text
        self._newlines = None
        if text.count("(") > self.MAX_NESTING:  # else no "(" can nest too deep
            depth = 0
            for tok in self.tokens:
                if tok.kind == ")":
                    depth -= 1
                elif tok.kind == "(":
                    if depth == self.MAX_NESTING:
                        message = f"nested deeper than {self.MAX_NESTING} levels"
                        self.fail(message, span=self.span(tok))
                    depth += 1

    def span(self, tok: _Token, end_tok: Optional[_Token] = None) -> SourceSpan:
        """The span from tok to end_tok (tok if None), at tok's line and column."""
        return self._span_at(tok.start, (end_tok or tok).end)

    def _span_at(self, start: int, end: int) -> SourceSpan:
        if self._newlines is None:
            self._newlines = [m.start() for m in re.finditer("\n", self.text)]
        line = bisect_left(self._newlines, start)  # newlines before start
        line_start = self._newlines[line - 1] + 1 if line else 0
        return SourceSpan(start, end, line + 1, start - line_start + 1)

    def eof_span(self) -> SourceSpan:
        end = self.tokens[-1].end if self.tokens else 0
        return self._span_at(end, end)

    def at_end(self) -> bool:
        return self.pos >= self.n

    def at(self, kind: str) -> bool:
        """Whether the next token is of kind."""
        return self.pos < self.n and self.tokens[self.pos].kind == kind

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.pos] if self.pos < self.n else None

    def next(self, expected: tuple = ()) -> _Token:
        pos = self.pos
        if pos >= self.n:
            self.fail("unexpected end of input", expected)
        self.pos = pos + 1
        return self.tokens[pos]

    def fail(self, message: str, expected: tuple = (), span: SourceSpan = None):
        if span is None:
            tok = self.peek()
            span = self.span(tok) if tok else self.eof_span()
        raise ParseError(message, span, expected)

    def expect(self, kind: str, what: Optional[str] = None) -> _Token:
        """The next token, consumed, if it is of kind; else an error that
        expects `what` (kind if None)."""
        pos = self.pos
        if pos < self.n:
            tok = self.tokens[pos]
            if tok.kind == kind:
                self.pos = pos + 1
                return tok
            self.fail(f"found {tok.text!r}", (what or kind,))
        self.fail("unexpected end of input", (what or kind,))

    def expect_symbol(self, what: str = "name") -> _Token:
        return self.expect("symbol", what)

    def _terms(self) -> tuple:
        """Terms up to the next ")", which is consumed."""
        args = []
        while self.pos < self.n and self.tokens[self.pos].kind != ")":
            args.append(self.term())
        self.expect(")")
        return tuple(args)

    # -- grammar ------------------------------------------------------------

    def formula(self) -> Formula:
        tok = self.next(("formula",))
        if tok.kind != "(":
            if tok.kind == "symbol":
                if tok.text == "true":
                    return TrueF()
                self.fail(f"found bare symbol {tok.text!r}", ("formula",), self.span(tok))
            self.fail(f"found {tok.text!r}", ("formula",), self.span(tok))
        if self.pos >= self.n:
            self.fail("unexpected end of input", ("formula head",))
        word = self.tokens[self.pos].text
        if word not in _CONNECTIVES:  # atom: ( predexpr term* )
            return Atom(self.predexpr(), self._terms())
        self.pos += 1
        if word in _BINARY:
            f = _BINARY[word](self.formula(), self.formula())
        elif word == "not":
            f = Not(self.formula())
        elif word == "=":
            f = Equal(self.term(), self.term())
        elif word in ("poss", "nec"):
            f = Modal(POSSIBLY if word == "poss" else NECESSARILY, self.formula())
        elif word == "quant":
            q = self.quant_ref()
            f = RestrictedQuant(q, self.variable(), self.formula(), self.formula())
        else:  # forall, exists
            q = QuantRef("all" if word == "forall" else "some")
            f = RestrictedQuant(q, self.variable(), TrueF(), self.formula())
        self.expect(")")
        return f

    def quant_ref(self) -> QuantRef:
        tok = self.next(("quantifier",))
        if tok.kind == "symbol":
            return QuantRef(tok.text)
        if tok.kind != "(":
            self.fail(f"found {tok.text!r}", ("quantifier",), self.span(tok))
        name = self.expect("symbol", "quantifier name").text
        param = self.expect("int")
        self.expect(")")
        return QuantRef(name, int(param.text))

    def variable(self) -> str:
        tok = self.expect("symbol", "variable")
        if tok.text[0] != "?" or len(tok.text) < 2:
            self.fail(f"found {tok.text!r}", ("?variable",), self.span(tok))
        return tok.text[1:]

    def term(self) -> Term:
        tok = self.next(("term",))
        if tok.kind == "symbol":
            text = tok.text
            if text[0] == "?":
                if len(text) < 2:
                    self.fail("bare '?'", ("?variable",), self.span(tok))
                return Var(text[1:])
            if text in FORMULA_KEYWORDS:
                self.fail(f"keyword {text!r} is not a term", ("term",), self.span(tok))
            return Const(text)
        if tok.kind == "int":
            self.fail(f"found number {tok.text!r}", ("term",), self.span(tok))
        # the token is read as the "(" of a compound term
        head = self.expect("symbol", "function symbol")
        if head.text in ("ka", "kind"):
            t = Ka(self.predexpr())
        elif head.text == "that":
            t = That(self.formula())
        elif head.text in FORMULA_KEYWORDS:
            self.fail(
                f"keyword {head.text!r} cannot head a term", ("function symbol",),
                self.span(head),
            )
        else:
            return FunApp(head.text, self._terms())
        self.expect(")")
        return t

    def predexpr(self) -> PredExpr:
        tok = self.next(("predicate expression",))
        if tok.kind == "symbol":
            if tok.text[0] == "?" or tok.text in FORMULA_KEYWORDS:
                self.fail(f"found {tok.text!r}", ("predicate name",), self.span(tok))
            return PredConst(tok.text)
        if tok.kind != "(":
            self.fail(f"found {tok.text!r}", ("predicate expression",), self.span(tok))
        head = self.expect("symbol", "predicate operator")
        if head.text == "lambda":
            self.expect("(")
            params = [self.variable()]
            while self.pos < self.n and self.tokens[self.pos].kind != ")":
                params.append(self.variable())
            self.expect(")")
            pred = Lambda(tuple(params), self.formula())
        elif head.text == "mod":
            modifier = self.expect("symbol", "modifier name").text
            pred = Modified(modifier, self.predexpr())
        elif head.text in FORMULA_KEYWORDS:
            self.fail(
                f"keyword {head.text!r} cannot head a predicate expression",
                ("lambda", "mod", "operator name"),
                self.span(head),
            )
        else:  # ( opname term ): a term-derived predicate
            pred = TermDerived(head.text, self.term())
        self.expect(")")
        return pred



def _parse_single(text: str, production: str):
    p = Parser(text)
    node = getattr(p, production)()
    if not p.at_end():
        p.fail("trailing input after expression")
    return node


def parse_formula(text: str) -> Formula:
    return _parse_single(text, "formula")


def parse_term(text: str) -> Term:
    return _parse_single(text, "term")


def parse_predexpr(text: str) -> PredExpr:
    return _parse_single(text, "predexpr")


def parse_schema(text: str) -> "SchemaForm":
    """Parse one standalone `(schema name decls... body)` form."""
    p = Parser(text)
    open_tok = p.expect("(")
    head = p.expect_symbol("schema")
    if head.text != "schema":
        p.fail("expected a (schema ...) form", ("schema",), span=p.span(head))
    form = _parse_schema_form(p, open_tok)
    if not p.at_end():
        p.fail("trailing input after schema")
    return form


# ---------------------------------------------------------------------------
# Knowledge-base files


@dataclass(frozen=True)
class SchemaForm:
    name: str
    pred_vars: tuple  # (name, arity) pairs
    formula_vars: tuple  # names
    quant_vars: tuple  # (name, constraint) pairs
    body: Formula
    span: SourceSpan


@dataclass(frozen=True)
class QueryForm:
    name: str
    goal: Formula
    scenarios: tuple
    expect: str  # "provable" | "unprovable"
    max_lexical_steps: Optional[int]
    span: SourceSpan


@dataclass
class KbSource:
    """The parsed forms of one knowledge-base file, before signature checks."""

    signature: Signature = field(default_factory=Signature)
    axioms: list = field(default_factory=list)  # (Formula, SourceSpan)
    facts: list = field(default_factory=list)
    schemas: list = field(default_factory=list)  # SchemaForm
    queries: list = field(default_factory=list)  # QueryForm


SCHEMA_CONSTRAINTS = ("right-up", "right-down", "any")
_SCHEMA_GROUPS = ("pred-vars", "formula-vars", "quant-vars")
# declaration kind -> (what its name is, the Signature field it fills)
_DECLARATIONS = {
    "fn": ("function name", "functions"), "pred": ("predicate name", "predicates"),
    "op": ("operator name", "term_ops"), "mod": ("modifier name", "modifiers"),
    "const": ("constant name", "constants"),
}


def parse_kb(text: str, into: Optional[KbSource] = None) -> KbSource:
    """Parse a sequence of top-level kb forms, accumulating into a KbSource."""
    src = into if into is not None else KbSource()
    p = Parser(text)
    while not p.at_end():
        open_tok = p.expect("(")
        head = p.expect("symbol", "top-level form")
        if head.text == "declare":
            _parse_declare(p, src.signature)
        elif head.text in ("axiom", "fact"):
            f = p.formula()
            span = p.span(open_tok, p.expect(")"))
            (src.axioms if head.text == "axiom" else src.facts).append((f, span))
        elif head.text == "schema":
            src.schemas.append(_parse_schema_form(p, open_tok))
        elif head.text == "query":
            src.queries.append(_parse_query_form(p, open_tok))
        else:
            p.fail(
                f"unknown top-level form {head.text!r}",
                ("declare", "axiom", "fact", "schema", "query"),
                span=p.span(head),
            )
    return src


def _parse_declare(p: Parser, sig: Signature) -> None:
    kind = p.expect("symbol", "declaration kind")
    if kind.text not in _DECLARATIONS:
        p.fail(f"unknown declaration kind {kind.text!r}", tuple(_DECLARATIONS), p.span(kind))
    what, category = _DECLARATIONS[kind.text]
    if kind.text in ("mod", "const"):
        while p.at("symbol"):
            _declare(p, sig, p.expect("symbol", what), category, None)
    else:
        name = p.expect("symbol", what)
        _declare(p, sig, name, category, int(p.expect("int").text))
    p.expect(")")


def _declare(p: Parser, sig: Signature, name_tok: _Token, category: str, arity):
    name = name_tok.text
    if name in FORMULA_KEYWORDS:
        p.fail(f"{name!r} is a reserved keyword", span=p.span(name_tok))
    if arity is not None and arity < 0:
        p.fail("arity must be >= 0", span=p.span(name_tok))
    existing = sig.all_names()
    table = getattr(sig, category)
    if name in existing and name not in (
        table if isinstance(table, set) else table.keys()
    ):
        p.fail(f"{name!r} already declared in another category", span=p.span(name_tok))
    if isinstance(table, set):
        table.add(name)
    else:
        if name in table and table[name] != arity:
            p.fail(f"{name!r} redeclared with different arity", span=p.span(name_tok))
        table[name] = arity


def _parse_schema_form(p: Parser, open_tok: _Token) -> SchemaForm:
    name = p.expect("symbol", "schema name").text
    groups: dict = {group: [] for group in _SCHEMA_GROUPS}
    while True:
        tok = p.peek()
        if tok is None:
            p.fail("unexpected end of input in schema")
        if tok.kind != "(":
            p.fail(f"found {tok.text!r}", ("schema declaration or body",))
        group = p.tokens[p.pos + 1].text if p.pos + 1 < p.n else None
        if group not in groups:
            break
        p.pos += 2
        while group == "formula-vars" and p.at("symbol"):
            groups[group].append(p.expect("symbol").text)
        while group != "formula-vars" and p.at("("):
            p.next()
            mv = p.expect("symbol", "metavariable").text
            if group == "pred-vars":
                groups[group].append((mv, int(p.expect("int").text)))
            else:
                c = p.expect("symbol", "constraint")
                if c.text not in SCHEMA_CONSTRAINTS:
                    p.fail(f"unknown constraint {c.text!r}", SCHEMA_CONSTRAINTS, p.span(c))
                groups[group].append((mv, c.text))
            p.expect(")")
        p.expect(")")
    body = p.formula()
    span = p.span(open_tok, p.expect(")"))
    return SchemaForm(name, *(tuple(groups[g]) for g in _SCHEMA_GROUPS), body, span)


def _parse_query_form(p: Parser, open_tok: _Token) -> QueryForm:
    name = p.expect("symbol", "query name").text
    scenarios: tuple = ()
    expect = "provable"
    max_steps: Optional[int] = None
    goal: Optional[Formula] = None
    while p.at("("):
        mark = p.pos
        p.next()
        key = p.expect("symbol", "query attribute").text
        if key == "scenarios":
            names = []
            while p.at("symbol"):
                names.append(p.next().text)
            scenarios = tuple(names)
        elif key == "expect":
            val = p.expect("symbol", "provable|unprovable")
            if val.text not in ("provable", "unprovable"):
                p.fail("expected provable or unprovable", span=p.span(val))
            expect = val.text
        elif key == "max-lexical-steps":
            max_steps = int(p.expect("int").text)
        elif key == "goal":
            goal = p.formula()
        else:
            p.pos = mark  # bare formula goal
            goal = p.formula()
            break
        p.expect(")")
    if goal is None:
        goal = p.formula()
    span = p.span(open_tok, p.expect(")"))
    return QueryForm(name, goal, scenarios, expect, max_steps, span)


# ---------------------------------------------------------------------------
# Rendering


def render(node: Expr) -> str:
    """Canonical text form; parse(render(x)) is structurally equal to x."""
    match node:
        case Var(name):
            return f"?{name}"
        case Const(name):
            return name
        case FunApp(fn, args):
            inner = " ".join(render(a) for a in args)
            return f"({fn} {inner})" if args else f"({fn})"
        case Ka(pred):
            return f"(ka {render(pred)})"
        case That(body):
            return f"(that {render(body)})"
        case PredConst(name):
            return name
        case Lambda(params, body):
            ps = " ".join(f"?{p}" for p in params)
            return f"(lambda ({ps}) {render(body)})"
        case Modified(modifier, base):
            return f"(mod {modifier} {render(base)})"
        case TermDerived(op, arg):
            return f"({op} {render(arg)})"
        case TrueF():
            return "true"
        case Atom(pred, args):
            inner = " ".join(render(a) for a in args)
            head = render(pred)
            return f"({head} {inner})" if args else f"({head})"
        case Equal(l, r):
            return f"(= {render(l)} {render(r)})"
        case Not(body):
            return f"(not {render(body)})"
        case And(l, r):
            return f"(and {render(l)} {render(r)})"
        case Or(l, r):
            return f"(or {render(l)} {render(r)})"
        case Implies(l, r):
            return f"(implies {render(l)} {render(r)})"
        case Equiv(l, r):
            return f"(equiv {render(l)} {render(r)})"
        case RestrictedQuant(q, var, restrictor, body):
            return f"(quant {render_quant(q)} ?{var} {render(restrictor)} {render(body)})"
        case Modal(flavor, body):
            kw = "poss" if flavor == POSSIBLY else "nec"
            return f"({kw} {render(body)})"
    raise TypeError(f"cannot render {node!r}")


def render_quant(q: QuantRef) -> str:
    if q.param is None:
        return q.name
    return f"({q.name} {q.param})"
