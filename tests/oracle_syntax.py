"""The tokenizer and parser that built a frozen `_Token` and `SourceSpan` for
every token, kept as the differential oracle for `elfol.syntax`.

`elfol.syntax.Parser` keeps tokens as `(kind, text, start, end)` tuples and
resolves a span only when one is needed. On every text, each of its tokens
must have the kind and text of this tokenizer's token, and `Parser.span`
must give that token's span. Every parse must give an equal result or the
same error, with the same message, `expected` and position, with two
exceptions. An error at the end of input now has the column of the last
token's end, where this parser gives the column just after the last
token's first character (`Parser.eof_span` below). And a word of digits
that `str.isdigit` accepts but `int` cannot read, such as "²", is an int
token here, on which `int` raises a ValueError, and a symbol there.

`Parser.span` and `Parser.at` are added here so that
`elfol.models.parse_model` can read a model file through these tokens.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from elfol.syntax import (
    FORMULA_KEYWORDS,
    SCHEMA_CONSTRAINTS,
    KbSource,
    ParseError,
    QueryForm,
    SchemaForm,
    SourceSpan,
)

# ---------------------------------------------------------------------------
# Tokenizer


@dataclass(frozen=True)
class _Token:
    kind: str  # "(" | ")" | "symbol" | "int"
    text: str
    span: SourceSpan


def _tokenize(text: str, max_nesting: int) -> list:
    """Tokens of text; a ParseError at the first "(" nested deeper than
    max_nesting."""
    tokens = []
    depth = 0
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
        elif c in " \t\r":
            i += 1
            col += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            span = SourceSpan(i, i + 1, line, col)
            if c == ")":
                depth -= 1
            elif depth == max_nesting:
                raise ParseError(f"nested deeper than {max_nesting} levels", span)
            else:
                depth += 1
            tokens.append(_Token(c, c, span))
            i += 1
            col += 1
        else:
            j = i
            while j < n and text[j] not in " \t\r\n();":
                j += 1
            word = text[i:j]
            span = SourceSpan(i, j, line, col)
            kind = "int" if _is_int(word) else "symbol"
            tokens.append(_Token(kind, word, span))
            col += j - i
            i = j
    return tokens


def _is_int(word: str) -> bool:
    body = word[1:] if word[:1] in "+-" else word
    return body.isdigit() and body != ""


class Parser:
    """Token reader and recursive-descent parser over one source text; the
    model file reader shares its tokens and located errors."""

    # Deepest parenthesis nesting accepted. The parser spends about one
    # Python frame per level and the tree walkers downstream up to four, so
    # this keeps every stage well inside the default recursion limit of 1000.
    MAX_NESTING = 200

    def __init__(self, text: str):
        self.tokens = _tokenize(text, self.MAX_NESTING)
        self.pos = 0
        self.text = text

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, expected: tuple = ()) -> _Token:
        tok = self.peek()
        if tok is None:
            self.fail("unexpected end of input", expected)
        self.pos += 1
        return tok

    def span(self, tok: _Token, end_tok: Optional[_Token] = None) -> SourceSpan:
        if end_tok is None:
            return tok.span
        return SourceSpan(tok.span.start, end_tok.span.end, tok.span.line, tok.span.column)

    def at(self, kind: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == kind

    def eof_span(self) -> SourceSpan:
        if self.tokens:
            last = self.tokens[-1].span
            return SourceSpan(last.end, last.end, last.line, last.column + 1)
        return SourceSpan(0, 0, 1, 1)

    def fail(self, message: str, expected: tuple = (), span: SourceSpan = None):
        if span is None:
            tok = self.peek()
            span = tok.span if tok else self.eof_span()
        raise ParseError(message, span, expected)

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            self.fail(
                f"found {tok.text!r}" if tok else "unexpected end of input",
                expected=(kind,),
            )
        return self.next()

    def expect_symbol(self, what: str = "name") -> _Token:
        tok = self.peek()
        if tok is None or tok.kind != "symbol":
            self.fail(
                f"found {tok.text!r}" if tok else "unexpected end of input",
                expected=(what,),
            )
        return self.next()

    # -- grammar ------------------------------------------------------------

    def formula(self) -> Formula:
        tok = self.peek()
        if tok is None:
            self.fail("unexpected end of input", ("formula",))
        if tok.kind == "symbol":
            if tok.text == "true":
                self.next()
                return TrueF()
            self.fail(f"found bare symbol {tok.text!r}", ("formula",))
        if tok.kind != "(":
            self.fail(f"found {tok.text!r}", ("formula",))
        self.next()
        head = self.peek()
        if head is None:
            self.fail("unexpected end of input", ("formula head",))
        if head.kind == "symbol":
            word = head.text
            if word == "not":
                self.next()
                f = self.formula()
                self.expect(")")
                return Not(f)
            if word in ("and", "or", "implies", "equiv"):
                self.next()
                l = self.formula()
                r = self.formula()
                self.expect(")")
                ctor = {"and": And, "or": Or, "implies": Implies, "equiv": Equiv}
                return ctor[word](l, r)
            if word == "=":
                self.next()
                l = self.term()
                r = self.term()
                self.expect(")")
                return Equal(l, r)
            if word == "poss":
                self.next()
                f = self.formula()
                self.expect(")")
                return Modal(POSSIBLY, f)
            if word == "nec":
                self.next()
                f = self.formula()
                self.expect(")")
                return Modal(NECESSARILY, f)
            if word == "quant":
                self.next()
                q = self.quant_ref()
                var = self.variable()
                restrictor = self.formula()
                body = self.formula()
                self.expect(")")
                return RestrictedQuant(q, var, restrictor, body)
            if word in ("forall", "exists"):
                self.next()
                var = self.variable()
                body = self.formula()
                self.expect(")")
                q = "all" if word == "forall" else "some"
                return RestrictedQuant(QuantRef(q), var, TrueF(), body)
        # atom: ( predexpr term* )
        pred = self.predexpr()
        args = []
        while self.peek() is not None and self.peek().kind != ")":
            args.append(self.term())
        self.expect(")")
        return Atom(pred, tuple(args))

    def quant_ref(self) -> QuantRef:
        tok = self.peek()
        if tok is None:
            self.fail("unexpected end of input", ("quantifier",))
        if tok.kind == "symbol":
            self.next()
            return QuantRef(tok.text)
        if tok.kind == "(":
            self.next()
            name = self.expect_symbol("quantifier name").text
            param = self.expect("int")
            self.expect(")")
            return QuantRef(name, int(param.text))
        self.fail(f"found {tok.text!r}", ("quantifier",))

    def variable(self) -> str:
        tok = self.expect_symbol("variable")
        if not tok.text.startswith("?") or len(tok.text) < 2:
            self.fail(f"found {tok.text!r}", ("?variable",), span=tok.span)
        return tok.text[1:]

    def term(self) -> Term:
        tok = self.peek()
        if tok is None:
            self.fail("unexpected end of input", ("term",))
        if tok.kind == "symbol":
            self.next()
            if tok.text.startswith("?"):
                if len(tok.text) < 2:
                    self.fail("bare '?'", ("?variable",), span=tok.span)
                return Var(tok.text[1:])
            if tok.text in FORMULA_KEYWORDS:
                self.fail(f"keyword {tok.text!r} is not a term", ("term",), span=tok.span)
            return Const(tok.text)
        if tok.kind == "int":
            self.fail(f"found number {tok.text!r}", ("term",), span=tok.span)
        self.next()  # consume "("
        head = self.expect_symbol("function symbol")
        if head.text in ("ka", "kind"):
            pred = self.predexpr()
            self.expect(")")
            return Ka(pred)
        if head.text == "that":
            body = self.formula()
            self.expect(")")
            return That(body)
        if head.text in FORMULA_KEYWORDS:
            self.fail(
                f"keyword {head.text!r} cannot head a term", ("function symbol",),
                span=head.span,
            )
        args = []
        while self.peek() is not None and self.peek().kind != ")":
            args.append(self.term())
        self.expect(")")
        return FunApp(head.text, tuple(args))

    def predexpr(self) -> PredExpr:
        tok = self.peek()
        if tok is None:
            self.fail("unexpected end of input", ("predicate expression",))
        if tok.kind == "symbol":
            self.next()
            if tok.text.startswith("?") or tok.text in FORMULA_KEYWORDS:
                self.fail(
                    f"found {tok.text!r}", ("predicate name",), span=tok.span
                )
            return PredConst(tok.text)
        if tok.kind != "(":
            self.fail(f"found {tok.text!r}", ("predicate expression",))
        self.next()
        head = self.expect_symbol("predicate operator")
        if head.text == "lambda":
            self.expect("(")
            params = [self.variable()]
            while self.peek() is not None and self.peek().kind != ")":
                params.append(self.variable())
            self.expect(")")
            body = self.formula()
            self.expect(")")
            return Lambda(tuple(params), body)
        if head.text == "mod":
            modifier = self.expect_symbol("modifier name").text
            base = self.predexpr()
            self.expect(")")
            return Modified(modifier, base)
        if head.text in FORMULA_KEYWORDS:
            self.fail(
                f"keyword {head.text!r} cannot head a predicate expression",
                ("lambda", "mod", "operator name"),
                span=head.span,
            )
        # ( opname term ): a term-derived predicate
        arg = self.term()
        self.expect(")")
        return TermDerived(head.text, arg)


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
        p.fail("expected a (schema ...) form", ("schema",), span=head.span)
    form = _parse_schema_form(p, open_tok)
    if not p.at_end():
        p.fail("trailing input after schema")
    return form


# ---------------------------------------------------------------------------
# Knowledge-base files


def parse_kb(text: str, into: Optional[KbSource] = None) -> KbSource:
    """Parse a sequence of top-level kb forms, accumulating into a KbSource."""
    src = into if into is not None else KbSource()
    p = Parser(text)
    while not p.at_end():
        open_tok = p.expect("(")
        head = p.expect_symbol("top-level form")
        if head.text == "declare":
            _parse_declare(p, src.signature)
        elif head.text in ("axiom", "fact"):
            f = p.formula()
            p.expect(")")
            span = SourceSpan(
                open_tok.span.start, p.tokens[p.pos - 1].span.end,
                open_tok.span.line, open_tok.span.column,
            )
            (src.axioms if head.text == "axiom" else src.facts).append((f, span))
        elif head.text == "schema":
            src.schemas.append(_parse_schema_form(p, open_tok))
        elif head.text == "query":
            src.queries.append(_parse_query_form(p, open_tok))
        else:
            p.fail(
                f"unknown top-level form {head.text!r}",
                ("declare", "axiom", "fact", "schema", "query"),
                span=head.span,
            )
    return src


def _parse_declare(p: Parser, sig: Signature) -> None:
    kind = p.expect_symbol("declaration kind")
    if kind.text == "fn":
        name = p.expect_symbol("function name")
        arity = int(p.expect("int").text)
        _declare(p, sig, name, "functions", arity)
    elif kind.text == "pred":
        name = p.expect_symbol("predicate name")
        arity = int(p.expect("int").text)
        _declare(p, sig, name, "predicates", arity)
    elif kind.text == "op":
        name = p.expect_symbol("operator name")
        arity = int(p.expect("int").text)
        _declare(p, sig, name, "term_ops", arity)
    elif kind.text == "mod":
        while p.peek() is not None and p.peek().kind == "symbol":
            name = p.expect_symbol("modifier name")
            _declare(p, sig, name, "modifiers", None)
    elif kind.text == "const":
        while p.peek() is not None and p.peek().kind == "symbol":
            name = p.expect_symbol("constant name")
            _declare(p, sig, name, "constants", None)
    else:
        p.fail(
            f"unknown declaration kind {kind.text!r}",
            ("fn", "pred", "op", "mod", "const"),
            span=kind.span,
        )
    p.expect(")")


def _declare(p: Parser, sig: Signature, name_tok: _Token, category: str, arity):
    name = name_tok.text
    if name in FORMULA_KEYWORDS:
        p.fail(f"{name!r} is a reserved keyword", span=name_tok.span)
    if arity is not None and arity < 0:
        p.fail("arity must be >= 0", span=name_tok.span)
    existing = sig.all_names()
    table = getattr(sig, category)
    if name in existing and name not in (
        table if isinstance(table, set) else table.keys()
    ):
        p.fail(f"{name!r} already declared in another category", span=name_tok.span)
    if isinstance(table, set):
        table.add(name)
    else:
        if name in table and table[name] != arity:
            p.fail(f"{name!r} redeclared with different arity", span=name_tok.span)
        table[name] = arity


def _parse_schema_form(p: Parser, open_tok: _Token) -> SchemaForm:
    name = p.expect_symbol("schema name").text
    pred_vars: list = []
    formula_vars: list = []
    quant_vars: list = []
    while True:
        tok = p.peek()
        if tok is None:
            p.fail("unexpected end of input in schema")
        if tok.kind != "(":
            p.fail(f"found {tok.text!r}", ("schema declaration or body",))
        nxt = p.tokens[p.pos + 1] if p.pos + 1 < len(p.tokens) else None
        if nxt is not None and nxt.kind == "symbol" and nxt.text in (
            "pred-vars",
            "formula-vars",
            "quant-vars",
        ):
            p.next()
            group = p.next().text
            if group == "pred-vars":
                while p.peek() is not None and p.peek().kind == "(":
                    p.next()
                    mv = p.expect_symbol("metavariable").text
                    ar = int(p.expect("int").text)
                    p.expect(")")
                    pred_vars.append((mv, ar))
            elif group == "formula-vars":
                while p.peek() is not None and p.peek().kind == "symbol":
                    formula_vars.append(p.expect_symbol().text)
            else:
                while p.peek() is not None and p.peek().kind == "(":
                    p.next()
                    mv = p.expect_symbol("metavariable").text
                    c = p.expect_symbol("constraint")
                    if c.text not in SCHEMA_CONSTRAINTS:
                        p.fail(
                            f"unknown constraint {c.text!r}",
                            SCHEMA_CONSTRAINTS,
                            span=c.span,
                        )
                    p.expect(")")
                    quant_vars.append((mv, c.text))
            p.expect(")")
        else:
            break
    body = p.formula()
    close = p.expect(")")
    span = SourceSpan(
        open_tok.span.start, close.span.end, open_tok.span.line, open_tok.span.column
    )
    return SchemaForm(
        name, tuple(pred_vars), tuple(formula_vars), tuple(quant_vars), body, span
    )


def _parse_query_form(p: Parser, open_tok: _Token) -> QueryForm:
    name = p.expect_symbol("query name").text
    scenarios: tuple = ()
    expect = "provable"
    max_steps: Optional[int] = None
    goal: Optional[Formula] = None
    while p.peek() is not None and p.peek().kind == "(":
        mark = p.pos
        p.next()
        key = p.expect_symbol("query attribute")
        if key.text == "scenarios":
            names = []
            while p.peek() is not None and p.peek().kind == "symbol":
                names.append(p.next().text)
            scenarios = tuple(names)
            p.expect(")")
        elif key.text == "expect":
            val = p.expect_symbol("provable|unprovable")
            if val.text not in ("provable", "unprovable"):
                p.fail("expected provable or unprovable", span=val.span)
            expect = val.text
            p.expect(")")
        elif key.text == "max-lexical-steps":
            max_steps = int(p.expect("int").text)
            p.expect(")")
        elif key.text == "goal":
            goal = p.formula()
            p.expect(")")
        else:
            p.pos = mark  # bare formula goal
            goal = p.formula()
            break
    if goal is None:
        goal = p.formula()
    close = p.expect(")")
    span = SourceSpan(
        open_tok.span.start, close.span.end, open_tok.span.line, open_tok.span.column
    )
    return QueryForm(name, goal, scenarios, expect, max_steps, span)
