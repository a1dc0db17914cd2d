"""The offset-carrying tokenizer and parser against the ones that built a
span for every token (`oracle_syntax`): the same tokens and spans, and the
same results and errors on deleted-token texts, except the end-of-input
column, and a word of digits that `int` cannot read."""

import random
import re

import pytest

import fuzz
import oracle_syntax as oracle
from elfol import models, syntax
from elfol.lexicon import DATA_DIR
from elfol.models import EnumerationError, dump_model, parse_model
from elfol.syntax import Parser, ParseError, SourceSpan, parse_formula, parse_kb, render

from gen import AstGen
from test_model_format import random_full_model

N = Parser.MAX_NESTING
NESTED = [
    "(not " * (N - 1) + "(P a)" + ")" * (N - 1),
    "(not " * N + "(P a)" + ")" * N,
    "(not " * N + "(P a)",
    "(fact " + "(not " * (N - 2) + "(P a)" + ")" * (N - 1),
    "(fact " + "(not " * (N - 1) + "(P a)" + ")" * N,
    "; (((\n" * (N + 1) + "(P a)",
    ")" * 3 + "(" * (N + 2),
]
BUNDLE = {path.name: path.read_text(encoding="utf-8") for path in sorted(DATA_DIR.glob("*.elf"))}
SPECIAL = [
    "",
    "   \n\t\n",
    "; only a comment, with no newline at the end",
    "(fact (P a)) ; a comment at the end with no newline",
    "(fact\t(P\ta))\t\t(axiom (Q b))",
    "(fact (P a))\r\n(fact\r(Q b))\r\n",
    "(declare pred P 1)\n\t(fact (P a)) ;c\n\n   (fact (P\n b)\n)",
    "(declare pred P +1) (declare fn f -2) (declare op o 007) (P 3) (P -x) (P +) (P 1a)",
    "(P ?) (P ?x) ? ?? (? a)",
    "(declare pred P 1))) (fact ((P a)",
    "((((", "))))", "(fact (P a)) )",
] + NESTED


def fuzz_kb_text(rng: random.Random) -> str:
    """A kb file with the signature, axioms, facts and schema of a fuzz kb,
    and a query for each of its goals."""
    kb = fuzz.read_off_kb(rng, fuzz.random_model(rng))
    lines = [f"(declare pred {p} {n})" for p, n in kb.signature.predicates.items()]
    lines.append("(declare const " + " ".join(sorted(kb.signature.constants)) + ")")
    lines += [f"(axiom {render(f)})" for f in kb.axioms]
    lines += [f"(fact\n  {render(f)})" for f in kb.facts]
    for s in kb.schemas:
        pred_vars = " ".join(f"({name} {arity})" for name, arity in s.pred_metavars)
        quant_vars = " ".join(f"({name} {c})" for name, c in s.quant_metavars)
        lines.append(
            f"(schema {s.name} (pred-vars {pred_vars}) (formula-vars) (quant-vars {quant_vars})"
            f" ; the body\n  {render(s.body)})"
        )
    gen = AstGen(rng, reified=False, functions=False, modifiers=False)
    for i, goal in enumerate(fuzz.sample_goals(rng, kb, gen)):
        goal = render(goal) if i % 2 else f"(goal {render(goal)})"  # a bare goal, or not
        lines.append(f"(query q{i} (scenarios s) (expect provable) (max-lexical-steps 2) {goal})")
    return "\n".join(lines) + "\n"


_rng = random.Random(31)
KB_TEXTS = list(BUNDLE.values()) + SPECIAL + [fuzz_kb_text(_rng) for _ in range(8)]
MODEL_TEXTS = [dump_model(fuzz.random_model(_rng)) for _ in range(10)]
MODEL_TEXTS += [dump_model(random_full_model(_rng)) for _ in range(10)]
FORMULA_TEXTS = [render(AstGen(_rng).closed_formula(depth=3)) for _ in range(30)]
CORPUS = KB_TEXTS + MODEL_TEXTS + FORMULA_TEXTS


def error(e: ParseError) -> tuple:
    return ("ParseError", e.message, e.expected, e.span)


def oracle_tokens(text: str):
    """The oracle's tokens, or its error."""
    try:
        return oracle._tokenize(text, N)
    except ParseError as e:
        return error(e)


@pytest.mark.parametrize("text", CORPUS, ids=range(len(CORPUS)))
def test_tokens_have_the_oracles_kind_text_and_span(text):
    old = oracle_tokens(text)
    try:
        p = Parser(text)
    except ParseError as e:
        assert error(e) == old
        return
    assert [(t.kind, t.text, p.span(t)) for t in p.tokens] == [
        (t.kind, t.text, t.span) for t in old
    ]
    assert all(text[t.start:t.end] == t.text for t in p.tokens)


def test_the_corpus_reaches_every_kind_of_token_and_the_nesting_error():
    kinds = {t.kind for text in CORPUS if isinstance(oracle_tokens(text), list)
             for t in oracle_tokens(text)}
    assert kinds == {"(", ")", "symbol", "int"}
    errors = [t for t in map(oracle_tokens, CORPUS) if isinstance(t, tuple)]
    assert len(errors) == 3 and all("nested deeper" in e[1] for e in errors)


def test_a_span_across_tokens_has_the_first_tokens_position():
    text = "(fact\n  (P a))\n(fact (Q b))"
    p = Parser(text)
    assert p.span(p.tokens[0], p.tokens[6]) == SourceSpan(0, 14, 1, 1)
    assert p.span(p.tokens[7]) == SourceSpan(15, 16, 3, 1)
    assert parse_kb(text).facts[1][1] == SourceSpan(15, 27, 3, 1)


# ---------------------------------------------------------------------------
# Results and errors on deleted-token texts


def outcome(parse, text: str, eof_fix: bool = False):
    try:
        return ("ok", parse(text))
    except ParseError as e:
        span = e.span
        if eof_fix and span.start == span.end and span.start > 0:
            # the end-of-input column: the oracle puts it one past the last
            # token's first character, the parser at the last token's end
            last = oracle._tokenize(text, N)[-1]
            span = SourceSpan(span.start, span.end, span.line, span.column - 1 + len(last.text))
        return ("ParseError", e.message, e.expected, span)
    except EnumerationError as e:
        return ("EnumerationError", str(e))


def with_oracle_tokens(text: str):
    """parse_model read through the oracle's tokens and parser."""
    real = syntax.Parser
    syntax.Parser = oracle.Parser
    try:
        return parse_model(text)
    finally:
        syntax.Parser = real


def deletions(text: str, limit: int, rng: random.Random) -> list:
    """Up to limit copies of text, each with one token deleted in place."""
    tokens = [m.span() for m in re.finditer(r"[()]|[^\s()]+", text)]
    picked = sorted(rng.sample(tokens, min(limit, len(tokens))))
    return [text[:start] + text[end:] for start, end in picked]


def compare(parse, old_parse, text: str, tally: dict) -> None:
    new, old = outcome(parse, text), outcome(old_parse, text, eof_fix=True)
    assert new == old, text
    tally[new[0]] = tally.get(new[0], 0) + 1
    if new[0] == "ParseError" and new[3].start == new[3].end:
        tally["eof"] = tally.get("eof", 0) + 1


def test_parse_kb_gives_the_oracles_result_or_error_on_deleted_tokens():
    rng = random.Random(32)
    tally: dict = {}
    for text in KB_TEXTS:
        for mutated in [text] + deletions(text, 150 if text in BUNDLE.values() else 50, rng):
            compare(parse_kb, oracle.parse_kb, mutated, tally)
    assert tally["ok"] > 50 and tally["ParseError"] > 1000 and tally["eof"] > 20


def test_parse_formula_gives_the_oracles_result_or_error_on_deleted_tokens():
    rng = random.Random(33)
    gen = AstGen(rng)
    tally: dict = {}
    for text in NESTED + [render(gen.closed_formula(depth=3)) for _ in range(150)]:
        for mutated in [text] + deletions(text, 10, rng):
            compare(parse_formula, oracle.parse_formula, mutated, tally)
    assert tally["ok"] >= 150 and tally["ParseError"] > 1000 and tally["eof"] > 100


def test_parse_model_gives_the_oracle_tokens_result_or_error_on_deleted_tokens():
    rng = random.Random(34)
    tally: dict = {}
    for text in MODEL_TEXTS:
        for mutated in [text] + deletions(text, 40, rng):
            compare(parse_model, with_oracle_tokens, mutated, tally)
    assert tally["ok"] >= 20 and tally["ParseError"] > 500 and tally["eof"] > 20
    assert syntax.Parser is Parser and models.parse_model is parse_model


def test_the_end_of_input_column_is_the_last_tokens_end():
    for text, column in (("(P abc", 7), ("(P a", 5), ("(and (P a)\n  (Q bcd)", 10), ("(", 2)):
        with pytest.raises(ParseError) as e:
            parse_formula(text)
        assert e.value.message == "unexpected end of input"
        assert (e.value.span.line, e.value.span.column) == (text.count("\n") + 1, column)
        assert e.value.span.start == e.value.span.end == len(text)
    with pytest.raises(ParseError, match="^1:1: unexpected end of input"):
        parse_formula("")


def test_a_word_of_digits_int_cannot_read_is_a_symbol():
    # str.isdigit accepts "²", so the oracle made it an int token, and
    # int() then raised a ValueError; the pattern's \d does not match it
    assert oracle._tokenize("²", N)[0].kind == "int"
    assert Parser("² ١٢ -7").tokens == [("symbol", "²", 0, 1), ("int", "١٢", 2, 4), ("int", "-7", 5, 7)]
    with pytest.raises(ValueError):
        oracle.parse_kb("(declare pred P ²)")
    with pytest.raises(ParseError, match=r"^1:17: found '²' \(expected int\)$"):
        parse_kb("(declare pred P ²)")
    assert parse_kb("(declare pred P ١)").signature.predicates == {"P": 1}
