"""Concrete syntax: parsing, rendering, spans, and the KB file format."""

import random

import pytest

from elfol.core import (
    Modal,
    POSSIBLY,
    QuantRef,
    RestrictedQuant,
    TrueF,
    well_formed,
)
from elfol.syntax import (
    ParseError,
    Parser,
    parse_formula,
    parse_kb,
    parse_term,
    render,
)

from gen import AstGen


class TestParse:
    def test_universal_axiom(self):
        f = parse_formula(
            "(forall ?x (forall ?y (implies (result-state (enter ?x ?y))"
            " (contained-in ?x ?y))))"
        )
        assert isinstance(f, RestrictedQuant)
        assert f.quant == QuantRef("all") and f.restrictor == TrueF()
        inner = f.body.body
        assert inner.left == parse_formula("(result-state (enter ?x ?y))")

    def test_parametric_quantifier(self):
        f = parse_formula(
            "(quant (at-least 3) ?c (city ?c) (and (has-oj-factory ?c)"
            " (has-large-station ?c)))"
        )
        assert isinstance(f, RestrictedQuant)
        assert f.quant == QuantRef("at-least", 3)

    def test_possibility(self):
        f = parse_formula("(poss (exists ?u (realize ?u a1)))")
        assert isinstance(f, Modal) and f.flavor == POSSIBLY
        assert f.body.quant == QuantRef("some")

    def test_kind_is_an_alias_for_ka(self):
        assert parse_term("(kind beer)") == parse_term("(ka beer)")

    def test_comments_and_whitespace(self):
        f = parse_formula("(and  ; comment here\n  (P a)\n  (Q b))")
        assert f == parse_formula("(and (P a) (Q b))")

    def test_error_carries_span_and_expectations(self):
        with pytest.raises(ParseError) as e:
            parse_formula("(and (P a)")
        assert e.value.span is not None
        assert e.value.expected

    def test_error_line_column(self):
        with pytest.raises(ParseError) as e:
            parse_formula("(and (P a)\n  (Q b) extra)")
        assert e.value.span.line == 2

    def test_number_not_a_term(self):
        with pytest.raises(ParseError):
            parse_formula("(P 3)")

    def test_nesting_at_the_limit_parses(self):
        n = Parser.MAX_NESTING - 1
        f = parse_formula("(not " * n + "(P a)" + ")" * n)
        assert render(f).count("(not ") == n

    def test_nesting_past_the_limit_is_a_located_error(self):
        n = Parser.MAX_NESTING
        text = "(not " * n + "(P a)" + ")" * n
        with pytest.raises(ParseError) as e:
            parse_formula(text)
        assert "nested deeper" in e.value.message
        assert e.value.span.start == text.index("(P a)")


class TestRender:
    def test_round_trip_is_canonical(self):
        text = "(and (P a) (Q b))"
        assert render(parse_formula(text)) == text

    def test_modified_atom_spelling(self):
        out = render(parse_formula("((mod sounds reasonable) p1)"))
        assert out == "((mod sounds reasonable) p1)"

    def test_term_derived_head_spelling(self):
        out = render(parse_formula("((do (ka P)) t1)"))
        assert out == "((do (ka P)) t1)"

    def test_sugar_renders_desugared(self):
        assert render(parse_formula("(forall ?x (P ?x))")) == (
            "(quant all ?x true (P ?x))"
        )


def test_round_trip_thousand_random_asts():
    rng = random.Random(99)
    g = AstGen(rng)
    for _ in range(1000):
        f = g.closed_formula(depth=3)
        assert parse_formula(render(f)) == f


KB_TEXT = """\
(declare pred flag 1)
(declare pred link 2)
(declare const n1 n2)
(axiom (forall ?x (implies (flag ?x) (link ?x n1))))
(fact (flag n2))
(query probe (expect provable) (goal (link n2 n1)))
"""


class TestKbFiles:
    def test_parse_kb_forms(self):
        src = parse_kb(KB_TEXT)
        assert len(src.axioms) == 1 and len(src.facts) == 1
        assert src.signature.predicates == {"flag": 1, "link": 2}
        assert src.queries[0].name == "probe"
        assert src.queries[0].goal == parse_formula("(link n2 n1)")

    def test_redeclaration_conflicts_rejected(self):
        with pytest.raises(ParseError):
            parse_kb("(declare pred x 1)(declare const x)")
        with pytest.raises(ParseError):
            parse_kb("(declare pred x 1)(declare pred x 2)")

    def test_quantifier_declarations_not_supported(self):
        # the quantifier class is closed; only built-ins exist
        with pytest.raises(ParseError):
            parse_kb("(declare quantifier few 1)")

    def test_schema_form(self):
        form = parse_kb(
            "(schema drop (pred-vars (P 1)) (quant-vars (Q right-up))"
            " (implies (quant Q ?x (P ?x) (P ?x)) (quant Q ?x (P ?x) (P ?x))))"
        ).schemas[0]
        assert form.name == "drop"
        assert form.pred_vars == (("P", 1),)
        assert form.quant_vars == (("Q", "right-up"),)

    def test_every_token_deletion_is_caught(self):
        """Deleting any one token never yields a silently accepted kb."""
        tokens = KB_TEXT.replace("(", " ( ").replace(")", " ) ").split()
        for i in range(len(tokens)):
            mutated = " ".join(tokens[:i] + tokens[i + 1:])
            try:
                src = parse_kb(mutated)
            except ParseError as e:
                assert 0 <= e.span.start <= len(mutated) + 1
                continue
            diags = []
            for f, _span in src.axioms + src.facts:
                diags.extend(well_formed(f, src.signature))
            for q in src.queries:
                diags.extend(well_formed(q.goal, src.signature))
            changed = (
                src.signature.predicates != {"flag": 1, "link": 2}
                or src.signature.constants != {"n1", "n2"}
            )
            assert diags or changed, f"deletion {i} slipped through: {mutated!r}"
