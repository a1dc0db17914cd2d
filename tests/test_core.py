"""Structural operations on the extended-language AST."""

import dataclasses
import random
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elfol import core
from elfol.core import (
    Const,
    Var,
    alpha_equivalent,
    alpha_key,
    children,
    free_vars,
    fresh_name,
    map_children,
    substitute,
    well_formed,
)
from elfol.models import enumerate_models, eval_formula
from elfol.schemas import enumerate_instances
from elfol.syntax import parse_formula, parse_predexpr, parse_term

from gen import TEST_SIG, AstGen


def wf(text, sig=TEST_SIG):
    return well_formed(parse_formula(text), sig)


class TestWellFormed:
    def test_matching_arity_ok(self, bundle):
        assert wf("(contained-in ?x ?y)", bundle.signature) == []

    def test_arity_mismatch_reported(self, bundle):
        diags = wf("(contained-in ?x)", bundle.signature)
        assert len(diags) == 1
        assert "arity 2" in diags[0].message

    def test_modified_atom_ok(self, bundle):
        assert wf("((mod sounds reasonable) ?p)", bundle.signature) == []

    def test_unknown_symbols_located(self):
        diags = wf("(and (P ?x) (nosuch ?x a zz))")
        messages = " | ".join(d.message for d in diags)
        assert "nosuch" in messages and "zz" in messages
        assert any(d.path for d in diags)

    def test_rebinding_rejected(self):
        diags = wf("(quant all ?x (P ?x) (quant some ?x true (Q ?x)))")
        assert any("rebinding" in d.message for d in diags)

    def test_open_reified_term_rejected(self):
        diags = well_formed(parse_term("(that (P ?x))"), TEST_SIG)
        assert any("unbound" in d.message for d in diags)
        # fine when the enclosing binder captures the variable
        assert wf("(quant all ?x (P ?x) (Q (that (P ?x))))") == []

    def test_ka_requires_monadic(self):
        diags = well_formed(parse_term("(ka R)"), TEST_SIG)
        assert any("monadic" in d.message for d in diags)


class TestFreeVars:
    def test_quantifier_binds_in_restrictor_and_body(self):
        f = parse_formula("(quant most ?z (member ?z ?a) (member ?z ?b))")
        assert free_vars(f) == {"a", "b"}

    def test_plain_atom(self):
        assert free_vars(parse_formula("(enter ?x ?y)")) == {"x", "y"}

    def test_closed_reified_term(self):
        t = parse_term("(ka (lambda (?x) (send-off ?x r1)))")
        assert free_vars(t) == set()

    def test_lambda_binds_params(self):
        t = parse_term("(ka (lambda (?x) (R ?x ?y)))")
        assert free_vars(t) == {"y"}


class TestSubstitute:
    def test_simple(self):
        f = parse_formula("(contained-in ?x ?y)")
        out = substitute(f, "x", Const("b1"))
        assert out == parse_formula("(contained-in b1 ?y)")

    def test_capture_avoided(self):
        f = parse_formula("(quant all ?x (P ?x) (R ?x ?y))")
        out = substitute(f, "y", Var("x"))
        expected = parse_formula("(quant all ?x0 (P ?x0) (R ?x0 ?x))")
        assert alpha_equivalent(out, expected)
        # oracle: both open formulas agree in every model with |D| <= 3
        for size in (1, 2, 3):
            for m in enumerate_models(size, 1, (("P", 1), ("R", 2))):
                for d in m.domain:
                    env = {"x": d}
                    assert eval_formula(m, m.w0, env, out) == eval_formula(
                        m, m.w0, env, expected
                    )

    def test_transparent_through_reification(self):
        f = parse_formula("(correct (that (P ?x)))")
        out = substitute(f, "x", Const("c"))
        assert out == parse_formula("(correct (that (P c)))")

    def test_fresh_names_deterministic(self):
        assert fresh_name("x", {"x"}) == "x0"
        assert fresh_name("x", {"x", "x0"}) == "x1"


class TestAlphaEquivalence:
    def test_renamed_quantifier(self):
        a = parse_formula("(quant all ?x (P ?x) (Q ?x))")
        b = parse_formula("(quant all ?y (P ?y) (Q ?y))")
        assert alpha_equivalent(a, b)

    def test_renamed_lambda_in_ka(self):
        a = parse_term("(ka (lambda (?x) (P ?x)))")
        b = parse_term("(ka (lambda (?z) (P ?z)))")
        assert alpha_equivalent(a, b)

    def test_different_quantifier_not_equal(self):
        a = parse_formula("(quant all ?x (P ?x) (Q ?x))")
        b = parse_formula("(quant most ?x (P ?x) (Q ?x))")
        assert not alpha_equivalent(a, b)

    def test_free_variables_stay_rigid(self):
        assert not alpha_equivalent(parse_formula("(P ?x)"), parse_formula("(P ?y)"))

    def test_shadowed_binder_gets_its_own_number(self):
        # the inner ?x shadows the outer one; ?z must not share its number
        a = parse_formula("(forall ?x (implies (exists ?x (forall ?z (R ?x ?z))) (P ?x)))")
        b = parse_formula("(forall ?x (implies (exists ?x (forall ?z (R ?z ?z))) (P ?x)))")
        assert alpha_key(a) != alpha_key(b)
        assert not alpha_equivalent(a, b)


class TestTraversal:
    SAMPLES = [
        parse_term("?x"),
        parse_term("c"),
        parse_term("(f ?x c)"),
        parse_term("(ka P)"),
        parse_term("(that (P c))"),
        parse_predexpr("P"),
        parse_predexpr("(lambda (?x ?y) (R ?x ?y))"),
        parse_predexpr("(mod sounds P)"),
        parse_predexpr("(do c)"),
        parse_formula("true"),
        parse_formula("(R ?x (f c))"),
        parse_formula("(= ?x c)"),
        parse_formula("(not (P c))"),
        parse_formula("(and (P c) (Q c))"),
        parse_formula("(or (P c) (Q c))"),
        parse_formula("(implies (P c) (Q c))"),
        parse_formula("(equiv (P c) (Q c))"),
        parse_formula("(quant most ?x (P ?x) (Q ?x))"),
        parse_formula("(poss (P c))"),
    ]

    def test_samples_cover_every_node_type(self):
        assert {type(n) for n in self.SAMPLES} == set(typing.get_args(core.Expr))

    @pytest.mark.parametrize("node", SAMPLES, ids=lambda n: type(n).__name__)
    def test_identity_rebuild_and_child_order(self, node):
        def tag(child):
            return Const(repr(child))

        assert map_children(node, lambda c: c) == node
        rebuilt = map_children(node, tag)
        assert type(rebuilt) is type(node)
        assert children(rebuilt) == tuple(tag(c) for c in children(node))

    def test_fields_that_are_not_children(self):
        atom = parse_formula("(R ?x (f c))")
        assert children(atom) == (atom.pred, *atom.args)
        q = parse_formula("(quant most ?x (P ?x) (Q ?x))")
        assert children(q) == (q.restrictor, q.body)
        lam = parse_predexpr("(lambda (?x) (P ?x))")
        assert children(lam) == (lam.body,)
        assert children(parse_term("c")) == ()

    @pytest.mark.parametrize("bad", ["P", ("P",), None, core.QuantRef("all")])
    def test_non_node_raises_type_error(self, bad):
        with pytest.raises(TypeError):
            children(bad)
        with pytest.raises(TypeError):
            map_children(bad, lambda c: c)

    @pytest.mark.parametrize("node", SAMPLES, ids=lambda n: type(n).__name__)
    def test_every_node_type_has_a_tag(self, node):
        tag, n = core.shape(node)
        assert isinstance(tag, str) and tag
        assert n == len(children(node))
        assert core.same_shape(node, node)

    @pytest.mark.parametrize("bad", ["P", ("P",), None, core.QuantRef("all")])
    def test_shape_of_non_node_raises_type_error(self, bad):
        with pytest.raises(TypeError):
            core.shape(bad)

    # each pair differs in one field that is neither a child nor a binder name
    ONE_FIELD_APART = [
        (parse_term("?x"), parse_term("?y")),
        (parse_term("c"), parse_term("d")),
        (parse_predexpr("P"), parse_predexpr("Q")),
        (parse_term("(f c)"), parse_term("(g c)")),
        (parse_predexpr("(lambda (?x) (P ?x))"), parse_predexpr("(lambda (?x ?y) (P ?x))")),
        (parse_predexpr("(mod sounds P)"), parse_predexpr("(mod loud P)")),
        (parse_predexpr("(do c)"), parse_predexpr("(make c)")),
        (parse_formula("(poss (P c))"), parse_formula("(nec (P c))")),
        (parse_formula("(quant most ?x (P ?x) (Q ?x))"), parse_formula("(quant all ?x (P ?x) (Q ?x))")),
        (
            parse_formula("(quant (at-least 2) ?x (P ?x) (Q ?x))"),
            parse_formula("(quant (at-least 3) ?x (P ?x) (Q ?x))"),
        ),
    ]

    @pytest.mark.parametrize("a, b", ONE_FIELD_APART, ids=lambda n: type(n).__name__)
    def test_one_non_child_field_apart_is_another_shape(self, a, b):
        assert type(a) is type(b) and children(a) == children(b)
        assert core.shape(a) != core.shape(b)
        assert not core.same_shape(a, b)

    def test_binder_names_and_children_are_not_shape(self):
        a = parse_formula("(quant most ?x (P ?x) (Q ?x))")
        b = parse_formula("(quant most ?y (R ?y ?y) (not (Q ?y)))")
        assert core.same_shape(a, b)
        assert core.same_shape(parse_formula("(and (P c) (Q c))"), parse_formula("(and true true)"))
        assert not core.same_shape(parse_formula("(and (P c) (Q c))"), parse_formula("(or (P c) (Q c))"))
        assert not core.same_shape(parse_term("(f c)"), parse_term("(f c c)"))


# ---------------------------------------------------------------------------
# Properties over random ASTs


seeds = st.integers(min_value=0, max_value=10_000)


@settings(max_examples=60, deadline=None)
@given(seed=seeds)
def test_substituting_a_variable_for_itself_is_identity(seed):
    g = AstGen(random.Random(seed))
    f = g.formula(frozenset({"x"}), depth=3)
    assert alpha_equivalent(substitute(f, "x", Var("x")), f)


@settings(max_examples=60, deadline=None)
@given(seed=seeds)
def test_free_vars_after_substitution(seed):
    rng = random.Random(seed)
    g = AstGen(rng)
    f = g.formula(frozenset({"x", "y"}), depth=3)
    t = g.term(frozenset({"y"}), depth=1)
    if "x" not in free_vars(f):
        return
    out = substitute(f, "x", t)
    assert free_vars(out) == (free_vars(f) - {"x"}) | free_vars(t)


@settings(max_examples=40, deadline=None)
@given(seed=seeds)
def test_alpha_equivalence_is_an_equivalence_relation(seed):
    rng = random.Random(seed)
    g = AstGen(rng)
    fs = [g.closed_formula(depth=2) for _ in range(4)]
    for f in fs:
        assert alpha_equivalent(f, f)
    for a in fs:
        for b in fs:
            assert alpha_equivalent(a, b) == alpha_equivalent(b, a)
            for c in fs:
                if alpha_equivalent(a, b) and alpha_equivalent(b, c):
                    assert alpha_equivalent(a, c)


@settings(max_examples=60, deadline=None)
@given(seed=seeds)
def test_well_formedness_stable_under_closed_substitution(seed):
    rng = random.Random(seed)
    g = AstGen(rng)
    f = g.formula(frozenset({"x"}), depth=3)
    t = g.term(frozenset(), depth=1)
    if well_formed(f, TEST_SIG) == [] and well_formed(t, TEST_SIG) == []:
        assert well_formed(substitute(f, "x", t), TEST_SIG) == []


def test_generator_emits_well_formed_asts(rng):
    g = AstGen(rng)
    for _ in range(200):
        f = g.closed_formula(depth=3)
        assert well_formed(f, TEST_SIG) == []
        assert free_vars(f) == set()


def _uncached_copy(expr):
    """An equal tree of new node objects, none of which carries a key."""
    if children(expr):
        return map_children(expr, _uncached_copy)
    return dataclasses.replace(expr)


def _fresh_key(expr) -> str:
    parts: list = []
    core._ak(_uncached_copy(expr), {}, parts)
    return "".join(parts)


def _nodes(expr):
    yield expr
    for child in children(expr):
        yield from _nodes(child)


def _preorder(expr) -> list:
    """expr and the nodes below it, read off the dataclass fields in order:
    every field value that is a node, or a tuple of them, except the
    quantifier reference of a restricted quantifier."""
    out = [expr]
    for field in dataclasses.fields(expr):
        value = getattr(expr, field.name)
        for part in value if isinstance(value, tuple) else (value,):
            if dataclasses.is_dataclass(part) and type(part) is not core.QuantRef:
                out += _preorder(part)
    return out


def test_nodes_is_the_preorder_walk(rng):
    g = AstGen(rng)
    kinds = set()
    for _ in range(300):
        f = g.closed_formula(depth=4)
        got, want = core.nodes(f), _preorder(f)
        assert len(got) == len(want)
        assert all(a is b for a, b in zip(got, want))
        kinds |= {type(n) for n in got}
    # reified terms, lambdas and modified and derived predicates are walked
    assert {core.Ka, core.That, core.Lambda, core.Modified, core.TermDerived} <= kinds


def _walked_free_vars(expr) -> set:
    """Free variables by a walk that reads no cache."""
    if type(expr) is Var:
        return {expr.name}
    out = set().union(*map(_walked_free_vars, children(expr)))
    if type(expr) is core.Lambda:
        return out - set(expr.params)
    if type(expr) is core.RestrictedQuant:
        return out - {expr.var}
    return out


def _assert_caches_fresh(expr):
    """alpha_key and free_vars of every node of expr equal an uncached walk's."""
    for node in _nodes(expr):
        assert alpha_key(node) == _fresh_key(node)
        assert free_vars(node) == _walked_free_vars(node)
    # a second call reads the cache and gives the same values
    assert alpha_key(expr) == _fresh_key(expr)
    assert free_vars(expr) == _walked_free_vars(expr)


class TestCachedAlphaKey:
    def test_bundle_axioms_facts_and_schema_instances(self, bundle):
        kb = bundle.full_kb()
        formulas = list(kb.axioms) + list(kb.facts)
        for schema in kb.schemas:
            formulas += enumerate_instances(schema, kb.signature, kb.registry)
        assert len(formulas) > 29_000
        for f in formulas:
            _assert_caches_fresh(f)

    def test_cache_is_not_a_field(self):
        f = parse_formula("(quant all ?x (P ?x) (Q (that (P ?x))))")
        twin = parse_formula("(quant all ?x (P ?x) (Q (that (P ?x))))")
        before = (hash(f), repr(f))
        alpha_key(f)
        assert "_alpha_key" in f.__dict__ and "_alpha_key" not in twin.__dict__
        assert f == twin and (hash(f), repr(f)) == before == (hash(twin), repr(twin))

    def test_non_node_raises(self):
        with pytest.raises(TypeError):
            alpha_key("P")


class TestCachedFreeVars:
    def test_cache_is_not_a_field(self):
        text = "(quant all ?x (P ?x ?y) (Q (that (P ?x ?z))))"
        f, twin = parse_formula(text), parse_formula(text)
        before = (hash(f), repr(f))
        fv = free_vars(f)
        assert "_free_vars" in f.__dict__ and "_free_vars" not in twin.__dict__
        assert f == twin and (hash(f), repr(f)) == before == (hash(twin), repr(twin))
        assert fv == {"y", "z"} and free_vars(f) is fv

    def test_cached_set_cannot_be_mutated(self):
        f = parse_formula("(and (P ?x) (Q ?y))")
        fv = free_vars(f)
        assert type(fv) is frozenset
        with pytest.raises(AttributeError):
            fv.add("z")
        assert free_vars(f) == {"x", "y"}

    def test_leaves_are_not_cached(self):
        x, a, p, t = Var("x"), Const("a"), core.PredConst("P"), core.TrueF()
        assert free_vars(x) == {"x"} and free_vars(x) is not free_vars(x)
        assert free_vars(a) is free_vars(p) is free_vars(t) == frozenset()
        assert all("_free_vars" not in vars(leaf) for leaf in (x, a, p, t))

    def test_closed_inner_nodes_share_the_empty_set(self):
        f = parse_formula("(quant all ?x (P ?x) (Q a))")
        assert free_vars(f) is free_vars(f.body) is free_vars(core.TrueF())

    def test_non_node_raises(self):
        with pytest.raises(TypeError):
            free_vars("P")


@settings(max_examples=80, deadline=None)
@given(seed=seeds)
def test_cached_alpha_key_after_subst_map(seed):
    """Both cached values, alpha_key and free_vars, on subst_map's output."""
    rng = random.Random(seed)
    g = AstGen(rng)
    f = g.formula(frozenset({"x", "y"}), depth=3)
    _assert_caches_fresh(f)  # cache the parts subst_map may reuse
    mapping = {
        "x": g.term(frozenset({"y"}), depth=1),
        "y": g.term(frozenset(), depth=1),
    }
    _assert_caches_fresh(core.subst_map(f, mapping))
