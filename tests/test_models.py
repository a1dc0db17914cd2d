"""Finite intensional models: evaluation, satisfaction, enumeration, search."""

import random
import time
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import elfol.models
from elfol.core import (
    And,
    Atom,
    Const,
    Equiv,
    Implies,
    Lambda,
    Modal,
    NECESSARILY,
    Not,
    Or,
    POSSIBLY,
    PredConst,
    QuantRef,
    RestrictedQuant,
    Signature,
    TrueF,
    Var,
    alpha_equivalent,
)
from elfol.kb import KnowledgeBase
from elfol.lexicon import load_bundle
from elfol.models import (
    EnumerationError,
    EvalError,
    IntensionalModel,
    ModelRejection,
    SearchBounds,
    _polarize,
    _settled,
    check_search_size,
    compile_formula,
    dump_model,
    enumerate_models,
    eval_formula,
    find_counterexample,
    first_failure,
    formula_vocabulary,
    model_count,
    model_satisfies,
    parse_model,
    reified_key,
)
from elfol.quantifiers import DEFAULT_REGISTRY, UP
from elfol.schemas import InstanceBounds, Schema, enumerate_instances
from elfol.syntax import parse_formula, parse_term, render

import oracle_models
from gen import QUANTS, AstGen


def single_world(pa=True):
    return IntensionalModel(
        worlds=("w0",),
        accessibility=frozenset(),
        domain=("d0",),
        constants={"a": "d0"},
        predicates={("P", "w0"): frozenset({("d0",)} if pa else set())},
    )


class TestEvalFormula:
    def test_possibility_needs_an_accessible_world(self):
        m = single_world(pa=True)
        f = parse_formula("(poss (P a))")
        assert eval_formula(m, "w0", {}, parse_formula("(P a)")) is True
        assert eval_formula(m, "w0", {}, f) is False

    def test_reflexive_accessibility_makes_it_possible(self):
        m = single_world(pa=True)
        m.accessibility = frozenset({("w0", "w0")})
        assert eval_formula(m, "w0", {}, parse_formula("(poss (P a))")) is True

    def test_conjunct_drop_holds_in_every_small_model(self):
        premise = parse_formula(
            "(quant (at-least 3) ?c (city ?c) (and (oj ?c) (big ?c)))"
        )
        conclusion = parse_formula("(quant (at-least 3) ?c (city ?c) (oj ?c))")
        f = Implies(premise, conclusion)
        assert find_counterexample(f, SearchBounds(max_domain=4)) is None

    def test_lambda_beta_reduces(self):
        m = single_world()
        f = Atom(Lambda(("x",), parse_formula("(P ?x)")), (Const("a"),))
        assert eval_formula(m, "w0", {}, f) is True

    def test_modifier_table_lookup(self):
        m = single_world()
        m.modifiers = {("m1", "P", "w0"): frozenset({("d0",)})}
        f = parse_formula("((mod m1 P) a)")
        assert eval_formula(m, "w0", {}, f) is True
        m.modifiers = {}
        assert eval_formula(m, "w0", {}, f) is False

    def test_modified_lambda_rejected(self):
        m = single_world()
        from elfol.core import Modified

        f = Atom(Modified("m1", Lambda(("x",), TrueF())), (Const("a"),))
        with pytest.raises(EvalError):
            eval_formula(m, "w0", {}, f)

    def test_unregistered_quantifier_is_an_error(self):
        m = single_world()
        f = RestrictedQuant(QuantRef("umpteen"), "x", TrueF(), parse_formula("(P ?x)"))
        with pytest.raises(EvalError):
            eval_formula(m, "w0", {}, f)

    def test_missing_reified_denotation_rejects_model(self):
        m = single_world()
        f = parse_formula("(P (that (P a)))")
        with pytest.raises(ModelRejection):
            eval_formula(m, "w0", {}, f)

    def test_reified_denotation_is_alpha_keyed(self):
        m = single_world()
        t1 = parse_term("(ka (lambda (?x) (P ?x)))")
        t2 = parse_term("(ka (lambda (?y) (P ?y)))")
        m.reified = {reified_key(t1, {}): "d0"}
        f1 = Atom(PredConst("P"), (t1,))
        f2 = Atom(PredConst("P"), (t2,))
        assert eval_formula(m, "w0", {}, f1) is True
        assert eval_formula(m, "w0", {}, f2) is True


class TestModelSatisfies:
    def kb(self, axioms=(), facts=(), schemas=()):
        from elfol.core import Signature

        sig = Signature(
            functions={"enter": 2},
            predicates={"result-state": 1, "contained-in": 2, "P": 1, "correct": 1},
            constants={"a", "b"},
        )
        return KnowledgeBase(sig, list(facts), list(axioms), list(schemas))

    def axiom1(self):
        return parse_formula(
            "(forall ?x (forall ?y (implies (result-state (enter ?x ?y))"
            " (contained-in ?x ?y))))"
        )

    def test_empty_kb_satisfied_by_anything(self):
        assert model_satisfies(single_world(), self.kb()) is True

    def test_result_state_without_containment_fails(self):
        m = IntensionalModel(
            worlds=("w0",),
            accessibility=frozenset(),
            domain=("d0", "d1", "ev"),
            constants={"a": "d0", "b": "d1"},
            predicates={
                ("result-state", "w0"): frozenset({("ev",)}),
                ("contained-in", "w0"): frozenset(),
            },
            functions={"enter": ({("d0", "d1"): "ev"}, "d0")},
        )
        assert model_satisfies(m, self.kb(axioms=[self.axiom1()])) is False
        m.predicates[("contained-in", "w0")] = frozenset({("d0", "d1")})
        assert model_satisfies(m, self.kb(axioms=[self.axiom1()])) is True

    def test_correct_extension_must_track_content(self):
        schema = Schema(
            "correct-iff-content", (), ("PHI",), (),
            parse_formula("(equiv (correct (that (PHI))) (PHI))"),
        )
        content = parse_formula("(P a)")
        that_term = parse_term("(that (P a))")
        base = dict(
            worlds=("w0",),
            accessibility=frozenset(),
            domain=("d0", "prop"),
            constants={"a": "d0", "b": "d0"},
            reified={reified_key(that_term, {}): "prop"},
        )
        agreeing = IntensionalModel(
            predicates={
                ("P", "w0"): frozenset({("d0",)}),
                ("correct", "w0"): frozenset({("prop",)}),
            },
            **base,
        )
        disagreeing = IntensionalModel(
            predicates={
                ("P", "w0"): frozenset({("d0",)}),
                ("correct", "w0"): frozenset(),
            },
            **base,
        )
        from elfol.schemas import InstanceBounds

        kb = self.kb(schemas=[schema])
        bounds = InstanceBounds(max_formula_instances=1)  # just PHI = (P a)
        assert model_satisfies(agreeing, kb, bounds=bounds) is True
        assert model_satisfies(disagreeing, kb, bounds=bounds) is False

    def test_axioms_checked_at_every_world_facts_at_w0(self):
        kb = self.kb(facts=[parse_formula("(P a)")])
        m = IntensionalModel(
            worlds=("w0", "w1"),
            accessibility=frozenset(),
            domain=("d0",),
            constants={"a": "d0", "b": "d0"},
            predicates={
                ("P", "w0"): frozenset({("d0",)}),
                ("P", "w1"): frozenset(),
            },
        )
        assert model_satisfies(m, kb) is True  # fact only needs w0
        kb2 = self.kb(axioms=[parse_formula("(P a)")])
        assert model_satisfies(m, kb2) is False  # axiom needs w1 too

    def test_first_failure_in_checking_order(self):
        m = IntensionalModel(
            worlds=("w0", "w1"),
            accessibility=frozenset(),
            domain=("d0", "d1"),
            constants={"a": "d0", "b": "d1"},
            predicates={
                ("P", "w0"): frozenset({("d0",)}),
                ("P", "w1"): frozenset(),
            },
        )
        pa, pb = parse_formula("(P a)"), parse_formula("(P b)")
        assert first_failure(m, self.kb(facts=[pa])) is None
        assert first_failure(m, self.kb(facts=[pa, pb])) == ("fact", pb, "w0")
        # an axiom is tried at every world, and before any fact
        assert first_failure(m, self.kb(axioms=[pa], facts=[pb])) == (
            "axiom", pa, "w1"
        )


class TestEnumeration:
    def test_counts_match_the_counting_oracle(self):
        ms = list(enumerate_models(2, 1, (("P", 1),)))
        assert len(ms) == 4 * 2  # 2^2 extensions x 2 accessibility subsets
        only_exts = {tuple(sorted(m.predicates[("P", "w0")])) for m in ms}
        assert len(only_exts) == 4

    def test_two_world_count(self):
        ms = list(enumerate_models(1, 2, (("P", 1),)))
        assert len(ms) == (2 ** 2) * (2 ** 4)  # extensions x accessibility
        assert model_count(1, 2, (("P", 1),), ()) == 64

    def test_degenerate_single_model(self):
        ms = list(enumerate_models(1, 1, ()))
        assert len(ms) == 2  # accessibility on one world: empty or reflexive
        assert model_count(1, 1, (), ()) == 2

    def test_ceiling_reports_count_formula(self):
        with pytest.raises(EnumerationError) as e:
            list(enumerate_models(4, 2, (("P", 2), ("Q", 2)), ceiling=10))
        assert "exceeds ceiling" in str(e.value)

    def test_deterministic_order(self):
        a = [dump_model(m) for m in enumerate_models(2, 1, (("P", 1),))]
        b = [dump_model(m) for m in enumerate_models(2, 1, (("P", 1),))]
        assert a == b


def order_key(m, predicates, constants):
    """m's place in enumeration order: accessibility, then each (predicate,
    world) extension, each as the bit mask of its members, then each
    constant's position in the domain."""
    def mask(items, members):
        return sum(1 << i for i, t in enumerate(items) if t in members)

    key = [mask(list(product(m.worlds, repeat=2)), m.accessibility)]
    for name, arity in predicates:
        tuples = list(product(m.domain, repeat=arity))
        key += [mask(tuples, m.predicates[(name, w)]) for w in m.worlds]
    return tuple(key + [m.domain.index(m.constants[c]) for c in constants])


def permuted(m, perm):
    to = dict(zip(m.domain, [m.domain[i] for i in perm]))
    return IntensionalModel(
        worlds=m.worlds,
        accessibility=m.accessibility,
        domain=m.domain,
        constants={c: to[d] for c, d in m.constants.items()},
        predicates={
            k: frozenset(tuple(to[x] for x in t) for t in ext)
            for k, ext in m.predicates.items()
        },
    )


class TestCanonicalEnumeration:
    SHAPES = [
        (size, worlds, preds, consts)
        for size in (1, 2, 3)
        for worlds in (1, 2)
        for preds in ((("P", 1),), (("R", 2),), (("P", 1), ("R", 2)))
        for consts in ((), ("a",), ("a", "b"))
        if model_count(size, worlds, preds, consts) <= 10_000
    ]

    @pytest.mark.parametrize(
        "size,worlds,preds,consts",
        SHAPES,
        ids=[
            f"D{size}-W{worlds}-{'+'.join(p for p, _ in preds)}-c{len(consts)}"
            for size, worlds, preds, consts in SHAPES
        ],
    )
    def test_yields_exactly_the_orbit_leaders_in_order(
        self, size, worlds, preds, consts
    ):
        every = list(enumerate_models(size, worlds, preds, consts))
        keys = [order_key(m, preds, consts) for m in every]
        assert keys == sorted(set(keys))
        leaders = [
            dump_model(m) for m, key in zip(every, keys)
            if all(
                order_key(permuted(m, perm), preds, consts) >= key
                for perm in permutations(range(size))
            )
        ]
        canonical = enumerate_models(size, worlds, preds, consts, canonical=True)
        assert [dump_model(m) for m in canonical] == leaders

    def test_three_monadic_predicates_up_to_four_individuals(self):
        preds = (("P", 1), ("Q", 1), ("R", 1))
        assert sum(
            1 for size in range(1, 5)
            for _ in enumerate_models(size, 1, preds, canonical=True)
        ) == 988

    def test_no_permutation_group_larger_than_the_models(self):
        # 10! permutations against 2 * 2^10 models: none are built
        start = time.perf_counter()
        models = list(enumerate_models(10, 1, (("P", 1),), canonical=True))
        assert time.perf_counter() - start < 1.0
        assert len(models) == model_count(10, 1, (("P", 1),), ())

    def test_ceiling_is_on_the_full_count(self):
        with pytest.raises(EnumerationError, match="= 1024 exceeds ceiling 1023"):
            list(enumerate_models(3, 1, (("R", 2),), ceiling=1023, canonical=True))


class TestFindCounterexample:
    def test_tautology_has_none(self):
        f = parse_formula("(implies (P a) (P a))")
        assert find_counterexample(f, SearchBounds(max_domain=3)) is None

    def test_conjunct_drop_with_downward_quantifier_refuted(self):
        f = parse_formula(
            "(implies (quant (fewer-than 2) ?x (P1 ?x) (and (P2 ?x) (P3 ?x)))"
            " (quant (fewer-than 2) ?x (P1 ?x) (P2 ?x)))"
        )
        cx = find_counterexample(f, SearchBounds(max_domain=4))
        assert cx is not None
        assert eval_formula(cx, cx.w0, {}, f) is False

    def test_requires_closed_formula(self):
        with pytest.raises(ValueError):
            find_counterexample(parse_formula("(P ?x)"))

    @pytest.mark.parametrize(
        "bounds,name",
        [
            (SearchBounds(max_domain=0), "max_domain"),
            (SearchBounds(max_domain=-3), "max_domain"),
            (SearchBounds(max_worlds=0), "max_worlds"),
        ],
    )
    def test_empty_bounds_are_refused(self, bounds, name):
        # no model is checked, so no answer may claim validity
        with pytest.raises(ValueError, match=name):
            find_counterexample(parse_formula("(implies (P a) (P a))"), bounds)

    def test_the_search_ranges_over_the_formulas_vocabulary(self):
        # bounds that listed the predicates left Q empty in every model, so
        # this invalid formula was reported valid
        f = parse_formula("(quant no ?x true (Q ?x))")
        cx = find_counterexample(f, SearchBounds(max_domain=2))
        assert cx is not None and eval_formula(cx, cx.w0, {}, f) is False
        with pytest.raises(TypeError):
            SearchBounds(max_domain=2, predicates=(("P", 1),))


class TestSearchedModelsAreIndependent:
    # the first is refuted only at two worlds, so the search backtracks over
    # every one-world model first; the second has constants and a binary
    # predicate; the downward conjunct drop is searched with pruning, which
    # gives the searched model a P - twin of each extension
    FORMULAS = [
        "(implies (P a) (nec (P a)))",
        "(implies (poss (R a b)) (quant some ?x (P ?x) (R ?x b)))",
        "(implies (quant (fewer-than 2) ?x (A ?x) (and (B ?x) (C ?x)))"
        " (quant (fewer-than 2) ?x (A ?x) (B ?x)))",
    ]
    BOUNDS = SearchBounds(max_domain=3, max_worlds=2)

    @pytest.mark.parametrize("text", FORMULAS)
    def test_a_countermodel_holds_exactly_the_searched_keys(self, text):
        f = parse_formula(text)
        preds, consts = formula_vocabulary(f)
        cx = find_counterexample(f, self.BOUNDS)
        assert list(cx.predicates) == [(name, w) for name, _ in preds for w in cx.worlds]
        assert list(cx.constants) == list(consts)
        assert dump_model(cx) == dump_model(oracle_models.find_counterexample(f, self.BOUNDS))

    @pytest.mark.parametrize("text", FORMULAS)
    def test_each_call_returns_its_own_model(self, text):
        f = parse_formula(text)
        first = find_counterexample(f, self.BOUNDS)
        dump = dump_model(first)
        for key in first.predicates:
            first.predicates[key] = frozenset()
        first.predicates["S", "w0"] = frozenset({("d0",)})
        first.constants.clear()
        second = find_counterexample(f, self.BOUNDS)
        assert second is not first and second.predicates is not first.predicates
        assert dump_model(second) == dump

    @pytest.mark.parametrize("kw", [{}, {"canonical": True}], ids=["plain", "canonical"])
    def test_enumerated_models_are_distinct_objects(self, kw):
        args = 2, 2, (("P", 1), ("Q", 1)), ("a",)
        ms = list(enumerate_models(*args, **kw))
        for part in (lambda m: m, lambda m: m.predicates, lambda m: m.constants):
            assert len({id(part(m)) for m in ms}) == len(ms)
        assert [dump_model(m) for m in ms] == [
            dump_model(m) for m in oracle_models.enumerate_models(*args, **kw)
        ]


def first_falsifier_of_every_model(f, bounds):
    """find_counterexample's answer from a scan of every model, as
    ("model", dump) or ("raises", type, message)."""
    try:
        preds, consts = formula_vocabulary(f)
        holds = compile_formula(f)
        for worlds in range(1, bounds.max_worlds + 1):
            for size in range(1, bounds.max_domain + 1):
                for m in enumerate_models(size, worlds, preds, consts, bounds.ceiling):
                    if not holds(m, m.w0, {}):
                        return "model", dump_model(m)
    except Exception as e:
        return "raises", type(e), str(e)
    return "model", None


# every profile: `most` and `exactly n` have `none` entries
SEARCH_QUANTS = QUANTS + [QuantRef("exactly", 2)]


def conjunct_drop(rng, connective=Implies):
    """(connective (Q ?x R (and B C)) (Q ?x R B)) over three monadic
    predicates whose names sort in a random order, so the restrictor may
    come last and the dropped conjunct C before the kept one B."""
    r, b, c = (Atom(PredConst(n), (Var("x"),)) for n in rng.sample(["A", "B", "C"], 3))
    q = rng.choice(SEARCH_QUANTS)
    return connective(RestrictedQuant(q, "x", r, And(b, c)), RestrictedQuant(q, "x", r, b))


def search_case(rng, case):
    """A closed formula and the bounds to search it at, for one case."""
    if case in ("implication", "monotone"):
        gen = AstGen(rng, reified=False, functions=False, modifiers=False,
                     constants=case == "implication")
        f = Implies(gen.closed_formula(depth=2), gen.closed_formula(depth=2))
        return f, SearchBounds(max_domain=3, max_worlds=2, ceiling=5_000)
    if case == "conjunct-drop":
        # most such implications are valid or refuted only with two or more
        # individuals
        f = conjunct_drop(rng)
    elif case == "equiv":
        f = conjunct_drop(rng, Equiv)
    elif case == "constant":
        # a constant anywhere turns pruning off
        f = conjunct_drop(rng)
        f = And(f, Atom(PredConst("D"), (Const("a"),)))
    else:
        # a conjunct drop over atoms and equations of ?x and constants
        gen = AstGen(rng, reified=False, functions=False, modifiers=False)
        q = rng.choice(QUANTS)
        r, b, c = (gen.formula(frozenset({"x"}), depth=0) for _ in range(3))
        f = Implies(RestrictedQuant(q, "x", r, And(b, c)), RestrictedQuant(q, "x", r, b))
    return f, SearchBounds(max_domain=3, max_worlds=1, ceiling=20_000)


SEARCH_CASES = ["implication", "monotone", "conjunct-drop", "equiv", "constant", "atoms"]


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    case=st.sampled_from(SEARCH_CASES),
)
# a size over the ceiling, where the prune-first predicate order is not the
# name order the ceiling error is written in
@example(seed=36, case="monotone")
def test_canonical_search_finds_the_first_countermodel(seed, case):
    f, bounds = search_case(random.Random(seed), case)
    try:
        cx = find_counterexample(f, bounds)
        found = ("model", None if cx is None else dump_model(cx))
    except Exception as e:
        found = "raises", type(e), str(e)
    assert found == first_falsifier_of_every_model(f, bounds)


class TestPolarityPruning:
    def test_marks(self):
        # the premise of an implication is negative; `all` flips its
        # restrictor, `most` leaves its restrictor unmarked, and each side
        # of an equivalence occurs with both marks
        f = parse_formula(
            "(implies (quant all ?x (A ?x) (not (B ?x)))"
            " (equiv (quant most ?y (C ?y) (D ?y)) (nec (E))))"
        )
        polar, unmarked, mixed = _polarize(f, DEFAULT_REGISTRY)
        assert render(polar) == (
            "(implies (quant all ?x (A ?x) (not (B ?x)))"
            " (and (implies (quant most ?y (C ?y) (D - ?y)) (nec (E)))"
            " (implies (nec (E -)) (quant most ?y (C ?y) (D ?y)))))"
        )
        assert unmarked == {"C"}
        assert mixed == {"D", "E"}

    @pytest.mark.parametrize("text", [
        "(implies (P a) (quant some ?x (P ?x) (Q ?x)))",
        "(implies (quant some ?x (P ?x) (= ?x a)) (P b))",
        "(implies (quant bogus ?x (P ?x) (Q ?x)) (quant some ?x (P ?x) (Q ?x)))",
    ])
    def test_no_pruning_where_evaluation_could_raise(self, text):
        # a constant may be uninterpreted, and an unknown quantifier raises
        f = parse_formula(text)
        preds, _ = formula_vocabulary(f)
        assert _settled(f, preds, (), DEFAULT_REGISTRY) is None

    def test_no_pruning_when_every_predicate_is_unmarked(self):
        f = parse_formula("(quant (exactly 1) ?x (P ?x) (Q ?x))")
        assert _settled(f, (("P", 1), ("Q", 1)), (), DEFAULT_REGISTRY) is None

    def test_prune_order_puts_unmarked_then_mixed_predicates_first(self):
        # `most` leaves its restrictor B unmarked; A occurs with both marks
        # and C only in the premise, so with one mark
        f = parse_formula(
            "(implies (quant most ?x (B ?x) (and (C ?x) (A ?x ?x)))"
            " (quant most ?x (B ?x) (A ?x ?x)))"
        )
        preds, _ = formula_vocabulary(f)
        assert preds == (("A", 2), ("B", 1), ("C", 1))
        assert _settled(f, preds, (), DEFAULT_REGISTRY)[1] == {"A": 1, "B": 0, "C": 2}
        # valid, so the search reaches size 3, whose count is over the
        # ceiling; the error names the predicates in name order
        message = (
            "model count 2^1 * 2^(3^2*1) * 2^(3^1*1) * 2^(3^1*1) = 65536"
            " exceeds ceiling 1000"
        )
        bounds = SearchBounds(max_domain=3, ceiling=1_000)
        for search in (find_counterexample, check_search_size):
            with pytest.raises(EnumerationError) as e:
                search(f, bounds)
            assert str(e.value) == message

    def skipped_models_hold(self, f, max_domain, max_worlds):
        """Check that every canonical model the settled test skips satisfies
        f, and that the others keep their order."""
        preds, consts = formula_vocabulary(f)
        settled = _settled(f, preds, consts, DEFAULT_REGISTRY)
        holds = compile_formula(f)
        for worlds in range(1, max_worlds + 1):
            for size in range(1, max_domain + 1):
                if model_count(size, worlds, preds, ()) > 5_000:
                    continue

                def models(**kw):
                    return {
                        (m.accessibility, tuple(m.predicates.items())): m
                        for m in enumerate_models(size, worlds, preds, canonical=True, **kw)
                    }

                every, kept = models(), models(settled=settled)
                assert list(kept) == [k for k in every if k in kept]
                assert all(holds(m, m.w0, {}) for k, m in every.items() if k not in kept)

    @pytest.mark.parametrize("connective", [Implies, Equiv])
    @pytest.mark.parametrize("q", SEARCH_QUANTS, ids=str)
    def test_a_conjunct_drop_skips_only_models_that_satisfy_it(self, q, connective):
        # the roles restrictor, kept and dropped conjunct take the names in
        # every order, so pruning meets each role while it is unassigned
        for r, b, c in permutations([Atom(PredConst(n), (Var("x"),)) for n in "ABC"]):
            f = connective(
                RestrictedQuant(q, "x", r, And(b, c)), RestrictedQuant(q, "x", r, b)
            )
            self.skipped_models_hold(f, 3, 1)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_only_models_that_satisfy_the_formula_are_skipped(self, seed):
        gen = AstGen(random.Random(seed), reified=False, functions=False,
                     modifiers=False, constants=False)
        f = Implies(gen.closed_formula(depth=2), gen.closed_formula(depth=2))
        try:
            formula_vocabulary(f)
        except EnumerationError:
            return
        self.skipped_models_hold(f, 2, 2)

    def test_every_validate_instance_gives_the_unpruned_answer(self, monkeypatch):
        # the instances `elfol validate --schema monotone-conj-drop` checks
        bundle = load_bundle()
        registry = bundle.registry
        schema = next(s for s in bundle.schemas if s.name == "monotone-conj-drop")
        sig = Signature(predicates={"p1": 1, "p2": 1, "p3": 1})
        instances = enumerate_instances(
            schema, sig, registry, InstanceBounds(max_formula_instances=2)
        )
        bounds = SearchBounds(max_domain=4, max_worlds=1)
        # under a downward quantifier the conjunct drop is refuted
        drop = "(implies (quant Q ?x (p1 ?x) (and (p2 ?x) (p3 ?x))) (quant Q ?x (p1 ?x) (p2 ?x)))"
        formulas = instances + [
            parse_formula(drop.replace("Q", q)) for q in ("no", "(fewer-than 2)", "(at-most 1)")
        ]
        pruned = [find_counterexample(f, bounds, registry) for f in formulas]
        monkeypatch.setattr(elfol.models, "_settled", lambda *args: None)
        full = [find_counterexample(f, bounds, registry) for f in formulas]
        dumps = [[None if m is None else dump_model(m) for m in ms] for ms in (pruned, full)]
        assert dumps[0] == dumps[1]
        assert len(instances) == 162 and dumps[0][:162] == [None] * 162
        assert None not in dumps[0][162:]


class TestDumpParse:
    def test_round_trip(self):
        m = IntensionalModel(
            worlds=("w0", "w1"),
            accessibility=frozenset({("w0", "w1")}),
            domain=("d0", "d1"),
            constants={"a": "d0"},
            predicates={
                ("P", "w0"): frozenset({("d0",)}),
                ("P", "w1"): frozenset({("d0",), ("d1",)}),
            },
        )
        text = dump_model(m)
        back = parse_model(text)
        assert back.worlds == m.worlds
        assert back.accessibility == m.accessibility
        assert back.domain == m.domain
        assert back.predicates[("P", "w1")] == m.predicates[("P", "w1")]
        assert dump_model(back) == text

    def test_dump_is_stable(self):
        m = single_world()
        assert dump_model(m) == dump_model(m)

    def test_parse_rejects_non_injective_reification(self):
        text = (
            "(model (worlds w0) (acc) (domain d0)\n"
            "  (pred P (w0))\n"
            "  (reify (ka P) d0)\n"
            "  (reify (that (P d0)) d0))\n"
        )
        with pytest.raises(EnumerationError):
            parse_model(text)


# ---------------------------------------------------------------------------
# Semantic properties on random formulas and models


def random_models(rng, n):
    from itertools import product

    out = []
    preds = (("P", 1), ("Q", 1), ("R", 2))
    for _ in range(n):
        worlds = ("w0", "w1")[: rng.randint(1, 2)]
        domain = tuple(f"d{i}" for i in range(rng.randint(1, 3)))
        predicates = {}
        for name, arity in preds:
            for w in worlds:
                tuples = [t for t in product(domain, repeat=arity) if rng.random() < 0.5]
                predicates[(name, w)] = frozenset(tuples)
        acc = frozenset(
            (a, b) for a in worlds for b in worlds if rng.random() < 0.5
        )
        out.append(
            IntensionalModel(
                worlds=worlds,
                accessibility=acc,
                domain=domain,
                constants={c: domain[rng.randrange(len(domain))] for c in "abc"},
                predicates=predicates,
            )
        )
    return out


def test_eval_respects_alpha_equivalence(rng):
    g = AstGen(rng, reified=False, functions=False, modifiers=False)
    from elfol.core import RestrictedQuant, subst_map

    models = random_models(rng, 6)
    for _ in range(60):
        f = g.closed_formula(depth=2)
        g2 = _rename_bound(f)
        assert alpha_equivalent(f, g2)
        for m in models:
            assert eval_formula(m, m.w0, {}, f) == eval_formula(m, m.w0, {}, g2)


def _rename_bound(f, counter=[0]):
    from elfol.core import Lambda, RestrictedQuant, subst_map, Var

    match f:
        case RestrictedQuant(q, v, r, b):
            counter[0] += 1
            nv = f"rn{counter[0]}"
            return RestrictedQuant(
                q,
                nv,
                _rename_bound(subst_map(r, {v: Var(nv)})),
                _rename_bound(subst_map(b, {v: Var(nv)})),
            )
        case _:
            kids = getattr(f, "__dataclass_fields__", None)
            if kids is None:
                return f
            values = {}
            changed = False
            for name in kids:
                v = getattr(f, name)
                if hasattr(v, "__dataclass_fields__"):
                    nv = _rename_bound(v)
                    changed = changed or nv is not v
                    values[name] = nv
                else:
                    values[name] = v
            return type(f)(**values) if changed else f


def test_double_negation_demorgan_and_duality(rng):
    g = AstGen(rng, reified=False, functions=False, modifiers=False)
    models = random_models(rng, 5)
    for _ in range(50):
        a = g.closed_formula(depth=2)
        b = g.closed_formula(depth=1)
        checks = [
            (Not(Not(a)), a),
            (Not(And(a, b)), Or(Not(a), Not(b))),
            (Not(Or(a, b)), And(Not(a), Not(b))),
        ]
        for m in models:
            for w in m.worlds:
                for lhs, rhs in checks:
                    assert eval_formula(m, w, {}, lhs) == eval_formula(m, w, {}, rhs)
                # quantifier duality for all/some
                v1 = eval_formula(
                    m, w, {},
                    RestrictedQuant(QuantRef("all"), "qd", TrueF(), a),
                )
                v2 = eval_formula(
                    m, w, {},
                    Not(RestrictedQuant(QuantRef("some"), "qd", TrueF(), Not(a))),
                )
                assert v1 == v2


def test_modal_duality(rng):
    g = AstGen(rng, reified=False, functions=False, modifiers=False)
    models = random_models(rng, 5)
    for _ in range(40):
        f = g.closed_formula(depth=2)
        for m in models:
            for w in m.worlds:
                nec = eval_formula(m, w, {}, Modal(NECESSARILY, f))
                dual = eval_formula(m, w, {}, Not(Modal(POSSIBLY, Not(f))))
                assert nec == dual


def test_right_up_quantifiers_tolerate_conjunct_drop(rng):
    g = AstGen(rng, reified=False, functions=False, modifiers=False)
    models = random_models(rng, 4)
    right_up = [q for q in DEFAULT_REGISTRY.entries(3) if q.right == UP]
    for _ in range(25):
        r = g.formula(frozenset({"v"}), depth=0)
        b = g.formula(frozenset({"v"}), depth=0)
        c = g.formula(frozenset({"v"}), depth=0)
        for q in right_up:
            strong = RestrictedQuant(q.ref, "v", r, And(b, c))
            weak = RestrictedQuant(q.ref, "v", r, b)
            for m in models:
                for w in m.worlds:
                    if eval_formula(m, w, {}, strong):
                        assert eval_formula(m, w, {}, weak)
