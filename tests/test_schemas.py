"""Schema instantiation, goal-directed matching, and bounded enumeration."""

from itertools import product

import pytest

from elfol.core import (
    Atom,
    Const,
    Equiv,
    Implies,
    PredConst,
    QuantRef,
    RestrictedQuant,
    Signature,
    alpha_equivalent,
    children,
    strip_universals,
    subst_map,
)
from elfol.models import SearchBounds, find_counterexample
from elfol.prover import unify
from elfol.quantifiers import DEFAULT_REGISTRY
from elfol.schemas import (
    EnumerationCeiling,
    InstanceBounds,
    Schema,
    SchemaError,
    _quant_ok,
    binding_total,
    enumerate_bindings,
    enumerate_instances,
    ground_atoms,
    instantiate,
    match_conclusion,
    substitute,
)
from elfol.syntax import parse_formula, parse_predexpr, render


def conj_drop() -> Schema:
    return Schema(
        "monotone-conj-drop",
        (("P1", 1), ("P2", 1), ("P3", 1)),
        (),
        (("Q", "right-up"),),
        parse_formula(
            "(implies (quant Q ?x (P1 ?x) (and (P2 ?x) (P3 ?x)))"
            " (quant Q ?x (P1 ?x) (P2 ?x)))"
        ),
    )


def correct_schema() -> Schema:
    return Schema(
        "correct-iff-content",
        (),
        ("PHI",),
        (),
        parse_formula("(equiv (correct (that (PHI))) (PHI))"),
    )


def do_schema() -> Schema:
    return Schema(
        "do-reified-action",
        (("P", 1),),
        (),
        (),
        parse_formula("(forall ?x (implies ((do (ka P)) ?x) (P ?x)))"),
    )


REG = DEFAULT_REGISTRY


class TestInstantiate:
    def test_conjunct_drop_instance_licenses_the_inference(self):
        binding = {
            "Q": QuantRef("at-least", 3),
            "P1": PredConst("city"),
            "P2": PredConst("oj"),
            "P3": PredConst("big"),
        }
        inst = instantiate(conj_drop(), binding, REG)
        assert inst == parse_formula(
            "(implies (quant (at-least 3) ?x (city ?x) (and (oj ?x) (big ?x)))"
            " (quant (at-least 3) ?x (city ?x) (oj ?x)))"
        )

    def test_do_schema_with_lambda_beta_reduces(self):
        binding = {"P": parse_predexpr("(lambda (?x) (send-off ?x r1))")}
        inst = instantiate(do_schema(), binding, REG)
        expected = parse_formula(
            "(forall ?x (implies ((do (ka (lambda (?x) (send-off ?x r1)))) ?x)"
            " (send-off ?x r1)))"
        )
        assert alpha_equivalent(inst, expected)

    def test_correct_instance(self):
        inst = instantiate(
            correct_schema(), {"PHI": parse_formula("(= now two-pm)")}, REG
        )
        assert inst == parse_formula(
            "(equiv (correct (that (= now two-pm))) (= now two-pm))"
        )

    def test_downward_quantifier_rejected_by_constraint(self):
        binding = {
            "Q": QuantRef("fewer-than", 3),
            "P1": PredConst("city"),
            "P2": PredConst("oj"),
            "P3": PredConst("big"),
        }
        with pytest.raises(SchemaError):
            instantiate(conj_drop(), binding, REG)

    def test_constraint_enforced_across_the_whole_registry(self):
        base = {
            "P1": PredConst("city"),
            "P2": PredConst("oj"),
            "P3": PredConst("big"),
        }
        for entry in REG.entries(max_param=3):
            binding = dict(base, Q=entry.ref)
            if entry.right == "up":
                instantiate(conj_drop(), binding, REG)
            else:
                with pytest.raises(SchemaError):
                    instantiate(conj_drop(), binding, REG)

    def test_partial_binding_rejected(self):
        with pytest.raises(SchemaError):
            instantiate(conj_drop(), {"Q": QuantRef("all")}, REG)

    def test_open_formula_binding_rejected(self):
        with pytest.raises(SchemaError):
            instantiate(correct_schema(), {"PHI": parse_formula("(P ?x)")}, REG)


class TestMatchConclusion:
    def test_do_schema_abstraction_candidates(self):
        goal = parse_formula("(send-off t1 r1)")
        bindings = match_conclusion(do_schema(), goal, REG)
        values = [b["P"] for b in bindings]
        lam = parse_predexpr("(lambda (?u) (send-off ?u r1))")
        assert any(alpha_equivalent(v, lam) for v in values)
        # oracle: instantiating each binding reproduces the goal as the
        # conclusion instance
        for b in bindings:
            meta = {k: v for k, v in b.items() if not k.startswith("_")}
            inst = instantiate(do_schema(), meta, REG)
            _, matrix = strip_universals(inst)
            assert unify(matrix.right, goal) is not None

    def test_conjunct_drop_leaves_premise_metavar_open(self):
        goal = parse_formula("(quant most ?c (city ?c) (oj ?c))")
        bindings = match_conclusion(conj_drop(), goal, REG)
        assert bindings, "expected a match"
        b = bindings[0]
        assert b["Q"] == QuantRef("most")
        assert alpha_equivalent(b["P1"], PredConst("city"))
        assert alpha_equivalent(b["P2"], PredConst("oj"))
        assert "P3" not in b
        assert not binding_total(conj_drop(), b)

    def test_downward_goal_quantifier_fails_constraint(self):
        goal = parse_formula("(quant (fewer-than 2) ?c (city ?c) (oj ?c))")
        assert match_conclusion(conj_drop(), goal, REG) == []

    def test_correct_right_to_left(self):
        goal = parse_formula("(= now two-pm)")
        bindings = match_conclusion(correct_schema(), goal, REG)
        assert any(
            b.get("_position") == "right"
            and alpha_equivalent(b["PHI"], goal)
            for b in bindings
        )

    def test_correct_left_side(self):
        goal = parse_formula("(correct (that (= now two-pm)))")
        bindings = match_conclusion(correct_schema(), goal, REG)
        assert any(
            b.get("_position") == "left"
            and alpha_equivalent(b["PHI"], parse_formula("(= now two-pm)"))
            for b in bindings
        )

    def test_universal_is_not_bound_to_a_variable_the_goal_binds(self):
        # ?y lies outside the quantifier, so binding it to the goal's ?x
        # would capture: the premise instance (s ?x) would have ?x free
        schema = Schema(
            "capture",
            (("P1", 1),),
            (),
            (("Q", "right-up"),),
            parse_formula("(forall ?y (implies (s ?y) (quant Q ?z (P1 ?z) (s ?y))))"),
        )
        goal = parse_formula("(quant some ?x (r ?x) (s ?x))")
        assert match_conclusion(schema, goal, REG) == []

    def test_match_is_sound_across_random_goals(self, rng):
        # every returned total binding instantiates to a formula whose
        # conclusion position, under the recorded universal instantiation,
        # is alpha-equivalent to the goal
        import gen
        from elfol.core import subst_map

        g = gen.AstGen(rng, reified=False, functions=False, modifiers=False)
        schema = do_schema()
        for _ in range(80):
            goal = g.closed_formula(depth=2)
            if not isinstance(goal, Atom):
                continue
            for b in match_conclusion(schema, goal, REG):
                meta = {k: v for k, v in b.items() if not k.startswith("_")}
                if not binding_total(schema, meta):
                    continue
                inst = instantiate(schema, meta, REG)
                _, matrix = strip_universals(inst)
                concl = subst_map(matrix.right, b["_universals"])
                assert alpha_equivalent(concl, goal), render(goal)


def _conclusions(formula) -> list:
    """(position, conclusion) pairs as match_conclusion reads them."""
    _, matrix = strip_universals(formula)
    if isinstance(matrix, Implies):
        return [("consequent", matrix.right)]
    if isinstance(matrix, Equiv):
        return [("left", matrix.left), ("right", matrix.right)]
    return [("body", matrix)]


def _metavars_in(schema: Schema, template) -> set:
    preds, formulas = schema.pred_arities, set(schema.formula_metavars)
    found = set()

    def walk(node):
        if isinstance(node, PredConst) and (
            node.name in preds or node.name in formulas
        ):
            found.add(node.name)
        elif isinstance(node, RestrictedQuant) and node.quant.name in schema.quant_constraints:
            found.add(node.quant.name)
        for child in children(node):
            walk(child)

    walk(template)
    return found


def _enumerating_bindings(schema: Schema, sig: Signature, bounds) -> list:
    """The bindings enumerate_instances instantiates, in its order."""
    axes = [
        (name, [PredConst(p) for p in sorted(sig.predicates) if sig.predicates[p] == arity])
        for name, arity in schema.pred_metavars
    ]
    atoms = ground_atoms(sig, bounds.max_formula_instances)
    axes += [(name, atoms) for name in schema.formula_metavars]
    refs = [q.ref for q in REG.entries(bounds.max_quant_param)]
    axes += [
        (name, [r for r in refs if _quant_ok(constraint, r, REG)])
        for name, constraint in schema.quant_metavars
    ]
    names = [name for name, _ in axes]
    return [dict(zip(names, combo)) for combo in product(*(c for _, c in axes))]


class TestMatchRoundTrip:
    SIG = Signature(predicates={"A": 1, "B": 1, "C": 1}, constants={"a", "b"})
    BOUNDS = InstanceBounds(max_quant_param=2, max_formula_instances=3)

    def test_every_bundled_schema(self, bundle):
        assert len(bundle.schemas) == 4
        checked = set()
        for schema in bundle.schemas:
            instances = enumerate_instances(schema, self.SIG, REG, self.BOUNDS)
            bindings = _enumerating_bindings(schema, self.SIG, self.BOUNDS)
            assert len(instances) == len(bindings) > 0
            universals, _ = strip_universals(schema.body)
            ground = {v: Const("b") for v in universals}
            templates = dict(_conclusions(schema.body))
            for inst, binding in zip(instances, bindings):
                assert instantiate(schema, binding, REG) == inst
                for position, conclusion in _conclusions(inst):
                    goal = subst_map(conclusion, ground)
                    wanted = _metavars_in(schema, templates[position])
                    found = [
                        b for b in match_conclusion(schema, goal, REG)
                        if b["_position"] == position
                        and all(
                            b.get(m) == binding[m]
                            if isinstance(binding[m], QuantRef)
                            else m in b and alpha_equivalent(b[m], binding[m])
                            for m in wanted
                        )
                    ]
                    assert found, (schema.name, position, render(goal))
                    checked |= wanted
        assert checked == {
            "P", "PHI", "P1", "P2", "Q",
        }


class TestBindsBackward:
    """A schema none of whose conclusion sides mentions every metavariable
    has no total match, so backward search and replay skip it."""

    SYNTHETIC = [
        # a quantifier metavariable only in the premise
        Schema("q-premise", (("P", 1),), (), (("Q", "any"),),
               parse_formula("(forall ?y (implies (quant Q ?x (P ?x) (P ?x)) (P ?y)))")),
        # each side of an equivalence mentions one of two metavariables
        Schema("split-equiv", (), ("PHI", "PSI"), (), parse_formula("(equiv (PHI) (PSI))")),
        # the right side mentions both
        Schema("right-equiv", (), ("PHI", "PSI"), (),
               parse_formula("(equiv (PHI) (and (PHI) (PSI)))")),
        # a bare body is its own conclusion
        Schema("bare", (("P", 1),), (), (), parse_formula("(forall ?x (P ?x))")),
    ]

    def test_against_the_metavariables_each_side_mentions(self, bundle):
        for schema in bundle.schemas + self.SYNTHETIC:
            assert schema.binds_backward == any(
                _metavars_in(schema, side) == schema.metavar_names()
                for _, side in _conclusions(schema.body)
            ), schema.name
        assert [s.binds_backward for s in bundle.schemas] == [False, True, True, True]
        assert [s.binds_backward for s in self.SYNTHETIC] == [False, False, True, True]

    def test_a_schema_that_does_not_has_no_total_match_on_its_own_instances(self):
        sig, bounds = TestMatchRoundTrip.SIG, TestMatchRoundTrip.BOUNDS
        for schema in [conj_drop()] + self.SYNTHETIC[:2]:
            assert not schema.binds_backward
            matched = 0
            ground = {v: Const("b") for v in strip_universals(schema.body)[0]}
            for inst in enumerate_instances(schema, sig, REG, bounds):
                for _, conclusion in _conclusions(inst):
                    for b in match_conclusion(schema, subst_map(conclusion, ground), REG):
                        matched += 1
                        meta = {k: v for k, v in b.items() if not k.startswith("_")}
                        assert not binding_total(schema, meta)
            assert matched > 0, schema.name


class TestRematches:
    """A conclusion side that mentions every metavariable and applies none
    gives back, matched against an instance of itself, only the binding of
    that instance; the prover's dead-subgoal skip relies on it."""

    # (P ?x) is an applied metavariable: (R c c) is the instance under P =
    # (lambda (?u) (R ?u c)) and ?x = c, and matching abstracts both c's
    WRAPPED = Schema("wrapped", (("P", 1),), (), (),
                     parse_formula("(forall ?x (equiv (fine (ka P) ?x) (P ?x)))"))

    def test_which_sides_rematch(self, bundle):
        got = {
            (s.name, position): s.rematches(side)
            for s in bundle.schemas + [self.WRAPPED] for position, side in _conclusions(s.body)
        }
        assert got == {
            ("monotone-conj-drop", "consequent"): False,  # P3 is in the premise only
            ("correct-iff-content", "left"): True,
            ("correct-iff-content", "right"): True,
            ("sounds-as-considered", "left"): True,
            ("sounds-as-considered", "right"): False,
            ("do-reified-action", "consequent"): False,
            ("wrapped", "left"): True,
            ("wrapped", "right"): False,
        }

    def test_a_side_that_rematches_gives_back_only_its_binding(self, bundle):
        sig, bounds = TestMatchRoundTrip.SIG, TestMatchRoundTrip.BOUNDS
        checked = 0
        for schema in bundle.schemas + [self.WRAPPED]:
            ground = {v: Const("b") for v in strip_universals(schema.body)[0]}
            for position, side in _conclusions(schema.body):
                if not schema.rematches(side):
                    continue
                for binding in _enumerating_bindings(schema, sig, bounds):
                    goal = subst_map(substitute(schema, side, binding), ground)
                    found = [b for b in match_conclusion(schema, goal, REG)
                             if b["_position"] == position]
                    assert len(found) == 1, (schema.name, position, render(goal))
                    assert all(alpha_equivalent(found[0][m], v) for m, v in binding.items())
                    checked += 1
        assert checked == 12  # 6 for correct-iff-content, 3 each for the two left sides

    def test_a_side_that_applies_its_metavariable_can_bind_it_anew(self):
        found = [b for b in match_conclusion(self.WRAPPED, parse_formula("(R c c)"), REG)
                 if b["_position"] == "right"]
        assert [render(b["P"]) for b in found] == ["(lambda (?u0) (R ?u0 ?u0))"]


class TestEnumerateBindings:
    def test_every_bundled_schema_against_the_independent_enumeration(self, bundle):
        sig, bounds = TestMatchRoundTrip.SIG, TestMatchRoundTrip.BOUNDS
        assert len(bundle.schemas) == 4
        for schema in bundle.schemas:
            bindings = list(enumerate_bindings(schema, sig, REG, bounds))
            assert bindings == _enumerating_bindings(schema, sig, bounds)
            assert enumerate_instances(schema, sig, REG, bounds) == [
                instantiate(schema, b, REG) for b in bindings
            ]

    def test_ceiling_is_checked_before_any_binding_is_built(self):
        sig = Signature(predicates={f"p{i}": 1 for i in range(30)})
        with pytest.raises(EnumerationCeiling, match="30 \\* 30 \\* 30 \\* "):
            enumerate_bindings(conj_drop(), sig, REG, InstanceBounds(ceiling=100))


class TestEnumerateInstances:
    def test_formula_metavar_count(self):
        sig = Signature(predicates={"P": 1, "correct": 1}, constants={"a", "b"})
        instances = enumerate_instances(
            correct_schema(), sig, REG, InstanceBounds(max_formula_instances=2)
        )
        assert len(instances) == 2

    def test_conj_drop_count_with_small_registry(self):
        sig = Signature(predicates={"A": 1, "B": 1, "C": 1})
        # four right-up quantifiers: all, some, most and at-least 1
        instances = enumerate_instances(
            conj_drop(), sig, REG, InstanceBounds(max_quant_param=1)
        )
        assert len(instances) == 4 * 3 * 3 * 3

    def test_no_metavars_yields_exactly_the_body(self):
        body = parse_formula("(implies (P a) (P a))")
        s = Schema("noop", (), (), (), body)
        sig = Signature(predicates={"P": 1}, constants={"a"})
        assert enumerate_instances(s, sig, REG) == [body]

    def test_ceiling_guard(self):
        sig = Signature(predicates={f"p{i}": 1 for i in range(30)})
        with pytest.raises(EnumerationCeiling):
            enumerate_instances(
                conj_drop(), sig, REG, InstanceBounds(ceiling=100)
            )

    def test_every_conjunct_drop_instance_is_valid(self):
        sig = Signature(predicates={"A": 1, "B": 1, "C": 1})
        instances = enumerate_instances(conj_drop(), sig, REG)
        bounds = SearchBounds(max_domain=2, max_worlds=1)
        for inst in instances:
            assert find_counterexample(inst, bounds, REG) is None
