"""The bundled knowledge base: loading, coverage, satisfiability."""

import pytest

from elfol.core import (
    Atom,
    Const,
    FunApp,
    Ka,
    Modified,
    PredConst,
    TermDerived,
    That,
    free_vars,
    well_formed,
)
from elfol.kb import KbError
from elfol.lexicon import DATA_DIR, witness_model
from elfol.models import eval_formula, first_failure, model_satisfies
from elfol.syntax import parse_formula, render


class TestLoadBundle:
    def test_loads_cleanly(self, bundle):
        assert len(bundle.axioms) == 4
        assert [s.name for s in bundle.schemas] == [
            "monotone-conj-drop",
            "correct-iff-content",
            "sounds-as-considered",
            "do-reified-action",
        ]
        assert len(bundle.queries) >= 6

    def test_everything_well_formed_and_closed(self, bundle):
        sig = bundle.signature
        for f in bundle.axioms:
            assert well_formed(f, sig) == [] and not free_vars(f)
        for facts in bundle.scenarios.values():
            for f in facts:
                assert well_formed(f, sig) == [] and not free_vars(f)
        for q in bundle.queries:
            assert well_formed(q.goal, sig) == [] and not free_vars(q.goal)

    def test_query_scenarios_resolve(self, bundle):
        for q in bundle.queries:
            for name in q.scenarios:
                assert name in bundle.scenarios

    def test_corruption_is_fatal_with_location(self, tmp_path, monkeypatch):
        import shutil

        import elfol.lexicon as lex

        broken = tmp_path / "data"
        shutil.copytree(DATA_DIR, broken)
        (broken / "axioms.elf").write_text("(axiom (contained-in b1))\n")
        monkeypatch.setattr(lex, "DATA_DIR", broken)
        with pytest.raises(KbError) as e:
            lex.load_bundle()
        assert "axioms.elf" in str(e.value)

    @pytest.mark.parametrize("name, keep, text, message", [
        ("core.elf", True, "(fact (city b1))\n", "core.elf must contain declarations only"),
        ("queries.elf", False, "(query q (goal (contained-in b1 f1)))\n",
         "query suite must hold at least six entries"),
        ("axioms.elf", True, "(fact (city b1))\n", "axioms.elf must contain axioms only"),
        ("axioms.elf", True, "(query extra (goal (city b1)))\n",
         "axioms.elf must contain axioms only"),
        ("schemas.elf", True, "(axiom (city b1))\n", "schemas.elf must contain schemas only"),
        ("scenario-cities.elf", True, "(axiom (city b1))\n",
         "scenario-cities.elf must contain facts only"),
        ("queries.elf", True, "(fact (city b1))\n", "queries.elf must contain queries only"),
    ])
    def test_bundle_rules_name_their_file(
        self, tmp_path, monkeypatch, name, keep, text, message
    ):
        import shutil

        import elfol.lexicon as lex

        broken = tmp_path / "data"
        shutil.copytree(DATA_DIR, broken)
        old = (broken / name).read_text() if keep else ""
        (broken / name).write_text(old + text)
        monkeypatch.setattr(lex, "DATA_DIR", broken)
        with pytest.raises(KbError) as e:
            lex.load_bundle()
        assert str(e.value) == f"{broken / name}: {message}"

    def test_every_declared_symbol_is_used(self, bundle):
        used = {"pred": set(), "fn": set(), "const": set(), "mod": set(),
                "op": set()}

        def walk(node):
            match node:
                case PredConst(name):
                    used["pred"].add(name)
                case Const(name):
                    used["const"].add(name)
                case FunApp(fn, args):
                    used["fn"].add(fn)
                    for a in args:
                        walk(a)
                case Modified(m, base):
                    used["mod"].add(m)
                    walk(base)
                case TermDerived(op, arg):
                    used["op"].add(op)
                    walk(arg)
                case Atom(pred, args):
                    walk(pred)
                    for a in args:
                        walk(a)
                case Ka(p):
                    walk(p)
                case That(b):
                    walk(b)
                case _:
                    for attr in ("body", "left", "right", "restrictor", "arg"):
                        child = getattr(node, attr, None)
                        if child is not None and not isinstance(child, (str, tuple)):
                            walk(child)

        for f in bundle.axioms:
            walk(f)
        for s in bundle.schemas:
            walk(s.body)
        for facts in bundle.scenarios.values():
            for f in facts:
                walk(f)
        for q in bundle.queries:
            walk(q.goal)
        sig = bundle.signature
        metavars = set()
        for s in bundle.schemas:
            metavars |= s.metavar_names()
        assert set(sig.predicates) <= used["pred"] | metavars
        assert set(sig.functions) <= used["fn"]
        assert set(sig.constants) <= used["const"]
        assert set(sig.modifiers) <= used["mod"]
        assert set(sig.term_ops) <= used["op"]


class TestWitnessModel:
    def test_satisfies_the_full_bundle(self, bundle):
        m = witness_model(bundle)
        assert model_satisfies(m, bundle.full_kb()) is True

    def test_first_failure_names_the_instance_and_world(self, bundle):
        # take one true content out of `correct` at w1: the first formula
        # to fail is the correct-iff-content instance for that content
        m = witness_model(bundle)
        ind = min(d for (d,) in m.predicates[("correct", "w1")] if d.startswith("prop-"))
        m.predicates[("correct", "w1")] -= {(ind,)}
        (that,) = (m.reified_sources[k] for k, v in m.reified.items() if v == ind)
        kind, f, w = first_failure(m, bundle.full_kb())
        content = render(that.body)
        assert (kind, render(f), w) == (
            "schema-instance", f"(equiv (correct (that {content})) {content})", "w1"
        )

    def test_reified_individuals_partition(self, bundle):
        m = witness_model(bundle)
        assert m.reified_individuals < set(m.domain)
        assert set(m.reified.values()) == m.reified_individuals
        # injectivity on alpha classes
        assert len(set(m.reified.values())) == len(m.reified)

    def test_some_scenario_facts_hold_pointwise(self, bundle):
        m = witness_model(bundle)
        checks = [
            "(result-state (enter b1 f1))",
            "(majority cars tie-coll)",
            "(= now two-pm)",
            "(quant (at-least 3) ?c (city ?c) (and (oj ?c) (big ?c)))",
            "(poss (exists ?u (exists ?v (and (realize ?u a1) (realize ?v a2)))))",
        ]
        for text in checks:
            assert eval_formula(m, m.w0, {}, parse_formula(text)) is True, text

    def test_everything_provable_from_the_bundle_holds_in_the_witness(self, bundle):
        # the witness satisfies the kb, so proof search and saturation must
        # only ever produce formulas true at its current world
        from elfol.prover import forward_chain, prove

        m = witness_model(bundle)
        kb = bundle.full_kb()
        for case in bundle.queries:
            result = prove(bundle.kb_for(case), case.goal)
            if result.proved:
                assert eval_formula(m, m.w0, {}, case.goal) is True, case.name
        derived = forward_chain(kb).derived
        assert derived
        for f in derived:
            try:
                value = eval_formula(m, m.w0, {}, f)
            except Exception:
                continue  # instances over vocabulary the model leaves open
            assert value is True, f
