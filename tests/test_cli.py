"""Command-line interface: exit codes, output stability, subcommands."""

import json
import time

import pytest

from elfol.cli import main
from elfol.lexicon import DATA_DIR, load_bundle, witness_model
from elfol.models import dump_model
from elfol.syntax import Parser

CORE = str(DATA_DIR / "core.elf")
AXIOMS = str(DATA_DIR / "axioms.elf")
SCHEMAS = str(DATA_DIR / "schemas.elf")
ENTER = str(DATA_DIR / "scenario-enter.elf")
BUNDLE_FILES = sorted(str(p) for p in DATA_DIR.glob("*.elf"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestProveCommand:
    def test_provable_goal_exits_zero_with_trace(self, capsys):
        code, out, err = run(
            capsys, "prove", CORE, AXIOMS, ENTER, "--goal", "(contained-in b1 f1)"
        )
        assert code == 0
        assert "axiom-match" in out and "(contained-in b1 f1)" in out

    def test_unprovable_goal_exits_one(self, capsys):
        code, out, err = run(
            capsys, "prove", CORE, AXIOMS, ENTER, "--goal", "(contained-in f1 b1)"
        )
        assert code == 1
        assert "not proved" in out

    def test_parse_error_exits_two_with_span(self, capsys):
        code, out, err = run(
            capsys, "prove", CORE, "--goal", "(contained-in b1"
        )
        assert code == 2
        assert "error" in err

    def test_bad_file_reports_location(self, capsys, tmp_path):
        bad = tmp_path / "bad.elf"
        bad.write_text("(fact (undeclared x))")
        code, out, err = run(capsys, "check", str(bad))
        assert code == 2
        assert "bad.elf" in err

    def test_deeply_nested_goal_exits_two(self, capsys):
        goal = "(not " * 3000 + "(contained-in b1 f1)" + ")" * 3000
        code, out, err = run(capsys, "prove", CORE, AXIOMS, ENTER, "--goal", goal)
        assert code == 2
        assert "nested deeper" in err

    def test_goal_at_the_nesting_limit_is_searched(self, capsys):
        n = Parser.MAX_NESTING - 1
        goal = "(not " * n + "(contained-in b1 f1)" + ")" * n
        code, out, err = run(capsys, "prove", CORE, AXIOMS, ENTER, "--goal", goal)
        assert code == 1
        assert "not proved" in out

    def test_structured_trace_is_json(self, capsys):
        code, out, err = run(
            capsys, "prove", CORE, AXIOMS, ENTER,
            "--goal", "(contained-in b1 f1)", "--structured",
        )
        assert code == 0
        record = json.loads(out)
        assert set(record) == {"rule", "formula", "children", "lexical_steps"}


class TestDemoCommand:
    def test_all_queries_pass(self, capsys):
        code, out, err = run(capsys, "demo")
        assert code == 0
        assert "queries as expected" in out

    def test_structured_output_is_stable(self, capsys):
        code1, out1, _ = run(capsys, "--structured", "demo")
        code2, out2, _ = run(capsys, "--structured", "demo")
        assert code1 == code2 == 0
        assert out1 == out2
        for line in out1.splitlines():
            record = json.loads(line)
            assert set(record) == {
                "query", "expect", "outcome", "lexical_steps", "explored", "ok"
            }


class TestValidateCommand:
    def test_bundled_schema_valid_up_to_bounds(self, capsys):
        code, out, err = run(
            capsys, "validate", "--schema", "monotone-conj-drop", "--max-domain", "2"
        )
        assert code == 0
        assert "valid up to bounds" in out

    def test_unknown_schema_exits_two(self, capsys):
        code, out, err = run(capsys, "validate", "--schema", "nope")
        assert code == 2

    def test_bounds_over_the_ceiling_exit_two_before_any_search(self, capsys):
        # the first instance's one-predicate vocabulary stays under the
        # ceiling up to |D| = 19, so a search would enumerate all of those
        # sizes before failing at 20
        start = time.perf_counter()
        code, out, err = run(
            capsys, "validate", "--schema", "monotone-conj-drop", "--max-domain", "99"
        )
        assert time.perf_counter() - start < 5
        assert code == 2
        assert out == ""
        assert err == (
            "error: model count 2^1 * 2^(20^1*1) = 2097152 exceeds ceiling 2000000\n"
        )

    @pytest.mark.parametrize(
        "flag,value,name",
        [
            ("--max-domain", "0", "max_domain"),
            ("--max-domain", "-3", "max_domain"),
            ("--max-worlds", "0", "max_worlds"),
        ],
    )
    def test_empty_bounds_exit_two_without_claiming_validity(
        self, capsys, flag, value, name
    ):
        code, out, err = run(
            capsys, "validate", "--schema", "monotone-conj-drop", flag, value
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and name in err


class TestEvalCommand:
    def test_eval_model_file(self, capsys, tmp_path):
        model = tmp_path / "m.elf"
        model.write_text(
            "(model (worlds w0) (acc) (domain d0)\n"
            "  (const a d0)\n"
            "  (pred P (w0 (d0))))\n"
        )
        code, out, err = run(capsys, "eval", "--model", str(model), "--formula", "(P a)")
        assert code == 0 and out.strip() == "true"
        code, out, err = run(
            capsys, "eval", "--model", str(model), "--formula", "(poss (P a))"
        )
        assert code == 0 and out.strip() == "false"

    def test_uninterpreted_constant_exits_two(self, capsys, tmp_path):
        model = tmp_path / "m.elf"
        model.write_text("(model (worlds w0) (acc) (domain d0) (const a d0))\n")
        code, out, err = run(
            capsys, "eval", "--model", str(model), "--formula", "(= zz a)"
        )
        assert code == 2
        assert "m.elf" in err and "(= zz a)" in err
        assert "uninterpreted constant zz" in err

    def test_unknown_quantifier_is_named_without_quotes(self, capsys, tmp_path):
        model = tmp_path / "m.elf"
        model.write_text("(model (worlds w0) (acc) (domain d0) (pred P (w0 (d0))))\n")
        formula = "(quant umpteen ?x true (P ?x))"
        code, out, err = run(capsys, "eval", "--model", str(model), "--formula", formula)
        assert (code, out) == (2, "")
        assert err == f"error: {model}: formula {formula}: unknown quantifier 'umpteen'\n"

    def test_model_parse_error_names_the_model_file(self, capsys, tmp_path):
        model = tmp_path / "bad.elf"
        model.write_text("(model (worlds w0 (domain d0))\n")
        code, out, err = run(capsys, "eval", "--model", str(model), "--formula", "(P a)")
        assert (code, out) == (2, "")
        assert err == f"error: {model}: 1:19: found '(' (expected ))\n"

    def test_model_without_worlds_names_the_model_file(self, capsys, tmp_path):
        model = tmp_path / "empty.elf"
        model.write_text("(model (worlds) (acc) (domain d0))\n")
        code, out, err = run(capsys, "eval", "--model", str(model), "--formula", "true")
        assert (code, out) == (2, "")
        assert err == f"error: {model}: model needs at least one world\n"


class TestReduceCommand:
    def test_reports_effort_table(self, capsys):
        code, out, err = run(
            capsys, "reduce", "--kb", CORE, AXIOMS, ENTER,
            "--goal", "(contained-in b1 f1)",
            "--domain", "b1,f1", "--worlds", "w0",
        )
        assert code == 0
        assert "extended" in out and "reduced" in out

    def test_structured_reduce(self, capsys):
        code, out, err = run(
            capsys, "reduce", "--kb", CORE, AXIOMS, ENTER,
            "--goal", "(contained-in b1 f1)",
            "--domain", "b1,f1", "--worlds", "w0", "--structured",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        first = json.loads(lines[0])
        assert set(first) == {"encoding", "explored", "proof_len", "outcome"}

    @pytest.mark.parametrize("domain, worlds, acc, message", [
        ("w0,b1", "w0", "", "w0 is both a domain and a world constant"),
        ("obj-k1,b1", "w0", "",
         "obj-k1 has the form obj-k<N>, reserved for reified terms"),
        ("b1,f1", "w0,obj-k2", "",
         "obj-k2 has the form obj-k<N>, reserved for reified terms"),
        ("b1,f1", "w0", "w0:w9",
         "accessibility pair w0:w9 names w9, which is not a declared world"),
        ("b1,f1", "w0,w1,w2", "w0:w1:w2",
         "accessibility pair w0:w1:w2 names w1:w2, which is not a declared world"),
        ("(,c2", "w)", "", "domain name '(' is not a constant"),
        ("b1,f1", "w)", "", "world name 'w)' is not a constant"),
        ("?x,b1", "w0", "", "domain name '?x' is not a constant"),
        ("c 1,b1", "w0", "", "domain name 'c 1' is not a constant"),
        ("b1,f1", "w0,42", "", "world name '42' is not a constant"),
        ("b1,,f1", "w0", "", "domain name '' is not a constant"),
        ("b1,f1,", "w0", "", "domain name '' is not a constant"),
        ("b1,f1", "w0,,w1", "", "world name '' is not a constant"),
        ("", "w0", "",
         "reduction requires domain closure: provide domain constants"),
        ("b1,f1", "", "", "reduction requires at least one world constant"),
    ])
    def test_ambiguous_context_exits_two(self, capsys, domain, worlds, acc, message):
        code, out, err = run(
            capsys, "reduce", "--kb", CORE, AXIOMS, ENTER,
            "--goal", "(contained-in b1 f1)",
            "--domain", domain, "--worlds", worlds, "--acc", acc,
        )
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"


class TestUnknownQuantifier:
    @pytest.mark.parametrize("quant, message", [
        ("bogus", "unknown quantifier 'bogus'"),
        ("(at-least -2)", "at-least requires an integer parameter >= 0"),
        ("(all 3)", "all takes no parameter"),
    ])
    def test_prove_goal_exits_two(self, capsys, quant, message):
        goal = f"(not (quant {quant} ?x (big ?x) (big ?x)))"
        code, out, err = run(capsys, "prove", CORE, "--goal", goal)
        assert (code, out) == (2, "")
        assert err.strip() == f"error: goal: {message}"

    def test_reduce_goal_exits_two(self, capsys):
        code, out, err = run(
            capsys, "reduce", "--kb", CORE,
            "--goal", "(quant bogus ?x (big ?x) (big ?x))",
            "--domain", "a1", "--worlds", "w0",
        )
        assert (code, out) == (2, "")
        assert err.strip() == "error: goal: unknown quantifier 'bogus'"

    def test_reduce_kb_fact_exits_two(self, capsys, tmp_path):
        facts = tmp_path / "facts.elf"
        facts.write_text("(fact (quant bogus ?x (big ?x) (big ?x)))")
        code, out, err = run(
            capsys, "reduce", "--kb", CORE, str(facts),
            "--goal", "(big a1)", "--domain", "a1", "--worlds", "w0",
        )
        assert (code, out) == (2, "")
        assert err.strip() == "error: quantifier bogus is not reducible"

    @pytest.mark.parametrize("entry, message", [
        ("(fact (quant bogus ?x (big ?x) (big ?x)))",
         "fact (quant bogus ?x (big ?x) (big ?x)): unknown quantifier 'bogus'"),
        ("(axiom (not (quant (all 3) ?x (big ?x) (big ?x))))",
         "axiom (not (quant (all 3) ?x (big ?x) (big ?x))): all takes no parameter"),
    ])
    def test_check_kb_entry_exits_two(self, capsys, tmp_path, entry, message):
        kb = tmp_path / "kb.elf"
        kb.write_text(entry)
        code, out, err = run(capsys, "check", CORE, str(kb))
        assert (code, out) == (2, "")
        assert err.strip() == f"error: {message}"


class TestCheckCommand:
    def test_clean_files(self, capsys):
        code, out, err = run(capsys, "check", CORE, AXIOMS, SCHEMAS, ENTER)
        assert code == 0
        assert "ok:" in out

    @pytest.fixture()
    def witness(self, tmp_path):
        """A writer of the witness model's dump, edited by (old, new)."""
        text = dump_model(witness_model(load_bundle()))

        def write(old="", new=""):
            assert old in text
            path = tmp_path / "witness.elf"
            path.write_text(text.replace(old, new))
            return str(path)

        return write

    def test_witness_model_satisfies_the_bundle(self, capsys, witness):
        code, out, err = run(capsys, "check", *BUNDLE_FILES, "--model", witness())
        assert (code, out.splitlines()[-1], err) == (0, "satisfied", "")
        code, out, err = run(
            capsys, "--structured", "check", *BUNDLE_FILES, "--model", witness()
        )
        assert code == 0
        assert json.loads(out)["model"] == {"outcome": "satisfied"}

    @pytest.mark.parametrize("old, new, kind, formula", [
        ("(pred compatible-with (w0 (a1 a2))", "(pred compatible-with (w0)",
         "fact", "(compatible-with a1 a2)"),
        ("(pred contained-in (w0 (b1 f1))", "(pred contained-in (w0)", "axiom",
         "(quant all ?x true (quant all ?y true (implies (result-state (enter ?x ?y))"
         " (contained-in ?x ?y))))"),
        # prop-1 is (that (action-type a1)), so a correct-iff-content instance fails
        ("(pred correct (w0 (prop-1) (prop-2)", "(pred correct (w0 (prop-2)",
         "schema-instance", "(equiv (correct (that (action-type a1))) (action-type a1))"),
    ])
    def test_a_removed_tuple_names_the_failure_and_its_world(
        self, capsys, witness, old, new, kind, formula
    ):
        path = witness(old, new)
        code, out, err = run(capsys, "check", *BUNDLE_FILES, "--model", path)
        assert (code, out.splitlines()[-1]) == (1, f"{kind} fails at world w0: {formula}")
        code, out, err = run(capsys, "--structured", "check", *BUNDLE_FILES, "--model", path)
        assert code == 1
        assert json.loads(out)["model"] == {
            "outcome": "fails", "kind": kind, "formula": formula, "world": "w0",
        }

    @pytest.mark.parametrize("old, new, message", [
        ("(pred big (w0 (i1) (i2) (i3)) (w1 (i1) (i2) (i3)))", "(pred big (w0 (i1 i2)))",
         "predicate big at world w0 has a tuple of length 2, not its declared arity 1"),
        ("(worlds w0 w1)", "(worlds w0 w1", "3:3: found '(' (expected ))"),
    ])
    def test_an_unreadable_model_exits_two_naming_it(
        self, capsys, witness, old, new, message
    ):
        path = witness(old, new)
        code, out, err = run(capsys, "check", *BUNDLE_FILES, "--model", path)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: {message}")

    def test_env_timeout_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("ELFOL_TIMEOUT_MS", "9000")
        code, out, err = run(
            capsys, "prove", CORE, AXIOMS, ENTER, "--goal", "(contained-in b1 f1)"
        )
        assert code == 0

    @pytest.mark.parametrize("value", ["abc", "0", "-5", "1.5"])
    def test_env_timeout_that_is_not_a_positive_integer_exits_two(
        self, capsys, monkeypatch, value
    ):
        monkeypatch.setenv("ELFOL_TIMEOUT_MS", value)
        code, out, err = run(capsys, "demo")
        assert code == 2
        assert err == (
            f"error: ELFOL_TIMEOUT_MS: expected a positive integer, got '{value}'\n"
        )


class TestUnreadableInput:
    def test_prove_missing_file_exits_two(self, capsys, tmp_path):
        missing = tmp_path / "missing.elf"
        code, out, err = run(capsys, "prove", str(missing), "--goal", "(P a)")
        assert code == 2
        assert err.strip() == f"error: {missing}: No such file or directory"

    def test_prove_directory_exits_two(self, capsys, tmp_path):
        code, out, err = run(capsys, "prove", str(tmp_path), "--goal", "(P a)")
        assert code == 2
        assert err.startswith(f"error: {tmp_path}: ")

    def test_eval_missing_model_exits_two(self, capsys, tmp_path):
        missing = tmp_path / "missing.elf"
        code, out, err = run(
            capsys, "eval", "--model", str(missing), "--formula", "(P a)"
        )
        assert code == 2
        assert err.strip() == f"error: {missing}: No such file or directory"

    def test_check_missing_file_exits_two(self, capsys, tmp_path):
        missing = tmp_path / "missing.elf"
        code, out, err = run(capsys, "check", CORE, str(missing))
        assert code == 2
        assert err.strip() == f"error: {missing}: No such file or directory"
