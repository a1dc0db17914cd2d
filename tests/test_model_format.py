"""The model file format: round trips on models with every section, the
table-driven reader and writer against the hand-written ones they replaced
(`oracle_model_format`), and the names a model file must declare."""

import random
import re
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_model_format as oracle
from elfol.cli import main
from elfol.core import Atom, Const, Ka, PredConst, That
from elfol.models import EnumerationError, IntensionalModel, dump_model, parse_model, reified_key
from elfol.syntax import ParseError

from gen import AstGen


def random_full_model(rng: random.Random) -> IntensionalModel:
    """A model with every section; pred and mod have an entry for each
    world, as dump_model writes them."""
    worlds = tuple(f"w{i}" for i in range(rng.randint(1, 3)))
    domain = tuple(f"d{i}" for i in range(rng.randint(1, 4)))

    def ext(arity):
        return frozenset(t for t in product(domain, repeat=arity) if rng.random() < 0.4)

    def table(arity):
        return {
            args: rng.choice(domain)
            for args in product(domain, repeat=arity) if rng.random() < 0.5
        }

    gen = AstGen(rng)
    terms = [Ka(PredConst("P")), That(Atom(PredConst("Q"), (Const("a"),)))]
    terms += [That(gen.closed_formula(depth=1)), Ka(gen.predexpr(frozenset(), 1, arity=1))]
    reified, sources = {}, {}
    for term, ind in zip(terms, rng.sample(domain, rng.randint(0, len(domain)))):
        key = reified_key(term, {})
        if key not in reified:
            reified[key], sources[key] = ind, term
    return IntensionalModel(
        worlds=worlds,
        accessibility=frozenset(
            (a, b) for a in worlds for b in worlds if rng.random() < 0.4
        ),
        domain=domain,
        constants={c: rng.choice(domain) for c in ("a", "b", "c") if rng.random() < 0.7},
        predicates={
            (name, w): ext(arity)
            for name, arity in (("P", 1), ("Q", 1), ("R", 2), ("S", 0))
            if rng.random() < 0.8
            for w in worlds
        },
        functions={
            name: (table(arity), rng.choice(domain))
            for name, arity in (("f", 1), ("g", 2), ("k", 0))
            if rng.random() < 0.7
        },
        modifiers={
            ("m1", base, w): ext(arity)
            for base, arity in (("P", 1), ("R", 2))
            if rng.random() < 0.6
            for w in worlds
        },
        term_ops={
            ("op1", ind, w): ext(1)
            for ind in domain for w in worlds if rng.random() < 0.4
        },
        reified=reified,
        reified_individuals=frozenset(d for d in domain if rng.random() < 0.3),
        reified_sources=sources,
    )


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_round_trip_on_models_with_every_section(seed):
    m = random_full_model(random.Random(seed))
    text = dump_model(m)
    back = parse_model(text)
    assert back == m
    assert dump_model(back) == text


def test_every_section_is_generated():
    rng = random.Random(5)
    dumps = "\n".join(dump_model(random_full_model(rng)) for _ in range(40))
    for section in (
        "worlds", "acc", "domain", "reified-domain", "const", "pred", "fn",
        "mod", "op", "reify",
    ):
        assert f"  ({section} " in dumps


def test_readme_model_block_parses():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```lisp\n(\(model .*?)```", readme, re.S).group(1)
    m = parse_model(block)
    assert m.worlds == ("w0", "w1")
    assert m.functions == {"f": ({("d0",): "d1"}, "d0")}
    assert m.term_ops == {("do", "d0", "w0"): frozenset({("d1",)})}
    # the block leaves sounds P at w1 out, which a dump writes as empty
    assert dump_model(parse_model(dump_model(m))) == dump_model(m)


# ---------------------------------------------------------------------------
# Differential check against the hand-written format

# the messages of the errors that only the table-driven reader raises
NEW_ON_ACCEPTED = re.compile(
    r"undeclared (world|individual) '.*'|(world|individual) '.*' declared twice"
    r"|(section|constant|function|reified term) '.*' declared twice"
    r"|(pred|mod|op) '.*' at world '.*' declared twice"
    r"|(pred|mod|op|fn) '.*' has a tuple of length \d+, not \d+"
)
NEW_ON_CRASH = re.compile(
    r"an acc entry is a pair of worlds, found \d+"
    r"|a reified term in a model must be closed|unexpected end of input"
)
EXTRA_TOKENS = ("(", ")", "d9", "w9", "?x", "7", "default", "model", "acc", "that")


def outcome(parse, text):
    try:
        return ("model", parse(text))
    except ParseError as e:
        return ("ParseError", e.message, e.expected, e.span.line, e.span.column)
    except EnumerationError as e:
        return ("EnumerationError", str(e))
    except Exception as e:  # a crash of either reader is an outcome to compare
        return ("crash", type(e).__name__)


def mutants(rng: random.Random, text: str, n: int) -> list:
    tokens = re.findall(r"\(|\)|[^\s()]+", text)
    out = []
    for _ in range(n):
        t = list(tokens)
        i = rng.randrange(len(t))
        op = rng.randrange(5)
        if op == 0:
            del t[i]
        elif op == 4:
            del t[i:]
        elif op == 1:
            t.insert(i, t[i])
        elif op == 2:
            t[i] = rng.choice(tokens)
        else:
            t[i] = rng.choice(EXTRA_TOKENS)
        out.append(" ".join(t))
    return out


def test_dumps_match_the_hand_written_writer():
    rng = random.Random(21)
    for _ in range(150):
        m = random_full_model(rng)
        assert dump_model(m) == oracle.dump_model(m)


def test_reader_matches_the_hand_written_reader_on_mutated_dumps():
    rng = random.Random(22)
    kinds = set()
    for _ in range(60):
        for text in mutants(rng, dump_model(random_full_model(rng)), 40):
            old, new = outcome(oracle.parse_model, text), outcome(parse_model, text)
            kinds.add((old[0], new[0]))
            if old[0] == "crash":
                assert new[0] == "ParseError" and NEW_ON_CRASH.fullmatch(new[1]), text
            elif old != new:
                assert old[0] == "model" and new[0] == "ParseError", text
                assert NEW_ON_ACCEPTED.fullmatch(new[1]), text
    # the corpus reaches every kind of outcome, and each kind of change
    assert {("model", "model"), ("ParseError", "ParseError"),
            ("model", "ParseError"), ("crash", "ParseError")} <= kinds


# ---------------------------------------------------------------------------
# Names a model file must declare

BASE = "(model (worlds w0 w1) (acc (w0 w1)) (domain d0 d1) (const a d0)"


@pytest.mark.parametrize(
    "tail, message",
    [
        ("(pred P (w0 (d9))))", "undeclared individual 'd9'"),
        ("(pred P (w9 (d0))))", "undeclared world 'w9'"),
        ("(mod m P (w0) (w9)))", "undeclared world 'w9'"),
        ("(op o (w0 (d9 (d0)))))", "undeclared individual 'd9'"),
        ("(op o (w0 (d0 (d9)))))", "undeclared individual 'd9'"),
        ("(fn f (default d9)))", "undeclared individual 'd9'"),
        ("(fn f (default d0) ((d9) d0)))", "undeclared individual 'd9'"),
        ("(fn f (default d0) ((d0) d9)))", "undeclared individual 'd9'"),
        ("(const b d9))", "undeclared individual 'd9'"),
        ("(reify (ka P) d9))", "undeclared individual 'd9'"),
        ("(reified-domain d9))", "undeclared individual 'd9'"),
        ("(acc (w0 w9)))", "undeclared world 'w9'"),
        ("(worlds w0 w0))", "world 'w0' declared twice"),
        ("(domain d0 d0))", "individual 'd0' declared twice"),
    ],
)
def test_undeclared_or_twice_declared_names_are_located_errors(tail, message):
    text = f"{BASE} {tail}"
    with pytest.raises(ParseError) as e:
        parse_model(text)
    # located at the bad name's last occurrence: a repeat, or the only use
    column = text.rindex(message.split("'")[1]) + 1
    assert str(e.value) == f"1:{column}: {message}"


@pytest.mark.parametrize(
    "tail, message, at",
    [
        ("(worlds w0 w1))", "section 'worlds' declared twice", "worlds w0 w1))"),
        ("(domain d0 d1))", "section 'domain' declared twice", "domain d0 d1))"),
        ("(reified-domain d0) (reified-domain d1))", "section 'reified-domain' declared twice",
         "reified-domain d1"),
        ("(const a d1))", "constant 'a' declared twice", "a d1"),
        ("(fn f (default d0)) (fn f (default d1)))", "function 'f' declared twice", "f (default d1"),
        ("(fn f (default d0) (default d1)))", "function 'f' entry 'default' declared twice",
         "(default d1"),
        ("(fn f (default d0) ((d0) d1) ((d0) d0)))", "function 'f' entry '(d0)' declared twice",
         "((d0) d0"),
        ("(reify (ka P) d0) (reify (ka P) d1))", "reified term '(ka P)' declared twice",
         "(ka P) d1"),
        ("(reify (that (forall ?x (P ?x))) d0) (reify (that (forall ?y (P ?y))) d1))",
         "reified term '(that (quant all ?y true (P ?y)))' declared twice", "(that (forall ?y"),
        ("(pred P (w0 (d0))) (pred P (w0)))", "pred 'P' at world 'w0' declared twice", "w0)))"),
        ("(pred P (w0 (d0)) (w0)))", "pred 'P' at world 'w0' declared twice", "w0)))"),
        ("(mod m P (w1) (w1 (d0))))", "mod 'm P' at world 'w1' declared twice", "w1 (d0"),
        ("(op o (w0 (d0 (d1)) (d0))))", "op 'o d0' at world 'w0' declared twice", "d0))))"),
        ("(op o (w0 (d0 (d1))) (w0 (d0))))", "op 'o d0' at world 'w0' declared twice", "d0))))"),
        ("(pred P (w0 (d0) (d0 d1))))", "pred 'P' has a tuple of length 2, not 1", "(d0 d1"),
        ("(pred P (w0 (d0)) (w1 ())))", "pred 'P' has a tuple of length 0, not 1", "()"),
        ("(pred P (w0 (d0))) (pred P (w1 (d1 d0))))", "pred 'P' has a tuple of length 2, not 1",
         "(d1 d0"),
        ("(mod m P (w0 (d0)) (w1 (d0 d1))))", "mod 'm P' has a tuple of length 2, not 1", "(d0 d1"),
        ("(op o (w0 (d0 (d0)) (d1 (d0 d1)))))", "op 'o' has a tuple of length 2, not 1", "(d0 d1"),
        ("(op o (w0 (d0 (d0)))) (op o (w1 (d1 ()))))", "op 'o' has a tuple of length 0, not 1",
         "()"),
        ("(fn f (default d0) ((d0) d1) ((d0 d0) d1)))", "fn 'f' has a tuple of length 2, not 1",
         "(d0 d0)"),
    ],
)
def test_repeated_entries_and_tuple_length_clashes_are_located_errors(tail, message, at):
    text = f"{BASE} {tail}"
    with pytest.raises(ParseError) as e:
        parse_model(text)
    assert str(e.value) == f"1:{text.rindex(at) + 1}: {message}"
    assert NEW_ON_ACCEPTED.fullmatch(message)


def test_one_length_is_per_key_and_an_entry_may_repeat_at_another_world():
    m = parse_model(
        f"{BASE} (mod m P (w0 (d0)) (w1)) (mod m R (w0 (d0 d1)) (w1))"
        " (op o (w0 (d0 (d1)) (d1)) (w1 (d0 (d0))))"
        " (fn f (default d0) ((d0) d1)) (fn g (default d0) ((d0 d1) d1)))"
    )
    assert m.modifiers[("m", "R", "w0")] == {("d0", "d1")}
    assert m.term_ops[("o", "d0", "w1")] == {("d0",)}
    assert m.functions["g"] == ({("d0", "d1"): "d1"}, "d0")


def test_name_checks_come_after_the_hand_written_readers_checks():
    with pytest.raises(EnumerationError, match="nonempty domain"):
        parse_model("(model (worlds w0) (acc) (domain) (const a d0))")
    with pytest.raises(ParseError, match="pair of worlds"):
        parse_model("(model (worlds w0) (acc (w0)) (domain d0 d0))")


# ---------------------------------------------------------------------------
# The CLI on model files the hand-written reader crashed on or misread


def eval_cli(capsys, tmp_path, model: str, formula: str):
    path = tmp_path / "m.elf"
    path.write_text(model + "\n")
    code = main(["eval", "--model", str(path), "--formula", formula])
    captured = capsys.readouterr()
    return code, captured.out, captured.err.replace(str(path), path.name)


@pytest.mark.parametrize(
    "model, err",
    [
        ("(model (worlds w0) (acc) (domain d0) (fn f (",
         "error: m.elf: 1:45: unexpected end of input (expected ()\n"),
        ("(model (worlds w0) (acc (w0)) (domain d0))",
         "error: m.elf: 1:25: an acc entry is a pair of worlds, found 1\n"),
        ("(model (worlds w0) (acc (w0 w0 w0)) (domain d0))",
         "error: m.elf: 1:25: an acc entry is a pair of worlds, found 3\n"),
        ("(model (worlds w0) (acc) (domain d0) (reify (that (P ?x)) d0))",
         "error: m.elf: 1:45: a reified term in a model must be closed\n"),
    ],
)
def test_eval_exits_two_with_a_located_error_where_the_reader_crashed(
    capsys, tmp_path, model, err
):
    assert eval_cli(capsys, tmp_path, model, "true") == (2, "", err)


@pytest.mark.parametrize(
    "model, formula, err",
    [
        ("(model (worlds w0) (acc) (domain d0 d0))",
         "(quant (exactly 2) ?x true true)",
         "error: m.elf: 1:37: individual 'd0' declared twice\n"),
        ("(model (worlds w0) (acc) (domain d0) (const a d9) (pred P (w0 (d9))))",
         "(and (P a) (quant no ?x true (= ?x a)))",
         "error: m.elf: 1:47: undeclared individual 'd9'\n"),
        ("(model (worlds w0 w1) (acc (w0 wl)) (domain d0) (const a d0)"
         " (pred P (w0 (d0)) (w1)))",
         "(nec (P a))",
         "error: m.elf: 1:32: undeclared world 'wl'\n"),
    ],
)
def test_eval_rejects_a_model_that_uses_undeclared_or_repeated_names(
    capsys, tmp_path, model, formula, err
):
    assert eval_cli(capsys, tmp_path, model, formula) == (2, "", err)


@pytest.mark.parametrize(
    "model, formula, err",
    [
        ("(model (worlds w0) (acc) (domain d0) (const a d0) (pred P (w0 (d0))) (pred P (w0)))",
         "(P a)", "error: m.elf: 1:79: pred 'P' at world 'w0' declared twice\n"),
        ("(model (worlds w0) (acc) (domain d0 d1) (const a d0) (const a d1))",
         "(= a a)", "error: m.elf: 1:61: constant 'a' declared twice\n"),
        ("(model (worlds w0) (acc) (domain d0) (worlds w1))",
         "true", "error: m.elf: 1:39: section 'worlds' declared twice\n"),
        ("(model (worlds w0) (acc) (domain d0) (const a d0)"
         " (fn f (default d0) ((d0) d0) ((d0 d0) d0)))",
         "(= (f a) a)", "error: m.elf: 1:81: fn 'f' has a tuple of length 2, not 1\n"),
    ],
)
def test_eval_rejects_repeated_entries_and_tuple_length_clashes(
    capsys, tmp_path, model, formula, err
):
    assert eval_cli(capsys, tmp_path, model, formula) == (2, "", err)


def test_eval_reads_the_declared_accessibility(capsys, tmp_path):
    model = (
        "(model (worlds w0 w1) (acc (w0 w1)) (domain d0) (const a d0)"
        " (pred P (w0 (d0)) (w1)))"
    )
    assert eval_cli(capsys, tmp_path, model, "(nec (P a))") == (0, "false\n", "")
