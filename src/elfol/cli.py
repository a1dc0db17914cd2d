"""Command-line front end.

Subcommands: prove, eval, validate, reduce, check, demo. Exit codes: 0 for
success (goal proved / check clean / all demo queries pass / schema valid up
to bounds), 1 for a definite negative (not provable at bounds, demo failure,
counterexample found, a `check --model` model that fails the kb), 2 for
usage or input errors. `--structured` switches to line-delimited JSON
records with stable field names.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import lexicon
from .core import RestrictedQuant, Signature, children, free_vars
from .kb import KbError, check_entry, load_files
from .models import (
    EnumerationError,
    EvalError,
    SearchBounds,
    check_search_size,
    dump_model,
    eval_formula,
    find_counterexample,
    first_failure,
    parse_model,
)
from .prover import ProverConfig, prove
from .quantifiers import UnknownQuantifierError
from .reduction import ReductionContext, ReductionError, compare_effort
from .schemas import EnumerationCeiling, InstanceBounds, enumerate_instances
from .syntax import ParseError, parse_formula, render


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="elfol",
        description="Parse, evaluate, prove, and compare inferences in an "
        "extended first-order language.",
    )
    p.add_argument(
        "--structured", action="store_true",
        help="line-delimited JSON output instead of human-readable text",
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--structured", action="store_true", default=argparse.SUPPRESS,
        help="line-delimited JSON output instead of human-readable text",
    )
    sub = p.add_subparsers(dest="command", required=True)

    prove_p = sub.add_parser("prove", help="prove a goal from kb files",
                             parents=[shared])
    prove_p.add_argument("files", nargs="+", help=".elf knowledge-base files")
    prove_p.add_argument("--goal", required=True, help="goal formula text")
    _bounds_args(prove_p)

    eval_p = sub.add_parser("eval", help="evaluate a formula in a model file",
                            parents=[shared])
    eval_p.add_argument("--model", required=True)
    eval_p.add_argument("--formula", required=True)

    val_p = sub.add_parser(
        "validate", help="search for countermodels to a bundled schema",
        parents=[shared],
    )
    val_p.add_argument("--schema", required=True)
    val_p.add_argument("--max-domain", type=int, default=4)
    val_p.add_argument("--max-worlds", type=int, default=1)

    red_p = sub.add_parser(
        "reduce", help="compare proof effort against the classical reduction",
        parents=[shared],
    )
    red_p.add_argument("--kb", nargs="+", required=True)
    red_p.add_argument("--goal", required=True)
    red_p.add_argument("--domain", required=True, help="comma-separated constants")
    red_p.add_argument("--worlds", required=True, help="comma-separated worlds")
    red_p.add_argument(
        "--acc", default="", help="comma-separated accessibility pairs w:w'"
    )
    _bounds_args(red_p)

    check_p = sub.add_parser(
        "check", help="parse and well-formedness check; with --model, also "
        "whether the model satisfies the kb", parents=[shared],
    )
    check_p.add_argument("files", nargs="+")
    check_p.add_argument("--model", help="a model file the kb must hold in")

    demo_p = sub.add_parser("demo", help="run the bundled query suite",
                            parents=[shared])
    _bounds_args(demo_p)
    return p


def _bounds_args(p) -> None:
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--lexical-steps", type=int, default=None)
    p.add_argument("--timeout-ms", type=int, default=None)


def _config(args) -> ProverConfig:
    timeout = args.timeout_ms
    if timeout is None:
        env = os.environ.get("ELFOL_TIMEOUT_MS")
        if env:
            if not (env.isdecimal() and int(env) > 0):
                raise ValueError(f"ELFOL_TIMEOUT_MS: expected a positive integer, got {env!r}")
            timeout = int(env)
    kwargs = {}
    if args.depth is not None:
        kwargs["max_depth"] = args.depth
    if getattr(args, "lexical_steps", None) is not None:
        kwargs["max_lexical_steps"] = args.lexical_steps
    if timeout is not None:
        kwargs["timeout_ms"] = timeout
    return ProverConfig(**kwargs)


def _emit(args, record: dict, human: str) -> None:
    if args.structured:
        print(json.dumps(record, sort_keys=True))
    else:
        print(human)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ParseError, KbError, ReductionError, EnumerationError,
            EnumerationCeiling, EvalError, ValueError, UnknownQuantifierError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        where = "" if e.filename is None else f"{e.filename}: "
        print(f"error: {where}{e.strerror}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "prove":
        return _cmd_prove(args)
    if args.command == "eval":
        return _cmd_eval(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "reduce":
        return _cmd_reduce(args)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "demo":
        return _cmd_demo(args)
    raise ValueError(f"unknown command {args.command}")


def _read_goal(text: str, kb):
    """The goal text parsed, closed and well-formed over kb's signature,
    naming only quantifiers that kb's registry resolves."""
    goal = check_entry("goal", parse_formula(text), kb.signature)
    _check_quants("goal", goal, kb.registry)
    return goal


def _check_quants(label: str, f, registry) -> None:
    """Raise a ValueError led by label unless registry resolves every
    quantifier f names."""
    try:
        _resolve_quants(f, registry)
    except UnknownQuantifierError as e:
        raise ValueError(f"{label}: {e}") from None


def _resolve_quants(node, registry) -> None:
    if isinstance(node, RestrictedQuant):
        registry.resolve(node.quant)
    for child in children(node):
        _resolve_quants(child, registry)


def _cmd_prove(args) -> int:
    kb, _queries = load_files(args.files)
    goal = _read_goal(args.goal, kb)
    result = prove(kb, goal, _config(args))
    if result.proved:
        if args.structured:
            print(result.trace.to_json())
        else:
            print(result.trace.pretty())
            print(
                f"proved; lexical steps {result.trace.lexical_steps()}, "
                f"explored {result.explored}"
            )
        return 0
    _emit(
        args,
        {"outcome": result.outcome, "explored": result.explored},
        f"not proved ({result.outcome}); explored {result.explored}",
    )
    return 1


def _cmd_eval(args) -> int:
    with open(args.model, encoding="utf-8") as fh:
        text = fh.read()
    try:
        model = parse_model(text)
    except (ParseError, EnumerationError) as e:
        raise ValueError(f"{args.model}: {e}") from None
    f = parse_formula(args.formula)
    if free_vars(f):
        raise ValueError("formula must be closed")
    try:
        value = eval_formula(model, model.w0, {}, f)
    except EvalError as e:
        raise EvalError(f"{args.model}: formula {render(f)}: {e}") from None
    _emit(args, {"value": value}, "true" if value else "false")
    return 0


def _cmd_validate(args) -> int:
    bundle = lexicon.load_bundle()
    schema = next((s for s in bundle.schemas if s.name == args.schema), None)
    if schema is None:
        names = ", ".join(s.name for s in bundle.schemas)
        raise ValueError(f"unknown schema {args.schema!r}; bundled: {names}")
    # instances over a scratch signature of fresh predicates, so validity is
    # checked for the schema itself rather than any particular vocabulary
    sig = Signature()
    for i, (_, arity) in enumerate(schema.pred_metavars):
        sig.predicates[f"p{i + 1}"] = arity
    if schema.formula_metavars:
        sig.predicates["p0"] = 0
    instances = enumerate_instances(
        schema, sig, bundle.registry, InstanceBounds(max_formula_instances=2)
    )
    bounds = SearchBounds(max_domain=args.max_domain, max_worlds=args.max_worlds)
    # an instance whose largest models are over the ceiling would end the
    # run only after every smaller size had been searched
    for inst in instances:
        check_search_size(inst, bounds)
    checked = 0
    for inst in instances:
        cx = find_counterexample(inst, bounds, bundle.registry)
        checked += 1
        if cx is not None:
            _emit(
                args,
                {
                    "outcome": "counterexample",
                    "instance": render(inst),
                    "model": dump_model(cx),
                },
                f"counterexample to instance {render(inst)}\n{dump_model(cx)}",
            )
            return 1
    _emit(
        args,
        {
            "outcome": "valid-up-to-bounds",
            "instances": checked,
            "max_domain": args.max_domain,
            "max_worlds": args.max_worlds,
        },
        f"valid up to bounds (|D| <= {args.max_domain}, "
        f"worlds <= {args.max_worlds}; {checked} instances)",
    )
    return 0


def _cmd_reduce(args) -> int:
    kb, _ = load_files(args.kb)
    goal = _read_goal(args.goal, kb)
    acc = []
    if args.acc:
        for pair in args.acc.split(","):
            a, _, b = pair.partition(":")
            if not a or not b:
                raise ValueError(f"bad accessibility pair {pair!r}; use w:w'")
            acc.append((a, b))
    ctx = ReductionContext(
        domain=tuple(args.domain.split(",")) if args.domain else (),
        worlds=tuple(args.worlds.split(",")) if args.worlds else (),
        accessibility=tuple(acc),
    )
    cfg = _config(args)
    reduced_cfg = ProverConfig(
        max_depth=max(cfg.max_depth, 40),
        max_lexical_steps=max(cfg.max_lexical_steps, 8),
        timeout_ms=cfg.timeout_ms,
        max_explored=max(cfg.max_explored, 2_000_000),
    )
    report, _ext, _red = compare_effort(kb, goal, ctx, cfg, reduced_cfg)
    if args.structured:
        print(report.to_json_lines())
    else:
        print(report.render_table())
    return 0


def _cmd_check(args) -> int:
    kb, queries = load_files(args.files)
    for kind, entries in (("axiom", kb.axioms), ("fact", kb.facts)):
        for f in entries:
            _check_quants(f"{kind} {render(f)}", f, kb.registry)
    record = {
        "axioms": len(kb.axioms),
        "facts": len(kb.facts),
        "schemas": len(kb.schemas),
        "queries": len(queries),
    }
    human = (
        f"ok: {len(kb.axioms)} axioms, {len(kb.facts)} facts, "
        f"{len(kb.schemas)} schemas, {len(queries)} queries"
    )
    failure = None
    if args.model is not None:
        with open(args.model, encoding="utf-8") as fh:
            text = fh.read()
        try:
            failure = first_failure(parse_model(text), kb)
        except (ParseError, EnumerationError, EvalError) as e:
            raise ValueError(f"{args.model}: {e}") from None
        if failure is None:
            record["model"] = {"outcome": "satisfied"}
            human += "\nsatisfied"
        else:
            kind, f, w = failure
            record["model"] = {
                "outcome": "fails", "kind": kind, "formula": render(f), "world": w,
            }
            human += f"\n{kind} fails at world {w}: {render(f)}"
    _emit(args, record, human)
    return 0 if failure is None else 1


def _cmd_demo(args) -> int:
    bundle = lexicon.load_bundle()
    cfg = _config(args)
    rows = []
    all_ok = True
    for case in bundle.queries:
        kb = bundle.kb_for(case)
        result = prove(kb, case.goal, cfg)
        lex = result.trace.lexical_steps() if result.trace else None
        if case.expect == "provable":
            ok = result.proved and (
                case.max_lexical_steps is None or lex <= case.max_lexical_steps
            )
        else:
            ok = not result.proved
        all_ok = all_ok and ok
        rows.append(
            {
                "query": case.name,
                "expect": case.expect,
                "outcome": result.outcome,
                "lexical_steps": lex,
                "explored": result.explored,
                "ok": ok,
            }
        )
    if args.structured:
        for row in rows:
            print(json.dumps(row, sort_keys=True))
    else:
        width = max(len(r["query"]) for r in rows)
        for r in rows:
            lex = "-" if r["lexical_steps"] is None else str(r["lexical_steps"])
            mark = "pass" if r["ok"] else "FAIL"
            print(
                f"{mark}  {r['query']:<{width}}  expect={r['expect']:<10} "
                f"outcome={r['outcome']:<9} lexical={lex}"
            )
        n_ok = sum(1 for r in rows if r["ok"])
        print(f"{n_ok}/{len(rows)} queries as expected")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
