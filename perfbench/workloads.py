"""The benchmark's four workloads.

Each workload does its set-up in `__init__` and then serves ops by index:
`item(i)` names the i-th input, `run(item)` is the timed call into elfol,
`kind(item)` names the op's kind for `named(samples)`, which turns op times
by kind into the workload's own named metrics, and `check(item, result)`
compares the result with a known answer outside the timed interval,
returning a list of problems. `finish()` runs the
checks and counts that need a whole run. `counts` holds the exact counts
recorded next to the timings; runs of the same commit and seed agree on
them exactly.

Ops call elfol through module attributes (`prover.prove`, not a name
imported from it), so that the traced run sees every call.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from elfol import core, kb as kb_mod, lexicon, models, prover, reduction, schemas, syntax
from elfol.core import PredConst, QuantRef, Signature
from elfol.kb import KnowledgeBase

from kbgen import KbGen

# The CLI's bounds for `prove` and `demo` (ProverConfig defaults): the
# bundled searches stop at 944 explored nodes or less, far below the bound.
BUNDLED_CFG = prover.ProverConfig()
# Generated goals: the depth and lexical-step bounds stop every search
# (a few hundred nodes at most) long before the explored or time bound.
GENERATED_CFG = prover.ProverConfig(
    max_depth=6, max_lexical_steps=3, timeout_ms=10_000, max_explored=20_000
)
# The acceptance suite's deep bounds for the reduced proofs: 491,330 nodes
# take a few seconds, against a 120 s timeout.
DEEP_CFG = prover.ProverConfig(
    max_depth=40, max_lexical_steps=8, timeout_ms=120_000, max_explored=2_000_000
)


def p95(values: list) -> float:
    """Nearest-rank 95th percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-95 * len(ordered) // 100) - 1)]


def tail(values: list) -> float:
    """The 95th percentile when at least ten samples lie beyond it (200
    or more), else the median: fewer samples measure no tail."""
    return p95(values) if len(values) >= 200 else statistics.median(values)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class _Recorder:
    """Exact counts per input, recorded the first time the input runs; a
    later run of the same input must reproduce them."""

    def __init__(self):
        self.counts: dict = {}

    def record(self, key: str, value) -> list:
        seen = self.counts.setdefault(key, value)
        if seen != value:
            return [f"{key}: counts changed between runs of one input: {seen} != {value}"]
        return []


# ---------------------------------------------------------------------------
# interactive


@dataclass(frozen=True)
class ProveInput:
    label: str
    files: tuple  # .elf paths
    goal_text: str
    bundled: object = None  # lexicon.QueryCase for bundled queries
    model: object = None  # the generated kb's model, for generated goals
    goal: object = None  # the generated goal formula


class Interactive:
    """The in-process path of `elfol --structured prove FILES --goal G`,
    over the bundled queries interleaved with small generated kbs."""

    name = "interactive"
    BUNDLED_REPEATS = 4  # passes over the 11 bundled queries per round
    GENERATED_KBS = 88
    GOALS_PER_KB = 2

    def __init__(self, seed: int, workdir: Path):
        bundle = lexicon.load_bundle()
        data = lexicon.DATA_DIR
        base = (data / "core.elf", data / "axioms.elf", data / "schemas.elf")
        pool = []
        for case in bundle.queries:
            files = base + tuple(data / f"{s}.elf" for s in case.scenarios)
            text = syntax.render(case.goal)
            for _ in range(self.BUNDLED_REPEATS):
                pool.append(ProveInput(f"bundled:{case.name}", files, text, bundled=case))
        rng = random.Random(seed)
        gen = KbGen(rng)
        for i in range(self.GENERATED_KBS):
            # every seed draws the same mix of model sizes and schema use
            g = gen.kb(
                self.GOALS_PER_KB, n_worlds=1 + i % 2, n_domain=2 + (i // 2) % 2,
                with_schema=(i // 4) % 2 == 0,
            )
            path = workdir / f"gen-{i:03d}.elf"
            path.write_text(g.text, encoding="utf-8")
            for j, goal in enumerate(g.goals):
                pool.append(
                    ProveInput(
                        f"generated:{i:03d}.{j}", (path,), syntax.render(goal),
                        model=g.model, goal=goal,
                    )
                )
        rng.shuffle(pool)
        self.pool = pool
        self.round_ops = len(pool)
        self._recorder = _Recorder()
        self._problems: dict = {}  # label -> problems its first check found

    def item(self, i: int) -> ProveInput:
        return self.pool[i % len(self.pool)]

    def run(self, item: ProveInput):
        kb, _queries = kb_mod.load_files(item.files)
        goal = syntax.parse_formula(item.goal_text)
        if core.free_vars(goal):
            raise ValueError("goal has free variables")
        diags = core.well_formed(goal, kb.signature)
        if diags:
            raise ValueError(f"ill-formed goal: {diags[0]}")
        cfg = BUNDLED_CFG if item.bundled is not None else GENERATED_CFG
        result = prover.prove(kb, goal, cfg)
        if result.proved:
            out = result.trace.to_json()
        else:
            out = json.dumps(
                {"outcome": result.outcome, "explored": result.explored}, sort_keys=True
            )
        return kb, result, out

    def kind(self, item) -> str:
        return "prove"

    def named(self, samples: dict) -> dict:
        times = samples["prove"]
        return {
            "prove_p50_ms": (statistics.median(times) * 1000, "ms"),
            "prove_p95_ms": (p95(times) * 1000, "ms"),
            "proves_per_s": (len(times) / sum(times), "1/s"),
        }

    def check(self, item: ProveInput, res) -> list:
        kb, result, out = res
        trace = result.trace
        record = {
            "outcome": result.outcome,
            "explored": result.explored,
            "trace_len": trace.length() if trace is not None else None,
            "lexical_steps": trace.lexical_steps() if trace is not None else None,
            "output_sha256": _sha(out),
        }
        if item.label in self._problems:
            # a repeat: its output must be the one already checked, and it
            # fails as often as it runs
            return self._recorder.record(item.label, record) + self._problems[item.label]
        self._recorder.record(item.label, record)
        problems = self._problems[item.label] = []
        if item.bundled is not None:
            case = item.bundled
            if case.expect == "provable":
                if not result.proved:
                    problems.append(
                        f"{item.label}: expected provable, got {result.outcome}"
                    )
                elif (
                    case.max_lexical_steps is not None
                    and record["lexical_steps"] > case.max_lexical_steps
                ):
                    problems.append(
                        f"{item.label}: {record['lexical_steps']} lexical steps"
                    )
            elif result.proved:
                problems.append(f"{item.label}: expected unprovable, proved")
        elif result.proved and not models.eval_formula(
            item.model, item.model.w0, {}, item.goal
        ):
            problems.append(
                f"{item.label}: proved a goal false in its kb's model: {item.goal_text}"
            )
        if result.proved:
            problems += [f"{item.label}: replay: {p}" for p in prover.replay(trace, kb)]
        return problems

    def finish(self) -> list:
        return []

    @property
    def counts(self) -> dict:
        seen = self._recorder.counts
        bundled = {
            k.split(":", 1)[1]: v for k, v in sorted(seen.items())
            if k.startswith("bundled:")
        }
        generated = sorted((k, v) for k, v in seen.items() if k.startswith("generated:"))
        return {
            "bundled": bundled,
            "generated_inputs": len(generated),
            "generated_proved": sum(v["outcome"] == "proved" for _, v in generated),
            "generated_explored": sum(v["explored"] for _, v in generated),
            "generated_sha256": _sha(json.dumps(generated, sort_keys=True)),
        }


# ---------------------------------------------------------------------------
# deep-search


class DeepSearch:
    """One op: `reduction.compare_effort` on both bundled effort scenarios,
    conjunct-drop over six domain constants and modal over w0 -> w1."""

    name = "deep-search"
    round_ops = 1

    def __init__(self, seed: int, workdir: Path):
        bundle = lexicon.load_bundle()
        rng = random.Random(seed)
        taken = bundle.signature.all_names()
        names = []
        while len(names) < 6:
            name = f"{rng.choice('bdfghkmnpqstvwxz')}{rng.randrange(1000)}"
            if name not in taken and name not in names:
                names.append(name)
        case = {c.name: c for c in bundle.queries}
        drop, modal = case["conjunct-drop"], case["compatible-possible"]
        self.scenarios = (
            (drop, bundle.kb_for(drop),
             reduction.ReductionContext(domain=tuple(names), worlds=("w0",))),
            (modal, bundle.kb_for(modal),
             reduction.ReductionContext(
                 domain=("a1", "a2"), worlds=("w0", "w1"), accessibility=(("w0", "w1"),)
             )),
        )
        self.domain = names
        self._recorder = _Recorder()

    def item(self, i: int):
        return self.scenarios

    def run(self, item):
        return [
            reduction.compare_effort(
                kb, case.goal, ctx, prover.ProverConfig(), DEEP_CFG
            )[0]
            for case, kb, ctx in item
        ]

    def kind(self, item) -> str:
        return "reduce"

    def named(self, samples: dict) -> dict:
        return {"reduce_s": (statistics.median(samples["reduce"]), "s")}

    def check(self, item, reports) -> list:
        drop = reports[0]
        problems = []
        for (case, _kb, _ctx), rep in zip(item, reports):
            if rep.extended.proof_len != 1:
                problems.append(
                    f"{case.name}: extended proof length {rep.extended.proof_len}"
                )
            problems += self._recorder.record(
                case.name,
                {"extended": rep.extended.to_dict(), "reduced": rep.reduced.to_dict()},
            )
        if drop.reduced.outcome != "proved" or not drop.reduced.proof_len > 1:
            problems.append(
                f"conjunct-drop reduced: {drop.reduced.outcome}, "
                f"length {drop.reduced.proof_len}"
            )
        return problems

    def finish(self) -> list:
        return []

    @property
    def counts(self) -> dict:
        return {"domain": self.domain, **self._recorder.counts}


# ---------------------------------------------------------------------------
# model-check


class ModelCheck:
    """One op: the bundle's witness-model check, then the in-process
    `elfol validate --schema monotone-conj-drop --max-domain 4`."""

    name = "model-check"
    round_ops = 1
    SCHEMA = "monotone-conj-drop"

    def __init__(self, seed: int, workdir: Path):
        self.bundle = lexicon.load_bundle()
        self.witness = lexicon.witness_model(self.bundle)
        self.full_kb = self.bundle.full_kb()
        self.schema = next(s for s in self.bundle.schemas if s.name == self.SCHEMA)
        # as `elfol validate` does: instances over fresh predicates
        self.scratch_sig = Signature()
        for i, (_, arity) in enumerate(self.schema.pred_metavars):
            self.scratch_sig.predicates[f"p{i + 1}"] = arity
        self._recorder = _Recorder()
        self._counts: dict = {}
        self._witness_shares: list = []  # per op: the witness check's share

    def item(self, i: int) -> None:
        return None

    def run(self, _item):
        start = perf_counter()
        satisfied = models.model_satisfies(self.witness, self.full_kb)
        mid = perf_counter()
        validated = self._validate()
        return satisfied, validated, (mid - start) / (perf_counter() - start)

    def _validate(self):
        instances = schemas.enumerate_instances(
            self.schema, self.scratch_sig, self.bundle.registry,
            schemas.InstanceBounds(max_formula_instances=2),
        )
        bounds = models.SearchBounds(max_domain=4, max_worlds=1)
        checked = 0
        for inst in instances:
            cx = models.find_counterexample(inst, bounds, self.bundle.registry)
            checked += 1
            if cx is not None:
                return checked, syntax.render(inst)
        return checked, None

    def kind(self, item) -> str:
        return "check"

    def named(self, samples: dict) -> dict:
        pairs = list(zip(samples["check"], self._witness_shares))
        return {
            "witness_check_s": (statistics.median(t * w for t, w in pairs), "s"),
            "validate_s": (statistics.median(t * (1 - w) for t, w in pairs), "s"),
        }

    def check(self, _item, result) -> list:
        satisfied, (checked, failing), witness_share = result
        self._witness_shares.append(witness_share)
        problems = [] if satisfied is True else ["witness model fails the full bundle"]
        problems += self._recorder.record("validate_instances", checked)
        if failing is not None:
            problems.append(f"validate found a countermodel to {failing}")
        return problems

    def finish(self) -> list:
        problems = []
        reg = self.bundle.registry
        self._counts["witness_instances"] = {
            s.name: len(schemas.enumerate_instances(s, self.full_kb.signature, reg))
            for s in self.full_kb.schemas
        }
        # the schema's constraint refuses a downward quantifier, so build the
        # `fewer-than 2` instance by hand: it must have a falsifying model
        fewer = QuantRef("fewer-than", 2)
        bad = core.Implies(
            core.RestrictedQuant(fewer, "x", _p("p1"), core.And(_p("p2"), _p("p3"))),
            core.RestrictedQuant(fewer, "x", _p("p1"), _p("p2")),
        )
        cx = models.find_counterexample(
            bad, models.SearchBounds(max_domain=4, max_worlds=1), reg
        )
        if cx is None or models.eval_formula(cx, cx.w0, {}, bad, reg) is not False:
            problems.append("no falsifying countermodel for the fewer-than 2 instance")
        self._counts["fewer_than_2_countermodel_domain"] = len(cx.domain) if cx else None
        return problems

    @property
    def counts(self) -> dict:
        return {**self._recorder.counts, **self._counts}


def _p(name: str):
    return core.Atom(PredConst(name), (core.Var("x"),))


# ---------------------------------------------------------------------------
# saturate


class Saturate:
    """One op: `prover.forward_chain` on each part of a seeded split of the
    bundle's 15 scenario facts into 8 and 7, each part with the bundle's
    axioms and schemas.

    forward_chain's matching work grows by a near-fixed amount per fact, so
    random 8-fact subsets differ in that work by up to a third and a run's
    median would depend on the seed; an op that saturates every fact once does the
    same work on every seed. The seed draws which facts share a part."""

    name = "saturate"
    SPLITS = 4  # distinct splits, one round
    round_ops = SPLITS
    FIRST_PART = 8  # facts in a split's first part; the rest go in the second

    def __init__(self, seed: int, workdir: Path):
        self.bundle = lexicon.load_bundle()
        self.witness = lexicon.witness_model(self.bundle)
        b = self.bundle
        facts = [f for name in sorted(b.scenarios) for f in b.scenarios[name]]
        rng = random.Random(seed)
        self.splits = []
        for _ in range(self.SPLITS):
            order = rng.sample(facts, len(facts))
            self.splits.append(tuple(
                KnowledgeBase(
                    b.signature, part, list(b.axioms), list(b.schemas), b.registry
                )
                for part in (order[: self.FIRST_PART], order[self.FIRST_PART:])
            ))
        self._recorder = _Recorder()

    def item(self, i: int) -> int:
        return i % len(self.splits)

    def run(self, k: int):
        return [prover.forward_chain(kb) for kb in self.splits[k]]

    def kind(self, item) -> str:
        return "saturate"

    def named(self, samples: dict) -> dict:
        return {"saturate_s": (statistics.median(samples["saturate"]), "s")}

    def check(self, k: int, results) -> list:
        m, reg = self.witness, self.bundle.registry
        problems = []
        for part, result in enumerate(results):
            problems += [
                f"split {k}.{part}: derived fact false in the witness model: "
                f"{syntax.render(f)}"
                for f in result.derived
                if not models.eval_formula(m, m.w0, {}, f, reg)
            ]
            problems += self._recorder.record(
                f"split-{k}.{part}",
                {"derived": len(result.derived), "exhausted": result.exhausted,
                 "derived_sha256": _sha("\n".join(syntax.render(f) for f in result.derived))},
            )
        return problems

    def finish(self) -> list:
        # the check above is sound only if the witness model satisfies the
        # saturated kbs; the model-check workload times the full check
        # (schema instances included), here the axioms and facts are checked
        m, reg = self.witness, self.bundle.registry
        problems = [
            f"witness model falsifies axiom {syntax.render(ax)}"
            for ax in self.bundle.axioms
            if not all(models.eval_formula(m, w, {}, ax, reg) for w in m.worlds)
        ]
        facts = {id(f): f for kbs in self.splits for kb in kbs for f in kb.facts}
        problems += [
            f"witness model falsifies fact {syntax.render(f)}"
            for f in facts.values()
            if not models.eval_formula(m, m.w0, {}, f, reg)
        ]
        return problems

    @property
    def counts(self) -> dict:
        return self._recorder.counts


WORKLOADS = {w.name: w for w in (Interactive, DeepSearch, ModelCheck, Saturate)}
