"""Golden outputs of the bundled knowledge base.

The values below pin what the prover, the witness model and schema
enumeration produce today, so that a refactor which should not change
behaviour can be checked against them byte for byte. A deliberate change
of behaviour updates them and says why.
"""

import hashlib
import json
import random

import pytest

from elfol.core import Implies, Signature
from elfol.lexicon import load_bundle, witness_model
from elfol.models import EnumerationError, SearchBounds, dump_model, find_counterexample
from elfol.prover import ProverConfig, _Budget, _Hyps, _Search, forward_chain, prove
from elfol.reduction import ReductionContext, reduce_formula, reduce_kb
from elfol.quantifiers import DEFAULT_REGISTRY
from elfol.schemas import InstanceBounds, enumerate_instances
from elfol.syntax import parse_formula, render

from gen import AstGen

BUNDLE = load_bundle()

# name -> (outcome, explored, sha256 of trace.to_json(), or None without a trace)
QUERIES = {
    "enter": ("proved", 2, "fa2ae4b065a3c6d1678e7571cf796f076bd7c763960eac538b60337e83a9b3a3"),
    "conjunct-drop": ("proved", 6, "993fe6bb01e3ed05f50119f899e44dc37fe3e970d0585dae259432e0ec7402f6"),
    "majority-most": ("proved", 10, "c9cc1e676b9de0e037999f7c7157e31ad28be2351bc0fcc87c10e85a4de8b72e"),
    "correct-intro": ("proved", 4, "a0fdbc32fd308441022c5b8e95eba4db0b3acdd4cbf8df581304a82fa1ac7567"),
    "correct-elim": ("proved", 3, "58ff70895a0649316998b448abaa8b8cf62ec683473ad1b5e509bf53985df0b8"),
    "compatible-possible": ("proved", 4, "c83756444bdcc62ab59bb81df999394be6a93acdefa681856b89db54c02002d2"),
    "sounds-reasonable": ("proved", 5, "307945920a1034e0b4614f318495c6f618a79233e5900e94e834d0c2187421a3"),
    "do-implies-done": ("proved", 54, "8728c8694d4c0e8e21d663887708964951dfd52299aad36faa8104ae22697bde"),
    "kind-facts": ("proved", 1, "36c81036f15964fdc618d1a3a13bcde5999c24c97984e72961fed03f2b6fcc6c"),
    "attitude-facts": ("proved", 1, "0b4dd4556f248ab45dae077baf64885985a9155eb5c4320b5111fa4fad07246d"),
    "not-derivable": ("failed", 14, None),
}

# name -> fresh_counter of the search when prove returns: how many v<N>
# clause-variable names it handed out, so that a change in the clauses the
# search renames shows here even where the explored count and the trace,
# whose unbound variables are renamed in order, stay the same
FRESH_NAMES = {
    "enter": 2,
    "conjunct-drop": 2,
    "majority-most": 7,
    "correct-intro": 0,
    "correct-elim": 0,
    "compatible-possible": 2,
    "sounds-reasonable": 1,
    "do-implies-done": 13,
    "kind-facts": 0,
    "attitude-facts": 0,
    "not-derivable": 7,
}

WITNESS_MODEL_SHA256 = "d8eb0193c62a1a10c4872781293e0be23ca19fe0697ad21f0cdd1336013c1d59"

INSTANCE_COUNTS = {
    "monotone-conj-drop": 29478,
    "correct-iff-content": 12,
    "sounds-as-considered": 17,
    "do-reified-action": 17,
}

# sha256 of the rendered derived facts, the (rule, detail) steps and the
# exhausted flag of forward_chain, over the full KB ("full") and over each
# bundled query's KB
SATURATION = {
    "full": "4d69cd7e7819a198670f556651a13cc7829eb9781ead6fa9cc1ec5482b56f772",
    "enter": "ea7ab2368d0c643af012d0c63d5fe62425bbd75d389563b8f1b77b089caf7754",
    "conjunct-drop": "78ca0e652d77d8f4897543bf9c43dbff46f9f549aecc27257f60beca20130bb5",
    "majority-most": "944ca50d3098d7545971d5944c7ad069fc8dbf9ccdd551e0cc7a7e0a2915016a",
    "correct-intro": "37258ce53cd9ab3b0ccf9f6ed287274ac9b723154ae115865d43112973c04730",
    "correct-elim": "37258ce53cd9ab3b0ccf9f6ed287274ac9b723154ae115865d43112973c04730",
    "compatible-possible": "57202d767ca81cbac25e93abd21ab85fcc12c9a70e730c34dca9a9190b1cc260",
    "sounds-reasonable": "b183119b1c59be2fdcdd49890ef7b70b16a88238d36c29d669b0e90afca0b159",
    "do-implies-done": "37258ce53cd9ab3b0ccf9f6ed287274ac9b723154ae115865d43112973c04730",
    "kind-facts": "37258ce53cd9ab3b0ccf9f6ed287274ac9b723154ae115865d43112973c04730",
    "attitude-facts": "37258ce53cd9ab3b0ccf9f6ed287274ac9b723154ae115865d43112973c04730",
    "not-derivable": "ea7ab2368d0c643af012d0c63d5fe62425bbd75d389563b8f1b77b089caf7754",
}

# The conjunct-drop inference under the downward `fewer-than 2`, which the
# schema's own constraint refuses: sha256 of dump_model of the first
# countermodel find_counterexample returns at |D| <= 4, one world. The
# benchmark's hand-built instance (bundle registry) and the acceptance
# suite's parsed one (default registry) are the same formula.
FEWER_THAN_2 = (
    "(implies (quant (fewer-than 2) ?x (p1 ?x) (and (p2 ?x) (p3 ?x)))"
    " (quant (fewer-than 2) ?x (p1 ?x) (p2 ?x)))"
)
COUNTERMODELS = {
    "bundle-registry": "0eefbc3aacc1f8d09db97904ee87daace434bfbd3734150f3bd2469c4f552526",
    "default-registry": "0eefbc3aacc1f8d09db97904ee87daace434bfbd3734150f3bd2469c4f552526",
}

# 200 seeded implications between generated function-free formulas: sha256
# of the first countermodel of each (or "valid", or the enumeration error),
# one per line, at |D| <= 3 and up to two worlds
GENERATED_COUNTERMODELS = "712ef30da4c8fde441b84f7d95a593d2bf7f674558fe1c6e1459097edcc765bd"

SIX = tuple(f"c{i}" for i in range(1, 7))

# The acceptance suite's two effort scenarios, both reduced here over a fixed
# six-constant domain: sha256 of the rendered axioms, facts and goal, one per
# line, and of the reified-constant table in insertion order.
REDUCTIONS = {
    "conjunct-drop": (
        ReductionContext(domain=SIX, worlds=("w0",)),
        {
            "axioms": "1ea3200c56ee911bef460dbf70d12a1fb5cef1fb660c2393e51c8d1f86465368",
            "facts": "e32bff95c484c0e1f30cbc91dd4262af4e76b2804d62251f006ce92d920916d3",
            "goal": "b6a952c7af982ecb00507cb5c4b06cab3dde22270a1b34e7b3f02a18c52f6329",
            "reified_consts": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        },
    ),
    "compatible-possible": (
        ReductionContext(
            domain=SIX, worlds=("w0", "w1"), accessibility=(("w0", "w1"),)
        ),
        {
            "axioms": "f0904ce4d3d25b40a40137cb7fb33f2cdc81a0a78e2f922ea1a56c405fd8a25d",
            "facts": "caa29a03dc6a89923152fe68fe52e821f75ac6b5b480e49b015790f744579f8f",
            "goal": "275358fb1fb833e9e9c93463d1a8ee40e1f5ef23a82d6916df38baf3631e8e63",
            "reified_consts": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        },
    ),
}

# The whole bundle over the same domain and worlds as compatible-possible:
# its facts reify terms, so this pins the obj-kN numbering (seven constants).
FULL_REDUCTION = {
    "axioms": "f0904ce4d3d25b40a40137cb7fb33f2cdc81a0a78e2f922ea1a56c405fd8a25d",
    "facts": "2a1b50d6fd14caa67531c3e1a23eb68eec1ee8c299a827963efa65504dca88c9",
    "reified_consts": "399acef35ef736d2cb54ec61ffc5941c5d7f894d1950b84d0c3869b7bdfffe70",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_bundled_query_is_pinned():
    assert [c.name for c in BUNDLE.queries] == list(QUERIES)


@pytest.mark.parametrize("case", BUNDLE.queries, ids=lambda c: c.name)
def test_query_outcome_explored_and_trace(case):
    result = prove(BUNDLE.kb_for(case), case.goal, ProverConfig())
    digest = _sha256(result.trace.to_json()) if result.trace is not None else None
    assert (result.outcome, result.explored, digest) == QUERIES[case.name]


@pytest.mark.parametrize("case", BUNDLE.queries, ids=lambda c: c.name)
def test_query_fresh_variable_numbering(case):
    cfg = ProverConfig()
    search = _Search(BUNDLE.kb_for(case), cfg)
    proofs = search.solve(
        case.goal, {}, 0, frozenset(), _Hyps(), cfg.max_lexical_steps, frozenset()
    )
    try:
        next(proofs, None)
    except _Budget:
        pass
    assert search.fresh_counter == FRESH_NAMES[case.name]


def test_witness_model_dump():
    assert _sha256(dump_model(witness_model(BUNDLE))) == WITNESS_MODEL_SHA256


def test_schema_instance_counts_over_full_kb():
    kb = BUNDLE.full_kb()
    counts = {
        s.name: len(enumerate_instances(s, kb.signature, kb.registry))
        for s in kb.schemas
    }
    assert counts == INSTANCE_COUNTS


@pytest.mark.parametrize("name", list(SATURATION))
def test_forward_chain_derivations(name):
    if name == "full":
        kb = BUNDLE.full_kb()
    else:
        kb = BUNDLE.kb_for(next(c for c in BUNDLE.queries if c.name == name))
    result = forward_chain(kb)
    text = json.dumps(
        {
            "derived": [render(f) for f in result.derived],
            "steps": [[rule, detail] for _f, rule, detail in result.steps],
            "exhausted": result.exhausted,
        },
        sort_keys=True,
    )
    assert _sha256(text) == SATURATION[name]


def _reduction_digests(kb, ctx, goal=None) -> dict:
    reduced, tables = reduce_kb(kb, ctx)
    out = {
        "axioms": _sha256("\n".join(render(a) for a in reduced.axioms)),
        "facts": _sha256("\n".join(render(f) for f in reduced.facts)),
    }
    if goal is not None:
        out["goal"] = _sha256(render(reduce_formula(goal, ctx, tables)))
    out["reified_consts"] = _sha256(json.dumps(list(tables.reified_consts.items())))
    return out


@pytest.mark.parametrize("name", list(REDUCTIONS))
def test_effort_scenario_reduction(name):
    case = next(c for c in BUNDLE.queries if c.name == name)
    ctx, expected = REDUCTIONS[name]
    assert _reduction_digests(BUNDLE.kb_for(case), ctx, case.goal) == expected


def test_full_bundle_reduction():
    ctx = ReductionContext(
        domain=SIX, worlds=("w0", "w1"), accessibility=(("w0", "w1"),)
    )
    assert _reduction_digests(BUNDLE.full_kb(), ctx) == FULL_REDUCTION


@pytest.mark.parametrize("name", list(COUNTERMODELS))
def test_first_countermodel_of_the_downward_conjunct_drop(name):
    registry = BUNDLE.registry if name == "bundle-registry" else DEFAULT_REGISTRY
    cx = find_counterexample(
        parse_formula(FEWER_THAN_2), SearchBounds(max_domain=4, max_worlds=1), registry
    )
    assert _sha256(dump_model(cx)) == COUNTERMODELS[name]


def test_first_countermodels_of_generated_implications():
    rng = random.Random(2024)
    gen = AstGen(rng, reified=False, functions=False, modifiers=False)
    bounds = SearchBounds(max_domain=3, max_worlds=2, ceiling=20_000)
    lines = []
    for _ in range(200):
        f = Implies(gen.closed_formula(depth=2), gen.closed_formula(depth=2))
        try:
            cx = find_counterexample(f, bounds)
            lines.append("valid" if cx is None else dump_model(cx))
        except EnumerationError as e:
            lines.append(f"error: {e}")
    assert _sha256("\n".join(lines)) == GENERATED_COUNTERMODELS


def test_every_validated_conjunct_drop_instance_has_no_countermodel():
    # the instances `elfol validate --schema monotone-conj-drop` checks
    schema = next(s for s in BUNDLE.schemas if s.name == "monotone-conj-drop")
    sig = Signature()
    for i, (_, arity) in enumerate(schema.pred_metavars):
        sig.predicates[f"p{i + 1}"] = arity
    instances = enumerate_instances(
        schema, sig, BUNDLE.registry, InstanceBounds(max_formula_instances=2)
    )
    assert len(instances) == 162
    bounds = SearchBounds(max_domain=4, max_worlds=1)
    assert [
        render(inst) for inst in instances
        if find_counterexample(inst, bounds, BUNDLE.registry) is not None
    ] == []
