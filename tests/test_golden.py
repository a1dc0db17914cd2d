"""Golden outputs of the bundled knowledge base.

The values below pin what the prover, the witness model and schema
enumeration produce today, so that a refactor which should not change
behaviour can be checked against them byte for byte. A deliberate change
of behaviour updates them and says why.
"""

import hashlib

import pytest

from elfol.lexicon import load_bundle, witness_model
from elfol.models import dump_model
from elfol.prover import ProverConfig, prove
from elfol.schemas import enumerate_instances

BUNDLE = load_bundle()

# name -> (outcome, explored, sha256 of trace.to_json(), or None without a trace)
QUERIES = {
    "enter": ("proved", 3, "fa2ae4b065a3c6d1678e7571cf796f076bd7c763960eac538b60337e83a9b3a3"),
    "conjunct-drop": ("proved", 153, "993fe6bb01e3ed05f50119f899e44dc37fe3e970d0585dae259432e0ec7402f6"),
    "majority-most": ("proved", 376, "c9cc1e676b9de0e037999f7c7157e31ad28be2351bc0fcc87c10e85a4de8b72e"),
    "correct-intro": ("proved", 9, "a0fdbc32fd308441022c5b8e95eba4db0b3acdd4cbf8df581304a82fa1ac7567"),
    "correct-elim": ("proved", 8, "58ff70895a0649316998b448abaa8b8cf62ec683473ad1b5e509bf53985df0b8"),
    "compatible-possible": ("proved", 12, "c83756444bdcc62ab59bb81df999394be6a93acdefa681856b89db54c02002d2"),
    "sounds-reasonable": ("proved", 153, "307945920a1034e0b4614f318495c6f618a79233e5900e94e834d0c2187421a3"),
    "do-implies-done": ("proved", 154, "8728c8694d4c0e8e21d663887708964951dfd52299aad36faa8104ae22697bde"),
    "kind-facts": ("proved", 3, "36c81036f15964fdc618d1a3a13bcde5999c24c97984e72961fed03f2b6fcc6c"),
    "attitude-facts": ("proved", 2, "0b4dd4556f248ab45dae077baf64885985a9155eb5c4320b5111fa4fad07246d"),
    "not-derivable": ("exhausted", 944, None),
}

WITNESS_MODEL_SHA256 = "d8eb0193c62a1a10c4872781293e0be23ca19fe0697ad21f0cdd1336013c1d59"

INSTANCE_COUNTS = {
    "monotone-conj-drop": 29478,
    "correct-iff-content": 12,
    "sounds-as-considered": 17,
    "do-reified-action": 17,
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


def test_witness_model_dump():
    assert _sha256(dump_model(witness_model(BUNDLE))) == WITNESS_MODEL_SHA256


def test_schema_instance_counts_over_full_kb():
    kb = BUNDLE.full_kb()
    counts = {
        s.name: len(enumerate_instances(s, kb.signature, kb.registry))
        for s in kb.schemas
    }
    assert counts == INSTANCE_COUNTS
