"""The effort comparison as a curve: `compare_effort` on the bundled
conjunct-drop query over the domain c1 ... cn at world w0, under the
acceptance suite's deep bounds.

The extended proof is one monotone-quant step at every n. The reduced
proof spells the quantifier out over the domain, and its length grows as
about 4n^3/3 (from n = 4 its third differences are a constant 8). Up to
n = 8 the reduced search proves well inside the explored bound.

Run as a script to run the searches and print the README's table from
what they report:

    PYTHONPATH=src python tests/test_effort_curve.py
"""

import textwrap
from pathlib import Path

import pytest

from elfol.lexicon import load_bundle
from elfol.prover import ProverConfig
from elfol.reduction import ReductionContext, compare_effort

DEEP_CFG = ProverConfig(
    max_depth=40, max_lexical_steps=8, timeout_ms=120_000, max_explored=2_000_000
)

# n -> ((outcome, proof length, explored) extended, the same reduced)
CURVE = {
    3: (("proved", 1, 6), ("proved", 7, 16)),
    4: (("proved", 1, 6), ("proved", 33, 148)),
    5: (("proved", 1, 6), ("proved", 81, 531)),
    6: (("proved", 1, 6), ("proved", 161, 1_606)),
    7: (("proved", 1, 6), ("proved", 281, 4_233)),
    8: (("proved", 1, 6), ("proved", 449, 9_933)),
}


def effort(n: int) -> tuple:
    """((outcome, proof length, explored) extended, the same reduced) for
    conjunct-drop over c1 ... cn."""
    bundle = load_bundle()
    case = next(c for c in bundle.queries if c.name == "conjunct-drop")
    ctx = ReductionContext(domain=tuple(f"c{i}" for i in range(1, n + 1)), worlds=("w0",))
    report, _, _ = compare_effort(bundle.kb_for(case), case.goal, ctx, ProverConfig(), DEEP_CFG)
    return tuple(
        (side.outcome, side.proof_len, side.explored)
        for side in (report.extended, report.reduced)
    )


@pytest.mark.parametrize("n", sorted(CURVE))
def test_conjunct_drop_effort(n):
    assert effort(n) == CURVE[n]


def table(curve: dict) -> str:
    """The README's table of a curve: n -> what `effort` returns."""
    rows = [
        "| n | extended length | extended explored | reduced length | reduced explored |",
        "| ---: | ---: | ---: | ---: | ---: |",
    ]
    for n, ((_, ext_len, ext_explored), (_, red_len, red_explored)) in sorted(curve.items()):
        rows.append(f"| {n} | {ext_len} | {ext_explored:,} | {red_len} | {red_explored:,} |")
    return "\n".join(rows)


def test_readme_table_is_the_pinned_curve():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert textwrap.indent(table(CURVE), "  ") in readme


if __name__ == "__main__":
    print(table({n: effort(n) for n in CURVE}))
