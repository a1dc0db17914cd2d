"""Generalized quantifier truth conditions and monotonicity profiles."""

import random
from itertools import chain, combinations, product

import pytest

from elfol.core import QuantRef
from elfol.quantifiers import (
    DOWN,
    NONE,
    UP,
    MonotonicityError,
    QuantDef,
    QuantRegistry,
    UnknownQuantifierError,
    _find_violation,
    derive_profile,
    eval_quant,
    verify_monotonicity,
)


def q(name, param=None):
    return QuantRegistry().resolve(QuantRef(name, param))


def naive_truth(name, param, a, b):
    """Independent counting oracle, straight off the set definitions."""
    inter = len([x for x in a if x in b])
    a_not_b = len([x for x in a if x not in b])
    return {
        "all": a_not_b == 0,
        "some": inter > 0,
        "no": inter == 0,
        "most": inter > a_not_b,
        "at-least": inter >= (param or 0),
        "at-most": inter <= (param or 0),
        "exactly": inter == (param or 0),
        "fewer-than": inter < (param or 0),
    }[name]


class TestEvalQuant:
    def test_most_counting(self):
        a = frozenset({"c1", "c2", "c3"})
        b = frozenset({"c1", "c2"})
        assert naive_truth("most", None, a, b) is True
        assert eval_quant(q("most"), a, b) is True

    def test_at_least_vs_fewer_than(self):
        s = frozenset({"c1", "c2", "c3"})
        assert naive_truth("at-least", 3, s, s) is True
        assert eval_quant(q("at-least", 3), s, s) is True
        assert naive_truth("fewer-than", 3, s, s) is False
        assert eval_quant(q("fewer-than", 3), s, s) is False

    def test_empty_restrictor_edge_cases(self):
        empty = frozenset()
        b = frozenset({"x"})
        assert eval_quant(q("all"), empty, b) is True
        assert eval_quant(q("some"), empty, b) is False
        assert eval_quant(q("most"), empty, b) is False

    def test_matches_oracle_exhaustively(self):
        universe = ["u1", "u2", "u3"]
        subsets = [
            frozenset(c)
            for k in range(4)
            for c in combinations(universe, k)
        ]
        cases = [("all", None), ("some", None), ("no", None), ("most", None)] + [
            (n, p) for n in ("at-least", "at-most", "exactly", "fewer-than")
            for p in (0, 1, 2, 3)
        ]
        for name, param in cases:
            qd = q(name, param)
            for a in subsets:
                for b in subsets:
                    assert eval_quant(qd, a, b) == naive_truth(name, param, a, b)


class TestVerifyMonotonicity:
    def test_most_profile_confirmed(self):
        assert verify_monotonicity(q("most"), (NONE, UP), max_n=4) is None

    def test_fewer_than_up_claim_refuted(self):
        cx = verify_monotonicity(q("fewer-than", 3), (DOWN, UP), max_n=4)
        assert cx is not None
        assert "right-up" in cx["reason"]
        # the counterexample really is one
        assert eval_quant(q("fewer-than", 3), cx["A"], cx["B"]) is True
        assert cx["B"] <= cx["B2"]
        assert eval_quant(q("fewer-than", 3), cx["A"], cx["B2"]) is False

    def test_all_profile_confirmed(self):
        assert verify_monotonicity(q("all"), (DOWN, UP), max_n=4) is None

    def test_rejects_max_n_below_one(self):
        with pytest.raises(ValueError):
            verify_monotonicity(q("all"), (DOWN, UP), max_n=0)

    def test_registry_rejects_wrong_profiles(self):
        bogus = QuantDef("bogus-most", None, lambda ab, anb: ab > anb, UP, UP)
        reg = QuantRegistry()
        with pytest.raises(MonotonicityError):
            reg._admit(bogus)


class TestRegistry:
    def test_all_and_some_always_present(self):
        reg = QuantRegistry()
        assert reg.resolve(QuantRef("all")).name == "all"
        assert reg.resolve(QuantRef("some")).name == "some"

    def test_unknown_quantifier(self):
        reg = QuantRegistry()
        with pytest.raises(UnknownQuantifierError):
            reg.resolve(QuantRef("several"))
        with pytest.raises(UnknownQuantifierError):
            reg.resolve(QuantRef("at-least"))  # missing parameter

    def test_profiles_are_exactly_what_verification_confirms(self):
        reg = QuantRegistry()
        for entry in reg.entries(max_param=3):
            assert verify_monotonicity(entry, (entry.left, entry.right), 4) is None
            derived = derive_profile(entry.truth, max_n=4)
            assert (entry.left, entry.right) == derived, entry.display

    def test_large_parameter_profiles_verified_past_the_boundary(self):
        # at universe size n the none-claims of `exactly n` are unwitnessable;
        # the registry verifies them at n+1 instead of storing a stronger claim
        entry = QuantRegistry().resolve(QuantRef("exactly", 4))
        assert (entry.left, entry.right) == (NONE, NONE)
        assert verify_monotonicity(entry, (NONE, NONE), max_n=5) is None

    def test_conservativity_by_construction(self):
        universe = ["u1", "u2", "u3", "u4"]
        subsets = [
            frozenset(c)
            for k in range(5)
            for c in combinations(universe, k)
        ]
        reg = QuantRegistry()
        for entry in reg.entries(max_param=3):
            for a in subsets:
                for b in subsets:
                    assert eval_quant(entry, a, b) == eval_quant(entry, a, a & b)

    def test_at_least_parametric_coherence(self):
        universe = ["u1", "u2", "u3", "u4"]
        subsets = [
            frozenset(c) for k in range(5) for c in combinations(universe, k)
        ]
        reg = QuantRegistry()
        for n in range(1, 5):
            qn = reg.resolve(QuantRef("at-least", n))
            for m in range(0, n + 1):
                qm = reg.resolve(QuantRef("at-least", m))
                for a in subsets:
                    for b in subsets:
                        if eval_quant(qn, a, b):
                            assert eval_quant(qm, a, b)

    def test_exactly_zero_is_downward(self):
        entry = QuantRegistry().resolve(QuantRef("exactly", 0))
        assert (entry.left, entry.right) == (DOWN, DOWN)


# ---------------------------------------------------------------------------
# The number-triangle walk against the subset search it replaced


def subset_violation(truth, side, direction, max_n):
    """First triple of subsets of range(max_n) that breaks side-direction
    monotonicity, searched the way verification did before the walk."""
    universe = range(max_n)
    subsets = [
        frozenset(c)
        for c in chain.from_iterable(combinations(universe, k) for k in range(max_n + 1))
    ]
    probe = QuantDef("probe", None, truth, NONE, NONE)
    for a, b in product(subsets, subsets):
        if not eval_quant(probe, a, b):
            continue
        for c in subsets:
            if side == "right" and (b <= c if direction == UP else c <= b):
                if not eval_quant(probe, a, c):
                    return {"A": a, "B": b, "B2": c}
            if side == "left" and (a <= c if direction == UP else c <= a):
                if not eval_quant(probe, c, b):
                    return {"A": a, "A2": c, "B": b}
    return None


def check_walk_against_subsets(truth, max_n):
    probe = QuantDef("probe", None, truth, NONE, NONE)
    holds = {}
    for side, d in product(("left", "right"), (UP, DOWN)):
        cx = _find_violation(truth, side, d, max_n)
        holds[side, d] = cx is None
        assert holds[side, d] == (subset_violation(truth, side, d, max_n) is None)
        if cx is None:
            continue
        assert cx["reason"] == f"{side}-{d} fails"
        # the step is a real counterexample within the universe
        a2, b2 = (cx["A2"], cx["B"]) if side == "left" else (cx["A"], cx["B2"])
        small, big = (cx["A"], a2) if side == "left" else (cx["B"], b2)
        assert (small <= big if d == UP else big <= small)
        assert eval_quant(probe, cx["A"], cx["B"]) and not eval_quant(probe, a2, b2)
        assert max(cx["A"] | a2 | cx["B"] | b2, default=0) < max_n
    derived = tuple(
        UP if holds[side, UP] else DOWN if holds[side, DOWN] else NONE
        for side in ("left", "right")
    )
    assert derive_profile(truth, max_n) == derived
    for claim in product((UP, DOWN, NONE), repeat=2):
        want = None
        for side, c in zip(("left", "right"), claim):
            if c != NONE and not holds[side, c]:
                want = f"{side}-{c} fails"
            elif c == NONE and (holds[side, UP] or holds[side, DOWN]):
                d = UP if holds[side, UP] else DOWN
                want = f"{side}-none too weak: {side}-{d} actually holds"
            if want:
                break
        cx = verify_monotonicity(probe, claim, max_n)
        assert (cx and cx["reason"]) == want, (claim, max_n)


@pytest.mark.parametrize("max_n", [1, 2, 3, 4, 5])
def test_walk_agrees_with_the_subset_search_on_builtins(max_n):
    reg = QuantRegistry()
    entries = [reg.resolve(QuantRef(n)) for n in ("all", "some", "no", "most")] + [
        reg.resolve(QuantRef(n, p))
        for n in ("at-least", "at-most", "exactly", "fewer-than")
        for p in range(6)
    ]
    for entry in entries:
        check_walk_against_subsets(entry.truth, max_n)


def test_walk_agrees_with_the_subset_search_on_random_truth_tables():
    # coin-flip tables are rarely monotone anywhere; linear thresholds are
    rng = random.Random(7)
    for _ in range(300):
        max_n = rng.randint(1, 5)
        p = rng.choice((0.1, 0.5, 0.9))
        wa, wb, t = (rng.randint(-2, 2) for _ in range(3))
        linear = rng.random() < 0.5
        table = {
            (a, b): wa * a + wb * b >= t if linear else rng.random() < p
            for a in range(max_n + 1) for b in range(max_n + 1 - a)
        }
        check_walk_against_subsets(lambda ab, anb, t=table: t[ab, anb], max_n)
