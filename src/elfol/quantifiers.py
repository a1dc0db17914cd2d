"""Generalized quantifiers over finite sets.

A quantifier relates a restrictor set A and a body set B. Truth conditions
here depend only on |A∩B| and |A\\B|, which builds in conservativity and
closure under isomorphism. Each definition carries a monotonicity profile
(per argument: up, down, or none) that is verified on the number triangle,
the pairs (|A∩B|, |A\\B|) up to a bound, before a registry will hand it out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .core import QuantRef

UP = "up"
DOWN = "down"
NONE = "none"


@dataclass(frozen=True)
class QuantDef:
    name: str
    param: Optional[int]
    truth: Callable  # (n_ab, n_a_not_b) -> bool
    left: str
    right: str

    @property
    def ref(self) -> QuantRef:
        return QuantRef(self.name, self.param)

    @property
    def display(self) -> str:
        return self.name if self.param is None else f"{self.name} {self.param}"


def eval_quant(q: QuantDef, a: frozenset, b: frozenset) -> bool:
    """Truth of q over restrictor set a and body set b."""
    n_ab = len(a & b)
    return q.truth(n_ab, len(a) - n_ab)


class MonotonicityError(ValueError):
    """A claimed monotonicity profile failed exhaustive verification."""


def _find_violation(truth: Callable, side: str, direction: str, max_n: int) -> Optional[dict]:
    """First step on the number triangle that breaks side-direction
    monotonicity: from a pair (a, b) = (|A∩B|, |A\\B|) with a + b <= max_n
    where truth holds to a neighbour where it fails. Growing B moves one
    individual from A\\B to A∩B; growing A adds one to either. The step is
    returned as sets over range(max_n)."""
    sign = 1 if direction == UP else -1
    steps = ((sign, -sign),) if side == "right" else ((sign, 0), (0, sign))
    for a in range(max_n + 1):
        for b in range(max_n + 1 - a):
            for da, db in steps:
                a2, b2 = a + da, b + db
                if min(a2, b2) < 0 or a2 + b2 > max_n:
                    continue
                if not truth(a, b) or truth(a2, b2):
                    continue
                # B holds the first m individuals, and each A its a of them
                # and its b of the ones after; on the right A stays the same
                m = max(a, a2) if side == "left" else a
                A, A2 = (frozenset(range(x)) | frozenset(range(m, m + y))
                         for x, y in ((a, b), (a2, b2)))
                B, reason = frozenset(range(m)), f"{side}-{direction} fails"
                if side == "right":
                    return {"A": A, "B": B, "B2": frozenset(range(a2)), "reason": reason}
                return {"A": A, "A2": A2, "B": B, "reason": reason}
    return None


def verify_monotonicity(q: QuantDef, claimed, max_n: int = 4):
    """Check a (left, right) profile claim by a walk over the number triangle.

    Visits every pair (|A∩B|, |A\\B|) with a sum of at most max_n, which are
    the configurations with |A ∪ B ∪ B'| <= max_n (and the analogous triples
    on the left). An `up`/`down` claim must hold at every step; a `none`
    claim requires a witness against both directions.
    Returns None when the claim checks out, else the first counterexample,
    a dict with keys among {"A", "B", "B2", "A2"} and a "reason".
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    left_claim, right_claim = claimed
    for side, claim in (("left", left_claim), ("right", right_claim)):
        if claim in (UP, DOWN):
            cx = _find_violation(q.truth, side, claim, max_n)
            if cx is not None:
                return cx
        elif claim == NONE:
            for d in (UP, DOWN):
                if _find_violation(q.truth, side, d, max_n) is None:
                    return {"reason": f"{side}-none too weak: {side}-{d} actually holds"}
        else:
            return {"reason": f"unknown profile entry {claim!r}"}
    return None


def derive_profile(truth: Callable, max_n: int = 4) -> tuple:
    """The profile a truth condition actually has at max_n."""
    out = []
    for side in ("left", "right"):
        holds = [d for d in (UP, DOWN) if _find_violation(truth, side, d, max_n) is None]
        if holds == [UP, DOWN]:
            # insensitive to this argument; up is the claim the registry stores
            out.append(UP)
        elif holds:
            out.append(holds[0])
        else:
            out.append(NONE)
    return tuple(out)


# ---------------------------------------------------------------------------
# Built-in definitions


def _simple(name: str, truth: Callable, left: str, right: str) -> QuantDef:
    return QuantDef(name, None, truth, left, right)


_SIMPLE = {
    "all": _simple("all", lambda ab, anb: anb == 0, DOWN, UP),
    "some": _simple("some", lambda ab, anb: ab > 0, UP, UP),
    "no": _simple("no", lambda ab, anb: ab == 0, DOWN, DOWN),
    "most": _simple("most", lambda ab, anb: ab > anb, NONE, UP),
}


def _parametric(name: str, n: int) -> QuantDef:
    if name == "at-least":
        return QuantDef(name, n, lambda ab, anb, n=n: ab >= n, UP, UP)
    if name == "at-most":
        return QuantDef(name, n, lambda ab, anb, n=n: ab <= n, DOWN, DOWN)
    if name == "fewer-than":
        return QuantDef(name, n, lambda ab, anb, n=n: ab < n, DOWN, DOWN)
    if name == "exactly":
        profile = (DOWN, DOWN) if n == 0 else (NONE, NONE)
        return QuantDef(name, n, lambda ab, anb, n=n: ab == n, *profile)
    raise KeyError(name)


PARAMETRIC_NAMES = ("at-least", "at-most", "exactly", "fewer-than")


class UnknownQuantifierError(KeyError):
    def __str__(self) -> str:
        # KeyError's own __str__ quotes its argument, as for a missing key
        return self.args[0]


class QuantRegistry:
    """Built-in quantifiers, each verified against its stored profile.

    `all` and `some` are always present; parametric families are
    instantiated on demand and verified (then cached) at `verify_bound`.
    """

    def __init__(self, verify_bound: int = 4):
        self.verify_bound = verify_bound
        self._cache: dict = {}
        for q in _SIMPLE.values():
            self._admit(q)

    def _admit(self, q: QuantDef) -> QuantDef:
        bound = self.verify_bound
        if NONE in (q.left, q.right):
            # a `none` claim needs counterexamples to both directions; the
            # universe must leave room to grow past the parameter
            bound = max(bound, (q.param or 0) + 1)
        cx = verify_monotonicity(q, (q.left, q.right), bound)
        if cx is not None:
            raise MonotonicityError(f"{q.display}: {cx['reason']}")
        self._cache[(q.name, q.param)] = q
        return q

    def resolve(self, ref: QuantRef) -> QuantDef:
        key = (ref.name, ref.param)
        if key in self._cache:
            return self._cache[key]
        if ref.name in _SIMPLE and ref.param is not None:
            raise UnknownQuantifierError(f"{ref.name} takes no parameter")
        if ref.name in PARAMETRIC_NAMES:
            if ref.param is None or ref.param < 0:
                raise UnknownQuantifierError(
                    f"{ref.name} requires an integer parameter >= 0"
                )
            return self._admit(_parametric(ref.name, ref.param))
        raise UnknownQuantifierError(f"unknown quantifier {ref.name!r}")

    def known(self, ref: QuantRef) -> bool:
        try:
            self.resolve(ref)
            return True
        except UnknownQuantifierError:
            return False

    def entries(self, max_param: int = 3) -> list:
        """The concrete registry contents: simple quantifiers plus each
        parametric family at parameters 1..max_param, deterministic order."""
        out = [self._cache[(n, None)] for n in ("all", "some", "no", "most")]
        for name in PARAMETRIC_NAMES:
            for n in range(1, max_param + 1):
                out.append(self.resolve(QuantRef(name, n)))
        return out

    def right_up(self, max_param: int = 3) -> list:
        return [
            q for q in self.entries(max_param) if q.right == UP
        ]


DEFAULT_REGISTRY = QuantRegistry()
