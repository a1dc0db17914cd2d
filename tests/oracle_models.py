"""The generator-chain model search, kept as the differential oracle for
`elfol.models.enumerate_models` and `elfol.models.find_counterexample`.

This `enumerate_models` builds a fresh `IntensionalModel` for every model
it yields, through `_orderly`, a recursive generator over the positions,
and its settled test builds another model for every prefix it tries, with
each extension copied under its negative name. `elfol.models` updates one
model in place instead. On every input both must yield the same models in
the same order, return the same countermodel, and raise the same error with
the same message.
"""

from __future__ import annotations

from itertools import permutations, product
from math import factorial
from typing import Optional

from elfol.core import Formula
from elfol.models import (
    IntensionalModel,
    SearchBounds,
    _NEGATIVE,
    _all_subsets,
    _checked_count,
    _mask_images,
    _polarize,
    _search_vocabulary,
    _total,
    compile_formula,
)
from elfol.quantifiers import DEFAULT_REGISTRY, QuantRegistry


def enumerate_models(
    domain_size: int,
    world_count: int,
    predicates,
    constants=(),
    ceiling: int = 2_000_000,
    *,
    canonical: bool = False,
    settled=None,
):
    """Every model with exactly these sizes over the given predicate list,
    in a fixed deterministic order; with canonical=True, only the models
    that come first in that order among their images under permutations
    of the domain, in the same order. The ceiling applies to the full count
    in both modes.

    The order is the lexicographic order of (accessibility, the extension
    of each (predicate, world) in predicate-list then world order, the
    value of each constant), each read as an index: a set as the bit mask
    of its members in `product(domain, repeat=arity)` order, a constant as
    its individual's position in the domain.

    settled, if given, is called at each prefix that leaves an extension
    unassigned, as settled(m, open_keys): m holds the accessibility and
    the extensions assigned so far, and open_keys lists the (predicate,
    world) keys still unassigned. When it returns True, no model that
    completes the prefix is yielded."""
    predicates = tuple(predicates)
    constants = tuple(constants)
    count = _checked_count(domain_size, world_count, predicates, constants, ceiling)
    worlds = tuple(f"w{i}" for i in range(world_count))
    domain = tuple(f"d{i}" for i in range(domain_size))
    # every position after accessibility holds a bit mask over the tuples
    # of one arity: an extension any subset, a constant a single individual
    # (the mask 1 << i for domain[i], so masks keep the domain's order)
    subsets = {}  # arity -> the frozenset of each mask's tuples, by mask
    ext_keys, ext_subsets = [], []
    values = []  # per position, its masks in increasing order
    arities = []
    for name, arity in predicates:
        if arity not in subsets:
            subsets[arity] = _all_subsets(tuple(product(domain, repeat=arity)))
        for w in worlds:
            ext_keys.append((name, w))
            ext_subsets.append(subsets[arity])
            values.append(range(len(subsets[arity])))
            arities.append(arity)
    singletons = [1 << i for i in range(domain_size)]
    individual = dict(zip(singletons, domain))
    values += [singletons] * len(constants)
    arities += [1] * len(constants)
    group = []
    # never build more permutations than there are models to save
    if canonical and factorial(domain_size) <= count:
        group = list(permutations(range(domain_size)))[1:]  # all but identity
    tables = {a: _mask_images(domain_size, a, bool(group)) for a in set(arities)}
    images = [tables[a] for a in arities]
    n_ext = len(ext_keys)
    for acc in _all_subsets(tuple(product(worlds, repeat=2))):
        prune = None
        if settled is not None:
            def prune(prefix, acc=acc):
                return len(prefix) < n_ext and settled(
                    IntensionalModel(
                        worlds=worlds,
                        accessibility=acc,
                        domain=domain,
                        predicates={
                            k: s[m] for k, s, m in zip(ext_keys, ext_subsets, prefix)
                        },
                    ),
                    ext_keys[len(prefix):],
                )
        for masks in _orderly(values, images, range(len(group)), prune):
            yield IntensionalModel(
                worlds=worlds,
                accessibility=acc,
                domain=domain,
                constants=dict(
                    zip(constants, [individual[m] for m in masks[n_ext:]])
                ),
                predicates={
                    k: s[m] for k, s, m in zip(ext_keys, ext_subsets, masks)
                },
            )


def _orderly(values: list, images: list, group, prune=None, i: int = 0, prefix: tuple = ()):
    """The tuples of product(*values) that no permutation in group (indices
    into each images[i]) maps to a smaller tuple, in order; with prune,
    less the completions of each shorter prefix for which prune(prefix) is
    True.

    Depth first: a prefix carries the permutations that leave it unchanged
    (its stabilizer in group). A next value v is dropped, with every
    completion, as soon as one of them maps v to a smaller value, since
    that permutation maps each completion to an earlier tuple. Once no
    permutation is left, and no prefix is left to prune, the rest is a
    plain product."""
    n = len(values)
    if prune is not None and i < n and prune(prefix):
        return
    if i == n or not group and (prune is None or i == n - 1):
        for rest in product(*values[i:]):
            yield prefix + rest
        return
    lo, hi, half = images[i]
    low = (1 << half) - 1
    for v in values[i]:
        a, b = v & low, v >> half
        fixed = []
        for p in group:
            u = lo[p][a] | hi[p][b]
            if u < v:
                break
            if u == v:
                fixed.append(p)
        else:
            yield from _orderly(values, images, fixed, prune, i + 1, prefix + (v,))


def find_counterexample(
    f: Formula,
    bounds: Optional[SearchBounds] = None,
    registry: Optional[QuantRegistry] = None,
) -> Optional[IntensionalModel]:
    """First enumerated model falsifying the closed formula f at the current
    world, or None if f holds in every model within bounds. Only canonical
    models are visited, and a prefix whose every completion satisfies f by
    polarity is not completed; the module docstring says why the answer is
    the same as a search of every model's."""
    bounds = bounds if bounds is not None else SearchBounds()
    preds, consts = _search_vocabulary(f, bounds)
    registry = registry if registry is not None else DEFAULT_REGISTRY
    holds = compile_formula(f, registry)
    settled = _settled(f, preds, consts, registry)
    for world_count in range(1, bounds.max_worlds + 1):
        for domain_size in range(1, bounds.max_domain + 1):
            for m in enumerate_models(
                domain_size, world_count, preds, consts, bounds.ceiling,
                canonical=True, settled=settled,
            ):
                if not holds(m, m.w0, {}):
                    return m
    return None


def _settled(f: Formula, preds: tuple, consts: tuple, registry):
    """enumerate_models' settled test for a search for a countermodel to f,
    or None where polarity cannot prune: f names a constant or could raise,
    the search has constants or names a predicate twice, or every
    predicate has an unmarked occurrence.

    f, polarized, is increasing in each predicate P and decreasing in each
    P + _NEGATIVE. So at a prefix, with an unassigned P read as the empty
    set and an unassigned P + _NEGATIVE as every tuple, the polarized f is
    true only if f is true in every completion."""
    arity = dict(preds)
    if consts or len(arity) != len(preds) or not _total(f, registry):
        return None
    polar, unmarked, _ = _polarize(f, registry)
    if arity.keys() <= unmarked:
        return None
    holds = compile_formula(polar, registry)
    full = {}  # (domain size, arity) -> every tuple

    def settled(m, open_keys) -> bool:
        if any(name in unmarked for name, _ in open_keys):
            return False
        exts = m.predicates
        for (name, w), ext in list(exts.items()):
            exts[name + _NEGATIVE, w] = ext
        for name, w in open_keys:
            key = len(m.domain), arity[name]
            if key not in full:
                full[key] = frozenset(product(m.domain, repeat=key[1]))
            exts[name + _NEGATIVE, w] = full[key]
        return holds(m, m.w0, {})

    return settled
