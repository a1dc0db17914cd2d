"""Knowledge bases: validated collections of facts, axioms, and schemas.

Facts are closed formulas asserted of the current situation; axioms are
closed formulas holding in every situation; schemas quantify over
predicates, closed formulas, and quantifier classes (see `schemas`).

Every kb file is read by one loader, `load_parts`, which passes each axiom,
fact, schema body and query goal through one entry check, `check_entry`.
`load_files` concatenates its parts; `lexicon.load_bundle` keeps them apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from . import syntax
from .core import (
    Formula, Modified, PredConst, RestrictedQuant, Signature, free_vars, nodes, well_formed,
)
from .quantifiers import DEFAULT_REGISTRY, QuantRegistry, UnknownQuantifierError
from .schemas import Schema


class KbError(Exception):
    """A knowledge base failed to load: parse error or ill-formed entry."""

    def __init__(self, message: str, file: Optional[str] = None, span=None):
        self.file = file
        self.span = span
        where = ""
        if file is not None:
            where = f"{file}:"
        if span is not None:
            where += f"{span}: "
        elif file is not None:
            where += " "
        super().__init__(f"{where}{message}")


@dataclass
class KnowledgeBase:
    signature: Signature = field(default_factory=Signature)
    facts: list = field(default_factory=list)
    axioms: list = field(default_factory=list)
    schemas: list = field(default_factory=list)
    registry: QuantRegistry = field(default_factory=lambda: DEFAULT_REGISTRY)


def check_entry(kind: str, f: Formula, sig: Signature, file=None, span=None) -> Formula:
    """f, if it is a closed formula well-formed over sig whose quantifiers
    all resolve; else a located KbError. Every registry resolves the same
    quantifiers, so the default one answers for all."""
    return _check(kind, f, sig, nodes(f), (), file, span)


def _check(kind, f, sig, walked, quant_vars, file, span) -> Formula:
    """check_entry over f's given nodes, leaving quant_vars unresolved."""
    if loose := ", ".join(sorted(free_vars(f))):
        raise KbError(f"{kind} has free variables: {loose}", file, span)
    diags = well_formed(f, sig)
    if diags:
        raise KbError(f"ill-formed {kind}: {diags[0]}", file, span)
    try:
        for node in walked:
            if type(node) is RestrictedQuant and node.quant.name not in quant_vars:
                DEFAULT_REGISTRY.resolve(node.quant)
    except UnknownQuantifierError as e:
        raise KbError(f"{kind}: {e}", file, span) from None
    return f


def make_schema(form: syntax.SchemaForm, sig: Signature, file) -> Schema:
    """The schema a parsed form declares, if valid over sig; else a located
    KbError. Its body gets the entry check over sig extended by its
    metavariables: a predicate metavariable is a predicate of its declared
    arity, a formula metavariable one of arity 0 that stands only as a whole
    atom, and a quantifier metavariable is not resolved."""
    quant_vars = [n for n, _ in form.quant_vars]
    names = [n for n, _ in form.pred_vars] + list(form.formula_vars) + quant_vars
    clash = set(names) & sig.all_names()
    phis = {PredConst(name) for name in form.formula_vars}
    walked = nodes(form.body)  # one walk for both checks
    misplaced = [n.base for n in walked if type(n) is Modified and n.base in phis]
    problem = None
    if len(set(names)) != len(names):
        problem = "duplicate metavariable names"
    elif clash:
        problem = f"metavariables shadow declared symbols: {sorted(clash)}"
    elif misplaced:
        problem = f"formula metavariable {misplaced[0].name} in predicate position"
    if problem:
        raise KbError(f"ill-formed schema {form.name}: {problem}", file, form.span)
    preds = {**sig.predicates, **dict(form.pred_vars), **dict.fromkeys(form.formula_vars, 0)}
    ext = replace(sig, predicates=preds)
    _check(f"schema {form.name}", form.body, ext, walked, set(quant_vars), file, form.span)
    return Schema(form.name, form.pred_vars, form.formula_vars, form.quant_vars, form.body)


def load_parts(paths) -> list:
    """Parse kb files in order into one signature and, once all declarations
    are read, check every axiom, then every fact, schema and query goal.
    Returns one (KnowledgeBase, queries) pair per file, all on that
    signature."""
    sig, sources = Signature(), []
    for path in paths:
        src = syntax.KbSource(signature=sig)
        try:
            syntax.parse_kb(Path(path).read_text(encoding="utf-8-sig"), into=src)
        except syntax.ParseError as e:
            raise KbError(e.message, file=str(path), span=e.span) from e
        except UnicodeDecodeError as e:
            raise KbError(str(e), file=str(path)) from None
        sources.append((str(path), src))
    axioms = [[check_entry("axiom", f, sig, file, span) for f, span in src.axioms]
              for file, src in sources]
    facts = [[check_entry("fact", f, sig, file, span) for f, span in src.facts]
             for file, src in sources]
    schemas = [[make_schema(form, sig, file) for form in src.schemas] for file, src in sources]
    for file, src in sources:
        for form in src.queries:
            check_entry("query goal", form.goal, sig, file, form.span)
    parts = zip(sources, facts, axioms, schemas)
    return [(KnowledgeBase(sig, *entries), src.queries) for (_, src), *entries in parts]


def load_files(paths):
    """Load a list of kb files through `load_parts`.

    Returns (KnowledgeBase, queries): every file's entries concatenated, and
    the QueryForm entries found across the files.
    """
    parts = load_parts(paths)
    kb = KnowledgeBase(parts[0][0].signature) if parts else KnowledgeBase()
    for part, _ in parts:
        kb.axioms += part.axioms
        kb.facts += part.facts
        kb.schemas += part.schemas
    return kb, [form for _, queries in parts for form in queries]
