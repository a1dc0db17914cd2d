"""Knowledge bases: validated collections of facts, axioms, and schemas.

Facts are closed formulas asserted of the current situation; axioms are
closed formulas holding in every situation; schemas quantify over
predicates, closed formulas, and quantifier classes (see `schemas`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import syntax
from .core import Formula, Signature, free_vars, well_formed
from .quantifiers import DEFAULT_REGISTRY, QuantRegistry
from .schemas import Schema, validate_schema


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

    def with_facts(self, facts) -> "KnowledgeBase":
        return KnowledgeBase(
            self.signature, list(facts), list(self.axioms), list(self.schemas),
            self.registry,
        )


def parse_file(path, sig: Signature) -> syntax.KbSource:
    """Parse one kb file; its declarations are added to sig, which earlier
    files' declarations may already fill."""
    src = syntax.KbSource(signature=sig)
    try:
        syntax.parse_kb(Path(path).read_text(encoding="utf-8"), into=src)
    except syntax.ParseError as e:
        raise KbError(e.message, file=str(path), span=e.span) from e
    return src


def check_entry(kind: str, f: Formula, sig: Signature, file=None, span=None) -> Formula:
    """f, if it is a closed formula well-formed over sig; else a located KbError."""
    if loose := ", ".join(sorted(free_vars(f))):
        raise KbError(f"{kind} has free variables: {loose}", file, span)
    diags = well_formed(f, sig)
    if diags:
        raise KbError(f"ill-formed {kind}: {diags[0]}", file, span)
    return f


def make_schema(form: syntax.SchemaForm, sig: Signature, file) -> Schema:
    """The schema a parsed form declares, if valid over sig; else a located KbError."""
    schema = Schema(
        form.name, form.pred_vars, form.formula_vars, form.quant_vars, form.body
    )
    problems = validate_schema(schema, sig)
    if problems:
        raise KbError(f"ill-formed schema {form.name}: {problems[0]}", file, form.span)
    return schema


def load_files(paths, registry: Optional[QuantRegistry] = None):
    """Parse and validate a list of kb files.

    Returns (KnowledgeBase, queries) where queries are the QueryForm entries
    found across the files. Signature declarations from earlier files are in
    scope for later ones; well-formedness is checked once all declarations
    are read.
    """
    sig = Signature()
    sources = [(str(path), parse_file(path, sig)) for path in paths]
    registry = registry if registry is not None else DEFAULT_REGISTRY
    kb = KnowledgeBase(signature=sig, registry=registry)
    for file, src in sources:
        kb.axioms += [check_entry("axiom", f, sig, file, span) for f, span in src.axioms]
    for file, src in sources:
        kb.facts += [check_entry("fact", f, sig, file, span) for f, span in src.facts]
    for file, src in sources:
        kb.schemas += [make_schema(form, sig, file) for form in src.schemas]
    return kb, [q for _, src in sources for q in src.queries]
