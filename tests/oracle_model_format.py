"""The hand-written model file format, kept as the differential oracle for
the table-driven `dump_model`/`parse_model` in `elfol.models`.

`dump_model` must give the same text on every model. On every text,
`parse_model` must give an equal model or the same error with the same
message, `expected`, line and column, except where it now rejects what
this reader crashed on or accepted: a fn entry cut off after its "(", an
acc entry that is not a pair, an open reified term, and a world or
individual that the model does not declare, or declares twice.
"""

from __future__ import annotations

from elfol import syntax
from elfol.models import EnumerationError, IntensionalModel, reified_key
from elfol.syntax import render


def dump_model(m: IntensionalModel) -> str:
    """Stable, diffable s-expression listing of a model."""
    lines = ["(model"]
    lines.append("  (worlds " + " ".join(m.worlds) + ")")
    acc = sorted(m.accessibility)
    lines.append(
        "  (acc" + "".join(f" ({a} {b})" for a, b in acc) + ")"
    )
    lines.append("  (domain " + " ".join(str(d) for d in m.domain) + ")")
    if m.reified_individuals:
        listed = [d for d in m.domain if d in m.reified_individuals]
        lines.append("  (reified-domain " + " ".join(str(d) for d in listed) + ")")
    for name in sorted(m.constants):
        lines.append(f"  (const {name} {m.constants[name]})")
    pred_names = sorted({name for name, _ in m.predicates})
    for name in pred_names:
        chunks = []
        for w in m.worlds:
            ext = sorted(m.predicates.get((name, w), ()))
            inner = "".join(" (" + " ".join(str(x) for x in t) + ")" for t in ext)
            chunks.append(f"({w}{inner})")
        lines.append(f"  (pred {name} " + " ".join(chunks) + ")")
    for fn in sorted(m.functions):
        table, default = m.functions[fn]
        entries = "".join(
            " ((" + " ".join(str(x) for x in args) + f") {val})"
            for args, val in sorted(table.items())
        )
        lines.append(f"  (fn {fn} (default {default}){entries})")
    mod_keys = sorted({(mo, p) for mo, p, _ in m.modifiers})
    for mo, p in mod_keys:
        chunks = []
        for w in m.worlds:
            ext = sorted(m.modifiers.get((mo, p, w), ()))
            inner = "".join(" (" + " ".join(str(x) for x in t) + ")" for t in ext)
            chunks.append(f"({w}{inner})")
        lines.append(f"  (mod {mo} {p} " + " ".join(chunks) + ")")
    op_names = sorted({op for op, _, _ in m.term_ops})
    for op in op_names:
        chunks = []
        for w in m.worlds:
            entries = sorted(
                (ind, tuple(sorted(ext)))
                for (o, ind, ww), ext in m.term_ops.items()
                if o == op and ww == w
            )
            inner = ""
            for ind, ext in entries:
                tuples = "".join(
                    " (" + " ".join(str(x) for x in t) + ")" for t in ext
                )
                inner += f" ({ind}{tuples})"
            chunks.append(f"({w}{inner})")
        lines.append(f"  (op {op} " + " ".join(chunks) + ")")
    for key in sorted(m.reified_sources, key=lambda k: (k[0], str(k[1]))):
        if key[1] == () and key in m.reified:
            lines.append(f"  (reify {render(m.reified_sources[key])} {m.reified[key]})")
    lines.append(")")
    return "\n".join(lines)


def parse_model(text: str) -> IntensionalModel:
    """Parse the model file format used by the eval subcommand.

    Reified entries are written with the surface term, e.g.
    ``(reify (ka city) r0)``.
    """
    p = syntax.Parser(text)
    p.expect("(")
    head = p.expect_symbol("model")
    if head.text != "model":
        p.fail("expected (model ...)", span=p.span(head))
    worlds: list = []
    acc: list = []
    domain: list = []
    reified_dom: list = []
    constants: dict = {}
    predicates: dict = {}
    functions: dict = {}
    modifiers: dict = {}
    term_ops: dict = {}
    reified: dict = {}
    reified_sources: dict = {}

    def symbols_until_close():
        out = []
        while p.peek() is not None and p.peek().kind in ("symbol", "int"):
            out.append(p.next().text)
        p.expect(")")
        return out

    def tuple_list():
        out = []
        while p.peek() is not None and p.peek().kind == "(":
            p.next()
            out.append(tuple(symbols_until_close()))
        return out

    while p.peek() is not None and p.peek().kind == "(":
        p.next()
        kind = p.expect_symbol("model section").text
        if kind == "worlds":
            worlds = symbols_until_close()
        elif kind == "acc":
            acc = tuple_list()
            p.expect(")")
        elif kind == "domain":
            domain = symbols_until_close()
        elif kind == "reified-domain":
            reified_dom = symbols_until_close()
        elif kind == "const":
            name = p.expect_symbol().text
            val = p.expect_symbol().text
            constants[name] = val
            p.expect(")")
        elif kind == "pred":
            name = p.expect_symbol().text
            while p.peek() is not None and p.peek().kind == "(":
                p.next()
                w = p.expect_symbol("world").text
                predicates[(name, w)] = frozenset(tuple_list())
                p.expect(")")
            p.expect(")")
        elif kind == "fn":
            name = p.expect_symbol().text
            table: dict = {}
            default = None
            while p.peek() is not None and p.peek().kind == "(":
                p.next()
                tok = p.peek()
                if tok.kind == "symbol" and tok.text == "default":
                    p.next()
                    default = p.expect_symbol().text
                    p.expect(")")
                else:
                    p.expect("(")
                    args = tuple(symbols_until_close())
                    val = p.expect_symbol().text
                    p.expect(")")
                    table[args] = val
            if default is None:
                p.fail(f"function {name} needs a (default ...) entry")
            functions[name] = (table, default)
            p.expect(")")
        elif kind == "mod":
            mo = p.expect_symbol().text
            base = p.expect_symbol().text
            while p.peek() is not None and p.peek().kind == "(":
                p.next()
                w = p.expect_symbol("world").text
                modifiers[(mo, base, w)] = frozenset(tuple_list())
                p.expect(")")
            p.expect(")")
        elif kind == "op":
            op = p.expect_symbol().text
            while p.peek() is not None and p.peek().kind == "(":
                p.next()
                w = p.expect_symbol("world").text
                while p.peek() is not None and p.peek().kind == "(":
                    p.next()
                    ind = p.expect_symbol().text
                    term_ops[(op, ind, w)] = frozenset(tuple_list())
                    p.expect(")")
                p.expect(")")
            p.expect(")")
        elif kind == "reify":
            term = p.term()
            ind = p.expect_symbol().text
            key = reified_key(term, {})
            reified[key] = ind
            reified_sources[key] = term
            p.expect(")")
        else:
            p.fail(f"unknown model section {kind!r}")
    p.expect(")")
    if not p.at_end():
        p.fail("trailing input after model")
    if not worlds:
        raise EnumerationError("model needs at least one world")
    if not domain:
        raise EnumerationError("model needs a nonempty domain")
    if len(set(reified.values())) != len(reified):
        raise EnumerationError(
            "reified denotation must be injective on term classes"
        )
    return IntensionalModel(
        worlds=tuple(worlds),
        accessibility=frozenset((a, b) for a, b in acc),
        domain=tuple(domain),
        constants=constants,
        predicates=predicates,
        functions=functions,
        modifiers=modifiers,
        term_ops=term_ops,
        reified=reified,
        reified_individuals=frozenset(reified_dom),
        reified_sources=reified_sources,
    )
