"""Command-line front end.

Subcommands: invariants (bundle for one graph), product (strong/lex build),
verify (statement suite over a corpus), corpus (stream a corpus as graph6),
statements (list the catalog).  Output is deterministic JSON lines; exit code
0 on success / all-holds, 1 when some statement fails, 2 on usage or internal
errors.  Only verify, corpus and statements import the statement catalog
(``statements``), so invariants and product never compile it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from . import families, positions, products
from .errors import GenposError
from .graph6 import parse_graph6, write_graph6
from .graphs import Graph, is_connected


def _vertex_cap() -> int:
    raw = os.environ.get("GP_VERTEX_CAP")
    if raw is None:
        return products.DEFAULT_VERTEX_CAP
    try:
        cap = int(raw)
        if cap < 1:
            raise ValueError
    except ValueError:
        raise GenposError(f"GP_VERTEX_CAP must be a positive integer, got {raw!r}")
    return cap


def _parse_graph_arg(text: str) -> Graph:
    if text.startswith("family:"):
        return families.generate(families.parse_family(text[len("family:"):]))
    return parse_graph6(text)


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def cmd_invariants(args) -> int:
    g = _parse_graph_arg(args.graph)
    if not is_connected(g):
        if not args.allow_disconnected:
            raise GenposError(
                "graph is disconnected; pass --allow-disconnected for "
                "structure-level fields only"
            )
        _emit(positions.structure_bundle(g))
        return 0
    engine = "oracle" if args.oracle else "characterization"
    _emit(positions.compute_bundle(g, witnesses=args.witnesses, engine=engine))
    return 0


def cmd_product(args) -> int:
    g = _parse_graph_arg(args.g)
    h = _parse_graph_arg(args.h)
    cap = _vertex_cap()
    build = products.strong_product if args.op == "strong" else products.lexicographic_product
    p = build(g, h, cap=cap)
    sys.stdout.write(write_graph6(p.graph) + "\n")
    sys.stdout.write(f"# codec: (g,h) -> g*{p.n_h}+h, n_g={p.n_g}, n_h={p.n_h}\n")
    if args.invariants:
        if is_connected(p.graph):
            _emit(positions.compute_bundle(p.graph, witnesses=args.witnesses))
        else:
            _emit(positions.structure_bundle(p.graph))
    return 0


def cmd_verify(args) -> int:
    from . import statements

    ids = statements.parse_statement_ids(args.statements)
    corpus = statements.parse_corpus(args.corpus) if args.corpus else statements.Corpus()
    verdicts, summary = statements.run_suite(corpus, ids, jobs=args.jobs)
    for v in verdicts:
        _emit(v.to_json())
    _emit(summary)
    return 1 if summary["fails"] else 0


def cmd_corpus(args) -> int:
    from . import statements

    corpus = statements.parse_corpus(args.spec)
    if corpus.pairs:
        for a, b in corpus.pairs:
            sys.stdout.write(f"{write_graph6(a)},{write_graph6(b)}\n")
    else:
        for g in corpus.graphs:
            sys.stdout.write(write_graph6(g) + "\n")
    return 0


def cmd_statements(args) -> int:
    from . import statements

    for sid in sorted(statements.STATEMENTS, key=lambda s: int(s[1:])):
        st = statements.STATEMENTS[sid]
        _emit({
            "type": "statement",
            "id": st.sid,
            "arity": st.arity,
            "description": st.description,
        })
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genpos",
        description="Exact general position invariants of graphs and graph products.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="invariant bundle of one graph")
    p_inv.add_argument("graph", help="graph6 line or family:<spec>")
    p_inv.add_argument("--witnesses", action="store_true")
    p_inv.add_argument("--oracle", action="store_true",
                       help="force definition-level engines")
    p_inv.add_argument("--allow-disconnected", action="store_true")
    p_inv.set_defaults(func=cmd_invariants)

    p_prod = sub.add_parser("product", help="build a strong or lexicographic product")
    p_prod.add_argument("op", choices=["strong", "lex"])
    p_prod.add_argument("g", help="graph6 line or family:<spec>")
    p_prod.add_argument("h", help="graph6 line or family:<spec>")
    p_prod.add_argument("--invariants", action="store_true")
    p_prod.add_argument("--witnesses", action="store_true")
    p_prod.set_defaults(func=cmd_product)

    p_ver = sub.add_parser("verify", help="run the statement suite")
    p_ver.add_argument("--statements", default="all",
                       help="comma-separated ids, or 'all'")
    p_ver.add_argument("--corpus", default=None,
                       help="exhaustive:n | file:path | family:... | pairs:AxB")
    p_ver.add_argument("--jobs", type=int, default=1,
                       help="worker processes, at least 1")
    p_ver.set_defaults(func=cmd_verify)

    p_cor = sub.add_parser("corpus", help="stream a corpus as graph6 lines")
    p_cor.add_argument("spec")
    p_cor.set_defaults(func=cmd_corpus)

    p_st = sub.add_parser("statements", help="list the statement catalog")
    p_st.set_defaults(func=cmd_statements)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (GenposError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # an internal fault: exit 1 is reserved for a failing statement
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
