"""Command-line interface.

Graphs come in as graph6 lines or as JSON edge-list objects
{"n": ..., "edges": [[u, v], ...]}, one per line, from a file or stdin.
All subcommands write JSON lines to stdout, except `verify`, which prints
a TSV summary and exits 1 when a theorem suite reports violations, and 3
when a graph is past a budget of the Betti kernel.  The others compute
every record before printing one; a bad input or flag is a usage error
(exit 2), and so is a graph past a budget, which the message names.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterator

from . import evenconn, homology, invariants, suites
from .graphs import Graph, emit_graph6, from_json_dict, parse_graph6
from .monomials import (colon_by_monomial, edge_ideal, pack_capped, parse_monomial, polarize,
                        power, symbolic_square)


def _parse_graphs(path: str) -> Iterator[Graph]:
    fh = sys.stdin if path == "-" else open(path, encoding="utf-8")
    try:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("{"):
                yield from_json_dict(json.loads(line))
            else:
                yield parse_graph6(line)
    finally:
        if fh is not sys.stdin:
            fh.close()


def _read_graphs(args, path: str, flag: str = "") -> tuple[Graph, ...]:
    """Every graph of the file (or stdin for "-"), read before any output;
    a missing file or a line that does not parse is a usage error (exit 2)."""
    try:
        return tuple(_parse_graphs(path))
    except (OSError, ValueError, KeyError, TypeError) as exc:  # missing file, bad line
        args.usage_error(f"{flag}{path}: {exc}")


def _parse_edges(text: str) -> tuple[tuple[int, int], ...]:
    """Edge multiset syntax: "0-1,1-2,1-2" (repetition = multiplicity), as
    the sorted tuple of its edges (u, v), u < v."""
    if not text.strip():
        raise ValueError("no edge given")
    out = []
    for tok in text.split(","):
        a, _, b = tok.strip().partition("-")
        if not (a.isdecimal() and b.isdecimal()):
            raise ValueError(f"bad edge {tok.strip()!r}, expected u-v")
        out.append(tuple(sorted((int(a), int(b)))))
    if any(u == v for u, v in out):
        raise ValueError("loop edge in multiset")
    return tuple(sorted(out))


def _cmd_invariants(args) -> int:
    records = []  # every record is computed before anything is printed
    for g in _read_graphs(args, args.input):
        try:
            records.append({"graph6": emit_graph6(g), "n": g.n, **invariants.invariant_record(g)})
        except homology.BudgetError as exc:
            args.usage_error(f"{exc} (graph {emit_graph6(g)})")
    for record in records:
        print(json.dumps(record))
    return 0


def _power(args, i, g):
    """i^s for s = --power; an exponent above the lane maximum is a usage error."""
    try:
        return power(i, args.power)
    except ValueError as exc:
        args.usage_error(f"--power {args.power}: {exc} (graph {emit_graph6(g)})")


def _cmd_ideal(args) -> int:
    graphs = _read_graphs(args, args.input)
    try:
        m = parse_monomial(args.colon) if args.colon else None
    except ValueError as exc:
        args.usage_error(f"--colon {args.colon}: {exc}")
    records = []  # every record is computed before anything is printed
    for g in graphs:
        i = _power(args, symbolic_square(g) if args.symbolic_square else edge_ideal(g), g)
        if m is not None:
            outside = sorted(set(m).difference(i.vars))
            if outside:
                args.usage_error(f"--colon {args.colon}: variable {outside[0]} is not in the "
                                 f"ideal's universe (graph {emit_graph6(g)})")
            try:
                i = colon_by_monomial(i, pack_capped(m, i.vars))
            except ValueError as exc:  # m lies in the ideal: the colon is the unit ideal
                args.usage_error(f"--colon {args.colon}: {exc} (graph {emit_graph6(g)})")
        if args.polarize:
            i = polarize(i)
        records.append(i.to_json_dict())
    for record in records:
        print(json.dumps(record))
    return 0


def _cmd_reg(args) -> int:
    try:
        field = homology.FieldSpec(args.char)
    except ValueError as exc:
        args.usage_error(str(exc))
    # every power is built and checked before the first record is printed
    powers = [(g, _power(args, edge_ideal(g), g)) for g in _read_graphs(args, args.input)]
    for g, i in powers:
        if i.is_zero:
            args.usage_error(f"the zero ideal has no Betti table (graph {emit_graph6(g)})")
        if args.oracle:
            try:
                homology.hochster_supports(i)
            except homology.BudgetError as exc:
                args.usage_error(f"--oracle: {exc} (graph {emit_graph6(g)})")
    records = []  # every table is computed before the first record is printed
    for g, i in powers:
        try:
            table = homology.graded_betti(i, field)
        except homology.BudgetError as exc:
            args.usage_error(f"--power {args.power}: {exc} (graph {emit_graph6(g)})")
        out = {**table.to_json_dict(), "graph6": emit_graph6(g), "power": args.power}
        if args.oracle:
            other = homology.hochster_oracle(i, field)
            out["oracle_agrees"] = other == table
            if other != table:
                out["oracle_betti"] = other.to_json_dict()["betti"]
        records.append(out)
    for out in records:
        print(json.dumps(out))
    return 0


def _cmd_colon_graph(args) -> int:
    graphs = _read_graphs(args, args.input)
    try:  # the multiset must parse and lie in every graph before anything is printed
        m = _parse_edges(args.edges)
        for g in graphs:
            evenconn.check_multiset(g, m)
    except ValueError as exc:  # includes GraphError
        args.usage_error(f"--edges {args.edges}: {exc}")
    for g in graphs:
        gp, names = evenconn.colon_graph(g, evenconn.even_connection_lengths(g, m))
        print(json.dumps({
            "graph6": emit_graph6(gp),
            "labels": list(names),
            "new_pairs": [
                {"u": u, "v": v, "path": list(path),
                 "assignments": [[pos, list(e)] for pos, e in assignments]}
                for u, v, path, assignments in evenconn.even_connected_pairs(g, m)
                if u == v or not g.has_edge(u, v)
            ],
        }))
    return 0


def _cmd_verify(args) -> int:
    names = suites.THEOREM_SUITES if args.suite == "all" else (args.suite,)
    graphs = None
    if args.graphs is not None:
        graphs = _read_graphs(args, args.graphs, "--graphs ")
        if not graphs:
            args.usage_error(f"--graphs {args.graphs}: no graph")
    try:
        spec = suites.SuiteSpec(names, n_max=args.n, s_max=args.s,
                                field=homology.FieldSpec(args.char), graphs=graphs,
                                jobs=args.jobs)
    except ValueError as exc:  # FieldSpec or SuiteSpec rejects the flags
        args.usage_error(str(exc))
    probed = False  # whether the writability probe made --out
    if args.out:
        try:  # an unwritable --out fails before the sweep, leaving any old report intact
            probed = not os.path.exists(args.out)
            open(args.out, "a", encoding="utf-8").close()
        except OSError as exc:
            args.usage_error(f"--out {args.out}: {exc}")
    reports = None
    try:
        reports, code = suites.run(spec)
    except homology.BudgetError as exc:  # no report or cache is written
        print(f"edgereg verify: error: {exc}", file=sys.stderr)
        return 3
    finally:  # a sweep that ends early leaves no empty --out behind
        if probed and reports is None:
            os.remove(args.out)
    print("suite\tgraphs\tviolations\twall_time\tpass")
    for r in reports:
        print(f"{r['suite']}\t{r['graphs_tested']}\t{r['violations_total']}"
              f"\t{r['wall_time']:.2f}\t{'yes' if r['pass'] else 'NO'}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(reports, fh, indent=2)
    return code


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgereg",
        description="Exact edge-ideal computations and theorem verification "
                    "over small graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="print one invariant record per input graph")
    p.add_argument("input", nargs="?", default="-", help="graph6/JSON lines file, or - for stdin")
    p.set_defaults(fn=_cmd_invariants, usage_error=p.error)

    p = sub.add_parser("ideal", help="edge-ideal pipelines: power, colon, polarize, symbolic square")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--power", type=_positive_int, default=1, metavar="S")
    p.add_argument("--colon", metavar="MONOMIAL", help='e.g. "x0*x1"')
    p.add_argument("--polarize", action="store_true")
    p.add_argument("--symbolic-square", action="store_true",
                   help="start from the symbolic square instead of I(G)")
    p.set_defaults(fn=_cmd_ideal, usage_error=p.error)

    p = sub.add_parser("reg", help="graded Betti table and regularity of I(G)^s")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--power", type=_positive_int, default=1, metavar="S")
    p.add_argument("--char", type=int, default=2,
                   help="field characteristic (0 or a prime below 2^31)")
    p.add_argument("--oracle", action="store_true",
                   help="also run the independent oracle and compare")
    p.set_defaults(fn=_cmd_reg, usage_error=p.error)

    p = sub.add_parser("colon-graph",
                       help="graph of (I^{s+1} : e_1...e_s) with certificates")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--edges", required=True, metavar="SPEC",
                   help='edge multiset, e.g. "0-1,1-2,1-2"')
    p.set_defaults(fn=_cmd_colon_graph, usage_error=p.error)

    p = sub.add_parser("verify", help="run theorem-verification suites")
    p.add_argument("--suite", default="all",
                   help="suite id or 'all' (conjecture suites must be named explicitly); "
                        f"ids: {', '.join(suites.THEOREM_SUITES + suites.CONJECTURE_SUITES)}")
    p.add_argument("--n", type=int, default=6, help="enumerate graphs up to this size")
    p.add_argument("--s", type=int, default=2, help="largest power to test")
    p.add_argument("--char", type=int, default=2)
    p.add_argument("--graphs", help="graph6/JSON lines file (or - for stdin) to sweep "
                                    "instead of enumerating")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", help="write the full JSON reports here")
    p.set_defaults(fn=_cmd_verify, usage_error=p.error)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
