"""Command-line front end.

Commands: ``spectrum`` (structure + full Q-spectrum of one graph),
``family`` (construct a named family member), ``verify`` (exhaustive
extremal checks), ``scan`` (CSV sweeps: alpha, bounds, majorization).

Each mode of ``family``, ``scan`` and ``verify`` has its own parser that
declares only the flags the mode reads, so argparse refuses an unread or
missing flag as a usage error.  The one tolerance flag is ``verify``'s
``--tie-tol``; the multiplicity window is the library's fixed one.

Exit codes: 0 success/confirmed, 1 refuted, 2 usage, parse, or capacity
errors.  graph6 is the interchange format and plain edge lists are accepted
for hand-written inputs.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import os
import sys

from .bounds import compare_bounds
from .errors import QminlabError
from .families import PendantProfile, UParams, balanced_profile, build_K, build_U, build_U_std
from .graph6 import decode_graph6, encode_graph6, parse_edge_list
from .graphs import Graph, is_isomorphic, structure_report
from .patterns import alpha, majorization_scan
from .search import DEFAULT_TIE_TOL, ClassQuery, find_extremal
from .spectra import _least_pair, eig_sym, q_matrix, q_min_of

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2


def _parse_int_list(text: str) -> list[int]:
    """Accept '3', '1..4', or '3,5,7' (and mixtures separated by commas); a
    range must not run downwards."""
    out = []
    for piece in text.split(","):
        try:
            ends = [int(end) for end in piece.split("..")]
        except ValueError:
            ends = []
        if not 1 <= len(ends) <= 2 or ends[0] > ends[-1]:
            raise QminlabError(
                f"malformed integer list {text!r}: expected e.g. 3, 1..4 or 3,5,7"
            )
        out.extend(range(ends[0], ends[-1] + 1))
    return out


def _load_graph(source: str) -> Graph:
    """A path is read as an edge-list file; anything else is graph6."""
    if os.path.exists(source):
        with open(source, "r", encoding="ascii") as fh:
            return parse_edge_list(fh.read())
    return decode_graph6(source)


def _emit(output: str | None, text: str) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _fmt_vec(x) -> str:
    return ",".join(f"{v:.10f}" for v in x)


def cmd_spectrum(args) -> int:
    g = _load_graph(args.input)
    rep = structure_report(g)
    spec = eig_sym(q_matrix(g))
    value, vector, mult = _least_pair(spec.eigenvalues, spec.eigenvectors)
    lines = [
        f"order: {g.n}",
        f"edges: {g.edge_count}",
        f"connected: {str(rep.connected).lower()}",
        f"bipartite: {str(rep.bipartite is not None).lower()}",
        f"girth: {rep.girth if rep.girth is not None else 'none'}",
        f"odd_girth: {rep.odd_girth if rep.odd_girth is not None else 'none'}",
        f"pendant_count: {rep.pendant_count}",
        f"min_degree: {rep.min_degree}",
        "degrees: " + ",".join(str(d) for d in rep.degrees),
        "spectrum: " + _fmt_vec(spec.eigenvalues),
        f"q_min: {value:.10f}",
        f"multiplicity: {mult}",
        "eigenvector: " + _fmt_vec(vector),
        f"residual_bound: {spec.residual_bound:.3e}",
    ]
    _emit(args.output, "\n".join(lines))
    return EXIT_OK


def _format_landmarks(lm) -> str:
    if hasattr(lm, "cycle"):
        paths = ";".join(",".join(str(v) for v in p) for p in lm.pendant_paths)
        return (
            f"cycle: {','.join(str(v) for v in lm.cycle)}\n"
            f"stem: {','.join(str(v) for v in lm.stem)}\n"
            f"anchor: {lm.anchor}\n"
            f"pendant_paths: {paths}"
        )
    pend = ";".join(",".join(str(v) for v in p) for p in lm.pendants_of)
    return (
        f"clique: {','.join(str(v) for v in lm.clique)}\n"
        f"pendants_of: {pend}"
    )


def cmd_family(args) -> int:
    if args.kind == "U":
        if args.lengths is None:
            lengths = (2,) * args.k
        else:
            lengths = tuple(_parse_int_list(args.lengths))
        l = args.n + args.k + 1 - args.g - sum(lengths) if args.l is None else args.l
        graph, lm = build_U(UParams(args.n, args.k, args.g, l, lengths))
    else:
        graph, lm = build_K(PendantProfile(tuple(_parse_int_list(args.profile))))
    value, _, mult = q_min_of(graph)
    _emit(
        args.output,
        "\n".join(
            [
                f"graph6: {encode_graph6(graph).decode('ascii')}",
                _format_landmarks(lm),
                f"q_min: {value:.10f}",
                f"multiplicity: {mult}",
            ]
        ),
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.theorem == "min":
        query = ClassQuery(n=args.n, k=args.k)
        expected, _ = build_U_std(args.n, args.k, 3)
        objective, containment = "min", False
    elif args.theorem == "unicyclic-min":
        query = ClassQuery(n=args.n, k=args.k, unicyclic_girth=args.g)
        expected, _ = build_U_std(args.n, args.k, args.g)
        objective, containment = "min", False
    else:
        query = ClassQuery(n=args.n, k=args.k)
        expected, _ = build_K(balanced_profile(args.n, args.k))
        objective, containment = "max", True
    result = find_extremal(query, objective, args.tie_tol)
    matches = [w for w in result.witnesses if is_isomorphic(w, expected)]
    if containment:
        confirmed = bool(matches)
    else:
        confirmed = bool(matches) and len(result.witnesses) == 1
    lines = [
        f"graphs_examined: {result.graphs_examined}",
        f"extremal_value: {result.extremal_value:.10f}",
        "witnesses: "
        + " ".join(encode_graph6(w).decode("ascii") for w in result.witnesses),
        f"expected: {encode_graph6(expected).decode('ascii')}",
        f"confirmed: {str(confirmed).lower()}",
    ]
    _emit(args.output, "\n".join(lines))
    return EXIT_OK if confirmed else EXIT_REFUTED


def _alpha_table(args) -> tuple[list, list, int]:
    grid = [_parse_int_list(text) for text in (args.n, args.k, args.g)]
    rows = []
    for n, k, g in itertools.product(*grid):
        if g < 3 or g % 2 == 0 or k < 1 or n + k + 1 - g - 2 * k < 1:
            print(
                f"warning: skipping infeasible (n={n}, k={k}, g={g})",
                file=sys.stderr,
            )
            continue
        rows.append([n, k, g, f"{alpha(n, k, g):.12f}"])
    return ["n", "k", "g", "alpha"], rows, EXIT_OK


def _bounds_table(args) -> tuple[list, list, int]:
    bounds = compare_bounds(_parse_int_list(args.n))
    if all(r.diff > 0 for r in bounds):
        print(
            "note: the minimum-degree (delta=1) bound is the smaller one "
            "at every scanned order; the k-free pendant bound never wins.",
            file=sys.stderr,
        )
    header = ["n", "bound_cor44_general", "bound_lima_delta1", "bound_submatrix_k1", "diff"]
    rows = [
        [
            r.n,
            f"{r.cor_pendant_general:.12f}",
            f"{r.lima_delta1:.12f}",
            f"{r.submatrix_k1:.12f}",
            f"{r.diff:.12f}",
        ]
        for r in bounds
    ]
    return header, rows, EXIT_OK


def _majorization_table(args) -> tuple[list, list, int]:
    scan = majorization_scan(args.len, args.sum)
    rows = [
        [
            ",".join(str(x) for x in nu),
            ",".join(str(x) for x in mu),
            f"{qn:.12f}",
            f"{qm:.12f}",
            f"{slack:.12e}",
        ]
        for nu, mu, qn, qm, slack in scan.pairs
    ]
    header = ["nu", "mu", "qmin_nu", "qmin_mu", "slack"]
    return header, rows, EXIT_OK if scan.report.passed else EXIT_REFUTED


def cmd_scan(args) -> int:
    """Write the mode's table as CSV.  The header, rows and exit code are all
    computed before any output, so a refused scan writes nothing."""
    header, rows, code = args.table(args)
    if args.output:
        with open(args.output, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header, *rows])
    else:
        csv.writer(sys.stdout).writerows([header, *rows])
    return code


def build_parser() -> argparse.ArgumentParser:
    # Abbreviations are off throughout, so a flag that a mode does not read
    # is never taken for a prefix of one it does.
    parser = argparse.ArgumentParser(
        prog="qminlab",
        description="Least signless-Laplacian eigenvalue toolkit",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    output.add_argument("-o", "--output", default=None)
    tie = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    tie.add_argument("--tie-tol", type=float, default=DEFAULT_TIE_TOL, dest="tie_tol")

    def modes(name, help, dest):
        return sub.add_parser(name, help=help, allow_abbrev=False).add_subparsers(
            dest=dest, required=True
        )

    def leaf(group, name, parents=(), help=None, **defaults):
        p = group.add_parser(name, parents=[output, *parents], help=help, allow_abbrev=False)
        p.set_defaults(**defaults)
        return p

    p_spec = leaf(sub, "spectrum", help="structure report and Q-spectrum", func=cmd_spectrum)
    p_spec.add_argument("input", help="graph6 string or edge-list file path")

    family = modes("family", "construct a named family member", "kind")
    p_u = leaf(family, "U", func=cmd_family)
    for flag in ("--n", "--k", "--g"):
        p_u.add_argument(flag, type=int, required=True)
    p_u.add_argument("--lengths", help="pendant path lengths, e.g. 2,2,3 (default: 2 each)")
    p_u.add_argument("--l", type=int, help="stem length (default: what the lengths leave)")
    p_k = leaf(family, "K", func=cmd_family)
    p_k.add_argument("--profile", required=True, help="pendant profile, e.g. 2,2,1,1")

    verify = modes("verify", "exhaustive extremal verification", "theorem")
    for theorem in ("min", "unicyclic-min", "max"):
        p_ver = leaf(verify, theorem, parents=[tie], func=cmd_verify)
        p_ver.add_argument("--n", type=int, required=True)
        p_ver.add_argument("--k", type=int, required=True)
        if theorem == "unicyclic-min":
            p_ver.add_argument("--g", type=int, required=True)

    scan = modes("scan", "CSV sweeps", "what")
    p_alpha = leaf(scan, "alpha", func=cmd_scan, table=_alpha_table)
    p_alpha.add_argument("--n", required=True, help="orders, e.g. 15")
    p_alpha.add_argument("--k", required=True, help="pendant counts, e.g. 1..4")
    p_alpha.add_argument("--g", required=True, help="girths, e.g. 3,5,7")
    p_bounds = leaf(scan, "bounds", func=cmd_scan, table=_bounds_table)
    p_bounds.add_argument("--n", required=True, help="orders, e.g. 4..50")
    p_maj = leaf(scan, "majorization", func=cmd_scan, table=_majorization_table)
    p_maj.add_argument("--len", type=int, required=True, help="profile length")
    p_maj.add_argument("--sum", type=int, required=True, help="profile sum")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (QminlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
