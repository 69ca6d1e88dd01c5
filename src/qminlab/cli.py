"""Command-line front end.

Commands: ``spectrum`` (structure + full Q-spectrum of one graph),
``family`` (construct a named family member), ``verify`` (exhaustive
extremal checks), ``scan`` (CSV sweeps: alpha, bounds, majorization).

Exit codes: 0 success/confirmed, 1 refuted, 2 usage, parse, or capacity
errors.  All tolerances are flags; graph6 is the interchange format and
plain edge lists are accepted for hand-written inputs.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import dataclass

from .bounds import compare_bounds
from .errors import QminlabError
from .families import PendantProfile, UParams, balanced_profile, build_K, build_U, build_U_std
from .graph6 import decode_graph6, encode_graph6, parse_edge_list
from .graphs import Graph, is_isomorphic, structure_report
from .search import ClassQuery, alpha, find_extremal, majorization_scan
from .spectra import DEFAULT_GROUP_TOL, _least_pair, eig_sym, q_matrix, q_min_of

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2


@dataclass(frozen=True)
class RunConfig:
    """Validated run-wide settings shared by all commands."""

    group_tol: float
    tie_tol: float
    shards: int
    output: str | None

    @staticmethod
    def from_args(args) -> "RunConfig":
        cfg = RunConfig(
            group_tol=args.group_tol,
            tie_tol=args.tie_tol,
            shards=getattr(args, "shards", 1),
            output=getattr(args, "output", None),
        )
        if min(cfg.group_tol, cfg.tie_tol) <= 0:
            raise QminlabError("tolerances must be positive")
        if cfg.shards < 1:
            raise QminlabError("shards must be >= 1")
        return cfg


def _parse_int_list(text: str) -> list[int]:
    """Accept '3', '1..4', or '3,5,7' (and mixtures separated by commas)."""
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if ".." in piece:
            lo, hi = piece.split("..")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(piece))
    return out


def _load_graph(source: str) -> Graph:
    """A path is read as an edge-list file; anything else is graph6."""
    if os.path.exists(source):
        with open(source, "r", encoding="ascii") as fh:
            return parse_edge_list(fh.read())
    return decode_graph6(source)


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _fmt_vec(x) -> str:
    return ",".join(f"{v:.10f}" for v in x)


def cmd_spectrum(args) -> int:
    cfg = RunConfig.from_args(args)
    g = _load_graph(args.input)
    rep = structure_report(g)
    spec = eig_sym(q_matrix(g))
    value, vector, mult = _least_pair(spec.eigenvalues, spec.eigenvectors, cfg.group_tol)
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
    _emit(cfg, "\n".join(lines))
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
    cfg = RunConfig.from_args(args)
    if args.kind == "U":
        if args.n is None or args.k is None or args.g is None:
            raise QminlabError("family U needs --n, --k and --g")
        if args.lengths is not None:
            lengths = tuple(_parse_int_list(args.lengths))
            l = args.l
            if l is None:
                l = args.n + args.k + 1 - args.g - sum(lengths)
            graph, lm = build_U(UParams(args.n, args.k, args.g, l, lengths))
        else:
            graph, lm = build_U_std(args.n, args.k, args.g)
    else:
        if not args.profile:
            raise QminlabError("family K needs --profile")
        graph, lm = build_K(PendantProfile(tuple(_parse_int_list(args.profile))))
    value, _, mult = q_min_of(graph, group_tol=cfg.group_tol)
    _emit(
        cfg,
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
    cfg = RunConfig.from_args(args)
    if args.theorem == "min":
        query = ClassQuery(n=args.n, k=args.k)
        expected, _ = build_U_std(args.n, args.k, 3)
        objective, containment = "min", False
    elif args.theorem == "unicyclic-min":
        if args.g is None:
            raise QminlabError("unicyclic-min needs --g")
        query = ClassQuery(n=args.n, k=args.k, unicyclic_girth=args.g)
        expected, _ = build_U_std(args.n, args.k, args.g)
        objective, containment = "min", False
    else:
        query = ClassQuery(n=args.n, k=args.k)
        expected, _ = build_K(balanced_profile(args.n, args.k))
        objective, containment = "max", True
    result = find_extremal(query, objective, cfg.tie_tol, shards=cfg.shards)
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
    _emit(cfg, "\n".join(lines))
    return EXIT_OK if confirmed else EXIT_REFUTED


def _csv_writer(cfg: RunConfig):
    if cfg.output:
        fh = open(cfg.output, "w", newline="", encoding="utf-8")
        return csv.writer(fh), fh
    return csv.writer(sys.stdout), None


def cmd_scan(args) -> int:
    cfg = RunConfig.from_args(args)
    writer, fh = _csv_writer(cfg)
    try:
        if args.what == "alpha":
            if args.n is None or args.k is None or args.g is None:
                raise QminlabError("scan alpha needs --n, --k and --g")
            writer.writerow(["n", "k", "g", "alpha"])
            for n in _parse_int_list(args.n):
                for k in _parse_int_list(args.k):
                    for g in _parse_int_list(args.g):
                        if g < 3 or g % 2 == 0 or k < 1 or n + k + 1 - g - 2 * k < 1:
                            print(
                                f"warning: skipping infeasible (n={n}, k={k}, g={g})",
                                file=sys.stderr,
                            )
                            continue
                        writer.writerow([n, k, g, f"{alpha(n, k, g):.12f}"])
        elif args.what == "bounds":
            if args.n is None:
                raise QminlabError("scan bounds needs --n")
            writer.writerow(
                ["n", "bound_cor44_general", "bound_lima_delta1", "bound_submatrix_k1", "diff"]
            )
            rows = compare_bounds(_parse_int_list(args.n))
            for row in rows:
                writer.writerow(
                    [
                        row.n,
                        f"{row.cor_pendant_general:.12f}",
                        f"{row.lima_delta1:.12f}",
                        f"{row.submatrix_k1:.12f}",
                        f"{row.diff:.12f}",
                    ]
                )
            if all(r.diff > 0 for r in rows):
                print(
                    "note: the minimum-degree (delta=1) bound is the smaller one "
                    "at every scanned order; the k-free pendant bound never wins.",
                    file=sys.stderr,
                )
        else:
            if args.len is None or args.sum is None:
                raise QminlabError("scan majorization needs --len and --sum")
            writer.writerow(["nu", "mu", "qmin_nu", "qmin_mu", "slack"])
            scan = majorization_scan(args.len, args.sum)
            for nu, mu, qn, qm, slack in scan.pairs:
                writer.writerow(
                    [
                        ",".join(str(x) for x in nu),
                        ",".join(str(x) for x in mu),
                        f"{qn:.12f}",
                        f"{qm:.12f}",
                        f"{slack:.12e}",
                    ]
                )
            if not scan.report.passed:
                return EXIT_REFUTED
    finally:
        if fh:
            fh.close()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qminlab",
        description="Least signless-Laplacian eigenvalue toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, shards=False):
        p.add_argument(
            "--group-tol", type=float, default=DEFAULT_GROUP_TOL, dest="group_tol"
        )
        p.add_argument("--tie-tol", type=float, default=1e-8, dest="tie_tol")
        p.add_argument("-o", "--output", default=None)
        if shards:
            p.add_argument("--shards", type=int, default=1)

    p_spec = sub.add_parser("spectrum", help="structure report and Q-spectrum")
    p_spec.add_argument("input", help="graph6 string or edge-list file path")
    common(p_spec)
    p_spec.set_defaults(func=cmd_spectrum)

    p_fam = sub.add_parser("family", help="construct a named family member")
    p_fam.add_argument("kind", choices=["U", "K"])
    p_fam.add_argument("--n", type=int)
    p_fam.add_argument("--k", type=int)
    p_fam.add_argument("--g", type=int)
    p_fam.add_argument("--l", type=int, default=None)
    p_fam.add_argument("--lengths", default=None, help="pendant path lengths, e.g. 2,2,3")
    p_fam.add_argument("--profile", default=None, help="pendant profile, e.g. 2,2,1,1")
    common(p_fam)
    p_fam.set_defaults(func=cmd_family)

    p_ver = sub.add_parser("verify", help="exhaustive extremal verification")
    p_ver.add_argument("theorem", choices=["min", "unicyclic-min", "max"])
    p_ver.add_argument("--n", type=int, required=True)
    p_ver.add_argument("--k", type=int, required=True)
    p_ver.add_argument("--g", type=int, default=None)
    common(p_ver, shards=True)
    p_ver.set_defaults(func=cmd_verify)

    p_scan = sub.add_parser("scan", help="CSV sweeps")
    p_scan.add_argument("what", choices=["alpha", "bounds", "majorization"])
    p_scan.add_argument("--n", default=None, help="orders, e.g. 4..50")
    p_scan.add_argument("--k", default=None, help="pendant counts, e.g. 1..4")
    p_scan.add_argument("--g", default=None, help="girths, e.g. 3,5,7")
    p_scan.add_argument("--len", type=int, default=None, help="profile length")
    p_scan.add_argument("--sum", type=int, default=None, help="profile sum")
    common(p_scan)
    p_scan.set_defaults(func=cmd_scan)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except QminlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
