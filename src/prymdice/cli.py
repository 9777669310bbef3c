"""Command-line front end.

Every subcommand builds one report dictionary and renders it either as
JSON (``--json``) or as an indented human-readable listing of the same
data.  Mathematical verdicts, positive or negative, exit 0; only
operational failures are nonzero:

* 1 -- bad input (file not found, parse error, invariant violation)
* 2 -- usage error (argparse)
* 3 -- cographic search cap exceeded
"""

from __future__ import annotations

import argparse
import json
import sys

from .exactmat import IntMatrix, MatrixError, parse_matrix_text
from .graph import GraphError, parse_graph_text
from .homology import betti_number, cographic_dicing, cycle_basis
from .prym import prym_dicing, vologodsky_check
from .segre import degeneration_report, fixture, validate_basis_data
from .unimod import (
    NotTotallyUnimodularError,
    SearchCapExceeded,
    UnimodularSystem,
    is_cographic,
    is_totally_unimodular,
    systems_equivalent,
    verify_equivalence,
)


class InputError(Exception):
    pass


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror}") from exc


def _load_graph(path: str):
    try:
        return parse_graph_text(_read_text(path))
    except GraphError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _load_int_matrix(path: str) -> IntMatrix:
    try:
        return parse_matrix_text(_read_text(path))
    except MatrixError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _matrix_json(M: IntMatrix) -> dict:
    return {"rows": M.rows, "cols": M.cols, "entries": M.row_list()}


def _half_matrix_json(doubled: IntMatrix) -> dict:
    """The half-integer matrix held as ``doubled``: denominator 1 and the
    halved entries when every doubled entry is even, else denominator 2."""
    den = 1 if all(x % 2 == 0 for x in doubled.entries) else 2
    return {
        "rows": doubled.rows,
        "cols": doubled.cols,
        "denominator": den,
        "entries": [[x * den // 2 for x in row] for row in doubled.row_list()],
    }


def _vector_json(v) -> dict:
    out = {}
    for lab, c in zip(v.graph.edge_labels, v.coefficients):
        if c != 0:
            out[lab] = str(c) if c.denominator != 1 else int(c)
    return out


def _witness_json(witness) -> dict | None:
    if witness is None:
        return None
    return {
        "subgraph_0": sorted(witness.subgraph_0),
        "subgraph_1": sorted(witness.subgraph_1),
        "connecting_edges": list(witness.connecting_edges),
    }


def _tu_json(cert) -> dict:
    out = {"totally_unimodular": cert.is_tu}
    if cert.violating_minor is not None:
        rows, cols, value = cert.violating_minor
        out["violating_minor"] = {
            "rows": list(rows),
            "cols": list(cols),
            "determinant": value,
        }
    return out


def _cographic_json(cert) -> dict:
    out = {
        "cographic": cert.is_cographic,
        "search": {
            "graphs_tried": cert.report.graphs_tried,
            "connected_tried": cert.report.connected_tried,
            "disconnected_tried": cert.report.disconnected_tried,
            "forest_count_matches": cert.report.forest_count_matches,
            "edge_count": cert.report.edge_count,
            "incidence_rank": cert.report.incidence_rank,
            "cap": cert.report.cap,
        },
    }
    if cert.witness is not None:
        out["witness_graph"] = {
            "vertices": list(cert.witness.vertices),
            "edges": [list(e) for e in cert.witness.edges],
        }
        out["column_to_edge"] = list(cert.column_to_edge)
    return out


def _equivalence_json(eq) -> dict | None:
    if eq is None:
        return None
    return {
        "U": _matrix_json(eq.U),
        "column_map": [{"column": j, "target": t, "sign": s} for j, (t, s) in enumerate(eq.column_map)],
    }


def _render_human(value, indent: int = 0) -> list:
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for key in value:
            inner = value[key]
            if isinstance(inner, (dict, list)) and inner and not _is_flat_list(inner):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_human(inner, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_flat(inner)}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)) and item and not _is_flat_list(item):
                lines.append(f"{pad}-")
                lines.extend(_render_human(item, indent + 1))
            else:
                lines.append(f"{pad}- {_flat(item)}")
    else:
        lines.append(f"{pad}{_flat(value)}")
    return lines


def _is_flat_list(value) -> bool:
    return isinstance(value, list) and all(
        not isinstance(x, (dict, list)) for x in value
    )


def _flat(value) -> str:
    if isinstance(value, list):
        return "[" + " ".join(_flat(x) for x in value) + "]"
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print("\n".join(_render_human(report)))


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns its report dict
# ---------------------------------------------------------------------------


def _cmd_cycles(args) -> dict:
    graph, _ = _load_graph(args.graph)
    tree = None
    if args.tree:
        tree = [t for t in args.tree.split(",") if t]
    cb = cycle_basis(graph, tree)
    result = {
        "betti_number": betti_number(graph),
        "tree_edges": sorted(cb.tree_edges),
        "basis": [_vector_json(v) for v in cb.basis],
    }
    return {
        "stage": "cycles",
        "inputs": {"graph": args.graph},
        "result": result,
        "certificate": None,
    }


def _cmd_jacobian_dice(args) -> dict:
    graph, _ = _load_graph(args.graph)
    try:
        detail = cographic_dicing(graph)
    except GraphError as exc:
        raise InputError(f"{args.graph}: {exc}") from exc
    tu = is_totally_unimodular(detail.system)
    result = {
        "dimension": detail.system.dim,
        "columns": detail.system.size,
        "system": _matrix_json(detail.system.matrix),
        "column_edges": [list(g) for g in detail.column_edges],
        "dropped_edges": list(detail.dropped_edges),
    }
    return {
        "stage": "jacobian-dice",
        "inputs": {"graph": args.graph},
        "result": result,
        "certificate": _tu_json(tu),
    }


def _cmd_prym_dice(args) -> dict:
    graph, involution = _load_graph(args.graph)
    if involution is None:
        raise InputError(f"{args.graph}: no involution block in graph file")
    try:
        dicing = prym_dicing(graph, involution)
    except GraphError as exc:
        raise InputError(f"{args.graph}: {exc}") from exc
    result = {
        "lattice_rank": dicing.lattice.rank,
        "lattice_basis": _half_matrix_json(dicing.lattice.doubled),
        "multipliers": dicing.multipliers.as_dict(),
        "system": _matrix_json(dicing.system.matrix),
        "column_edges": [list(g) for g in dicing.column_edges],
        "dropped_edges": list(dicing.dropped_edges),
        "family_independent": dicing.family_independent,
        "vologodsky_witness": _witness_json(dicing.vologodsky_witness),
    }
    return {
        "stage": "prym-dice",
        "inputs": {"graph": args.graph},
        "result": result,
        "certificate": None,
    }


def _cmd_vologodsky(args) -> dict:
    graph, involution = _load_graph(args.graph)
    if involution is None:
        raise InputError(f"{args.graph}: no involution block in graph file")
    res = vologodsky_check(graph, involution)
    return {
        "stage": "vologodsky",
        "inputs": {"graph": args.graph},
        "result": {"passed": res.passed},
        "certificate": _witness_json(res.witness),
    }


def _cmd_check_tu(args) -> dict:
    matrix = _load_int_matrix(args.matrix)
    cert = is_totally_unimodular(matrix)
    return {
        "stage": "check-tu",
        "inputs": {"matrix": args.matrix},
        "result": {"totally_unimodular": cert.is_tu},
        "certificate": _tu_json(cert),
    }


def _cmd_check_cographic(args) -> dict:
    matrix = _load_int_matrix(args.matrix)
    try:
        system = UnimodularSystem(matrix)
    except ValueError as exc:
        raise InputError(f"{args.matrix}: not a valid system: {exc}") from exc
    if args.verbose:
        print(
            f"note: searching multigraphs with {system.size} edges and "
            f"incidence rank {system.dim}",
            file=sys.stderr,
        )
    try:
        cert = is_cographic(system, max_graphs=args.max_graphs)
    except NotTotallyUnimodularError as exc:
        raise InputError(f"{args.matrix}: {exc}") from exc
    return {
        "stage": "check-cographic",
        "inputs": {"matrix": args.matrix},
        "result": {"cographic": cert.is_cographic},
        "certificate": _cographic_json(cert),
    }


def _cmd_equiv(args) -> dict:
    ma = _load_int_matrix(args.matrix_a)
    mb = _load_int_matrix(args.matrix_b)
    try:
        sa = UnimodularSystem(ma)
        sb = UnimodularSystem(mb)
    except ValueError as exc:
        raise InputError(f"invalid system: {exc}") from exc
    try:
        eq = systems_equivalent(sa, sb)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    verified = eq is not None and verify_equivalence(sa, sb, eq)
    return {
        "stage": "equiv",
        "inputs": {"matrix_a": args.matrix_a, "matrix_b": args.matrix_b},
        "result": {"equivalent": eq is not None, "verified": verified},
        "certificate": _equivalence_json(eq),
    }


def _cmd_segre(args) -> dict:
    f = fixture()
    basis_report = validate_basis_data(f)
    if args.verbose:
        print("note: running the exhaustive cographic search", file=sys.stderr)
    report = degeneration_report(f, max_graphs=args.max_graphs)
    result = {
        "cover": {"vertices": f.cover.num_vertices, "edges": f.cover.num_edges},
        "basis_validation": {
            "all_cycles": basis_report.all_cycles,
            "homology_rank": basis_report.homology_rank,
            "projection_identities": list(basis_report.projection_identities),
            "lattice_matches": basis_report.lattice_matches,
        },
        "vologodsky_passed": report.vologodsky_passed,
        "torus_rank": report.torus_rank,
        "multipliers": report.dicing.multipliers.as_dict(),
        "system": _matrix_json(report.dicing.system.matrix),
        "equivalent_to_reference": report.equivalence is not None,
        "equivalence_verified": report.equivalence_verified,
        "conclusion": report.conclusion,
    }
    certificate = {
        "equivalence": _equivalence_json(report.equivalence),
        "reference_cographic": _cographic_json(report.e5_cographic),
    }
    return {
        "stage": "segre",
        "inputs": {"fixture": "builtin"},
        "result": result,
        "certificate": certificate,
    }


def _global_flags(default) -> argparse.ArgumentParser:
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--json", action="store_true", default=default,
                       help="emit JSON instead of text")
    flags.add_argument("--verbose", action="store_true", default=default,
                       help="progress notes on stderr")
    return flags


def _graph_cap(text: str) -> int:
    """A ``--max-graphs`` value: a count, so 0 or more."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prymdice",
        description="Degeneration data of Jacobians and Pryms from dual graphs",
        parents=[_global_flags(False)],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the global flags are also accepted after the subcommand; there they
    # default to unset, so a flag given before the subcommand is kept
    after = _global_flags(argparse.SUPPRESS)

    def command(name: str, help: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help, parents=[after])

    p = command("cycles", help="fundamental cycle basis of a graph")
    p.add_argument("graph")
    p.add_argument("--tree", help="comma-separated spanning forest edge labels")
    p.set_defaults(handler=_cmd_cycles)

    p = command("jacobian-dice", help="cycle-space dicing system of a graph")
    p.add_argument("graph")
    p.set_defaults(handler=_cmd_jacobian_dice)

    p = command("prym-dice", help="anti-invariant dicing of a cover with involution")
    p.add_argument("graph")
    p.set_defaults(handler=_cmd_prym_dice)

    p = command("vologodsky", help="family-independence criterion for a cover")
    p.add_argument("graph")
    p.set_defaults(handler=_cmd_vologodsky)

    p = command("check-tu", help="total unimodularity of a matrix")
    p.add_argument("matrix")
    p.set_defaults(handler=_cmd_check_tu)

    p = command("check-cographic", help="cographic recognition with certificate")
    p.add_argument("matrix")
    p.add_argument("--max-graphs", type=_graph_cap, default=None)
    p.set_defaults(handler=_cmd_check_cographic)

    p = command("equiv", help="lattice equivalence of two systems")
    p.add_argument("matrix_a")
    p.add_argument("matrix_b")
    p.set_defaults(handler=_cmd_equiv)

    p = command("segre", help="full pentagon double cover pipeline")
    p.add_argument("--max-graphs", type=_graph_cap, default=None)
    p.set_defaults(handler=_cmd_segre)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.handler(args)
    except (InputError, GraphError, MatrixError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SearchCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    _emit(report, args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
