"""Command-line front end.

Every subcommand handler returns a result and a certificate; ``main``
wraps them in one report dictionary, with the subcommand as its stage
and the subcommand's input files as its inputs, and renders it either as
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
from contextlib import contextmanager
from dataclasses import asdict

from .exactmat import IntMatrix, MatrixError, parse_matrix_text
from .graph import GraphError, parse_graph_text
from .homology import cographic_dicing, cycle_basis
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


@contextmanager
def _in_file(path: str):
    """Report a bad input met inside the block as an error in ``path``."""
    try:
        yield
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror}") from exc
    except (GraphError, MatrixError, NotTotallyUnimodularError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_graph(path: str):
    with _in_file(path):
        return parse_graph_text(_read_text(path))[0]


def _load_cover(path: str):
    """A graph file's graph and the involution it must carry."""
    with _in_file(path):
        graph, involution = parse_graph_text(_read_text(path))
        if involution is None:
            raise GraphError("no involution block in graph file")
    return graph, involution


def _load_int_matrix(path: str) -> IntMatrix:
    with _in_file(path):
        return parse_matrix_text(_read_text(path))


def _load_system(path: str) -> UnimodularSystem:
    matrix = _load_int_matrix(path)
    with _in_file(path):
        try:
            return UnimodularSystem(matrix)
        except ValueError as exc:
            raise MatrixError(f"not a valid system: {exc}") from exc


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
    out = {"cographic": cert.is_cographic, "search": asdict(cert.report)}
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
# Subcommand handlers: each returns its report's result and certificate
# ---------------------------------------------------------------------------


def _cmd_cycles(args):
    graph = _load_graph(args.graph)
    tree = None
    if args.tree:
        tree = [t for t in args.tree.split(",") if t]
    cb = cycle_basis(graph, tree)
    result = {
        "betti_number": cb.rank,
        "tree_edges": sorted(cb.tree_edges),
        "basis": [{lab: x for lab, x in zip(graph.edge_labels, row) if x} for row in cb.rows],
    }
    return result, None


def _cmd_jacobian_dice(args):
    graph = _load_graph(args.graph)
    with _in_file(args.graph):
        detail = cographic_dicing(graph)
    tu = is_totally_unimodular(detail.system)
    result = {
        "dimension": detail.system.dim,
        "columns": detail.system.size,
        "system": _matrix_json(detail.system.matrix),
        "column_edges": [list(g) for g in detail.column_edges],
        "dropped_edges": list(detail.dropped_edges),
    }
    return result, _tu_json(tu)


def _cmd_prym_dice(args):
    graph, involution = _load_cover(args.graph)
    with _in_file(args.graph):
        dicing = prym_dicing(graph, involution)
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
    return result, None


def _cmd_vologodsky(args):
    res = vologodsky_check(*_load_cover(args.graph))
    return {"passed": res.passed}, _witness_json(res.witness)


def _cmd_check_tu(args):
    cert = is_totally_unimodular(_load_int_matrix(args.matrix))
    return {"totally_unimodular": cert.is_tu}, _tu_json(cert)


def _cmd_check_cographic(args):
    system = _load_system(args.matrix)
    if args.verbose:
        print(
            f"note: searching multigraphs with {system.size} edges and "
            f"incidence rank {system.dim}",
            file=sys.stderr,
        )
    with _in_file(args.matrix):
        cert = is_cographic(system, max_graphs=args.max_graphs)
    return {"cographic": cert.is_cographic}, _cographic_json(cert)


def _cmd_equiv(args):
    sa = _load_system(args.matrix_a)
    sb = _load_system(args.matrix_b)
    try:
        eq = systems_equivalent(sa, sb)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    verified = eq is not None and verify_equivalence(sa, sb, eq)
    return {"equivalent": eq is not None, "verified": verified}, _equivalence_json(eq)


def _cmd_segre(args):
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
        "vologodsky_passed": report.dicing.family_independent,
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
    return result, certificate


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

    def command(name: str, handler, help: str, *inputs: str) -> argparse.ArgumentParser:
        """A subcommand whose positional arguments ``inputs`` name its input files."""
        p = sub.add_parser(name, help=help, parents=[after])
        for arg in inputs:
            p.add_argument(arg)
        p.set_defaults(handler=handler, inputs=inputs)
        return p

    p = command("cycles", _cmd_cycles, "fundamental cycle basis of a graph", "graph")
    p.add_argument("--tree", help="comma-separated spanning forest edge labels")
    command("jacobian-dice", _cmd_jacobian_dice, "cycle-space dicing system of a graph", "graph")
    command("prym-dice", _cmd_prym_dice, "anti-invariant dicing of a cover with involution", "graph")
    command("vologodsky", _cmd_vologodsky, "family-independence criterion for a cover", "graph")
    command("check-tu", _cmd_check_tu, "total unimodularity of a matrix", "matrix")
    p = command("check-cographic", _cmd_check_cographic,
                "cographic recognition with certificate", "matrix")
    p.add_argument("--max-graphs", type=_graph_cap, default=None)
    command("equiv", _cmd_equiv, "lattice equivalence of two systems", "matrix_a", "matrix_b")
    p = command("segre", _cmd_segre, "full pentagon double cover pipeline")
    p.add_argument("--max-graphs", type=_graph_cap, default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result, certificate = args.handler(args)
    except (InputError, GraphError, MatrixError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SearchCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    # segre has no input file: it reads the fixture that ships with the package
    inputs = {name: getattr(args, name) for name in args.inputs} or {"fixture": "builtin"}
    report = {"stage": args.command, "inputs": inputs, "result": result, "certificate": certificate}
    _emit(report, args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
