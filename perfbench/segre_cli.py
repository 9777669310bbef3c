"""The flagship workload: ``python -m prymdice --json segre``.

Each item of a timed run is one fresh CLI process.  The traced run makes
the same public calls as the CLI's segre handler (fixture, basis
validation, degeneration report) in a fresh worker instead, because the
tracer cannot reach into a child process.  Both are checked against the
mathematical facts of the pentagon double cover, not against a stored
output, and the witness is multiplied out by ``checks``.
"""

from __future__ import annotations

import json

import checks

COMMAND = ("-m", "prymdice", "--json", "segre")
CONCLUSION = "non-cographic dicing obtained"


def check_report(doc: dict) -> str | None:
    """Facts of the segre report, in the CLI's JSON layout."""
    result, cert = doc["result"], doc["certificate"]
    basis = result["basis_validation"]
    if not (basis["all_cycles"] and basis["lattice_matches"]) or basis["homology_rank"] != 11:
        return "fixture basis validation failed"
    if len(basis["projection_identities"]) != 10 or not all(basis["projection_identities"]):
        return "projection identities do not all hold"
    if result["torus_rank"] != 5:
        return f"torus rank {result['torus_rank']}, expected 5"
    if set(result["multipliers"].values()) != {2}:
        return "not every multiplier is 2"
    system = result["system"]
    rows = system["entries"]
    if (system["rows"], system["cols"]) != (5, 10) or [len(r) for r in rows] != [10] * 5:
        return "dicing system is not 5x10"
    if not (result["equivalent_to_reference"] and result["equivalence_verified"]):
        return "dicing system not reported equivalent to E5"
    eq = cert["equivalence"]
    column_map = [(c["target"], c["sign"]) for c in sorted(eq["column_map"], key=lambda c: c["column"])]
    problem = checks.equivalence_witness(rows, checks.E5_ROWS, eq["U"]["entries"], column_map)
    if problem:
        return problem
    reference = cert["reference_cographic"]
    if reference is None or reference["cographic"] is not False:
        return "E5 not reported non-cographic"
    search = reference["search"]
    if (
        search["graphs_tried"] != search["connected_tried"] + search["disconnected_tried"]
        or not 0 <= search["forest_count_matches"] <= search["graphs_tried"]
        or (search["edge_count"], search["incidence_rank"]) != (10, 5)
    ):
        return f"search report is inconsistent: {search}"
    if result["conclusion"] != CONCLUSION:
        return f"conclusion {result['conclusion']!r}"
    return None


def check_stdout(stdout: bytes) -> str | None:
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    try:
        return check_report(doc)
    except (KeyError, TypeError, IndexError) as exc:
        return f"report lacks {exc!r}"


def run_inprocess():
    """The CLI handler's public calls, in order."""
    from prymdice import segre

    f = segre.fixture()
    basis = segre.validate_basis_data(f)
    return f, basis, segre.degeneration_report(f)


def check_inprocess(outcome) -> str | None:
    """Lay the in-process results out as the CLI would and check them."""
    _, basis, report = outcome
    matrix = report.dicing.system.matrix
    eq, search = report.equivalence, report.e5_cographic
    doc = {
        "result": {
            "basis_validation": {
                "all_cycles": basis.all_cycles,
                "homology_rank": basis.homology_rank,
                "projection_identities": list(basis.projection_identities),
                "lattice_matches": basis.lattice_matches,
            },
            "torus_rank": report.torus_rank,
            "multipliers": report.dicing.multipliers.as_dict(),
            "system": {
                "rows": matrix.rows,
                "cols": matrix.cols,
                "entries": [list(matrix.entries[i * matrix.cols:(i + 1) * matrix.cols])
                            for i in range(matrix.rows)],
            },
            "equivalent_to_reference": eq is not None,
            "equivalence_verified": report.equivalence_verified,
            "conclusion": report.conclusion,
        },
        "certificate": {
            "equivalence": eq and {
                "U": {"entries": [list(eq.U.entries[i * eq.U.cols:(i + 1) * eq.U.cols])
                                  for i in range(eq.U.rows)]},
                "column_map": [{"column": j, "target": t, "sign": s}
                               for j, (t, s) in enumerate(eq.column_map)],
            },
            "reference_cographic": search and {
                "cographic": search.is_cographic,
                "search": {
                    "graphs_tried": search.report.graphs_tried,
                    "connected_tried": search.report.connected_tried,
                    "disconnected_tried": search.report.disconnected_tried,
                    "forest_count_matches": search.report.forest_count_matches,
                    "edge_count": search.report.edge_count,
                    "incidence_rank": search.report.incidence_rank,
                },
            },
        },
    }
    try:
        return check_report(doc)
    except (KeyError, TypeError, IndexError) as exc:
        return f"report lacks {exc!r}"
