import hashlib
import json
import os
import subprocess
import sys

import pytest

import prymdice

from prymdice.cli import main
from prymdice.exactmat import IntMatrix, format_matrix_text
from prymdice.graph import MultiGraph, format_graph_text
from prymdice.segre import build_cover
from prymdice.unimod import UnimodularSystem, bond_system, cut_space_matrix, e5

from conftest import basis_masks, scramble, seeded_rng, two_invariant_triangles
from oracles import vologodsky_witness_problem

TRIANGLE = "vertex u\nvertex v\nvertex w\nedge a u v\nedge b v w\nedge c w u\n"

NOT_TU = "2 2\n1 1\n1 -1\n"

# the banana cover: iota swaps its two edges and fixes both vertices
BANANA = "vertex u\nvertex v\nedge e u v\nedge f u v\niota_e e f\n"


@pytest.fixture
def triangle_file(tmp_path):
    p = tmp_path / "triangle.graph"
    p.write_text(TRIANGLE)
    return str(p)


@pytest.fixture
def banana_file(tmp_path):
    p = tmp_path / "banana.graph"
    p.write_text(BANANA)
    return str(p)


@pytest.fixture
def cover_file(tmp_path):
    g, iota = build_cover()
    p = tmp_path / "cover.graph"
    p.write_text(format_graph_text(g, iota))
    return str(p)


@pytest.fixture
def e5_file(tmp_path):
    p = tmp_path / "e5.matrix"
    p.write_text(format_matrix_text(e5().matrix))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cycles_command(capsys, triangle_file):
    code, out, _ = run(capsys, "cycles", triangle_file)
    assert code == 0
    assert "betti_number: 1" in out


def test_cycles_with_explicit_tree(capsys, triangle_file):
    code, out, _ = run(capsys, "--json", "cycles", triangle_file, "--tree", "a,b")
    assert code == 0
    data = json.loads(out)
    assert data["result"]["tree_edges"] == ["a", "b"]
    assert len(data["result"]["basis"]) == 1


def test_cycles_bad_tree_is_input_error(capsys, triangle_file):
    code, _, err = run(capsys, "cycles", triangle_file, "--tree", "a,b,c")
    assert code == 1
    assert "not a forest" in err


def test_jacobian_dice(capsys, triangle_file):
    code, out, _ = run(capsys, "--json", "jacobian-dice", triangle_file)
    assert code == 0
    data = json.loads(out)
    assert data["result"]["dimension"] == 1
    assert data["certificate"]["totally_unimodular"] is True


def test_jacobian_dice_on_the_shipped_cover(capsys):
    # an 11 x 20 system: about 8.5e7 square minors, none of them drawn
    path = os.path.join(os.path.dirname(prymdice.__file__), "data", "segre_cover.graph")
    code, out, _ = run(capsys, "--json", "jacobian-dice", path)
    assert code == 0
    data = json.loads(out)
    assert (data["result"]["dimension"], data["result"]["columns"]) == (11, 20)
    assert data["certificate"] == {"totally_unimodular": True}


def test_prym_dice_and_vologodsky(capsys, cover_file):
    code, out, _ = run(capsys, "--json", "prym-dice", cover_file)
    assert code == 0
    data = json.loads(out)
    assert data["result"]["lattice_rank"] == 5
    assert data["result"]["family_independent"] is True
    assert set(data["result"]["multipliers"].values()) == {2}

    code, out, _ = run(capsys, "--json", "vologodsky", cover_file)
    assert code == 0
    assert json.loads(out)["result"]["passed"] is True


def test_prym_dice_and_vologodsky_on_a_failing_cover(capsys, tmp_path):
    g, iota = two_invariant_triangles()
    p = tmp_path / "triangles.graph"
    p.write_text(format_graph_text(g, iota))

    def witness_problem(witness):
        parts = (witness["subgraph_0"], witness["subgraph_1"], witness["connecting_edges"])
        return vologodsky_witness_problem(g.vertices, g.edges, iota.vertex_map, parts)

    code, out, _ = run(capsys, "--json", "vologodsky", str(p))
    assert code == 0  # a failing cover still exits 0
    data = json.loads(out)
    assert data["result"]["passed"] is False
    assert witness_problem(data["certificate"]) is None

    code, out, _ = run(capsys, "--json", "prym-dice", str(p))
    assert code == 0
    result = json.loads(out)["result"]
    assert result["family_independent"] is False
    assert witness_problem(result["vologodsky_witness"]) is None


def test_prym_dice_requires_involution(capsys, triangle_file):
    code, _, err = run(capsys, "prym-dice", triangle_file)
    assert code == 1
    assert "involution" in err


def test_check_tu_positive_and_negative(capsys, tmp_path, e5_file):
    code, out, _ = run(capsys, "check-tu", e5_file)
    assert code == 0
    assert "totally_unimodular: yes" in out

    p = tmp_path / "bad.matrix"
    p.write_text(NOT_TU)
    code, out, _ = run(capsys, "--json", "check-tu", str(p))
    assert code == 0  # negative verdict still exits 0
    data = json.loads(out)
    assert data["result"]["totally_unimodular"] is False
    assert data["certificate"]["violating_minor"]["determinant"] == -2


def test_check_cographic_cap_exit_code(capsys, e5_file):
    code, _, err = run(capsys, "check-cographic", e5_file, "--max-graphs", "5")
    assert code == 3
    assert "cap" in err


def test_check_cographic_non_tu_is_input_error(capsys, tmp_path):
    p = tmp_path / "bad.matrix"
    p.write_text(NOT_TU)
    code, _, err = run(capsys, "check-cographic", str(p))
    assert code == 1
    assert "not totally unimodular" in err


def test_check_cographic_rank_deficient_is_input_error(capsys, tmp_path):
    p = tmp_path / "deficient.matrix"
    p.write_text(format_matrix_text(IntMatrix.from_rows([[1, 2, 3], [2, 4, 6]])))
    code, _, err = run(capsys, "check-cographic", str(p))
    assert code == 1
    assert err.strip() == (
        f"error: {p}: not a valid system: columns do not span: row rank is deficient"
    )


def test_check_cographic_searches_a_unimodular_system_with_a_non_tu_matrix(capsys, tmp_path):
    p = tmp_path / "scrambled.matrix"
    p.write_text(format_matrix_text(scramble(seeded_rng(11), e5()).matrix))
    code, out, _ = run(capsys, "--json", "check-cographic", str(p))
    assert code == 0
    data = json.loads(out)
    assert data["result"]["cographic"] is False
    assert data["certificate"]["search"]["graphs_tried"] == 3761


def test_check_cographic_witness_carries_the_input_bases(capsys, tmp_path):
    # K4 is planar, so its bond system is both graphic and cographic
    k4 = MultiGraph("abcd", [(f"k{i}", t, h) for i, (t, h) in enumerate(
        [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")])])
    system = bond_system(k4)
    p = tmp_path / "k4.matrix"
    p.write_text(format_matrix_text(system.matrix))
    code, out, _ = run(capsys, "--json", "check-cographic", str(p))
    assert code == 0
    data = json.loads(out)
    assert data["result"]["cographic"] is True
    witness = data["certificate"]["witness_graph"]
    graph = MultiGraph(witness["vertices"], witness["edges"])
    column_to_edge = data["certificate"]["column_to_edge"]
    assert sorted(column_to_edge) == sorted(graph.edge_labels)
    # the witness's cut space, its columns in the input's order
    cut = cut_space_matrix(graph)
    order = [graph.edge_index(lab) for lab in column_to_edge]
    matched = UnimodularSystem(cut.column_submatrix(order))
    assert basis_masks(matched) == basis_masks(system)


def test_check_cographic_accepts_a_bond_system_with_parallel_edges(capsys, tmp_path):
    # a triangle with one edge doubled: its first two columns are equal, and
    # a repeated vector is a system's own, so only unimodularity is checked
    p = tmp_path / "parallel.matrix"
    p.write_text("2 4\n1 1 0 1\n0 0 1 -1\n")
    code, out, err = run(capsys, "check-cographic", str(p))
    assert (code, err) == (0, "")
    assert "result:\n  cographic: yes\n" in out
    assert "forest_count_matches: 1\n" in out


def test_non_integer_graph_cap_is_a_usage_error(capsys, e5_file):
    with pytest.raises(SystemExit) as exc:
        main(["check-cographic", e5_file, "--max-graphs", "abc"])
    assert exc.value.code == 2
    assert "--max-graphs: not an integer: 'abc'" in capsys.readouterr().err


def test_equiv_command(capsys, tmp_path, e5_file):
    # a row-negated, column-permuted copy
    m = e5().matrix
    rows = m.row_list()
    rows[0] = [-x for x in rows[0]]
    order = [3, 1, 4, 0, 2, 9, 8, 7, 6, 5]
    scr = IntMatrix.from_rows([[r[j] for j in order] for r in rows])
    p = tmp_path / "scrambled.matrix"
    p.write_text(format_matrix_text(scr))
    code, out, _ = run(capsys, "--json", "equiv", e5_file, str(p))
    assert code == 0
    data = json.loads(out)
    assert data["result"]["equivalent"] is True
    assert data["result"]["verified"] is True


def test_equiv_negative_verdict_exits_zero(capsys, tmp_path, e5_file):
    p = tmp_path / "identity.matrix"
    p.write_text("5 5\n" + "\n".join(" ".join("1" if i == j else "0" for j in range(5)) for i in range(5)) + "\n")
    code, out, _ = run(capsys, "--json", "equiv", e5_file, str(p))
    assert code == 0
    data = json.loads(out)
    assert data["result"]["equivalent"] is False
    assert data["certificate"] is None


def test_equiv_across_dimensions_is_input_error(capsys, tmp_path, e5_file):
    p = tmp_path / "k2.matrix"
    p.write_text("1 1\n1\n")
    code, out, err = run(capsys, "equiv", e5_file, str(p))
    assert code == 1
    assert out == ""
    assert err.strip() == "error: systems live in different dimensions"


def test_cycles_on_forest_is_a_verdict(capsys, tmp_path):
    p = tmp_path / "path.graph"
    p.write_text("vertex a\nvertex b\nvertex c\nedge e1 a b\nedge e2 b c\n")
    code, out, _ = run(capsys, "--json", "cycles", str(p))
    assert code == 0
    data = json.loads(out)
    assert data["result"]["betti_number"] == 0
    assert data["result"]["basis"] == []


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "check-tu", "/nonexistent/file")
    assert code == 1
    assert "error" in err


def test_parse_error_reports_line(capsys, tmp_path):
    p = tmp_path / "broken.graph"
    p.write_text("vertex a\nedge e a nowhere\n")
    code, _, err = run(capsys, "cycles", str(p))
    assert code == 1
    assert "line 2" in err


def test_half_integer_matrix_file_is_input_error(capsys, tmp_path):
    p = tmp_path / "half.matrix"
    p.write_text("denominator 2\n1 1\n1\n")
    code, out, err = run(capsys, "check-tu", str(p))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {p}: line 1:")


def test_integral_prym_lattice_has_denominator_one(capsys, banana_file):
    # the banana cover's anti-invariant lattice is spanned by the integral e - f
    code, out, _ = run(capsys, "--json", "prym-dice", banana_file)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["lattice_basis"] == {
        "rows": 1, "cols": 2, "denominator": 1, "entries": [[1, -1]],
    }
    assert result["multipliers"] == {"e": 1, "f": 1}
    assert result["system"] == {"rows": 1, "cols": 1, "entries": [[1]]}


@pytest.mark.parametrize("command, inputs", [
    ("cycles", {"graph": "triangle"}),
    ("jacobian-dice", {"graph": "triangle"}),
    ("prym-dice", {"graph": "banana"}),
    ("vologodsky", {"graph": "banana"}),
    ("check-tu", {"matrix": "e5"}),
    ("check-cographic", {"matrix": "e5"}),
    ("equiv", {"matrix_a": "e5", "matrix_b": "e5"}),
    ("segre", {"fixture": "builtin"}),
])
def test_every_subcommand_prints_one_report_envelope(
    capsys, triangle_file, banana_file, e5_file, command, inputs
):
    files = {"triangle": triangle_file, "banana": banana_file, "e5": e5_file}
    inputs = {name: files.get(value, value) for name, value in inputs.items()}
    paths = [path for path in inputs.values() if path in files.values()]
    code, js, _ = run(capsys, "--json", command, *paths)
    assert code == 0
    data = json.loads(js)
    assert data["stage"] == command
    assert data["inputs"] == inputs
    code, human, _ = run(capsys, command, *paths)
    assert code == 0
    top_level = [line.split(":")[0] for line in human.splitlines() if not line.startswith(" ")]
    assert top_level == ["stage", "inputs", "result", "certificate"]
    assert human.startswith(f"stage: {command}\ninputs:\n")


def test_segre_command_deterministic(capsys):
    code1, out1, _ = run(capsys, "--json", "segre")
    code2, out2, _ = run(capsys, "--json", "segre")
    assert code1 == code2 == 0
    assert out1 == out2
    # recorded before the report read its Vologodsky and rank fields from
    # the dicing: the JSON stays byte-identical
    assert hashlib.sha256(out1.encode()).hexdigest() == (
        "50f4a1a4ba60135ff42796cd51deec9a4b0458d5de7a7a4a87175400051fda98"
    )
    data = json.loads(out1)
    assert data["result"]["conclusion"] == "non-cographic dicing obtained"
    assert data["result"]["torus_rank"] == 5
    assert data["certificate"]["reference_cographic"]["cographic"] is False


@pytest.mark.parametrize("command, digest", [
    ("prym-dice", "ae37bb6e501ad251522afcaec7f46fef5f0a8c7aded0cc88890f929ac995c7d0"),
    ("cycles", "8d1f62ee8fbbc27b59ca6f2003f7d54802101771fae0618e0c2be9c09bbd69c3"),
])
def test_shipped_cover_outputs_are_pinned(capsys, command, digest):
    # recorded with the earlier lattice layer, which built every cycle as a
    # Fraction cochain and reduced each half-lattice up to three times;
    # the inputs block holds the file path and is left out
    path = os.path.join(os.path.dirname(prymdice.__file__), "data", "segre_cover.graph")
    code, out, _ = run(capsys, "--json", command, path)
    assert code == 0
    data = json.loads(out)
    pinned = json.dumps(
        {"result": data["result"], "certificate": data["certificate"]}, sort_keys=True
    )
    assert hashlib.sha256(pinned.encode()).hexdigest() == digest


def test_segre_human_output_matches_json_data(capsys):
    _, human, _ = run(capsys, "segre")
    _, js, _ = run(capsys, "--json", "segre")
    data = json.loads(js)
    assert "conclusion: non-cographic dicing obtained" in human
    assert f"torus_rank: {data['result']['torus_rank']}" in human
    tried = data["certificate"]["reference_cographic"]["search"]["graphs_tried"]
    assert f"graphs_tried: {tried}" in human


def test_verbose_notes_go_to_stderr_only(capsys, e5_file):
    code, out, err = run(capsys, "--json", "--verbose", "check-cographic", e5_file)
    assert code == 0
    assert "note: searching" in err
    quiet = json.loads(run(capsys, "--json", "check-cographic", e5_file)[1])
    assert json.loads(out) == quiet  # the report itself is unaffected


def test_segre_verbose_note_goes_to_stderr_only(capsys):
    code, out, err = run(capsys, "--json", "--verbose", "segre")
    assert code == 0
    assert err == "note: running the exhaustive cographic search\n"
    assert out == run(capsys, "--json", "segre")[1]


def test_json_human_parity_on_check_tu(capsys, e5_file):
    _, human, _ = run(capsys, "check-tu", e5_file)
    _, js, _ = run(capsys, "--json", "check-tu", e5_file)
    data = json.loads(js)
    assert data["result"]["totally_unimodular"] is True
    assert "totally_unimodular: yes" in human
    assert f"matrix: {e5_file}" in human


def test_global_flags_accepted_after_the_subcommand(capsys, e5_file):
    code_before, before, _ = run(capsys, "--json", "segre")
    code_after, after, _ = run(capsys, "segre", "--json")
    assert code_before == code_after == 0
    assert after == before
    quiet = run(capsys, "check-tu", e5_file)
    assert run(capsys, "check-tu", e5_file, "--verbose") == quiet
    assert quiet[0] == 0
    code, _, err = run(capsys, "check-cographic", e5_file, "--verbose", "--max-graphs", "5")
    assert code == 3
    assert "note: searching" in err


@pytest.mark.parametrize("argv", [["check-cographic", "E5"], ["segre"]])
def test_capped_search_reports_its_counters(capsys, e5_file, argv):
    argv = [e5_file if a == "E5" else a for a in argv]
    code, out, err = run(capsys, "--json", *argv, "--max-graphs", "10")
    assert code == 3
    assert out == ""
    for counter in (
        "graphs_tried=11", "connected_tried=11", "disconnected_tried=0", "forest_count_matches=0",
    ):
        assert counter in err


@pytest.mark.parametrize("argv", [["check-cographic", "E5"], ["segre"]])
def test_negative_graph_cap_is_a_usage_error(capsys, e5_file, argv):
    argv = [e5_file if a == "E5" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--max-graphs", "-5"])
    assert exc.value.code == 2
    assert "--max-graphs: must be 0 or more, got -5" in capsys.readouterr().err
    code, _, err = run(capsys, *argv, "--max-graphs", "0")
    assert code == 3
    assert "cap of 0 candidate graphs exceeded" in err


def test_cli_import_does_not_load_networkx():
    # a fresh interpreter, so modules imported by other tests do not count
    src = os.path.dirname(os.path.dirname(prymdice.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    probe = (
        "import sys, prymdice.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'networkx'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "[]"


def test_segre_json_does_not_load_fractions():
    # the Segre path holds half-integers doubled as integers, so a fresh
    # interpreter running it never imports fractions (nor decimal with it)
    src = os.path.dirname(os.path.dirname(prymdice.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    probe = (
        "import contextlib, io, sys\n"
        "from prymdice.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['--json', 'segre'])\n"
        "print(code, 'fractions' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.split() == ["0", "False"]


def test_python_dash_m_segre_in_a_fresh_interpreter():
    # the exact command of perfbench/segre_cli.py, run from the checkout's
    # root with src on the path: __main__.py hands main's exit code to the
    # process, and a capped search writes nothing to stdout
    root = os.path.dirname(os.path.dirname(os.path.dirname(prymdice.__file__)))
    env = dict(os.environ, PYTHONPATH="src")
    command = [sys.executable, "-m", "prymdice", "--json", "segre"]
    result = subprocess.run(command, capture_output=True, cwd=root, env=env)
    assert result.returncode == 0
    assert hashlib.sha256(result.stdout).hexdigest() == (
        "50f4a1a4ba60135ff42796cd51deec9a4b0458d5de7a7a4a87175400051fda98"
    )
    capped = subprocess.run([*command, "--max-graphs", "0"], capture_output=True, cwd=root, env=env)
    assert capped.returncode == 3
    assert capped.stdout == b""
