"""Command-line interface: commands, formats, exit codes."""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qminlab import PendantProfile, build_K, encode_graph6, format_edge_list
from qminlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_graph6_k3(capsys):
    code, out, _ = run(capsys, "spectrum", "Bw")
    assert code == 0
    assert "order: 3" in out
    assert "spectrum: 1.0000000000,1.0000000000,4.0000000000" in out
    assert "q_min: 1.0000000000" in out
    assert "girth: 3" in out


def test_spectrum_edge_list_file(capsys, tmp_path):
    g, _ = build_K(PendantProfile((2, 2, 2, 0)))
    path = tmp_path / "k2220.txt"
    path.write_text(format_edge_list(g))
    code, out, _ = run(capsys, "spectrum", str(path))
    assert code == 0
    assert "q_min: 0.4384471872" in out
    assert "multiplicity: 2" in out
    assert "pendant_count: 6" in out


def test_spectrum_malformed_graph6(capsys):
    code, _, err = run(capsys, "spectrum", "B")
    assert code == 2
    assert "error" in err and "offset" in err


def test_family_u(capsys):
    code, out, _ = run(capsys, "family", "U", "--n", "6", "--k", "1", "--g", "3")
    assert code == 0
    assert "graph6:" in out and "anchor:" in out
    assert "q_min: 0.1338017375" in out


def test_family_k_profile(capsys):
    g, _ = build_K(PendantProfile((2, 2, 1, 1)))
    code, out, _ = run(capsys, "family", "K", "--profile", "2,2,1,1")
    assert code == 0
    assert f"graph6: {encode_graph6(g).decode()}" in out
    assert "q_min: 0.4384471872" in out


def test_family_u_infeasible(capsys):
    code, _, err = run(capsys, "family", "U", "--n", "5", "--k", "1", "--g", "4")
    assert code == 2
    assert "error" in err
    # a stem length that does not fit is refused, not replaced by the one that does
    code, out, err = run(capsys, "family", "U", "--n", "6", "--k", "1", "--g", "3", "--l", "7")
    assert code == 2 and out == ""
    assert "g + l + sum(lengths) = 12 != n + k + 1 = 8" in err


def test_family_u_explicit_lengths(capsys):
    code, out, _ = run(
        capsys, "family", "U", "--n", "6", "--k", "1", "--g", "3", "--lengths", "3"
    )
    assert code == 0
    assert "pendant_paths: 3,4,5" in out


def test_verify_min_confirms(capsys):
    code, out, _ = run(capsys, "verify", "min", "--n", "5", "--k", "1")
    assert code == 0
    assert "confirmed: true" in out
    assert "graphs_examined: 200" in out


def test_verify_unicyclic_min(capsys):
    code, out, _ = run(
        capsys, "verify", "unicyclic-min", "--n", "6", "--k", "1", "--g", "5"
    )
    assert code == 0
    assert "confirmed: true" in out


def test_verify_max(capsys):
    code, out, _ = run(capsys, "verify", "max", "--n", "6", "--k", "3")
    assert code == 0
    assert "confirmed: true" in out


def test_verify_capacity_exit(capsys):
    code, _, err = run(capsys, "verify", "min", "--n", "9", "--k", "1")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv, cap",
    [
        (("max", "--n", "9", "--k", "1"), "general classes are searched up to order 8"),
        (
            ("unicyclic-min", "--n", "17", "--k", "1", "--g", "3"),
            "unicyclic classes are searched up to order 16",
        ),
    ],
)
def test_verify_names_the_order_cap(capsys, argv, cap):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert f"error: order {argv[2]} is over the cap: {cap}" in err


def test_verify_unicyclic_min_past_order_nine(capsys):
    code, out, _ = run(
        capsys, "verify", "unicyclic-min", "--n", "12", "--k", "1", "--g", "3"
    )
    assert code == 0
    assert "confirmed: true" in out


def test_verify_unicyclic_min_at_the_order_cap(capsys):
    code, out, _ = run(
        capsys, "verify", "unicyclic-min", "--n", "16", "--k", "1", "--g", "3"
    )
    assert code == 0
    assert "confirmed: true" in out


def test_scan_alpha_csv(capsys):
    code, out, err = run(
        capsys, "scan", "alpha", "--n", "15", "--k", "1..2", "--g", "3,5"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "k", "g", "alpha"]
    assert len(rows) == 5
    values = {(r[1], r[2]): float(r[3]) for r in rows[1:]}
    assert values[("1", "3")] < values[("2", "3")] < values[("2", "5")]


def test_scan_alpha_skips_infeasible(capsys):
    code, out, err = run(capsys, "scan", "alpha", "--n", "6", "--k", "1,3", "--g", "5")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 2  # header + the single feasible combination
    assert "skipping infeasible" in err


def test_scan_bounds_csv(capsys):
    code, out, err = run(capsys, "scan", "bounds", "--n", "4..12")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == [
        "n",
        "bound_cor44_general",
        "bound_lima_delta1",
        "bound_submatrix_k1",
        "diff",
    ]
    assert len(rows) == 10
    assert all(float(r[4]) > 0 for r in rows[1:])
    assert "smaller" in err  # direction note
    # the bounds do not cancel to 1.0 at large n
    code, out, _ = run(capsys, "scan", "bounds", "--n", "1000000000")
    assert code == 0
    assert list(csv.reader(io.StringIO(out)))[1][2:4] == ["0.999999999000"] * 2


def test_scan_majorization_csv(capsys):
    code, out, _ = run(capsys, "scan", "majorization", "--len", "4", "--sum", "6")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["nu", "mu", "qmin_nu", "qmin_mu", "slack"]
    match = [r for r in rows[1:] if r[0] == "2,2,2,0" and r[1] == "2,2,1,1"]
    assert len(match) == 1
    assert abs(float(match[0][4])) < 1e-9


def test_scan_csv_deterministic(capsys):
    _, out1, _ = run(capsys, "scan", "majorization", "--len", "3", "--sum", "3")
    _, out2, _ = run(capsys, "scan", "majorization", "--len", "3", "--sum", "3")
    assert out1 == out2


def test_output_to_file(capsys, tmp_path):
    target = tmp_path / "bounds.csv"
    code, out, _ = run(capsys, "scan", "bounds", "--n", "4..6", "-o", str(target))
    assert code == 0
    assert out == ""
    rows = list(csv.reader(target.open()))
    assert len(rows) == 4


def test_bad_tolerances(capsys):
    code, out, err = run(capsys, "verify", "min", "--n", "5", "--k", "1", "--tie-tol", "-1")
    assert code == 2 and out == ""
    assert "positive" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "min", "--n", "5", "--k", "1", "--tie-tol"),
        ("verify", "unicyclic-min", "--n", "5", "--k", "1", "--g", "3", "--tie-tol"),
        ("verify", "max", "--n", "5", "--k", "1", "--tie-tol"),
    ],
)
def test_non_finite_tolerances(capsys, argv, value):
    code, out, err = run(capsys, *argv, value)
    assert code == 2 and out == ""
    assert "finite and positive" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("scan", "alpha", "--n", "x", "--k", "1", "--g", "3"),
        ("scan", "alpha", "--n", "5..6..7", "--k", "1", "--g", "3"),
        ("scan", "bounds", "--n", "4,"),
        ("family", "K", "--profile", "2,x"),
        # a range that runs downwards would be empty
        ("scan", "alpha", "--n", "5..3", "--k", "1", "--g", "3"),
        ("scan", "bounds", "--n", "9..4"),
        ("family", "K", "--profile", "3..1"),
    ],
)
def test_malformed_integer_lists(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "malformed integer list" in err


def test_refused_scan_writes_nothing(capsys, tmp_path):
    code, out, err = run(capsys, "scan", "bounds", "--n", "1..3")
    assert code == 2 and out == "" and "error" in err
    code, out, err = run(capsys, "scan", "majorization", "--len", "2", "--sum", "3")
    assert code == 2 and out == "" and "error" in err
    target = tmp_path / "bounds.csv"
    assert run(capsys, "scan", "bounds", "--n", "1..3", "-o", str(target))[0] == 2
    assert not target.exists()


# A value for every flag some mode reads, and for --group-tol and --shards,
# which no mode takes.
FLAG_VALUES = {
    "--n": "6", "--k": "1", "--g": "3", "--l": "2", "--lengths": "2",
    "--profile": "2,1,1", "--len": "4", "--sum": "6", "--tie-tol": "1e-8",
    "--group-tol": "1e-8", "--shards": "2",
}

# Each mode: a valid command line, the optional flags it reads besides -o,
# and the flags it requires, which that command line gives.
MODES = [
    (("spectrum", "Bw"), set(), []),
    (
        ("family", "U", "--n", "6", "--k", "1", "--g", "3"),
        {"--l", "--lengths"},
        ["--n", "--k", "--g"],
    ),
    (("family", "K", "--profile", "2,1,1"), set(), ["--profile"]),
    (("verify", "min", "--n", "5", "--k", "1"), {"--tie-tol"}, ["--n", "--k"]),
    (
        ("verify", "unicyclic-min", "--n", "5", "--k", "1", "--g", "3"),
        {"--tie-tol"},
        ["--n", "--k", "--g"],
    ),
    (("verify", "max", "--n", "5", "--k", "1"), {"--tie-tol"}, ["--n", "--k"]),
    (("scan", "alpha", "--n", "6", "--k", "1", "--g", "3"), set(), ["--n", "--k", "--g"]),
    (("scan", "bounds", "--n", "4"), set(), ["--n"]),
    (("scan", "majorization", "--len", "4", "--sum", "6"), set(), ["--len", "--sum"]),
]


def test_flags_only_on_commands_that_read_them(capsys):
    for argv, optional, required in MODES:
        assert run(capsys, *argv)[0] == 0, argv
        for flag in sorted(FLAG_VALUES.keys() - optional - set(required)):
            # an unread flag is passed up and refused by the top-level parser
            code, out, err = run(capsys, *argv, flag, FLAG_VALUES[flag])
            assert (code, out) == (2, ""), (argv, flag)
            assert f"qminlab: error: unrecognized arguments: {flag}" in err, (argv, flag)
        for flag in required:
            at = argv.index(flag)
            code, out, err = run(capsys, *argv[:at], *argv[at + 2 :])
            assert (code, out) == (2, ""), (argv, flag)
            assert f"the following arguments are required: {flag}" in err, (argv, flag)


@pytest.mark.parametrize("theorem", ["min", "max"])
def test_verify_girth_only_for_unicyclic_min(capsys, theorem):
    code, out, err = run(capsys, "verify", theorem, "--n", "7", "--k", "2", "--g", "4")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --g 4" in err


def test_module_entry_point():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, "-m", "qminlab", "verify", "min", "--n", "5", "--k", "1"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "confirmed: true" in proc.stdout


def test_usage_error(capsys):
    code, _, _ = run(capsys, "nonsense")
    assert code == 2
