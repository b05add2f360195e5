"""Command-line behavior: exit codes, output formats, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from opineq import cli
from opineq.cli import main
from opineq.verifier import registry_ids


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compare_prints_ratio(capsys):
    code, out, _ = run_cli(capsys, "compare", "--a", "thm3.4", "--b", "seo",
                           "--m", "1", "--M", "4", "--nu", "0.5")
    assert code == 0
    assert out.strip() == "0.8"


def test_compare_incompatible_pair_exits_2(capsys):
    code, _, err = run_cli(capsys, "compare", "--a", "lee", "--b", "thm2.7",
                           "--m", "1", "--mp", "1.5", "--Mp", "2", "--M", "4")
    assert code == 2
    assert "error:" in err


def test_verify_unknown_id_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--ineq", "nosuch")
    assert code == 2
    assert "nosuch" in err


@pytest.mark.parametrize("ineq", [",", " "])
def test_verify_empty_id_list_exits_2(capsys, tmp_path, ineq):
    """An --ineq list with no id would check nothing; it is bad input."""
    out_path = tmp_path / "r.json"
    code, _, err = run_cli(capsys, "verify", "--ineq", ineq, "--n", "2", "--trials", "2",
                           "--out", str(out_path))
    assert code == 2
    assert "ids must be nonempty" in err
    assert not out_path.exists()


@pytest.mark.parametrize("ineq, n", [("thm3.4,thm3.4", "2"), ("amgm,amgm", "2,2"), ("amgm", "3,3")])
def test_verify_repeated_ids_or_dims_exit_2(capsys, tmp_path, ineq, n):
    out_path = tmp_path / "r.json"
    code, _, err = run_cli(capsys, "verify", "--ineq", ineq, "--n", n, "--trials", "30",
                           "--out", str(out_path))
    assert code == 2
    assert "must not repeat" in err
    assert not out_path.exists()


@pytest.mark.parametrize("ineq, grid", [
    ("lin", ("--nu", "1.5")),
    ("lin", ("--alpha", "7")),
    ("amgm", ("--nu", "1.5")),
    ("lin", ("--nu", "0.3,1.5", "--trials", "1")),
    ("lin,amgm", ("--alpha", "7", "--workers", "2")),
    ("lin", ("--nu", "1.5", "--m", "1", "--M", "4")),
])
def test_verify_out_of_range_grid_value_exits_2(capsys, tmp_path, ineq, grid):
    """A grid value outside its range is a configuration error for every
    entry, whether or not the entry reads that parameter and whether or not
    a trial reaches it."""
    out_path = tmp_path / "r.json"
    code, _, err = run_cli(capsys, "verify", "--ineq", ineq, "--n", "2", "--trials", "2",
                           *grid, "--out", str(out_path))
    assert code == 2
    assert "must be in" in err
    assert not out_path.exists()


def test_verify_passing_run(capsys, tmp_path):
    out_path = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "verify", "--ineq", "amgm,lin", "--n", "2",
                         "--trials", "3", "--seed", "5", "--out", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text())
    assert set(report) == {"config_hash", "cases", "summary"}
    assert len(report["cases"]) == 2 * 3


def test_verify_refuted_inequality_exits_1(capsys, tmp_path):
    out_path = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "verify", "--ineq", "thm3.4", "--n", "2",
                         "--trials", "4", "--nu", "0.5", "--m1", "1",
                         "--M1", "1.01", "--m2", "2", "--M2", "2.02",
                         "--out", str(out_path))
    assert code == 1
    report = json.loads(out_path.read_text())
    failures = sum(1 for c in report["cases"] if not c["holds"])
    assert failures == 4
    assert all("replay" in c for c in report["cases"] if not c["holds"])


def test_verify_informational_failures_exit_0(capsys):
    # lee-printed fails often but is not an asserted entry
    code, out, _ = run_cli(capsys, "verify", "--ineq", "lee-printed", "--n", "2",
                           "--trials", "6", "--seed", "3")
    assert code == 0
    report = json.loads(out)
    assert any(not c["holds"] for c in report["cases"])


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "--ineq", "amgm", "--n", "2",
                           "--trials", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "id,seed,n,params,gap,relative_gap,holds"
    assert len(lines) == 3


def test_verify_bad_bounds_combination_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--ineq", "amgm", "--m", "1")
    assert code == 2
    code, _, err = run_cli(capsys, "verify", "--ineq", "amgm",
                           "--m", "1", "--M", "4", "--m1", "1", "--M1", "2",
                           "--m2", "1", "--M2", "2")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("verify", "--ineq", "thm1.1-phi-inside", "--n", "2", "--trials", "1", "--p", "5000"),
    ("verify", "--ineq", "thm1.1-phi-inside", "--n", "2", "--trials", "1", "--p", "inf"),
    ("compare", "--a", "thm1.1", "--b", "zhang", "--m", "1", "--M", "4", "--p", "5000"),
    ("verify", "--ineq", "amgm", "--n", "2", "--trials", "1", "--m", "1", "--M", "inf"),
    ("verify", "--ineq", "thm1.1-phi-inside", "--n", "2", "--trials", "1", "--p", "90",
     "--m", "1", "--M", "1000"),
    ("verify", "--ineq", "amgm", "--n", "2", "--trials", "3", "--tol", "nan"),
    ("search", "--ineq", "amgm", "--n", "2", "--budget", "5", "--tol", "-1"),
    ("search", "--ineq", "amgm", "--n", "0", "--budget", "5"),
])
def test_unevaluable_numbers_exit_2(capsys, argv):
    """An overflowing constant or side, a non-finite power or bound, a bad
    tolerance or dimension is a usage error, not an inequality failure."""
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("alpha", ["nan", "0.5", "3"])
def test_verify_bad_alpha_is_reported_as_alpha(capsys, alpha):
    """thm2.10 derives p = 2 alpha, so a bad alpha must be named as such,
    not as the bad power it implies."""
    code, _, err = run_cli(capsys, "verify", "--ineq", "thm2.10-phi-inside", "--n", "2",
                           "--trials", "1", "--alpha", alpha)
    assert code == 2
    assert "alpha" in err


def test_gen_deterministic(capsys):
    code, first, _ = run_cli(capsys, "gen", "--n", "2", "--seed", "3",
                             "--m", "1", "--M", "4")
    assert code == 0
    code, second, _ = run_cli(capsys, "gen", "--n", "2", "--seed", "3",
                              "--m", "1", "--M", "4")
    assert first == second
    obj = json.loads(first)
    assert obj["n"] == 2
    assert obj["bounds"] == {"kind": "common", "m": 1.0, "M": 4.0}
    assert "A" in obj and "B" in obj
    code, third, _ = run_cli(capsys, "gen", "--n", "2", "--seed", "4",
                             "--m", "1", "--M", "4")
    assert third != first


def test_search_cli(capsys):
    code, out, _ = run_cli(capsys, "search", "--ineq", "scalar-lemma",
                           "--budget", "100", "--nu", "0.25")
    assert code == 0
    rec = json.loads(out)
    assert abs(rec["best_gap"]) <= 1e-12


@pytest.mark.parametrize("ineq_id", ["lin", "eq217", "choi", "lh"])
def test_search_nu_on_an_entry_without_a_free_weight_exits_2(capsys, ineq_id):
    """--nu pins a free weight; an entry that fixes its weight (nu = 1/2)
    or has none refuses it instead of searching at another weight."""
    code, out, err = run_cli(capsys, "search", "--ineq", ineq_id, "--n", "2",
                             "--budget", "5", "--nu", "0.3")
    assert code == 2
    assert "error:" in err and "nu" in err
    assert out == ""


def test_search_nu_pins_a_free_weight(capsys):
    code, out, _ = run_cli(capsys, "search", "--ineq", "ando", "--n", "2",
                           "--budget", "20", "--nu", "0.3")
    assert code == 0
    rec = json.loads(out)
    assert rec["evaluations"] == 20
    assert rec["params"]["nu"] == 0.3


@pytest.mark.parametrize("argv", [
    ("verify", "--ineq", "amgm", "--n", "2", "--trials", "1"),
    ("search", "--ineq", "amgm", "--n", "2", "--budget", "5"),
    ("gen", "--n", "2", "--m", "1", "--M", "4"),
])
def test_unwritable_out_exits_2_naming_the_path(capsys, tmp_path, argv):
    """An --out in a directory that does not exist is bad input (exit 2),
    not a failed inequality (exit 1)."""
    out_path = tmp_path / "missing" / "r.json"
    code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
    assert code == 2
    assert err.startswith("error:") and str(out_path) in err
    assert not out_path.parent.exists()


def test_help_lists_registry_ids(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for ineq_id in ("amgm", "thm2.4-phi-inside", "thm3.4", "lee-printed"):
        assert ineq_id in out
    # a wrapped line keeps its comma, so no line reads as the end of the list
    listed = out.split("registry ids:")[1].split()
    assert [word.rstrip(",") for word in listed] == list(registry_ids())
    assert all(word.endswith(",") for word in listed[:-1])
    assert not listed[-1].endswith(",")


def test_selftest_tiny_run(capsys, tmp_path):
    out_path = tmp_path / "self.json"
    code, _, _ = run_cli(capsys, "selftest", "--trials", "1", "--n", "2",
                         "--out", str(out_path))
    # thm3.4 and the printed informational variants may fail even at one
    # trial; the exit code reflects asserted entries only
    report = json.loads(out_path.read_text())
    assert len(report["cases"]) == 44
    asserted_bad = [s for s in report["summary"] if s["failures"]]
    bad_ids = {s["id"] for s in asserted_bad}
    assert bad_ids <= {"thm3.4", "lee-printed", "thm3.3", "lh-p2-demo",
                       "thm2.9-proof-phi-inside", "thm2.9-proof-phi-outside"}
    assert code == (1 if "thm3.4" in bad_ids else 0)


REUSE_CALLS = (
    ("verify", "--ineq", "lin", "--nu", "1.5"),
    ("--help",),
    ("search", "--ineq", "thm3.4", "--budget", "120", "--seed", "1", "--out", "search-1.json"),
    ("search", "--ineq", "thm2.7-phi-outside", "--budget", "60", "--seed", "2"),
    ("selftest", "--trials", "1"),
)


def _fresh_process(argv, cwd):
    """Exit code, stdout, stderr and written files of argv run first in a
    new process."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "COLUMNS": "80",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "opineq.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr, {p.name: p.read_bytes() for p in cwd.iterdir()}


def test_main_reuses_its_parser(capsys, monkeypatch, tmp_path):
    """main builds its parser once per process; each call in a row of
    different commands gives what it gives first in a fresh process."""
    monkeypatch.setenv("COLUMNS", "80")
    for k, argv in enumerate(REUSE_CALLS):
        here, fresh = tmp_path / f"here-{k}", tmp_path / f"fresh-{k}"
        here.mkdir()
        fresh.mkdir()
        monkeypatch.chdir(here)
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        written = {p.name: p.read_bytes() for p in here.iterdir()}
        assert (code, captured.out, captured.err, written) == _fresh_process(argv, fresh), argv
    assert cli._parser.cache_info().misses <= 1
