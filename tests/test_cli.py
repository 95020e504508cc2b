"""Command-line interface: records, exit codes, reproducibility."""

import hashlib
import json
import subprocess
import sys

import pytest

from prefalloc import gen_identical, gen_impartial_culture, write_instance
from prefalloc.cli import main


@pytest.fixture()
def identical_12_8(tmp_path):
    path = tmp_path / "identical_12_8.txt"
    path.write_text(write_instance(gen_identical(12, 8)), newline="\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_ic_writes_profile(tmp_path, capsys):
    out = str(tmp_path / "p.txt")
    code, stdout, _ = run_cli(
        capsys, "gen", "ic", "--n", "10", "--m", "5", "--seed", "7", "--out", out
    )
    assert code == 0
    assert stdout.startswith(f"path={out} sha256=")
    lines = [l for l in open(out).read().splitlines() if l.strip()]
    assert lines[0] == "10 5"
    assert len(lines) == 11


def test_gen_digest_is_deterministic(tmp_path, capsys):
    a = str(tmp_path / "a.txt")
    b = str(tmp_path / "b.txt")
    _, out_a, _ = run_cli(
        capsys, "gen", "ic", "--n", "8", "--m", "4", "--seed", "3", "--out", a
    )
    _, out_b, _ = run_cli(
        capsys, "gen", "ic", "--n", "8", "--m", "4", "--seed", "3", "--out", b
    )
    assert out_a.split("sha256=")[1] == out_b.split("sha256=")[1]


def test_gen_identical_content(tmp_path, capsys):
    out = str(tmp_path / "id.txt")
    code, _, _ = run_cli(capsys, "gen", "identical", "--n", "4", "--m", "3", "--out", out)
    assert code == 0
    lines = open(out).read().splitlines()
    assert lines == ["4 3", "1 2 3", "1 2 3", "1 2 3", "1 2 3"]


def test_gen_flag_consistency(tmp_path, capsys):
    out = str(tmp_path / "x.txt")
    code, _, err = run_cli(capsys, "gen", "ic", "--n", "4", "--m", "3", "--out", out)
    assert code == 2 and "seed" in err
    code, _, err = run_cli(
        capsys, "gen", "identical", "--n", "4", "--m", "3", "--seed", "1", "--out", out
    )
    assert code == 2


def test_solve_exact_identical_monroe(identical_12_8, capsys):
    code, stdout, _ = run_cli(
        capsys,
        "solve",
        identical_12_8,
        "--system",
        "monroe",
        "--k",
        "4",
        "--algorithm",
        "exact",
    )
    assert code == 0
    record, committee, targets = stdout.splitlines()
    assert "value=66" in record
    assert "algorithm=exact_enumeration" in record
    assert committee == "committee: 1 2 3 4"
    assert targets.startswith("targets: ") and len(targets.split()) == 13


def test_solve_greedy_cc_full_committee(identical_12_8, capsys):
    code, stdout, _ = run_cli(
        capsys,
        "solve",
        identical_12_8,
        "--system",
        "cc",
        "--k",
        "8",
        "--algorithm",
        "greedy",
    )
    assert code == 0
    assert "value=84" in stdout  # n * (m - 1) on identical orders


def test_solve_combined_notes_exact_branch(identical_12_8, capsys):
    code, stdout, _ = run_cli(
        capsys,
        "solve",
        identical_12_8,
        "--system",
        "monroe",
        "--k",
        "4",
        "--algorithm",
        "combined",
        "--epsilon",
        "0.5",
        "--lambda",
        "0.9",
        "--seed",
        "1",
    )
    assert code == 0
    assert "combined_monroe[exact" in stdout
    assert "value=66" in stdout


def test_solve_json_record(identical_12_8, capsys):
    code, stdout, _ = run_cli(
        capsys,
        "solve",
        identical_12_8,
        "--system",
        "monroe",
        "--k",
        "4",
        "--algorithm",
        "exact",
        "--json",
    )
    assert code == 0
    record = json.loads(stdout)
    assert record["value"] == 66
    assert record["committee"] == [1, 2, 3, 4]
    assert len(record["targets"]) == 12


def test_solve_stdout_reproducible(identical_12_8, capsys):
    args = (
        "solve",
        identical_12_8,
        "--system",
        "monroe",
        "--k",
        "3",
        "--algorithm",
        "sample",
        "--seed",
        "11",
    )
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_solve_flag_consistency(identical_12_8, capsys):
    cases = [
        ("--algorithm", "sample"),  # missing seed
        ("--algorithm", "greedy", "--seed", "4"),  # seed without randomness
        ("--algorithm", "greedy", "--epsilon", "0.1"),  # epsilon without combined
        ("--algorithm", "combined", "--seed", "4"),  # missing epsilon/lambda
        ("--algorithm", "maxcover"),  # maxcover needs cc
    ]
    for extra in cases:
        code, _, err = run_cli(
            capsys, "solve", identical_12_8, "--system", "monroe", "--k", "3", *extra
        )
        assert code == 2, extra
        assert err.startswith("error:")


def test_solve_cap_error_surfaces_verbatim(identical_12_8, capsys):
    code, _, err = run_cli(
        capsys,
        "solve",
        identical_12_8,
        "--system",
        "monroe",
        "--k",
        "4",
        "--algorithm",
        "exact",
        "--enumeration-cap",
        "5",
    )
    assert code == 1
    assert "needs 70 committees, cap is 5" in err


def test_solve_rejects_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("2 3\n1 1 2\n1 2 3\n")
    code, _, err = run_cli(
        capsys, "solve", str(path), "--system", "cc", "--k", "1", "--algorithm", "greedy"
    )
    assert code == 1
    assert "line 2" in err


# SHA-256 of `solve ic_300_20.txt --k 6 --algorithm greedy` stdout on
# gen_impartial_culture(300, 20, seed=2012), as the sort- and scan-based greedy
# loops in tests/oracles.py print it: any drift in committees, tie order or
# record layout fails here.
GREEDY_STDOUT_SHA256 = {
    "monroe": "19484f6403ee4adad73ea488ed320278d24d5485b6132defd90ac8e2ddc84c47",
    "cc": "7d2b3b54d936e834fca4ff7c9b00c6c6df2fa0586b36e1206eda123565e5efd8",
}


@pytest.mark.parametrize("system", sorted(GREEDY_STDOUT_SHA256))
def test_solve_greedy_stdout_golden(tmp_path, monkeypatch, capsys, system):
    monkeypatch.chdir(tmp_path)  # stdout names the file, so keep the path relative
    with open("ic_300_20.txt", "w", newline="\n") as handle:
        handle.write(write_instance(gen_impartial_culture(300, 20, 2012)))
    code, stdout, _ = run_cli(
        capsys,
        "solve",
        "ic_300_20.txt",
        "--system",
        system,
        "--k",
        "6",
        "--algorithm",
        "greedy",
    )
    assert code == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == GREEDY_STDOUT_SHA256[system]


@pytest.fixture()
def general_blocks(tmp_path):
    path = tmp_path / "general.txt"
    profile = gen_identical(4, 3)
    path.write_text(write_instance(profile, costs=(5, 1, 1), budget=1), newline="\n")
    return str(path)


def test_solve_refuses_general_blocks(general_blocks, capsys):
    code, stdout, err = run_cli(
        capsys, "solve", general_blocks, "--system", "cc", "--k", "2", "--algorithm", "exact"
    )
    assert code == 2
    assert stdout == ""
    assert err.startswith("error:")
    assert "costs:" in err and "budget:" in err
    assert "caps:" not in err and "weights:" not in err


def test_ratio_refuses_general_blocks(general_blocks, capsys):
    code, stdout, err = run_cli(
        capsys,
        "ratio",
        general_blocks,
        "--system",
        "monroe",
        "--k",
        "2",
        "--algorithms",
        "exact",
    )
    assert code == 2
    assert stdout == ""
    assert err.startswith("error:")
    assert "costs:" in err and "budget:" in err


def test_ratio_exact_vs_exact_is_one(identical_12_8, capsys):
    code, stdout, _ = run_cli(
        capsys,
        "ratio",
        identical_12_8,
        "--system",
        "monroe",
        "--k",
        "4",
        "--algorithms",
        "exact",
        "--trials",
        "2",
        "--seed",
        "5",
    )
    assert code == 0
    rows = stdout.splitlines()
    assert all("ratio=1.000000" in row for row in rows if row.startswith("trial="))
    assert "algorithm=exact min_ratio=1.000000 bound_violations=0" in rows[-1]


def test_ratio_generated_trials_with_bounds(capsys):
    code, stdout, _ = run_cli(
        capsys,
        "ratio",
        "--gen",
        "ic",
        "--n",
        "12",
        "--m",
        "6",
        "--system",
        "cc",
        "--k",
        "3",
        "--algorithms",
        "greedy,maxcover,exact",
        "--trials",
        "5",
        "--seed",
        "13",
    )
    assert code == 0
    rows = [r for r in stdout.splitlines() if r.startswith("trial=")]
    assert len(rows) == 15
    assert all("bound=" in r for r in rows)
    summary = [r for r in stdout.splitlines() if r.startswith("algorithm=")]
    assert len(summary) == 3
    assert all("bound_violations=0" in r for r in summary)


def test_ratio_json_rows(capsys):
    code, stdout, _ = run_cli(
        capsys,
        "ratio",
        "--gen",
        "ic",
        "--n",
        "9",
        "--m",
        "5",
        "--system",
        "monroe",
        "--k",
        "3",
        "--algorithms",
        "greedy,exact",
        "--trials",
        "2",
        "--seed",
        "21",
        "--json",
    )
    assert code == 0
    rows = [json.loads(line) for line in stdout.splitlines()]
    trial_rows = [r for r in rows if "trial" in r]
    assert len(trial_rows) == 4
    for row in trial_rows:
        assert row["value"] <= row["oracle"]
        assert 0 < row["ratio"] <= 1


def test_ratio_stdout_reproducible(capsys):
    args = (
        "ratio",
        "--gen",
        "ic",
        "--n",
        "8",
        "--m",
        "5",
        "--system",
        "monroe",
        "--k",
        "3",
        "--algorithms",
        "greedy,sample,exact",
        "--trials",
        "3",
        "--seed",
        "31",
    )
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_ratio_greedy_cc_min_ratio_exceeds_cover_bound(capsys):
    # 100 IC trials at n=12, m=6, K=3: min ratio can never drop below
    # (1 - 2 w(3)/3) ~ 0.4005 because the oracle is capped by n(m-1)
    code, stdout, _ = run_cli(
        capsys,
        "ratio",
        "--gen",
        "ic",
        "--n",
        "12",
        "--m",
        "6",
        "--system",
        "cc",
        "--k",
        "3",
        "--algorithms",
        "greedy",
        "--trials",
        "100",
        "--seed",
        "41",
    )
    assert code == 0
    summary = stdout.splitlines()[-1]
    min_ratio = float(summary.split("min_ratio=")[1].split()[0])
    assert min_ratio >= 0.400
    assert "bound_violations=0" in summary


def test_ratio_cap_exceeded_emits_error_row(identical_12_8, capsys):
    code, stdout, _ = run_cli(
        capsys,
        "ratio",
        identical_12_8,
        "--system",
        "monroe",
        "--k",
        "4",
        "--algorithms",
        "greedy",
        "--trials",
        "1",
        "--seed",
        "2",
        "--enumeration-cap",
        "5",
    )
    assert code == 1
    assert stdout.startswith("trial=0 error=")


def test_ratio_flag_consistency(identical_12_8, capsys):
    code, _, _ = run_cli(
        capsys,
        "ratio",
        "--system",
        "monroe",
        "--k",
        "3",
        "--algorithms",
        "greedy",
        "--seed",
        "1",
    )
    assert code == 2  # neither path nor --gen
    code, _, _ = run_cli(
        capsys,
        "ratio",
        identical_12_8,
        "--system",
        "cc",
        "--k",
        "3",
        "--algorithms",
        "sample",
        "--seed",
        "1",
    )
    assert code == 2  # sample needs monroe


def test_module_entry_point(tmp_path):
    out = tmp_path / "ep.txt"
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "prefalloc.cli",
            "gen",
            "identical",
            "--n",
            "3",
            "--m",
            "2",
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert out.read_text() == "3 2\n1 2\n1 2\n1 2\n"
