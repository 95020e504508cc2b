"""Command-line interface: records, exit codes, reproducibility."""

import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import prefalloc
from prefalloc import exact_enumeration, gen_identical, gen_impartial_culture, write_instance
from prefalloc import cli
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
    lines = [l for l in Path(out).read_text().splitlines() if l.strip()]
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


# The file digest `gen ic` prints, as the one-draw-at-a-time generator wrote
# the file: a small profile, the greedy benchmark's n=1000, m=40 over many
# blocks of draws, and m=3000 with one agent's draws spanning blocks.
GEN_IC_SHA256 = {
    (9, 6, 1): "b5d3bb18d476ad8037dbbffd8ac56f385b5e0d3136ceedaf6d9f14a9d52bacba",
    (1000, 40, 0): "aa5b5ca5d8d4dd438429d1b3bf8eac22a5e474791c579c44a88c076a01ef5ef9",
    (2, 3000, 5): "bbaf54a1fb6d44bceee3b64c92f0712de138f676c8dca476ab55511b729a9df6",
}


@pytest.mark.parametrize("n, m, seed", list(GEN_IC_SHA256))
def test_gen_ic_stdout_golden(tmp_path, monkeypatch, capsys, n, m, seed):
    monkeypatch.chdir(tmp_path)  # stdout names the file, so keep the path relative
    out = f"ic_{n}_{m}.txt"
    code, stdout, _ = run_cli(
        capsys, "gen", "ic", "--n", str(n), "--m", str(m), "--seed", str(seed), "--out", out
    )
    assert code == 0
    assert stdout == f"path={out} sha256={GEN_IC_SHA256[n, m, seed]}\n"


def test_gen_identical_content(tmp_path, capsys):
    out = str(tmp_path / "id.txt")
    code, _, _ = run_cli(capsys, "gen", "identical", "--n", "4", "--m", "3", "--out", out)
    assert code == 0
    lines = Path(out).read_text().splitlines()
    assert lines == ["4 3", "1 2 3", "1 2 3", "1 2 3", "1 2 3"]


def test_gen_flag_consistency(tmp_path, capsys):
    out = str(tmp_path / "x.txt")
    code, _, err = run_cli(capsys, "gen", "ic", "--n", "4", "--m", "3", "--out", out)
    assert code == 2 and "seed" in err
    cases = [
        ("identical", "--n", "4", "--m", "3", "--seed", "1"),
        # Out-of-range sizes.
        ("ic", "--n", "0", "--m", "3", "--seed", "1"),
        ("identical", "--n", "4", "--m", "-1"),
    ]
    for extra in cases:
        code, stdout, err = run_cli(capsys, "gen", *extra, "--out", out)
        assert code == 2, extra
        assert stdout == "" and err.startswith("error:")
    assert not os.path.exists(out)


def _record(line: str) -> dict:
    return dict(token.split("=", 1) for token in shlex.split(line))


def test_records_quote_paths_with_spaces(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, stdout, _ = run_cli(
        capsys, "gen", "ic", "--n", "9", "--m", "6", "--seed", "1", "--out", "ic 9_6.txt"
    )
    assert code == 0
    assert stdout.startswith('path="ic 9_6.txt" sha256=')
    assert _record(stdout)["path"] == "ic 9_6.txt"
    code, stdout, _ = run_cli(
        capsys, "solve", "ic 9_6.txt", "--system", "cc", "--k", "2", "--algorithm", "greedy"
    )
    assert code == 0
    record = _record(stdout.splitlines()[0])
    assert record["instance"] == "ic 9_6.txt" and record["system"] == "cc"


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
        # Out-of-range values.
        ("--algorithm", "exact", "--enumeration-cap", "0"),
        ("--algorithm", "greedy", "--enumeration-cap", "-4"),
        ("--algorithm", "combined", "--seed", "4", "--epsilon", "1", "--lambda", "0.5"),
        ("--algorithm", "combined", "--seed", "4", "--epsilon", "0.5", "--lambda", "0"),
        ("--algorithm", "combined", "--seed", "4", "--epsilon", "-0.5", "--lambda", "0.5"),
        ("--algorithm", "combined", "--seed", "4", "--epsilon", "0.5", "--lambda", "nan"),
    ]
    for extra in cases:
        code, stdout, err = run_cli(
            capsys, "solve", identical_12_8, "--system", "monroe", "--k", "3", *extra
        )
        assert code == 2, extra
        assert stdout == "" and err.startswith("error:")


@pytest.mark.parametrize(
    "algorithm, system, served",
    [
        ("sample", "cc", "greedy, maxcover, exact"),
        ("combined", "cc", "greedy, maxcover, exact"),
        ("maxcover", "monroe", "greedy, sample, combined, exact"),
    ],
)
def test_solve_refuses_algorithms_the_system_lacks(identical_12_8, capsys, algorithm, system, served):
    code, stdout, err = run_cli(
        capsys, "solve", identical_12_8, "--system", system, "--k", "3", "--algorithm", algorithm
    )
    assert code == 2
    assert stdout == ""
    assert err == f"error: no {algorithm!r} solver for --system {system}; choose from {served}\n"


def test_solve_help_lists_every_algorithm(capsys):
    # Only the choices are pinned: argparse words the rest differently across versions.
    with pytest.raises(SystemExit) as info:
        main(["solve", "--help"])
    assert info.value.code == 0
    assert "{greedy,sample,combined,maxcover,exact}" in capsys.readouterr().out


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
    for text, line in (
        ("2 3\n1 1 2\n1 2 3\n", 2),  # a repeated index
        ("2 3\n1 2 3\n3 2 1\nweights: 1 1\n", 4),  # the grammar has no weights block
    ):
        path.write_text(text)
        code, stdout, err = run_cli(
            capsys, "solve", str(path), "--system", "cc", "--k", "1", "--algorithm", "greedy"
        )
        assert code == 1
        assert stdout == ""
        assert f"line {line}" in err


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


# Byte-identity corpus: every (algorithm, system) pair of `solve` on
# ic_20_8.txt = gen_impartial_culture(20, 8, seed=5) with k=4, in text and
# --json form, `exact` under the three other objectives on both systems, and
# three `ratio` runs.  Digests and exit codes were captured before the CLI
# dispatch moved to one table; the extra objectives and the over-cap `ratio`
# run before exact enumeration moved to one cost direction and the records
# to one writer.
GOLDEN_SOLVE_EXTRA = {
    "greedy": (),
    "sample": ("--seed", "3"),
    "combined": ("--seed", "3", "--epsilon", "0.5", "--lambda", "0.9"),
    "maxcover": (),
    "exact": (),
}
# Pairs without a solver: exit 2 and print nothing.  Kept independent of the
# CLI's own table on purpose.
GOLDEN_REFUSED = {("sample", "cc"), ("combined", "cc"), ("maxcover", "monroe")}
GOLDEN_RATIO = {
    "ratio-cc-gen": (
        "--gen", "ic", "--n", "9", "--m", "6", "--system", "cc", "--k", "3",
        "--algorithms", "greedy,maxcover,exact", "--trials", "3", "--seed", "13",
    ),
    "ratio-monroe-file-json": (
        "ic_20_8.txt", "--system", "monroe", "--k", "4",
        "--algorithms", "greedy,sample,combined,exact", "--trials", "2",
        "--seed", "7", "--epsilon", "0.5", "--lambda", "0.9", "--json",
    ),
    # Every trial exceeds the cap: error records and null minimum ratios.
    "ratio-cap-json": (
        "ic_20_8.txt", "--system", "monroe", "--k", "4", "--algorithms", "greedy,exact",
        "--trials", "2", "--seed", "7", "--enumeration-cap", "5", "--json",
    ),
}
GOLDEN_EXIT = {"ratio-cap-json": 1}
GOLDEN_OBJECTIVES = ("l1_inc", "min_dec", "max_inc")
GOLDEN_STDOUT_SHA256 = {
    "greedy-monroe": "c1d430c29fb2caa6330864517f809338536ac49e610ffcb242aff1851c0f768e",
    "greedy-monroe-json": "e0686f30ac6cf67920076e1af6d0d0b17bd90cf9c0968b3b844a577ac8b9d47c",
    "greedy-cc": "b2a0760ec1e05f5124ecb9501345a23ec8d7c139f609d32d7069c0606241a080",
    "greedy-cc-json": "ddc9d92f510f99270e990c1e609bc45ca3e21bd332c8c3d12cac28198bb9926f",
    "sample-monroe": "d41a16242037fe3d7626b2c671a4ae0f64587002380b724602ddc963a0469db6",
    "sample-monroe-json": "3992d85944666cb5bc8b3e767287df5c1e283432aa7bda4d484a52d511a552b6",
    "combined-monroe": "64aecf54d8743558fee4f9f97b30ae7b9a99c22793116b4cae8ac42c8169e3fa",
    "combined-monroe-json": "43a7cc35ef80eec6d9cbb0ebf3666691a212fce53a49ef319f929cd862e2f05b",
    "maxcover-cc": "469eacaabc6be9692a6981838fbdeee5c387975c981a5b48a1c1d2464a9fccc3",
    "maxcover-cc-json": "8116f696404e732157552609238b633c4201d6b9f95dfe919963a33bee09c2fa",
    "exact-monroe": "b6e03d3114b6dddb73cf7a2c1ac4033d34f168626f0cf4254512510cc20df8e9",
    "exact-monroe-json": "cd41a5ad35a425393723cac8a75a16003a747175f619bdd9964d32294753bc4d",
    "exact-cc": "0b7d6d618456f53704163cd7834cc2d889bd4d4250f64122cf1dd56a2864b47c",
    "exact-cc-json": "e23de9cdaf381eaa765276298dc25b132e1699a6115a23d95d0b34e06f80bed6",
    "exact-monroe-min_dec": "9da4ba932c5a650fb793befb466e384f9b0603b69f75694032238906fe9e40de",
    "exact-monroe-l1_inc": "09f02f038915eda5b3d73d1e55f914629774eca76f546208a391e77f551c2503",
    "exact-monroe-max_inc": "d62722661c6621a639d8e4cda3c26f64dc5a32fb32ff07921cf2040987ad0725",
    "exact-cc-l1_inc": "c379305fb5849fa319ac0f7d4d9e088c6f8a6dd6f7f43e55a37e32b92bddb24e",
    "exact-cc-min_dec": "a6b674d48f736e8b1b43cb832f5fa919dfc1cc4558d1d960190249d4a075f1b7",
    "exact-cc-max_inc": "0cc1893d7cd41854abc1b561d3d1d4e4bf57d4f98191e89c2d63aa74d57e7072",
    "ratio-cc-gen": "110b1fb6787de28da6b1a5ea06b2a4ce1d1f5e238a70551f78cb01198c8435bd",
    "ratio-monroe-file-json": "96c298d8de73e6328122a72b8b5db3650c16fad2f475fdae9113aee7b72c3963",
    "ratio-cap-json": "43630f579b7b13633764943bc62b7edc651a237b10a2b0b5dfe996d5e63bb0e6",
}
GOLDEN_CASES = [
    f"{algorithm}-{system}{form}"
    for algorithm in GOLDEN_SOLVE_EXTRA
    for system in ("monroe", "cc")
    for form in ("", "-json")
] + [
    f"exact-{system}-{objective}"
    for system in ("monroe", "cc")
    for objective in GOLDEN_OBJECTIVES
] + [*GOLDEN_RATIO]


@pytest.mark.parametrize("case", GOLDEN_CASES)
def test_cli_stdout_golden(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)  # stdout names the file, so keep the path relative
    with open("ic_20_8.txt", "w", newline="\n") as handle:
        handle.write(write_instance(gen_impartial_culture(20, 8, 5)))
    if case in GOLDEN_RATIO:
        argv = ["ratio", *GOLDEN_RATIO[case]]
    else:
        algorithm, system, *flags = case.split("-")
        argv = ["solve", "ic_20_8.txt", "--system", system, "--k", "4"]
        argv += ["--algorithm", algorithm, *GOLDEN_SOLVE_EXTRA[algorithm]]
        argv += ["--json"] if "json" in flags else []
        argv += [f"--objective={flag}" for flag in flags if flag in GOLDEN_OBJECTIVES]
        if (algorithm, system) in GOLDEN_REFUSED:
            assert run_cli(capsys, *argv)[:2] == (2, "")
            return
    code, stdout, _ = run_cli(capsys, *argv)
    assert code == GOLDEN_EXIT.get(case, 0)
    assert hashlib.sha256(stdout.encode()).hexdigest() == GOLDEN_STDOUT_SHA256[case]


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
    assert "caps:" not in err


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


def test_ratio_reports_bound_violations(capsys, monkeypatch):
    # A floor no committee reaches: greedy violates it, maxcover (whose floor
    # is a share of the oracle) does not.
    monkeypatch.setattr(cli, "greedy_cc_bound", lambda n, m, k: 1e6)
    args = ("ratio", "--gen", "ic", "--n", "9", "--m", "6", "--system", "cc", "--k", "3",
            "--algorithms", "greedy,maxcover", "--trials", "2", "--seed", "13")
    code, stdout, _ = run_cli(capsys, *args)
    assert code == 1
    *trials, greedy_summary, maxcover_summary = stdout.splitlines()
    greedy = [line for line in trials if " algorithm=greedy " in line]
    maxcover = [line for line in trials if " algorithm=maxcover " in line]
    assert len(greedy) == len(maxcover) == 2
    assert all(line.endswith(" bound=1000000.000000 bound_violated=yes") for line in greedy)
    assert not any("bound_violated" in line for line in maxcover)
    assert greedy_summary.startswith("algorithm=greedy min_ratio=")
    assert greedy_summary.endswith(" bound_violations=2")
    assert maxcover_summary.endswith(" bound_violations=0")

    code, stdout, _ = run_cli(capsys, *args, "--json")
    assert code == 1
    rows = [json.loads(line) for line in stdout.splitlines()]
    trials = {name: [r for r in rows if r.get("algorithm") == name and "trial" in r]
              for name in ("greedy", "maxcover")}
    assert [r["bound_violated"] for r in trials["greedy"]] == [True, True]
    assert [r["bound"] for r in trials["greedy"]] == [1e6, 1e6]
    assert [r["bound_violated"] for r in trials["maxcover"]] == [False, False]
    assert [r["bound_violations"] for r in rows if "min_ratio" in r] == [2, 0]


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
    ratio = ("ratio", identical_12_8, "--system", "monroe", "--k", "3", "--seed", "1")
    cases = [
        ("--algorithms", "greedy", "--epsilon", "0.5", "--lambda", "0.9"),
        ("--algorithms", "greedy,exact,greedy"),
        ("--algorithms", "greedy", "--trials", "0"),
        ("--algorithms", "greedy", "--enumeration-cap", "0"),
        ("--algorithms", "exact", "--enumeration-cap", "-1"),
        ("--algorithms", "combined", "--epsilon", "1.5", "--lambda", "0.9"),
        ("--algorithms", "greedy,combined", "--epsilon", "0.5", "--lambda", "1"),
        # Sizes of a generated profile do not apply to a path.
        ("--algorithms", "greedy", "--n", "0", "--m", "99"),
        ("--algorithms", "greedy", "--n", "5"),
    ]
    generated = ("ratio", "--system", "monroe", "--k", "1", "--algorithms", "greedy")
    cases += [
        # Out-of-range sizes of a generated profile.
        (*generated, "--gen", "ic", "--n", "0", "--m", "3", "--seed", "1"),
        (*generated, "--gen", "identical", "--n", "3", "--m", "0"),
    ]
    for extra in cases:
        argv = extra if extra[0] == "ratio" else (*ratio, *extra)
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 2, extra
        assert stdout == "" and err.startswith("error:")


def test_ratio_reuses_oracle_for_exact(identical_12_8, capsys, monkeypatch):
    import prefalloc.cli as cli

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return exact_enumeration(*args, **kwargs)

    monkeypatch.setattr(cli, "exact_enumeration", counted)
    code, _, _ = run_cli(
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
    )
    assert code == 0
    assert len(calls) == 1  # one oracle for both trials of one file, reused for the exact row


@pytest.mark.parametrize(
    "source, greedy_calls",
    [
        (("FILE",), 1),
        (("--gen", "identical", "--n", "12", "--m", "8"), 1),
        (("--gen", "ic", "--n", "12", "--m", "8"), 3),
    ],
    ids=["file", "identical", "ic"],
)
def test_ratio_reuses_deterministic_reports(
    identical_12_8, capsys, monkeypatch, source, greedy_calls
):
    import prefalloc.cli as cli
    from prefalloc import greedy_monroe, sample_once_monroe

    greedy_runs, sample_runs = [], []

    def counted(runs, solver):
        def wrapped(*args, **kwargs):
            runs.append(args)
            return solver(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(cli, "greedy_monroe", counted(greedy_runs, greedy_monroe))
    monkeypatch.setattr(
        cli, "sample_once_monroe", counted(sample_runs, sample_once_monroe)
    )
    source = tuple(identical_12_8 if arg == "FILE" else arg for arg in source)
    code, stdout, _ = run_cli(
        capsys, "ratio", *source, "--system", "monroe", "--k", "4",
        "--algorithms", "greedy,sample,exact", "--trials", "3", "--seed", "5",
    )
    assert code == 0
    assert [line.split()[0] for line in stdout.splitlines()[:9]] == [
        f"trial={t}" for t in range(3) for _ in range(3)
    ]
    # Trials on one profile share the deterministic reports; --gen ic draws
    # a profile per trial, and the randomized algorithm runs every trial.
    assert len(greedy_runs) == greedy_calls
    assert len(sample_runs) == 3


def test_ratio_shared_profile_repeats_the_cap_error_per_trial(identical_12_8, capsys):
    code, stdout, _ = run_cli(
        capsys, "ratio", identical_12_8, "--system", "monroe", "--k", "4",
        "--algorithms", "greedy", "--trials", "3", "--enumeration-cap", "5",
    )
    assert code == 1
    error = 'error="exact enumeration needs 70 committees, cap is 5"'
    assert stdout.splitlines() == [f"trial={t} {error}" for t in range(3)] + [
        "algorithm=greedy min_ratio=- bound_violations=0"
    ]


def test_solve_combined_over_cap_runs_sampling(identical_12_8, capsys):
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
        "0.5",
        "--seed",
        "1",
        "--enumeration-cap",
        "5",
    )
    assert code == 0
    # The run-count formula asks for 355 runs; the cap of 5 bounds them.
    assert "algorithm=combined_monroe[greedy+sample:5][no-guarantee]" in stdout
    assert "value=66" in stdout  # identical orders: every committee of 4 scores 66


def test_module_entry_point(tmp_path):
    out = tmp_path / "ep.txt"
    # The child imports the package under test, installed or not.
    src = os.path.dirname(os.path.dirname(prefalloc.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
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
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    assert out.read_text() == "3 2\n1 2\n1 2\n1 2\n"
