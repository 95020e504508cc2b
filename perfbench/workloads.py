"""The three benchmark workloads.

Each workload is a closed loop with one client: ``request(i)`` runs the i-th
request and returns its raw result.  ``fingerprint(result)`` extracts
``(pin_key, targets)`` cheaply; ``check(i, result)`` verifies the result and
returns its quality, value / reference.  Request ``i`` reuses the inputs of
request ``i % distinct``, so every run covers the same ``distinct`` inputs and
per-seed figures such as ``mean_ratio`` do not depend on machine speed.

All inputs derive from the workload seed through ``derive_seed``; the program
only ever sees the generated profiles.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass


class CheckFailed(Exception):
    """A request's output broke an invariant."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _check_report(pa, instance, psf, report, objective: str) -> None:
    """The assignment is feasible and ``report.value`` re-evaluates exactly."""
    violations = pa.validate_assignment(instance, psf, report.assignment)
    _require(not violations, f"{report.algorithm}: infeasible: {violations}")
    if objective == "min_dec":
        value = pa.metric_extreme(instance, psf, report.assignment, "min")
    else:
        value = pa.metric_l1(instance, psf, report.assignment)
    _require(
        value == report.value,
        f"{report.algorithm}: reported {report.value}, recomputed {value}",
    )


def _check_balanced(targets, n: int, k: int) -> None:
    """Monroe: exactly k members, each carrying floor(n/k) or ceil(n/k) agents."""
    loads: dict = {}
    for t in targets:
        loads[t] = loads.get(t, 0) + 1
    _require(len(loads) == k, f"committee has {len(loads)} members, expected {k}")
    lo, hi = n // k, -(-n // k)
    _require(
        all(lo <= c <= hi for c in loads.values()),
        f"unbalanced loads {sorted(loads.values())}, expected {lo}..{hi}",
    )


def _check_optimal_balanced(profile, targets, k: int) -> None:
    """Certificate that a Borda Monroe matching is optimal for its committee.

    Moving agent a from member i to member j costs pos(a, j) - pos(a, i).
    The matching is optimal iff no cycle of moves (which keeps every load) and
    no path of moves from a member above floor(n/k) to one below ceil(n/k)
    has negative total cost.  Bellman-Ford on the members plus one slack node
    finds either; it runs on any seed, so no pin is needed.
    """
    positions = profile.positions
    members = sorted(set(targets))
    index = {a: x for x, a in enumerate(members)}
    slack = len(members)
    move = [[None] * (slack + 1) for _ in range(slack + 1)]
    loads = [0] * slack
    for agent, alt in enumerate(targets):
        i = index[alt]
        loads[i] += 1
        row = positions[agent]
        for j, other in enumerate(members):
            cost = row[other - 1] - row[alt - 1]
            if j != i and (move[i][j] is None or cost < move[i][j]):
                move[i][j] = cost
    lo, hi = profile.n // k, -(-profile.n // k)
    # A path of moves closes into a cycle through the slack node: slack -> i
    # where i may lose an agent, j -> slack where j may gain one.
    for i in range(slack):
        if loads[i] > lo:
            move[slack][i] = 0
        if loads[i] < hi:
            move[i][slack] = 0
    edges = [(i, j, c) for i, row in enumerate(move) for j, c in enumerate(row) if c is not None]
    dist = [0] * (slack + 1)
    for _ in range(slack + 1):
        changed = False
        for i, j, c in edges:
            if dist[i] + c < dist[j]:
                dist[j] = dist[i] + c
                changed = True
        if not changed:
            return
    raise CheckFailed("matching is not optimal: an improving exchange exists")


def _check_best_member(profile, targets) -> None:
    """CC: every agent sits with its best-ranked committee member."""
    members = set(targets)
    for agent, alt in enumerate(targets):
        row = profile.positions[agent]
        _require(row[alt - 1] == min(row[a - 1] for a in members),
                 f"agent {agent} is not with its best committee member")


def _ideal(profile) -> int:
    """Borda total when every agent gets its first choice; bounds any optimum."""
    return (profile.m - 1) * profile.n


class MonroeSample:
    """One ``sample_once_monroe`` per request over four reused IC profiles."""

    name = "monroe_sample"
    distinct = 100
    trace_requests = 40
    n, m, k, profiles_count = 150, 30, 10, 4

    def __init__(self, pa, seed: int, workdir: str) -> None:
        self.pa, self.seed = pa, seed
        self.psf = pa.ScoringFunction.borda_dec()
        self.seeds = [pa.derive_seed(seed, self.profiles_count + d) for d in range(self.distinct)]

    def setup(self) -> None:
        pa = self.pa
        self.profiles = [
            pa.gen_impartial_culture(self.n, self.m, pa.derive_seed(self.seed, j))
            for j in range(self.profiles_count)
        ]
        # Users reuse a profile across samples, so its lazy position table is
        # built once, here, and not inside a timed request.
        for j in range(self.profiles_count):
            self.request(j)
        self.instances = [pa.make_monroe(p, self.k) for p in self.profiles]

    def request(self, i: int):
        d = i % self.distinct
        profile = self.profiles[d % self.profiles_count]
        return self.pa.sample_once_monroe(profile, self.k, self.seeds[d])

    traced_request = request

    def fingerprint(self, report):
        return report.value, report.assignment.targets

    def check(self, i: int, report) -> float:
        d = i % self.distinct
        profile = self.profiles[d % self.profiles_count]
        _check_report(self.pa, self.instances[d % self.profiles_count], self.psf, report, "l1_dec")
        _check_balanced(report.assignment.targets, self.n, self.k)
        _check_optimal_balanced(profile, report.assignment.targets, self.k)
        _require(report.seed == self.seeds[d], f"report carries seed {report.seed}")
        return report.value / _ideal(profile)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class OracleSweep:
    """One ``prefalloc ratio``-style trial per request: exact CC and exact
    Monroe oracles, with the approximations checked against them."""

    name = "oracle_sweep"
    distinct = 100
    trace_requests = 30
    cc_n, cc_m, cc_k = 60, 12, 4
    mon_n, mon_m, mon_k = 12, 7, 3
    # Order of the values in a trial's pin key.
    REPORTS = ("cc_exact", "greedy_cc", "maxcover", "monroe_exact", "monroe_exact_min",
               "greedy_monroe", "sample_once")

    def __init__(self, pa, seed: int, workdir: str) -> None:
        self.pa, self.seed = pa, seed
        self.psf = pa.ScoringFunction.borda_dec()

    def setup(self) -> None:
        pa = self.pa
        self.trials = []
        for d in range(self.distinct):
            trial_seed = pa.derive_seed(self.seed, d)
            self.trials.append((
                pa.gen_impartial_culture(self.cc_n, self.cc_m, pa.derive_seed(trial_seed, 0)),
                pa.gen_impartial_culture(self.mon_n, self.mon_m, pa.derive_seed(trial_seed, 1)),
                pa.derive_seed(trial_seed, 2),
            ))
        self.request(0)

    def request(self, i: int):
        pa, psf = self.pa, self.psf
        cc_stored, mon_stored, sample_seed = self.trials[i % self.distinct]
        # Fresh Profile objects: `prefalloc ratio` builds a new profile per
        # trial, so its lazy caches are paid inside the request.
        cc = pa.Profile(n=cc_stored.n, m=cc_stored.m, orders=cc_stored.orders)
        mon = pa.Profile(n=mon_stored.n, m=mon_stored.m, orders=mon_stored.orders)
        cc_instance = pa.make_cc(cc, self.cc_k)
        mon_instance = pa.make_monroe(mon, self.mon_k)
        return {
            "cc_exact": pa.exact_enumeration(cc_instance, psf, "l1_dec"),
            "greedy_cc": pa.greedy_cc(cc, self.cc_k),
            "maxcover": pa.maxcover_cc_baseline(cc, self.cc_k),
            "monroe_exact": pa.exact_enumeration(mon_instance, psf, "l1_dec"),
            "monroe_exact_min": pa.exact_enumeration(mon_instance, psf, "min_dec"),
            "greedy_monroe": pa.greedy_monroe(mon, self.mon_k),
            "sample_once": pa.sample_once_monroe(mon, self.mon_k, sample_seed),
        }

    traced_request = request

    def fingerprint(self, reports):
        return ([reports[key].value for key in self.REPORTS],
                [reports[key].assignment.targets for key in self.REPORTS])

    def check(self, i: int, reports) -> float:
        pa, psf = self.pa, self.psf
        cc, mon, _ = self.trials[i % self.distinct]
        cc_instance = pa.make_cc(cc, self.cc_k)
        mon_instance = pa.make_monroe(mon, self.mon_k)
        for key in ("cc_exact", "greedy_cc", "maxcover"):
            _check_report(pa, cc_instance, psf, reports[key], "l1_dec")
        for key in ("cc_exact", "maxcover"):
            _check_best_member(cc, reports[key].assignment.targets)
        for key in ("monroe_exact", "greedy_monroe", "sample_once"):
            _check_report(pa, mon_instance, psf, reports[key], "l1_dec")
            _check_balanced(reports[key].assignment.targets, self.mon_n, self.mon_k)
        for key in ("monroe_exact", "sample_once"):
            _check_optimal_balanced(mon, reports[key].assignment.targets, self.mon_k)
        _check_report(pa, mon_instance, psf, reports["monroe_exact_min"], "min_dec")
        _check_balanced(reports["monroe_exact_min"].assignment.targets, self.mon_n, self.mon_k)

        v = {key: reports[key].value for key in self.REPORTS}
        cc_oracle, mon_oracle = v["cc_exact"], v["monroe_exact"]
        _require(v["greedy_cc"] >= pa.greedy_cc_bound(self.cc_n, self.cc_m, self.cc_k) - 1e-9,
                 f"greedy_cc {v['greedy_cc']} below its proven floor")
        _require(v["maxcover"] >= (1.0 - 1.0 / math.e) * cc_oracle - 1e-9,
                 f"maxcover {v['maxcover']} below (1-1/e) * {cc_oracle}")
        _require(v["greedy_monroe"] >= pa.greedy_monroe_bound(self.mon_n, self.mon_m, self.mon_k),
                 f"greedy_monroe {v['greedy_monroe']} below its proven floor")
        _require(cc_oracle >= max(v["greedy_cc"], v["maxcover"]),
                 f"CC oracle {cc_oracle} beaten by an approximation")
        _require(mon_oracle >= max(v["greedy_monroe"], v["sample_once"]),
                 f"Monroe oracle {mon_oracle} beaten by an approximation")
        best_min = max(
            pa.metric_extreme(mon_instance, psf, reports[key].assignment, "min")
            for key in ("monroe_exact", "greedy_monroe", "sample_once")
        )
        _require(v["monroe_exact_min"] >= best_min,
                 f"min_dec oracle {v['monroe_exact_min']} beaten by a feasible {best_min}")
        return (v["greedy_cc"] / cc_oracle + v["maxcover"] / cc_oracle
                + v["greedy_monroe"] / mon_oracle + v["sample_once"] / mon_oracle) / 4

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass(frozen=True)
class CliRun:
    returncode: int
    stdout: str
    stderr: str


# What the installed `prefalloc` console script runs.
CLI_ENTRY = "import sys; from prefalloc.cli import main; sys.exit(main())"


class GreedyCli:
    """One ``prefalloc solve FILE --system monroe --k 10 --algorithm greedy``
    child process per request, from interpreter start to exit."""

    name = "greedy_cli"
    distinct = 4
    trace_requests = 20
    n, m, k = 1000, 40, 10

    def __init__(self, pa, seed: int, workdir: str) -> None:
        self.pa, self.seed = pa, seed
        self.psf = pa.ScoringFunction.borda_dec()
        # Relative to the checkout root, so stdout (which names the file)
        # does not depend on where the checkout lives.
        self.paths = [os.path.join(workdir, f"profile_{f}.txt") for f in range(self.distinct)]
        env = dict(os.environ)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPATH"] = os.path.abspath("src")
        env["PYTHONPYCACHEPREFIX"] = os.path.abspath(os.path.join(workdir, "pycache"))
        self.env = env

    def argv(self, i: int):
        return ["solve", self.paths[i % self.distinct], "--system", "monroe",
                "--k", str(self.k), "--algorithm", "greedy"]

    def setup(self) -> None:
        pa = self.pa
        os.makedirs(os.path.dirname(self.paths[0]), exist_ok=True)
        self.profiles = []
        for f, path in enumerate(self.paths):
            profile = pa.gen_impartial_culture(self.n, self.m, pa.derive_seed(self.seed, f))
            with open(path, "w", newline="\n") as handle:
                handle.write(pa.write_instance(profile))
            self.profiles.append(profile)
        # Compiles the package's bytecode cache, as an installed package has.
        warm = self.request(0)
        if warm.returncode != 0:
            raise RuntimeError(f"warm-up CLI run failed: {warm.stderr.strip()}")

    def request(self, i: int) -> CliRun:
        proc = subprocess.run(
            [sys.executable, "-c", CLI_ENTRY, *self.argv(i)],
            capture_output=True, text=True, env=self.env, timeout=120,
        )
        return CliRun(proc.returncode, proc.stdout, proc.stderr)

    def traced_request(self, i: int) -> CliRun:
        """``main(argv)`` in this process, so the tracer sees the CLI layer."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.pa.cli.main(self.argv(i))
        return CliRun(code, out.getvalue(), err.getvalue())

    def fingerprint(self, run: CliRun):
        """The stdout digest is pinned; exit status and stderr shape must repeat."""
        stderr_ok = run.stderr.startswith("elapsed_ms=") and run.stderr.count("\n") == 1
        return hashlib.sha256(run.stdout.encode()).hexdigest(), (run.returncode, stderr_ok)

    def check(self, i: int, run: CliRun) -> float:
        pa, psf = self.pa, self.psf
        f = i % self.distinct
        profile = self.profiles[f]
        _require(run.returncode == 0, f"exit {run.returncode}: {run.stderr.strip()}")
        _require(self.fingerprint(run)[1][1], f"unexpected stderr {run.stderr!r}")
        lines = run.stdout.split("\n")
        _require(len(lines) == 4 and lines[3] == "", f"unexpected stdout layout {run.stdout[:200]!r}")
        record = dict(pair.split("=", 1) for pair in lines[0].split(" "))
        value = int(record["value"])
        targets = tuple(int(t) for t in lines[2][len("targets: "):].split())
        committee = sorted(set(targets))
        # Byte-level layout, so a format change fails on every seed, not
        # only against the default seed's pinned digests.
        _require(list(record) == ["instance", "system", "k", "algorithm", "objective", "value", "bound"],
                 f"unexpected record keys {list(record)}")
        _require(lines[1] == "committee: " + " ".join(map(str, committee)), "committee line layout")
        _require(lines[2] == "targets: " + " ".join(map(str, targets)), "targets line layout")
        _check_balanced(targets, self.n, self.k)
        instance = pa.make_monroe(profile, self.k)
        assignment = pa.Assignment(targets)
        _require(not pa.validate_assignment(instance, psf, assignment), "infeasible targets")
        recomputed = pa.metric_l1(instance, psf, assignment)
        _require(recomputed == value, f"printed value {value}, recomputed {recomputed}")
        _require(value >= pa.greedy_monroe_bound(self.n, self.m, self.k),
                 f"value {value} below the greedy floor")
        library = pa.greedy_monroe(profile, self.k).assignment.targets
        _require(targets == library, "CLI and library greedy_monroe disagree")
        return value / _ideal(profile)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS = {wl.name: wl for wl in (MonroeSample, OracleSweep, GreedyCli)}
