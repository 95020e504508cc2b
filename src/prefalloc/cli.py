"""Command-line front end: generate profiles, solve instances, benchmark ratios.

Reports are line-oriented ``key=value`` records on standard output (or one
JSON object per record with ``--json``); diagnostics, including wall-clock
times, go to standard error so stdout stays byte-identical across reruns of
the same flags and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from typing import List, Optional

from .core import Profile, ScoringFunction, SolveReport
from .instances import make_cc, make_monroe, parse_instance, write_instance
from .instances import gen_identical, gen_impartial_culture
from .rng import derive_seed
from .solvers import (
    DEFAULT_ENUMERATION_CAP,
    OBJECTIVES,
    EnumerationCapExceeded,
    SolverConfig,
    combined_monroe,
    exact_enumeration,
    greedy_cc,
    greedy_cc_bound,
    greedy_monroe,
    greedy_monroe_bound,
    maxcover_cc_baseline,
    sample_once_monroe,
)

RANDOMIZED = frozenset({"sample", "combined"})


class CLIError(Exception):
    """Inconsistent or missing flags; maps to exit status 2."""


def _exact(make):
    """Solver call enumerating ``make(profile, k)`` under ``--objective``."""

    def solve(args, profile: Profile, seed: Optional[int]) -> SolveReport:
        dec = args.objective.endswith("_dec")
        psf = ScoringFunction.borda_dec() if dec else ScoringFunction.borda_inc()
        config = SolverConfig(enumeration_cap=args.enumeration_cap)
        instance = make(profile, args.k)
        return exact_enumeration(instance, psf, args.objective, config=config)

    return solve


def _oracle_floor(share: float):
    return lambda profile, k, oracle: None if oracle is None else share * oracle


def _no_floor(profile: Profile, k: int, oracle: Optional[int]) -> None:
    return None


# The (algorithm, system) pairs the CLI serves; a missing pair exits 2.  Each
# entry is (solver call, floor): the call takes (args, profile, seed) and the
# floor (profile, k, oracle) gives the proven lower bound on the l1_dec value,
# or None when none applies (oracle is the exact optimum, when known).
_SOLVERS = {
    ("greedy", "monroe"): (
        lambda args, profile, seed: greedy_monroe(profile, args.k),
        lambda profile, k, oracle: (
            float(greedy_monroe_bound(profile.n, profile.m, k)) if k >= 3 else None
        ),
    ),
    ("greedy", "cc"): (
        lambda args, profile, seed: greedy_cc(profile, args.k),
        lambda profile, k, oracle: greedy_cc_bound(profile.n, profile.m, k),
    ),
    ("sample", "monroe"): (
        lambda args, profile, seed: sample_once_monroe(profile, args.k, seed),
        _no_floor,
    ),
    ("combined", "monroe"): (
        lambda args, profile, seed: combined_monroe(
            profile,
            args.k,
            SolverConfig(
                epsilon=args.epsilon,
                lambda_=args.lambda_,
                seed=seed,
                enumeration_cap=args.enumeration_cap,
            ),
        ),
        _no_floor,
    ),
    ("maxcover", "cc"): (
        lambda args, profile, seed: maxcover_cc_baseline(profile, args.k),
        _oracle_floor(1.0 - 1.0 / math.e),
    ),
    ("exact", "monroe"): (_exact(make_monroe), _oracle_floor(1.0)),
    ("exact", "cc"): (_exact(make_cc), _oracle_floor(1.0)),
}
ALGORITHMS = tuple(dict.fromkeys(name for name, _ in _SOLVERS))


def _read_profile(path: str) -> Profile:
    """Profile of a file; refuses general-instance blocks, which the Monroe
    and CC restrictions would silently drop."""
    with open(path) as handle:
        parsed = parse_instance(handle.read())
    ignored = [
        f"{block}:"
        for block in ("costs", "caps", "budget", "weights")
        if getattr(parsed, block) is not None
    ]
    if ignored:
        raise CLIError(
            f"{path} carries {' '.join(ignored)} block(s), which --system "
            "monroe/cc would ignore; remove them to solve the bare profile"
        )
    return parsed.profile


def _check_algorithms(args, names) -> None:
    """Refuse algorithms without a solver for ``--system``, flags that the
    listed algorithms cannot use or need but lack, and flag values out of
    range."""
    for name in names:
        if (name, args.system) not in _SOLVERS:
            served = ", ".join(a for a, s in _SOLVERS if s == args.system)
            raise CLIError(
                f"no {name!r} solver for --system {args.system}; choose from {served}"
            )
        if name in RANDOMIZED and args.seed is None:
            raise CLIError(f"algorithm {name!r} requires an explicit --seed")
    if "combined" in names:
        if args.epsilon is None or args.lambda_ is None:
            raise CLIError("algorithm 'combined' requires --epsilon and --lambda")
    elif args.epsilon is not None or args.lambda_ is not None:
        raise CLIError("--epsilon/--lambda apply only to algorithm 'combined'")
    for flag, value in (("--epsilon", args.epsilon), ("--lambda", args.lambda_)):
        if value is not None and not 0 < value < 1:
            raise CLIError(f"{flag} must lie strictly inside (0, 1)")
    if args.enumeration_cap < 1:
        raise CLIError("--enumeration-cap must be at least 1")


def _record_line(pairs) -> str:
    return " ".join(f"{key}={value}" for key, value in pairs if value is not None)


def _emit_solve(args, descriptor: str, report: SolveReport, bound) -> None:
    committee = sorted(report.assignment.committee)
    if args.json:
        obj = {
            "instance": descriptor,
            "system": args.system,
            "k": args.k,
            "algorithm": report.algorithm,
            "objective": report.objective,
            "value": report.value,
            "committee": committee,
            "targets": list(report.assignment.targets),
        }
        if bound is not None:
            obj["bound"] = bound
        if report.seed is not None:
            obj["seed"] = report.seed
        print(json.dumps(obj))
    else:
        pairs = [
            ("instance", descriptor),
            ("system", args.system),
            ("k", args.k),
            ("algorithm", report.algorithm),
            ("objective", report.objective),
            ("value", report.value),
            ("bound", f"{bound:.6f}" if bound is not None else None),
            ("seed", report.seed),
        ]
        print(_record_line(pairs))
        print("committee: " + " ".join(str(a) for a in committee))
        print("targets: " + " ".join(str(t) for t in report.assignment.targets))
    print(f"elapsed_ms={report.elapsed * 1000.0:.3f}", file=sys.stderr)


def cmd_gen(args) -> int:
    if args.kind == "ic":
        if args.seed is None:
            raise CLIError("gen ic requires an explicit --seed")
        profile = gen_impartial_culture(args.n, args.m, args.seed)
    else:
        if args.seed is not None:
            raise CLIError("gen identical takes no --seed")
        profile = gen_identical(args.n, args.m)
    text = write_instance(profile)
    with open(args.out, "w", newline="\n") as handle:
        handle.write(text)
    digest = hashlib.sha256(text.encode()).hexdigest()
    print(f"path={args.out} sha256={digest}")
    return 0


def cmd_solve(args) -> int:
    _check_algorithms(args, [args.algorithm])
    if args.algorithm not in RANDOMIZED and args.seed is not None:
        raise CLIError(f"--seed is meaningless for --algorithm {args.algorithm}")
    if args.algorithm != "exact" and args.objective != "l1_dec":
        raise CLIError(f"--algorithm {args.algorithm} supports only --objective l1_dec")
    profile = _read_profile(args.path)
    if not 1 <= args.k <= profile.m:
        raise CLIError(f"--k must lie in 1..{profile.m} for this profile")
    solver, floor = _SOLVERS[args.algorithm, args.system]
    report = solver(args, profile, args.seed)
    bound = floor(profile, args.k, None) if args.objective == "l1_dec" else None
    _emit_solve(args, args.path, report, bound)
    return 0


def _report(reports: dict, name: str, args, profile: Profile, seed) -> SolveReport:
    """``name``'s report on ``profile``, from ``reports`` if it holds one;
    otherwise the solver runs and, unless randomized, its report is kept."""
    if name in reports:
        return reports[name]
    report = _SOLVERS[name, args.system][0](args, profile, seed)
    if name not in RANDOMIZED:
        reports[name] = report
    return report


def cmd_ratio(args) -> int:
    if (args.path is None) == (args.gen is None):
        raise CLIError("ratio needs exactly one of an instance path or --gen")
    if args.gen is not None and (args.n is None or args.m is None):
        raise CLIError("ratio with --gen requires --n and --m")
    if args.gen == "ic" and args.seed is None:
        raise CLIError("ratio --gen ic requires an explicit --seed")
    algorithms = args.algorithms
    if len(set(algorithms)) != len(algorithms):
        raise CLIError("--algorithms names an algorithm more than once")
    if args.trials < 1:
        raise CLIError("--trials must be at least 1")
    _check_algorithms(args, algorithms)
    seed = args.seed if args.seed is not None else 0

    base_profile = None
    descriptor = None
    if args.path is not None:
        base_profile = _read_profile(args.path)
        descriptor = args.path
    elif args.gen == "identical":
        base_profile = gen_identical(args.n, args.m)
        descriptor = f"identical(n={args.n},m={args.m})"

    min_ratio = {name: None for name in algorithms}
    violations = {name: 0 for name in algorithms}
    failed = False
    # Deterministic reports by algorithm, kept while trials share a profile.
    reports: dict = {}
    for trial in range(args.trials):
        trial_seed = derive_seed(seed, trial)
        if base_profile is not None:
            profile = base_profile
            trial_descriptor = descriptor
        else:
            profile_seed = derive_seed(trial_seed, 0)
            profile = gen_impartial_culture(args.n, args.m, profile_seed)
            trial_descriptor = f"ic(n={args.n},m={args.m},seed={profile_seed})"
            reports = {}
        if not 1 <= args.k <= profile.m:
            raise CLIError(f"--k must lie in 1..{profile.m} for this profile")
        try:
            exact = _report(reports, "exact", args, profile, None)
        except EnumerationCapExceeded as exc:
            failed = True
            if args.json:
                print(json.dumps({"trial": trial, "error": str(exc)}))
            else:
                print(f'trial={trial} error="{exc}"')
            continue
        oracle = exact.value
        for index, name in enumerate(algorithms):
            floor = _SOLVERS[name, args.system][1]
            run_seed = derive_seed(trial_seed, 1 + index)
            report = _report(reports, name, args, profile, run_seed)
            ratio = report.value / oracle if oracle else 1.0
            bound = floor(profile, args.k, oracle)
            violated = bound is not None and report.value < bound - 1e-9
            if violated:
                violations[name] += 1
                failed = True
            if min_ratio[name] is None or ratio < min_ratio[name]:
                min_ratio[name] = ratio
            if args.json:
                obj = {
                    "trial": trial,
                    "instance": trial_descriptor,
                    "algorithm": name,
                    "value": report.value,
                    "oracle": oracle,
                    "ratio": ratio,
                }
                if bound is not None:
                    obj["bound"] = bound
                    obj["bound_violated"] = violated
                print(json.dumps(obj))
            else:
                pairs = [
                    ("trial", trial),
                    ("instance", trial_descriptor),
                    ("algorithm", name),
                    ("value", report.value),
                    ("oracle", oracle),
                    ("ratio", f"{ratio:.6f}"),
                    ("bound", f"{bound:.6f}" if bound is not None else None),
                    ("bound_violated", "yes" if violated else None),
                ]
                print(_record_line(pairs))
    for name in algorithms:
        if args.json:
            print(
                json.dumps(
                    {
                        "algorithm": name,
                        "min_ratio": min_ratio[name],
                        "bound_violations": violations[name],
                    }
                )
            )
        else:
            ratio_text = (
                f"{min_ratio[name]:.6f}" if min_ratio[name] is not None else "-"
            )
            print(
                f"algorithm={name} min_ratio={ratio_text} "
                f"bound_violations={violations[name]}"
            )
    return 1 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prefalloc",
        description="Budgeted preference-allocation solvers (Monroe / CC)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a profile file")
    gen.add_argument("kind", choices=("ic", "identical"))
    gen.add_argument("--n", type=int, required=True, help="agent count")
    gen.add_argument("--m", type=int, required=True, help="alternative count")
    gen.add_argument("--seed", type=int, help="RNG seed (required for ic)")
    gen.add_argument("--out", required=True, help="output path")
    gen.set_defaults(func=cmd_gen)

    solve = sub.add_parser("solve", help="solve one instance")
    solve.add_argument("path", help="profile file")
    solve.add_argument("--system", choices=("monroe", "cc"), required=True)
    solve.add_argument("--k", type=int, required=True, help="committee size")
    solve.add_argument("--algorithm", choices=ALGORITHMS, required=True)
    solve.add_argument("--objective", choices=OBJECTIVES, default="l1_dec")
    solve.add_argument("--epsilon", type=float)
    solve.add_argument("--lambda", dest="lambda_", type=float)
    solve.add_argument("--seed", type=int)
    solve.add_argument(
        "--enumeration-cap", type=int, default=DEFAULT_ENUMERATION_CAP
    )
    solve.add_argument("--json", action="store_true")
    solve.set_defaults(func=cmd_solve)

    ratio = sub.add_parser(
        "ratio", help="compare algorithms against the exact oracle"
    )
    ratio.add_argument("path", nargs="?", help="profile file (or use --gen)")
    ratio.add_argument("--gen", choices=("ic", "identical"))
    ratio.add_argument("--n", type=int, help="agent count for --gen")
    ratio.add_argument("--m", type=int, help="alternative count for --gen")
    ratio.add_argument("--system", choices=("monroe", "cc"), required=True)
    ratio.add_argument("--k", type=int, required=True)
    ratio.add_argument(
        "--algorithms",
        required=True,
        type=lambda s: tuple(s.split(",")),
        help="comma-separated list from: " + ", ".join(ALGORITHMS),
    )
    ratio.add_argument("--trials", type=int, default=1)
    ratio.add_argument("--seed", type=int)
    ratio.add_argument("--epsilon", type=float)
    ratio.add_argument("--lambda", dest="lambda_", type=float)
    ratio.add_argument(
        "--enumeration-cap", type=int, default=DEFAULT_ENUMERATION_CAP
    )
    ratio.add_argument("--json", action="store_true")
    ratio.set_defaults(func=cmd_ratio, objective="l1_dec")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EnumerationCapExceeded, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
