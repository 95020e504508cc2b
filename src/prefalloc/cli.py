"""Command-line front end: generate profiles, solve instances, benchmark ratios.

Reports are line-oriented ``key=value`` records on standard output (or one
JSON object per record with ``--json``); diagnostics, including wall-clock
times, go to standard error so stdout stays byte-identical across reruns of
the same flags and seed.
"""

from __future__ import annotations

import argparse
import math
import sys

from .core import Profile, ScoringFunction, SolveReport
from .instances import make_cc, make_monroe, parse_instance, write_instance
from .instances import gen_identical, gen_impartial_culture
from .rng import derive_seed
from .solvers import (
    DEFAULT_ENUMERATION_CAP,
    OBJECTIVES,
    EnumerationCapExceeded,
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
ALGORITHMS = ("greedy", "sample", "combined", "maxcover", "exact")
# The algorithms each --system serves; any other exits 2.
_SERVED = {
    "monroe": ("greedy", "sample", "combined", "exact"),
    "cc": ("greedy", "maxcover", "exact"),
}


class CLIError(Exception):
    """Inconsistent or missing flags; maps to exit status 2."""


def _solve(name: str, args, profile: Profile, seed: int | None) -> SolveReport:
    """``name``'s report on ``profile`` for ``--system``; ``seed`` seeds the
    randomized algorithms.  Refuses a ``--k`` outside ``1..m`` first."""
    if not 1 <= args.k <= profile.m:
        raise CLIError(f"--k must lie in 1..{profile.m} for this profile")
    if name == "exact":
        dec = args.objective.endswith("_dec")
        psf = ScoringFunction.borda_dec() if dec else ScoringFunction.borda_inc()
        make = make_monroe if args.system == "monroe" else make_cc
        return exact_enumeration(make(profile, args.k), psf, args.objective, args.enumeration_cap)
    if name == "greedy":
        greedy = greedy_monroe if args.system == "monroe" else greedy_cc
        return greedy(profile, args.k)
    if name == "sample":
        return sample_once_monroe(profile, args.k, seed)
    if name == "combined":
        return combined_monroe(
            profile, args.k, epsilon=args.epsilon, lambda_=args.lambda_, seed=seed,
            enumeration_cap=args.enumeration_cap,
        )
    return maxcover_cc_baseline(profile, args.k)


def _floor(name: str, system: str, profile: Profile, k: int, oracle: int | None) -> float | None:
    """The proven floor of ``name``'s l1_dec value, or None when none applies.
    ``oracle`` is the exact optimum, or None when unknown: ``solve`` knows
    none, so ``exact``, the one algorithm that takes other objectives, gets
    no floor there."""
    if name == "greedy" and system == "cc":
        return greedy_cc_bound(profile.n, profile.m, k)
    if name == "greedy":
        return float(greedy_monroe_bound(profile.n, profile.m, k)) if k >= 3 else None
    share = {"maxcover": 1.0 - 1.0 / math.e, "exact": 1.0}.get(name)
    return None if share is None or oracle is None else share * oracle


def _read_profile(path: str) -> Profile:
    """Profile of a file; refuses general-instance blocks, which the Monroe
    and CC restrictions would silently drop."""
    with open(path) as handle:
        parsed = parse_instance(handle.read())
    ignored = [
        f"{block}:"
        for block in ("costs", "caps", "budget")
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
    served = _SERVED[args.system]
    for name in names:
        if name not in served:
            raise CLIError(
                f"no {name!r} solver for --system {args.system}; "
                f"choose from {', '.join(served)}"
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


def _emit(args, fields) -> None:
    """Print one record from its ``(key, value)`` fields: a JSON object under
    ``--json``, else one line of ``key=value`` pairs and then one
    ``key: items`` line per list field.  In text a float prints with six
    decimals, None as ``-``, True as ``yes`` and False not at all."""
    if args.json:
        import json

        print(json.dumps(dict(fields)))
        return
    pairs, lines = [], []
    for key, value in fields:
        if isinstance(value, list):
            lines.append(f"{key}: " + " ".join(map(str, value)))
        elif value is not False:
            pairs.append(f"{key}={_text(value)}")
    print(" ".join(pairs), *lines, sep="\n")


def _text(value) -> str:
    """A record value's text; a string with whitespace in it is written as
    a JSON string literal, so that the record still splits on spaces."""
    if value is None:
        return "-"
    if value is True:
        return "yes"
    if isinstance(value, str) and any(c.isspace() for c in value):
        import json

        return json.dumps(value)
    return f"{value:.6f}" if isinstance(value, float) else str(value)


def cmd_gen(args) -> int:
    import hashlib

    if min(args.n, args.m) < 1:
        raise CLIError("--n and --m must be at least 1")
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
    print(f"path={_text(args.out)} sha256={digest}")
    return 0


def cmd_solve(args) -> int:
    _check_algorithms(args, [args.algorithm])
    if args.algorithm not in RANDOMIZED and args.seed is not None:
        raise CLIError(f"--seed is meaningless for --algorithm {args.algorithm}")
    if args.algorithm != "exact" and args.objective != "l1_dec":
        raise CLIError(f"--algorithm {args.algorithm} supports only --objective l1_dec")
    profile = _read_profile(args.path)
    report = _solve(args.algorithm, args, profile, args.seed)
    bound = _floor(args.algorithm, args.system, profile, args.k, None)
    fields = [
        ("instance", args.path),
        ("system", args.system),
        ("k", args.k),
        ("algorithm", report.algorithm),
        ("objective", report.objective),
        ("value", report.value),
        ("committee", sorted(report.assignment.committee)),
        ("targets", list(report.assignment.targets)),
    ]
    for key, value in (("bound", bound), ("seed", report.seed)):
        if value is not None:
            fields.append((key, value))
    _emit(args, fields)
    print(f"elapsed_ms={report.elapsed * 1000.0:.3f}", file=sys.stderr)
    return 0


def _report(reports: dict, name: str, args, profile: Profile, seed) -> SolveReport:
    """``name``'s report on ``profile``, from ``reports`` if it holds one;
    otherwise the solver runs and, unless randomized, its report is kept."""
    if name in reports:
        return reports[name]
    report = _solve(name, args, profile, seed)
    if name not in RANDOMIZED:
        reports[name] = report
    return report


def cmd_ratio(args) -> int:
    if (args.path is None) == (args.gen is None):
        raise CLIError("ratio needs exactly one of an instance path or --gen")
    if (args.n is None, args.m is None) != (args.gen is None,) * 2:
        raise CLIError("--n and --m go with --gen: both with it, neither with a path")
    if args.gen is not None and min(args.n, args.m) < 1:
        raise CLIError("--n and --m must be at least 1")
    if args.gen == "ic" and args.seed is None:
        raise CLIError("ratio --gen ic requires an explicit --seed")
    algorithms = args.algorithms
    if len(set(algorithms)) != len(algorithms):
        raise CLIError("--algorithms names an algorithm more than once")
    if args.trials < 1:
        raise CLIError("--trials must be at least 1")
    _check_algorithms(args, algorithms)
    seed = args.seed if args.seed is not None else 0

    shared = None  # (profile, description) when every trial reads one profile
    if args.path is not None:
        shared = _read_profile(args.path), args.path
    elif args.gen == "identical":
        shared = gen_identical(args.n, args.m), f"identical(n={args.n},m={args.m})"

    min_ratio = {name: None for name in algorithms}
    violations = {name: 0 for name in algorithms}
    failed = False
    # Deterministic reports by algorithm, kept while trials share a profile.
    reports: dict = {}
    for trial in range(args.trials):
        trial_seed = derive_seed(seed, trial)
        if shared is None:
            profile_seed = derive_seed(trial_seed, 0)
            profile = gen_impartial_culture(args.n, args.m, profile_seed)
            where = f"ic(n={args.n},m={args.m},seed={profile_seed})"
            reports = {}
        else:
            profile, where = shared
        try:
            oracle = _report(reports, "exact", args, profile, None).value
        except EnumerationCapExceeded as exc:
            failed = True
            _emit(args, [("trial", trial), ("error", str(exc))])
            continue
        for index, name in enumerate(algorithms):
            run_seed = derive_seed(trial_seed, 1 + index)
            report = _report(reports, name, args, profile, run_seed)
            ratio = report.value / oracle if oracle else 1.0
            bound = _floor(name, args.system, profile, args.k, oracle)
            violated = bound is not None and report.value < bound - 1e-9
            if violated:
                violations[name] += 1
                failed = True
            if min_ratio[name] is None or ratio < min_ratio[name]:
                min_ratio[name] = ratio
            fields = [
                ("trial", trial),
                ("instance", where),
                ("algorithm", name),
                ("value", report.value),
                ("oracle", oracle),
                ("ratio", ratio),
            ]
            if bound is not None:
                fields += [("bound", bound), ("bound_violated", violated)]
            _emit(args, fields)
    for name in algorithms:
        _emit(
            args,
            [
                ("algorithm", name),
                ("min_ratio", min_ratio[name]),
                ("bound_violations", violations[name]),
            ],
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

    # Flags that `solve` and `ratio` share.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--system", choices=("monroe", "cc"), required=True)
    common.add_argument("--k", type=int, required=True, help="committee size")
    common.add_argument("--epsilon", type=float)
    common.add_argument("--lambda", dest="lambda_", type=float)
    common.add_argument("--seed", type=int)
    common.add_argument(
        "--enumeration-cap", type=int, default=DEFAULT_ENUMERATION_CAP
    )
    common.add_argument("--json", action="store_true")

    solve = sub.add_parser("solve", parents=[common], help="solve one instance")
    solve.add_argument("path", help="profile file")
    solve.add_argument("--algorithm", choices=ALGORITHMS, required=True)
    solve.add_argument("--objective", choices=OBJECTIVES, default="l1_dec")
    solve.set_defaults(func=cmd_solve)

    ratio = sub.add_parser(
        "ratio", parents=[common], help="compare algorithms against the exact oracle"
    )
    ratio.add_argument("path", nargs="?", help="profile file (or use --gen)")
    ratio.add_argument("--gen", choices=("ic", "identical"))
    ratio.add_argument("--n", type=int, help="agent count for --gen")
    ratio.add_argument("--m", type=int, help="alternative count for --gen")
    ratio.add_argument(
        "--algorithms",
        required=True,
        type=lambda s: tuple(s.split(",")),
        help="comma-separated list from: " + ", ".join(ALGORITHMS),
    )
    ratio.add_argument("--trials", type=int, default=1)
    ratio.set_defaults(func=cmd_ratio, objective="l1_dec")
    return parser


def main(argv: list[str] | None = None) -> int:
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
