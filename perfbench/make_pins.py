"""Regenerate pins.json: per-request values for the default seed.

Run from the repository root at a commit whose outputs are trusted:

    python3 perfbench/make_pins.py

It also recomputes the exact Monroe values of the first CROSSCHECK_TRIALS
``oracle_sweep`` trials with the brute-force oracle in ``tests/oracles.py``
(slow: about half a minute per trial).
"""

from __future__ import annotations

import json
import os
import sys

import run

CROSSCHECK_TRIALS = 2


def main() -> int:
    os.chdir(run.ROOT)
    pa, _ = run.import_package()
    pins = {"seed": run.DEFAULT_SEED, "workloads": {}}
    for name, cls in run.WORKLOADS.items():
        workload = cls(pa, run.DEFAULT_SEED, os.path.join(run.WORKDIR, name))
        workload.setup()
        records, _ = run.run_loop(workload.request, count=workload.distinct)
        ledger = run.Ledger(workload, None)
        ledger.add(records)
        if ledger.failures:
            raise SystemExit(f"{name}: {ledger.failures[0]}")
        pins["workloads"][name] = {
            "keys": [ledger.first[d][0] for d in range(workload.distinct)],
            "outputs_sha256": ledger.outputs_digest(),
        }
        print(f"{name}: pinned {workload.distinct} requests")
        if name == "oracle_sweep":
            crosscheck(pa, workload, pins["workloads"][name]["keys"])
    with open(os.path.join(os.path.dirname(__file__), "pins.json"), "w") as handle:
        handle.write('{"seed": %d, "workloads": {\n' % pins["seed"])
        handle.write(",\n".join(
            f"{json.dumps(name)}: {json.dumps(entry)}" for name, entry in pins["workloads"].items()))
        handle.write("\n}}\n")
    return 0


def crosscheck(pa, workload, keys) -> None:
    sys.path.insert(0, str(run.ROOT / "tests"))
    from oracles import best_committee_value

    psf = pa.ScoringFunction.borda_dec()
    order = workload.REPORTS
    for d in range(CROSSCHECK_TRIALS):
        _, mon, _ = workload.trials[d]
        for objective, key in (("l1_dec", "monroe_exact"), ("min_dec", "monroe_exact_min")):
            brute = best_committee_value(mon, psf, workload.mon_k, "monroe", objective)
            pinned = keys[d][order.index(key)]
            if brute != pinned:
                raise SystemExit(f"trial {d} {objective}: pinned {pinned}, brute force {brute}")
            print(f"trial {d} {objective}: pinned {pinned} equals brute force")


if __name__ == "__main__":
    sys.exit(main())
