"""prefalloc benchmark: closed-loop workloads with end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload monroe_sample --seed 0 --seconds 30 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end metrics;
``--trace 1`` times it the same way, then runs a fixed number of requests
again untraced and traced, and prints the per-layer metrics.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See METRICS.md for what each metric means and which layer change
should move it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ".perfbench_work"
DEFAULT_SEED = 0
MIN_REQUESTS = 100
SETUP_REPS = 5

from tracer import Tracer
from workloads import WORKLOADS, CheckFailed

clock = time.perf_counter


def run_loop(call, seconds=None, count=None, tracer=None, between=None):
    """Closed loop, one client: the next request starts when the last returns.

    Runs ``count`` requests, or else until requests have taken ``seconds``
    and at least ``MIN_REQUESTS`` have completed.  ``between(busy_s)`` runs
    before each request, off the clock.  Returns ``[(i, latency, result)]``
    and the summed request time; a raised exception is the request's result.
    """
    records = []
    busy = 0.0
    i = 0
    while i < count if count is not None else (i < MIN_REQUESTS or busy < seconds):
        if between:
            between(busy)
        root = tracer.open_request(i) if tracer else None
        t0 = clock()
        try:
            result = call(i)
        except Exception as exc:  # a failed request; the loop keeps going
            result = exc
        t1 = clock()
        if tracer:
            tracer.close_request(root)
        records.append((i, t1 - t0, result))
        busy += t1 - t0
        i += 1
    return records, busy


class Ledger:
    """Checks request results, against pins for the default seed and against
    the first result for the same input otherwise."""

    def __init__(self, workload, pins) -> None:
        self.workload = workload
        self.pins = pins
        self.first: dict = {}
        self.quality: dict = {}
        self.attempted = 0
        self.failures: list = []

    def add(self, records) -> None:
        wl = self.workload
        self.attempted += len(records)
        for i, _, result in records:
            d = i % wl.distinct
            if isinstance(result, Exception):
                self.failures.append(f"request {i}: raised {result!r}")
                continue
            try:
                fingerprint = wl.fingerprint(result)
                if d in self.first:
                    # Same input, same output as a result already verified.
                    if fingerprint != self.first[d]:
                        self.failures.append(f"request {i}: output differs from request {d}")
                    continue
                quality = wl.check(i, result)
            except (CheckFailed, ValueError, KeyError) as exc:
                self.failures.append(f"request {i}: {exc}")
                continue
            key = fingerprint[0]
            if self.pins is not None and key != self.pins["keys"][d]:
                self.failures.append(f"request {i}: {key!r} differs from pinned {self.pins['keys'][d]!r}")
                continue
            self.first[d] = fingerprint
            self.quality[d] = quality

    def outputs_digest(self):
        """SHA-256 over every distinct input's fingerprint, targets included."""
        if len(self.first) < self.workload.distinct:
            return None
        outputs = [self.first[d] for d in range(self.workload.distinct)]
        return hashlib.sha256(json.dumps(outputs).encode()).hexdigest()


def _total_s(records):
    return sum(lat for _, lat, _ in records)


def _p50_ms(latencies):
    return statistics.median(latencies) * 1000.0


def end_to_end(records, busy_s, setup_s, ledger, workload):
    latencies = [lat for _, lat, _ in records]
    return {
        "setup_s": (setup_s, "s"),
        "req_per_s": (len(records) / busy_s, "1/s"),
        "req_p90_ms": (statistics.quantiles(latencies, n=10)[-1] * 1000.0, "ms"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
        "mean_ratio": (statistics.fmean(ledger.quality.values()) if ledger.quality else 0.0, "ratio"),
    }


def per_layer(summary, startup_ms, overhead_frac):
    calls, self_s = summary["calls"], summary["self_s"]
    metrics = {}
    for name in ("matching.match_monroe_l1", "matching.match_egalitarian", "matching.match_cc"):
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (self_s[name], "s")
    pairs = summary["flow_pairs"]
    metrics["matching.flow_us_per_pair"] = (summary["flow_s"] / pairs * 1e6 if pairs else 0.0, "us")
    enum = "solvers.exact_enumeration"
    committees = summary["committees"]
    metrics[f"{enum}.calls"] = (calls[enum], "count")
    metrics[f"{enum}.self_s"] = (self_s[enum], "s")
    metrics[f"{enum}.committees"] = (committees, "count")
    metrics[f"{enum}.matchings_per_committee"] = (
        summary["enumeration_matchings"] / committees if committees else 0.0, "ratio")
    for name in ("sample_once_monroe", "greedy_monroe", "greedy_cc", "maxcover_cc_baseline"):
        metrics[f"solvers.{name}.self_s"] = (self_s[f"solvers.{name}"], "s")
    metrics["core.score.calls"] = (calls["core.score"], "count")
    metrics["core.validate_assignment.calls"] = (calls["core.validate_assignment"], "count")
    metrics["core.validate_assignment.self_s"] = (self_s["core.validate_assignment"], "s")
    metrics["core.metrics.self_s"] = (
        sum(self_s[f"core.{f}"] for f in ("metric_l1", "metric_extreme", "metric_min_delta")), "s")
    for name in ("gen_impartial_culture", "write_instance", "parse_instance"):
        metrics[f"instances.{name}.self_s"] = (self_s[f"instances.{name}"], "s")
    metrics["rng.sample_distinct.calls"] = (calls["rng.sample_distinct"], "count")
    metrics["cli.main.self_s"] = (sum((s for k, s in self_s.items() if k.startswith("cli.")), 0.0), "s")
    metrics["cli.startup_ms"] = (startup_ms, "ms")
    metrics["trace.overhead_frac"] = (overhead_frac, "frac")
    request_s = summary["request_s"]
    metrics["trace.unattributed_frac"] = (
        summary["unattributed_s"] / request_s if request_s else 0.0, "frac")
    return metrics


def traced_pass(workload, ledger, records):
    """Same requests untraced and traced, back to back; returns the per-layer
    metrics and the spans.  The ledger holds traced outputs to the timed
    phase's outputs for the same inputs."""
    count = min(workload.trace_requests, len(records))
    reference, _ = run_loop(workload.traced_request, count=count)
    ledger.add(reference)
    tracer = Tracer()
    with tracer:
        workload.setup()
        traced, _ = run_loop(workload.traced_request, count=count, tracer=tracer)
    ledger.add(traced)
    overhead = _total_s(traced) / _total_s(reference) - 1.0
    startup_ms = 0.0
    if workload.traced_request != workload.request:
        startup_ms = _p50_ms([lat for _, lat, _ in records]) - _p50_ms(
            [lat for _, lat, _ in reference])
    return per_layer(tracer.summary(), startup_ms, overhead), tracer.spans


def load_pins(name, seed):
    if seed != DEFAULT_SEED:
        return None
    with open(Path(__file__).resolve().parent / "pins.json") as handle:
        return json.load(handle)["workloads"][name]


def import_package():
    """Import prefalloc from this checkout's ``src``; returns (module, seconds)."""
    if not (SRC / "prefalloc" / "__init__.py").is_file():
        raise SystemExit(f"error: no prefalloc package under {SRC}")
    sys.path.insert(0, str(SRC))
    start = clock()
    import prefalloc
    import prefalloc.cli  # noqa: F401  (the greedy_cli traced pass calls it)
    elapsed = clock() - start
    if Path(prefalloc.__file__).resolve().parent != SRC / "prefalloc":
        raise SystemExit(f"error: imported prefalloc from {prefalloc.__file__}, not {SRC}")
    return prefalloc, elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    pa, import_s = import_package()
    os.makedirs(WORKDIR, exist_ok=True)
    workload = WORKLOADS[args.workload](pa, args.seed, os.path.join(WORKDIR, args.workload))
    pins = load_pins(args.workload, args.seed)

    # Set-up repeats at even steps through the timed phase, so its median
    # samples several moments of a host whose speed drifts over seconds.
    setup_times = []

    def setup_when_due(busy_s):
        if len(setup_times) < SETUP_REPS and busy_s >= len(setup_times) * args.seconds / SETUP_REPS:
            start = clock()
            workload.setup()
            setup_times.append(clock() - start)

    records, busy_s = run_loop(workload.request, seconds=args.seconds, between=setup_when_due)
    setup_s = import_s + statistics.median(setup_times)
    ledger = Ledger(workload, pins)
    ledger.add(records)

    if args.trace:
        metrics, spans = traced_pass(workload, ledger, records)
        trace_path = os.path.join(WORKDIR, f"spans-{args.workload}-{args.seed}.json")
        with open(trace_path, "w") as handle:
            json.dump(spans, handle)
    else:
        metrics = end_to_end(records, busy_s, setup_s, ledger, workload)

    digest = ledger.outputs_digest()
    pinned = pins["outputs_sha256"] if pins else None
    status = "no pin for this seed" if pinned is None else (
        "matches pin" if digest == pinned else "differs from pin")
    print(f"{args.workload}: {len(records)} timed requests, outputs sha256 {digest} ({status})")
    # Reported, not gated: on a host that switches between speed levels the
    # median jumps between them from run to run (see METRICS.md).
    print(f"  request p50 = {_p50_ms([lat for _, lat, _ in records])} ms")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    for failure in ledger.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    failed = len(ledger.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
