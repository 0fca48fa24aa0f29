#!/usr/bin/env python3
"""qdense benchmark: three seeded closed-loop workloads, one caller each.

    python3 perfbench/run.py --workload survey-mixed --seed 1 --seconds 30 --trace 0

Run it from the root of a qdense checkout; it imports the package from
./src and nothing else.  With --trace 0 it measures the end-to-end metrics;
with --trace 1 it times an untraced pass, replays the same requests with
every public qdense function wrapped in a span, and reports per-layer
metrics.  Every output is checked.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from array import array
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import workloads
from tracer import REQUEST, Tracer, deciding_rule, summarize

ROOT = Path.cwd()
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"

SETUP_PROBES = 7  # fresh processes timed for setup_s; the median is reported

STATUSES = ("Dense", "NotDense", "Inconclusive")

END_TO_END = (
    ("setup_s", "s"),
    ("forms_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("success_share", "ratio"),
)

# Layer shares and acceptance conditions written down before measuring.
PREDICTED = {
    "survey-mixed": "oracle >= 0.95 (R6 enumerate_values >= 99% in the probe)",
    "decide-conclusive": "oracle = 0; forms ~0.87 (is_anisotropic_mod_p)",
    "oracle-check": "oracle ~0.99: quotient map + coverage ~0.68, "
                    "enumerate_values ~0.32; denseness ~0.003",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def import_qdense():
    if not (SRC / "qdense" / "__init__.py").is_file():
        raise RuntimeError(f"no qdense sources under {SRC}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import qdense
    import qdense.cli  # noqa: F401  (binds qdense.cli for the workloads)

    if SRC.resolve() not in Path(qdense.__file__).resolve().parents:
        raise RuntimeError(f"qdense imported from {qdense.__file__}, not {SRC}")
    return qdense


def call_cli(qdense, argv):
    """One in-process `qdense` command; returns (exit code, stdout).  An
    exception escaping the CLI is reported as exit code None, a failure."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = qdense.cli.main(argv)
        except Exception:
            code = None
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# Workloads.  `execute` is the timed request; `check` returns the number of
# failed forms and a label for the histogram printed after the run.
# ---------------------------------------------------------------------------


class SurveyMixed:
    name = "survey-mixed"
    batches = 6
    warmup = 0  # a batch costs seconds of R6 oracle work; caches are negligible

    def __init__(self, qdense, seed, workdir):
        self.qdense = qdense
        self.requests = workloads.survey_requests(seed, workdir, self.batches)

    def execute(self, req):
        return call_cli(self.qdense, ["survey", "--input", req["path"], "--json"])

    def check(self, req, out, labels):
        code, text = out
        try:
            rows = json.loads(text) if code == 0 else None
        except ValueError:
            rows = None
        if rows is None or len(rows) != len(req["rows"]):
            return req["forms"]
        failed = 0
        for row, query in zip(rows, req["rows"]):
            labels[row["status"] or "error"] += 1
            if (
                row["error"]
                or (row["n"], row["p"]) != (query["n"], query["p"])
                or row["coeffs"] != ",".join(map(str, query["coeffs"]))
                or row["status"] not in STATUSES
                or (row["status"] == "NotDense" and not row["certificate"])
            ):
                failed += 1
        return failed

    @staticmethod
    def shape(labels):
        """The R6 share, which should stay comparable from seed to seed."""
        total = sum(labels.values())
        share = labels["Inconclusive"] / total if total else 0.0
        note = f"R6 (Inconclusive) share {share:.3f} of {total} forms"
        if not 0.30 <= share <= 0.55:
            note += " -- WARNING: outside 0.30..0.55, the mix has drifted"
        return note


class DecideConclusive:
    name = "decide-conclusive"
    pool = 5000

    def __init__(self, qdense, seed, workdir):
        self.qdense = qdense
        self.requests = workloads.decide_requests(seed, self.pool)
        for req in self.requests:
            req["form"] = qdense.DiagonalForm(req["n"], req["coeffs"])
        # One untimed pass fills the residues LRU caches.
        self.warmup = len(self.requests)

    def execute(self, req):
        try:
            verdict = self.qdense.decide(req["form"], req["p"])
            return verdict, self.qdense.verdict_to_dict(verdict)
        except Exception as exc:  # a raising request is a failed request
            return exc, None

    def check(self, req, out, labels):
        verdict, data = out
        if data is None:
            labels["exception"] += 1
            return 1
        labels[f"{req['family']}:{deciding_rule(verdict)}"] += 1
        if verdict.status not in req["expect"]:
            return 1
        try:
            return int(self.qdense.verdict_from_dict(data) != verdict)
        except Exception:  # a dict that does not load back is a failure too
            return 1

    @staticmethod
    def shape(labels):
        bad = sum(v for k, v in labels.items() if k.endswith(":R6"))
        return f"Inconclusive verdicts: {bad}" + (
            " -- WARNING: the family mix is no longer all conclusive" if bad else "")


class OracleCheck:
    name = "oracle-check"
    pool = 600
    warmup = 6  # the oracle keeps no cache; this loads the CLI code paths

    def __init__(self, qdense, seed, workdir):
        self.qdense = qdense
        self.requests = workloads.oracle_requests(seed, self.pool)

    def execute(self, req):
        return call_cli(self.qdense, req["argv"])

    def check(self, req, out, labels):
        code, text = out
        labels[f"exit {code}"] += 1
        if code != 0:  # 3 means the oracle refuted the engine's certificate
            return 1
        # R1 is complete for binary forms, so the engine must be conclusive.
        return int("engine verdict: Dense" not in text
                   and "engine verdict: NotDense" not in text)

    @staticmethod
    def shape(labels):
        return "exit codes: " + ", ".join(f"{k}: {v}" for k, v in sorted(labels.items()))


WORKLOADS = {w.name: w for w in (SurveyMixed, DecideConclusive, OracleCheck)}


# ---------------------------------------------------------------------------
# Closed loop
# ---------------------------------------------------------------------------


class Pass:
    """Latencies and outcomes of one pass over the workload's requests."""

    def __init__(self):
        self.latency = array("d")
        self.attempted = 0
        self.failed = 0
        self.labels = Counter()


def run_pass(work, start, seconds=None, count=None, execute=None):
    """Send requests one after another from index `start`, for `seconds` of
    wall time or exactly `count` requests.  Checks run between requests,
    outside the timed span."""
    execute = execute or work.execute
    reqs = work.requests
    result = Pass()
    deadline = perf_counter() + seconds if seconds is not None else None
    i = start
    while (count is None or i - start < count) and (
        deadline is None or perf_counter() < deadline
    ):
        req = reqs[i % len(reqs)]
        t0 = perf_counter()
        out = execute(req)
        result.latency.append(perf_counter() - t0)
        result.attempted += req["forms"]
        result.failed += work.check(req, out, result.labels)
        i += 1
    return result


def percentile(sorted_values, q):
    """Linear interpolation between closest ranks, q in [0, 1]."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# Set-up time: fresh processes, each importing qdense and building inputs.
# ---------------------------------------------------------------------------


def measure_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed with exit code {code}")
        times.append(elapsed)
    return statistics.median(times)


def build(args, qdense):
    workdir = WORKDIR / f"inputs-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[args.workload](qdense, args.seed, workdir), workdir


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def end_to_end(args, work, setup_s, rss_mb, p: Pass) -> dict:
    lat = sorted(x * 1e3 for x in p.latency)
    values = {
        "setup_s": setup_s,
        "forms_per_s": p.attempted / sum(p.latency),
        "latency_p50_ms": percentile(lat, 0.50),
        "latency_p90_ms": percentile(lat, 0.90),
        "latency_p99_ms": percentile(lat, 0.99),
        "peak_rss_mb": rss_mb,
        "success_share": 1 - p.failed / p.attempted,
    }
    unit_of_request = "survey call" if args.workload == "survey-mixed" else "form"
    print(f"{work.name} seed={args.seed}: {len(lat)} requests "
          f"(latency per {unit_of_request}), {p.attempted} forms, "
          f"{p.failed} failed (failed_share {p.failed / p.attempted:.6f})")
    for name, unit in END_TO_END:
        print(f"  {name:16s} {values[name]:14.6f} {unit}")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(args, work, untraced: Pass, traced: Pass, metrics: dict) -> dict:
    base = sum(untraced.latency[: len(traced.latency)])
    metrics["trace.overhead"] = sum(traced.latency) / base - 1 if base else 0.0
    print(f"{work.name} seed={args.seed}: traced {len(traced.latency)} requests, "
          f"tracing overhead {metrics['trace.overhead']:+.1%}")
    print("  layer shares of traced request time (self time):")
    for layer in ("cli", "denseness", "forms", "residues", "padic", "oracle", "bench"):
        print(f"    {layer:10s} {metrics[f'share.{layer}']:.4f}")
    print(f"  predicted: {PREDICTED[work.name]}")
    for warning in isolation_warnings(work.name, metrics):
        print(f"  WARNING: {warning}")
    return {name: {"value": value, "unit": layer_unit(name)}
            for name, value in metrics.items()}


def isolation_warnings(name, m):
    if name == "survey-mixed" and m["share.oracle"] < 0.95:
        yield (f"oracle share {m['share.oracle']:.3f} < 0.95: survey-mixed no "
               "longer isolates the R6 oracle")
    if name == "decide-conclusive" and (
        m["oracle.enumerate_values.calls"] or m["oracle.quotient_coverage.calls"]
    ):
        yield "the oracle ran on decide-conclusive, which should bypass it"
    if name == "oracle-check" and (
        m["oracle.quotient_coverage.self_s"] <= m["oracle.enumerate_values.time_s"]
    ):
        yield ("quotient map time no longer exceeds enumerate_values time on "
               "oracle-check")


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith("share.") or name.endswith(("_per_point", "_per_pair",
                                                   ".overhead")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        qdense = import_qdense()
    except (RuntimeError, ImportError) as exc:
        return fail(str(exc))
    work, workdir = build(args, qdense)
    try:
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        return measure(args, qdense, work)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, qdense, work) -> int:
    setup_s = None if args.trace else measure_setup(args)
    warm = run_pass(work, 0, count=work.warmup)
    if args.trace:
        untraced = run_pass(work, work.warmup, seconds=args.seconds / 2)
        tracer = Tracer()
        request_span = tracer.wrap(REQUEST, work.execute)

        def execute(req):
            tracer.request += 1
            return request_span(req)

        tracer.install()
        try:
            traced = run_pass(work, work.warmup, seconds=args.seconds / 2,
                              count=len(untraced.latency), execute=execute)
        finally:
            tracer.uninstall()
        spans_file = WORKDIR / f"spans-{work.name}-seed{args.seed}.csv.gz"
        tracer.write(spans_file)
        print(f"spans: {len(tracer)} written to {spans_file.relative_to(ROOT)}")
        metrics = per_layer(args, work, untraced, traced, summarize(tracer))
        passes = (warm, untraced, traced)
    else:
        timed = run_pass(work, work.warmup, seconds=args.seconds)
        # Read before the report sorts the latencies into a list of its own.
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = end_to_end(args, work, setup_s, rss_mb, timed)
        passes = (warm, timed)
    labels = sum((p.labels for p in passes), Counter())
    print("  outcomes: " + ", ".join(f"{k}={v}" for k, v in sorted(labels.items())))
    print(f"  shape: {work.shape(labels)}")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
