"""The repository's benchmark: four workloads, run as a user runs them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (it builds nothing but the optional
native engine, from ``src/``).  Every pass is a fresh process with a
scrubbed environment (no inherited ``REPRO_*`` or ``PYTHON*``
variables), started and reaped by this script, which measures wall
time, set-up time and peak RSS from outside.  Workloads:

* ``suite-native`` — ``python -m repro.experiments --set all --no-cache
  --jobs 1`` with ``REPRO_ENGINE=native``;
* ``suite-python`` — the headline table only (``--only headline``), same
  flags, ``REPRO_ENGINE=python``;
* ``suite-cached`` — ``--set all`` against a fresh empty cache dir (cold
  pass, spills every artifact), then warm reruns against that dir;
* ``serve-mixed`` — the in-process ``repro.serve`` server under a closed
  loop of 2 attested tenants issuing the default 7-entry catalog mix.

Each run repeats its workload until ``--seconds`` is used up (at least
twice) and reports medians; ``warm_s`` is the median rerun against a
filled cache dir on ``suite-cached``, and equals ``wall_s`` on the other
workloads, which keep nothing between processes.  Every rendered table
is checked against the committed per-table digests (``digests.json``,
identical for both engine backends); every served reply must MAC-verify
and every distinct payload must equal ``RequestSpec.offline_payload()``.
``--trace 1``
alternates untraced and traced passes; the traced ones wrap each
layer's public functions from outside (``tracer.py``) and give the
per-layer metrics.  The last stdout line is the JSON result.

Only ``serve-mixed`` takes its input from ``--seed`` (the order of its
requests); the suite workloads run the paper's fixed workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"
DIGESTS = BENCH_DIR / "digests.json"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench"
RUN_DEADLINE_S = 170.0  # a pass still running then is killed
DEADLINE = time.monotonic() + RUN_DEADLINE_S

SUITE_FLAGS = ["--no-cache", "--jobs", "1"]
ALL_TABLES = ["--set", "all"]
HEADLINE_TABLE = ["--only", "headline"]
WARM_RERUNS = 4  # per suite-cached cold pass
SERVE_TENANTS = 2
SERVE_REQUESTS = 294  # 42 of each of the 7 mix entries

SECTION_SEP = "\n\n" + "=" * 72 + "\n\n"
FOOTER = re.compile(r"\[(\S+) completed in [0-9.]+s\]$")
PAPER_VALUE = re.compile(r"^\S+: (-?[0-9.]+)  \(paper: (-?[0-9.]+)\)$")

SPANS = ("build.dnn_trace", "build.graph.rmat", "build.graph.csr",
         "build.graph.trace", "build.seed_index", "build.genome",
         "build.video", "columns", "price.glue", "price.engine",
         "perf_model", "cache.read", "cache.write", "render",
         "serve.handshake", "serve.seal", "serve.unseal", "serve.compute",
         "serve.encode")
CALL_COUNTS = ("columns", "perf_model", "price.engine", "cache.read",
               "cache.write", "serve.compute")
COUNTERS = ("cache.read.retries", "cache.write.bytes", "serve.seal.bytes")
SERVER_STATS = ("computed", "warm_hits", "coalesced", "batched_requests",
                "busy")


class BenchError(Exception):
    """The benchmark could not measure (as opposed to a wrong output)."""


@dataclass
class Pass:
    """One fresh-process run of the program."""

    wall_s: float
    setup_s: float
    rss_mb: float
    record: dict
    stdout: str
    done_s: list[float] = field(default_factory=list)


@dataclass
class Tally:
    """Operations checked and failed, across every pass of a run."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)


# -- processes -----------------------------------------------------------

def clean_env(engine: str | None) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("REPRO_", "PYTHON"))}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_NATIVE_CACHE"] = str(WORK / "native")
    env["TMPDIR"] = str(WORK / "tmp")
    if engine is not None:
        env["REPRO_ENGINE"] = engine
    return env


def run_child(env: dict, mode: str, *extra: str, trace: bool = False) -> Pass:
    """Start ``child.py`` and reap it with ``wait4`` for its own rusage."""
    out = WORK / "pass.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(CHILD)] + (["--trace"] if trace else [])
    cmd += [mode, str(out), *extra]
    with open(WORK / "pass.out", "w+") as stdout, \
            open(WORK / "pass.err", "w+") as stderr:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, env=env,
                                cwd=ROOT)
        watchdog = threading.Timer(
            max(1.0, DEADLINE - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no pass running
            proc.kill()
            os.waitpid(proc.pid, 0)
            proc.returncode = -9
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
        end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout.seek(0)
        text = stdout.read()
        if proc.returncode != 0:
            stderr.seek(0)
            tail = stderr.read()[-2000:]
            raise BenchError(f"{mode} pass exited {proc.returncode}:\n{tail}")
    with open(out) as f:
        record = json.load(f)
    setup = record.get("setup_mark", end) - start
    done = [mark - start for mark in record.get("done_marks", [])]
    return Pass(end - start, setup, usage.ru_maxrss / 1024.0, record, text,
                done)


def prepare(env: dict, backend: str | None) -> str:
    """Untimed: bytecode caches and the native build (once per machine
    for a user), and the backend check."""
    for sub in ("native", "tmp"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    record = run_child(env, "prep").record
    if backend is not None and record["backend"] != backend:
        raise BenchError(f"engine backend is {record['backend']!r}, not "
                         f"{backend!r}: {record['native_error']}")
    return record["backend"]


def repeat(seconds: float, minimum: int, unit) -> None:
    """Call ``unit`` at least ``minimum`` times, then while another call
    of median length still fits in ``seconds``."""
    start = time.monotonic()
    durations: list[float] = []
    while True:
        began = time.monotonic()
        unit()
        durations.append(time.monotonic() - began)
        elapsed = time.monotonic() - start
        if (len(durations) >= minimum
                and elapsed + statistics.median(durations) > seconds):
            return


# -- output checks -------------------------------------------------------

def split_tables(report: str) -> dict[str, str]:
    """Rendered report → {table id: body}, footer lines stripped."""
    tables = {}
    for section in report.rstrip("\n").split(SECTION_SEP):
        body, _, footer = section.rpartition("\n\n")
        match = FOOTER.match(footer)
        if match is None:
            raise ValueError(f"unparseable report section ending {footer!r}")
        tables[match.group(1)] = body
    return tables


def table_digests(report: str) -> dict[str, str]:
    return {tid: hashlib.sha256(body.encode()).hexdigest()
            for tid, body in split_tables(report).items()}


def headline_err_pp(report: str) -> float:
    """Mean |model − paper| over the headline table's paper values."""
    body = split_tables(report)["headline"]
    gaps = [abs(float(m.group(1)) - float(m.group(2)))
            for m in map(PAPER_VALUE.match, body.splitlines()) if m]
    return statistics.fmean(gaps)


def check_suite(p: Pass, expected: dict[str, str], backend: str | None,
                tally: Tally) -> None:
    tally.attempted += len(expected)
    if backend is not None and p.record["backend"] != backend:
        tally.fail(len(expected), f"ran on {p.record['backend']} engine")
        return
    try:
        got = table_digests(p.stdout)
    except ValueError as exc:
        tally.fail(len(expected), str(exc))
        return
    bad = [tid for tid, digest in expected.items() if got.get(tid) != digest]
    if bad:
        tally.fail(len(bad), f"table digests differ: {bad}")
    if set(got) - set(expected):
        tally.fail(0, f"unexpected tables: {sorted(set(got) - set(expected))}")


def check_serve(p: Pass, offline: dict[str, str], tally: Tally) -> None:
    rec = p.record
    tally.attempted += rec["sent"]
    if rec["ok"] < rec["sent"]:
        tally.fail(rec["sent"] - rec["ok"],
                   f"{rec['sent'] - rec['ok']} of {rec['sent']} requests not "
                   f"ok ({rec['busy']} busy, {len(rec['exceptions'])} raised, "
                   f"{rec['lost']} lost) {rec['exceptions'][:3]}")
    if rec["mac_verified"] < rec["answered"]:
        tally.fail(rec["answered"] - rec["mac_verified"],
                   "replies without a verified MAC")
    for label, digests in rec["payload_digests"].items():
        if digests != [offline.get(label)]:
            tally.fail(rec["ok_by_label"][label],
                       f"{label} payload differs from offline pricing")


# -- metrics -------------------------------------------------------------

def percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median_of(passes: list[Pass], value) -> float:
    return statistics.median(value(p) for p in passes)


def end_to_end(cold: list[Pass], reruns: list[Pass], every: list[Pass],
               throughput, latencies) -> dict[str, float]:
    return {
        "wall_s": median_of(cold, lambda p: p.wall_s),
        "setup_s": median_of(every, lambda p: p.setup_s),
        "warm_s": median_of(reruns, lambda p: p.wall_s),
        "peak_rss_mb": median_of(cold, lambda p: p.rss_mb),
        "throughput_rps": median_of(cold, throughput),
        "latency_p50_ms": median_of(
            cold, lambda p: percentile(latencies(p), 0.50)),
        "latency_p95_ms": median_of(
            cold, lambda p: percentile(latencies(p), 0.95)),
    }


def layer_metrics(unit: list[Pass]) -> dict[str, float]:
    """Per-layer totals of one traced unit (one or more passes)."""
    self_s: dict[str, float] = {}
    calls: dict[str, float] = {}
    counts: dict[str, float] = {}
    cache: dict[str, float] = {}
    server: dict[str, float] = {}
    for p in unit:
        trace = p.record["trace"]
        for into, key in ((self_s, "self_s"), (calls, "calls"),
                          (counts, "counts")):
            for name, value in trace[key].items():
                into[name] = into.get(name, 0) + value
        for name, value in p.record["cache"].items():
            cache[name] = cache.get(name, 0) + value
        for name, value in p.record.get("server_stats", {}).items():
            server[name] = server.get(name, 0) + value
    wall = sum(p.wall_s for p in unit)
    imports = sum(p.record["import_s"] for p in unit)
    m = {"import_s": imports}
    m.update({f"{span}_s": self_s.get(span, 0.0) for span in SPANS})
    m.update({f"{span}.calls": calls.get(span, 0) for span in CALL_COUNTS})
    m.update({name: counts.get(name, 0) for name in COUNTERS})
    price_s = self_s.get("price.glue", 0.0) + self_s.get("price.engine", 0.0)
    accesses = counts.get("price.accesses", 0)
    m["price_s"] = price_s
    m["price.calls"] = counts.get("price.batches", 0)
    m["price.ns_per_access"] = price_s / accesses * 1e9 if accesses else 0.0
    m.update({f"cache.{name}": value for name, value in cache.items()})
    m.update({f"serve.{name}": server.get(name, 0) for name in SERVER_STATS})
    ok = server.get("ok", 0)
    m["serve.warm_hit_ratio"] = server.get("warm_hits", 0) / ok if ok else 0.0
    m["unattributed_s"] = wall - imports - sum(self_s.values())
    native = all(p.record["backend"] == "native" for p in unit)
    m["backend.native"] = 1 if native else 0
    return m


def layer_result(untraced: list[list[Pass]],
                 traced: list[list[Pass]]) -> dict[str, float]:
    """Median per-layer metrics over traced units, plus the overhead of
    tracing (traced minus untraced median unit wall time)."""
    units = [layer_metrics(unit) for unit in traced]
    metrics = {name: statistics.median(u[name] for u in units)
               for name in units[0]}
    walls = [[sum(p.wall_s for p in unit) for unit in group]
             for group in (traced, untraced)]
    metrics["tracing_overhead_s"] = (statistics.median(walls[0])
                                     - statistics.median(walls[1]))
    return metrics


# -- workloads -----------------------------------------------------------

def suite_run(args, engine: str | None, tables: list[str],
              cache_dir: bool) -> tuple[dict, Tally, str]:
    env = clean_env(engine)
    backend = prepare(env, engine)
    digests = json.loads(DIGESTS.read_text())["tables"]
    ids = ["headline"] if tables == HEADLINE_TABLE else list(digests)
    expected = {tid: digests[tid] for tid in ids}
    tally = Tally()
    flags = tables + (["--jobs", "1"] if cache_dir else SUITE_FLAGS)

    def one_pass(trace: bool, extra: list[str]) -> Pass:
        p = run_child(env, "suite", *(["--"] + flags + extra), trace=trace)
        check_suite(p, expected, engine, tally)
        return p

    def cycle(trace: bool, warm: int) -> list[Pass]:
        """A cold pass and then ``warm`` reruns (suite-cached: against
        one fresh cache dir, removed afterwards)."""
        if not cache_dir:
            return [one_pass(trace, [])]
        tmp = tempfile.mkdtemp(prefix="cache-", dir=WORK / "tmp")
        try:
            extra = ["--cache-dir", tmp]
            return [one_pass(trace, extra) for _ in range(1 + warm)]
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    units: list[list[Pass]] = []
    if args.trace:
        traced: list[list[Pass]] = []

        def pair() -> None:
            units.append(cycle(False, 1))
            traced.append(cycle(True, 1))
        repeat(args.seconds, 1, pair)
        metrics = layer_result(units, traced)
        metrics["model.headline_err_pp"] = (
            headline_err_pp(traced[0][0].stdout) if "headline" in expected
            else 0.0)
        return metrics, tally, backend

    repeat(args.seconds, 2,
           lambda: units.append(cycle(False, WARM_RERUNS)))
    every = [p for unit in units for p in unit]
    if cache_dir:
        cold = [unit[0] for unit in units]
        reruns = [p for unit in units for p in unit[1:]]
    else:  # nothing persists between passes: every rerun is cold again
        cold = reruns = every
    metrics = end_to_end(cold, reruns, every,
                         lambda p: len(p.done_s) / p.wall_s,
                         lambda p: [t * 1e3 for t in p.done_s])
    return metrics, tally, backend


def serve_run(args) -> tuple[dict, Tally, str]:
    env = clean_env(None)
    backend = prepare(env, None)
    offline = run_child(env, "offline").record["payload_digests"]
    tally = Tally()
    flags = ["--seed", str(args.seed), "--requests", str(SERVE_REQUESTS),
             "--tenants", str(SERVE_TENANTS)]

    def one_pass(trace: bool) -> list[Pass]:
        p = run_child(env, "serve", *flags, trace=trace)
        check_serve(p, offline, tally)
        return [p]

    units: list[list[Pass]] = []
    traced: list[list[Pass]] = []
    if args.trace:
        def pair() -> None:
            units.append(one_pass(False))
            traced.append(one_pass(True))
        repeat(args.seconds, 1, pair)
        metrics = layer_result(units, traced)
        metrics["model.headline_err_pp"] = 0.0
    else:
        repeat(args.seconds, 2, lambda: units.append(one_pass(False)))
        every = [unit[0] for unit in units]
        metrics = end_to_end(
            every, every, every,
            lambda p: p.record["answered"] / p.record["load_s"],
            lambda p: p.record["latencies_ms"])
    return metrics, tally, backend


WORKLOADS = {
    "suite-native": lambda a: suite_run(a, "native", ALL_TABLES, False),
    "suite-python": lambda a: suite_run(a, "python", HEADLINE_TABLE, False),
    "suite-cached": lambda a: suite_run(a, None, ALL_TABLES, True),
    "serve-mixed": serve_run,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so a running pass is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    try:
        metrics, tally, backend = WORKLOADS[args.workload](args)
        if set(metrics) != set(units):
            raise BenchError(f"metrics differ from {SPEC.name}: "
                             f"{sorted(set(metrics) ^ set(units))}")
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload}: engine backend {backend}, "
          f"{tally.attempted} checked, {tally.failed} failed")
    print(json.dumps({
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
