"""CLI: run all experiments and print (or save) the report.

Usage::

    python -m repro.experiments                  # paper figures, full size
    python -m repro.experiments --quick          # reduced workloads
    python -m repro.experiments --only fig13     # a single experiment
    python -m repro.experiments --set ablations  # design-choice sweeps
    python -m repro.experiments --set extras     # beyond-the-figures studies
    python -m repro.experiments --jobs 4         # 4 queue workers drain the graph
    python -m repro.experiments --cache-dir .repro-cache   # persistent cache
    python -m repro.experiments --no-cache       # regenerate every trace
    python -m repro.experiments --faults 'compute:crash:0.2@seed=7'  # chaos
    python -m repro.experiments -o EXPERIMENTS_RUN.txt

    python -m repro.experiments cache stats [--json]   # census (+ quarantine)
    python -m repro.experiments cache gc --max-age 7d --max-bytes 2G
    python -m repro.experiments cache verify [--json]  # re-hash artifacts

``--cache-dir`` (or the ``REPRO_CACHE_DIR`` environment variable)
attaches the trace cache's disk tier, so a second invocation restores
every artifact from disk and computes nothing.

``--jobs N`` (N >= 2) drains the selected experiments' artifact graph —
every (workload × scheme) pair, the functional fig16/fig19 pipelines
and the ablation/extra tables — through the file-lock work queue (see
:mod:`repro.sim.queue`) before the drivers run: N local processes, and
any other ``--jobs`` invocations on machines sharing the cache dir,
claim jobs cooperatively, and every participant renders tables
byte-identical to a serial run.  Without a cache dir, or under
``--no-cache``, the drain runs in a temporary directory removed
afterwards.  Jobs that keep failing are quarantined after repeated
attempts (dependents skipped, exit code 3) instead of deadlocking the
drain.  ``--jobs 1`` (the default) runs the drivers serially.

``--faults SPEC`` (or ``REPRO_FAULTS``) installs the deterministic
fault-injection plan from :mod:`repro.sim.faults` — comma-separated
``point:mode:rate[:param]`` rules plus ``@seed=N`` — to exercise the
retry/quarantine/degraded-mode machinery reproducibly.

``cache {stats,gc,verify}`` manages the shared cache directory's
lifecycle (see :mod:`repro.sim.gc`): ``gc`` mark-and-sweeps unreachable
artifacts (the live set is the registered suite's whole graph, quick and
full mode) under age/size policies and cleans orphaned queue locks;
``verify`` re-hashes every artifact against its stored content digest.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time

from repro.experiments.ablations import ABLATIONS, run_ablation
from repro.experiments.extras import EXTRAS, run_extra
from repro.experiments.registry import EXPERIMENTS, drain_suite, run_experiment
from repro.sim.runner import ARTIFACT_KINDS, TRACE_CACHE


def _resolve_cache_dir(arg: str | None, parser: argparse.ArgumentParser) -> str:
    cache_dir = arg or os.environ.get("REPRO_CACHE_DIR")
    if not cache_dir:
        parser.error("no cache dir (use --cache-dir or REPRO_CACHE_DIR)")
    if not os.path.isdir(cache_dir):
        parser.error(f"cache dir {cache_dir!r} does not exist")
    return cache_dir


def cache_main(argv: list[str]) -> int:
    """The ``cache {stats,gc,verify}`` lifecycle subcommands."""
    from repro.sim import gc as cache_gc

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments cache",
        description="Shared artifact-cache lifecycle: stats, GC, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="the shared cache directory "
                            "(default: REPRO_CACHE_DIR)")

    p_stats = sub.add_parser("stats", help="per-kind artifact counts/bytes")
    add_common(p_stats)
    p_stats.add_argument("--json", action="store_true",
                         help="machine-readable JSON on stdout (includes "
                              "the quarantine census)")

    p_gc = sub.add_parser(
        "gc", help="mark-and-sweep unreachable artifacts + queue hygiene"
    )
    add_common(p_gc)
    p_gc.add_argument("--max-age", default=None, metavar="AGE",
                      help="only delete unreachable artifacts older than "
                           "this (e.g. 0s, 30m, 7d; default: all of them)")
    p_gc.add_argument("--max-bytes", default=None, metavar="SIZE",
                      help="evict further unreachable artifacts, oldest "
                           "first, until the dir fits this budget "
                           "(e.g. 512M, 2G)")
    p_gc.add_argument("--dry-run", action="store_true",
                      help="plan and report, delete nothing")

    p_verify = sub.add_parser(
        "verify", help="re-hash and re-decode every stored artifact"
    )
    add_common(p_verify)
    p_verify.add_argument("--json", action="store_true",
                          help="machine-readable JSON on stdout (per-issue "
                               "records and corruption counts)")

    args = parser.parse_args(argv)
    cache_dir = _resolve_cache_dir(args.cache_dir, parser)

    if args.command == "stats":
        from repro.core.engine_backend import active_backend

        stats = cache_gc.cache_stats(cache_dir)
        stats["engine_backend"] = active_backend()
        if args.json:
            import json

            print(json.dumps(stats, indent=2, sort_keys=True))
            return 0
        print(f"cache {stats['cache_dir']}:")
        for kind in ARTIFACT_KINDS:
            bucket = stats["kinds"][kind]
            print(f"  {kind:>8s}: {bucket['files']:5d} files, "
                  f"{cache_gc.format_bytes(bucket['bytes'])}")
        print(f"  {'total':>8s}: {stats['total_files']:5d} files, "
              f"{cache_gc.format_bytes(stats['total_bytes'])} "
              f"({stats['reachable']} reachable, "
              f"{stats['unreachable']} unreachable)")
        print(f"  queue: {stats['queue_locks']} locks "
              f"({stats['stale_queue_locks']} stale), "
              f"{stats['tmp_files']} tmp files, "
              f"{stats['attempt_records']} attempt records")
        if stats["quarantined_jobs"]:
            print(f"  quarantined: {', '.join(stats['quarantined_jobs'])}")
        from repro.core.engine_backend import native_error

        backend = stats["engine_backend"]
        detail = ""
        if backend != "native" and os.environ.get("REPRO_ENGINE") != "python":
            detail = f" ({native_error()})"
        print(f"  engine: {backend} pricing backend{detail}")
        return 0

    if args.command == "gc":
        from repro.common.errors import ConfigError

        try:
            max_age = (cache_gc.parse_duration(args.max_age)
                       if args.max_age is not None else None)
            max_bytes = (cache_gc.parse_size(args.max_bytes)
                         if args.max_bytes is not None else None)
        except ConfigError as exc:
            parser.error(str(exc))
        plan = cache_gc.plan_gc(cache_dir, max_age=max_age,
                                max_bytes=max_bytes)
        summary = cache_gc.run_gc(plan, dry_run=args.dry_run)
        verb = "would delete" if args.dry_run else "deleted"
        print(f"gc: {summary['kept']} reachable kept, "
              f"{summary['spared']} unreachable spared, "
              f"{verb} {summary['deleted']} artifacts "
              f"({cache_gc.format_bytes(summary['bytes_freed'])}), "
              f"{summary['locks_removed']} stale locks, "
              f"{summary['tmp_removed']} tmp files, "
              f"{summary['attempts_removed']} attempt records")
        return 0

    ok, issues = cache_gc.verify_artifacts(cache_dir)
    corrupt = sum(1 for issue in issues if issue.status == "corrupt")
    stale = sum(1 for i in issues if i.status == "stale")
    if args.json:
        import json

        print(json.dumps({
            "cache_dir": str(cache_dir),
            "ok": ok,
            "corrupt": corrupt,
            "stale": stale,
            "issues": [
                {"file": issue.path.name, "status": issue.status,
                 "detail": issue.detail}
                for issue in issues
            ],
        }, indent=2, sort_keys=True))
        return 1 if corrupt else 0
    for issue in issues:
        print(f"  [{issue.status}] {issue.path.name}: {issue.detail}")
    print(f"verify: {ok} artifacts ok, {corrupt} corrupt, {stale} stale")
    return 1 if corrupt else 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "cache":
        return cache_main(argv[1:])

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="reduced workloads")
    parser.add_argument("--only", choices=sorted(EXPERIMENTS), help="single experiment")
    parser.add_argument("--set", dest="which", default="figures",
                        choices=("figures", "ablations", "extras", "all"),
                        help="which experiment family to run")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="with N >= 2, drain the selected experiments' "
                             "artifact graph — (workload × scheme) pairs, "
                             "functional profiles, ablation/extra tables — "
                             "via the file-lock queue with N local worker "
                             "processes before the drivers run, cooperating "
                             "with any other --jobs invocations (even on "
                             "other machines) sharing the cache dir; without "
                             "one, or under --no-cache, in a temporary dir")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persist traces and sweep results under DIR "
                             "(also honours REPRO_CACHE_DIR); a warm rerun "
                             "prices zero traces")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the trace/sweep cache (regenerate everything)")
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="inject deterministic faults, e.g. "
                             "'spill_read:io:0.05,compute:crash:0.1@seed=7' "
                             "(also honours REPRO_FAULTS); see "
                             "repro.sim.faults")
    parser.add_argument("-o", "--output", help="write the report to this file")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")

    if args.faults is not None:
        from repro.common.errors import ConfigError
        from repro.sim import faults

        try:
            faults.install(args.faults)
        except ConfigError as exc:
            parser.error(str(exc))
        # Also exported so queue worker processes spawned later inherit
        # the same chaos plan through the environment.
        os.environ["REPRO_FAULTS"] = args.faults
    if args.cache_dir:
        TRACE_CACHE.set_cache_dir(args.cache_dir)
    if args.no_cache:
        TRACE_CACHE.enabled = False

    runners: list[tuple[str, object]] = []
    if args.only:
        runners = [(args.only,
                    lambda q, e=args.only: run_experiment(e, quick=q))]
    else:
        if args.which in ("figures", "all"):
            runners += [
                (eid, lambda q, e=eid: run_experiment(e, quick=q))
                for eid in EXPERIMENTS
            ]
        if args.which in ("ablations", "all"):
            runners += [
                (f"ablation:{name}", lambda q, n=name: run_ablation(n, quick=q))
                for name in ABLATIONS
            ]
        if args.which in ("extras", "all"):
            runners += [
                (f"extra:{name}", lambda q, n=name: run_extra(n, quick=q))
                for name in EXTRAS
            ]

    # The artifact-producing experiment ids the selection covers: figure
    # ids plus the ablations/extras families (each family's tables — and
    # the suite sweeps they assemble from — are graph artifacts too).
    if args.only:
        selected_ids = [args.only]
    else:
        selected_ids = (list(EXPERIMENTS)
                        if args.which in ("figures", "all") else [])
        if args.which in ("ablations", "all"):
            selected_ids.append("ablations")
        if args.which in ("extras", "all"):
            selected_ids.append("extras")

    start = time.time()
    drain = (drain_suite(selected_ids, args.quick, args.jobs)
             if args.jobs > 1 else contextlib.nullcontext())
    with drain as summary:
        if summary is not None:
            from repro.sim.queue import QUARANTINE_AFTER, QUEUE_SUBDIR

            queue_dir = TRACE_CACHE.cache_dir / QUEUE_SUBDIR
            print(
                f"drain: {summary['computed']}/{summary['jobs']} jobs computed "
                f"here ({summary['reclaimed']} stale locks reclaimed, "
                f"{summary['failures']} failures, queue {queue_dir}) "
                f"in {time.time() - start:.1f}s",
                file=sys.stderr,
            )
            if summary["quarantined"] or summary["skipped"]:
                # Poisoned jobs: the drain completed around them, but
                # their artifacts do not exist, so rendering tables would
                # recompute them inline (and fail the same way).  Report
                # and exit nonzero instead — degraded coverage, never a
                # deadlock.
                for job_id in summary["quarantined"]:
                    print(f"quarantined: {job_id} "
                          f"(failed {QUARANTINE_AFTER}+ times; see "
                          f"{queue_dir}/{job_id}.attempts)", file=sys.stderr)
                for job_id in summary["skipped"]:
                    print(f"skipped: {job_id} (depends on a quarantined job)",
                          file=sys.stderr)
                return 3
        sections = []
        for eid, runner in runners:
            start = time.time()
            result = runner(args.quick)
            elapsed = time.time() - start
            sections.append(result.to_text()
                            + f"\n\n[{eid} completed in {elapsed:.1f}s]")
            print(f"{eid}: done in {elapsed:.1f}s", file=sys.stderr)
    cache = TRACE_CACHE.stats()
    if TRACE_CACHE.enabled:
        kinds = ", ".join(
            f"{cache[f'{kind}_misses']} {kind}" for kind in ARTIFACT_KINDS
        )
        summary = (f"{cache['hits']} hits, {cache['disk_hits']} disk hits, "
                   f"{cache['misses']} misses ({kinds}), "
                   f"{cache['entries']} entries")
    else:
        # A disabled cache counts nothing: every artifact was built.
        summary = "disabled (--no-cache)"
    print(f"trace cache: {summary}, {cache['engine_backend']} pricing engine",
          file=sys.stderr)
    report = ("\n\n" + "=" * 72 + "\n\n").join(sections)
    if args.output:
        with open(args.output, "w") as f:
            f.write(report + "\n")
    else:
        print(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
