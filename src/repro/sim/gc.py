"""Cache lifecycle: mark-and-sweep GC, verification and stats.

The shared artifact cache (:class:`~repro.sim.runner.TraceCache`'s disk
tier) is append-only by construction — every code or configuration
change re-keys its artifacts, and nothing ever reclaims the superseded
spills — so a long-lived ``REPRO_CACHE_DIR`` grows without bound.  This
module closes the loop, in the spirit of the paper's thesis that
metadata should be *derivable on demand rather than stored*: every
artifact can be regenerated from its spec, so the cache is free to
discard anything, and the only question is what is worth keeping.

* **Mark** — the live set is derived exactly the way the distributed
  queue derives its job list: expand the suite's artifact graph
  (figures *and* ablation/extra tables, quick and full mode) and map
  every job key to its one spill file name
  (:func:`~repro.sim.runner.spill_filename`).  Reachable artifacts are
  never deleted, by any policy; a file in a retired layout (such as a
  ``trace-<digest>.json``) is no key's name, so it is unreachable.
* **Sweep** — unreachable artifacts are deletion candidates, filtered
  by an age grace (``max_age``) and, after that, by a size budget
  (``max_bytes``) applied oldest-first with a stable name tiebreak, so
  two GC runs over the same directory state plan identical deletions.
* **Housekeeping** — orphaned queue locks (heartbeat long stopped; see
  :func:`repro.sim.queue.find_stale_locks`) and abandoned ``*.tmp.*``
  spill temporaries are removed; fresh locks of live workers are left
  alone.
* **Verify** — every spill ends in a fixed-size ``#sha256:``
  content-digest trailer (:func:`~repro.sim.runner.split_spill_bytes`);
  ``verify`` re-hashes the payloads over a memoryview, with no copy,
  and decodes them under their kind codec, flagging corruption and
  stale layouts without touching the artifacts.

CLI: ``python -m repro.experiments cache {stats,gc,verify}``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.common.errors import ConfigError
from repro.sim.queue import (
    QUARANTINE_AFTER,
    QUEUE_SUBDIR,
    attempt_counts,
    find_stale_locks,
)
from repro.sim.runner import (
    ARTIFACT_KINDS,
    decode_spill,
    payload_digest,
    spill_filename,
    spill_name,
    split_spill_bytes,
)

#: A queue lock this old has no live heartbeat behind it (workers touch
#: theirs every ~2 s); generous so a GC racing a live drain on a slow
#: shared mount never steals a working claim.
LOCK_STALE_SECONDS = 600.0

#: Spill temporaries (`*.tmp.<pid>`) older than this are from writers
#: that died mid-spill; live writers rename them within milliseconds.
TMP_STALE_SECONDS = 3600.0


@dataclass(frozen=True)
class ArtifactFile:
    """One artifact spill on disk (a ``<kind>-<keydigest>.json`` or
    ``.bin`` file)."""

    path: Path
    kind: str
    size: int
    mtime: float


def _artifact_kind(name: str) -> str | None:
    """The artifact kind a spill file name encodes (``None``: not one)."""
    if not (name.endswith(".json") or name.endswith(".bin")):
        return None
    kind = name.split("-", 1)[0]
    return kind if kind in ARTIFACT_KINDS else None


def scan_artifacts(cache_dir: str | os.PathLike) -> list[ArtifactFile]:
    """Every artifact spill in the cache dir, sorted by file name."""
    files: list[ArtifactFile] = []
    paths = list(Path(cache_dir).glob("*.json"))
    paths += Path(cache_dir).glob("*.bin")
    for path in sorted(paths):
        kind = _artifact_kind(path.name)
        if kind is None:
            continue
        try:
            stat = path.stat()
        except OSError:
            continue  # deleted under us
        files.append(ArtifactFile(path, kind, stat.st_size, stat.st_mtime))
    return files


def live_file_names(jobs: Iterable) -> set[str]:
    """The spill names a job graph's artifacts occupy (the mark set)."""
    return {spill_filename(job.key) for job in jobs}


def default_live_names() -> set[str]:
    """The mark set of the whole registered suite, quick and full mode.

    Both modes are live: CI populates quick-mode artifacts and paper
    runs full-mode ones, and the two share a cache dir by design.
    """
    from repro.experiments.registry import FULL_SUITE, suite_graph

    names: set[str] = set()
    for quick in (False, True):
        names |= live_file_names(suite_graph(FULL_SUITE, quick))
    return names


@dataclass
class GcPlan:
    """A deterministic deletion plan (computed before anything is touched)."""

    keep: list[ArtifactFile] = field(default_factory=list)
    delete: list[ArtifactFile] = field(default_factory=list)
    #: Unreachable artifacts retained by the age grace / size headroom.
    spared: list[ArtifactFile] = field(default_factory=list)
    stale_locks: list[Path] = field(default_factory=list)
    stale_tmp: list[Path] = field(default_factory=list)
    #: Queue ``*.attempts`` records whose job has since produced its
    #: artifact (a transient failure that resolved) or that have aged
    #: out — left in place they would keep reporting long-dead failures
    #: in the quarantine census.
    stale_attempts: list[Path] = field(default_factory=list)

    @property
    def bytes_freed(self) -> int:
        return sum(f.size for f in self.delete)


def plan_gc(
    cache_dir: str | os.PathLike,
    live: set[str] | None = None,
    max_age: float | None = None,
    max_bytes: int | None = None,
    now: float | None = None,
    lock_stale_seconds: float = LOCK_STALE_SECONDS,
    tmp_stale_seconds: float = TMP_STALE_SECONDS,
) -> GcPlan:
    """Plan a mark-and-sweep pass; nothing is deleted yet.

    ``live`` is the mark set of spill file names (defaults to the whole
    registered suite's, quick + full).  Reachable artifacts are always
    kept.  Policies apply to unreachable artifacts only: with neither
    policy given, all of them go (a classic sweep); ``max_age`` deletes
    those older than the grace period and spares the rest; ``max_bytes``
    then evicts spared artifacts — oldest first, ties broken by file
    name — until the directory's total artifact size fits the budget.
    Reachable artifacts never count *against* other artifacts' survival:
    if the live set alone exceeds the budget, the budget is simply not
    reachable and every unreachable artifact goes.
    """
    import time as _time

    if now is None:
        now = _time.time()
    if live is None:
        live = default_live_names()
    plan = GcPlan()
    candidates: list[ArtifactFile] = []
    for artifact in scan_artifacts(cache_dir):
        if artifact.path.name in live:
            plan.keep.append(artifact)
        else:
            candidates.append(artifact)

    for artifact in candidates:
        if max_age is None and max_bytes is None:
            plan.delete.append(artifact)  # no policy: classic sweep
        elif max_age is not None and now - artifact.mtime >= max_age:
            plan.delete.append(artifact)
        else:
            plan.spared.append(artifact)

    if max_bytes is not None:
        remaining = sum(f.size for f in plan.keep) + sum(
            f.size for f in plan.spared
        )
        if remaining > max_bytes:
            # Oldest-first, stable name tiebreak: deterministic on equal
            # mtimes (bulk-restored caches have plenty of those).
            overage = sorted(plan.spared, key=lambda f: (f.mtime, f.path.name))
            spared: list[ArtifactFile] = []
            for artifact in overage:
                if remaining > max_bytes:
                    plan.delete.append(artifact)
                    remaining -= artifact.size
                else:
                    spared.append(artifact)
            plan.spared = sorted(spared, key=lambda f: f.path.name)

    queue_dir = Path(cache_dir) / QUEUE_SUBDIR
    if queue_dir.is_dir():
        plan.stale_locks = find_stale_locks(queue_dir, lock_stale_seconds,
                                            now=now)
        for record in sorted(queue_dir.glob("*.attempts")):
            # A failure record is stale once the job's artifact exists
            # (the failure resolved — usually a peer computed it, so
            # nobody cleared the loser's record) or once it has aged
            # past the tmp grace: either way, keeping it only pollutes
            # the quarantine census.
            resolved = (Path(cache_dir) / spill_name(record.stem)).exists()
            try:
                aged = now - record.stat().st_mtime >= tmp_stale_seconds
            except OSError:
                continue  # cleared between glob and stat
            if resolved or aged:
                plan.stale_attempts.append(record)
    # The tmp glob matches every artifact kind: spill temporaries keep
    # their `<kind>-<keydigest>` stem and only swap the extension for
    # `.tmp.<pid>`, so a worker SIGKILLed mid-write leaves exactly one
    # matching orphan regardless of kind.
    for tmp in sorted(Path(cache_dir).glob("*.tmp.*")):
        try:
            if now - tmp.stat().st_mtime >= tmp_stale_seconds:
                plan.stale_tmp.append(tmp)
        except OSError:
            continue
    return plan


def run_gc(plan: GcPlan, dry_run: bool = False) -> dict:
    """Execute (or, with ``dry_run``, only describe) a GC plan.

    Deletions are best-effort unlinks — a peer GC racing us may win any
    individual file, which is fine: both planned the same deletions.
    """
    summary = {
        "kept": len(plan.keep),
        "spared": len(plan.spared),
        "deleted": 0,
        "bytes_freed": 0,
        "locks_removed": 0,
        "tmp_removed": 0,
        "attempts_removed": 0,
        "dry_run": dry_run,
    }
    for artifact in plan.delete:
        if not dry_run:
            try:
                artifact.path.unlink()
            except OSError:
                continue
        summary["deleted"] += 1
        summary["bytes_freed"] += artifact.size
    for lock in plan.stale_locks:
        if not dry_run:
            try:
                lock.unlink()
            except OSError:
                continue
        summary["locks_removed"] += 1
    for tmp in plan.stale_tmp:
        if not dry_run:
            try:
                tmp.unlink()
            except OSError:
                continue
        summary["tmp_removed"] += 1
    for record in plan.stale_attempts:
        if not dry_run:
            try:
                record.unlink()
            except OSError:
                continue
        summary["attempts_removed"] += 1
    return summary


@dataclass(frozen=True)
class VerifyIssue:
    """One artifact that failed re-verification."""

    path: Path
    status: str  # "corrupt" | "stale"
    detail: str


def verify_artifacts(cache_dir: str | os.PathLike) -> tuple[int, list[VerifyIssue]]:
    """Re-hash and re-decode every stored artifact.

    Returns ``(ok_count, issues)``.  ``corrupt`` means the spill has no
    valid digest trailer or its payload no longer matches the recorded
    digest (bit rot, truncation, manual edits); ``stale`` means the
    digest holds but the payload no longer decodes under the current
    codec (an old layout version — harmless, the cache rebuilds over
    it, and ``gc`` will sweep it once unreachable).
    """
    ok = 0
    issues: list[VerifyIssue] = []
    for artifact in scan_artifacts(cache_dir):
        try:
            raw = artifact.path.read_bytes()
        except OSError as exc:
            issues.append(VerifyIssue(artifact.path, "corrupt", str(exc)))
            continue
        payload, digest = split_spill_bytes(raw)
        if digest is None:
            issues.append(VerifyIssue(artifact.path, "corrupt",
                                      "missing digest trailer"))
            continue
        if payload_digest(payload) != digest:
            issues.append(VerifyIssue(artifact.path, "corrupt",
                                      "payload does not match its digest"))
            continue
        try:
            decode_spill(artifact.kind, payload)
        except Exception as exc:  # noqa: BLE001 - any decode failure is stale
            issues.append(VerifyIssue(artifact.path, "stale", str(exc)))
            continue
        ok += 1
    return ok, issues


def cache_stats(cache_dir: str | os.PathLike,
                live: set[str] | None = None) -> dict:
    """Aggregate per-kind counts/bytes plus queue and reachability state."""
    if live is None:
        live = default_live_names()
    stats: dict = {
        "cache_dir": str(cache_dir),
        "kinds": {kind: {"files": 0, "bytes": 0} for kind in ARTIFACT_KINDS},
        "total_files": 0,
        "total_bytes": 0,
        "reachable": 0,
        "unreachable": 0,
    }
    for artifact in scan_artifacts(cache_dir):
        bucket = stats["kinds"][artifact.kind]
        bucket["files"] += 1
        bucket["bytes"] += artifact.size
        stats["total_files"] += 1
        stats["total_bytes"] += artifact.size
        if artifact.path.name in live:
            stats["reachable"] += 1
        else:
            stats["unreachable"] += 1
    queue_dir = Path(cache_dir) / QUEUE_SUBDIR
    locks = list(queue_dir.glob("*.lock")) if queue_dir.is_dir() else []
    stale = (find_stale_locks(queue_dir, LOCK_STALE_SECONDS)
             if locks else [])
    stats["queue_locks"] = len(locks)
    stats["stale_queue_locks"] = len(stale)
    stats["tmp_files"] = len(list(Path(cache_dir).glob("*.tmp.*")))
    # Quarantine census from the durable attempt records, so fleet
    # tooling can gate on poisoned jobs without scraping drain output.
    counts = attempt_counts(queue_dir) if queue_dir.is_dir() else {}
    stats["attempt_records"] = len(counts)
    stats["failed_attempts"] = sum(counts.values())
    stats["quarantined_jobs"] = sorted(
        job_id for job_id, n in counts.items() if n >= QUARANTINE_AFTER
    )
    return stats


# ---------------------------------------------------------------------------
# CLI helpers (``python -m repro.experiments cache ...``)
# ---------------------------------------------------------------------------

_DURATION_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}
_SIZE_UNITS = {"b": 1, "k": 1 << 10, "m": 1 << 20, "g": 1 << 30,
               "t": 1 << 40}


def parse_duration(text: str) -> float:
    """``"0s"``/``"30m"``/``"12h"``/``"7d"`` (or plain seconds) → seconds."""
    text = text.strip().lower()
    unit = 1.0
    if text and text[-1] in _DURATION_UNITS:
        unit = _DURATION_UNITS[text[-1]]
        text = text[:-1]
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"unparseable duration {text!r} "
                          "(expected e.g. 90, 0s, 30m, 12h, 7d)") from None
    if value < 0:
        raise ConfigError("durations must be non-negative")
    return value * unit


def parse_size(text: str) -> int:
    """``"512M"``/``"2G"`` (or plain bytes) → bytes."""
    text = text.strip().lower()
    unit = 1
    if text and text[-1] in _SIZE_UNITS:
        unit = _SIZE_UNITS[text[-1]]
        text = text[:-1]
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"unparseable size {text!r} "
                          "(expected e.g. 1048576, 512M, 2G)") from None
    if value < 0:
        raise ConfigError("sizes must be non-negative")
    return int(value * unit)


def format_bytes(n: int | float) -> str:
    """Human-readable byte count (exact below 1 KiB)."""
    n = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024.0 or unit == "GiB":
            if unit == "B":
                return f"{int(n)} {unit}"
            return f"{n:.1f} {unit}"
        n /= 1024.0
    return f"{n:.1f} GiB"  # pragma: no cover - unreachable
