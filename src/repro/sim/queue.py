"""File-lock distributed work queue over the shared artifact cache.

The artifact graph (:mod:`repro.sim.scheduler`) is a pure function of
the experiment selection, so every process pointed at the same cache
directory derives the *same* job list.  That makes distribution almost
trivial: the only coordination needed is "who computes which missing
artifact", and a shared filesystem can answer it with lock files —

* **claim** — atomically create ``<job-id>.lock`` (``O_CREAT | O_EXCL``)
  in the queue directory; the winner computes the job, everyone else
  moves on to other jobs;
* **heartbeat** — a daemon thread touches the lock's mtime while the
  job runs, so long jobs are distinguishable from dead owners;
* **orphan reclaim** — a lock whose mtime has gone stale (killed
  worker, rebooted machine) is removed by any waiting worker, and the
  job becomes claimable again;
* **done** — an artifact's existence *is* its completion marker (the
  cache writes are atomic tmp+rename), so stale state can never
  deadlock a fresh run: a lock without a live heartbeat expires, and a
  lock racing an existing artifact is skipped outright.

Because every job is deterministic and artifacts are content-addressed,
duplicate computation after a reclaim race is harmless — both workers
write byte-identical bytes (the columnar binary trace layout of
:mod:`repro.sim.spillfmt` included).  This is the repository's only
parallel executor: ``python -m repro.experiments --jobs N`` (and
``run_all(jobs=N)``) drains the graph with :func:`run_workers` — on
the attached cache dir, or on a temporary one without it — and renders
the tables from the filled cache.  Processes on separate machines
sharing ``REPRO_CACHE_DIR`` cooperate with no other channel, and the
figure tables rendered afterwards are byte-identical to a serial run.
Workers consuming a finished trace spill mmap it through the cache's
zero-copy load path, so co-located workers share one copy of the
columns in the OS page cache.

Failure handling (chaos-hardened; see :mod:`repro.sim.faults`):

* **attempt records** — a job whose computation raises gets a line
  appended to ``<job-id>.attempts`` in the queue directory, so failure
  counts are shared across workers and machines exactly like claims;
* **poison-job quarantine** — a job that has failed
  :data:`QUARANTINE_AFTER` times is quarantined: the drain stops
  retrying it, drops every job depending (transitively) on its
  artifact, **completes** instead of deadlocking, and reports the
  quarantined set (the CLI exits nonzero);
* **per-job deadlines** — a :class:`WorkQueue` built with
  ``job_deadline_seconds`` gives each claim a deadline after which its
  heartbeat stops voluntarily, so a *hung* job (not just a dead one)
  converts into a stale-reclaimable lock peers can take over.  CLI
  drains leave it off; :func:`run_workers`' ``timeout`` bounds a hung
  peer instead;
* **transient I/O** — claim/release/heartbeat filesystem operations run
  under :func:`repro.sim.faults.call_with_retries` (bounded retries,
  exponential backoff, deterministic jitter); a missed heartbeat is
  skipped, not fatal, and a failed release is left to stale reclaim.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from pathlib import Path
from typing import Sequence

from repro.common.errors import ConfigError
from repro.sim import faults
from repro.sim.scheduler import ArtifactJob, compute_job

#: Subdirectory of the shared cache dir that holds the lock files.
QUEUE_SUBDIR = "queue"

#: Failures (recorded in a job's ``*.attempts`` file) after which a job
#: is quarantined as poisoned rather than retried forever.
QUARANTINE_AFTER = 3


def attempt_counts(queue_dir: str | os.PathLike) -> dict[str, int]:
    """Per-job failure counts from the queue dir's ``*.attempts`` records.

    The census ``cache stats`` and the GC read; sorted by job id so two
    scans of the same state report identically.
    """
    counts: dict[str, int] = {}
    for path in sorted(Path(queue_dir).glob("*.attempts")):
        try:
            text = path.read_text()
        except OSError:
            continue  # cleared between glob and read
        counts[path.stem] = sum(1 for line in text.splitlines() if line.strip())
    return counts


def find_stale_locks(queue_dir: str | os.PathLike, stale_seconds: float,
                     now: float | None = None) -> list[Path]:
    """Lock files whose heartbeat stopped (sorted; shared with the GC).

    A lock is stale when its mtime is older than ``stale_seconds`` — the
    owner's heartbeat thread died with the owner, so nothing refreshes
    it.  Fresh locks belong to live workers and must be left alone;
    :meth:`WorkQueue.reclaim_stale` and ``cache gc``'s orphaned-lock
    cleanup both build on this predicate.
    """
    if now is None:
        now = time.time()
    stale: list[Path] = []
    for lock in sorted(Path(queue_dir).glob("*.lock")):
        try:
            mtime = lock.stat().st_mtime
        except OSError:
            continue  # released between glob and stat
        if now - mtime > stale_seconds:
            stale.append(lock)
    return stale


class Claim:
    """An exclusive claim on one job, kept alive by a heartbeat thread.

    The heartbeat is a daemon thread touching the lock file's mtime; if
    the owning process dies (even ``SIGKILL``), the heartbeat stops with
    it and the lock goes stale, which is exactly the signal
    :meth:`WorkQueue.reclaim_stale` keys on.

    ``token`` is the unique line :meth:`WorkQueue.try_claim` wrote into
    the lock file; both the heartbeat and :meth:`release` verify it
    before touching the path, so a claim that was reclaimed while its
    owner stalled (and possibly re-claimed by a peer) can neither
    keep-alive nor delete the peer's lock.

    ``deadline_seconds`` bounds how long the heartbeat keeps the claim
    alive: past the deadline the beat thread stops *voluntarily*, so a
    job that hangs (rather than dies) converts into an ordinary
    stale-reclaimable lock and peers take the job over — the hang costs
    one worker, never the drain.
    """

    def __init__(self, path: Path, token: str, heartbeat_seconds: float,
                 deadline_seconds: float | None = None) -> None:
        self.path = path
        self.token = token
        self._deadline = (
            None if deadline_seconds is None
            else time.monotonic() + deadline_seconds
        )
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._beat, args=(heartbeat_seconds,), daemon=True
        )
        self._thread.start()

    def _owns_lock(self) -> bool:
        try:
            return self.path.read_text() == self.token
        except OSError:
            return False  # reclaimed and not (yet) re-claimed

    def _beat(self, interval: float) -> None:
        # Every wait in this loop — the beat interval, injected delays,
        # retry backoffs — blocks on the stop event, never a bare
        # sleep, so release() observes the thread exiting promptly even
        # under chaos and can join it fully instead of truncating.
        while not self._stop.wait(interval):
            if self._deadline is not None and time.monotonic() > self._deadline:
                break  # job deadline passed: go stale, let peers reclaim
            if not self._owns_lock():
                break  # lock was reclaimed under us; stop beating
            try:
                faults.maybe_fault("heartbeat", self.path.name,
                                   event=self._stop)
                os.utime(self.path)
            except faults.FaultInjected:
                continue  # one missed beat; the stale window absorbs it
            except OSError:
                break

    def expired(self) -> bool:
        """Whether this claim's job deadline has passed."""
        return self._deadline is not None and time.monotonic() > self._deadline

    def release(self, timeout: float | None = None) -> None:
        """Stop the heartbeat and remove the lock file (if still ours).

        The beat thread only ever waits on the stop event, so the join
        returns as soon as the current ``utime`` finishes; ``timeout``
        (``None``: join fully) is a last-ditch guard for a filesystem
        call hung inside the beat.  A failed unlink is left to stale
        reclaim — the heartbeat is already stopped, so the lock ages
        out on its own.
        """
        self._stop.set()
        self._thread.join(timeout)
        if not self._owns_lock():
            return  # reclaimed by a peer, possibly re-claimed: leave it
        try:
            faults.call_with_retries(self.path.unlink, "release",
                                     self.path.name,
                                     no_retry=(FileNotFoundError,))
        except OSError:
            pass

    def __enter__(self) -> "Claim":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class WorkQueue:
    """Lock-file claims over a shared directory (no daemon, no sockets).

    ``stale_seconds`` must comfortably exceed ``heartbeat_seconds`` —
    the gap is the tolerance for filesystem latency on a shared mount.
    """

    def __init__(
        self,
        queue_dir: str | os.PathLike,
        worker_id: str | None = None,
        heartbeat_seconds: float = 2.0,
        stale_seconds: float = 30.0,
        poll_seconds: float = 0.1,
        quarantine_after: int = QUARANTINE_AFTER,
        job_deadline_seconds: float | None = None,
    ) -> None:
        if stale_seconds <= heartbeat_seconds:
            raise ConfigError(
                f"stale_seconds ({stale_seconds}) must exceed "
                f"heartbeat_seconds ({heartbeat_seconds})"
            )
        if quarantine_after < 1:
            raise ConfigError(
                f"quarantine_after must be >= 1, got {quarantine_after}"
            )
        self.queue_dir = Path(queue_dir)
        self.queue_dir.mkdir(parents=True, exist_ok=True)
        self.worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
        self.heartbeat_seconds = heartbeat_seconds
        self.stale_seconds = stale_seconds
        self.poll_seconds = poll_seconds
        self.quarantine_after = quarantine_after
        self.job_deadline_seconds = job_deadline_seconds

    def lock_path(self, job_id: str) -> Path:
        return self.queue_dir / f"{job_id}.lock"

    def try_claim(self, job_id: str) -> Claim | None:
        """Atomically claim a job; ``None`` if a peer holds it.

        An existing lock is an answer, not an error, so it short-cuts
        the retry loop; transient claim I/O (injected or real) retries
        with backoff and, exhausted, reads as "not claimed" — the next
        drain pass simply tries again.
        """
        path = self.lock_path(job_id)

        def _create() -> int:
            return os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)

        try:
            fd = faults.call_with_retries(_create, "claim", job_id,
                                          no_retry=(FileExistsError,))
        except FileExistsError:
            return None
        except OSError:
            return None  # transient claim I/O outlasted the retries
        token = f"{self.worker_id} {os.getpid()} {time.monotonic_ns()}\n"
        with os.fdopen(fd, "w") as f:
            f.write(token)
        return Claim(path, token, self.heartbeat_seconds,
                     deadline_seconds=self.job_deadline_seconds)

    def is_claimed(self, job_id: str) -> bool:
        return self.lock_path(job_id).exists()

    # -- attempt records / quarantine ---------------------------------
    def attempts_path(self, job_id: str) -> Path:
        return self.queue_dir / f"{job_id}.attempts"

    def failure_count(self, job_id: str) -> int:
        """Recorded failures for a job (shared across workers/machines)."""
        try:
            text = self.attempts_path(job_id).read_text()
        except OSError:
            return 0
        return sum(1 for line in text.splitlines() if line.strip())

    def record_failure(self, job_id: str, error: BaseException) -> int:
        """Append one failure line; returns the new failure count.

        Appends are tiny single writes (``O_APPEND``), so concurrent
        recorders interleave whole lines.  The record is durable in the
        queue dir: any worker — this run or the next — counts the same
        failures, which is what makes quarantine a *fleet* decision.
        """
        detail = f"{type(error).__name__}: {error}".replace("\n", " ")[:200]
        line = f"{self.worker_id}\t{time.time():.3f}\t{detail}\n"
        try:
            with open(self.attempts_path(job_id), "a") as f:
                f.write(line)
        except OSError:
            pass  # record loss only delays quarantine, never corrupts it
        return self.failure_count(job_id)

    def clear_failures(self, job_id: str) -> None:
        """Forget a job's failures (it has since computed successfully)."""
        try:
            self.attempts_path(job_id).unlink()
        except OSError:
            pass

    def is_quarantined(self, job_id: str) -> bool:
        return self.failure_count(job_id) >= self.quarantine_after

    def quarantined_jobs(self) -> list[str]:
        """Job ids currently quarantined in this queue dir (sorted)."""
        return sorted(
            job_id
            for job_id, count in attempt_counts(self.queue_dir).items()
            if count >= self.quarantine_after
        )

    def reclaim_stale(self) -> list[str]:
        """Remove locks whose heartbeat stopped; returns reclaimed job ids.

        Safe to race: ``unlink`` failures (a peer reclaimed first, or
        the owner released) are ignored, and a reclaimed job is still
        guarded by the artifact-existence check before recomputation.
        """
        reclaimed: list[str] = []
        for lock in find_stale_locks(self.queue_dir, self.stale_seconds):
            try:
                lock.unlink()
            except OSError:
                continue
            reclaimed.append(lock.stem)
        return reclaimed


def drain_graph(
    jobs: Sequence[ArtifactJob],
    queue: WorkQueue,
    timeout: float | None = None,
) -> dict:
    """Cooperatively compute every missing artifact of one job graph.

    Each pass walks the (topologically ordered) job list: jobs whose
    artifact already exists in the shared store are done — whether this
    process or a peer made them — jobs with missing dependencies wait,
    and buildable jobs are raced for via lock-file claims.  When a pass
    makes no progress the worker reclaims stale locks and naps briefly;
    the loop ends when every artifact exists.  Returns a summary of this
    worker's share.

    Every check asks the disk tier (:meth:`TraceCache.has_spill`), never
    this process's memory tier: a value only this process holds is
    invisible to its peers, so it neither completes a job nor readies a
    dependent.

    ``timeout`` bounds the total wait (``RuntimeError`` on expiry) —
    mainly a test/CI guard against a peer that claimed work and then
    hangs while still heartbeating.

    A job whose computation raises is **retried** (its failure recorded
    in the shared queue dir) until it reaches the queue's quarantine
    threshold; quarantined jobs — and, transitively, every job whose
    dependencies can now never exist — are dropped from the drain and
    reported in ``summary["quarantined"]`` / ``summary["skipped"]``, so
    a poisoned job degrades the run's coverage, never its liveness.  A
    computation that *returns* without its artifact landing in the
    shared store (a persistently failing spill) counts as a failure
    too, for the same reason.
    """
    from repro.sim.runner import TRACE_CACHE

    if not TRACE_CACHE.enabled:
        raise ConfigError("the trace cache is disabled; a distributed drain "
                          "needs it as the shared artifact substrate")
    if TRACE_CACHE.cache_dir is None:
        raise ConfigError("no cache dir attached (use --cache-dir or "
                          "REPRO_CACHE_DIR); a distributed drain needs a "
                          "shared artifact directory")
    summary = {"jobs": len(jobs), "computed": 0, "reclaimed": 0, "waits": 0,
               "failures": 0, "quarantined": [], "skipped": []}
    #: Keys that will never exist this drain: quarantined jobs' outputs
    #: and, transitively, the outputs of jobs depending on them.
    poisoned: set = set()
    deadline = None if timeout is None else time.monotonic() + timeout
    pending = list(jobs)
    while pending:
        progressed = False
        still_pending: list[ArtifactJob] = []
        for job in pending:
            if TRACE_CACHE.has_spill(job.key):
                continue  # done — by us earlier, or by a peer
            if queue.is_quarantined(job.job_id()):
                # Poisoned (here or by a peer): stop retrying, keep
                # draining everything else.
                summary["quarantined"].append(job.job_id())
                poisoned.add(job.key)
                progressed = True
                continue
            if any(dep in poisoned for dep in job.deps):
                # A dependency will never exist: dropping this job too
                # is what keeps the drain from deadlocking.
                summary["skipped"].append(job.job_id())
                poisoned.add(job.key)
                progressed = True
                continue
            if not all(TRACE_CACHE.has_spill(dep) for dep in job.deps):
                still_pending.append(job)
                continue
            claim = queue.try_claim(job.job_id())
            if claim is None:
                still_pending.append(job)  # a peer is on it
                continue
            # Re-check under the lock: the artifact may have landed
            # between our presence check and the claim.
            if TRACE_CACHE.has_spill(job.key):
                claim.release()
                progressed = True
                continue
            try:
                compute_job(job, attempt=queue.failure_count(job.job_id()))
                if not TRACE_CACHE.has_spill(job.key):
                    raise RuntimeError(
                        f"artifact missing after computing {job.job_id()}"
                    )
                summary["computed"] += 1
                queue.clear_failures(job.job_id())
            except Exception as exc:  # noqa: BLE001 - any failure is one attempt
                queue.record_failure(job.job_id(), exc)
                summary["failures"] += 1
                still_pending.append(job)  # retry until quarantine
            finally:
                claim.release()
            progressed = True
        pending = still_pending
        if pending and not progressed:
            summary["reclaimed"] += len(queue.reclaim_stale())
            summary["waits"] += 1
            if deadline is not None and time.monotonic() > deadline:
                raise RuntimeError(
                    f"distributed drain timed out with {len(pending)} jobs "
                    f"pending (first: {pending[0].job_id()})"
                )
            time.sleep(queue.poll_seconds)
    summary["quarantined"] = sorted(set(summary["quarantined"]))
    summary["skipped"] = sorted(set(summary["skipped"]))
    return summary


def _drain_worker(jobs: Sequence[ArtifactJob], cache_dir: str,
                  worker_id: str) -> None:
    """Entry point for a local drain subprocess (picklable, top-level)."""
    from repro.sim.runner import TRACE_CACHE

    TRACE_CACHE.set_cache_dir(cache_dir)
    queue = WorkQueue(Path(cache_dir) / QUEUE_SUBDIR, worker_id=worker_id)
    drain_graph(jobs, queue)


def run_workers(jobs: Sequence[ArtifactJob], cache_dir: str | os.PathLike,
                workers: int, timeout: float | None = 3600.0) -> dict:
    """Drain one graph with ``workers`` local processes (plus any peers).

    The calling process is worker 0 (so ``workers=1`` degrades to a
    plain in-process drain); the rest are spawned subprocesses.  All of
    them — and any ``--jobs`` processes on other machines sharing the
    cache dir — coordinate purely through the queue directory.

    The default ``timeout`` is a guard against a *live but hung* peer —
    one that holds a claim and keeps heartbeating without ever
    finishing; dead peers are handled by stale-lock reclaim long before
    it fires, and the ``RuntimeError`` names the stuck job.  (The
    workers' claims carry no per-job deadline.)
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    import multiprocessing as mp

    cache_dir = str(cache_dir)
    queue = WorkQueue(Path(cache_dir) / QUEUE_SUBDIR)
    helpers = [
        mp.Process(target=_drain_worker,
                   args=(list(jobs), cache_dir, f"{queue.worker_id}-w{i}"),
                   daemon=True)
        for i in range(1, workers)
    ]
    for helper in helpers:
        helper.start()
    try:
        summary = drain_graph(jobs, queue, timeout=timeout)
    finally:
        for helper in helpers:
            helper.join(timeout=60.0)
            if helper.is_alive():
                helper.terminate()
    # Aggregate quarantine across all participants from the durable
    # attempt records: a helper may have quarantined a job this worker
    # never visited after it went poisoned.
    graph_ids = {job.job_id() for job in jobs}
    summary["quarantined"] = sorted(
        graph_ids.intersection(queue.quarantined_jobs())
    )
    return summary
