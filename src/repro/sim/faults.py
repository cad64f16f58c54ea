"""Deterministic, seeded fault injection for the distributed substrate.

The queue/cache/engine stack is supposed to survive flaky filesystems,
poisoned jobs and mis-compiled shared objects — but nothing exercises
those paths unless something *injects* them on purpose.  This module is
that something: a set of **named injection points** wired into the
substrate's seams, driven by a spec like ::

    REPRO_FAULTS="spill_read:io:0.05,claim:delay:0.1,native_call:crash:0.01@seed=7"

(equivalently ``python -m repro.experiments --faults "..."``).  Each
entry is ``point:mode:rate[:param]``:

* **point** — where to inject (:data:`POINTS`): queue claim /
  heartbeat / release, cache spill read / write, scheduler job compute,
  native-engine entry;
* **mode** — what happens (:data:`MODES`): ``io`` raises
  :class:`InjectedIOError` (a transient-looking :class:`OSError`),
  ``delay`` sleeps (``param`` seconds, default 0.02 — interruptibly,
  when the caller passes its stop event), ``crash`` raises
  :class:`InjectedCrash` (a poisoned computation / dying worker);
* **rate** — probability per decision, in ``[0, 1]``;
* ``@seed=N`` — the plan's seed (default 0).

**Determinism.**  A decision is a pure function of ``(seed, point,
context, n)`` hashed through BLAKE2b — no global RNG, no ordering
sensitivity.  ``context`` names the object (a job id, a spill file
name) and ``n`` is either the caller-supplied attempt number or a
per-``(point, context)`` invocation counter.  Scheduler job-compute
faults pass the **persisted** attempt count from the queue's
``*.attempts`` records as ``n``, so whether a job's first/second/third
attempt fails is identical no matter which worker runs it, in which
order — which is what makes quarantine sets reproducible across runs
and fleets.  Retries advance ``n``, so a fault with ``rate < 1`` is
transient by construction and a drain under faults converges to the
same byte-identical artifacts as a clean one.

**Zero overhead when disabled.**  With no spec installed
:func:`maybe_fault` is one global-is-``None`` check; the injection
points sit on per-job / per-spill seams, never in per-access loops
(pinned by ``benchmarks/test_faults_bench.py`` and the CI trend gate).

:func:`call_with_retries` is the substrate's shared **bounded retry
with exponential backoff + deterministic jitter** for transient
cache/queue I/O — it wraps the real filesystem calls, so genuinely
flaky mounts get the same treatment as injected faults.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from collections import Counter
from dataclasses import dataclass

from repro.common.errors import ConfigError

#: Named injection points, in substrate order.
POINTS = (
    "claim",        # WorkQueue.try_claim — lock-file creation
    "heartbeat",    # Claim._beat — the mtime keep-alive touch
    "release",      # Claim.release — lock-file removal
    "spill_read",   # TraceCache disk-tier load (JSON and binary spills)
    "spill_write",  # TraceCache disk-tier store (encode + tmp + rename)
    "compute",      # scheduler.compute_job — one artifact job's body
    "native_call",  # engine_backend.create_engine — native-engine entry
)

#: Fault modes.
MODES = ("io", "delay", "crash")

#: Default injected-delay duration (seconds) when a ``delay`` rule
#: carries no explicit ``param``.
DEFAULT_DELAY_SECONDS = 0.02

#: Bounded-retry policy for transient cache/queue I/O: attempts and the
#: exponential-backoff base/cap (jittered deterministically per token).
RETRY_ATTEMPTS = 4
RETRY_BASE_SECONDS = 0.01
RETRY_MAX_SECONDS = 0.25


class FaultInjected(Exception):
    """Mixin base of every injected fault (never raised itself)."""


class InjectedIOError(FaultInjected, OSError):
    """An injected transient I/O failure (``io`` mode)."""


class InjectedCrash(FaultInjected, RuntimeError):
    """An injected computation crash (``crash`` mode)."""


@dataclass(frozen=True)
class FaultRule:
    """One ``point:mode:rate[:param]`` entry of a fault spec."""

    point: str
    mode: str
    rate: float
    param: float | None = None


@dataclass(frozen=True)
class FaultPlan:
    """A parsed fault spec: rules grouped by point, plus the seed."""

    spec: str
    rules: tuple[FaultRule, ...]
    seed: int = 0

    def rules_for(self, point: str) -> tuple[FaultRule, ...]:
        return tuple(rule for rule in self.rules if rule.point == point)


def parse_spec(text: str | None) -> FaultPlan | None:
    """Parse a fault spec string; ``None``/empty disables injection."""
    if text is None:
        return None
    text = text.strip()
    if not text:
        return None
    body, _, options = text.partition("@")
    seed = 0
    for option in filter(None, (o.strip() for o in options.split("@"))):
        key, sep, value = option.partition("=")
        if key.strip() != "seed" or not sep:
            raise ConfigError(
                f"unknown fault-spec option {option!r} (expected seed=N)"
            )
        try:
            seed = int(value)
        except ValueError:
            raise ConfigError(
                f"fault-spec seed must be an integer, got {value!r}"
            ) from None
    rules: list[FaultRule] = []
    for entry in filter(None, (e.strip() for e in body.split(","))):
        fields = entry.split(":")
        if len(fields) not in (3, 4):
            raise ConfigError(
                f"unparseable fault entry {entry!r} "
                "(expected point:mode:rate[:param])"
            )
        point, mode, rate_text = fields[0].strip(), fields[1].strip(), fields[2]
        if point not in POINTS:
            raise ConfigError(
                f"unknown fault point {point!r} (expected one of {POINTS})"
            )
        if mode not in MODES:
            raise ConfigError(
                f"unknown fault mode {mode!r} (expected one of {MODES})"
            )
        try:
            rate = float(rate_text)
        except ValueError:
            raise ConfigError(
                f"fault rate must be a float, got {rate_text!r}"
            ) from None
        if not 0.0 <= rate <= 1.0:
            raise ConfigError(f"fault rate must be in [0, 1], got {rate}")
        param: float | None = None
        if len(fields) == 4:
            try:
                param = float(fields[3])
            except ValueError:
                raise ConfigError(
                    f"fault param must be a float, got {fields[3]!r}"
                ) from None
            if param < 0:
                raise ConfigError("fault param must be non-negative")
        rules.append(FaultRule(point, mode, rate, param))
    if not rules:
        return None
    return FaultPlan(spec=text, rules=tuple(rules), seed=seed)


#: The installed plan (``None``: injection disabled — the common case,
#: and the *only* cost the disabled fast path pays).
_PLAN: FaultPlan | None = None

#: Per-``(point, context)`` invocation counters for decisions without a
#: caller-supplied attempt number.  Contexts are job ids / spill names,
#: so the table is bounded by the suite size.
_COUNTS: Counter[tuple[str, str]] = Counter()

_COUNTS_LOCK = threading.Lock()


def install(spec: str | FaultPlan | None) -> FaultPlan | None:
    """Install a fault plan (``None`` uninstalls); resets counters.

    Workers spawned *after* installation inherit the plan through
    ``REPRO_FAULTS`` in the environment (the CLI sets both); this
    function governs the current process.
    """
    global _PLAN
    plan = parse_spec(spec) if isinstance(spec, (str, type(None))) else spec
    with _COUNTS_LOCK:
        _COUNTS.clear()
    _PLAN = plan
    return plan


def active_plan() -> FaultPlan | None:
    """The installed plan (``None`` when injection is disabled)."""
    return _PLAN


def active_spec() -> str | None:
    """The installed plan's spec string (``None``: injection disabled)."""
    return None if _PLAN is None else _PLAN.spec


def _roll(seed: int, point: str, context: str, n: int) -> float:
    """Deterministic uniform draw in ``[0, 1)`` for one decision."""
    token = f"{seed}|{point}|{context}|{n}".encode()
    digest = hashlib.blake2b(token, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0**64


def backoff_delay(attempt: int, token: str = "",
                  base: float = RETRY_BASE_SECONDS,
                  cap: float = RETRY_MAX_SECONDS) -> float:
    """Exponential backoff with deterministic jitter for ``attempt``.

    Jitter scales the step into ``[0.5, 1.0]×`` of the exponential
    value, derived from the plan seed (0 when none) and ``token`` so
    two workers backing off over the same resource do not retry in
    lockstep yet every run of one worker is reproducible.
    """
    seed = 0 if _PLAN is None else _PLAN.seed
    step = min(cap, base * (2.0**attempt))
    return step * (0.5 + 0.5 * _roll(seed, "backoff", token, attempt))


def maybe_fault(point: str, context: str, attempt: int | None = None,
                event: threading.Event | None = None) -> None:
    """Evaluate ``point``'s rules for ``context``; act on any that fire.

    ``attempt`` pins the decision index for cross-process determinism
    (the scheduler passes persisted per-job attempt counts); without it
    a per-``(point, context)`` process-local counter advances.  Delay
    faults wait on ``event`` when given — an interrupted wait (the
    caller is shutting down) cuts the delay short — and plain-sleep
    otherwise.  ``io``/``crash`` faults raise; callers treat them
    exactly like the real failure they model.
    """
    plan = _PLAN
    if plan is None:
        return
    rules = plan.rules_for(point)
    if not rules:
        return
    if attempt is None:
        with _COUNTS_LOCK:
            n = _COUNTS[(point, context)]
            _COUNTS[(point, context)] = n + 1
    else:
        n = attempt
    for index, rule in enumerate(rules):
        # Distinct draw per rule so stacked rules (e.g. delay + io on
        # one point) fire independently.
        if _roll(plan.seed, f"{point}#{index}", context, n) >= rule.rate:
            continue
        if rule.mode == "delay":
            duration = rule.param if rule.param is not None else (
                DEFAULT_DELAY_SECONDS
            )
            if event is not None:
                event.wait(duration)
            else:
                time.sleep(duration)
        elif rule.mode == "io":
            raise InjectedIOError(
                f"injected io fault at {point} ({context}, n={n})"
            )
        else:  # crash
            raise InjectedCrash(
                f"injected crash at {point} ({context}, n={n})"
            )


def call_with_retries(fn, point: str, context: str, *,
                      attempts: int = RETRY_ATTEMPTS,
                      retry_on: tuple[type[BaseException], ...] = (OSError,),
                      no_retry: tuple[type[BaseException], ...] = (),
                      event: threading.Event | None = None):
    """Run ``fn`` under ``point``'s faults with bounded retry + backoff.

    Each attempt first evaluates :func:`maybe_fault` (so injected
    ``io`` faults exercise exactly the path real transient errors
    take), then calls ``fn``.  Exceptions in ``no_retry`` propagate
    immediately (e.g. ``FileExistsError`` for lock claims — a held lock
    is an answer, not a failure); injected faults and ``retry_on``
    exceptions back off exponentially with deterministic jitter and
    retry up to ``attempts`` times; the last failure propagates to the
    caller, which keeps its existing degraded-mode handling.
    """
    last: BaseException | None = None
    for attempt in range(attempts):
        try:
            maybe_fault(point, context, event=event)
            return fn()
        except no_retry:
            raise
        except (FaultInjected, *retry_on) as exc:
            last = exc
            if attempt + 1 >= attempts:
                raise
        delay = backoff_delay(attempt, token=f"{point}|{context}")
        if event is not None:
            event.wait(delay)
        else:
            time.sleep(delay)
    raise last  # pragma: no cover - loop always returns or raises


# Environment-driven installation: workers and subprocesses inherit the
# chaos plan with the environment, no plumbing required.  ``install``
# validates, so a malformed REPRO_FAULTS fails fast at import.
install(os.environ.get("REPRO_FAULTS"))
