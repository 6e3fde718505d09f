"""Deterministic fault injection for the campaign runtime.

Large sharded campaigns fail in practice — workers raise, tasks
hang, and corrupt numerics or truncated payloads sneak into results.
Related work treats faults in multi-tenant FPGA fabrics as a
first-class concern (FLARE, arXiv:2502.15578; "Hacking the Fabric",
arXiv:2410.16497); this module makes the *runtime's own* failure modes
injectable so every recovery path in
:func:`repro.util.executors.map_ordered` and the shard drivers is
testable without flaky sleeps.

A :class:`FaultPlan` is a seeded schedule of
:class:`FaultSpec` entries keyed on *site identity* (a stable string
such as ``"shard[0:4000]"``) and *attempt number* (how many times that
site has been submitted).  The same plan therefore fires the same
faults wherever the task runs — on a pool thread or on a fleet
worker — which is what makes recovery tests deterministic.

Failure modes (:data:`FAULT_KINDS`):

* ``"exception"`` — the task raises :class:`InjectedFault`.
* ``"hang"`` — the task sleeps ``hang_seconds`` before proceeding,
  exercising the per-task deadline in ``map_ordered``.
* ``"nan"`` — :func:`poison_leakage` corrupts a deterministic subset
  of leakage values to NaN/Inf inside the shard task, exercising the
  finite-ness guard of
  :class:`repro.attacks.cpa.StreamingCPA`.
* ``"truncate"`` — the worker's result payload loses its last element
  on the way back, exercising result validation in the driver.

Faults that act *inside* the task body (``nan``) are delivered through
a thread-local context installed by :func:`fault_scope`, so task
functions stay oblivious to the plan unless they opt in via
:func:`poison_leakage`.

Chaos kinds (:data:`CHAOS_KINDS`) extend the vocabulary to whole
*processes and links* of the journaled campaign service:

* ``"server_kill"`` — SIGKILL the service process at a barrier
  (e.g. once a fleet job's spool checkpoint exists);
* ``"worker_kill"`` — SIGKILL one fleet worker process;
* ``"net_cut"`` — sever a worker's TCP connection without killing it.

These are *harness-fired*: :meth:`FaultPlan.fire` never delivers them
(a task cannot kill the server it runs under).  The chaos drill
(:func:`repro.experiments.drills.chaos_drill`) and the recovery tests
consult the plan via :meth:`FaultPlan.wants` at named barriers — sites
like ``"barrier:fleet_spooled"`` — so a kill schedule is as
deterministic and replayable as any shard-level fault.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.util.rng import derive_seed

__all__ = [
    "CHAOS_KINDS",
    "FAULT_EXCEPTION",
    "FAULT_HANG",
    "FAULT_KINDS",
    "FAULT_NAN",
    "FAULT_NET_CUT",
    "FAULT_SERVER_KILL",
    "FAULT_TRUNCATE",
    "FAULT_WORKER_KILL",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "fault_scope",
    "poison_leakage",
]

#: Task raises :class:`InjectedFault`.
FAULT_EXCEPTION = "exception"
#: Task sleeps past the per-task deadline.
FAULT_HANG = "hang"
#: Leakage values are corrupted to NaN/Inf inside the task.
FAULT_NAN = "nan"
#: The result payload comes back missing its last element.
FAULT_TRUNCATE = "truncate"
#: SIGKILL the campaign service process at a barrier.
FAULT_SERVER_KILL = "server_kill"
#: SIGKILL one fleet worker process.
FAULT_WORKER_KILL = "worker_kill"
#: Sever a worker's TCP connection without killing the process.
FAULT_NET_CUT = "net_cut"
#: Process/link-level chaos faults, fired by the chaos harness (never
#: by :meth:`FaultPlan.fire` — a task cannot kill its own server).
CHAOS_KINDS = (
    FAULT_SERVER_KILL,
    FAULT_WORKER_KILL,
    FAULT_NET_CUT,
)
#: All injectable failure modes.
FAULT_KINDS = (
    FAULT_EXCEPTION,
    FAULT_HANG,
    FAULT_NAN,
    FAULT_TRUNCATE,
) + CHAOS_KINDS


class InjectedFault(RuntimeError):
    """The synthetic exception raised by ``"exception"`` faults.

    Deliberately *not* a :class:`repro.util.errors.ReproError`: an
    injected fault models an arbitrary task failure, and the retry
    machinery must recover from it the same way it would from any
    unexpected exception.
    """

    def __init__(self, site: str, attempt: int):
        super().__init__(
            "injected fault at site %r (attempt %d)" % (site, attempt)
        )
        self.site = site
        self.attempt = attempt


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled failure mode.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        site: site key the fault targets, or ``"*"`` for every site.
        attempts: fire while ``attempt < attempts`` (attempts count
            task *submissions*, starting at 0); pass a large value for
            a persistent fault that exhausts the retry budget.
        rate: probability the fault fires at an eligible
            ``(site, attempt)``; the coin is seeded from the plan seed
            and the key, so it is deterministic per identity.  1.0
            (default) always fires.
        hang_seconds: sleep duration for ``"hang"`` faults.
        fraction: fraction of leakage values poisoned by ``"nan"``.
    """

    kind: str
    site: str = "*"
    attempts: int = 1
    rate: float = 1.0
    hang_seconds: float = 0.25
    fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                "unknown fault kind %r (expected one of %s)"
                % (self.kind, ", ".join(FAULT_KINDS))
            )
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must lie in [0, 1]")

    def matches_site(self, site: str) -> bool:
        return self.site == "*" or self.site == site


class FaultPlan:
    """A seeded schedule of faults keyed on site identity."""

    def __init__(self, specs: Sequence[FaultSpec] = (), seed: int = 0):
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self.seed = seed

    def __repr__(self) -> str:
        return "FaultPlan(%d specs, seed=%d)" % (len(self.specs), self.seed)

    # -- matching ------------------------------------------------------

    def _coin(self, spec: FaultSpec, site: str, attempt: int) -> bool:
        if spec.rate >= 1.0:
            return True
        draw = derive_seed(self.seed, spec.kind, site, attempt)
        return (draw % (2**32)) / 2.0**32 < spec.rate

    def match(
        self, kind: str, site: str, attempt: int
    ) -> Optional[FaultSpec]:
        """First spec of ``kind`` scheduled for ``(site, attempt)``."""
        for spec in self.specs:
            if (
                spec.kind == kind
                and spec.matches_site(site)
                and attempt < spec.attempts
                and self._coin(spec, site, attempt)
            ):
                return spec
        return None

    def wants(self, kind: str, site: str, attempt: int = 0) -> bool:
        """Does the plan schedule a chaos fault at this barrier?

        The chaos harness asks this at named barriers (sites like
        ``"barrier:fleet_spooled"``) and delivers the kill/cut itself.
        """
        return self.match(kind, site, attempt) is not None

    # -- delivery ------------------------------------------------------

    def fire(self, site: str, attempt: int) -> None:
        """Deliver pre-task faults (hang, then exception) for one task
        invocation."""
        hang = self.match(FAULT_HANG, site, attempt)
        if hang is not None:
            time.sleep(hang.hang_seconds)
        if self.match(FAULT_EXCEPTION, site, attempt) is not None:
            raise InjectedFault(site, attempt)

    def corrupt_payload(
        self, site: str, attempt: int, result: object
    ) -> object:
        """Apply ``"truncate"`` faults to a task's result payload."""
        spec = self.match(FAULT_TRUNCATE, site, attempt)
        if spec is None:
            return result
        if isinstance(result, (list, tuple, np.ndarray)) and len(result):
            return result[:-1]
        return result

    def poison(
        self, site: str, attempt: int, values: np.ndarray
    ) -> np.ndarray:
        """Apply ``"nan"`` faults to a block of leakage values."""
        spec = self.match(FAULT_NAN, site, attempt)
        if spec is None:
            return values
        poisoned = np.array(values, dtype=np.float64, copy=True)
        count = max(1, int(poisoned.size * spec.fraction))
        rng = np.random.default_rng(
            derive_seed(self.seed, "nan-sites", site, attempt)
        )
        index = rng.choice(poisoned.size, size=count, replace=False)
        flat = poisoned.reshape(-1)
        flat[index] = np.nan
        flat[index[: count // 2]] = np.inf
        return poisoned


# -- in-task fault context ---------------------------------------------
#
# Pre-task faults are delivered by the pool's task wrapper; faults that
# act on *data inside the task* need the task body to consult the plan
# without threading (plan, site, attempt) through every signature.  The
# wrapper installs a thread-local context; the helpers below read it.

_ACTIVE = threading.local()


@contextmanager
def fault_scope(
    plan: Optional["FaultPlan"], site: str, attempt: int
) -> Iterator[None]:
    """Install the fault context for one task invocation."""
    previous = getattr(_ACTIVE, "context", None)
    _ACTIVE.context = None if plan is None else (plan, site, attempt)
    try:
        yield
    finally:
        _ACTIVE.context = previous


def poison_leakage(values: np.ndarray) -> np.ndarray:
    """Corrupt ``values`` per the active ``"nan"`` fault, if any.

    Shard task functions route freshly generated leakage through this
    hook; with no active fault context it is the identity.
    """
    context = getattr(_ACTIVE, "context", None)
    if context is None:
        return values
    plan, site, attempt = context
    return plan.poison(site, attempt, values)
