"""A real ``repro serve`` + ``repro worker`` pair, driven over TCP.

:class:`Service` launches the two processes exactly as a user would
(the server with a journal, a result cache and a spool directory; one
fleet worker with a one-thread local pool), times spawn-to-registered
as set-up, samples both processes' CPU from ``/proc``, and stops them
with SIGTERM.  :func:`closed_loop` is the load: :data:`CLIENTS`
client connections, each sending its next job only after the previous
one reached its terminal line.
"""

from __future__ import annotations

import asyncio
import os
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from common import BENCH_DIR, Child

_CLOCK_TICK = os.sysconf("SC_CLK_TCK")
#: Client connections of the closed loop, sized for a two-CPU host.
CLIENTS = 2


def _cpu_s(pid: int) -> float:
    """User + system CPU of a live process, all threads included."""
    with open("/proc/%d/stat" % pid, encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICK


class Service:
    """One server + one worker with their own state directories."""

    def __init__(self, workdir: Path, spans_prefix: Optional[Path] = None):
        self.workdir = workdir
        self.spans_prefix = spans_prefix
        self.port = 0
        self._server: Optional[Child] = None
        self._worker: Optional[Child] = None

    def _command(self, role: str, args: List[str]) -> List[str]:
        if self.spans_prefix is None:
            return [sys.executable, "-m", "repro", role] + args
        spans_file = "%s-%s.json" % (self.spans_prefix, role)
        return [sys.executable, str(BENCH_DIR / "traced.py"), spans_file, role] + args

    @property
    def span_files(self) -> List[str]:
        return ["%s-%s.json" % (self.spans_prefix, role) for role in ("serve", "worker")]

    def start(self, timeout_s: float) -> float:
        """Launch both processes; return spawn-to-registered seconds."""
        dirs = []
        for name in ("journal", "cache", "spool"):
            dirs += ["--%s-dir" % name, str(self.workdir / name)]
            (self.workdir / name).mkdir(parents=True, exist_ok=True)
        self._server = Child(
            self._command("serve", ["--port", "0"] + dirs),
            "listening on",
            "stdout",
        )
        line = self._server.wait_ready(timeout_s)
        self.port = int(line.rsplit(":", 1)[1])
        self._worker = Child(
            self._command(
                "worker",
                ["127.0.0.1:%d" % self.port, "--workers", "1", "--name", "bench-worker"],
            ),
            "registered as",
            "stderr",
        )
        self._worker.wait_ready(timeout_s)
        return self._worker.ready_at - self._server.started

    def cpu_s(self) -> Tuple[float, float]:
        """(server, worker) CPU seconds so far."""
        assert self._server is not None and self._worker is not None
        return _cpu_s(self._server.proc.pid), _cpu_s(self._worker.proc.pid)

    def stop(self) -> Dict[str, int]:
        """SIGTERM the server (its drain releases the worker); reap both.

        Returns the peak RSS of each process in KiB.  Safe to call after
        a failed :meth:`start`.
        """
        rss: Dict[str, int] = {}
        if self._server is not None:
            rss["serve"] = self._server.stop()
        if self._worker is not None:
            # The worker leaves on the server's drain message.  A signal
            # during its exit could cut a traced worker's span dump.
            rss["worker"] = self._worker.stop(terminate=False)
        return rss


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------


@dataclass
class Job:
    index: int
    kind: str
    label: str
    params: Dict[str, object]
    retain: bool


@dataclass
class JobResult:
    job: Job
    latency_s: float
    ok: bool
    traces: int
    error: Optional[str] = None
    payload: Optional[Dict[str, object]] = field(default=None, repr=False)


def plan(
    seed: int,
    tracegen_traces: int,
    attack_traces: int,
    retain_share: float,
) -> Iterator[Job]:
    """The seeded job sequence of the mixed service workload.

    Half are trace-generation requests with distinct seeds (they batch),
    30% attacks whose seed comes from a pool of four (cache hits after
    each seed's first run), 20% attacks with fresh seeds (cache misses,
    which become fleet leases).  The mix is exact in every block of ten
    jobs, shuffled within the block: a fresh attack costs far more than
    the other kinds, so independent draws would make the work of a
    ten-second window depend on the seed.  ``retain`` marks the seeded
    sample whose results are kept for verification.
    """
    rng = random.Random("service-mixed:%d" % seed)
    pool = [seed * 100_000 + 90_000 + k for k in range(4)]
    block = ["tracegen"] * 5 + ["attack-pool"] * 3 + ["attack-fresh"] * 2
    index = 0
    while True:
        rng.shuffle(block)
        for label in block:
            retain = rng.random() < retain_share
            if label == "tracegen":
                kind, params = "tracegen", {"traces": tracegen_traces}
            else:
                kind, params = "attack", {"traces": attack_traces}
            params["seed"] = (
                rng.choice(pool) if label == "attack-pool"
                else seed * 100_000 + index
            )
            yield Job(index, kind, label, params, retain)
            index += 1


async def _closed_loop(
    port: int, jobs: Iterator[Job], seconds: float
) -> Tuple[List[JobResult], float]:
    from repro.service.client import ServiceClient, ServiceError

    outcomes: List[JobResult] = []
    start = time.perf_counter()
    deadline = start + seconds

    async def client_loop() -> None:
        async with ServiceClient("127.0.0.1", port) as client:
            while time.perf_counter() < deadline:
                job = next(jobs)
                began = time.perf_counter()
                try:
                    view = await client.submit(job.kind, job.params)
                except ServiceError as exc:
                    outcomes.append(
                        JobResult(job, time.perf_counter() - began, False, 0, str(exc))
                    )
                    continue
                latency = time.perf_counter() - began
                ok = view.get("status") == "done"
                outcomes.append(
                    JobResult(
                        job,
                        latency,
                        ok,
                        int(job.params["traces"]) if ok else 0,  # type: ignore[arg-type]
                        None if ok else str(view.get("error")),
                        view.get("result") if ok and job.retain else None,  # type: ignore[arg-type]
                    )
                )

    await asyncio.gather(*(client_loop() for _ in range(CLIENTS)))
    return outcomes, time.perf_counter() - start


def closed_loop(
    port: int, jobs: Iterator[Job], seconds: float
) -> Tuple[List[JobResult], float]:
    """Run the closed loop; return every job's result and the window length."""
    return asyncio.run(_closed_loop(port, jobs, seconds))


def fetch_metrics(port: int) -> Dict[str, object]:
    from repro.service.client import fetch_metrics as fetch

    return fetch("127.0.0.1", port)
