"""Fleet worker: pulls shard leases and runs them at local speed.

The other half of :mod:`repro.service.fleet`.  A :class:`FleetWorker`
dials the campaign server, sends one ``worker_register`` JSON line
advertising its capabilities — usable CPUs, lease slots, kernel
backends, and the config hashes already warm on this host (in-process
rebuilt inputs plus an optional on-disk cache directory scan) — then
switches the connection to binary frames and serves leases until the
server drains or the connection drops:

* a lease is one shard on one thread: up to ``slots`` leases run at
  once, each on its own thread (``asyncio.to_thread``) through
  :func:`repro.service.runners.run_attack_shard` /
  :func:`run_fullkey_shard`, which rebuild the campaign's shard source
  deterministically from the job parameters (once per configuration,
  however many leases ask at once) and run the single-host shard task
  over the lease's trace range;
* a heartbeat task reports liveness and the current warm-key set every
  ``heartbeat_s`` (the server dictates the interval at registration);
* ``revoke`` suppresses leases that have not started yet; a lease
  already running cannot be interrupted mid-kernel, so it finishes and
  sends its result anyway — the coordinator's idempotent merge drops
  the duplicate (this is deliberate: purity makes late results
  harmless, and finishing is cheaper than discarding it);
* a :class:`~repro.util.faults.FaultPlan` can be injected (tests, CI)
  to fire deterministic exceptions, hangs and truncated results keyed
  on the shard site and lease attempt — the same keying the
  single-host resilient runtime uses, so recovery paths are
  reproducible down to the attempt number;
* with ``reconnect=True`` the worker *outlives the server*: a dropped
  link (including a SIGKILLed coordinator) triggers a redial loop with
  seeded exponential backoff, the warm-key advertisement is re-sent at
  re-registration (cache-aware placement survives the restart), and
  leases from the dead session are re-validated — stale revocations
  are cleared, and any in-flight result that lands on the new
  connection is absorbed by the coordinator's idempotent merge.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
from typing import Dict, Optional, Set, Tuple

from repro.experiments.parallel import Shard
from repro.service.codec import CodecError, read_message, write_message
from repro.service.runners import (
    note_warm_key,
    run_attack_shard,
    run_fullkey_shard,
    warm_cache_keys,
)
from repro.service.server import STREAM_LIMIT
from repro.util.errors import ReproError
from repro.util.executors import execute_task, usable_cpu_count
from repro.util.faults import FaultPlan
from repro.util.rng import derive_seed

__all__ = [
    "FleetWorker",
    "WorkerError",
    "parse_worker_address",
    "run_worker",
]


class WorkerError(ReproError):
    """The worker cannot connect, register, or keep its connection."""


def parse_worker_address(address: str) -> Tuple[str, int]:
    """``HOST:PORT`` (or bare ``PORT`` for loopback) → (host, port)."""
    text = str(address).strip()
    host, sep, port_text = text.rpartition(":")
    if not sep:
        host, port_text = "127.0.0.1", text
    try:
        port = int(port_text)
    except ValueError:
        raise WorkerError(
            "worker address %r is not HOST:PORT" % address
        ) from None
    if not 0 < port <= 65535:
        raise WorkerError(
            "worker port must be >= 1 and <= 65535 (got %d)" % port
        )
    return host or "127.0.0.1", port


def _disk_warm_keys(cache_dir: Optional[str]) -> Set[str]:
    """Config hashes already materialized in an on-disk result cache."""
    if not cache_dir or not os.path.isdir(cache_dir):
        return set()
    keys = set()
    for name in os.listdir(cache_dir):
        stem, ext = os.path.splitext(name)
        if ext in (".json", ".npz") and stem:
            keys.add(stem)
    return keys


class FleetWorker:
    """One fleet worker process: register, heartbeat, execute leases."""

    def __init__(
        self,
        host: str,
        port: int,
        name: Optional[str] = None,
        slots: int = 1,
        cache_dir: Optional[str] = None,
        fault_plan: Optional[FaultPlan] = None,
        quiet: bool = False,
        reconnect: bool = False,
        max_reconnects: int = 10,
        reconnect_base_s: float = 0.5,
        reconnect_max_s: float = 30.0,
        reconnect_seed: int = 0,
    ):
        if slots < 1:
            raise WorkerError("worker slots must be >= 1")
        if max_reconnects < 1:
            raise WorkerError("max_reconnects must be >= 1")
        if reconnect_base_s <= 0 or reconnect_max_s < reconnect_base_s:
            raise WorkerError(
                "reconnect backoff must satisfy 0 < base <= max"
            )
        self.host = host
        self.port = port
        self.name = name or "worker-%d" % os.getpid()
        self.slots = slots
        self.cache_dir = cache_dir
        self.fault_plan = fault_plan
        self.quiet = quiet
        self.reconnect = reconnect
        self.max_reconnects = max_reconnects
        self.reconnect_base_s = reconnect_base_s
        self.reconnect_max_s = reconnect_max_s
        self.reconnect_seed = reconnect_seed
        self.worker_id: Optional[str] = None
        self._heartbeat_s = 2.0
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._send_lock = asyncio.Lock()
        self._slot_sem = asyncio.Semaphore(slots)
        self._revoked: Set[str] = set()
        self._draining = asyncio.Event()
        self._lease_tasks: Set[asyncio.Task] = set()
        self.leases_completed = 0
        #: Successful registrations so far; advertised at register so
        #: the coordinator can count genuine reconnects.
        self.sessions = 0

    def _log(self, text: str) -> None:
        if not self.quiet:
            print("[%s] %s" % (self.name, text), file=sys.stderr, flush=True)

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------
    async def _connect(self) -> None:
        for key in sorted(_disk_warm_keys(self.cache_dir)):
            note_warm_key(key)
        try:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port, limit=STREAM_LIMIT
            )
        except OSError as exc:
            raise WorkerError(
                "cannot reach fleet server at %s:%d (%s) — is "
                "`repro serve` running?" % (self.host, self.port, exc)
            ) from exc
        register = {
            "op": "worker_register",
            "worker": {
                "name": self.name,
                "pid": os.getpid(),
                "slots": self.slots,
                "cpus": usable_cpu_count(),
                "kernels": _kernel_backends(),
                "warm_keys": warm_cache_keys(),
                "reconnects": self.sessions,
            },
        }
        try:
            self._writer.write(json.dumps(register).encode("utf-8") + b"\n")
            await self._writer.drain()
            line = await self._reader.readline()
        except OSError as exc:
            # The server died mid-handshake (e.g. SIGKILLed between
            # accept and ack): retryable, exactly like a refused dial.
            raise WorkerError(
                "fleet server at %s:%d dropped the registration "
                "handshake (%s)" % (self.host, self.port, exc)
            ) from exc
        if not line:
            raise WorkerError("server closed the connection at register")
        try:
            ack = json.loads(line)
        except json.JSONDecodeError as exc:
            raise WorkerError("malformed registration ack") from exc
        if not ack.get("ok"):
            raise WorkerError(
                "registration rejected: %s" % ack.get("error", "unknown")
            )
        self.worker_id = str(ack["worker_id"])
        self._heartbeat_s = float(ack.get("heartbeat_s", 2.0))
        self._log(
            "registered as %s (%d slot(s), heartbeat %.1fs)"
            % (self.worker_id, self.slots, self._heartbeat_s)
        )

    async def run(self) -> None:
        """Serve leases; with ``reconnect``, survive link/server loss.

        Without ``reconnect`` this is one session: serve until the
        server drains or the connection drops.  With it, any lost link
        — including a SIGKILLed server — enters a redial loop with
        seeded exponential backoff (deterministic per attempt number,
        so chaos runs replay exactly); a local :meth:`drain` (SIGTERM)
        is always terminal.
        """
        failures = 0
        while True:
            try:
                await self._connect()
                failures = 0
                self.sessions += 1
                reason = await self._serve_session()
            except WorkerError as exc:
                if not self.reconnect or self._draining.is_set():
                    raise
                failures += 1
                if failures > self.max_reconnects:
                    raise WorkerError(
                        "gave up reconnecting to %s:%d after %d "
                        "attempt(s): %s"
                        % (self.host, self.port, failures - 1, exc)
                    ) from exc
                delay = self._backoff_delay(failures)
                self._log(
                    "connect attempt %d failed (%s); retrying in %.2fs"
                    % (failures, exc, delay)
                )
                try:
                    await asyncio.wait_for(
                        self._draining.wait(), timeout=delay
                    )
                except asyncio.TimeoutError:
                    pass
                if self._draining.is_set():
                    break
                continue
            if self._draining.is_set() or not self.reconnect:
                break
            # Lease re-validation across the gap: revocations from the
            # dead session are void (the restarted coordinator knows
            # nothing of those lease ids), and any still-running lease
            # will report on the new link where the idempotent merge
            # either uses it or drops it as a duplicate.
            self._revoked.clear()
            self._log("link lost (%s); reconnecting" % reason)
        self._log("disconnected (%d lease(s) served)" % self.leases_completed)

    def _backoff_delay(self, failures: int) -> float:
        """Seeded exponential backoff: deterministic, jittered, capped."""
        base = self.reconnect_base_s * (2.0 ** (failures - 1))
        draw = derive_seed(
            self.reconnect_seed, self.name, "reconnect", failures
        )
        jitter = (draw % (2**32)) / 2.0**32
        return min(self.reconnect_max_s, base) * (0.5 + 0.5 * jitter)

    async def _serve_session(self) -> str:
        """One registered session; returns why the link ended."""
        heartbeat = asyncio.create_task(
            self._heartbeat_loop(), name="worker-heartbeat"
        )
        reason = "connection closed"
        try:
            while not self._draining.is_set():
                read_task = asyncio.ensure_future(
                    read_message(self._reader)
                )
                drain_task = asyncio.ensure_future(self._draining.wait())
                done, _pending = await asyncio.wait(
                    {read_task, drain_task},
                    return_when=asyncio.FIRST_COMPLETED,
                )
                drain_task.cancel()
                if read_task not in done:
                    read_task.cancel()
                    reason = "local drain"
                    break  # drained while idle
                try:
                    message = read_task.result()
                except CodecError as exc:
                    if self.reconnect:
                        reason = "stream corrupted: %s" % exc
                        break
                    raise WorkerError(
                        "fleet stream corrupted: %s" % exc
                    ) from exc
                except (ConnectionResetError, OSError) as exc:
                    reason = "connection reset: %s" % exc
                    break
                if message is None:
                    break
                if not isinstance(message, dict):
                    continue
                kind = message.get("type")
                if kind == "lease":
                    task = asyncio.create_task(self._serve_lease(message))
                    self._lease_tasks.add(task)
                    task.add_done_callback(self._lease_tasks.discard)
                elif kind == "revoke":
                    self._revoked.add(str(message.get("lease_id")))
                elif kind == "drain":
                    reason = "server drain"
                    if not self.reconnect:
                        self._draining.set()
                    break
        finally:
            heartbeat.cancel()
            if self._lease_tasks:
                await asyncio.gather(
                    *self._lease_tasks, return_exceptions=True
                )
            if self._writer is not None:
                self._writer.close()
        return reason

    def drain(self) -> None:
        """Stop accepting leases; :meth:`run` returns after in-flight work."""
        self._draining.set()

    # ------------------------------------------------------------------
    # Lease execution
    # ------------------------------------------------------------------
    async def _send(self, message: object) -> None:
        async with self._send_lock:
            await write_message(self._writer, message)

    async def _serve_lease(self, lease: Dict[str, object]) -> None:
        lease_id = str(lease.get("lease_id"))
        async with self._slot_sem:
            if lease_id in self._revoked:
                self._revoked.discard(lease_id)
                return
            try:
                result = await asyncio.to_thread(self._run_lease, lease)
            except Exception as exc:  # noqa: BLE001 — report, stay alive
                try:
                    await self._send(
                        {
                            "type": "error",
                            "lease_id": lease_id,
                            "error": "%s: %s" % (type(exc).__name__, exc),
                        }
                    )
                except Exception:  # noqa: BLE001 — link already gone
                    pass
                return
        # Revoked-while-running leases still report: the result is
        # bit-identical by purity and the coordinator dedupes, so
        # sending is cheaper than discarding finished work.
        try:
            await self._send(
                {"type": "result", "lease_id": lease_id, "result": result}
            )
        except Exception:  # noqa: BLE001 — link already gone
            return
        self.leases_completed += 1
        note_warm_key(str(lease.get("cache_key") or "") or None)

    def _run_lease(self, lease: Dict[str, object]) -> object:
        """Execute one lease on a thread (the blocking hot path).

        The lease runs through the map's own task invocation
        (:func:`execute_task`), so faults key on the shard site and the
        lease attempt exactly as on the single-host runtime: a lease
        that dies on attempt 0 deterministically succeeds when the
        coordinator reassigns it at attempt 1, and a ``"truncate"``
        fault loses the payload's last element on the way back, for
        the coordinator's result validation to catch.
        """
        kind = str(lease.get("kind"))
        params = dict(lease.get("params") or {})
        start = int(lease["start"])  # type: ignore[arg-type]
        end = int(lease["end"])  # type: ignore[arg-type]
        ends = [int(p) for p in lease.get("segment_ends") or []]
        run_shard = {
            "attack": run_attack_shard,
            "fullkey": run_fullkey_shard,
        }.get(kind)
        if run_shard is None:
            raise WorkerError("lease has unknown job kind %r" % kind)

        def run(_lease: object) -> object:
            return [
                [int(boundary), state]
                for boundary, state in run_shard(params, start, end, ends)
            ]

        return execute_task(
            run, lease, Shard(start, end).site,
            int(lease.get("attempt") or 0), self.fault_plan,
        )

    # ------------------------------------------------------------------
    # Heartbeats
    # ------------------------------------------------------------------
    async def _heartbeat_loop(self) -> None:
        while True:
            await asyncio.sleep(self._heartbeat_s)
            try:
                await self._send(
                    {"type": "heartbeat", "warm_keys": warm_cache_keys()}
                )
            except Exception:  # noqa: BLE001 — run() will notice EOF
                return


def _kernel_backends() -> Dict[str, object]:
    """Active kernel backend metadata (capability advertisement)."""
    from repro.util import kernels

    try:
        return dict(kernels.backend_metadata())
    except Exception:  # noqa: BLE001 — capabilities are best-effort
        return {}


async def _run_with_signals(worker: FleetWorker) -> None:
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, worker.drain)
        except (NotImplementedError, RuntimeError):
            pass
    await worker.run()


def run_worker(
    address: str,
    name: Optional[str] = None,
    slots: int = 1,
    cache_dir: Optional[str] = None,
    quiet: bool = False,
    reconnect: bool = False,
    max_reconnects: int = 10,
    reconnect_base_s: float = 0.5,
) -> None:
    """Blocking entry point for ``repro worker ADDRESS``.

    ``slots`` is the number of leases served at once, each on one
    thread (``repro worker --workers N``).
    Connects, serves leases until SIGTERM/SIGINT (graceful: in-flight
    leases finish and report before the process exits) or server
    drain; with ``reconnect`` a lost server is redialed with seeded
    exponential backoff instead of exiting.
    """
    host, port = parse_worker_address(address)
    worker = FleetWorker(
        host,
        port,
        name=name,
        slots=slots,
        cache_dir=cache_dir,
        quiet=quiet,
        reconnect=reconnect,
        max_reconnects=max_reconnects,
        reconnect_base_s=reconnect_base_s,
    )
    asyncio.run(_run_with_signals(worker))
