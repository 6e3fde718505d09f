"""Helpers shared by the benchmark's processes.

Paths of the checkout, the environment every child process runs in,
the result digest both sides of a correctness check compute, and the
order statistics the metrics are built from.  Importing this module
touches nothing outside the standard library, so the orchestrator can
refuse to run before it loads any of the program under test.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Everything a run leaves behind lives here (ignored by git).
BUILD = ROOT / ".bench_build"
#: A child still alive this long after SIGTERM is killed.
KILL_AFTER_S = 30.0


def require_checkout() -> None:
    """Exit non-zero unless the program's sources are beside the bench.

    On success the sources become importable here too: the service
    workload's client runs in the orchestrator.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            "bench: no package sources at %s — run the benchmark from "
            "the root of a repository checkout" % SRC
        )
    sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment of every process the benchmark starts.

    Inherited ``REPRO_*`` settings are dropped so a caller's shell
    cannot select kernels or caches behind the benchmark's back; the
    compiled kernel library is cached inside the checkout.
    """
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    env["REPRO_KERNELS_CACHE"] = str(BUILD / "kernels")
    return env


class Child:
    """A child process whose output is drained by two threads.

    ``ready_marker`` is a substring of the line on ``stream`` (``stdout``
    or ``stderr``) that announces the child is ready; :attr:`ready_at`
    is when the line arrived.  Every line of that stream is kept in
    :attr:`lines`; the last lines of both streams in :attr:`tail`.
    """

    def __init__(self, argv: List[str], ready_marker: str, stream: str):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(),
            text=True,
        )
        self.ready_at: Optional[float] = None
        self.lines: List[str] = []
        self.tail: List[str] = []
        self._marker = ready_marker
        self._ready = threading.Event()
        self._threads = [
            threading.Thread(
                target=self._drain,
                args=(getattr(self.proc, name), name == stream),
                daemon=True,
            )
            for name in ("stdout", "stderr")
        ]
        for thread in self._threads:
            thread.start()

    def _drain(self, pipe, watched: bool) -> None:
        for line in pipe:
            if watched:
                arrived = time.perf_counter()
                self.lines.append(line.rstrip("\n"))
                if self.ready_at is None and self._marker in line:
                    self.ready_at = arrived
                    self._ready.set()
            self.tail = (self.tail + [line.rstrip()])[-20:]
        self._ready.set()  # EOF: wake the waiter so it can report the exit

    def wait_ready(self, timeout_s: float) -> str:
        """The ready line; raises if the child exits or times out first."""
        self._ready.wait(timeout_s)
        for line in self.lines:
            if self._marker in line:
                return line
        raise RuntimeError(
            "%s did not become ready: %s"
            % (" ".join(self.proc.args[1:4]), " | ".join(self.tail))
        )

    def events(self, name: str) -> List[Dict[str, object]]:
        """The JSON event lines ``{"event": name, ...}`` printed so far."""
        found = []
        for line in self.lines:
            if line.startswith('{"event"'):
                event = json.loads(line)
                if event.get("event") == name:
                    found.append(event)
        return found

    def stop(self, terminate: bool = True, grace_s: float = 10.0) -> int:
        """Reap the child and return its peak RSS in KiB.

        With ``terminate`` it gets SIGTERM at once; otherwise it has
        ``grace_s`` to exit on its own first.
        """
        deadline = time.monotonic() + grace_s
        while not terminate:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                return self._reaped(status, usage)
            if time.monotonic() >= deadline:
                break
            time.sleep(0.02)
        self.proc.send_signal(signal.SIGTERM)
        timer = threading.Timer(KILL_AFTER_S, self.proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
        return self._reaped(status, usage)

    def _reaped(self, status: int, usage) -> int:
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        for thread in self._threads:
            thread.join()
        return int(usage.ru_maxrss)


def digest(payload: object) -> str:
    """SHA-256 of a result payload's canonical JSON form.

    Payloads are the service codec's tagged dicts (arrays as exact
    base64 bytes), so equal digests mean bit-identical results whether
    the payload was built in-process or decoded from the wire.
    """
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def percentile(values: Sequence[float], fraction: float) -> float:
    """Inclusive-method percentile (the sample itself when n == 1)."""
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return float(cuts[round(fraction * 100) - 1])


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 below 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def load_declaration() -> Dict[str, object]:
    """The root ``BENCHMARK.json`` (metric units, bounds, workloads)."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)
