"""Child process that calls the program's public runners.

Two modes, each printing JSON event lines on stdout:

``campaign.py run JOB SECONDS [SPANS]``
    Import the runners, run one small warm-up job of the same kind (the
    process is then *ready*: the orchestrator times spawn-to-ready as
    set-up), then run the full job back to back until ``SECONDS`` have
    passed.  With ``SPANS`` a second window of ``SECONDS`` follows with
    :mod:`spans` wrappers installed, and the spans are written to
    ``SPANS`` at exit.  Results are digested
    after the window, so the timed jobs do no checking work.
    ``SECONDS`` of 0 stops after the warm-up (a set-up sample).

``campaign.py verify JOBS``
    Run each job of the JSON list on the reference path
    (``kernels=numpy``, ``workers=1``) and print the result digests.

``JOB`` is ``{"kind", "params", "warmup_traces"}``; jobs are the
service's job kinds and parameters (``tracegen``, ``attack``,
``fullkey``).
"""

from __future__ import annotations

import json
import sys
import time
from typing import Dict, List, Optional

from common import digest


def _emit(**event: object) -> None:
    print(json.dumps(event), flush=True)


def _prepare(kind: str, params: Dict[str, object]):
    """The public runner for ``kind`` bound to normalized ``params``."""
    from repro.service import runners
    from repro.service.jobs import normalize_params

    runner = {
        "tracegen": runners.run_tracegen,
        "attack": runners.run_attack,
        "fullkey": runners.run_fullkey,
    }[kind]
    normalized = normalize_params(kind, params)
    return lambda: runner(normalized)


def _digest(kind: str, result: object) -> str:
    from repro.service.codec import to_payload

    return digest(to_payload(kind, result))


def run(job: Dict[str, object], seconds: float, spans_path: Optional[str]) -> None:
    kind = str(job["kind"])
    params = dict(job["params"])  # type: ignore[arg-type]
    warmup = _prepare(kind, dict(params, traces=job["warmup_traces"]))()
    _emit(event="ready")

    execute = _prepare(kind, params)
    phases = [("untraced", seconds)] if seconds > 0 else []
    if spans_path:
        phases.append(("traced", seconds))
    recorder = None
    results: List[object] = []
    report = []
    for phase, budget in phases:
        if phase == "traced":
            import spans

            recorder = spans.Recorder()
            spans.install(recorder)
        walls: List[float] = []
        cpu0 = time.process_time()
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            if recorder is None:
                results.append(execute())
            else:
                results.append(recorder.call("job", None, execute))
            ended = time.perf_counter()
            walls.append(ended - began)
            if ended - start >= budget:
                break
        report.append(
            {
                "phase": phase,
                "walls": walls,
                "window_s": time.perf_counter() - start,
                "cpu_s": time.process_time() - cpu0,
            }
        )
    if recorder is not None:
        recorder.dump(str(spans_path))
    _emit(
        event="done",
        phases=report,
        warmup_digest=_digest(kind, warmup),
        digests=[_digest(kind, result) for result in results],
    )


def verify(jobs: List[Dict[str, object]]) -> None:
    known: Dict[str, str] = {}
    digests = []
    for job in jobs:
        kind = str(job["kind"])
        params = dict(job["params"], kernels="numpy")  # type: ignore[arg-type]
        if kind != "tracegen":
            params["workers"] = 1
        key = json.dumps([kind, params], sort_keys=True)
        if key not in known:
            known[key] = _digest(kind, _prepare(kind, params)())
        digests.append(known[key])
    _emit(event="verified", digests=digests)


def main(argv: List[str]) -> int:
    if len(argv) >= 3 and argv[0] == "run":
        run(json.loads(argv[1]), float(argv[2]), argv[3] if len(argv) > 3 else None)
        return 0
    if len(argv) == 2 and argv[0] == "verify":
        verify(json.loads(argv[1]))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
