"""Kernel backend selection: one mode for every hot numeric kernel.

Four hot kernels have two implementations each: the batched AES round
pipeline, the second-order IIR PDN recurrence, the shift estimator of
the preprocessing subsystem, and the fused sensor read.

* ``numpy`` — the reference path.  Always available, and the ground
  truth the native backend is asserted bit-identical against.  Each
  domain module owns its numpy function and names it where it
  dispatches: ``kernels.native_op("pdn", "integrate") or
  _integrate_numpy``.
* ``native`` — a small C library (:mod:`repro.util.kernels_native`)
  built once with the system compiler and loaded through ctypes.
  Requesting it on a host without a C compiler raises a structured
  :class:`KernelUnavailableError` naming what is missing.

The selection is one mode for all four kernels — ``auto`` (the
default: native when the C library loads, else numpy), ``numpy`` or
``native`` — taken from ``--kernels``, a service job's ``kernels``
param, or the ``REPRO_KERNELS`` environment variable.  :func:`use`
sets it in a :class:`contextvars.ContextVar`, so it belongs to the
job that set it: :func:`repro.util.executors.map_ordered` runs every
task in a copy of the submitting thread's context, and
``asyncio.to_thread`` does the same for service jobs, so two
concurrent jobs with different modes never see each other's.  A
kernel whose native op the library refused (a failed load-time
self-check) runs numpy under any mode.

The contract both backends honour is **bit-identical outputs** on
campaign inputs.  AES is exact integer arithmetic; the PDN recurrence
and the shift estimator evaluate the same float64 operations in the
same order on both backends (the native build disables FMA contraction
for exactly this reason, and the shift estimator repeats numpy's
pairwise summation); the sensor read reproduces numpy's ziggurat draws.
The test suite asserts exact equality on every available backend, and
``repro bench`` asserts it again before timing anything.

Dispatch happens at *call time*, so campaign objects never hold a
ctypes handle and checkpoint state pickles exactly as before.
"""

from __future__ import annotations

import contextvars
import os
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.util import kernels_native
from repro.util.errors import ReproError

__all__ = [
    "KERNEL_MODES",
    "KERNEL_NAMES",
    "KernelConfigError",
    "KernelUnavailableError",
    "active_backends",
    "available_backends",
    "backend_metadata",
    "check",
    "current_mode",
    "describe",
    "native_op",
    "use",
]

#: Environment variable consulted when no mode is set by :func:`use`.
KERNELS_ENV = "REPRO_KERNELS"

#: The hot kernels: the AES pipeline, the PDN recurrence, the fused
#: sensor read (jitter draw + masked Hamming weight), and the alignment
#: shift estimator.
KERNEL_NAMES = ("aes", "pdn", "sensor", "align")

#: The selection modes; one applies to every kernel.
KERNEL_MODES = ("auto", "numpy", "native")

#: The mode set by the innermost :func:`use` in this context (None:
#: fall back to ``REPRO_KERNELS``).
_MODE: contextvars.ContextVar[Optional[str]] = contextvars.ContextVar(
    "repro_kernels_mode", default=None
)


class KernelConfigError(ReproError):
    """A kernels mode is not one of :data:`KERNEL_MODES`."""


class KernelUnavailableError(ReproError):
    """A requested backend cannot be provided on this host.

    Raised when ``native`` is requested but the C library does not
    load; the message names the reason so the fix is actionable.
    """


def _validate(mode: str, source: str) -> str:
    if mode not in KERNEL_MODES:
        raise KernelConfigError(
            "unknown kernels mode %r%s (expected one of %s)"
            % (mode, source, ", ".join(KERNEL_MODES))
        )
    return mode


def check(mode: str) -> str:
    """Validate ``mode`` and probe that this host can serve it.

    Pure: enters no selection, so admission paths can call it for
    every request.  Returns the mode.

    Raises:
        KernelConfigError: ``mode`` is not one of :data:`KERNEL_MODES`.
        KernelUnavailableError: ``native`` on a host whose C library
            does not load, naming the reason.
    """
    _validate(mode, "")
    if mode == "native" and kernels_native.load_native() is None:
        raise KernelUnavailableError(
            "native kernels requested but no provider is available: %s"
            % kernels_native.unavailable_reason()
        )
    return mode


def current_mode() -> str:
    """The mode in effect: the innermost :func:`use`, else the env."""
    mode = _MODE.get()
    if mode is None:
        mode = _validate(
            os.environ.get(KERNELS_ENV, "").strip() or "auto",
            " in %s" % KERNELS_ENV,
        )
    return mode


def _provider():
    """The native provider serving the current mode, or None (numpy)."""
    mode = current_mode()
    if mode == "numpy":
        return None
    if mode == "native":
        check(mode)  # raises when the C library does not load
    return kernels_native.load_native()


def available_backends(kernel: str) -> Tuple[str, ...]:
    """Backends that would actually serve ``kernel`` on this host.

    Probes lazily (the first call may build the C library); the result
    is what the equality tests sweep over.
    """
    if kernel not in KERNEL_NAMES:
        raise ValueError("unknown kernel %r" % (kernel,))
    if kernels_native.load_native() is not None:
        return ("numpy", "native")
    return ("numpy",)


def active_backends() -> Dict[str, str]:
    """The resolved ``{kernel: backend}`` map under the current mode."""
    backend = "numpy" if _provider() is None else "native"
    return dict.fromkeys(KERNEL_NAMES, backend)


@contextmanager
def use(mode: Optional[str]) -> Iterator[None]:
    """Run the body under ``mode``, :func:`check`-ed first.

    The mode lives in the caller's context only and is reset on exit.
    ``None`` is a passthrough, so callers can apply an optional knob
    unconditionally: ``with kernels.use(params.get("kernels")):``.
    """
    if mode is None:
        yield
        return
    token = _MODE.set(check(mode))
    try:
        yield
    finally:
        _MODE.reset(token)


def native_op(kernel: str, op: str) -> Optional[Callable]:
    """The C implementation of ``op`` under the current mode, or None.

    None means the caller runs its own numpy reference: the mode is
    ``numpy``, no C library loads under ``auto``, or the library
    refused this kernel (e.g. a failed ``sensor``/``align`` self-check).
    """
    provider = _provider()
    return None if provider is None else provider.ops.get((kernel, op))


def backend_metadata() -> Dict[str, object]:
    """Provenance block for benchmark records.

    ``kernel_backends`` is the resolved map (e.g. ``{"aes": "native",
    "pdn": "native", ...}``) and ``native_provider`` names what serves
    the native backend (``"cc"`` or None) — perf snapshots are only
    comparable when the kernels that produced them are known.
    ``native_refused`` maps each kernel the loaded provider could not
    serve (e.g. a failed ``sensor`` or ``align`` self-check) to the
    reason; those kernels run on numpy.
    """
    provider = _provider()
    return {
        "kernel_backends": active_backends(),
        "native_provider": None if provider is None else provider.provider,
        "native_refused": {} if provider is None else dict(provider.refused),
    }


def describe() -> str:
    """One-line availability/selection report for ``repro bench``."""
    meta = backend_metadata()
    backends = meta["kernel_backends"]
    parts = [
        "%s=%s" % (kernel, backends[kernel]) for kernel in KERNEL_NAMES
    ]
    reason = kernels_native.unavailable_reason()
    if meta["native_provider"] is not None:
        native = "native: %s" % meta["native_provider"]
    elif reason == "available":
        native = "native: not selected"
    else:
        native = "native: unavailable (%s)" % reason
    refused = "".join(
        "; %s native refused: %s" % item
        for item in sorted(meta["native_refused"].items())
    )
    return "kernels: %s (%s%s)" % (" ".join(parts), native, refused)
