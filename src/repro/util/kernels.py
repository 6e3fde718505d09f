"""Kernel dispatch registry: one switch for every hot numeric kernel.

Five hot kernels sit behind this registry: the batched AES round
pipeline (with the hypothesis blocks), the second-order IIR PDN
recurrence, the streaming-CPA accumulate, the shift estimator of the
preprocessing subsystem, and the fused sensor read.  This module is
the single place that decides which implementation of each runs:

* ``numpy`` — the reference path.  Always available, and the ground
  truth the native backend is asserted bit-identical against.
* ``native`` — a small C library (:mod:`repro.util.kernels_native`)
  built once with the system compiler and loaded through ctypes.
  Requesting it on a host without a C compiler raises a structured
  :class:`KernelUnavailableError` naming what is missing.

Selection is driven by the ``REPRO_KERNELS`` environment variable or
the ``--kernels`` CLI/service knob.  A spec is either one mode for all
kernels (``auto`` | ``numpy`` | ``native``) or a per-kernel map such as
``aes=native,pdn=numpy``.  ``auto`` (the default) resolves each kernel
to ``native`` when the provider loads, else to ``numpy``.

The contract both backends honour is **bit-identical outputs** on
campaign inputs.  AES and the hypothesis blocks are exact integer
arithmetic; the PDN recurrence and the shift estimator evaluate the
same float64 operations in the same order on both backends (the native
build disables FMA contraction for exactly this reason, and the shift
estimator repeats numpy's pairwise summation); the CPA sums are
float64 sums of integer-valued leakage/hypotheses, which are
order-independent and therefore exact (the same property
:meth:`StreamingCPA.merge` already relies on).  The test suite asserts
exact equality on every available backend, and ``repro bench`` asserts
it again before timing anything.

Dispatch happens at *call time* from module-level functions, so nothing
unpicklable (ctypes handles) is ever stored on campaign objects, and
checkpoint state pickles exactly as before.  :func:`configure` exports
the active spec through the environment so child processes inherit it
too.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.util.errors import ReproError

__all__ = [
    "KERNEL_MODES",
    "KERNEL_NAMES",
    "KernelConfigError",
    "KernelUnavailableError",
    "active_backends",
    "available_backends",
    "backend_metadata",
    "configure",
    "describe",
    "dispatch",
    "invalidate_cache",
    "parse_spec",
    "register_backend",
    "use",
]

#: Environment variable consulted when no explicit spec is configured.
KERNELS_ENV = "REPRO_KERNELS"

#: The hot kernels behind the registry: the three original campaign
#: kernels, the fused sensor read (jitter draw + masked Hamming weight),
#: and the alignment shift estimator.
KERNEL_NAMES = ("aes", "pdn", "cpa", "sensor", "align")

#: Accepted selection modes (per kernel or for all kernels at once).
KERNEL_MODES = ("auto", "numpy", "native")


class KernelConfigError(ReproError):
    """A kernel spec is malformed: unknown mode or kernel name."""


class KernelUnavailableError(ReproError):
    """A requested backend cannot be provided on this host.

    Raised when ``native`` is requested but the C library does not
    load; the message names the reason so the fix is actionable.
    """


def parse_spec(spec: Optional[str]) -> Dict[str, str]:
    """Parse a kernel spec into a ``{kernel: mode}`` map.

    Accepts a single mode (``"native"`` applies to all kernels) or a
    comma-separated per-kernel map (``"aes=native,pdn=numpy"``; kernels
    not named default to ``auto``).  ``None`` or ``""`` means ``auto``
    everywhere.

    Raises:
        KernelConfigError: on an unknown mode or kernel name, with the
            accepted values in the message.
    """
    modes = {kernel: "auto" for kernel in KERNEL_NAMES}
    if spec is None:
        return modes
    spec = spec.strip()
    if not spec:
        return modes
    if "=" not in spec:
        if spec not in KERNEL_MODES:
            raise KernelConfigError(
                "unknown kernels mode %r (expected one of %s, or a "
                "per-kernel map like aes=native,pdn=numpy)"
                % (spec, ", ".join(KERNEL_MODES))
            )
        return {kernel: spec for kernel in KERNEL_NAMES}
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        kernel, sep, mode = entry.partition("=")
        kernel = kernel.strip()
        mode = mode.strip()
        if not sep or kernel not in KERNEL_NAMES:
            raise KernelConfigError(
                "unknown kernel %r in kernels spec %r (expected "
                "KERNEL=MODE entries with kernels %s)"
                % (kernel, spec, ", ".join(KERNEL_NAMES))
            )
        if mode not in KERNEL_MODES:
            raise KernelConfigError(
                "unknown mode %r for kernel %r (expected one of %s)"
                % (mode, kernel, ", ".join(KERNEL_MODES))
            )
        modes[kernel] = mode
    return modes


# ----------------------------------------------------------------------
# Implementation registry
# ----------------------------------------------------------------------

#: ``(kernel, backend) -> {op_name: callable}``.  The ``numpy`` entries
#: are registered by the domain modules that own them (``aes/batch``,
#: ``attacks/models``, ``pdn/model``, ``attacks/cpa``, ...) at import time,
#: so the reference implementation and its registration can never
#: drift apart.  ``native`` ops live on the lazily loaded provider
#: instead (see :func:`dispatch`).
_IMPLS: Dict[Tuple[str, str], Dict[str, Callable]] = {}

#: The module(s) whose import registers each kernel's ops.  Probing a
#: kernel's availability (or dispatching it) before its domain module
#: happens to be imported must not silently miss backends, so the
#: registry imports them on demand; re-imports are cached no-ops.
_DOMAIN_MODULES: Dict[str, Tuple[str, ...]] = {
    "aes": ("repro.aes.batch", "repro.attacks.models"),
    "pdn": ("repro.pdn.model",),
    "cpa": ("repro.attacks.cpa",),
    "sensor": ("repro.core.waveform_bank",),
    "align": ("repro.preprocess.align",),
}


def _ensure_registered(kernel: str) -> None:
    import importlib  # noqa: PLC0415 — lazy

    for module in _DOMAIN_MODULES.get(kernel, ()):
        importlib.import_module(module)


def register_backend(
    kernel: str, backend: str, **ops: Callable
) -> None:
    """Register (or extend) a backend's ops for one kernel."""
    if kernel not in KERNEL_NAMES:
        raise ValueError("unknown kernel %r" % (kernel,))
    _IMPLS.setdefault((kernel, backend), {}).update(ops)


# ----------------------------------------------------------------------
# Availability probing
# ----------------------------------------------------------------------


def _load_native():
    """The native provider, or None (lazy import keeps startup cheap)."""
    from repro.util import kernels_native  # noqa: PLC0415 — lazy

    return kernels_native.load_native()


def _native_unavailable_reason() -> str:
    from repro.util import kernels_native  # noqa: PLC0415 — lazy

    return kernels_native.unavailable_reason()


def available_backends(kernel: str) -> Tuple[str, ...]:
    """Backends that would actually serve ``kernel`` on this host.

    Probes lazily (the first call may build the C library); the result
    is what the import-parametrized equality tests sweep over.
    """
    if kernel not in KERNEL_NAMES:
        raise ValueError("unknown kernel %r" % (kernel,))
    _ensure_registered(kernel)
    if _load_native() is not None:
        return ("numpy", "native")
    return ("numpy",)


# ----------------------------------------------------------------------
# Active selection
# ----------------------------------------------------------------------

_LOCK = threading.Lock()
#: Explicitly configured spec (None: fall back to the environment).
_CONFIGURED_SPEC: Optional[str] = None
#: Resolved ``{kernel: backend}`` map, invalidated by :func:`configure`.
_RESOLVED: Optional[Dict[str, str]] = None
#: The spec string the resolved map was derived from (cache key, so a
#: changed environment variable is picked up without a configure call).
_RESOLVED_FOR: Optional[str] = None


def _current_spec() -> Optional[str]:
    if _CONFIGURED_SPEC is not None:
        return _CONFIGURED_SPEC
    return os.environ.get(KERNELS_ENV) or None


def _resolve_one(kernel: str, mode: str) -> str:
    _ensure_registered(kernel)
    if mode == "numpy":
        return "numpy"
    if _load_native() is not None:
        return "native"
    if mode == "native":
        raise KernelUnavailableError(
            "native kernels requested for %r but no provider is "
            "available: %s" % (kernel, _native_unavailable_reason())
        )
    return "numpy"


def _resolve(spec: Optional[str]) -> Dict[str, str]:
    modes = parse_spec(spec)
    # An unknown REPRO_NATIVE_PROVIDER is a config error even under an
    # all-numpy spec, not a silent switch to numpy.
    from repro.util import kernels_native  # noqa: PLC0415 — lazy

    kernels_native.provider_request()
    return {
        kernel: _resolve_one(kernel, modes[kernel])
        for kernel in KERNEL_NAMES
    }


def active_backends() -> Dict[str, str]:
    """The resolved ``{kernel: backend}`` map currently in effect."""
    global _RESOLVED, _RESOLVED_FOR
    spec = _current_spec()
    resolved = _RESOLVED
    if resolved is not None and _RESOLVED_FOR == spec:
        return dict(resolved)
    with _LOCK:
        if _RESOLVED is None or _RESOLVED_FOR != spec:
            _RESOLVED = _resolve(spec)
            _RESOLVED_FOR = spec
        return dict(_RESOLVED)


def configure(spec: Optional[str]) -> Dict[str, str]:
    """Select the kernel backends process-wide and return the map.

    Validates the spec and ``REPRO_NATIVE_PROVIDER``, resolves it
    eagerly (so an unavailable ``native`` request fails here, with the
    structured error, rather than deep inside a campaign), and exports
    it through ``REPRO_KERNELS`` so child processes resolve
    identically.  Passing ``None`` restores the
    environment-driven default.
    """
    global _CONFIGURED_SPEC, _RESOLVED, _RESOLVED_FOR
    resolved = _resolve(spec)
    with _LOCK:
        _CONFIGURED_SPEC = spec
        if spec is None:
            os.environ.pop(KERNELS_ENV, None)
        else:
            os.environ[KERNELS_ENV] = spec
        _RESOLVED = resolved
        _RESOLVED_FOR = _current_spec()
    return dict(resolved)


@contextmanager
def use(spec: Optional[str]) -> Iterator[Dict[str, str]]:
    """Temporarily :func:`configure` a spec (restores the previous one).

    ``None`` is a no-op passthrough, so callers can apply an optional
    knob unconditionally: ``with kernels.use(params.get("kernels")):``.
    """
    global _CONFIGURED_SPEC, _RESOLVED, _RESOLVED_FOR
    if spec is None:
        yield active_backends()
        return
    previous = _CONFIGURED_SPEC
    previous_env = os.environ.get(KERNELS_ENV)
    try:
        yield configure(spec)
    finally:
        with _LOCK:
            _CONFIGURED_SPEC = previous
            if previous_env is None:
                os.environ.pop(KERNELS_ENV, None)
            else:
                os.environ[KERNELS_ENV] = previous_env
            _RESOLVED = None
            _RESOLVED_FOR = None


def invalidate_cache() -> None:
    """Drop cached resolution + availability probes (test hook).

    Needed when a test flips ``REPRO_NATIVE_PROVIDER`` or otherwise
    changes host availability underneath an already-resolved map.
    """
    global _RESOLVED, _RESOLVED_FOR
    from repro.util import kernels_native  # noqa: PLC0415 — lazy

    with _LOCK:
        _RESOLVED = None
        _RESOLVED_FOR = None
        kernels_native._reset_for_tests()


def dispatch(kernel: str, op: str) -> Callable:
    """The implementation of ``op`` under the active backend map.

    Resolution happens here, at call time, never at object-construction
    time — campaign objects stay free of backend handles and therefore
    picklable.  A kernel the native provider refused (e.g. a ``sensor``
    or ``align`` op whose load-time self-check failed) dispatches numpy.
    """
    _ensure_registered(kernel)
    if active_backends()[kernel] == "native":
        provider = _load_native()
        fn = provider.ops.get((kernel, op)) if provider is not None else None
        if fn is not None:
            return fn
    return _IMPLS[(kernel, "numpy")][op]


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def backend_metadata() -> Dict[str, object]:
    """Provenance block for benchmark records.

    ``kernel_backends`` is the resolved map (e.g. ``{"aes": "native",
    "pdn": "native", "cpa": "numpy", ...}``) and ``native_provider``
    names what serves the native backend (``"cc"`` or None) — perf
    snapshots are only comparable when the kernels that produced them
    are known.  ``native_refused`` maps each kernel the loaded provider
    could not serve (e.g. a failed ``sensor`` or ``align`` self-check)
    to the reason; those kernels run on numpy through :func:`dispatch`.
    """
    backends = active_backends()
    provider = None
    refused: Dict[str, str] = {}
    if "native" in backends.values():
        native = _load_native()
        if native is not None:
            provider = native.provider
            refused = {
                kernel: reason
                for kernel, reason in native.refused.items()
                if backends.get(kernel) == "native"
            }
    return {
        "kernel_backends": backends,
        "native_provider": provider,
        "native_refused": refused,
    }


def describe() -> str:
    """One-line availability/selection report for ``repro bench``."""
    meta = backend_metadata()
    backends = meta["kernel_backends"]
    parts = [
        "%s=%s" % (kernel, backends[kernel]) for kernel in KERNEL_NAMES
    ]
    if meta["native_provider"] is not None:
        native = "native: %s" % meta["native_provider"]
    else:
        native = "native: unavailable (%s)" % _native_unavailable_reason()
    refused = "".join(
        "; %s native refused: %s" % item
        for item in sorted(meta["native_refused"].items())
    )
    return "kernels: %s (%s%s)" % (" ".join(parts), native, refused)
