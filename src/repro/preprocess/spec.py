"""Declarative specs for acquisition realism and trace preprocessing.

Two small frozen dataclasses describe the whole ablation axis this
package opens up:

* :class:`MisalignmentSpec` — how *acquisition* distorts the time axis
  (trigger jitter, clock drift, sampling glitches).  It is consumed by
  :class:`repro.core.tracegen.PhysicalTraceGenerator`, which injects
  the distortion from its own seeded RNG streams, separate from the
  ambient-noise stream, so configurations without a spec stay
  bit-identical to every pre-existing output.
* :class:`PreprocessSpec` — how the *attacker* undoes it: static-window
  crop, alignment against a reference trace, polyphase resampling, and
  POI selection feeding a reduced-sample view into the streaming CPA.

Both have a compact one-line string grammar so they travel unchanged
through CLI flags (``--jitter``, ``--align``, ...), service job
``--param`` values, checkpoint manifests, and cache keys:

* misalignment — ``"uniform:3"``, ``"gaussian:1.5,drift=0.002"``,
  ``"none,glitch=0.01"``; the leading token is ``MODE:AMOUNT`` (or
  ``none``), the optional comma suffixes are ``drift=`` (relative
  clock-rate half-range) and ``glitch=`` (dropped/duplicated-sample
  probability).  ``uniform`` draws integer shifts (exactly undoable by
  alignment), ``gaussian`` draws fractional ones.
* preprocessing — semicolon-joined directives, e.g.
  ``"window=8:72;align=correlation:4;resample=3/2;poi=sost:3@512"``.
  ``align`` accepts ``correlation`` or ``sad`` with an optional
  ``:MAX_SHIFT``; ``poi`` accepts ``variance`` or ``sost`` with an
  optional ``:NUM_POI`` and ``@PILOT_TRACES``.

``to_string`` emits the canonical form (fixed field order, ``%g``
numbers unless ``%g`` would round, then ``repr``), so two specs that
mean the same job always hash to the same service cache key, and the
string parses back to an equal spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.util.errors import ReproError

__all__ = [
    "ALIGN_METHODS",
    "MisalignmentSpec",
    "POI_METHODS",
    "PreprocessError",
    "PreprocessSpec",
    "preprocess_spec_from_cli",
]


class PreprocessError(ReproError):
    """A misalignment/preprocess spec is malformed or inapplicable."""


#: Alignment methods (``none`` disables the stage).
ALIGN_METHODS = ("none", "correlation", "sad")

#: POI ranking methods (``none`` disables the stage).
POI_METHODS = ("none", "variance", "sost")

_SHIFT_MODES = ("none", "uniform", "gaussian")

#: Defaults of the alignment and POI parameters (also what a disabled
#: stage's parameters are normalised to).
_DEFAULT_MAX_SHIFT = 8
_DEFAULT_NUM_POI = 3
_DEFAULT_POI_TRACES = 512


def _format_number(value: float) -> str:
    """``%g`` when it parses back to ``value`` exactly, else ``repr``.

    ``%g`` keeps six significant digits, so a drift of ``0.020000049``
    would print as ``0.02`` — a different spec, and a different job
    under the same cache key and checkpoint manifest.  Every value that
    ``%g`` does round-trip keeps its old canonical string.
    """
    text = "%g" % float(value)
    return text if float(text) == float(value) else repr(float(value))


def _parse_float(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise PreprocessError(
            "%s must be a number, got %r" % (what, text)
        ) from None


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise PreprocessError(
            "%s must be an integer, got %r" % (what, text)
        ) from None


@dataclass(frozen=True)
class MisalignmentSpec:
    """Per-trace acquisition-time distortion of the sample axis.

    Attributes:
        shift_mode: trigger-misalignment distribution — ``none``,
            ``uniform`` (integer shifts in ``[-n, n]``) or ``gaussian``
            (fractional shifts, sigma ``shift_samples``).
        shift_samples: shift half-range / sigma, in samples.
        drift: relative clock-rate half-range; every trace is resampled
            by a per-trace factor drawn uniformly from
            ``[1 - drift, 1 + drift]``.
        glitch_rate: per-sample probability of a dropped or duplicated
            sample (half each).
    """

    shift_mode: str = "none"
    shift_samples: float = 0.0
    drift: float = 0.0
    glitch_rate: float = 0.0

    def __post_init__(self) -> None:
        for what, value in (
            ("jitter amount", self.shift_samples),
            ("drift", self.drift),
            ("glitch rate", self.glitch_rate),
        ):
            if not math.isfinite(value):
                raise PreprocessError(
                    "%s must be a finite number, got %r" % (what, value)
                )
        if self.shift_mode not in _SHIFT_MODES:
            raise PreprocessError(
                "jitter mode %r not one of %s"
                % (self.shift_mode, ", ".join(_SHIFT_MODES))
            )
        if self.shift_samples < 0:
            raise PreprocessError("jitter shift must be >= 0")
        if self.shift_mode == "none" and self.shift_samples:
            raise PreprocessError(
                "jitter mode 'none' cannot carry a shift amount"
            )
        if self.shift_mode != "none" and self.shift_samples <= 0:
            raise PreprocessError(
                "jitter mode %r needs a positive shift amount"
                % self.shift_mode
            )
        if not 0.0 <= self.drift < 1.0:
            raise PreprocessError("drift must lie in [0, 1)")
        if not 0.0 <= self.glitch_rate < 1.0:
            raise PreprocessError("glitch rate must lie in [0, 1)")

    @property
    def enabled(self) -> bool:
        return (
            self.shift_mode != "none"
            or self.drift > 0
            or self.glitch_rate > 0
        )

    def to_string(self) -> str:
        """Canonical one-line form (parses back to an equal spec)."""
        if self.shift_mode == "none":
            head = "none"
        else:
            head = "%s:%s" % (
                self.shift_mode,
                _format_number(self.shift_samples),
            )
        parts = [head]
        if self.drift > 0:
            parts.append("drift=%s" % _format_number(self.drift))
        if self.glitch_rate > 0:
            parts.append("glitch=%s" % _format_number(self.glitch_rate))
        return ",".join(parts)

    @classmethod
    def from_string(cls, text: str) -> "MisalignmentSpec":
        """Parse the ``--jitter`` grammar (see module docstring)."""
        tokens = [t.strip() for t in str(text).strip().split(",")]
        if not tokens or not tokens[0]:
            raise PreprocessError("empty jitter spec")
        head = tokens[0]
        if head == "none":
            mode, amount = "none", 0.0
        else:
            name, sep, value = head.partition(":")
            if name not in _SHIFT_MODES:
                raise PreprocessError(
                    "jitter mode %r not one of %s"
                    % (name, ", ".join(_SHIFT_MODES))
                )
            if not sep:
                raise PreprocessError(
                    "jitter %r needs an amount, e.g. %r" % (name, name + ":2")
                )
            mode, amount = name, _parse_float(value, "jitter amount")
        options: Dict[str, float] = {}
        for token in tokens[1:]:
            key, sep, value = token.partition("=")
            if not sep or key not in ("drift", "glitch"):
                raise PreprocessError(
                    "unknown jitter option %r (valid: drift=, glitch=)"
                    % token
                )
            if key in options:
                raise PreprocessError(
                    "jitter option %r given more than once" % key
                )
            options[key] = _parse_float(
                value, "drift" if key == "drift" else "glitch rate"
            )
        return cls(
            shift_mode=mode,
            shift_samples=amount,
            drift=options.get("drift", 0.0),
            glitch_rate=options.get("glitch", 0.0),
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "shift_mode": self.shift_mode,
            "shift_samples": float(self.shift_samples),
            "drift": float(self.drift),
            "glitch_rate": float(self.glitch_rate),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MisalignmentSpec":
        return cls(
            shift_mode=str(data.get("shift_mode", "none")),
            shift_samples=float(data.get("shift_samples", 0.0)),  # type: ignore[arg-type]
            drift=float(data.get("drift", 0.0)),  # type: ignore[arg-type]
            glitch_rate=float(data.get("glitch_rate", 0.0)),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class PreprocessSpec:
    """Composable attacker-side preprocessing of acquired traces.

    Stages run in a fixed order — align, crop, resample, POI-select —
    because alignment needs the full-length trace, cropping fixes the
    resampler's input span, and POI ranking happens in the final
    sample space.

    Attributes:
        window: ``(start, end)`` crop in original samples, or None.
        align: ``none`` / ``correlation`` / ``sad``.
        max_shift: alignment search half-range in samples.
        resample: ``(up, down)`` polyphase rate change, or None.
        poi: ``none`` / ``variance`` / ``sost`` ranking method.
        num_poi: points of interest kept per target column.
        poi_traces: pilot traces used to rank candidate points.
    """

    window: Optional[Tuple[int, int]] = None
    align: str = "none"
    max_shift: int = _DEFAULT_MAX_SHIFT
    resample: Optional[Tuple[int, int]] = None
    poi: str = "none"
    num_poi: int = _DEFAULT_NUM_POI
    poi_traces: int = _DEFAULT_POI_TRACES

    def __post_init__(self) -> None:
        if self.window is not None:
            start, end = self.window
            object.__setattr__(self, "window", (int(start), int(end)))
            if int(start) < 0 or int(end) <= int(start):
                raise PreprocessError(
                    "window must satisfy 0 <= start < end, got %d:%d"
                    % (start, end)
                )
        if self.align not in ALIGN_METHODS:
            raise PreprocessError(
                "alignment method %r not one of %s"
                % (self.align, ", ".join(ALIGN_METHODS))
            )
        if self.max_shift < 1:
            raise PreprocessError("max_shift must be >= 1")
        if self.resample is not None:
            up, down = self.resample
            object.__setattr__(self, "resample", (int(up), int(down)))
            if int(up) < 1 or int(down) < 1:
                raise PreprocessError(
                    "resample factors must be positive, got %d/%d"
                    % (up, down)
                )
        if self.poi not in POI_METHODS:
            raise PreprocessError(
                "POI method %r not one of %s"
                % (self.poi, ", ".join(POI_METHODS))
            )
        if self.num_poi < 1:
            raise PreprocessError("num_poi must be >= 1")
        if self.poi_traces < 2:
            raise PreprocessError("poi_traces must be >= 2")
        # A disabled stage ignores its parameters and ``to_string``
        # omits them, so they take their defaults: specs that mean the
        # same job compare equal and round-trip through the string.
        if self.align == "none":
            object.__setattr__(self, "max_shift", _DEFAULT_MAX_SHIFT)
        if self.poi == "none":
            object.__setattr__(self, "num_poi", _DEFAULT_NUM_POI)
            object.__setattr__(self, "poi_traces", _DEFAULT_POI_TRACES)

    @property
    def enabled(self) -> bool:
        return (
            self.window is not None
            or self.align != "none"
            or self.resample is not None
            or self.poi != "none"
        )

    def to_string(self) -> str:
        """Canonical one-line form (parses back to an equal spec)."""
        parts = []
        if self.window is not None:
            parts.append("window=%d:%d" % self.window)
        if self.align != "none":
            parts.append("align=%s:%d" % (self.align, self.max_shift))
        if self.resample is not None:
            parts.append("resample=%d/%d" % self.resample)
        if self.poi != "none":
            parts.append(
                "poi=%s:%d@%d" % (self.poi, self.num_poi, self.poi_traces)
            )
        return ";".join(parts) if parts else "none"

    @classmethod
    def from_string(cls, text: str) -> "PreprocessSpec":
        """Parse the semicolon-joined directive grammar."""
        cleaned = str(text).strip()
        if cleaned == "none" or not cleaned:
            return cls()
        fields: Dict[str, object] = {}
        for token in cleaned.split(";"):
            token = token.strip()
            if not token:
                continue
            key, sep, value = token.partition("=")
            if not sep:
                raise PreprocessError(
                    "preprocess directive %r is not KEY=VALUE "
                    "(valid keys: window, align, resample, poi)" % token
                )
            if key in fields:
                raise PreprocessError(
                    "preprocess directive %r given more than once" % key
                )
            if key == "window":
                start, sep2, end = value.partition(":")
                if not sep2:
                    raise PreprocessError(
                        "window must be START:END, got %r" % value
                    )
                fields["window"] = (
                    _parse_int(start, "window start"),
                    _parse_int(end, "window end"),
                )
            elif key == "align":
                method, sep2, max_shift = value.partition(":")
                fields["align"] = method
                if sep2:
                    fields["max_shift"] = _parse_int(
                        max_shift, "alignment max shift"
                    )
            elif key == "resample":
                up, sep2, down = value.partition("/")
                if not sep2:
                    raise PreprocessError(
                        "resample must be UP/DOWN, got %r" % value
                    )
                fields["resample"] = (
                    _parse_int(up, "resample up factor"),
                    _parse_int(down, "resample down factor"),
                )
            elif key == "poi":
                method, sep2, rest = value.partition(":")
                fields["poi"] = method
                if sep2:
                    count, sep3, pilots = rest.partition("@")
                    fields["num_poi"] = _parse_int(count, "num_poi")
                    if sep3:
                        fields["poi_traces"] = _parse_int(
                            pilots, "poi_traces"
                        )
            else:
                raise PreprocessError(
                    "unknown preprocess key %r "
                    "(valid: window, align, resample, poi)" % key
                )
        return cls(**fields)  # type: ignore[arg-type]

    def to_dict(self) -> Dict[str, object]:
        return {
            "window": None if self.window is None else list(self.window),
            "align": self.align,
            "max_shift": int(self.max_shift),
            "resample": (
                None if self.resample is None else list(self.resample)
            ),
            "poi": self.poi,
            "num_poi": int(self.num_poi),
            "poi_traces": int(self.poi_traces),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PreprocessSpec":
        window = data.get("window")
        resample = data.get("resample")
        return cls(
            window=None if window is None else tuple(window),  # type: ignore[arg-type]
            align=str(data.get("align", "none")),
            max_shift=int(data.get("max_shift", _DEFAULT_MAX_SHIFT)),  # type: ignore[arg-type]
            resample=None if resample is None else tuple(resample),  # type: ignore[arg-type]
            poi=str(data.get("poi", "none")),
            num_poi=int(data.get("num_poi", _DEFAULT_NUM_POI)),  # type: ignore[arg-type]
            poi_traces=int(data.get("poi_traces", _DEFAULT_POI_TRACES)),  # type: ignore[arg-type]
        )


def preprocess_spec_from_cli(
    align: Optional[str] = None,
    poi: Optional[str] = None,
    window: Optional[str] = None,
    resample: Optional[str] = None,
) -> Optional[PreprocessSpec]:
    """Compose the ``--align``/``--poi``/``--window``/``--resample``
    flag values into one spec (None when no flag was given)."""
    parts = []
    if window is not None:
        parts.append("window=%s" % window)
    if align is not None:
        parts.append("align=%s" % align)
    if resample is not None:
        parts.append("resample=%s" % resample)
    if poi is not None:
        parts.append("poi=%s" % poi)
    if not parts:
        return None
    return PreprocessSpec.from_string(";".join(parts))
