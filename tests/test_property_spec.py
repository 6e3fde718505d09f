"""Property tests: the spec grammars round-trip and fail only one way.

``MisalignmentSpec`` and ``PreprocessSpec`` strings are cache keys and
checkpoint-manifest entries, so a spec's canonical string must parse
back to an *equal* spec (a lossy string lets one campaign's checkpoint
be resumed as another's), and any text a user can type either parses
or raises :class:`PreprocessError` — the one-line exit-2 error — never
another exception type.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.preprocess.spec import (
    ALIGN_METHODS,
    POI_METHODS,
    MisalignmentSpec,
    PreprocessError,
    PreprocessSpec,
)

#: Deterministic example generation: the suite must not flake.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=300)

_POSITIVE = st.floats(
    min_value=0.0, max_value=1e6, exclude_min=True,
    allow_nan=False, allow_infinity=False,
)
_RATE = st.one_of(
    st.just(0.0),
    st.floats(
        min_value=0.0, max_value=1.0, exclude_max=True,
        allow_nan=False, allow_infinity=False,
    ),
)


@st.composite
def misalignment_specs(draw):
    mode = draw(st.sampled_from(["none", "uniform", "gaussian"]))
    return MisalignmentSpec(
        shift_mode=mode,
        shift_samples=0.0 if mode == "none" else draw(_POSITIVE),
        drift=draw(_RATE),
        glitch_rate=draw(_RATE),
    )


_COUNT = st.integers(min_value=1, max_value=10**6)


@st.composite
def preprocess_specs(draw):
    window = None
    if draw(st.booleans()):
        start = draw(st.integers(min_value=0, max_value=10**6))
        window = (start, start + draw(_COUNT))
    resample = None
    if draw(st.booleans()):
        resample = (draw(_COUNT), draw(_COUNT))
    return PreprocessSpec(
        window=window,
        align=draw(st.sampled_from(ALIGN_METHODS)),
        max_shift=draw(_COUNT),
        resample=resample,
        poi=draw(st.sampled_from(POI_METHODS)),
        num_poi=draw(_COUNT),
        poi_traces=draw(st.integers(min_value=2, max_value=10**6)),
    )


#: Characters and words of both grammars, so drawn text is mostly
#: near-miss spec strings rather than noise.
_TOKENS = st.sampled_from([
    "none", "uniform", "gaussian", "drift", "glitch", "window", "align",
    "resample", "poi", "correlation", "sad", "variance", "sost", "nan",
    "inf", "1e400", "-", "+", ".", "e", ":", "=", ",", ";", "/", "@",
    " ", "0", "1", "2", "3", "0.5", "8", "72",
])
_TEXT = st.lists(_TOKENS, max_size=12).map("".join)


@st.composite
def mutated(draw, specs):
    """A canonical spec string with one character replaced, inserted
    or deleted (or left alone)."""
    text = draw(specs).to_string()
    at = draw(st.integers(min_value=0, max_value=len(text)))
    edit = draw(st.sampled_from(["keep", "replace", "insert", "delete"]))
    char = draw(st.sampled_from(list(":=,;/@.-e0123456789 xn")))
    if edit == "replace" and at < len(text):
        return text[:at] + char + text[at + 1:]
    if edit == "insert":
        return text[:at] + char + text[at:]
    if edit == "delete" and at < len(text):
        return text[:at] + text[at + 1:]
    return text


def _parses_canonically_or_rejects(cls, text):
    try:
        spec = cls.from_string(text)
    except PreprocessError:
        return
    canonical = spec.to_string()
    assert cls.from_string(canonical) == spec, (text, canonical)
    assert cls.from_string(canonical).to_string() == canonical


class TestMisalignmentGrammar:
    @PROPERTY
    @given(spec=misalignment_specs())
    def test_string_round_trip(self, spec):
        text = spec.to_string()
        assert MisalignmentSpec.from_string(text) == spec, text

    @PROPERTY
    @given(spec=misalignment_specs())
    def test_dict_round_trip(self, spec):
        assert MisalignmentSpec.from_dict(spec.to_dict()) == spec

    @PROPERTY
    @given(text=st.one_of(_TEXT, mutated(misalignment_specs())))
    def test_text_parses_canonically_or_is_rejected(self, text):
        _parses_canonically_or_rejects(MisalignmentSpec, text)

    @PROPERTY
    @given(
        field=st.sampled_from(["shift_samples", "drift", "glitch_rate"]),
        value=st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    def test_non_finite_amounts_rejected(self, field, value):
        kwargs = {"shift_mode": "gaussian", "shift_samples": 1.0}
        kwargs[field] = value
        try:
            MisalignmentSpec(**kwargs)
        except PreprocessError as exc:
            assert "finite" in str(exc)
        else:
            raise AssertionError("accepted %s=%r" % (field, value))


class TestPreprocessGrammar:
    @PROPERTY
    @given(spec=preprocess_specs())
    def test_string_round_trip(self, spec):
        text = spec.to_string()
        assert PreprocessSpec.from_string(text) == spec, text

    @PROPERTY
    @given(spec=preprocess_specs())
    def test_dict_round_trip(self, spec):
        assert PreprocessSpec.from_dict(spec.to_dict()) == spec

    @PROPERTY
    @given(text=st.one_of(_TEXT, mutated(preprocess_specs())))
    def test_text_parses_canonically_or_is_rejected(self, text):
        _parses_canonically_or_rejects(PreprocessSpec, text)
