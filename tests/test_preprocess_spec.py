"""Tests for the misalignment/preprocess spec grammar.

The one-line string forms are load-bearing: they ride CLI flags,
service job params, checkpoint manifests and cache keys, so
``to_string`` must be canonical (two equal-meaning specs always
serialize identically) and ``from_string`` must reject malformed text
with a :class:`PreprocessError` (a :class:`repro.util.errors.ReproError`,
so the CLI prints one line and exits 2).
"""

import pytest

from repro.preprocess.spec import (
    ALIGN_METHODS,
    POI_METHODS,
    MisalignmentSpec,
    PreprocessError,
    PreprocessSpec,
    preprocess_spec_from_cli,
)
from repro.util.errors import ReproError


class TestMisalignmentSpec:
    def test_disabled_by_default(self):
        spec = MisalignmentSpec()
        assert not spec.enabled
        assert spec.to_string() == "none"

    @pytest.mark.parametrize(
        "text",
        ["uniform:3", "gaussian:1.5", "uniform:2,drift=0.002",
         "gaussian:1,drift=0.01,glitch=0.005", "none,glitch=0.01"],
    )
    def test_string_round_trip(self, text):
        spec = MisalignmentSpec.from_string(text)
        assert spec.enabled
        again = MisalignmentSpec.from_string(spec.to_string())
        assert again == spec
        assert again.to_string() == spec.to_string()

    def test_dict_round_trip(self):
        spec = MisalignmentSpec.from_string("gaussian:1.5,drift=0.002")
        assert MisalignmentSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize(
        "text",
        ["", "sideways:2", "uniform", "uniform:abc",
         "uniform:2,volume=11", "uniform:-1", "none:3",
         "uniform:nan", "gaussian:inf", "uniform:1e400",
         "uniform:2,drift=0.1,drift=0.2"],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(PreprocessError):
            MisalignmentSpec.from_string(text)

    def test_canonical_strings_pinned(self):
        # These strings are cache keys and manifest entries already on
        # disk; the canonical form must not move.
        for text in ("uniform:3", "gaussian:1.5,drift=0.002,glitch=0.01"):
            assert MisalignmentSpec.from_string(text).to_string() == text

    def test_canonical_string_is_lossless(self):
        # %g alone printed drift=0.02 here: a different spec, and a
        # checkpoint of one was resumed as the other.
        spec = MisalignmentSpec("gaussian", 1.5, drift=0.020000049)
        assert spec.to_string() == "gaussian:1.5,drift=0.020000049"
        assert MisalignmentSpec.from_string(spec.to_string()) == spec

    def test_error_is_a_repro_error(self):
        with pytest.raises(ReproError):
            MisalignmentSpec.from_string("sideways:2")


class TestPreprocessSpec:
    def test_disabled_by_default(self):
        spec = PreprocessSpec()
        assert not spec.enabled
        assert spec.to_string() == "none"

    @pytest.mark.parametrize(
        "text",
        ["align=correlation:4", "align=sad",
         "window=8:72;align=correlation:4",
         "window=8:72;align=correlation:4;resample=3/2;poi=sost:3@512",
         "poi=variance:5", "resample=2/1"],
    )
    def test_string_round_trip(self, text):
        spec = PreprocessSpec.from_string(text)
        assert spec.enabled
        again = PreprocessSpec.from_string(spec.to_string())
        assert again == spec
        assert again.to_string() == spec.to_string()

    def test_canonical_form_is_order_insensitive(self):
        a = PreprocessSpec.from_string("align=correlation:4;window=8:72")
        b = PreprocessSpec.from_string("window=8:72;align=correlation:4")
        assert a == b
        assert a.to_string() == b.to_string()

    def test_dict_round_trip(self):
        spec = PreprocessSpec.from_string(
            "window=8:72;align=sad:6;resample=3/2;poi=variance:2@256"
        )
        assert PreprocessSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize(
        "text",
        ["align=fourier", "window=72:8", "window=8", "resample=3",
         "resample=0/2", "poi=entropy", "poi=sost:0", "blur=3",
         "align", "window=8:72;window=1:2",
         "align=sad:4;align=correlation:2"],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(PreprocessError):
            PreprocessSpec.from_string(text)

    def test_disabled_stage_parameters_take_defaults(self):
        # to_string omits a disabled stage's parameters, so they must
        # not make two equal-meaning specs compare unequal.
        spec = PreprocessSpec.from_string("align=none:5;poi=none:4@64")
        assert spec == PreprocessSpec()
        assert PreprocessSpec.from_string(spec.to_string()) == spec

    def test_method_tables_include_none(self):
        assert "none" in ALIGN_METHODS
        assert "none" in POI_METHODS


class TestSpecFromCli:
    def test_no_flags_is_none(self):
        assert preprocess_spec_from_cli() is None

    def test_flags_compose(self):
        spec = preprocess_spec_from_cli(
            align="correlation:4",
            poi="sost:3@512",
            window="8:72",
            resample="3/2",
        )
        assert spec == PreprocessSpec.from_string(
            "window=8:72;align=correlation:4;resample=3/2;poi=sost:3@512"
        )

    def test_single_flag(self):
        spec = preprocess_spec_from_cli(align="sad")
        assert spec.align == "sad"
        assert spec.window is None and spec.poi == "none"


class TestNamespaceSplit:
    """``repro.preprocess`` (sample axis) vs ``repro.core.postprocess``
    (bit axis) — the split is documented and pinned (satellite)."""

    def test_packages_are_disjoint(self):
        import repro.core.postprocess as post
        import repro.preprocess as pre

        post_names = {
            name for name in dir(post)
            if not name.startswith("_") and callable(getattr(post, name))
        }
        shared = set(pre.__all__) & post_names
        assert shared == set(), shared

    def test_bit_axis_helpers_live_in_postprocess_only(self):
        import repro.core.postprocess as post
        import repro.preprocess as pre

        assert hasattr(post, "hamming_weight_series")
        assert not hasattr(pre, "hamming_weight_series")
        # preprocess ranks *samples*, postprocess ranks *bits*.
        assert hasattr(pre, "rank_samples")
        assert hasattr(post, "rank_bits_by_variance")

    def test_roles_are_documented(self):
        import repro.core.postprocess as post
        import repro.preprocess as pre

        assert "repro.core.postprocess" in pre.__doc__
        assert "sample" in pre.__doc__ and "bit" in pre.__doc__
        assert "endpoint" in post.__doc__
