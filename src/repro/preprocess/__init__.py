"""Acquisition-realism preprocessing: alignment, resampling, POIs.

This package is the attacker's *time-axis* toolbox for realistically
acquired traces — the stage real remote-power campaigns spend most of
their effort on and which perfectly-triggered simulation skips:

1. :mod:`repro.preprocess.spec` — declarative
   :class:`~repro.preprocess.spec.MisalignmentSpec` (how acquisition
   distorts traces) and :class:`~repro.preprocess.spec.PreprocessSpec`
   (how the attacker undoes it), with a one-line string grammar shared
   by CLI flags, service job params, manifests and cache keys;
2. :mod:`repro.preprocess.align` — static-window crop plus
   correlation/SAD shift estimation against a reference trace, the
   ``align`` kernel of :mod:`repro.util.kernels` (a BLAS-free numpy
   reference and a bit-identical native C search);
3. :mod:`repro.preprocess.resample` — polyphase rational resampling
   (the whole-trace numpy reference) plus the per-sample tap terms
   campaigns evaluate;
4. :mod:`repro.preprocess.poi` — variance and SOST point-of-interest
   ranking feeding a reduced-sample view into the streaming CPA;
5. :mod:`repro.preprocess.pipeline` — binding a spec to a concrete
   generator (:func:`~repro.preprocess.pipeline.resolve_preprocess`)
   into the picklable per-shard plan the campaign drivers execute,
   which computes only the processed samples the sensor reads.

**This is not** :mod:`repro.core.postprocess`.  The two names are
deliberate and disjoint, and the test suite pins the split:

* ``repro.core.postprocess`` operates on the *bit axis* of a single
  latched endpoint word **after** sensing: sensitive-bit censuses,
  per-bit variance ranking, and the Hamming-weight reduction of an
  endpoint capture to a scalar sensor value (paper Figs. 5-8/14-16).
* ``repro.preprocess`` operates on the *sample/time axis* of whole
  traces **before** the CPA consumes them: realignment, cropping,
  resampling and POI selection across samples.

Bit-level helpers stay importable only from ``repro.core.postprocess``
(:func:`~repro.core.postprocess.hamming_weight_series`,
:func:`~repro.core.postprocess.rank_bits_by_variance`, ...); the
sample-level helpers here rank *samples*, not bits
(:func:`~repro.preprocess.poi.rank_samples`).
"""

from repro.preprocess.align import (
    align_traces,
    apply_shifts,
    crop,
    estimate_shifts,
)
from repro.preprocess.pipeline import (
    ResolvedPreprocess,
    resolve_preprocess,
)
from repro.preprocess.poi import (
    rank_samples,
    select_poi,
    sost_scores,
    variance_scores,
)
from repro.preprocess.resample import (
    map_resampled_index,
    polyphase_resample,
    resampled_length,
)
from repro.preprocess.spec import (
    ALIGN_METHODS,
    POI_METHODS,
    MisalignmentSpec,
    PreprocessError,
    PreprocessSpec,
    preprocess_spec_from_cli,
)

__all__ = [
    "ALIGN_METHODS",
    "MisalignmentSpec",
    "POI_METHODS",
    "PreprocessError",
    "PreprocessSpec",
    "ResolvedPreprocess",
    "align_traces",
    "apply_shifts",
    "crop",
    "estimate_shifts",
    "map_resampled_index",
    "polyphase_resample",
    "preprocess_spec_from_cli",
    "rank_samples",
    "resampled_length",
    "resolve_preprocess",
    "select_poi",
    "sost_scores",
    "variance_scores",
]
