"""The native backend of :mod:`repro.util.kernels`.

A small C translation of the numpy reference loops, embedded below as
source, compiled once with the system compiler into a content-hashed
shared library under a cache directory (``REPRO_KERNELS_CACHE``), and
loaded through ctypes.  ``-ffp-contract=off`` disables FMA contraction,
and no ``-ffast-math`` means IEEE semantics everywhere.

Each kernel is the *same sequence of IEEE-754 float64 operations* (or
exact uint8 table lookups) as its numpy reference, so outputs are
bit-identical, not merely close — the property the exact-equality test
suite and the bench's assert-before-timing check enforce.  Two ops
mirror numpy internals rather than a loop written here — the sensor's
ziggurat draws and the shift search's pairwise summation — so each
checks itself against numpy when the library loads; on a mismatch the
op is refused (``NativeProvider.refused``) and numpy serves it.

Nothing here is ever pickled: callers look these ops up at call time,
so campaign objects carry no ctypes handles.  A host without a C
compiler has no native provider; every kernel then runs numpy.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from typing import Callable, Dict, Optional, Tuple

import numpy as np

__all__ = [
    "NativeProvider",
    "load_native",
    "unavailable_reason",
]

CACHE_ENV = "REPRO_KERNELS_CACHE"


class NativeProvider:
    """A loaded native backend: its name and its op table.

    Attributes:
        provider: ``"cc"`` — recorded in bench metadata.
        ops: ``{(kernel, op): callable}`` with the same signatures the
            numpy reference ops use.
        refused: ``{kernel: reason}`` for kernels this provider could
            not serve; :func:`repro.util.kernels.native_op` returns
            None for them, so their callers run numpy.
    """

    def __init__(
        self,
        provider: str,
        ops: Dict[Tuple[str, str], Callable],
        refused: Optional[Dict[str, str]] = None,
    ):
        self.provider = provider
        self.ops = ops
        self.refused = dict(refused or {})


# ----------------------------------------------------------------------
# cc provider: embedded C, compiled once, loaded via ctypes
# ----------------------------------------------------------------------

#: The C translation of the hot loops.  Every float64 statement mirrors
#: the numpy/python reference operation order exactly; compiled with
#: ``-ffp-contract=off`` (no FMA) and without ``-ffast-math`` (IEEE
#: semantics), the results are bit-identical.
_C_SOURCE = r"""
#include <stdint.h>
#include <math.h>

void repro_aes_round_states(
    const uint8_t *rk, const uint8_t *pt, long long n,
    const uint8_t *sbox, const uint8_t *shift_src,
    const uint8_t *g2, const uint8_t *g3, uint8_t *out)
{
    for (long long t = 0; t < n; ++t) {
        const uint8_t *block = pt + 16 * t;
        uint8_t *st = out + 192 * t;
        uint8_t s[16], tmp[16];
        for (int i = 0; i < 16; ++i) {
            st[i] = block[i];
            s[i] = block[i] ^ rk[i];
            st[16 + i] = s[i];
        }
        for (int r = 1; r <= 9; ++r) {
            const uint8_t *k = rk + 16 * r;
            uint8_t *row = st + 16 * (r + 1);
            for (int i = 0; i < 16; ++i)
                tmp[i] = sbox[s[shift_src[i]]];
            for (int c = 0; c < 4; ++c) {
                uint8_t a0 = tmp[4 * c], a1 = tmp[4 * c + 1];
                uint8_t a2 = tmp[4 * c + 2], a3 = tmp[4 * c + 3];
                s[4 * c] = (uint8_t)(g2[a0] ^ g3[a1] ^ a2 ^ a3)
                           ^ k[4 * c];
                s[4 * c + 1] = (uint8_t)(a0 ^ g2[a1] ^ g3[a2] ^ a3)
                               ^ k[4 * c + 1];
                s[4 * c + 2] = (uint8_t)(a0 ^ a1 ^ g2[a2] ^ g3[a3])
                               ^ k[4 * c + 2];
                s[4 * c + 3] = (uint8_t)(g3[a0] ^ a1 ^ a2 ^ g2[a3])
                               ^ k[4 * c + 3];
            }
            for (int i = 0; i < 16; ++i)
                row[i] = s[i];
        }
        for (int i = 0; i < 16; ++i)
            tmp[i] = sbox[s[shift_src[i]]];
        for (int i = 0; i < 16; ++i) {
            s[i] = tmp[i] ^ rk[160 + i];
            st[176 + i] = s[i];
        }
    }
}

void repro_aes_cycle_hd(
    const uint8_t *states, long long n, long long cpr,
    const uint8_t *pop, int64_t *out)
{
    for (long long t = 0; t < n; ++t) {
        const uint8_t *st = states + 192 * t;
        int64_t *row = out + 11 * cpr * t;
        for (int r = 0; r < 11; ++r) {
            const uint8_t *a = st + 16 * r;
            const uint8_t *b = a + 16;
            int64_t col[4];
            for (int c = 0; c < 4; ++c) {
                int64_t acc = 0;
                for (int i = 0; i < 4; ++i)
                    acc += pop[a[4 * c + i] ^ b[4 * c + i]];
                col[c] = acc;
            }
            for (long long c = 0; c < cpr; ++c)
                row[r * cpr + c] = col[c & 3];
        }
    }
}

void repro_aes_cycle_activity(
    const uint8_t *states, long long n, long long cpr,
    const uint8_t *pop, double vw, double tw, double *out)
{
    for (long long t = 0; t < n; ++t) {
        const uint8_t *st = states + 192 * t;
        double *row = out + 11 * cpr * t;
        for (int r = 0; r < 11; ++r) {
            const uint8_t *a = st + 16 * r;
            const uint8_t *b = a + 16;
            double col[4];
            for (int c = 0; c < 4; ++c) {
                int64_t hd = 0, hw = 0;
                for (int i = 0; i < 4; ++i) {
                    uint8_t av = a[4 * c + i];
                    hd += pop[av ^ b[4 * c + i]];
                    hw += pop[av];
                }
                col[c] = vw * (double)hw + tw * (double)hd;
            }
            for (long long c = 0; c < cpr; ++c)
                row[r * cpr + c] = col[c & 3];
        }
    }
}

void repro_aes_activity_ct(
    const uint8_t *rk, const uint8_t *pt, long long n,
    const uint8_t *sbox, const uint8_t *shift_src,
    const uint8_t *g2, const uint8_t *g3, const uint8_t *pop,
    long long cpr, double vw, double tw,
    double *activity, uint8_t *ct)
{
    for (long long t = 0; t < n; ++t) {
        const uint8_t *block = pt + 16 * t;
        double *row = activity + 11 * cpr * t;
        uint8_t prev[16], cur[16], tmp[16];
        for (int i = 0; i < 16; ++i) {
            prev[i] = block[i];
            cur[i] = block[i] ^ rk[i];
        }
        for (int r = 0; r < 11; ++r) {
            if (r > 0) {
                for (int i = 0; i < 16; ++i)
                    tmp[i] = sbox[prev[shift_src[i]]];
                if (r < 10) {
                    const uint8_t *k = rk + 16 * r;
                    for (int c = 0; c < 4; ++c) {
                        uint8_t a0 = tmp[4 * c], a1 = tmp[4 * c + 1];
                        uint8_t a2 = tmp[4 * c + 2], a3 = tmp[4 * c + 3];
                        cur[4 * c] = (uint8_t)(g2[a0] ^ g3[a1] ^ a2 ^ a3)
                                     ^ k[4 * c];
                        cur[4 * c + 1] =
                            (uint8_t)(a0 ^ g2[a1] ^ g3[a2] ^ a3)
                            ^ k[4 * c + 1];
                        cur[4 * c + 2] =
                            (uint8_t)(a0 ^ a1 ^ g2[a2] ^ g3[a3])
                            ^ k[4 * c + 2];
                        cur[4 * c + 3] =
                            (uint8_t)(g3[a0] ^ a1 ^ a2 ^ g2[a3])
                            ^ k[4 * c + 3];
                    }
                } else {
                    for (int i = 0; i < 16; ++i)
                        cur[i] = tmp[i] ^ rk[160 + i];
                }
            }
            for (int c = 0; c < 4; ++c) {
                int64_t hd = 0, hw = 0;
                for (int i = 0; i < 4; ++i) {
                    uint8_t av = prev[4 * c + i];
                    hd += pop[av ^ cur[4 * c + i]];
                    hw += pop[av];
                }
                double col = vw * (double)hw + tw * (double)hd;
                for (long long cc = c; cc < cpr; cc += 4)
                    row[r * cpr + cc] = col;
            }
            for (int i = 0; i < 16; ++i)
                prev[i] = cur[i];
        }
        for (int i = 0; i < 16; ++i)
            ct[16 * t + i] = cur[i];
    }
}

void repro_pdn_integrate(
    const double *x, long long rows, long long cols,
    double c1, double c2, double b0, double *out)
{
    for (long long r = 0; r < rows; ++r) {
        const double *xi = x + cols * r;
        double *oi = out + cols * r;
        double z1 = 0.0, z2 = 0.0;
        for (long long i = 0; i < cols; ++i) {
            double z = c1 * z1 + c2 * z2 + b0 * xi[i];
            oi[i] = z;
            z2 = z1;
            z1 = z;
        }
    }
}

/* numpy's pairwise summation of a contiguous run (pairwise_sum_DOUBLE):
   a plain loop under 8 elements, 8 accumulators up to 128, a halving
   split above.  Callers add the result to 0.0 as add.reduce does. */
static double pairwise_sum(const double *a, long long n)
{
    if (n < 8) {
        double res = 0.0;
        for (long long i = 0; i < n; ++i)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        long long i;
        for (int j = 0; j < 8; ++j)
            r[j] = a[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; ++j)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3]))
                     + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; ++i)
            res += a[i];
        return res;
    }
    long long n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* Shift search, one trace at a time (the trace stays in L1): for each
   candidate the overlap is scored with _estimate_numpy's operations in
   its order -- mean as sum / count, centred operands, sqrt, the
   varying guard -- and a strictly greater score wins.  work holds
   (2 + n_cand) * len + n_cand doubles: two rows of per-trace scratch,
   the reference windows' sums of squares, then their centred copies.
   metric: 0 = correlation, 1 = SAD. */
void repro_align(
    const double *x, long long rows, long long len, const double *ref,
    const long long *cand, long long n_cand, int metric, double *work,
    int64_t *shift_out, double *score_out)
{
    double *rss = work + 2 * len, *centred = rss + n_cand;
    if (metric == 0) {
        for (long long c = 0; c < n_cand; ++c) {
            long long s = cand[c], m = len - (s >= 0 ? s : -s);
            const double *r = s >= 0 ? ref : ref - s;
            double *rc = centred + c * len;
            double mean = (0.0 + pairwise_sum(r, m)) / (double)m;
            for (long long i = 0; i < m; ++i)
                rc[i] = r[i] - mean;
            for (long long i = 0; i < m; ++i)
                work[i] = rc[i] * rc[i];
            rss[c] = 0.0 + pairwise_sum(work, m);
        }
    }
    double *tc = work, *prod = work + len;
    for (long long row = 0; row < rows; ++row) {
        const double *xr = x + len * row;
        int varying = 0;
        for (long long i = 1; i < len; ++i)
            varying |= xr[i] != xr[0];
        double best = -INFINITY;
        int64_t best_shift = 0;
        for (long long c = 0; c < n_cand; ++c) {
            long long s = cand[c], m = len - (s >= 0 ? s : -s);
            const double *t = s >= 0 ? xr + s : xr;
            double score;
            if (metric == 0) {
                const double *rc = centred + c * len;
                double mean = (0.0 + pairwise_sum(t, m)) / (double)m;
                for (long long i = 0; i < m; ++i)
                    tc[i] = t[i] - mean;
                for (long long i = 0; i < m; ++i)
                    prod[i] = tc[i] * tc[i];
                double denom = sqrt((0.0 + pairwise_sum(prod, m)) * rss[c]);
                for (long long i = 0; i < m; ++i)
                    prod[i] = tc[i] * rc[i];
                double numer = 0.0 + pairwise_sum(prod, m);
                score = varying && denom > 0 ? numer / denom : 0.0;
            } else {
                const double *r = s >= 0 ? ref : ref - s;
                for (long long i = 0; i < m; ++i)
                    prod[i] = fabs(t[i] - r[i]);
                score = varying
                    ? -((0.0 + pairwise_sum(prod, m)) / (double)m) : 0.0;
            }
            if (score > best) {
                best = score;
                best_shift = s;
            }
        }
        shift_out[row] = best_shift;
        score_out[row] = best;
    }
}
"""

_CFLAGS = ["-O3", "-fPIC", "-shared", "-std=c99", "-ffp-contract=off"]

#: The fused sensor kernel: per-endpoint jitter drawn from an inlined
#: PCG64 through numpy's ziggurat, latched by the ``value_at`` tie rule
#: and summed over the masked endpoints, in the bank's endpoint-major
#: draw order.  The ziggurat's ~1% rejection (and ``idx == 0`` tail)
#: draws are not re-implemented: the state is rewound to before the
#: draw and numpy's own ``random_standard_normal`` (statically linked
#: from ``libnpyrandom.a``) redraws through a ``bitgen_t`` wrapping it.
#: The fast-path tables are recovered from that same function at load
#: (:func:`_ziggurat_tables`) and passed in, so the library has no
#: mutable globals.
_SENSOR_C_SOURCE = r"""
#include <stdint.h>

typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

double random_standard_normal(bitgen_t *bitgen_state);

typedef unsigned __int128 u128;

typedef struct {
    u128 state;
    u128 inc;
} pcg64_t;

static inline uint64_t pcg64_next(pcg64_t *rng)
{
    const u128 mult = ((u128)0x2360ED051FC65DA4ULL << 64)
                      | 0x4385DF649FCCF645ULL;
    rng->state = rng->state * mult + rng->inc;
    uint64_t x = (uint64_t)(rng->state >> 64) ^ (uint64_t)rng->state;
    unsigned rot = (unsigned)(rng->state >> 122);
    return (x >> rot) | (x << ((-rot) & 63));
}

static uint64_t pcg64_u64(void *st) { return pcg64_next((pcg64_t *)st); }

static uint32_t pcg64_u32(void *st)
{
    return (uint32_t)pcg64_next((pcg64_t *)st);
}

static double pcg64_double(void *st)
{
    return (double)(pcg64_next((pcg64_t *)st) >> 11)
           * (1.0 / 9007199254740992.0);
}

static void pcg64_init(pcg64_t *rng, const uint64_t *words)
{
    rng->state = ((u128)words[0] << 64) | words[1];
    rng->inc = ((u128)words[2] << 64) | words[3];
}

/* Off the fast path: rewind to before the draw and let numpy redraw.
   Only this copy of the state escapes, so the caller's stays in
   registers. */
static double slow_normal(pcg64_t *rng, u128 saved)
{
    pcg64_t st = {saved, rng->inc};
    bitgen_t bg = {&st, pcg64_u64, pcg64_u32, pcg64_double, pcg64_u64};
    double x = random_standard_normal(&bg);
    rng->state = st.state;
    return x;
}

/* One standard normal, bit-identical to numpy's ziggurat; *slow counts
   draws that fell off the fast path (tail: idx == 0 among them). */
static inline double draw_normal(
    pcg64_t *rng, const double *wi, const uint64_t *ki,
    long long *slow, long long *tail)
{
    u128 saved = rng->state;
    uint64_t r = pcg64_next(rng);
    int idx = (int)(r & 0xff);
    r >>= 8;
    uint64_t rabs = (r >> 1) & 0x000fffffffffffffULL;
    /* x = +/-(rabs * wi[idx]); the sign flips the IEEE sign bit (as
       unary minus does) without a data-dependent branch. */
    union { double d; uint64_t u; } x;
    x.d = (double)rabs * wi[idx];
    x.u ^= (r & 0x1) << 63;
    if (__builtin_expect(rabs < ki[idx], 1))
        return x.d;
    *slow += 1;
    *tail += idx == 0;
    return slow_normal(rng, saved);
}

/* The latched value at each query: vals[c - 1] (vals[0] when c == 0)
   for c edges at or before q, i.e. searchsorted(edges, q, "right").
   Few-edge endpoints select along the ascending edges without a
   branch; a constant m (the switch below) lets the compiler unroll and
   vectorise that loop.  Deep endpoints binary-search. */
static inline void latch_select(
    const double *edges, const uint8_t *vals, long long m,
    const double *q, long long len, int64_t *w)
{
    for (long long t = 0; t < len; ++t) {
        int64_t v = vals[0];
        for (long long k = 1; k < m; ++k)
            v = edges[k] <= q[t] ? vals[k] : v;
        w[t] += v;
    }
}

static void latch(
    const double *edges, const uint8_t *vals, long long m,
    const double *q, long long len, int64_t *w)
{
    switch (m) {
    case 1: latch_select(edges, vals, 1, q, len, w); return;
    case 2: latch_select(edges, vals, 2, q, len, w); return;
    case 3: latch_select(edges, vals, 3, q, len, w); return;
    case 4: latch_select(edges, vals, 4, q, len, w); return;
    }
    if (m <= 16) {
        latch_select(edges, vals, m, q, len, w);
        return;
    }
    for (long long t = 0; t < len; ++t) {
        long long c = 0, hi = m;
        while (c < hi) {
            long long mid = c + (hi - c) / 2;
            if (edges[mid] <= q[t])
                c = mid + 1;
            else
                hi = mid;
        }
        w[t] += vals[c > 0 ? c - 1 : 0];
    }
}

#define SENSOR_BLOCK 512

long long repro_sensor_masked_weight(
    const double *tau, long long n, double sigma, const uint64_t *pcg,
    const double *wi, const uint64_t *ki,
    const double *times, const uint8_t *values, const int64_t *offsets,
    const uint8_t *mask, long long limit, int64_t *weight)
{
    pcg64_t rng;
    pcg64_init(&rng, pcg);
    long long slow = 0, tail = 0;
    double q[SENSOR_BLOCK];
    for (long long i = 0; i < limit; ++i) {
        if (!mask[i]) {
            if (sigma > 0)
                for (long long t = 0; t < n; ++t)
                    draw_normal(&rng, wi, ki, &slow, &tail);
            continue;
        }
        const double *edges = times + offsets[i];
        const uint8_t *vals = values + offsets[i];
        long long m = offsets[i + 1] - offsets[i];
        if (!(sigma > 0)) {
            latch(edges, vals, m, tau, n, weight);
            continue;
        }
        /* Draw a block, then latch it: the latch runs off the
           generator's serial dependency chain. */
        for (long long t0 = 0; t0 < n; t0 += SENSOR_BLOCK) {
            long long len = n - t0 < SENSOR_BLOCK ? n - t0 : SENSOR_BLOCK;
            for (long long t = 0; t < len; ++t)
                q[t] = draw_normal(&rng, wi, ki, &slow, &tail);
            for (long long t = 0; t < len; ++t)
                q[t] = (0.0 + sigma * q[t]) + tau[t0 + t];
            latch(edges, vals, m, q, len, weight + t0);
        }
    }
    return slow;
}

long long repro_sensor_normals(
    const uint64_t *pcg, const double *wi, const uint64_t *ki,
    long long n, double *out, uint64_t *final_state, long long *tail)
{
    pcg64_t rng;
    pcg64_init(&rng, pcg);
    long long slow = 0;
    *tail = 0;
    for (long long t = 0; t < n; ++t)
        out[t] = draw_normal(&rng, wi, ki, &slow, tail);
    final_state[0] = (uint64_t)(rng.state >> 64);
    final_state[1] = (uint64_t)rng.state;
    return slow;
}

/* Table recovery: a stub generator whose first word is chosen by the
   caller; later words take the fast path at x = 0 and doubles are
   0.0 then 0.5, so every rejection branch terminates.  A draw that
   needed exactly one call took the fast path. */
typedef struct {
    uint64_t word;
    int calls;
    int doubles;
} zig_stub_t;

static uint64_t stub_u64(void *st)
{
    zig_stub_t *s = (zig_stub_t *)st;
    return s->calls++ == 0 ? s->word : 0;
}

static uint32_t stub_u32(void *st) { return (uint32_t)stub_u64(st); }

static double stub_double(void *st)
{
    zig_stub_t *s = (zig_stub_t *)st;
    s->calls++;
    return s->doubles++ == 0 ? 0.0 : 0.5;
}

static double zig_probe(int idx, uint64_t rabs, int *calls)
{
    zig_stub_t s = {(uint64_t)idx | (rabs << 9), 0, 0};
    bitgen_t bg = {&s, stub_u64, stub_u32, stub_double, stub_u64};
    double x = random_standard_normal(&bg);
    *calls = s.calls;
    return x;
}

void repro_ziggurat_tables(double *wi, uint64_t *ki)
{
    for (int i = 0; i < 256; ++i) {
        int calls;
        wi[i] = zig_probe(i, 1, &calls);
        uint64_t lo = 0, hi = 1ULL << 52;
        while (lo < hi) {
            uint64_t mid = lo + (hi - lo) / 2;
            zig_probe(i, mid, &calls);
            if (calls == 1)
                lo = mid + 1;
            else
                hi = mid;
        }
        ki[i] = lo;
    }
}
"""

#: Fixed seeds and draw count of the load-time ziggurat self-check;
#: 2^16 draws per seed reach both the rejection and the tail path.
_SELF_CHECK_SEEDS = (0, 1)
_SELF_CHECK_DRAWS = 1 << 16


def _cache_dir() -> str:
    configured = os.environ.get(CACHE_ENV)
    if configured:
        return configured
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro_kernels")


def _find_compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _compile_library(
    compiler: str,
    source: str = _C_SOURCE,
    name: str = "repro_kernels",
    link: Tuple[str, ...] = (),
    salt: Tuple[str, ...] = (),
) -> str:
    """Build (or reuse) a content-hashed shared library; return path.

    ``link`` names extra objects/archives linked in; ``salt`` adds
    what the hash must also cover (e.g. the version of a statically
    linked archive).
    """
    digest = hashlib.sha256(
        ("\0".join([source, *_CFLAGS, *link, *salt])).encode()
    ).hexdigest()[:16]
    cache = _cache_dir()
    lib_path = os.path.join(cache, "%s_%s.so" % (name, digest))
    if os.path.exists(lib_path):
        return lib_path
    os.makedirs(cache, exist_ok=True)
    # Build into a temp name and os.replace so concurrent builders
    # (parallel test workers, forked pools) race safely.
    fd, src_path = tempfile.mkstemp(suffix=".c", dir=cache)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(source)
        tmp_lib = src_path[:-2] + ".so"
        subprocess.run(
            [compiler, *_CFLAGS, "-o", tmp_lib, src_path, *link, "-lm"],
            check=True,
            capture_output=True,
            text=True,
        )
        os.replace(tmp_lib, lib_path)
    finally:
        if os.path.exists(src_path):
            os.unlink(src_path)
    return lib_path


def _tables():
    """The shared uint8 lookup tables, contiguous, in one place."""
    from repro.aes.batch import GMUL2_TABLE, GMUL3_TABLE, POPCOUNT8_TABLE
    from repro.aes.leakage import SBOX_TABLE, SHIFT_ROWS_SOURCE

    def u8(arr):
        return np.ascontiguousarray(arr, dtype=np.uint8)

    return (
        u8(SBOX_TABLE),
        u8(SHIFT_ROWS_SOURCE),
        u8(GMUL2_TABLE),
        u8(GMUL3_TABLE),
        u8(POPCOUNT8_TABLE),
    )


def _ptr(arr: np.ndarray, ctype):
    return arr.ctypes.data_as(ctypes.POINTER(ctype))


def _build_cc_ops(lib_path: str) -> Dict[Tuple[str, str], Callable]:
    lib = ctypes.CDLL(lib_path)
    u8p = ctypes.POINTER(ctypes.c_uint8)
    i64p = ctypes.POINTER(ctypes.c_int64)
    f64p = ctypes.POINTER(ctypes.c_double)
    ll = ctypes.c_longlong
    f64 = ctypes.c_double

    lib.repro_aes_round_states.argtypes = [
        u8p, u8p, ll, u8p, u8p, u8p, u8p, u8p
    ]
    lib.repro_aes_round_states.restype = None
    lib.repro_aes_cycle_hd.argtypes = [u8p, ll, ll, u8p, i64p]
    lib.repro_aes_cycle_hd.restype = None
    lib.repro_aes_cycle_activity.argtypes = [
        u8p, ll, ll, u8p, f64, f64, f64p
    ]
    lib.repro_aes_cycle_activity.restype = None
    lib.repro_aes_activity_ct.argtypes = [
        u8p, u8p, ll, u8p, u8p, u8p, u8p, u8p, ll, f64, f64, f64p, u8p
    ]
    lib.repro_aes_activity_ct.restype = None
    lib.repro_pdn_integrate.argtypes = [f64p, ll, ll, f64, f64, f64, f64p]
    lib.repro_pdn_integrate.restype = None
    lib.repro_align.argtypes = [
        f64p, ll, ll, f64p, ctypes.POINTER(ll), ll, ctypes.c_int, f64p,
        i64p, f64p,
    ]
    lib.repro_align.restype = None

    sbox, shift_src, g2, g3, pop = _tables()
    ptr = _ptr

    sbox_p = ptr(sbox, ctypes.c_uint8)
    shift_p = ptr(shift_src, ctypes.c_uint8)
    g2_p = ptr(g2, ctypes.c_uint8)
    g3_p = ptr(g3, ctypes.c_uint8)
    pop_p = ptr(pop, ctypes.c_uint8)

    def round_states(round_keys, blocks):
        rk = np.ascontiguousarray(round_keys, dtype=np.uint8)
        pt = np.ascontiguousarray(blocks, dtype=np.uint8)
        out = np.empty((pt.shape[0], 12, 16), dtype=np.uint8)
        lib.repro_aes_round_states(
            ptr(rk, ctypes.c_uint8), ptr(pt, ctypes.c_uint8),
            pt.shape[0], sbox_p, shift_p, g2_p, g3_p,
            ptr(out, ctypes.c_uint8),
        )
        return out

    def cycle_hd_from_states(states, cycles_per_round):
        st = np.ascontiguousarray(states, dtype=np.uint8)
        out = np.empty(
            (st.shape[0], 11 * cycles_per_round), dtype=np.int64
        )
        lib.repro_aes_cycle_hd(
            ptr(st, ctypes.c_uint8), st.shape[0], cycles_per_round,
            pop_p, ptr(out, ctypes.c_int64),
        )
        return out

    def cycle_activity_from_states(
        states, cycles_per_round, value_weight, transition_weight
    ):
        st = np.ascontiguousarray(states, dtype=np.uint8)
        out = np.empty(
            (st.shape[0], 11 * cycles_per_round), dtype=np.float64
        )
        lib.repro_aes_cycle_activity(
            ptr(st, ctypes.c_uint8), st.shape[0], cycles_per_round,
            pop_p, float(value_weight), float(transition_weight),
            ptr(out, ctypes.c_double),
        )
        return out

    def activity_and_ciphertexts(
        round_keys, blocks, cycles_per_round, value_weight,
        transition_weight,
    ):
        rk = np.ascontiguousarray(round_keys, dtype=np.uint8)
        pt = np.ascontiguousarray(blocks, dtype=np.uint8)
        activity = np.empty(
            (pt.shape[0], 11 * cycles_per_round), dtype=np.float64
        )
        ct = np.empty((pt.shape[0], 16), dtype=np.uint8)
        lib.repro_aes_activity_ct(
            ptr(rk, ctypes.c_uint8), ptr(pt, ctypes.c_uint8),
            pt.shape[0], sbox_p, shift_p, g2_p, g3_p, pop_p,
            cycles_per_round, float(value_weight),
            float(transition_weight), ptr(activity, ctypes.c_double),
            ptr(ct, ctypes.c_uint8),
        )
        return activity, ct

    def integrate(current, c1, c2, b0):
        x = np.ascontiguousarray(current, dtype=np.float64)
        out = np.empty_like(x)
        lib.repro_pdn_integrate(
            ptr(x, ctypes.c_double), 1, x.shape[0],
            float(c1), float(c2), float(b0), ptr(out, ctypes.c_double),
        )
        return out

    def integrate_batch(currents, c1, c2, b0):
        x = np.ascontiguousarray(currents, dtype=np.float64)
        out = np.empty_like(x)
        lib.repro_pdn_integrate(
            ptr(x, ctypes.c_double), x.shape[0], x.shape[1],
            float(c1), float(c2), float(b0), ptr(out, ctypes.c_double),
        )
        return out

    align_metrics = {"correlation": 0, "sad": 1}

    def estimate(traces, reference, max_shift, metric):
        from repro.preprocess.align import shift_candidates

        x = np.ascontiguousarray(traces, dtype=np.float64)
        ref = np.ascontiguousarray(reference, dtype=np.float64)
        if (
            x.ndim != 2
            or ref.shape != x.shape[1:]
            or not 1 <= max_shift < x.shape[1]
            or metric not in align_metrics
        ):
            raise ValueError(
                "align needs a (rows, len) batch, a len-sample reference, "
                "1 <= max_shift < len and metric correlation or sad"
            )
        rows, length = x.shape
        cand = np.array(shift_candidates(max_shift), dtype=np.int64)
        work = np.empty((2 + cand.size) * length + cand.size)
        shifts = np.empty(rows, dtype=np.int64)
        scores = np.empty(rows, dtype=np.float64)
        lib.repro_align(
            ptr(x, ctypes.c_double), rows, length, ptr(ref, ctypes.c_double),
            ptr(cand, ctypes.c_longlong), cand.size, align_metrics[metric],
            ptr(work, ctypes.c_double), ptr(shifts, ctypes.c_int64),
            ptr(scores, ctypes.c_double),
        )
        return shifts, scores

    return {
        ("aes", "round_states"): round_states,
        ("aes", "cycle_hd_from_states"): cycle_hd_from_states,
        ("aes", "cycle_activity_from_states"): cycle_activity_from_states,
        ("aes", "activity_and_ciphertexts"): activity_and_ciphertexts,
        ("pdn", "integrate"): integrate,
        ("pdn", "integrate_batch"): integrate_batch,
        ("align", "estimate"): estimate,
    }


#: ``(length, max_shift)`` of the load-time align self-check: lengths on
#: both sides of pairwise summation's 8- and 128-element thresholds.
_ALIGN_CHECK_CASES = ((2, 1), (9, 8), (16, 7), (72, 4), (130, 12), (300, 20))


def _align_check_batches(length: int, seed: int):
    """Normal, integer-valued, constant and shifted-copy rows."""
    rng = np.random.default_rng(seed)
    reference = rng.normal(size=length)
    rows = [
        rng.normal(size=(4, length)) * 10.0 ** rng.uniform(-3.0, 3.0),
        rng.integers(-3, 4, size=(4, length)).astype(np.float64),
        np.full((2, length), rng.normal()),
        np.stack(
            [np.roll(reference, s) for s in (-2, -1, 0, 1, 2)]
        ) * 2.0 + 1.0,
    ]
    return np.concatenate(rows), reference


def _align_self_check(estimate: Callable) -> Optional[str]:
    """None when the C shift search equals the numpy one bit for bit."""
    from repro.preprocess.align import _estimate_numpy

    for case, (length, max_shift) in enumerate(_ALIGN_CHECK_CASES):
        traces, reference = _align_check_batches(length, case)
        for metric in ("correlation", "sad"):
            want = _estimate_numpy(traces, reference, max_shift, metric)
            got = estimate(traces, reference, max_shift, metric)
            if any(g.tobytes() != w.tobytes() for g, w in zip(got, want)):
                return (
                    "align self-check failed: %s scores of the %d-sample "
                    "case differ from the numpy reference"
                    % (metric, length)
                )
    return None


def _numpy_random_archive() -> Optional[str]:
    """numpy's static ``libnpyrandom.a`` (its distributions), or None."""
    path = os.path.join(
        os.path.dirname(np.__file__), "random", "lib", "libnpyrandom.a"
    )
    return path if os.path.exists(path) else None


def _ziggurat_tables(lib) -> Tuple[np.ndarray, np.ndarray]:
    """numpy's ziggurat fast-path tables ``(wi, ki)``, probed at load.

    ``wi[i]`` is the draw for ``rabs = 1`` in strip ``i``; ``ki[i]`` is
    the smallest ``rabs`` that leaves the fast path (binary search).
    """
    wi = np.empty(256, dtype=np.float64)
    ki = np.empty(256, dtype=np.uint64)
    lib.repro_ziggurat_tables(
        _ptr(wi, ctypes.c_double), _ptr(ki, ctypes.c_uint64)
    )
    return wi, ki


def _pcg64_words(rng: np.random.Generator) -> np.ndarray:
    """``(state_hi, state_lo, inc_hi, inc_lo)`` of a PCG64 generator."""
    state = rng.bit_generator.state
    if state["bit_generator"] != "PCG64":
        raise ValueError(
            "fused sensor kernel needs PCG64, got %s" % state["bit_generator"]
        )
    low = (1 << 64) - 1
    s, inc = state["state"]["state"], state["state"]["inc"]
    return np.array([s >> 64, s & low, inc >> 64, inc & low], dtype=np.uint64)


def _sensor_self_check(normals: Callable) -> Optional[str]:
    """None when the inlined draws equal ``Generator.normal``, else why.

    ``normals(words, n)`` returns ``(z, state_words, slow, tail)``; the
    draws and the stream position after them must both match numpy's,
    and the fixed corpus must reach the rejection and tail paths.
    """
    slow_total = tail_total = 0
    for seed in _SELF_CHECK_SEEDS:
        rng = np.random.default_rng(seed)
        z, state, slow, tail = normals(_pcg64_words(rng), _SELF_CHECK_DRAWS)
        expected = rng.normal(0.0, 1.0, size=_SELF_CHECK_DRAWS)
        if not np.array_equal(z, expected):
            first = int(np.flatnonzero(z != expected)[0])
            return (
                "ziggurat self-check failed: draw %d of seed %d differs "
                "from Generator.normal" % (first, seed)
            )
        if not np.array_equal(state, _pcg64_words(rng)[:2]):
            return (
                "ziggurat self-check failed: stream position after "
                "seed %d differs from Generator.normal" % seed
            )
        slow_total += slow
        tail_total += tail
    if not slow_total or not tail_total:
        return "ziggurat self-check never reached the rejection/tail path"
    return None


def _build_sensor_ops(
    compiler: str,
) -> Tuple[Dict[Tuple[str, str], Callable], Optional[str]]:
    """The fused sensor op, or no ops and the reason it was refused.

    A separate library from the other C kernels, so a host without
    ``libnpyrandom.a`` (or whose numpy draws differently) keeps them.
    """
    archive = _numpy_random_archive()
    if archive is None:
        return {}, "numpy/random/lib/libnpyrandom.a not found"
    try:
        lib = ctypes.CDLL(
            _compile_library(
                compiler,
                _SENSOR_C_SOURCE,
                name="repro_sensor",
                link=(archive,),
                salt=(np.__version__,),
            )
        )
    except subprocess.CalledProcessError as exc:
        return {}, "sensor kernel build failed: %s" % (
            (exc.stderr or str(exc)).strip()
        )
    except OSError as exc:
        return {}, "sensor kernel library failed to load: %s" % exc
    u64p = ctypes.POINTER(ctypes.c_uint64)
    f64p = ctypes.POINTER(ctypes.c_double)
    ll = ctypes.c_longlong
    lib.repro_ziggurat_tables.argtypes = [f64p, u64p]
    lib.repro_ziggurat_tables.restype = None
    lib.repro_sensor_normals.argtypes = [
        u64p, f64p, u64p, ll, f64p, u64p, ctypes.POINTER(ll)
    ]
    lib.repro_sensor_normals.restype = ll
    lib.repro_sensor_masked_weight.argtypes = [
        f64p, ll, ctypes.c_double, u64p, f64p, u64p, f64p,
        ctypes.POINTER(ctypes.c_uint8), ctypes.POINTER(ctypes.c_int64),
        ctypes.POINTER(ctypes.c_uint8), ll, ctypes.POINTER(ctypes.c_int64),
    ]
    lib.repro_sensor_masked_weight.restype = ll

    wi, ki = _ziggurat_tables(lib)
    wi_p = _ptr(wi, ctypes.c_double)
    ki_p = _ptr(ki, ctypes.c_uint64)

    def normals(words, n):
        z = np.empty(n, dtype=np.float64)
        state = np.empty(2, dtype=np.uint64)
        tail = ll(0)
        slow = lib.repro_sensor_normals(
            _ptr(words, ctypes.c_uint64), wi_p, ki_p, n,
            _ptr(z, ctypes.c_double), _ptr(state, ctypes.c_uint64),
            ctypes.byref(tail),
        )
        return z, state, slow, tail.value

    reason = _sensor_self_check(normals)
    if reason is not None:
        return {}, reason

    from repro.util.rng import make_rng  # noqa: PLC0415 — leaf module

    def masked_weight(bank, times_ps, jitter_ps, seed, mask):
        tau = np.ascontiguousarray(times_ps, dtype=np.float64)
        if tau.ndim != 1:
            raise ValueError("query times must be 1-D")
        keep = np.ascontiguousarray(mask, dtype=bool)
        if keep.shape != (bank.num_bits,):
            raise ValueError(
                "mask must have one entry per bit, got %r" % (keep.shape,)
            )
        sigma = float(jitter_ps)
        if not np.isfinite(sigma):
            from repro.core.waveform_bank import masked_weight_numpy

            return masked_weight_numpy(bank, tau, jitter_ps, seed, mask)
        weight = np.zeros(tau.shape[0], dtype=np.int64)
        masked = np.flatnonzero(keep)
        if masked.size == 0 or tau.shape[0] == 0:
            return weight
        # The generator is private to this call, so endpoints after the
        # last masked one need not be drawn at all.
        words = (
            _pcg64_words(make_rng(seed, "endpoint-jitter"))
            if sigma > 0
            else np.zeros(4, dtype=np.uint64)
        )
        times = np.ascontiguousarray(bank.flat_times_ps, dtype=np.float64)
        values = np.ascontiguousarray(bank.flat_values, dtype=np.uint8)
        offsets = np.ascontiguousarray(bank.offsets, dtype=np.int64)
        if offsets.shape != (bank.num_bits + 1,) or not (
            offsets[-1] == times.shape[0] == values.shape[0]
        ):
            raise ValueError("waveform bank arrays are inconsistent")
        lib.repro_sensor_masked_weight(
            _ptr(tau, ctypes.c_double), tau.shape[0], sigma,
            _ptr(words, ctypes.c_uint64), wi_p, ki_p,
            _ptr(times, ctypes.c_double),
            _ptr(values, ctypes.c_uint8),
            _ptr(offsets, ctypes.c_int64),
            _ptr(keep.view(np.uint8), ctypes.c_uint8),
            int(masked[-1]) + 1,
            _ptr(weight, ctypes.c_int64),
        )
        return weight

    # The raw draws, for tests that check a corpus reaches the slow path.
    masked_weight.normals = normals
    return {("sensor", "masked_weight"): masked_weight}, None


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------

_PROBE_LOCK = threading.Lock()
#: ``(provider, reason)`` once probed: the loaded provider, or None
#: and why not.
_PROBED: Optional[Tuple[Optional[NativeProvider], str]] = None


def _probe() -> Tuple[Optional[NativeProvider], str]:
    global _PROBED
    probed = _PROBED
    if probed is None:
        with _PROBE_LOCK:
            if _PROBED is None:
                _PROBED = _build_provider()
            probed = _PROBED
    return probed


def _build_provider() -> Tuple[Optional[NativeProvider], str]:
    compiler = _find_compiler()
    if compiler is None:
        return None, "no C compiler found (tried cc, gcc, clang)"
    try:
        ops = _build_cc_ops(_compile_library(compiler))
        sensor_ops, refused = _build_sensor_ops(compiler)
    except subprocess.CalledProcessError as exc:
        return None, (
            "C kernel build failed: %s" % (exc.stderr or str(exc)).strip()
        )
    except OSError as exc:
        return None, "C kernel library failed to load: %s" % exc
    ops.update(sensor_ops)
    refusals = {} if refused is None else {"sensor": refused}
    align_refused = _align_self_check(ops[("align", "estimate")])
    if align_refused is not None:
        del ops[("align", "estimate")]
        refusals["align"] = align_refused
    return NativeProvider("cc", ops, refusals), "available"


def load_native() -> Optional[NativeProvider]:
    """The native provider for this host, or None.

    Probes once per process: builds (or reuses) the C library when a
    compiler exists; a failed probe keeps its reason for
    :func:`unavailable_reason`.
    """
    return _probe()[0]


def unavailable_reason() -> str:
    """Why :func:`load_native` returned None (``"available"`` if not)."""
    return _probe()[1]


def _reset_for_tests() -> None:
    """Drop the cached probe (tests that patch the compiler probe)."""
    global _PROBED
    _PROBED = None
