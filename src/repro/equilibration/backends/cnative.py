"""Compiled C sweep backend, built on demand with the system compiler.

The kernel is a few hundred lines of C replaying the exact IEEE-754
double operations of the NumPy pipeline, row by row instead of pass by
pass: one cache-friendly pass per row replaces the ~10 full-matrix
temporaries of the vectorized path.  Compiled with ``-ffp-contract=off``
so the compiler cannot fuse multiply-adds — every add, multiply and
divide rounds exactly where NumPy's does, which is what makes the
result bit-identical rather than merely close.

Two entry points:

``sweep_rows``
    One dense SEA phase, one call.  Per row it gathers the effective
    breakpoints (inert cells pinned to ``_BIG``) through the cached
    sort order, checks that order in the same loop (a pair passes iff
    its value strictly increases, or ties with increasing column; NaN
    fails every pair, exactly like the vectorized check) and counts
    the descents, re-sorts a stale row while it is still in cache, and
    scans it for its multiplier (prefix sums, first valid candidate,
    elastic segment-0 override, degenerate fixed rows).  The re-sort
    has two regimes chosen by a fixed rule on the descent count: a row
    with few descents (the warm regime) takes a natural-run merge
    seeded by its cached order, ~O(n) when nearly sorted; a scrambled
    row takes a stable LSD radix argsort (8-bit digits, constant
    digits skipped) read in column order, because LSD keeps the input
    order of ties.  Its key maps ``-0.0`` to ``+0.0`` and every NaN to
    the largest key, so keys tie exactly where ``argsort(kind=
    "stable")`` ties; both regimes therefore produce that unique stable
    order bit for bit.  Only ``order`` and the multipliers are written.
    Rows the scan cannot finish (least-violation fallback, non-finite
    poisoning) are flagged and deferred to the reference NumPy tail, so
    the weird cases run the reference code by construction.
``select_sparse_seg``
    The segmented (CSR) tail.  Deliberately keeps *global* running sums
    and subtracts the recorded segment-start offsets — the same
    formulation as ``_segment_cumsum`` (global ``np.cumsum`` minus
    offsets), so rounding, inf-inf and NaN propagation across segments
    match the NumPy kernel bitwise.  The per-row min reductions
    replicate ``np.minimum.at``'s NaN-stickiness, and a row that no
    pass solves raises the NumPy tail's ``ValueError``.

The shared object is cached under ``$REPRO_CNATIVE_CACHE`` (default
``~/.cache/repro-cnative``, falling back to the system temp dir), keyed
by a hash of the source, so each toolchain compiles once.  Each build
compiles from its own temp source and is checked for every entry point
before it is installed; a cached object that fails the same check is
rebuilt.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile

import numpy as np
from numpy.ctypeslib import ndpointer

from repro.equilibration.backends import KernelBackend
from repro.equilibration.exact import _BIG, _no_candidate

__all__ = ["CNativeBackend", "compiler_version"]

_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* A stale row takes the radix when it is long enough for the radix's
   fixed per-row cost (histograms) to pay off and scrambled enough that
   merging its natural runs would cost more; otherwise the merge. */
#define RADIX_MIN_N 64
#define RADIX_DESCENT_RATIO 16

/* Strict total order of argsort(kind="stable"): value ascending, NaN
   above everything (matching numpy's sort, which sends NaN last), ties
   broken by original column index.  Distinct indices make the order
   strict, so its sorted sequence is unique -- producing it by ANY
   comparison sort reproduces the stable argsort bit for bit. */
static int key_less(double va, int64_t ia, double vb, int64_t ib)
{
    if (va < vb) return 1;                /* IEEE: false if either NaN */
    if (vb != vb) {                       /* b is NaN */
        if (va == va) return 1;           /* non-NaN sorts below NaN */
        return ia < ib;                   /* NaN tie: original index */
    }
    if (va == vb) return ia < ib;         /* value tie: original index */
    return 0;                             /* va > vb, or va NaN alone */
}

/* Natural-run bottom-up mergesort of (v, o) on key_less.  v holds the
   row gathered through its previous order o; late in a dual ascent
   that sequence is nearly sorted, and k pre-sorted runs cost
   O(n log k) instead of a cold O(n log n). */
static void merge_runs(double *v, int64_t *o, int64_t n,
                       double *tval, int64_t *tidx, int64_t *starts)
{
    int64_t nruns = 1;
    starts[0] = 0;
    for (int64_t k = 1; k < n; k++)
        if (key_less(v[k], o[k], v[k - 1], o[k - 1]))
            starts[nruns++] = k;
    starts[nruns] = n;
    double *sv = v, *dv = tval;
    int64_t *si = o, *di = tidx;
    while (nruns > 1) {
        int64_t w = 0;
        for (int64_t rp = 0; rp + 1 < nruns; rp += 2) {
            int64_t x = starts[rp], xe = starts[rp + 1];
            int64_t y = xe, ye = starts[rp + 2];
            while (x < xe && y < ye) {
                if (key_less(sv[y], si[y], sv[x], si[x])) {
                    dv[w] = sv[y]; di[w] = si[y]; y++; w++;
                } else {
                    dv[w] = sv[x]; di[w] = si[x]; x++; w++;
                }
            }
            for (; x < xe; x++, w++) { dv[w] = sv[x]; di[w] = si[x]; }
            for (; y < ye; y++, w++) { dv[w] = sv[y]; di[w] = si[y]; }
        }
        if (nruns & 1)
            for (int64_t x = starts[nruns - 1]; x < n; x++, w++) {
                dv[w] = sv[x]; di[w] = si[x];
            }
        /* Every other boundary survives the pairwise merge. */
        int64_t nr2 = 0;
        for (int64_t rp = 0; rp < nruns; rp += 2)
            starts[nr2++] = starts[rp];
        starts[nr2] = n;
        nruns = nr2;
        double *pv = sv; sv = dv; dv = pv;
        int64_t *pi = si; si = di; di = pi;
    }
    if (sv != v) {
        memcpy(v, sv, (size_t)n * sizeof(double));
        memcpy(o, si, (size_t)n * sizeof(int64_t));
    }
}

/* Order-preserving unsigned key: equal keys exactly where key_less
   ties on value.  -0.0 becomes +0.0 and every NaN (either sign, any
   payload) the largest key, above +inf. */
static uint64_t radix_key(double x)
{
    uint64_t u;
    if (x != x) return UINT64_MAX;
    if (x == 0.0) x = 0.0;
    memcpy(&u, &x, sizeof u);
    return (u >> 63) ? ~u : (u | 0x8000000000000000ULL);
}

/* Stable LSD radix argsort of the row, 8-bit digits, digits constant
   over the row skipped.  LSD keeps the input order of equal keys, so
   the row is read in COLUMN order: ties then come out in increasing
   column, the stable argsort's tie-break. */
static void radix_rows(const double *b, const unsigned char *ina,
                       double big, int64_t n, int64_t *o,
                       uint64_t *k1, uint64_t *k2, int64_t *i2,
                       int64_t (*hist)[256])
{
    memset(hist, 0, 8 * sizeof *hist);
    for (int64_t c = 0; c < n; c++) {
        uint64_t k = radix_key((ina && ina[c]) ? big : b[c]);
        k1[c] = k;
        o[c] = c;
        for (int d = 0; d < 8; d++)
            hist[d][(k >> (8 * d)) & 0xFF]++;
    }
    uint64_t *sk = k1, *dk = k2;
    int64_t *si = o, *di = i2;
    for (int d = 0; d < 8; d++) {
        int sh = 8 * d;
        int64_t *h = hist[d];
        if (h[(sk[0] >> sh) & 0xFF] == n) continue;  /* constant digit */
        int64_t sum = 0;
        for (int bkt = 0; bkt < 256; bkt++) {
            int64_t cnt = h[bkt];
            h[bkt] = sum;
            sum += cnt;
        }
        for (int64_t j = 0; j < n; j++) {
            int64_t p = h[(sk[j] >> sh) & 0xFF]++;
            dk[p] = sk[j];
            di[p] = si[j];
        }
        uint64_t *pk = sk; sk = dk; dk = pk;
        int64_t *pi = si; si = di; di = pi;
    }
    if (si != o)
        memcpy(o, si, (size_t)n * sizeof(int64_t));
}

/* One SEA phase: r independent single-market equilibrations.  Per row:
   gather the effective breakpoints (inert cells pinned to big) through
   the cached order (the identity when cold) while checking the stable
   order -- a pair fails unless its value strictly increases, or ties
   with increasing column, so NaN fails every pair; re-sort a stale row
   while it is in cache (natural-run merge from the cached order when
   it has few descents, radix from column order when it has many);
   then scan the sorted row for its multiplier: prefix sums, first
   valid candidate, elastic segment-0 override, degenerate fixed rows.
   Rows needing the least-violation fallback (or poisoned by non-finite
   data) are flagged in needs_py for the NumPy tail.  Writes only order
   and lam; returns the number of stale rows, or -1 when scratch
   allocation fails. */
int64_t sweep_rows(const double *B, const unsigned char *inactive,
                   const double *slopes, int64_t *order, int64_t cold,
                   const double *rhs, const double *a,
                   const unsigned char *fixed, const int64_t *counts,
                   int64_t r, int64_t n, double big,
                   double *lam, unsigned char *needs_py)
{
    size_t nn = (size_t)n;
    double *v = (double *)malloc(2 * nn * sizeof(double));
    int64_t *ix = (int64_t *)malloc((3 * nn + 1) * sizeof(int64_t));
    uint64_t *keys = (uint64_t *)malloc(2 * nn * sizeof(uint64_t));
    int64_t (*hist)[256] = malloc(8 * sizeof *hist);
    if (!v || !ix || !keys || !hist) {
        free(v); free(ix); free(keys); free(hist);
        return -1;
    }
    double *tval = v + nn;
    int64_t *tidx = ix, *i2 = ix + nn, *starts = ix + 2 * nn;
    int64_t nbad = 0;
    for (int64_t i = 0; i < r; i++) {
        const double *b = B + i * n;
        const unsigned char *ina = inactive ? inactive + i * n : NULL;
        const double *sl = slopes + i * n;
        int64_t *o = order + i * n;
        if (cold)
            for (int64_t j = 0; j < n; j++) o[j] = j;
        int64_t descents = 0;
        for (int64_t j = 0; j < n; j++) {
            int64_t c = o[j];
            double x = (ina && ina[c]) ? big : b[c];
            v[j] = x;
            if (j > 0 && !(x > v[j - 1] || (x == v[j - 1] && c > o[j - 1])))
                descents++;
        }
        if (descents) {
            nbad++;
            if (n >= RADIX_MIN_N && descents * RADIX_DESCENT_RATIO > n) {
                radix_rows(b, ina, big, n, o, keys, keys + nn, i2, hist);
                for (int64_t j = 0; j < n; j++) {
                    int64_t c = o[j];
                    v[j] = (ina && ina[c]) ? big : b[c];
                }
            } else {
                merge_runs(v, o, n, tval, tidx, starts);
            }
        }
        double ai = a[i], ri = rhs[i];
        double cum_slope = 0.0, cum_sb = 0.0;
        int have = 0;
        double li = 0.0;
        for (int64_t j = 0; j < n; j++) {
            double s = sl[o[j]];
            cum_slope += s;
            cum_sb += s * v[j];
            double denom = cum_slope + ai;
            double cand = (ri + cum_sb) / denom;
            double hi = (j < n - 1) ? v[j + 1] : INFINITY;
            if (cand >= v[j] && cand <= hi && denom > 0.0 && isfinite(cand)) {
                li = cand;
                have = 1;
                break;
            }
        }
        if (!fixed[i]) {
            double lam0 = ri / ai;
            if (lam0 <= v[0]) { li = lam0; have = 1; }
        }
        if (!have && fixed[i] && ri == 0.0) {
            li = counts[i] > 0 ? v[0] : 0.0;
            have = 1;
        }
        lam[i] = li;
        needs_py[i] = (unsigned char)!have;
    }
    free(v); free(ix); free(keys); free(hist);
    return nbad;
}

static double nan_min(double acc, double v)
{
    if (isnan(acc) || isnan(v)) return NAN;
    return v < acc ? v : acc;
}

static double nan_max(double x, double y)
{
    if (isnan(x) || isnan(y)) return NAN;
    return x > y ? x : y;
}

/* Segmented selection over lexsorted cells.  Keeps GLOBAL running sums
   and subtracts the segment-start offsets, like _segment_cumsum, so a
   non-finite cell poisons every later segment exactly as in NumPy.
   The offset is (total - value) evaluated AT the segment start — i.e.
   re-subtracting the start cell from the already-rounded total, which
   is what `(total - values)[starts_flags]` computes and is not the
   same double as the running total before the segment.
   lam must arrive zeroed; first_bp, first_cell, cand are caller
   scratch (cand holds the pass-1 candidates for the least-violation
   pass).  missing[i] is left set only for a row no pass could solve
   (its candidates are all nan); the caller raises on it. */
void select_sparse_seg(const double *bs, const double *ss,
                       const int64_t *rid,
                       const double *rhs, const double *a,
                       const unsigned char *fixed, const double *target,
                       int64_t nnz, int64_t m,
                       double *lam, double *first_bp, int64_t *first_cell,
                       unsigned char *missing, double *cand)
{
    for (int64_t i = 0; i < m; i++) {
        first_bp[i] = INFINITY;
        first_cell[i] = -1;
        missing[i] = 1;
    }
    double gs = 0.0, gt = 0.0;       /* global running sums */
    double off_s = 0.0, off_t = 0.0; /* totals before current segment */
    double fb = INFINITY;
    int found = 0;
    int64_t row = -1;
    for (int64_t j = 0; j < nnz; j++) {
        int at_start = (row != rid[j]);
        if (at_start) {
            row = rid[j];
            fb = INFINITY;
            found = 0;
            first_cell[row] = j;
        }
        double p = ss[j] * bs[j];
        gs += ss[j];
        gt += p;
        if (at_start) {
            off_s = gs - ss[j];
            off_t = gt - p;
        }
        double S = gs - off_s;
        double T = gt - off_t;
        double denom = S + a[row];
        double c = (rhs[row] + T) / denom;
        cand[j] = c;
        double hi = (j + 1 < nnz && rid[j + 1] == row) ? bs[j + 1] : INFINITY;
        if (!found && c >= bs[j] && c <= hi) {
            lam[row] = c;
            missing[row] = 0;
            found = 1;
        }
        fb = nan_min(fb, bs[j]);
        if (j + 1 == nnz || rid[j + 1] != row)
            first_bp[row] = fb;
    }
    for (int64_t i = 0; i < m; i++) {
        if (!missing[i]) continue;
        if (!fixed[i]) {
            double lam0 = rhs[i] / a[i];
            if (lam0 <= first_bp[i]) {
                lam[i] = lam0;
                missing[i] = 0;
            }
        } else if (fabs(rhs[i]) <= 1e-15 * fabs(target[i] + 1.0)) {
            lam[i] = isfinite(first_bp[i]) ? first_bp[i] : 0.0;
            missing[i] = 0;
        }
    }
    for (int64_t i = 0; i < m; i++) {
        if (!missing[i] || first_cell[i] < 0) continue;
        double best = INFINITY;
        for (int64_t j = first_cell[i]; j < nnz && rid[j] == i; j++) {
            double hi = (j + 1 < nnz && rid[j + 1] == i) ? bs[j + 1]
                                                         : INFINITY;
            double viol = nan_max(nan_max(bs[j] - cand[j], cand[j] - hi),
                                  0.0);
            best = nan_min(best, viol);
        }
        for (int64_t j = first_cell[i]; j < nnz && rid[j] == i; j++) {
            double hi = (j + 1 < nnz && rid[j + 1] == i) ? bs[j + 1]
                                                         : INFINITY;
            double viol = nan_max(nan_max(bs[j] - cand[j], cand[j] - hi),
                                  0.0);
            if (viol <= best * (1.0 + 1e-12)) {
                lam[i] = cand[j];
                missing[i] = 0;
                break;
            }
        }
    }
}
"""

#: Cache-directory override for the compiled shared object.
CACHE_ENV = "REPRO_CNATIVE_CACHE"

#: No FMA contraction — fused rounding would break bit-identity.
_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off"]

#: Every symbol the backend calls; a cached object missing one is rebuilt.
_ENTRY_POINTS = ("sweep_rows", "select_sparse_seg")

_f64 = ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
_i64 = ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_u8 = ndpointer(dtype=np.uint8, flags="C_CONTIGUOUS")


def _find_compiler() -> str | None:
    for cc in ("cc", "gcc", "clang"):
        path = shutil.which(cc)
        if path:
            return path
    return None


def compiler_version() -> str | None:
    """First line of ``cc --version``, or None when no compiler exists."""
    cc = _find_compiler()
    if cc is None:
        return None
    try:
        out = subprocess.run(
            [cc, "--version"], capture_output=True, text=True, timeout=30
        )
    except Exception:
        return None
    line = (out.stdout or "").splitlines()
    return line[0].strip() if line else None


def _cache_dir() -> str:
    override = os.environ.get(CACHE_ENV, "").strip()
    if override:
        return override
    home = os.path.expanduser("~")
    if os.path.isdir(home) and os.access(home, os.W_OK):
        return os.path.join(home, ".cache", "repro-cnative")
    return os.path.join(tempfile.gettempdir(), "repro-cnative")


def _library_path() -> str:
    """Cache path of the shared object for the current kernel source."""
    digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
    return os.path.join(_cache_dir(), f"sweep-{digest}.so")


def _load(path: str) -> ctypes.CDLL | None:
    """Load a built kernel, or None when it is unloadable or lacks an
    entry point (an empty source compiles into a symbol-less object)."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    if all(hasattr(lib, name) for name in _ENTRY_POINTS):
        return lib
    return None


def _compile(cc: str, so_path: str) -> ctypes.CDLL:
    """Compile into private temp files, vet the result, then install it.

    Concurrent first builders each write their own source and object,
    so no compiler reads a file another process is rewriting; only a
    vetted object is moved onto the cache key.
    """
    cache = os.path.dirname(so_path)
    os.makedirs(cache, exist_ok=True)
    fd, src_path = tempfile.mkstemp(dir=cache, prefix="sweep-", suffix=".c")
    tmp_so = src_path[: -len(".c")] + ".so"
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(_SOURCE)
        proc = subprocess.run(
            [cc, *_CFLAGS, "-o", tmp_so, src_path, "-lm"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"C backend compilation failed:\n{proc.stderr.strip()}"
            )
        lib = _load(tmp_so)
        if lib is None:
            raise RuntimeError("C backend build lacks its entry points")
        os.replace(tmp_so, so_path)  # atomic under concurrent builders
        return lib
    finally:
        for path in (src_path, tmp_so):
            try:
                os.remove(path)
            except FileNotFoundError:
                pass


def _build_library() -> ctypes.CDLL:
    cc = _find_compiler()
    if cc is None:
        raise RuntimeError("no C compiler (cc/gcc/clang) on PATH")
    so_path = _library_path()
    # A cached object that fails to load or misses an entry point (a
    # build from a truncated source) is rebuilt, never trusted.
    lib = _load(so_path) if os.path.exists(so_path) else None
    if lib is None:
        lib = _compile(cc, so_path)
    lib.sweep_rows.restype = ctypes.c_int64
    lib.sweep_rows.argtypes = [
        _f64, ctypes.c_void_p, _f64, _i64, ctypes.c_int64,
        _f64, _f64, _u8, _i64,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_double, _f64, _u8,
    ]
    lib.select_sparse_seg.restype = None
    lib.select_sparse_seg.argtypes = [
        _f64, _f64, _i64, _f64, _f64, _u8, _f64,
        ctypes.c_int64, ctypes.c_int64, _f64, _f64, _i64, _u8, _f64,
    ]
    return lib


def _as_u8(mask: np.ndarray) -> np.ndarray:
    if mask.dtype == np.bool_ and mask.flags.c_contiguous:
        return mask.view(np.uint8)
    return np.ascontiguousarray(mask, dtype=np.uint8)


def _as_f64(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=np.float64)


def _as_i64(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=np.int64)


class CNativeBackend(KernelBackend):
    """ctypes-loaded C sweep; compiled once per toolchain at first use."""

    name = "cnative"
    compiled = True

    def __init__(self) -> None:
        self._lib = _build_library()

    def sweep_rows(self, B, inactive, slopes_flat, order, cold, rhs,
                   a_arr, fixed, counts):
        """One dense SEA phase in one call: ``(lam, stale, deferred)``.

        ``order`` (``(r, n)`` int64, C-contiguous) is the cached stable
        order, ignored when ``cold``; on return it is ``argsort(be,
        axis=1, kind="stable")`` of the effective breakpoints ``be``
        (``B`` with the ``inactive`` cells at ``_BIG``; ``None`` means
        every cell is active).  ``stale`` counts the rows whose cached
        order failed the check.  ``deferred`` lists the rows the scan
        could not finish; their ``lam`` entries are left for the
        reference tail.
        """
        r, n = order.shape
        if not (
            B.shape == (r, n)
            and slopes_flat.size == r * n
            and (inactive is None or inactive.shape == (r, n))
            and rhs.shape == a_arr.shape == fixed.shape == counts.shape
            == (r,)
        ):
            raise ValueError("sweep_rows: arrays do not match order's shape")
        lam = np.empty(r)
        needs_py = np.empty(r, dtype=np.uint8)
        ina = None if inactive is None else _as_u8(inactive)
        stale = self._lib.sweep_rows(
            _as_f64(B), None if ina is None else ina.ctypes.data,
            _as_f64(slopes_flat), order, int(cold), _as_f64(rhs),
            _as_f64(a_arr), _as_u8(fixed), _as_i64(counts),
            r, n, _BIG, lam, needs_py,
        )
        if stale < 0:
            raise MemoryError("sweep_rows could not allocate its scratch")
        return lam, stale, np.flatnonzero(needs_py)

    def select_sparse(self, bs, ss, rid, rhs, a_arr, fixed, target, m):
        """Segmented tail, bit-identical to ``_select_sparse``."""
        nnz = bs.shape[0]
        lam = np.zeros(m)
        first_bp = np.empty(m)
        first_cell = np.empty(m, dtype=np.int64)
        missing = np.empty(m, dtype=np.uint8)
        cand = np.empty(nnz)
        self._lib.select_sparse_seg(
            _as_f64(bs), _as_f64(ss), _as_i64(rid), _as_f64(rhs),
            _as_f64(a_arr), _as_u8(fixed), _as_f64(target),
            nnz, m, lam, first_bp, first_cell, missing, cand,
        )
        if missing.any():
            raise _no_candidate(int(np.flatnonzero(missing)[0]))
        return lam
