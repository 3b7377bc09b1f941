"""Compiled C sweep backend, built on demand with the system compiler.

The kernel is ~100 lines of C replaying the exact IEEE-754 double
operations of the NumPy pipeline, row by row instead of pass by pass:
one cache-friendly scan replaces the ~10 full-matrix temporaries of the
vectorized tail.  Compiled with ``-ffp-contract=off`` so the compiler
cannot fuse multiply-adds — every add, multiply and divide rounds
exactly where NumPy's does, which is what makes the result bit-identical
rather than merely close.

Three entry points:

``select_sorted``
    The dense tail: per-row prefix sums + first-valid candidate +
    elastic segment-0 override + degenerate fixed rows.  Rows the scan
    cannot finish (least-violation fallback, non-finite poisoning) are
    flagged and deferred to the reference NumPy tail, so the weird
    cases run the reference code by construction.
``take_verify``
    The permutation-reuse gate: gather breakpoints through the cached
    flat index while checking the stable order (strictly increasing, or
    equal with increasing original index) in the same pass; returns the
    rows whose cached order no longer holds.  NaN fails every
    comparison, exactly like the vectorized check.
``select_sparse_seg``
    The segmented (CSR) tail.  Deliberately keeps *global* running sums
    and subtracts the recorded segment-start offsets — the same
    formulation as ``_segment_cumsum`` (global ``np.cumsum`` minus
    offsets), so rounding, inf-inf and NaN propagation across segments
    match the NumPy kernel bitwise.  The per-row min reductions
    replicate ``np.minimum.at``'s NaN-stickiness.

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
from repro.equilibration.backends.numpy_backend import select_rows_numpy

__all__ = ["CNativeBackend", "compiler_version"]

_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* Per-row scan over sorted (bs, ss): prefix sums, candidate test,
   first-valid selection, elastic segment-0 override, degenerate fixed
   rows.  Rows needing the least-violation fallback (or poisoned by
   non-finite data) are flagged for the NumPy tail. */
void select_sorted(const double *bs, const double *ss,
                   const double *rhs, const double *a,
                   const unsigned char *fixed, const int64_t *counts,
                   int64_t m, int64_t n,
                   double *lam, unsigned char *needs_py)
{
    for (int64_t i = 0; i < m; i++) {
        const double *b = bs + i * n;
        const double *s = ss + i * n;
        double ai = a[i], ri = rhs[i];
        double cum_slope = 0.0, cum_sb = 0.0;
        int have = 0;
        double li = 0.0;
        for (int64_t j = 0; j < n; j++) {
            cum_slope += s[j];
            cum_sb += s[j] * b[j];
            double denom = cum_slope + ai;
            double cand = (ri + cum_sb) / denom;
            double hi = (j < n - 1) ? b[j + 1] : INFINITY;
            if (cand >= b[j] && cand <= hi && denom > 0.0 && isfinite(cand)) {
                li = cand;
                have = 1;
                break;
            }
        }
        if (!fixed[i]) {
            double lam0 = ri / ai;
            if (lam0 <= b[0]) { li = lam0; have = 1; }
        }
        if (!have && fixed[i] && ri == 0.0) {
            li = counts[i] > 0 ? b[0] : 0.0;
            have = 1;
        }
        lam[i] = li;
        needs_py[i] = (unsigned char)!have;
    }
}

/* Gather bs[i][j] = be_flat[flat_idx[i][j]] while verifying the cached
   stable order (value strictly increasing, or equal with increasing
   original column).  Rows that fail — including any NaN, which fails
   every comparison — are appended to bad[]; returns their count. */
int64_t take_verify(const double *be_flat, const int64_t *flat_idx,
                    const int64_t *order, int64_t m, int64_t n,
                    double *bs, int64_t *bad)
{
    int64_t nbad = 0;
    for (int64_t i = 0; i < m; i++) {
        const int64_t *fi = flat_idx + i * n;
        const int64_t *o = order + i * n;
        double *out = bs + i * n;
        int ok = 1;
        double prev = 0.0;
        int64_t prev_o = 0;
        for (int64_t j = 0; j < n; j++) {
            double v = be_flat[fi[j]];
            out[j] = v;
            if (j > 0 && !(v > prev || (v == prev && o[j] > prev_o)))
                ok = 0;
            prev = v;
            prev_o = o[j];
        }
        if (!ok) bad[nbad++] = i;
    }
    return nbad;
}

/* Strict total order of argsort(kind="stable"): value ascending, NaN
   above everything (matching numpy's sort, which sends NaN last), ties
   broken by original column index.  Distinct indices make the order
   strict, so its sorted sequence is unique — producing it by ANY
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

/* Adaptive stable re-sort of the listed rows, starting from each row's
   cached permutation.  Gathers the new values in the OLD order — late
   in a dual ascent that sequence is nearly sorted — then natural-run
   bottom-up mergesort on the strict total key: k pre-sorted runs cost
   O(n log k), so a nearly-ordered row is ~O(n) instead of the
   O(n log n) a cold argsort pays.  Also refreshes the flat gather
   index and the tie-direction bits (ord_incr) the verify pass uses.
   Returns 0, or 1 when scratch allocation fails (caller falls back). */
int64_t resort_rows(const double *be_flat, const double *slopes_flat,
                    const int64_t *rows, int64_t nrows, int64_t n,
                    int64_t *order, double *bs, double *ss,
                    int64_t *flat_idx, unsigned char *ord_incr)
{
    double *tval = (double *)malloc((size_t)n * sizeof(double));
    int64_t *tidx = (int64_t *)malloc((size_t)n * sizeof(int64_t));
    int64_t *starts = (int64_t *)malloc(((size_t)n + 1) * sizeof(int64_t));
    if (!tval || !tidx || !starts) {
        free(tval); free(tidx); free(starts);
        return 1;
    }
    for (int64_t t = 0; t < nrows; t++) {
        int64_t row = rows[t];
        int64_t *o = order + row * n;
        double *v = bs + row * n;
        const double *be = be_flat + row * n;
        /* Gather through the old order and record the natural runs. */
        int64_t nruns = 1;
        starts[0] = 0;
        v[0] = be[o[0]];
        for (int64_t k = 1; k < n; k++) {
            v[k] = be[o[k]];
            if (key_less(v[k], o[k], v[k - 1], o[k - 1]))
                starts[nruns++] = k;
        }
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
        if (sv != v)
            for (int64_t k = 0; k < n; k++) { v[k] = sv[k]; o[k] = si[k]; }
        const double *sl = slopes_flat + row * n;
        double *so = ss + row * n;
        int64_t *fi = flat_idx + row * n;
        unsigned char *inc = ord_incr + row * (n - 1);
        so[0] = sl[o[0]];
        fi[0] = row * n + o[0];
        for (int64_t k = 1; k < n; k++) {
            so[k] = sl[o[k]];
            fi[k] = row * n + o[k];
            inc[k - 1] = (unsigned char)(o[k] > o[k - 1]);
        }
    }
    free(tval); free(tidx); free(starts);
    return 0;
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
   lam must arrive zeroed; first_bp, first_cell, missing, cand are
   caller scratch (cand holds the pass-1 candidates for the
   least-violation pass). */
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
_ENTRY_POINTS = ("select_sorted", "take_verify", "resort_rows",
                 "select_sparse_seg")

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
    lib.select_sorted.restype = None
    lib.select_sorted.argtypes = [
        _f64, _f64, _f64, _f64, _u8, _i64,
        ctypes.c_int64, ctypes.c_int64, _f64, _u8,
    ]
    lib.take_verify.restype = ctypes.c_int64
    lib.take_verify.argtypes = [
        _f64, _i64, _i64, ctypes.c_int64, ctypes.c_int64, _f64, _i64,
    ]
    lib.resort_rows.restype = ctypes.c_int64
    lib.resort_rows.argtypes = [
        _f64, _f64, _i64, ctypes.c_int64, ctypes.c_int64,
        _i64, _f64, _f64, _i64, _u8,
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
    supports_sparse = True

    def __init__(self) -> None:
        self._lib = _build_library()

    def select(self, bs, ss, rhs, a_arr, fixed, counts, *, ws=None):
        # The scan builds its running sums with the same sequential
        # additions NumPy's cumsum performs; it needs no scratch from
        # the workspace.
        r, n = bs.shape
        lam = np.empty(r)
        needs_py = np.empty(r, dtype=np.uint8)
        self._lib.select_sorted(
            _as_f64(bs), _as_f64(ss), _as_f64(rhs), _as_f64(a_arr),
            _as_u8(fixed), _as_i64(counts), r, n, lam, needs_py,
        )
        if needs_py.any():
            rows = np.flatnonzero(needs_py)
            lam[rows] = select_rows_numpy(
                rows, np.ascontiguousarray(bs[rows]),
                np.ascontiguousarray(ss[rows]), rhs[rows], a_arr[rows],
                fixed[rows], counts[rows],
            )
        return lam

    def take_verify(self, be_flat, flat_idx, order, bs_out):
        """Gather + stable-order check; returns the bad row indices."""
        r, n = bs_out.shape
        bad = np.empty(r, dtype=np.int64)
        nbad = self._lib.take_verify(
            _as_f64(be_flat), _as_i64(flat_idx), _as_i64(order),
            r, n, bs_out, bad,
        )
        return bad[:nbad]

    def resort_rows(self, be, slopes_flat, rows, order, bs, ss,
                    flat_idx, ord_incr):
        """Adaptive stable re-sort of ``rows`` from the cached order.

        Bit-identical to ``argsort(kind="stable")`` on those rows (the
        strict total key has a unique sorted sequence); also refreshes
        ``flat_idx``/``ord_incr`` so the caller skips its own refresh.
        Returns False when the kernel could not run (caller falls back
        to the NumPy resort).
        """
        r, n = order.shape
        if order.dtype.itemsize != 8 or not (
            order.flags.c_contiguous
            and bs.flags.c_contiguous
            and ss.flags.c_contiguous
            and flat_idx.flags.c_contiguous
            and ord_incr.flags.c_contiguous
        ):
            return False
        rows64 = _as_i64(rows)
        status = self._lib.resort_rows(
            _as_f64(be.reshape(-1)), _as_f64(slopes_flat), rows64,
            rows64.shape[0], n, order.view(np.int64), bs, ss,
            flat_idx.view(np.int64), _as_u8(ord_incr),
        )
        return status == 0

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
        return lam
