"""Persistent sweep workspace for the exact-equilibration kernel.

Every SEA sweep calls :func:`repro.equilibration.exact.
solve_piecewise_linear` with the *same* slope matrix and a breakpoint
matrix that is a constant base shifted by the opposite multipliers
(``base - mu``).  The cold kernel pays, per call, a full ``O(mn log n)``
stable argsort plus roughly ten fresh ``(m, n)`` temporaries and an
``O(mn)`` validation scan — yet as the alternating-scaling duals settle
(cf. Aas and Nathanson in PAPERS.md, on iterative scaling limits) the
within-row sort order stops changing, so late sweeps re-derive a
permutation they already know.

:class:`SweepWorkspace` removes all three costs for a fixed ``(m, n)``
shape:

* **validation hoisting** — slope nonnegativity, the active mask and
  per-row active counts are computed once per :meth:`bind`, not per
  sweep (only the O(m) right-hand-side feasibility checks stay
  per-call);
* **zero-allocation sweeps** — every ``(m, n)`` temporary of the kernel
  (effective breakpoints, sorted views, prefix sums, candidates,
  segment bounds, validity masks) lives in a preallocated buffer and is
  filled with ``out=`` ufunc calls;
* **sort-permutation reuse** — the previous sweep's per-row permutation
  is re-applied with one ``np.take`` and verified with an ``O(mn)``
  pass; only rows that went out of order are re-``argsort``-ed.

The gather/verify pass and the selection tail are delegated to a
:mod:`repro.equilibration.backends` backend (``numpy`` reference or the
compiled ``cnative``), chosen per workspace or via
``REPRO_KERNEL_BACKEND``.

Bit-identity
------------
``np.argsort(..., kind="stable")`` output is *unique*: it sorts
positions by the key ``(value, original index)``, a strict total order.
The reuse check accepts a cached permutation for a row only when the
permuted values are nondecreasing **and** every tie keeps its original
indices in increasing order — exactly the characterization of that
unique stable permutation.  A reused permutation therefore produces the
very same sorted arrays the cold kernel would, and every downstream
value (prefix sums, candidates, selected multiplier) is bit-identical;
the selection tail itself is the cold kernel's
(:func:`repro.equilibration.exact._select` via the ``numpy`` backend;
compiled backends replay its IEEE operations and are gated against it).

Counters
--------
``sweeps`` counts kernel calls through the workspace, ``rows_reused`` /
``rows_resorted`` count per-row permutation outcomes (a bind or the
first sweep resorts everything), ``full_resorts`` counts sweeps that
paid the full ``O(mn log n)`` argsort, and :attr:`sort_reuse_rate` is
the reuse ratio.  All are surfaced by ``ServiceStats`` and recorded
in ``BENCH_sweeps.json`` by ``benchmarks/run_trajectory.py``.
:meth:`counters_extended` adds the counters of the workspace's pool
row blocks (:meth:`SweepWorkspace.blocks`) and still reports the
retired ``rows_skipped`` / ``perm_repairs`` keys; both read 0.
"""

from __future__ import annotations

import numpy as np

from repro.equilibration.backends import KernelBackend, get_backend
from repro.equilibration.exact import (
    _BIG,
    _check_feasible,
    _coerce_terms,
)

__all__ = ["SweepWorkspace"]

# Counters a row block folds into its owner (see SweepWorkspace.blocks).
_BLOCK_COUNTERS = (
    "sweeps", "rows_reused", "rows_resorted", "full_resorts", "binds",
)


class _LayoutWorkspace:
    """Kernel backend and sort counters, one vocabulary for the dense
    workspace and :class:`repro.sparse.kernel.SparseSweepWorkspace`."""

    def __init__(self, backend: "KernelBackend | str | None") -> None:
        if isinstance(backend, KernelBackend):
            self._backend = backend
        else:
            self._backend = get_backend(backend)
        self.sweeps = 0
        self.rows_reused = 0
        self.rows_resorted = 0
        self.full_resorts = 0
        self.binds = 0

    @property
    def backend_name(self) -> str:
        """Name of the kernel backend this workspace delegates to."""
        return self._backend.name

    @property
    def sort_reuse_rate(self) -> float:
        """Fraction of row-sorts answered by the cached permutation."""
        total = self.rows_reused + self.rows_resorted
        return self.rows_reused / total if total else 0.0

    def counters_extended(self) -> dict:
        """All counters plus the backend name.

        ``rows_skipped`` and ``perm_repairs`` are retired (every sweep
        takes the full path) and always read 0; the keys stay for
        readers that report them.
        """
        return {
            "sweeps": self.sweeps,
            "rows_reused": self.rows_reused,
            "rows_resorted": self.rows_resorted,
            "rows_skipped": 0,
            "perm_repairs": 0,
            "full_resorts": self.full_resorts,
            "binds": self.binds,
            "backend": self._backend.name,
        }


class SweepWorkspace(_LayoutWorkspace):
    """Preallocated buffers + cached sort permutation for one ``(m, n)``.

    The workspace is *bound* to a slope matrix (:meth:`bind`, called
    automatically by ``solve_piecewise_linear(..., workspace=...)``) and
    then drives any number of sweeps over shifting breakpoints.  Binding
    is cheap when the slopes are the same object (identity) or equal in
    content (one ``O(mn)`` compare — the case for a pool kernel's row
    blocks, which receive a fresh slice of the same matrix every
    dispatch); only a genuinely new slope matrix re-validates and drops
    the cached permutation.

    ``m`` is a row *capacity*: the batch engine binds ``k*m`` stacked
    rows and then :meth:`retain`-s the surviving subset as problems
    retire, so one workspace serves the whole batch's lifetime.

    ``backend`` is a backend name, a
    :class:`~repro.equilibration.backends.KernelBackend` instance, or
    ``None`` for the ``REPRO_KERNEL_BACKEND``/``numpy`` default.
    """

    def __init__(
        self,
        m: int,
        n: int,
        backend: "KernelBackend | str | None" = None,
    ) -> None:
        if m < 1 or n < 1:
            raise ValueError("workspace shape must be at least (1, 1)")
        super().__init__(backend)
        self.m = int(m)
        self.n = int(n)
        shape = (self.m, self.n)
        pair = (self.m, max(self.n - 1, 0))
        # Float kernel buffers (the prefix-sum/candidate ones are the
        # numpy backend's tail scratch).
        self._b_eff = np.empty(shape)
        self._bs = np.empty(shape)
        self._ss = np.empty(shape)
        self._mul = np.empty(shape)
        self._cum_slope = np.empty(shape)
        self._cum_sb = np.empty(shape)
        self._denom = np.empty(shape)
        self._cand = np.empty(shape)
        self._hi = np.empty(shape)
        self._shift = np.empty(shape)
        # Boolean buffers.
        self._valid = np.empty(shape, dtype=bool)
        self._vtmp = np.empty(shape, dtype=bool)
        self._pair1 = np.empty(pair, dtype=bool)
        self._pair2 = np.empty(pair, dtype=bool)
        self._active = np.empty(shape, dtype=bool)
        self._inactive = np.empty(shape, dtype=bool)
        # Permutation state.
        self._order = np.empty(shape, dtype=np.intp)
        self._flat_idx = np.empty(shape, dtype=np.intp)
        self._offsets = (np.arange(self.m, dtype=np.intp) * self.n)[:, None]
        self._ord_incr = np.empty(pair, dtype=bool)
        self._order_valid = False
        self._seeded = False  # seed survives the *next* full rebind
        # Binding state.
        self._rows = self.m
        self._slopes_ref = None  # object identity of the bound slopes
        self._slopes = None  # float64 view/copy of the bound slopes
        self._slopes_flat = None
        self._counts = np.empty(self.m, dtype=np.intp)
        self._has_inactive = True
        self._zeros = np.zeros(self.m)
        # Row blocks of a pool kernel's phases (see blocks()).
        self._blocks: list[SweepWorkspace] = []
        self._block_bounds = None

    # -- introspection ------------------------------------------------------

    @property
    def rows(self) -> int:
        """Currently bound row count (``<= m`` after :meth:`retain`)."""
        return self._rows

    def permutation(self) -> np.ndarray:
        """Copy of the current per-row sort permutation (or ``None``)."""
        if not self._order_valid:
            return None
        return self._order[: self._rows].copy()

    def seed_permutation(self, order: np.ndarray) -> None:
        """Adopt a permutation from a previous related solve.

        The seed is *trusted to be a permutation per row* (e.g. the
        final permutation of a warm-start cache entry); shape, dtype
        and index range are checked, and every row still passes the
        stable-order verification on its first sweep, so a stale seed
        costs at most one resort — never correctness.
        """
        order = np.asarray(order, dtype=np.intp)
        if order.shape != (self._rows, self.n):
            raise ValueError(
                f"seed permutation shape {order.shape} != "
                f"({self._rows}, {self.n})"
            )
        if order.size and (order.min() < 0 or order.max() >= self.n):
            raise ValueError("seed permutation has out-of-range indices")
        r = self._rows
        self._order[:r] = order
        self._refresh_perm_all()
        self._order_valid = True
        # A seed usually arrives before the first bind (the service seeds
        # a fresh pair from its warm-start cache, then the solve binds the
        # slopes).  The flag lets the next full rebind keep the seed
        # instead of dropping it like an ordinary stale permutation.
        self._seeded = True
        # If already bound, refresh the permuted slopes now; otherwise
        # bind() does it when the slopes arrive.
        if self._slopes is not None:
            self._ss[:r] = np.take(
                self._slopes_flat, self._flat_idx[:r]
            )

    # -- pool row blocks -----------------------------------------------------

    def blocks(self, bounds) -> list["SweepWorkspace"]:
        """One workspace per ``(lo, hi)`` row block of a pool kernel's
        phase (:class:`~repro.parallel.executor.ParallelKernel`).

        This workspace owns them: they are kept while the bounds repeat,
        so each block reuses its own sort permutation, and replaced when
        the bounds change (a batch retirement shrinks the stacked rows).
        They die with this workspace.
        """
        bounds = list(bounds)
        if bounds != self._block_bounds:
            self.drop_blocks()
            self._blocks = [
                SweepWorkspace(hi - lo, self.n, self._backend)
                for lo, hi in bounds
            ]
            self._block_bounds = bounds
        return self._blocks

    def drop_blocks(self) -> None:
        """Forget the row blocks, folding their counters into this
        workspace's first so that :meth:`counters_extended` never goes
        backwards.  Dispatches after a drop sweep on fresh blocks, which
        is how a pool kernel keeps the stragglers of a failed dispatch
        off the next dispatch's buffers."""
        for block in self._blocks:
            for key in _BLOCK_COUNTERS:
                setattr(self, key, getattr(self, key) + getattr(block, key))
        self._blocks = []
        self._block_bounds = None

    def counters_extended(self) -> dict:
        """All counters plus the backend name, the live row blocks'
        included."""
        out = super().counters_extended()
        for block in self._blocks:
            for key in _BLOCK_COUNTERS:
                out[key] += getattr(block, key)
        return out

    # -- binding ------------------------------------------------------------

    def bind(self, slopes: np.ndarray) -> None:
        """Bind the workspace to a slope matrix, hoisting validation.

        Same object: no-op.  Same content (a fresh slice or restack of
        the same matrix): adopt the new reference, keep the cached
        permutation.  New content: full re-validation, permutation
        dropped.
        """
        if slopes is self._slopes_ref:
            return
        SL = np.asarray(slopes, dtype=np.float64)
        if SL.ndim != 2 or SL.shape[1] != self.n or SL.shape[0] > self.m:
            raise ValueError(
                f"slopes shape {SL.shape} does not fit workspace "
                f"capacity ({self.m}, {self.n})"
            )
        if (
            self._slopes is not None
            and SL.shape == self._slopes.shape
            and np.array_equal(SL, self._slopes)
        ):
            self._adopt(slopes, SL)
            return
        if np.any(SL < 0.0):
            raise ValueError("slopes must be nonnegative")
        r = SL.shape[0]
        keep_seed = (
            self._seeded and self._order_valid and r == self._rows
        )
        self._rows = r
        self._adopt(slopes, SL)
        np.greater(SL, 0.0, out=self._active[:r])
        np.logical_not(self._active[:r], out=self._inactive[:r])
        self._has_inactive = bool(self._inactive[:r].any())
        self._counts[:r] = np.count_nonzero(self._active[:r], axis=1)
        # A fresh binding normally invalidates the permutation, but a
        # just-seeded one is kept (refreshing the permuted slopes for the
        # new matrix): the first sweep's stable-order check still vets it
        # row by row, so a wrong seed costs a resort, never correctness.
        if keep_seed:
            self._ss[:r] = np.take(self._slopes_flat, self._flat_idx[:r])
        self._order_valid = keep_seed
        self._seeded = False
        self.binds += 1

    def retain(self, keep: np.ndarray) -> None:
        """Keep only the rows ``keep`` (sorted ascending) of the binding.

        Used by the batch engine when problems retire: the cached
        permutation, active mask, counts, slopes and permuted slopes of
        the surviving rows are gathered in place, so no re-validation or
        re-sort is paid.  The kept slopes are a copy and the bound
        object is forgotten, so the next :meth:`bind` accepts the
        caller's restacked survivors by content, or re-validates them if
        the binding was another stack's.  A workspace with no binding
        that covers ``keep`` has nothing to retain: one whose phases a
        pool kernel split into row :meth:`blocks` was never bound, and
        the smaller stack gives its next phase fresh blocks.
        """
        keep = np.asarray(keep, dtype=np.intp)
        if self._slopes is None or (keep.size and keep[-1] >= self._rows):
            return
        r = keep.size
        self._order[:r] = self._order[keep]
        self._ord_incr[:r] = self._ord_incr[keep]
        self._active[:r] = self._active[keep]
        self._inactive[:r] = self._inactive[keep]
        self._counts[:r] = self._counts[keep]
        self._ss[:r] = self._ss[keep]
        np.add(self._order[:r], self._offsets[:r], out=self._flat_idx[:r])
        self._rows = r
        self._has_inactive = bool(self._inactive[:r].any())
        self._adopt(None, self._slopes[keep])

    def _adopt(self, ref, SL: np.ndarray) -> None:
        """Record ``SL`` (float64) as the bound slopes of object ``ref``."""
        self._slopes_ref = ref
        self._slopes = SL
        self._slopes_flat = (
            SL.reshape(-1) if SL.flags.c_contiguous
            else np.ascontiguousarray(SL).reshape(-1)
        )

    # -- layout hooks of the SEA driver --------------------------------------
    # The dense layout: ``(m, n)`` matrices, transposed for the column
    # phase, which alone is asked to orient and recover.

    #: Algorithm-name suffix of results solved on this layout.
    tag = ""

    @property
    def segment_length(self) -> int:
        """Cells per row: the op-count model's row length."""
        return self.n

    @staticmethod
    def prepare(problem):
        """Row-major ``(base, slopes, starting iterate)`` of one solve:
        breakpoints are ``base - mu`` (``base.T - lam``) with ``base =
        -2*gamma*x0``; inactive cells are inert and start at 0."""
        mask = problem.mask
        gamma_safe = np.where(mask, problem.gamma, 1.0)
        x0_safe = np.where(mask, problem.x0, 0.0)
        base = np.where(mask, -2.0 * gamma_safe * x0_safe, 0.0)
        slopes = np.where(mask, 1.0 / (2.0 * gamma_safe), 0.0)
        x = np.where(mask, np.maximum(problem.x0, 0.0), 0.0)
        return base, slopes, x

    @staticmethod
    def orient(values: np.ndarray) -> np.ndarray:
        """Row-major cell values in the column phase's layout."""
        return values.T.copy()

    @staticmethod
    def recover(lam, breakpoints, slopes, out: np.ndarray) -> np.ndarray:
        """Column-phase primal recovery (eqs. 23a / 40a) into ``out``;
        returns the row-major iterate, a transposed view of ``out``."""
        np.subtract(lam[:, None], breakpoints, out=out)
        np.maximum(out, 0.0, out=out)
        np.multiply(out, slopes, out=out)
        return out.T

    @staticmethod
    def row_sums(x: np.ndarray) -> np.ndarray:
        return x.sum(axis=1)

    @staticmethod
    def densify(x: np.ndarray) -> np.ndarray:
        return x

    def shift(self, base: np.ndarray, opposite: np.ndarray) -> np.ndarray:
        """``base - opposite[None, :]`` into a reusable buffer.

        The per-sweep breakpoint matrix of every diagonal SEA phase has
        this form; routing it through the workspace removes the last
        per-sweep ``(m, n)`` allocation of the drivers.  The result is
        workspace-owned and overwritten by the next shift.
        """
        r = base.shape[0]
        return np.subtract(base, opposite[None, :], out=self._shift[:r])

    def shift_stack(self, base3: np.ndarray, opposite2: np.ndarray) -> np.ndarray:
        """Batched shift: ``(k, m, n) - (k, 1, n)`` flattened to 2-D."""
        k, mm, nn = base3.shape
        view = self._shift.reshape(-1)[: k * mm * nn].reshape(k, mm, nn)
        np.subtract(base3, opposite2[:, None, :], out=view)
        return view.reshape(k * mm, nn)

    # -- the kernel fast path -----------------------------------------------

    def solve(
        self,
        breakpoints: np.ndarray,
        target: np.ndarray,
        a: np.ndarray | None = None,
        c: np.ndarray | None = None,
    ) -> np.ndarray:
        """One sweep over the bound rows; bit-identical to the cold kernel."""
        if self._slopes is None:
            raise RuntimeError("workspace is not bound; call bind(slopes) first")
        r = self._rows
        B = np.asarray(breakpoints, dtype=np.float64)
        if B.shape != (r, self.n):
            raise ValueError(
                "breakpoints and slopes must be equal-shape 2-D arrays"
            )
        target, a_arr, c_arr = _coerce_terms(r, target, a, c)
        if a is None:
            a_arr = self._zeros[:r]

        rhs = target - c_arr
        fixed = a_arr == 0.0
        counts = self._counts[:r]
        _check_feasible(rhs, fixed, counts)

        be = self._effective(B, r)
        be_flat = be.reshape(-1)
        bs = self._bs[:r]
        ss = self._ss[:r]
        order = self._order[:r]
        if self._order_valid:
            take_verify = getattr(self._backend, "take_verify", None)
            if take_verify is not None:
                bad = take_verify(be_flat, self._flat_idx[:r], order, bs)
            else:
                np.take(be_flat, self._flat_idx[:r], out=bs)
                bad = self._out_of_order_rows(bs, r)
            if bad.size:
                self._resort(be, bs, ss, order, bad)
                if 2 * bad.size >= r:
                    self.full_resorts += 1
            self.rows_reused += r - bad.size
            self.rows_resorted += bad.size
        else:
            order[:] = np.argsort(be, axis=1, kind="stable")
            self._refresh_perm_all()
            np.take(be_flat, self._flat_idx[:r], out=bs)
            np.take(self._slopes_flat, self._flat_idx[:r], out=ss)
            self._order_valid = True
            self.rows_resorted += r
            self.full_resorts += 1
        self.sweeps += 1
        return self._backend.select(bs, ss, rhs, a_arr, fixed, counts, ws=self)

    def _effective(self, B: np.ndarray, r: int) -> np.ndarray:
        """Effective breakpoints: inert cells pinned to the _BIG sentinel."""
        if self._has_inactive:
            be = self._b_eff[:r]
            np.copyto(be, B)
            np.copyto(be, _BIG, where=self._inactive[:r])
        elif B.flags.c_contiguous:
            be = B  # fully active: read the caller's buffer directly
        else:
            be = self._b_eff[:r]
            np.copyto(be, B)
        return be

    # -- permutation internals ----------------------------------------------

    def _refresh_perm(self, rows: np.ndarray) -> None:
        """Recompute flat indices and tie-stability bits for ``rows``.

        Fancy assignment (not ``out=``) on purpose: ``self._flat_idx[rows]``
        with an index array is a copy, so an ``out=`` into it would be lost.
        """
        self._flat_idx[rows] = self._order[rows] + self._offsets[rows]
        if self.n > 1:
            self._ord_incr[rows] = (
                self._order[rows, 1:] > self._order[rows, :-1]
            )

    def _refresh_perm_all(self) -> None:
        """Full-range :meth:`_refresh_perm` without the fancy-index copies."""
        r = self._rows
        np.add(self._order[:r], self._offsets[:r], out=self._flat_idx[:r])
        if self.n > 1:
            np.greater(
                self._order[:r, 1:], self._order[:r, :-1],
                out=self._ord_incr[:r],
            )

    def _out_of_order_rows(self, bs: np.ndarray, r: int) -> np.ndarray:
        """Rows whose cached permutation is no longer the stable order.

        A pair ``(k, k+1)`` is in stable order iff ``bs`` strictly
        increases, or ties with the original indices increasing.  Rows
        where every pair passes reproduce ``argsort(kind="stable")``
        exactly (the stable permutation is unique), so reusing them is
        bit-identical; nan breakpoints fail every comparison and force a
        resort, never a silent reuse.
        """
        if self.n <= 1:
            return np.empty(0, dtype=np.intp)
        p1 = self._pair1[:r]
        p2 = self._pair2[:r]
        np.greater(bs[:, 1:], bs[:, :-1], out=p1)
        np.equal(bs[:, 1:], bs[:, :-1], out=p2)
        np.logical_and(p2, self._ord_incr[:r], out=p2)
        np.logical_or(p1, p2, out=p1)
        return np.flatnonzero(~p1.all(axis=1))

    def _resort(self, be, bs, ss, order, bad) -> None:
        """Re-argsort the rows that went out of order.

        A compiled backend re-sorts exactly the stale rows with an
        adaptive natural-run merge seeded by the cached permutation —
        nearly-ordered rows (the warm regime) cost ~O(n) instead of a
        cold O(n log n) argsort, and the strict total key makes the
        result bit-identical to ``argsort(kind="stable")``.

        On the NumPy path: below half the rows, only the stale subset is
        touched; above it, the fancy-indexed gather/scatter per row
        costs more than one contiguous whole-matrix argsort, so the full
        path wins (and recomputing a still-valid row reproduces its
        cached permutation exactly — the stable order is unique — so
        both paths stay bit-identical).
        """
        r = order.shape[0]
        resort = getattr(self._backend, "resort_rows", None)
        if resort is not None and resort(
            be, self._slopes_flat, bad, order, bs, ss,
            self._flat_idx[:r], self._ord_incr[:r],
        ):
            return
        if 2 * bad.size >= r:
            order[:] = np.argsort(be, axis=1, kind="stable")
            self._refresh_perm_all()
            np.take(be.reshape(-1), self._flat_idx[:r], out=bs)
            np.take(self._slopes_flat, self._flat_idx[:r], out=ss)
            return
        order[bad] = np.argsort(be[bad], axis=1, kind="stable")
        self._refresh_perm(bad)
        idx = self._flat_idx[bad]
        bs[bad] = np.take(be.reshape(-1), idx)
        ss[bad] = np.take(self._slopes_flat, idx)
