"""Kernel-backend registry + bit-identity across every driver.

Every backend's contract is *bit* identity with the ``numpy`` reference
— not closeness.  The adversarial instances here are built around the
ways that contract can break: ties and duplicated breakpoints (stable-
order uniqueness), NaN/inf poisoning (deferred-row fallback), the
adaptive re-sort (strict total key), and the sparse segmented scan
(global-cumsum rounding).  Compiled cases skip when no C compiler is
available.
"""

import os
import subprocess

import numpy as np
import pytest

from conftest import (
    random_elastic_problem,
    random_fixed_problem,
    random_sam_problem,
)
from repro.core.convergence import StoppingRule
from repro.core.sea import solve_elastic, solve_fixed, solve_sam
from repro.equilibration import backends as bk
from repro.equilibration.backends import cnative
from repro.equilibration.backends import (
    BACKEND_ENV,
    available_backends,
    backend_versions,
    get_backend,
    register_backend,
)
from repro.equilibration.exact import _BIG, solve_piecewise_linear
from repro.equilibration.workspace import SweepWorkspace
from repro.service import SolveService
from repro.sparse.kernel import SparseSweepWorkspace

STOP = StoppingRule(eps=1e-9, max_iterations=5000)

AVAILABLE = available_backends()
COMPILED = [
    name for name, ok in AVAILABLE.items() if ok and name != "numpy"
]


def compiled_backends():
    """Parametrization over available compiled backends (skip if none)."""
    return pytest.mark.parametrize(
        "backend",
        COMPILED
        or [pytest.param("cnative", marks=pytest.mark.skip(
            reason="no compiled backend available"))],
    )


class TestRegistry:
    def test_default_is_auto(self, monkeypatch):
        """Unset, the default is the compiled kernel wherever it builds;
        ``REPRO_KERNEL_BACKEND=numpy`` still forces the reference."""
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        expected = "cnative" if AVAILABLE["cnative"] else "numpy"
        assert get_backend().name == expected
        assert SweepWorkspace(3, 4).backend_name == expected
        monkeypatch.setenv(BACKEND_ENV, "numpy")
        assert get_backend().name == "numpy"
        assert SweepWorkspace(3, 4).backend_name == "numpy"

    def test_default_falls_back_to_numpy_without_compiler(
        self, no_c_compiler, rng
    ):
        assert get_backend().name == "numpy"
        assert get_backend("auto").name == "numpy"
        ws = SweepWorkspace(3, 4)
        assert ws.backend_name == "numpy"
        b = rng.uniform(-5.0, 5.0, (3, 4))
        s = rng.uniform(0.5, 2.0, (3, 4))
        target = rng.uniform(5.0, 20.0, 3)
        np.testing.assert_array_equal(
            solve_piecewise_linear(b, s, target, workspace=ws),
            solve_piecewise_linear(b, s, target),
        )
        with pytest.raises(RuntimeError, match="unavailable: .*no C compiler"):
            get_backend("cnative")

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_backend("no-such-backend")

    def test_explicit_unavailable_raises(self):
        class Broken(bk.KernelBackend):
            name = "broken-for-test"

            def __init__(self):
                raise RuntimeError("deliberately unavailable")

        register_backend("broken-for-test", Broken)
        try:
            with pytest.raises(RuntimeError, match="unavailable"):
                get_backend("broken-for-test")
        finally:
            bk._FACTORIES.pop("broken-for-test", None)
            bk._UNAVAILABLE.pop("broken-for-test", None)

    def test_env_unavailable_falls_back_to_numpy(self, monkeypatch):
        class Broken(bk.KernelBackend):
            name = "broken-env"

            def __init__(self):
                raise RuntimeError("deliberately unavailable")

        register_backend("broken-env", Broken)
        try:
            monkeypatch.setenv(BACKEND_ENV, "broken-env")
            assert get_backend().name == "numpy"
        finally:
            bk._FACTORIES.pop("broken-env", None)
            bk._UNAVAILABLE.pop("broken-env", None)

    def test_env_unknown_falls_back_to_numpy(self, monkeypatch):
        """An env-var name this build does not know (a typo, or a
        backend removed since) must not stop a service from coming up;
        only an explicit name raises."""
        for name in ("no-such-backend", "numba"):
            monkeypatch.setenv(BACKEND_ENV, name)
            assert get_backend().name == "numpy"
            assert SweepWorkspace(2, 3).backend_name == "numpy"
            with pytest.raises(ValueError, match="unknown kernel backend"):
                get_backend(name)

    def test_auto_resolves(self):
        backend = get_backend("auto")
        assert backend.name in AVAILABLE and AVAILABLE[backend.name]

    def test_versions_metadata(self):
        versions = backend_versions()
        assert versions["numpy"]
        assert "cc" in versions

    def test_workspace_accepts_instance_and_name(self):
        ws = SweepWorkspace(3, 4, backend="numpy")
        assert ws.backend_name == "numpy"
        ws2 = SweepWorkspace(3, 4, backend=get_backend("numpy"))
        assert ws2.backend_name == "numpy"


def _adversarial_matrix(rng, m, n):
    """Tie-heavy breakpoints with sign flips and duplicated columns."""
    levels = np.array([-2.0, -1.0, 0.0, 0.0, 1.5, 3.0])
    base = levels[rng.integers(0, levels.size, (m, n))]
    base[:, n // 2] = base[:, 0]  # exact duplicate column
    slopes = rng.uniform(0.5, 2.0, (m, n))
    target = rng.uniform(1.0, 30.0, m)
    return base, slopes, target


@compiled_backends()
class TestCompiledBitIdentity:
    def test_sweep_trajectory_matches_numpy(self, backend, rng):
        m, n = 13, 17
        base, slopes, target = _adversarial_matrix(rng, m, n)
        mus = np.cumsum(rng.uniform(-0.3, 0.3, (6, n)), axis=0)
        ws_ref = SweepWorkspace(m, n, backend="numpy")
        ws_cmp = SweepWorkspace(m, n, backend=backend)
        for mu in mus:
            lam_ref = solve_piecewise_linear(
                ws_ref.shift(base, mu), slopes, target, workspace=ws_ref
            )
            lam_cmp = solve_piecewise_linear(
                ws_cmp.shift(base, mu), slopes, target, workspace=ws_cmp
            )
            np.testing.assert_array_equal(lam_ref, lam_cmp)

    def test_fused_pass_is_stable_argsort(self, backend, rng):
        """Both re-sort regimes of the one-call phase give the unique
        stable order, on signed zeros, NaNs of either sign and other
        payloads, infinities, ``_BIG``, ties and duplicate columns.

        A cold sweep sorts from the identity order; a nudged row (two
        cells swapped) has a few descents against its cached order and
        takes the merge; a scrambled row (values permuted) has many and
        takes the radix, which keeps ties in column order only if its
        key maps ``-0.0`` to ``+0.0`` and every NaN to one key.
        """
        nans = np.array([0x7FF8000000000000, 0xFFF8000000000000,
                         0x7FF0000000000001, 0xFFF00000DEADBEEF],
                        dtype=np.uint64).view(np.float64)
        pool = np.concatenate([
            [0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, _BIG, -_BIG,
             5e-324, -5e-324], nans,
        ])
        for _ in range(30):
            m = int(rng.integers(1, 5))
            n = int(rng.choice([int(rng.integers(1, 20)),
                                int(rng.integers(80, 200))]))
            B = rng.choice(pool, size=(m, n))
            B[:, n // 2] = B[:, 0]  # exact duplicate column
            slopes = rng.uniform(0.5, 2.0, (m, n))
            slopes[rng.random((m, n)) < 0.1] = 0.0  # inert: pinned to _BIG
            target = rng.uniform(1.0, 30.0, m)
            nudged = B.copy()
            for row in nudged:
                i, j = rng.integers(0, n, 2)
                row[[i, j]] = row[[j, i]]
            scrambled = rng.permuted(B, axis=1)
            ws_ref = SweepWorkspace(m, n, backend="numpy")
            ws_cmp = SweepWorkspace(m, n, backend=backend)
            for phase in (B, nudged, scrambled, B):
                lam = []
                for ws in (ws_ref, ws_cmp):
                    try:
                        lam.append(solve_piecewise_linear(
                            phase, slopes, target, workspace=ws
                        ).view(np.int64))  # NaN-safe bitwise compare
                    except ValueError as exc:
                        lam.append(str(exc))
                np.testing.assert_array_equal(lam[0], lam[1])
                want = np.argsort(
                    np.where(slopes > 0.0, phase, _BIG), axis=1,
                    kind="stable",
                )
                np.testing.assert_array_equal(ws_cmp._order[:m], want)
                assert (ws_cmp.rows_reused, ws_cmp.rows_resorted) == (
                    ws_ref.rows_reused, ws_ref.rows_resorted
                )

    def test_nan_poisoned_row_matches_numpy(self, backend, rng):
        m, n = 6, 8
        base, slopes, target = _adversarial_matrix(rng, m, n)
        base = base.astype(float).copy()
        base[2, 3] = np.nan  # finite candidates remain: both must solve
        # A multiplier above every finite breakpoint meets the NaN as its
        # segment's upper end, so only the least-violation fallback of
        # the reference tail solves the row.
        base[4, 5] = np.nan
        target[4] = 1e3
        lam_ref = solve_piecewise_linear(
            base, slopes, target,
            workspace=SweepWorkspace(m, n, backend="numpy"),
        )
        lam_cmp = solve_piecewise_linear(
            base, slopes, target,
            workspace=SweepWorkspace(m, n, backend=backend),
        )
        np.testing.assert_array_equal(lam_ref, lam_cmp)

    def test_solo_drivers_match_numpy(self, backend, rng, monkeypatch):
        problems = {
            "fixed": (solve_fixed, random_fixed_problem(rng, 9, 8)),
            "elastic": (solve_elastic, random_elastic_problem(rng, 7, 9)),
            "sam": (solve_sam, random_sam_problem(rng, 8)),
        }
        for kind, (solver, problem) in problems.items():
            monkeypatch.setenv(BACKEND_ENV, "numpy")
            ref = solver(problem, stop=STOP)
            monkeypatch.setenv(BACKEND_ENV, backend)
            cmp_ = solver(problem, stop=STOP)
            assert ref.iterations == cmp_.iterations, kind
            np.testing.assert_array_equal(ref.x, cmp_.x, err_msg=kind)

    def test_service_matches_numpy(self, backend, rng, monkeypatch):
        problem = random_fixed_problem(rng, 7, 7)
        monkeypatch.setenv(BACKEND_ENV, "numpy")
        with SolveService() as svc:
            ref = svc.solve(problem, batchable=False)
        monkeypatch.setenv(BACKEND_ENV, backend)
        with SolveService() as svc:
            cmp_ = svc.solve(problem, batchable=False)
            stats = svc.stats()
        np.testing.assert_array_equal(ref.result.x, cmp_.result.x)
        assert stats.backend_solves.get(backend, 0) > 0


@pytest.mark.skipif(not AVAILABLE.get("cnative"), reason="no C compiler")
class TestCompiledMemory:
    def test_workspace_holds_only_what_the_phase_reads(self, rng):
        """A compiled workspace allocates the order, the shift buffer,
        the inert mask and the counts, not the reference path's
        scratch: with three sweeps it traces under four ``(m, n)``
        float64 matrices (the reference holds about thirteen)."""
        import tracemalloc

        m = n = 300
        base = rng.uniform(-5.0, 5.0, (m, n))
        slopes = rng.uniform(0.5, 2.0, (m, n))
        target = rng.uniform(5.0, 20.0, m) * n
        mus = rng.uniform(-1.0, 1.0, (3, n))
        backend = get_backend("cnative")
        tracemalloc.start()
        try:
            ws = SweepWorkspace(m, n, backend=backend)
            for mu in mus:
                solve_piecewise_linear(
                    ws.shift(base, mu), slopes, target, workspace=ws
                )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ws.sweeps == 3
        assert peak < 4 * 8 * m * n


@pytest.mark.skipif(not AVAILABLE.get("cnative"), reason="no C compiler")
class TestSparseBackend:
    def test_sparse_trajectory_matches_reference(self, rng):
        from repro.sparse.structure import SparsePattern

        m, nnz_per = 11, 5
        pattern = SparsePattern(np.ones((m, nnz_per), dtype=bool))
        bp = rng.uniform(-5.0, 5.0, pattern.nnz)
        bp[3] = bp[4]  # duplicate inside a segment
        sl = rng.uniform(0.5, 2.0, pattern.nnz)
        target = rng.uniform(1.0, 20.0, m)
        ws_ref = SparseSweepWorkspace(pattern, backend="numpy")
        ws_c = SparseSweepWorkspace(pattern, backend="cnative")
        assert ws_c.backend_name == "cnative"
        for _ in range(4):
            shift = rng.uniform(-0.2, 0.2, pattern.nnz)
            lam_ref = solve_piecewise_linear(
                bp + shift, sl, target, workspace=ws_ref
            )
            lam_c = solve_piecewise_linear(
                bp + shift, sl, target, workspace=ws_c
            )
            np.testing.assert_array_equal(lam_ref, lam_c)


@pytest.mark.skipif(cnative._find_compiler() is None, reason="no C compiler")
class TestCNativeCache:
    def test_symbolless_cached_object_is_rebuilt(self, rng, monkeypatch,
                                                 tmp_path):
        """A cached object with no entry points — what an empty
        (truncated) source compiles into — is rebuilt, not trusted."""
        monkeypatch.setenv(cnative.CACHE_ENV, str(tmp_path))
        so_path = cnative._library_path()
        empty_c = tmp_path / "empty.c"
        empty_c.write_text("")
        subprocess.run(
            [cnative._find_compiler(), "-shared", "-fPIC", "-o", so_path,
             str(empty_c)],
            check=True, capture_output=True,
        )
        planted = open(so_path, "rb").read()

        backend = cnative.CNativeBackend()

        assert open(so_path, "rb").read() != planted
        assert sorted(os.listdir(tmp_path)) == ["empty.c",
                                                os.path.basename(so_path)]
        m, n = 9, 11
        base, slopes, target = _adversarial_matrix(rng, m, n)
        ws_ref = SweepWorkspace(m, n, backend="numpy")
        ws_cmp = SweepWorkspace(m, n, backend=backend)
        for mu in np.cumsum(rng.uniform(-0.3, 0.3, (4, n)), axis=0):
            np.testing.assert_array_equal(
                solve_piecewise_linear(
                    ws_ref.shift(base, mu), slopes, target, workspace=ws_ref
                ),
                solve_piecewise_linear(
                    ws_cmp.shift(base, mu), slopes, target, workspace=ws_cmp
                ),
            )
