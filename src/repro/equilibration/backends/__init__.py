"""Pluggable kernel backends for the piecewise-linear sweep.

The workspace fast path ends in two data-parallel stages: the gather +
stable-order verification of the cached permutation, and the prefix-sum
/ candidate-selection pipeline (the "tail").  Both are pure elementwise
float64 pipelines, so they can be swapped for compiled implementations
without touching the algorithm — this package is that seam.

Backends
--------
``numpy``
    The reference implementation (default).  Literally the same array
    code the cold kernel runs; every other backend is bit-identity
    gated against it.
``cnative``
    A small C kernel compiled on demand with the system C compiler
    (``cc``/``gcc``) and loaded through :mod:`ctypes`.  Compiled with
    ``-ffp-contract=off`` so no fused-multiply-add can change rounding:
    the per-row scan performs the very same IEEE-754 double operations
    in the very same order as the NumPy pipeline, hence bit-identical
    results.  Unavailable when no C compiler is on ``PATH``.

Selection
---------
:func:`get_backend` resolves, in order: an explicit ``name`` argument,
the ``REPRO_KERNEL_BACKEND`` environment variable, then the ``numpy``
default.  The special name ``auto`` picks the fastest available backend
(``cnative`` > ``numpy``).  An environment-variable name that is
unknown or cannot be built falls back to ``numpy``, so a service always
comes up; an explicit ``name`` that is unknown or unbuildable raises.
Resolution happens when a
:class:`~repro.equilibration.workspace.SweepWorkspace` is constructed,
so every layer that builds workspaces — the solo drivers,
``sea_general``, ``solve_batch``, the sparse layout and
``SolveService`` — picks the backend up through the ``workspace=``
keyword every kernel call carries, with no API change; a pool
kernel's row blocks inherit their owner's.

Bit-identity contract
---------------------
A backend's ``select`` must reproduce the NumPy tail bit for bit.  The
compiled scans guarantee this constructively (same IEEE ops, same
order; ``np.cumsum`` is a sequential accumulation, as is the scan's
running sum) and defer every row the scan cannot prove — least-
violation fallback rows, rows poisoned by non-finite data — to the
shared NumPy tail, so the weird cases run the reference code by
construction.  The adversarial suite in ``tests/test_kernel_backends.py``
asserts equality across solo, batch, sparse and service drivers.
"""

from __future__ import annotations

import os

__all__ = [
    "KernelBackend",
    "available_backends",
    "backend_versions",
    "get_backend",
    "register_backend",
]

#: Environment variable naming the default backend ("auto" allowed).
BACKEND_ENV = "REPRO_KERNEL_BACKEND"

#: Preference order for ``auto``: compiled first, reference last.
_AUTO_ORDER = ("cnative", "numpy")


class KernelBackend:
    """Interface of one sweep backend.

    Subclasses set ``name``/``compiled`` and implement :meth:`select`;
    the optional capabilities (:meth:`take_verify`, :meth:`resort_rows`,
    :meth:`select_sparse`) are probed with ``getattr`` by the
    workspaces, so a backend only implements what it accelerates.
    """

    name: str = "?"
    compiled: bool = False

    def select(self, bs, ss, rhs, a_arr, fixed, counts, *, ws=None):
        """Sorted-segment selection: ``(r, n)`` sorted arrays → ``(r,)``
        multipliers, bit-identical to the cold kernel's tail.  ``ws`` is
        the calling workspace, whose buffers a backend may use as
        scratch."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


_FACTORIES: dict[str, type] = {}
_INSTANCES: dict[str, KernelBackend] = {}
_UNAVAILABLE: dict[str, str] = {}


def register_backend(name: str, factory: type) -> None:
    """Register a backend factory under ``name`` (tests add fakes)."""
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)
    _UNAVAILABLE.pop(name, None)


def _instantiate(name: str) -> KernelBackend | None:
    """Build (and cache) the named backend, or record why it cannot be."""
    if name in _INSTANCES:
        return _INSTANCES[name]
    if name in _UNAVAILABLE:
        return None
    factory = _FACTORIES.get(name)
    if factory is None:
        raise ValueError(
            f"unknown kernel backend {name!r}; known: {sorted(_FACTORIES)}"
        )
    try:
        backend = factory()
    except Exception as exc:  # unavailable: no compiler, ...
        _UNAVAILABLE[name] = f"{type(exc).__name__}: {exc}"
        return None
    _INSTANCES[name] = backend
    return backend


def get_backend(name: str | None = None) -> KernelBackend:
    """Resolve a backend by name, env var, or the ``numpy`` default.

    An explicitly requested backend that is unknown or cannot be built
    raises (the caller asked for it by name and should hear why);
    ``auto`` and the env-var path degrade silently to the best
    available one, ending at ``numpy`` which always exists.
    """
    explicit = name is not None
    if name is None:
        name = os.environ.get(BACKEND_ENV, "").strip() or "numpy"
    if name == "auto":
        for candidate in _AUTO_ORDER:
            backend = _instantiate(candidate)
            if backend is not None:
                return backend
        raise RuntimeError("no kernel backend available")  # pragma: no cover
    backend = _instantiate(name) if explicit or name in _FACTORIES else None
    if backend is None:
        if explicit:
            raise RuntimeError(
                f"kernel backend {name!r} is unavailable: "
                f"{_UNAVAILABLE.get(name, 'unknown reason')}"
            )
        # The env var names a backend this build lacks or this machine
        # cannot build; a service must still come up, so fall back to
        # the reference.
        return _instantiate("numpy")  # type: ignore[return-value]
    return backend


def available_backends() -> dict[str, bool]:
    """``{name: available}`` for every registered backend (probes all)."""
    return {
        name: _instantiate(name) is not None for name in sorted(_FACTORIES)
    }


def backend_versions() -> dict[str, str | None]:
    """Toolchain versions behind each backend (for bench metadata)."""
    import numpy

    from repro.equilibration.backends.cnative import compiler_version

    return {"numpy": numpy.__version__, "cc": compiler_version()}


# -- built-in registrations --------------------------------------------------

from repro.equilibration.backends.numpy_backend import NumpyBackend  # noqa: E402
from repro.equilibration.backends.cnative import CNativeBackend  # noqa: E402

register_backend("numpy", NumpyBackend)
register_backend("cnative", CNativeBackend)
