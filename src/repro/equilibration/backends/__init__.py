"""Pluggable kernel backends for the piecewise-linear sweep.

One SEA phase is ``m`` independent single-market equilibrations: each
row's breakpoints are put in their stable sorted order (the cached one
when it still holds) and scanned with prefix sums for the multiplier.
The result is fixed bit for bit by the IEEE-754 operations involved, so
the phase can run compiled without touching the algorithm — this
package is that seam.

Backends
--------
``numpy``
    The reference implementation.  The workspace gathers, checks and
    re-sorts with array calls and hands the sorted rows to
    :meth:`KernelBackend.select`, literally the array code of the cold
    kernel's tail; every other backend is bit-identity gated against
    it, and it is what the default falls back to.
``cnative``
    A small C kernel compiled on demand with the system C compiler
    (``cc``/``gcc``/``clang``) and loaded through :mod:`ctypes`.  Its
    ``sweep_rows`` runs a dense phase in one call: per row it gathers
    through the cached order while checking it, re-sorts a stale row
    (a natural-run merge when the row has few descents, a radix
    argsort in column order when it has many; both yield the unique
    stable order) and scans it.  Compiled with ``-ffp-contract=off`` so
    no fused-multiply-add can change rounding: the scan performs the
    very same IEEE-754 double operations in the very same order as the
    NumPy pipeline, hence bit-identical results.  The default wherever
    it builds; unavailable when no C compiler is on ``PATH``.

Selection
---------
:func:`get_backend` resolves, in order: an explicit ``name`` argument,
the ``REPRO_KERNEL_BACKEND`` environment variable, then the ``auto``
default.  ``auto`` picks the fastest available backend (``cnative`` >
``numpy``): the compiled kernel wherever a C compiler exists, the
reference otherwise, so the default never raises.
``REPRO_KERNEL_BACKEND=numpy`` forces the reference.  An
environment-variable name that is unknown or cannot be built falls back
to ``numpy``, so a service always comes up; an explicit ``name`` that
is unknown or unbuildable raises.  A failed build is recorded once and
not retried in the process; the explicit ``name`` error quotes it.
Resolution happens when a
:class:`~repro.equilibration.workspace.SweepWorkspace` is constructed,
so every layer that builds workspaces — the one diagonal driver
(solo solves and ``solve_batch`` alike), ``sea_general``, the sparse
layout and ``SolveService`` — picks the backend up through the
``workspace=`` keyword every kernel call carries, with no API change;
a pool kernel's row blocks inherit their owner's.

Bit-identity contract
---------------------
A backend must reproduce the reference bit for bit: the same sorted
order, the same multipliers, the same stale-row count.  The compiled
scans guarantee this constructively (same IEEE ops, same
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

#: Environment variable overriding the ``auto`` default (``numpy``
#: forces the reference).
BACKEND_ENV = "REPRO_KERNEL_BACKEND"

#: Preference order for ``auto``: compiled first, reference last.
_AUTO_ORDER = ("cnative", "numpy")


class KernelBackend:
    """Interface of one sweep backend.

    Subclasses set ``name``/``compiled``.  The reference implements
    :meth:`select`, the tail of the workspace's array path.  A compiled
    backend instead implements ``sweep_rows``, the whole dense phase in
    one call (:meth:`~repro.equilibration.backends.cnative.CNativeBackend.
    sweep_rows`), and ``select_sparse``, the segmented tail of the
    sparse layout; each workspace looks its entry point up once.
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
    """Resolve a backend by name, env var, or the ``auto`` default.

    An explicitly requested backend that is unknown or cannot be built
    raises (the caller asked for it by name and should hear why);
    ``auto`` (the default: ``cnative`` where a C compiler exists) and
    the env-var path degrade silently to the best available one, ending
    at ``numpy`` which always exists.
    """
    explicit = name is not None
    if name is None:
        name = os.environ.get(BACKEND_ENV, "").strip() or "auto"
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
