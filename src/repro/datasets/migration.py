"""Tables 4 and 8 instance families: U.S. state-to-state migration tables.

The paper's tables (provided by Tobler, UCSB) cover three five-year
periods — 1955-60, 1965-70, 1975-80 — over the 48 conterminous states
(Alaska, Hawaii and DC removed).  We regenerate the structure with a
gravity model: flow from state ``i`` to ``j`` proportional to
``P_i * P_j / dist(i, j)`` with heavy-tailed populations and random
planar coordinates, zero diagonal (staying put is not a migration),
every off-diagonal pair active (all state pairs exchange migrants).

Table 4 variants (diagonal objective (5), all weights one, totals
*estimated*):

* ``a`` — each original row/column total grown by a distinct random
  factor in [0, 10%];
* ``b`` — growth factors in [0, 100%] (harder, as the paper observes);
* ``c`` — totals kept at the original sums, each entry perturbed by
  0-10% (easiest).

Table 8 variants (GMIG*): the general model (objective (1)) with a
fully dense ``G`` of dimension 2304x2304 and *fixed* totals:

* ``a`` — totals grown by [0, 10%];
* ``b`` — additionally each entry perturbed by [0, 10%].
"""

from __future__ import annotations

import numpy as np

from repro.core.problems import ElasticProblem, GeneralProblem
from repro.datasets.general import dense_spd_weights

__all__ = [
    "MIGRATION_INSTANCES",
    "migration_instance",
    "general_migration_names",
    "base_migration_table",
    "N_STATES",
]

N_STATES = 48

# (vintage seed, variant): the nine Table 4 instances.
MIGRATION_INSTANCES: tuple[str, ...] = (
    "MIG5560a", "MIG5560b", "MIG5560c",
    "MIG6570a", "MIG6570b", "MIG6570c",
    "MIG7580a", "MIG7580b", "MIG7580c",
)


def general_migration_names() -> tuple[str, ...]:
    """The six Table 8 instance names."""
    return (
        "GMIG5560a", "GMIG5560b",
        "GMIG6570a", "GMIG6570b",
        "GMIG7580a", "GMIG7580b",
    )


def _parse(name: str) -> tuple[int, str, bool]:
    general = name.startswith("G")
    core = name[4:] if general else name[3:]
    vintage, variant = int(core[:4]), core[4]
    return vintage, variant, general


def base_migration_table(vintage: int, n: int = N_STATES) -> np.ndarray:
    """Gravity-model migration table for one five-year period.

    Same state populations/coordinates across vintages (seeded
    globally), with a per-vintage overall mobility level — later periods
    see more migration, matching the harder MIG7580 runs in Table 4.
    """
    rng = np.random.default_rng(48)  # state geography is fixed
    populations = 10.0 ** rng.uniform(5.5, 7.5, n)  # 300k - 30M style spread
    coords = rng.uniform(0.0, 100.0, (n, 2))
    dist = np.hypot(
        coords[:, 0][:, None] - coords[:, 0][None, :],
        coords[:, 1][:, None] - coords[:, 1][None, :],
    )
    np.fill_diagonal(dist, 1.0)

    vint_rng = np.random.default_rng(vintage)
    noise = vint_rng.lognormal(0.0, 0.35, (n, n))
    flows = populations[:, None] * populations[None, :] / dist * noise
    np.fill_diagonal(flows, 0.0)
    # Normalize to a realistic five-year interstate migration volume
    # (single-digit millions of movers), growing by vintage — U.S.
    # mobility rose over these periods, and the later tables are the
    # harder Table 4 instances.
    total_migrants = {5560: 4.5e6, 6570: 5.0e6, 7580: 6.1e6}[vintage]
    return flows * (total_migrants / flows.sum())


def migration_instance(name: str) -> ElasticProblem | GeneralProblem:
    """Build a Table 4 (``MIG*``) or Table 8 (``GMIG*``) instance by name."""
    vintage, variant, general = _parse(name)
    flows = base_migration_table(vintage)
    mask = ~np.eye(N_STATES, dtype=bool)
    rng = np.random.default_rng(vintage * 100 + ord(variant))
    n = N_STATES

    if general:
        growth_s = 1.0 + rng.uniform(0.0, 0.10, n)
        growth_d = 1.0 + rng.uniform(0.0, 0.10, n)
        s0 = flows.sum(axis=1) * growth_s
        d0 = flows.sum(axis=0) * growth_d
        d0 *= s0.sum() / d0.sum()
        x0 = flows
        if variant == "b":
            x0 = np.where(mask, flows * rng.uniform(1.0, 1.10, flows.shape), 0.0)
        G = dense_spd_weights(n * n, seed=vintage * 7 + ord(variant))
        return GeneralProblem(
            kind="fixed", x0=x0, G=G, s0=s0, d0=d0, mask=mask, name=name
        )

    if variant in ("a", "b"):
        growth = 0.10 if variant == "a" else 1.00
        s0 = flows.sum(axis=1) * (1.0 + rng.uniform(0.0, growth, n))
        d0 = flows.sum(axis=0) * (1.0 + rng.uniform(0.0, growth, n))
        x0 = flows
    else:  # 'c'
        s0 = flows.sum(axis=1)
        d0 = flows.sum(axis=0)
        x0 = np.where(mask, flows * rng.uniform(1.0, 1.10, flows.shape), 0.0)

    # Table 4: "All of the weights were set equal to one."
    return ElasticProblem(
        x0=x0,
        gamma=np.ones_like(x0),
        s0=s0,
        d0=d0,
        alpha=np.ones(n),
        beta=np.ones(n),
        mask=mask,
        name=name,
    )
