"""Warm-start cache: dual multipliers of previously-solved problems.

SEA's column multipliers ``mu`` are a complete summary of a solve — the
next solve of a *related* problem started from them needs only to close
the gap between the two duals.  :mod:`repro.multiperiod` exploits this
ad hoc for consecutive periods; the cache generalizes it to arbitrary
streams: solved problems are filed under their fingerprint's
compatibility ``bucket`` (kind + shape + structure digest — see
:func:`repro.core.api.fingerprint`), and a lookup returns the
multipliers of the *nearest* bucket-mate by Euclidean distance between
totals vectors.

Bounded LRU: storing beyond ``maxsize`` evicts the least recently
touched entry, so a long-running service's memory stays flat.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.core.api import Fingerprint

__all__ = ["WarmStartCache"]


@dataclass
class _Entry:
    bucket: tuple
    totals: np.ndarray
    mu: np.ndarray


class WarmStartCache:
    """LRU map from problem fingerprints to dual multipliers."""

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._entries: OrderedDict[tuple, _Entry] = OrderedDict()
        self._buckets: dict[tuple, set[tuple]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(
        self, fp: Fingerprint, totals: np.ndarray
    ) -> tuple[np.ndarray, bool] | None:
        """Best warm start for a problem, or ``None``.

        Returns ``(mu, exact)`` where ``exact`` is ``True`` when the
        byte-identical problem was solved before, ``False`` when the
        multipliers come from the nearest bucket-mate.
        """
        entry = self._entries.get(fp.key)
        if entry is not None:
            self._entries.move_to_end(fp.key)
            return entry.mu.copy(), True
        keys = self._buckets.get(fp.bucket)
        if not keys:
            return None
        totals = np.asarray(totals, dtype=np.float64)
        best_key = min(
            keys,
            key=lambda k: float(
                np.linalg.norm(self._entries[k].totals - totals)
            ),
        )
        self._entries.move_to_end(best_key)
        return self._entries[best_key].mu.copy(), False

    def store(
        self, fp: Fingerprint, totals: np.ndarray, mu: np.ndarray
    ) -> None:
        """File a solved problem's multipliers under its fingerprint."""
        key = fp.key
        if key in self._entries:
            entry = self._entries[key]
            entry.mu = np.asarray(mu, dtype=np.float64).copy()
            # Refresh totals too: they are the nearest-neighbor
            # coordinates, and a stale vector would skew every distance
            # computed against this entry.
            entry.totals = np.asarray(totals, dtype=np.float64).copy()
            self._entries.move_to_end(key)
            return
        while len(self._entries) >= self.maxsize:
            old_key, old = self._entries.popitem(last=False)
            bucket_keys = self._buckets.get(old.bucket)
            if bucket_keys is not None:
                bucket_keys.discard(old_key)
                if not bucket_keys:
                    del self._buckets[old.bucket]
        self._entries[key] = _Entry(
            bucket=fp.bucket,
            totals=np.asarray(totals, dtype=np.float64).copy(),
            mu=np.asarray(mu, dtype=np.float64).copy(),
        )
        self._buckets.setdefault(fp.bucket, set()).add(key)

    def clear(self) -> None:
        self._entries.clear()
        self._buckets.clear()

    # -- snapshot / restore --------------------------------------------------

    def state(self) -> list[dict]:
        """Picklable dump of every entry, least recently used first.

        The order *is* the LRU order, so a restored cache evicts in the
        same sequence the original would have.  Arrays are copied — the
        state owns its memory and survives later cache mutation.
        """
        return [
            {
                "key": key,
                "bucket": entry.bucket,
                "totals": entry.totals.copy(),
                "mu": entry.mu.copy(),
            }
            for key, entry in self._entries.items()
        ]

    def restore(self, state: list[dict]) -> None:
        """Load a :meth:`state` dump in place of the current contents.

        Beyond-``maxsize`` states load the *most recently used* tail —
        exactly what an LRU holding them live would have kept.  A
        malformed dump raises before the cache changes.  Any other key
        of an entry is ignored, such as the ``"perms"`` (sort
        permutations) of dumps written before the cache kept duals
        alone.
        """
        entries = [
            (item["key"], _Entry(
                bucket=item["bucket"],
                totals=np.asarray(item["totals"], dtype=np.float64),
                mu=np.asarray(item["mu"], dtype=np.float64),
            ))
            for item in state[-self.maxsize:]
        ]
        self.clear()
        for key, entry in entries:
            self._entries[key] = entry
            self._buckets.setdefault(entry.bucket, set()).add(key)
