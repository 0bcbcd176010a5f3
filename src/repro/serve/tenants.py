"""Multi-tenant cache namespaces for the serve daemon.

Every tenant gets its own subdirectory of the daemon's cache root, with
one proof store inside (``<root>/<tenant>/proofs.jsonl``): knowledge
never leaks between tenants, and a tenant can be wiped by removing one
directory.  Without a root there is no knowledge cache at all: workers
get no cache and check every job cold.

Ownership mirrors the portfolio's parent/worker split: the daemon (this
manager) holds the only *writable* cache per tenant; workers load
read-only snapshots from the same directories and ship verdict deltas
back on their result messages.  :meth:`TenantManager.merge_delta` folds
those in, and :meth:`flush` persists them — so a worker respawned after
a crash reloads everything its predecessors learned.
"""

from __future__ import annotations

import os
import re
from typing import Dict, Iterable, Optional, Tuple

from repro.cache.config import CacheConfig
from repro.cache.knowledge import SweepCache
from repro.cache.store import Verdict

__all__ = ["TenantManager", "TenantError", "DEFAULT_TENANT"]

DEFAULT_TENANT = "default"

#: Tenant names become directory names: a strict allow-list keeps path
#: traversal (and weird filesystem surprises) impossible by construction.
_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


class TenantError(ValueError):
    """An invalid tenant name (shape, not existence — tenants auto-create)."""


def validate_tenant(name: str) -> str:
    """Return the name when it is a legal tenant id, raise otherwise."""
    if not isinstance(name, str) or not _TENANT_RE.match(name):
        raise TenantError(
            f"invalid tenant name {name!r} (need [A-Za-z0-9._-], max 64 "
            "chars, not starting with a dot or dash)"
        )
    return name


class TenantManager:
    """The daemon-side registry of per-tenant knowledge caches.

    Parameters
    ----------
    root:
        Cache root directory; each tenant lives in ``<root>/<tenant>/``.
        ``None`` runs without a knowledge cache: :meth:`worker_config`
        gives workers none, so nothing is looked up, proved into a
        store or persisted.
    """

    def __init__(self, root: Optional[str]) -> None:
        self.root = root
        self._caches: Dict[str, SweepCache] = {}

    # ------------------------------------------------------------------

    def directory(self, tenant: str) -> Optional[str]:
        """Cache directory of a tenant (``None`` when persistence is off)."""
        validate_tenant(tenant)
        if self.root is None:
            return None
        return os.path.join(self.root, tenant)

    def cache(self, tenant: str) -> SweepCache:
        """The writable daemon-side cache of a tenant (auto-created)."""
        validate_tenant(tenant)
        cached = self._caches.get(tenant)
        if cached is not None:
            return cached
        cache = SweepCache(CacheConfig(directory=self.directory(tenant)))
        self._caches[tenant] = cache
        return cache

    def worker_config(self, tenant: str) -> Optional[str]:
        """The cache directory a worker loads its read-only snapshot from.

        Workers rebuild a read-only :class:`SweepCache` from it —
        shipping the path instead of the cache object keeps spawn-safe
        pickling trivial and lets workers (re)load lazily per tenant.
        ``None`` when the daemon runs without a cache root.
        """
        return self.directory(tenant)

    # ------------------------------------------------------------------

    def merge_delta(
        self, tenant: str, delta: Iterable[Tuple[str, Verdict]]
    ) -> int:
        """Fold a worker's verdict delta into the tenant's cache."""
        cache = self.cache(tenant)
        taken = 0
        for key, verdict in delta:
            if not isinstance(verdict, Verdict):
                continue
            if cache.store.put(key, verdict):
                cache.counters.stores += 1
                taken += 1
        return taken

    def flush(self) -> int:
        """Persist every tenant's pending verdicts; returns records written."""
        return sum(cache.flush() for cache in self._caches.values())

    def compact(self) -> None:
        for cache in self._caches.values():
            cache.compact()

    @property
    def tenants(self) -> Tuple[str, ...]:
        """Names of the tenants touched so far (sorted)."""
        return tuple(sorted(self._caches))

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-tenant store sizes and counter snapshots."""
        return {
            tenant: {
                "entries": len(cache.store),
                "pending": len(cache.store.pending),
                "stores": cache.counters.stores,
            }
            for tenant, cache in sorted(self._caches.items())
        }
