"""Re-export of :mod:`repro.queueing.cache` under its former path.

The Erlang cache lives with the solvers it memoizes, so that ``core``
depends only downward.  The repository benchmark (``perfbench/``) still
imports this path; the names below are the *same* objects, not copies:
wrapping ``ErlangCache`` methods here wraps them there, and
``shared_cache()`` returns the one per-process instance.  Delete this
module once nothing imports the path.
"""

from ..queueing.cache import (
    ErlangCache,
    cached_erlang_b,
    cached_min_servers,
    cached_min_servers_continuous,
    cached_min_servers_grid,
    configure_shared_cache,
    record_cache_metrics,
    shared_cache,
)

__all__ = [
    "ErlangCache",
    "shared_cache",
    "configure_shared_cache",
    "cached_min_servers",
    "cached_min_servers_continuous",
    "cached_min_servers_grid",
    "cached_erlang_b",
    "record_cache_metrics",
]
