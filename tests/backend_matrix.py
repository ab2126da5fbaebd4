"""The executor-backend matrix shared by every battery that runs sharded engines.

Kept in a uniquely-named module (not ``conftest``) so test modules and
fixtures in any subdirectory import the same definition.  Two environment
knobs keep CI runtime bounded (see ``.github/workflows/ci.yml``):

* ``REPRO_TEST_BACKENDS`` — comma-separated subset of ``serial,process`` to
  exercise (default: both);
* ``REPRO_TEST_SHARDS`` — shard count used by the parametrized tests
  (default: 3, at least 2).
"""

from __future__ import annotations

import os


def enabled_backends() -> tuple[str, ...]:
    """The executor backends selected via ``REPRO_TEST_BACKENDS``."""
    raw = os.environ.get("REPRO_TEST_BACKENDS", "serial,process")
    names = tuple(name.strip() for name in raw.split(",") if name.strip())
    return names or ("serial",)


def num_test_shards() -> int:
    """The shard count selected via ``REPRO_TEST_SHARDS`` (default 3)."""
    return max(2, int(os.environ.get("REPRO_TEST_SHARDS", "3")))
