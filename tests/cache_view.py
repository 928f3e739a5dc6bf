"""The zero cache's columns and size, for tests that check what was computed
and what it holds.

``zeros._cache`` holds one entry per sequence, (columns, anchor); tests
read the columns through ``cached_columns`` so that the entry's shape is
known in one place.
"""

import sys

import bessel_interlace.zeros as zmod


def cached_columns() -> dict:
    """Each cached sequence's columns (value, lo, hi, residual, iterations), by (kind, nu)."""
    with zmod._cache_lock:
        return {key: columns for key, (columns, _) in zmod._cache.items()}


def cache_bytes() -> int:
    """The bytes the cache holds, by sys.getsizeof: the dict, and each
    object its keys and entries reach through tuples, counted once. The
    ZeroKind members and None are shared, so not counted. Unlike a
    tracemalloc reading, this does not depend on which objects the
    interpreter's free lists hand out."""
    sizes = {}

    def walk(obj):
        if obj is not None and not isinstance(obj, zmod.ZeroKind) and id(obj) not in sizes:
            sizes[id(obj)] = sys.getsizeof(obj)
            if isinstance(obj, tuple):
                for item in obj:
                    walk(item)

    with zmod._cache_lock:
        for key, entry in zmod._cache.items():
            walk(key)
            walk(entry)
        return sys.getsizeof(zmod._cache) + sum(sizes.values())
