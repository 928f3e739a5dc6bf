"""The zero cache's columns, for tests that check what was computed.

``zeros._cache`` holds one entry per sequence, (columns, anchor); tests
read the columns through ``cached_columns`` so that the entry's shape is
known in one place.
"""

import bessel_interlace.zeros as zmod


def cached_columns() -> dict:
    """Each cached sequence's columns (value, lo, hi, residual, iterations), by (kind, nu)."""
    with zmod._cache_lock:
        return {key: columns for key, (columns, _) in zmod._cache.items()}
