"""Shared helper of the memory tests."""

import tracemalloc


def traced_peak(fn) -> int:
    """The largest number of bytes tracemalloc saw allocated while fn ran."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
