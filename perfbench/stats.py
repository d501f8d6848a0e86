"""Small statistics and naming helpers shared by run.py and its tests."""

import math
import re

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it. None for an empty sample."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return None
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def check_name(name):
    """A metric or workload name: starts with a letter or digit, at most 64
    characters from [A-Za-z0-9_.-]."""
    if not NAME_RE.fullmatch(name):
        raise ValueError(f"bad metric name: {name!r}")
    return name


def reindex(line, index):
    """A result line with its leading "index" field replaced. Result lines
    start with {"index":N, and differ between client-local positions only
    there (src/batch/stream.cpp format_result_record)."""
    return '{"index":%d%s' % (index, line[line.index(","):])
