"""The one cache of the per-spin and per-shape tables: a least-recently-used
map shared by every table, bounded by the bytes of the arrays it holds, which
it makes read-only so that callers may share them.  Loads no numpy."""

import dataclasses
import functools
import threading
from collections import OrderedDict

#: Bytes of arrays the cache may hold: every benchmark workload together keeps
#: 0.64 MB in 144 tables, and two of the 86 MB bases at 2s = 15 fit.
CACHE_BYTES = 1 << 28

_entries: OrderedDict = OrderedDict()  # (fn, args) -> (table, its bytes), oldest first
_held = 0
_lock = threading.Lock()


def _arrays(table) -> list:
    """The arrays of a table, among its tuples' items and dataclasses' fields."""
    if hasattr(table, "setflags"):
        return [table]
    if isinstance(table, tuple):
        return [a for item in table for a in _arrays(item)]
    if dataclasses.is_dataclass(table):
        return [a for f in dataclasses.fields(table) for a in _arrays(getattr(table, f.name))]
    return []


def cached(fn):
    """fn with its results kept in the one cache, their arrays read-only."""

    @functools.wraps(fn)
    def table(*args):
        global _held
        key = (fn, args)
        with _lock:
            hit = _entries.get(key)  # each lookup hashes the key, a SpinLabel in Python
            if hit is not None:
                _entries.move_to_end(key)
                return hit[0]
        value = fn(*args)  # unlocked: a table may ask for others while it is built
        arrays = _arrays(value)
        for a in arrays:
            a.setflags(write=False)
        with _lock:
            if key not in _entries:  # else another thread built it meanwhile
                _entries[key] = value, sum(a.nbytes for a in arrays)
                _held += _entries[key][1]
            _entries.move_to_end(key)
            while _held > CACHE_BYTES and len(_entries) > 1:  # the newest always stays
                _held -= _entries.popitem(last=False)[1][1]
            return _entries[key][0]

    return table
