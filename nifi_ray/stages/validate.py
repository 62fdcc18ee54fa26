"""Typed per-cell validation with valid/invalid routing — ValidateCsv
semantics (reference nifi-standard-processors/.../standard/ValidateCsv.java:
supercsv cell processors, routes 'valid'/'invalid').

Here the record is already typed Arrow; validation is a list of named,
vectorized rules producing a boolean mask + reason string per row. Rows
route by a ``valid`` column (filter twice for the two relationships —
RouteOnAttribute-style, stages/route.py).
"""

from __future__ import annotations

from typing import Callable, Mapping

import pyarrow as pa
import pyarrow.compute as pc

Rule = Callable[[pa.Table], pa.Array]  # batch → bool array (True = ok)


def not_null(col: str) -> Rule:
    return lambda t: pc.is_valid(t[col])


def in_range(col: str, lo=None, hi=None) -> Rule:
    def rule(t: pa.Table) -> pa.Array:
        ok = pc.is_valid(t[col])
        if lo is not None:
            ok = pc.and_(ok, pc.greater_equal(t[col], lo))
        if hi is not None:
            ok = pc.and_(ok, pc.less_equal(t[col], hi))
        return ok

    return rule


def matches_regex(col: str, pattern: str) -> Rule:
    return lambda t: pc.coalesce(
        pc.match_substring_regex(t[col], pattern=f"^(?:{pattern})$"), pa.scalar(False)
    )


def consistent(col_a: str, col_b: str, fn: Callable) -> Rule:
    """Cross-column invariant, e.g. n_tok == len(tokens)."""
    return lambda t: fn(t[col_a], t[col_b])


def validate(rules: Mapping[str, Rule], out: str = "valid", reason: str = "invalid_reason"):
    """map_batches body: AND of all rules → ``valid`` bool column plus a
    comma-joined list of failed rule names per row."""

    def fn(batch: pa.Table) -> pa.Table:
        import numpy as np

        n = batch.num_rows
        ok = np.ones(n, dtype=bool)
        reasons = [[] for _ in range(n)]
        for name, rule in rules.items():
            mask = pc.coalesce(rule(batch), pa.scalar(False)).to_numpy(
                zero_copy_only=False
            )
            failed = ~mask
            if failed.any():
                for i in np.flatnonzero(failed):
                    reasons[i].append(name)
            ok &= mask
        batch = batch.append_column(out, pa.array(ok))
        return batch.append_column(
            reason,
            pa.array([",".join(r) if r else None for r in reasons], pa.string()),
        )

    return fn
