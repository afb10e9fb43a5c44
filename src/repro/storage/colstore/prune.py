"""Zone-map pruning: decide whole chunks from their zone maps.

A partition's zone maps hold each column's per-chunk ``[min, max]``
over its non-null rows, so a :class:`ZoneMapIndex` is a table with one
*ranged* row per chunk.  Both consumers hand it, conjunct by conjunct,
to the classifier's one interval walk (``repro.core.classify``, via
``IntervalEnv.ranged``).  Every row value lies inside its chunk's
range and the walk's verdicts are monotone under interval containment,
so a TRUE/FALSE chunk verdict holds for every non-null row of the
chunk.  Literals keep their dtype, so string zone maps prune too.

NaN rows lie outside every range, and one rule covers them: a chunk
with nulls is decided only when its verdict agrees with the conjunct's
verdict on a single all-NaN row, computed by the consumer's own
evaluator; an all-null chunk takes the NaN-row verdict; and a conjunct
over several columns leaves every null-bearing chunk undecided.

* :func:`pruned_filter_mask` (certain filters) evaluates the predicate
  only on chunks not proven FALSE and scatters ``False`` for the rest.
  Chunks proven TRUE are still evaluated row by row, so the mask is
  identical to a full ``evaluate_mask``.
* :func:`chunk_decisions` (the delta controller's uncertain-set
  classification) returns per-chunk tri-state verdicts; the controller
  fills decided chunks wholesale and classifies only the rest per row.

``repro.core`` imports this module, so its names are imported
function-locally here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...expr.expressions import conjuncts, evaluate_mask
from ..table import ArrayTable


@dataclass
class ColumnZones:
    """Per-chunk statistics for one column of one partition."""

    ctype: str                       # ColumnType value string
    lows: List[object]               # per-chunk min (None = all-null)
    highs: List[object]              # per-chunk max
    nulls: np.ndarray                # per-chunk NaN count
    distinct: np.ndarray             # per-chunk distinct estimate


@dataclass
class ZoneMapIndex:
    """Zone maps for every column of one partition (one mini-batch)."""

    chunk_rows: int
    num_rows: int
    columns: Dict[str, ColumnZones]
    #: Chunks skipped by certain-filter pruning against this partition
    #: (benchmarks read it; tracing counts the same events globally).
    pruned_total: int = field(default=0, compare=False)

    @property
    def num_chunks(self) -> int:
        if self.num_rows == 0:
            return 0
        return -(-self.num_rows // self.chunk_rows)

    def row_mask_for_chunks(self, keep: np.ndarray) -> np.ndarray:
        """Expand a per-chunk bool array to a per-row bool array."""
        return np.repeat(keep, self.chunk_rows)[: self.num_rows]


def _bounds(cz: ColumnZones, values: List[object],
            valid: np.ndarray) -> np.ndarray:
    """One chunk bound per valid chunk, in the walk's dtype."""
    dtype = object if cz.ctype == "string" else np.float64
    return np.array([v for v, ok in zip(values, valid) if ok], dtype=dtype)


def _exact_in_walk(cz: ColumnZones) -> bool:
    """The walk runs on float64, which holds int64 bounds exactly only
    up to 2**53; past that, ``x < c`` could round to ``x == c``."""
    return cz.ctype != "int64" or all(
        abs(v) <= 2 ** 53 for v in cz.lows + cz.highs
    )


def _zone_verdicts(parts: Sequence, zones: ZoneMapIndex, env,
                   nan_verdict: Callable) -> Optional[np.ndarray]:
    """Per-chunk Kleene AND of ``parts``' verdicts over the zone maps.

    ``env`` is the consumer's IntervalEnv; ``nan_verdict(conjunct, row,
    env)`` is its verdict on a one-row table.  A conjunct the zone maps
    cannot speak for counts as UNKNOWN; None when that is every one.
    """
    from ...core.classify import tri_eval_ranged
    from ...core.uncertain import TRI_UNKNOWN

    if not zones.num_chunks:
        return None
    out: Optional[np.ndarray] = None
    skipped = False
    for conjunct in parts:
        names = sorted(conjunct.references())
        cols = [zones.columns.get(name) for name in names]
        if not names or None in cols or not all(map(_exact_in_walk, cols)):
            skipped = True
            continue
        valid = np.ones(zones.num_chunks, dtype=bool)
        for cz in cols:
            valid &= np.array([lo is not None for lo in cz.lows])
        ranged = {
            name: (_bounds(cz, cz.lows, valid), _bounds(cz, cz.highs, valid))
            for name, cz in zip(names, cols)
        }
        verdict = np.full(zones.num_chunks, TRI_UNKNOWN, dtype=np.int8)
        verdict[valid] = tri_eval_ranged(
            conjunct, ArrayTable({}, int(valid.sum())),
            replace(env, ranged=ranged),
        )
        nulls = sum(cz.nulls for cz in cols) > 0
        if len(names) == 1 and nulls.any():
            nan_row = ArrayTable({names[0]: np.array([np.nan])}, 1)
            nan = nan_verdict(conjunct, nan_row, env)
            verdict[~valid] = nan
            verdict[nulls & (verdict != nan)] = TRI_UNKNOWN
        else:
            verdict[nulls] = TRI_UNKNOWN
        out = verdict if out is None else np.minimum(out, verdict)
    if out is not None and skipped:
        out = np.minimum(out, TRI_UNKNOWN)
    return out


def _point_verdict(conjunct, row, env):
    from ...core.uncertain import TRI_FALSE, TRI_TRUE

    return TRI_TRUE if evaluate_mask(conjunct, row, env.point)[0] \
        else TRI_FALSE


def _tri_verdict(conjunct, row, env):
    from ...core.classify import tri_eval_ranged

    return tri_eval_ranged(conjunct, row, env)[0]


def pruned_filter_mask(predicate, table, env,
                       zones: ZoneMapIndex) -> Tuple[np.ndarray, int]:
    """``(mask, chunks_pruned)`` — bit-identical to ``evaluate_mask``.

    Chunks whose zone maps prove the predicate false contribute
    ``False`` rows directly; the predicate is evaluated only on the
    other rows (every expression is row-local, so evaluating on the
    gathered sub-table matches evaluating in place).
    """
    from ...core.classify import IntervalEnv
    from ...core.uncertain import TRI_FALSE

    verdicts = None
    if zones.num_rows == table.num_rows:
        # Slot-bearing conjuncts (bound subqueries in batch plans) have
        # no slot states here; they are left to the row pass.
        parts = [c for c in conjuncts(predicate) if not c.subquery_slots()]
        verdicts = _zone_verdicts(parts, zones, IntervalEnv(point=env),
                                  _point_verdict)
    if verdicts is None or not (verdicts == TRI_FALSE).any():
        return np.asarray(evaluate_mask(predicate, table, env),
                          dtype=bool), 0
    keep = verdicts != TRI_FALSE
    pruned = int((~keep).sum())
    mask = np.zeros(table.num_rows, dtype=bool)
    rows_keep = zones.row_mask_for_chunks(keep)
    if rows_keep.any():
        sub = table.take(rows_keep)
        mask[rows_keep] = np.asarray(
            evaluate_mask(predicate, sub, env), dtype=bool
        )
    zones.pruned_total += pruned
    return mask, pruned


def chunk_decisions(predicate, zones: ZoneMapIndex,
                    env) -> Optional[np.ndarray]:
    """Per-chunk tri-state verdicts of an uncertain predicate.

    ``env`` is the controller's IntervalEnv (slot states and point
    bindings).  TRI_UNKNOWN marks an undecided chunk; None means no
    conjunct could consult the zone maps.
    """
    return _zone_verdicts(conjuncts(predicate), zones, env, _tri_verdict)
