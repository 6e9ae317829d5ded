"""Literal record sets read back from a ``RecordPool``, for tests that compare
the compressed knowledge representation with the record-set estimator and
the straight-line reference implementation."""

from relsim.estimator import ResultRecord


def records_for(pool, known, target: int) -> set[ResultRecord]:
    """The records about ``target`` that the knowledge vector ``known`` holds."""
    src, rnd, tgt, res = (a[:len(pool)] for a in
                          (pool._src, pool._rnd, pool._tgt, pool._res))
    sel = (tgt == target) & (known[src] >= rnd)
    return {
        ResultRecord(int(v), int(s), int(r))
        for v, s, r in zip(res[sel], src[sel], rnd[sel])
    }


def all_records_for(pool, known) -> list[set[ResultRecord]]:
    """Literal per-target record sets for a whole knowledge vector."""
    return [records_for(pool, known, j) for j in range(pool.n)]
