"""Sharding seeded simulation runs across worker processes.

Simulation runs in this repository are pure functions of their seeds and
parameters, which makes them embarrassingly parallel: a fault-campaign
cell, a fleet sweep point, or a benchmark trial can execute in any
process and produce the identical record.  :func:`map_seeded` is the one
executor they share — it preserves input order, so callers that merge
results deterministically get **byte-identical output regardless of
worker count**, and that property is what the parallel-vs-serial tests
pin.  :func:`run_sharded` is the one sweep harness built on it: it splits
big fleets into machine groups, runs every group cell through one
:func:`map_seeded` call and merges the groups back from their totals.

``workers <= 1`` (the default) runs inline in the calling process with
no multiprocessing import cost; anything the executor is asked to run
must be a module-level callable with picklable items.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def shard_groups(num_items: int, shard_size: int) -> List[Tuple[int, int]]:
    """Partition ``num_items`` into contiguous groups of ``shard_size``.

    Returns ``(index_base, count)`` pairs covering ``0..num_items-1`` in
    order; the last group absorbs the remainder.  This is the partition a
    sharded fleet run uses: each group becomes its own
    :class:`~repro.core.fleet.FlickerFleet` with ``index_base`` set, so
    machine ids and derived seeds stay globally numbered.  The partition
    depends only on ``shard_size`` — never on the worker count — so the
    merged results are byte-identical no matter how the groups are
    scheduled across processes.

    >>> shard_groups(10, 4)
    [(0, 4), (4, 4), (8, 2)]
    """
    if num_items < 1:
        raise ValueError("num_items must be >= 1")
    if shard_size < 1:
        raise ValueError("shard_size must be >= 1")
    return [(base, min(shard_size, num_items - base))
            for base in range(0, num_items, shard_size)]


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a worker request: ``None``/``0`` means one per CPU."""
    if workers is None or workers == 0:
        import os

        return os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


def map_seeded(
    fn: Callable[[T], R],
    items: Sequence[T],
    workers: int = 1,
) -> List[R]:
    """``[fn(item) for item in items]``, optionally across processes.

    Results always come back in ``items`` order.  With ``workers > 1``
    the calls are sharded over a ``multiprocessing.Pool``; ``fn`` must be
    defined at module level (picklable) and each item must pickle.  The
    chunk size is pinned to 1 so scheduling differences between hosts
    cannot reorder side effects inside a worker — determinism comes from
    the ordered merge, not from scheduling luck.
    """
    workers = resolve_workers(workers)
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    import multiprocessing

    with multiprocessing.Pool(processes=min(workers, len(items))) as pool:
        return pool.map(fn, items, chunksize=1)


def split_machines(config: dict, base: int, count: int) -> dict:
    """The default group split: machines ``base..base+count-1`` of the
    config's fleet, globally numbered through ``index_base``."""
    return {**config, "machines": count, "index_base": base}


def run_sharded(
    cell: Callable[[dict], dict],
    configs: Sequence[dict],
    merge: Callable[[List[dict]], dict],
    split: Callable[[dict, int, int], Optional[dict]] = split_machines,
    shard_size: Optional[int] = None,
    workers: int = 1,
) -> List[dict]:
    """Run a sweep of fleet configs, sharding big fleets into groups.

    A config (a keyword dict with a ``machines`` count) larger than
    ``shard_size`` is partitioned by :func:`shard_groups`, and
    ``split(config, base, count)`` makes each group a cell config, or
    ``None`` to drop a group with no work (its machines are reported as
    ``machines_idle``).  All cells run through one :func:`map_seeded`
    call (``cell`` must be module-level); each config's group results
    are combined by ``merge`` in ``index_base`` order, and a config with
    a single cell passes through unmerged.  Returns one result per
    config, byte-identical at any worker count.
    """
    cells: List[dict] = []
    spans: List[Tuple[int, int]] = []  # (cells, idle machines) per config
    for config in configs:
        config = dict(config)
        if shard_size is None or config["machines"] <= shard_size:
            cells.append(config)
            spans.append((1, 0))
            continue
        kept = idle = 0
        for base, count in shard_groups(config["machines"], shard_size):
            group = split(config, base, count)
            if group is None:
                idle += count
                continue
            cells.append(group)
            kept += 1
        if not kept:
            raise ValueError("the split dropped every group of a config")
        spans.append((kept, idle))
    results = map_seeded(cell, cells, workers=workers)
    merged: List[dict] = []
    cursor = 0
    for kept, idle in spans:
        groups = results[cursor:cursor + kept]
        cursor += kept
        result = groups[0] if kept == 1 else merge(groups)
        if idle:
            result = {**result, "machines_idle": idle}
        merged.append(result)
    return merged


def merge_totals(groups: Sequence[dict], sums: Sequence[str] = (),
                 maxes: Sequence[str] = (), concat: Sequence[str] = (),
                 first: Sequence[str] = ()) -> dict:
    """The common part of merging group results from totals.

    ``sums`` add up (rounded to 6 places, which leaves integers as they
    are), ``maxes`` take the largest group's value, ``concat`` lists join
    in group order, ``first`` keys are copied from the first group, and
    ``shards`` counts the groups.  Rates are not averaged: callers
    recompute them from the merged totals with :func:`rate`.
    """
    merged = {key: groups[0][key] for key in first}
    for key in sums:
        merged[key] = round(sum(g[key] for g in groups), 6)
    for key in maxes:
        merged[key] = max(g[key] for g in groups)
    for key in concat:
        merged[key] = [item for g in groups for item in g[key]]
    merged["shards"] = len(groups)
    return merged


def rate(amount: float, over: float, per: float = 1.0) -> float:
    """``amount`` per ``per`` units of ``over``, rounded to 6 places
    (0 when ``over`` is not positive)."""
    return round(amount / (over / per), 6) if over > 0 else 0.0
