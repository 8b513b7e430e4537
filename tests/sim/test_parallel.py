"""The seeded-map executor: order, worker resolution, parallel identity."""

import pytest

from repro.sim.parallel import (
    map_seeded,
    merge_totals,
    rate,
    resolve_workers,
    run_sharded,
)


def square(x):
    """Module-level so a worker process can unpickle it."""
    return x * x


def seeded_digest(seed):
    """A deterministic 'simulation': hash of a seeded byte pattern."""
    from repro.crypto.sha1 import sha1

    return sha1(bytes((seed * i) & 0xFF for i in range(64))).hex()


def machine_cell(config):
    """A trivial sweep cell: one row per machine of its group."""
    base = config.get("index_base", 0)
    rows = [f"{config['tag']}-{base + i}" for i in range(config["machines"])]
    return {"machines": config["machines"], "rows": rows,
            "work": config.get("work", config["machines"])}


def merge_cells(groups):
    return merge_totals(groups, sums=("machines", "work"), concat=("rows",))


def drop_odd_groups(config, base, count):
    """Keep only groups that start on a multiple of 4."""
    if base % 4:
        return None
    return {**config, "machines": count, "index_base": base}


class TestResolveWorkers:
    def test_none_and_zero_mean_one_per_cpu(self):
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) == resolve_workers(None)

    def test_positive_passthrough(self):
        assert resolve_workers(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-1)


class TestMapSeeded:
    def test_inline_mode_preserves_order(self):
        assert map_seeded(square, [3, 1, 2]) == [9, 1, 4]

    def test_empty_items(self):
        assert map_seeded(square, []) == []
        assert map_seeded(square, [], workers=4) == []

    def test_single_item_runs_inline_even_with_workers(self):
        assert map_seeded(square, [7], workers=8) == [49]

    def test_parallel_results_identical_to_serial(self):
        seeds = list(range(8))
        serial = map_seeded(seeded_digest, seeds, workers=1)
        parallel = map_seeded(seeded_digest, seeds, workers=2)
        assert parallel == serial

    def test_parallel_preserves_input_order(self):
        items = [5, 3, 8, 1, 9, 2]
        assert map_seeded(square, items, workers=2) == [square(i) for i in items]


class TestShardGroups:
    def test_even_split(self):
        from repro.sim.parallel import shard_groups
        assert shard_groups(8, 4) == [(0, 4), (4, 4)]

    def test_ragged_tail(self):
        from repro.sim.parallel import shard_groups
        assert shard_groups(10, 4) == [(0, 4), (4, 4), (8, 2)]

    def test_single_group_when_shard_covers(self):
        from repro.sim.parallel import shard_groups
        assert shard_groups(3, 100) == [(0, 3)]

    def test_groups_cover_exactly_once(self):
        from repro.sim.parallel import shard_groups
        groups = shard_groups(10_000, 256)
        covered = [i for base, count in groups
                   for i in range(base, base + count)]
        assert covered == list(range(10_000))

    def test_invalid_arguments_rejected(self):
        from repro.sim.parallel import shard_groups
        with pytest.raises(ValueError):
            shard_groups(-1, 4)
        with pytest.raises(ValueError):
            shard_groups(10, 0)


class TestRunSharded:
    CONFIGS = [dict(machines=10, tag="a"), dict(machines=3, tag="b")]

    def test_groups_merge_in_machine_order(self):
        big, small = run_sharded(machine_cell, self.CONFIGS, merge_cells,
                                 shard_size=4)
        assert big["rows"] == [f"a-{i}" for i in range(10)]
        assert big["machines"] == 10
        assert big["shards"] == 3
        assert small["rows"] == ["b-0", "b-1", "b-2"]

    def test_worker_count_does_not_change_bytes(self):
        serial = run_sharded(machine_cell, self.CONFIGS, merge_cells,
                             shard_size=2, workers=1)
        parallel = run_sharded(machine_cell, self.CONFIGS, merge_cells,
                               shard_size=2, workers=2)
        assert repr(serial) == repr(parallel)

    def test_split_drops_empty_groups(self):
        [report] = run_sharded(machine_cell, [dict(machines=10, tag="c")],
                               merge_cells, split=drop_odd_groups,
                               shard_size=2)
        # Groups at 0, 4 and 8 run; the other two groups' 4 machines idle.
        assert report["rows"] == ["c-0", "c-1", "c-4", "c-5", "c-8", "c-9"]
        assert report["shards"] == 3
        assert report["machines_idle"] == 4

    def test_single_group_passes_through_unmerged(self):
        config = dict(machines=3, tag="d")
        assert run_sharded(machine_cell, [config], merge_cells) == [
            machine_cell(config)]
        [covered] = run_sharded(machine_cell, [config], merge_cells,
                                shard_size=3)
        assert "shards" not in covered

    def test_split_dropping_every_group_is_an_error(self):
        with pytest.raises(ValueError):
            run_sharded(machine_cell, [dict(machines=8, tag="e")],
                        merge_cells, split=lambda config, base, count: None,
                        shard_size=2)


class TestMergeTotals:
    def test_sums_maxes_and_first(self):
        groups = [{"k": "x", "n": 2, "ms": 0.1, "top": 5},
                  {"k": "y", "n": 3, "ms": 0.2, "top": 9}]
        merged = merge_totals(groups, sums=("n", "ms"), maxes=("top",),
                              first=("k",))
        assert merged == {"k": "x", "n": 5, "ms": 0.3, "top": 9, "shards": 2}

    def test_rate_is_recomputed_not_averaged(self):
        assert rate(6, 2000.0, per=1000.0) == 3.0
        assert rate(1, 3) == 0.333333
        assert rate(5, 0) == 0.0
