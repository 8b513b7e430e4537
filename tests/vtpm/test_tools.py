"""The multi-tenant sweep CLI: determinism, sharding, and rendering."""

import json

import pytest

from repro.tools.vtpm import (
    main,
    merge_vtpm_reports,
    render,
    run_vtpm_cell,
    run_vtpm_sweep,
)

pytestmark = pytest.mark.vtpm

CONFIG = dict(machines=4, tenants=2, sessions=2, seed=2008, migrate=True)


def canonical(report):
    return json.dumps(report, sort_keys=True, separators=(", ", ": "))


class TestSweep:
    def test_every_session_verifies(self):
        report = run_vtpm_cell(dict(CONFIG))
        assert report["tenants"] == 8
        assert report["sessions"] == 16
        assert report["verified"] == 16
        assert report["migrations"] == 2

    def test_rerun_is_byte_identical(self):
        assert canonical(run_vtpm_cell(dict(CONFIG))) == canonical(
            run_vtpm_cell(dict(CONFIG)))

    def test_no_migrate_flag(self):
        report = run_vtpm_cell({**CONFIG, "migrate": False})
        assert report["migrations"] == 0
        assert report["verified"] == report["sessions"]

    def test_migrated_tenants_are_flagged(self):
        report = run_vtpm_cell(dict(CONFIG))
        migrated = [r for r in report["per_tenant"] if r["migrated"]]
        assert len(migrated) == 2
        for row in migrated:
            assert row["machine"] != row["home"]
            assert row["verified"] == row["sessions"]

    def test_tenant_counters_count_sessions(self):
        report = run_vtpm_cell(dict(CONFIG))
        assert all(r["counter"] == r["sessions"]
                   for r in report["per_tenant"])


class TestSharding:
    def test_sharded_run_matches_flat_run_per_tenant(self):
        flat = run_vtpm_cell(dict(CONFIG))
        sharded = run_vtpm_sweep(dict(CONFIG), shard_size=2)
        assert sharded["shards"] == 2
        assert sharded["per_tenant"] == flat["per_tenant"]
        assert sharded["verified"] == flat["verified"]
        assert sharded["migrations"] == flat["migrations"]

    def test_workers_do_not_change_the_bytes(self):
        serial = run_vtpm_sweep(dict(CONFIG), workers=1, shard_size=2)
        parallel = run_vtpm_sweep(dict(CONFIG), workers=2, shard_size=2)
        assert canonical(serial) == canonical(parallel)

    def test_odd_shard_size_keeps_migration_pairs_together(self):
        # shard_size=1 would split every migration pair; the sweep rounds
        # it up to 2, so all migrations still complete.
        report = run_vtpm_sweep(dict(CONFIG), shard_size=1)
        assert report["shards"] == 2
        assert report["migrations"] == 2
        assert report["verified"] == report["sessions"]

    def test_merge_is_identity_for_one_group(self):
        """A fleet that fits in one shard passes through unmerged."""
        report = run_vtpm_sweep(dict(CONFIG), shard_size=4)
        assert "shards" not in report
        assert canonical(report) == canonical(run_vtpm_cell(dict(CONFIG)))

    def test_merge_sums_counts_and_keeps_tenant_order(self):
        groups = [run_vtpm_cell({**CONFIG, "machines": 2, "index_base": base})
                  for base in (0, 2)]
        merged = merge_vtpm_reports(groups)
        assert merged["machines"] == 4
        assert merged["verified"] == 16
        assert merged["shards"] == 2
        assert merged["per_tenant"] == (groups[0]["per_tenant"]
                                        + groups[1]["per_tenant"])


class TestRendering:
    def test_render_lists_every_tenant(self):
        report = run_vtpm_cell(dict(CONFIG))
        text = render(report)
        assert "# vTPM multi-tenant sweep" in text
        for row in report["per_tenant"]:
            assert row["tenant"] in text

    def test_shard_count_rendered_when_sharded(self):
        report = run_vtpm_sweep(dict(CONFIG), shard_size=2)
        assert "shard groups:       2" in render(report)


class TestCLI:
    def test_main_prints_report_and_writes_json(self, tmp_path, capsys):
        out = tmp_path / "vtpm.json"
        main(["--machines", "2", "--tenants", "1", "--sessions", "1",
              "--json", str(out)])
        captured = capsys.readouterr().out
        assert "# vTPM multi-tenant sweep" in captured
        report = json.loads(out.read_text())
        assert report["verified"] == report["sessions"] == 2

    def test_sharded_cli_output_is_stable(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["--machines", "4", "--shard-size", "2"]
        main(base + ["--workers", "1", "--json", str(a)])
        main(base + ["--workers", "2", "--json", str(b)])
        assert a.read_bytes() == b.read_bytes()
