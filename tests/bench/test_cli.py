"""The runner CLI: writing results, the bench gate, exit codes."""

import json

import pytest

from repro.bench import register, result_filename, result_json
from repro.bench.registry import unregister
from repro.tools.bench import main


@pytest.fixture
def fake_bench():
    """A deterministic scratch benchmark the CLI can run in microseconds."""
    def fn(n=4):
        return {"virtual": {"sum": sum(range(n)), "n": n}}

    register("cli_scratch", fn, params={"n": 100}, quick_params={"n": 4},
             description="CLI test fixture")
    yield "cli_scratch"
    unregister("cli_scratch")


def run_cli(*argv):
    """Invoke main() without importing the real benchmarks package."""
    return main(list(argv), run_discovery=False)


class TestRunAndWrite:
    def test_quick_run_writes_schema_valid_result(self, fake_bench, tmp_path):
        rc = run_cli("--quick", "--only", fake_bench, "--out-dir", str(tmp_path))
        assert rc == 0
        result = json.loads((tmp_path / result_filename(fake_bench)).read_text())
        assert result["schema"] == "repro-bench/2"
        assert result["quick"] is True
        assert result["params"] == {"n": 4}
        assert result["virtual"] == {"sum": 6, "n": 4}
        assert "wall" not in result

    def test_full_mode_uses_full_params(self, fake_bench, tmp_path):
        run_cli("--only", fake_bench, "--out-dir", str(tmp_path))
        result = json.loads((tmp_path / result_filename(fake_bench)).read_text())
        assert result["quick"] is False
        assert result["params"] == {"n": 100}

    def test_no_write_leaves_directory_empty(self, fake_bench, tmp_path):
        rc = run_cli("--quick", "--only", fake_bench, "--no-write",
                     "--out-dir", str(tmp_path))
        assert rc == 0
        assert list(tmp_path.iterdir()) == []

    def test_list_mode_prints_without_running(self, fake_bench, tmp_path, capsys):
        rc = run_cli("--list", "--only", fake_bench, "--out-dir", str(tmp_path))
        assert rc == 0
        assert fake_bench in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_empty_registry_exits_2(self, tmp_path, monkeypatch):
        from repro.bench import registry
        monkeypatch.setattr(registry, "_REGISTRY", {})
        assert run_cli("--out-dir", str(tmp_path)) == 2


class TestPerfGate:
    def write_baseline(self, fake_bench, tmp_path, **virtual_overrides):
        """A quick-mode baseline, optionally with doctored virtual metrics."""
        run_cli("--quick", "--only", fake_bench, "--out-dir", str(tmp_path))
        path = tmp_path / result_filename(fake_bench)
        if virtual_overrides:
            doc = json.loads(path.read_text())
            doc["virtual"].update(virtual_overrides)
            path.write_text(result_json(doc), encoding="utf-8")
        return path

    def test_matching_baseline_passes(self, fake_bench, tmp_path):
        self.write_baseline(fake_bench, tmp_path)
        rc = run_cli("--quick", "--only", fake_bench, "--no-write",
                     "--compare", str(tmp_path))
        assert rc == 0

    def test_injected_virtual_regression_fails(self, fake_bench, tmp_path, capsys):
        self.write_baseline(fake_bench, tmp_path, sum=999)
        rc = run_cli("--quick", "--only", fake_bench, "--no-write",
                     "--compare", str(tmp_path))
        assert rc == 1
        out = capsys.readouterr()
        assert "virtual-drift" in out.out
        assert "BENCH GATE FAILED" in out.err

    def test_quick_run_against_full_baseline_fails_loudly(self, fake_bench,
                                                          tmp_path, capsys):
        run_cli("--only", fake_bench, "--out-dir", str(tmp_path))  # full mode
        rc = run_cli("--quick", "--only", fake_bench, "--no-write",
                     "--compare", str(tmp_path))
        assert rc == 1
        assert "params-mismatch" in capsys.readouterr().out

    def test_missing_baseline_fails(self, fake_bench, tmp_path, capsys):
        rc = run_cli("--quick", "--only", fake_bench, "--no-write",
                     "--compare", str(tmp_path))
        assert rc == 1
        assert "missing-baseline" in capsys.readouterr().out

    def test_single_file_baseline(self, fake_bench, tmp_path):
        path = self.write_baseline(fake_bench, tmp_path)
        rc = run_cli("--quick", "--only", fake_bench, "--no-write",
                     "--compare", str(path))
        assert rc == 0

    def test_orphaned_baseline_fails_a_full_run(self, fake_bench, tmp_path,
                                                capsys, monkeypatch):
        """A committed baseline whose benchmark is gone fails the gate;
        an ``--only`` subset leaves the other baselines alone."""
        from repro.bench import registry

        monkeypatch.setattr(registry, "_REGISTRY",
                            {fake_bench: registry._REGISTRY[fake_bench]})
        self.write_baseline(fake_bench, tmp_path)
        (tmp_path / result_filename("deleted_bench")).write_text("{}")
        rc = run_cli("--quick", "--no-write", "--compare", str(tmp_path))
        assert rc == 1
        out = capsys.readouterr().out
        assert out.count("[orphaned-baseline]") == 1
        assert result_filename("deleted_bench") in out
        rc = run_cli("--quick", "--only", fake_bench, "--no-write",
                     "--compare", str(tmp_path))
        assert rc == 0


class TestEndToEnd:
    def test_real_fig6_benchmark_through_the_cli(self, tmp_path):
        """Full path: discovery, run, write, self-compare — one real bench."""
        rc = main(["--quick", "--only", "fig6_modules",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        rc = main(["--quick", "--only", "fig6_modules", "--no-write",
                   "--compare", str(tmp_path)])
        assert rc == 0
