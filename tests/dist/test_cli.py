"""The ``python -m repro.tools.dist`` command line."""

import json

import pytest

from repro.errors import FaultPlanError
from repro.tools.dist import main
from repro.dist import parse_behaviors
from repro.dist.sweep import parse_faults


class TestSpecParsing:
    def test_parse_behaviors(self):
        spec = parse_behaviors("0:lazy,2:dropout,3:flaky:90000")
        assert spec[0].kind == "lazy"
        assert spec[3].kind == "flaky" and spec[3].delay_ms == 90000.0
        assert parse_behaviors("") == {}

    def test_parse_behaviors_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_behaviors("0:sneaky")
        with pytest.raises(ValueError):
            parse_behaviors("0:lazy,0:forge")
        with pytest.raises(ValueError):
            parse_behaviors("lazy")

    def test_parse_faults(self):
        plan = parse_faults("2:slb-bit-flip:64,5:tpm-transient", seed=9)
        assert plan.seed == 9
        assert plan.specs[0].machine == "client-02"
        assert plan.specs[0].magnitude == 64
        assert plan.specs[1].kind == "tpm-transient"

    def test_parse_faults_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_faults("2:slb-bit-flip:64:9")
        with pytest.raises(FaultPlanError):
            parse_faults("2:no-such-fault")


class TestMain:
    def run_main(self, capsys, *argv):
        main(list(argv))
        return capsys.readouterr().out

    def test_report_output(self, capsys):
        out = self.run_main(
            capsys, "--machines", "3", "--units", "3", "--quorum", "2")
        assert "## Per-client outcomes" in out
        assert "units validated / total" in out
        assert "3 / 3" in out

    def test_dump_and_replay_round_trip(self, capsys, tmp_path):
        db_path = tmp_path / "db.json"
        live_json = tmp_path / "live.json"
        self.run_main(
            capsys, "--machines", "3", "--units", "3", "--quorum", "2",
            "--behaviors", "1:lazy",
            "--json", str(live_json), "--dump-db", str(db_path))
        replay_json = tmp_path / "replay.json"
        out = self.run_main(
            capsys, "--replay", str(db_path), "--json", str(replay_json))
        assert "no simulation ran" in out
        assert live_json.read_bytes() == replay_json.read_bytes()
        report = json.loads(live_json.read_text())
        assert report["units_validated"] == 3

    def test_malformed_replay_stops_with_the_message(self, tmp_path):
        db_path = tmp_path / "db.json"
        db_path.write_text("[]")
        with pytest.raises(SystemExit) as stop:
            main(["--replay", str(db_path)])
        assert str(stop.value) == (
            f"--replay {db_path}: not a repro-dist-db/1 dump "
            f"(a JSON list, not an object)")

    def test_replay_cannot_dump(self, capsys, tmp_path):
        db_path = tmp_path / "db.json"
        self.run_main(capsys, "--machines", "2", "--units", "2",
                      "--quorum", "2", "--dump-db", str(db_path))
        with pytest.raises(SystemExit):
            main(["--replay", str(db_path), "--dump-db", str(db_path)])
