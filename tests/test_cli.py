"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table2_options(self):
        args = build_parser().parse_args(
            ["table2", "--window", "30", "--threshold", "1"]
        )
        assert args.window == 30.0
        assert args.threshold == 1.0

    def test_fig2_points_parse(self):
        args = build_parser().parse_args(["fig2a", "--points", "1,2,3"])
        assert args.points == (1.0, 2.0, 3.0)

    def test_fig2_points_reject_garbage(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig2a", "--points", "a,b"])

    def test_repair_requires_case(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["repair"])

    def test_repair_case_range(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["repair", "--case", "17"])


class TestCommands:
    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out
        assert "Bookmark bar is missing." in out

    def test_list_cases(self, capsys):
        assert main(["list-cases"]) == 0
        assert "Acrobat Reader" in capsys.readouterr().out

    def test_fig4(self, capsys):
        assert main(["fig4", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "Manual" in out

    def test_table2_reduced(self, capsys):
        # A fast, reduced-days run through the real pipeline.
        assert main(["table2", "--days", "6", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "Eye of GNOME" in out

    def test_repair_case12(self, capsys):
        assert main(["repair", "--case", "12", "--days-before-end", "5"]) == 0
        out = capsys.readouterr().out
        assert "error #12" in out
        assert "FIXED" in out


class TestStreamFlags:
    def test_defaults(self):
        args = build_parser().parse_args(["stream"])
        assert args.timings is False



class TestStreamCommand:
    ARGS = ["stream", "--shards", "2", "--days", "2", "--chunks", "3"]

    def _run(self, capsys, *extra):
        assert main(self.ARGS + list(extra)) == 0
        return capsys.readouterr().out.splitlines()

    def test_resume_consumes_nothing_new(self, capsys, tmp_path):
        state = tmp_path / "session.json"
        first = self._run(capsys, "--state", str(state))
        assert any("checkpointed" in line for line in first)
        resumed = self._run(capsys, "--state", str(state))
        assert any("resumed session" in line for line in resumed)
        assert any("0 new event(s) consumed" in line for line in resumed)

    def test_timings_flag_adds_shard_timing(self, capsys):
        lines = self._run(capsys, "--timings")
        assert any("slowest shard" in line for line in lines)
        assert any("kernel" in line for line in lines)

    def test_timings_flag_adds_ingest_line(self, capsys):
        lines = self._run(capsys, "--timings")
        assert any("ingest" in line and "append + routing" in line for line in lines)

    def test_identical_output_across_kernels(self, capsys, monkeypatch):
        """Same clusters and progress whatever the agglomeration kernel.

        The size threshold decides the dispatch: 0 sends every component
        to the numpy kernel, an unreachable size keeps all on Python.
        """
        pytest.importorskip(
            "numpy", reason="the numpy kernel needs numpy", exc_type=ImportError
        )
        import repro.core.hac_kernel as hac_kernel

        outputs = {}
        for label, threshold in (
            ("auto", hac_kernel.KERNEL_SIZE_THRESHOLD),
            ("numpy", 0),
            ("python", 10**9),
        ):
            monkeypatch.setattr(hac_kernel, "KERNEL_SIZE_THRESHOLD", threshold)
            outputs[label] = self._run(capsys)
        assert outputs["auto"] == outputs["numpy"] == outputs["python"]


class TestFleetFlags:
    def test_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.machines == 3
        assert args.profile == "Linux-1"
        assert args.max_lag is None

    def test_flags_parse(self):
        args = build_parser().parse_args(
            ["fleet", "--machines", "4", "--max-lag", "50", "--state", "dir"]
        )
        assert args.machines == 4
        assert args.max_lag == 50
        assert args.state == "dir"


class TestFleetCommand:
    ARGS = ["fleet", "--machines", "2", "--days", "1", "--chunks", "3"]

    def _run(self, capsys, *extra):
        assert main(self.ARGS + list(extra)) == 0
        return capsys.readouterr().out.splitlines()

    def test_resume_consumes_nothing_new(self, capsys, tmp_path):
        state = tmp_path / "fleet-state"
        first = self._run(capsys, "--state", str(state))
        assert any("checkpointed" in line for line in first)
        assert (state / "fleet.json").exists()
        # crash-safe layout: machine files live in a generation dir
        assert (state / "gen-000001" / "machine-m000.json").exists()
        assert (state / "gen-000001" / "manifest.json").exists()
        resumed = self._run(capsys, "--state", str(state))
        assert any("resumed fleet session" in line for line in resumed)
        assert any("0 new event(s) consumed" in line for line in resumed)

    def test_resume_matches_uninterrupted_run(self, capsys, tmp_path):
        """Checkpoint/resume lands on the same fleet cluster model.

        The uninterrupted run's final cluster count must reappear in the
        resumed run's summary line — byte-identical tail."""
        straight = self._run(capsys)
        state = tmp_path / "fleet-state"
        self._run(capsys, "--state", str(state))
        resumed = self._run(capsys, "--state", str(state))
        # "-> N fleet clusters (M multi-key)" must match the last round
        model = straight[-1].split("->", 1)[1].split(";", 1)[0].strip()
        assert "fleet clusters" in model
        assert any(model in line for line in resumed)

    def test_backpressure_bounds_feed(self, capsys):
        lines = self._run(capsys, "--max-lag", "40")
        fed = [
            int(line.split("+", 1)[1].split()[0])
            for line in lines
            if line.lstrip().startswith("round")
        ]
        # 2 machines x 40 events max per round
        assert fed and all(count <= 80 for count in fed)
        # throttling converges to the same model as the unthrottled run
        model = lines[-1].split("->", 1)[1].split(";", 1)[0]
        assert model == self._run(capsys)[-1].split("->", 1)[1].split(";", 1)[0]
