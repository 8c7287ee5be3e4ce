"""Tests for the run-everything experiment driver."""

import pytest

from repro.experiments.run_all import main
from repro.experiments.tables import TABLE3_MEASURED_COLUMNS


def _mask_measured_columns(text: str) -> str:
    """Blank Table 3's measured-time cells; keep every other cell."""
    out = []
    masked: list[int] = []
    for line in text.splitlines():
        cells = line.split()
        if set(TABLE3_MEASURED_COLUMNS) <= set(cells):
            masked = [cells.index(column) for column in TABLE3_MEASURED_COLUMNS]
        elif not cells:
            masked = []  # a blank line ends the table
        else:
            for index in masked:
                cells[index] = "*"
        out.append(" ".join(cells))
    return "\n".join(out)


class TestRunAll:
    def test_single_table(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["--profile", "smoke", "--only", "table3", "--no-file"]) == 0
        output = capsys.readouterr().out
        assert "Table 3" in output
        assert "page_io" in output

    def test_writes_output_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["--profile", "smoke", "--only", "table3"]) == 0
        path = tmp_path / "experiments_output_smoke.txt"
        assert path.exists()
        assert "Table 3" in path.read_text()

    def test_figure_selection(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["--profile", "smoke", "--only", "figure11", "--no-file"]) == 0
        output = capsys.readouterr().out
        assert "Figure 11" in output
        assert "JKB2" in output

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["--only", "figure99", "--no-file"])

    def test_unknown_profile_rejected(self):
        with pytest.raises(SystemExit):
            main(["--profile", "gigantic"])

    def test_output_identical_between_runs_outside_measured_columns(
        self, tmp_path, monkeypatch
    ):
        """Two runs differ only in Table 3's wall/CPU-time columns."""
        outputs = []
        for run in ("first", "second"):
            directory = tmp_path / run
            directory.mkdir()
            monkeypatch.chdir(directory)
            assert main(["--profile", "smoke", "--only", "table3"]) == 0
            outputs.append((directory / "experiments_output_smoke.txt").read_text())
        masked = [_mask_measured_columns(text) for text in outputs]
        assert masked[0] == masked[1]
        # The separator and the M=10/20/50 rows are masked.
        assert masked[0].count("*") == 4 * len(TABLE3_MEASURED_COLUMNS)
        assert "page_io" in masked[0]
