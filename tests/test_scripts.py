import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STATISTICS = ROOT / "scripts" / "net_split_statistics.py"


def test_net_split_statistics_smoke():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(STATISTICS), "--seeds", "1", "--samples", "2"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "seed   0:" in proc.stdout
    assert "total over 2 nets" in proc.stdout
    assert "clean fraction:" in proc.stdout


def test_net_split_statistics_counts_failures_by_their_text(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("net_split_statistics", STATISTICS)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    reports = iter(
        [
            {"ok": True},
            {"ok": False, "septic_degree": None, "failure": "identically degenerate net (vanishing determinant)"},
            {"ok": False, "septic_degree": 7, "failure": "the line does not divide the curve"},
            {"ok": False, "septic_degree": 7, "sextic_degree": 6, "line_intersection_count": 6,
             "line_intersection_distinct": False},
        ]
    )
    monkeypatch.setattr(script, "sample_net_split", lambda rng: next(reports))
    monkeypatch.setattr(sys, "argv", ["net_split_statistics.py", "--seeds", "1", "--samples", "4"])
    assert script.main() == 0
    out = capsys.readouterr().out
    assert (
        "{'clean': 1, 'identically degenerate net (vanishing determinant)': 1, "
        "'the line does not divide the curve': 1, 'repeated-intersection': 1}"
    ) in out
    assert "clean fraction: 0.250" in out
