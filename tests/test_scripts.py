import importlib.util
import json
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


def test_bench_pairs_keeps_a_failed_run_and_writes_the_file(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    parent, change, out = tmp_path / "parent", tmp_path / "change", tmp_path / "BENCH.json"
    parent.mkdir()
    change.mkdir()
    (change / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": [{"name": "wall_s", "better": "lower"}], "per_layer": []})
    )
    change_runs = []

    def fake_run(cmd, cwd, **kwargs):
        if cmd[0] == "git":
            return subprocess.CompletedProcess(cmd, 128, "", "not a git repository")
        if cwd == change:
            change_runs.append(cmd)
            if len(change_runs) == 2:
                return subprocess.CompletedProcess(cmd, 1, "", "x" * 3000 + "TimeoutError: deadline\n")
        result = {"metrics": {"wall_s": {"value": 1.0 if cwd == parent else 0.9}}}
        return subprocess.CompletedProcess(cmd, 0, json.dumps({"rev": cwd.name}) + "\n" + json.dumps(result), "")

    monkeypatch.setattr(script.subprocess, "run", fake_run)
    monkeypatch.setattr(
        sys,
        "argv",
        ["bench_pairs.py", "--parent", str(parent), "--change", str(change), "--workload", "report-all",
         "--seed", "5", "--seconds", "1", "--pairs", "2", "--out", str(out)],
    )
    assert script.main() == 1
    entry = json.loads(out.read_text())["runs"]["report-all seed=5 trace=0"]
    failed = entry["pairs"][1]["change"]
    assert set(failed) == {"exit", "wall_seconds", "stderr"}
    assert failed["exit"] == 1
    assert len(failed["stderr"]) == 2000 and failed["stderr"].endswith("TimeoutError: deadline\n")
    assert entry["pairs"][1]["parent"]["result"]["metrics"]["wall_s"]["value"] == 1.0
    summary = entry["summary"]["wall_s"]
    assert (summary["pairs"], summary["change_wins"]) == (1, 1)
    assert abs(summary["median_gain"] - 0.1) < 1e-12
