import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).parents[1]
TOOL = ROOT / "tools" / "paired.py"


def paired(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, timeout=300)


def test_paired_compares_a_checkout_with_itself():
    proc = paired(ROOT, ROOT, "--workload", "algebra", "--seed", "1",
                  "--pairs", "2")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["failed"] == {"base": 0, "changed": 0}
    assert out["pairs"] == 2 and out["jobs_per_pass"] > 0
    assert 0 <= out["wins"] <= 2
    for ratio in (out["ratio"], out["wall"]["ratio"]):
        low, high = ratio["quartiles"]
        assert 0 < low <= ratio["median"] <= high
    assert 0 <= out["wall"]["wins"] <= 2
    assert [line.split(":")[0] for line in proc.stderr.splitlines()
            if line.startswith("pair ")] == ["pair 1", "pair 2"]


def test_paired_stops_on_a_checkout_without_perfbench(tmp_path):
    proc = paired(tmp_path, ROOT, "--workload", "algebra", "--seed", "1",
                  "--pairs", "1")
    assert proc.returncode == 1
    assert "paired: the worker for %s stopped" % tmp_path in proc.stderr
