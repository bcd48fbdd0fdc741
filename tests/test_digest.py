import json
import subprocess
import sys
from pathlib import Path

DIGEST = Path(__file__).resolve().parents[1] / "tools" / "digest.py"


def _compare(tmp_path, a, b):
    paths = []
    for name, digests in (("a.json", a), ("b.json", b)):
        path = tmp_path / name
        path.write_text(json.dumps(digests))
        paths.append(str(path))
    done = subprocess.run([sys.executable, str(DIGEST), "--compare", *paths],
                          capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout.splitlines()


def test_equal_digests_compare_clean(tmp_path):
    digests = {"corpus.jsonl": "aa", "runs/x/report.json": "bb", "runs/x/model.fsml": "cc"}
    assert _compare(tmp_path, digests, dict(digests)) == (0, ["0 of 3 files differ"])


def test_a_changed_and_a_one_sided_path_are_each_listed(tmp_path):
    a = {"corpus.jsonl": "aa", "runs/report.json": "bb", "runs/only_a.csv": "cc"}
    b = {"corpus.jsonl": "aa", "runs/report.json": "b2", "runs/only_b.csv": "dd"}
    assert _compare(tmp_path, a, b) == (1, [
        "runs/only_a.csv: cc absent",
        "runs/only_b.csv: absent dd",
        "runs/report.json: bb b2",
        "3 of 4 files differ",
    ])
