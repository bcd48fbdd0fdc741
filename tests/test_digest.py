import hashlib
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


def test_a_digest_run_holds_each_file_s_sha256_and_compares_clean_with_itself(tmp_path):
    out, target = tmp_path / "out", tmp_path / "digest.json"
    done = subprocess.run([sys.executable, str(DIGEST), str(DIGEST.parents[1]), str(out), str(target)],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    files = sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())
    assert files and done.stdout.splitlines() == [f"{len(files)} files under {out}"]
    digests = json.loads(target.read_text())
    assert digests == {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in files}
    done = subprocess.run([sys.executable, str(DIGEST), "--compare", str(target), str(target)],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout.splitlines()) == (0, [f"0 of {len(files)} files differ"])
