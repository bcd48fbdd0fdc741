import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from fsml.nn import save_checkpoint

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


def _diff(a, b):
    done = subprocess.run([sys.executable, str(DIGEST), "--diff", str(a), str(b)],
                          capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout.splitlines()


_RESULTS = "# config=abc\nlabel,k1,k5\nscratch,0.5±0.25,2.0±0.1\n"
_ARRAYS = {"backbone/w": np.array([[1.0, 2.0], [3.0, 4.0]]), "head/b": np.array([0.5, -0.5])}


def _out_tree(root, results=_RESULTS, arrays=_ARRAYS, meta=(("seed", 0),), report="{}"):
    """An output tree of a results table, a checkpoint and a report."""
    (root / "runs" / "0").mkdir(parents=True)
    (root / "runs" / "results.csv").write_text(results)
    save_checkpoint(root / "runs" / "0" / "model.fsml", arrays, meta=dict(meta))
    (root / "runs" / "0" / "report.json").write_text(report)
    return root


def test_equal_output_trees_diff_clean(tmp_path):
    a = _out_tree(tmp_path / "a")
    shutil.copytree(a, tmp_path / "b")
    assert _diff(a, tmp_path / "b") == (0, ["0 of 3 files differ"])


def test_a_changed_cell_and_array_element_print_their_largest_relative_change(tmp_path):
    # k5's mean moves 2.0 -> 2.5 (0.2) and its std 0.1 -> 0.11 (1/11); one
    # weight moves 4.0 -> 4.4, and the other arrays keep their bits
    a = _out_tree(tmp_path / "a")
    b = _out_tree(tmp_path / "b", results=_RESULTS.replace("2.0±0.1", "2.5±0.11"),
                  arrays={**_ARRAYS, "backbone/w": np.array([[1.0, 2.0], [3.0, 4.4]])})
    assert _diff(a, b) == (1, [
        f"runs/0/model.fsml: largest relative change {abs(4.0 - 4.4) / 4.4:.3e}",
        f"runs/results.csv: largest relative change {0.5 / 2.5:.3e}",
        "2 of 3 files differ",
    ])


def test_files_that_cannot_be_compared_by_value_are_named(tmp_path):
    a = _out_tree(tmp_path / "a")
    (a / "runs" / "only_a.csv").write_text("x\n1\n")
    cases = {
        "b": {"results": _RESULTS.replace("scratch", "meta")},  # a non-numeric cell
        "c": {"results": _RESULTS + "extra,1,2\n"},  # a new row
        "d": {"arrays": {**_ARRAYS, "head/b": np.zeros(3)}},  # a new shape
        "e": {"arrays": {"backbone/w": _ARRAYS["backbone/w"]}},  # an array fewer
        "f": {"meta": (("seed", 1),)},
        "g": {"report": '{"k": 1}'},  # neither a table nor a checkpoint
    }
    for name, change in cases.items():
        b = _out_tree(tmp_path / name, **change)
        (b / "runs" / "only_b.csv").write_text("x\n1\n")
        path = "runs/results.csv" if "results" in change else (
            "runs/0/report.json" if "report" in change else "runs/0/model.fsml")
        assert _diff(a, b) == (1, sorted([f"{path}: not comparable", "runs/only_a.csv: only in A",
                                          "runs/only_b.csv: only in B"]) + ["3 of 5 files differ"]), name
