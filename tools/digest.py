"""Digest the files of the every-mode pipeline, compare two digests, or
compare two output trees value by value.

    python tools/digest.py TREE OUT DIGEST.json
    python tools/digest.py --compare A.json B.json
    python tools/digest.py --diff A B

The first form imports ``_every_mode_pipeline`` from ``TREE/tests/
test_acceptance.py``, with ``TREE/src`` and ``TREE/tests`` first on the
path, runs it into ``OUT`` (emptied first) and writes ``{path: sha256}``
for every file under ``OUT``.  A config hash embeds the dataset's absolute
path, so digests of two trees compare only when both ran into the same
``OUT``.  The second form prints each path whose digest differs or that
only one of the two holds, and exits 1 when there is any.

The third form takes two copies of ``OUT``, each taken after one tree's run.
For each file whose bytes differ it prints the largest relative change
``|a - b| / max(|a|, |b|)`` over the file's numeric CSV cells (a
``mean±std`` cell holds two numbers) or over its checkpoint arrays (read
with ``fsml.nn.load_checkpoint``); ``only in A`` or ``only in B``; or ``not
comparable`` for any other file, or for a changed shape, name set, metadata
or non-numeric cell.  It ends with ``N of M files differ`` and exits 1 when
N > 0.
"""

import argparse
import csv
import hashlib
import io
import json
import shutil
import sys
from itertools import chain
from pathlib import Path

import numpy as np


def digest(tree, out):
    tree, out = Path(tree).resolve(), Path(out).resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "tests")]
    import fsml
    from test_acceptance import _every_mode_pipeline

    if Path(fsml.__file__).resolve().parent != tree / "src" / "fsml":
        raise SystemExit(f"fsml imported from {fsml.__file__}, not from {tree}")
    shutil.rmtree(out, ignore_errors=True)
    _every_mode_pipeline(out)
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def compare(a, b):
    """The paths whose digests differ or that only one digest holds, sorted."""
    return sorted(path for path in a.keys() | b.keys() if a.get(path) != b.get(path))


def _relative(a, b):
    """The largest ``|a - b| / max(|a|, |b|)`` over two equal-shaped arrays:
    0 where they are equal, inf where a changed value is not finite."""
    a, b = (np.asarray(x, dtype=np.float64).ravel() for x in (a, b))
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    rel[(a == b) | (np.isnan(a) & np.isnan(b))] = 0.0
    rel[~np.isfinite(rel)] = np.inf
    return float(rel.max(initial=0.0))


def _csv_change(a, b):
    """The largest relative change over the numeric cells of two CSV files,
    or None when their shapes differ or a changed cell is not numeric."""
    rows_a, rows_b = (list(csv.reader(io.StringIO(p.read_text()))) for p in (a, b))
    if list(map(len, rows_a)) != list(map(len, rows_b)):
        return None
    left, right = [], []
    for cell_a, cell_b in zip(chain.from_iterable(rows_a), chain.from_iterable(rows_b)):
        if cell_a == cell_b:
            continue
        parts_a, parts_b = cell_a.split("±"), cell_b.split("±")
        if len(parts_a) != len(parts_b):
            return None
        try:
            left += [float(x) for x in parts_a]
            right += [float(x) for x in parts_b]
        except ValueError:
            return None
    return _relative(left, right)


def _checkpoint_change(a, b):
    """The largest relative change over the arrays of two checkpoints, or
    None when their metadata, array names or shapes differ."""
    from fsml.errors import FsmlError
    from fsml.nn import load_checkpoint

    try:
        (arrays_a, meta_a), (arrays_b, meta_b) = load_checkpoint(a), load_checkpoint(b)
    except FsmlError:
        return None
    if (meta_a != meta_b or arrays_a.keys() != arrays_b.keys()
            or any(arrays_a[k].shape != arrays_b[k].shape for k in arrays_a)):
        return None
    return max((_relative(arrays_a[k], arrays_b[k]) for k in arrays_a), default=0.0)


_CHANGE = {".csv": _csv_change, ".fsml": _checkpoint_change}


def diff(a, b):
    """One line for each file under one of the trees ``a`` and ``b`` whose
    bytes differ, and the number of files under either."""
    def files(root):
        return {str(p.relative_to(root)) for p in Path(root).rglob("*") if p.is_file()}

    in_a, in_b = files(a), files(b)
    lines = []
    for path in sorted(in_a | in_b):
        if path not in in_b:
            what = "only in A"
        elif path not in in_a:
            what = "only in B"
        else:
            file_a, file_b = Path(a, path), Path(b, path)
            if file_a.read_bytes() == file_b.read_bytes():
                continue
            change = _CHANGE.get(file_a.suffix, lambda *_: None)(file_a, file_b)
            what = "not comparable" if change is None else f"largest relative change {change:.3e}"
        lines.append(f"{path}: {what}")
    return lines, len(in_a | in_b)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--compare", action="store_true", help="compare two digest files")
    mode.add_argument("--diff", action="store_true", help="compare two output trees by value")
    parser.add_argument("paths", nargs="+", help="TREE OUT DIGEST.json, A.json B.json, or A B")
    args = parser.parse_args(argv)
    if args.diff:
        if len(args.paths) != 2:
            parser.error("--diff takes two output trees")
        for tree in args.paths:
            if not Path(tree).is_dir():
                parser.error(f"--diff: {tree} is not a directory")
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
        lines, total = diff(*args.paths)
        print(*lines, f"{len(lines)} of {total} files differ", sep="\n")
        return 1 if lines else 0
    if args.compare:
        if len(args.paths) != 2:
            parser.error("--compare takes two digest files")
        a, b = (json.loads(Path(p).read_text()) for p in args.paths)
        differ = compare(a, b)
        for path in differ:
            print(f"{path}: {a.get(path, 'absent')} {b.get(path, 'absent')}")
        print(f"{len(differ)} of {len(a.keys() | b.keys())} files differ")
        return 1 if differ else 0
    if len(args.paths) != 3:
        parser.error("a digest run takes TREE OUT DIGEST.json")
    tree, out, target = args.paths
    digests = digest(tree, out)
    Path(target).write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} files under {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
