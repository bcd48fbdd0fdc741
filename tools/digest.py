"""Digest the files of the every-mode pipeline, or compare two digests.

    python tools/digest.py TREE OUT DIGEST.json
    python tools/digest.py --compare A.json B.json

The first form imports ``_every_mode_pipeline`` from ``TREE/tests/
test_acceptance.py``, with ``TREE/src`` and ``TREE/tests`` first on the
path, runs it into ``OUT`` (emptied first) and writes ``{path: sha256}``
for every file under ``OUT``.  A config hash embeds the dataset's absolute
path, so digests of two trees compare only when both ran into the same
``OUT``.  The second form prints each path whose digest differs or that
only one of the two holds, and exits 1 when there is any.
"""

import argparse
import hashlib
import json
import shutil
import sys
from pathlib import Path


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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", action="store_true", help="compare two digest files")
    parser.add_argument("paths", nargs="+", help="TREE OUT DIGEST.json, or A.json B.json")
    args = parser.parse_args(argv)
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
