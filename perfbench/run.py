"""fsml benchmark: one workload per fresh process, closed loop, fixed seconds.

    python3 perfbench/run.py --workload meta-maml --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs a fixed amount of work twice, untraced and then traced,
and reports per-layer metrics from the spans (see ``tracer.py``).
Both print a table of named metrics with units and sample counts, then, as
the last line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every operation succeeded and
every output check passed.  ``--workload all`` runs each workload in its
own process.  ``--write-reference`` records the check-seed outputs of this
commit in ``reference.json``.
"""

import os
import sys
import time

PROCESS_START = time.perf_counter()

# Pinned before NumPy loads: one BLAS thread, one fine-tuning worker.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "FSML_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402

WORKLOAD_NAMES = ("meta-maml", "meta-timl-enc", "ssl-finetune", "cli-pipeline")
END_TO_END = (
    ("setup_s", "s"), ("cal_items_per_s", "1/s"), ("cal_step_ms_p50", "ms"), ("peak_rss_mb", "MB"),
)
SETUP_REPEATS = 3
REFERENCE = os.path.join(HERE, "reference.json")
OUT_DIR = os.path.join(ROOT, ".perfbench")
COVERAGE_FLOOR = 0.9  # traced runs below this leave a layer unaccounted


# ---------------------------------------------------------------------------
# records of timed operations
# ---------------------------------------------------------------------------


class Calibration:
    """A fixed loop, timed between operations at most every PROBE_EVERY_S,
    that gauges how fast the shared machine runs at the moment.

    Other tenants slow this machine by up to 2x for seconds at a time, which
    moves whole runs.  An operation's calibrated time is its wall time times
    the loop's reference time over the median loop time measured from just
    before it to just after it: the time the operation would have taken with
    the machine running the loop at its reference speed.  The loop has two
    parts, per-call Python on small arrays and large-array arithmetic; each
    workload times the parts that resemble its own work.
    """

    PROBE_EVERY_S = 0.25
    # Reference times of the parts.  They only fix the scale of calibrated
    # times; both lie within the range the parts take on a 2-vCPU machine.
    REFERENCE_S = {"python": 0.006, "arrays": 0.005}

    def __init__(self, parts):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.parts = parts
        self.reference_s = sum(self.REFERENCE_S[p] for p in parts)
        self.small = [rng.standard_normal((8, 16)) for _ in range(4)]
        self.weight = rng.standard_normal((16, 16))
        self.big = rng.standard_normal((2, 366, 366))
        self.samples = []  # (time the loop ended, its duration)

    def _python(self):
        acc = 0.0
        for i in range(1500):
            acc += float((self.small[i % 4] @ self.weight + 1.0).sum())

    def _arrays(self):
        np = self.np
        for _ in range(2):
            e = np.exp(self.big - self.big.max(axis=-1, keepdims=True))
            e /= e.sum(axis=-1, keepdims=True)

    def maybe_probe(self):
        if self.samples and time.perf_counter() - self.samples[-1][0] < self.PROBE_EVERY_S:
            return
        start = time.perf_counter()
        for part in self.parts:
            getattr(self, f"_{part}")()
        end = time.perf_counter()
        self.samples.append((end, end - start))

    def factor(self, start, end):
        near = [d for t, d in self.samples
                if start - self.PROBE_EVERY_S <= t <= end + self.PROBE_EVERY_S]
        return self.reference_s / statistics.median(near or [d for _, d in self.samples])


class Records:
    def __init__(self, calibration=None):
        self.calibration = calibration
        self.ops = []  # (kind, start, end, items)

    def add(self, kind, start, end, items):
        self.ops.append((kind, start, end, items))

    def _seconds(self, start, end, cal):
        return (end - start) * (self.calibration.factor(start, end) if cal else 1.0)

    def of(self, kinds, cal=False):
        return [(self._seconds(a, b, cal), n) for k, a, b, n in self.ops if k in kinds]

    def timeline(self, kinds, cal=False):
        return [(k, self._seconds(a, b, cal)) for k, a, b, n in self.ops if k in kinds]

    def rate(self, kinds, unit, cal=False):
        rows = self.of(kinds if isinstance(kinds, tuple) else (kinds,), cal)
        seconds = sum(s for s, _ in rows)
        return (sum(n for _, n in rows) / seconds if seconds else None, unit, len(rows))

    def p50(self, kind):
        ms = [1000 * s for s, _ in self.of((kind,))]
        return (statistics.median(ms) if ms else None, "ms", len(ms))

    def tail(self, kind):
        """Highest percentile with at least ten samples beyond it (nearest rank)."""
        ms = sorted(1000 * s for s, _ in self.of((kind,)))
        n = len(ms)
        pct = math.floor(100 * (n - 10) / n) if n > 10 else 0
        if pct < 50:
            return (None, "ms", n)
        rank = math.ceil(pct / 100 * n)
        return (ms[rank - 1], f"ms@p{pct}", n)


# ---------------------------------------------------------------------------
# output checks against the reference
# ---------------------------------------------------------------------------


def compare(expected, actual, path="", key=""):
    """Mismatches between two output trees: losses to rounding, the rest exact."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if sorted(expected) != sorted(actual):
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        out = []
        for k in sorted(expected):
            out += compare(expected[k], actual[k], f"{path}/{k}", k)
        return out
    if isinstance(expected, list) and isinstance(actual, (list, tuple)):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out += compare(e, a, f"{path}[{i}]", key)
        return out
    if isinstance(expected, float) and isinstance(actual, (int, float)) and "loss" in key:
        if math.isclose(expected, actual, rel_tol=1e-9, abs_tol=1e-12):
            return []
    elif expected == actual and type(expected) is type(actual):
        return []
    return [f"{path}: {actual!r} != reference {expected!r}"]


def canonical(value):
    """Outputs as JSON would store them, so the reference compares like for like."""
    return json.loads(json.dumps(value))


# ---------------------------------------------------------------------------
# one workload in this process
# ---------------------------------------------------------------------------


def environment(seed):
    import numpy as np
    from fsml import kernels

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "kernels_backend": kernels.backend(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "FSML_THREADS")},
        "seed": seed,
    }


def run_ops(ops, records, failures):
    for kind, fn in ops:
        if records.calibration:
            records.calibration.maybe_probe()
        start = time.perf_counter()
        try:
            items = fn()
        except Exception as err:  # one failed operation ends the run and is counted
            failures.append(f"{kind}: {type(err).__name__}: {err}")
            traceback.print_exc(file=sys.stderr)
            return False
        records.add(kind, start, time.perf_counter(), items)
    return True


def run_workload(args):
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads

    imported = time.perf_counter()
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    wl = workloads.make(args.workload, workdir)
    calibration = Calibration(wl.probe)
    failures, problems = [], []
    records = Records()
    setups = [(PROCESS_START, imported)]  # imports, then each set-up
    try:
        for _ in range(SETUP_REPEATS):
            calibration.maybe_probe()
            start = time.perf_counter()
            wl.setup(args.seed)
            wl.warmup()
            setups.append((start, time.perf_counter()))
        calibration.maybe_probe()
        wall = [end - start for start, end in setups]
        cal = [(end - start) * calibration.factor(start, end) for start, end in setups]
        setup_s = cal[0] + statistics.median(cal[1:])

        metrics = {}
        if args.trace:
            metrics = traced(wl, args, records, failures, problems)
        else:
            records.calibration = calibration
            window_start = time.perf_counter()
            ok = True
            while ok and time.perf_counter() - window_start < args.seconds:
                ok = run_ops([wl.next_op()], records, failures)
            wall_s = time.perf_counter() - window_start
            if ok:
                run_ops(wl.final_ops(), records, failures)
            records.calibration.maybe_probe()  # the loop just after the last operation
            if not failures:
                problems += wl.problems()
            metrics = end_to_end(wl, records, setup_s)
            probes = [1000 * d for _, d in records.calibration.samples]
            table = dict(
                setup_wall_s=(wall[0] + statistics.median(wall[1:]), "s", SETUP_REPEATS),
                setup_s=(setup_s, "s", SETUP_REPEATS),
                wall_s=(wall_s, "s", 1),
                **wl.table(records),
                peak_rss_mb=(*metrics["peak_rss_mb"], 1),
                calibration_ms_p50=(statistics.median(probes), "ms", len(probes)),
                cal_items_per_s=(*metrics["cal_items_per_s"], len(records.of(wl.train_kinds))),
                cal_step_ms_p50=(*metrics["cal_step_ms_p50"], len(wl.step_times(records))),
            )
        problems += check_reference(wl, args.reference, records, failures)
    finally:
        wl.cleanup()
    attempted = len(records.ops) + len(failures)
    failed = len(failures) + (1 if problems else 0)
    if not args.trace:
        table["op_failure_ratio"] = (failed / max(attempted, 1), "ratio", attempted)
        print_table(args.workload, table, environment(args.seed))
        metrics = {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()}
    for line in failures + problems:
        print(f"FAILED {args.workload}: {line}")
    result = {
        "correct": not failures and not problems,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def end_to_end(wl, records, setup_s):
    steps = wl.step_times(records, cal=True)
    return {
        "setup_s": (setup_s, "s"),
        "cal_items_per_s": records.rate(wl.train_kinds, "1/s", cal=True)[:2],
        "cal_step_ms_p50": (1000 * statistics.median(steps) if steps else None, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def check_reference(wl, path, records, failures):
    """Run the check-seed segment and compare it with the stored reference."""
    with open(path, encoding="utf-8") as fh:
        expected = json.load(fh)[wl.name]
    start = time.perf_counter()
    try:
        actual = canonical(wl.reference_outputs())
    except Exception as err:
        failures.append(f"reference segment: {type(err).__name__}: {err}")
        traceback.print_exc(file=sys.stderr)
        return []
    records.add("check", start, time.perf_counter(), 1)
    return [f"reference {m}" for m in compare(expected, actual)]


def print_table(name, table, env):
    print(f"# {name}  backend={env['kernels_backend']} nproc={env['nproc']} "
          f"python={env['python']} numpy={env['numpy']} blas={env['blas']} seed={env['seed']}")
    for key, (value, unit, n) in table.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {key:<34} {shown:>14} {unit:<10} n={n}")


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------


def traced(wl, args, records, failures, problems):
    import layer_metrics
    from tracer import Tracer

    untraced = Records()
    gc.collect()  # both passes start from a collected heap
    start = time.perf_counter()
    ok = run_ops(wl.traced_ops(), untraced, failures)
    untraced_s = time.perf_counter() - start
    reference_outputs = canonical(wl.outputs()) if ok else None

    wl.setup(args.seed)
    wl.warmup()
    tracer = Tracer()
    tracer.install(layer_metrics.fsml_modules())
    gc.collect()
    start = time.perf_counter()
    try:
        ok = ok and run_ops(wl.traced_ops(), records, failures)
    finally:
        traced_s = time.perf_counter() - start
        tracer.uninstall()
    if not ok:
        return {}
    if canonical(wl.outputs()) != reference_outputs:
        problems.append("traced outputs differ from the untraced outputs of the same work")
    problems += wl.problems()
    summary = tracer.summary(traced_s)
    table = layer_metrics.table(summary, traced_s / untraced_s)
    if summary["coverage"] < COVERAGE_FLOOR:
        problems.append(f"trace coverage {summary['coverage']:.3f} below {COVERAGE_FLOOR}")
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}")
    tracer.write_spans(stem + ".spans.tsv.gz")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "environment": environment(args.seed),
                   "untraced_s": untraced_s, "traced_s": traced_s, "table": table}, fh, indent=1)
    layer_metrics.print_table(args.workload, table)
    return layer_metrics.per_layer(table)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run_all(args):
    """Each workload in its own fresh process; a combined result line."""
    code, combined = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--reference", args.reference]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            combined["failed"] += 1
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = value
    print(json.dumps(combined))
    return code


def write_reference(path):
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads

    reference = {}
    for name in WORKLOAD_NAMES:
        wl = workloads.make(name, os.path.join(OUT_DIR, f"work-reference-{os.getpid()}"))
        try:
            reference[name] = canonical(wl.reference_outputs())
        finally:
            wl.cleanup()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", default=REFERENCE)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fsml", "__init__.py")):
        print(f"error: no fsml package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference(args.reference)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
