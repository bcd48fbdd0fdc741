"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py          # about three minutes on 2 vCPUs

They check that the output check fails on a perturbed reference, that two
traced runs with one seed give identical counts, that the benchmark's copies
of the meta-training and SSL loops reproduce ``meta_train`` and
``pretrain_ssl``, that ``BENCHMARK.json`` names the metrics the runs print,
and that the benchmark fails cleanly when the program is absent.  The file
is not named ``test_*.py``, so the repository's own test run does not
collect it.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import layer_metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from fsml import meta, ssl  # noqa: E402

SCRATCH = os.path.join(run.OUT_DIR, "selftest")


def bench(*args, cwd=ROOT):
    script = os.path.join(cwd, "perfbench", "run.py")
    proc = subprocess.run(
        [sys.executable, script, *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def setUpModule():
    os.makedirs(SCRATCH, exist_ok=True)


def tearDownModule():
    shutil.rmtree(SCRATCH, ignore_errors=True)


class OutputCheck(unittest.TestCase):
    def setUp(self):
        with open(run.REFERENCE, encoding="utf-8") as fh:
            self.reference = json.load(fh)

    def test_compare_accepts_rounding_of_losses_only(self):
        ref = self.reference["meta-maml"]
        moved = json.loads(json.dumps(ref))
        moved["trace"][0]["mean_query_loss"] *= 1 + 1e-13
        self.assertEqual(run.compare(ref, moved), [])
        moved["trace"][0]["mean_query_loss"] *= 1 + 1e-6
        self.assertEqual(len(run.compare(ref, moved)), 1)
        moved = json.loads(json.dumps(ref))
        moved["trace"][0]["mean_query_accuracy"] += 1e-15
        self.assertEqual(len(run.compare(ref, moved)), 1)

    def test_perturbed_reference_fails_the_run(self):
        perturbed = json.loads(json.dumps(self.reference))
        perturbed["meta-maml"]["trace"][0]["mean_query_accuracy"] += 0.125
        path = os.path.join(SCRATCH, "perturbed.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(perturbed, fh)
        code, lines = bench("--workload", "meta-maml", "--seed", "3", "--seconds", "1",
                            "--trace", "0", "--reference", path)
        result = json.loads(lines[-1])
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertTrue(any(line.startswith("FAILED meta-maml: reference") for line in lines))


class TracedCounts(unittest.TestCase):
    # Counts that must repeat exactly for the same seed and the same work.
    EXACT = ("tensor.", "kernels.calls", "kernels.computed_bytes", "nn.pack_",
             "ssl.token_", "train.epochs_run", "train.epochs_past_best",
             "meta.meta_gradient_calls", "meta.inner_adapt_calls", "episodes.")

    def traced_table(self, workload, seed):
        code, lines = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                            "--trace", "1")
        self.assertEqual(code, 0, "\n".join(lines[-5:]))
        path = os.path.join(run.OUT_DIR, f"trace-{workload}-seed{seed}.json")
        with open(path, encoding="utf-8") as fh:
            table = json.load(fh)["table"]
        return {
            name: value for name, (value, unit) in table.items()
            if name.startswith(self.EXACT) and unit in ("count", "B", "ratio")
        }

    def test_counts_repeat_exactly(self):
        for workload in ("cli-pipeline", "ssl-finetune"):
            first = self.traced_table(workload, 11)
            second = self.traced_table(workload, 11)
            self.assertEqual(first, second, workload)
            self.assertGreater(first["tensor.nodes_recorded"], 0)
            self.assertGreater(first["kernels.computed_bytes"], 0)
            self.assertGreater(first["train.epochs_run"], 0)
        self.assertIsNotNone(first["ssl.token_fill_ratio"])


class LoopCopies(unittest.TestCase):
    def test_meta_loop_reproduces_meta_train(self):
        corpus = workloads.meta_corpus(5)
        for algorithm, steps in (("maml", 4), ("timl_enc", 1)):
            config = workloads.meta_config(
                algorithm, steps, total_tasks=8, validate_every=4, validation_tasks=3
            )
            _, info = meta.meta_train(corpus, config, 5, model_config=workloads.TINY)
            loop = workloads.MetaRun(corpus, config, 5)
            for _ in range(2):
                loop.train_batch()
                if loop.validation_due():
                    loop.validate()
            self.assertEqual(loop.trace, info["trace"], algorithm)

    def test_ssl_loop_reproduces_pretrain_ssl(self):
        corpus = workloads.ssl_corpus(5)
        config = workloads.ssl_config(validate_every=2, max_batches=4)
        _, _, autoencoder = workloads.ssl_pieces()
        _, _, info = ssl.pretrain_ssl(corpus, autoencoder, config, 5)
        loop = workloads.SSLRun(corpus, 5, config)
        for _ in range(4):
            loop.mae_batch()
            if loop.validation_due():
                loop.validate()
        self.assertEqual(loop.trace, info["trace"])


class Contract(unittest.TestCase):
    def test_benchmark_json_names_the_printed_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            [tuple(m) for m in layer_metrics.PER_LAYER],
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END)
        )
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOAD_NAMES))

    def test_fails_without_the_program(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        code, lines = bench("--workload", "meta-maml", "--seed", "1", "--seconds", "1",
                            "--trace", "0", cwd=bare)
        self.assertNotEqual(code, 0)
        self.assertFalse(any(line.startswith("{") for line in lines))


if __name__ == "__main__":
    unittest.main()
