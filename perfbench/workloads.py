"""The four benchmark workloads.

Every workload is a closed loop: the next operation starts only after the
previous one ended.  Its inputs come from ``generate_synthetic`` at the run
seed and nothing else.  Calls into fsml go through module attributes
(``meta.meta_train``, not a from-imported name), so the tracer's rebinding
reaches the calls the benchmark itself makes.

A workload offers:

* ``setup(seed)`` and ``warmup()``: build inputs and model, then run one of
  each kind of operation once, outside the steady metrics;
* ``next_op()``: the next (kind, callable) of the closed loop; the callable
  returns the number of items it processed;
* ``final_ops()``: what the end of a run must still do (meta_train and
  pretrain_ssl validate when training ends);
* ``traced_ops()``: a fixed amount of work for the traced run, so that its
  counts repeat exactly;
* ``problems()``: output checks on everything the run produced;
* ``reference_outputs()``: a small run at ``CHECK_SEED`` whose outputs are
  compared with ``reference.json``, taken from the commit that added it.
"""

from __future__ import annotations

import csv
import math
import os
import shutil
import statistics
import time

from fsml import cli, data, episodes, meta, nn, seeding, ssl, tokens, train

CHECK_SEED = 0
TINY = nn.small_config(embed_dim=16, num_heads=2, hidden_dim=32)


def _finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)


def _in_unit(x):
    return _finite(x) and 0.0 <= x <= 1.0


# ---------------------------------------------------------------------------
# meta-learning (acceptance criterion 8, part b)
# ---------------------------------------------------------------------------


def meta_corpus(seed):
    return data.generate_synthetic(
        data.SynthConfig(
            regions=["R1", "R2"], finetune_region="T1",
            n_classes=6, n_level4=4, n_level3=2,
            samples_per_class=40, finetune_samples_per_class=60,
            groups=[data.GroupSpec("s2", 4, "dynamic")],
            obs_count=(8, 12), noise_sigma=0.15, separability=0.8, k_max=10,
        ),
        seed=seed,
    )


def meta_config(algorithm, inner_steps, **overrides):
    settings = dict(
        algorithm=algorithm, inner_lr=0.5, outer_lr=0.01, inner_steps=inner_steps,
        n_way=4, k_support=1, k_query=2, tasks_per_batch=4,
        total_tasks=100_000, validate_every=100, validation_tasks=30,
    )
    settings.update(overrides)
    return meta.MetaConfig(**settings)


class MetaRun:
    """The loop of ``meta.meta_train``, one task batch at a time.

    ``selftest.py`` checks that its validation trace equals meta_train's.
    """

    def __init__(self, corpus, config, seed):
        self.config, self.seed = config, seed
        in_channels = sum(g.channels for g in corpus.manifest.groups if g.kind == "dynamic")
        if config.algorithm == "timl_noenc":
            in_channels += 3
        model = nn.RawSeriesModel(TINY, in_channels)
        self.learner = meta.MetaLearner(config, model, corpus.manifest.group_order())
        self.params = self.learner.init_meta_params(seeding.rng_from(seed, seeding.STREAM_INIT))
        self.pool = episodes.episode_pool(corpus, "train")
        self.episode_config = config.episode_config(seed)
        self.validation_tasks = episodes.build_meta_validation(
            corpus, self.episode_config, count=config.validation_tasks, seed=seed
        )
        self.film_keys = {k for k in self.params if k.startswith("backbone/film/")}
        self.outer = train.Adam(config.outer_lr)
        self.encoder_opt = train.Adam(config.encoder_lr) if self.film_keys else None
        self.tasks_seen = 0
        self.batch_losses = []
        self.trace = []

    def train_batch(self):
        batch = []
        for _ in range(self.config.tasks_per_batch):
            task = episodes.sample_episode(self.pool, self.episode_config, self.tasks_seen)
            batch.append((self.tasks_seen, task))
            self.tasks_seen += 1
        grads, stats = self.learner.meta_gradient(self.params, batch, self.seed)
        self.outer.step(self.params, {k: v for k, v in grads.items() if k not in self.film_keys})
        if self.encoder_opt is not None:
            self.encoder_opt.step(self.params, {k: v for k, v in grads.items() if k in self.film_keys})
        self.batch_losses.append(stats["loss"])
        return len(batch)

    def validation_due(self):
        return self.tasks_seen % self.config.validate_every == 0

    def validate(self):
        acc, loss = self.learner.evaluate_tasks(self.params, self.validation_tasks, self.seed)
        self.trace.append(
            {"tasks_seen": self.tasks_seen, "mean_query_accuracy": acc, "mean_query_loss": loss}
        )
        return len(self.validation_tasks)


def step_times(records, kind, cal):
    return [seconds for seconds, _ in records.of((kind,), cal)]


class MetaWorkload:
    train_kinds = ("batch",)

    def __init__(self, name, algorithm, inner_steps, trace_batches, probe):
        self.name, self.algorithm, self.inner_steps = name, algorithm, inner_steps
        self.trace_batches = trace_batches
        self.probe = probe

    def step_times(self, records, cal=False):
        return step_times(records, "batch", cal)

    def setup(self, seed):
        self.run = MetaRun(meta_corpus(seed), meta_config(self.algorithm, self.inner_steps), seed)
        self.last = None

    def warmup(self):
        self.run.train_batch()
        self.run.learner.evaluate_tasks(self.run.params, self.run.validation_tasks[:1], self.run.seed)
        self.run.batch_losses.clear()

    def next_op(self):
        if self.last == "batch" and self.run.validation_due():
            self.last = "eval"
            return "eval", self.run.validate
        self.last = "batch"
        return "batch", self.run.train_batch

    def final_ops(self):
        return [] if self.last == "eval" else [("eval", self.run.validate)]

    def traced_ops(self):
        ops = [("batch", self.run.train_batch)] * self.trace_batches
        return ops + [("eval", self.run.validate)]

    def outputs(self):
        return {"batch_losses": self.run.batch_losses, "trace": self.run.trace}

    def problems(self):
        out = []
        if not all(_finite(x) for x in self.run.batch_losses):
            out.append("non-finite meta-batch loss")
        if not self.run.trace:
            out.append("no validation pass ran")
        for row in self.run.trace:
            if not (_in_unit(row["mean_query_accuracy"]) and _finite(row["mean_query_loss"])):
                out.append(f"bad validation row {row}")
        return out

    def reference_outputs(self):
        total = 8 if self.algorithm == "maml" else 4
        config = meta_config(
            self.algorithm, self.inner_steps, total_tasks=total, validate_every=4, validation_tasks=4
        )
        _, info = meta.meta_train(meta_corpus(CHECK_SEED), config, CHECK_SEED, model_config=TINY)
        return {"trace": info["trace"], "best_at": info["best_at"]}

    def table(self, rec):
        return {
            "meta_tasks_per_s": rec.rate("batch", "1/s"),
            "meta_batch_ms_p50": rec.p50("batch"),
            "meta_batch_ms_tail": rec.tail("batch"),
            "eval_tasks_per_s": rec.rate("eval", "1/s"),
        }

    def cleanup(self):
        pass


# ---------------------------------------------------------------------------
# masked-autoencoder pre-training, then token fine-tuning (criterion 8, part c)
# ---------------------------------------------------------------------------

SSL_BATCH = 32
SSL_VALIDATE_EVERY = 20
SSL_BATCHES_PER_CYCLE = 40
FINETUNE_K = 20
FINETUNE_EPOCHS = 8


def ssl_corpus(seed):
    return data.generate_synthetic(
        data.SynthConfig(
            regions=["R1", "R2"], finetune_region="T1",
            n_classes=6, n_level4=4, n_level3=2,
            samples_per_class=250, finetune_samples_per_class=100,
            majority_boost=2.5,
            groups=[data.GroupSpec("s1", 2, "dynamic"), data.GroupSpec("s2", 3, "dynamic")],
            obs_count=(8, 12), noise_sigma=0.22, separability=0.7, k_max=10,
        ),
        seed=seed,
    )


def ssl_pieces():
    spec = tokens.group_spec(("location", 3, "static"), ("s1", 2, "dynamic"), ("s2", 3, "dynamic"))
    regime = tokens.xts_regime(16, max_timesteps=16)
    autoencoder = ssl.MaskedAutoencoder(
        nn.TransformerConfig(16, 2, 32, 1, 1, 64), spec, regime, "cross_attention"
    )
    return spec, regime, autoencoder


def ssl_config(**overrides):
    settings = dict(
        variant="cross_attention", plan=ssl.xts_plan("mixed"), learning_rate=3e-3,
        batch_size=SSL_BATCH, validate_every=SSL_VALIDATE_EVERY, patience=15, max_batches=150,
    )
    settings.update(overrides)
    return ssl.SSLConfig(**settings)


class SSLRun:
    """The loop of ``ssl.pretrain_ssl``, one batch at a time, plus fine-tuning.

    Past the end of one pass over the training split it starts another with a
    fresh order, so a run can last as long as the benchmark needs.
    ``selftest.py`` checks that its first-pass trace equals pretrain_ssl's.
    """

    def __init__(self, corpus, seed, config=None):
        self.corpus, self.seed = corpus, seed
        spec, regime, self.autoencoder = ssl_pieces()
        self.config = config or ssl_config()
        pool = corpus.pretrain_pool()
        self.train = data.subset_by_split(pool, "train")
        self.validation = data.subset_by_split(pool, "validation")
        self.test = data.subset_by_split(corpus.finetune_pool(), "test")
        self.stats = ssl.normalization_stats(self.train, spec)
        self.params = self.autoencoder.init_params(seeding.rng_from(seed, seeding.STREAM_INIT))
        self.optimizer = train.Adam(self.config.learning_rate)
        self.classifier = ssl.TokenClassifier(
            nn.TransformerConfig(16, 2, 32, 1, 0, 64), spec, regime, self.stats
        )
        self.finetune_size = len(train.kshot_subset(
            data.subset_by_split(corpus.finetune_pool(), "train"), FINETUNE_K, seed
        ))
        self.per_pass = math.ceil(len(self.train) / self.config.batch_size)
        self.batches_seen = 0
        self.order = None
        self.trace, self.reports = [], []
        self.last_loss = None
        self.finetuned = None

    def mae_batch(self):
        n_pass, position = divmod(self.batches_seen, self.per_pass)
        if position == 0:
            path = (seeding.STREAM_BATCHING,) if n_pass == 0 else (seeding.STREAM_BATCHING, n_pass)
            self.order = seeding.rng_from(self.seed, *path).permutation(len(self.train))
        start = position * self.config.batch_size
        chunk = [self.train[i] for i in self.order[start : start + self.config.batch_size]]
        rng = seeding.rng_from(self.seed, seeding.STREAM_MASKING, self.batches_seen)
        self.last_loss, grads = ssl.mae_step(
            self.params, self.autoencoder, chunk, self.config.plan, rng, self.stats
        )
        self.optimizer.step(self.params, grads)
        self.batches_seen += 1
        return len(chunk)

    def validation_due(self):
        return (
            self.batches_seen % self.config.validate_every == 0
            or self.batches_seen % self.per_pass == 0
        )

    def validate(self):
        val_loss = ssl.evaluate_mae_loss(
            self.params, self.autoencoder, self.validation, self.config.plan, self.seed, self.stats
        )
        self.trace.append(
            {"batches_seen": self.batches_seen, "train_loss": self.last_loss, "val_loss": val_loss}
        )
        return len(self.validation)

    def finetune(self, max_epochs=FINETUNE_EPOCHS):
        best, report, info = train.finetune(
            self.corpus, self.classifier, ssl.encoder_backbone(self.params),
            train.split_lr(3e-3, 1e-4), k=FINETUNE_K, seed=self.seed, max_epochs=max_epochs,
        )
        self.finetuned = (best, report, info)
        return self.finetune_size * len(info["trace"])

    def predict(self):
        best, report, info = self.finetuned
        preds = train.predictions(self.classifier, best, self.test, info["classes"])
        labels = [s.label for s in self.test]
        agree = sum(p == y for p, y in zip(preds, labels)) / len(labels)
        self.reports.append((report.metric_map(), agree))
        return len(preds)


class SSLWorkload:
    name = "ssl-finetune"
    train_kinds = ("mae", "finetune")
    probe = ("python", "arrays")

    def step_times(self, records, cal=False):
        return step_times(records, "mae", cal)

    def setup(self, seed):
        self.run = SSLRun(ssl_corpus(seed), seed)
        self.plan = []
        self.last = None

    def warmup(self):
        self.run.mae_batch()
        self.run.finetune(max_epochs=1)
        self.run.predict()
        self.run.reports.clear()

    def _cycle(self):
        ops = []
        for _ in range(SSL_BATCHES_PER_CYCLE):
            ops.append(("mae", self.run.mae_batch))
            ops.append(("eval?", None))
        return ops + [("finetune", self.run.finetune), ("predict", self.run.predict)]

    def next_op(self):
        while True:
            if not self.plan:
                self.plan = self._cycle()
            kind, fn = self.plan.pop(0)
            if kind != "eval?":
                self.last = kind
                return kind, fn
            if self.run.validation_due():
                self.last = "eval"
                return "eval", self.run.validate

    def final_ops(self):
        ops = []
        if not self.run.trace or self.run.trace[-1]["batches_seen"] != self.run.batches_seen:
            ops.append(("eval", self.run.validate))
        if self.last == "finetune":
            ops.append(("predict", self.run.predict))
        elif not self.run.reports:
            ops += [("finetune", self.run.finetune), ("predict", self.run.predict)]
        return ops

    def traced_ops(self):
        return [("mae", self.run.mae_batch)] * SSL_VALIDATE_EVERY + [
            ("eval", self.run.validate),
            ("finetune", self.run.finetune),
            ("predict", self.run.predict),
        ]

    def outputs(self):
        return {"trace": self.run.trace, "reports": self.run.reports}

    def problems(self):
        out = []
        if not self.run.trace or not self.run.reports:
            out.append("no validation or fine-tuning pass ran")
        for row in self.run.trace:
            if not (_finite(row["train_loss"]) and _finite(row["val_loss"])):
                out.append(f"non-finite SSL loss {row}")
        for metrics, agree in self.run.reports:
            if not all(_in_unit(v) for k, v in metrics.items() if k != "kappa"):
                out.append(f"fine-tune report out of range {metrics}")
            if agree != metrics["overall_accuracy"]:
                out.append(f"test predictions give {agree}, report says {metrics['overall_accuracy']}")
        return out

    def reference_outputs(self):
        corpus = ssl_corpus(CHECK_SEED)
        spec, regime, autoencoder = ssl_pieces()
        config = ssl_config(validate_every=2, max_batches=4)
        params, stats, info = ssl.pretrain_ssl(corpus, autoencoder, config, CHECK_SEED)
        classifier = ssl.TokenClassifier(nn.TransformerConfig(16, 2, 32, 1, 0, 64), spec, regime, stats)
        _, report, ft_info = train.finetune(
            corpus, classifier, ssl.encoder_backbone(params), train.split_lr(3e-3, 1e-4),
            k=5, seed=CHECK_SEED, max_epochs=3,
        )
        return {
            "ssl_trace": info["trace"],
            "finetune_report": report.metric_map(),
            "finetune_epochs": len(ft_info["trace"]),
        }

    def table(self, rec):
        return {
            "ssl_samples_per_s": rec.rate("mae", "1/s"),
            "ssl_batch_ms_p50": rec.p50("mae"),
            "ssl_batch_ms_tail": rec.tail("mae"),
            "ssl_eval_samples_per_s": rec.rate("eval", "1/s"),
            "finetune_samples_per_s": rec.rate("finetune", "1/s"),
            "predict_samples_per_s": rec.rate("predict", "1/s"),
        }

    def cleanup(self):
        pass


# ---------------------------------------------------------------------------
# the command line pipeline, in process, through files
# ---------------------------------------------------------------------------

MODEL_BLOCK = {"embed_dim": 16, "num_heads": 2, "hidden_dim": 32}
PIPELINE_SIZES = {
    # parcels per class and region, then the training lengths of each mode
    "run": dict(per_class=100, ft_per_class=60, transfer_epochs=1, meta_tasks=4,
                meta_validation=4, kshots=[1, 5], ft_epochs=3),
    "check": dict(per_class=24, ft_per_class=24, transfer_epochs=1, meta_tasks=4,
                  meta_validation=4, kshots=[1, 2], ft_epochs=2),
}


def pipeline_configs(seed, size):
    """The five CLI configs of one pipeline pass, with paths relative to cwd."""
    s = PIPELINE_SIZES[size]
    seeds = [seed, seed + 1]
    base = {"schema_version": 1, "dataset": "corpus.jsonl", "out": "runs"}
    synth = dict(base, mode="synth-data", seeds=[seed], synth={
        "regions": ["R1", "R2"], "finetune_region": "T1", "n_classes": 6,
        "n_level3": 2, "n_level4": 4, "samples_per_class": s["per_class"],
        "finetune_samples_per_class": s["ft_per_class"],
        "groups": [{"name": "s2", "channels": 4, "kind": "dynamic"}],
        "obs_count": [8, 12], "noise_sigma": 0.15, "separability": 0.8, "k_max": 10,
    })
    transfer = dict(base, mode="pretrain-transfer", seeds=seeds, model=MODEL_BLOCK, transfer={
        "learning_rate": 3e-3, "batch_size": 64, "max_epochs": s["transfer_epochs"], "patience": 15,
    })
    pretrain = dict(base, mode="pretrain-meta", seeds=seeds, model=MODEL_BLOCK, meta={
        "algorithm": "fomaml", "inner_lr": 0.5, "outer_lr": 0.01, "inner_steps": 4,
        "n_way": 4, "k_support": 1, "k_query": 2, "tasks_per_batch": 4,
        "total_tasks": s["meta_tasks"], "validate_every": s["meta_tasks"],
        "validation_tasks": s["meta_validation"],
    })
    checkpoint = f"runs/{cli.config_hash(pretrain)}/{{seed}}/checkpoints/meta_fomaml.fsml"
    finetune = dict(base, mode="finetune", seeds=seeds, label="fomaml", model=MODEL_BLOCK, finetune={
        "source": "checkpoint", "checkpoint": checkpoint, "regime": "split_lr",
        "lr_head": 1e-3, "lr_backbone": 1e-4, "kshots": s["kshots"], "max_epochs": s["ft_epochs"],
    })
    evaluate = {"schema_version": 1, "mode": "evaluate", "out": "runs", "evaluate": {
        "runs": [f"runs/{cli.config_hash(finetune)}"], "out_csv": "runs/results.csv",
    }}
    return [synth, transfer, pretrain, finetune, evaluate]


def results_rows(configs):
    with open(configs[-1]["evaluate"]["out_csv"], newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def run_pipeline(configs):
    """Run the modes in order; returns (artifact paths, results.csv rows)."""
    artifacts = []
    for config in configs:
        artifacts.extend(cli.run(config))
    return artifacts, results_rows(configs)


class CLIWorkload:
    """Each CLI mode is one operation; five in a row make a pipeline pass."""

    name = "cli-pipeline"
    modes = ("synth-data", "pretrain-transfer", "pretrain-meta", "finetune", "evaluate")
    train_kinds = modes
    probe = ("python", "arrays")

    def __init__(self, workdir):
        self.workdir = workdir
        self.home = os.getcwd()

    def _enter(self, sub):
        path = os.path.join(self.workdir, sub)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        os.chdir(path)

    def setup(self, seed):
        self.seed = seed
        self.configs = pipeline_configs(seed, "run")
        self.passes = []
        self.queue, self.artifacts = [], []
        self.io = {"load": [], "save": []}
        self._time_corpus_io()

    def _time_corpus_io(self):
        """Time the runner's corpus reads and writes; two calls per mode at most."""
        io = self.io

        def load_corpus(path):
            start = time.perf_counter()
            corpus = data.load_corpus(path)
            io["load"].append((time.perf_counter() - start, len(corpus)))
            return corpus

        def save_corpus(corpus, path):
            start = time.perf_counter()
            result = data.save_corpus(corpus, path)
            io["save"].append((time.perf_counter() - start, len(corpus)))
            return result

        cli.load_corpus, cli.save_corpus = load_corpus, save_corpus

    def _mode_op(self, config):
        def op():
            self.artifacts.extend(cli.run(config))
            if config["mode"] == "evaluate":
                self.passes.append((self.artifacts, results_rows(self.configs)))
                self.artifacts = []
            if config["mode"] == "synth-data":
                return self.io["save"][-1][1]  # parcels in the corpus the pass wrote
            return 0

        return config["mode"], op

    def warmup(self):
        """A check-sized pass at the run seed, in its own directory."""
        self._enter("warmup")
        run_pipeline(pipeline_configs(self.seed, "check"))
        self._enter("run")
        self.io["load"].clear()
        self.io["save"].clear()

    def next_op(self):
        if not self.queue:
            self.queue = [self._mode_op(c) for c in self.configs]
        return self.queue.pop(0)

    def final_ops(self):
        rest, self.queue = self.queue, []
        return rest

    def traced_ops(self):
        return [self._mode_op(c) for c in self.configs]

    def step_times(self, records, cal=False):
        """Pass durations: each synth-data op opens a pass, evaluate closes it."""
        passes, current = [], 0.0
        for kind, seconds in records.timeline(self.modes, cal):
            current = seconds if kind == "synth-data" else current + seconds
            if kind == "evaluate":
                passes.append(current)
        return passes

    def outputs(self):
        return {"passes": self.passes}

    def problems(self):
        if not self.passes:
            return ["no pipeline pass ran"]
        out = []
        first_artifacts, first_rows = self.passes[0]
        for artifacts, rows in self.passes[1:]:
            if artifacts != first_artifacts or rows != first_rows:
                out.append("a pipeline pass differs from the first pass with the same seed")
                break
        missing = [p for p in first_artifacts if not os.path.isfile(p)]
        if missing:
            out.append(f"missing artifacts {missing[:3]}")
        for row in first_rows[2:]:
            for cell in row[1:]:
                mean, _, std = cell.partition("±")
                if not (_in_unit(float(mean)) and _finite(float(std))):
                    out.append(f"bad results.csv cell {cell!r}")
        if len(first_rows) < 3:
            out.append("results.csv has no result row")
        return out

    def reference_outputs(self):
        here = os.getcwd()
        self._enter("check")
        try:
            artifacts, rows = run_pipeline(pipeline_configs(CHECK_SEED, "check"))
        finally:
            os.chdir(here)
        return {"artifacts": artifacts, "results_csv": rows}

    def table(self, rec):
        def io_rate(kind):
            seconds = sum(t for t, _ in self.io[kind])
            parcels = sum(n for _, n in self.io[kind])
            return (parcels / seconds if seconds else None, "1/s", len(self.io[kind]))

        passes = [1000 * s for s in self.step_times(rec)]
        table = {
            "pipeline_ms_p50": (statistics.median(passes) if passes else None, "ms", len(passes)),
        }
        for mode in self.modes:
            table[f"mode_ms_p50.{mode}"] = rec.p50(mode)
        return table | {
            "corpus_load_parcels_per_s": io_rate("load"),
            "corpus_save_parcels_per_s": io_rate("save"),
        }

    def cleanup(self):
        cli.load_corpus, cli.save_corpus = data.load_corpus, data.save_corpus
        os.chdir(self.home)
        shutil.rmtree(self.workdir, ignore_errors=True)


def make(name, workdir):
    if name == "meta-maml":
        return MetaWorkload(name, "maml", 4, trace_batches=6, probe=("python", "arrays"))
    if name == "meta-timl-enc":
        # Its time is in large-array arithmetic, so it is calibrated on that part alone.
        return MetaWorkload(name, "timl_enc", 1, trace_batches=2, probe=("arrays",))
    if name == "ssl-finetune":
        return SSLWorkload()
    if name == "cli-pipeline":
        return CLIWorkload(workdir)
    raise KeyError(name)
