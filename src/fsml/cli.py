"""Experiment runner: config-driven data generation, pre-training (transfer /
meta / masked-autoencoder), k-shot fine-tuning sweeps, evaluation tables and
plot-data emission.

Configs are strict JSON: a ``schema_version`` field is required and unknown
keys are rejected with field-level diagnostics.  Every artifact embeds the
config hash and seed; reruns with identical (config, seed) are byte-identical.

Output layout: ``<out>/<config_hash>/<seed>/{checkpoints,traces,reports}``
plus ``<out>/<config_hash>/results.csv`` for sweep summaries.  Each artifact's
directories are created and the file is replaced atomically (``schema.writing``).

``FSML_THREADS`` (an integer >= 1) caps how many seeds run as parallel
worker processes.  A fine-tune loads its corpus once and hands the loaded
corpus to every seed, in process or pickled with each worker's job.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Annotated, Literal

from . import nn
from . import ssl as ssl_mod
from . import train as train_mod
from .data import (
    GroupSpec,
    SynthConfig,
    drop_categorical,
    generate_synthetic,
    load_corpus,
    save_corpus,
)
from .errors import ContractError, FsmlError, ParseError, require_counts
from .meta import MetaConfig, meta_train
from .metrics import seed_mean_std
from .nn import RawSeriesModel, TransformerConfig, load_checkpoint, save_checkpoint
from .schema import BAD, decode, fields_of, parse, read_file, read_object, write_json, writing
from .seeding import STREAM_INIT, rng_from
from .ssl import MaskedAutoencoder, SSLConfig, TokenClassifier, encoder_backbone, pretrain_ssl
from .tokens import POSITION_SOURCES, REGIME_VARIANTS, ChannelGroupSpec, EncodingRegime
from .train import FineTuneRegime, TransferConfig, finetune, pretrain_transfer

SCHEMA_VERSION = 1

# Each mode with its required and its allowed keys: its blocks and the dataset.
_MODE_KEYS = {
    "synth-data": ({"synth", "dataset"}, {"synth", "dataset"}),
    "pretrain-transfer": ({"dataset"}, {"dataset", "model", "transfer"}),
    "pretrain-meta": ({"dataset", "meta"}, {"dataset", "model", "meta"}),
    "pretrain-ssl": ({"dataset", "ssl"}, {"dataset", "model", "ssl"}),
    "finetune": ({"dataset", "finetune"}, {"dataset", "model", "finetune"}),
    "evaluate": ({"evaluate"}, {"evaluate"}),
    "tune": ({"dataset", "tune"}, {"dataset", "model", "tune"}),
}


# ---------------------------------------------------------------------------
# the config: its root keys and each block are read into one dataclass whose
# init fields are the keys (see fsml.schema)
# ---------------------------------------------------------------------------


@dataclass
class ConfigRoot:
    """The config's keys besides the blocks; ``_MODE_KEYS`` says which modes take a dataset."""

    schema_version: int
    mode: str
    dataset: str | None = None
    out: str = "runs"
    seeds: Annotated[list[int], "a list of integers"] = field(
        default_factory=lambda: [0, 1, 42, 123, 1234]
    )
    label: str | None = None  # the fine-tune's report label, else the checkpoint's algorithm

    def __post_init__(self):
        if self.schema_version != SCHEMA_VERSION:
            raise ContractError(f"schema_version: expected {SCHEMA_VERSION}")
        if self.mode not in _MODE_KEYS:
            raise ContractError(f"mode: expected one of {tuple(_MODE_KEYS)}, got {self.mode!r}")
        if not self.seeds or len(set(self.seeds)) != len(self.seeds):
            raise ContractError("seeds: must be non-empty and distinct")
        if min(self.seeds) < 0:  # a seed sequence takes no negative entropy
            raise ContractError("seeds: must be a list of integers >= 0")
        if self.label is not None and (not self.label or "/" in self.label or "\\" in self.label):
            # a label names files under reports/
            raise ContractError("label: must be a non-empty name without '/' or '\\'")


@dataclass
class SourceBlock:
    """Where a fine-tune's backbone comes from.  ``tune.finetune`` reads only
    these keys: tune sets its own regime and budget."""

    source: Literal["scratch", "checkpoint"] = "scratch"
    checkpoint: str | None = None  # "{seed}" is replaced by the run seed

    def __post_init__(self):
        if self.source == "checkpoint" and self.checkpoint is None:
            raise ContractError('checkpoint: required when source is "checkpoint"')


@dataclass
class FinetuneBlock(SourceBlock):
    regime: Literal[train_mod.FINETUNE_MODES] = "same_lr"
    lr_head: float = 1e-3
    lr_backbone: float | None = None  # 0 for head_only, else lr_head
    kshots: list = field(default_factory=lambda: [20])
    max_epochs: int = train_mod.FINETUNE_MAX_EPOCHS
    batch_size: int = train_mod.FINETUNE_BATCH_SIZE
    fine_tune: FineTuneRegime = field(init=False)

    def __post_init__(self):
        super().__post_init__()
        require_counts(max_epochs=self.max_epochs, batch_size=self.batch_size)
        if not (self.kshots and all(type(k) is int and k > 0 for k in self.kshots)):
            raise ContractError("kshots: must be a non-empty list of positive integers")
        if len(set(self.kshots)) != len(self.kshots):
            raise ContractError("kshots: must be distinct")
        self.fine_tune = _finetune_regime(self.regime, self.lr_head, self.lr_backbone)


@dataclass
class TuneBlock:
    space: dict[str, tuple[float, float]]  # each rate of the regime: [low, high], drawn log-uniformly
    finetune: SourceBlock = field(default_factory=SourceBlock)
    trials: int = 8
    k: int = 20
    regime: Literal[train_mod.FINETUNE_MODES] = "split_lr"
    max_epochs: int = 20

    def __post_init__(self):
        require_counts(trials=self.trials, k=self.k, max_epochs=self.max_epochs)
        rates = {"lr_head", "lr_backbone"} if self.regime == "split_lr" else {"lr_head"}
        for name in [*sorted(self.space.keys() - rates), *sorted(rates - self.space.keys())]:
            raise ContractError(f"space.{name}: {'required' if name in rates else 'unknown rate'} "
                                f"for regime {self.regime!r}, which takes {' and '.join(sorted(rates))}")
        for name, (low, high) in sorted(self.space.items()):
            if not 0 < low < high < float("inf"):
                raise ContractError(f"space.{name}: must satisfy 0 < low < high, got [{low}, {high}]")


@dataclass
class EvaluateBlock:
    runs: list[str]  # <out>/<config_hash> directories, each holding */reports/*.json
    out_csv: str | None = None
    plots: str | None = None

    def __post_init__(self):
        if not self.runs:
            raise ContractError("runs: must be a non-empty list")


@dataclass
class SSLBlock(SSLConfig):
    """SSLConfig's keys plus the ones that build the encoding regime, token
    spec, mask plan and decoder; the decoder is the variant."""

    variant: str = field(init=False)
    plan: ssl_mod.MaskPlan = field(init=False)
    regime: Literal[REGIME_VARIANTS] = "xts"
    position_source: Literal[POSITION_SOURCES] = "day_of_year"
    max_timesteps: int = 366
    location_token: bool = True
    strategy: Literal[ssl_mod.PLAN_STRATEGIES] = "mixed"
    decoder: Literal[ssl_mod.DECODERS] = "self_attention"

    def __post_init__(self):
        super().__post_init__()
        require_counts(max_timesteps=self.max_timesteps)
        self.variant = self.decoder
        self.plan = (ssl_mod.xts_plan if self.regime == "xts" else ssl_mod.base_plan)(self.strategy)


_BLOCKS = {
    "model": TransformerConfig,
    "synth": SynthConfig,
    "transfer": TransferConfig,
    "meta": MetaConfig,
    "ssl": SSLBlock,
    "finetune": FinetuneBlock,
    "tune": TuneBlock,
    "evaluate": EvaluateBlock,
}


def _finetune_regime(mode, lr_head, lr_backbone=None):
    """The fine-tune regime; the backbone's rate defaults to 0 for head_only, else lr_head."""
    if lr_backbone is None:
        lr_backbone = 0.0 if mode == "head_only" else lr_head
    return FineTuneRegime(mode, lr_head, lr_backbone)


def config_hash(config):
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def validate_config(config):
    """Collect field-level problems; return the list (empty when valid)."""
    return _read_config(config)[0]


def _read_config(config):
    """The config's problems, its root, and each block of its mode read into
    its dataclass (an absent optional block takes the defaults)."""
    problems = []
    root_keys, top = fields_of(ConfigRoot), config
    if isinstance(config, dict):  # the root's keys here, the mode's blocks below
        top = {key: value for key, value in config.items() if key in root_keys}
    root = read_object(top, ConfigRoot, "", problems)
    if root is BAD:
        return problems, None, {}
    required, allowed = _MODE_KEYS[root.mode]
    keys = {key for key in config if key not in root_keys or key == "dataset"}
    problems += [f"{key}: required for mode {root.mode}" for key in sorted(required - keys)]
    problems += [f"{key}: unknown key for mode {root.mode}" for key in sorted(keys - allowed)]
    blocks = {}
    for name, cls in _BLOCKS.items():
        if name in config and name in allowed:
            blocks[name] = read_object(config[name], cls, name, problems)
        elif name in allowed and name not in required:
            blocks[name] = cls()
    return problems, root, blocks


def _checkpoint_meta(chash, seed, **extra):
    """Checkpoint metadata: config hash, seed and ``extra``, every value a string."""
    meta = {"config_hash": chash, "seed": seed, **extra}
    return {key: str(value) for key, value in meta.items()}


def _worker_count():
    raw = os.environ.get("FSML_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ContractError(f"FSML_THREADS: expected an integer >= 1, got {raw!r}")
    return workers


def _save_run(out, name, arrays, trace, columns, chash, seed, **meta):
    """A training run's checkpoint, with metadata ``meta`` (a pretrain-* run's
    is read back by ``_load_init``), and its trace in the seed's directory; their paths."""
    root = Path(out, chash, str(seed))
    ckpt, trace_csv = root / "checkpoints" / f"{name}.fsml", root / "traces" / f"{name}.csv"
    save_checkpoint(ckpt, arrays, meta=_checkpoint_meta(chash, seed, **meta))
    _write_trace_csv(trace_csv, trace, columns, chash, seed)
    return [str(ckpt), str(trace_csv)]


def _write_trace_csv(path, rows, fieldnames, chash, seed):
    """CSV trace with an identifying comment header; deterministic bytes."""
    with writing(path) as fh:
        fh.write(f"# config={chash} seed={seed}\n")
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows({k: repr(v) if isinstance(v, float) else v for k, v in row.items()}
                         for row in rows)
    return path


def _token_spec(manifest, include_location):
    """The manifest's groups in its order, a static group only with the location token."""
    groups = [g for g in manifest.groups if include_location or g.kind != "static"]
    if include_location and not any(g.kind == "static" for g in groups):
        groups.insert(0, GroupSpec("location", 3, "static"))
    return ChannelGroupSpec(tuple(groups))


# ---------------------------------------------------------------------------
# mode implementations
# ---------------------------------------------------------------------------


def _mode_synth_data(config, blocks, chash):
    corpus = generate_synthetic(blocks["synth"], seed=config.seeds[0])
    save_corpus(corpus, config.dataset)
    return [config.dataset]


def _mode_pretrain_transfer(config, blocks, chash):
    corpus = load_corpus(config.dataset)
    model_config = blocks["model"]
    model = RawSeriesModel.of_corpus(model_config, corpus.manifest)
    artifacts = []
    for seed in config.seeds:
        params, info = pretrain_transfer(corpus, model, blocks["transfer"], seed)
        artifacts += _save_run(
            config.out, "transfer", nn.params_to_arrays(params), info["trace"],
            ["epoch", "train_loss", "val_loss", "val_accuracy"], chash, seed,
            kind="raw", algorithm="transfer", model=json.dumps(asdict(model_config)),
            in_channels=model.in_channels,
        )
    return artifacts


def _mode_pretrain_meta(config, blocks, chash):
    corpus = load_corpus(config.dataset)
    model_config, m_config = blocks["model"], blocks["meta"]
    artifacts = []
    for seed in config.seeds:
        backbone, info = meta_train(corpus, m_config, seed, model_config=model_config)
        artifacts += _save_run(
            config.out, f"meta_{m_config.algorithm}",
            nn.params_to_arrays(nn.join_params(backbone, {})), info["trace"],
            ["tasks_seen", "mean_query_accuracy", "mean_query_loss"], chash, seed,
            kind="raw", algorithm=m_config.algorithm, model=json.dumps(asdict(model_config)),
            in_channels=info["model"].in_channels,
        )
    return artifacts


def _mode_pretrain_ssl(config, blocks, chash):
    model_config, s_config = blocks["model"], blocks["ssl"]
    if model_config.decoder_blocks < 1:
        model_config = replace(model_config, decoder_blocks=1)
    try:  # the ssl block has checked the rest, so only the model's width can fail
        regime = EncodingRegime(s_config.regime, model_config.embed_dim,
                                s_config.position_source, s_config.max_timesteps)
    except ContractError as err:
        raise ContractError(f"model.embed_dim: {err}") from None
    corpus = load_corpus(config.dataset)
    spec = _token_spec(corpus.manifest, include_location=s_config.location_token)
    autoencoder = MaskedAutoencoder(model_config, spec, regime, s_config.decoder)
    artifacts = []
    for seed in config.seeds:
        params, stats, info = pretrain_ssl(corpus, autoencoder, s_config, seed)
        arrays = nn.params_to_arrays(nn.join_params(encoder_backbone(params), {}))
        for gname, (mean, std) in stats.items():
            arrays[f"norm/{gname}/mean"] = mean
            arrays[f"norm/{gname}/std"] = std
        name = f"ssl_{s_config.variant}"
        artifacts += _save_run(
            config.out, name, arrays, info["trace"], ["batches_seen", "train_loss", "val_loss"],
            chash, seed, kind="tokens", algorithm=name, model=json.dumps(asdict(model_config)),
            regime=json.dumps(asdict(regime)), spec=json.dumps([asdict(g) for g in spec.groups]),
        )
    return artifacts


# The metadata a pretrain-* checkpoint of each kind holds beside its model sizes.
_INIT_METADATA = {"raw": {"in_channels": int},
                  "tokens": {"regime": EncodingRegime, "spec": list[GroupSpec]}}


def _load_init(finetune_block, model_config, corpus, seed):
    """Resolve the fine-tuning model and initial backbone for one seed.  A
    checkpoint whose inputs do not fit the corpus is a ParseError naming it."""
    if finetune_block.source == "scratch":
        model = RawSeriesModel.of_corpus(model_config, corpus.manifest)
        backbone = model.init_backbone(rng_from(seed, STREAM_INIT))
        return model, backbone, "no_pretraining"
    path = finetune_block.checkpoint.replace("{seed}", str(seed))
    arrays, meta_info = load_checkpoint(path)
    kind = meta_info.get("kind", "tokens")  # a missing kind is listed as missing below
    if kind not in _INIT_METADATA:
        raise ParseError(f"checkpoint {path!r}: bad 'kind' metadata {kind!r}: "
                         f"expected one of {sorted(_INIT_METADATA)}")
    missing = [k for k in ("model", "kind", *_INIT_METADATA[kind]) if k not in meta_info]
    if missing:
        raise ContractError(
            f"checkpoint {path!r} lacks the pre-training metadata {missing}; "
            "fine-tune from a pretrain-* checkpoint"
        )
    meta = {}
    for key, cls in {"model": TransformerConfig, **_INIT_METADATA[kind]}.items():
        where = f"checkpoint {path!r}: bad {key!r} metadata"
        # a spec's group records may carry the legacy categorical key
        meta[key] = parse(drop_categorical(decode(meta_info[key], where), where), cls, where, key)
    algorithm = meta_info.get("algorithm", "transfer")
    if kind == "raw":
        model = RawSeriesModel.of_corpus(meta["model"], corpus.manifest, algorithm)
        if meta["in_channels"] != model.in_channels:
            raise ParseError(f"checkpoint {path!r}: in_channels {meta['in_channels']} does not fit "
                             f"the corpus, whose raw-series model takes {model.in_channels}")
    else:
        try:
            spec = ChannelGroupSpec(tuple(meta["spec"]))
        except ContractError as err:
            raise ParseError(f"checkpoint {path!r}: bad 'spec' metadata: spec: {err}") from None
        declared = {g.name: g.channels for g in corpus.manifest.groups if g.kind == "dynamic"}
        for g in spec.dynamic_groups:
            if declared.get(g.name) != g.channels:
                raise ParseError(f"checkpoint {path!r}: spec group {g.name} at {g.channels} "
                                 f"channels does not fit the corpus, whose manifest declares "
                                 f"the dynamic groups {declared}")
        stats = {g.name: (arrays[f"norm/{g.name}/mean"], arrays[f"norm/{g.name}/std"])
                 for g in spec.dynamic_groups if f"norm/{g.name}/mean" in arrays}
        model = TokenClassifier(meta["model"], spec, meta["regime"], stats)
    # Checkpoints written before attention keys lost their bias still carry
    # ``*/attn/k/b``; no model reads it.
    backbone = {k: nn.Tensor(v) for k, v in nn.split_params(arrays)[0].items()
                if not k.endswith("/attn/k/b")}
    # Each array of the model's own initial backbone must be there at its
    # shape, and no other; a fresh generator draws that backbone, so no run's
    # stream moves.
    needed = model.init_backbone(rng_from(0, STREAM_INIT))
    extra = sorted(backbone.keys() - needed.keys())
    if extra:
        raise ParseError(f"checkpoint {path!r}: backbone/{extra[0]}: the model has no such parameter")
    for key, init in needed.items():
        if key not in backbone:
            raise ParseError(f"checkpoint {path!r}: backbone/{key}: missing")
        if backbone[key].shape != init.shape:
            raise ParseError(f"checkpoint {path!r}: backbone/{key}: has shape "
                             f"{backbone[key].shape}, the model needs {init.shape}")
    return model, backbone, algorithm


def _finetune_one_seed(seed, block, model_config, label, chash, out, corpus):
    model, backbone, algorithm = _load_init(block, model_config, corpus, seed)
    label = algorithm if label is None else label
    root = Path(out, chash, str(seed))
    results = {}
    for k in block.kshots:
        params, report, info = finetune(
            corpus, model, backbone, block.fine_tune, k, seed,
            max_epochs=block.max_epochs, batch_size=block.batch_size,
        )
        write_json(root / "reports" / f"{label}_k{k}.json",
                   {"config_hash": chash, "seed": seed, "label": label, "k": k, **report.to_json()})
        _save_run(out, f"{label}_k{k}", nn.params_to_arrays(params), info["trace"],
                  ["epoch", "val_loss", "val_accuracy"], chash, seed, k=k, label=label)
        results[k] = report
    return seed, label, {k: r.metric_map() for k, r in results.items()}


def _mode_finetune(config, blocks, chash):
    workers = _worker_count()
    block = blocks["finetune"]
    run_seed = partial(
        _finetune_one_seed, block=block, model_config=blocks["model"],
        label=config.label, chash=chash, out=config.out, corpus=load_corpus(config.dataset),
    )
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(run_seed, config.seeds))
    else:
        rows = [run_seed(seed) for seed in config.seeds]
    label = rows[0][1]
    kshots = sorted(block.kshots)
    per_k = {
        k: [metric_maps[k]["overall_accuracy"] for _, _, metric_maps in rows]
        for k in kshots
    }
    results_path = Path(config.out) / chash / "results.csv"
    _write_results_csv(results_path, [(label, per_k)], kshots, chash)
    return [str(results_path)]


def _mean_std(per_k, kshots):
    """Each k's mean and (n-1) std over seeds as results.csv and the plot series print them."""
    return [[f"{x:.6f}" for x in seed_mean_std(per_k[k])] for k in kshots]


def _write_results_csv(path, rows, kshots, chash):
    with writing(path) as fh:
        fh.write(f"# config={chash}\n")
        writer = csv.writer(fh)
        writer.writerow(["algorithm"] + [f"k{k}" for k in kshots])
        for label, per_k in rows:
            writer.writerow([label] + ["±".join(cell) for cell in _mean_std(per_k, kshots)])
    return path


@dataclass(frozen=True)
class ReportRow:
    """What evaluate reads of a fine-tune report; the rest varies with the hierarchy's levels."""

    label: str
    k: int
    seed: int
    overall_accuracy: float


def _read_report(path):
    where = f"report {str(path)!r}"
    payload = decode(read_file(path, "report"), where)
    if isinstance(payload, dict):  # only the keys evaluate merges
        payload = {key: value for key, value in payload.items() if key in fields_of(ReportRow)}
    return parse(payload, ReportRow, where)


def _mode_evaluate(config, blocks, chash):
    """Merge per-seed report JSONs from prior runs into one results table."""
    block = blocks["evaluate"]
    collected, found = {}, {}  # found: the report of each (label, k, seed)
    for i, run_dir in enumerate(block.runs):
        reports = sorted(Path(run_dir).glob("*/reports/*.json"))
        if not reports:  # such as a mistyped config hash
            raise ContractError(f"evaluate.runs[{i}]: no */reports/*.json under {run_dir!r}")
        for report_file in reports:
            row = _read_report(report_file)
            key = (row.label, row.k, row.seed)
            if key in found:  # a run listed twice, or two runs of one label
                raise ContractError(f"evaluate.runs: seed {row.seed} of {row.label!r} at k={row.k} is "
                                    f"reported twice, by {str(found[key])!r} "
                                    f"and {str(report_file)!r}")
            found[key] = report_file
            collected.setdefault(row.label, {}).setdefault(row.k, []).append(row.overall_accuracy)
    kshots = sorted({k for per_k in collected.values() for k in per_k})
    rows = [
        (label, {k: collected[label].get(k, [float("nan")]) for k in kshots})
        for label in sorted(collected)
    ]
    default = Path(config.out, chash, "results.csv")
    results_path = default if block.out_csv is None else Path(block.out_csv)
    _write_results_csv(results_path, rows, kshots, chash)
    artifacts = [str(results_path)]
    if block.plots:
        artifacts.extend(emit_plots(rows, kshots, block.plots))
    return artifacts


def _mode_tune(config, blocks, chash):
    corpus = load_corpus(config.dataset)
    block = blocks["tune"]
    seed = config.seeds[0]
    model, backbone, _ = _load_init(block.finetune, blocks["model"], corpus, seed)

    def objective(trial_config):  # the regime's rates, as TuneBlock checked
        regime = _finetune_regime(block.regime, **trial_config)
        _, _, info = finetune(corpus, model, backbone, regime, block.k, seed,
                              max_epochs=block.max_epochs)
        return max(row["val_accuracy"] for row in info["trace"])

    best, score, log = train_mod.random_search(block.space, block.trials, seed, objective)
    root = Path(config.out) / chash
    log_path = _write_trace_csv(
        root / "tuning_log.csv",
        [dict(row, score="" if row["score"] is None else row["score"],
              config=json.dumps(row["config"], sort_keys=True)) for row in log],
        ["trial", "status", "score", "config"], chash, seed,
    )
    best_path = write_json(root / "best_config.json",
                           {"best": best, "score": score, "config_hash": chash, "seed": seed})
    return [str(log_path), str(best_path)]


def emit_plots(rows, kshots, out_dir):
    """Each ``(label, per_k)`` row's accuracy-vs-k series, for external plotting tools."""
    written = []
    for label, per_k in rows:
        path = Path(out_dir) / f"accuracy_vs_k_{label}.csv"
        with writing(path) as fh:
            writer = csv.writer(fh)
            writer.writerow(["k", "mean", "std"])
            writer.writerows([k, *cell] for k, cell in zip(kshots, _mean_std(per_k, kshots)))
        written.append(str(path))
    return written


_MODE_IMPL = {
    "synth-data": _mode_synth_data,
    "pretrain-transfer": _mode_pretrain_transfer,
    "pretrain-meta": _mode_pretrain_meta,
    "pretrain-ssl": _mode_pretrain_ssl,
    "finetune": _mode_finetune,
    "evaluate": _mode_evaluate,
    "tune": _mode_tune,
}


def run(config):
    """Execute one experiment config; returns the artifact paths."""
    problems, root, blocks = _read_config(config)
    if problems:
        raise ContractError("invalid config: " + "; ".join(problems))
    try:
        Path(root.out).mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ContractError(f"out: cannot create directory {root.out}: {err.strerror}") from None
    return _MODE_IMPL[root.mode](root, blocks, config_hash(config))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="fsml", description="few-shot crop-type classification lab"
    )
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--mode", help="override the config's mode")
    parser.add_argument("--seed", type=int, help="run only this seed")
    parser.add_argument("--out", help="override the output directory")
    args = parser.parse_args(argv)

    try:
        config = decode(Path(args.config).read_bytes(), f"config {args.config!r}")
    except (OSError, ParseError) as err:
        print(f"error: cannot read config: {err}", file=sys.stderr)
        return 2
    if isinstance(config, dict):  # any other value is run()'s "must be an object"
        if args.mode:
            config["mode"] = args.mode
        if args.seed is not None:
            config["seeds"] = [args.seed]
        if args.out:
            config["out"] = args.out

    try:
        artifacts = run(config)
    except FsmlError as err:
        print(f"error [{type(err).__name__}]: {err}", file=sys.stderr)
        return 1
    for path in artifacts:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
