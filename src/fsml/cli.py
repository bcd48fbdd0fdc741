"""Experiment runner: config-driven data generation, pre-training (transfer /
meta / masked-autoencoder), k-shot fine-tuning sweeps, evaluation tables and
plot-data emission.

Configs are strict JSON: a ``schema_version`` field is required and unknown
keys are rejected with field-level diagnostics.  Every artifact embeds the
config hash and seed; reruns with identical (config, seed) are byte-identical.

Output layout: ``<out>/<config_hash>/<seed>/{checkpoints,traces,reports}``
plus ``<out>/<config_hash>/results.csv`` for sweep summaries.

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
from dataclasses import asdict, fields, replace
from functools import partial
from pathlib import Path
from typing import get_type_hints

from . import nn
from . import ssl as ssl_mod
from . import train as train_mod
from .data import (
    GroupSpec,
    SynthConfig,
    generate_synthetic,
    group_from_record,
    load_corpus,
    save_corpus,
)
from .errors import ContractError, FsmlError, ParseError
from .meta import MetaConfig, TaskAwareRawModel, meta_train
from .metrics import seed_mean_std
from .nn import RawSeriesModel, TransformerConfig, load_checkpoint, save_checkpoint
from .seeding import STREAM_INIT, rng_from
from .ssl import (
    MaskedAutoencoder,
    SSLConfig,
    TokenClassifier,
    encoder_backbone,
    pretrain_ssl,
)
from .tokens import ChannelGroupSpec, EncodingRegime
from .train import FineTuneRegime, TransferConfig, finetune, pretrain_transfer

SCHEMA_VERSION = 1
MODES = (
    "synth-data",
    "pretrain-transfer",
    "pretrain-meta",
    "pretrain-ssl",
    "finetune",
    "evaluate",
    "tune",
)
DEFAULT_SEEDS = [0, 1, 42, 123, 1234]

_COMMON_KEYS = {"schema_version", "mode", "out", "seeds", "label"}
_MODE_KEYS = {
    "synth-data": ({"synth", "dataset"}, {"synth", "dataset"}),
    "pretrain-transfer": ({"dataset"}, {"dataset", "model", "transfer"}),
    "pretrain-meta": ({"dataset", "meta"}, {"dataset", "model", "meta"}),
    "pretrain-ssl": ({"dataset", "ssl"}, {"dataset", "model", "ssl"}),
    "finetune": ({"dataset", "finetune"}, {"dataset", "model", "finetune"}),
    "evaluate": ({"evaluate"}, {"evaluate"}),
    "tune": ({"dataset", "tune"}, {"dataset", "model", "tune"}),
}


def _field_types(cls, drop=()):
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls) if f.name not in drop}


# Blocks that pass their keys straight to a config dataclass: the accepted
# keys and their value types are the dataclass fields.  The ssl block's
# variant and plan come from CLI-only keys, which also build the encoding
# regime and token spec.
_FIELD_TYPES = {
    "model": _field_types(TransformerConfig),
    "synth": _field_types(SynthConfig),
    "transfer": _field_types(TransferConfig),
    "meta": _field_types(MetaConfig),
    "ssl": _field_types(SSLConfig, drop={"variant", "plan"}),
}
# Every accepted key of each block, with the type of its value.
_BLOCK_TYPES = {
    **_FIELD_TYPES,
    "ssl": {
        **_FIELD_TYPES["ssl"], "regime": str, "position_source": str, "max_timesteps": int,
        "location_token": bool, "strategy": str, "decoder": str,
    },
    "finetune": {
        "source": str, "checkpoint": str, "regime": str, "lr_head": float, "lr_backbone": float,
        "kshots": list, "max_epochs": int, "batch_size": int, "validation_limit": int,
    },
    "tune": {
        "finetune": dict, "space": dict, "trials": int, "k": int, "regime": str, "max_epochs": int,
    },
    "evaluate": {"runs": list, "out_csv": str, "plots": str},
}
_REQUIRED_BLOCK_KEYS = {"meta": {"algorithm"}, "tune": {"space"}, "evaluate": {"runs"}}
# tune fine-tunes with its own regime and budget; it reads only these keys.
_TUNE_FINETUNE_TYPES = {
    k: _BLOCK_TYPES["finetune"][k] for k in ("source", "checkpoint", "validation_limit")
}
_GROUP_TYPES = _field_types(GroupSpec)
# JSON values accepted for each type (bools count only as booleans).
_JSON_TYPES = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    bool: ((bool,), "a boolean"),
    list: ((list,), "a list"),
    tuple: ((list,), "a list"),
    dict: ((dict,), "an object"),
}


def config_hash(config):
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def validate_config(config):
    """Collect field-level problems; return the list (empty when valid)."""
    problems = []
    if not isinstance(config, dict):
        return ["config root must be a JSON object"]
    if config.get("schema_version") != SCHEMA_VERSION:
        problems.append(f"schema_version: expected {SCHEMA_VERSION}")
    mode = config.get("mode")
    if mode not in MODES:
        problems.append(f"mode: expected one of {MODES}, got {mode!r}")
        return problems
    required, allowed = _MODE_KEYS[mode]
    keys = set(config) - _COMMON_KEYS
    for missing in sorted(required - keys):
        problems.append(f"{missing}: required for mode {mode}")
    for unknown in sorted(keys - allowed):
        problems.append(f"{unknown}: unknown key for mode {mode}")
    if "seeds" in config:
        seeds = config["seeds"]
        if not isinstance(seeds, list) or not all(
            isinstance(s, int) and not isinstance(s, bool) for s in seeds
        ):
            problems.append("seeds: must be a list of integers")
        elif not seeds or len(set(seeds)) != len(seeds):
            problems.append("seeds: must be non-empty and distinct")
    blocks = {}  # path -> well-typed object, for the checks of its entries
    for block, types in _BLOCK_TYPES.items():
        if block in config:
            required = _REQUIRED_BLOCK_KEYS.get(block, set())
            if _object_problems(config[block], block, types, required, problems):
                blocks[block] = config[block]
    nested = blocks.get("tune", {}).get("finetune")
    if nested is not None and _object_problems(
        nested, "tune.finetune", _TUNE_FINETUNE_TYPES, set(), problems
    ):
        blocks["tune.finetune"] = nested
    for path in ("finetune", "tune.finetune"):
        if path in blocks:
            problems.extend(_finetune_source_problems(blocks[path], path))
    kshots = blocks.get("finetune", {}).get("kshots")
    if kshots is not None and not (kshots and all(type(k) is int and k > 0 for k in kshots)):
        problems.append("finetune.kshots: must be a non-empty list of positive integers")
    runs = blocks.get("evaluate", {}).get("runs", [])
    if not all(isinstance(r, str) for r in runs):
        problems.append("evaluate.runs: must be a list of strings")
    for i, group in enumerate(blocks.get("synth", {}).get("groups", [])):
        _object_problems(group, f"synth.groups[{i}]", _GROUP_TYPES, {"name", "channels"}, problems)
    return problems


def _object_problems(obj, path, types, required, problems):
    """Append the problems of a JSON object whose keys map to ``types``;
    return whether it is well-formed."""
    if not isinstance(obj, dict):
        problems.append(f"{path}: must be an object")
        return False
    found = [f"{path}.{key}: unknown key" for key in sorted(set(obj) - set(types))]
    found += [f"{path}.{key}: required" for key in sorted(required - set(obj))]
    for key in sorted(set(obj) & set(types)):
        accepted, name = _JSON_TYPES[types[key]]
        value = obj[key]
        if not isinstance(value, accepted) or (isinstance(value, bool) and bool not in accepted):
            found.append(f"{path}.{key}: must be {name}")
    problems.extend(found)
    return not found


def _finetune_source_problems(block, path):
    source = block.get("source", "scratch")
    if source not in ("scratch", "checkpoint"):
        return [f'{path}.source: must be "scratch" or "checkpoint"']
    if source == "checkpoint" and "checkpoint" not in block:
        return [f'{path}.checkpoint: required when source is "checkpoint"']
    return []


def _model_config(config):
    return nn.small_config(**config.get("model", {}))


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


def _seed_dir(out, chash, seed):
    root = Path(out) / chash / str(seed)
    for sub in ("checkpoints", "traces", "reports"):
        (root / sub).mkdir(parents=True, exist_ok=True)
    return root


def _token_spec(manifest, include_location):
    groups = list(manifest.groups)
    if include_location and not any(g.kind == "static" for g in groups):
        groups.insert(0, GroupSpec("location", 3, "static"))
    return ChannelGroupSpec(tuple(groups))


# ---------------------------------------------------------------------------
# mode implementations
# ---------------------------------------------------------------------------


def _mode_synth_data(config, chash, seeds, out):
    block = dict(config["synth"])
    if "groups" in block:
        block["groups"] = [GroupSpec(**g) for g in block["groups"]]
    if "obs_count" in block:
        block["obs_count"] = tuple(block["obs_count"])
    corpus = generate_synthetic(SynthConfig(**block), seed=seeds[0])
    save_corpus(corpus, config["dataset"])
    return [config["dataset"]]


def _mode_pretrain_transfer(config, chash, seeds, out):
    corpus = load_corpus(config["dataset"])
    model_config = _model_config(config)
    t_config = TransferConfig(**config.get("transfer", {}))
    groups = tuple(corpus.manifest.group_order())
    model = RawSeriesModel(model_config, corpus.manifest.dynamic_channels(), groups)
    artifacts = []
    for seed in seeds:
        root = _seed_dir(out, chash, seed)
        params, info = pretrain_transfer(corpus, model, t_config, seed)
        ckpt = root / "checkpoints" / "transfer.fsml"
        save_checkpoint(
            ckpt,
            nn.params_to_arrays(params),
            meta=_checkpoint_meta(
                chash, seed, kind="raw", algorithm="transfer",
                model=json.dumps(asdict(model_config)), in_channels=model.in_channels,
            ),
        )
        trace = root / "traces" / "transfer.csv"
        train_mod.write_trace_csv(
            trace, info["trace"], ["epoch", "train_loss", "val_loss", "val_accuracy"],
            config_hash=chash, seed=seed,
        )
        artifacts.extend([str(ckpt), str(trace)])
    return artifacts


def _mode_pretrain_meta(config, chash, seeds, out):
    corpus = load_corpus(config["dataset"])
    model_config = _model_config(config)
    m_config = MetaConfig(**config["meta"])
    artifacts = []
    for seed in seeds:
        root = _seed_dir(out, chash, seed)
        backbone, info = meta_train(corpus, m_config, seed, model_config=model_config)
        ckpt = root / "checkpoints" / f"meta_{m_config.algorithm}.fsml"
        arrays = {f"backbone/{k}": v.values for k, v in backbone.items()}
        save_checkpoint(
            ckpt, arrays,
            meta=_checkpoint_meta(
                chash, seed, kind="raw", algorithm=m_config.algorithm,
                model=json.dumps(asdict(model_config)),
                in_channels=info["learner"].model.in_channels,
            ),
        )
        trace = root / "traces" / f"meta_{m_config.algorithm}.csv"
        train_mod.write_trace_csv(
            trace, info["trace"],
            ["tasks_seen", "mean_query_accuracy", "mean_query_loss"],
            config_hash=chash, seed=seed,
        )
        artifacts.extend([str(ckpt), str(trace)])
    return artifacts


def _ssl_pieces(config, corpus, model_config):
    block = config["ssl"]
    regime = EncodingRegime(
        variant=block.get("regime", "xts"),
        d_emb=model_config.embed_dim,
        position_source=block.get("position_source", "day_of_year"),
        max_timesteps=block.get("max_timesteps", 366),
    )
    spec = _token_spec(corpus.manifest, include_location=block.get("location_token", True))
    plan = (
        ssl_mod.xts_plan(block.get("strategy", "mixed"))
        if regime.variant == "xts"
        else ssl_mod.base_plan(block.get("strategy", "mixed"))
    )
    decoder = block.get("decoder", "self_attention")
    autoencoder = MaskedAutoencoder(model_config, spec, regime, decoder)
    s_config = SSLConfig(
        variant=decoder, plan=plan,
        **{k: v for k, v in block.items() if k in _FIELD_TYPES["ssl"]},
    )
    return autoencoder, s_config, regime, spec


def _mode_pretrain_ssl(config, chash, seeds, out):
    corpus = load_corpus(config["dataset"])
    model_config = _model_config(config)
    if model_config.decoder_blocks < 1:
        model_config = replace(model_config, decoder_blocks=1)
    autoencoder, s_config, regime, spec = _ssl_pieces(config, corpus, model_config)
    artifacts = []
    for seed in seeds:
        root = _seed_dir(out, chash, seed)
        params, stats, info = pretrain_ssl(corpus, autoencoder, s_config, seed)
        arrays = {f"backbone/{k}": v.values for k, v in encoder_backbone(params).items()}
        for gname, (mean, std) in stats.items():
            arrays[f"norm/{gname}/mean"] = mean
            arrays[f"norm/{gname}/std"] = std
        ckpt = root / "checkpoints" / f"ssl_{s_config.variant}.fsml"
        save_checkpoint(
            ckpt, arrays,
            meta=_checkpoint_meta(
                chash, seed, kind="tokens", algorithm=f"ssl_{s_config.variant}",
                model=json.dumps(asdict(model_config)),
                regime=json.dumps(asdict(regime)),
                spec=json.dumps([asdict(g) for g in spec.groups]),
            ),
        )
        trace = root / "traces" / f"ssl_{s_config.variant}.csv"
        train_mod.write_trace_csv(
            trace, info["trace"], ["batches_seen", "train_loss", "val_loss"],
            config_hash=chash, seed=seed,
        )
        artifacts.extend([str(ckpt), str(trace)])
    return artifacts


def _load_init(finetune_block, model_config, corpus, seed):
    """Resolve the fine-tuning model and initial backbone for one seed."""
    source = finetune_block.get("source", "scratch")
    groups = tuple(corpus.manifest.group_order())
    if source == "scratch":
        model = RawSeriesModel(model_config, corpus.manifest.dynamic_channels(), groups)
        backbone = model.init_backbone(rng_from(seed, STREAM_INIT))
        return model, backbone, "no_pretraining"
    path = finetune_block["checkpoint"].replace("{seed}", str(seed))
    arrays, meta_info = load_checkpoint(path)
    kind_keys = ("in_channels",) if meta_info.get("kind") == "raw" else ("regime", "spec")
    missing = [k for k in ("model", "kind") + kind_keys if k not in meta_info]
    if missing:
        raise ContractError(
            f"checkpoint {path!r} lacks the pre-training metadata {missing}; "
            "fine-tune from a pretrain-* checkpoint"
        )
    saved_config = TransformerConfig(**json.loads(meta_info["model"]))
    # Checkpoints written before attention keys lost their bias still carry
    # ``*/attn/k/b``; no model reads it.
    backbone = {
        k.split("/", 1)[1]: nn.Tensor(v)
        for k, v in arrays.items()
        if k.startswith("backbone/") and not k.endswith("/attn/k/b")
    }
    algorithm = meta_info.get("algorithm", "transfer")
    if meta_info["kind"] == "raw":
        base = RawSeriesModel(saved_config, int(meta_info["in_channels"]), groups)
        if algorithm in ("timl_enc", "timl_noenc"):
            model = TaskAwareRawModel(base, algorithm, groups)
        else:
            model = base
    else:
        regime = EncodingRegime(**json.loads(meta_info["regime"]))
        try:
            spec = ChannelGroupSpec(tuple(group_from_record(g) for g in json.loads(meta_info["spec"])))
        except ValueError as err:
            raise ParseError(f"checkpoint {path!r}: {err}") from None
        stats = {
            g.name: (arrays[f"norm/{g.name}/mean"], arrays[f"norm/{g.name}/std"])
            for g in spec.dynamic_groups
            if f"norm/{g.name}/mean" in arrays
        }
        model = TokenClassifier(saved_config, spec, regime, stats)
    return model, backbone, algorithm


def _finetune_one_seed(job, corpus):
    (config, chash, seed, out) = job
    model_config = _model_config(config)
    block = config["finetune"]
    regime = FineTuneRegime(
        block.get("regime", "same_lr"),
        block.get("lr_head", 1e-3),
        block.get(
            "lr_backbone",
            0.0 if block.get("regime") == "head_only" else block.get("lr_head", 1e-3),
        ),
    )
    model, backbone, algorithm = _load_init(block, model_config, corpus, seed)
    label = config.get("label", algorithm)
    root = _seed_dir(out, chash, seed)
    results = {}
    for k in block.get("kshots", [20]):
        params, report, info = finetune(
            corpus, model, backbone, regime, k, seed,
            max_epochs=block.get("max_epochs", train_mod.FINETUNE_MAX_EPOCHS),
            batch_size=block.get("batch_size", train_mod.FINETUNE_BATCH_SIZE),
            validation_limit=block.get("validation_limit"),
        )
        report_path = root / "reports" / f"{label}_k{k}.json"
        payload = {"config_hash": chash, "seed": seed, "label": label, "k": k}
        payload.update(report.to_json())
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")
        train_mod.write_trace_csv(
            root / "traces" / f"{label}_k{k}.csv", info["trace"],
            ["epoch", "val_loss", "val_accuracy"], config_hash=chash, seed=seed,
        )
        ckpt = root / "checkpoints" / f"{label}_k{k}.fsml"
        save_checkpoint(
            ckpt, nn.params_to_arrays(params),
            meta=_checkpoint_meta(chash, seed, k=k, label=label),
        )
        results[k] = report
    return seed, label, {k: r.metric_map() for k, r in results.items()}


def _mode_finetune(config, chash, seeds, out):
    workers = _worker_count()
    run_seed = partial(_finetune_one_seed, corpus=load_corpus(config["dataset"]))
    jobs = [(config, chash, seed, out) for seed in seeds]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(run_seed, jobs))
    else:
        rows = [run_seed(job) for job in jobs]
    label = rows[0][1]
    kshots = sorted(config["finetune"].get("kshots", [20]))
    per_k = {
        k: [metric_maps[k]["overall_accuracy"] for _, _, metric_maps in rows]
        for k in kshots
    }
    results_path = Path(out) / chash / "results.csv"
    _write_results_csv(results_path, [(label, per_k)], kshots, chash)
    return [str(results_path)]


def _write_results_csv(path, rows, kshots, chash):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# config={chash}\n")
        writer = csv.writer(fh)
        writer.writerow(["algorithm"] + [f"k{k}" for k in kshots])
        for label, per_k in rows:
            cells = []
            for k in kshots:
                mean, std = seed_mean_std(per_k[k])
                cells.append(f"{mean:.6f}±{std:.6f}")
            writer.writerow([label] + cells)
    return path


def _mode_evaluate(config, chash, seeds, out):
    """Merge per-seed report JSONs from prior runs into one results table."""
    block = config["evaluate"]
    runs = block["runs"]  # list of <out>/<hash> directories
    collected = {}
    kshots = set()
    for run_dir in runs:
        for report_file in sorted(Path(run_dir).glob("*/reports/*.json")):
            with open(report_file, encoding="utf-8") as fh:
                payload = json.load(fh)
            label, k = payload["label"], int(payload["k"])
            kshots.add(k)
            collected.setdefault(label, {}).setdefault(k, []).append(
                payload["overall_accuracy"]
            )
    kshots = sorted(kshots)
    rows = [
        (label, {k: collected[label].get(k, [float("nan")]) for k in kshots})
        for label in sorted(collected)
    ]
    results_path = Path(block.get("out_csv", Path(out) / chash / "results.csv"))
    results_path.parent.mkdir(parents=True, exist_ok=True)
    _write_results_csv(results_path, rows, kshots, chash)
    plot_dir = block.get("plots")
    artifacts = [str(results_path)]
    if plot_dir:
        artifacts.extend(emit_plots(results_path, plot_dir))
    return artifacts


def _mode_tune(config, chash, seeds, out):
    corpus = load_corpus(config["dataset"])
    model_config = _model_config(config)
    block = config["tune"]
    finetune_block = dict(block.get("finetune", {}))
    k = block.get("k", 20)
    seed = seeds[0]
    model, backbone, _ = _load_init(finetune_block, model_config, corpus, seed)

    def objective(trial_config):
        mode = block.get("regime", "split_lr")
        if mode == "head_only":
            regime = FineTuneRegime("head_only", trial_config["lr_head"], 0.0)
        elif mode == "same_lr":
            regime = FineTuneRegime("same_lr", trial_config["lr_head"], trial_config["lr_head"])
        else:
            regime = FineTuneRegime("split_lr", trial_config["lr_head"], trial_config["lr_backbone"])
        _, _, info = finetune(
            corpus, model, backbone, regime, k, seed,
            max_epochs=block.get("max_epochs", 20),
            validation_limit=finetune_block.get("validation_limit"),
        )
        return max(row["val_accuracy"] for row in info["trace"])

    space = {name: tuple(bounds) for name, bounds in block["space"].items()}
    best, score, log = train_mod.random_search(
        space, block.get("trials", 8), seed, objective
    )
    root = Path(out) / chash
    root.mkdir(parents=True, exist_ok=True)
    log_path = root / "tuning_log.csv"
    with open(log_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# config={chash} seed={seed}\n")
        writer = csv.writer(fh)
        writer.writerow(["trial", "status", "score", "config"])
        for row in log:
            writer.writerow(
                [row["trial"], row["status"],
                 "" if row["score"] is None else repr(row["score"]),
                 json.dumps(row["config"], sort_keys=True)]
            )
    best_path = root / "best_config.json"
    with open(best_path, "w", encoding="utf-8") as fh:
        json.dump({"best": best, "score": score, "config_hash": chash, "seed": seed},
                  fh, sort_keys=True, indent=1)
        fh.write("\n")
    return [str(log_path), str(best_path)]


def emit_plots(results_csv, out_dir):
    """Per-algorithm accuracy-vs-k series files for external plotting tools."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(results_csv, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        print("warning: empty results file, no plot data emitted", file=sys.stderr)
        return []
    if header[:1] != ["algorithm"]:
        raise ParseError("row 1: expected header starting with 'algorithm'")
    kshots = [int(col[1:]) for col in header[1:]]
    written = []
    for row_no, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise ParseError(f"row {row_no}: expected {len(header)} columns, got {len(row)}")
        label = row[0]
        path = out_dir / f"accuracy_vs_k_{label}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k", "mean", "std"])
            for k, cell in zip(kshots, row[1:]):
                mean, _, std = cell.partition("±")
                writer.writerow([k, mean, std])
        written.append(str(path))
    if not written:
        print("warning: results file has no data rows", file=sys.stderr)
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
    problems = validate_config(config)
    if problems:
        raise ContractError("invalid config: " + "; ".join(problems))
    chash = config_hash(config)
    seeds = list(config.get("seeds", DEFAULT_SEEDS))
    out = config.get("out", "runs")
    Path(out).mkdir(parents=True, exist_ok=True)
    return _MODE_IMPL[config["mode"]](config, chash, seeds, out)


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
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot read config: {err}", file=sys.stderr)
        return 2
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
