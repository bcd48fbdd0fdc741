"""Per-layer metrics of a traced run, named after the fsml modules.

``table`` turns a ``Tracer.summary`` into the full table printed by the
traced run: busy time, self time and calls of every layer, plus the named
metrics below.  ``PER_LAYER`` is the subset reported in the result line.
Every time in it is non-zero on every workload; layer-specific activity is
reported there as counts, which may be zero where a workload does not use
the layer.  Which end-to-end metric each should move is in README.md.
"""

from __future__ import annotations

import importlib

from tracer import KERNELS, TENSOR_PRIMITIVES

LAYERS = (
    "tensor", "kernels", "nn", "data", "tokens", "episodes", "seeding",
    "metrics", "train", "meta", "ssl", "cli",
)

# (name, unit, better)
PER_LAYER = (
    ("tensor.nodes_recorded", "count", "lower"),
    ("tensor.primitive_calls", "count", "lower"),
    ("tensor.primitive_self_s", "s", "lower"),
    ("tensor.primitive_us_mean", "us", "lower"),
    ("tensor.grad_calls", "count", "lower"),
    ("tensor.grad_create_graph_calls", "count", "lower"),
    ("tensor.grad_prefix_nodes", "count", "lower"),
    ("tensor.grad_self_s", "s", "lower"),
    ("kernels.calls", "count", "lower"),
    ("kernels.self_s", "s", "lower"),
    ("kernels.computed_bytes", "B", "lower"),
    ("nn.self_s", "s", "lower"),
    ("nn.encode_s", "s", "lower"),
    ("nn.sinusoidal_table_calls", "count", "lower"),
    ("nn.pack_cells_padded", "count", "lower"),
    ("nn.checkpoint_bytes", "B", "lower"),
    ("tokens.encode_tokens_calls", "count", "lower"),
    ("ssl.build_mask_calls", "count", "lower"),
    ("ssl.token_cells_padded", "count", "lower"),
    ("episodes.sample_calls", "count", "lower"),
    ("episodes.fallback_tasks", "count", "lower"),
    ("meta.meta_gradient_calls", "count", "lower"),
    ("meta.inner_adapt_calls", "count", "lower"),
    ("train.adam_step_s", "s", "lower"),
    ("train.adam_step_calls", "count", "lower"),
    ("train.epochs_run", "count", "lower"),
    ("train.epochs_past_best", "count", "lower"),
    ("data.corpus_bytes", "B", "lower"),
    ("cli.artifact_bytes", "B", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
)


def fsml_modules():
    return [importlib.import_module(f"fsml.{layer}") for layer in LAYERS]


def _ratio(num, den):
    return num / den if den else None


def table(summary, overhead_ratio):
    by_name, by_layer = summary["by_name"], summary["by_layer"]
    counters, parent_named = summary["counters"], summary["parent_named"]

    def calls(name):
        return by_name.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return by_name.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return by_name.get(name, (0, 0.0, 0.0))[2]

    def count(key):
        return counters.get(key, 0)

    rows = {}
    for layer in LAYERS:
        n, busy, own = by_layer.get(layer, (0, 0.0, 0.0))
        rows[f"{layer}.calls"] = (n, "count")
        rows[f"{layer}.busy_s"] = (busy, "s")
        rows[f"{layer}.self_s"] = (own, "s")

    prims = [f"tensor.{p}" for p in TENSOR_PRIMITIVES]
    prim_calls = sum(calls(p) for p in prims)
    prim_self = sum(self_s(p) for p in prims)
    meta_tasks = count("meta.meta_tasks")
    rows.update({
        "tensor.nodes_recorded": (count("tensor.nodes_recorded"), "count"),
        "tensor.nodes_per_meta_task": (
            _ratio(count("meta.MetaLearner.meta_gradient.nodes"), meta_tasks), "count"
        ),
        "tensor.primitive_calls": (prim_calls, "count"),
        "tensor.primitive_self_s": (prim_self, "s"),
        "tensor.primitive_us_mean": (_ratio(1e6 * prim_self, prim_calls), "us"),
        "tensor.grad_calls": (count("tensor.grad_calls"), "count"),
        "tensor.grad_create_graph_calls": (count("tensor.grad_create_graph_calls"), "count"),
        "tensor.grad_prefix_nodes": (count("tensor.grad_prefix_nodes"), "count"),
        "tensor.grad_self_s": (self_s("tensor.grad"), "s"),
    })
    for p in TENSOR_PRIMITIVES:
        if calls(f"tensor.{p}"):
            rows[f"tensor.calls.{p}"] = (calls(f"tensor.{p}"), "count")

    rows["kernels.calls"] = (count("kernels.calls"), "count")
    for k in KERNELS:
        rows[f"kernels.{k}_s"] = (total(f"kernels.{k}"), "s")
    rows["kernels.computed_bytes"] = (count("kernels.computed_bytes"), "B")

    real, padded = count("nn.pack_cells_real"), count("nn.pack_cells_padded")
    rows.update({
        "nn.encode_s": (total("nn.encode"), "s"),
        "nn.sinusoidal_table_calls": (calls("nn.sinusoidal_table"), "count"),
        "nn.sinusoidal_table_s": (total("nn.sinusoidal_table"), "s"),
        "nn.pack_batch_s": (total("nn.pack_batch"), "s"),
        "nn.pack_cells_real": (real, "count"),
        "nn.pack_cells_padded": (padded, "count"),
        "nn.pack_fill_ratio": (_ratio(real, padded), "ratio"),
        "nn.checkpoint_save_s": (total("nn.save_checkpoint"), "s"),
        "nn.checkpoint_load_s": (total("nn.load_checkpoint"), "s"),
        "nn.checkpoint_bytes": (count("nn.checkpoint_bytes"), "B"),
    })

    rows.update({
        "tokens.encode_tokens_calls": (calls("tokens.encode_tokens"), "count"),
        "tokens.encode_tokens_s": (total("tokens.encode_tokens"), "s"),
        "tokens.temporal_encoding_s": (total("tokens.temporal_encoding"), "s"),
    })

    real, padded = count("ssl.token_cells_real"), count("ssl.token_cells_padded")
    rows.update({
        "ssl.encode_token_batch_s": (total("ssl.encode_token_batch"), "s"),
        "ssl.build_mask_calls": (calls("ssl.build_mask"), "count"),
        "ssl.build_mask_s": (total("ssl.build_mask"), "s"),
        "ssl.mae_step_s": (total("ssl.mae_step"), "s"),
        "ssl.eval_s": (total("ssl.evaluate_mae_loss"), "s"),
        "ssl.token_cells_real": (real, "count"),
        "ssl.token_cells_padded": (padded, "count"),
        "ssl.token_fill_ratio": (_ratio(real, padded), "ratio"),
    })

    rows.update({
        "episodes.sample_calls": (calls("episodes.sample_episode"), "count"),
        "episodes.sample_s": (total("episodes.sample_episode"), "s"),
        "episodes.validation_build_s": (total("episodes.build_meta_validation"), "s"),
        "episodes.fallback_tasks": (count("episodes.fallback_tasks"), "count"),
    })

    meta_gradient_calls = calls("meta.MetaLearner.meta_gradient")
    # Outer Adam steps: made by meta_train, or by the benchmark's own copy of
    # its loop, which calls Adam.step at top level.
    outer_step = parent_named.get(("train.Adam.step", "meta.meta_train"), 0.0)
    if meta_gradient_calls:
        outer_step += parent_named.get(("train.Adam.step", ""), 0.0)
    rows.update({
        "meta.meta_gradient_calls": (meta_gradient_calls, "count"),
        "meta.meta_gradient_s": (total("meta.MetaLearner.meta_gradient"), "s"),
        "meta.inner_adapt_calls": (calls("meta.MetaLearner.inner_adapt"), "count"),
        "meta.inner_adapt_s": (total("meta.MetaLearner.inner_adapt"), "s"),
        "meta.outer_grad_s": (
            parent_named.get(("tensor.grad", "meta.MetaLearner.task_query_stats"), 0.0), "s"
        ),
        "meta.evaluate_s": (total("meta.MetaLearner.evaluate_tasks"), "s"),
        "meta.outer_step_s": (outer_step, "s"),
    })

    rows.update({
        "train.adam_step_s": (total("train.Adam.step"), "s"),
        "train.adam_step_calls": (calls("train.Adam.step"), "count"),
        "train.eval_s": (total("train.evaluate_loss_accuracy"), "s"),
        "train.predict_s": (total("train.predictions"), "s"),
        "train.finetune_s": (total("train.finetune"), "s"),
        "train.epochs_run": (count("train.epochs_run"), "count"),
        "train.epochs_past_best": (count("train.epochs_past_best"), "count"),
        "metrics.build_report_s": (total("metrics.build_report"), "s"),
    })

    rows.update({
        "data.generate_s": (total("data.generate_synthetic"), "s"),
        "data.save_corpus_s": (total("data.save_corpus"), "s"),
        "data.load_corpus_s": (total("data.load_corpus"), "s"),
        "data.corpus_bytes": (count("data.corpus_bytes"), "B"),
        "data.resample_majority_s": (total("data.resample_majority"), "s"),
    })
    for name in sorted(by_name):
        if name.startswith("cli.mode."):
            rows[f"cli.mode_s.{name[len('cli.mode.'):]}"] = (total(name), "s")
    rows["cli.artifacts_written"] = (count("cli.artifacts_written"), "count")
    rows["cli.artifact_bytes"] = (count("cli.artifact_bytes"), "B")

    rows["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    rows["trace.coverage"] = (summary["coverage"], "ratio")
    rows["trace.spans"] = (summary["spans"], "count")
    return rows


def per_layer(rows):
    return {name: {"value": rows[name][0], "unit": unit} for name, unit, _ in PER_LAYER}


def print_table(workload, rows):
    print(f"# {workload} traced per-layer metrics")
    for name, (value, unit) in rows.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<40} {shown:>14} {unit}")
