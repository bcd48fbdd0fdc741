"""Per-layer tracing of the fsml package from outside its source.

The layers use from-imports (``from .tensor import grad``), so one function
object can be bound under many module globals: ``fsml.meta.grad``,
``fsml.ssl.grad`` and ``fsml.train.grad`` are separate bindings of
``fsml.tensor.grad``.  ``Tracer.install`` therefore rebinds every binding
site it finds in every ``fsml`` module, plus the ``fsml.tensor`` globals that
``Tensor`` methods and vjp closures call, plus methods on the package's
classes (``MetaLearner.meta_gradient``, ``Adam.step``, ...) and the
function table of the command line runner.  ``uninstall`` restores them.

Each call of a wrapped function records one span: id, name, start, end,
parent id, and whether an enclosing span of the same layer exists.  Spans
stay in memory until ``summary`` turns them into busy time, self time,
call counts and the deterministic counters recorded by the hooks below.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import os
import time
import types
from collections import defaultdict

# The primitive set of fsml.tensor (see its module docstring) plus grad.
TENSOR_PRIMITIVES = (
    "add", "sub", "mul", "div", "matmul", "transpose", "reshape", "concat",
    "slice_axis", "reduce_sum", "reduce_mean", "exp", "log", "sqrt", "power",
    "softmax", "relu", "gelu", "layer_norm", "embedding_lookup", "masked_fill",
)
KERNELS = ("gelu", "softmax_rows", "layer_norm_rows")
# Spans whose tape nodes are also counted on their own ("<name>.nodes").
NODE_SCOPES = {"meta.MetaLearner.meta_gradient"}
# Hot data classes whose methods only forward to module functions.
SKIPPED_CLASSES = {("tensor", "Tensor"), ("tensor", "_Node"), ("tensor", "Tape")}


def _layer_of(module_name):
    return module_name.rsplit(".", 1)[-1]


def _wanted(layer, name):
    """Which module-level functions get a span."""
    if layer == "tensor":
        return name in TENSOR_PRIMITIVES or name == "grad"
    if layer == "kernels":
        return name in KERNELS
    return not name.startswith("_")


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, outermost in layer)
        self.counters = defaultdict(int)
        self._stack = [-1]
        self._depth = defaultdict(int)
        self._ids = itertools.count()
        self._wrappers = {}  # id(original) -> wrapper
        self._restore = []  # (target, key, original, is_dict)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name):
        layer = name.split(".", 1)[0]
        hook = HOOKS.get(name)
        spans, stack, depth, ids = self.spans, self._stack, self._depth, self._ids
        counters = self.counters
        node_scope = name in NODE_SCOPES
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if node_scope:
                nodes_before = counters["tensor.nodes_recorded"]
            sid = next(ids)
            parent = stack[-1]
            d = depth[layer]
            depth[layer] = d + 1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[layer] = d
                spans.append((sid, name, start, end, parent, d == 0))
            if node_scope:
                counters[name + ".nodes"] += counters["tensor.nodes_recorded"] - nodes_before
            if hook is not None:
                hook(tracer, args, kwargs, result, parent)
            return result

        return functools.wraps(fn)(traced)

    def _wrapper_for(self, fn, name):
        wrapper = self._wrappers.get(id(fn))
        if wrapper is None:
            wrapper = self._wrappers[id(fn)] = self._wrap(fn, name)
        return wrapper

    def _set(self, target, key, value, is_dict=False):
        original = target[key] if is_dict else target.__dict__[key]
        self._restore.append((target, key, original, is_dict))
        if is_dict:
            target[key] = value
        else:
            setattr(target, key, value)

    def install(self, modules):
        """Rebind every fsml function binding in ``modules`` to a wrapper."""
        owners = {}  # id(function) -> span name, from the defining module
        for module in modules:
            layer = _layer_of(module.__name__)
            for key, value in vars(module).items():
                if isinstance(value, types.FunctionType) and value.__module__ == module.__name__:
                    if _wanted(layer, key):
                        owners[id(value)] = f"{layer}.{key}"
        for module in modules:
            layer = _layer_of(module.__name__)
            for key, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and id(value) in owners:
                    self._set(module, key, self._wrapper_for(value, owners[id(value)]))
                elif isinstance(value, type) and value.__module__ == module.__name__:
                    if (layer, value.__name__) in SKIPPED_CLASSES:
                        continue
                    for attr, member in list(vars(value).items()):
                        if isinstance(member, types.FunctionType) and not attr.startswith("__"):
                            name = f"{layer}.{value.__name__}.{attr}"
                            self._set(value, attr, self._wrapper_for(member, name))
            # The command line runner dispatches modes through a function table.
            for mode, fn in list(getattr(module, "_MODE_IMPL", {}).items()):
                wrapper = self._wrapper_for(fn, f"{layer}.mode.{mode}")
                self._set(module._MODE_IMPL, mode, wrapper, is_dict=True)
        tape_cls = next(m.Tape for m in modules if m.__name__.endswith(".tensor"))
        self._set(tape_cls, "__exit__", self._tape_exit(tape_cls.__exit__))

    def _tape_exit(self, original):
        counters = self.counters

        def __exit__(tape, *exc):
            counters["tensor.nodes_recorded"] += len(tape.nodes)
            return original(tape, *exc)

        return __exit__

    def uninstall(self):
        for target, key, original, is_dict in reversed(self._restore):
            if is_dict:
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore.clear()

    # -- output --------------------------------------------------------------

    def write_spans(self, path):
        """Write the recorded spans as gzipped tab-separated lines."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\n")
            for sid, name, start, end, parent, _ in self.spans:
                fh.write(f"{sid}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")

    def summary(self, wall_s):
        """Per-name and per-layer aggregates of the spans, plus counters."""
        child = defaultdict(float)
        names = {}
        for sid, name, start, end, parent, _ in self.spans:
            child[parent] += end - start
            names[sid] = name
        by_name = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        by_layer = defaultdict(lambda: [0, 0.0, 0.0])  # calls, busy, self
        root_s = 0.0
        parent_named = defaultdict(float)  # (name, parent name) -> total
        for sid, name, start, end, parent, outermost in self.spans:
            dur = end - start
            self_s = dur - child[sid]
            row = by_name[name]
            row[0] += 1
            row[1] += dur
            row[2] += self_s
            layer = by_layer[name.split(".", 1)[0]]
            layer[0] += 1
            layer[2] += self_s
            if outermost:
                layer[1] += dur
            if parent == -1:
                root_s += dur
            parent_named[(name, names.get(parent, ""))] += dur
        return {
            "by_name": dict(by_name),
            "by_layer": dict(by_layer),
            "parent_named": dict(parent_named),
            "counters": dict(self.counters),
            "coverage": root_s / wall_s if wall_s > 0 else 0.0,
            "spans": len(self.spans),
        }


# ---------------------------------------------------------------------------
# hooks: deterministic counters read from arguments and results
# ---------------------------------------------------------------------------


def _grad_hook(tracer, args, kwargs, result, parent):
    c = tracer.counters
    c["tensor.grad_calls"] += 1
    create_graph = kwargs.get("create_graph", args[2] if len(args) > 2 else False)
    if create_graph:
        c["tensor.grad_create_graph_calls"] += 1
    node = getattr(args[0], "node", None)
    if node is not None:
        c["tensor.grad_prefix_nodes"] += node.idx + 1


def _kernel_hook(tracer, args, kwargs, result, parent):
    c = tracer.counters
    c["kernels.calls"] += 1
    c["kernels.computed_bytes"] += int(args[0].nbytes) + int(result.nbytes)


def _pack_hook(tracer, args, kwargs, result, parent):
    mask = result[2]
    tracer.counters["nn.pack_cells_real"] += int(mask.sum())
    tracer.counters["nn.pack_cells_padded"] += int(mask.size)


def _token_batch_hook(tracer, args, kwargs, result, parent):
    tracer.counters["ssl.token_cells_real"] += int((~result.pad).sum())
    tracer.counters["ssl.token_cells_padded"] += int(result.pad.size)


def _file_bytes(key, path_arg):
    def hook(tracer, args, kwargs, result, parent):
        tracer.counters[key] += os.path.getsize(args[path_arg])

    return hook


def _episode_hook(tracer, args, kwargs, result, parent):
    config = args[1]
    if len(result.support) < config.n_way * config.k_support:
        tracer.counters["episodes.fallback_tasks"] += 1


def _meta_gradient_hook(tracer, args, kwargs, result, parent):
    tracer.counters["meta.meta_tasks"] += len(args[2])


def _epochs_hook(tracer, args, kwargs, result, parent):
    info = result[-1]
    run = len(info["trace"])
    tracer.counters["train.epochs_run"] += run
    tracer.counters["train.epochs_past_best"] += run - 1 - info["best_epoch"]


def _artifacts_hook(tracer, args, kwargs, result, parent):
    tracer.counters["cli.artifacts_written"] += len(result)
    for path in result:
        if os.path.isfile(path):
            tracer.counters["cli.artifact_bytes"] += os.path.getsize(path)


HOOKS = {
    "tensor.grad": _grad_hook,
    "kernels.gelu": _kernel_hook,
    "kernels.softmax_rows": _kernel_hook,
    "kernels.layer_norm_rows": _kernel_hook,
    "nn.pack_batch": _pack_hook,
    "ssl.encode_token_batch": _token_batch_hook,
    "nn.save_checkpoint": _file_bytes("nn.checkpoint_bytes", 0),
    "nn.load_checkpoint": _file_bytes("nn.checkpoint_bytes", 0),
    "data.save_corpus": _file_bytes("data.corpus_bytes", 1),
    "episodes.sample_episode": _episode_hook,
    "meta.MetaLearner.meta_gradient": _meta_gradient_hook,
    "train.finetune": _epochs_hook,
    "train.pretrain_transfer": _epochs_hook,
    "cli.run": _artifacts_hook,
}
