"""Per-layer timing of respox, measured from outside the program.

`Tracer` replaces module attributes of respox with timing wrappers while it
is active and puts the originals back on exit; nothing under src/ changes.
Backward time is charged to the kernel whose forward built the graph node:
every node created while a wrapped kernel runs gets its `_grad_fn` wrapped
too, so a composite kernel such as attention collects the gradient time of
all the small ops it is made of.  Nodes built outside any kernel (losses,
concatenation, head selection) are charged to `tensor.other`.

Kernel work is computed, not counted: FLOPs and bytes come from the operand
shapes of each conv1d, conv_transpose1d and attention call (multiply-adds
of the matrix products, operands read plus results written), never from
hardware counters.  Backward work is charged only when the node's gradient
function actually runs.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from collections import defaultdict

WORK_KERNELS = ("conv1d", "conv_transpose1d", "multi_head_self_attention")
PLAIN_KERNELS = ("batch_norm1d", "rrelu")

# Every per-layer metric the traced run reports, with its unit.  Values are
# totals per round of the workload (see workloads.py), except where the
# name says otherwise.
PER_LAYER_UNITS: dict[str, str] = {}
for _k in WORK_KERNELS:
    PER_LAYER_UNITS.update(
        {
            f"kernels.{_k}.fwd_s": "s",
            f"kernels.{_k}.bwd_s": "s",
            f"kernels.{_k}.calls": "count",
            f"kernels.{_k}.gflop": "GFLOP",
            f"kernels.{_k}.gflop_per_s": "GFLOP/s",
            f"kernels.{_k}.gbyte": "GB",
        }
    )
for _k in PLAIN_KERNELS:
    PER_LAYER_UNITS.update(
        {f"kernels.{_k}.fwd_s": "s", f"kernels.{_k}.bwd_s": "s", f"kernels.{_k}.calls": "count"}
    )
PER_LAYER_UNITS.update(
    {
        "tensor.backward_s": "s",
        "tensor.backward.calls": "count",
        "tensor.nodes_per_step": "count",
        "tensor.other_bwd_s": "s",
        "train.adam_step_s": "s",
        "train.adam_step.calls": "count",
        "model.forward_s": "s",
        "model.forward.calls": "count",
        "model.encode_s": "s",
        "model.encode.calls": "count",
        "model.decode_head_s": "s",
        "model.decode_head.calls": "count",
        "model.predict_inaccessible_s": "s",
        "model.predict_inaccessible.calls": "count",
        "gate.derive_gate_map_s": "s",
        "gate.forward_passes": "count",
        "evaluate.evaluate_s": "s",
        "evaluate.predict_record_s": "s",
        "evaluate.predict_record.calls": "count",
        "evaluate.dump_predictions_s": "s",
        "evaluate.dump_predictions.calls": "count",
        "checkpoint.save_checkpoint_s": "s",
        "checkpoint.save_checkpoint.bytes": "B",
        "checkpoint.load_checkpoint_s": "s",
        "checkpoint.load_checkpoint.bytes": "B",
        "data.read_record_s": "s",
        "data.read_record.calls": "count",
        "data.read_record.bytes": "B",
        "train.final_loss": "1",
        "evaluate.mae_pct": "pct",
        "trace.rounds": "count",
        "trace.ops_per_round": "count",
        "trace.round_s": "s",
        "trace.untraced_round_s": "s",
        "trace.overhead_s": "s",
    }
)


def _operand(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _conv_work(args, kwargs, out, transposed):
    """(fwd flop, fwd bytes, bwd flop, bwd bytes) of one conv or deconv call."""
    x = _operand(args, kwargs, 0, "x")
    w = _operand(args, kwargs, 1, "weight")
    positions = x.shape[1] if transposed else out.shape[1]
    macs = w.size * positions
    item = out.data.itemsize
    grads = int(x.requires_grad) + int(w.requires_grad)
    fwd_bytes = item * (x.size + w.size + out.size)
    bwd_bytes = item * (out.size + grads * (x.size + w.size))
    return 2 * macs, fwd_bytes, 2 * macs * grads, bwd_bytes


def _attention_work(args, kwargs, out):
    """Matrix products of one post-norm encoder block; backward taken as twice forward."""
    x = _operand(args, kwargs, 0, "x")
    params = _operand(args, kwargs, 1, "params")
    n_heads = _operand(args, kwargs, 2, "n_heads")
    length, d = x.shape
    all_head = params["q_w"].shape[1]
    inter = params["ff1_w"].shape[1]
    macs = 3 * length * d * all_head + 2 * length * length * all_head
    macs += length * all_head * d + 2 * length * d * inter
    item = out.data.itemsize
    weights = sum(t.size for t in params.values())
    fwd_bytes = item * (x.size + weights + out.size + 2 * n_heads * length * length)
    return 2 * macs, fwd_bytes, 4 * macs, 2 * fwd_bytes


class Tracer:
    """Context manager that times calls into respox layers by patching them."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.flop = defaultdict(float)
        self.bytes = defaultdict(float)
        self.nodes_per_backward: list[int] = []
        self.missing: list[str] = []
        self._warned = False
        self._scope: list[str] = []
        self._gate_depth = 0
        self._nodes = 0
        self._saved: list[tuple] = []

    # ---- patching

    def _patch(self, owner, attr, make):
        if not hasattr(owner, attr):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def __enter__(self):
        from respox import cli, data, evaluate, kernels, model, tensor, train

        self.missing = []
        for module in (tensor, kernels):
            self._patch(module, "_from_op", self._wrap_from_op)
        self._patch(tensor.Tensor, "backward", self._wrap_backward)
        self._patch(kernels, "conv1d", self._wrap_kernel("conv1d", lambda a, k, o: _conv_work(a, k, o, False)))
        self._patch(
            kernels, "conv_transpose1d", self._wrap_kernel("conv_transpose1d", lambda a, k, o: _conv_work(a, k, o, True))
        )
        self._patch(
            kernels, "multi_head_self_attention", self._wrap_kernel("multi_head_self_attention", _attention_work)
        )
        for name in PLAIN_KERNELS:
            self._patch(kernels, name, self._wrap_kernel(name, None))
        self._patch(train, "adam_step", self._timed("train.adam_step"))
        self._patch(model, "forward", self._wrap_forward)
        for name in ("encode", "decode_head", "predict_inaccessible"):
            self._patch(model, name, self._timed(f"model.{name}"))
        self._patch(train, "derive_gate_map", self._wrap_gate)
        for owner in (evaluate, cli):
            self._patch(owner, "evaluate", self._timed("evaluate.evaluate"))
        self._patch(evaluate, "predict_record", self._timed("evaluate.predict_record"))
        self._patch(cli, "dump_predictions", self._timed("evaluate.dump_predictions"))
        self._patch(train, "save_checkpoint", self._timed("checkpoint.save_checkpoint", size_after=True))
        self._patch(cli, "load_checkpoint", self._timed("checkpoint.load_checkpoint", size_before=True))
        self._patch(data, "read_record", self._timed("data.read_record", size_before=True))
        if self.missing and not self._warned:
            print(f"trace: not found, reported as 0: {', '.join(self.missing)}", file=sys.stderr)
            self._warned = True
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    # ---- wrappers

    def _timed(self, name, size_before=False, size_after=False):
        def make(fn):
            def wrapper(*args, **kwargs):
                if size_before:
                    self.bytes[name] += os.path.getsize(args[0])
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.seconds[name] += time.perf_counter() - t0
                    self.calls[name] += 1
                    if size_after and os.path.exists(args[0]):
                        self.bytes[name] += os.path.getsize(args[0])

            return wrapper

        return make

    def _wrap_forward(self, fn):
        timed = self._timed("model.forward")(fn)

        def wrapper(*args, **kwargs):
            if self._gate_depth:
                self.calls["gate.forward_passes"] += 1
            return timed(*args, **kwargs)

        return wrapper

    def _wrap_gate(self, fn):
        timed = self._timed("gate.derive_gate_map")(fn)

        def wrapper(*args, **kwargs):
            self._gate_depth += 1
            try:
                return timed(*args, **kwargs)
            finally:
                self._gate_depth -= 1

        return wrapper

    def _wrap_kernel(self, name, work):
        key = f"kernels.{name}"

        def make(fn):
            def wrapper(*args, **kwargs):
                self._scope.append(key)
                t0 = time.perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self.seconds[f"{key}.fwd"] += time.perf_counter() - t0
                    self._scope.pop()
                self.calls[key] += 1
                if work is not None:
                    fwd_flop, fwd_bytes, bwd_flop, bwd_bytes = work(args, kwargs, out)
                    self.flop[key] += fwd_flop
                    self.bytes[key] += fwd_bytes
                    if out._grad_fn is not None:
                        out._grad_fn = self._charge(out._grad_fn, key, bwd_flop, bwd_bytes)
                return out

            return wrapper

        return make

    def _charge(self, grad_fn, key, flop, nbytes):
        def wrapper(g):
            self.flop[key] += flop
            self.bytes[key] += nbytes
            return grad_fn(g)

        return wrapper

    def _wrap_from_op(self, fn):
        def wrapper(data, parents, grad_fn):
            out = fn(data, parents, grad_fn)
            if out._grad_fn is not None:
                out._grad_fn = self._timed_grad(out._grad_fn, self._scope[-1] if self._scope else "tensor.other")
            return out

        return wrapper

    def _timed_grad(self, grad_fn, scope):
        key = f"{scope}.bwd"

        def wrapper(g):
            t0 = time.perf_counter()
            try:
                return grad_fn(g)
            finally:
                self.seconds[key] += time.perf_counter() - t0
                self._nodes += 1

        return wrapper

    def _wrap_backward(self, fn):
        timed = self._timed("tensor.backward")(fn)

        def wrapper(tensor):
            before = self._nodes
            try:
                return timed(tensor)
            finally:
                self.nodes_per_backward.append(self._nodes - before)

        return wrapper

    # ---- report

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer totals divided by the number of traced rounds."""
        out: dict[str, float] = {}
        for name in WORK_KERNELS + PLAIN_KERNELS:
            key = f"kernels.{name}"
            fwd = self.seconds[f"{key}.fwd"] / rounds
            bwd = self.seconds[f"{key}.bwd"] / rounds
            out[f"{key}.fwd_s"] = fwd
            out[f"{key}.bwd_s"] = bwd
            out[f"{key}.calls"] = self.calls[key] / rounds
            if name in WORK_KERNELS:
                gflop = self.flop[key] / rounds / 1e9
                out[f"{key}.gflop"] = gflop
                out[f"{key}.gflop_per_s"] = gflop / (fwd + bwd) if fwd + bwd > 0 else 0.0
                out[f"{key}.gbyte"] = self.bytes[key] / rounds / 1e9
        out["tensor.backward_s"] = self.seconds["tensor.backward"] / rounds
        out["tensor.backward.calls"] = self.calls["tensor.backward"] / rounds
        out["tensor.nodes_per_step"] = (
            float(statistics.median(self.nodes_per_backward)) if self.nodes_per_backward else 0.0
        )
        out["tensor.other_bwd_s"] = self.seconds["tensor.other.bwd"] / rounds
        for name in (
            "train.adam_step",
            "model.forward",
            "model.encode",
            "model.decode_head",
            "model.predict_inaccessible",
            "evaluate.predict_record",
            "evaluate.dump_predictions",
            "data.read_record",
        ):
            out[f"{name}_s"] = self.seconds[name] / rounds
            out[f"{name}.calls"] = self.calls[name] / rounds
        out["gate.derive_gate_map_s"] = self.seconds["gate.derive_gate_map"] / rounds
        out["gate.forward_passes"] = self.calls["gate.forward_passes"] / rounds
        out["evaluate.evaluate_s"] = self.seconds["evaluate.evaluate"] / rounds
        for name in ("checkpoint.save_checkpoint", "checkpoint.load_checkpoint"):
            out[f"{name}_s"] = self.seconds[name] / rounds
            out[f"{name}.bytes"] = self.bytes[name] / rounds
        out["data.read_record.bytes"] = self.bytes["data.read_record"] / rounds
        return out
