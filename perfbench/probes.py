"""Timing probes around fdglab's public functions, installed from outside
the package.

A probe replaces a function at every name its callers look it up by
(a module attribute, or a method on its class) and restores the original
on uninstall. Nothing inside ``src/fdglab`` changes.

Two depths:

* boundary probes (always on, also in the untraced run): trainer
  construction, the two training stages and their rounds, the on_round
  callback (the CLI's checkpoint writer), ``evaluate`` and checkpoint
  save/load. They fire a few hundred times per operation, which costs
  nothing measurable, and give the phase split of the end-to-end time.
* layer probes (traced run only): every numcore op and its vjp, backward,
  the Adam step, the encoders, dataset generation, the two train steps,
  the GAN forwards, aggregation, message encoding and checksums,
  per-image prediction and the state digest.

Spans (name, start, end, parent) are kept for the coarse events;
the hundreds of thousands of numcore op calls only bump counters.
Everything stays in memory; the caller writes it out when the run ends.
"""

from __future__ import annotations

import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

NUMCORE_OPS = ("matmul", "add", "scale", "concat", "reshape", "row_mean",
               "tanh", "relu", "sigmoid", "l2_normalize", "cosine_sim",
               "softmax_cross_entropy", "bce_with_logits")

# span names that count as checkpoint I/O; only the outermost one counts
CKPT_SPANS = ("cli.checkpoint", "fed.save_message", "fed.load_message")


def _fdglab_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "fdglab" or n.startswith("fdglab."))]


def _quantile_ms(values, q: int) -> float:
    """q-th percentile in ms (inclusive method); 0 when there is no sample."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1e3
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3


def _wire_bytes(msg) -> int:
    """Serialized size of a ParamMessage, from the layout in fed.py."""
    size = 4 + 2 + 4 + 4 + 4 + 8
    for name, arr in msg.entries.items():
        size += 2 + len(name.encode()) + 1 + 4 * arr.ndim + 4 * arr.size
    return size


class Probes:
    """Span recorder and counters; ``layers`` adds the per-layer probes."""

    def __init__(self, layers: bool):
        self.layers = layers
        self.spans: list[tuple] = []  # (id, parent id or None, name, start, end)
        self._stack: list[list] = []  # open spans: [id, name, start]
        self._next_id = 0
        self.stats: dict[str, float] = defaultdict(float)
        self.trainer = None  # the last FederatedTrainer constructed
        self._undo: list[tuple] = []
        self._op_calls = 0  # numcore op calls, for ops_per_sample
        self._vjp_s = 0.0  # vjp time inside the running backward
        self._gan_tensors: list = []  # GanParams tensors during a GAN step
        self._gan_ids: set[int] | None = None

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> None:
        self._stack.append([self._next_id, name, perf_counter()])
        self._next_id += 1

    def close(self) -> float:
        end = perf_counter()
        sid, name, start = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append((sid, parent, name, start, end))
        return end - start

    def unwind(self, depth: int) -> None:
        """Drop spans left open by an exception, down to ``depth``."""
        del self._stack[depth:]

    def _spanned(self, name: str, fn):
        def probe(*args, **kwargs):
            self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()
        return probe

    def _counted(self, name: str, fn):
        stats = self.stats
        calls, secs = name + ".calls", name + ".s"

        def probe(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                stats[secs] += perf_counter() - t0
                stats[calls] += 1
        return probe

    # -- install / uninstall -------------------------------------------------

    def _replace(self, orig, new) -> None:
        """Point every fdglab module attribute bound to ``orig`` at ``new``."""
        for mod in _fdglab_modules():
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, new)

    def _replace_method(self, cls, attr: str, make) -> None:
        orig = cls.__dict__[attr]
        self._undo.append((cls, attr, orig))
        setattr(cls, attr, make(orig))

    @contextmanager
    def installed(self):
        self._install()
        depth = len(self._stack)
        try:
            yield self
        finally:
            self.unwind(depth)
            for owner, attr, orig in reversed(self._undo):
                setattr(owner, attr, orig)
            self._undo.clear()

    def _install(self) -> None:
        from fdglab import evalhub, fed

        self._replace_method(fed.FederatedTrainer, "__init__", self._trainer_init)
        self._replace_method(fed.FederatedTrainer, "run_stage1",
                             lambda f: self._stage(1, f))
        self._replace_method(fed.FederatedTrainer, "run_stage2",
                             lambda f: self._stage(2, f))
        self._replace(evalhub.evaluate,
                      self._spanned("evalhub.evaluate", evalhub.evaluate))
        self._replace(fed.save_message,
                      self._spanned("fed.save_message", fed.save_message))
        self._replace(fed.load_message,
                      self._spanned("fed.load_message", fed.load_message))
        if self.layers:
            self._install_layers()

    def _trainer_init(self, orig):
        def __init__(trainer, *args, **kwargs):
            orig(trainer, *args, **kwargs)
            self.trainer = trainer
        return __init__

    def _stage(self, stage: int, orig):
        """Stage span with one child span per round; the caller's on_round
        callback (the CLI's checkpoint writer) runs in its own span."""
        round_name = f"fed.round.stage{stage}"

        def run_stage(trainer, on_round=None):
            def between_rounds(tr, dist):
                self.close()  # the round that just finished
                if on_round is not None:
                    self.open("cli.checkpoint")
                    try:
                        on_round(tr, dist)
                    finally:
                        self.close()
                self.open(round_name)

            self.open(f"stage{stage}")
            depth = len(self._stack)
            self.open(round_name)
            try:
                orig(trainer, between_rounds)
            finally:
                self.unwind(depth)  # the round opened after the last callback
                self.close()
        return run_stage

    def _install_layers(self) -> None:
        from fdglab import (datagen, dsp, encoder, evalhub, fed, numcore,
                            promptgan)

        for op in NUMCORE_OPS:
            self._replace(getattr(numcore, op),
                          self._op_probe(op, getattr(numcore, op)))
        self._replace(numcore.backward, self._backward_probe(numcore.backward))
        self._replace_method(numcore._AdamBase, "step", self._adam_probe)
        for fn in (encoder.encode_text, encoder.encode_image):
            self._replace(fn, self._counted(f"encoder.{fn.__name__}", fn))
        self._replace(datagen.gen_dataset,
                      self._spanned("datagen.gen_dataset", datagen.gen_dataset))
        self._replace(dsp.dsp_train_step, self._dsp_step_probe(dsp.dsp_train_step))
        self._replace(promptgan.gan_train_step,
                      self._gan_step_probe(promptgan.gan_train_step))
        self._replace_method(
            promptgan.RealPromptBank, "sample_batch",
            lambda f: self._counted("promptgan.sample_batch", f))
        for fn in (promptgan.generator_rows, promptgan.discriminator_logits):
            self._replace(fn, self._counted(f"promptgan.{fn.__name__}", fn))
        self._replace(fed.fedavg, self._fedavg_probe(fed.fedavg))
        self._replace(fed.momentum_aggregate,
                      self._counted("fed.momentum_aggregate", fed.momentum_aggregate))
        self._replace(fed.serialize_message,
                      self._sized("fed.serialize_message", fed.serialize_message,
                                  out=True))
        self._replace(fed.deserialize_message,
                      self._counted("fed.deserialize_message", fed.deserialize_message))
        self._replace(fed.fnv1a64, self._sized("fed.fnv1a64", fed.fnv1a64, out=False))
        self._replace_method(evalhub.InferenceModel, "predict_from_emb",
                             self._predict_probe)
        self._replace_method(
            evalhub.InferenceModel, "state_digest",
            lambda f: self._counted("evalhub.state_digest", f))

    # -- layer probes ----------------------------------------------------------

    def _op_probe(self, op: str, fn):
        """Counts forward time per call and wraps the vjp the op records."""
        stats = self.stats
        calls, fwd = f"numcore.{op}.calls", f"numcore.{op}.fwd_s"
        vjp_key = f"numcore.{op}.vjp_s"

        def timed_vjp(inner):
            def vjp(gout):
                t0 = perf_counter()
                grads = inner(gout)
                dt = perf_counter() - t0
                stats[vjp_key] += dt
                self._vjp_s += dt
                return grads
            return vjp

        def probe(graph, *args, **kwargs):
            n = len(graph.nodes)
            t0 = perf_counter()
            out = fn(graph, *args, **kwargs)
            stats[fwd] += perf_counter() - t0
            stats[calls] += 1
            self._op_calls += 1
            if len(graph.nodes) > n:
                node = graph.nodes[-1]
                node.vjp = timed_vjp(node.vjp)
            return out
        return probe

    def _backward_probe(self, fn):
        stats = self.stats

        def backward(graph, loss):
            self._vjp_s = 0.0
            nodes = len(graph.nodes)
            t0 = perf_counter()
            fn(graph, loss)
            dt = perf_counter() - t0
            stats["numcore.backward.calls"] += 1
            stats["numcore.backward.nodes"] += nodes
            stats["numcore.backward.self_s"] += dt - self._vjp_s
            if self._gan_ids is not None:
                stats["_gan_grad_computed"] += sum(
                    t.data.size for t in self._gan_tensors if t.grad is not None)
        return backward

    def _adam_probe(self, orig):
        stats = self.stats

        def step(opt, params):
            params = list(params)
            t0 = perf_counter()
            orig(opt, params)
            stats["numcore.adam.s"] += perf_counter() - t0
            stats["numcore.adam.calls"] += 1
            stats["numcore.adam.tensors"] += len(params)
            if self._gan_ids is not None:
                stats["_gan_grad_stepped"] += sum(
                    p.data.size for p in params if id(p) in self._gan_ids)
        return step

    def _dsp_step_probe(self, fn):
        stats = self.stats

        def dsp_train_step(p, batch, *args, **kwargs):
            batch = list(batch)
            ops = self._op_calls
            self.open("dsp.train_step")
            try:
                return fn(p, batch, *args, **kwargs)
            finally:
                self.close()
                stats["_dsp_step_ops"] += self._op_calls - ops
                stats["_dsp_step_samples"] += len(batch)
        return dsp_train_step

    def _gan_step_probe(self, fn):
        def gan_train_step(gan, *args, **kwargs):
            self._gan_tensors = list(gan.named().values())
            self._gan_ids = {id(t) for t in self._gan_tensors}
            self.open("promptgan.train_step")
            try:
                return fn(gan, *args, **kwargs)
            finally:
                self.close()
                self._gan_ids = None
        return gan_train_step

    def _fedavg_probe(self, fn):
        stats = self.stats

        def fedavg(msgs):
            msgs = list(msgs)
            stats["_upload_bytes"] += sum(_wire_bytes(m) for m in msgs)
            t0 = perf_counter()
            try:
                return fn(msgs)
            finally:
                stats["fed.fedavg.s"] += perf_counter() - t0
                stats["fed.fedavg.calls"] += 1
        return fedavg

    def _sized(self, name: str, fn, out: bool):
        """Counted probe that also sums the byte length of the result
        (out=True) or of the single argument (out=False)."""
        stats = self.stats

        def probe(arg):
            t0 = perf_counter()
            result = fn(arg)
            stats[name + ".s"] += perf_counter() - t0
            stats[name + ".bytes"] += len(result if out else arg)
            return result
        return probe

    def _predict_probe(self, orig):
        stats = self.stats

        def predict_from_emb(model, *args, **kwargs):
            before = stats["encoder.encode_text.calls"]
            self.open("evalhub.predict")
            try:
                return orig(model, *args, **kwargs)
            finally:
                self.close()
                stats["_predict_text_encodes"] += (
                    stats["encoder.encode_text.calls"] - before)
        return predict_from_emb

    # -- results ---------------------------------------------------------------

    def phases(self, first_span: int = 0) -> dict[str, float]:
        """Phase seconds over spans recorded from index ``first_span`` on.

        Stage time excludes the on_round callbacks run inside it; checkpoint
        time counts only the outermost checkpoint-I/O span.
        """
        spans = self.spans[first_span:]
        names = {s[0]: s[2] for s in spans}
        total = defaultdict(float)
        for sid, parent, name, start, end in spans:
            dt = end - start
            if name in ("stage1", "stage2", "evalhub.evaluate"):
                total[name] += dt
            if name in CKPT_SPANS:
                if names.get(parent) not in CKPT_SPANS:
                    total["ckpt"] += dt
                if names.get(parent) in ("stage1", "stage2"):
                    total[names[parent]] -= dt
        return {"stage1_s": total["stage1"], "stage2_s": total["stage2"],
                "eval_s": total["evalhub.evaluate"], "ckpt_s": total["ckpt"]}

    def durations(self, name: str) -> list[float]:
        return [end - start for _, _, n, start, end in self.spans if n == name]

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-layer metrics, per operation where a count or a total."""
        s = self.stats
        per_op = {}
        for op in NUMCORE_OPS:
            for field in ("calls", "fwd_s", "vjp_s"):
                key = f"numcore.{op}.{field}"
                per_op[key] = s[key]
        for key in ("numcore.backward.calls", "numcore.backward.nodes",
                    "numcore.backward.self_s", "numcore.adam.calls",
                    "numcore.adam.tensors", "numcore.adam.s",
                    "encoder.encode_text.calls", "encoder.encode_text.s",
                    "encoder.encode_image.calls", "encoder.encode_image.s",
                    "promptgan.sample_batch.s", "promptgan.generator_rows.s",
                    "promptgan.discriminator_logits.s", "fed.fedavg.s",
                    "fed.momentum_aggregate.s", "fed.serialize_message.s",
                    "fed.serialize_message.bytes", "fed.deserialize_message.s",
                    "fed.fnv1a64.s", "evalhub.state_digest.s"):
            per_op[key] = s[key]
        spans = {name: self.durations(name) for name in (
            "dsp.train_step", "promptgan.train_step", "fed.round.stage1",
            "fed.round.stage2", "fed.save_message", "fed.load_message",
            "evalhub.evaluate", "evalhub.predict", "cli.checkpoint")}
        per_op.update({
            "dsp.train_step.calls": len(spans["dsp.train_step"]),
            "promptgan.train_step.calls": len(spans["promptgan.train_step"]),
            "fed.save_message.calls": len(spans["fed.save_message"]),
            "fed.save_message.s": sum(spans["fed.save_message"]),
            "fed.load_message.s": sum(spans["fed.load_message"]),
            "evalhub.evaluate.s": sum(spans["evalhub.evaluate"]),
            "evalhub.predict.calls": len(spans["evalhub.predict"]),
            "cli.checkpoint.calls": len(spans["cli.checkpoint"]),
            "cli.checkpoint.s": sum(spans["cli.checkpoint"]),
        })
        out = {k: v / n_ops for k, v in per_op.items()}

        def ratio(num, den):
            return num / den if den else 0.0

        out.update({
            "dsp.train_step.p50_ms": _quantile_ms(spans["dsp.train_step"], 50),
            "dsp.train_step.p99_ms": _quantile_ms(spans["dsp.train_step"], 99),
            "dsp.ops_per_sample": ratio(s["_dsp_step_ops"], s["_dsp_step_samples"]),
            "promptgan.train_step.p50_ms":
                _quantile_ms(spans["promptgan.train_step"], 50),
            "promptgan.train_step.p99_ms":
                _quantile_ms(spans["promptgan.train_step"], 99),
            "promptgan.grad_useful_ratio":
                ratio(s["_gan_grad_stepped"], s["_gan_grad_computed"]),
            "fed.round.stage1.p50_ms": _quantile_ms(spans["fed.round.stage1"], 50),
            "fed.round.stage2.p50_ms": _quantile_ms(spans["fed.round.stage2"], 50),
            "fed.upload_bytes_per_round":
                ratio(s["_upload_bytes"], s["fed.fedavg.calls"]),
            "fed.fnv1a64.mb_per_s": ratio(s["fed.fnv1a64.bytes"] / 1e6,
                                          s["fed.fnv1a64.s"]),
            "evalhub.predict.p50_ms": _quantile_ms(spans["evalhub.predict"], 50),
            "evalhub.predict.p99_ms": _quantile_ms(spans["evalhub.predict"], 99),
            "evalhub.text_encodes_per_image":
                ratio(s["_predict_text_encodes"], len(spans["evalhub.predict"])),
        })
        return out
