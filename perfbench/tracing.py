"""Spans around the public functions of each ``cjlm`` module.

``instrument`` swaps each traced function for a wrapper that records a span
(name, start, end, parent) and puts the original back on exit. Nothing
inside the program is timed. Spans stay in memory until ``write``.

A span's self time is its duration minus that of its direct children. Work
the tracer itself does, such as hashing encoder inputs, runs in
``trace.bookkeep`` spans so that no layer is charged for it.

Flop and byte counts are computed from tensor shapes, not measured: two
flops per multiply-add of each matrix product, elementwise work not counted,
and a backward pass counted as twice its forward products.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

import numpy as np

from cjlm import corpus, encoder, jointlm, nbest, serialization, training, vocab
from cjlm.encoder import CONV_WINDOW, LOCAL_PAIR

BOOKKEEP = "trace.bookkeep"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, counts]
        self._open: list[int] = []

    def begin(self, name: str, counts: dict | None = None) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, counts])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, span_id: int) -> None:
        self.spans[span_id][2] = time.perf_counter()
        self._open.remove(span_id)

    @contextmanager
    def span(self, name: str, counts: dict | None = None):
        span_id = self.begin(name, counts)
        try:
            yield
        finally:
            self.end(span_id)

    def write(self, path, header: dict) -> None:
        fields = ("name", "start", "end", "parent", "counts computed from shapes")
        with open(path, "w", encoding="utf-8") as f:
            json.dump({**header, "fields": fields, "spans": self.spans}, f)


def _traced(tracer, name, fn, counter=None):
    """Wrap ``fn`` in a span; ``counter(args, kwargs)`` gives its counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts = None
        if counter is not None:
            with tracer.span(BOOKKEEP):
                counts = counter(args, kwargs)
        span_id = tracer.begin(name, counts)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(span_id)

    return wrapper


def _traced_generator(tracer, name, fn):
    """Like ``_traced`` for a generator: the span lasts until it is exhausted."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_id = tracer.begin(name)
        try:
            yield from fn(*args, **kwargs)
        finally:
            tracer.end(span_id)

    return wrapper


def encoder_forward_flops(cfg) -> int:
    """Matrix-product flops of one encoder forward row."""
    n1, n2, n3 = cfg.conv_locs1, cfg.fused_locs, cfg.conv_locs3
    madds = n1 * cfg.filters1 * CONV_WINDOW * cfg.input_dim
    madds += n3 * cfg.filters3 * CONV_WINDOW * cfg.filters1
    madds += cfg.repr_dim * cfg.filters3
    if cfg.fusion == "gating":
        madds += n2 * 2 * LOCAL_PAIR * cfg.input_dim + 2 * n3 * cfg.filters3
    if cfg.arch == "attention":
        width = cfg.history * cfg.tgt_emb_dim
        for _ in range(cfg.attn_depth):
            madds += width * cfg.attn_dim
            width = cfg.attn_dim
        madds += cfg.filters1 * cfg.attn_dim
    return 2 * madds


def predictor_forward_flops(p) -> int:
    """Matrix-product flops of one predictor forward row, softmax included."""
    madds = sum(w.size for w, _ in p.hidden_layers) + p.softmax_w.size
    return 2 * madds


class EncoderKeys:
    """Distinct encoder inputs among the rows passed to ``forward_batch``.

    The key is what the representation depends on: the padded source, plus
    the tag columns for the tag archs, or the history for attention. Keys
    are counted afresh in each job, because the benchmark repeats jobs on
    the same inputs.
    """

    def __init__(self):
        self.job_keys: set[bytes] = set()
        self.distinct = 0
        self.rows = 0

    def new_job(self, args=None, kwargs=None) -> None:
        self.job_keys = set()

    def add(self, ids, aff_mask, head_mask, hist, cfg) -> None:
        parts = [ids]
        if cfg.tag_bits:
            parts.append(aff_mask)
        if cfg.arch == "tag_dep":
            parts.append(head_mask)
        if cfg.arch == "attention":
            parts.append(hist)
        rows = np.concatenate([np.asarray(a, dtype=np.int64) for a in parts], axis=1)
        before = len(self.job_keys)
        self.job_keys.update(row.tobytes() for row in rows)
        self.distinct += len(self.job_keys) - before
        self.rows += rows.shape[0]

    def ratio(self) -> float:
        return self.distinct / self.rows if self.rows else 0.0


def _cast_counts(args, kwargs):
    params, dtype = args
    out_size = np.dtype(dtype).itemsize
    moved = sum(t.size * (t.itemsize + out_size) for t in params.tensors().values())
    return {"bytes": moved}


@contextmanager
def instrument(tracer: Tracer, keys: EncoderKeys):
    """Trace the public ``cjlm`` functions the benchmark's calls reach."""

    def enc_forward_counts(args, kwargs):
        ids, aff_mask, head_mask, hist, cfg = args[:5]
        keys.add(ids, aff_mask, head_mask, hist, cfg)
        return {"rows": ids.shape[0],
                "flops": ids.shape[0] * encoder_forward_flops(cfg)}

    def enc_backward_counts(args, kwargs):
        _, dphi, cfg = args[:3]
        return {"rows": dphi.shape[0],
                "flops": 2 * dphi.shape[0] * encoder_forward_flops(cfg)}

    def pred_forward_counts(args, kwargs):
        phi, _, p = args[:3]
        return {"rows": phi.shape[0],
                "flops": phi.shape[0] * predictor_forward_flops(p)}

    def pred_backward_counts(args, kwargs):
        _, dlogits, p = args[:3]
        return {"rows": dlogits.shape[0],
                "flops": 2 * dlogits.shape[0] * predictor_forward_flops(p)}

    functions = [
        # (owner, attribute, span name, counter); a name bound by import
        # into another module is replaced there too.
        (serialization, "load_model", "serialization.load_model", None),
        (serialization, "save_model", "serialization.save_model", None),
        (vocab, "build_vocabulary", "vocab.build_vocabulary", None),
        (corpus, "map_tokens", "vocab.map_tokens", None),
        (corpus, "read_parallel_corpus", "corpus.read_parallel_corpus", None),
        (corpus, "read_token_lines", "corpus.read_token_lines", None),
        (nbest, "extract_samples", "corpus.extract_samples", None),
        (jointlm.JointModelParams, "astype", "jointlm.astype", _cast_counts),
        (jointlm, "predict_forward_batch", "jointlm.predict_forward_batch",
         pred_forward_counts),
        (jointlm, "predict_backward_batch", "jointlm.predict_backward_batch",
         pred_backward_counts),
        (jointlm, "perplexity", "jointlm.perplexity", keys.new_job),
        (encoder, "forward_batch", "encoder.forward_batch", enc_forward_counts),
        (encoder, "backward_batch", "encoder.backward_batch", enc_backward_counts),
        (training, "train_model", "training.train_model", keys.new_job),
        (training, "backward", "training.backward", None),
        (training, "sgd_step", "training.sgd_step", None),
        (nbest, "parse_nbest_line", "nbest.parse_nbest_line", None),
        (nbest, "format_annotated_line", "nbest.format_annotated_line", None),
        (nbest, "hypothesis_log_prob", "nbest.hypothesis_log_prob", None),
    ]
    generators = [
        (corpus, "extract_corpus_samples", "corpus.extract_corpus_samples"),
        (nbest, "score_nbest", "nbest.score_nbest"),
    ]
    saved = []

    def swap(owner, attr, replacement):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    pack = jointlm.SampleBatch.__dict__["from_samples"]
    try:
        for owner, attr, name, counter in functions:
            swap(owner, attr, _traced(tracer, name, getattr(owner, attr), counter))
        for owner, attr, name in generators:
            swap(owner, attr, _traced_generator(tracer, name, getattr(owner, attr)))
        swap(jointlm.SampleBatch, "from_samples",
             classmethod(_traced(tracer, "jointlm.from_samples", pack.__func__)))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class SpanStats:
    """Totals, self times and counts per span name."""

    def __init__(self, spans):
        self.spans = spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        self.child_time = child_time

    def _has_ancestor_in(self, index, names) -> bool:
        parent = self.spans[index][3]
        while parent is not None:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def total(self, *names) -> float:
        """Wall time inside any of ``names``, nested repeats counted once."""
        return sum(
            s[2] - s[1] for i, s in enumerate(self.spans)
            if s[0] in names and not self._has_ancestor_in(i, names)
        )

    def self_time(self, name) -> float:
        return sum(s[2] - s[1] - self.child_time[i]
                   for i, s in enumerate(self.spans) if s[0] == name)

    def calls(self, name) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def count(self, name, key) -> int:
        return sum(s[4][key] for s in self.spans if s[0] == name)

    def table(self) -> list[tuple[str, int, float, float]]:
        names = sorted({s[0] for s in self.spans})
        return [(n, self.calls(n), self.total(n), self.self_time(n)) for n in names]


def _rate(flops, seconds) -> float:
    return flops / seconds / 1e9 if seconds > 0 else 0.0


def layer_metrics(stats: SpanStats, keys: EncoderKeys) -> dict[str, float]:
    """Every per-layer figure, keyed by metric name."""
    enc_fwd = stats.total("encoder.forward_batch")
    enc_bwd = stats.total("encoder.backward_batch")
    pred_fwd = stats.total("jointlm.predict_forward_batch")
    pred_bwd = stats.total("jointlm.predict_backward_batch")
    return {
        "serialization.load_s": stats.total("serialization.load_model"),
        "serialization.save_s": stats.total("serialization.save_model"),
        "corpus.read_s": stats.total("corpus.read_parallel_corpus",
                                     "corpus.read_token_lines"),
        "corpus.extract_s": stats.total("corpus.extract_corpus_samples",
                                        "corpus.extract_samples"),
        "corpus.extract_calls": stats.calls("corpus.extract_corpus_samples")
        + stats.calls("corpus.extract_samples"),
        "vocab.build_s": stats.total("vocab.build_vocabulary"),
        "vocab.map_s": stats.total("vocab.map_tokens"),
        "jointlm.cast_s": stats.total("jointlm.astype"),
        "jointlm.cast_calls": stats.calls("jointlm.astype"),
        "jointlm.cast_mb": stats.count("jointlm.astype", "bytes") / 1e6,
        "jointlm.pack_s": stats.total("jointlm.from_samples"),
        "jointlm.pack_calls": stats.calls("jointlm.from_samples"),
        "encoder.forward_s": enc_fwd,
        "encoder.forward_calls": stats.calls("encoder.forward_batch"),
        "encoder.forward_rows": stats.count("encoder.forward_batch", "rows"),
        "encoder.forward_gflops": _rate(
            stats.count("encoder.forward_batch", "flops"), enc_fwd),
        "encoder.distinct_input_ratio": keys.ratio(),
        "encoder.backward_s": enc_bwd,
        "encoder.backward_gflops": _rate(
            stats.count("encoder.backward_batch", "flops"), enc_bwd),
        "jointlm.predict_forward_s": pred_fwd,
        "jointlm.predict_forward_gflops": _rate(
            stats.count("jointlm.predict_forward_batch", "flops"), pred_fwd),
        "jointlm.predict_backward_s": pred_bwd,
        "jointlm.predict_backward_gflops": _rate(
            stats.count("jointlm.predict_backward_batch", "flops"), pred_bwd),
        "jointlm.perplexity_self_s": stats.self_time("jointlm.perplexity"),
        "training.train_model_self_s": stats.self_time("training.train_model"),
        "training.backward_self_s": stats.self_time("training.backward"),
        "training.sgd_step_s": stats.total("training.sgd_step"),
        "training.steps": stats.calls("training.sgd_step"),
        "nbest.score_self_s": stats.self_time("nbest.score_nbest"),
        "nbest.parse_s": stats.total("nbest.parse_nbest_line"),
        "nbest.format_s": stats.total("nbest.format_annotated_line"),
        "nbest.hyp_self_s": stats.self_time("nbest.hypothesis_log_prob"),
        "nbest.lines": stats.calls("nbest.format_annotated_line"),
        "trace.bookkeep_s": stats.total(BOOKKEEP),
    }
