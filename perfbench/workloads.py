"""The three benchmark workloads: inputs, set-up, work and checks.

Set-up and work make the same public calls, in the same order, as the
matching ``cjlm.cli._cmd_*`` body, so set-up time is separable from work
time without tracing. ``selftest.py`` holds each workload to its command.

Each workload is closed loop with one caller. Work repeats whole jobs until
the deadline passes, and always does at least one:

* train:   ``train_model`` for one epoch, then ``save_model``;
* rescore: a pair of n-best lists streamed through ``score_nbest``;
* eval:    one ``perplexity`` pass over the held-out set.

Checks run after the timed phases. Each failed check marks the operations
it covers as failed: minibatch steps, n-best lines or held-out sentences.
"""

from __future__ import annotations

import importlib.util
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen
from envinfo import ROOT
from cjlm import corpus as cp
from cjlm import jointlm as jm
from cjlm import nbest as nb
from cjlm import serialization, training, vocab
from cjlm.cli import GRAD_CHECK_THRESHOLD
from cjlm.corpus import AlignedSentencePair
from cjlm.serialization import ModelArtifact
from cjlm.training import TrainConfig

ORACLE_TOLERANCE = 1e-9
ORACLE_WORDS = 2  # ~1 s each at paper dimensions
LEARNING_RATE = 0.1
LOSS_PROBE_SAMPLES = 512


def _oracle():
    """The loop reference implementation from the test suite."""
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.reference_log_probs


@dataclass
class Job:
    """One timed unit of work."""

    seconds: float
    words: int  # target-word events: samples, hypothesis words plus EOS
    sentences: int  # training pairs, hypotheses or held-out sentences
    ops: int  # minibatch steps, n-best lines or held-out sentences


@dataclass
class Checks:
    failed_ops: set = field(default_factory=set)
    notes: list[str] = field(default_factory=list)

    def fail(self, ops, note: str) -> None:
        self.failed_ops.update(ops)
        self.notes.append(note)


class Train:
    name = "train_tag_gating"
    arch, fusion = "tag", "gating"
    setup_reps = 5

    def __init__(self, scale: gen.Scale):
        self.scale = scale
        self.cfg = scale.encoder_config(self.arch, self.fusion)

    def traffic(self) -> dict:
        s = self.scale
        return {"pairs": s.train_pairs, "source_words": s.src_len,
                "target_words": s.tgt_len, "types_per_side": s.vocab_types,
                "overlong_share": gen.OVERLONG_PAIR_SHARE,
                "unaligned_share": gen.UNALIGNED_PAIR_SHARE,
                "minibatch": s.minibatch, "epochs": 1}

    def make_inputs(self, seed: int, directory: Path):
        return gen.write_train_corpus(gen.Traffic(seed, self.scale), directory)

    def setup(self, inputs, seed: int):
        pairs = cp.read_parallel_corpus(inputs.source, inputs.target, inputs.alignment)
        src_vocab = vocab.build_vocabulary((p.source_tokens for p in pairs),
                                           self.scale.vocab_types)
        tgt_vocab = vocab.build_vocabulary((p.target_tokens for p in pairs),
                                           self.scale.vocab_types)
        stats = cp.ExtractionStats()
        samples = list(cp.extract_corpus_samples(
            pairs, src_vocab, tgt_vocab, k=self.cfg.history,
            maxlen=self.cfg.maxlen, emit_eos=True, stats=stats,
        ))
        train_cfg = TrainConfig(learning_rate=LEARNING_RATE,
                                minibatch=self.scale.minibatch, epochs=1,
                                seed=seed, init_scale=gen.INIT_SCALE)
        return {"pairs": pairs, "src_vocab": src_vocab, "tgt_vocab": tgt_vocab,
                "stats": stats, "samples": samples, "train_cfg": train_cfg}

    def work(self, inputs, st, deadline: float, output: Path):
        jobs = []
        stats, train_cfg = st["stats"], st["train_cfg"]
        while True:
            start = time.perf_counter()
            params, metrics = training.train_model(
                st["samples"], self.cfg, train_cfg,
                src_vocab_size=len(st["src_vocab"]),
                tgt_vocab_size=len(st["tgt_vocab"]),
                hidden_dims=self.scale.hidden,
            )
            artifact = ModelArtifact(
                encoder_config=self.cfg, source_vocab=st["src_vocab"],
                target_vocab=st["tgt_vocab"], params=params,
                train_config=train_cfg, emit_eos=True,
                provenance={
                    "seed": train_cfg.seed,
                    "corpus_lines": len(st["pairs"]),
                    "train_samples": stats.samples,
                    "skipped_too_long": stats.skipped_too_long,
                    "skipped_unalignable": stats.skipped_unalignable,
                    "epochs": [m.provenance() for m in metrics],
                },
            )
            serialization.save_model(artifact, output)
            used = stats.sentences - stats.skipped_too_long - stats.skipped_unalignable
            jobs.append(Job(time.perf_counter() - start, len(st["samples"]), used,
                            math.ceil(len(st["samples"]) / train_cfg.minibatch)))
            if time.perf_counter() >= deadline:
                return jobs, (params, metrics)

    def check(self, inputs, st, jobs, result, output: Path, rng) -> Checks:
        checks = Checks()
        every_step = range(sum(j.ops for j in jobs))
        params, metrics = result
        if not all(math.isfinite(m.train_nll) for m in metrics):
            checks.fail(every_step, f"non-finite training loss {metrics}")
        samples, train_cfg = st["samples"], st["train_cfg"]
        probe = [samples[i] for i in
                 rng.choice(len(samples), min(LOSS_PROBE_SAMPLES, len(samples)),
                            replace=False)]
        initial = jm.JointModelParams.initialize(
            self.cfg, len(st["src_vocab"]), len(st["tgt_vocab"]), self.scale.hidden,
            np.random.default_rng(train_cfg.seed), init_scale=train_cfg.init_scale,
        )
        before = training.minibatch_loss(probe, self.cfg, initial)
        after = training.minibatch_loss(probe, self.cfg, params)
        if not (math.isfinite(after) and after < before):
            checks.fail(every_step, f"probe loss did not fall: {before} -> {after}")
        small = gen.TINY.encoder_config(self.arch, self.fusion)
        worst = max(training.gradient_check(small, seed=int(rng.integers(1 << 16))).values())
        if not worst < GRAD_CHECK_THRESHOLD:
            checks.fail(every_step, f"gradient check error {worst:.3e}")
        saved = serialization.load_model(output).params.tensors()
        if any(not np.array_equal(saved[k], v) for k, v in params.tensors().items()):
            checks.fail(every_step, "saved model differs from the trained one")
        return checks


def _list_id(line: str) -> str:
    return line.split(nb.FIELD_SEPARATOR, 1)[0]


def _nbest_lines(path: Path, deadline: float, stops: list[float]):
    """Stream n-best lines; after the deadline, stop at a list-pair boundary.

    Records the time at each pair boundary, so each pair is one job.
    """
    with open(path, encoding="utf-8") as f:
        current, lists = None, 0
        for line in f:
            sentence_id = _list_id(line)
            if sentence_id != current:
                if lists and lists % 2 == 0:
                    stops.append(time.perf_counter())
                    if stops[-1] >= deadline:
                        return
                current, lists = sentence_id, lists + 1
            yield line.rstrip("\n")


class Rescore:
    name = "rescore_generic_100best"
    arch, fusion = "generic", "gating"
    setup_reps = 9

    def __init__(self, scale: gen.Scale):
        self.scale = scale

    def traffic(self) -> dict:
        s = self.scale
        return {"lists": s.nbest_lists, "hyps_per_list": s.nbest_size,
                "source_words": s.src_len, "hypothesis_words": s.tgt_len,
                "types_per_side": s.vocab_types, "oov_types": s.oov_types,
                "sources_within_maxlen": True}

    def make_inputs(self, seed: int, directory: Path):
        inputs = gen.write_nbest(gen.Traffic(seed, self.scale), directory)
        gen.write_model(directory / "model.cjlm", self.scale, self.arch, self.fusion, seed)
        return inputs, directory / "model.cjlm"

    def setup(self, inputs, seed: int):
        nbest_files, model = inputs
        artifact = serialization.load_model(model)
        source_sentences = cp.read_token_lines(nbest_files.source)
        return artifact, source_sentences

    def work(self, inputs, st, deadline: float, output: Path):
        artifact, source_sentences = st
        stops = [time.perf_counter()]
        lines = _nbest_lines(inputs[0].nbest, deadline, stops)
        annotated = nb.score_nbest(artifact, source_sentences, lines, heads=None,
                                   feature_name=nb.DEFAULT_FEATURE_NAME)
        with open(output, "w", encoding="utf-8") as out:
            for line in annotated:
                out.write(line + "\n")
        stops.append(time.perf_counter())
        return self._pair_jobs(output, stops, int(artifact.emit_eos)), None

    @staticmethod
    def _pair_jobs(output: Path, stops: list[float], eos: int) -> list[Job]:
        """One job per list pair, from the pair-boundary times."""
        with open(output, encoding="utf-8") as f:
            lines = f.read().splitlines()
        per_list: dict[str, list[int]] = {}
        for line in lines:
            words = len(line.split(nb.FIELD_SEPARATOR)[1].split()) + eos
            per_list.setdefault(_list_id(line), []).append(words)
        sizes = list(per_list.values())
        jobs = []
        for i, (start, end) in enumerate(zip(stops, stops[1:])):
            pair = sizes[2 * i : 2 * i + 2]
            if pair:
                jobs.append(Job(end - start, sum(map(sum, pair)),
                                sum(map(len, pair)), sum(map(len, pair))))
        return jobs

    def check(self, inputs, st, jobs, result, output: Path, rng) -> Checks:
        nbest_inputs, _ = inputs
        artifact, source_sentences = st
        checks = Checks()
        with open(output, encoding="utf-8") as f:
            scored = f.read().splitlines()
        with open(nbest_inputs.nbest, encoding="utf-8") as f:
            originals = [next(f).rstrip("\n") for _ in scored]
        values = []
        for i, (line, original) in enumerate(zip(scored, originals)):
            fields, before = line.split(nb.FIELD_SEPARATOR), original.split(nb.FIELD_SEPARATOR)
            prefix = f"{before[3].rstrip()} {nb.DEFAULT_FEATURE_NAME}= "
            value = math.nan
            if fields[3].startswith(prefix) and fields[3].endswith(" "):
                value = float(fields[3][len(prefix):-1])
            values.append(value)
            if (fields[:3] + fields[4:] != before[:3] + before[4:]
                    or not (math.isfinite(value) and value <= 0.0)):
                checks.fail([i], f"line {i + 1}: bad annotation {line!r}")

        # One seeded list, rescored with all its samples in one batch.
        list_ids = sorted({_list_id(line) for line in scored}, key=int)
        chosen = list_ids[int(rng.integers(len(list_ids)))]
        members = [i for i, line in enumerate(originals) if _list_id(line) == chosen]
        cfg = artifact.encoder_config
        per_hyp = []
        for i in members:
            entry = nb.parse_nbest_line(originals[i])
            pair = AlignedSentencePair(
                source_tokens=tuple(source_sentences[entry.sentence_id]),
                target_tokens=entry.tokens, alignment=entry.alignment or frozenset(),
            )
            per_hyp.append(cp.extract_samples(
                pair, artifact.source_vocab, artifact.target_vocab, k=cfg.history,
                maxlen=cfg.maxlen, emit_eos=artifact.emit_eos,
                with_guides=cfg.tag_bits > 0,
            ))
        flat = [s for samples in per_hyp for s in samples]
        log_probs = jm.log_probs_batch(flat, cfg, artifact.params)
        offsets = np.cumsum([0] + [len(s) for s in per_hyp])
        for i, lo, hi in zip(members, offsets, offsets[1:]):
            if not abs(log_probs[lo:hi].sum() - values[i]) <= ORACLE_TOLERANCE:
                checks.fail([i], f"line {i + 1}: feature {values[i]!r} != batch sum "
                            f"{float(log_probs[lo:hi].sum())!r}")

        reference = _oracle()
        owner = np.searchsorted(offsets, np.arange(len(flat)), side="right") - 1
        for j in rng.choice(len(flat), min(ORACLE_WORDS, len(flat)), replace=False):
            sample = flat[j]
            expected = reference(sample, cfg, artifact.params)[sample.target]
            if not abs(expected - log_probs[j]) <= ORACLE_TOLERANCE:
                checks.fail([members[owner[j]]],
                            f"oracle {expected!r} != log_probs_batch {float(log_probs[j])!r}")
        return checks


class Eval:
    name = "eval_attention_pooling"
    arch, fusion = "attention", "pooling"
    setup_reps = 9

    def __init__(self, scale: gen.Scale):
        self.scale = scale

    def traffic(self) -> dict:
        s = self.scale
        return {"sentences": s.eval_sentences, "source_words": s.src_len,
                "target_words": s.tgt_len, "types_per_side": s.vocab_types,
                "oov_types": s.oov_types, "batch_rows": 512}

    def make_inputs(self, seed: int, directory: Path):
        inputs = gen.write_eval_corpus(gen.Traffic(seed, self.scale), directory)
        gen.write_model(directory / "model.cjlm", self.scale, self.arch, self.fusion, seed)
        return inputs, directory / "model.cjlm"

    def setup(self, inputs, seed: int):
        corpus_files, model = inputs
        artifact = serialization.load_model(model)
        cfg = artifact.encoder_config
        pairs = cp.read_parallel_corpus(corpus_files.source, corpus_files.target,
                                        corpus_files.alignment)
        samples = list(cp.extract_corpus_samples(
            pairs, artifact.source_vocab, artifact.target_vocab,
            k=cfg.history, maxlen=cfg.maxlen, emit_eos=artifact.emit_eos,
        ))
        return artifact, pairs, samples

    def work(self, inputs, st, deadline: float, output: Path):
        artifact, pairs, samples = st
        jobs, lines = [], []
        while True:
            start = time.perf_counter()
            ppl = jm.perplexity(samples, artifact.encoder_config, artifact.params)
            lines.append(f"perplexity={ppl:.6f} samples={len(samples)}")
            jobs.append(Job(time.perf_counter() - start, len(samples),
                            len(pairs), len(pairs)))
            if time.perf_counter() >= deadline:
                break
        output.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return jobs, lines

    def check(self, inputs, st, jobs, result, output: Path, rng) -> Checks:
        artifact, pairs, samples = st
        checks = Checks()
        n = len(pairs)
        for k, line in enumerate(result):
            ppl = float(line.split()[0].split("=")[1])
            if line != result[0] or not (math.isfinite(ppl) and ppl > 1.0):
                checks.fail(range(k * n, (k + 1) * n), f"pass {k}: {line}")
        cfg = artifact.encoder_config
        lengths = [len(p.target_tokens) + int(artifact.emit_eos) for p in pairs]
        offsets = np.cumsum([0] + lengths)
        reference = _oracle()
        for j in rng.choice(len(samples), min(ORACLE_WORDS, len(samples)), replace=False):
            sample = samples[j]
            expected = reference(sample, cfg, artifact.params)[sample.target]
            got = float(jm.log_probs_batch([sample], cfg, artifact.params)[0])
            if not abs(expected - got) <= ORACLE_TOLERANCE:
                sentence = int(np.searchsorted(offsets, j, side="right") - 1)
                checks.fail(range(sentence, len(result) * n, n),
                            f"oracle {expected!r} != log_probs_batch {got!r}")
        return checks


WORKLOADS = {w.name: w for w in (Train, Rescore, Eval)}
