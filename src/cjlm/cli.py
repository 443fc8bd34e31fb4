"""Command-line surface.

Subcommands: ``train`` fits a model from parallel text plus alignments,
``eval-ppl`` reports held-out perplexity, ``score-nbest`` appends the model
feature to an n-best file, ``grad-check`` verifies backpropagation against
finite differences, and ``inspect`` dumps a saved model's configuration and
parameter statistics.

Exit codes: 0 on success, 2 for usage errors, 1 with a one-line
``error: ...`` message for everything else.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import corpus as cp
from . import jointlm as jm
from . import nbest as nb
from .encoder import ARCHS, FUSIONS, EncoderConfig
from .errors import CjlmError, ConfigError
from .serialization import ModelArtifact, load_model, save_model
from .training import TrainConfig, gradient_check, train_model
from .vocab import build_vocabulary

GRAD_CHECK_THRESHOLD = 1e-4


def _add_train_parser(sub):
    p = sub.add_parser("train", help="train a joint language model")
    p.add_argument("--source", required=True, help="tokenized source sentences")
    p.add_argument("--target", required=True, help="tokenized target sentences")
    p.add_argument("--alignment", required=True,
                   help="per-sentence 'i-j' source-target alignment pairs")
    p.add_argument("--heads", help="per-source-token dependency head indices")
    p.add_argument("--output", required=True, help="model file to write")
    p.add_argument("--arch", choices=ARCHS, default="generic")
    p.add_argument("--fusion", choices=FUSIONS, default="gating")
    p.add_argument("--pool-k", type=int, default=2,
                   help="top-k size for global pooling fusion")
    p.add_argument("--emb-dim", type=int, default=100)
    p.add_argument("--tgt-emb-dim", type=int, default=100)
    p.add_argument("--attn-dim", type=int, default=100)
    p.add_argument("--filters", type=int, default=100,
                   help="feature maps per convolution layer")
    p.add_argument("--repr-dim", type=int, default=100)
    p.add_argument("--maxlen", type=int, default=40)
    p.add_argument("--ngram", type=int, default=4,
                   help="joint LM order; history is ngram-1 words")
    p.add_argument("--hidden", type=int, nargs="+", default=[200],
                   help="predictor hidden layer sizes")
    p.add_argument("--vocab-limit", type=int, default=20000)
    p.add_argument("--minibatch", type=int, default=500)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--learning-rate", type=float, default=0.1)
    p.add_argument("--init-scale", type=float, default=0.08,
                   help="half-width of the uniform weight initialization")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--lr-halving", action="store_true",
                   help="halve the learning rate when held-out perplexity stalls")
    p.add_argument("--grad-clip", type=float, default=None)
    p.add_argument("--no-emit-eos", dest="emit_eos", action="store_false",
                   help="do not train on end-of-sentence prediction events")
    p.add_argument("--held-out-source")
    p.add_argument("--held-out-target")
    p.add_argument("--held-out-alignment")
    p.add_argument("--held-out-heads")
    p.add_argument("--metrics-file", help="append per-epoch metric lines here")
    p.set_defaults(func=_cmd_train)


def _read_pairs(source, target, alignment, heads):
    return cp.read_parallel_corpus(source, target, alignment, heads_path=heads)


def _samples_from_pairs(pairs, src_vocab, tgt_vocab, cfg, emit_eos, stats=None):
    return list(
        cp.extract_corpus_samples(
            pairs, src_vocab, tgt_vocab,
            k=cfg.history, maxlen=cfg.maxlen, emit_eos=emit_eos, stats=stats,
        )
    )


def _cmd_train(args) -> int:
    if args.ngram < 2:
        raise ConfigError("ngram must be at least 2")
    cfg = EncoderConfig(
        arch=args.arch,
        emb_dim=args.emb_dim,
        tgt_emb_dim=args.tgt_emb_dim,
        attn_dim=args.attn_dim,
        filters1=args.filters,
        filters3=args.filters,
        repr_dim=args.repr_dim,
        maxlen=args.maxlen,
        history=args.ngram - 1,
        fusion=args.fusion,
        pool_k=args.pool_k,
    )
    if cfg.arch == "tag_dep" and args.heads is None:
        raise ConfigError("arch 'tag_dep' requires --heads")
    train_cfg = TrainConfig(
        learning_rate=args.learning_rate,
        minibatch=args.minibatch,
        epochs=args.epochs,
        seed=args.seed,
        lr_halving=args.lr_halving,
        grad_clip=args.grad_clip,
        init_scale=args.init_scale,
    )
    pairs = _read_pairs(args.source, args.target, args.alignment, args.heads)
    src_vocab = build_vocabulary((p.source_tokens for p in pairs), args.vocab_limit)
    tgt_vocab = build_vocabulary((p.target_tokens for p in pairs), args.vocab_limit)
    stats = cp.ExtractionStats()
    samples = _samples_from_pairs(pairs, src_vocab, tgt_vocab, cfg,
                                  args.emit_eos, stats)
    if not samples:
        raise ConfigError("no usable training samples after filtering")

    held_out = None
    if args.held_out_source:
        if not (args.held_out_target and args.held_out_alignment):
            raise ConfigError(
                "--held-out-source needs --held-out-target and "
                "--held-out-alignment"
            )
        if cfg.arch == "tag_dep" and args.held_out_heads is None:
            raise ConfigError("arch 'tag_dep' requires --held-out-heads")
        held_pairs = _read_pairs(args.held_out_source, args.held_out_target,
                                 args.held_out_alignment, args.held_out_heads)
        held_out = _samples_from_pairs(held_pairs, src_vocab, tgt_vocab, cfg,
                                       args.emit_eos)

    metrics_file = open(args.metrics_file, "a") if args.metrics_file else None
    try:
        def on_epoch(entry):
            line = entry.format_line()
            print(line)
            if metrics_file is not None:
                metrics_file.write(line + "\n")
                metrics_file.flush()

        params, metrics = train_model(
            samples, cfg, train_cfg,
            src_vocab_size=len(src_vocab),
            tgt_vocab_size=len(tgt_vocab),
            hidden_dims=tuple(args.hidden),
            held_out=held_out,
            on_epoch=on_epoch,
        )
    finally:
        if metrics_file is not None:
            metrics_file.close()

    artifact = ModelArtifact(
        encoder_config=cfg,
        source_vocab=src_vocab,
        target_vocab=tgt_vocab,
        params=params,
        train_config=train_cfg,
        emit_eos=args.emit_eos,
        provenance={
            "seed": args.seed,
            "corpus_lines": len(pairs),
            "train_samples": stats.samples,
            "skipped_too_long": stats.skipped_too_long,
            "skipped_unalignable": stats.skipped_unalignable,
            "epochs": [m.provenance() for m in metrics],
        },
    )
    save_model(artifact, args.output)
    print(f"saved model to {args.output}")
    return 0


def _add_eval_parser(sub):
    p = sub.add_parser("eval-ppl", help="perplexity of a model on parallel text")
    p.add_argument("--model", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--alignment", required=True)
    p.add_argument("--heads")
    p.set_defaults(func=_cmd_eval_ppl)


def _cmd_eval_ppl(args) -> int:
    artifact = load_model(args.model)
    cfg = artifact.encoder_config
    if cfg.arch == "tag_dep" and args.heads is None:
        raise ConfigError("arch 'tag_dep' requires --heads")
    pairs = _read_pairs(args.source, args.target, args.alignment, args.heads)
    samples = _samples_from_pairs(
        pairs, artifact.source_vocab, artifact.target_vocab, cfg,
        artifact.emit_eos,
    )
    if not samples:
        raise ConfigError("no usable samples after filtering")
    ppl = jm.perplexity(samples, cfg, artifact.params)
    print(f"perplexity={ppl:.6f} samples={len(samples)}")
    return 0


def _add_score_parser(sub):
    p = sub.add_parser("score-nbest",
                       help="append the model feature to an n-best file")
    p.add_argument("--model", required=True)
    p.add_argument("--source", required=True,
                   help="source sentences addressed by n-best sentence ids")
    p.add_argument("--nbest", required=True)
    p.add_argument("--heads")
    p.add_argument("--output", help="annotated n-best file (default stdout)")
    p.add_argument("--feature-name", default=nb.DEFAULT_FEATURE_NAME)
    p.set_defaults(func=_cmd_score_nbest)


def _cmd_score_nbest(args) -> int:
    artifact = load_model(args.model)
    cfg = artifact.encoder_config
    source_sentences = cp.read_token_lines(args.source)
    heads = None
    if cfg.arch == "tag_dep":
        if args.heads is None:
            raise ConfigError("arch 'tag_dep' requires --heads")
        with open(args.heads, encoding="utf-8") as f:
            head_lines = f.read().splitlines()
        if len(head_lines) != len(source_sentences):
            raise ConfigError(
                f"heads file has {len(head_lines)} lines, source has "
                f"{len(source_sentences)}"
            )
        heads = [
            cp.parse_heads_line(line, len(sent))
            for line, sent in zip(head_lines, source_sentences)
        ]
    with open(args.nbest, encoding="utf-8") as f:
        annotated = nb.score_nbest(
            artifact, source_sentences, f,
            heads=heads, feature_name=args.feature_name,
        )
        if args.output:
            with open(args.output, "w", encoding="utf-8") as out:
                for line in annotated:
                    out.write(line + "\n")
        else:
            for line in annotated:
                print(line)
    return 0


def _add_grad_check_parser(sub):
    p = sub.add_parser("grad-check",
                       help="verify gradients against finite differences")
    p.add_argument("--arch", choices=ARCHS + ("all",), default="all")
    p.add_argument("--fusion", choices=FUSIONS + ("both",), default="both")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=1e-4)
    p.add_argument("--max-coords", type=int, default=64,
                   help="sampled coordinates per parameter group")
    p.set_defaults(func=_cmd_grad_check)


def _small_check_config(arch: str, fusion: str) -> EncoderConfig:
    return EncoderConfig(
        arch=arch, emb_dim=8, tgt_emb_dim=8, attn_dim=8,
        filters1=6, filters3=6, repr_dim=8, maxlen=10, history=3,
        fusion=fusion, pool_k=2,
    )


def _cmd_grad_check(args) -> int:
    archs = ARCHS if args.arch == "all" else (args.arch,)
    fusions = FUSIONS if args.fusion == "both" else (args.fusion,)
    worst_name, worst = None, 0.0
    for arch in archs:
        for fusion in fusions:
            cfg = _small_check_config(arch, fusion)
            report = gradient_check(
                cfg, seed=args.seed, epsilon=args.epsilon,
                max_coords_per_group=args.max_coords,
            )
            for group, err in report.items():
                print(f"{arch}/{fusion} {group}: {err:.3e}")
                if err > worst:
                    worst_name, worst = f"{arch}/{fusion} {group}", err
    if worst >= GRAD_CHECK_THRESHOLD:
        print(f"error: gradient check failed: {worst_name} = {worst:.3e}",
              file=sys.stderr)
        return 1
    print(f"grad-check passed: worst {worst_name} = {worst:.3e}")
    return 0


def _add_inspect_parser(sub):
    p = sub.add_parser("inspect", help="dump model config and statistics")
    p.add_argument("--model", required=True)
    p.add_argument("--histogram-bins", type=int, default=10)
    p.set_defaults(func=_cmd_inspect)


def _cmd_inspect(args) -> int:
    artifact = load_model(args.model)
    cfg = artifact.encoder_config
    for name in ("arch", "emb_dim", "tgt_emb_dim", "attn_dim", "filters1",
                 "filters3", "repr_dim", "maxlen", "history", "fusion",
                 "pool_k", "attn_depth"):
        print(f"{name}={getattr(cfg, name)}")
    print(f"hidden_dims={','.join(str(d) for d in artifact.params.hidden_dims)}")
    print(f"emit_eos={artifact.emit_eos}")
    print(f"source_vocab={len(artifact.source_vocab)}")
    print(f"target_vocab={len(artifact.target_vocab)}")
    print(f"provenance={json.dumps(artifact.provenance, sort_keys=True)}")
    print("tensor,shape,size,min,max,mean,std")
    for name, tensor in artifact.params.tensors().items():
        t = tensor.astype(np.float64)
        shape = "x".join(str(d) for d in t.shape)
        print(f"{name},{shape},{t.size},{t.min():.6g},{t.max():.6g},"
              f"{t.mean():.6g},{t.std():.6g}")
    gate = artifact.params.encoder.gate_global_w
    if gate is not None:
        print("global_gate_weight_histogram")
        print("bin_lo,bin_hi,count")
        counts, edges = np.histogram(gate.astype(np.float64),
                                     bins=args.histogram_bins)
        for lo, hi, count in zip(edges[:-1], edges[1:], counts):
            print(f"{lo:.6g},{hi:.6g},{count}")
    else:
        print("global_gate_weight_histogram=none (pooling fusion)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cjlm",
        description="Convolutional joint language model toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_train_parser(sub)
    _add_eval_parser(sub)
    _add_score_parser(sub)
    _add_grad_check_parser(sub)
    _add_inspect_parser(sub)
    return parser


def cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except CjlmError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli(sys.argv[1:]))
