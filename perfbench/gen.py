"""Seeded synthetic inputs for the benchmark workloads.

Everything is a pure function of the seed and the ``Scale``. The program
under test sees only the files written here, never the generator's state.

Traffic properties:

* tokens follow a Zipf law (exponent 1) over ranked types ``s<rank>`` and
  ``t<rank>``; held-out and n-best text also draws ranks past the
  vocabulary, so a few tokens map to UNK;
* sources have 10-40 words and targets or hypotheses 15-30, spread evenly
  over that range, so that every seed yields the same amount of work;
* word alignments run near the diagonal, with some target words unaligned
  so the affiliation rule borrows from neighbours;
* a training corpus holds every one of its ``vocab_types`` types on each
  side, so the model always has full-size vocabularies. The tail of the
  distribution is therefore mostly single occurrences;
* 2% of training pairs have an overlong source and 2% no alignment, so the
  extraction skip counters run;
* an n-best list is 100 variants of one base translation, each a few
  substitutions, adjacent swaps or deletions away from it, so the
  hypotheses share n-grams. Base lengths come in pairs that sum to a
  constant, and rescoring stops only at a pair boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cjlm.encoder import EncoderConfig
from cjlm.jointlm import JointModelParams
from cjlm.serialization import ModelArtifact, save_model
from cjlm.vocab import RESERVED_TOKENS, Vocabulary

ZIPF_EXPONENT = 1.0
UNALIGNED_WORD_SHARE = 0.15
SECOND_LINK_SHARE = 0.2
OVERLONG_PAIR_SHARE = 0.02
UNALIGNED_PAIR_SHARE = 0.02
MAX_HYP_DELETIONS = 2
INIT_SCALE = 0.08


@dataclass(frozen=True)
class Scale:
    """Model dimensions and traffic sizes for one benchmark size."""

    vocab_types: int  # content types per side, the vocabulary limit
    oov_types: int  # extra ranks drawn in held-out and n-best text
    emb: int
    filters: int
    repr_dim: int
    maxlen: int
    history: int
    hidden: tuple[int, ...]
    minibatch: int
    src_len: tuple[int, int]
    tgt_len: tuple[int, int]
    train_pairs: int
    eval_sentences: int
    nbest_lists: int
    nbest_size: int

    def encoder_config(self, arch: str, fusion: str) -> EncoderConfig:
        return EncoderConfig(
            arch=arch, emb_dim=self.emb, tgt_emb_dim=self.emb,
            attn_dim=self.emb, filters1=self.filters, filters3=self.filters,
            repr_dim=self.repr_dim, maxlen=self.maxlen, history=self.history,
            fusion=fusion,
        )

    @property
    def base_len(self) -> tuple[int, int]:
        """Base translation lengths: deletions keep hypotheses in tgt_len."""
        return self.tgt_len[0] + MAX_HYP_DELETIONS, self.tgt_len[1]


# Paper dimensions. 944 pairs is the smallest corpus whose ~21k target
# tokens hold all 20 000 types with a Zipf head left over.
PAPER = Scale(
    vocab_types=20000, oov_types=1000, emb=100, filters=100, repr_dim=100,
    maxlen=40, history=3, hidden=(200,), minibatch=500,
    src_len=(10, 40), tgt_len=(15, 30), train_pairs=944,
    eval_sentences=128, nbest_lists=120, nbest_size=100,
)

# The dimensions `cjlm grad-check` uses, with traffic to match.
TINY = Scale(
    vocab_types=40, oov_types=4, emb=8, filters=6, repr_dim=8,
    maxlen=10, history=3, hidden=(12,), minibatch=32,
    src_len=(4, 10), tgt_len=(3, 8), train_pairs=50,
    eval_sentences=12, nbest_lists=2, nbest_size=6,
)


def _spread(rng, n: int, lo: int, hi: int) -> np.ndarray:
    """n lengths spread evenly over [lo, hi], in seeded order."""
    return rng.permutation(np.rint(np.linspace(lo, hi, n)).astype(int))


class Traffic:
    def __init__(self, seed: int, scale: Scale):
        self.rng = np.random.default_rng(seed)
        self.scale = scale
        ranks = np.arange(1, scale.vocab_types + scale.oov_types + 1)
        weights = ranks ** -ZIPF_EXPONENT
        self._p_all = weights / weights.sum()
        head = weights[: scale.vocab_types]
        self._p_vocab = head / head.sum()

    def zipf(self, n: int, oov: bool) -> np.ndarray:
        """n ranks, 1-based; with ``oov`` some fall past the vocabulary."""
        p = self._p_all if oov else self._p_vocab
        return self.rng.choice(len(p), size=n, p=p) + 1

    def covering_zipf(self, n: int) -> np.ndarray:
        """n Zipf ranks in which every vocabulary rank occurs at least once.

        Missing ranks overwrite random positions whose rank occurs again
        elsewhere, so frequent ranks lose occurrences and none vanishes.
        """
        types = self.scale.vocab_types
        if n < types:
            raise ValueError(f"{n} tokens cannot hold {types} types")
        draws = self.zipf(n, oov=False)
        counts = np.bincount(draws, minlength=types + 1)
        missing = iter(np.flatnonzero(counts[1:] == 0) + 1)
        rank = next(missing, None)
        for pos in self.rng.permutation(n):
            if rank is None:
                break
            old = draws[pos]
            if counts[old] > 1:
                counts[old] -= 1
                draws[pos] = rank
                rank = next(missing, None)
        return draws

    def alignment(self, n_src: int, n_tgt: int) -> list[tuple[int, int]]:
        """(source, target) links near the diagonal; at least one link."""
        rng = self.rng
        tgt = np.arange(n_tgt)
        src = np.clip(np.rint(tgt * n_src / n_tgt + rng.normal(0.0, 1.0, n_tgt)),
                      0, n_src - 1).astype(int)
        keep = rng.random(n_tgt) >= UNALIGNED_WORD_SHARE
        keep[rng.integers(n_tgt)] = True
        links = {(int(s), int(t)) for s, t, k in zip(src, tgt, keep) if k}
        second = keep & (rng.random(n_tgt) < SECOND_LINK_SHARE) & (src + 1 < n_src)
        links.update((int(s) + 1, int(t)) for s, t in zip(src[second], tgt[second]))
        return sorted(links, key=lambda st: (st[1], st[0]))


def _words(prefix: str, ranks) -> list[str]:
    return [f"{prefix}{r}" for r in ranks]


def _split(tokens: list[str], lengths) -> list[list[str]]:
    out, pos = [], 0
    for n in lengths:
        out.append(tokens[pos : pos + n])
        pos += n
    return out


def _write_lines(path: Path, lines) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for line in lines:
            f.write(line + "\n")


def _links_text(links) -> str:
    return " ".join(f"{s}-{t}" for s, t in links)


@dataclass(frozen=True)
class Corpus:
    source: Path
    target: Path
    alignment: Path
    pairs: int


def write_train_corpus(traffic: Traffic, directory: Path) -> Corpus:
    """Parallel training text holding every vocabulary type on each side."""
    scale, rng = traffic.scale, traffic.rng
    n = scale.train_pairs
    tgt_lens = _spread(rng, n, *scale.tgt_len)
    src_lens = _spread(rng, n, *scale.src_len)
    skipped = rng.permutation(n)
    n_overlong = round(n * OVERLONG_PAIR_SHARE)
    n_unaligned = round(n * UNALIGNED_PAIR_SHARE)
    overlong = skipped[:n_overlong]
    unaligned = set(skipped[n_overlong : n_overlong + n_unaligned].tolist())
    src_lens[overlong] = rng.integers(scale.maxlen + 1, scale.maxlen + 11, n_overlong)
    sources = _split(_words("s", traffic.covering_zipf(int(src_lens.sum()))), src_lens)
    targets = _split(_words("t", traffic.covering_zipf(int(tgt_lens.sum()))), tgt_lens)
    links = [
        "" if i in unaligned
        else _links_text(traffic.alignment(len(sources[i]), len(targets[i])))
        for i in range(n)
    ]
    return _write_corpus(directory, "train", sources, targets, links)


def write_eval_corpus(traffic: Traffic, directory: Path) -> Corpus:
    """Held-out parallel text: all pairs usable, some tokens out of vocabulary."""
    scale, rng = traffic.scale, traffic.rng
    n = scale.eval_sentences
    tgt_lens = _spread(rng, n, *scale.tgt_len)
    src_lens = _spread(rng, n, *scale.src_len)
    sources = _split(_words("s", traffic.zipf(int(src_lens.sum()), oov=True)), src_lens)
    targets = _split(_words("t", traffic.zipf(int(tgt_lens.sum()), oov=True)), tgt_lens)
    links = [_links_text(traffic.alignment(len(s), len(t)))
             for s, t in zip(sources, targets)]
    return _write_corpus(directory, "heldout", sources, targets, links)


def _write_corpus(directory, stem, sources, targets, links) -> Corpus:
    corpus = Corpus(directory / f"{stem}.src", directory / f"{stem}.tgt",
                    directory / f"{stem}.aln", len(sources))
    _write_lines(corpus.source, (" ".join(s) for s in sources))
    _write_lines(corpus.target, (" ".join(t) for t in targets))
    _write_lines(corpus.alignment, links)
    return corpus


@dataclass(frozen=True)
class NBest:
    source: Path
    nbest: Path
    lists: int
    lines: int


def _edit(rng, base: list[str], substitutes) -> list[str]:
    """One hypothesis: 1-3 substitutions, adjacent swaps or deletions."""
    hyp = list(base)
    deletions = 0
    for _ in range(int(rng.integers(1, 4))):
        kind = int(rng.integers(3))
        pos = int(rng.integers(len(hyp)))
        if kind == 0:
            hyp[pos] = next(substitutes)
        elif kind == 1 and pos + 1 < len(hyp):
            hyp[pos], hyp[pos + 1] = hyp[pos + 1], hyp[pos]
        elif kind == 2 and deletions < MAX_HYP_DELETIONS:
            del hyp[pos]
            deletions += 1
    return hyp


def write_nbest(traffic: Traffic, directory: Path) -> NBest:
    """Sources plus Moses-style n-best lists with hypothesis-first alignments.

    Every source is within maxlen: an overlong one is an error by default.
    """
    scale, rng = traffic.scale, traffic.rng
    n = scale.nbest_lists
    src_lens = _spread(rng, n, *scale.src_len)
    sources = _split(_words("s", traffic.zipf(int(src_lens.sum()), oov=True)), src_lens)
    lo, hi = scale.base_len
    half = rng.integers(lo, hi + 1, (n + 1) // 2)
    base_lens = np.stack([half, lo + hi - half], axis=1).reshape(-1)[:n]
    substitutes = iter(_words("t", traffic.zipf(3 * n * scale.nbest_size, oov=True)))
    lines = []
    for sid, (source, base_len) in enumerate(zip(sources, base_lens)):
        base = _words("t", traffic.zipf(int(base_len), oov=True))
        for rank in range(scale.nbest_size):
            hyp = base if rank == 0 else _edit(rng, base, substitutes)
            links = traffic.alignment(len(source), len(hyp))
            lm, tm = rng.normal(-2.5, 0.5) * len(hyp), rng.normal(-1.0, 0.3) * len(hyp)
            features = f"LM0= {lm:.4f} TM0= {tm:.4f} WordPenalty0= {-len(hyp)}"
            lines.append(
                f"{sid} ||| {' '.join(hyp)} ||| {' '.join(f'{t}-{s}' for s, t in links)}"
                f" ||| {features} ||| {0.5 * lm + 0.3 * tm:.4f}"
            )
    nb = NBest(directory / "nbest.src", directory / "nbest.txt", n, len(lines))
    _write_lines(nb.source, (" ".join(s) for s in sources))
    _write_lines(nb.nbest, lines)
    return nb


def write_model(path: Path, scale: Scale, arch: str, fusion: str, seed: int) -> None:
    """A seeded random model with full-size vocabularies, for scoring."""
    cfg = scale.encoder_config(arch, fusion)
    types = range(1, scale.vocab_types + 1)
    src_vocab = Vocabulary(RESERVED_TOKENS + tuple(_words("s", types)), scale.vocab_types)
    tgt_vocab = Vocabulary(RESERVED_TOKENS + tuple(_words("t", types)), scale.vocab_types)
    params = JointModelParams.initialize(
        cfg, len(src_vocab), len(tgt_vocab), scale.hidden,
        rng=np.random.default_rng([seed, 1]), init_scale=INIT_SCALE,
    )
    save_model(ModelArtifact(cfg, src_vocab, tgt_vocab, params), path)
