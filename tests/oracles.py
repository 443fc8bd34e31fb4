"""Independent reference implementations used to cross-check the library.

Everything here is written as plain Python loops over scalars, sharing no
code with the package internals, so that an agreement test actually compares
two routes to the same quantity.
"""

import math

from cjlm.corpus import TrainingSample, UnalignableSentenceError
from cjlm.vocab import PAD_ID


def sig(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _matvec(w, x, b):
    return [sig(sum(wi[j] * x[j] for j in range(len(x))) + bi)
            for wi, bi in zip(w, b)]


def reference_encode(source_ids, affiliated, head_positions, history,
                     cfg, params, tgt_embeddings=None):
    """Loop-based re-derivation of the encoder forward pass.

    Follows the layer recipe literally: tagged embedding rows, a width-3
    sigmoid convolution (with the attention signal prepended to every window
    under the attention arch), local fusion over window pairs, a second
    convolution, global fusion, and the final sigmoid projection.
    """
    emb = params.src_embeddings.astype(float).tolist()
    layer0 = []
    for pos, i in enumerate(source_ids):
        row = list(emb[i])
        if cfg.arch in ("tag", "tag_dep"):
            row.append(1.0 if pos in affiliated else 0.0)
        if cfg.arch == "tag_dep":
            row.append(1.0 if pos in head_positions else 0.0)
        if i == PAD_ID:
            row = [0.0] * len(row)
        layer0.append(row)

    prefix = []
    if cfg.arch == "attention":
        x = []
        for h in history:
            x.extend(float(v) for v in tgt_embeddings[h])
        for w, b in params.attn_layers:
            x = _matvec(w.astype(float).tolist(), x, b.astype(float).tolist())
        prefix = x

    def conv(rows, filters, biases, pre):
        out = []
        for t in range(len(rows) - 2):
            window = list(pre) + rows[t] + rows[t + 1] + rows[t + 2]
            out.append(_matvec(filters.astype(float).tolist(), window,
                               biases.astype(float).tolist()))
        return out

    layer1 = conv(layer0, params.conv1_w, params.conv1_b, prefix)

    layer2 = []
    if cfg.fusion == "gating":
        gw = params.gate_local_w.astype(float).tolist()
        gb = float(params.gate_local_b.reshape(-1)[0])
        for j in range(len(layer1) // 2):
            span = layer0[2 * j] + layer0[2 * j + 1] + layer0[2 * j + 2] \
                + layer0[2 * j + 3]
            alpha = sig(sum(g * v for g, v in zip(gw, span)) + gb)
            layer2.append([alpha * a + (1.0 - alpha) * b
                           for a, b in zip(layer1[2 * j], layer1[2 * j + 1])])
    else:
        for j in range(len(layer1) // 2):
            layer2.append([max(a, b)
                           for a, b in zip(layer1[2 * j], layer1[2 * j + 1])])

    layer3 = conv(layer2, params.conv3_w, params.conv3_b, [])

    if cfg.fusion == "gating":
        gw = params.gate_global_w.astype(float).tolist()
        scores = [sum(g * v for g, v in zip(gw, row)) for row in layer3]
        m = max(scores)
        exps = [math.exp(s - m) for s in scores]
        z = sum(exps)
        omega = [e / z for e in exps]
        layer4 = [sum(omega[t] * layer3[t][f] for t in range(len(layer3)))
                  for f in range(len(layer3[0]))]
    else:
        layer4 = []
        for f in range(len(layer3[0])):
            col = sorted((row[f] for row in layer3), reverse=True)
            layer4.append(sum(col[: cfg.pool_k]) / cfg.pool_k)

    return _matvec(params.proj_w.astype(float).tolist(), layer4,
                   params.proj_b.astype(float).tolist())


def reference_log_probs(sample, cfg, params):
    """Loop-based predictor: encoder output plus history embeddings through
    the hidden stack into a full softmax, in log space."""
    phi = reference_encode(
        sample.source_ids, sample.affiliated, sample.head_positions,
        sample.history, cfg, params,
        tgt_embeddings=params.tgt_embeddings,
    )
    x = list(phi)
    tgt = params.tgt_embeddings.astype(float).tolist()
    for h in sample.history:
        x.extend(tgt[h])
    for w, b in params.hidden_layers:
        x = _matvec(w.astype(float).tolist(), x, b.astype(float).tolist())
    w = params.softmax_w.astype(float).tolist()
    b = params.softmax_b.astype(float).tolist()
    logits = [sum(wi[j] * x[j] for j in range(len(x))) + bi
              for wi, bi in zip(w, b)]
    m = max(logits)
    z = m + math.log(sum(math.exp(v - m) for v in logits))
    return [v - z for v in logits]


def brute_force_affiliation(t, alignment, target_len):
    """Independent restatement of the affiliation rule, searched outward.

    A target word owns its aligned source positions; an unaligned word takes
    the sources of the nearest aligned target word, trying the right side
    first at each distance. Returns None when no target word is aligned.
    """
    owned = [sorted({s for s, j in alignment if j == jj})
             for jj in range(target_len)]
    if owned[t]:
        return frozenset(owned[t])
    for dist in range(1, target_len):
        for cand in (t + dist, t - dist):
            if 0 <= cand < target_len and owned[cand]:
                return frozenset(owned[cand])
    return None


def reference_samples(pair, src_vocab, tgt_vocab, k, maxlen, emit_eos,
                      with_guides):
    """Per-event restatement of sample extraction on ``brute_force_affiliation``.

    One event per target word, plus EOS with the last word's guides. The
    history is the k words before the event, BOS before the sentence start;
    guide positions are shifted by the left padding, and a root head adds no
    head position. Raises ``UnalignableSentenceError`` when guides are wanted
    for target words of which none is aligned.
    """
    offset = maxlen - len(pair.source_tokens)
    source_ids = (PAD_ID,) * offset + tuple(src_vocab.id(w)
                                            for w in pair.source_tokens)
    words = [tgt_vocab.id(w) for w in pair.target_tokens]
    events = list(enumerate(words))
    if emit_eos:
        events.append((len(words), tgt_vocab.eos_id))
    samples = []
    for n, target in events:
        history = tuple(words[j] if j >= 0 else tgt_vocab.bos_id
                        for j in range(n - k, n))
        affiliated, head_positions = frozenset(), frozenset()
        if with_guides and words:
            sources = brute_force_affiliation(min(n, len(words) - 1),
                                              pair.alignment, len(words))
            if sources is None:
                raise UnalignableSentenceError("no target word is aligned")
            affiliated = frozenset(s + offset for s in sources)
            if pair.heads is not None:
                head_positions = frozenset(pair.heads[s] + offset for s in sources
                                           if pair.heads[s] != -1)
        samples.append(TrainingSample(source_ids, affiliated, head_positions,
                                      history, target))
    return samples


def affiliation_or_none(t, alignment, target_len):
    """Library affiliation with the unalignable case mapped to None."""
    from cjlm.corpus import compute_affiliations

    try:
        return compute_affiliations(alignment, target_len)[t]
    except UnalignableSentenceError:
        return None
