"""Command-line interface: exit codes and end-to-end subcommand flows."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cjlm
import cjlm.jointlm as jm
from cjlm.cli import cli
from cjlm.serialization import load_model

from test_serialization import (
    CRAFTED_HEADERS,
    header_copy,
    non_utf8_name_copy,
    wrapping_shape_copy,
)
from toytasks import chain_pairs


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """A small parallel corpus with alignments and dependency heads."""
    root = tmp_path_factory.mktemp("corpus")
    pairs = chain_pairs(30, seed=51)
    held = chain_pairs(8, seed=52)
    for stem, group in (("train", pairs), ("held", held)):
        with open(root / f"{stem}.src", "w") as fs, \
                open(root / f"{stem}.tgt", "w") as ft, \
                open(root / f"{stem}.aln", "w") as fa, \
                open(root / f"{stem}.heads", "w") as fh:
            for p in group:
                fs.write(" ".join(p.source_tokens) + "\n")
                ft.write(" ".join(p.target_tokens) + "\n")
                fa.write(" ".join(f"{i}-{j}" for i, j in
                                  sorted(p.alignment)) + "\n")
                fh.write(" ".join(str(h) for h in p.heads) + "\n")
    return root


def train_args(root, out, arch="generic", extra=()):
    return [
        "train",
        "--source", str(root / "train.src"),
        "--target", str(root / "train.tgt"),
        "--alignment", str(root / "train.aln"),
        "--heads", str(root / "train.heads"),
        "--output", str(out),
        "--arch", arch,
        "--emb-dim", "6", "--tgt-emb-dim", "6", "--attn-dim", "6",
        "--filters", "6", "--repr-dim", "6", "--maxlen", "10",
        "--hidden", "8", "--minibatch", "32", "--epochs", "2",
        "--learning-rate", "0.3", "--init-scale", "0.5", "--seed", "3",
        *extra,
    ]


@pytest.fixture(scope="module")
def trained_model(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("model") / "m.cjlm"
    assert cli(train_args(corpus_dir, out)) == 0
    return out


def test_train_writes_model_and_metrics(corpus_dir, tmp_path, capsys):
    out = tmp_path / "model.cjlm"
    metrics = tmp_path / "metrics.txt"
    code = cli(train_args(corpus_dir, out,
                          extra=["--metrics-file", str(metrics)]))
    captured = capsys.readouterr()
    assert code == 0
    assert out.exists()
    lines = metrics.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("epoch=1 train_nll=")
    assert f"saved model to {out}" in captured.out

    artifact = load_model(out)
    assert artifact.encoder_config.arch == "generic"
    assert artifact.provenance["seed"] == 3
    assert artifact.provenance["corpus_lines"] == 30
    assert len(artifact.provenance["epochs"]) == 2
    assert "wall_time_s" not in artifact.provenance["epochs"][0]


def test_train_with_held_out_reports_ppl(corpus_dir, tmp_path, capsys):
    out = tmp_path / "model.cjlm"
    code = cli(train_args(corpus_dir, out, extra=[
        "--held-out-source", str(corpus_dir / "held.src"),
        "--held-out-target", str(corpus_dir / "held.tgt"),
        "--held-out-alignment", str(corpus_dir / "held.aln"),
    ]))
    assert code == 0
    assert "held_out_ppl=" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["target", "alignment", "heads"])
def test_train_rejects_held_out_flag_without_source(corpus_dir, tmp_path, capsys,
                                                    name):
    out = tmp_path / "model.cjlm"
    code = cli(train_args(corpus_dir, out, extra=[
        f"--held-out-{name}",
        str(corpus_dir / {"target": "held.tgt", "alignment": "held.aln",
                          "heads": "held.heads"}[name])]))
    assert code == 1
    assert_one_line_error(capsys, f"--held-out-{name} needs --held-out-source")
    assert not out.exists()


def test_train_rejects_empty_held_out_source(corpus_dir, tmp_path, capsys):
    out = tmp_path / "model.cjlm"
    assert cli(train_args(corpus_dir, out, extra=["--held-out-source", ""])) == 1
    assert_one_line_error(capsys, "--held-out-source needs --held-out-target and "
                                  "--held-out-alignment")
    assert not out.exists()


def test_train_tag_dep_needs_heads_flag(corpus_dir, tmp_path, capsys):
    args = train_args(corpus_dir, tmp_path / "m", arch="tag_dep")
    i = args.index("--heads")
    del args[i:i + 2]
    assert cli(args) == 1
    assert "requires --heads" in capsys.readouterr().err


@pytest.mark.parametrize("arch", ["tag", "attention"])
def test_train_bytes_do_not_depend_on_blas_threads(tmp_path, arch):
    # Large enough that the convolution and softmax products cross
    # OpenBLAS's multithreading threshold, so two threads really split them.
    pairs = chain_pairs(150, seed=53)
    with open(tmp_path / "src", "w") as fs, open(tmp_path / "tgt", "w") as ft, \
            open(tmp_path / "aln", "w") as fa:
        for p in pairs:
            fs.write(" ".join(p.source_tokens) + "\n")
            ft.write(" ".join(p.target_tokens) + "\n")
            fa.write(" ".join(f"{i}-{j}" for i, j in sorted(p.alignment)) + "\n")
    src_root = str(Path(cjlm.__file__).resolve().parents[1])

    def train_with(threads):
        out = tmp_path / f"{threads}.cjlm"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src_root, os.environ.get("PYTHONPATH")])))
        subprocess.run(
            [sys.executable, "-c", "import sys; from cjlm.cli import main; main()",
             "train", "--source", tmp_path / "src", "--target", tmp_path / "tgt",
             "--alignment", tmp_path / "aln", "--output", out, "--arch", arch,
             "--emb-dim", "32", "--tgt-emb-dim", "32", "--attn-dim", "32",
             "--filters", "48", "--repr-dim", "32", "--maxlen", "20",
             "--hidden", "64", "--minibatch", "128", "--epochs", "2",
             "--learning-rate", "0.3", "--init-scale", "0.5", "--seed", "5"],
            env=env, check=True, capture_output=True,
        )
        return out.read_bytes()

    assert train_with(1) == train_with(2)


def test_train_determinism_byte_identical(corpus_dir, tmp_path):
    a, b = tmp_path / "a.cjlm", tmp_path / "b.cjlm"
    assert cli(train_args(corpus_dir, a, arch="tag")) == 0
    assert cli(train_args(corpus_dir, b, arch="tag")) == 0
    assert a.read_bytes() == b.read_bytes()


def test_eval_ppl_prints_summary(corpus_dir, trained_model, capsys):
    code = cli([
        "eval-ppl", "--model", str(trained_model),
        "--source", str(corpus_dir / "held.src"),
        "--target", str(corpus_dir / "held.tgt"),
        "--alignment", str(corpus_dir / "held.aln"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("perplexity=")
    assert "samples=" in out
    ppl = float(out.split()[0].split("=")[1])
    assert 1.0 < ppl < 50.0


def test_score_nbest_file_round_trip(corpus_dir, trained_model, tmp_path,
                                     capsys):
    nbest = tmp_path / "in.nbest"
    # Hypothesis tokens come from the target side of the training corpus.
    tgt_line = (corpus_dir / "held.tgt").read_text().splitlines()[0]
    nbest.write_text(
        f"0 ||| {tgt_line} |||  ||| lm= -1.0 ||| -2.0\n"
        f"0 ||| {tgt_line} {tgt_line.split()[0]} |||  ||| lm= -1.5 ||| -2.5\n"
    )
    out = tmp_path / "out.nbest"
    code = cli([
        "score-nbest", "--model", str(trained_model),
        "--source", str(corpus_dir / "held.src"),
        "--nbest", str(nbest),
        "--output", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert all(" CJLM= " in line for line in lines)

    # Without --output the same annotations go to stdout.
    assert cli([
        "score-nbest", "--model", str(trained_model),
        "--source", str(corpus_dir / "held.src"),
        "--nbest", str(nbest),
    ]) == 0
    assert capsys.readouterr().out.splitlines() == lines


def test_grad_check_single_config(capsys):
    code = cli(["grad-check", "--arch", "tag", "--fusion", "gating",
                "--max-coords", "8"])
    out = capsys.readouterr().out
    assert code == 0
    assert "tag/gating conv1_w:" in out
    assert "grad-check passed" in out


def test_grad_check_rejects_bad_epsilon(capsys):
    code = cli(["grad-check", "--arch", "tag", "--fusion", "gating",
                "--epsilon", "0"])
    assert code == 1
    assert "epsilon must be positive" in capsys.readouterr().err


def assert_one_line_error(capsys, message):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("coords", ["0", "-1"])
def test_grad_check_rejects_max_coords_below_one(coords, capsys):
    code = cli(["grad-check", "--arch", "tag", "--fusion", "gating",
                "--max-coords", coords])
    assert code == 1
    assert_one_line_error(capsys, "max_coords_per_group must be at least 1")


def test_grad_check_fails_a_nan_loss(monkeypatch, capsys):
    monkeypatch.setattr(jm, "log_probs_batch",
                        lambda samples, cfg, p: np.full(len(samples), np.nan))
    code = cli(["grad-check", "--arch", "tag", "--fusion", "gating",
                "--max-coords", "2"])
    assert code == 1
    assert "error: gradient check failed: tag/gating " in capsys.readouterr().err


def test_grad_check_rejects_negative_seed(capsys):
    code = cli(["grad-check", "--arch", "tag", "--fusion", "gating", "--seed", "-1"])
    assert code == 1
    assert_one_line_error(capsys, "seed must be non-negative")


def test_train_rejects_vocab_limit_below_one(corpus_dir, tmp_path, capsys):
    out = tmp_path / "m.cjlm"
    assert cli(train_args(corpus_dir, out, extra=("--vocab-limit", "0"))) == 1
    assert_one_line_error(capsys, "vocab-limit must be at least 1")
    assert not out.exists()


def test_train_rejects_negative_seed(corpus_dir, tmp_path, capsys):
    out = tmp_path / "m.cjlm"
    assert cli(train_args(corpus_dir, out, extra=("--seed", "-1"))) == 1
    assert_one_line_error(capsys, "seed must be non-negative")
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (("--init-scale", "inf"), "init_scale must be positive and finite in float32"),
    (("--init-scale", "1e308"), "init_scale must be positive and finite in float32"),
    (("--init-scale", "1e39", "--epochs", "0"),
     "init_scale must be positive and finite in float32"),
    (("--learning-rate", "inf"), "learning_rate must be positive and finite"),
])
def test_train_rejects_unusable_rate_or_init_scale(corpus_dir, tmp_path, capsys,
                                                   flags, message):
    out = tmp_path / "m.cjlm"
    assert cli(train_args(corpus_dir, out, extra=flags)) == 1
    assert_one_line_error(capsys, message)
    assert not out.exists()


def test_train_overflowing_last_step_writes_no_model(corpus_dir, tmp_path, capsys):
    out = tmp_path / "m.cjlm"
    # One step, so only the epoch-end check sees the overflow.
    flags = ("--learning-rate", "1e300", "--epochs", "1", "--minibatch", "1000")
    assert cli(train_args(corpus_dir, out, extra=flags)) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: non-finite parameter")
    assert not out.exists()


def test_inspect_rejects_histogram_bins_below_one(trained_model, capsys):
    assert cli(["inspect", "--model", str(trained_model),
                "--histogram-bins", "0"]) == 1
    assert_one_line_error(capsys, "histogram-bins must be at least 1")


def inline_separator(path, out, sep):
    """Copy a text file with the first space of its first line replaced by
    ``sep``, a line separator to ``str.splitlines`` but not to the reader."""
    first, rest = path.read_text(encoding="utf-8").split("\n", 1)
    out.write_text(first.replace(" ", sep, 1) + "\n" + rest, encoding="utf-8")
    return out


@pytest.mark.parametrize("sep", ["\x0c", "\x85"])
def test_eval_ppl_splits_lines_only_at_newlines(corpus_dir, trained_model,
                                                tmp_path, capsys, sep):
    def eval_ppl(source):
        code = cli([
            "eval-ppl", "--model", str(trained_model), "--source", str(source),
            "--target", str(corpus_dir / "held.tgt"),
            "--alignment", str(corpus_dir / "held.aln"),
        ])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        return captured.out

    source = inline_separator(corpus_dir / "held.src", tmp_path / "held.src", sep)
    assert eval_ppl(source) == eval_ppl(corpus_dir / "held.src")


@pytest.mark.parametrize("sep", ["\x0c", "\x85"])
def test_score_nbest_splits_lines_only_at_newlines(corpus_dir, trained_model,
                                                   tmp_path, sep):
    targets = (corpus_dir / "held.tgt").read_text().splitlines()
    nbest = tmp_path / "in.nbest"
    nbest.write_text(
        f"0 ||| {targets[0]} |||  ||| lm= -1.0 ||| -2.0\n"
        f"1 ||| {targets[1]} |||  ||| lm= -1.5 ||| -2.5\n"
    )

    def score(source, out):
        assert cli(["score-nbest", "--model", str(trained_model),
                    "--source", str(source), "--nbest", str(nbest),
                    "--output", str(out)]) == 0
        return out.read_bytes()

    # Sentence 1 must be scored against line 2, not the rest of line 1.
    source = inline_separator(corpus_dir / "held.src", tmp_path / "held.src", sep)
    assert score(source, tmp_path / "a.nbest") == score(corpus_dir / "held.src",
                                                        tmp_path / "b.nbest")


@pytest.mark.parametrize("name", ["", "a b", "A|||B", "a=b"])
def test_score_nbest_rejects_unreadable_feature_name(corpus_dir, trained_model,
                                                     tmp_path, capsys, name):
    nbest = tmp_path / "in.nbest"
    nbest.write_text("0 ||| t0 |||  ||| lm= -1.0 ||| -2.0\n")
    assert cli(["score-nbest", "--model", str(trained_model),
                "--source", str(corpus_dir / "held.src"), "--nbest", str(nbest),
                "--feature-name", name]) == 1
    assert_one_line_error(capsys, f"feature name {name!r} must be non-empty and "
                                  f"contain no whitespace, '=' or '|||'")


def latin1_copy(path, out):
    """Copy a text file with a Latin-1 word (byte 0xe9) put in front."""
    out.write_bytes(b"caf\xe9 " + path.read_bytes())
    return out


@pytest.mark.parametrize("bad, message", [
    ("0", "expected exactly one root head, found 0"),
    ("x", "malformed heads line: invalid literal for int() with base 10: 'x'"),
])
def test_score_nbest_names_the_bad_heads_line(corpus_dir, tmp_path, capsys,
                                              bad, message):
    model = tmp_path / "m.cjlm"
    assert cli(train_args(corpus_dir, model, arch="tag_dep")) == 0
    heads = (corpus_dir / "held.heads").read_text().splitlines()
    # Every token of source line 2 gets the same head.
    heads[1] = " ".join(bad for _ in (corpus_dir / "held.src").read_text()
                        .splitlines()[1].split())
    (tmp_path / "bad.heads").write_text("\n".join(heads) + "\n")
    nbest = tmp_path / "in.nbest"
    nbest.write_text("0 ||| t0 |||  ||| lm= -1.0 ||| -2.0\n")
    capsys.readouterr()
    assert cli(["score-nbest", "--model", str(model),
                "--source", str(corpus_dir / "held.src"),
                "--nbest", str(nbest), "--heads", str(tmp_path / "bad.heads")]) == 1
    assert_one_line_error(capsys, f"heads line 2: {message}")


@pytest.mark.parametrize("command, flag", [
    ("train", "--source"), ("eval-ppl", "--source"),
    ("score-nbest", "--source"), ("score-nbest", "--nbest"),
])
def test_non_utf8_input_is_one_line_error(corpus_dir, trained_model, tmp_path,
                                          capsys, command, flag):
    nbest = tmp_path / "in.nbest"
    nbest.write_text("0 ||| t0 |||  ||| lm= -1.0 ||| -2.0\n")
    model = tmp_path / "m.cjlm"
    args = {
        "train": train_args(corpus_dir, model),
        "eval-ppl": ["eval-ppl", "--model", str(trained_model),
                     "--source", str(corpus_dir / "held.src"),
                     "--target", str(corpus_dir / "held.tgt"),
                     "--alignment", str(corpus_dir / "held.aln")],
        "score-nbest": ["score-nbest", "--model", str(trained_model),
                        "--source", str(corpus_dir / "held.src"),
                        "--nbest", str(nbest)],
    }[command]
    i = args.index(flag) + 1
    bad = latin1_copy(Path(args[i]), tmp_path / "bad.txt")
    args[i] = str(bad)
    assert cli(args) == 1
    assert_one_line_error(capsys, f"{bad} is not UTF-8 text (invalid continuation byte)")
    assert not model.exists()


def test_inspect_non_utf8_tensor_name_is_one_line_error(trained_model, tmp_path,
                                                       capsys):
    bad = non_utf8_name_copy(trained_model, tmp_path / "bad.cjlm")
    assert cli(["inspect", "--model", str(bad)]) == 1
    assert_one_line_error(
        capsys, "malformed tensor name b'\\xe9rc_embeddings': not UTF-8")


def test_inspect_wrapping_tensor_shape_is_one_line_error(trained_model, tmp_path,
                                                         capsys):
    bad = wrapping_shape_copy(trained_model, tmp_path / "bad.cjlm")
    assert cli(["inspect", "--model", str(bad)]) == 1
    assert_one_line_error(capsys, "truncated model file")


@pytest.mark.parametrize("crafted", sorted(CRAFTED_HEADERS))
def test_inspect_crafted_header_is_one_line_error(trained_model, tmp_path, capsys,
                                                  crafted):
    edit, message = CRAFTED_HEADERS[crafted]
    bad = header_copy(trained_model, tmp_path / "bad.cjlm", edit)
    assert cli(["inspect", "--model", str(bad)]) == 1
    assert_one_line_error(capsys, f"malformed header block: {message}")


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize("failure", ["feature-name", "overlong-source"])
def test_failed_score_nbest_leaves_output_as_it_was(corpus_dir, trained_model,
                                                    tmp_path, capsys, failure,
                                                    existing):
    # Sentence 1 is longer than the model's maxlen of 10, so the run fails
    # after sentence 0's list has been scored.
    source = tmp_path / "src.txt"
    first = (corpus_dir / "held.src").read_text().splitlines()[0]
    source.write_text(first + "\n" + " ".join(["w"] * 11) + "\n")
    targets = (corpus_dir / "held.tgt").read_text().splitlines()
    nbest = tmp_path / "in.nbest"
    nbest.write_text(f"0 ||| {targets[0]} |||  ||| lm= -1.0 ||| -2.0\n" * 3
                     + f"1 ||| {targets[1]} |||  ||| lm= -1.5 ||| -2.5\n")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "o.nbest"
    if existing:
        out.write_text("previous\n")
    args = ["score-nbest", "--model", str(trained_model), "--source", str(source),
            "--nbest", str(nbest), "--output", str(out)]
    message = "n-best line 4 (sentence 1): "
    if failure == "feature-name":
        args += ["--feature-name", "a b"]
        message = "feature name 'a b' must be non-empty"
    assert cli(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1
    assert os.listdir(out_dir) == (["o.nbest"] if existing else [])
    if existing:
        assert out.read_text() == "previous\n"


def test_inspect_dumps_config_and_stats(trained_model, capsys):
    assert cli(["inspect", "--model", str(trained_model)]) == 0
    out = capsys.readouterr().out
    assert "arch=generic" in out
    assert "tensor,shape,size,min,max,mean,std" in out
    assert "softmax_w," in out
    assert "global_gate_weight_histogram" in out


def test_usage_errors_exit_2(capsys):
    assert cli([]) == 2
    assert cli(["no-such-command"]) == 2
    assert cli(["train", "--source", "x"]) == 2  # missing required flags
    capsys.readouterr()


def test_operational_errors_exit_1(tmp_path, capsys):
    code = cli(["eval-ppl", "--model", str(tmp_path / "missing"),
                "--source", "s", "--target", "t", "--alignment", "a"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
