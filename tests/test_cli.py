"""End-to-end CLI tests, run in-process through cli.main()."""

import json
import re
import shutil

import numpy as np
import pytest

from anchorlm.cli import EXIT_INPUT, EXIT_USAGE, main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth -> prepare -> train once; the slow artifacts are shared."""
    root = tmp_path_factory.mktemp("runs")
    assert main(["synth", "--docs", "60", "--items", "8", "--seed", "1",
                 "--out", str(root / "synth")]) == 0
    assert main([
        "prepare", "--corpus", str(root / "synth" / "corpus.txt"),
        "--policy", "ac", "--vocab-size", "128", "--context-len", "48",
        "--out", str(root / "data"),
    ]) == 0
    assert main([
        "train", "--data", str(root / "data"), "--mask-mode", "ansan",
        "--steps", "8", "--batch-size", "4", "--seed", "2",
        "--n-layers", "1", "--n-heads", "2", "--d-model", "16",
        "--out", str(root / "train"),
    ]) == 0
    return root


def test_prepare_outputs(workspace):
    data = workspace / "data"
    assert (data / "vocab.txt").exists()
    assert (data / "blocks.jsonl").exists()
    assert (data / "manifest.txt").exists()
    manifest = (data / "manifest.txt").read_text()
    assert "command = prepare" in manifest
    assert "input." in manifest and "config.policy" in manifest


def test_prepare_is_deterministic(workspace, tmp_path):
    again = tmp_path / "data2"
    assert main([
        "prepare", "--corpus", str(workspace / "synth" / "corpus.txt"),
        "--policy", "ac", "--vocab-size", "128", "--context-len", "48",
        "--out", str(again),
    ]) == 0
    for name in ("vocab.txt", "blocks.jsonl", "data.cfg"):
        assert (again / name).read_bytes() == (workspace / "data" / name).read_bytes()


def test_train_outputs(workspace):
    out = workspace / "train"
    assert (out / "ckpt.bin").exists()
    losses = (out / "losses.log").read_text().splitlines()
    data_lines = [l for l in losses if not l.startswith("#")]
    assert len(data_lines) == 8
    assert (out / "timings.log").exists()
    assert (out / "train.cfg").exists()


def test_train_byte_stable(workspace, tmp_path):
    rerun = tmp_path / "train2"
    assert main([
        "train", "--data", str(workspace / "data"), "--mask-mode", "ansan",
        "--steps", "8", "--batch-size", "4", "--seed", "2",
        "--n-layers", "1", "--n-heads", "2", "--d-model", "16",
        "--out", str(rerun),
    ]) == 0
    for name in ("ckpt.bin", "losses.log"):
        assert (rerun / name).read_bytes() == (workspace / "train" / name).read_bytes()


def test_resume_matches_continuous(workspace, tmp_path):
    common = [
        "--data", str(workspace / "data"), "--mask-mode", "ansan",
        "--batch-size", "4", "--seed", "2",
        "--n-layers", "1", "--n-heads", "2", "--d-model", "16",
    ]
    a = tmp_path / "half"
    b = tmp_path / "resumed"
    full = tmp_path / "full"
    assert main(["train", *common, "--steps", "4", "--out", str(a)]) == 0
    assert main(["train", *common, "--steps", "4", "--out", str(b),
                 "--resume", str(a / "ckpt.bin")]) == 0
    assert main(["train", *common, "--steps", "8", "--out", str(full)]) == 0

    def records(path):
        return [l for l in (path / "losses.log").read_text().splitlines()
                if not l.startswith("#")]

    assert records(a) + records(b) == records(full)


def test_generate_reduce_on_off_same_text(workspace, tmp_path):
    args = [
        "generate", "--ckpt", str(workspace / "train" / "ckpt.bin"),
        "--vocab", str(workspace / "data" / "vocab.txt"),
        "--prompt", "the amber lamp holds the stone . a birch sign marks",
        "--policy", "ac", "--max-new", "8",
    ]
    on, off = tmp_path / "on", tmp_path / "off"
    assert main([*args, "--reduce", "on", "--out", str(on)]) == 0
    assert main([*args, "--reduce", "off", "--out", str(off)]) == 0
    body_on = (on / "generation.txt").read_text().splitlines()
    body_off = (off / "generation.txt").read_text().splitlines()
    assert body_on[0] == body_off[0]  # same text
    assert body_on[1] == body_off[1]  # same ids
    appends_on = int(next(l.split("=")[1] for l in body_on if l.startswith("appends")))
    discards_on = int(next(l.split("=")[1] for l in body_on if l.startswith("discards")))
    discards_off = int(next(l.split("=")[1] for l in body_off if l.startswith("discards")))
    assert discards_on > 0 and discards_off == 0
    assert appends_on > 0


def test_generate_strip_anchors(workspace, tmp_path):
    args = [
        "generate", "--ckpt", str(workspace / "train" / "ckpt.bin"),
        "--vocab", str(workspace / "data" / "vocab.txt"),
        "--prompt", "the amber lamp holds the stone .",
        "--policy", "ac", "--max-new", "6",
    ]
    plain, stripped = tmp_path / "plain", tmp_path / "stripped"
    assert main([*args, "--out", str(plain)]) == 0
    assert main([*args, "--strip-anchors", "--out", str(stripped)]) == 0
    text_stripped = (stripped / "generation.txt").read_text().splitlines()[0]
    assert "<AC>" not in text_stripped


def test_generate_max_new_one(workspace, tmp_path):
    assert main([
        "generate", "--ckpt", str(workspace / "train" / "ckpt.bin"),
        "--vocab", str(workspace / "data" / "vocab.txt"),
        "--prompt", "the amber lamp", "--policy", "ac", "--max-new", "1",
        "--out", str(tmp_path / "one"),
    ]) == 0
    ids = (tmp_path / "one" / "generation.txt").read_text().splitlines()[1]
    assert len(ids.split("=")[1].split()) == 1


def test_eval_ppl(workspace, tmp_path):
    out = tmp_path / "ppl"
    assert main([
        "eval", "--task", "ppl", "--ckpt", str(workspace / "train" / "ckpt.bin"),
        "--vocab", str(workspace / "data" / "vocab.txt"),
        "--policy", "ac", "--mask-mode", "ansan",
        "--text", str(workspace / "synth" / "corpus.txt"),
        "--eval-context-len", "32", "--out", str(out),
    ]) == 0
    metrics = (out / "metrics.txt").read_text()
    assert "perplexity = " in metrics
    assert "task = ppl" in metrics


def test_eval_ppl_byte_stable(workspace, tmp_path):
    outs = []
    for name in ("p1", "p2"):
        out = tmp_path / name
        assert main([
            "eval", "--task", "ppl", "--ckpt", str(workspace / "train" / "ckpt.bin"),
            "--vocab", str(workspace / "data" / "vocab.txt"),
            "--policy", "ac", "--mask-mode", "ansan",
            "--text", str(workspace / "synth" / "corpus.txt"),
            "--eval-context-len", "32", "--out", str(out),
        ]) == 0
        outs.append((out / "metrics.txt").read_bytes())
    assert outs[0] == outs[1]


def test_eval_mc(workspace, tmp_path):
    out = tmp_path / "mc"
    assert main([
        "eval", "--task", "mc", "--ckpt", str(workspace / "train" / "ckpt.bin"),
        "--vocab", str(workspace / "data" / "vocab.txt"),
        "--policy", "ac", "--items", str(workspace / "synth" / "task.jsonl"),
        "--demo-pool", str(workspace / "synth" / "demos.jsonl"),
        "--shots", "2", "--mask-mode", "ansan", "--reuse-demo-cache",
        "--out", str(out),
    ]) == 0
    metrics = (out / "metrics.txt").read_text()
    assert "accuracy = " in metrics
    assert "cache_reduction = " in metrics


def test_eval_ablation(workspace, tmp_path):
    ckpt = str(workspace / "train" / "ckpt.bin")
    out = tmp_path / "ablation"
    assert main([
        "eval", "--task", "ablation",
        "--vocab", str(workspace / "data" / "vocab.txt"),
        "--policy", "ac", "--items", str(workspace / "synth" / "task.jsonl"),
        "--demo-pool", str(workspace / "synth" / "demos.jsonl"),
        "--shots", "2",
        "--arm", f"ac@{ckpt}",
        "--arm", f"every-n=10@{ckpt}",
        "--arm", f"random-p=0.1@{ckpt}",
        "--out", str(out),
    ]) == 0
    table = (out / "ablation.txt").read_text().splitlines()
    assert len([l for l in table if not l.startswith("#")]) == 4  # header + 3 arms


def _generate(ws, *flags):
    return ["generate", "--ckpt", str(ws / "train" / "ckpt.bin"),
            "--vocab", str(ws / "data" / "vocab.txt"), "--policy", "ac", *flags]


def _eval_without_ckpt(ws, task, *flags):
    return ["eval", "--task", task, "--vocab", str(ws / "data" / "vocab.txt"),
            "--policy", "ac", *flags]


def _eval(ws, task, *flags):
    return _eval_without_ckpt(ws, task, "--ckpt", str(ws / "train" / "ckpt.bin"), *flags)


def _prepare(ws, *flags):
    return ["prepare", "--corpus", str(ws / "synth" / "corpus.txt"), *flags]


def _train(ws, *flags):
    return ["train", "--data", str(ws / "data"), "--steps", "1", *flags]


def _eval_mc(ws, *flags):
    return _eval(ws, "mc", "--items", str(ws / "synth" / "task.jsonl"),
                 "--demo-pool", str(ws / "synth" / "demos.jsonl"), *flags)


# each: a function of the workspace giving argv, and text the error must name
BAD_FLAGS = {
    "shots-negative": (lambda ws: _eval_mc(ws, "--shots", "-1"), "--shots"),
    "shots-without-demo-pool": (lambda ws: _eval(
        ws, "mc", "--items", str(ws / "synth" / "task.jsonl"), "--shots", "3"), "--demo-pool"),
    "eval-context-len-1": (lambda ws: _eval(
        ws, "ppl", "--text", str(ws / "synth" / "corpus.txt"), "--eval-context-len", "1"),
        "--eval-context-len"),
    "mc-without-ckpt": (lambda ws: _eval_without_ckpt(
        ws, "mc", "--items", str(ws / "synth" / "task.jsonl")), "--ckpt"),
    "ppl-without-ckpt": (lambda ws: _eval_without_ckpt(
        ws, "ppl", "--text", str(ws / "synth" / "corpus.txt")), "--ckpt"),
    "ppl-without-text": (lambda ws: _eval(ws, "ppl"), "--text"),
    "mc-without-items": (lambda ws: _eval(ws, "mc"), "--items"),
    "ablation-without-arm": (lambda ws: _eval_without_ckpt(
        ws, "ablation", "--items", str(ws / "synth" / "task.jsonl")), "--arm"),
    "ablation-without-items": (lambda ws: _eval_without_ckpt(
        ws, "ablation", "--arm", f"ac@{ws / 'train' / 'ckpt.bin'}"), "--items"),
    "arm-without-at": (lambda ws: _eval_without_ckpt(
        ws, "ablation", "--items", str(ws / "synth" / "task.jsonl"), "--arm", "ac"), "--arm"),
    "arm-policy-twice": (lambda ws: _eval_without_ckpt(
        ws, "ablation", "--items", str(ws / "synth" / "task.jsonl"),
        "--arm", f"ac@{ws / 'train' / 'ckpt.bin'}", "--arm", f"ac@{ws / 'train' / 'ckpt.bin'}"),
        "'ac' is given twice"),
    "shots-over-demo-pool": (lambda ws: _eval_mc(ws, "--shots", "1000"), "--shots"),
    "eval-context-len-over-checkpoint": (lambda ws: _eval(
        ws, "ppl", "--text", str(ws / "synth" / "corpus.txt"), "--eval-context-len", "49"),
        "--eval-context-len"),
    "max-new-0": (lambda ws: _generate(ws, "--prompt", "the amber lamp", "--max-new", "0"),
                  "--max-new"),
    "temperature-0": (lambda ws: _generate(
        ws, "--prompt", "the amber lamp", "--temperature", "0"), "--temperature"),
    "prompt-over-context": (lambda ws: _generate(ws, "--prompt", "word " * 100), "exceeds"),
    "prepare-context-len-1": (lambda ws: _prepare(
        ws, "--policy", "ac", "--context-len", "1"), "--context-len"),
    "policy-every-n-not-int": (lambda ws: _prepare(ws, "--policy", "every-n=abc"), "every-n=abc"),
    "policy-random-p-not-float": (lambda ws: _prepare(ws, "--policy", "random-p=x"), "random-p=x"),
    "synth-docs-negative": (lambda ws: ["synth", "--docs", "-3"], "--docs"),
    "synth-items-0": (lambda ws: ["synth", "--items", "0"], "--items"),
    "synth-choices-1": (lambda ws: ["synth", "--choices", "1"], "--choices"),
    "synth-choices-99": (lambda ws: ["synth", "--choices", "99"], "--choices"),
    "synth-seed-negative": (lambda ws: ["synth", "--seed", "-1"], "--seed"),
    "prepare-policy-seed-negative": (lambda ws: _prepare(
        ws, "--policy", "random-p=0.1", "--policy-seed", "-1"), "--policy-seed"),
    "train-seed-negative": (lambda ws: _train(ws, "--seed", "-1"), "--seed"),
    "sample-seed-negative": (lambda ws: _generate(
        ws, "--prompt", "the amber lamp", "--temperature", "1", "--sample-seed", "-1"),
        "--sample-seed"),
    "eval-seed-negative": (lambda ws: _eval_mc(ws, "--shots", "2", "--seed", "-1"), "--seed"),
    "vocab-size-negative": (lambda ws: _prepare(
        ws, "--policy", "ac", "--vocab-size", "-3"), "--vocab-size"),
    "n-layers-0": (lambda ws: _train(ws, "--n-layers", "0"), "--n-layers"),
    "n-heads-0": (lambda ws: _train(ws, "--n-heads", "0"), "--n-heads"),
    "d-model-0": (lambda ws: _train(ws, "--d-model", "0"), "--d-model"),
    "d-model-not-divisible-by-n-heads": (lambda ws: _train(
        ws, "--d-model", "16", "--n-heads", "3"), "divisible"),
    "warmup-steps-negative": (lambda ws: _train(ws, "--warmup-steps", "-5"), "--warmup-steps"),
    "checkpoint-every-negative": (lambda ws: _train(
        ws, "--checkpoint-every", "-1"), "--checkpoint-every"),
    "learning-rate-nan": (lambda ws: _train(ws, "--learning-rate", "nan"), "learning_rate"),
    "weight-decay-nan": (lambda ws: _train(ws, "--weight-decay", "nan"), "weight_decay"),
    "grad-clip-negative": (lambda ws: _train(ws, "--grad-clip", "-1"), "grad_clip"),
    # the workspace checkpoint is 1 layer of width 16 with d_ff 64
    "resume-without-model-flags": (lambda ws: _train(
        ws, "--resume", str(ws / "train" / "ckpt.bin")), "d_model 16"),
    "resume-other-d-ff": (lambda ws: _train(
        ws, "--n-layers", "1", "--n-heads", "2", "--d-model", "16", "--d-ff", "32",
        "--resume", str(ws / "train" / "ckpt.bin")), "d_ff 64"),
}


@pytest.mark.parametrize("case", list(BAD_FLAGS))
def test_bad_flag_value_is_usage_error(workspace, tmp_path, capsys, case):
    build, named = BAD_FLAGS[case]
    try:
        code = main([*build(workspace), "--out", str(tmp_path / "out")])
    except SystemExit as exc:  # argparse rejects a bad single-flag value itself
        code = exc.code
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


def test_missing_corpus_is_input_error(tmp_path, capsys):
    code = main([
        "prepare", "--corpus", str(tmp_path / "nope.txt"), "--policy", "ep",
        "--out", str(tmp_path / "d"),
    ])
    assert code == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_bad_mask_mode_is_usage_error(workspace, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main([
            "train", "--data", str(workspace / "data"), "--mask-mode", "sideways",
            "--steps", "1", "--out", str(tmp_path / "t"),
        ])
    assert exc.value.code == EXIT_USAGE


def test_wrong_vocab_is_config_error(workspace, tmp_path, capsys):
    other_vocab = tmp_path / "other.txt"
    other_vocab.write_text("<pad>\n<bos>\n<eos>\n<unk>\n<AC>\nzzz\n", encoding="utf-8")
    code = main([
        "generate", "--ckpt", str(workspace / "train" / "ckpt.bin"),
        "--vocab", str(other_vocab), "--prompt", "zzz", "--policy", "ac",
        "--out", str(tmp_path / "g"),
    ])
    assert code == EXIT_USAGE
    assert "vocab" in capsys.readouterr().err


def test_missing_items_is_input_error(workspace, tmp_path, capsys):
    code = main([
        "eval", "--task", "mc", "--ckpt", str(workspace / "train" / "ckpt.bin"),
        "--vocab", str(workspace / "data" / "vocab.txt"),
        "--policy", "ac", "--items", str(tmp_path / "missing.jsonl"),
        "--out", str(tmp_path / "m"),
    ])
    assert code == EXIT_INPUT
    capsys.readouterr()


@pytest.mark.parametrize("record", [
    '{"context": "the lamp", "choices": ["a", "b"], "gold": "x"}',
    '{"context": "the lamp", "choices": "bc", "gold": 0}',
    '{"context": 5, "choices": ["a", "b"], "gold": 0}',
    '{"context": "the lamp", "choices": ["a", "  "], "gold": 0}',
    '{"context": "the lamp", "choices": ["a", "b"]',
], ids=["gold-not-int", "choices-not-list", "context-not-str", "choice-without-tokens",
        "malformed-json"])
def test_malformed_task_record_is_input_error(workspace, tmp_path, capsys, record):
    items = tmp_path / "task.jsonl"
    items.write_text(record + "\n", encoding="utf-8")
    code = main([
        "eval", "--task", "mc", "--ckpt", str(workspace / "train" / "ckpt.bin"),
        "--vocab", str(workspace / "data" / "vocab.txt"),
        "--policy", "ac", "--items", str(items), "--out", str(tmp_path / "m"),
    ])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "task.jsonl:1" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "budget", [["--steps", "0"], ["--epochs", "0"], ["--steps", "-3"]],
    ids=["steps-0", "epochs-0", "steps-negative"],
)
def test_nonpositive_train_budget_is_config_error(workspace, tmp_path, capsys, budget):
    code = main([
        "train", "--data", str(workspace / "data"), *budget,
        "--n-layers", "1", "--n-heads", "2", "--d-model", "16",
        "--out", str(tmp_path / "t"),
    ])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert budget[0][2:] in err and "Traceback" not in err


def train_with_config(workspace, tmp_path, config):
    return main([
        "train", "--data", str(workspace / "data"), "--config", str(config),
        "--n-layers", "1", "--n-heads", "2", "--d-model", "16",
        "--out", str(tmp_path / "t"),
    ])


@pytest.mark.parametrize(
    "content", [None, b"steps = 1\nseed = \xff\n"], ids=["missing", "not-utf8"]
)
def test_unreadable_train_config_is_input_error(workspace, tmp_path, capsys, content):
    config = tmp_path / "train.cfg"
    if content is not None:
        config.write_bytes(content)
    assert train_with_config(workspace, tmp_path, config) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "train.cfg" in err and "Traceback" not in err


def test_bad_train_config_value_is_config_error(workspace, tmp_path, capsys):
    config = tmp_path / "train.cfg"
    config.write_text("steps = 1\nbatch_size = abc\n", encoding="utf-8")
    assert train_with_config(workspace, tmp_path, config) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "batch_size" in err and "Traceback" not in err


@pytest.mark.parametrize("content, message", [
    ("steps = 1\nseed 3\n", "bad config line"), ("steps = 1\nsteep = 3\n", "steep"),
    ("steps = 1\nlearning_rate = none\n", "learning_rate"),
    ("steps = 1\nlearning_rate = 0.1\nlearning_rate = 0.001\n", "learning_rate is given twice"),
], ids=["no-equals", "unknown-key", "learning-rate-none", "key-twice"])
def test_malformed_train_config_is_config_error(workspace, tmp_path, capsys, content, message):
    config = tmp_path / "train.cfg"
    config.write_text(content, encoding="utf-8")
    assert train_with_config(workspace, tmp_path, config) == EXIT_USAGE
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_negative_train_config_seed_is_config_error(workspace, tmp_path, capsys):
    config = tmp_path / "train.cfg"
    config.write_text("steps = 1\nseed = -1\n", encoding="utf-8")
    assert train_with_config(workspace, tmp_path, config) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "seed" in err and "Traceback" not in err


def test_zero_train_config_adam_eps_is_config_error(workspace, tmp_path, capsys):
    config = tmp_path / "train.cfg"
    config.write_text("steps = 1\nadam_eps = 0\n", encoding="utf-8")
    assert train_with_config(workspace, tmp_path, config) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "adam_eps" in err and "Traceback" not in err


def broken_data_dir(workspace, tmp_path, name, content):
    """A copy of the prepared data directory with one file replaced."""
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    if isinstance(content, str):
        content = content.encode("utf-8")
    (data / name).write_bytes(content)
    return data


def train_on(data, tmp_path):
    return main([
        "train", "--data", str(data), "--steps", "1",
        "--n-layers", "1", "--n-heads", "2", "--d-model", "16",
        "--out", str(tmp_path / "t"),
    ])


@pytest.mark.parametrize("record", [
    '{"ids": [5, -3, 6], "anchor": [0, 0, 0], "seq": [0, 0, 0]}',
    '{"ids": [5, "x", 6], "anchor": [0, 0, 0], "seq": [0, 0, 0]}',
    '{"ids": [5, true, 6], "anchor": [0, 0, 0], "seq": [0, 0, 0]}',
    '{"ids": [5, 6, 7], "anchor": [0, 2, 0], "seq": [0, 0, 0]}',
    '{"ids": [5, 6, 7], "anchor": [0, 0, 0], "seq": [0, 0, 0.5]}',
    '{"ids": [5, 6, 7], "anchor": [0, 0, 0], "seq": [0, 0, 3]}',
    '{"ids": [5], "anchor": [0], "seq": [0]}',
], ids=["negative-id", "string-id", "bool-id", "anchor-not-0-1", "float-seq", "bad-seq-layout",
        "one-token"])
def test_malformed_block_record_is_input_error(workspace, tmp_path, capsys, record):
    data = broken_data_dir(workspace, tmp_path, "blocks.jsonl", record + "\n")
    assert train_on(data, tmp_path) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "blocks.jsonl:1" in err and "Traceback" not in err


def test_empty_block_file_is_input_error(workspace, tmp_path, capsys):
    data = broken_data_dir(workspace, tmp_path, "blocks.jsonl", "")
    assert train_on(data, tmp_path) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "blocks.jsonl" in err and "Traceback" not in err


def test_unreadable_block_file_is_input_error(workspace, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    (data / "blocks.jsonl").unlink()
    (data / "blocks.jsonl").mkdir()  # a directory where the file should be
    assert train_on(data, tmp_path) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "blocks.jsonl" in err and "Traceback" not in err


def test_block_id_beyond_vocab_is_input_error(workspace, tmp_path, capsys):
    n_vocab = len((workspace / "data" / "vocab.txt").read_text(encoding="utf-8").splitlines())
    record = f'{{"ids": [5, {n_vocab}, 6], "anchor": [0, 0, 0], "seq": [0, 0, 0]}}\n'
    data = broken_data_dir(workspace, tmp_path, "blocks.jsonl", record)
    assert train_on(data, tmp_path) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "vocab size" in err and "Traceback" not in err


def test_non_utf8_vocab_is_input_error(workspace, tmp_path, capsys):
    data = broken_data_dir(workspace, tmp_path, "vocab.txt", b"<pad>\n<bos>\n\xff\n")
    assert train_on(data, tmp_path) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "vocab.txt" in err and "Traceback" not in err


NOT_UTF8 = b"\xff\xfe the amber lamp\n"


def eval_on(workspace, tmp_path, task, *args):
    return main([
        "eval", "--task", task, "--ckpt", str(workspace / "train" / "ckpt.bin"),
        "--vocab", str(workspace / "data" / "vocab.txt"), "--policy", "ac", *args,
        "--out", str(tmp_path / "e"),
    ])


@pytest.mark.parametrize("command", ["eval-mc-items", "eval-mc-demo-pool", "eval-ppl-text",
                                     "prepare-corpus"])
def test_non_utf8_input_file_is_input_error(workspace, tmp_path, capsys, command):
    bad = tmp_path / "not-utf8.txt"
    bad.write_bytes(NOT_UTF8)
    items = str(workspace / "synth" / "task.jsonl")
    if command == "eval-mc-items":
        code = eval_on(workspace, tmp_path, "mc", "--items", str(bad))
    elif command == "eval-mc-demo-pool":
        code = eval_on(workspace, tmp_path, "mc", "--items", items, "--demo-pool", str(bad),
                       "--shots", "1")
    elif command == "eval-ppl-text":
        code = eval_on(workspace, tmp_path, "ppl", "--text", str(bad))
    else:
        code = main(["prepare", "--corpus", str(bad), "--policy", "ac",
                     "--out", str(tmp_path / "p")])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "not-utf8.txt" in err and "Traceback" not in err


@pytest.mark.parametrize("text", ["", "lamp\n"], ids=["empty", "one-word"])
def test_ppl_text_with_nothing_to_score_is_input_error(workspace, tmp_path, capsys, text):
    # one word under ac is the word and its inserted anchor, which is not scored
    path = tmp_path / "short.txt"
    path.write_text(text, encoding="utf-8")
    assert eval_on(workspace, tmp_path, "ppl", "--text", str(path)) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "short.txt" in err and "Traceback" not in err


def test_mc_timing_with_no_item_that_fits_is_input_error(workspace, tmp_path, capsys):
    # the workspace model's context_len is 48; under ac this context alone is 80 tokens
    path = tmp_path / "long.jsonl"
    item = {"context": "the amber lamp holds the stone . " * 10, "choices": ["a", "b"], "gold": 0}
    path.write_text(json.dumps(item) + "\n", encoding="utf-8")
    assert eval_on(workspace, tmp_path, "mc", "--items", str(path), "--timing") == EXIT_INPUT
    err = capsys.readouterr().err
    assert "long.jsonl" in err and "Traceback" not in err


@pytest.mark.parametrize("content", [
    "policy = ac\ncontext_len = abc\n", "policy = ac\n", b"context_len = 64\npolicy = \xff\n",
    "policy = ac\ncontext_len = 0\n", "policy = ac\ncontext_len = 8\n",
    "policy = ac\ncontext_len = 8\ncontext_len = 48\n",
    "policy = ac\ncontext_len 48\ncontext_len = 48\n",
], ids=["context-len-not-int", "context-len-missing", "not-utf8", "context-len-0",
        "context-len-below-blocks", "key-twice", "line-without-equals"])
def test_bad_data_config_is_input_error(workspace, tmp_path, capsys, content):
    data = broken_data_dir(workspace, tmp_path, "data.cfg", content)
    assert train_on(data, tmp_path) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "data.cfg" in err and "Traceback" not in err


def test_checkpoint_cadence(workspace, tmp_path):
    out = tmp_path / "cadenced"
    assert main([
        "train", "--data", str(workspace / "data"), "--mask-mode", "ansan",
        "--steps", "4", "--batch-size", "4", "--seed", "2",
        "--n-layers", "1", "--n-heads", "2", "--d-model", "16",
        "--checkpoint-every", "2", "--out", str(out),
    ]) == 0
    assert (out / "ckpt-000002.bin").exists()
    assert (out / "ckpt-000004.bin").exists()
    assert (out / "ckpt.bin").exists()


def test_numeric_error_exit_code(workspace, tmp_path, capsys):
    from anchorlm.cli import EXIT_NUMERIC, _sha256
    from anchorlm.model import load_checkpoint, save_checkpoint

    weights, step, _, opt = load_checkpoint(workspace / "train" / "ckpt.bin")
    weights.arrays["embedding"][:] = np.inf
    broken = tmp_path / "broken.bin"
    vocab_path = workspace / "data" / "vocab.txt"
    save_checkpoint(broken, weights, step, _sha256(vocab_path), opt)
    with np.errstate(all="ignore"):
        code = main([
            "generate", "--ckpt", str(broken), "--vocab", str(vocab_path),
            "--prompt", "the amber lamp", "--policy", "ac",
            "--out", str(tmp_path / "g"),
        ])
    assert code == EXIT_NUMERIC
    capsys.readouterr()


def test_truncated_checkpoint_is_input_error(workspace, tmp_path, capsys):
    blob = (workspace / "train" / "ckpt.bin").read_bytes()
    broken = tmp_path / "truncated.bin"
    broken.write_bytes(blob[:-100])
    code = main([
        "generate", "--ckpt", str(broken), "--vocab", str(workspace / "data" / "vocab.txt"),
        "--prompt", "the amber lamp", "--policy", "ac", "--out", str(tmp_path / "g"),
    ])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "payload" in err and "Traceback" not in err


@pytest.mark.parametrize("case", ["flipped-byte", "negative-step"])
def test_resume_from_broken_checkpoint_is_input_error(workspace, tmp_path, capsys, case):
    blob = (workspace / "train" / "ckpt.bin").read_bytes()
    if case == "flipped-byte":
        broken = blob[:-9] + bytes([blob[-9] ^ 1]) + blob[-8:]
    else:
        broken = blob.replace(b"\nstep = 8\n", b"\nstep = -3\n")
    assert broken != blob
    path = tmp_path / "broken.bin"
    path.write_bytes(broken)
    code = main(_train(workspace, "--n-layers", "1", "--n-heads", "2", "--d-model", "16",
                       "--resume", str(path), "--out", str(tmp_path / "t")))
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "broken.bin" in err and "Traceback" not in err


@pytest.mark.parametrize("pattern, replacement", [
    (rb"\nstep = 8\n", rb"\nstep = 8\nn_layer = 7\n"),
    (rb"\nvocab_sha256 = \w+\n", rb"\nvocab_sha256 = zz\n"),
], ids=["unknown-key", "vocab-digest-not-hex"])
def test_checkpoint_header_edit_is_input_error(workspace, tmp_path, capsys, pattern, replacement):
    # the payload digest does not cover the header, which is checked key by key
    blob = (workspace / "train" / "ckpt.bin").read_bytes()
    broken = re.sub(pattern, replacement, blob, count=1)
    assert broken != blob
    path = tmp_path / "edited.bin"
    path.write_bytes(broken)
    code = main([
        "generate", "--ckpt", str(path), "--vocab", str(workspace / "data" / "vocab.txt"),
        "--prompt", "the amber lamp", "--policy", "ac", "--out", str(tmp_path / "g"),
    ])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "edited.bin" in err and "Traceback" not in err


def test_non_checkpoint_file_is_input_error(workspace, tmp_path, capsys):
    not_ckpt = tmp_path / "ckpt.bin"
    not_ckpt.write_text("the amber lamp\n", encoding="utf-8")
    code = main([
        "generate", "--ckpt", str(not_ckpt), "--vocab", str(workspace / "data" / "vocab.txt"),
        "--prompt", "the amber lamp", "--policy", "ac", "--out", str(tmp_path / "g"),
    ])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "not a checkpoint" in err and "Traceback" not in err


def test_default_out_uses_env_dir(workspace, tmp_path, monkeypatch):
    monkeypatch.setenv("ANCHORLM_DATA_DIR", str(tmp_path / "envruns"))
    assert main(["synth", "--docs", "2", "--items", "1"]) == 0
    runs = list((tmp_path / "envruns").iterdir())
    assert len(runs) == 1 and runs[0].name.startswith("synth-")
