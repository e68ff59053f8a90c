import os

import numpy as np
import pytest

from gbst.cli import bundled_corpus_path, main
from gbst.config import RunConfig, format_config, load_config, parse_config_text, resolve_for
from gbst.errors import ConfigError
from gbst.model import ModelState, save_checkpoint

TINY = """
# small everything so command tests stay fast
embedding_dim = 32
heads = 2
head_dim = 16
ffn_dim = 64
encoder_layers = 1
decoder_layers = 1
window_len = 64
batch_size = 2
steps = 12
seed = 0
"""


def write_config(tmp_path, text, name="run.cfg", **overrides):
    """``text`` with each override's key line dropped and the override appended:
    a key given twice is an error."""
    lines = [line for line in text.split("\n") if line.split("=", 1)[0].strip() not in overrides]
    body = "\n".join(lines)
    for key, value in overrides.items():
        body += f"\n{key} = {value}\n"
    path = tmp_path / name
    path.write_text(body)
    return str(path)


# --- config parsing -----------------------------------------------------------


def test_parse_defaults_round_trip():
    cfg = parse_config_text(TINY)
    assert cfg.embedding_dim == 32
    assert cfg.conv_kernel_size == 5  # untouched default
    text = format_config(cfg)
    again = parse_config_text(text)
    assert again == cfg


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="block_sizee"):
        parse_config_text("block_sizee = 4")


def test_boolean_and_none_values():
    cfg = parse_config_text("enable_offsets = true\nconv_kernel_size = none\n")
    assert cfg.enable_offsets is True
    assert cfg.conv_kernel_size is None
    with pytest.raises(ConfigError):
        parse_config_text("enable_offsets = maybe")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("just words\n")


def test_key_given_twice_is_named_with_both_lines():
    with pytest.raises(ConfigError, match=r"seed given twice, on lines 2 and 4"):
        parse_config_text("# two seeds\nseed = 1\nsteps = 3\nseed = 2\n")


def test_resolve_defaults_differ_by_command():
    cfg = RunConfig()
    pre = resolve_for("pretrain", cfg)
    fine = resolve_for("finetune", cfg)
    assert pre.schedule == "inverse_sqrt" and pre.learning_rate == 0.1
    assert fine.schedule == "constant" and fine.learning_rate == 1e-3
    pinned = resolve_for("finetune", parse_config_text("learning_rate = 0.5"))
    assert pinned.learning_rate == 0.5


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.cfg")


# --- cli commands ----------------------------------------------------------------


def test_pretrain_smoke_and_metrics_log(tmp_path):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, TINY, steps=50)
    code = main(["pretrain", "--config", cfg, "--out", str(out)])
    assert code == 0
    lines = (out / "metrics.log").read_text().strip().split("\n")
    assert len(lines) == 50
    step, loss, lr = lines[0].split("\t")
    assert step == "1" and float(loss) > 0 and float(lr) > 0
    assert (out / "checkpoint.gbst").exists()
    assert (out / "config.resolved.txt").exists()


def test_invalid_config_key_exits_2(tmp_path, capsys):
    bad = write_config(tmp_path, TINY + "\nnot_a_key = 3\n")
    code = main(["pretrain", "--config", bad, "--out", str(tmp_path / "x")])
    assert code == 2
    assert "not_a_key" in capsys.readouterr().err


def test_key_given_twice_exits_2_and_writes_nothing(tmp_path, capsys):
    bad = write_config(tmp_path, TINY + "\nseed = 2\n")
    out = tmp_path / "out"
    assert main(["pretrain", "--config", bad, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "seed given twice" in err and "Traceback" not in err
    assert not out.exists()


def test_rerun_same_seed_byte_identical(tmp_path):
    cfg = write_config(tmp_path, TINY)
    out = tmp_path / "runs"
    assert main(["pretrain", "--config", cfg, "--out", str(out)]) == 0
    first_metrics = (out / "metrics.log").read_bytes()
    first_ckpt = (out / "checkpoint.gbst").read_bytes()
    assert main(["pretrain", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "metrics.log").read_bytes() == first_metrics
    assert (out / "checkpoint.gbst").read_bytes() == first_ckpt


@pytest.mark.parametrize(
    "key, value",
    [
        ("schedule", "bogus"),
        ("optimizer", "rmsprop"),  # no longer a key at all: "unknown config key: optimizer"
        ("corruption_rate", "2"),
        ("window_len", "0"),
        ("learning_rate", "nan"),
        ("learning_rate", "-1"),
        ("mean_span", "0.5"),
        ("warmup", "-1"),
        ("grad_clip", "-1"),
        ("checkpoint_every", "-1"),
        ("seed", "-5"),
    ],
)
def test_bad_value_exits_2_before_anything_is_written(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, TINY, **{key: value})
    out = tmp_path / "out"
    assert main(["pretrain", "--config", cfg, "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_resolved_config_reproduces_run(tmp_path):
    # more digits than %.10g keeps: the resolved file must write floats that read back exactly
    cfg = write_config(tmp_path, TINY, learning_rate="0.0123456789012")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["pretrain", "--config", cfg, "--out", str(out1)]) == 0
    # feed the resolved config back (output dir aside, which is per-run)
    text = (out1 / "config.resolved.txt").read_text()
    echo = tmp_path / "echo.cfg"
    echo.write_text(text)
    assert main(["pretrain", "--config", str(echo), "--out", str(out2)]) == 0
    assert (out1 / "metrics.log").read_bytes() == (out2 / "metrics.log").read_bytes()
    # the checkpoint holds no copy of the config, so its output dir cannot show in it
    assert (out1 / "checkpoint.gbst").read_bytes() == (out2 / "checkpoint.gbst").read_bytes()


@pytest.mark.parametrize(
    "command, kind",
    [
        ("pretrain-corpus", "not-utf8"),
        ("pretrain-config", "not-utf8"),
        ("pretrain-corpus", "directory"),
        ("pretrain-config", "directory"),
        ("score-viz-checkpoint", "directory"),
        ("pretrain-corpus", "missing"),
        ("finetune-checkpoint", "missing"),
        ("score-viz-checkpoint", "missing"),
    ],
)
def test_unreadable_input_exits_2_naming_the_file(tmp_path, capsys, command, kind):
    bad = tmp_path / "unreadable"
    if kind == "directory":
        bad.mkdir()
    elif kind == "not-utf8":
        bad.write_bytes(b"steps = 1\n# caf\xe9 in latin-1\n")
    out = tmp_path / "out"
    if command == "pretrain-corpus":
        argv = ["pretrain", "--config", write_config(tmp_path, TINY, corpus=str(bad))]
    elif command == "pretrain-config":
        argv = ["pretrain", "--config", str(bad)]
    elif command == "finetune-checkpoint":
        argv = ["finetune", "--config", write_config(tmp_path, TINY, checkpoint=str(bad))]
    else:
        argv = ["score-viz", "--checkpoint", str(bad), "--text", "abc"]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err
    # the message also names the kind of input: corpus, config or checkpoint
    assert command.rsplit("-", 1)[1] in err.replace(str(bad), "")
    # a run that cannot start leaves no resolved config behind
    assert not (out / "config.resolved.txt").exists()


@pytest.mark.parametrize("command", ["pretrain", "gradcheck", "oracle-test"])
def test_negative_seed_flag_exits_2(capsys, command):
    with pytest.raises(SystemExit) as exited:
        main([command, "--seed", "-1"])
    assert exited.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["pretrain", "score-viz"])
def test_unusable_out_exits_2_naming_the_path(tmp_path, capsys, command):
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    if command == "pretrain":
        argv = ["pretrain", "--config", write_config(tmp_path, TINY)]
    else:
        cfg = parse_config_text(TINY)
        ckpt = str(tmp_path / "model.gbst")
        save_checkpoint(ModelState(cfg.stack_config(), cfg.gbst_config(), seed=0), ckpt)
        argv = ["score-viz", "--checkpoint", ckpt, "--text", "abc"]
    for out in (blocker, blocker / "sub"):
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert str(out) in captured.err and captured.out == ""


def test_finetune_requires_checkpoint(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY)
    assert main(["finetune", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "checkpoint" in capsys.readouterr().err


def test_finetune_resumes_from_checkpoint(tmp_path):
    out1 = tmp_path / "pre"
    cfg = write_config(tmp_path, TINY)
    assert main(["pretrain", "--config", cfg, "--out", str(out1)]) == 0
    out2 = tmp_path / "fine"
    cfg2 = write_config(
        tmp_path, TINY, name="fine.cfg",
        checkpoint=str(out1 / "checkpoint.gbst"), freeze_gbst="true", steps=4,
    )
    assert main(["finetune", "--config", cfg2, "--out", str(out2)]) == 0
    from gbst.model import load_checkpoint

    before = load_checkpoint(str(out1 / "checkpoint.gbst"))
    after = load_checkpoint(str(out2 / "checkpoint.gbst"))
    for name in ("gbst.scorer", "gbst.conv_filters", "gbst.conv_bias"):
        assert (before[name].data == after[name].data).all()
    assert (before["out_proj"].data != after["out_proj"].data).any()


def test_finetune_resolves_the_checkpoint_model(tmp_path):
    pre = tmp_path / "pre"
    cfg = write_config(
        tmp_path, TINY, steps=1, max_block_size=3, conv_kernel_size="none", enable_offsets="true"
    )
    assert main(["pretrain", "--config", cfg, "--out", str(pre)]) == 0
    fine = tmp_path / "fine"
    cfg2 = write_config(
        tmp_path, "", name="fine.cfg", steps=1, checkpoint=str(pre / "checkpoint.gbst")
    )
    assert main(["finetune", "--config", cfg2, "--out", str(fine)]) == 0
    from gbst.model import load_checkpoint

    ckpt = load_checkpoint(str(pre / "checkpoint.gbst"))
    resolved = load_config(str(fine / "config.resolved.txt"))
    assert resolved.stack_config() == ckpt.stack
    assert resolved.gbst_config() == ckpt.gbst


def test_score_viz_output(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, TINY, steps=2)
    assert main(["pretrain", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    code = main([
        "score-viz",
        "--checkpoint", str(out / "checkpoint.gbst"),
        "--text", "on subword tokenization",
        "--out", str(out),
    ])
    assert code == 0
    captured = capsys.readouterr().out
    tsv = (out / "scores.tsv").read_text()
    rows = tsv.strip().split("\n")
    assert len(rows) == 4  # M=4 streams
    matrix = np.array([[float(v) for v in row.split("\t")[1:]] for row in rows])
    assert matrix.shape == (4, 23)
    np.testing.assert_allclose(matrix.sum(axis=0), 1.0, atol=1e-6)  # column-stochastic
    assert "b=1" in captured and "|" in captured  # heatmap rendered


def test_score_viz_single_byte(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, TINY, steps=2, downsample_rate=1)
    assert main(["pretrain", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main([
        "score-viz", "--checkpoint", str(out / "checkpoint.gbst"),
        "--text", "a", "--out", str(out),
    ]) == 0
    rows = (out / "scores.tsv").read_text().strip().split("\n")
    assert len(rows) == 4 and all(len(r.split("\t")) == 2 for r in rows)


def test_score_viz_truncates_long_text(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, TINY, steps=2, max_positions=8, window_len=14)
    assert main(["pretrain", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main([
        "score-viz", "--checkpoint", str(out / "checkpoint.gbst"),
        "--text", "x" * 64, "--out", str(out),
    ]) == 0
    err = capsys.readouterr().err
    assert "truncated" in err
    rows = (out / "scores.tsv").read_text().strip().split("\n")
    assert len(rows[0].split("\t")) == 1 + 16  # max_positions * downsample_rate


def test_gradcheck_cli(capsys):
    assert main(["gradcheck", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    for group in ("embedding", "conv", "scorer", "attention", "ffn"):
        assert group in out
    # the measured errors, not 0 for a difference below some absolute cut-off
    assert max(float(line.split("\t")[1]) for line in out.splitlines()) > 0.0


def test_gradcheck_negative_control(capsys):
    assert main(["gradcheck", "--seed", "0", "--corrupt", "ffn"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_gradcheck_unknown_corrupt_op_exits_2(capsys):
    # the model's residual adds are inside its products, and its downsampling
    # is a block_means: it records no add and no mean_pool_1d
    for op in ("no_such_op", "add", "mean_pool_1d"):
        assert main(["gradcheck", "--seed", "0", "--corrupt", op]) == 2
        err = capsys.readouterr().err
        assert repr(op) in err and "records no such op" in err


def test_profile_analytic_grid(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY, window_len=256)
    assert main(["profile", "--config", cfg, "--no-bench"]) == 0
    out = capsys.readouterr().out
    totals = [int(line.split("\t")[1]) for line in out.splitlines() if line.startswith("total\t")]
    assert len(totals) == 5  # identity + four downsampling rates
    assert totals[1] > totals[2] > totals[3] > totals[4]  # gbst rows decrease in d_s


def test_profile_bench_prints_peak_memory(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY)
    assert main(["profile", "--config", cfg, "--bench-steps", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[-3:] == ["steps/s", "peak", "MB"]
    rows = [line.split() for line in lines[1:] if "\t" not in line]
    assert len(rows) == 5  # identity + four downsampling rates
    assert all(float(row[-1]) > 0 and float(row[-2]) > 0 for row in rows)  # peak MB, steps/s


def test_profile_refuses_a_short_benchmark_before_running_one(tmp_path, capsys, monkeypatch):
    ran = []
    monkeypatch.setattr("gbst.cli.benchmark_steps", lambda *a: ran.append(a))
    cfg = write_config(tmp_path, TINY)
    assert main(["profile", "--config", cfg, "--bench-steps", "3"]) == 2
    assert "n_steps >= 10" in capsys.readouterr().err
    assert ran == []  # not even the warm-up


@pytest.mark.parametrize("count", ["0", "-3"])
def test_oracle_test_refuses_a_count_that_compares_nothing(capsys, count):
    assert main(["oracle-test", "--instances", count]) == 2
    out, err = capsys.readouterr()
    assert "failures" not in out and "at least one instance" in err


def test_oracle_test_cli(capsys):
    assert main(["oracle-test", "--instances", "40", "--seed", "3"]) == 0
    assert "failures=0" in capsys.readouterr().out
