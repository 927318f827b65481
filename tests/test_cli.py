"""End-to-end tests of the command line interface.

All tests call ``main(argv)`` in-process on tiny worlds (a few dozen
questions, a handful of epochs) so the whole file runs in seconds.  Exit
codes are part of the contract: 0 success, 2 config error, 3 unreadable
input, 4 failed self-check.
"""

import dataclasses
import inspect
import json
import os
import re
import shutil
import warnings
from pathlib import Path

import pytest
from test_golden import GOLDEN, SMALL_WORLD

from trajrl import cli, harness
from trajrl.cli import main
from trajrl.core import TrainerConfig
from trajrl.harness import offline_select, run
from trajrl.logio import read_metrics, read_passrates


TINY = [
    "--set", "n_labeled=6",
    "--set", "n_unlabeled=12",
    "--set", "num_features=6",
    "--set", "num_tokens=16",
    "--set", "response_length=3",
    "--set", "n_clusters=3",
    "--set", "bias_fraction=0",
    "--set", "ood_fraction=0.25",
    "--set", "epochs=4",
    "--set", "warmup_epochs=2",
]


def simulate(tmp_path, extra=(), out="logs"):
    out_dir = str(tmp_path / out)
    code = main(["simulate", *TINY, "--out", out_dir, "--quiet", *extra])
    return code, out_dir


# ---------------------------------------------------------------------------
# simulate


def test_simulate_prints_per_epoch_rows_and_summary(capsys):
    assert main(["simulate", *TINY]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    epoch_rows = [ln for ln in lines if ln.startswith("epoch ")]
    assert len(epoch_rows) == 4
    assert "acc_id" in epoch_rows[0] and "loss" in epoch_rows[0]
    assert lines[-1].startswith("done: 4 epochs, paradigm=trapo")


def test_simulate_quiet_keeps_only_the_summary(capsys):
    assert main(["simulate", *TINY, "--quiet"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("done:")


def test_simulate_writes_parseable_logs(tmp_path):
    code, out_dir = simulate(tmp_path)
    assert code == 0
    records = read_passrates(os.path.join(out_dir, "passrates.jsonl"))
    assert len(records) == 18 * 4
    metrics = read_metrics(os.path.join(out_dir, "metrics.jsonl"))
    assert [m["epoch"] for m in metrics] == [1, 2, 3, 4]


def test_simulate_csv_export(tmp_path):
    csv_path = str(tmp_path / "traj.csv")
    code, _ = simulate(tmp_path, extra=["--csv", csv_path])
    assert code == 0
    with open(csv_path, "r", encoding="utf-8") as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "qid,split,epoch,pass_rate"
    assert len(lines) == 1 + 18 * 4


def test_simulate_reruns_are_byte_identical(tmp_path):
    _, dir_a = simulate(tmp_path, out="a")
    _, dir_b = simulate(tmp_path, out="b")
    for name in ("passrates.jsonl", "metrics.jsonl"):
        with open(os.path.join(dir_a, name), "rb") as fh:
            blob_a = fh.read()
        with open(os.path.join(dir_b, name), "rb") as fh:
            blob_b = fh.read()
        assert blob_a == blob_b


def test_seed_flag_equals_seed_assignment(tmp_path):
    _, dir_flag = simulate(tmp_path, extra=["--seed", "9"], out="flag")
    _, dir_set = simulate(tmp_path, extra=["--set", "seed=9"], out="set")
    _, dir_other = simulate(tmp_path, out="other")  # seed 0
    with open(os.path.join(dir_flag, "passrates.jsonl"), "rb") as fh:
        blob_flag = fh.read()
    with open(os.path.join(dir_set, "passrates.jsonl"), "rb") as fh:
        blob_set = fh.read()
    with open(os.path.join(dir_other, "passrates.jsonl"), "rb") as fh:
        blob_other = fh.read()
    assert blob_flag == blob_set
    assert blob_flag != blob_other


def test_simulate_check_verifies_invariants(capsys):
    assert main(["simulate", *TINY, "--quiet", "--check"]) == 0
    assert "check: all run invariants verified" in capsys.readouterr().out


def test_check_failure_maps_to_exit_4(monkeypatch, capsys):
    def boom(result):
        return ["synthetic failure", "another one"]

    monkeypatch.setattr(cli, "verify_run", boom)
    assert main(["simulate", *TINY, "--quiet", "--check"]) == 4
    assert "check failed: synthetic failure; another one" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# configuration errors


def test_malformed_set_exits_2(capsys):
    assert main(["simulate", *TINY, "--set", "epochs4"]) == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_key_exits_2(capsys):
    assert main(["simulate", *TINY, "--set", "not_a_key=3"]) == 2
    assert "not_a_key" in capsys.readouterr().err


def test_invalid_value_exits_2():
    assert main(["simulate", *TINY, "--set", "epochs=0"]) == 2
    assert main(["simulate", *TINY, "--set", "top_p=0"]) == 2
    assert main(["simulate", *TINY, "--set", "epochs=few"]) == 2


def test_no_labeled_questions_exits_2(capsys):
    assert main(["simulate", *TINY, "--set", "n_labeled=0"]) == 2
    assert "n_labeled" in capsys.readouterr().err


def test_unsupervised_without_unlabeled_questions_exits_2(capsys):
    """Such a run would train nothing and exit 0; it is refused before the first epoch."""
    assert main(["simulate", *TINY, "--set", "paradigm=unsupervised", "--set", "n_unlabeled=0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: paradigm=unsupervised trains on the unlabeled split, which is empty\n"
    assert captured.out == ""


def _tree(root):
    """Every path under ``root``, with each file's text."""
    return {str(p.relative_to(root)): p.read_text() if p.is_file() else None for p in root.rglob("*")}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--out", "{file}"], "[Errno 17] File exists: '{file}'"),
        (["simulate", "--csv", "{dir}"], "[Errno 21] Is a directory: '{dir}'"),
        (["sweep", "--axis", "seed", "--values", "1,2,3", "--out", "{file}"], "[Errno 17] File exists: '{file}'"),
        (["sweep", "--axis", "seed", "--values", "1,2", "--out", "{runs}"], "[Errno 17] File exists: '{runs}/seed=2'"),
        (["sweep", "--axis", "seed", "--values", "1,2", "--out", "{sweep}"],
         "[Errno 21] Is a directory: '{sweep}/summary.jsonl'"),
        (["simulate", "--out", "{run}"], "[Errno 21] Is a directory: '{run}/passrates.jsonl'"),
        (["simulate", "--out", "{fresh}", "--csv", "{missing}/t.csv"],
         "[Errno 2] No such file or directory: '{missing}/t.csv'"),
    ],
    ids=["simulate-out-file", "simulate-csv-dir", "sweep-out-file", "sweep-run-dir-file",
         "sweep-summary-dir", "simulate-run-file-dir", "simulate-csv-no-parent"],
)
def test_an_unwritable_output_exits_3_before_training(tmp_path, monkeypatch, argv, message, capsys):
    """Every path a command writes is checked before any training: a directory that exists
    as a file, a file that exists as a directory, or a file with no directory to go in is
    refused with the error writing there raises, and nothing is created or changed."""
    def no_training(*args, **kwargs):
        raise AssertionError("trained before refusing the output path")

    monkeypatch.setattr(cli, "run", no_training)
    monkeypatch.setattr(cli, "sweep", no_training)
    paths = {name: str(tmp_path / name) for name in ("file", "dir", "runs", "sweep", "run", "fresh", "missing")}
    (tmp_path / "file").write_text("kept\n")
    (tmp_path / "dir").mkdir()
    (tmp_path / "runs").mkdir()
    (tmp_path / "runs" / "seed=2").write_text("kept\n")
    (tmp_path / "sweep" / "summary.jsonl").mkdir(parents=True)
    (tmp_path / "run" / "passrates.jsonl").mkdir(parents=True)
    before = _tree(tmp_path)
    assert main([argv[0], *TINY, *[a.format(**paths) for a in argv[1:]]]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"i/o error: {message.format(**paths)}\n"
    assert captured.out == ""
    assert _tree(tmp_path) == before


def test_out_of_range_seed_exits_2(capsys):
    assert main(["simulate", *TINY, "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "setting",
    [
        "kl_beta=nan",
        "entropy_coef=nan",
        "learning_rate=nan",
        "rollout_temperature=nan",
        "cluster_spread=nan",
        "bias_strength=nan",
        "kl_beta=inf",
        "entropy_coef=inf",
        "learning_rate=inf",
        "rollout_temperature=inf",
    ],
)
def test_nan_setting_exits_2(setting, capsys):
    assert main(["simulate", *TINY, "--set", setting, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and setting.split("=")[0] in err


@pytest.mark.parametrize(
    "setting",
    [
        "learning_rate=1e4",
        "rollout_temperature=1e-6",
        "rollout_temperature=1e-310",
        # The KL term's expectation, with the entropy bonus off, meets the saturated softmax.
        "kl_beta=0.1,entropy_coef=0,rollout_temperature=1e-6",
    ],
)
def test_divergent_training_exits_2(setting, capsys):
    """Comma-separated settings, each one ``--set``."""
    argv = [arg for item in setting.split(",") for arg in ("--set", item)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", *TINY, *argv, "--quiet"]) == 2
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert "config error: epoch " in err and "not finite" in err
    assert "learning_rate" in err and "rollout_temperature" in err


@pytest.mark.parametrize(
    "setting",
    [
        "cluster_spread=inf",
        "cluster_spread=1e308",
        "bias_strength=inf",
        # Finite strengths that drive some initial token probability of the
        # biased questions to exactly 0.
        "bias_fraction=0.25,bias_strength=1e3",
        "bias_fraction=0.25,bias_strength=1e308",
        # Features that saturate that softmax before any bias is planted: lowering
        # bias_strength cannot help, so the refusal names cluster_spread.
        "bias_fraction=0.25,bias_strength=0.01,cluster_spread=1e5",
        # The same features with no bias planted: epoch 1 diverges, and the refusal
        # names cluster_spread, not learning_rate or rollout_temperature.
        "cluster_spread=1e5",
    ],
)
def test_overflowing_world_setting_exits_2(setting, capsys):
    """A world setting whose features or weights would not be finite, or whose
    planted bias saturates the softmax, is a config error naming the field (the
    last of the comma-separated settings), with no traceback and no RuntimeWarning."""
    argv = [arg for item in setting.split(",") for arg in ("--set", item)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", *TINY, *argv, "--quiet"]) == 2
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: " + argv[-1].split("=")[0])
    assert "Traceback" not in captured.err + captured.out


# Sizes beyond what numpy can shape, which fail before anything is allocated.
_DIGITS_400 = "1" + "0" * 399


@pytest.mark.parametrize(
    "key, value",
    [
        ("group_size", _DIGITS_400),
        ("group_size", str(2**62)),
        ("response_length", _DIGITS_400),
        ("num_features", _DIGITS_400),
        ("num_tokens", _DIGITS_400),
        ("n_labeled", _DIGITS_400),
        ("n_unlabeled", _DIGITS_400),
    ],
)
def test_oversized_setting_exits_2_naming_the_field(key, value, capsys):
    assert main(["simulate", *TINY, "--set", f"{key}={value}", "--quiet"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ")
    assert key in captured.err.splitlines()[0]
    assert "Traceback" not in captured.err + captured.out


def test_strong_unsaturated_bias_completes(capsys):
    argv = ["simulate", *TINY, "--set", "bias_fraction=0.25", "--set", "bias_strength=300"]
    assert main([*argv, "--quiet"]) == 0
    assert capsys.readouterr().err == ""


def test_too_weak_bias_exits_2(capsys):
    argv = ["simulate", *TINY, "--set", "bias_fraction=0.25", "--set", "bias_strength=0.05"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: bias_strength=0.05 flips the initial majority")


def test_config_file_with_set_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# tiny world\n"
        "n_labeled = 6\n"
        "n_unlabeled = 12\n"
        "num_features = 6\n"
        "num_tokens = 16\n"
        "response_length = 3\n"
        "n_clusters = 3\n"
        "bias_fraction = 0\n"
        "ood_fraction = 0.25\n"
        "\n"
        "epochs = 3\n"
        "warmup_epochs = 1\n",
        encoding="utf-8",
    )
    out = str(tmp_path / "logs")
    argv = ["simulate", "--config", str(cfg), "--set", "epochs=4", "--out", out, "--quiet"]
    assert main(argv) == 0
    metrics = read_metrics(os.path.join(out, "metrics.jsonl"))
    assert [m["epoch"] for m in metrics] == [1, 2, 3, 4]


def test_duplicate_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "dup.cfg"
    cfg.write_text("epochs = 3\nepochs = 4\n", encoding="utf-8")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "absent.cfg")]) == 2


def test_non_utf8_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "utf16.cfg"
    cfg.write_bytes(b"\xff\xfe" + "epochs = 3\n".encode("utf-16-le"))
    assert main(["simulate", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: config line 1: not UTF-8 text\n"
    assert "Traceback" not in captured.out


def test_a_bad_config_line_before_a_non_utf8_one_is_reported_first(tmp_path, capsys):
    """Line 1 has no '=' and line 3 is not UTF-8 text: line 1 is the first bad line."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"epochs 3\nwarmup_epochs = 1\n\xe9poch = 2\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: config line 1: expected key=value, got 'epochs 3'\n"
    assert "Traceback" not in captured.out


# ---------------------------------------------------------------------------
# select


def test_select_reproduces_run_masks(tmp_path, capsys):
    _, out_dir = simulate(tmp_path)
    log = os.path.join(out_dir, "passrates.jsonl")
    capsys.readouterr()  # drop simulate output
    sel_path = str(tmp_path / "sel.jsonl")
    argv = [
        "select", "--log", log, "--warmup", "2", "--db-policy", "recompute",
        "--top-p", "0.1", "--gamma", "0.4", "--out", sel_path,
    ]
    assert main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [ln.split(":")[0] for ln in lines] == ["epoch 3", "epoch 4"]

    expected = offline_select(
        read_passrates(log), top_p=0.1, gamma=0.4, warmup_epochs=2,
        matching_mode="mean", db_policy="recompute",
    )
    with open(sel_path, "r", encoding="utf-8") as fh:
        payload = [json.loads(ln) for ln in fh]
    assert [row["epoch"] for row in payload] == [3, 4]
    for row, mask in zip(payload, expected.masks):
        assert sorted(mask.selected) == row["selected"]
        assert set(row["scores"]) == {str(q) for q in mask.tcs_scores}


def test_select_csv_export(tmp_path, capsys):
    _, out_dir = simulate(tmp_path)
    log = os.path.join(out_dir, "passrates.jsonl")
    csv_path = str(tmp_path / "sel.csv")
    assert main(["select", "--log", log, "--csv", csv_path]) == 0
    with open(csv_path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
    assert header == "qid,split,epoch,pass_rate"


def test_select_missing_log_exits_3(tmp_path, capsys):
    assert main(["select", "--log", str(tmp_path / "absent.jsonl")]) == 3
    assert "error" in capsys.readouterr().err


def test_select_corrupt_log_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    for text, message in [
        ('{"epoch": 1, "qid": 0}\n', "line 1: missing fields"),
        ("[" * 1000 + "]" * 1000 + "\n", "line 1: invalid JSON (nested too deeply)"),
    ]:
        bad.write_text(text, encoding="utf-8")
        assert main(["select", "--log", str(bad)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {message}")
        assert "Traceback" not in err


def test_max_matching_without_unlabeled_selects_nothing(tmp_path, capsys):
    code, out_dir = simulate(
        tmp_path, ["--set", "n_unlabeled=0", "--set", "matching_mode=max"]
    )
    assert code == 0
    log = os.path.join(out_dir, "passrates.jsonl")
    capsys.readouterr()
    argv = ["select", "--log", log, "--warmup", "2", "--matching", "max"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        "epoch 3: selected 0 []",
        "epoch 4: selected 0 []",
    ]


def test_select_warmup_beyond_log_exits_2(tmp_path, capsys):
    _, out_dir = simulate(tmp_path)
    log = os.path.join(out_dir, "passrates.jsonl")
    assert main(["select", "--log", log, "--warmup", "4"]) == 2


@pytest.mark.parametrize("command", ["select", "diagnose"])
def test_replay_reads_the_log_once(golden_logs, monkeypatch, command):
    """``select`` and ``diagnose`` read their log once, through ``cli.read_passrates``,
    the name the benchmark times as set-up."""
    name = "small_trapo_max_std_length_norm"
    trainer = GOLDEN[name][0]
    log = str(golden_logs(name) / "passrates.jsonl")
    reads = []
    read = cli.read_passrates
    monkeypatch.setattr(cli, "read_passrates", lambda path: reads.append(path) or read(path))
    argv = [command, "--log", log, "--warmup", str(trainer.warmup_epochs)]
    if command == "diagnose":
        argv += ["--group-size", str(trainer.group_size)]
    assert main(argv) == 0
    assert reads == [log]


@pytest.fixture(scope="module")
def tiny_log(tmp_path_factory):
    code, out_dir = simulate(tmp_path_factory.mktemp("tiny"))
    assert code == 0
    return os.path.join(out_dir, "passrates.jsonl")


@pytest.mark.parametrize(
    "argv",
    [
        ["select", "--top-p", "1.5"],
        ["select", "--gamma", "2"],
        ["select", "--top-p", "-1"],
        ["select", "--top-p", "0"],
        ["select", "--warmup", "40"],
        ["diagnose", "--delta", "0"],
        ["diagnose", "--alpha", "-1"],
        ["diagnose", "--alpha", "inf"],
        ["diagnose", "--ly", "inf"],
        ["diagnose", "--group-size", "1" + "0" * 400],
        ["diagnose", "--ly", "1.7e308"],
        ["diagnose", "--ly", "1.7e308", "--out", "OUT"],
        ["select", "--warmup", "-1"],
        ["diagnose", "--warmup", "-1"],
        ["diagnose", "--delta", "1e-320"],
        ["diagnose", "--alpha", "nan"],
        ["diagnose", "--ly", "-1"],
    ],
    ids=["select-top_p=1.5", "select-gamma=2", "select-top_p=-1", "select-top_p=0",
         "select-warmup=40", "diagnose-delta=0", "diagnose-alpha=-1", "diagnose-alpha=inf", "diagnose-ly=inf",
         "diagnose-group_size=1e400", "diagnose-ly=1.7e308", "diagnose-ly=1.7e308-out", "select-warmup=-1",
         "diagnose-warmup=-1", "diagnose-delta=1e-320", "diagnose-alpha=nan", "diagnose-ly=-1"],
)
def test_invalid_replay_setting_exits_2(tiny_log, argv, tmp_path, capsys):
    """Replay accepts exactly the settings training accepts; anything else is
    a config error with a message, never a traceback, and nothing is printed or written."""
    out = tmp_path / "out.jsonl"
    capsys.readouterr()
    assert main([str(out) if a == "OUT" else a for a in argv] + ["--log", tiny_log]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:")
    if "--group-size" in argv:
        assert "--group-size" in captured.err
    if "--warmup" in argv:  # refused by the log's epoch count, 4, and named all the same
        warmup = argv[argv.index("--warmup") + 1]
        assert captured.err.startswith(f"config error: --warmup {warmup}: ")
        assert captured.err.endswith(f"got {warmup} vs 4\n")
    if "1.7e308" in argv:  # finite weights whose rtc overflows
        assert "alpha 1.0 and label_diameter 1.7e+308" in captured.err
    if "1e-320" in argv:  # a delta whose slack overflows is refused by name
        assert captured.err.startswith("config error: delta 1e-320 is too small")
    field = {"--alpha": "alpha", "--ly": "label_diameter", "--delta": "delta"}.get(argv[1])
    if field and argv[2] not in ("1.7e308", "1e-320"):  # a bound constant outside its range
        assert captured.err.startswith(f"config error: {field} must ")
        assert captured.err.endswith(f", got {float(argv[2])!r}\n")
    assert captured.out == "" and not out.exists()
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["select", "--out", "{dir}"], "[Errno 21] Is a directory: '{dir}'"),
        (["select", "--out", "{fresh}", "--csv", "{dir}"], "[Errno 21] Is a directory: '{dir}'"),
        (["select", "--csv", "{missing}/t.csv"], "[Errno 2] No such file or directory: '{missing}/t.csv'"),
        (["diagnose", "--out", "{dir}"], "[Errno 21] Is a directory: '{dir}'"),
        (["diagnose", "--out", "{file}/d.jsonl"], "[Errno 20] Not a directory: '{file}/d.jsonl'"),
    ],
    ids=["select-out-dir", "select-csv-dir", "select-csv-no-parent", "diagnose-out-dir", "diagnose-out-in-file"],
)
def test_an_unwritable_replay_output_exits_3_before_any_row(tiny_log, tmp_path, argv, message, capsys):
    """``select`` and ``diagnose`` check every path they write before the first row: a
    refusal prints no row and creates or changes nothing."""
    paths = {name: str(tmp_path / name) for name in ("file", "dir", "fresh", "missing")}
    (tmp_path / "file").write_text("kept\n")
    (tmp_path / "dir").mkdir()
    before = _tree(tmp_path)
    capsys.readouterr()
    assert main([*(a.format(**paths) for a in argv), "--log", tiny_log]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"i/o error: {message.format(**paths)}\n"
    assert captured.out == ""
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("argv", [["select", "--warmup", "40"], ["diagnose", "--ly", "1.7e308"]])
def test_a_replay_refuses_its_settings_before_its_output_paths(tiny_log, tmp_path, argv, capsys):
    """A config error of the replay, even one the replay itself finds, comes before an i/o error."""
    assert main([*argv, "--out", str(tmp_path), "--log", tiny_log]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize(
    "value, message",
    [("1" + "0" * 400, "group_size must be below 2**60"), ("0", "group_size must be at least 2"),
     ("1", "group_size must be at least 2")],
    ids=["1e400", "0", "1"],
)
def test_an_out_of_range_group_size_on_a_bare_log_exits_2(tiny_log, tmp_path, value, message, capsys):
    """With no run.json beside the log, TrainerConfig's range refuses the G, naming the flag."""
    bare = str(shutil.copy(tiny_log, tmp_path / "bare.jsonl"))
    capsys.readouterr()
    assert main(["diagnose", "--log", bare, "--group-size", value]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: --group-size {value}: ") and message in captured.err
    assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize(
    "field, value",
    [("epoch", "1e400"), ("epoch", "1.7"), ("qid", "true"), ("confidence", "1.5"),
     ("confidence", "-0.5"), ("pass_rate", '"0.25"'), ("pass_rate", "true"),
     ("confidence", '"0.5"'), ("tcs", "7.5"), ("tcs", "-0.1"), ("qid", "-1"),
     ("pseudo_label", "-1")],
    ids=["epoch=1e400", "epoch=1.7", "qid=true", "confidence=1.5", "confidence=-0.5",
         "pass_rate=str", "pass_rate=true", "confidence=str", "tcs=7.5", "tcs=-0.1",
         "qid=-1", "pseudo_label=-1"],
)
def test_malformed_log_field_exits_3(tiny_log, tmp_path, field, value, capsys):
    """Integer fields must be JSON integers, ids nonnegative, float fields JSON numbers,
    and confidence and tcs must lie in [0, 1]: anything else is an input error naming
    the line, never a traceback or a silently coerced value."""
    with open(tiny_log, encoding="utf-8") as fh:
        lines = fh.readlines()
    assert '"split": "unlabeled"' in lines[6]  # the first record with a confidence
    lines[6] = re.sub(rf'"{field}": [^,}}]*', f'"{field}": {value}', lines[6], count=1)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert main(["diagnose", "--log", str(bad)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(f"input error: line 7: {field}")
    assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize("command", ["select", "diagnose"])
@pytest.mark.parametrize("layout", ["writer", "reordered"])
def test_integer_beyond_int_conversion_limit_exits_3(tiny_log, tmp_path, command, layout, capsys):
    """A 5,000-digit qid is beyond what int() converts; on the pattern path (the
    writer's layout) and on the json.loads path (any other layout) alike it is an
    input error naming the line, never a traceback."""
    with open(tiny_log, encoding="utf-8") as fh:
        lines = fh.readlines()
    line = re.sub(r'"qid": [0-9]+', '"qid": ' + "7" * 5000, lines[6], count=1)
    if layout == "reordered":
        obj = line[1:-2].split(", ", 2)
        line = "{" + ", ".join([obj[1], obj[0], obj[2]]) + "}\n"
    lines[6] = line
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert main([command, "--log", str(bad)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "input error: line 7: an integer has too many digits\n"
    assert "Traceback" not in captured.out


@pytest.mark.parametrize("command", ["select", "diagnose"])
@pytest.mark.parametrize(
    "field, value, message",
    [("qid", 2**63 + 5, "qid 9223372036854775813 lies outside [0, 2**48)"),
     ("epoch", 2**16, "epoch 65536 lies outside [1, 2**16)")],
    ids=["qid=2**63+5", "epoch=2**16"],
)
def test_id_or_epoch_beyond_a_runs_range_exits_3(tiny_log, tmp_path, command, field, value, message, capsys):
    """A qid beyond int64 reads as a valid line; the store rebuild rejects it, and
    an epoch no run can log, before any array conversion, never a traceback."""
    with open(tiny_log, encoding="utf-8") as fh:
        lines = fh.readlines()
    lines[6] = re.sub(rf'"{field}": [0-9]+', f'"{field}": {value}', lines[6], count=1)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert main([command, "--log", str(bad)]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"input error: {message}\n"
    assert "Traceback" not in captured.out


@pytest.mark.parametrize("command", ["select", "diagnose"])
@pytest.mark.parametrize("lineno", [1, 7])
def test_non_utf8_log_exits_3(tiny_log, tmp_path, command, lineno, capsys):
    """A log that is not UTF-8 (here a UTF-16 byte-order mark, or one Latin-1 byte)
    is an input error naming the first bad line, never a traceback."""
    with open(tiny_log, "rb") as fh:
        lines = fh.readlines()
    lines[lineno - 1] = (b"\xff\xfe" if lineno == 1 else b"\xe9") + lines[lineno - 1]
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"".join(lines))
    capsys.readouterr()
    assert main([command, "--log", str(bad)]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"input error: line {lineno}: not UTF-8 text\n"
    assert "Traceback" not in captured.out


# ---------------------------------------------------------------------------
# diagnose


def test_diagnose_prints_rows_and_writes_jsonl(tmp_path, capsys):
    _, out_dir = simulate(tmp_path)
    log = os.path.join(out_dir, "passrates.jsonl")
    capsys.readouterr()
    diag_path = str(tmp_path / "diag.jsonl")
    argv = ["diagnose", "--log", log, "--warmup", "2", "--db-policy", "recompute",
            "--out", diag_path]
    assert main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2  # post-warmup epochs only
    assert all("rtc" in ln and "div" in ln for ln in lines)
    rows = read_metrics(diag_path)
    assert [r["epoch"] for r in rows] == [3, 4]
    for r in rows:
        assert r["empirical_risk_labeled"] is None
        assert r["n"] == 12
        assert r["G"] == 8
        assert r["rtc"] >= 0.0


def test_diagnose_respects_bound_constants(tmp_path, capsys):
    _, out_dir = simulate(tmp_path)
    log = os.path.join(out_dir, "passrates.jsonl")
    a = str(tmp_path / "a.jsonl")
    b = str(tmp_path / "b.jsonl")
    assert main(["diagnose", "--log", log, "--out", a]) == 0
    assert main(["diagnose", "--log", log, "--alpha", "2.0", "--ly", "3.0", "--out", b]) == 0
    rows_a, rows_b = read_metrics(a), read_metrics(b)
    assert rows_b[0]["rtc"] > rows_a[0]["rtc"]


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """The output directory of ``simulate --seed 0``, the README's default run."""
    out = str(tmp_path_factory.mktemp("default") / "run")
    assert main(["simulate", "--seed", "0", "--out", out, "--quiet"]) == 0
    return out


def test_diagnose_reproduces_the_runs_risk_monitor(default_run, tmp_path, capsys):
    # Default run: the replay must use the run's top_p/gamma (the diagnose
    # defaults) for the reliable set, and with it the scores, to match.
    out = default_run
    diag = str(tmp_path / "diag.jsonl")
    argv = ["diagnose", "--log", os.path.join(out, "passrates.jsonl"), "--warmup", "8",
            "--db-policy", "recompute", "--out", diag]
    assert main(argv) == 0
    logged = {m["epoch"]: m for m in read_metrics(os.path.join(out, "metrics.jsonl"))}
    rows = read_metrics(diag)
    assert [r["epoch"] for r in rows] == [e for e in sorted(logged) if e > 8]
    for row in rows:
        for key in ("rtc", "mean_divergence", "mean_confidence"):
            assert row[key] == logged[row["epoch"]][key], (row["epoch"], key)


@pytest.mark.parametrize("group_size", [3, 6, 7, 8, 12])
def test_diagnose_reproduces_the_risk_monitor_at_every_group_size(group_size, tmp_path, capsys):
    """An unlabeled row's confidence is its logged pass rate, so diagnose recomputes a run's
    monitor from its log bit for bit, also where k/G has more digits than the log writes."""
    for seed in range(4):
        out = str(tmp_path / f"run{seed}")
        trainer = TrainerConfig(seed=seed, epochs=8, warmup_epochs=2, group_size=group_size)
        run(trainer, dataclasses.replace(SMALL_WORLD, seed=seed), out_dir=out)
        diag = str(tmp_path / f"diag{seed}.jsonl")
        assert main(["diagnose", "--log", os.path.join(out, "passrates.jsonl"), "--out", diag]) == 0
        logged = {m["epoch"]: m for m in read_metrics(os.path.join(out, "metrics.jsonl"))}
        rows = read_metrics(diag)
        assert [r["epoch"] for r in rows] == list(range(3, 9))
        for row in rows:
            for key in ("rtc", "mean_divergence", "mean_confidence"):
                assert row[key] == logged[row["epoch"]][key], (seed, row["epoch"], key)


def test_diagnose_rejects_a_contradicted_group_size(tmp_path, capsys):
    _, out_dir = simulate(tmp_path, ["--set", "group_size=6"])
    log = os.path.join(out_dir, "passrates.jsonl")
    # A copy with no run.json beside it replays with TrainerConfig's G of 8.
    bare = shutil.copy(log, tmp_path / "bare.jsonl")
    capsys.readouterr()
    assert main(["diagnose", "--log", str(bare)]) == 2  # default G 8
    err = capsys.readouterr().err
    assert "config error" in err and "group_size 8 (TrainerConfig's default)" in err and "1/8" in err
    # The default warmup of 8 leaves no epoch of the bare 4-epoch log, and the refusal says so.
    assert main(["select", "--log", str(bare)]) == 2
    assert capsys.readouterr().err.startswith("config error: warmup_epochs 8 (TrainerConfig's default): ")
    # A G read from a run.json is named by that file.
    edited = tmp_path / "edited"
    edited.mkdir()
    shutil.copy(log, edited / "passrates.jsonl")
    record = Path(out_dir, "run.json").read_text(encoding="utf-8")
    (edited / "run.json").write_text(record.replace('"group_size": 6,', '"group_size": 8,', 1), encoding="utf-8")
    assert main(["diagnose", "--log", str(edited / "passrates.jsonl")]) == 2
    assert f"group_size 8 (from {edited / 'run.json'}) contradicts the log" in capsys.readouterr().err
    assert main(["diagnose", "--log", log, "--group-size", "0"]) == 2
    assert main(["diagnose", "--log", log, "--group-size", "6"]) == 0
    assert main(["diagnose", "--log", log]) == 0  # G 6 from the run.json beside the log


# ---------------------------------------------------------------------------
# replay settings: each flag given, else the run.json beside the log, else TrainerConfig


def _logged_selections(log):
    selected = {}
    for record in read_passrates(log):
        if record.selected:
            selected.setdefault(record.epoch, []).append(record.qid)
    return selected


def test_select_replays_the_runs_selection_with_no_flags(default_run, capsys):
    log = os.path.join(default_run, "passrates.jsonl")
    capsys.readouterr()
    assert main(["select", "--log", log]) == 0
    printed = {}
    for line in capsys.readouterr().out.splitlines():
        head, ids = line.split(" [")
        printed[int(head.split()[1].rstrip(":"))] = [int(q) for q in ids.rstrip("]").split(",") if q]
    assert sorted(printed) == list(range(9, 27))  # no warmup epoch is replayed
    assert printed == _logged_selections(log)
    # A flag still overrides the run's value, for a what-if replay.
    assert main(["select", "--log", log, "--warmup", "0"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 26


def test_diagnose_replays_the_runs_risk_monitor_with_no_flags(default_run, tmp_path, capsys):
    diag = str(tmp_path / "diag.jsonl")
    assert main(["diagnose", "--log", os.path.join(default_run, "passrates.jsonl"), "--out", diag]) == 0
    logged = {m["epoch"]: m for m in read_metrics(os.path.join(default_run, "metrics.jsonl"))}
    rows = read_metrics(diag)
    assert [r["epoch"] for r in rows] == list(range(9, 27))
    for row in rows:
        for key in ("rtc", "mean_divergence"):
            assert row[key] == logged[row["epoch"]][key], (row["epoch"], key)


def test_a_group_size_contradicting_run_json_exits_2(default_run, capsys):
    log = os.path.join(default_run, "passrates.jsonl")
    capsys.readouterr()
    assert main(["diagnose", "--log", log, "--group-size", "16"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --group-size 16") and "run.json" in err


def test_a_bare_log_replays_with_trainer_config_defaults(default_run, tmp_path, capsys):
    """Without a run.json the replay takes TrainerConfig's defaults, which are the
    default run's settings: the same selections as with the record, or every flag."""
    log = os.path.join(default_run, "passrates.jsonl")
    bare = str(shutil.copy(log, tmp_path / "bare.jsonl"))
    explicit = ["--warmup", "8", "--matching", "mean", "--db-policy", "recompute",
                "--top-p", "0.1", "--gamma", "0.4"]
    outputs = []
    for argv in (["--log", log], ["--log", bare], ["--log", bare, *explicit]):
        capsys.readouterr()
        assert main(["select", *argv]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("command", ["select", "diagnose"])
@pytest.mark.parametrize(
    "edit, message",
    [(lambda text: text[:-3], "not a run record: Expecting"),
     (lambda text: text.replace('"seed": 0,', '"seed": 0, "bogus": 1,', 1),
      "trainer fields TrainerConfig lacks: ['bogus']"),
     (lambda text: text.replace('"epochs": 26,', '"epochs": 25,', 1),
      "epochs 25 differs from the log's 26"),
     (lambda text: text.replace('"top_p": 0.1,', '"top_p": 7,', 1), "top_p must lie in (0, 1]"),
     (lambda text: "[]", "expected an object with a trainer object"),
     (lambda text: text.replace('  "db_policy": "recompute",\n', "", 1), "trainer fields missing: ['db_policy']"),
     (lambda text: text.replace('"group_size": 8,', '"group_size": "8",', 1),
      "group_size must be of type int, got '8'"),
     (lambda text: text.replace('"gamma": 0.4,', '"gamma": true,', 1),
      "gamma must be of type float, got True"),
     (lambda text: "[" * 1000 + "]" * 1000, "not a run record: JSON nested too deeply")],
    ids=["not-json", "foreign-field", "wrong-epochs", "invalid-value", "not-an-object", "missing-field",
         "string-int", "bool-float", "nested-1000-deep"],
)
def test_a_bad_run_json_exits_3_naming_it(default_run, tmp_path, command, edit, message, capsys):
    shutil.copy(os.path.join(default_run, "passrates.jsonl"), tmp_path / "passrates.jsonl")
    record = tmp_path / "run.json"
    text = Path(default_run, "run.json").read_text(encoding="utf-8")
    record.write_text(edit(text), encoding="utf-8")
    assert record.read_text(encoding="utf-8") != text
    capsys.readouterr()
    assert main([command, "--log", str(tmp_path / "passrates.jsonl")]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(f"input error: {record}: ") and message in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_replay_settings_have_no_defaults_of_their_own():
    """A replay flag left out is None, so it falls through to run.json or TrainerConfig,
    and offline_select takes every setting from its caller."""
    parser = cli.build_parser()
    fields = ["warmup_epochs", "matching_mode", "db_policy", "top_p", "gamma"]
    assert [getattr(parser.parse_args(["select", "--log", "x"]), f) for f in fields] == [None] * 5
    diagnose = parser.parse_args(["diagnose", "--log", "x"])
    assert [getattr(diagnose, f) for f in [*fields, "group_size"]] == [None] * 6
    parameters = inspect.signature(offline_select).parameters.values()
    assert all(p.default is inspect.Parameter.empty for p in parameters)


def test_diagnose_without_unlabeled_exits_3(tmp_path, capsys):
    out = str(tmp_path / "logs")
    argv = ["simulate", "--set", "n_labeled=6", "--set", "n_unlabeled=0",
            "--set", "num_features=6", "--set", "num_tokens=16",
            "--set", "response_length=3", "--set", "n_clusters=3",
            "--set", "bias_fraction=0", "--set", "ood_fraction=0",
            "--set", "epochs=3", "--set", "warmup_epochs=1",
            "--set", "paradigm=supervised", "--out", out, "--quiet"]
    assert main(argv) == 0
    assert main(["diagnose", "--log", os.path.join(out, "passrates.jsonl")]) == 3


def test_diagnose_unlabeled_record_without_confidence_exits_3(tiny_log, tmp_path, capsys):
    """Averaging over only the records that have a confidence would silently shift
    the monitor; diagnose refuses the log instead, while select still replays it."""
    with open(tiny_log, encoding="utf-8") as fh:
        lines = fh.readlines()
    lines = [re.sub(r'"confidence": [^,]*', '"confidence": null', line)
             if '"split": "unlabeled"' in line else line for line in lines]
    bad = tmp_path / "null_confidence.jsonl"
    bad.write_text("".join(lines), encoding="utf-8")
    first = json.loads(lines[6])
    capsys.readouterr()
    assert main(["diagnose", "--log", str(bad)]) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        f"input error: qid {first['qid']} epoch {first['epoch']}: "
        "unlabeled record has no confidence\n"
    )
    # A bare log replays with TrainerConfig's warmup of 8, longer than these 4 epochs.
    assert main(["select", "--log", str(bad), "--warmup", "2"]) == 0


# ---------------------------------------------------------------------------
# sweep


def test_sweep_writes_per_value_logs_and_summary(tmp_path, capsys):
    out = str(tmp_path / "sweep")
    argv = ["sweep", *TINY, "--axis", "top_p", "--values", "0.1,0.5", "--out", out]
    assert main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("top_p=0.1")
    assert lines[1].startswith("top_p=0.5")
    for value in ("0.1", "0.5"):
        sub = os.path.join(out, f"top_p={value}")
        assert read_passrates(os.path.join(sub, "passrates.jsonl"))
        assert read_metrics(os.path.join(sub, "metrics.jsonl"))
        # Each value's directory is byte for byte what simulate writes for that value.
        _, alone = simulate(tmp_path, ["--set", f"top_p={value}"], out=f"simulate{value}")
        for name in ("passrates.jsonl", "metrics.jsonl", "run.json"):
            with open(os.path.join(sub, name), "rb") as fa, open(os.path.join(alone, name), "rb") as fb:
                assert fa.read() == fb.read()
    summary = read_metrics(os.path.join(out, "summary.jsonl"))
    assert [row["value"] for row in summary] == [0.1, 0.5]
    assert all(row["axis"] == "top_p" for row in summary)


def test_sweep_unknown_axis_exits_2(capsys):
    assert main(["sweep", *TINY, "--axis", "bogus", "--values", "1,2"]) == 2
    assert "config error" in capsys.readouterr().err


def test_sweep_uncoercible_value_exits_2():
    assert main(["sweep", *TINY, "--axis", "top_p", "--values", "a,b"]) == 2


def test_sweep_checks_every_value_before_the_first_run(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(harness, "run", lambda *args, **kwargs: calls.append(args))
    out = tmp_path / "sweep"
    argv = ["sweep", *TINY, "--axis", "top_p", "--values", "0.1,1.5", "--out", str(out)]
    assert main(argv) == 2
    assert "top_p" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize(
    "axis, values, extra",
    [
        ("n_labeled", "5,0", []),
        ("bias_strength", "5,0.01", ["--set", "bias_fraction=0.25"]),
        ("paradigm", "supervised,unsupervised", ["--set", "n_unlabeled=0"]),
    ],
    ids=["n_labeled", "bias_strength", "paradigm"],
)
def test_a_sweep_whose_later_value_is_refused_trains_nothing(tmp_path, monkeypatch, axis, values, extra, capsys):
    """Every value's whole setup, its world with the bias check and the run's refusals,
    comes before the first run trains: the sweep exits as its refused value alone does."""
    def no_training(*args, **kwargs):
        raise AssertionError("trained before refusing a later value")

    monkeypatch.setattr(harness, "train_epoch", no_training)
    argv = ["sweep", *TINY, *extra, "--axis", axis]
    assert main([*argv, "--values", values.split(",")[-1]]) == 2
    alone = capsys.readouterr()
    assert alone.err.startswith("config error: ") and alone.out == ""
    out = tmp_path / "sweep"
    assert main([*argv, "--values", values, "--out", str(out)]) == 2
    assert capsys.readouterr() == alone
    assert not out.exists()


@pytest.mark.parametrize("values", ["0.1,0.10", "0.1,0.2,0.1"])
def test_sweep_rejects_a_repeated_value(tmp_path, monkeypatch, capsys, values):
    calls = []
    monkeypatch.setattr(harness, "run", lambda *args, **kwargs: calls.append(args))
    out = tmp_path / "sweep"
    argv = ["sweep", *TINY, "--axis", "top_p", "--values", values, "--out", str(out)]
    assert main(argv) == 2
    assert "top_p=0.1 is repeated" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def _assert_sweep_equals_simulate(tmp_path, axis, values, simulate_args, extra=()):
    """Each value's sweep directory is byte for byte what ``simulate`` writes with
    ``simulate_args(value)``."""
    out = tmp_path / "sweep"
    argv = ["sweep", *TINY, *extra, "--axis", axis, "--values", ",".join(values), "--out", str(out)]
    assert main(argv) == 0
    for value in values:
        code, alone = simulate(tmp_path, [*extra, *simulate_args(value)], out=f"simulate{value}")
        assert code == 0
        for name in ("passrates.jsonl", "metrics.jsonl", "run.json"):
            assert (out / f"{axis}={value}" / name).read_bytes() == Path(alone, name).read_bytes()


def test_sweep_over_seed_gives_each_seed_its_own_world(tmp_path):
    _assert_sweep_equals_simulate(tmp_path, "seed", ["1", "2"], lambda v: ["--seed", v])


def test_sweep_over_a_world_field_equals_simulate_with_that_field(tmp_path):
    _assert_sweep_equals_simulate(
        tmp_path, "n_labeled", ["3", "6"], lambda v: ["--set", f"n_labeled={v}"]
    )


def test_sweep_checks_each_value_with_the_other_assignments(tmp_path):
    """Without the swept value the assignments are invalid (warmup_epochs=2 with
    epochs=2); with each value they are not."""
    _assert_sweep_equals_simulate(
        tmp_path, "warmup_epochs", ["0", "1"], lambda v: ["--set", f"warmup_epochs={v}"],
        extra=["--set", "epochs=2"],
    )


def test_sweep_checks_every_world_before_generating_one(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(harness, "generate_world", lambda *args: calls.append(args))
    assert main(["sweep", *TINY, "--axis", "n_clusters", "--values", "2,0"]) == 2
    assert "n_clusters" in capsys.readouterr().err
    assert calls == []


def test_sweep_strips_each_value_as_set_does(capsys):
    argv = ["sweep", *TINY, "--axis", "paradigm", "--values", "supervised, trapo"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.split()[0] for line in lines] == ["paradigm=supervised", "paradigm=trapo"]


def test_sweep_can_vary_the_paradigm(tmp_path, capsys):
    argv = ["sweep", *TINY, "--axis", "paradigm", "--values", "supervised,trapo"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("paradigm=supervised")
    assert lines[1].startswith("paradigm=trapo")
