"""End-to-end tests of the command line interface.

All tests call ``main(argv)`` in-process on tiny worlds (a few dozen
questions, a handful of epochs) so the whole file runs in seconds.  Exit
codes are part of the contract: 0 success, 2 config error, 3 unreadable
input, 4 failed self-check.
"""

import json
import os
import re
import warnings

import pytest
from test_golden import GOLDEN

from trajrl import cli, harness
from trajrl.cli import main
from trajrl.harness import offline_select
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
    ],
)
def test_nan_setting_exits_2(setting, capsys):
    assert main(["simulate", *TINY, "--set", setting, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and setting.split("=")[0] in err


@pytest.mark.parametrize(
    "setting", ["learning_rate=1e4", "rollout_temperature=1e-6", "rollout_temperature=1e-310"]
)
def test_divergent_training_exits_2(setting, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", *TINY, "--set", setting, "--quiet"]) == 2
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
    assert "config error" in capsys.readouterr().err


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
    bad.write_text('{"epoch": 1, "qid": 0}\n', encoding="utf-8")
    assert main(["select", "--log", str(bad)]) == 3
    assert "input error" in capsys.readouterr().err


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
        ["diagnose", "--delta", "0"],
        ["diagnose", "--alpha", "-1"],
        ["diagnose", "--alpha", "inf"],
        ["diagnose", "--ly", "inf"],
        ["diagnose", "--group-size", "1" + "0" * 400],
    ],
    ids=["select-top_p=1.5", "select-gamma=2", "select-top_p=-1", "select-top_p=0",
         "diagnose-delta=0", "diagnose-alpha=-1", "diagnose-alpha=inf", "diagnose-ly=inf",
         "diagnose-group_size=1e400"],
)
def test_invalid_replay_setting_exits_2(tiny_log, argv, capsys):
    """Replay accepts exactly the settings training accepts; anything else is
    a config error with a message, never a traceback."""
    capsys.readouterr()
    assert main([*argv, "--log", tiny_log]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:")
    if "--group-size" in argv:
        assert "--group-size" in captured.err
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


def test_diagnose_reproduces_the_runs_risk_monitor(tmp_path, capsys):
    # Default run: the replay must use the run's top_p/gamma (the diagnose
    # defaults) for the reliable set, and with it the scores, to match.
    out = str(tmp_path / "run")
    assert main(["simulate", "--seed", "0", "--out", out, "--quiet"]) == 0
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


def test_diagnose_rejects_a_contradicted_group_size(tmp_path, capsys):
    _, out_dir = simulate(tmp_path, ["--set", "group_size=6"])
    log = os.path.join(out_dir, "passrates.jsonl")
    capsys.readouterr()
    assert main(["diagnose", "--log", log]) == 2  # default --group-size 8
    err = capsys.readouterr().err
    assert "config error" in err and "--group-size 8" in err and "1/8" in err
    assert main(["diagnose", "--log", log, "--group-size", "0"]) == 2
    assert main(["diagnose", "--log", log, "--group-size", "6"]) == 0


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
    assert main(["select", "--log", str(bad)]) == 0


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


def test_sweep_can_vary_the_paradigm(tmp_path, capsys):
    argv = ["sweep", *TINY, "--axis", "paradigm", "--values", "supervised,trapo"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("paradigm=supervised")
    assert lines[1].startswith("paradigm=trapo")
