"""End-to-end tests of the command line interface.

All tests call ``main(argv)`` in-process on tiny worlds (a few dozen
questions, a handful of epochs) so the whole file runs in seconds.  Exit
codes are part of the contract: 0 success, 2 config error, 3 unreadable
input, 4 failed self-check.
"""

import json
import os

import pytest

from trajrl import cli
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
    def boom(result, trainer, world):
        raise cli.CheckFailure("synthetic failure")

    monkeypatch.setattr(cli, "_check_run", boom)
    assert main(["simulate", *TINY, "--quiet", "--check"]) == 4
    assert "check failed: synthetic failure" in capsys.readouterr().err


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


@pytest.mark.parametrize("setting", ["learning_rate=1e4", "rollout_temperature=1e-6"])
def test_divergent_training_exits_2(setting, capsys):
    assert main(["simulate", *TINY, "--set", setting, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "config error: epoch " in err and "not finite" in err
    assert "learning_rate" in err and "rollout_temperature" in err


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


def test_sweep_can_vary_the_paradigm(tmp_path, capsys):
    argv = ["sweep", *TINY, "--axis", "paradigm", "--values", "supervised,trapo"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("paradigm=supervised")
    assert lines[1].startswith("paradigm=trapo")
