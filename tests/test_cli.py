import json
import math
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lvxattn import cli, strategies, volumes
from lvxattn.cli import main
from lvxattn.tensorio import load_tensor, seeded_random_tensor, store_tensor


def run_cli(*argv):
    return main(list(argv))


class TestRun:
    def test_lvx_matches_single_worker(self, tmp_path):
        common = ["--sq", "5", "--skv", "7", "--h", "2", "--d", "4",
                  "--dtype", "f64", "--seed", "11"]
        assert run_cli("run", "--strategy", "lvx", "--n", "3", *common,
                       "--out-dir", str(tmp_path / "lvx")) == 0
        assert run_cli("run", "--strategy", "single", "--n", "1", *common,
                       "--out-dir", str(tmp_path / "single")) == 0
        a = load_tensor(tmp_path / "lvx" / "o.lvxt")
        b = load_tensor(tmp_path / "single" / "o.lvxt")
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def test_backward_writes_gradients_and_stats(self, tmp_path):
        rc = run_cli("run", "--strategy", "ring", "--n", "2", "--sq", "6",
                     "--skv", "8", "--h", "2", "--d", "3", "--backward",
                     "--out-dir", str(tmp_path))
        assert rc == 0
        for name in ("o", "l", "dq", "dk", "dv"):
            assert (tmp_path / f"{name}.lvxt").exists()
        stats = json.loads((tmp_path / "stats.json").read_text())
        q_sizes, kv_sizes = [3, 3], [4, 4]
        expected = (volumes.bytes_by_worker("ring", "forward", q_sizes, kv_sizes, 2, 3, 8)[0]
                    + volumes.bytes_by_worker("ring", "backward", q_sizes, kv_sizes, 2, 3, 8)[0])
        assert stats["per_worker_bytes_sent"] == [expected, expected]

    def test_deterministic_outputs(self, tmp_path):
        args = ["run", "--strategy", "lvx", "--n", "2", "--sq", "4", "--skv", "6",
                "--h", "1", "--d", "3", "--seed", "5"]
        run_cli(*args, "--out-dir", str(tmp_path / "a"))
        run_cli(*args, "--out-dir", str(tmp_path / "b"))
        assert ((tmp_path / "a" / "o.lvxt").read_bytes()
                == (tmp_path / "b" / "o.lvxt").read_bytes())

    def test_input_tensors_from_files(self, tmp_path):
        Q = seeded_random_tensor(1, (1, 3, 2))
        K = seeded_random_tensor(2, (1, 4, 2))
        V = seeded_random_tensor(3, (1, 4, 2))
        for name, t in (("q", Q), ("k", K), ("v", V)):
            store_tensor(t, tmp_path / f"{name}.lvxt")
        rc = run_cli("run", "--strategy", "ring", "--n", "2", "--sq", "3",
                     "--skv", "4", "--h", "1", "--d", "2",
                     "--input-q", str(tmp_path / "q.lvxt"),
                     "--input-k", str(tmp_path / "k.lvxt"),
                     "--input-v", str(tmp_path / "v.lvxt"),
                     "--out-dir", str(tmp_path / "out"))
        assert rc == 0
        from lvxattn.kernels import dense_attention
        oracle = dense_attention(Q, K, V)
        got = load_tensor(tmp_path / "out" / "o.lvxt")
        assert np.max(np.abs(got - oracle.O)) <= 1e-12

    def test_accounting_only_preset_ratio(self, tmp_path):
        out = tmp_path / "cost.json"
        rc = run_cli("cost", "--preset", "video-mme-llama3v", "--n", "16",
                     "--out", str(out))
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["lvx_ring_forward_volume_ratio_rounded"] == 0.0004
        assert report["lvx_ring_forward_volume_percent"] == "0.04%"
        assert report["workload"]["s_q"] == 5514
        assert report["workload"]["s_kv"] == 15_279_944

    def test_head_divisibility_error(self, capsys):
        rc = run_cli("run", "--strategy", "head", "--n", "3", "--sq", "6",
                     "--skv", "6", "--h", "4", "--d", "2")
        assert rc == 2
        assert "not divisible" in capsys.readouterr().err

    def test_numeric_production_scale_refused(self, capsys):
        rc = run_cli("run", "--sq", "5514", "--skv", "15279944", "--h", "32",
                     "--d", "128", "--n", "16")
        assert rc == 2
        assert "use cost" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("name", ["Q", "K", "V", "dO"])
    def test_non_finite_lvxt_input_is_usage_error(self, tmp_path, capsys, name, value):
        shapes = {"Q": (2, 16, 4), "K": (2, 64, 4), "V": (2, 64, 4), "dO": (2, 16, 4)}
        flags = []
        for i, (key, shape) in enumerate(shapes.items()):
            t = seeded_random_tensor(40 + i, shape)
            if key == name:
                t[0, 5, 1] = value
            store_tensor(t, tmp_path / f"{key}.lvxt")
            flags += [f"--input-{key.lower()}", str(tmp_path / f"{key}.lvxt")]
        rc = run_cli("run", "--strategy", "lvx", "--n", "2", "--sq", "16", "--skv", "64",
                     "--h", "2", "--d", "4", "--backward", *flags,
                     "--out-dir", str(tmp_path / "out"))
        assert rc == 2
        assert f"{name} holds a non-finite value at [0, 5, 1]" in capsys.readouterr().err
        assert not (tmp_path / "out" / "o.lvxt").exists()

    def test_zero_workers_is_usage_error(self, tmp_path, capsys):
        rc = run_cli("run", "--strategy", "lvx", "--n", "0", "--sq", "4",
                     "--skv", "4", "--h", "1", "--d", "2", "--out-dir", str(tmp_path))
        assert rc == 2
        assert "--n must be positive" in capsys.readouterr().err
        assert not (tmp_path / "stats.json").exists()

    @pytest.mark.parametrize("flags", [
        ["--strategy", "ring", "--sq", "5514", "--skv", "15279944", "--h", "32", "--d", "128",
         "--n", "16", "--backward"],
        ["--strategy", "head", "--sq", "5514", "--skv", "15279944", "--h", "32", "--d", "128",
         "--n", "16", "--backward"],
        # tiny tensors, but 6 KiB n² of Python objects
        ["--strategy", "ring", "--n", "2000", "--sq", "4", "--skv", "4", "--h", "1", "--d", "1"],
    ])
    def test_refusal_walks_no_message(self, monkeypatch, capsys, flags):
        # refused on tensors or the n² term alone: no worker starts and the
        # guard walks no message
        def refuse(*args, **kwargs):
            raise AssertionError("workers spawned or messages walked")

        monkeypatch.setattr(strategies, "spawn_cluster", refuse)
        monkeypatch.setattr(volumes, "kv_messages", refuse)
        assert run_cli("run", *flags) == 2
        assert "use cost" in capsys.readouterr().err

    def test_lvx_guard_walks_no_message(self, monkeypatch, tmp_path):
        # no lvx hop moves K/V, so the guard lists no K/V pieces for it
        def refuse(*args, **kwargs):
            raise AssertionError("messages walked")

        monkeypatch.setattr(volumes, "kv_messages", refuse)
        assert run_cli("run", "--strategy", "lvx", "--n", "2", "--sq", "5", "--skv", "7",
                       "--h", "2", "--d", "4", "--backward", "--out-dir", str(tmp_path)) == 0

    def test_score_matrix_counted_before_tensors_built(self, monkeypatch, capsys):
        # the inputs are 1e6 elements; the forward's one [1, 1e6, 256] float64
        # score tile alone is 2.0e9 bytes, over the 1.6e9 limit
        def no_tensor(*args, **kwargs):
            raise AssertionError("tensor built")

        monkeypatch.setattr(cli, "seeded_random_tensor", no_tensor)
        rc = run_cli("run", "--strategy", "single", "--sq", "1000000",
                     "--skv", "1000", "--h", "1", "--d", "1")
        assert rc == 2
        assert "use cost" in capsys.readouterr().err

    @pytest.mark.parametrize("backward", [False, True])
    @pytest.mark.parametrize("dtype", ["f64", "f32"])
    @pytest.mark.parametrize("strategy,n", [("lvx", 2), ("ring", 3), ("head", 2), ("single", 1)])
    def test_numeric_guard_bounds_measured_peak(self, tmp_path, strategy, n, dtype, backward):
        s_q, s_kv, h, d = 48, 6000, 2, 8
        args = ["run", "--strategy", strategy, "--n", str(n), "--sq", str(s_q),
                "--skv", str(s_kv), "--h", str(h), "--d", str(d), "--dtype", dtype,
                "--out-dir", str(tmp_path)] + (["--backward"] if backward else [])
        assert run_cli(*args) == 0      # first call's one-time allocations stay out
        tracemalloc.start()
        try:
            assert run_cli(*args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        guard = cli._numeric_working_set(strategy, s_q, s_kv, h, d,
                                         {"f64": 8, "f32": 4}[dtype], backward)
        assert peak <= guard

    @pytest.mark.parametrize("backward", [False, True])
    @pytest.mark.parametrize("dtype", ["f64", "f32"])
    @pytest.mark.parametrize("strategy,n", [("lvx", 3), ("ring", 3), ("head", 3), ("single", 1)])
    def test_numeric_guard_bounds_query_heavy_peak(self, tmp_path, strategy, n, dtype, backward):
        # S_Q >> S_KV: each lvx/ring worker's score tiles are only S_KV/n wide
        s_q, s_kv, h, d = 4000, 64, 3, 8
        args = ["run", "--strategy", strategy, "--n", str(n), "--sq", str(s_q),
                "--skv", str(s_kv), "--h", str(h), "--d", str(d), "--dtype", dtype,
                "--out-dir", str(tmp_path)] + (["--backward"] if backward else [])
        assert run_cli(*args) == 0
        tracemalloc.start()
        try:
            assert run_cli(*args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        guard = cli._numeric_working_set(strategy, s_q, s_kv, h, d,
                                         {"f64": 8, "f32": 4}[dtype], backward, n=n)
        assert peak <= guard

    @pytest.mark.parametrize("backward", [False, True])
    @pytest.mark.parametrize("strategy,n", [("lvx", 2), ("ring", 2), ("ring", 3), ("head", 2)])
    def test_numeric_guard_bounds_many_piece_peak(self, tmp_path, strategy, n, backward):
        # S_KV = 2100: every K/V block spans at least four 256-row pieces, so
        # the messages' Python objects outweigh the tiny tensors
        s_q, s_kv, h, d = 8, 2100, 2, 4
        args = ["run", "--strategy", strategy, "--n", str(n), "--sq", str(s_q),
                "--skv", str(s_kv), "--h", str(h), "--d", str(d), "--dtype", "f32",
                "--out-dir", str(tmp_path)] + (["--backward"] if backward else [])
        assert run_cli(*args) == 0
        tracemalloc.start()
        try:
            assert run_cli(*args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        guard = cli._numeric_working_set(strategy, s_q, s_kv, h, d, 4, backward, n=n)
        assert peak <= guard

    @pytest.mark.parametrize("latency", ["nan", "inf"])
    def test_non_finite_latency_is_usage_error(self, monkeypatch, tmp_path, capsys, latency):
        def no_spawn(*args, **kwargs):
            raise AssertionError("workers spawned")

        monkeypatch.setattr(strategies, "spawn_cluster", no_spawn)
        rc = run_cli("run", "--strategy", "lvx", "--n", "2", "--sq", "4",
                     "--skv", "4", "--h", "1", "--d", "2", "--bandwidth", "1e9",
                     "--latency", latency, "--out-dir", str(tmp_path))
        assert rc == 2
        assert "latency must be finite" in capsys.readouterr().err
        assert not (tmp_path / "stats.json").exists()

    @pytest.mark.parametrize("timeout", ["inf", "nan", "0", "-1", "abc"])
    def test_bad_timeout_env_is_usage_error(self, monkeypatch, tmp_path, capsys, timeout):
        monkeypatch.setenv("LVX_TIMEOUT_SECS", timeout)
        rc = run_cli("run", "--strategy", "lvx", "--n", "2", "--sq", "4",
                     "--skv", "4", "--h", "1", "--d", "2", "--out-dir", str(tmp_path))
        assert rc == 2
        assert "LVX_TIMEOUT_SECS must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "stats.json").exists()

    # a receive waits out each message's modeled time. `--bandwidth inf` is
    # the default link, written as null: JSON has no infinity
    @pytest.mark.parametrize("flags,bandwidth,latency", [
        ([], None, 0.0),
        (["--bandwidth", "1e8"], 1e8, 0.0),
        (["--latency", "1e-3"], None, 1e-3),
        (["--bandwidth", "inf"], None, 0.0),
    ])
    def test_link_flags_model_each_message(self, tmp_path, flags, bandwidth, latency):
        def no_constants(name):
            raise ValueError(f"stats.json holds {name}")

        rc = run_cli("run", "--strategy", "ring", "--n", "2", "--sq", "5", "--skv", "30",
                     "--h", "2", "--d", "4", "--backward", *flags, "--out-dir", str(tmp_path))
        assert rc == 0
        stats = json.loads((tmp_path / "stats.json").read_text(), parse_constant=no_constants)
        assert stats["transport"] == {"bandwidth": bandwidth, "latency": latency}
        assert stats["links"]
        for link in stats["links"].values():
            expected = (link["message_count"] * latency
                        + link["bytes_sent"] / (bandwidth or math.inf))
            assert link["modeled_time_seconds"] == pytest.approx(expected, rel=1e-12, abs=0)

    def test_latency_above_timeout_completes(self, monkeypatch, tmp_path):
        # every message is sent: the receive waits out its 0.15 s crossing,
        # however short LVX_TIMEOUT_SECS is
        monkeypatch.setenv("LVX_TIMEOUT_SECS", "0.1")
        rc = run_cli("run", "--strategy", "lvx", "--n", "2", "--sq", "4", "--skv", "8",
                     "--h", "1", "--d", "2", "--latency", "0.15", "--out-dir", str(tmp_path))
        assert rc == 0

    @pytest.mark.parametrize("flag,value", [("--elem-bytes", "2"),
                                            ("--preset", "owl3-3600frames"),
                                            ("--mode", "accounting-only"),
                                            ("--transport", "throttled"),
                                            ("--stats", "-"),
                                            ("--scale", "0.5")])
    def test_cost_only_flag_is_usage_error(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as exc_info:
            run_cli("run", "--n", "2", "--sq", "4", "--skv", "8", "--h", "1", "--d", "2",
                    "--dtype", "f32", flag, value, "--out-dir", str(tmp_path))
        assert exc_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "stats.json").exists()


class TestCost:
    def test_owl3_memory_anchor(self, tmp_path):
        out = tmp_path / "cost.json"
        rc = run_cli("cost", "--preset", "owl3-3600frames", "--elem-bytes", "4",
                     "--out", str(out))
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["memory"]["kv_bytes"] == 75_246_796_800
        assert data["memory"]["kv_gib"] == pytest.approx(70.08, rel=1e-3)

    def test_single_worker_zero_comm(self, tmp_path):
        out = tmp_path / "cost.json"
        rc = run_cli("cost", "--sq", "100", "--skv", "1000", "--h", "2",
                     "--d", "8", "--n", "1", "--out", str(out))
        assert rc == 0
        data = json.loads(out.read_text())
        for strategy in ("lvx", "ring"):
            assert data["round_times"][strategy]["comm_fwd"] == 0.0

    def test_nonpositive_flag_rejected(self, capsys):
        rc = run_cli("cost", "--sq", "10", "--skv", "10", "--h", "1", "--d", "2",
                     "--gpu-flops", "-5")
        assert rc == 2

    @pytest.mark.parametrize("flag", ["--sq", "--skv", "--h", "--d"])
    def test_shape_flag_with_preset_is_usage_error(self, tmp_path, capsys, flag):
        out = tmp_path / "cost.json"
        rc = run_cli("cost", "--preset", "owl3-3600frames", flag, "5", "--out", str(out))
        assert rc == 2
        assert f"drop {flag}" in capsys.readouterr().err
        assert not out.exists()

    def test_d_model_flag_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "cost.json"
        with pytest.raises(SystemExit) as exc_info:
            run_cli("cost", "--preset", "owl3-3600frames", "--d-model", "4096",
                    "--out", str(out))
        assert exc_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("strategy,n", [("lvx", 2), ("ring", 2), ("head", 2), ("single", 1)])
    def test_predicted_volumes_equal_run_counters(self, tmp_path, strategy, n):
        shape = ["--n", str(n), "--sq", "5", "--skv", "7", "--h", "2", "--d", "3"]
        assert run_cli("cost", *shape, "--elem-bytes", "8",
                       "--out", str(tmp_path / "cost.json")) == 0
        assert run_cli("run", "--strategy", strategy, *shape, "--dtype", "f64",
                       "--backward", "--out-dir", str(tmp_path)) == 0
        predicted = json.loads((tmp_path / "cost.json").read_text())["per_worker_bytes"][strategy]
        measured = json.loads((tmp_path / "stats.json").read_text())["per_worker_bytes_sent"]
        assert [f + b for f, b in zip(predicted["forward"], predicted["backward"])] == measured


class TestSweep:
    def test_row_count_is_grid_product(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = run_cli("sweep", "--sq", "1e3:1e5:4:log", "--skv", "1e5:1e7:3:log",
                     "--out", str(out))
        assert rc == 0
        text = out.read_text()
        lines = text.splitlines()
        assert lines[0] == "s_q,s_kv,speedup_fwd,speedup_bwd,quadrant"
        assert len(lines) == 1 + 4 * 3
        assert "\r" not in text

    def test_bad_grid_spec(self, capsys):
        rc = run_cli("sweep", "--sq", "100", "--skv", "1:2")
        assert rc == 2


class TestMllm:
    def test_budget_below_fixed_costs(self, tmp_path):
        out = tmp_path / "frames.json"
        rc = run_cli("mllm", "--policy", "store", "--budget", "1",
                     "--out", str(out))
        assert rc == 0
        assert json.loads(out.read_text())["max_frames"] == 0

    @pytest.mark.parametrize("flag", ["--seed", "--out-dir"])
    def test_budget_with_step_flag_is_usage_error(self, tmp_path, capsys, flag):
        out = tmp_path / "frames.json"
        value = {"--seed": "3", "--out-dir": str(tmp_path / "D")}[flag]
        rc = run_cli("mllm", "--policy", "store", "--budget", str(512 * 2**20),
                     flag, value, "--out", str(out))
        assert rc == 2
        assert f"drop {flag}" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "D").exists()

    def test_policy_gradient_files_agree(self, tmp_path):
        for policy in ("store", "recompute"):
            rc = run_cli("mllm", "--policy", policy, "--seed", "3",
                         "--out-dir", str(tmp_path / policy))
            assert rc == 0
        for name in ("dx0", "dy"):
            a = load_tensor(tmp_path / "store" / f"{name}.lvxt")
            b = load_tensor(tmp_path / "recompute" / f"{name}.lvxt")
            denom = max(np.max(np.abs(a)), 1e-300)
            assert np.max(np.abs(a - b)) / denom <= 1e-13

    def test_toy_preset_max_frames_ratio(self, tmp_path):
        frames = {}
        for policy in ("store", "recompute"):
            out = tmp_path / f"{policy}.json"
            run_cli("mllm", "--policy", policy, "--budget", str(512 * 2**20),
                    "--out", str(out))
            frames[policy] = json.loads(out.read_text())["max_frames"]
        assert frames["recompute"] / frames["store"] >= 1.5

    def test_malformed_config_reports_location(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"num_lm_blocks": 2,\n  "oops"\n}')
        rc = run_cli("mllm", "--policy", "store", "--config", str(cfg))
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 3 column 1" in err

    @pytest.mark.parametrize("field,value", [("ca_positions", [1.5]), ("ca_positions", 1),
                                             ("d_embed", "4")])
    def test_config_field_of_wrong_type_is_usage_error(self, tmp_path, capsys, field, value):
        cfg = {"num_lm_blocks": 2, "ca_positions": [0], "d_embed": 8, "h": 2,
               "d": 4, "frames": 2, "tokens_per_frame": 3, "s_q": 4, field: value}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = run_cli("mllm", "--policy", "store", "--config", str(path),
                     "--out-dir", str(tmp_path / "out"))
        assert rc == 2
        assert f"{field} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_custom_config_runs(self, tmp_path):
        cfg = {"num_lm_blocks": 2, "ca_positions": [0], "d_embed": 8, "h": 2,
               "d": 4, "frames": 2, "tokens_per_frame": 3, "s_q": 4,
               "dtype": "f64"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = run_cli("mllm", "--policy", "recompute", "--config", str(path),
                     "--out-dir", str(tmp_path / "out"))
        assert rc == 0
        report = json.loads((tmp_path / "out" / "ledger.json").read_text())
        assert report["ledger"]["per_layer_saved_kv"] == 0

    def test_zero_frame_config_runs(self, tmp_path):
        cfg = {"num_lm_blocks": 2, "ca_positions": [0], "d_embed": 8, "h": 2,
               "d": 4, "frames": 0, "tokens_per_frame": 3, "s_q": 4}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = run_cli("mllm", "--policy", "store", "--config", str(path),
                     "--out-dir", str(tmp_path / "out"))
        assert rc == 0
        d_y = load_tensor(tmp_path / "out" / "dy.lvxt")
        assert d_y.shape == (0, 8) and d_y.dtype == np.float32


class TestVerify:
    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as exc_info:
            run_cli("verify", "bogus")
        assert exc_info.value.code == 2

    def test_mllm_suite_passes(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        rc = run_cli("verify", "mllm", "--json", str(report_path))
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS mllm/policy-equivalence" in out
        report = json.loads(report_path.read_text())
        assert report["passed"] is True
        assert report["num_checks"] == len(report["checks"])

    def test_exactness_suite_exits_zero(self, capsys):
        assert run_cli("verify", "exactness") == 0
        out = capsys.readouterr().out
        assert "all passed" in out


def test_readme_commands_parse():
    # every `lvxattn ...` line in the README's sh fences, continuations joined;
    # parsed only, nothing runs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [line for fence in re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
             for line in fence.replace("\\\n", " ").splitlines()
             if line.startswith("lvxattn ")]
    assert lines
    refused = []
    for line in lines:
        try:
            cli.build_parser().parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            refused.append(line)
    assert refused == []


def test_console_script_help():
    proc = subprocess.run([sys.executable, "-m", "lvxattn.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "verify" in proc.stdout


def test_one_parser_serves_every_call_in_a_process(tmp_path):
    # main builds its parser once per process: a refused argv, a run and a
    # cost query in one process must each give what a fresh process gives
    run_args = ["run", "--strategy", "ring", "--n", "2", "--sq", "5", "--skv", "7",
                "--h", "2", "--d", "4", "--backward", "--seed", "3"]
    cost_args = ["cost", "--sq", "100", "--skv", "1000", "--h", "2", "--d", "8", "--n", "2"]
    script = (
        "import sys\n"
        "from lvxattn.cli import build_parser, main\n"
        "try:\n"
        "    main(['run', '--strategy', 'bogus'])\n"
        "except SystemExit as e:\n"
        "    assert e.code == 2, e.code\n"
        "else:\n"
        "    raise AssertionError('bad argv accepted')\n"
        f"assert main({run_args!r} + ['--out-dir', sys.argv[1]]) == 0\n"
        f"assert main({cost_args!r} + ['--out', sys.argv[2]]) == 0\n"
        "assert build_parser() is build_parser()\n")
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "one"),
                           str(tmp_path / "one_cost.json")], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "invalid choice: 'bogus'" in proc.stderr
    for args in (run_args + ["--out-dir", str(tmp_path / "fresh")],
                 cost_args + ["--out", str(tmp_path / "fresh_cost.json")]):
        fresh = subprocess.run([sys.executable, "-m", "lvxattn.cli", *args],
                               capture_output=True, text=True)
        assert fresh.returncode == 0, fresh.stderr
    for name in ("o", "l", "dq", "dk", "dv"):
        assert ((tmp_path / "one" / f"{name}.lvxt").read_bytes()
                == (tmp_path / "fresh" / f"{name}.lvxt").read_bytes())
    assert ((tmp_path / "one_cost.json").read_text()
            == (tmp_path / "fresh_cost.json").read_text())
