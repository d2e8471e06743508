import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from lvxattn.kernels import (blockwise_attention, default_scale, dense_attention,
                             dense_attention_backward, project, project_backward)
from lvxattn.mllm import (TOY_CONFIG, ActivationPolicy, ModelParams, OpCounter,
                          ToyMllmConfig, analytic_ledger, max_frames_under_budget,
                          measured_activation_bytes, mllm_backward, mllm_forward,
                          projection_flops)
from lvxattn.tensorio import seeded_random_tensor
from lvxattn.verify import max_norm_error

SMALL = ToyMllmConfig(num_lm_blocks=3, ca_positions=(0, 2), d_embed=6, h=2, d=3,
                      frames=2, tokens_per_frame=4, s_q=5, dtype="f64")


def build(config, seed=1):
    params = ModelParams.init_random(config, seed=seed)
    x0 = seeded_random_tensor(seed, (config.s_q, config.d_embed),
                              config.np_dtype, stream=11)
    y = seeded_random_tensor(seed, (config.s_kv, config.d_embed), config.np_dtype,
                             stream=12)
    g = seeded_random_tensor(seed, (config.s_q, config.d_embed),
                             config.np_dtype, stream=13)
    return params, x0, y, g


class TestConfig:
    def test_json_roundtrip(self):
        text = json.dumps(SMALL.as_dict())
        assert ToyMllmConfig.from_dict(json.loads(text)) == SMALL

    def test_ca_position_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            ToyMllmConfig(num_lm_blocks=2, ca_positions=(2,), d_embed=4, h=1,
                          d=2, frames=1, tokens_per_frame=1, s_q=2)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            ToyMllmConfig.from_dict({**SMALL.as_dict(), "bogus": 1})

    def test_missing_field_rejected(self):
        data = SMALL.as_dict()
        del data["d_embed"]
        with pytest.raises(ValueError, match="missing config fields"):
            ToyMllmConfig.from_dict(data)

    @pytest.mark.parametrize("field,value", [
        ("ca_positions", [1.5]), ("ca_positions", 1), ("ca_positions", [True]),
        ("d_embed", "4"), ("h", True), ("frames", 2.0), ("num_lm_blocks", None),
        ("dtype", ["f64"])])
    def test_wrong_field_type_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ToyMllmConfig.from_dict({**SMALL.as_dict(), field: value})

    def test_non_object_config_rejected(self):
        with pytest.raises(ValueError, match="config must be an object"):
            ToyMllmConfig.from_dict(json.loads("5"))

    def test_skv_derived(self):
        assert SMALL.s_kv == 8


class TestForward:
    def test_no_ca_layers_is_pure_lm_stack(self):
        cfg = replace(SMALL, ca_positions=())
        params, x0, y, _ = build(cfg)
        out, saved, ledger = mllm_forward(x0, y, params, cfg, "store")
        x = x0
        for blk in params.lm:
            x = x + np.tanh(x @ blk.w1) @ blk.w2
        np.testing.assert_array_equal(out, x)
        assert ledger.per_layer_saved_kv == 0
        assert ledger.num_ca_layers == 0

    def test_zero_output_projection_matches_lm_stack(self):
        params, x0, y, _ = build(SMALL)
        for p in params.ca.values():
            p.w_o[:] = 0.0
        out, saved, ledger = mllm_forward(x0, y, params, SMALL, "store")
        x = x0
        for blk in params.lm:
            x = x + np.tanh(x @ blk.w1) @ blk.w2
        assert max_norm_error(out, x) <= 1e-14
        # attention still ran and was recorded
        assert ledger.per_layer_saved_kv > 0
        assert set(saved.ca) == set(SMALL.ca_positions)

    def test_shape_validation(self):
        params, x0, y, _ = build(SMALL)
        with pytest.raises(ValueError, match="x0 shape"):
            mllm_forward(x0[:2], y, params, SMALL, "store")
        with pytest.raises(ValueError, match="y shape"):
            mllm_forward(x0, y[:3], params, SMALL, "store")

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("name", ["x0", "y"])
    def test_non_finite_input_rejected(self, name, value):
        params, x0, y, _ = build(SMALL)
        inputs = {"x0": x0, "y": y}
        inputs[name][1, 2] = value
        with pytest.raises(ValueError, match=rf"^{name} holds a non-finite value at \[1, 2\]"):
            mllm_forward(inputs["x0"], inputs["y"], params, SMALL, "store")


class TestPolicies:
    def test_outputs_and_gradients_identical(self):
        params, x0, y, g = build(SMALL)
        results = {}
        for policy in ActivationPolicy:
            out, saved, _ = mllm_forward(x0, y, params, SMALL, policy)
            grads = mllm_backward(g, saved, y, params, SMALL, policy)
            results[policy] = (out, grads)
        out_s, g_s = results[ActivationPolicy.STORE_KV]
        out_r, g_r = results[ActivationPolicy.RECOMPUTE_KV]
        assert max_norm_error(out_r, out_s) <= 1e-13
        assert max_norm_error(g_r.d_x0, g_s.d_x0) <= 1e-13
        assert max_norm_error(g_r.d_y, g_s.d_y) <= 1e-13
        for pos in g_s.ca:
            for w in ("w_q", "w_k", "w_v", "w_o"):
                assert max_norm_error(getattr(g_r.ca[pos], w),
                                      getattr(g_s.ca[pos], w)) <= 1e-13

    def test_policy_mismatch_rejected(self):
        params, x0, y, g = build(SMALL)
        _, saved, _ = mllm_forward(x0, y, params, SMALL, "store")
        with pytest.raises(ValueError, match="policy"):
            mllm_backward(g, saved, y, params, SMALL, "recompute")

    def test_missing_saved_tensor_names_layer(self):
        params, x0, y, g = build(SMALL)
        _, saved, _ = mllm_forward(x0, y, params, SMALL, "store")
        del saved.ca[2]["K"]
        with pytest.raises(ValueError, match="layer 2: missing saved tensor K"):
            mllm_backward(g, saved, y, params, SMALL, "store")

    def test_zero_loss_grad_gives_zero_gradients(self):
        params, x0, y, _ = build(SMALL)
        _, saved, _ = mllm_forward(x0, y, params, SMALL, "recompute")
        grads = mllm_backward(np.zeros_like(x0), saved, y, params, SMALL, "recompute")
        assert np.all(grads.d_x0 == 0)
        assert np.all(grads.d_y == 0)
        for pos in grads.ca:
            assert np.all(grads.ca[pos].w_q == 0)

    def test_recompute_op_counter(self):
        params, x0, y, g = build(SMALL)
        counters = {}
        for policy in ActivationPolicy:
            _, saved, _ = mllm_forward(x0, y, params, SMALL, policy)
            c = OpCounter()
            mllm_backward(g, saved, y, params, SMALL, policy, counter=c)
            counters[policy] = c.projection_flops
        extra = counters[ActivationPolicy.RECOMPUTE_KV] - counters[ActivationPolicy.STORE_KV]
        assert extra == SMALL.num_ca_layers * 2 * projection_flops(
            SMALL.s_kv, SMALL.d_embed, SMALL.h * SMALL.d)


class TestLedger:
    def test_store_minus_recompute_is_kv_exactly(self):
        led_s = analytic_ledger(SMALL, "store")
        led_r = analytic_ledger(SMALL, "recompute")
        expected = SMALL.num_ca_layers * 2 * SMALL.s_kv * SMALL.h * SMALL.d * SMALL.elem_bytes
        assert led_s.peak_total - led_r.peak_total == expected
        assert led_r.per_layer_saved_kv == 0
        assert led_s.per_layer_saved_kv == 2 * SMALL.s_kv * SMALL.h * SMALL.d * SMALL.elem_bytes

    def test_measured_bytes_match_analytic(self):
        params, x0, y, _ = build(SMALL)
        for policy in ActivationPolicy:
            _, saved, ledger = mllm_forward(x0, y, params, SMALL, policy)
            meas = measured_activation_bytes(saved)
            c = ledger.num_ca_layers
            assert meas["visual_features_y"] == ledger.visual_features_y
            assert meas["saved_x"] == c * ledger.per_layer_saved_x
            assert meas["saved_o_l"] == c * ledger.per_layer_saved_o_l
            assert meas["saved_kv"] == c * ledger.per_layer_saved_kv

    def test_single_y_buffer_regardless_of_layer_count(self):
        cfg = replace(SMALL, num_lm_blocks=6, ca_positions=(0, 1, 2, 3, 4, 5))
        params, x0, y, _ = build(cfg)
        _, saved, ledger = mllm_forward(x0, y, params, cfg, "recompute")
        meas = measured_activation_bytes(saved)
        assert meas["visual_features_y"] == y.nbytes     # counted once, not 6x
        assert ledger.visual_features_y == y.nbytes


def unblocked_step(x0, y, params, cfg, g_out):
    """Reference forward+backward with full-size projections and attention:
    every cross-attention layer sees all S_KV rows of y in one kernel call.
    Returns (output, d_x0, d_y, {(layer, weight name): gradient})."""
    h, scale = cfg.h, default_scale(cfg.d)

    def flat(t):
        return t.transpose(1, 0, 2).reshape(t.shape[1], -1)

    x, lm_in, ca_in = x0, [], {}
    for blk in range(cfg.num_lm_blocks):
        if blk in cfg.ca_positions:
            p = params.ca[blk]
            q, k, v = project(x, p.w_q, h), project(y, p.w_k, h), project(y, p.w_v, h)
            st = dense_attention(q, k, v, scale)
            ca_in[blk] = (x, q, k, v, st)
            x = x + flat(st.O) @ p.w_o
        lm_in.append(x)
        x = x + np.tanh(x @ params.lm[blk].w1) @ params.lm[blk].w2
    out, g, d_y, grads = x, g_out, np.zeros_like(y), {}
    for blk in reversed(range(cfg.num_lm_blocks)):
        w1, w2, u = params.lm[blk].w1, params.lm[blk].w2, lm_in[blk]
        t = np.tanh(u @ w1)
        d_pre = (g @ w2.T) * (1.0 - t * t)
        grads[blk, "w1"], grads[blk, "w2"] = u.T @ d_pre, t.T @ g
        g = g + d_pre @ w1.T
        if blk in cfg.ca_positions:
            p = params.ca[blk]
            x_in, q, k, v, st = ca_in[blk]
            grads[blk, "w_o"] = flat(st.O).T @ g
            d_o = (g @ p.w_o.T).reshape(cfg.s_q, h, cfg.d).transpose(1, 0, 2)
            gb = dense_attention_backward(q, k, v, st.O, st.L, d_o, scale)
            d_x, grads[blk, "w_q"] = project_backward(x_in, p.w_q, gb.dQ)
            d_y_k, grads[blk, "w_k"] = project_backward(y, p.w_k, gb.dK)
            d_y_v, grads[blk, "w_v"] = project_backward(y, p.w_v, gb.dV)
            d_y = d_y + d_y_k + d_y_v
            g = g + d_x
    return out, g, d_y, grads


def flat_step(out, grads):
    """Output and every gradient of one step, in a fixed order."""
    arrays = {"out": out, "d_x0": grads.d_x0, "d_y": grads.d_y}
    for pos, p in grads.ca.items():
        for w in ("w_q", "w_k", "w_v", "w_o"):
            arrays[pos, w] = getattr(p, w)
    for blk, p in enumerate(grads.lm):
        arrays[blk, "w1"], arrays[blk, "w2"] = p.w1, p.w2
    return arrays


class TestRowBlocks:
    """Each layer walks y in 256-row blocks; SMALL fits in one, so these
    configs put S_KV on both sides of a block boundary."""

    BLOCKED = replace(SMALL, frames=3, tokens_per_frame=201)

    @pytest.mark.parametrize("policy", list(ActivationPolicy))
    @pytest.mark.parametrize("frames,tokens_per_frame", [(3, 201), (2, 50), (0, 4)],
                             ids=["ragged-2x256+91", "one-short-block", "no-frames"])
    def test_matches_unblocked_reference(self, policy, frames, tokens_per_frame):
        cfg = replace(self.BLOCKED, frames=frames, tokens_per_frame=tokens_per_frame)
        params, x0, y, g = build(cfg)
        out, saved, _ = mllm_forward(x0, y, params, cfg, policy)
        got = flat_step(out, mllm_backward(g, saved, y, params, cfg, policy))
        ref_out, ref_dx0, ref_dy, ref_grads = unblocked_step(x0, y, params, cfg, g)
        expected = {"out": ref_out, "d_x0": ref_dx0, "d_y": ref_dy, **ref_grads}
        assert got.keys() == expected.keys()
        for name, ref in expected.items():
            assert max_norm_error(got[name], ref) <= 1e-12, name

    def test_ledger_and_counter_unchanged_by_blocking(self):
        cfg = self.BLOCKED
        params, x0, y, g = build(cfg)
        flops = {}
        for policy in ActivationPolicy:
            _, saved, ledger = mllm_forward(x0, y, params, cfg, policy)
            meas = measured_activation_bytes(saved)
            assert meas["saved_kv"] == cfg.num_ca_layers * ledger.per_layer_saved_kv
            assert meas["saved_o_l"] == cfg.num_ca_layers * ledger.per_layer_saved_o_l
            counter = OpCounter()
            mllm_backward(g, saved, y, params, cfg, policy, counter=counter)
            flops[policy] = counter.projection_flops
        hd = cfg.h * cfg.d
        assert flops[ActivationPolicy.STORE_KV] == cfg.num_ca_layers * projection_flops(
            cfg.s_q, cfg.d_embed, hd)
        assert (flops[ActivationPolicy.RECOMPUTE_KV] - flops[ActivationPolicy.STORE_KV]
                == cfg.num_ca_layers * 2 * projection_flops(cfg.s_kv, cfg.d_embed, hd))

    def test_policies_bit_identical_in_f32(self):
        cfg = replace(self.BLOCKED, dtype="f32")
        params, x0, y, g = build(cfg)
        steps = []
        for policy in ActivationPolicy:
            out, saved, _ = mllm_forward(x0, y, params, cfg, policy)
            steps.append(flat_step(out, mllm_backward(g, saved, y, params, cfg, policy)))
        store, recompute = steps
        for name in store:
            assert store[name].dtype == np.float32, name
            assert np.array_equal(store[name], recompute[name]), name

    @pytest.mark.parametrize("dtype", ["f64", "f32"])
    def test_layer_state_is_one_blockwise_call(self, dtype):
        # the layer walks its y blocks on one carry, as a worker walks its
        # pieces: the state is the one-shot call's over all the rows it saved
        cfg = replace(self.BLOCKED, dtype=dtype)
        params, x0, y, _ = build(cfg)
        _, saved, _ = mllm_forward(x0, y, params, cfg, "store")
        for blk, entry in saved.ca.items():
            q = project(entry["x"], params.ca[blk].w_q, cfg.h).astype(np.float64)
            st = blockwise_attention(q, entry["K"], entry["V"], default_scale(cfg.d))
            assert entry["O"].dtype == entry["L"].dtype == cfg.np_dtype
            assert entry["O"].tobytes() == st.O.astype(cfg.np_dtype).tobytes(), blk
            assert entry["L"].tobytes() == st.L.astype(cfg.np_dtype).tobytes(), blk

    @pytest.mark.parametrize("policy", list(ActivationPolicy))
    def test_memory_above_ledger_does_not_grow_with_frames(self, policy):
        # tracemalloc peak of one step minus what the ledger keeps alive (its
        # activations; params and y exist before tracing starts) and d_y: a
        # whole-S_KV temporary would make this excess grow with the frames
        def step(cfg):
            params, x0, y, g = build(cfg)
            tracemalloc.start()
            try:
                _, saved, ledger = mllm_forward(x0, y, params, cfg, policy)
                grads = mllm_backward(g, saved, y, params, cfg, policy)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            activations = ledger.peak_total - ledger.params_bytes - ledger.visual_features_y
            return peak - activations - grads.d_y.nbytes

        step(replace(TOY_CONFIG, frames=1))     # one-time allocations stay out
        excess = {frames: step(replace(TOY_CONFIG, frames=frames)) for frames in (2, 4, 8)}
        assert max(excess.values()) - excess[2] <= 2**20, excess


class TestMaxFrames:
    def test_budget_below_fixed_costs(self):
        assert max_frames_under_budget(TOY_CONFIG, "store", 1) == 0

    def test_recompute_dominates_store(self):
        for budget in (10**7, 10**8, 10**9):
            fs = max_frames_under_budget(TOY_CONFIG, "store", budget)
            fr = max_frames_under_budget(TOY_CONFIG, "recompute", budget)
            assert fr >= fs

    def test_toy_preset_ratio_at_least_1_5(self):
        budget = 512 * 2**20
        fs = max_frames_under_budget(TOY_CONFIG, "store", budget)
        fr = max_frames_under_budget(TOY_CONFIG, "recompute", budget)
        assert fs > 0
        assert fr / fs >= 1.5

    def test_result_is_tight(self):
        budget = 64 * 2**20
        for policy in ActivationPolicy:
            frames = max_frames_under_budget(TOY_CONFIG, policy, budget)
            assert analytic_ledger(replace(TOY_CONFIG, frames=frames),
                                   policy).peak_total <= budget
            assert analytic_ledger(replace(TOY_CONFIG, frames=frames + 1),
                                   policy).peak_total > budget

    def test_invalid_budget(self):
        with pytest.raises(ValueError, match="budget"):
            max_frames_under_budget(TOY_CONFIG, "store", 0)


def test_finite_difference_parameter_gradients():
    cfg = ToyMllmConfig(num_lm_blocks=2, ca_positions=(1,), d_embed=4, h=1, d=2,
                        frames=2, tokens_per_frame=2, s_q=3, dtype="f64")
    params, x0, y, g = build(cfg, seed=5)
    _, saved, _ = mllm_forward(x0, y, params, cfg, "recompute")
    grads = mllm_backward(g, saved, y, params, cfg, "recompute")

    def loss():
        out, _, _ = mllm_forward(x0, y, params, cfg, "recompute")
        return float(np.sum(g * out))

    step = 1e-6
    targets = [(x0, grads.d_x0), (y, grads.d_y),
               (params.ca[1].w_q, grads.ca[1].w_q),
               (params.ca[1].w_k, grads.ca[1].w_k),
               (params.ca[1].w_v, grads.ca[1].w_v),
               (params.ca[1].w_o, grads.ca[1].w_o),
               (params.lm[0].w1, grads.lm[0].w1),
               (params.lm[1].w2, grads.lm[1].w2)]
    for prim, grad in targets:
        fd = np.zeros_like(prim)
        for idx in np.ndindex(prim.shape):
            orig = prim[idx]
            prim[idx] = orig + step
            up = loss()
            prim[idx] = orig - step
            down = loss()
            prim[idx] = orig
            fd[idx] = (up - down) / (2 * step)
        assert max_norm_error(grad, fd) <= 1e-5
