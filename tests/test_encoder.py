"""Transformer encoder: forward oracle, gradients, heads, checkpoints."""

import json
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradcheck import audit_gradients, mlm_params
from clinlm import encoder
from clinlm.encoder import (
    Batch,
    ParamStore,
    _add_rows,
    _attention,
    _attention_backward,
    _gelu,
    _gelu_grad,
    _head_logits,
    _layer_norm,
    _layer_norm_backward,
    _linear,
    EncoderConfig,
    forward,
    frame,
    init_head,
    init_params,
    load_checkpoint,
    mlm_forward_loss,
    multilabel_loss,
    param_shapes,
    pair_classify_loss,
    save_checkpoint,
    stack_rows,
    token_classify_loss,
)
from clinlm.finetune import FinetuneConfig, extend_for_markers, predict_label_sets
from clinlm.pretrain import (
    AccumulationConfig, AdamConfig, MaskingPolicy, PhasePlan, adam_step, init_optimizer,
)
from clinlm.wordpiece import PAD_ID, train_wordpiece


def tiny_config(**overrides):
    defaults = dict(vocab_size=8, hidden_dim=4, n_layers=1, n_heads=2,
                    ff_dim=6, max_positions=4)
    defaults.update(overrides)
    return EncoderConfig(**defaults)


def attention_maps(params, config, batch):
    """Each layer's softmax attention weights [batch, heads, query, key], in
    eval mode, from the cache the losses keep."""
    _, cache = encoder._forward(params, config, batch, None, keep=True)
    return [lc["attn"] for lc in cache["layers"]]


def zero_params(config):
    params = mlm_params(config, seed=0)
    params.flat[:] = 0.0
    return params


class TestEncoderConfig:
    def test_defaults_valid(self):
        tiny_config()

    def test_vocab_below_specials_rejected(self):
        with pytest.raises(ValueError, match="special"):
            tiny_config(vocab_size=4)

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            tiny_config(hidden_dim=4, n_heads=3)

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(n_layers=0)

    def test_dropout_range(self):
        with pytest.raises(ValueError):
            tiny_config(dropout=1.0)
        with pytest.raises(ValueError):
            tiny_config(dropout=-0.1)


# every settings class checks its fields by annotation, through check_fields
# (PhasePlan entry by entry): (case, construction, the one error message)
_BAD_SETTINGS = [
    ("encoder-float-layers", lambda: tiny_config(n_layers=2.0), "n_layers must be an int, got 2.0"),
    ("finetune-float-max-steps", lambda: FinetuneConfig(max_steps=1.5),
     "max_steps must be an int, got 1.5"),
    ("finetune-float-epochs", lambda: FinetuneConfig(epochs=2.5), "epochs must be an int, got 2.5"),
    ("finetune-bool-batch-size", lambda: FinetuneConfig(batch_size=True),
     "batch_size must be an int, got True"),
    ("finetune-bool-lr", lambda: FinetuneConfig(lr=True), "lr must be a number, got True"),
    ("accumulation-floats", lambda: AccumulationConfig(2.0, 1, 2.0),
     "micro_batch_size must be an int, got 2.0"),
    ("accumulation-bool-steps", lambda: AccumulationConfig(2, True, 2),
     "accumulation_steps must be an int, got True"),
    ("adam-bool-lr", lambda: AdamConfig(True), "lr must be a number, got True"),
    ("masking-bool", lambda: MaskingPolicy(True), "mask_prob must be a number, got True"),
    ("masking-string", lambda: MaskingPolicy("0.5"), "mask_prob must be a number, got '0.5'"),
    ("plan-float-steps", lambda: PhasePlan(((8, 1.5),)),
     "phase step count must be an int, got 1.5"),
    ("plan-bool-steps", lambda: PhasePlan(((8, True),)),
     "phase step count must be an int, got True"),
    ("plan-float-length", lambda: PhasePlan(((8.0, 1),)), "phase length must be an int, got 8.0"),
]


@pytest.mark.parametrize("build,message", [case[1:] for case in _BAD_SETTINGS],
                         ids=[case[0] for case in _BAD_SETTINGS])
def test_every_settings_class_refuses_a_value_of_the_wrong_type(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_settings_take_numpy_numbers_and_an_optional_none():
    assert FinetuneConfig(epochs=np.int64(2), lr=np.float64(0.1), max_steps=None).epochs == 2
    assert AccumulationConfig(np.int32(2), 1, 2).effective_batch == 2
    with pytest.raises(ValueError, match="^max_steps must be >= 1 when given, got 0$"):
        FinetuneConfig(max_steps=0)


class TestBatch:
    def test_must_be_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            Batch(np.zeros(3))

    def test_layout_is_read_off_pad_and_sep(self):
        # mask 0 exactly at [PAD]; segment 1 after the first [SEP], but not
        # at [PAD]: a [PAD] inside a row is masked, and a row with no [SEP]
        # is all segment 0
        batch = Batch([[2, 5, 3, 6, 7, 3, 0, 0],
                       [2, 5, 0, 6, 3, 0, 7, 3],
                       [5, 6, 7, 1, 4, 0, 6, 0]])
        assert batch.attention_mask.tolist() == [[1, 1, 1, 1, 1, 1, 0, 0],
                                                 [1, 1, 0, 1, 1, 0, 1, 1],
                                                 [1, 1, 1, 1, 1, 0, 1, 0]]
        assert batch.segment_ids.tolist() == [[0, 0, 0, 1, 1, 1, 0, 0],
                                              [0, 0, 0, 0, 0, 0, 1, 1],
                                              [0, 0, 0, 0, 0, 0, 0, 0]]
        assert batch.attention_mask.dtype == batch.segment_ids.dtype == np.int64


class TestInitParams:
    def test_shapes_and_constants(self):
        config = tiny_config(n_layers=2)
        params = init_params(config, seed=1)
        assert params["tok_emb"].shape == (8, 4)
        assert params["pos_emb"].shape == (4, 4)
        assert params["seg_emb"].shape == (2, 4)
        assert {name: arr.shape for name, arr in params.items()} == param_shapes(config)
        assert list(params) == list(param_shapes(config))
        assert "layer1.ff_in_w" in params and params["layer1.ff_in_w"].shape == (4, 6)
        assert np.all(params["emb_ln_g"] == 1.0)
        assert np.all(params["layer0.attn_q_b"] == 0.0)

    def test_holds_the_encoder_alone(self):
        # every head, pretraining's mlm too, is attached by init_head
        config = tiny_config(n_layers=2)
        names = list(init_params(config, seed=1))
        assert names[0] == "tok_emb" and names[-1] == "layer1.ff_ln_b"
        assert not [name for name in names if name.startswith(("mlm_", "head_"))]

    def test_seeded_determinism(self):
        config = tiny_config()
        a, b = init_params(config, 7), init_params(config, 7)
        assert all(np.array_equal(a[k], b[k]) for k in a)
        c = init_params(config, 8)
        assert any(not np.array_equal(a[k], c[k]) for k in a)

    def test_weight_scale(self):
        params = init_params(tiny_config(vocab_size=500, hidden_dim=64), seed=0)
        std = params["tok_emb"].std()
        assert 0.015 < std < 0.025


class TestForwardOracle:
    """Single layer, single head, hidden 2, T=2, hand-set weights, and a
    hidden-3 case: a layer norm over two values maps any distinct pair to
    +-1 (times its gain, plus its bias), so only hidden 3 pins the activation.

    Expected values derived by scalar arithmetic (no arrays) straight from
    the defining equations and frozen below; the scalar route is kept inline
    so the derivation stays checkable.
    """

    CONFIG = EncoderConfig(vocab_size=6, hidden_dim=2, n_layers=1, n_heads=1,
                           ff_dim=2, max_positions=2)

    WEIGHTS = {
        "tok_emb": [[0.1, -0.2], [0.0, 0.3], [0.2, 0.1],
                    [-0.1, 0.4], [0.3, 0.0], [0.5, -0.5]],
        "pos_emb": [[0.05, 0.1], [-0.1, 0.2]],
        "seg_emb": [[0.02, -0.03], [0.0, 0.0]],  # no [SEP], so row 1 goes unread
        "emb_ln_g": [1.1, 0.9], "emb_ln_b": [0.01, -0.02],
        "layer0.attn_q_w": [[0.2, -0.1], [0.1, 0.3]],
        "layer0.attn_q_b": [0.01, 0.02],
        "layer0.attn_k_w": [[-0.3, 0.2], [0.2, 0.1]],
        "layer0.attn_k_b": [0.0, -0.01],
        "layer0.attn_v_w": [[0.1, 0.4], [-0.2, 0.1]],
        "layer0.attn_v_b": [0.03, 0.0],
        "layer0.attn_out_w": [[0.25, -0.15], [0.05, 0.35]],
        "layer0.attn_out_b": [-0.01, 0.02],
        "layer0.attn_ln_g": [0.95, 1.05], "layer0.attn_ln_b": [0.0, 0.01],
        "layer0.ff_in_w": [[0.3, -0.2], [0.1, 0.25]],
        "layer0.ff_in_b": [0.005, -0.01],
        "layer0.ff_out_w": [[0.2, 0.1], [-0.1, 0.3]],
        "layer0.ff_out_b": [0.01, 0.0],
        "layer0.ff_ln_g": [1.2, 0.8], "layer0.ff_ln_b": [0.03, -0.02],
    }

    CONFIG_3 = EncoderConfig(vocab_size=6, hidden_dim=3, n_layers=1, n_heads=1,
                             ff_dim=3, max_positions=2)

    WEIGHTS_3 = {
        "tok_emb": [[0.1, -0.2, 0.3], [0.0, 0.3, -0.1], [0.2, 0.1, 0.0],
                    [-0.1, 0.4, 0.2], [0.3, 0.0, -0.3], [0.5, -0.5, 0.1]],
        "pos_emb": [[0.05, 0.1, -0.05], [-0.1, 0.2, 0.15]],
        "seg_emb": [[0.02, -0.03, 0.01], [0.0, 0.0, 0.0]],
        "emb_ln_g": [1.1, 0.9, 1.0], "emb_ln_b": [0.01, -0.02, 0.0],
        "layer0.attn_q_w": [[0.2, -0.1, 0.3], [0.1, 0.3, -0.2], [-0.3, 0.1, 0.2]],
        "layer0.attn_q_b": [0.01, 0.02, -0.01],
        "layer0.attn_k_w": [[-0.3, 0.2, 0.1], [0.2, 0.1, -0.1], [0.1, -0.2, 0.3]],
        "layer0.attn_k_b": [0.0, -0.01, 0.02],
        "layer0.attn_v_w": [[0.1, 0.4, -0.2], [-0.2, 0.1, 0.3], [0.3, -0.1, 0.1]],
        "layer0.attn_v_b": [0.03, 0.0, -0.02],
        "layer0.attn_out_w": [[0.25, -0.15, 0.1], [0.05, 0.35, -0.2], [-0.1, 0.2, 0.3]],
        "layer0.attn_out_b": [-0.01, 0.02, 0.0],
        "layer0.attn_ln_g": [0.95, 1.05, 1.0], "layer0.attn_ln_b": [0.0, 0.01, -0.01],
        # pre-activations near 1, where GELU's cubic term is felt
        "layer0.ff_in_w": [[0.9, -0.6, 0.4], [0.5, 0.8, -0.7], [-0.6, 0.3, 1.0]],
        "layer0.ff_in_b": [0.05, -0.1, 0.2],
        "layer0.ff_out_w": [[0.6, 0.3, -0.4], [-0.3, 0.7, 0.2], [0.4, -0.5, 0.6]],
        "layer0.ff_out_b": [0.01, 0.0, -0.02],
        "layer0.ff_ln_g": [1.2, 0.8, 1.0], "layer0.ff_ln_b": [0.03, -0.02, 0.0],
    }

    TOKEN_IDS = [5, 2]
    EXPECTED_ATTN = [[0.4579875484884131, 0.542012451511587],
                     [0.5396172891715522, 0.4603827108284478]]
    EXPECTED_OUT = [[1.2299999999994398, -0.8199999999996266],
                    [-1.1699999999994695, 0.7799999999996464]]
    EXPECTED_OUT_3 = [[1.4302396542070528, -1.0403194646320688, 0.1085329522842086],
                      [-1.2540449759620071, 1.048647101627403, -0.26577139706591424]]

    @staticmethod
    def scalar_reference(weights, token_ids):
        eps = 1e-12

        def ln(vec, g, b):
            mu = sum(vec) / len(vec)
            var = sum((x - mu) ** 2 for x in vec) / len(vec)
            inv = 1.0 / math.sqrt(var + eps)
            return [g[i] * (vec[i] - mu) * inv + b[i] for i in range(len(vec))]

        def matvec(v, w, b):
            return [sum(v[i] * w[i][j] for i in range(len(v))) + b[j]
                    for j in range(len(b))]

        def gelu(x):  # the tanh form
            u = math.sqrt(2.0 / math.pi) * (x + 0.044715 * x ** 3)
            return 0.5 * x * (1.0 + math.tanh(u))

        w = weights
        hd, steps = len(w["emb_ln_g"]), range(len(token_ids))
        x = [ln([w["tok_emb"][tid][d] + w["pos_emb"][t][d] + w["seg_emb"][0][d]
                 for d in range(hd)], w["emb_ln_g"], w["emb_ln_b"])
             for t, tid in enumerate(token_ids)]
        q = [matvec(xi, w["layer0.attn_q_w"], w["layer0.attn_q_b"]) for xi in x]
        k = [matvec(xi, w["layer0.attn_k_w"], w["layer0.attn_k_b"]) for xi in x]
        v = [matvec(xi, w["layer0.attn_v_w"], w["layer0.attn_v_b"]) for xi in x]
        scale = 1.0 / math.sqrt(hd)
        attn_rows, h1 = [], []
        for t in steps:
            scores = [sum(q[t][d] * k[s][d] for d in range(hd)) * scale for s in steps]
            mx = max(scores)
            exps = [math.exp(s - mx) for s in scores]
            z = sum(exps)
            attn = [e / z for e in exps]
            attn_rows.append(attn)
            ctx = [sum(attn[s] * v[s][d] for s in steps) for d in range(hd)]
            proj = matvec(ctx, w["layer0.attn_out_w"], w["layer0.attn_out_b"])
            h1.append(ln([x[t][d] + proj[d] for d in range(hd)],
                         w["layer0.attn_ln_g"], w["layer0.attn_ln_b"]))
        out = []
        for t in steps:
            a = matvec(h1[t], w["layer0.ff_in_w"], w["layer0.ff_in_b"])
            f = matvec([gelu(ai) for ai in a], w["layer0.ff_out_w"], w["layer0.ff_out_b"])
            out.append(ln([h1[t][d] + f[d] for d in range(hd)],
                          w["layer0.ff_ln_g"], w["layer0.ff_ln_b"]))
        return attn_rows, out

    @staticmethod
    def params(weights):
        return {k: np.array(v, dtype=np.float64) for k, v in weights.items()}

    def test_output_matches_frozen_scalar_oracle(self):
        batch = Batch([self.TOKEN_IDS])
        hidden = forward(self.params(self.WEIGHTS), self.CONFIG, batch)
        assert hidden.shape == (1, 2, 2)
        np.testing.assert_allclose(hidden[0], self.EXPECTED_OUT, atol=1e-10, rtol=0)

    def test_hidden_3_output_matches_frozen_scalar_oracle(self):
        # GELU's 0.044715 moved by 1e-7 (relative 2e-6) moves this output by 1.3e-8
        hidden = forward(self.params(self.WEIGHTS_3), self.CONFIG_3, Batch([self.TOKEN_IDS]))
        assert hidden.shape == (1, 2, 3)
        np.testing.assert_allclose(hidden[0], self.EXPECTED_OUT_3, atol=1e-10, rtol=0)

    def test_attention_matches_frozen_scalar_oracle(self):
        batch = Batch([self.TOKEN_IDS])
        attn = attention_maps(self.params(self.WEIGHTS), self.CONFIG, batch)
        assert len(attn) == 1 and attn[0].shape == (1, 1, 2, 2)
        np.testing.assert_allclose(attn[0][0, 0], self.EXPECTED_ATTN,
                                   atol=1e-10, rtol=0)

    def test_frozen_values_agree_with_inline_scalar_route(self):
        attn_rows, out = self.scalar_reference(self.WEIGHTS, self.TOKEN_IDS)
        np.testing.assert_allclose(attn_rows, self.EXPECTED_ATTN, atol=1e-12, rtol=0)
        np.testing.assert_allclose(out, self.EXPECTED_OUT, atol=1e-12, rtol=0)
        _, out_3 = self.scalar_reference(self.WEIGHTS_3, self.TOKEN_IDS)
        np.testing.assert_allclose(out_3, self.EXPECTED_OUT_3, atol=1e-12, rtol=0)


class TestForwardProperties:
    def test_attention_rows_sum_to_one(self):
        config = tiny_config(n_layers=2)
        params = init_params(config, 3)
        batch = Batch([[5, 6, 7, 1], [2, 3, 0, 0]])
        maps = attention_maps(params, config, batch)
        assert len(maps) == config.n_layers
        for layer_attn in maps:
            sums = layer_attn.sum(axis=-1)
            np.testing.assert_allclose(sums, np.ones_like(sums), atol=1e-6)

    def test_masked_positions_get_zero_attention(self):
        config = tiny_config()
        params = init_params(config, 3)
        batch = Batch([[5, 6, PAD_ID, 1]])
        for layer_attn in attention_maps(params, config, batch):
            assert np.all(layer_attn[..., 2] == 0.0)

    def test_too_long_sequence_rejected(self):
        config = tiny_config(max_positions=2)
        params = init_params(config, 0)
        with pytest.raises(ValueError, match="max_positions"):
            forward(params, config, Batch([[5, 6, 7]]))

    def test_out_of_vocab_id_rejected(self):
        config = tiny_config()
        params = init_params(config, 0)
        with pytest.raises(ValueError, match="vocabulary"):
            forward(params, config, Batch([[5, 200]]))

    def test_deterministic(self):
        config = tiny_config()
        params = init_params(config, 5)
        batch = Batch([[5, 6, 7, 2]])
        assert np.array_equal(forward(params, config, batch),
                              forward(params, config, batch))

    def test_permutation_equivariance_without_positions(self):
        config = tiny_config()
        params = init_params(config, 9)
        params["pos_emb"] = np.zeros_like(params["pos_emb"])
        ids = [5, 6, 7, 2]
        perm = [2, 0, 3, 1]
        out = forward(params, config, Batch([ids]))
        out_perm = forward(params, config, Batch([[ids[i] for i in perm]]))
        np.testing.assert_allclose(out_perm[0], out[0][perm], rtol=0, atol=1e-10)

    def test_dropout_needs_rng_and_changes_output(self):
        config = tiny_config(dropout=0.5)
        params = init_params(config, 0)
        batch = Batch([[5, 6, 7, 2]])
        a = forward(params, config, batch, rng=np.random.default_rng(0))
        b = forward(params, config, batch)  # eval mode ignores dropout
        assert not np.allclose(a, b)
        assert np.array_equal(b, forward(params, tiny_config(), batch))

    def test_runtime_no_worse_than_quadratic(self):
        config = tiny_config(max_positions=128)
        params = init_params(config, 0)

        def timed(t):
            batch = Batch([[5] * t])
            best = math.inf
            for _ in range(3):
                tick = time.perf_counter()
                forward(params, config, batch)
                best = min(best, time.perf_counter() - tick)
            return best

        short, long = timed(32), timed(128)
        # 16x work at quadratic scaling; allow a wide margin for overhead
        assert long < max(short, 1e-4) * 100


class TestMlmLoss:
    def test_uniform_logits_give_log_vocab(self):
        config = tiny_config()
        params = zero_params(config)
        batch = Batch([[5, 6, 7, 2]])
        loss, _ = mlm_forward_loss(params, config, batch, [[0, 1], [0, 3]], [6, 2])
        assert loss == pytest.approx(math.log(config.vocab_size), abs=1e-12)

    def test_duplicated_row_leaves_mean_unchanged(self):
        config = tiny_config()
        params = mlm_params(config, 2)
        single = Batch([[5, 6, 7, 2]])
        double = Batch([[5, 6, 7, 2], [5, 6, 7, 2]])
        loss1, _ = mlm_forward_loss(params, config, single, [[0, 1]], [6])
        loss2, _ = mlm_forward_loss(params, config, double,
                                    [[0, 1], [1, 1]], [6, 6])
        assert loss2 == pytest.approx(loss1, rel=1e-12)

    def test_target_order_invariance(self):
        # targets are read in row-major order, so listing them in another
        # order means stacking the rows in another order
        config = tiny_config()
        params = mlm_params(config, 2)
        rows = [[5, 6, 7, 2], [2, 4, 1, 7]]
        loss_a, grads_a = mlm_forward_loss(batch=Batch(rows), params=params,
                                           config=config,
                                           target_positions=[[0, 1], [1, 2]],
                                           target_ids=[6, 1])
        loss_b, grads_b = mlm_forward_loss(batch=Batch(rows[::-1]), params=params,
                                           config=config,
                                           target_positions=[[0, 2], [1, 1]],
                                           target_ids=[1, 6])
        assert loss_a == pytest.approx(loss_b, rel=1e-14)
        np.testing.assert_allclose(grads_a.flat, grads_b.flat, rtol=0, atol=1e-14)

    def test_zero_targets_rejected(self):
        config = tiny_config()
        params = mlm_params(config, 0)
        with pytest.raises(ValueError, match="target"):
            mlm_forward_loss(params, config, Batch([[5, 6]]),
                             np.zeros((0, 2)), [])

    def test_out_of_batch_target_rejected(self):
        config = tiny_config()
        params = mlm_params(config, 0)
        with pytest.raises(ValueError, match="outside"):
            mlm_forward_loss(params, config, Batch([[5, 6]]), [[0, 5]], [6])

    def test_gradients_match_finite_differences(self):
        config = tiny_config(n_layers=1)
        params = mlm_params(config, 4)
        batch = Batch([[5, 6, 7, 2], [6, 4, 1, PAD_ID]])
        positions, targets = [[0, 1], [0, 3], [1, 0]], [6, 2, 3]
        assert audit_gradients(mlm_forward_loss, params, config, batch, positions, targets) < 1e-4


class TestHeads:
    def test_zero_pair_head_is_uniform(self):
        config = tiny_config()
        params = init_head(init_params(config, 0), config, "head_pair", 3, seed=1)
        params["head_pair_w"] = np.zeros_like(params["head_pair_w"])
        hidden = forward(params, config, Batch([[5, 6]]))
        logits = _head_logits(params, "head_pair", hidden[:, 0], 3)
        probs = np.exp(logits) / np.exp(logits).sum()
        np.testing.assert_allclose(probs, np.full((1, 3), 1 / 3), atol=1e-12)

    def test_zero_multilabel_head_is_half(self):
        # zero scores are probability 1/2, not above the 1/2 threshold; a bias
        # of 1e-12 lifts every label above it
        config = tiny_config()
        params = init_head(init_params(config, 0), config, "head_multi", 4, seed=1)
        params["head_multi_w"] = np.zeros_like(params["head_multi_w"])
        batch = Batch([[5, 6]])
        hidden = forward(params, config, batch)
        assert np.array_equal(_head_logits(params, "head_multi", hidden[:, 0], 4),
                              np.zeros((1, 4)))
        labels = ["a", "b", "c", "d"]
        assert predict_label_sets(params, config, list(batch.token_ids), labels) == [set()]
        params["head_multi_b"] += 1e-12
        assert predict_label_sets(params, config, list(batch.token_ids), labels) == [set(labels)]

    def test_multilabel_probabilities_in_open_interval(self):
        # every probability is above 0 and below 1
        config = tiny_config()
        params = init_head(init_params(config, 3), config, "head_multi", 5, seed=2)
        batch = Batch([[5, 6, 7, 1]])
        hidden = forward(params, config, batch)
        probs = encoder._sigmoid(_head_logits(params, "head_multi", hidden[:, 0], 5))
        assert ((0.0 < probs) & (probs < 1.0)).all()

    def test_token_head_scores_every_position(self):
        config = tiny_config()
        params = init_head(init_params(config, 3), config, "head_token", 7, seed=2)
        hidden = forward(params, config, Batch([[5, 6, 7, 1]]))
        assert _head_logits(params, "head_token", hidden, 7).shape == (1, 4, 7)

    def test_nonpositive_label_count_rejected(self):
        config = tiny_config()
        params = init_params(config, 0)
        with pytest.raises(ValueError):
            init_head(params, config, "head_token", 0, seed=0)
        with pytest.raises(ValueError):
            init_head(params, config, "head_pair", -1, seed=0)
        with pytest.raises(ValueError):
            init_head(params, config, "head_multi", 0, seed=0)

    @pytest.mark.parametrize("head,n_out,refusal", [
        ("head_x", 3,
         "no head 'head_x': a model holds only mlm, head_token, head_pair, head_multi"),
        ("mlm", 5, "mlm head width 5 is not the vocabulary's 8"),
    ], ids=["unknown-head", "mlm-of-another-width"])
    def test_a_head_the_checkpoint_reader_refuses_is_not_built(self, tmp_path, head, n_out,
                                                               refusal):
        config = tiny_config()
        params = init_params(config, 0)
        with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
            init_head(params, config, head, n_out, seed=0)
        # the mlm head of the vocabulary's width is built, and reads back
        mlm = init_head(params, config, "mlm", 8, seed=0)
        save_checkpoint(tmp_path / "m.ckpt", config, mlm)
        assert load_checkpoint(tmp_path / "m.ckpt")[1].layout == mlm.layout

    def test_label_count_mismatch_rejected(self):
        config = tiny_config()
        params = init_head(init_params(config, 0), config, "head_token", 3, seed=0)
        hidden = forward(params, config, Batch([[5, 6]]))
        with pytest.raises(ValueError, match="built for 3"):
            _head_logits(params, "head_token", hidden, 5)


class TestHeadLosses:
    def test_token_loss_ignores_unselected_positions(self):
        # the loss is the mean over the read positions alone
        config = tiny_config()
        params = init_head(init_params(config, 1), config, "head_token", 3, seed=5)
        batch = Batch([[5, 6, 7, PAD_ID]])
        loss, _ = token_classify_loss(params, config, batch, [[0, 0], [0, 1]], [0, 2])
        singles = [token_classify_loss(params, config, batch, [position], [tag])[0]
                   for position, tag in (([0, 0], 0), ([0, 1], 2))]
        assert loss == pytest.approx(np.mean(singles), rel=1e-15)

    def test_token_loss_empty_mask_rejected(self):
        config = tiny_config()
        params = init_head(init_params(config, 1), config, "head_token", 3, seed=5)
        batch = Batch([[5, 6]])
        with pytest.raises(ValueError, match="at least one target position"):
            token_classify_loss(params, config, batch, np.zeros((0, 2), dtype=int), [])

    def test_token_loss_label_range_checked(self):
        config = tiny_config()
        params = init_head(init_params(config, 1), config, "head_token", 3, seed=5)
        batch = Batch([[5, 6]])
        with pytest.raises(ValueError, match="label"):
            token_classify_loss(params, config, batch, [[0, 0], [0, 1]], [0, 9])

    def test_pair_loss_shape_checked(self):
        config = tiny_config()
        params = init_head(init_params(config, 1), config, "head_pair", 3, seed=5)
        batch = Batch([[5, 6]])
        with pytest.raises(ValueError, match="shape"):
            pair_classify_loss(params, config, batch, [[0, 0]], [0, 1])

    def test_multilabel_matrix_checked(self):
        config = tiny_config()
        params = init_head(init_params(config, 1), config, "head_multi", 3, seed=5)
        batch = Batch([[5, 6]])
        with pytest.raises(ValueError, match="0 or 1"):
            multilabel_loss(params, config, batch, [[0, 0]], [[0.0, 0.5, 1.0]])
        with pytest.raises(ValueError, match="shape"):
            multilabel_loss(params, config, batch, [[0, 0]], [[0.0, 1.0]])

    def test_each_head_loss_passes_gradient_check(self):
        config = tiny_config(n_layers=1)
        base = init_params(config, 6)
        batch = Batch([[5, 6, 7, 2], [6, 4, 1, PAD_ID]])

        token_params = init_head(base, config, "head_token", 3, seed=7)
        positions = np.array([[0, 1], [0, 2], [1, 0], [1, 1]])
        tags = np.array([2, 1, 1, 0])
        assert audit_gradients(token_classify_loss, token_params, config, batch,
                               positions, tags) < 1e-4

        cls = np.array([[0, 0], [1, 0]])  # where the pair and multi-label heads read
        pair_params = init_head(base, config, "head_pair", 3, seed=7)
        classes = np.array([2, 0])
        assert audit_gradients(pair_classify_loss, pair_params, config, batch,
                               cls, classes) < 1e-4

        multi_params = init_head(base, config, "head_multi", 3, seed=7)
        matrix = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        assert audit_gradients(multilabel_loss, multi_params, config, batch,
                               cls, matrix) < 1e-4


# head -> (its loss, one valid target)
_HEAD_LOSSES = {"mlm": (mlm_forward_loss, 6), "head_token": (token_classify_loss, 1),
                "head_pair": (pair_classify_loss, 1), "head_multi": (multilabel_loss, [0, 1, 0])}
_BAD_READS = (r"^reads must be \[n, 2\] \(row, position\) pairs in strictly ascending "
              r"row-major order, none outside the 1 x 2 batch$")
# refusal -> (positions on a 1 x 2 batch, how many targets, the one message)
_REFUSALS = {
    "no-reads": ([], 0, r"^{head} loss needs at least one target position$"),
    "outside-the-batch": ([[0, 2]], 1, _BAD_READS),
    "count-mismatch": ([[0, 1]], 2, r"^{head} reads 1 position\(s\) but has targets of shape \(2,"),
    "unsorted": ([[0, 1], [0, 0]], 2, _BAD_READS),
    "repeated": ([[0, 1], [0, 1]], 2, _BAD_READS),
}


@pytest.mark.parametrize("refusal", list(_REFUSALS))
@pytest.mark.parametrize("head", list(_HEAD_LOSSES))
def test_every_head_loss_refuses_bad_reads_with_one_message(head, refusal):
    # _head_loss checks the read count and _forward the reads themselves, for
    # all four losses alike
    config = tiny_config()
    n_out = config.vocab_size if head == "mlm" else 3
    params = init_head(init_params(config, 1), config, head, n_out, seed=5)
    loss, target = _HEAD_LOSSES[head]
    positions, n_targets, message = _REFUSALS[refusal]
    targets = np.array([target] * n_targets).reshape(n_targets, *np.shape(target))
    with pytest.raises(ValueError, match=message.format(head=head)):
        loss(params, config, Batch([[5, 6]]), positions, targets)


# head -> targets of the wrong shape for two reads, the shape _head_loss asks for
_WRONG_SHAPES = {"mlm": ([[6, 7], [6, 7]], "(2,)"), "head_token": ([[0], [1]], "(2,)"),
                 "head_pair": ([[0], [1]], "(2,)"), "head_multi": ([0, 1], "(2, 3)")}


@pytest.mark.parametrize("head", list(_WRONG_SHAPES))
def test_every_head_loss_refuses_targets_of_the_wrong_shape_with_one_message(head):
    # 2-D class ids once went through the token and masked-LM losses as if
    # flat, and only the pair and multi-label losses checked their shape
    config = tiny_config()
    n_out = config.vocab_size if head == "mlm" else 3
    params = init_head(init_params(config, 1), config, head, n_out, seed=5)
    targets, shape = _WRONG_SHAPES[head]
    message = (rf"^{head} reads 2 position\(s\) but has targets of shape "
               rf"{re.escape(str(np.shape(targets)))}, not {re.escape(shape)}$")
    with pytest.raises(ValueError, match=message):
        _HEAD_LOSSES[head][0](params, config, Batch([[5, 6]]), [[0, 0], [0, 1]], targets)


@pytest.mark.parametrize("head", ["mlm", "head_token", "head_pair"])
def test_every_class_id_loss_refuses_float_targets_with_one_message(head):
    # class ids were once cast to int64, which truncates: [0.7, 1.9] trained as [0, 1]
    config = tiny_config()
    n_out = config.vocab_size if head == "mlm" else 3
    params = init_head(init_params(config, 1), config, head, n_out, seed=5)
    loss, batch, reads = _HEAD_LOSSES[head][0], Batch([[5, 6]]), [[0, 0], [0, 1]]
    for targets in ([0.7, 1.9], [0, 1.0], np.array([0.0, 1.0])):
        with pytest.raises(ValueError, match=rf"^{head} targets must be integer class ids, "
                                             r"not float64$"):
            loss(params, config, batch, reads, targets)
    value = loss(params, config, batch, reads, [0, 1])[0]
    assert loss(params, config, batch, reads, np.array([0, 1], dtype=np.int64))[0] == value


# (head, loss, its arguments after the batch) of each loss the train-mode
# gradient audit checks on its two-row batch
_TRAIN_MODE_LOSSES = [
    pytest.param("mlm", mlm_forward_loss, ([[0, 1], [0, 3], [1, 0]], [6, 2, 3]), id="mlm"),
    pytest.param("head_token", token_classify_loss,
                 ([[0, 1], [0, 2], [1, 0], [1, 1]], [2, 1, 1, 0]), id="token"),
    pytest.param("head_pair", pair_classify_loss, ([[0, 0], [1, 0]], [2, 0]), id="pair"),
    pytest.param("head_multi", multilabel_loss,
                 ([[0, 0], [1, 0]], [[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]]), id="multilabel"),
]


class TestTrainModeGradients:
    @pytest.mark.parametrize("head,loss,args", _TRAIN_MODE_LOSSES)
    def test_gradients_match_finite_differences_under_dropout(self, head, loss, args):
        config = tiny_config(n_layers=2, dropout=0.3)
        n_out = config.vocab_size if head == "mlm" else 3
        params = init_head(init_params(config, 6), config, head, n_out, seed=7)
        batch = Batch([[5, 6, 7, 2], [6, 4, 1, PAD_ID]])
        train = loss(params, config, batch, *args, rng=np.random.default_rng(1))[0]
        assert train != loss(params, config, batch, *args)[0]  # the masks apply
        assert audit_gradients(loss, params, config, batch, *args, seed=1) < 1e-4


class TestReads:
    """forward with reads, ascending (row, position) pairs, returns the full
    pass's hidden states at those pairs in eval mode. In train mode its top
    layer draws masks at the read rows, so only reading every position draws
    the full pass's masks."""

    @staticmethod
    def model():
        config = tiny_config(vocab_size=12, hidden_dim=8, n_layers=2, ff_dim=12,
                             max_positions=8, dropout=0.1)
        params = init_params(config, 3)
        batch = stack_rows([frame([5, 6, 7], None, 8), frame([8, 9], [10, 11], 8),
                            frame([6], None, 8)])
        return config, params, batch

    # ragged: row 0 has no reads, row 1 three, row 2 one; repeated: row 0 read
    # repeatedly (the flat [4, 4, 1, 4] as its distinct pairs), rows 1 and 2 not
    # at all, so the last rows of the query grid are empty
    @pytest.mark.parametrize("reads", [[[0, 0], [1, 0], [2, 0]],
                                       [[1, 1], [1, 3], [1, 5], [2, 1]],
                                       [[0, 1], [0, 4]]],
                             ids=["eval-one-per-row", "eval-ragged", "eval-repeated"])
    def test_reads_are_the_full_pass_rows(self, reads):
        config, params, batch = self.model()
        assert batch.shape == (3, 7)
        full = forward(params, config, batch)
        read = forward(params, config, batch, reads=np.array(reads))
        assert read.shape == (len(reads), config.hidden_dim)
        np.testing.assert_allclose(read, full[tuple(np.array(reads).T)], rtol=1e-12, atol=0)

    def test_reading_every_position_is_the_full_pass_in_train_mode(self):
        # every row fills the query grid, so each mask has the full pass's shape
        config, params, batch = self.model()
        rngs = [np.random.default_rng(5) for _ in range(2)]
        full = forward(params, config, batch, rngs[0])
        read = forward(params, config, batch, rngs[1], reads=np.argwhere(np.ones(batch.shape)))
        assert not np.allclose(full, forward(params, config, batch))  # the masks apply
        assert np.array_equal(read, full.reshape(-1, config.hidden_dim))
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    # 2-d: a 2-d array, but three columns wide; flat: the bare flat indices
    @pytest.mark.parametrize("reads", [[[0, -1]], [[3, 0]], [[0, 0], [2, 7]], [[0, 1, 2]],
                                       [0, 1]],
                             ids=["negative", "past-the-end", "one-of-two-past-the-end", "2-d",
                                  "flat"])
    def test_reads_outside_the_batch_refused(self, reads):
        config, params, batch = self.model()
        with pytest.raises(ValueError, match=r"^reads must be \[n, 2\] \(row, position\) pairs "
                                             r".* none outside the 3 x 7 batch$"):
            forward(params, config, batch, reads=reads)

    @pytest.mark.parametrize("reads", [[[1, 2], [0, 3]], [[0, 4], [0, 1]], [[1, 4], [1, 4]]],
                             ids=["rows-unsorted", "positions-unsorted", "repeated"])
    def test_reads_out_of_order_refused(self, reads):
        # every loss meets the same refusal, through forward
        # (test_every_head_loss_refuses_bad_reads_with_one_message)
        config, params, batch = self.model()
        with pytest.raises(ValueError, match=r"^reads must be .* in strictly ascending "
                                             r"row-major order, "):
            forward(params, config, batch, reads=reads)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_any_ascending_read_set_is_the_full_pass_rows(self, data):
        # random ragged rows, each read any subset of its positions, padding
        # included and the empty set too
        lengths = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=4), label="lengths")
        config = tiny_config(vocab_size=12, hidden_dim=8, n_layers=2, ff_dim=12,
                             max_positions=8)
        params = init_params(config, data.draw(st.integers(0, 3), label="seed"))
        rows = [data.draw(st.lists(st.integers(5, 11), min_size=n, max_size=n), label="ids")
                for n in lengths]
        batch = stack_rows([frame(ids, None, 8) for ids in rows])
        cells = [(i, j) for i in range(batch.shape[0]) for j in range(batch.shape[1])]
        picked = data.draw(st.sets(st.sampled_from(cells)), label="reads")
        reads = np.array(sorted(picked), dtype=np.int64).reshape(-1, 2)
        full = forward(params, config, batch)
        read = forward(params, config, batch, reads=reads)
        np.testing.assert_allclose(read, full[tuple(reads.T)], rtol=1e-12, atol=0)


class CountingRng:
    """A generator that counts the uniforms dropout draws from it."""

    def __init__(self, seed):
        self.rng, self.drawn = np.random.default_rng(seed), 0

    def random(self, size):
        self.drawn += math.prod(size)
        return self.rng.random(size)


def test_a_train_mode_loss_draws_one_uniform_per_entry_it_computes():
    # 8 rows x 64 positions, hidden 32, 2 heads: the embeddings and layer 0
    # draw 8*64*32 + (8*2*64*64 + 2 * 8*64*32), the top layer, reading each
    # [CLS], 8*2*1*64 attention weights and 2 * 8*32 sublayer outputs; masks
    # drawn at the full shape there would make 212,992
    config = EncoderConfig(vocab_size=60, hidden_dim=32, n_layers=2, n_heads=2, ff_dim=64,
                           max_positions=64, dropout=0.1)
    params = init_head(init_params(config, 1), config, "head_pair", 3, seed=2)
    batch = Batch(np.random.default_rng(0).integers(5, 60, size=(8, 64)))
    rng = CountingRng(3)
    pair_classify_loss(params, config, batch, [[i, 0] for i in range(8)], [0, 1, 2] * 2 + [0, 1],
                       rng=rng)
    assert rng.drawn == 116_224


class TestForwardOnly:
    """forward keeps no backward cache: it frees each layer's activations as
    the next layer starts, and computes what the losses' cache-keeping pass
    computes, bit for bit."""

    def test_peak_memory_does_not_grow_with_depth(self):
        # numpy reports its buffers to tracemalloc; when every layer's cache
        # was kept to the end, 8 layers peaked at 3.7 times 2 layers
        peaks = {}
        ids = np.random.default_rng(0).integers(5, 60, size=(16, 64))
        for n_layers in (2, 8):
            config = EncoderConfig(vocab_size=60, hidden_dim=32, n_layers=n_layers, n_heads=2,
                                   ff_dim=128, max_positions=64)
            params = init_params(config, 1)
            tracemalloc.start()
            try:
                forward(params, config, Batch(ids))
                peaks[n_layers] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[8] <= 1.1 * peaks[2], peaks  # 10% for Python objects

    @pytest.mark.parametrize("reads", [None, [[0, 0], [1, 2], [1, 5], [2, 1]]],
                             ids=["full", "reads"])
    @pytest.mark.parametrize("seed", [None, 5], ids=["eval", "train"])
    def test_forward_is_the_cache_keeping_pass_bit_for_bit(self, reads, seed):
        config, params, batch = TestReads.model()
        assert (batch.attention_mask == 0).any()  # a padded row
        rngs = [None if seed is None else np.random.default_rng(seed) for _ in range(2)]
        kept, cache = encoder._forward(params, config, batch, rngs[0], reads, keep=True)
        assert len(cache["layers"]) == config.n_layers
        assert np.array_equal(forward(params, config, batch, rngs[1], reads), kept)


def last_layer_rows(monkeypatch, config):
    """Name -> a list that collects the row count of every call to the last
    layer's attn_q or ff_in, through a spy on encoder._linear."""
    rows, linear = {"attn_q": [], "ff_in": []}, encoder._linear

    def spy(params, name, x):
        layer, _, sublayer = name.partition(".")
        if layer == f"layer{config.n_layers - 1}" and sublayer in rows:
            rows[sublayer].append(x.reshape(-1, x.shape[-1]).shape[0])
        return linear(params, name, x)

    monkeypatch.setattr(encoder, "_linear", spy)
    return rows


class TestLossesRunTheTopLayerAtReadsOnly:
    # (loss, its arguments after the batch, positions it reads) on a 2 x 4
    # batch
    @pytest.mark.parametrize("head,loss,args,n_reads", [
        ("mlm", mlm_forward_loss, ([[0, 1], [1, 0], [1, 3]], [6, 3, 4]), 3),
        ("head_token", token_classify_loss, ([[0, 1], [0, 2], [1, 0], [1, 1]], [2, 1, 1, 0]), 4),
        ("head_pair", pair_classify_loss, ([[0, 0], [1, 0]], [2, 0]), 2),
        ("head_multi", multilabel_loss, ([[0, 0], [1, 0]], [[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]]),
         2),
    ], ids=["mlm", "token", "pair", "multilabel"])
    def test_last_ff_in_sees_each_read_position_once(self, monkeypatch, head, loss, args,
                                                     n_reads):
        config = tiny_config(n_layers=2)
        n_out = config.vocab_size if head == "mlm" else 3
        params = init_head(init_params(config, 6), config, head, n_out, seed=7)
        batch = Batch([[5, 6, 7, 2], [6, 4, 1, PAD_ID]])
        rows = last_layer_rows(monkeypatch, config)
        loss(params, config, batch, *args)
        # the queries run at the read rows too, not at every position
        assert rows == {"attn_q": [n_reads], "ff_in": [n_reads]}


def test_gelu_and_its_gradient_are_the_closed_forms_bit_for_bit():
    # the tanh form, its u = sqrt(2 / pi) (a + 0.044715 a^3) summed as
    # a (c + 0.044715 c a^2); the gradient h + a 2h(1 - h) u' reuses the
    # forward's gate h; scaling by 0.5 or 2 is exact, so reordering it
    # changes no bit
    rng = np.random.default_rng(0)
    a = rng.normal(size=100_000) * np.geomspace(0.01, 30.0, 100_000)
    c = math.sqrt(2.0 / math.pi)
    gate = 0.5 * (1.0 + np.tanh(a * (0.044715 * c * (a * a) + c)))
    gelu, h = _gelu(a)
    assert np.array_equal(h, gate) and np.array_equal(gelu, a * gate)
    assert np.array_equal(_gelu_grad(a, h),
                          (a * a * (6 * 0.044715 * c) + 2.0 * c) * a * gate * (1.0 - gate) + gate)
    # numpy's tanh is not libm's bit for bit, so the scalar forms agree up to rounding
    tanh_form = [0.5 * x * (1.0 + math.tanh(c * (x + 0.044715 * x ** 3))) for x in a]
    np.testing.assert_allclose(gelu, tanh_form, rtol=1e-13, atol=1e-15)
    erf_form = [0.5 * x * (1.0 + math.erf(x / math.sqrt(2.0))) for x in a]
    assert np.abs(gelu - erf_form).max() < 5e-4  # the erf form's GELU is 4.7e-4 away at most


@pytest.mark.parametrize("padded", [False, True], ids=["no-padding", "padding"])
def test_attention_and_its_backward_are_the_closed_forms_bit_for_bit(padded):
    # scores are scaled, biased, shifted, exponentiated and normalized in one
    # buffer, in the closed form's order; with no padded key the zero bias is
    # not added at all, which changes no weight
    rng = np.random.default_rng(0)
    qh, kh, vh, d_ctx = (rng.normal(size=(2, 3, 9, 4)) for _ in range(4))
    mask = np.ones((2, 1, 1, 9))
    if padded:
        mask[1, ..., 6:] = 0
    bias, lc = np.where(mask == 1, 0.0, encoder._NEG_INF), {}
    ctx = _attention(qh, kh, vh, bias if padded else None, 0.0, None, lc)
    scores = qh @ kh.swapaxes(-1, -2) * (1.0 / math.sqrt(4)) + bias
    scores -= scores.max(axis=-1, keepdims=True)
    exp = np.exp(scores)
    attn = exp / exp.sum(axis=-1, keepdims=True)
    assert np.array_equal(lc["attn"], attn)
    assert np.array_equal(ctx, attn @ vh)
    d_attn = d_ctx @ vh.swapaxes(-1, -2)
    d_scores = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True))
    expected = (d_scores @ kh * (1.0 / math.sqrt(4)),
                d_scores.swapaxes(-1, -2) @ qh * (1.0 / math.sqrt(4)),
                attn.swapaxes(-1, -2) @ d_ctx)
    for got, want in zip(_attention_backward(d_ctx, lc), expected):
        assert np.array_equal(got, want)


def test_layer_norm_linear_and_their_backward_are_the_closed_forms_bit_for_bit():
    rng = np.random.default_rng(1)
    params = ParamStore({"ln_g": (8,), "ln_b": (8,), "lin_w": (8, 5), "lin_b": (5,)})
    params.flat[...] = rng.normal(size=params.flat.shape)
    x, dy = rng.normal(size=(2, 3, 8)) * 3.0 + 1.0, rng.normal(size=(2, 3, 8))
    y, (xhat, inv) = _layer_norm(params, "ln", x)
    xc = x - x.mean(axis=-1, keepdims=True)
    want_inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-12)
    assert np.array_equal(inv, want_inv)
    assert np.array_equal(xhat, xc * want_inv)
    assert np.array_equal(y, params["ln_g"] * (xc * want_inv) + params["ln_b"])
    grads = params.like()
    dx = _layer_norm_backward(params, grads, "ln", dy, (xhat, inv))
    dxhat = dy * params["ln_g"]
    assert np.array_equal(dx, inv * (dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat
                                     * (dxhat * xhat).mean(axis=-1, keepdims=True)))
    assert np.array_equal(grads["ln_g"], (dy * xhat).reshape(-1, 8).sum(axis=0))
    assert np.array_equal(_linear(params, "lin", x),
                          (x.reshape(-1, 8) @ params["lin_w"] + params["lin_b"]).reshape(2, 3, 5))


@pytest.mark.parametrize("n,n_ids", [(1, 3), (7, 2), (512, 50)])
def test_add_rows_matches_np_add_at(n, n_ids):
    # the embedding gradients' scatter sums each id's rows in another order
    # than np.add.at, so the two agree to rounding only
    rng = np.random.default_rng(n)
    ids, rows = rng.integers(0, n_ids, size=n), rng.normal(size=(n, 8))
    expected, got = np.ones((n_ids + 1, 8)), np.ones((n_ids + 1, 8))
    np.add.at(expected, ids, rows)
    _add_rows(got, ids, rows)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


class TestPaddingInvariance:
    """A batch as wide as its widest row (stack_rows) computes what the same
    rows padded to max_positions compute, at every real position."""

    # Train mode runs at dropout 0: dropout masks are drawn one entry per
    # batch cell, so batches of two widths draw different masks.
    @pytest.mark.parametrize("dropout,seed", [(0.3, None), (0.0, 3)], ids=["eval", "train"])
    def test_forward_losses_and_gradients_agree(self, dropout, seed):
        config = tiny_config(vocab_size=12, hidden_dim=8, n_layers=2, ff_dim=12,
                             max_positions=16, dropout=dropout)
        params = mlm_params(config, 4)
        for head in ("head_token", "head_pair", "head_multi"):
            params = init_head(params, config, head, 3, seed=5)
        rows = [frame([5, 6], None, 16), frame([7, 8, 9], [10, 11], 16),
                frame([6, 5, 9, 9, 8, 7, 11], None, 16)]
        stacked = stack_rows(rows)
        padded = Batch(np.pad(stacked.token_ids, ((0, 0), (0, 7)), constant_values=PAD_ID))
        assert stacked.shape == (3, 9) and padded.shape == (3, 16)
        real = stacked.attention_mask == 1

        def rng():
            return None if seed is None else np.random.default_rng(seed)

        hidden = forward(params, config, stacked, rng())
        hidden_padded = forward(params, config, padded, rng())
        np.testing.assert_allclose(hidden[real], hidden_padded[:, :9][real], rtol=0, atol=1e-12)

        positions = np.argwhere(real & (stacked.token_ids > 4))  # row-major, ascending
        cls = [[0, 0], [1, 0], [2, 0]]
        calls = {  # each loss on a batch
            "mlm": lambda b: mlm_forward_loss(
                params, config, b, [[0, 1], [1, 4], [2, 7]], [6, 11, 7], rng=rng()),
            "token": lambda b: token_classify_loss(
                params, config, b, positions, positions[:, 1] % 3, rng=rng()),
            "pair": lambda b: pair_classify_loss(params, config, b, cls, [2, 0, 1], rng=rng()),
            "multilabel": lambda b: multilabel_loss(
                params, config, b, cls, [[1.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]],
                rng=rng()),
        }
        for name, call in calls.items():
            (value, grads), (value_padded, grads_padded) = call(stacked), call(padded)
            assert abs(value - value_padded) <= 1e-12, name
            assert grads.keys() == grads_padded.keys()
            for key in grads:
                np.testing.assert_allclose(grads[key], grads_padded[key], rtol=0, atol=1e-12,
                                           err_msg=f"{name} {key}")


def _reshape(header, name, shape):
    """header with the manifest entry of tensor name given another shape."""
    return {**header, "tensors": [{**e, "shape": shape} if e["name"] == name else e
                                  for e in header["tensors"]]}


def _omit(header, name):
    """header without the manifest entry of tensor name."""
    return {**header, "tensors": [e for e in header["tensors"] if e["name"] != name]}


def _rename(header, **names):
    """header with manifest entries renamed old=new; byte counts unchanged."""
    return {**header, "tensors": [{**e, "name": names.get(e["name"], e["name"])}
                                  for e in header["tensors"]]}


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        config = tiny_config(n_layers=2)
        params = init_params(config, 11)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, config, params)
        loaded_config, loaded = load_checkpoint(path)
        assert loaded_config == config
        assert set(loaded) == set(params)
        assert all(np.array_equal(loaded[k], params[k]) for k in params)

    def test_task_heads_round_trip(self, tmp_path):
        config = tiny_config()
        params = init_head(init_head(init_params(config, 11), config, "head_pair", 3, 1),
                           config, "head_multi", 2, 2)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, config, params)
        loaded = load_checkpoint(path)[1]
        assert loaded["head_pair_w"].shape == (4, 3) and loaded["head_multi_b"].shape == (2,)

    def test_byte_stable(self, tmp_path):
        config = tiny_config()
        params = init_params(config, 11)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, config, params)
        save_checkpoint(p2, config, params)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_holds_the_fixed_settings(self, tmp_path):
        # the fixed settings as earlier releases wrote them, plus the
        # activation, which their files lack (they hold erf-GELU models)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, tiny_config(), init_params(tiny_config(), 11))
        assert (b'"config":{"dropout":0.0,"ff_dim":6,"hidden_act":"gelu_tanh","hidden_dim":4,'
                b'"ln_epsilon":1e-12,"max_positions":4,"n_heads":2,"n_layers":1,"n_segments":2,'
                b'"vocab_size":8}'
                in path.read_bytes().split(b"\n", 1)[0])

    def test_truncated_file_rejected(self, tmp_path):
        config = tiny_config()
        params = init_params(config, 11)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, config, params)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        config = tiny_config()
        params = init_params(config, 11)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, config, params)
        with open(path, "ab") as handle:
            handle.write(b"x")
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_tensor_rejected_by_name(self, tmp_path, value):
        config = tiny_config()
        params = init_params(config, 11)
        params["layer0.ff_in_w"][1, 2] = value
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, config, params)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: tensor layer0.ff_in_w "
                                             f"holds a NaN or infinity$"):
            load_checkpoint(path)

    def test_non_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"\x00\x01binarynoise\n")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_wrong_format_tag_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(ValueError, match="format"):
            load_checkpoint(path)

    @staticmethod
    def _rewrite_header(path, change):
        header_line, body = path.read_bytes().split(b"\n", 1)
        header = change(json.loads(header_line))
        path.write_bytes(json.dumps(header).encode() + b"\n" + body)

    @pytest.mark.parametrize("change", [
        lambda h: [h],
        lambda h: {**h, "config": {**h["config"], "extra": 1}},
        lambda h: {**h, "config": {k: v for k, v in h["config"].items() if k != "dropout"}},
        lambda h: {**h, "config": [1]},
        lambda h: {**h, "config": {**h["config"], "hidden_dim": "8"}},
        lambda h: {**h, "tensors": {}},
        lambda h: {**h, "tensors": [{"shape": [2]}] + h["tensors"][1:]},
        lambda h: {**h, "tensors": [{"name": 3, "shape": [2]}] + h["tensors"][1:]},
        lambda h: {**h, "tensors": [{"name": "x", "shape": [-2]}] + h["tensors"][1:]},
        lambda h: {**h, "tensors": [{"name": "x", "shape": "2"}] + h["tensors"][1:]},
        lambda h: {**h, "tensors": [{"name": "x", "shape": [2.5]}] + h["tensors"][1:]},
        lambda h: {**h, "tensors": [7] + h["tensors"][1:]},
        lambda h: _reshape(h, "tok_emb", [4, 8]),
        lambda h: _rename(h, mlm_b="mlm_bias"),
        lambda h: _rename(h, pos_emb="layer0.attn_q_w"),
        lambda h: _reshape(h, "head_pair_w", [3, 4]),
        lambda h: _rename(h, head_pair_b="head_token_b"),
        lambda h: _reshape(_reshape(h, "head_pair_b", [2]), "head_multi_b", [3]),
        lambda h: _rename(h, head_pair_w="head_x_w", head_pair_b="head_x_b"),
        lambda h: {**h, "config": {**h["config"], "ln_epsilon": "tiny"}},
        lambda h: {**h, "config": {**h["config"], "ln_epsilon": float("nan")}},
        lambda h: {**h, "config": {**h["config"], "ln_epsilon": -1.0}},
        lambda h: {**h, "config": {**h["config"], "ln_epsilon": 1e-5}},
        lambda h: {**h, "config": {**h["config"], "n_segments": 1}},
        lambda h: {**h, "config": {**h["config"], "n_segments": 2.0}},
        lambda h: {**h, "config": {k: v for k, v in h["config"].items() if k != "n_segments"}},
        lambda h: {**h, "config": {**h["config"], "hidden_act": "gelu"}},
        lambda h: {**h, "config": {**h["config"], "hidden_dim": 4.0}},
        lambda h: {**h, "config": {**h["config"], "n_layers": True}},
        lambda h: {**h, "version": 99},
        lambda h: {**h, "version": True},
    ], ids=["list-header", "extra-config-key", "missing-config-key", "config-not-object",
            "config-value-type", "tensors-not-list", "tensor-without-name",
            "non-string-name", "negative-dim", "shape-not-list", "float-dim",
            "entry-not-object", "transposed-tensor", "renamed-tensor", "repeated-tensor",
            "transposed-head", "head-without-bias", "head-bias-mismatch", "unknown-head",
            "string-ln-epsilon", "nan-ln-epsilon",
            "negative-ln-epsilon", "other-ln-epsilon", "one-segment", "float-n-segments",
            "missing-n-segments", "erf-hidden-act", "float-hidden-dim", "bool-n-layers",
            "other-version", "bool-version"])
    def test_malformed_header_is_a_value_error_naming_the_file(self, tmp_path, change):
        path = tmp_path / "model.ckpt"
        config = tiny_config()
        params = init_head(init_head(mlm_params(config, 11), config, "head_pair", 3, 1),
                           config, "head_multi", 2, 2)
        save_checkpoint(path, config, params)
        self._rewrite_header(path, change)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            load_checkpoint(path)

    def test_header_of_no_hidden_act_is_refused_by_name(self, tmp_path):
        # what every earlier release wrote: its models were trained with the
        # erf GELU, which the generic config-keys message would not say
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, tiny_config(), init_params(tiny_config(), 11))
        self._rewrite_header(path, lambda h: {**h, "config": {
            k: v for k, v in h["config"].items() if k != "hidden_act"}})
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: checkpoint has no "
                                             f"hidden_act; it was trained with the erf GELU, "
                                             f"which this release does not compute$"):
            load_checkpoint(path)

    def test_checkpoint_without_the_mlm_head_loads(self, tmp_path):
        # a fine-tuned model: the encoder and a task head, no masked-LM head
        config = tiny_config()
        tuned = init_head(init_params(config, 11), config, "head_pair", 3, 1)
        path = tmp_path / "tuned.ckpt"
        save_checkpoint(path, config, tuned)
        _, loaded = load_checkpoint(path)
        assert list(loaded) == list(tuned) and "mlm_w" not in loaded
        np.testing.assert_array_equal(loaded.flat, tuned.flat)

    @pytest.mark.parametrize("change,tensor", [
        (lambda h: _omit(h, "mlm_b"), "mlm_b"),
        (lambda h: _omit(h, "mlm_w"), "mlm_b"),
        (lambda h: _reshape(h, "mlm_w", [4, 7]), "mlm_w"),
        (lambda h: _reshape(h, "mlm_w", [8, 4]), "mlm_w"),
        (lambda h: _reshape(h, "mlm_b", [9]), "mlm_b"),
    ], ids=["weights-only", "bias-only", "narrow-weights", "transposed-weights", "long-bias"])
    def test_half_or_misshapen_mlm_head_refused_by_name(self, tmp_path, change, tensor):
        path = tmp_path / "model.ckpt"
        config = tiny_config()
        save_checkpoint(path, config, mlm_params(config, 11))
        self._rewrite_header(path, change)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: tensor {tensor} "):
            load_checkpoint(path)

    def test_name_sorted_layout_loads(self, tmp_path):
        # the layout earlier releases wrote: manifest and body sorted by name,
        # one tensor after another (here under this release's activation)
        config = tiny_config(n_layers=2)
        params = init_head(init_params(config, 11), config, "head_pair", 3, 1)
        names = sorted(params)
        header = {"format": "clinlm-checkpoint", "version": 1,
                  "config": {**{f: getattr(config, f) for f in config.__dataclass_fields__},
                             "n_segments": 2, "ln_epsilon": 1e-12,
                             "hidden_act": "gelu_tanh"},
                  "tensors": [{"name": n, "shape": list(params[n].shape)} for n in names]}
        path = tmp_path / "sorted.ckpt"
        with open(path, "wb") as handle:
            handle.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode())
            handle.write(b"\n")
            for n in names:
                handle.write(np.ascontiguousarray(params[n], dtype="<f8").tobytes())
        loaded_config, loaded = load_checkpoint(path)
        assert loaded_config == config and list(loaded) == names
        for n in names:
            np.testing.assert_array_equal(loaded[n], params[n])
        assert_tiles_flat(loaded)


def assert_tiles_flat(store):
    """Every array of store is a C-contiguous view of store.flat, and the
    arrays lie end to end over all of it in the store's order."""
    assert isinstance(store, ParamStore)
    base, offset = store.flat.__array_interface__["data"][0], 0
    for name, arr in store.items():
        assert np.shares_memory(arr, store.flat), name
        assert arr.flags.c_contiguous, name
        assert arr.__array_interface__["data"][0] == base + 8 * offset, name
        offset += arr.size
    assert offset == store.flat.size


class TestParamStore:
    def test_every_producer_tiles_flat(self, tmp_path):
        config = tiny_config()
        params = mlm_params(config, 0)
        headed = init_head(params, config, "head_pair", 3, seed=1)
        assert list(headed) == [*param_shapes(config), "mlm_w", "mlm_b", "head_pair_w",
                                "head_pair_b"]
        vocab = train_wordpiece(["alpha beta gamma"], declared_size=40, min_frequency=1)
        grown_config = EncoderConfig(**{**vars(config), "vocab_size": len(vocab)})
        _, grown, _ = extend_for_markers(vocab, init_params(grown_config, 0), grown_config,
                                         ("problem",))
        save_checkpoint(tmp_path / "m.ckpt", config, headed)
        _, loaded = load_checkpoint(tmp_path / "m.ckpt")
        _, grads = mlm_forward_loss(params, config, Batch([[5, 6, 7]]), [[0, 1]], [6])
        stepped, state = adam_step(params, grads, init_optimizer(params), 1e-4)
        for store in (params, headed, grown, loaded, grads, stepped, state.m, state.v):
            assert_tiles_flat(store)
        assert list(loaded) == list(headed) and list(grads) == list(params)

    def test_init_head_keeps_an_existing_head_in_place(self):
        config = tiny_config()
        params = init_head(init_head(init_params(config, 0), config, "head_pair", 3, 1),
                           config, "head_token", 2, 1)
        again = init_head(params, config, "head_pair", 5, seed=2)
        assert list(again) == list(params)
        assert again["head_pair_w"].shape == (4, 5) and not again["head_pair_b"].any()
        np.testing.assert_array_equal(again["head_token_w"], params["head_token_w"])
        assert_tiles_flat(again)

    def test_assignment_writes_into_the_view_or_is_refused(self):
        params = init_params(tiny_config(), 0)
        view = params["pos_emb"]
        params["pos_emb"] = np.ones_like(view)
        params["pos_emb"] += 1.0
        assert params["pos_emb"] is view and (view == 2.0).all()
        assert_tiles_flat(params)
        with pytest.raises(KeyError, match="head_x_w"):
            params["head_x_w"] = np.zeros((4, 2))
        with pytest.raises(ValueError, match="pos_emb"):
            params["pos_emb"] = np.zeros(3)
