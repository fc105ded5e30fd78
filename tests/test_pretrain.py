"""Masking policy, Adam, accumulation, and the two-phase training loop."""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import mlm_params
from clinlm import pretrain
from clinlm.encoder import (
    Batch, EncoderConfig, ParamStore, init_head, init_params, mlm_forward_loss,
    pair_classify_loss, param_shapes,
)
from clinlm.pretrain import (
    AccumulationConfig,
    MASK_SHARE,
    RANDOM_SHARE,
    AdamConfig,
    MaskingPolicy,
    PhasePlan,
    accumulate_and_step,
    adam_step,
    apply_masking,
    init_optimizer,
    lr_schedule,
    pack_sequences,
    run_pretraining,
    write_loss_log,
)
from clinlm.wordpiece import (CLS_ID, MASK_ID, PAD_ID, SEP_ID, SPECIALS, UNK_ID,
                              train_wordpiece)


class TestMaskingPolicy:
    def test_defaults(self):
        assert MaskingPolicy().mask_prob == 0.15
        assert (MASK_SHARE, RANDOM_SHARE) == (0.8, 0.1)

    def test_mask_prob_range(self):
        with pytest.raises(ValueError):
            MaskingPolicy(mask_prob=1.5)
        with pytest.raises(ValueError):
            MaskingPolicy(mask_prob=-0.1)

    def test_zero_probability_refused(self):
        # at 0 no slot is ever selected, so each micro-batch would train only
        # on the one target apply_masking forces at its first maskable position
        with pytest.raises(ValueError, match=r"^mask_prob must be in \(0, 1\], got 0.0$"):
            MaskingPolicy(mask_prob=0.0)


def assert_row_major(positions, width):
    """(row, position) pairs strictly ascending in row-major order, as forward's reads."""
    assert positions.ndim == 2 and positions.shape[1] == 2
    assert np.all(np.diff(positions[:, 0] * width + positions[:, 1]) > 0)


class TestApplyMasking:
    # two framed rows, the second shorter and padded; [UNK] (1) is maskable
    IDS = np.array([[CLS_ID, 5, 6, 7, 8, 9, SEP_ID, PAD_ID],
                    [CLS_ID, UNK_ID, 10, 11, SEP_ID, PAD_ID, PAD_ID, PAD_ID]], dtype=np.int64)
    MASKABLE = np.array([[0, 1, 1, 1, 1, 1, 0, 0],
                         [0, 1, 1, 1, 0, 0, 0, 0]], dtype=bool)

    def test_specials_never_selected(self):
        policy = MaskingPolicy(mask_prob=1.0)
        for seed in range(20):
            corrupted, positions, _ = apply_masking(
                policy, Batch(self.IDS), 20, np.random.default_rng(seed))
            assert np.array_equal(positions, np.argwhere(self.MASKABLE))
            assert_row_major(positions, self.IDS.shape[1])
            assert np.array_equal(corrupted.token_ids[~self.MASKABLE], self.IDS[~self.MASKABLE])
            assert np.array_equal(corrupted.attention_mask, Batch(self.IDS).attention_mask)
            assert np.array_equal(corrupted.segment_ids, Batch(self.IDS).segment_ids)

    def test_targets_record_originals(self):
        policy = MaskingPolicy(mask_prob=1.0)
        _, positions, targets = apply_masking(
            policy, Batch(self.IDS), 20, np.random.default_rng(1))
        assert np.array_equal(targets, self.IDS[tuple(positions.T)])

    def test_corrupted_values_stay_in_domain(self):
        policy = MaskingPolicy()
        for seed in range(30):
            corrupted, positions, targets = apply_masking(
                policy, Batch(self.IDS), 20, np.random.default_rng(seed))
            for (row, pos), original in zip(positions, targets):
                value = corrupted.token_ids[row, pos]
                assert value == MASK_ID or value == original or 5 <= value < 20

    def test_reproducible_given_seed(self):
        policy = MaskingPolicy()
        runs = [apply_masking(policy, Batch(self.IDS), 20, np.random.default_rng(42))
                for _ in range(2)]
        (a, *a_rest), (b, *b_rest) = runs
        assert np.array_equal(a.token_ids, b.token_ids)
        for x, y in zip(a_rest, b_rest):
            assert np.array_equal(x, y)

    def test_selection_rate_concentrates(self):
        policy = MaskingPolicy()
        batch = Batch(np.full((100, 100), 7, dtype=np.int64))
        _, positions, _ = apply_masking(policy, batch, 50, np.random.default_rng(123))
        fraction = len(positions) / 10000
        assert 0.14 <= fraction <= 0.16

    def test_matches_the_per_position_loop(self):
        """The corruption equals a per-position loop over the one draw's
        stream: random((rows, width)), then random(n) and integers(n) over
        the selected slots in row-major order."""
        policy = MaskingPolicy(mask_prob=0.5)
        ids = np.arange(5, 405, dtype=np.int64).reshape(4, 100)
        special = np.arange(400).reshape(4, 100) % 7 == 0
        ids[special] = np.resize([CLS_ID, SEP_ID, PAD_ID], special.sum())
        for seed in range(10):
            corrupted, positions, targets = apply_masking(
                policy, Batch(ids), 500, np.random.default_rng(seed))
            rng = np.random.default_rng(seed)
            draw = rng.random((4, 100))
            expected_positions = [(r, p) for r in range(4) for p in range(100)
                                  if ids[r, p] not in (CLS_ID, SEP_ID, PAD_ID)
                                  and draw[r, p] < 0.5]
            action = rng.random(len(expected_positions))
            random_ids = rng.integers(len(SPECIALS), 500, size=len(expected_positions))
            expected = ids.copy()
            for idx, (r, p) in enumerate(expected_positions):
                if action[idx] < MASK_SHARE:
                    expected[r, p] = MASK_ID
                elif action[idx] < MASK_SHARE + RANDOM_SHARE:
                    expected[r, p] = random_ids[idx]
            assert positions.tolist() == [list(rp) for rp in expected_positions]
            assert_row_major(positions, 100)
            assert targets.tolist() == [ids[r, p] for r, p in expected_positions]
            assert np.array_equal(corrupted.token_ids, expected)

    def test_a_draw_selecting_nothing_masks_the_first_maskable_position(self):
        """The one-target rule: the first maskable position in row-major
        order becomes [MASK] with its original id as target, and no draw
        follows the selection."""
        policy = MaskingPolicy(mask_prob=1e-12)
        row_0_unmaskable = np.array([[CLS_ID, SEP_ID, PAD_ID, PAD_ID],
                                     [CLS_ID, 8, 9, SEP_ID]], dtype=np.int64)
        for ids, first in ((self.IDS, (0, 1)), (self.IDS[::-1], (0, 1)),
                           (row_0_unmaskable, (1, 1))):
            for seed in range(5):
                rng = np.random.default_rng(seed)
                corrupted, positions, targets = apply_masking(policy, Batch(ids), 20, rng)
                assert positions.tolist() == [list(first)]
                assert targets.tolist() == [ids[first]]
                expected = ids.copy()
                expected[first] = MASK_ID
                assert np.array_equal(corrupted.token_ids, expected)
                selection_only = np.random.default_rng(seed)
                selection_only.random(ids.shape)
                assert rng.bit_generator.state == selection_only.bit_generator.state

    def test_batch_without_maskable_position_refused(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        ids = np.array([[CLS_ID, SEP_ID, PAD_ID], [CLS_ID, SEP_ID, SEP_ID]], dtype=np.int64)
        with pytest.raises(ValueError, match="no maskable position"):
            apply_masking(MaskingPolicy(mask_prob=1.0), Batch(ids), 20, rng)
        assert rng.bit_generator.state == before

    def test_vocab_must_exceed_specials(self):
        with pytest.raises(ValueError):
            apply_masking(MaskingPolicy(), Batch(self.IDS), 5, np.random.default_rng(0))


def store(**arrays):
    """A ParamStore holding copies of arrays, in keyword order."""
    out = ParamStore({name: np.shape(arr) for name, arr in arrays.items()})
    for name, arr in arrays.items():
        out[name] = arr
    return out


class TestAdam:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdamConfig(lr=0.0)

    @pytest.mark.parametrize("field", ["lr"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            AdamConfig(**{field: value})

    def test_zero_gradient_is_a_no_op_on_params(self):
        params = store(w=np.array([1.0, -2.0]))
        state = init_optimizer(params)
        new_params, new_state = adam_step(params, store(w=np.zeros(2)), state, 0.1)
        assert np.array_equal(new_params["w"], params["w"])
        assert new_state.step == 1

    def test_two_hand_computed_steps(self):
        # Scalar parameter, constant gradient 1, lr 0.1. Bias correction
        # makes m_hat = v_hat = 1 (exactly at step 1, to float rounding at
        # step 2), so each update is lr / (1 + epsilon).
        params = store(w=np.array([0.0]))
        state = init_optimizer(params)
        grads = store(w=np.array([1.0]))
        params, state = adam_step(params, grads, state, 0.1)
        expected_first = -0.1 / (1.0 + 1e-8)
        assert params["w"][0] == pytest.approx(expected_first, abs=1e-12)
        assert params["w"][0] == pytest.approx(-0.1, abs=1e-6)
        params, state = adam_step(params, grads, state, 0.1)
        assert params["w"][0] == pytest.approx(2 * expected_first, abs=1e-12)
        assert state.step == 2

    def test_non_finite_gradient_names_parameter(self):
        params = store(good=np.zeros(2), bad=np.zeros(2))
        state = init_optimizer(params)
        grads = store(good=np.zeros(2), bad=np.array([1.0, np.nan]))
        with pytest.raises(ValueError, match="bad"):
            adam_step(params, grads, state, 1e-4)

    def test_gradient_keys_must_match(self):
        params = store(w=np.zeros(2))
        state = init_optimizer(params)
        with pytest.raises(ValueError, match="keys"):
            adam_step(params, store(v=np.zeros(2)), state, 1e-4)

    def test_scale_correct_sign_pattern(self):
        rng = np.random.default_rng(9)
        params = store(w=rng.normal(size=(4, 3)), b=rng.normal(size=5))
        grads = store(w=rng.normal(size=(4, 3)), b=rng.normal(size=5))
        scaled = grads.like(7.3 * grads.flat)
        state = init_optimizer(params)
        p1, _ = adam_step(params, grads, state, 0.01)
        p2, _ = adam_step(params, scaled, state, 0.01)
        for key in params:
            assert np.array_equal(np.sign(p1[key] - params[key]),
                                  np.sign(p2[key] - params[key]))

    def test_non_finite_update_names_parameter(self):
        # 1e308 - 1e308 * (-1) / (1 + 1e-8) overflows to inf
        params = store(a=np.zeros(2), w=np.array([1e308]))
        state = init_optimizer(params)
        grads = store(a=np.zeros(2), w=np.array([-1.0]))
        with pytest.raises(ValueError, match="non-finite value in parameter 'w'"):
            adam_step(params, grads, state, 1e308)

    def test_matches_per_tensor_reference_bit_for_bit(self):
        config = EncoderConfig(vocab_size=12, hidden_dim=4, n_layers=2, n_heads=2,
                               ff_dim=6, max_positions=4)
        params = init_head(init_params(config, 0), config, "head_pair", 3, seed=1)
        state = init_optimizer(params)
        ref_params, ref_m, ref_v = ({k: np.array(a) for k, a in params.items()},
                                    dict(state.m), dict(state.v))
        rng = np.random.default_rng(3)
        for step in range(1, 5):
            ids = rng.integers(5, 12, size=(2, 4))
            batch = Batch(ids)
            _, grads = pair_classify_loss(params, config, batch, [[0, 0], [1, 0]],
                                          rng.integers(0, 3, size=2))
            ref_params, ref_m, ref_v = reference_adam(ref_params, grads, ref_m, ref_v,
                                                      0.01, step)
            params, state = adam_step(params, grads, state, 0.01)
            for name in ref_params:
                np.testing.assert_array_equal(params[name], ref_params[name], err_msg=name)
                np.testing.assert_array_equal(state.m[name], ref_m[name], err_msg=name)
                np.testing.assert_array_equal(state.v[name], ref_v[name], err_msg=name)

    def test_blocks_match_per_tensor_reference_bit_for_bit(self, monkeypatch):
        # blocks of 7 entries cut every tensor but the smallest across blocks
        monkeypatch.setattr(pretrain, "ADAM_BLOCK", 7)
        self.test_matches_per_tensor_reference_bit_for_bit()

    @pytest.mark.parametrize("lr", [0.0, -1e-3, math.nan, math.inf, -math.inf])
    def test_non_finite_or_non_positive_lr_refused(self, lr):
        # a negative rate would climb the loss; a NaN one would be blamed on a tensor
        params = store(w=np.zeros(2))
        with pytest.raises(ValueError, match=rf"^lr must be finite and positive, got {lr}$"):
            adam_step(params, store(w=np.array([1.0, -1.0])), init_optimizer(params), lr)

    def test_a_later_block_names_its_tensor(self, monkeypatch):
        # blocks of 3 over a (8 entries) then w (4): w's third entry is in the fourth block
        monkeypatch.setattr(pretrain, "ADAM_BLOCK", 3)
        params = store(a=np.zeros(8), w=np.array([0.0, 0.0, 1e308, 0.0]))
        state = init_optimizer(params)
        with pytest.raises(ValueError, match=r"^non-finite gradient for parameter 'w'$"):
            adam_step(params, store(a=np.zeros(8), w=np.array([0.0, 0.0, np.nan, 0.0])),
                      state, 1e-4)
        with pytest.raises(ValueError, match=r"^Adam update left a non-finite value "
                                             r"in parameter 'w'$"):
            adam_step(params, store(a=np.zeros(8), w=np.array([0.0, 0.0, -1.0, 0.0])),
                      state, 1e308)

    def test_inputs_left_untouched(self):
        params = store(w=np.array([1.0]))
        state = init_optimizer(params)
        adam_step(params, store(w=np.array([1.0])), state, 0.1)
        assert params["w"][0] == 1.0 and state.step == 0
        assert state.m["w"][0] == 0.0


def reference_adam(params, grads, m, v, lr, t, beta1=0.9, beta2=0.999, epsilon=1e-8):
    """Textbook bias-corrected Adam, one tensor at a time: step t of
    Kingma & Ba at learning rate lr, with fresh dicts out."""
    new_params, new_m, new_v = {}, {}, {}
    for name, p in params.items():
        g = grads[name]
        new_m[name] = beta1 * m[name] + (1.0 - beta1) * g
        new_v[name] = beta2 * v[name] + (1.0 - beta2) * g * g
        m_hat = new_m[name] / (1.0 - beta1 ** t)
        v_hat = new_v[name] / (1.0 - beta2 ** t)
        new_params[name] = p - lr * m_hat / (np.sqrt(v_hat) + epsilon)
    return new_params, new_m, new_v


class TestAccumulationConfig:
    def test_production_scale_instance(self):
        accum = AccumulationConfig(micro_batch_size=64, accumulation_steps=32,
                                   effective_batch=2048)
        assert accum.effective_batch == 2048

    def test_product_mismatch_rejected(self):
        with pytest.raises(ValueError, match="effective_batch"):
            AccumulationConfig(64, 32, 2000)

    def test_factors_must_be_positive(self):
        with pytest.raises(ValueError, match=r"^micro_batch_size must be >= 1, got 0$"):
            AccumulationConfig(0, 32, 0)


class TestAccumulateAndStep:
    @staticmethod
    def setup_model():
        config = EncoderConfig(vocab_size=12, hidden_dim=4, n_layers=1,
                               n_heads=2, ff_dim=6, max_positions=4)
        params = mlm_params(config, 0)
        return config, params

    @staticmethod
    def micro(config, rows, n_targets_per_row=2):
        batch = Batch(rows)
        positions = [[r, c] for r in range(len(rows))
                     for c in range(n_targets_per_row)]
        targets = [rows[r][c] for r, c in positions]
        return batch, np.array(positions), np.array(targets)

    def loss_grad_fn(self, config):
        def fn(params, mb):
            batch, positions, targets = mb
            loss, grads = mlm_forward_loss(params, config, batch, positions, targets)
            return loss, grads, len(targets)
        return fn

    def test_single_accumulation_step_equals_plain_step(self):
        config, params = self.setup_model()
        mb = self.micro(config, [[5, 6, 7, 8], [9, 10, 11, 5]])
        fn = self.loss_grad_fn(config)
        state = init_optimizer(params)
        via_accumulate, _, loss_a = accumulate_and_step(fn, params, state, [mb], 0.01)
        _, grads = mlm_forward_loss(params, config, mb[0], mb[1], mb[2])
        via_plain, _ = adam_step(params, grads, state, 0.01)
        for key in params:
            np.testing.assert_allclose(via_accumulate[key], via_plain[key],
                                       rtol=0, atol=1e-12)

    def test_micro_batches_match_full_batch_gradient(self):
        config, params = self.setup_model()
        rows = [[5, 6, 7, 8], [9, 10, 11, 5], [6, 7, 8, 9], [10, 11, 5, 6]]
        full = self.micro(config, rows)
        micros = [self.micro(config, rows[i:i + 1]) for i in range(4)]
        fn = self.loss_grad_fn(config)

        _, full_grads = mlm_forward_loss(params, config, full[0], full[1], full[2])
        total = sum(len(m[2]) for m in micros)
        acc = {k: np.zeros_like(v) for k, v in full_grads.items()}
        for m in micros:
            _, g = mlm_forward_loss(params, config, m[0], m[1], m[2])
            for k in acc:
                acc[k] += g[k] * len(m[2])
        for k in acc:
            acc[k] /= total
            denominator = np.maximum(np.abs(full_grads[k]), 1e-6)
            assert np.max(np.abs(acc[k] - full_grads[k]) / denominator) < 1e-6

        # and the optimizer step built on those micro-batches matches too
        state = init_optimizer(params)
        stepped, _, _ = accumulate_and_step(fn, params, state, micros, 0.01)
        direct, _ = adam_step(params, full_grads, state, 0.01)
        for key in params:
            np.testing.assert_allclose(stepped[key], direct[key], rtol=0, atol=1e-9)

    def test_empty_micro_batch_list_refused(self):
        config, params = self.setup_model()

        def never_called(p, mb):
            raise AssertionError("loss_grad_fn ran")

        with pytest.raises(ValueError, match=r"^no micro-batches to accumulate$"):
            accumulate_and_step(never_called, params, init_optimizer(params), [], 0.01)

    def test_micro_batch_of_no_loss_terms_refused(self):
        # else the step would divide by a total of 0 terms
        config, params = self.setup_model()
        mb = self.micro(config, [[5, 6, 7, 8]])
        fn = self.loss_grad_fn(config)

        def no_terms(p, mb):
            loss, grads, _ = fn(p, mb)
            return loss, grads, 0

        with pytest.raises(ValueError, match=r"^micro-batch contributed no loss terms$"):
            accumulate_and_step(no_terms, params, init_optimizer(params), [mb], 0.01)

    def test_three_micro_batches_are_adam_on_the_weighted_mean_bit_for_bit(self):
        config, params = self.setup_model()
        # 2, 4 and 3 loss terms, so the weights differ
        micros = [self.micro(config, [[5, 6, 7, 8]]),
                  self.micro(config, [[9, 10, 11, 5], [6, 7, 8, 9]]),
                  self.micro(config, [[10, 11, 5, 6]], n_targets_per_row=3)]
        fn = self.loss_grad_fn(config)
        state = init_optimizer(params)
        stepped, stepped_state, loss = accumulate_and_step(fn, params, state, micros, 0.01)

        results = [mlm_forward_loss(params, config, *m) for m in micros]  # separate stores
        n = [len(m[2]) for m in micros]
        total = results[0][1].flat * n[0] + results[1][1].flat * n[1] + results[2][1].flat * n[2]
        total /= sum(n)
        direct, direct_state = adam_step(params, params.like(total), state, 0.01)
        assert np.array_equal(stepped.flat, direct.flat)
        assert np.array_equal(stepped_state.m.flat, direct_state.m.flat)
        assert np.array_equal(stepped_state.v.flat, direct_state.v.flat)
        assert loss == sum(r[0] * k for r, k in zip(results, n)) / sum(n)

    @pytest.mark.parametrize("n_micro", [2, 3])
    def test_accumulation_holds_one_store_above_a_loss_call(self, monkeypatch, n_micro):
        # a large vocabulary makes the masked-LM head, and so each gradient
        # store, far larger than the activations; the peak is read as Adam
        # starts, whose fresh outputs are its own
        config = EncoderConfig(vocab_size=20000, hidden_dim=16, n_layers=1, n_heads=2,
                               ff_dim=32, max_positions=8)
        params = mlm_params(config, 0)
        state = init_optimizer(params)
        mb = self.micro(config, [[5, 6, 7, 8], [9, 10, 11, 5]])
        fn = self.loss_grad_fn(config)
        fn(params, mb)  # the first call's one-time allocations stay out of the peaks
        peaks = {}

        def peak_at_adam(params, grads, state, lr):
            peaks["accumulate"] = tracemalloc.get_traced_memory()[1]
            return params, state

        monkeypatch.setattr(pretrain, "adam_step", peak_at_adam)
        tracemalloc.start()
        try:
            fn(params, mb)
            peaks["loss"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tracemalloc.start()
        try:
            accumulate_and_step(fn, params, state, [mb] * n_micro, 0.01)
        finally:
            tracemalloc.stop()
        store_bytes = params.flat.nbytes
        # at most one store more, and 5% of one for Python objects
        assert peaks["accumulate"] - peaks["loss"] <= 1.05 * store_bytes, (peaks, store_bytes)


class TestPhasePlan:
    def test_production_scale_plan(self):
        plan = PhasePlan(phases=((128, 500000), (512, 275000)))
        assert plan.total_steps == 775000
        assert plan.max_length() == 512
        fraction = plan.phases[0][1] / plan.total_steps
        assert fraction == pytest.approx(0.645, abs=0.001)
        assert abs(fraction - 2 / 3) < 0.03

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PhasePlan(phases=())

    def test_decreasing_lengths_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            PhasePlan(phases=((32, 10), (16, 10)))

    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError):
            PhasePlan(phases=((16, 0),))

    def test_too_short_length_rejected(self):
        # every length below a row's fewest positions reads the one floor
        for length in (2, 1, 0, -4):
            with pytest.raises(ValueError, match=f"^length {length} is below 3, the fewest "
                                                 "positions of a row$"):
                PhasePlan(phases=((length, 10),))

    @pytest.mark.parametrize("length", [2.5, True, "16"])
    def test_length_not_an_int_is_refused_as_such(self, length):
        message = f"^phase length must be an int, got {re.escape(repr(length))}$"
        with pytest.raises(ValueError, match=message):
            PhasePlan(phases=((length, 1),))


class TestLrSchedule:
    def test_constant(self):
        lr = lr_schedule("constant", 3e-4, 100)
        assert lr(0) == lr(99) == 3e-4

    def test_constant_refuses_a_warmup_fraction(self):
        # it has no warmup, so the fraction would be silently ignored
        with pytest.raises(ValueError, match="^warmup_fraction applies only to the linear "
                                             "schedule, not constant$"):
            lr_schedule("constant", 1e-3, 10, 0.5)

    def test_linear_warmup_and_decay(self):
        lr = lr_schedule("linear", 1.0, 100, warmup_fraction=0.1)
        assert lr(0) == pytest.approx(0.1)
        assert lr(9) == pytest.approx(1.0)
        assert lr(99) > 0.0
        assert lr(100) == 0.0
        assert lr(50) < lr(10)

    def test_linear_warmup_defaults_to_a_hundredth(self):
        default, explicit = lr_schedule("linear", 1.0, 300), lr_schedule("linear", 1.0, 300, 0.01)
        assert [default(s) for s in range(301)] == [explicit(s) for s in range(301)]
        assert default(1) < default(2) == 1.0  # three warmup steps, not one

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError, match="schedule"):
            lr_schedule("cosine", 1.0, 100)

    @pytest.mark.parametrize("schedule", ["constant", "linear"])
    @pytest.mark.parametrize("fraction", [-0.1, 1.5, math.nan])
    def test_warmup_fraction_outside_unit_interval_rejected(self, schedule, fraction):
        with pytest.raises(ValueError, match="warmup_fraction"):
            lr_schedule(schedule, 1.0, 100, warmup_fraction=fraction)


class TestPackSequences:
    def test_lossless_concatenation(self):
        seqs = [[5, 6, 7], [8], [9, 10, 11, 12, 13], [14, 15]]
        chunks = pack_sequences(seqs, max_seq_len=6)
        flattened = [x for c in chunks for x in c]
        assert flattened == [x for s in seqs for x in s]
        assert all(len(c) <= 4 for c in chunks)

    def test_overlong_sentence_split(self):
        chunks = pack_sequences([list(range(5, 16))], max_seq_len=6)
        assert [len(c) for c in chunks] == [4, 4, 3]

    def test_no_room_rejected(self):
        with pytest.raises(ValueError):
            pack_sequences([[5]], max_seq_len=2)

    @settings(deadline=None)
    @given(seqs=st.lists(st.lists(st.integers(min_value=5, max_value=500), max_size=20),
                         max_size=12),
           max_seq_len=st.integers(min_value=3, max_value=16))
    def test_round_trip(self, seqs, max_seq_len):
        # no id is lost or reordered, and every chunk but the last is full
        chunks = pack_sequences(seqs, max_seq_len)
        assert [x for c in chunks for x in c] == [x for s in seqs for x in s]
        assert all(len(c) == max_seq_len - 2 for c in chunks[:-1])
        assert all(1 <= len(c) <= max_seq_len - 2 for c in chunks[-1:])


class TestRunPretraining:
    @staticmethod
    def setup_run():
        corpus = [
            "the cat sat on the mat", "a dog ran fast", "the dog sat",
            "a cat ran on the mat", "the mat sat", "a dog and a cat",
            "the cat and the dog ran", "a mat on the mat", "the dog and cat sat",
            "a cat sat on a dog", "the dog ran on the mat", "a mat and a cat",
            "the cat ran fast", "a dog sat on the mat", "the mat and the dog",
            "a cat and the mat", "the dog sat fast", "a mat ran",
            "the cat on a dog", "a dog on the mat",
        ]
        vocab = train_wordpiece([line for line in corpus], declared_size=80,
                                min_frequency=1)
        config = EncoderConfig(vocab_size=len(vocab), hidden_dim=8, n_layers=1,
                               n_heads=2, ff_dim=16, max_positions=16)
        return corpus, vocab, config

    def test_single_phase_step_count_and_log(self):
        corpus, vocab, config = self.setup_run()
        result = run_pretraining(
            corpus, vocab, config,
            plan=PhasePlan(phases=((16, 10),)),
            policy=MaskingPolicy(),
            accum=AccumulationConfig(2, 1, 2),
            adam=AdamConfig(lr=1e-3),
            seed=3,
        )
        assert len(result.loss_log) == 10
        assert [e.step for e in result.loss_log] == list(range(10))
        assert all(e.phase == 0 and e.max_seq_len == 16 for e in result.loss_log)
        assert all(math.isfinite(e.loss) and e.loss > 0 for e in result.loss_log)

    def test_initial_loss_near_log_vocab(self):
        corpus, vocab, config = self.setup_run()
        result = run_pretraining(
            corpus, vocab, config, PhasePlan(phases=((16, 1),)),
            MaskingPolicy(), AccumulationConfig(2, 1, 2), AdamConfig(lr=1e-3),
            seed=5,
        )
        expected = math.log(config.vocab_size)
        assert abs(result.loss_log[0].loss - expected) / expected < 0.05

    def test_the_store_is_the_encoder_then_the_mlm_head(self):
        # init_head attaches the masked-LM head after the encoder, as it
        # attaches every task head
        corpus, vocab, config = self.setup_run()
        result = run_pretraining(
            corpus, vocab, config, PhasePlan(phases=((16, 1),)),
            MaskingPolicy(), AccumulationConfig(2, 1, 2), AdamConfig(lr=1e-3),
            seed=5,
        )
        assert list(result.params) == [*param_shapes(config), "mlm_w", "mlm_b"]

    def test_seeded_determinism_bitwise(self):
        corpus, vocab, config = self.setup_run()
        def go():
            return run_pretraining(
                corpus, vocab, config, PhasePlan(phases=((16, 3),)),
                MaskingPolicy(), AccumulationConfig(2, 2, 4), AdamConfig(lr=1e-3),
                seed=11,
            )
        a, b = go(), go()
        assert all(np.array_equal(a.params[k], b.params[k]) for k in a.params)
        assert [e.loss for e in a.loss_log] == [e.loss for e in b.loss_log]

    def test_dropout_trains_differently_and_reruns_bitwise(self):
        corpus, vocab, config = self.setup_run()

        def go(dropout):
            return run_pretraining(
                corpus, vocab, replace(config, dropout=dropout), PhasePlan(phases=((16, 3),)),
                MaskingPolicy(), AccumulationConfig(2, 2, 4), AdamConfig(lr=1e-3),
                seed=11,
            )
        plain, a, b = go(0.0), go(0.1), go(0.1)
        assert [e.loss for e in a.loss_log] != [e.loss for e in plain.loss_log]
        assert all(np.array_equal(a.params[k], b.params[k]) for k in a.params)
        assert [e.loss for e in a.loss_log] == [e.loss for e in b.loss_log]

    def test_two_phase_boundary_and_callback(self):
        corpus, vocab, config = self.setup_run()
        seen = []
        result = run_pretraining(
            corpus, vocab, config, PhasePlan(phases=((8, 3), (16, 2))),
            MaskingPolicy(), AccumulationConfig(2, 1, 2), AdamConfig(lr=1e-3),
            seed=7,
            phase_callback=lambda phase, step, params: seen.append((phase, step)),
        )
        assert [e.phase for e in result.loss_log] == [0, 0, 0, 1, 1]
        assert seen == [(0, 0), (1, 3)]
        assert [e.max_seq_len for e in result.loss_log] == [8, 8, 8, 16, 16]

    def test_frames_only_the_rows_a_step_takes(self, monkeypatch):
        corpus, vocab, config = self.setup_run()
        framed, frame = [], pretrain.frame

        def spy(ids_a, ids_b, length):
            framed.append(length)
            return frame(ids_a, ids_b, length)

        monkeypatch.setattr(pretrain, "frame", spy)
        run_pretraining(
            corpus, vocab, config, PhasePlan(phases=((8, 3), (16, 2))),
            MaskingPolicy(), AccumulationConfig(2, 2, 4), AdamConfig(lr=1e-3), seed=7,
        )
        # steps x accumulation steps x micro-batch rows per phase, each framed once
        assert framed == [8] * 3 * 2 * 2 + [16] * 2 * 2 * 2

    def test_each_step_takes_the_schedule_lr(self, monkeypatch):
        corpus, vocab, config = self.setup_run()
        lrs, adam_step = [], pretrain.adam_step

        def spy(params, grads, state, lr):
            lrs.append(lr)
            return adam_step(params, grads, state, lr)

        monkeypatch.setattr(pretrain, "adam_step", spy)
        run_pretraining(
            corpus, vocab, config, PhasePlan(phases=((8, 3), (16, 2))),
            MaskingPolicy(), AccumulationConfig(2, 1, 2), AdamConfig(lr=1e-3), seed=7,
            schedule="linear", warmup_fraction=0.4,
        )
        lr_of = lr_schedule("linear", 1e-3, 5, 0.4)
        assert lrs == [lr_of(k) for k in range(5)]
        assert len(set(lrs)) == 4  # two warmup steps, then a decay from the peak

    def test_plan_exceeding_positions_rejected(self):
        corpus, vocab, config = self.setup_run()
        with pytest.raises(ValueError, match="max_positions"):
            run_pretraining(
                corpus, vocab, config, PhasePlan(phases=((64, 1),)),
                MaskingPolicy(), AccumulationConfig(2, 1, 2), AdamConfig(lr=1e-3), seed=0,
            )

    def test_corpus_too_small_rejected(self):
        corpus, vocab, config = self.setup_run()
        with pytest.raises(ValueError, match="micro-batch"):
            run_pretraining(
                corpus[:1], vocab, config, PhasePlan(phases=((16, 1),)),
                MaskingPolicy(), AccumulationConfig(8, 1, 8), AdamConfig(lr=1e-3), seed=0,
            )

    def test_corpus_of_no_words_rejected(self):
        _, vocab, config = self.setup_run()
        with pytest.raises(ValueError, match="^corpus has no encodable content$"):
            run_pretraining(
                ["", "  \t"], vocab, config, PhasePlan(phases=((16, 1),)),
                MaskingPolicy(), AccumulationConfig(2, 1, 2), AdamConfig(lr=1e-3), seed=0,
            )

    def test_loss_log_file_format(self, tmp_path):
        corpus, vocab, config = self.setup_run()
        result = run_pretraining(
            corpus, vocab, config, PhasePlan(phases=((16, 2),)),
            MaskingPolicy(), AccumulationConfig(2, 1, 2), AdamConfig(lr=1e-3),
            seed=3,
        )
        path = tmp_path / "loss.csv"
        write_loss_log(path, result.loss_log)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,phase,max_seq_len,loss"
        assert len(lines) == 3
        step, phase, max_len, loss = lines[1].split(",")
        assert (step, phase, max_len) == ("0", "0", "16")
        assert float(loss) == pytest.approx(result.loss_log[0].loss, abs=1e-6)
