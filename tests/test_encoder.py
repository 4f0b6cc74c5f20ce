import dataclasses
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hybridreid import AdamState, MLPEncoder, adam_step, load_checkpoint, save_checkpoint
from hybridreid.core import FileFormatError, FileIOError, NumericError
from hybridreid.encoder import CHECKPOINT_MAGIC, CHECKPOINT_VERSION

from oracles import fd_grad, rel_err


def loss_given_params(model, inputs, probe):
    emb, _ = model.forward(inputs)
    return float(np.sum(emb * probe))


class TestForward:
    def test_output_is_unit_norm(self, rng):
        model = MLPEncoder([6, 8, 4], seed=0)
        emb, _ = model.forward(rng.standard_normal((10, 6)))
        assert emb.shape == (10, 4)
        assert np.allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-9)

    def test_deterministic_per_seed(self, rng):
        x = rng.standard_normal((5, 6))
        a, _ = MLPEncoder([6, 8, 4], seed=3).forward(x)
        b, _ = MLPEncoder([6, 8, 4], seed=3).forward(x)
        c, _ = MLPEncoder([6, 8, 4], seed=4).forward(x)
        assert a.tobytes() == b.tobytes()
        assert a.tobytes() != c.tobytes()

    def test_rejects_bad_shapes(self, rng):
        model = MLPEncoder([6, 4], seed=0)
        with pytest.raises(ValueError):
            model.forward(rng.standard_normal((3, 5)))
        with pytest.raises(ValueError):
            model.forward(rng.standard_normal(6))

    def test_rejects_non_finite(self):
        model = MLPEncoder([2, 3], seed=0)
        with pytest.raises(NumericError):
            model.forward(np.array([[1.0, np.nan]]))

    def test_overflowing_output_norm_raises_numeric_error(self, rng):
        model = MLPEncoder([4, 6, 3], seed=0)
        for w in model.weights:
            w *= 1e200
        with pytest.raises(NumericError):
            model.forward(rng.standard_normal((5, 4)))

    def test_invalid_widths(self):
        with pytest.raises(ValueError):
            MLPEncoder([5], seed=0)
        with pytest.raises(ValueError):
            MLPEncoder([5, 0, 3], seed=0)

    def test_single_hidden_layer_tanh_bounded(self, rng):
        # activations between layers are tanh, so the pre-normalization
        # output of a 1-layer net is an affine map of tanh values
        model = MLPEncoder([3, 20, 2], seed=1)
        emb, cache = model.forward(100.0 * rng.standard_normal((4, 3)))
        acts = cache[0]
        assert np.all(np.abs(acts[1]) <= 1.0)


class TestBackward:
    def test_matches_finite_differences(self, rng):
        for trial in range(5):
            widths = [4, 6, 3]
            model = MLPEncoder(widths, seed=trial)
            x = rng.standard_normal((3, 4))
            probe = rng.standard_normal((3, 3))
            emb, cache = model.forward(x)
            grads = model.backward(cache, probe)
            for p, g in zip(model.parameters(), grads):
                fd = fd_grad(lambda: loss_given_params(model, x, probe), p)
                assert rel_err(g, fd) < 1e-6

    def test_three_layer_chain(self, rng):
        model = MLPEncoder([3, 5, 4, 2], seed=9)
        x = rng.standard_normal((2, 3))
        probe = rng.standard_normal((2, 2))
        _, cache = model.forward(x)
        grads = model.backward(cache, probe)
        assert len(grads) == 6
        for p, g in zip(model.parameters(), grads):
            fd = fd_grad(lambda: loss_given_params(model, x, probe), p)
            assert rel_err(g, fd) < 1e-6

    def test_normalization_jacobian_kills_radial_component(self, rng):
        # gradient along the embedding itself contributes nothing
        model = MLPEncoder([4, 3], seed=0)
        x = rng.standard_normal((1, 4))
        emb, cache = model.forward(x)
        grads_radial = model.backward(cache, emb.copy())
        for g in grads_radial:
            assert np.allclose(g, 0.0, atol=1e-9)

    def test_shape_mismatch_rejected(self, rng):
        model = MLPEncoder([4, 3], seed=0)
        _, cache = model.forward(rng.standard_normal((2, 4)))
        with pytest.raises(ValueError):
            model.backward(cache, np.zeros((3, 3)))


def ref_adamw(params, grads, m, v, t, lr, wd, b1=0.9, b2=0.999, eps=1e-8):
    out_p, out_m, out_v = [], [], []
    for p, g, mi, vi in zip(params, grads, m, v):
        p = p * (1.0 - lr * wd)
        mi = b1 * mi + (1 - b1) * g
        vi = b2 * vi + (1 - b2) * g * g
        p = p - lr * (mi / (1 - b1**t)) / (np.sqrt(vi / (1 - b2**t)) + eps)
        out_p.append(p)
        out_m.append(mi)
        out_v.append(vi)
    return out_p, out_m, out_v


class TestAdam:
    def test_two_steps_match_reference(self, rng):
        model = MLPEncoder([3, 4, 2], seed=0)
        state = AdamState.for_model(model, base_lr=1e-2, weight_decay=1e-3)
        ref_p = [p.copy() for p in model.parameters()]
        ref_m = [np.zeros_like(p) for p in ref_p]
        ref_v = [np.zeros_like(p) for p in ref_p]
        for t in (1, 2):
            grads = [rng.standard_normal(p.shape) for p in model.parameters()]
            adam_step(model, grads, state)
            ref_p, ref_m, ref_v = ref_adamw(
                ref_p, grads, ref_m, ref_v, t, lr=1e-2, wd=1e-3
            )
            for p, rp in zip(model.parameters(), ref_p):
                assert np.allclose(p, rp, atol=1e-14)
            for m, rm in zip(state.m, ref_m):
                assert np.allclose(m, rm, atol=1e-14)
        assert state.step_count == 2

    def test_weight_decay_is_decoupled(self, rng):
        # zero gradients: the only movement is the decay shrinkage
        model = MLPEncoder([3, 2], seed=1)
        state = AdamState.for_model(model, base_lr=0.1, weight_decay=0.5)
        before = [p.copy() for p in model.parameters()]
        zeros = [np.zeros_like(p) for p in model.parameters()]
        adam_step(model, zeros, state)
        for p, b in zip(model.parameters(), before):
            assert np.allclose(p, b * (1.0 - 0.1 * 0.5), atol=1e-15)

    def test_lr_schedule_steps_down(self):
        model = MLPEncoder([2, 2], seed=0)
        state = AdamState.for_model(model, base_lr=1e-3, weight_decay=0.0,
                                    decay_factor=0.1, decay_every=20)
        for epoch, want in [(0, 1e-3), (19, 1e-3), (20, 1e-4), (39, 1e-4),
                            (40, 1e-5)]:
            state.epoch = epoch
            assert abs(state.effective_lr() - want) < 1e-18

    def test_gradient_count_mismatch(self, rng):
        model = MLPEncoder([2, 2], seed=0)
        state = AdamState.for_model(model, base_lr=1e-3, weight_decay=0.0)
        with pytest.raises(ValueError):
            adam_step(model, [np.zeros((2, 2))], state)

    def test_descends_a_quadratic(self, rng):
        # sanity: adam actually reduces sum(emb * probe) pushed downhill
        model = MLPEncoder([4, 5, 3], seed=2)
        state = AdamState.for_model(model, base_lr=1e-2, weight_decay=0.0)
        x = rng.standard_normal((6, 4))
        probe = rng.standard_normal((6, 3))
        first = None
        for _ in range(50):
            emb, cache = model.forward(x)
            val = float(np.sum(emb * probe))
            if first is None:
                first = val
            grads = model.backward(cache, probe)
            adam_step(model, grads, state)
        assert val < first


class TestCheckpoint:
    def test_round_trip_bitwise(self, rng, tmp_path):
        model = MLPEncoder([5, 7, 3], seed=4)
        state = AdamState.for_model(model, base_lr=2e-3, weight_decay=1e-4,
                                    decay_factor=0.5, decay_every=7)
        for t in range(3):
            grads = [rng.standard_normal(p.shape) for p in model.parameters()]
            adam_step(model, grads, state)
        state.epoch = 11
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, state, epoch=12)
        model2, state2, epoch = load_checkpoint(path)
        assert epoch == 12
        assert model2.widths == model.widths
        for a, b in zip(model.parameters(), model2.parameters()):
            assert a.tobytes() == b.tobytes()
        # every field, so none can be added without the checkpoint storing it
        for f in dataclasses.fields(AdamState):
            want, got = getattr(state, f.name), getattr(state2, f.name)
            if isinstance(want, list):
                assert [a.tobytes() for a in want] == [b.tobytes() for b in got]
            else:
                assert got == want and f.default != want, f.name

    def test_save_is_deterministic(self, tmp_path):
        model = MLPEncoder([3, 2], seed=0)
        state = AdamState.for_model(model, base_lr=1e-3, weight_decay=0.0)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, model, state, epoch=0)
        save_checkpoint(p2, model, state, epoch=0)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"WHAT" + bytes(64))
        with pytest.raises(FileFormatError):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        model = MLPEncoder([3, 2], seed=0)
        state = AdamState.for_model(model, base_lr=1e-3, weight_decay=0.0)
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, model, state, epoch=0)
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(FileIOError):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        model = MLPEncoder([3, 2], seed=0)
        state = AdamState.for_model(model, base_lr=1e-3, weight_decay=0.0)
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, model, state, epoch=0)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FileIOError):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_checkpoint(tmp_path / "none.ckpt")

    def test_load_draws_no_initial_weights(self, rng, tmp_path, monkeypatch):
        model = MLPEncoder([4, 6, 3], seed=2)
        state = AdamState.for_model(model, base_lr=1e-3, weight_decay=1e-4)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, state, epoch=1)

        def no_rng(*args, **kwargs):
            raise AssertionError("load_checkpoint drew random weights")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        model2, state2, _ = load_checkpoint(path)
        # the loaded arrays are the model's own: a step moves them alike
        grads = [rng.standard_normal(p.shape) for p in model.parameters()]
        adam_step(model, grads, state)
        adam_step(model2, grads, state2)
        for a, b in zip(model.parameters() + state.m + state.v,
                        model2.parameters() + state2.m + state2.v):
            assert a.flags.writeable and b.flags.writeable
            assert a.tobytes() == b.tobytes()

    def test_failed_save_keeps_old_checkpoint(self, tmp_path, monkeypatch):
        model = MLPEncoder([3, 2], seed=0)
        state = AdamState.for_model(model, base_lr=1e-3, weight_decay=0.0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, state, epoch=0)
        old = path.read_bytes()

        def full_disk(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", full_disk)
        with pytest.raises(OSError):
            save_checkpoint(path, MLPEncoder([3, 2], seed=1), state, epoch=5)
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["m.ckpt"]


@st.composite
def corrupt_checkpoint(draw):
    """Checkpoint bytes a loader must reject, with the error it must raise.
    Every width is at most 8 or at least 2**31 (where numpy refuses the
    array outright), so no case can allocate much even if the encoder were
    built before the size check."""
    kind = draw(st.sampled_from(
        ["short", "long", "zero_width", "few_widths", "count_past_end",
         "magic", "version"]))
    small = st.lists(st.integers(1, 8), min_size=2, max_size=4)
    huge = st.lists(st.integers(2**31, 2**32 - 1), min_size=2, max_size=4)
    widths = draw(st.one_of(small, huge) if kind == "short" else small)
    need = 3 * 8 * sum(a * b + b for a, b in zip(widths[:-1], widths[1:])) + 40
    magic, version, n_widths = CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(widths)
    payload, error = need, FileFormatError
    if kind == "short":
        payload, error = draw(st.integers(0, min(need, 256) - 1)), FileIOError
    elif kind == "long":
        payload, error = need + draw(st.integers(1, 16)), FileIOError
    elif kind == "zero_width":
        widths[draw(st.integers(0, n_widths - 1))] = 0
    elif kind == "few_widths":
        n_widths = draw(st.integers(0, 1))
    elif kind == "count_past_end":
        n_widths = draw(st.integers(n_widths + 1, 2**32 - 1))
        payload, error = 0, FileIOError
    elif kind == "magic":
        magic = draw(st.binary(min_size=4, max_size=4).filter(lambda b: b != magic))
    else:
        version = draw(st.integers(0, 2**32 - 1).filter(lambda v: v != version))
    header = b"".join([
        magic, np.uint32(version).tobytes(), np.uint64(0).tobytes(),
        np.uint32(n_widths).tobytes(), np.asarray(widths, dtype="<u4").tobytes(),
    ])
    return header + bytes(payload), error


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=corrupt_checkpoint())
def test_corrupt_header_rejected_before_allocating(tmp_path, case):
    blob, error = case
    path = tmp_path / "corrupt.ckpt"
    path.write_bytes(blob)
    tracemalloc.start()
    try:
        with pytest.raises(error):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peak {peak / 2**20:.1f} MiB"
