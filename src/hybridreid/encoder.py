"""Trainable embedding network: a small tanh MLP ending in row-wise L2
normalization, with analytic backpropagation, decoupled-weight-decay Adam
and a step learning-rate schedule."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import numpy.random  # numpy imports it lazily: load it with this module

from .core import (FileFormatError, NumericError, TrainConfig, _HEADER, _check_size,
                   _read_binary, _write_binary)

CHECKPOINT_MAGIC = b"HHCK"
CHECKPOINT_VERSION = 1

# Added inside the square root of the output normalization.
NORM_EPS = 1e-12

# Adam's fixed decay rates of the first and second moments, and the guard
# added to the denominator; checkpoints do not store them.
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


class MLPEncoder:
    """Feed-forward net ``widths[0] -> ... -> widths[-1]`` with tanh between
    layers and L2-normalized output rows."""

    def __init__(self, widths, seed=0):
        widths = [int(w) for w in widths]
        if len(widths) < 2 or any(w < 1 for w in widths):
            raise ValueError(f"widths must be >= 2 positive sizes, got {widths}")
        self.widths = widths
        rng = np.random.default_rng(seed)
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            scale = np.sqrt(2.0 / (fan_in + fan_out))
            self.weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))

    @classmethod
    def _from_parameters(cls, params):
        """An encoder that owns ``params`` ([W0, b0, W1, b1, ...]), built
        without drawing initial weights."""
        model = cls.__new__(cls)
        model.weights, model.biases = list(params[0::2]), list(params[1::2])
        model.widths = [model.weights[0].shape[0]] + [w.shape[1] for w in model.weights]
        return model

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    def parameters(self):
        """Flat parameter list [W0, b0, W1, b1, ...] (live views)."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def forward(self, inputs):
        """Embed a batch; returns (B x D unit-norm embeddings, backward cache)."""
        a = np.asarray(inputs, dtype=np.float64)
        if a.ndim != 2 or a.shape[1] != self.widths[0]:
            raise ValueError(f"inputs must be B x {self.widths[0]}, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise NumericError("non-finite inputs")
        acts = [a]
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w + b
            if l < self.num_layers - 1:
                a = np.tanh(z)
                acts.append(a)
            else:
                a = z
        with np.errstate(over="ignore"):
            sq_norms = np.sum(a * a, axis=1, keepdims=True)
        if not np.all(np.isfinite(sq_norms)):
            raise NumericError("non-finite embedding norms: the weights have diverged")
        denom = np.sqrt(sq_norms + NORM_EPS)
        emb = a / denom
        cache = (acts, emb, denom)
        return emb, cache

    def backward(self, cache, grad_embeddings):
        """Chain rule from embedding gradients to parameter gradients.

        Returns gradients in the ``parameters()`` layout, summed over the
        batch. The normalization Jacobian is ``(I - u u^T) / ||v||``.
        """
        acts, emb, denom = cache
        g = np.asarray(grad_embeddings, dtype=np.float64)
        if g.shape != emb.shape:
            raise ValueError(
                f"grad_embeddings shape {g.shape} does not match embeddings "
                f"{emb.shape}"
            )
        # Through L2 normalization: annihilate the component along emb.
        dz = (g - emb * np.sum(emb * g, axis=1, keepdims=True)) / denom
        grads = [None] * (2 * self.num_layers)
        for l in range(self.num_layers - 1, -1, -1):
            grads[2 * l] = acts[l].T @ dz
            grads[2 * l + 1] = dz.sum(axis=0)
            if l > 0:
                da = dz @ self.weights[l].T
                dz = da * (1.0 - acts[l] ** 2)
        return grads


@dataclass
class AdamState:
    """Adam moments plus the step-schedule bookkeeping."""

    m: list
    v: list
    base_lr: float
    weight_decay: float
    decay_factor: float
    decay_every: int
    step_count: int = 0
    epoch: int = 0

    @classmethod
    def for_model(cls, model: MLPEncoder, base_lr, weight_decay,
                  decay_factor=TrainConfig.lr_decay_factor,
                  decay_every=TrainConfig.lr_decay_every) -> "AdamState":
        params = model.parameters()
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            base_lr=float(base_lr),
            weight_decay=float(weight_decay),
            decay_factor=float(decay_factor),
            decay_every=int(decay_every),
        )

    def effective_lr(self) -> float:
        return self.base_lr * self.decay_factor ** (self.epoch // self.decay_every)


def adam_step(model: MLPEncoder, grads, state: AdamState):
    """One decoupled-weight-decay Adam update with bias correction."""
    params = model.parameters()
    if len(grads) != len(params):
        raise ValueError(f"got {len(grads)} gradients for {len(params)} parameters")
    lr = state.effective_lr()
    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETAS
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if state.weight_decay != 0.0:
            p -= lr * state.weight_decay * p
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def save_checkpoint(path, model: MLPEncoder, state: AdamState, epoch: int):
    """Binary checkpoint: the shared header with magic ``HHCK``, u32
    version, u64 epoch counter and u32 number of layer widths, then the
    widths, the f64 parameters, the optimizer state and Adam's moments."""
    _write_binary(
        path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, epoch, len(model.widths),
        np.asarray(model.widths, dtype="<u4"),
        *model.parameters(), np.uint64(state.step_count),
        np.asarray([state.base_lr, state.weight_decay, state.decay_factor], dtype="<f8"),
        np.asarray([state.decay_every, state.epoch], dtype="<u4"),
        *state.m, *state.v,
    )


def load_checkpoint(path):
    """Read a checkpoint; returns (model, optimizer state, epoch counter)."""
    epoch, n_widths, blob = _read_binary(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    if n_widths < 2:
        raise FileFormatError(f"{path}: checkpoint with {n_widths} layer widths")
    pos = _HEADER.itemsize
    _check_size(path, blob, pos, 4 * n_widths, exact=False)
    widths = np.frombuffer(blob, "<u4", n_widths, pos).tolist()
    if min(widths) < 1:
        raise FileFormatError(f"{path}: checkpoint layer widths {widths}")
    # the widths fix the size: parameters, 40 bytes of optimizer scalars, then
    # Adam's m and v; checked before the encoder is built, so a corrupt
    # header allocates nothing
    shapes = [s for a, b in zip(widths[:-1], widths[1:]) for s in ((a, b), (b,))]
    ends = list(itertools.accumulate(math.prod(s) for s in shapes))
    num_params = ends[-1]
    pos += 4 * n_widths
    _check_size(path, blob, pos, 3 * 8 * num_params + 40)

    def arrays(offset):
        """Writable float64 copies, in ``parameters()`` layout, of the
        parameter-sized f8 vector at ``offset``."""
        flat = np.frombuffer(blob, "<f8", num_params, offset)
        return [part.reshape(s).astype(np.float64)
                for part, s in zip(np.split(flat, ends[:-1]), shapes)]

    model = MLPEncoder._from_parameters(arrays(pos))
    pos += 8 * num_params
    step_count = int(np.frombuffer(blob, "<u8", 1, pos)[0])
    base_lr, weight_decay, decay_factor = np.frombuffer(blob, "<f8", 3, pos + 8).tolist()
    decay_every, sched_epoch = np.frombuffer(blob, "<u4", 2, pos + 32).tolist()
    return model, AdamState(
        m=arrays(pos + 40), v=arrays(pos + 40 + 8 * num_params), step_count=step_count,
        base_lr=base_lr, weight_decay=weight_decay, decay_factor=decay_factor,
        decay_every=decay_every, epoch=sched_epoch,
    ), epoch
