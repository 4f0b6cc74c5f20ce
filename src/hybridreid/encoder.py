"""Trainable embedding network: a small tanh MLP ending in row-wise L2
normalization, with analytic backpropagation, decoupled-weight-decay Adam
and a step learning-rate schedule."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FileFormatError, FileIOError, TrainConfig, _atomic_open

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
            raise ValueError("non-finite inputs")
        acts = [a]
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w + b
            if l < self.num_layers - 1:
                a = np.tanh(z)
                acts.append(a)
            else:
                a = z
        denom = np.sqrt(np.sum(a * a, axis=1, keepdims=True) + NORM_EPS)
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
    """Binary checkpoint: magic, version, widths, f64 parameters, optimizer
    state and the epoch counter."""
    parts = [
        CHECKPOINT_MAGIC,
        np.uint32(CHECKPOINT_VERSION).tobytes(),
        np.uint64(epoch).tobytes(),
        np.uint32(len(model.widths)).tobytes(),
        np.asarray(model.widths, dtype="<u4").tobytes(),
    ]
    for p in model.parameters():
        parts.append(np.ascontiguousarray(p, dtype="<f8").tobytes())
    parts.append(np.uint64(state.step_count).tobytes())
    parts.append(
        np.asarray(
            [state.base_lr, state.weight_decay, state.decay_factor], dtype="<f8"
        ).tobytes()
    )
    parts.append(np.asarray([state.decay_every, state.epoch], dtype="<u4").tobytes())
    for acc in (state.m, state.v):
        for a in acc:
            parts.append(np.ascontiguousarray(a, dtype="<f8").tobytes())
    with _atomic_open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_checkpoint(path):
    """Read a checkpoint; returns (model, optimizer state, epoch counter)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    view = memoryview(blob)
    pos = 0

    def take(n):
        nonlocal pos
        if pos + n > len(blob):
            raise FileIOError(f"{path}: truncated checkpoint")
        chunk = view[pos : pos + n]
        pos += n
        return chunk

    if bytes(take(4)) != CHECKPOINT_MAGIC:
        raise FileFormatError(f"{path}: bad checkpoint magic")
    version = int(np.frombuffer(take(4), "<u4")[0])
    if version != CHECKPOINT_VERSION:
        raise FileFormatError(f"{path}: unsupported checkpoint version {version}")
    epoch = int(np.frombuffer(take(8), "<u8")[0])
    n_widths = int(np.frombuffer(take(4), "<u4")[0])
    if n_widths < 2:
        raise FileFormatError(f"{path}: checkpoint with {n_widths} layer widths")
    widths = np.frombuffer(take(4 * n_widths), "<u4").astype(int).tolist()
    if min(widths) < 1:
        raise FileFormatError(f"{path}: checkpoint layer widths {widths}")
    # the widths fix the size: parameters, 40 bytes of optimizer scalars, then
    # Adam's m and v; checked before the encoder is built, so a corrupt
    # header allocates nothing
    num_params = sum(a * b + b for a, b in zip(widths[:-1], widths[1:]))
    size = pos + 3 * 8 * num_params + 40
    if size > len(blob):
        raise FileIOError(f"{path}: truncated checkpoint")
    if size < len(blob):
        raise FileIOError(f"{path}: {len(blob) - size} trailing bytes")

    shapes = [s for a, b in zip(widths[:-1], widths[1:]) for s in ((a, b), (b,))]

    def arrays():
        """Writable float64 copies of the next arrays in ``parameters()`` layout."""
        return [np.frombuffer(take(8 * int(np.prod(s))), "<f8").astype(np.float64).reshape(s)
                for s in shapes]

    model = MLPEncoder._from_parameters(arrays())
    step_count = int(np.frombuffer(take(8), "<u8")[0])
    base_lr, weight_decay, decay_factor = np.frombuffer(take(24), "<f8")
    decay_every, sched_epoch = np.frombuffer(take(8), "<u4")
    state = AdamState(
        m=arrays(), v=arrays(), step_count=step_count, base_lr=float(base_lr),
        weight_decay=float(weight_decay), decay_factor=float(decay_factor),
        decay_every=int(decay_every), epoch=int(sched_epoch),
    )
    return model, state, epoch
