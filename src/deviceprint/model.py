"""Classifier assembly, the recognition flow and experiment drivers.

The flow is one function per step: `clip_mfcc` (a clip's checked cepstra),
`train_ubm`, `extract_sgmm` and `fit_architecture` (tensors to network
config). `run_recognition` composes them in memory, and the `pipeline`
stages call the same ones behind their disk cache. The recognition network
stacks a pointwise channel-expansion conv (folded into the first conv), two
conv/batch-norm/ReLU/max-pool blocks and an average pool over the spatial
axes of each time step, flattens per step, and feeds the sequence to a
bidirectional peephole LSTM with self-attention, mean temporal pooling and
a dense softmax head. The time axis survives every stage unchanged, so
the recurrent half always sees the feature tensor's own segment order.
"""

from dataclasses import dataclass, field

import numpy as np

from . import mfcc as mfcc_mod
from .audio import read_wav
from .errors import ConfigError, DataError, ShapeError
from .gmm import em_fit, extract_sgmm
from .nn import (AdamState, AvgPool3d, BatchNorm3d, BiLstm, Conv3d, Dense,
                 ExpandedConv3d, FlattenPerStep, MaxPool3d, MeanOverTime,
                 ParamStore, PointwiseExpansion, ReLU, SelfAttention,
                 adam_step, softmax_cross_entropy)


# maxpool1, maxpool2 and the average pool: none spans time, each halves the
# spatial axes
_POOL_WINDOWS = ((1, 2, 2),) * 3


@dataclass(frozen=True)
class ArchitectureConfig:
    """Network hyperparameters plus the (M, G, T) input dimensions."""

    input_dims: tuple
    n_classes: int
    channels: tuple = (8, 16, 32)
    kernel_t: int = 1
    hidden: int = 64
    attention: bool = True

    def validate(self):
        m, g, t = self.input_dims
        if min(m, g, t) < 1 or self.n_classes < 2:
            raise ConfigError("input dims must be positive, n_classes >= 2")
        if len(self.channels) != 3 or min(self.channels) < 1:
            raise ConfigError("channels must be three positive counts")
        if self.kernel_t < 1 or self.kernel_t % 2 == 0:
            raise ConfigError("kernel_t must be odd so padding preserves T")
        if self.hidden < 1:
            raise ConfigError("hidden size must be >= 1")
        self.flatten_size()

    def spatial_trace(self):
        """(height, width) after each pooling stage; a pool drops the
        remainder its window does not fill."""
        h, w, _ = self.input_dims
        trace = []
        for _, wh, ww in _POOL_WINDOWS:
            h, w = h // wh, w // ww
            if min(h, w) < 1:
                raise ConfigError(f"input dims {self.input_dims} collapse "
                                  f"under pool {len(trace) + 1}")
            trace.append((h, w))
        return trace

    def flatten_size(self):
        h, w = self.spatial_trace()[-1]
        return self.channels[2] * h * w


@dataclass
class TrainConfig:
    """Optimization schedule: Adam with a stepped learning-rate decay."""

    initial_lr: float = 0.002
    lr_decay_every: int = 100
    lr_decay_factor: float = 0.1
    epochs: int = 250
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self):
        if (not 0 < self.initial_lr < np.inf
                or not 0 < self.lr_decay_factor < 1):
            raise ConfigError("need initial_lr finite and > 0 and decay "
                              "factor in (0,1)")
        if self.lr_decay_every < 1 or self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("schedule counts must be >= 1")


def lr_schedule(initial_lr, decay_factor, decay_every, epoch):
    """Stepped decay: lr(e) = initial * factor^floor((e-1)/every).

    Rounded to 12 significant digits so repeated decimal decays compare
    exactly across runs and against their closed-form values.
    """
    k = (epoch - 1) // decay_every
    return float(format(initial_lr * decay_factor ** k, ".12g"))


class C3dBiLstm:
    """3D-conv spatial front half plus BiLSTM/attention temporal back half."""

    def __init__(self, arch, seed=0):
        arch.validate()
        self.arch = arch
        self.params = ParamStore()
        rng = np.random.default_rng(seed)
        c0, c1, c2 = arch.channels
        kt = arch.kernel_t
        pad = (kt // 2, 1, 1)
        self.pw = PointwiseExpansion(self.params, "pw", c0, rng=rng)
        self.conv1 = ExpandedConv3d(self.params, "conv1", self.pw, c1,
                                    (kt, 3, 3), padding=pad, rng=rng)
        self.bn1 = BatchNorm3d(self.params, "bn1", c1)
        self.conv2 = Conv3d(self.params, "conv2", c1, c2, (kt, 3, 3),
                            padding=pad, rng=rng)
        self.bn2 = BatchNorm3d(self.params, "bn2", c2)
        self.bilstm = BiLstm(self.params, "bilstm", arch.flatten_size(),
                             arch.hidden, rng=rng)
        self.fc = Dense(self.params, "fc", 2 * arch.hidden, arch.n_classes,
                        rng=rng)
        self.layers = [
            self.pw,
            self.conv1, self.bn1, ReLU(), MaxPool3d(_POOL_WINDOWS[0]),
            self.conv2, self.bn2, ReLU(), MaxPool3d(_POOL_WINDOWS[1]),
            AvgPool3d(_POOL_WINDOWS[2]),
            FlattenPerStep(),
            self.bilstm,
        ]
        if arch.attention:
            self.layers.append(SelfAttention())
        self.layers.extend([MeanOverTime(), self.fc])
        self.params.pack()  # one flat buffer for zero_grads and Adam

    def forward(self, x, train=False):
        """Logits for a [B, 1, T, M, G] batch.

        The pointwise expansion (the `pw` slot, layers[0]) is skipped:
        conv1 applies it inside its own correlation of the 1-channel input,
        which is exact only while nothing nonlinear sits between the two,
        so no 8-channel activation is made.

        train=True uses batch statistics in batch norm and keeps each
        layer's backward state. train=False is inference: batch norm uses
        its running statistics, no layer keeps anything activation-sized,
        so each activation is freed once the next layer has consumed it,
        and a backward afterwards raises DependencyError.
        """
        x = np.asarray(x, dtype=np.float64)
        m, g, t = self.arch.input_dims
        if x.shape[1:] != (1, t, m, g):
            raise ShapeError(f"expected input [B, 1, {t}, {m}, {g}], "
                             f"got {x.shape}")
        for layer in self.layers[1:]:
            x = layer.forward(x, train=train)
        return x

    def backward(self, grad_logits):
        """Accumulate every parameter's gradient from dL/dlogits.

        Nothing reads the gradient with respect to the network input, so
        conv1, which also holds the pointwise expansion, computes the
        parameter gradients of both and no input gradient; the `pw` slot
        is skipped, and nothing is returned.
        """
        grad = grad_logits
        for layer in reversed(self.layers[1:]):
            grad = layer.backward(grad)

    def state_arrays(self):
        """Trainable parameters plus batch-norm running statistics."""
        arrays = {name: p.value for name, p in self.params.items()}
        for name, bn in (("bn1", self.bn1), ("bn2", self.bn2)):
            arrays[f"{name}.running_mean"] = bn.running_mean
            arrays[f"{name}.running_var"] = bn.running_var
        return arrays

    def load_state(self, arrays):
        """Restore state_arrays(); every name and shape is checked first.

        An array this network does not have (one of another architecture,
        or optimizer moments) raises ConfigError, as a missing one does.
        """
        expected = self.state_arrays()
        unknown = sorted(set(arrays) - set(expected))
        if unknown:
            raise ConfigError(f"checkpoint holds arrays this network does "
                              f"not have: {', '.join(unknown)}")
        for name, current in expected.items():
            if name not in arrays:
                raise ConfigError(f"checkpoint is missing array {name!r}")
            if np.shape(arrays[name]) != current.shape:
                raise ShapeError(f"checkpoint shape mismatch for {name!r}")
        for name, p in self.params.items():
            p.value[...] = arrays[name]
        for name, bn in (("bn1", self.bn1), ("bn2", self.bn2)):
            bn.running_mean = arrays[f"{name}.running_mean"].copy()
            bn.running_var = arrays[f"{name}.running_var"].copy()


def build_model(arch, seed=0):
    return C3dBiLstm(arch, seed=seed)


def stack_features(feature_set):
    """List of (SgmmTensor, label) -> (X [B,1,T,M,G], y [B]); each (M, G, T)
    tensor becomes a [1, T, M, G] input block."""
    xs = np.stack([t.data.transpose(2, 0, 1)[None] for t, _ in feature_set])
    ys = np.array([label for _, label in feature_set], dtype=np.intp)
    return xs, ys


# ---------------------------------------------------------------------------
# Training and evaluation
# ---------------------------------------------------------------------------

def train(model, train_set, cfg):
    """Seeded mini-batch Adam training; returns the per-epoch history.

    Each history row records the epoch, the learning rate actually loaded
    into the optimizer, the mean loss and the training accuracy.
    """
    if not train_set:
        raise DataError("training set is empty")
    xs, ys = stack_features(train_set)
    n_classes = model.arch.n_classes
    missing = set(range(n_classes)) - set(int(v) for v in np.unique(ys))
    if missing:
        raise DataError(f"no training samples for classes {sorted(missing)}")
    eye = np.eye(n_classes)
    state = AdamState(model.params, alpha=cfg.initial_lr)
    rng = np.random.default_rng(cfg.seed)
    history = []
    n = len(ys)
    for epoch in range(1, cfg.epochs + 1):
        state.alpha = lr_schedule(cfg.initial_lr, cfg.lr_decay_factor,
                                  cfg.lr_decay_every, epoch)
        order = rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            model.params.zero_grads()
            logits = model.forward(xs[idx], train=True)
            loss, dlogits = softmax_cross_entropy(logits, eye[ys[idx]])
            model.backward(dlogits)
            adam_step(model.params, state)
            loss_sum += loss * len(idx)
            correct += int((logits.argmax(axis=1) == ys[idx]).sum())
        history.append({"epoch": epoch, "lr": state.alpha,
                        "loss": loss_sum / n, "train_acc": correct / n})
    return history


@dataclass
class Metrics:
    accuracy: float
    per_class: np.ndarray
    confusion: np.ndarray
    mean_loss: float
    label_order: list = field(default=None)

    def report(self):
        lines = [f"accuracy {self.accuracy:.4f}",
                 f"mean_loss {self.mean_loss:.4f}"]
        labels = self.label_order or [str(i) for i in range(len(self.per_class))]
        for name, acc in zip(labels, self.per_class):
            lines.append(f"  class {name}: {acc:.4f}")
        return "\n".join(lines)

    def kv_records(self):
        labels = self.label_order or [str(i) for i in range(len(self.per_class))]
        lines = [f"accuracy={self.accuracy!r}", f"mean_loss={self.mean_loss!r}"]
        lines += [f"per_class.{name}={float(acc)!r}"
                  for name, acc in zip(labels, self.per_class)]
        return "\n".join(lines)

    def confusion_csv(self):
        return "\n".join(",".join(str(int(v)) for v in row)
                         for row in self.confusion)


def metrics_from_predictions(y_true, y_pred, n_classes, mean_loss=float("nan"),
                             label_order=None):
    y_true = np.asarray(y_true, dtype=np.intp)
    y_pred = np.asarray(y_pred, dtype=np.intp)
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (y_true, y_pred), 1)
    counts = confusion.sum(axis=1)
    with np.errstate(invalid="ignore"):
        per_class = np.where(counts > 0,
                             np.diag(confusion) / np.maximum(counts, 1), 0.0)
    accuracy = float(np.trace(confusion)) / max(1, len(y_true))
    return Metrics(accuracy=accuracy, per_class=per_class,
                   confusion=confusion, mean_loss=float(mean_loss),
                   label_order=label_order)


def evaluate(model, test_set, label_order=None,
             batch_size=TrainConfig.batch_size):
    """Inference-mode evaluation: argmax decisions, confusion bookkeeping.

    The forward runs in batches of the training batch size, so inference
    never holds more activations than a training step does. The loss is
    taken once over all the logits, so it does not depend on the batching.
    """
    if not test_set:
        raise DataError("test set is empty")
    xs, ys = stack_features(test_set)
    logits = np.concatenate([model.forward(xs[start:start + batch_size],
                                           train=False)
                             for start in range(0, len(ys), batch_size)])
    loss, _ = softmax_cross_entropy(logits, np.eye(model.arch.n_classes)[ys])
    return metrics_from_predictions(ys, logits.argmax(axis=1),
                                    model.arch.n_classes, mean_loss=loss,
                                    label_order=label_order)


# ---------------------------------------------------------------------------
# Linear baseline on fixed-length clip features
# ---------------------------------------------------------------------------

class LogisticClassifier:
    """Multinomial logistic regression by full-batch gradient descent.

    Features are z-scored internally; the L2 penalty keeps degenerate or
    singular designs well-posed rather than erroring.
    """

    l2 = 1e-3  # weight of the L2 penalty

    def __init__(self, lr=0.5, iters=500):
        self.lr = lr
        self.iters = iters
        self.w = None
        self.b = None
        self.loss_history = []

    def fit(self, features, labels, n_classes=None):
        x = np.asarray(features, dtype=np.float64)
        y = np.asarray(labels, dtype=np.intp)
        if n_classes is None:
            n_classes = int(y.max()) + 1
        if n_classes < 2:
            raise DataError("need at least 2 classes")
        self._mu = x.mean(axis=0)
        sd = x.std(axis=0)
        self._sd = np.where(sd < 1e-12, 1.0, sd)
        xz = (x - self._mu) / self._sd
        n, d = xz.shape
        onehot = np.eye(n_classes)[y]
        self.w = np.zeros((d, n_classes))
        self.b = np.zeros(n_classes)
        self.loss_history = []
        for _ in range(self.iters):
            z = xz @ self.w + self.b
            z -= z.max(axis=1, keepdims=True)
            log_z = np.log(np.exp(z).sum(axis=1, keepdims=True))
            probs = np.exp(z - log_z)
            loss = (-np.sum(onehot * (z - log_z)) / n
                    + 0.5 * self.l2 * np.sum(self.w ** 2))
            self.loss_history.append(float(loss))
            delta = (probs - onehot) / n
            self.w -= self.lr * (xz.T @ delta + self.l2 * self.w)
            self.b -= self.lr * delta.sum(axis=0)
        return self

    def predict(self, features):
        x = (np.asarray(features, dtype=np.float64) - self._mu) / self._sd
        return np.argmax(x @ self.w + self.b, axis=1)

    def score(self, features, labels):
        return float(np.mean(self.predict(features) == np.asarray(labels)))


def baseline_classifier(features, labels, n_classes=None):
    """Train the linear baseline on fixed-length vectors."""
    return LogisticClassifier().fit(features, labels, n_classes)


def mfcc_mean_features(mfccs):
    """Per-clip mean cepstral vector, one row per clip."""
    return np.stack([m.coeffs.mean(axis=1) for m in mfccs])


# ---------------------------------------------------------------------------
# Recognition flow: one function per step. `run_recognition` composes them
# in memory; the `pipeline` stages call the same ones behind a disk cache.
# ---------------------------------------------------------------------------

@dataclass
class GmmConfig:
    """Background-mixture and temporal-feature extraction settings.

    The relevance default is calibrated for 10-frame segments: with so few
    frames per segment, component occupancies rarely exceed a handful, so
    the utterance-scale convention of 16 would leave the adapted means
    pinned to the background model.
    """

    n_components: int = 64
    seg_frames: int = 10
    relevance: float = 4.0
    em_iters: int = 50
    em_tol: float = 1e-3
    seed: int = 0


@dataclass
class RecognitionResult:
    model: object
    metrics: Metrics
    history: list
    ubm: object
    label_order: list
    train_set: list
    test_set: list
    train_mfccs: list
    test_mfccs: list
    train_labels: np.ndarray
    test_labels: np.ndarray


def label_indices(manifest, entries):
    """Class index of each entry: its device's place in device_ids()."""
    label_idx = {d: i for i, d in enumerate(manifest.device_ids())}
    return np.array([label_idx[e.device_id] for e in entries])


def clip_mfcc(name, clip, sample_rate, frame_cfg, mel_cfg):
    """Cepstra of one clip, which must be at the manifest's sample rate."""
    if clip.sample_rate != sample_rate:
        raise DataError(f"{name}: sample rate {clip.sample_rate} does not "
                        f"match manifest {sample_rate}")
    return mfcc_mod.extract_mfcc(clip, frame_cfg, mel_cfg)


def train_ubm(mfccs, gmm_cfg):
    """Pool all frames of the given clips and fit the background mixture."""
    # EM stops once the log-likelihood gains less than em_tol, a test that
    # a NaN or negative tolerance would never pass
    if not gmm_cfg.em_tol >= 0:
        raise ConfigError(f"em_tol must be >= 0, got {gmm_cfg.em_tol}")
    if not mfccs:
        raise DataError("no train clips to fit the background mixture on")
    pooled = np.concatenate([m.coeffs for m in mfccs], axis=1)
    return em_fit(pooled, gmm_cfg.n_components, max_iters=gmm_cfg.em_iters,
                  tol=gmm_cfg.em_tol, seed=gmm_cfg.seed)


def fit_architecture(feature_set, n_classes, **arch_kwargs):
    """Network config for the one (M, G, T) shape every tensor shares."""
    shapes = {t.data.shape for t, _ in feature_set}
    if not shapes:
        raise DataError("no tensors to fit the architecture to")
    if len(shapes) != 1:
        raise DataError(f"clips produced inconsistent tensor shapes: {shapes}")
    return ArchitectureConfig(input_dims=shapes.pop(), n_classes=n_classes,
                              **arch_kwargs)


def run_recognition(manifest, frame_cfg, mel_cfg, gmm_cfg, train_cfg,
                    train_entries=None, test_entries=None, ubm_entries=None,
                    **arch_kwargs):
    """Full in-memory pipeline on a corpus manifest: the cepstra of its WAV
    clips, the UBM, temporal tensors, training and evaluation.

    The entries default to the manifest's train and test splits;
    ubm_entries picks the unlabeled background pool and defaults to the
    classifier's train_entries. The UBM is fit on ubm_entries only, the
    network on train_entries, and evaluation runs in inference mode on
    the untouched test_entries.
    """
    if train_entries is None:
        train_entries = manifest.for_split("train")
    if test_entries is None:
        test_entries = manifest.for_split("test")
    if ubm_entries is None:
        ubm_entries = train_entries
    needed = {e.path: e for e in train_entries + test_entries + ubm_entries}
    mfccs = {path: clip_mfcc(path, read_wav(manifest.resolve(e)),
                             manifest.sample_rate, frame_cfg, mel_cfg)
             for path, e in needed.items()}
    if not train_entries or not test_entries:
        raise DataError("manifest needs both train and test entries")
    label_order = manifest.device_ids()
    train_mfccs = [mfccs[e.path] for e in train_entries]
    test_mfccs = [mfccs[e.path] for e in test_entries]
    train_labels = label_indices(manifest, train_entries)
    test_labels = label_indices(manifest, test_entries)

    ubm = train_ubm([mfccs[e.path] for e in ubm_entries], gmm_cfg)
    train_set = [(extract_sgmm(ubm, m, gmm_cfg.seg_frames, gmm_cfg.relevance), y)
                 for m, y in zip(train_mfccs, train_labels)]
    test_set = [(extract_sgmm(ubm, m, gmm_cfg.seg_frames, gmm_cfg.relevance), y)
                for m, y in zip(test_mfccs, test_labels)]

    arch = fit_architecture(train_set + test_set, len(label_order),
                            **arch_kwargs)
    model = build_model(arch, seed=train_cfg.seed)
    history = train(model, train_set, train_cfg)
    metrics = evaluate(model, test_set, label_order=label_order)
    return RecognitionResult(model=model, metrics=metrics, history=history,
                             ubm=ubm, label_order=label_order,
                             train_set=train_set, test_set=test_set,
                             train_mfccs=train_mfccs, test_mfccs=test_mfccs,
                             train_labels=train_labels, test_labels=test_labels)


def ablate_frontend(frame_cfgs, mel_cfgs, manifest):
    """Grid over frame geometry and band limits, scored with the linear
    baseline on per-clip MFCC means. Returns one row dict per cell."""
    train_entries = manifest.for_split("train")
    test_entries = manifest.for_split("test")
    clips = {e.path: read_wav(manifest.resolve(e))
             for e in train_entries + test_entries}
    y_train = label_indices(manifest, train_entries)
    y_test = label_indices(manifest, test_entries)
    rows = []
    for frame_cfg in frame_cfgs:
        for mel_cfg in mel_cfgs:
            def feats(entries):
                return mfcc_mean_features(
                    [clip_mfcc(e.path, clips[e.path], manifest.sample_rate,
                               frame_cfg, mel_cfg) for e in entries])
            clf = baseline_classifier(feats(train_entries), y_train,
                                      n_classes=len(manifest.device_ids()))
            rows.append({
                "frame_len_ms": frame_cfg.frame_len_ms,
                "frame_shift_ms": frame_cfg.frame_shift_ms,
                "f_low": mel_cfg.f_low,
                "f_high": mel_cfg.f_high,
                "accuracy": clf.score(feats(test_entries), y_test),
            })
    return rows


def format_ablation_table(rows):
    header = (f"{'Frame Len (ms)':>14} {'Frame Shift (ms)':>17} "
              f"{'Low End (Hz)':>13} {'High End (Hz)':>14} {'Accuracy':>9}")
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(f"{r['frame_len_ms']:>14.0f} {r['frame_shift_ms']:>17.0f} "
                     f"{r['f_low']:>13.0f} {r['f_high']:>14.0f} "
                     f"{100 * r['accuracy']:>8.2f}%")
    return "\n".join(lines)


def small_sample_split(manifest, n_train_per_class, select_seed=0):
    """(train, test, ubm) entries of the small-sample protocol.

    Every device's train split is truncated to n clips (seeded pick); the
    test split is untouched. Only the supervised classifier set shrinks.
    The background mixture is unsupervised infrastructure, so it keeps the
    full training split as its pool, the way background models are reused
    across enrollments.
    """
    if n_train_per_class < 1:
        raise ConfigError(f"n_train must be at least 1 clip per device, "
                          f"got {n_train_per_class}")
    rng = np.random.default_rng(select_seed)
    truncated = []
    for device in manifest.device_ids():
        device_train = [e for e in manifest.for_split("train")
                        if e.device_id == device]
        if len(device_train) < n_train_per_class:
            raise DataError(f"{device} has {len(device_train)} train clips, "
                            f"needs {n_train_per_class}")
        picks = sorted(rng.choice(len(device_train), size=n_train_per_class,
                                  replace=False))
        truncated.extend(device_train[i] for i in picks)
    return truncated, manifest.for_split("test"), manifest.for_split("train")


def small_sample_protocol(manifest, n_train_per_class, frame_cfg, mel_cfg,
                          gmm_cfg, train_cfg, select_seed=0, **arch_kwargs):
    """`run_recognition` on the entries of `small_sample_split`."""
    return run_recognition(
        manifest, frame_cfg, mel_cfg, gmm_cfg, train_cfg,
        *small_sample_split(manifest, n_train_per_class, select_seed),
        **arch_kwargs)
