import tracemalloc

import numpy as np
import pytest

from deviceprint import audio, mfcc, model
from deviceprint.errors import (ConfigError, DataError, DependencyError,
                               ShapeError)
from deviceprint.gmm import SgmmTensor
from deviceprint.nn import (AdamState, BatchNorm3d, BiLstm, Conv3d, Dense,
                            ParamStore, adam_step, gradcheck, load_checkpoint,
                            save_checkpoint, softmax_cross_entropy)


def _tensor(rng, dims=(12, 8, 4)):
    return SgmmTensor(rng.uniform(0, 1, dims))


def _dataset(rng, n_per_class, n_classes, dims=(12, 8, 4)):
    data = []
    for k in range(n_classes):
        center = rng.uniform(0.2, 0.8, dims)
        for _ in range(n_per_class):
            raw = np.clip(center + rng.normal(0, 0.05, dims), 0, 1)
            data.append((SgmmTensor(raw), k))
    return data


@pytest.fixture(scope="module")
def toy_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    return audio.synth_corpus(3, 6, 0.67, 16000, seed=17, out_dir=out,
                              clip_seconds=2.5)


def test_build_model_output_shape():
    arch = model.ArchitectureConfig(input_dims=(12, 8, 4), n_classes=5)
    net = model.build_model(arch, seed=0)
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, (3, 1, 4, 12, 8))
    logits = net.forward(x, train=True)
    assert logits.shape == (3, 5)


def test_time_axis_preserved_through_stack():
    arch = model.ArchitectureConfig(input_dims=(12, 8, 4), n_classes=5)
    net = model.build_model(arch, seed=0)
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 1, (2, 1, 4, 12, 8))
    reached_bilstm = False
    for layer in net.layers:
        x = layer.forward(x, train=True)
        if x.ndim == 5:
            assert x.shape[2] == 4
        if isinstance(layer, BiLstm):
            reached_bilstm = True
    assert reached_bilstm


def test_inference_forward_holds_one_activation_at_a_time():
    # the evaluation shape at G=64: keeping every layer's backward state
    # peaked at 104 MiB and held 99 MiB after the call in float64. In
    # float32 conv1's output (11.7 MiB), which bn1 and relu1 overwrite,
    # next to maxpool1's output (2.9 MiB) sets the peak, 14.7 MiB
    arch = model.ArchitectureConfig(input_dims=(12, 64, 5), n_classes=5)
    net = model.build_model(arch, seed=0)
    x = np.random.default_rng(3).uniform(0, 1, (50, 1, 5, 12, 64))
    tracemalloc.start()
    try:
        logits = net.forward(x, train=False)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert logits.shape == (50, 5)
    assert peak < 64 * 2**20
    assert held < 2**20


def test_inference_conv1_makes_no_eight_channel_activation():
    # pw then conv1 at the evaluation shape, in float32: conv1's 16-channel
    # output is 11.7 MiB and one 8-channel activation 5.9 MiB. Expanding
    # first and then correlating (pw as a 1x1x1 conv, then conv3d_forward)
    # peaked at 25.7-26.4 MiB; the folded conv1 correlates the 1-channel
    # input and peaks at 13.7 MiB. The bound, the output plus one 8-channel
    # activation, fails any path that holds one beside the output
    arch = model.ArchitectureConfig(input_dims=(12, 64, 5), n_classes=5)
    net = model.build_model(arch, seed=0)
    x = np.random.default_rng(3).uniform(0, 1, (50, 1, 5, 12, 64))
    out_bytes = 50 * 16 * 5 * 12 * 64 * np.float32().itemsize
    tracemalloc.start()
    try:
        for layer in net.layers[:2]:
            x = layer.forward(x, train=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x.shape == (50, 16, 5, 12, 64)
    assert peak < out_bytes + out_bytes // 2


def test_inference_forward_writes_over_each_conv_output():
    # a float32 batch of 16 at the evaluation shape: with batch norm and
    # ReLU each making a fresh array the forward peaked at 7.53 MiB (bn1's
    # input and output side by side); writing over conv1's output, 4.72
    arch = model.ArchitectureConfig(input_dims=(12, 64, 5), n_classes=5)
    net = model.build_model(arch, seed=0)
    x = np.random.default_rng(3).uniform(0, 1, (16, 1, 5, 12, 64)).astype(
        np.float32)
    tracemalloc.start()
    try:
        net.forward(x, train=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5.5 * 2**20


@pytest.mark.parametrize("train", [True, False])
def test_forward_leaves_a_read_only_input_untouched(train):
    arch = model.ArchitectureConfig(input_dims=(12, 8, 5), n_classes=3)
    net = model.build_model(arch, seed=2)
    x = np.random.default_rng(9).uniform(0, 1, (4, 1, 5, 12, 8)).astype(
        np.float32)
    want = x.copy()
    x.flags.writeable = False
    net.forward(x, train=train)
    assert x.tobytes() == want.tobytes()


def _in_place_flags(net):
    return [i for i, layer in enumerate(net.layers)
            if getattr(layer, "in_place", False)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64],
                         ids=["float32", "float64"])
@pytest.mark.parametrize("g, n_per_class", [(8, 4), (64, 2)])
def test_in_place_network_matches_its_out_of_place_twin(dtype, g,
                                                        n_per_class):
    # only the conv blocks' batch norms and ReLUs write in place, and doing
    # so changes no bit of the logits, gradients or a short training
    dims = (12, g, 5)
    arch = model.ArchitectureConfig(input_dims=dims, n_classes=5)
    rng = np.random.default_rng(31)
    data = _dataset(rng, n_per_class, 5, dims)
    xs, _ = model.stack_features(data, dtype)
    probe = rng.standard_normal((len(xs), 5)).astype(dtype)
    net, twin = (model.build_model(arch, seed=8, dtype=dtype)
                 for _ in range(2))
    assert len(net.layers) == 15 and _in_place_flags(net) == [2, 3, 6, 7]
    assert net.layers[2] is net.bn1 and net.layers[6] is net.bn2
    for i in _in_place_flags(twin):
        twin.layers[i].in_place = False
    runs = []
    for n in (net, twin):
        n.params.zero_grads()
        run = [n.forward(xs, train=True)]
        n.backward(probe)
        run += [n.params.flat_grad.copy(), n.forward(xs, train=False)]
        history = model.train(n, data, model.TrainConfig(epochs=3,
                                                         batch_size=4,
                                                         seed=8))
        metrics = model.evaluate(n, data)
        run += list(n.state_arrays().values()) + [metrics.confusion]
        runs.append((run, history, metrics.kv_records()))
    (got, got_history, got_kv), (want, want_history, want_kv) = runs
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert got_history == want_history and got_kv == want_kv


def _unfolded_draws(arch, seed):
    """state_arrays() of a network whose pw and conv1 are two Conv3d
    layers, drawn in the network's parameter order."""
    rng = np.random.default_rng(seed)
    store = ParamStore()
    c0, c1, c2 = arch.channels
    kt = arch.kernel_t
    Conv3d(store, "pw", 1, c0, (1, 1, 1), rng=rng)
    Conv3d(store, "conv1", c0, c1, (kt, 3, 3), rng=rng)
    BatchNorm3d(store, "bn1", c1)
    Conv3d(store, "conv2", c1, c2, (kt, 3, 3), rng=rng)
    BatchNorm3d(store, "bn2", c2)
    BiLstm(store, "bilstm", arch.flatten_size(), arch.hidden, rng=rng)
    Dense(store, "fc", 2 * arch.hidden, arch.n_classes, rng=rng)
    arrays = {name: p.value for name, p in store.items()}
    for name, channels in (("bn1", c1), ("bn2", c2)):
        arrays[f"{name}.running_mean"] = np.zeros(channels)
        arrays[f"{name}.running_var"] = np.ones(channels)
    return arrays


@pytest.mark.parametrize("kernel_t", [1, 3])
def test_build_model_draws_the_unfolded_parameters(kernel_t):
    # checkpoints of the unfolded network load unchanged and a fresh
    # network is bit-identical to it
    arch = model.ArchitectureConfig(input_dims=(12, 8, 5), n_classes=5,
                                    kernel_t=kernel_t)
    got = model.build_model(arch, seed=9, dtype=np.float64).state_arrays()
    want = _unfolded_draws(arch, 9)
    assert list(got) == list(want)
    assert all(np.array_equal(got[k], want[k]) for k in want)


def test_backward_after_inference_forward_raises():
    arch = model.ArchitectureConfig(input_dims=(12, 8, 4), n_classes=3)
    net = model.build_model(arch, seed=1)
    x = np.random.default_rng(4).uniform(0, 1, (4, 1, 4, 12, 8))
    net.forward(x, train=True)
    logits = net.forward(x, train=False)
    with pytest.raises(DependencyError, match="inference forward"):
        net.backward(np.ones_like(logits))


def test_inference_between_training_steps_leaves_gradients():
    arch = model.ArchitectureConfig(input_dims=(12, 8, 4), n_classes=3)
    rng = np.random.default_rng(5)
    batches = [rng.uniform(0, 1, (4, 1, 4, 12, 8)) for _ in range(3)]
    probe = rng.standard_normal((4, 3))
    after = []
    for interrupt in (False, True):
        net = model.build_model(arch, seed=1)
        state = AdamState(net.params, alpha=0.002)
        for step, x in enumerate(batches[:2]):
            if interrupt and step == 1:
                net.forward(batches[2], train=False)
            net.params.zero_grads()
            net.forward(x, train=True)
            net.backward(probe)
            if step == 0:
                adam_step(net.params, state)
        after.append({name: p.grad.copy() for name, p in net.params.items()})
        after[-1].update(net.state_arrays())
    assert all(np.array_equal(after[0][k], after[1][k]) for k in after[0])


@pytest.mark.parametrize("kernel_t, attention", [(1, True), (3, True),
                                                 (3, False)])
def test_whole_network_gradient_matches_finite_differences(kernel_t,
                                                           attention):
    # forward and backward as composed, over every packed parameter: the
    # skipped pw slot, the pw fold into conv1 and the layer order included
    arch = model.ArchitectureConfig(input_dims=(8, 8, 3), n_classes=3,
                                    channels=(2, 3, 2), kernel_t=kernel_t,
                                    hidden=3, attention=attention)
    net = model.build_model(arch, seed=21, dtype=np.float64)
    rng = np.random.default_rng(22)
    x = gradcheck._tie_free(rng, (4, 1, 3, 8, 8))
    probe = rng.standard_normal((4, 3))

    def loss():
        return float(np.sum(net.forward(x, train=True) * probe))

    net.params.zero_grads()
    net.forward(x, train=True)
    net.backward(probe)
    analytic = net.params.views(net.params.flat_grad.copy())
    numeric = net.params.views(
        gradcheck.numerical_grad(loss, net.params.flat_value))
    # train-mode batch norm subtracts each conv bias again, so their true
    # gradient is 0 and a relative error of rounding noise means nothing
    for name in ("conv1.b", "conv2.b"):
        assert np.abs(analytic.pop(name)).max() < 1e-9
        assert np.abs(numeric.pop(name)).max() < 1e-9
    errors = {name: gradcheck.rel_error(analytic[name], numeric[name])
              for name in analytic}
    assert max(errors.values()) < 1e-6, errors


def test_parameter_count_matches_hand_sum():
    m_dim, g_dim, t_dim, n_classes, hidden = 12, 8, 4, 5, 64
    c0, c1, c2 = 8, 16, 32
    arch = model.ArchitectureConfig(input_dims=(m_dim, g_dim, t_dim),
                                    n_classes=n_classes)
    net = model.build_model(arch, seed=0)
    # independent hand sum: pointwise conv, two conv+bn blocks, bilstm, dense
    # spatial trace for 12x8 input: pools 12->6->3, 8->4->2, avg -> 1x1
    flat = c2 * 1 * 1
    per_direction = (4 * flat * hidden      # input weights, 4 gates
                     + 4 * hidden * hidden  # recurrent weights
                     + 3 * hidden           # diagonal peepholes
                     + 4 * hidden)          # biases
    expected = ((c0 * 1 * 1 * 1 * 1 + c0)
                + (c1 * c0 * 1 * 3 * 3 + c1) + 2 * c1
                + (c2 * c1 * 1 * 3 * 3 + c2) + 2 * c2
                + 2 * per_direction
                + (2 * hidden * n_classes + n_classes))
    assert expected == 56613
    assert sum(p.value.size for _, p in net.params.items()) == expected
    assert net.params.flat_value.size == expected


def test_architecture_validation():
    with pytest.raises(ConfigError):
        model.ArchitectureConfig(input_dims=(12, 4, 4), n_classes=5).validate()
    with pytest.raises(ConfigError):
        model.ArchitectureConfig(input_dims=(12, 8, 4), n_classes=5,
                                 kernel_t=2).validate()


def test_lr_schedule_tenfold_decay():
    # initial 0.1, one-tenth every 30 epochs
    assert model.lr_schedule(0.1, 0.1, 30, 1) == 0.1
    assert model.lr_schedule(0.1, 0.1, 30, 30) == 0.1
    assert model.lr_schedule(0.1, 0.1, 30, 31) == 0.01
    assert model.lr_schedule(0.1, 0.1, 30, 61) == 0.001


def test_train_records_schedule_law():
    rng = np.random.default_rng(2)
    data = _dataset(rng, 4, 2)
    arch = model.ArchitectureConfig(input_dims=(12, 8, 4), n_classes=2)
    net = model.build_model(arch, seed=0)
    cfg = model.TrainConfig(initial_lr=0.05, lr_decay_every=3,
                            lr_decay_factor=0.5, epochs=8, batch_size=4,
                            seed=0)
    history = model.train(net, data, cfg)
    for row in history:
        expected = model.lr_schedule(0.05, 0.5, 3, row["epoch"])
        assert row["lr"] == expected


def test_single_batch_overfit():
    rng = np.random.default_rng(3)
    data = _dataset(rng, 4, 2)
    arch = model.ArchitectureConfig(input_dims=(12, 8, 4), n_classes=2)
    net = model.build_model(arch, seed=1)
    cfg = model.TrainConfig(initial_lr=0.003, lr_decay_every=100,
                            lr_decay_factor=0.1, epochs=200, batch_size=8,
                            seed=1)
    history = model.train(net, data, cfg)
    assert any(h["train_acc"] == 1.0 for h in history)
    assert history[-1]["train_acc"] == 1.0
    metrics = model.evaluate(net, data)
    assert metrics.accuracy == 1.0  # memorized set, inference mode


def test_training_deterministic():
    rng = np.random.default_rng(4)
    data = _dataset(rng, 4, 2)
    arch = model.ArchitectureConfig(input_dims=(12, 8, 4), n_classes=2)
    cfg = model.TrainConfig(initial_lr=0.003, lr_decay_every=50,
                            lr_decay_factor=0.1, epochs=10, batch_size=4,
                            seed=7)
    h1 = model.train(model.build_model(arch, seed=7), data, cfg)
    h2 = model.train(model.build_model(arch, seed=7), data, cfg)
    assert h1[-1]["loss"] == h2[-1]["loss"]
    assert [r["train_acc"] for r in h1] == [r["train_acc"] for r in h2]


def test_train_rejects_empty_class():
    rng = np.random.default_rng(5)
    data = [(t, 0) for t, _ in _dataset(rng, 4, 1)]
    arch = model.ArchitectureConfig(input_dims=(12, 8, 4), n_classes=2)
    net = model.build_model(arch, seed=0)
    cfg = model.TrainConfig(initial_lr=0.01, epochs=1, seed=0)
    with pytest.raises(DataError):
        model.train(net, data, cfg)


def test_train_rejects_empty_set():
    arch = model.ArchitectureConfig(input_dims=(12, 8, 4), n_classes=2)
    net = model.build_model(arch, seed=0)
    with pytest.raises(DataError, match="training set is empty"):
        model.train(net, [], model.TrainConfig(epochs=1))


def test_evaluate_chance_level_for_random_model():
    rng = np.random.default_rng(6)
    n, n_classes = 500, 5
    labels = np.repeat(np.arange(n_classes), n // n_classes)
    rng.shuffle(labels)
    data = [(_tensor(rng), int(y)) for y in labels]
    arch = model.ArchitectureConfig(input_dims=(12, 8, 4), n_classes=n_classes)
    net = model.build_model(arch, seed=11)
    metrics = model.evaluate(net, data)
    assert abs(metrics.accuracy - 1 / n_classes) <= 0.08


@pytest.fixture(scope="module")
def g64_eval():
    """A G=64 network and 50 labelled clips, the shipped test-split shape."""
    rng = np.random.default_rng(21)
    data = [(_tensor(rng, dims=(12, 64, 5)), k % 5) for k in range(50)]
    arch = model.ArchitectureConfig(input_dims=(12, 64, 5), n_classes=5)
    return model.build_model(arch, seed=4), data


def test_evaluate_batching_leaves_metrics_bit_identical(g64_eval):
    """The default batch (the training batch size) against one batch of 64.

    The per-clip convs and pools do not depend on the batch, but the
    recurrent and dense matmuls go through BLAS, whose kernel can change
    with the row count: a trailing batch of one clip moved logits by about
    1e-17 in float64 and 9e-9 in float32 against the same clip in a batch
    of 50. 50 clips end in a batch of two, which matches bit for bit.
    """
    net, data = g64_eval
    default = model.evaluate(net, data)
    single = model.evaluate(net, data, batch_size=64)
    assert default.kv_records() == single.kv_records()
    assert np.array_equal(default.confusion, single.confusion)


def test_evaluate_holds_one_training_batch(g64_eval):
    # in float32 one training batch's conv1 output is 3.75 MiB, and the
    # bound is two of them. Batches of 16 peak at 5.46 MiB; batches of 25
    # peaked at 8.10 and one batch of 50 at 15.42
    net, data = g64_eval
    batch_conv1_bytes = 16 * 16 * 5 * 12 * 64 * np.float32().itemsize
    tracemalloc.start()
    try:
        model.evaluate(net, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * batch_conv1_bytes


def test_confusion_bookkeeping_identity():
    y_true = [0, 0, 1, 2, 2, 2]
    y_pred = [0, 1, 1, 2, 0, 2]
    metrics = model.metrics_from_predictions(y_true, y_pred, 3)
    assert metrics.confusion.sum() == len(y_true)
    assert np.array_equal(metrics.confusion.sum(axis=1), [2, 1, 3])
    assert metrics.accuracy == np.trace(metrics.confusion) / len(y_true)


def test_label_permutation_equivariance():
    rng = np.random.default_rng(7)
    y_true = rng.integers(0, 4, 60)
    y_pred = rng.integers(0, 4, 60)
    base = model.metrics_from_predictions(y_true, y_pred, 4)
    perm = np.array([2, 3, 1, 0])
    permuted = model.metrics_from_predictions(perm[y_true], perm[y_pred], 4)
    for i in range(4):
        for j in range(4):
            assert permuted.confusion[perm[i], perm[j]] == base.confusion[i, j]
    assert permuted.accuracy == base.accuracy


def test_metrics_outputs(tmp_path):
    metrics = model.metrics_from_predictions([0, 1, 1], [0, 1, 0], 2,
                                             mean_loss=0.5,
                                             label_order=["a", "b"])
    report = metrics.report()
    assert "accuracy" in report and "class a" in report
    kv = dict(line.split("=") for line in metrics.kv_records().splitlines())
    assert float(kv["accuracy"]) == metrics.accuracy
    assert set(kv) == {"accuracy", "mean_loss", "per_class.a", "per_class.b"}
    values = {key: float(text) for key, text in kv.items()}
    assert values["per_class.a"] == 1.0 and values["per_class.b"] == 0.5
    rows = metrics.confusion_csv().splitlines()
    assert len(rows) == 2


def test_baseline_separable_case():
    rng = np.random.default_rng(8)
    x0 = rng.normal(0, 0.3, (30, 2))
    x1 = rng.normal(5, 0.3, (30, 2))
    features = np.vstack([x0, x1])
    labels = np.r_[np.zeros(30, int), np.ones(30, int)]
    clf = model.baseline_classifier(features, labels)
    assert clf.score(features, labels) == 1.0


def test_baseline_permuted_labels_chance():
    rng = np.random.default_rng(9)
    features = rng.standard_normal((200, 6))
    labels = np.repeat(np.arange(4), 50)
    rng.shuffle(labels)
    clf = model.baseline_classifier(features[:150], labels[:150], n_classes=4)
    held = clf.score(features[150:], labels[150:])
    assert abs(held - 0.25) <= 0.2


def test_baseline_loss_nonincreasing():
    rng = np.random.default_rng(10)
    features = rng.standard_normal((50, 4))
    labels = rng.integers(0, 3, 50)
    clf = model.LogisticClassifier(lr=0.05, iters=200)
    clf.fit(features, labels, n_classes=3)
    diffs = np.diff(clf.loss_history)
    assert np.all(diffs <= 1e-12)


def test_baseline_degenerate_features_no_error():
    features = np.zeros((20, 3))
    labels = np.r_[np.zeros(10, int), np.ones(10, int)]
    clf = model.baseline_classifier(features, labels)
    assert 0.0 <= clf.score(features, labels) <= 1.0


def _logistic_reference(features, labels, n_classes, lr=0.5, iters=500,
                        l2=1e-3):
    """(w, b, loss history) of multinomial logistic regression by
    full-batch gradient descent, its softmax written out by hand: the
    reference LogisticClassifier.fit must match bit for bit."""
    x = np.asarray(features, dtype=np.float64)
    sd = x.std(axis=0)
    xz = (x - x.mean(axis=0)) / np.where(sd < 1e-12, 1.0, sd)
    n, d = xz.shape
    onehot = np.eye(n_classes)[np.asarray(labels, dtype=np.intp)]
    w, b, history = np.zeros((d, n_classes)), np.zeros(n_classes), []
    for _ in range(iters):
        z = xz @ w + b
        z -= z.max(axis=1, keepdims=True)
        log_z = np.log(np.exp(z).sum(axis=1, keepdims=True))
        probs = np.exp(z - log_z)
        loss = (-np.sum(onehot * (z - log_z)) / n
                + 0.5 * l2 * np.sum(w ** 2))
        history.append(float(loss))
        delta = (probs - onehot) / n
        w -= lr * (xz.T @ delta + l2 * w)
        b -= lr * delta.sum(axis=0)
    return w, b, history


@pytest.mark.parametrize("seed, features, n_classes", [
    (30, "random", None), (31, "constant", None), (32, "random", 6),
    (33, "separable", None)])
def test_baseline_matches_the_hand_written_loop_bit_for_bit(seed, features,
                                                            n_classes):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(3), 12)
    x = {"random": rng.standard_normal((36, 5)),
         "constant": np.full((36, 5), 2.5),
         "separable": labels[:, None] * 4.0 + rng.normal(0, 0.3, (36, 5)),
         }[features]
    clf = model.LogisticClassifier().fit(x, labels, n_classes)
    w, b, history = _logistic_reference(x, labels, n_classes or 3)
    assert clf.w.tobytes() == w.tobytes()
    assert clf.b.tobytes() == b.tobytes()
    assert clf.loss_history == history


def test_ablate_degenerate_grid(toy_corpus):
    rows = model.ablate_frontend([mfcc.FrameConfig(256, 64)],
                                 [mfcc.MelConfig(26, 0, 8000, 12)],
                                 toy_corpus)
    assert len(rows) == 1
    assert set(rows[0]) == {"frame_len_ms", "frame_shift_ms", "f_low",
                            "f_high", "accuracy"}
    table = model.format_ablation_table(rows)
    assert "Accuracy" in table and len(table.splitlines()) == 3


def test_ablate_deterministic(toy_corpus):
    args = ([mfcc.FrameConfig(256, 64)], [mfcc.MelConfig(26, 0, 8000, 12)],
            toy_corpus)
    assert (model.ablate_frontend(*args)[0]["accuracy"]
            == model.ablate_frontend(*args)[0]["accuracy"])


def test_small_sample_full_size_is_noop(toy_corpus):
    fc, mc = mfcc.FrameConfig(), mfcc.MelConfig()
    gc = model.GmmConfig(n_components=8, seg_frames=10, relevance=4.0, seed=3)
    tc = model.TrainConfig(initial_lr=0.003, lr_decay_every=50, epochs=4,
                           batch_size=8, seed=3)
    full = model.run_recognition(toy_corpus, fc, mc, gc, tc)
    per_device = 4  # 6 clips at 0.67 train fraction
    small = model.small_sample_protocol(toy_corpus, per_device, fc, mc, gc, tc,
                                        select_seed=3)
    assert small.metrics.accuracy == full.metrics.accuracy
    assert np.array_equal(small.metrics.confusion, full.metrics.confusion)


def test_small_sample_insufficient_clips(toy_corpus):
    fc, mc = mfcc.FrameConfig(), mfcc.MelConfig()
    gc = model.GmmConfig(n_components=8, seg_frames=10, relevance=4.0, seed=3)
    tc = model.TrainConfig(initial_lr=0.003, epochs=1, seed=3)
    with pytest.raises(DataError):
        model.small_sample_protocol(toy_corpus, 10, fc, mc, gc, tc)


def test_end_to_end_determinism(toy_corpus):
    fc, mc = mfcc.FrameConfig(), mfcc.MelConfig()
    gc = model.GmmConfig(n_components=8, seg_frames=10, relevance=4.0, seed=5)
    tc = model.TrainConfig(initial_lr=0.003, lr_decay_every=50, epochs=3,
                           batch_size=8, seed=5)
    a = model.run_recognition(toy_corpus, fc, mc, gc, tc)
    b = model.run_recognition(toy_corpus, fc, mc, gc, tc)
    assert a.metrics.accuracy == b.metrics.accuracy
    assert a.metrics.mean_loss == b.metrics.mean_loss
    assert np.array_equal(a.metrics.confusion, b.metrics.confusion)
    assert np.array_equal(a.ubm.means, b.ubm.means)


def test_checkpoint_restores_model():
    rng = np.random.default_rng(12)
    data = _dataset(rng, 4, 2)
    arch = model.ArchitectureConfig(input_dims=(12, 8, 4), n_classes=2)
    net = model.build_model(arch, seed=2)
    cfg = model.TrainConfig(initial_lr=0.003, lr_decay_every=50, epochs=5,
                            batch_size=4, seed=2)
    model.train(net, data, cfg)
    import tempfile
    from deviceprint.nn import load_checkpoint, save_checkpoint
    with tempfile.TemporaryDirectory() as td:
        path = td + "/m.ckpt"
        save_checkpoint(path, net.state_arrays())
        twin = model.build_model(arch, seed=99)
        twin.load_state(load_checkpoint(path))
    xs, _ = model.stack_features(data)
    assert np.array_equal(net.forward(xs, train=False),
                          twin.forward(xs, train=False))


def _record_layer_dtypes(net):
    """Wrap every layer's forward and backward so that each call appends
    (layer, method, dtype of what it returned) to the returned list."""
    seen = []
    for layer in net.layers[1:]:
        for method in ("forward", "backward"):
            def recorded(*args, _call=getattr(layer, method), _layer=layer,
                         _method=method, **kwargs):
                out = _call(*args, **kwargs)
                if out is not None:  # conv1's backward returns nothing
                    seen.append((type(_layer).__name__, _method, out.dtype))
                return out
            setattr(layer, method, recorded)
    return seen


def test_float32_network_stays_float32(tmp_path):
    # one train step, an inference, and a checkpoint round trip: every
    # layer output (gradients included), the flat buffers, both Adam
    # moments and the running statistics are float32
    arch = model.ArchitectureConfig(input_dims=(12, 8, 5), n_classes=3)
    net = model.build_model(arch, seed=3)
    seen = _record_layer_dtypes(net)
    rng = np.random.default_rng(14)
    x = rng.uniform(0, 1, (6, 1, 5, 12, 8))
    state = AdamState(net.params, alpha=0.002)
    net.params.zero_grads()
    logits = net.forward(x, train=True)
    loss, dlogits = softmax_cross_entropy(logits, np.eye(3)[[0, 1, 2] * 2])
    net.backward(dlogits)
    adam_step(net.params, state)
    inferred = net.forward(x, train=False)
    assert isinstance(loss, float)
    assert len(seen) == 3 * len(net.layers[1:]) - 1
    assert {dtype for _, _, dtype in seen} == {np.dtype(np.float32)}, seen
    buffers = [net.params.flat_value, net.params.flat_grad, state.flat_m,
               state.flat_v, logits, dlogits, inferred]
    assert all(buf.dtype == np.float32 for buf in buffers)
    assert all(v.dtype == np.float32 for v in net.state_arrays().values())

    save_checkpoint(tmp_path / "m.ckpt", net.state_arrays())
    twin = model.build_model(arch, seed=4)
    twin.load_state(load_checkpoint(tmp_path / "m.ckpt"))
    assert all(v.dtype == np.float32 for v in twin.state_arrays().values())
    assert twin.forward(x, train=False).dtype == np.float32


def test_float32_and_float64_networks_agree_on_the_first_step():
    # measured: 1.5e-7 to 5.3e-7 relative on logits and 2.8e-7 to 3.8e-7
    # on flat_grad at G=8 over four seeds, 1.2e-6 on flat_grad at G=64
    arch = model.ArchitectureConfig(input_dims=(12, 8, 5), n_classes=5)
    rng = np.random.default_rng(15)
    x = rng.uniform(0, 1, (16, 1, 5, 12, 8))
    onehot = np.eye(5)[np.arange(16) % 5]
    step = {}
    for dtype in (np.float32, np.float64):
        net = model.build_model(arch, seed=15, dtype=dtype)
        net.params.zero_grads()
        logits = net.forward(x, train=True)
        net.backward(softmax_cross_entropy(logits, onehot)[1])
        step[dtype] = (logits, net.params.flat_grad)
    for narrow, wide in zip(step[np.float32], step[np.float64]):
        assert narrow.dtype == np.float32 and wide.dtype == np.float64
        assert gradcheck.rel_error(narrow.astype(np.float64), wide) < 1e-5


def test_float32_checkpoint_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(16)
    data = _dataset(rng, 3, 2)
    arch = model.ArchitectureConfig(input_dims=(12, 8, 4), n_classes=2)
    net = model.build_model(arch, seed=16)
    model.train(net, data, model.TrainConfig(epochs=2, batch_size=4))
    save_checkpoint(tmp_path / "m.ckpt", net.state_arrays())
    twin = model.build_model(arch, seed=17)
    twin.load_state(load_checkpoint(tmp_path / "m.ckpt"))
    want, got = net.state_arrays(), twin.state_arrays()
    assert list(got) == list(want)
    assert all(got[k].tobytes() == want[k].tobytes() for k in want)


@pytest.mark.parametrize("name, value, error", [
    ("bn1.running_mean", None, ConfigError),
    ("fc.b", None, ConfigError),
    ("bn2.running_var", np.ones(3), ShapeError),
    ("fc.w.m", np.ones(3), ConfigError),  # an array the network lacks
])
def test_load_state_checks_before_mutating(name, value, error):
    arch = model.ArchitectureConfig(input_dims=(12, 8, 4), n_classes=2)
    source = model.build_model(arch, seed=1).state_arrays()
    if value is None:
        del source[name]
    else:
        source[name] = value
    net = model.build_model(arch, seed=2)
    before = {k: v.copy() for k, v in net.state_arrays().items()}
    with pytest.raises(error):
        net.load_state(source)
    after = net.state_arrays()
    assert all(np.array_equal(before[k], after[k]) for k in before)


@pytest.mark.parametrize("g, trace", [
    (8, [(6, 4), (3, 2), (1, 1)]),
    (64, [(6, 32), (3, 16), (1, 8)]),
])
def test_spatial_trace_three_pools(g, trace):
    arch = model.ArchitectureConfig(input_dims=(12, g, 5), n_classes=5)
    assert arch.spatial_trace() == trace
    assert arch.flatten_size() == 32 * trace[-1][0] * trace[-1][1]


def test_fit_architecture_rejects_mixed_shapes():
    rng = np.random.default_rng(13)
    tensors = [(_tensor(rng), 0), (_tensor(rng, dims=(12, 8, 5)), 1)]
    with pytest.raises(DataError):
        model.fit_architecture(tensors, 2)
    arch = model.fit_architecture(tensors[:1], 2, hidden=16)
    assert arch.input_dims == (12, 8, 4) and arch.hidden == 16
    assert arch.channels == model.ArchitectureConfig((12, 8, 4), 2).channels


def test_fit_architecture_rejects_an_empty_set():
    with pytest.raises(DataError, match="no tensors"):
        model.fit_architecture([], 2)
