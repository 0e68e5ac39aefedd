import numpy as np
import pytest

from deviceprint import gmm
from deviceprint.errors import ConfigError, DataError, FormatError, ShapeError, TooShortError
from deviceprint.mfcc import MfccMatrix


def _mfcc(coeffs):
    return MfccMatrix(np.asarray(coeffs, dtype=float))


def _random_gmm(rng, n_components, n_dims):
    w = rng.uniform(0.5, 1.5, n_components)
    return gmm.DiagGmm(w / w.sum(),
                       rng.standard_normal((n_components, n_dims)),
                       rng.uniform(0.5, 2.0, (n_components, n_dims)))


# --- EM -------------------------------------------------------------------

def test_em_single_component_closed_form():
    rng = np.random.default_rng(0)
    frames = rng.standard_normal((4, 300)) * 2.0 + 1.0
    fitted = gmm.em_fit(frames, 1, seed=0)
    assert np.max(np.abs(fitted.means[0] - frames.mean(axis=1))) < 1e-12
    assert np.max(np.abs(fitted.variances[0] - frames.var(axis=1))) < 1e-12
    assert fitted.weights[0] == pytest.approx(1.0)


def test_em_two_separated_gaussians():
    rng = np.random.default_rng(1)
    data = np.concatenate([rng.normal(0, 1, 500),
                           rng.normal(10, 1, 500)])[None, :]
    fitted = gmm.em_fit(data, 2, seed=1)
    means = np.sort(fitted.means[:, 0])
    assert abs(means[0] - 0.0) < 0.2 and abs(means[1] - 10.0) < 0.2
    assert np.max(np.abs(fitted.weights - 0.5)) < 0.05


def test_em_log_likelihood_monotone():
    rng = np.random.default_rng(2)
    frames = rng.standard_normal((3, 400))
    fitted = gmm.em_fit(frames, 4, seed=2)
    lls = fitted.diagnostics["log_likelihoods"]
    assert len(lls) >= 2
    assert np.all(np.diff(lls) >= -1e-8)


def test_em_degenerate_input_flagged():
    frames = np.ones((3, 50))
    fitted = gmm.em_fit(frames, 2, seed=0)
    assert fitted.diagnostics["degenerate"]
    assert np.all(fitted.variances > 0)


def test_em_preconditions():
    with pytest.raises(DataError):
        gmm.em_fit(np.zeros((2, 3)), 4)
    with pytest.raises(ConfigError):
        gmm.em_fit(np.zeros((2, 10)), 0)
    with pytest.raises(ConfigError):
        gmm.em_fit(np.zeros((2, 10)), 2, max_iters=0)


def test_em_buffered_posteriors_match_unbuffered(monkeypatch):
    # every posterior pass of the EM loop, run in its reused buffers, equals
    # a fresh unbuffered pass bit for bit
    rng = np.random.default_rng(16)
    frames = np.hstack([rng.standard_normal((3, 150)) + c
                        for c in (-4.0, 0.0, 5.0)])
    plain = gmm._posteriors
    checked = []

    def compare(model, x, x2=None, bufs=None):
        want_resp, want_ll = plain(model, x)
        resp, ll = plain(model, x, x2, bufs)
        assert bufs is not None and resp is bufs[0]
        assert np.array_equal(x2, x ** 2)
        assert ll == want_ll and np.array_equal(resp, want_resp)
        checked.append(ll)
        return resp, ll

    monkeypatch.setattr(gmm, "_posteriors", compare)
    fit = gmm.em_fit(frames, 5, max_iters=8, tol=-np.inf, seed=1)
    assert len(checked) == fit.diagnostics["iterations"] == 8
    assert checked == fit.diagnostics["log_likelihoods"]


def test_em_seed_deterministic():
    rng = np.random.default_rng(3)
    frames = rng.standard_normal((4, 200))
    a = gmm.em_fit(frames, 3, seed=5)
    b = gmm.em_fit(frames, 3, seed=5)
    assert np.array_equal(a.means, b.means)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.variances, b.variances)


# --- log-likelihood ---------------------------------------------------------

def test_log_likelihood_at_mode():
    model = gmm.DiagGmm(np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2)))
    ll = gmm.log_likelihood(model, np.zeros((2, 1)))
    assert ll == pytest.approx(np.log(1.0 / (2 * np.pi)), abs=1e-12)


def test_log_likelihood_additive():
    rng = np.random.default_rng(4)
    model = _random_gmm(rng, 3, 2)
    frames = rng.standard_normal((2, 20))
    single = gmm.log_likelihood(model, frames)
    doubled = gmm.log_likelihood(model, np.hstack([frames, frames]))
    assert doubled == pytest.approx(2 * single)


def test_log_likelihood_naive_oracle():
    rng = np.random.default_rng(5)
    model = _random_gmm(rng, 3, 2)
    frames = rng.standard_normal((2, 10)) * 0.5
    naive = 0.0
    for i in range(frames.shape[1]):
        x = frames[:, i]
        p = 0.0
        for g in range(3):
            gauss = np.prod(np.exp(-0.5 * (x - model.means[g]) ** 2
                                   / model.variances[g])
                            / np.sqrt(2 * np.pi * model.variances[g]))
            p += model.weights[g] * gauss
        naive += np.log(p)
    assert gmm.log_likelihood(model, frames) == pytest.approx(naive, abs=1e-9)


def test_posteriors_zero_only_what_exp_underflows():
    # components 40 standard deviations apart: most log-ratios lie below
    # exp's underflow, where the plain formula gives 0.0 or a subnormal
    rng = np.random.default_rng(14)
    means = np.array([[-40.0, 0.0], [0.0, 0.0], [40.0, 0.0]])
    model = gmm.DiagGmm(np.full(3, 1 / 3), means, np.ones((3, 2)))
    x = np.column_stack([rng.uniform(-45.0, 45.0, 400),
                         rng.standard_normal(400)])
    lp = gmm._component_log_probs(model, x)
    top = lp.max(axis=1, keepdims=True)
    log_px = top + np.log(np.sum(np.exp(lp - top), axis=1, keepdims=True))
    plain = np.exp(lp - log_px)
    assert np.any(plain == 0.0)
    assert np.any((plain > 0.0) & (plain < np.finfo(float).tiny))
    resp, ll = gmm._posteriors(model, x)
    assert ll == float(log_px.sum())
    assert np.max(np.abs(resp - plain)) <= 1e-300
    assert np.all(resp[lp - log_px < -700.0] == 0.0)


def test_log_likelihood_shape_error():
    model = gmm.DiagGmm(np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2)))
    with pytest.raises(ShapeError):
        gmm.log_likelihood(model, np.zeros((3, 5)))


# --- MAP adaptation ---------------------------------------------------------

def test_map_prior_dominates():
    rng = np.random.default_rng(6)
    ubm = _random_gmm(rng, 4, 3)
    segment = rng.standard_normal((3, 12))
    adapted = gmm.map_adapt_means(ubm, segment, 1e12)
    assert np.max(np.abs(adapted - ubm.means)) < 1e-9


def test_map_data_dominates_at_zero_relevance():
    rng = np.random.default_rng(7)
    ubm = _random_gmm(rng, 2, 2)
    segment = rng.standard_normal((2, 30))
    adapted = gmm.map_adapt_means(ubm, segment, 0.0)
    resp, _ = gmm._posteriors(ubm, segment.T)
    occ = resp.sum(axis=0)
    expected = (resp.T @ segment.T) / occ[:, None]
    assert np.max(np.abs(adapted - expected)) < 1e-12


def test_map_single_component_closed_form():
    rng = np.random.default_rng(8)
    ubm = gmm.DiagGmm(np.array([1.0]), np.array([[1.0, -2.0]]),
                      np.array([[1.0, 0.5]]))
    segment = rng.standard_normal((2, 7))
    for r in (0.0, 1.0, 16.0, 250.0):
        adapted = gmm.map_adapt_means(ubm, segment, r)[0]
        expected = (7 * segment.mean(axis=1) + r * ubm.means[0]) / (7 + r)
        assert np.max(np.abs(adapted - expected)) < 1e-12


def test_map_convexity():
    rng = np.random.default_rng(9)
    ubm = _random_gmm(rng, 4, 3)
    segment = rng.standard_normal((3, 15))
    resp, _ = gmm._posteriors(ubm, segment.T)
    occ = resp.sum(axis=0)
    data_means = ubm.means.copy()
    touched = occ > 0
    data_means[touched] = (resp.T @ segment.T)[touched] / occ[touched, None]
    for r in (0.0, 0.5, 4.0, 64.0):
        adapted = gmm.map_adapt_means(ubm, segment, r)
        lo = np.minimum(data_means, ubm.means) - 1e-12
        hi = np.maximum(data_means, ubm.means) + 1e-12
        assert np.all(adapted >= lo) and np.all(adapted <= hi)


def test_map_rejects_negative_relevance():
    ubm = gmm.DiagGmm(np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2)))
    with pytest.raises(ConfigError):
        gmm.map_adapt_means(ubm, np.zeros((2, 3)), -1.0)


# --- segmentation and normalization ----------------------------------------

def test_segment_frames_too_short():
    # a clip must fill at least one segment of extract_sgmm's
    ubm = _random_gmm(np.random.default_rng(16), 2, 3)
    with pytest.raises(TooShortError, match="4 frames cannot fill a 5-frame"):
        gmm.extract_sgmm(ubm, _mfcc(np.zeros((3, 4))), 5, 4.0)
    with pytest.raises(ConfigError, match="seg_frames"):
        gmm.extract_sgmm(ubm, _mfcc(np.zeros((3, 4))), 0, 4.0)


def test_minmax_affine_row():
    out = gmm.minmax_normalize(np.array([[2.0, 4.0, 6.0]]))
    assert np.array_equal(out, [[0.0, 0.5, 1.0]])


def test_minmax_constant_row():
    out = gmm.minmax_normalize(np.array([[5.0, 5.0, 5.0]]))
    assert np.array_equal(out, [[0.0, 0.0, 0.0]])


def test_minmax_range_contract():
    rng = np.random.default_rng(10)
    mat = rng.standard_normal((6, 9))
    out = gmm.minmax_normalize(mat)
    assert np.allclose(out.min(axis=1), 0.0)
    assert np.allclose(out.max(axis=1), 1.0)


# --- temporal tensor assembly ------------------------------------------------

def test_sgmm_shape_contract():
    rng = np.random.default_rng(11)
    ubm = gmm.em_fit(rng.standard_normal((12, 200)), 8, seed=0)
    mat = _mfcc(rng.standard_normal((12, 40)))
    tensor = gmm.extract_sgmm(ubm, mat, 10, 4.0)
    assert tensor.data.shape == (12, 8, 4)
    assert np.all(tensor.data >= 0.0) and np.all(tensor.data <= 1.0)


def test_sgmm_identical_halves():
    rng = np.random.default_rng(12)
    ubm = gmm.em_fit(rng.standard_normal((4, 100)), 3, seed=0)
    half = rng.standard_normal((4, 10))
    mat = _mfcc(np.hstack([half, half]))
    tensor = gmm.extract_sgmm(ubm, mat, 10, 4.0)
    assert np.array_equal(tensor.data[:, :, 0], tensor.data[:, :, 1])


def test_sgmm_prior_dominates_limit():
    rng = np.random.default_rng(13)
    ubm = gmm.em_fit(rng.standard_normal((4, 100)), 3, seed=0)
    mat = _mfcc(rng.standard_normal((4, 30)))
    tensor = gmm.extract_sgmm(ubm, mat, 10, 1e12)
    reference = gmm.minmax_normalize(ubm.means.T)
    for t in range(tensor.data.shape[2]):
        assert np.max(np.abs(tensor.data[:, :, t] - reference)) < 1e-9


def test_sgmm_segment_permutation_equivariance():
    rng = np.random.default_rng(14)
    ubm = gmm.em_fit(rng.standard_normal((4, 100)), 3, seed=0)
    blocks = [rng.standard_normal((4, 5)) for _ in range(4)]
    base = gmm.extract_sgmm(ubm, _mfcc(np.hstack(blocks)), 5, 4.0)
    perm = [2, 0, 3, 1]
    permuted = gmm.extract_sgmm(
        ubm, _mfcc(np.hstack([blocks[i] for i in perm])), 5, 4.0)
    assert np.array_equal(permuted.data, base.data[:, :, perm])


def _oracle_input(rng, case):
    """(UBM, MFCC matrix, segment length) for one oracle input."""
    if case == "far component":
        base = _random_gmm(rng, 6, 4)
        means = base.means.copy()
        means[5] = 50.0
        ubm = gmm.DiagGmm(base.weights, means, base.variances)
        return ubm, _mfcc(rng.standard_normal((4, 37))), 6
    # the shipped geometry, M=12, G=64 and 10-frame segments, under an EM
    # UBM of 32 well-separated pairs of overlapping clusters
    centers = np.repeat(rng.uniform(-30.0, 30.0, (32, 12)), 2, axis=0)
    centers[:, 0] += np.tile([-1.0, 1.0], 32)

    def frames(n):
        return (centers[rng.integers(64, size=n)]
                + rng.standard_normal((n, 12))).T

    return gmm.em_fit(frames(1280), 64, seed=0), _mfcc(frames(61)), 10


@pytest.mark.parametrize("relevance", [0.0, 4.0])
@pytest.mark.parametrize("case", ["far component", "shipped geometry"])
def test_sgmm_matches_per_segment_map_oracle(case, relevance):
    # oracle: map_adapt_means per segment, transposed and normalized, then
    # stacked. Far component: component 5 sits so far away that no segment
    # touches it. Shipped geometry: a frame shares its responsibility
    # within its pair only, so most of the 64 components keep the UBM mean
    # in every segment
    ubm, mat, seg_frames = _oracle_input(np.random.default_rng(15), case)
    n_segments = mat.n_frames // seg_frames
    used = mat.coeffs[:, :n_segments * seg_frames]
    resp, _ = gmm._posteriors(ubm, used.T)
    untouched = resp.reshape(n_segments, seg_frames, -1).sum(axis=1) == 0.0
    if case == "far component":
        assert np.all(untouched[:, 5])
    else:
        assert np.all(untouched.sum(axis=1) > 32)
    want = np.stack([gmm.minmax_normalize(
        gmm.map_adapt_means(ubm, segment, relevance).T)
        for segment in np.split(used, n_segments, axis=1)], axis=2)
    got = gmm.extract_sgmm(ubm, mat, seg_frames, relevance)
    assert got.data.shape == (ubm.n_dims, ubm.n_components, n_segments)
    assert np.array_equal(got.data, want)


def test_sgmm_rejects_bad_relevance_and_dims():
    rng = np.random.default_rng(17)
    ubm = _random_gmm(rng, 3, 4)
    with pytest.raises(ConfigError):
        gmm.extract_sgmm(ubm, _mfcc(rng.standard_normal((4, 20))), 5, -1.0)
    with pytest.raises(ShapeError):
        gmm.extract_sgmm(ubm, _mfcc(rng.standard_normal((3, 20))), 5, 4.0)


# --- serialization -----------------------------------------------------------

def test_gmm_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(16)
    model = _random_gmm(rng, 5, 3)
    path = tmp_path / "m.dgmm"
    gmm.save_gmm(path, model)
    back = gmm.load_gmm(path)
    assert np.array_equal(back.weights, model.weights)
    assert np.array_equal(back.means, model.means)
    assert np.array_equal(back.variances, model.variances)
    assert path.read_bytes()[:5] == b"DGMM1"


def test_gmm_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.dgmm"
    path.write_bytes(b"XXXXX" + b"\x00" * 32)
    with pytest.raises(FormatError):
        gmm.load_gmm(path)


def test_gmm_load_truncated_header(tmp_path):
    path = tmp_path / "short.dgmm"
    path.write_bytes(b"DGMM1\x01\x00")
    with pytest.raises(FormatError):
        gmm.load_gmm(path)


def test_sgmm_load_truncated_header(tmp_path):
    path = tmp_path / "short.sgmm"
    path.write_bytes(b"SGMM1\x01\x00")
    with pytest.raises(FormatError):
        gmm.load_sgmm(path)


def test_sgmm_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    ubm = gmm.em_fit(rng.standard_normal((4, 100)), 3, seed=0)
    tensor = gmm.extract_sgmm(ubm, _mfcc(rng.standard_normal((4, 20))),
                              10, 4.0)
    path = tmp_path / "t.sgmm"
    gmm.save_sgmm(path, tensor)
    back = gmm.load_sgmm(path)
    assert np.array_equal(back.data, tensor.data)
    assert path.read_bytes()[:5] == b"SGMM1"
    assert list(tmp_path.iterdir()) == [path]  # no .meta sidecar


def test_diag_gmm_invariants():
    with pytest.raises(ShapeError):
        gmm.DiagGmm(np.array([0.6, 0.6]), np.zeros((2, 2)), np.ones((2, 2)))
    with pytest.raises(ShapeError):
        gmm.DiagGmm(np.array([0.5, 0.5]), np.zeros((2, 2)),
                    np.array([[1.0, 0.0], [1.0, 1.0]]))
