"""Diagonal-covariance Gaussian mixtures for device fingerprint features.

A background mixture (UBM) is fit with EM on pooled training frames. Each
short feature segment then MAP-adapts the mixture means toward its own
frames, and the per-segment adapted mean matrices, min-max normalized per
feature dimension, are stacked in time order into an M x G x T tensor
(the sequential Gaussian mean feature consumed by the classifier).

A tensor's `.sgmm` file is the whole feature: magic, M, G, T and the
data. The segment length and relevance factor behind it are config lines
(`gmm.seg_frames`, `gmm.relevance`), which the pipeline's `sgmm` stage
record keeps, so neither the file nor a tensor, loaded or extracted,
carries anything but its array.
"""

from dataclasses import InitVar, dataclass, field

import numpy as np

from .atomic import Record, pack_float64, pack_int32, write_atomic
from .errors import ConfigError, DataError, ShapeError, TooShortError

GMM_MAGIC = b"DGMM1"
SGMM_MAGIC = b"SGMM1"

_LOG_2PI = np.log(2.0 * np.pi)

# EM floors every variance at this fraction of the data's global
# per-dimension variance
VARIANCE_FLOOR_FACTOR = 1e-3


@dataclass
class DiagGmm:
    """Mixture weights, means and per-dimension (diagonal) variances.

    weights: (G,) simplex; means: (G, M); variances: (G, M), all positive.
    `diagnostics` carries EM metadata (log-likelihood trace, degeneracy
    flag) and is never serialized.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    diagnostics: dict = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.means = np.asarray(self.means, dtype=np.float64)
        self.variances = np.asarray(self.variances, dtype=np.float64)
        if self.means.ndim != 2 or self.means.shape != self.variances.shape:
            raise ShapeError("means and variances must both be (G, M)")
        if self.weights.shape != (self.means.shape[0],):
            raise ShapeError("weights must be a length-G vector")
        if np.any(self.weights < 0) or abs(self.weights.sum() - 1.0) > 1e-9:
            raise ShapeError("weights must be a simplex (within 1e-9)")
        if np.any(self.variances <= 0):
            raise ShapeError("variances must be strictly positive")
        for arr in (self.weights, self.means, self.variances):
            if not np.all(np.isfinite(arr)):
                raise ShapeError("mixture parameters must be finite")

    @property
    def n_components(self):
        return self.means.shape[0]

    @property
    def n_dims(self):
        return self.means.shape[1]


@dataclass
class SgmmTensor:
    """Temporal Gaussian-mean feature tensor of shape (M, G, T) in [0, 1].
    The tensor holds nothing but its array (the `sgmm` stage record keeps
    the config); a component count, segment length and relevance factor
    passed after the data are accepted and dropped."""

    data: np.ndarray
    n_components: InitVar[int] = None
    seg_frames: InitVar[int] = None
    relevance: InitVar[float] = None

    def __post_init__(self, n_components, seg_frames, relevance):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 3:
            raise ShapeError("feature tensor must be (M, G, T)")
        # written so that a NaN fails it too
        if not np.all((self.data >= 0.0) & (self.data <= 1.0)):
            raise ShapeError("tensor entries must lie in [0, 1]")


# ---------------------------------------------------------------------------
# Likelihood machinery (log-space throughout)
# ---------------------------------------------------------------------------

def _component_log_probs(gmm, x, x2=None, out=None, work=None):
    """log [w_g N(x; mu_g, sigma2_g)] for every frame/component pair.

    x is (N, M), result is (N, M independent) -> (N, G). x2 is x ** 2 when
    the caller already has it; the result is written into out and work is
    scratch, both (N, G) and freshly allocated when not given.
    """
    if x2 is None:
        x2 = x ** 2
    shape = (x.shape[0], gmm.n_components)
    out = np.empty(shape) if out is None else out
    work = np.empty(shape) if work is None else work
    inv_var = 1.0 / gmm.variances
    log_norm = -0.5 * (gmm.n_dims * _LOG_2PI
                       + np.sum(np.log(gmm.variances), axis=1))
    # quad = x2 @ inv_var.T - 2 (x @ (mu inv_var).T) + sum(mu^2 inv_var)
    np.matmul(x2, inv_var.T, out=out)
    np.matmul(x, (gmm.means * inv_var).T, out=work)
    work *= 2.0
    out -= work
    out += np.sum(gmm.means ** 2 * inv_var, axis=1)[None, :]
    out *= 0.5
    return np.subtract(np.log(gmm.weights)[None, :] + log_norm[None, :],
                       out, out=out)


# np.exp takes a slow per-element path for every result that underflows
# (an argument below about -708), at 18 to 110 ns an element against about
# 1 ns. Well-separated components put a fifth of a UBM's log-ratios there.
_EXP_FLOOR = -700.0


def _exp_floored(a):
    """np.exp of the fresh array a, in place, with every entry whose
    argument lies below _EXP_FLOOR set to exactly 0.0. The exact value is
    under 1e-304, so a responsibility moves by less than that, and a
    likelihood row sum, which holds the 1.0 of its top component, not at
    all."""
    low = a < _EXP_FLOOR
    np.maximum(a, _EXP_FLOOR, out=a)
    np.exp(a, out=a)
    a[low] = 0.0
    return a


def _posteriors(gmm, x, x2=None, bufs=None):
    """Responsibilities and total log-likelihood for frames x (N, M).

    x2 is x ** 2 when the caller already has it. bufs, two C-ordered
    (N, G) arrays, hold the work, and the first is returned as the
    responsibilities; without them each call allocates its own.
    """
    lp, work = (None, None) if bufs is None else bufs
    lp = _component_log_probs(gmm, x, x2, lp, work)
    top = lp.max(axis=1, keepdims=True)
    work = np.subtract(lp, top, out=work)
    log_px = top + np.log(np.sum(_exp_floored(work), axis=1,
                                 keepdims=True))
    return (_exp_floored(np.subtract(lp, log_px, out=lp)),
            float(log_px.sum()))


def log_likelihood(gmm, frames):
    """Total log-likelihood of an (M, N) frame matrix under the mixture."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] != gmm.n_dims:
        raise ShapeError(
            f"frames must be ({gmm.n_dims}, N), got {frames.shape}")
    return _posteriors(gmm, frames.T)[1]


# ---------------------------------------------------------------------------
# EM training
# ---------------------------------------------------------------------------

def _kmeanspp_centers(x, n_centers, rng):
    sub = x[rng.choice(x.shape[0], size=min(x.shape[0], 2000), replace=False)]
    centers = np.empty((n_centers, x.shape[1]))
    centers[0] = sub[rng.integers(sub.shape[0])]
    d2 = np.sum((sub - centers[0]) ** 2, axis=1)
    for g in range(1, n_centers):
        total = d2.sum()
        if total > 0:
            probs = d2 / total
            pick = rng.choice(sub.shape[0], p=probs)
        else:
            pick = rng.integers(sub.shape[0])
        centers[g] = sub[pick]
        d2 = np.minimum(d2, np.sum((sub - centers[g]) ** 2, axis=1))
    return centers


def em_fit(frames, n_components, max_iters=100, tol=1e-7, seed=0):
    """Fit a diagonal-covariance mixture to an (M, N) frame matrix by EM.

    Initialization is kmeans++-style center seeding on a subsample followed
    by one hard-assignment pass; soft EM then alternates posteriors and
    closed-form weight/mean/variance updates until the total log-likelihood
    gain drops below tol or max_iters is reached. Variances are floored at
    VARIANCE_FLOOR_FACTOR times the global per-dimension variance after
    every update, so degenerate inputs converge instead of blowing up (the
    `degenerate` diagnostic is set when the data has no spread at all).

    The squared frames are computed once, and every iteration's
    log-probabilities and responsibilities are written into the same two
    (N, G) buffers, with the operations `_posteriors` runs unbuffered.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2:
        raise ShapeError("frames must be a 2-D (M, N) matrix")
    x = frames.T
    n, m = x.shape
    if n_components < 1:
        raise ConfigError("n_components must be >= 1")
    if max_iters < 1:
        raise ConfigError("max_iters must be >= 1")
    if n < n_components:
        raise DataError(f"{n} frames cannot support {n_components} components")

    rng = np.random.default_rng(seed)
    global_var = x.var(axis=0)
    degenerate = bool(np.all(global_var < 1e-12))
    floor = np.maximum(VARIANCE_FLOOR_FACTOR * global_var, 1e-12)

    centers = _kmeanspp_centers(x, n_components, rng)
    # hard assignment in blocks of at most 2M squared differences
    assign = np.empty(n, dtype=np.intp)
    step = max(1, 2_000_000 // (n_components * m))
    for i in range(0, n, step):
        block = ((x[i:i + step, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign[i:i + step] = block.argmin(axis=1)

    weights = np.empty(n_components)
    means = np.empty((n_components, m))
    variances = np.empty((n_components, m))
    for g in range(n_components):
        members = x[assign == g]
        if members.shape[0] == 0:
            weights[g] = 1.0 / n
            means[g] = centers[g]
            variances[g] = np.maximum(global_var, floor)
        else:
            weights[g] = members.shape[0] / n
            means[g] = members.mean(axis=0)
            variances[g] = np.maximum(members.var(axis=0), floor)
    weights /= weights.sum()

    gmm = DiagGmm(weights, means, variances)
    x2 = x ** 2
    bufs = (np.empty((n, n_components)), np.empty((n, n_components)))
    lls = []
    converged = False
    for _ in range(max_iters):
        resp, ll = _posteriors(gmm, x, x2, bufs)
        lls.append(ll)
        if len(lls) > 1 and ll - lls[-2] < tol:
            converged = True
            break
        occ = resp.sum(axis=0)
        safe = occ > 1e-10
        new_w = np.where(safe, occ / n, 1.0 / n)
        new_w = new_w / new_w.sum()
        new_mu = gmm.means.copy()
        new_var = gmm.variances.copy()
        new_mu[safe] = (resp.T @ x)[safe] / occ[safe, None]
        second = (resp.T @ x2)[safe] / occ[safe, None]
        new_var[safe] = second - new_mu[safe] ** 2
        new_var = np.maximum(new_var, floor)
        gmm = DiagGmm(new_w, new_mu, new_var)

    gmm.diagnostics = {
        "log_likelihoods": lls,
        "iterations": len(lls),
        "converged": converged,
        "degenerate": degenerate,
    }
    return gmm


# ---------------------------------------------------------------------------
# MAP adaptation and temporal feature assembly
# ---------------------------------------------------------------------------

def map_adapt_means(ubm, segment, relevance):
    """MAP-adapt only the mixture means toward one (M, t) segment.

    With occupancies n_g and posterior data means E_g under the UBM, the
    adapted mean is a_g E_g + (1 - a_g) mu_g with a_g = n_g / (n_g + r).
    Components the segment never touches keep the UBM mean. Returns (G, M).
    """
    _check_relevance(relevance)
    segment = np.asarray(segment, dtype=np.float64)
    if segment.ndim != 2 or segment.shape[0] != ubm.n_dims:
        raise ShapeError(
            f"segment must be ({ubm.n_dims}, t), got {segment.shape}")
    x = segment.T
    return _adapted_means(ubm, x[None], _posteriors(ubm, x)[0][None],
                          relevance)[0]


def _check_relevance(relevance):
    if not 0 <= relevance < np.inf:  # NaN fails it too
        raise ConfigError("relevance factor must be finite and >= 0")


def _adapted_means(ubm, x, resp, relevance):
    """The `map_adapt_means` formula for S segments at once, given their
    frames x (S, t, M) and responsibilities resp (S, t, G) under the UBM.
    Returns (S, G, M); a component a segment never touches keeps the UBM
    mean and an alpha of 0."""
    occ = resp.sum(axis=1)[:, :, None]
    touched = occ > 0
    sums = resp.transpose(0, 2, 1) @ x
    posterior_means = np.divide(
        sums, occ, out=np.broadcast_to(ubm.means, sums.shape).copy(),
        where=touched)
    alpha = np.divide(occ, occ + relevance, out=np.zeros_like(occ),
                      where=touched)
    return alpha * posterior_means + (1.0 - alpha) * ubm.means


def minmax_normalize(matrix):
    """Rescale each row to [0, 1]; rows with no spread map to all zeros."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.size == 0:
        raise ShapeError("cannot normalize an empty matrix")
    lo = matrix.min(axis=-1, keepdims=True)
    hi = matrix.max(axis=-1, keepdims=True)
    span = hi - lo
    flat = span == 0
    return np.where(flat, 0.0, (matrix - lo) / np.where(flat, 1.0, span))


def extract_sgmm(ubm, mfcc, seg_frames, relevance):
    """Build the (M, G, T) temporal Gaussian-mean tensor for one clip.

    The clip is cut into consecutive seg_frames-frame segments, dropping
    the tail. Each segment is MAP-adapted, transposed to (M, G), min-max
    normalized per feature row, and stacked along the third axis in
    segment order.
    The responsibilities of all the segments' frames come from one
    `_posteriors` pass, and every segment is adapted in one batched pass
    of the formula `map_adapt_means` applies, from its own rows of them.
    """
    _check_relevance(relevance)
    if seg_frames < 1:
        raise ConfigError("seg_frames must be >= 1")
    n_segments = mfcc.n_frames // seg_frames
    if n_segments < 1:
        raise TooShortError(f"{mfcc.n_frames} frames cannot fill a "
                            f"{seg_frames}-frame segment")
    if mfcc.n_ceps != ubm.n_dims:
        raise ShapeError(f"segments must be ({ubm.n_dims}, t), got "
                         f"({mfcc.n_ceps}, {seg_frames})")
    x = mfcc.coeffs[:, :n_segments * seg_frames].T
    resp, _ = _posteriors(ubm, x)
    segments = (n_segments, seg_frames, -1)
    means = _adapted_means(ubm, x.reshape(segments), resp.reshape(segments),
                           relevance)
    return SgmmTensor(
        minmax_normalize(means.transpose(0, 2, 1)).transpose(1, 2, 0))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def save_gmm(path, gmm):
    write_atomic(path, GMM_MAGIC + pack_int32(*gmm.means.shape) + b"".join(
        map(pack_float64, (gmm.weights, gmm.means, gmm.variances))))


def load_gmm(path):
    record = Record(path, GMM_MAGIC, "mixture")
    g, m = record.ints(2, least=1)
    arrays = [record.array(shape) for shape in ((g,), (g, m), (g, m))]
    return record.build(DiagGmm, *arrays)


def save_sgmm(path, tensor):
    write_atomic(path, SGMM_MAGIC + pack_int32(*tensor.data.shape)
                 + pack_float64(tensor.data))


def load_sgmm(path):
    record = Record(path, SGMM_MAGIC, "feature tensor")
    return record.build(SgmmTensor, record.array(record.ints(3, least=1)))
