"""MFCC front-end: framing, Hamming window, FFT magnitude, Mel filterbank,
log compression, and an orthonormal DCT-II, with configurable band limits
and frame geometry."""

import functools
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import write_atomic
from .errors import ConfigError, FormatError, ShapeError, TooShortError

LOG_FLOOR = 1e-10

MFCC_MAGIC = b"MFCC1"


@dataclass(frozen=True)
class FrameConfig:
    """Analysis frame geometry in milliseconds."""

    frame_len_ms: float = 256.0
    frame_shift_ms: float = 64.0

    def __post_init__(self):
        if not 0 < self.frame_shift_ms <= self.frame_len_ms:
            raise ConfigError("need 0 < frame_shift_ms <= frame_len_ms")

    def frame_len(self, sample_rate):
        n = int(round(self.frame_len_ms * sample_rate / 1000.0))
        if n < 2:
            raise ConfigError("frame length must span at least 2 samples")
        return n

    def frame_shift(self, sample_rate):
        return max(1, int(round(self.frame_shift_ms * sample_rate / 1000.0)))


@dataclass(frozen=True)
class MelConfig:
    """Mel filterbank band limits and cepstral order."""

    n_filters: int = 26
    f_low: float = 0.0
    f_high: float = 8000.0
    n_ceps: int = 12
    include_c0: bool = True

    def __post_init__(self):
        if not 0 <= self.f_low < self.f_high:
            raise ConfigError("need 0 <= f_low < f_high")
        max_ceps = self.n_filters if self.include_c0 else self.n_filters - 1
        if not 1 <= self.n_ceps <= max_ceps:
            raise ConfigError("need 1 <= n_ceps <= usable filter count")


@dataclass
class MfccMatrix:
    """Cepstral features: one column per frame, n_ceps rows."""

    coeffs: np.ndarray
    frame_config: FrameConfig
    mel_config: MelConfig

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if self.coeffs.ndim != 2 or self.coeffs.shape[1] < 1:
            raise ShapeError("MFCC matrix must be 2-D with >= 1 frame")
        if not np.all(np.isfinite(self.coeffs)):
            raise ShapeError("MFCC matrix contains non-finite entries")

    @property
    def n_ceps(self):
        return self.coeffs.shape[0]

    @property
    def n_frames(self):
        return self.coeffs.shape[1]


def frame_signal(clip, cfg):
    """Slice a clip into overlapping frames, one row per frame.

    Frame i starts at i * shift; frames that would overrun the signal are
    dropped, so the frame count is floor((len - L) / shift) + 1. The result
    is a read-only strided view of the clip's samples, not a copy.
    """
    length = cfg.frame_len(clip.sample_rate)
    shift = cfg.frame_shift(clip.sample_rate)
    x = clip.samples
    if x.size < length:
        raise TooShortError(
            f"clip has {x.size} samples, frame needs {length}")
    return np.lib.stride_tricks.sliding_window_view(x, length)[::shift]


def hamming_window(frame):
    """Apply the Hamming taper 0.54 - 0.46 cos(2 pi n / (L - 1))."""
    frame = np.asarray(frame, dtype=np.float64)
    length = frame.shape[-1]
    if length < 2:
        raise ShapeError("window needs at least 2 samples")
    n = np.arange(length)
    return frame * (0.54 - 0.46 * np.cos(2 * np.pi * n / (length - 1)))


def fft_magnitude(frame):
    """One-sided magnitude spectrum, zero-padded to the next power of two."""
    frame = np.asarray(frame, dtype=np.float64)
    length = frame.shape[-1]
    if length < 2:
        raise ShapeError("frame needs at least 2 samples")
    n_fft = 1 << (length - 1).bit_length()
    return np.abs(np.fft.rfft(frame, n_fft))


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def _mel_edges(cfg):
    """Band edges plus triangle corners, evenly spaced in Mel."""
    return np.linspace(hz_to_mel(cfg.f_low), hz_to_mel(cfg.f_high),
                       cfg.n_filters + 2)


def mel_filterbank(cfg, sample_rate, n_fft_bins):
    """Triangular filters with centers uniformly spaced on the Mel scale.

    Returns an (n_filters, n_fft_bins) weight matrix over the one-sided FFT
    bins of an n_fft = 2 * (n_fft_bins - 1) point transform. Each triangle
    is linear in Mel, peaks at 1 at its center, and is zero beyond its
    neighbors' centers.
    """
    if cfg.f_high > sample_rate / 2.0 + 1e-9:
        raise ConfigError("f_high exceeds the Nyquist frequency")
    if n_fft_bins < cfg.n_filters:
        raise ConfigError(
            f"{n_fft_bins} FFT bins cannot resolve {cfg.n_filters} filters")
    n_fft = 2 * (n_fft_bins - 1)
    bin_mels = hz_to_mel(np.arange(n_fft_bins) * sample_rate / n_fft)
    edges = _mel_edges(cfg)
    weights = np.zeros((cfg.n_filters, n_fft_bins))
    for j in range(cfg.n_filters):
        lo, center, hi = edges[j], edges[j + 1], edges[j + 2]
        rising = (bin_mels - lo) / (center - lo)
        falling = (hi - bin_mels) / (hi - center)
        weights[j] = np.clip(np.minimum(rising, falling), 0.0, None)
    return weights


def filter_centers_hz(cfg):
    """Center frequencies of the filterbank triangles, in Hz."""
    return mel_to_hz(_mel_edges(cfg)[1:-1])


def dct_matrix(n_ceps, n_filters, first_row=0):
    """Rows first_row .. first_row+n_ceps-1 of the orthonormal DCT-II."""
    k = np.arange(first_row, first_row + n_ceps)[:, None]
    j = np.arange(n_filters)[None, :]
    mat = np.cos(np.pi * k * (2 * j + 1) / (2.0 * n_filters))
    scale = np.where(k == 0, np.sqrt(1.0 / n_filters), np.sqrt(2.0 / n_filters))
    return scale * mat


@functools.lru_cache(maxsize=16)
def _mfcc_constants(mel_cfg, sample_rate, n_fft_bins):
    """The (filterbank, DCT) matrices `extract_mfcc` applies, built once
    per process for each key and returned read-only, since every caller
    shares them."""
    first_row = 0 if mel_cfg.include_c0 else 1
    mats = (mel_filterbank(mel_cfg, sample_rate, n_fft_bins),
            dct_matrix(mel_cfg.n_ceps, mel_cfg.n_filters, first_row))
    for mat in mats:
        mat.flags.writeable = False
    return mats


def extract_mfcc(clip, frame_cfg, mel_cfg):
    """Run the full front-end on one clip.

    Per frame: Hamming window, FFT magnitude, Mel filterbank, floored log,
    orthonormal DCT-II keeping the first n_ceps coefficients (or skipping
    the lowest one when include_c0 is False). Columns follow frame order.
    """
    frames = frame_signal(clip, frame_cfg)
    mags = fft_magnitude(hamming_window(frames))
    fbank, dct = _mfcc_constants(mel_cfg, clip.sample_rate, mags.shape[-1])
    energies = mags @ fbank.T
    log_energies = np.log(np.maximum(energies, LOG_FLOOR))
    return MfccMatrix(coeffs=(log_energies @ dct.T).T,
                      frame_config=frame_cfg, mel_config=mel_cfg)


# ---------------------------------------------------------------------------
# Serialization: binary record plus a CSV export for inspection
# ---------------------------------------------------------------------------

def save_mfcc(path, mfcc):
    m, n = mfcc.coeffs.shape
    payload = MFCC_MAGIC + struct.pack("<ii", m, n)
    payload += np.ascontiguousarray(mfcc.coeffs, dtype="<f8").tobytes()
    write_atomic(path, payload)


def load_mfcc(path, frame_cfg=None, mel_cfg=None):
    raw = Path(path).read_bytes()
    if raw[:5] != MFCC_MAGIC:
        raise FormatError(f"{path}: bad MFCC magic")
    if len(raw) < 13:
        raise FormatError(f"{path}: truncated MFCC header")
    m, n = struct.unpack_from("<ii", raw, 5)
    if m <= 0 or n <= 0 or len(raw) != 13 + 8 * m * n:
        raise FormatError(f"{path}: inconsistent MFCC record size")
    coeffs = np.frombuffer(raw, "<f8", offset=13).reshape(m, n)
    return MfccMatrix(coeffs=coeffs.copy(),
                      frame_config=frame_cfg or FrameConfig(),
                      mel_config=mel_cfg or MelConfig())


def export_mfcc_csv(path, mfcc):
    np.savetxt(path, mfcc.coeffs, delimiter=",")
