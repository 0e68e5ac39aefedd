"""Audio ingestion and synthetic recording-chain corpus generation.

A recorded signal is modeled as ``a(t) = [s(t) + n(t)] * d(t)``: a speech-like
source plus ambient noise, convolved with a device-specific FIR channel. This
module synthesizes all three ingredients so the recognition pipeline can be
exercised end to end on labeled multi-device corpora without real recordings.
"""

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .atomic import write_atomic
from .errors import ConfigError, FormatError, UnsupportedFormatError

MANIFEST_HEADER_PREFIX = "#sgmm-manifest v1"


@dataclass
class AudioClip:
    """Mono sample sequence with its sample rate.

    Samples are dimensionless amplitudes, nominally in [-1, 1].
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ConfigError("clip must be a non-empty 1-D sample sequence")
        if not np.all(np.isfinite(self.samples)):
            raise ConfigError("clip contains non-finite samples")
        if int(self.sample_rate) <= 0:
            raise ConfigError("sample_rate must be a positive integer")
        self.sample_rate = int(self.sample_rate)


@dataclass
class DeviceProfile:
    """Per-device recording channel: FIR coloration plus ambient noise level."""

    device_id: str
    fir: np.ndarray
    noise_level: float

    def __post_init__(self):
        self.fir = np.asarray(self.fir, dtype=np.float64)
        if self.fir.ndim != 1 or self.fir.size == 0 or not np.any(self.fir != 0.0):
            raise ConfigError("device FIR needs at least one nonzero tap")
        if not (np.isfinite(self.noise_level) and self.noise_level >= 0.0):
            raise ConfigError("noise_level must be finite and >= 0")


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    device_id: str
    split: str


@dataclass
class CorpusManifest:
    """Index of generated clips: relative path, device label, train/test split."""

    entries: list
    sample_rate: int
    seed: int
    base_dir: Path = field(default=None)

    def device_ids(self):
        return sorted({e.device_id for e in self.entries})

    def for_split(self, split):
        return [e for e in self.entries if e.split == split]

    def resolve(self, entry):
        if self.base_dir is None:
            return Path(entry.path)
        return Path(self.base_dir) / entry.path

    def validate(self):
        """Every split is train or test, and no two paths share a file
        stem, which names a clip's artifacts (`mfcc/<stem>.mfcc`, ...):
        a repeated path, or `a/x.wav` beside `b/x.wav`, would share them."""
        by_stem = {}
        for e in self.entries:
            if e.split not in ("train", "test"):
                raise ConfigError(f"bad split {e.split!r} in manifest")
            stem = Path(e.path).stem
            if stem in by_stem:
                raise ConfigError(f"manifest paths {by_stem[stem]!r} and "
                                  f"{e.path!r} would share the artifacts "
                                  f"of file stem {stem!r}")
            by_stem[stem] = e.path


# ---------------------------------------------------------------------------
# WAV I/O (RIFF, mono PCM16 out; PCM int / IEEE float in)
# ---------------------------------------------------------------------------

def read_wav(path):
    """Read a PCM or IEEE-float WAV file as a mono AudioClip.

    Integer samples are scaled to [-1, 1]; multi-channel audio is downmixed
    by taking the per-frame channel mean.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[0:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise FormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos:pos + 4]
        (chunk_size,) = struct.unpack_from("<I", raw, pos + 4)
        body = raw[pos + 8:pos + 8 + chunk_size]
        if len(body) < chunk_size:
            raise FormatError(f"{path}: truncated {chunk_id!r} chunk")
        if chunk_id == b"fmt ":
            if chunk_size < 16:
                raise FormatError(f"{path}: fmt chunk too small")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            data = body
        pos += 8 + chunk_size + (chunk_size & 1)

    if fmt is None or data is None:
        raise FormatError(f"{path}: missing fmt or data chunk")
    audio_format, n_channels, sample_rate, _, _, bits = fmt
    if n_channels < 1 or sample_rate <= 0:
        raise FormatError(f"{path}: bad channel count or sample rate")
    if len(data) % max(bits // 8, 1):
        raise FormatError(f"{path}: data chunk of {len(data)} bytes is not "
                          f"a whole number of {bits}-bit samples")

    if audio_format == 1:
        if bits == 8:
            x = (np.frombuffer(data, np.uint8).astype(np.float64) - 128.0) / 128.0
        elif bits == 16:
            x = np.frombuffer(data, "<i2").astype(np.float64) / 32768.0
        elif bits == 24:
            b = np.frombuffer(data, np.uint8).reshape(-1, 3).astype(np.int32)
            v = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
            v[v >= 1 << 23] -= 1 << 24
            x = v.astype(np.float64) / float(1 << 23)
        elif bits == 32:
            x = np.frombuffer(data, "<i4").astype(np.float64) / float(1 << 31)
        else:
            raise UnsupportedFormatError(f"{path}: {bits}-bit PCM not supported")
    elif audio_format == 3:
        if bits == 32:
            x = np.frombuffer(data, "<f4").astype(np.float64)
        elif bits == 64:
            x = np.frombuffer(data, "<f8").astype(np.float64)
        else:
            raise UnsupportedFormatError(f"{path}: {bits}-bit float not supported")
    else:
        raise UnsupportedFormatError(
            f"{path}: WAV format tag {audio_format:#x} not supported")

    if x.size < n_channels:
        raise FormatError(f"{path}: data chunk holds {x.size} samples, "
                          f"less than one frame of {n_channels} channels")
    if n_channels > 1:
        x = x[: (x.size // n_channels) * n_channels]
        x = x.reshape(-1, n_channels).mean(axis=1)
    return AudioClip(x, sample_rate)


def wav_bytes(clip):
    """Encode a clip as 16-bit PCM little-endian mono WAV bytes."""
    x = np.clip(clip.samples, -1.0, 1.0)
    ints = np.clip(np.rint(x * 32768.0), -32768, 32767).astype("<i2")
    data = ints.tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(data), b"WAVE",
        b"fmt ", 16, 1, 1, clip.sample_rate,
        clip.sample_rate * 2, 2, 16,
        b"data", len(data),
    )
    return header + data


def write_wav(path, clip):
    write_atomic(path, wav_bytes(clip))


# ---------------------------------------------------------------------------
# Source and channel synthesis
# ---------------------------------------------------------------------------

def synth_source(duration_s, sample_rate, seed):
    """Synthesize a deterministic speech-like source clip.

    Harmonic stack with slow pitch drift and vibrato, gated into
    phrase-like bursts separated by silent gaps long enough that whole
    analysis frames fall inside them (the gaps are what later expose a
    device's noise floor), with a slow amplitude modulation on top.
    Harmonic content stays below ~4 kHz. Peak <= 1.

    The harmonic stack is summed on one complex phasor ``e^{i*phase}`` by
    Horner's rule (see ``_harmonic_sum``), so a clip costs one cos/sin
    pair rather than one sine per harmonic. The vibrato, drift and
    amplitude-modulation tones come from ``_tone``, which builds each
    sine by angle addition from two short tables. Each tone draws its
    amplitude, then frequency, then phase offset; the harmonics draw
    theirs (amplitude, then offset, per harmonic) before the phrase gating
    draws. That order fixes which clip a seed yields, so keep it.
    """
    if not 0 < duration_s < math.inf or round(duration_s * sample_rate) < 1:
        raise ConfigError("duration_s must be finite and span a sample")
    n = int(round(duration_s * sample_rate))
    rng = np.random.default_rng(seed)

    f0 = rng.uniform(100.0, 240.0)
    vib = rng.uniform(0.01, 0.03) * _tone(
        rng.uniform(3.0, 7.0), rng.uniform(0, 2 * np.pi), n, sample_rate)
    drift = rng.uniform(0.02, 0.06) * _tone(
        rng.uniform(0.2, 0.5), rng.uniform(0, 2 * np.pi), n, sample_rate)
    inst_freq = f0 * (1.0 + vib + drift)
    phase = 2 * np.pi * np.cumsum(inst_freq) / sample_rate

    n_harm = max(1, min(24, int(3800.0 / f0)))
    rolloff = rng.uniform(0.7, 1.5)
    amps = np.empty(n_harm)
    offsets = np.empty(n_harm)
    for k in range(1, n_harm + 1):
        amps[k - 1] = rng.uniform(0.7, 1.3) / k ** rolloff
        offsets[k - 1] = rng.uniform(0, 2 * np.pi)
    wave = _harmonic_sum(phase, amps, offsets)

    # phrase gating: voiced bursts with raised-cosine ramps, silent gaps
    gate = np.zeros(n)
    ramp = max(1, int(0.010 * sample_rate))
    pos = 0
    while pos < n:
        voiced = int(rng.uniform(0.15, 0.35) * sample_rate)
        gap = int(rng.uniform(0.70, 1.30) * sample_rate)
        seg = min(voiced, n - pos)
        burst = np.ones(seg)
        r = min(ramp, seg // 2)
        if r > 0:
            edge = 0.5 * (1 - np.cos(np.pi * np.arange(r) / r))
            burst[:r] = edge
            burst[seg - r:] = edge[::-1]
        gate[pos:pos + seg] = burst
        pos += voiced + gap

    am = 0.7 + 0.3 * _tone(
        rng.uniform(1.0, 3.0), rng.uniform(0, 2 * np.pi), n, sample_rate)
    x = wave * gate * am
    peak = np.max(np.abs(x))
    if peak > 1e-12:
        x *= 0.7 / peak
    return AudioClip(x, sample_rate)


_TONE_BLOCK = 256


def _tone(freq, offset, n, sample_rate):
    """``sin(2*pi*freq*t + offset)`` at ``t = arange(n) / sample_rate``.

    Sample ``j*B + i`` (``B = _TONE_BLOCK``) is ``sin(a_j + b_i)`` with
    block start ``a_j = w*j*B + offset`` and in-block offset ``b_i = w*i``,
    expanded by angle addition, so a tone costs about ``n / B + B`` sines
    and cosines plus one multiply-add pass instead of ``n`` sines. It
    agrees with ``np.sin`` to within a few ulps of the argument.
    """
    w = 2 * np.pi * freq / sample_rate
    n_blocks = -(-n // _TONE_BLOCK)
    inner = w * np.arange(_TONE_BLOCK)
    start = w * _TONE_BLOCK * np.arange(n_blocks) + offset
    out = np.sin(start)[:, None] * np.cos(inner)
    out += np.cos(start)[:, None] * np.sin(inner)
    return out.ravel()[:n]


def _harmonic_sum(phase, amps, offsets):
    """Return ``sum_k amps[k-1] * sin(k * phase + offsets[k-1])``, k = 1..K.

    The sum is ``Im(sum_k c_k z^k)`` with ``z = e^{i*phase}`` and
    ``c_k = amp_k e^{i*off_k}``, evaluated by Horner's rule in place on one
    complex array.
    """
    coeffs = amps * np.exp(1j * offsets)
    z = np.empty(phase.shape, dtype=np.complex128)
    np.cos(phase, out=z.real)
    np.sin(phase, out=z.imag)
    acc = np.full(phase.shape, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= z
        acc += c
    acc *= z
    return acc.imag


def apply_channel(source, profile, seed):
    """Pass a source clip through a device channel: add noise, convolve FIR.

    Output length equals the source length (convolution tail truncated).
    """
    if profile.fir.size == 0:
        raise ConfigError("device profile has an empty FIR")
    x = source.samples
    if profile.noise_level > 0:
        rng = np.random.default_rng(seed)
        x = x + rng.normal(0.0, profile.noise_level, x.size)
    out = np.convolve(x, profile.fir)[: x.size]
    return AudioClip(out, source.sample_rate)


def _biquad(x, b0, b1, b2, a0, a1, a2):
    b0, b1, b2 = b0 / a0, b1 / a0, b2 / a0
    a1, a2 = a1 / a0, a2 / a0
    y = np.zeros_like(x)
    x1 = x2 = y1 = y2 = 0.0
    for i in range(x.size):
        y[i] = b0 * x[i] + b1 * x1 + b2 * x2 - a1 * y1 - a2 * y2
        x2, x1 = x1, x[i]
        y2, y1 = y1, y[i]
    return y


def _peaking_coeffs(freq, sample_rate, gain_db, q):
    a = 10.0 ** (gain_db / 40.0)
    w0 = 2 * np.pi * freq / sample_rate
    alpha = np.sin(w0) / (2 * q)
    return (1 + alpha * a, -2 * np.cos(w0), 1 - alpha * a,
            1 + alpha / a, -2 * np.cos(w0), 1 - alpha / a)


def _highshelf_coeffs(freq, sample_rate, gain_db):
    a = 10.0 ** (gain_db / 40.0)
    w0 = 2 * np.pi * freq / sample_rate
    cw, sw = np.cos(w0), np.sin(w0)
    alpha = sw / 2.0 * math.sqrt(2.0)  # shelf slope 1
    sq = 2 * math.sqrt(a) * alpha
    return (a * ((a + 1) + (a - 1) * cw + sq),
            -2 * a * ((a - 1) + (a + 1) * cw),
            a * ((a + 1) + (a - 1) * cw - sq),
            (a + 1) - (a - 1) * cw + sq,
            2 * ((a - 1) - (a + 1) * cw),
            (a + 1) - (a - 1) * cw - sq)


# taps of a device FIR
FIR_TAPS = 64

# a candidate channel is kept once its dB magnitude response differs from
# every chosen device's by at least this much at its largest gap and on
# average; after MAX_PROFILE_ATTEMPTS draws the most separated one is kept
MIN_PEAK_GAP_DB = 6.0
MIN_MEAN_GAP_DB = 1.5
MAX_PROFILE_ATTEMPTS = 64


def make_device_profile(device_id, sample_rate, seed, noise_level=0.04):
    """Generate a random but seed-stable device channel.

    The FIR is the truncated impulse response of 2-4 random peaking-EQ
    band emphases in the speech band plus a small high shelf, normalized
    so the peak magnitude response is 1. Needs a sample rate of at least
    706 Hz, so that 0.85 x Nyquist reaches the 300 Hz floor of the bands.
    """
    nyq = sample_rate / 2.0
    top = min(6500.0, 0.85 * nyq)
    if top < 300.0:
        raise ConfigError(f"sample rate {sample_rate} Hz is too low for the "
                          f"device EQ bands (at least 706 Hz)")
    rng = np.random.default_rng(seed)
    h = np.zeros(FIR_TAPS)
    h[0] = 1.0
    for _ in range(int(rng.integers(2, 5))):
        freq = rng.uniform(300.0, top)
        gain = rng.uniform(6.0, 12.0) * rng.choice([-1.0, 1.0])
        q = rng.uniform(0.8, 3.0)
        h = _biquad(h, *_peaking_coeffs(freq, sample_rate, gain, q))
    shelf_gain = rng.uniform(1.0, 3.0) * rng.choice([-1.0, 1.0])
    h = _biquad(h, *_highshelf_coeffs(rng.uniform(0.45, 0.7) * nyq,
                                      sample_rate, shelf_gain))
    h /= np.max(np.abs(np.fft.rfft(h, 512)))
    return DeviceProfile(device_id=device_id, fir=h, noise_level=noise_level)


def _response_db(fir):
    return 20.0 * np.log10(np.abs(np.fft.rfft(fir, 512)) + 1e-12)


def select_device_profiles(n_devices, sample_rate, seed, noise_level=0.04):
    """Draw one channel per device, rejecting draws whose magnitude
    response sits too close to an already chosen device.

    Deterministic: candidate k for device d is seeded by (seed, d, k).
    After MAX_PROFILE_ATTEMPTS the most separated candidate is kept, so the
    function always returns n_devices profiles.
    """
    profiles = []
    responses = []
    for d in range(n_devices):
        device_id = f"device{d:02d}"
        best = None
        best_sep = -1.0
        for attempt in range(MAX_PROFILE_ATTEMPTS):
            cand = make_device_profile(device_id, sample_rate,
                                       [seed, d, attempt],
                                       noise_level=noise_level)
            resp = _response_db(cand.fir)
            if not responses:
                best = cand
                break
            diffs = [np.abs(resp - other) for other in responses]
            peak = min(float(dd.max()) for dd in diffs)
            mean = min(float(dd.mean()) for dd in diffs)
            sep = min(peak / MIN_PEAK_GAP_DB, mean / MIN_MEAN_GAP_DB)
            if sep > best_sep:
                best, best_sep = cand, sep
            if peak >= MIN_PEAK_GAP_DB and mean >= MIN_MEAN_GAP_DB:
                break
        profiles.append(best)
        responses.append(_response_db(best.fir))
    return profiles


# ---------------------------------------------------------------------------
# Corpus generation and manifest I/O
# ---------------------------------------------------------------------------

# Clips per chunk of a corpus build: `synth_corpus` renders this many
# clips, writes them, then renders the next chunk, so its memory does not
# grow with the corpus, and the pipeline's per-clip steps compute and
# write in the same chunks. The default 200 clips of 4 s, rendered in one
# process (2 vCPU, one BLAS thread, median of 8 alternations), took
# 1.95 s whole before the first write, 1.83 s in chunks of 32 and 2.06 s
# writing each clip as soon as it was rendered.
CHUNK_CLIPS = 32


def synth_corpus(n_devices, clips_per_device, train_fraction, sample_rate,
                 seed, out_dir, clip_seconds=4.0, noise_level=0.04):
    """Generate a labeled multi-device corpus of WAV clips plus a manifest.

    Every clip gets an independently synthesized source so content never
    correlates with the device label. Deterministic: a given seed yields
    byte-identical WAVs and manifest. Clips are rendered and written
    CHUNK_CLIPS at a time.
    """
    if n_devices < 2 or clips_per_device < 2:
        raise ConfigError("need at least 2 devices and 2 clips per device")
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError("train_fraction must be in (0, 1)")
    if (not 0 < clip_seconds < math.inf
            or round(clip_seconds * sample_rate) < 1):
        raise ConfigError("clip_seconds must be finite and span a sample")

    n_train = int(round(clips_per_device * train_fraction))
    n_train = min(max(n_train, 1), clips_per_device - 1)

    profiles = select_device_profiles(n_devices, sample_rate, seed,
                                      noise_level=noise_level)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    clips = [(d, c, profile) for d, profile in enumerate(profiles)
             for c in range(clips_per_device)]
    entries = [ManifestEntry(path=f"{profile.device_id}_{c:03d}.wav",
                             device_id=profile.device_id,
                             split="train" if c < n_train else "test")
               for _, c, profile in clips]
    for start in range(0, len(clips), CHUNK_CLIPS):
        payloads = [wav_bytes(apply_channel(
            synth_source(clip_seconds, sample_rate, [seed, d, c, 0]),
            profile, [seed, d, c, 1]))
            for d, c, profile in clips[start:start + CHUNK_CLIPS]]
        for entry, payload in zip(entries[start:], payloads):
            write_atomic(out_dir / entry.path, payload)

    manifest = CorpusManifest(entries=entries, sample_rate=sample_rate,
                              seed=seed, base_dir=out_dir)
    manifest.validate()
    write_manifest(manifest, out_dir / "manifest.tsv")
    return manifest


def write_manifest(manifest, path):
    lines = [f"{MANIFEST_HEADER_PREFIX} sr={manifest.sample_rate} "
             f"seed={manifest.seed}"]
    for e in manifest.entries:
        lines.append(f"{e.path}\t{e.device_id}\t{e.split}")
    write_atomic(path, "\n".join(lines) + "\n")


def read_manifest(path):
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: manifest is not UTF-8 text") from exc
    if not lines or not lines[0].startswith(MANIFEST_HEADER_PREFIX):
        raise FormatError(f"{path}: missing manifest header")
    try:
        header = dict(tok.split("=", 1) for tok in lines[0].split()[2:])
        sample_rate = int(header["sr"])
        seed = int(header["seed"])
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: bad manifest header fields") from exc
    entries = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise FormatError(f"{path}:{i}: expected 3 tab-separated fields")
        entries.append(ManifestEntry(*parts))
    manifest = CorpusManifest(entries=entries, sample_rate=sample_rate,
                              seed=seed, base_dir=path.parent)
    manifest.validate()
    return manifest
