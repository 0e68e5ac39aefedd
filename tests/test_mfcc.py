import numpy as np
import pytest
from scipy.fft import dct as scipy_dct

from deviceprint import mfcc
from deviceprint.audio import AudioClip
from deviceprint.errors import ConfigError, FormatError, TooShortError


def _clip(samples, sr=16000):
    return AudioClip(np.asarray(samples, dtype=float), sr)


def test_frame_signal_arithmetic():
    clip = _clip(np.arange(10), sr=1000)
    cfg = mfcc.FrameConfig(frame_len_ms=4.0, frame_shift_ms=2.0)
    frames = mfcc.frame_signal(clip, cfg)
    assert frames.shape == (4, 4)
    assert np.array_equal(frames[:, 0], [0, 2, 4, 6])


def test_frame_signal_single_frame_boundary():
    clip = _clip(np.arange(8), sr=1000)
    cfg = mfcc.FrameConfig(frame_len_ms=8.0, frame_shift_ms=3.0)
    frames = mfcc.frame_signal(clip, cfg)
    assert frames.shape == (1, 8)
    assert np.array_equal(frames[0], np.arange(8))


def test_frame_signal_table_geometry():
    # 256 ms / 64 ms at 16 kHz on a 2.0 s clip: floor((32000-4096)/1024)+1
    clip = _clip(np.zeros(32000))
    frames = mfcc.frame_signal(clip, mfcc.FrameConfig(256, 64))
    assert frames.shape[0] == 28


def test_frame_signal_is_read_only_view():
    clip = _clip(np.arange(1000.0))
    frames = mfcc.frame_signal(clip, mfcc.FrameConfig(16, 4))
    assert np.shares_memory(frames, clip.samples)
    assert not frames.flags.writeable
    with pytest.raises(ValueError):
        frames[0, 0] = 1.0


def test_frame_signal_too_short():
    with pytest.raises(TooShortError):
        mfcc.frame_signal(_clip(np.zeros(100)), mfcc.FrameConfig(256, 64))


def test_hamming_closed_form():
    w = mfcc.hamming_window(np.ones(5))
    assert np.max(np.abs(w - [0.08, 0.54, 1.0, 0.54, 0.08])) < 1e-12


def test_hamming_endpoints_and_symmetry():
    w = mfcc.hamming_window(np.ones(64))
    assert w[0] == pytest.approx(0.08)
    assert w[-1] == pytest.approx(0.08)
    assert np.allclose(w, w[::-1])


def test_fft_magnitude_impulse():
    mag = mfcc.fft_magnitude(np.r_[1.0, np.zeros(63)])
    assert mag.shape == (33,)
    assert np.allclose(mag, 1.0)


def test_fft_magnitude_single_tone():
    length = 64
    k = 5
    frame = np.cos(2 * np.pi * k * np.arange(length) / length)
    mag = mfcc.fft_magnitude(frame)
    assert mag[k] == pytest.approx(length / 2)
    others = np.delete(mag, k)
    assert np.max(others) < 1e-9


def test_fft_magnitude_matches_naive_dft():
    rng = np.random.default_rng(0)
    frame = rng.standard_normal(64)
    mag = mfcc.fft_magnitude(frame)
    naive = np.array([abs(sum(frame[n] * np.exp(-2j * np.pi * k * n / 64)
                              for n in range(64))) for k in range(33)])
    assert np.max(np.abs(mag - naive)) < 1e-9


def test_fft_magnitude_pads_to_power_of_two():
    mag = mfcc.fft_magnitude(np.ones(48))
    assert mag.shape == (33,)  # padded to 64


def test_filterbank_nonnegative_unimodal():
    cfg = mfcc.MelConfig(26, 0.0, 8000.0, 12)
    weights = mfcc.mel_filterbank(cfg, 16000, 257)
    assert np.all(weights >= 0)
    for row in weights:
        peak = row.argmax()
        assert np.all(np.diff(row[:peak + 1]) >= -1e-15)
        assert np.all(np.diff(row[peak:]) <= 1e-15)


def test_filterbank_centers_increasing_and_mel_spaced():
    cfg = mfcc.MelConfig(26, 0.0, 8000.0, 12)
    centers = mfcc.filter_centers_hz(cfg)
    assert np.all(np.diff(centers) > 0)
    mels = mfcc.hz_to_mel(centers)
    spacing = np.diff(mels)
    assert np.max(np.abs(spacing - spacing[0])) < 1e-9


def test_filterbank_resolution_error():
    cfg = mfcc.MelConfig(26, 0.0, 8000.0, 12)
    with pytest.raises(ConfigError):
        mfcc.mel_filterbank(cfg, 16000, 20)


def test_mel_config_validation():
    with pytest.raises(ConfigError):
        mfcc.MelConfig(26, 4000.0, 100.0, 12)
    with pytest.raises(ConfigError):
        mfcc.MelConfig(26, 0.0, 8000.0, 27)


def test_extract_identical_frames_identical_columns():
    pattern = np.sin(np.arange(512) * 0.1)
    clip = _clip(np.tile(pattern, 2))
    cfg = mfcc.FrameConfig(32, 32)
    out = mfcc.extract_mfcc(clip, cfg, mfcc.MelConfig(26, 0, 8000, 12))
    assert out.coeffs.shape[1] == 2
    assert np.array_equal(out.coeffs[:, 0], out.coeffs[:, 1])


def test_extract_silence_hits_log_floor():
    clip = _clip(np.zeros(2048))
    out = mfcc.extract_mfcc(clip, mfcc.FrameConfig(32, 16),
                            mfcc.MelConfig(26, 0, 8000, 12))
    assert out.coeffs.shape[1] > 1
    assert np.allclose(out.coeffs, out.coeffs[:, :1])


def test_extract_stagewise_oracle():
    # independent recomputation of one frame: window, FFT, filterbank,
    # floored log, then scipy's orthonormal DCT-II
    rng = np.random.default_rng(1)
    samples = rng.standard_normal(512)
    cfg = mfcc.MelConfig(26, 0.0, 8000.0, 12)
    got = mfcc.extract_mfcc(_clip(samples), mfcc.FrameConfig(32, 32),
                            cfg).coeffs[:, 0]
    n = np.arange(512)
    windowed = samples * (0.54 - 0.46 * np.cos(2 * np.pi * n / 511))
    mag = np.abs(np.fft.rfft(windowed, 512))
    fbank = mfcc.mel_filterbank(cfg, 16000, 257)
    logs = np.log(np.maximum(fbank @ mag, 1e-10))
    want = scipy_dct(logs, type=2, norm="ortho")[:12]
    assert np.max(np.abs(got - want)) < 1e-9


def test_extract_matches_composed_stages_through_cache():
    # two mel configs at two sample rates, alternating through the cache of
    # filterbank and DCT matrices: each result equals the public stages
    # composed by hand, bit for bit
    rng = np.random.default_rng(4)
    frame_cfg = mfcc.FrameConfig(32, 16)
    configs = [mfcc.MelConfig(26, 0.0, 4000.0, 12),
               mfcc.MelConfig(20, 300.0, 3800.0, 10, include_c0=False)]
    mfcc._mfcc_constants.cache_clear()
    for _ in range(2):
        for sr in (8000, 16000):
            for cfg in configs:
                clip = _clip(rng.standard_normal(sr // 4), sr)
                mags = mfcc.fft_magnitude(mfcc.hamming_window(
                    mfcc.frame_signal(clip, frame_cfg)))
                fbank = mfcc.mel_filterbank(cfg, sr, mags.shape[-1])
                dct = mfcc.dct_matrix(cfg.n_ceps, cfg.n_filters,
                                      0 if cfg.include_c0 else 1)
                logs = np.log(np.maximum(mags @ fbank.T, mfcc.LOG_FLOOR))
                got = mfcc.extract_mfcc(clip, frame_cfg, cfg).coeffs
                assert np.array_equal(got, (logs @ dct.T).T)
                cached = mfcc._mfcc_constants(cfg, sr, mags.shape[-1])
                for mat in cached:
                    assert not mat.flags.writeable
                    with pytest.raises(ValueError):
                        mat[0, 0] = 1.0
    info = mfcc._mfcc_constants.cache_info()
    assert (info.misses, info.currsize) == (4, 4)


def test_dct_isometry():
    mat = mfcc.dct_matrix(26, 26)
    assert np.max(np.abs(mat @ mat.T - np.eye(26))) < 1e-9
    rng = np.random.default_rng(2)
    v = rng.standard_normal(26)
    assert np.max(np.abs(mat.T @ (mat @ v) - v)) < 1e-9


def test_amplitude_scaling_shifts_only_c0():
    rng = np.random.default_rng(3)
    samples = rng.standard_normal(32000) * 0.1
    fc, mc = mfcc.FrameConfig(256, 64), mfcc.MelConfig(26, 0, 8000, 12)
    base = mfcc.extract_mfcc(_clip(samples), fc, mc).coeffs
    scaled = mfcc.extract_mfcc(_clip(3.7 * samples), fc, mc).coeffs
    assert np.max(np.abs(scaled[1:] - base[1:])) < 1e-9
    shift = scaled[0] - base[0]
    assert np.max(np.abs(shift - shift[0])) < 1e-9
    assert shift[0] > 0


def test_band_widening_covers_superset():
    narrow = mfcc.mel_filterbank(mfcc.MelConfig(26, 1000, 4000, 12), 16000, 257)
    wide = mfcc.mel_filterbank(mfcc.MelConfig(26, 0, 8000, 12), 16000, 257)
    covered_narrow = narrow.sum(axis=0) > 0
    covered_wide = wide.sum(axis=0) > 0
    assert np.all(covered_wide[covered_narrow])
    assert covered_wide.sum() > covered_narrow.sum()


def test_include_c0_flag():
    rng = np.random.default_rng(4)
    clip = _clip(rng.standard_normal(2048))
    fc = mfcc.FrameConfig(32, 32)
    with_c0 = mfcc.extract_mfcc(clip, fc, mfcc.MelConfig(26, 0, 8000, 12, True))
    without = mfcc.extract_mfcc(clip, fc, mfcc.MelConfig(26, 0, 8000, 12, False))
    assert with_c0.coeffs.shape == without.coeffs.shape
    assert np.allclose(with_c0.coeffs[1:], without.coeffs[:-1])


def test_mfcc_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    mat = mfcc.MfccMatrix(rng.standard_normal((12, 7)))
    path = tmp_path / "x.mfcc"
    mfcc.save_mfcc(path, mat)
    back = mfcc.load_mfcc(path)
    assert np.array_equal(back.coeffs, mat.coeffs)
    raw = bytearray(path.read_bytes())
    raw[0] = ord("X")
    bad = tmp_path / "bad.mfcc"
    bad.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        mfcc.load_mfcc(bad)


def test_mfcc_load_truncated_header(tmp_path):
    path = tmp_path / "short.mfcc"
    path.write_bytes(mfcc.MFCC_MAGIC + b"\x01\x00")
    with pytest.raises(FormatError):
        mfcc.load_mfcc(path)

