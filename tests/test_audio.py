import numpy as np
import pytest

from deviceprint import audio
from deviceprint.errors import ConfigError, FormatError, UnsupportedFormatError


def test_pcm16_scaling(tmp_path):
    clip = audio.AudioClip(np.array([0.0, 16384 / 32768, -16384 / 32768]), 16000)
    path = tmp_path / "t.wav"
    audio.write_wav(path, clip)
    back = audio.read_wav(path)
    assert np.allclose(back.samples, [0.0, 0.5, -0.5], atol=1 / 32768)


def test_stereo_mean_downmix(tmp_path):
    # hand-build a 2-channel float32 WAV with channels {1.0} and {0.0}
    import struct
    frames = np.array([[1.0, 0.0]], dtype="<f4").tobytes()
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(frames),
                         b"WAVE", b"fmt ", 16, 3, 2, 8000, 8000 * 8, 8, 32,
                         b"data", len(frames))
    path = tmp_path / "stereo.wav"
    path.write_bytes(header + frames)
    clip = audio.read_wav(path)
    assert clip.samples.shape == (1,)
    assert clip.samples[0] == pytest.approx(0.5)


def test_wav_round_trip_within_quantization(tmp_path):
    rng = np.random.default_rng(3)
    clip = audio.AudioClip(rng.uniform(-1, 1, 4096), 16000)
    path = tmp_path / "rt.wav"
    audio.write_wav(path, clip)
    back = audio.read_wav(path)
    assert back.sample_rate == 16000
    assert np.max(np.abs(back.samples - clip.samples)) <= 1 / 32768


def test_read_wav_malformed_header(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"RIFX" + b"\x00" * 40)
    with pytest.raises(FormatError):
        audio.read_wav(path)


def test_read_wav_truncated_data(tmp_path):
    import struct
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 100, b"WAVE",
                         b"fmt ", 16, 1, 1, 8000, 16000, 2, 16,
                         b"data", 1000)
    path = tmp_path / "short.wav"
    path.write_bytes(header + b"\x00" * 8)
    with pytest.raises(FormatError):
        audio.read_wav(path)


@pytest.mark.parametrize("tag, bits, n_bytes", [(1, 16, 3), (3, 32, 5)])
def test_read_wav_partial_sample(tmp_path, tag, bits, n_bytes):
    import struct
    data = b"\x01" * n_bytes
    width = bits // 8
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(data),
                         b"WAVE", b"fmt ", 16, tag, 1, 8000, 8000 * width,
                         width, bits, b"data", len(data))
    path = tmp_path / "partial.wav"
    path.write_bytes(header + data + b"\x00")  # pad byte of an odd chunk
    with pytest.raises(FormatError):
        audio.read_wav(path)


def test_read_wav_more_channels_than_samples(tmp_path):
    import struct
    data = b"\x00" * 8  # 4 PCM16 samples declared as 1000 channels
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(data),
                         b"WAVE", b"fmt ", 16, 1, 1000, 8000, 8000 * 2000,
                         2000, 16, b"data", len(data))
    path = tmp_path / "wide.wav"
    path.write_bytes(header + data)
    with pytest.raises(FormatError):
        audio.read_wav(path)


def test_read_wav_unsupported_encoding(tmp_path):
    import struct
    data = b"\x00" * 8
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(data),
                         b"WAVE", b"fmt ", 16, 7, 1, 8000, 8000, 1, 8,
                         b"data", len(data))
    path = tmp_path / "ulaw.wav"
    path.write_bytes(header + data)
    with pytest.raises(UnsupportedFormatError):
        audio.read_wav(path)


def test_synth_source_deterministic():
    a = audio.synth_source(1.0, 16000, 42)
    b = audio.synth_source(1.0, 16000, 42)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples,
                              audio.synth_source(1.0, 16000, 43).samples)


def test_synth_source_length_and_peak():
    clip = audio.synth_source(1.0, 16000, 0)
    assert clip.samples.size == 16000
    assert np.max(np.abs(clip.samples)) <= 1.0
    with pytest.raises(ConfigError):
        audio.synth_source(0.0, 16000, 0)


def test_synth_source_band_limited():
    # oracle: FFT energy ratio below 4 kHz
    clip = audio.synth_source(3.0, 16000, 5)
    spec = np.abs(np.fft.rfft(clip.samples)) ** 2
    freqs = np.fft.rfftfreq(clip.samples.size, 1 / 16000)
    ratio = spec[freqs < 4000].sum() / spec.sum()
    assert ratio >= 0.97


@pytest.mark.parametrize("n_harm", [1, 2, 24])
def test_harmonic_sum_matches_direct_loop(n_harm):
    # oracle: one sine per harmonic, at phases as large as a 4 s clip reaches
    rng = np.random.default_rng(n_harm)
    phase = np.sort(rng.uniform(0.0, 1.5e5, 4000))
    amps = rng.uniform(0.7, 1.3, n_harm) / np.arange(1, n_harm + 1)
    offsets = rng.uniform(0, 2 * np.pi, n_harm)
    direct = np.zeros_like(phase)
    for k in range(1, n_harm + 1):
        direct += amps[k - 1] * np.sin(k * phase + offsets[k - 1])
    got = audio._harmonic_sum(phase, amps, offsets)
    assert np.max(np.abs(got - direct)) <= 1e-9


@pytest.mark.parametrize("freq", [0.2, 0.5, 1.0, 3.0, 7.0])
@pytest.mark.parametrize("n", [64000, 63993])
def test_tone_matches_sine(freq, n):
    # oracle: one np.sin per sample over 4 s at 16 kHz, the tones' range
    t = np.arange(n) / 16000
    for offset in (0.0, 2.5, 2 * np.pi - 1e-3):
        got = audio._tone(freq, offset, n, 16000)
        assert got.shape == (n,)
        want = np.sin(2 * np.pi * freq * t + offset)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_synth_source_tones_match_sine(monkeypatch):
    # the tones' error, carried through the pitch track's cumulative phase
    # and 24 harmonics, stays far below a 16-bit step (3e-5)
    fast = audio.synth_source(4.0, 16000, [101, 0, 0, 0]).samples
    monkeypatch.setattr(audio, "_tone", lambda freq, offset, n, sr: np.sin(
        2 * np.pi * freq * (np.arange(n) / sr) + offset))
    plain = audio.synth_source(4.0, 16000, [101, 0, 0, 0]).samples
    assert np.max(np.abs(fast - plain)) <= 1e-9


def test_apply_channel_identity():
    clip = audio.synth_source(0.5, 16000, 1)
    profile = audio.DeviceProfile("d", np.array([1.0]), 0.0)
    out = audio.apply_channel(clip, profile, 9)
    assert np.array_equal(out.samples, clip.samples)


def test_apply_channel_scaling():
    clip = audio.synth_source(0.5, 16000, 2)
    profile = audio.DeviceProfile("d", np.array([0.5]), 0.0)
    out = audio.apply_channel(clip, profile, 9)
    assert np.allclose(out.samples, 0.5 * clip.samples, rtol=0, atol=0)


def test_apply_channel_direct_convolution_oracle():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(200)
    fir = rng.standard_normal(8)
    out = audio.apply_channel(audio.AudioClip(x, 16000),
                              audio.DeviceProfile("d", fir, 0.0), 0)
    direct = np.zeros(200)
    for n in range(200):
        for k in range(8):
            if 0 <= n - k < 200:
                direct[n] += fir[k] * x[n - k]
    assert np.max(np.abs(out.samples - direct)) < 1e-12


def test_apply_channel_linearity():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(500)
    profile = audio.DeviceProfile("d", rng.standard_normal(16), 0.0)
    for alpha in (0.25, 2.0, -1.5):
        lhs = audio.apply_channel(audio.AudioClip(alpha * x, 16000), profile, 1)
        rhs = audio.apply_channel(audio.AudioClip(x, 16000), profile, 1)
        assert np.max(np.abs(lhs.samples - alpha * rhs.samples)) < 1e-12


def test_device_profile_rejects_empty_fir():
    with pytest.raises(ConfigError):
        audio.DeviceProfile("d", np.array([0.0, 0.0]), 0.0)


def test_corpus_counts_and_splits(tmp_path):
    manifest = audio.synth_corpus(2, 2, 0.5, 8000, seed=1, out_dir=tmp_path,
                                  clip_seconds=0.5)
    assert len(manifest.entries) == 4
    for device in manifest.device_ids():
        splits = [e.split for e in manifest.entries if e.device_id == device]
        assert sorted(splits) == ["test", "train"]


def test_corpus_deterministic(tmp_path):
    m1 = audio.synth_corpus(2, 2, 0.5, 8000, seed=5,
                            out_dir=tmp_path / "a", clip_seconds=0.5)
    m2 = audio.synth_corpus(2, 2, 0.5, 8000, seed=5,
                            out_dir=tmp_path / "b", clip_seconds=0.5)
    assert [e.path for e in m1.entries] == [e.path for e in m2.entries]
    for e1, e2 in zip(m1.entries, m2.entries):
        assert (m1.resolve(e1).read_bytes() == m2.resolve(e2).read_bytes())
    text_a = (tmp_path / "a" / "manifest.tsv").read_text()
    text_b = (tmp_path / "b" / "manifest.tsv").read_text()
    assert text_a == text_b


def test_device_firs_separated(tmp_path):
    profiles = audio.select_device_profiles(5, 16000, seed=0)
    responses = [20 * np.log10(np.abs(np.fft.rfft(p.fir, 512)) + 1e-12)
                 for p in profiles]
    for i in range(len(responses)):
        for j in range(i + 1, len(responses)):
            assert np.max(np.abs(responses[i] - responses[j])) >= 3.0


def test_manifest_round_trip_and_integrity(tmp_path):
    manifest = audio.synth_corpus(2, 2, 0.5, 8000, seed=2, out_dir=tmp_path,
                                  clip_seconds=0.5)
    back = audio.read_manifest(tmp_path / "manifest.tsv")
    assert back.sample_rate == 8000
    assert back.seed == 2
    assert [e.path for e in back.entries] == [e.path for e in manifest.entries]
    for entry in back.entries:
        clip = audio.read_wav(back.resolve(entry))
        assert clip.sample_rate == back.sample_rate


@pytest.mark.parametrize("second", ["b/clip00.wav", "a/clip00.wav",
                                    "clip00.flac"],
                         ids=["other_dir", "same_path", "other_suffix"])
def test_manifest_refuses_paths_that_share_a_file_stem(tmp_path, second):
    # per-clip artifacts are named by the file stem, so these two entries
    # would share one .mfcc and one .sgmm
    path = tmp_path / "m.tsv"
    path.write_text("#sgmm-manifest v1 sr=16000 seed=1\n"
                    "a/clip00.wav\tdevice00\ttrain\n"
                    f"{second}\tdevice01\ttest\n")
    with pytest.raises(ConfigError) as caught:
        audio.read_manifest(path)
    assert "'a/clip00.wav'" in str(caught.value)
    assert repr(second) in str(caught.value)


def test_manifest_header_required(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("a.wav\tdevice00\ttrain\n")
    with pytest.raises(FormatError):
        audio.read_manifest(path)


def test_manifest_header_token_without_equals(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("#sgmm-manifest v1 sr=16000 seed=1 junk\n"
                    "a.wav\tdevice00\ttrain\n")
    with pytest.raises(FormatError):
        audio.read_manifest(path)


def test_manifest_not_utf8(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_bytes(b"#sgmm-manifest v1 sr=16000 seed=1\n"
                     b"a.wav\tdevice\xff\ttrain\n")
    with pytest.raises(FormatError):
        audio.read_manifest(path)


def test_corpus_rejects_bad_parameters(tmp_path):
    with pytest.raises(ConfigError):
        audio.synth_corpus(1, 2, 0.5, 8000, 0, tmp_path)
    with pytest.raises(ConfigError):
        audio.synth_corpus(2, 2, 1.5, 8000, 0, tmp_path)


@pytest.mark.parametrize("rate", [0, 700])
def test_corpus_rejects_sample_rate_below_eq_band(tmp_path, rate):
    # the device EQ peaks start at 300 Hz, above 0.85 x Nyquist below 706 Hz
    out = tmp_path / "corpus"
    with pytest.raises(ConfigError):
        audio.synth_corpus(2, 2, 0.5, rate, 0, out, clip_seconds=0.5)
    assert not out.exists()
