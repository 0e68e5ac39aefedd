"""Source recording-device recognition from audio.

Pipeline: synthetic recording-chain corpora -> MFCC front-end -> EM-trained
background mixture with per-segment MAP mean adaptation -> temporal
Gaussian-mean tensors -> 3D-conv + BiLSTM classifier with self-attention,
all in numpy with hand-written backpropagation.
"""

from . import audio, errors, gmm, mfcc, model, nn
from .audio import (AudioClip, CorpusManifest, DeviceProfile, ManifestEntry,
                    apply_channel, make_device_profile, read_manifest,
                    read_wav, synth_corpus, synth_source, write_manifest,
                    write_wav)
from .gmm import (DiagGmm, SgmmTensor, em_fit, extract_sgmm, load_gmm,
                  load_sgmm, log_likelihood, map_adapt_means,
                  minmax_normalize, save_gmm, save_sgmm)
from .mfcc import (FrameConfig, MelConfig, MfccMatrix, extract_mfcc,
                   fft_magnitude, frame_signal, hamming_window, load_mfcc,
                   mel_filterbank, save_mfcc)
from .model import (ArchitectureConfig, C3dBiLstm, GmmConfig, LogisticClassifier,
                    Metrics, RecognitionResult, TrainConfig, ablate_frontend,
                    baseline_classifier, build_model, evaluate, lr_schedule,
                    mfcc_mean_features, run_recognition, small_sample_protocol,
                    train)

__version__ = "0.1.0"
