"""Source recording-device recognition from audio.

Pipeline: synthetic recording-chain corpora -> MFCC front-end -> EM-trained
background mixture with per-segment MAP mean adaptation -> temporal
Gaussian-mean tensors -> 3D-conv + BiLSTM classifier with self-attention,
all in numpy with hand-written backpropagation.
"""

from . import audio, errors, gmm, mfcc, model, nn

__version__ = "0.1.0"
