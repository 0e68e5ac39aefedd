"""Where the traced run puts its spans.

Each function is wrapped on the namespace the caller resolves it from:
`pipeline` holds its own `read_wav`, `model` its own `em_fit`,
`adam_step` and `softmax_cross_entropy`, and `audio._render_corpus_clip`
finds `synth_source`, `apply_channel` and `wav_bytes` on `audio`. The
network's layers are wrapped per instance when `model.build_model`
returns, so both the benchmark's own models and the one `stage_eval`
builds are covered.
"""

from functools import partial

from deviceprint import audio, gmm, mfcc, model, pipeline

STAGES = ("stage_synth", "stage_mfcc", "stage_train_ubm", "stage_sgmm",
          "stage_train", "stage_eval")

# C3dBiLstm.layers in order, for the architecture with attention on
LAYER_NAMES = ("pw", "conv1", "bn1", "relu1", "maxpool1", "conv2", "bn2",
               "relu2", "maxpool2", "avgpool", "flatten", "bilstm",
               "attention", "meantime", "fc")
CONV_LAYERS = ("conv1", "conv2")


def _mfcc_frames(span, args, result):
    span.attrs["frames"] = result.n_frames


def _em_diagnostics(span, args, result):
    span.attrs["iterations"] = result.diagnostics["iterations"]
    span.attrs["frames"] = args[0].shape[1]


def _trained_epochs(span, args, result):
    span.attrs["epochs"] = len(result)


def _evaluated_clips(span, args, result):
    span.attrs["clips"] = len(args[1])


def _conv_work(layer, direction, span, args, result):
    """Computed, not counted: a direct conv does 2 flop per multiply-add,
    and its backward pass (input and kernel gradients) twice that."""
    w = layer.w.value
    out = result if direction == "fwd" else args[0]
    flop = 2 * out.size * (w.size // w.shape[0])
    if direction == "fwd":
        span.attrs["flop"] = flop
        span.attrs["bytes"] = 8 * (args[0].size + w.size + out.size)
    else:
        span.attrs["flop"] = 2 * flop


def instrument_network(tracer, net):
    tracer.wrap(net, "forward", "model.forward")
    tracer.wrap(net, "backward", "model.backward")
    if len(net.layers) != len(LAYER_NAMES):
        raise RuntimeError(f"expected {len(LAYER_NAMES)} layers, "
                           f"got {len(net.layers)}")
    for name, layer in zip(LAYER_NAMES, net.layers):
        for method, direction in (("forward", "fwd"), ("backward", "bwd")):
            hook = (partial(_conv_work, layer, direction)
                    if name in CONV_LAYERS else None)
            tracer.wrap(layer, method, f"nn.{name}.{direction}", hook)


def _built_network(tracer, span, args, result):
    instrument_network(tracer, result)


def install(tracer):
    """Wrap every traced function for one operation."""
    probes = [
        (audio, "synth_source", "audio.synth_source", None),
        (audio, "apply_channel", "audio.apply_channel", None),
        (audio, "select_device_profiles", "audio.select_device_profiles",
         None),
        (audio, "wav_bytes", "audio.wav_bytes", None),
        (pipeline, "read_wav", "audio.read_wav", None),
        (mfcc, "extract_mfcc", "mfcc.extract_mfcc", _mfcc_frames),
        (mfcc, "save_mfcc", "mfcc.save_mfcc", None),
        (mfcc, "load_mfcc", "mfcc.load_mfcc", None),
        (model, "em_fit", "gmm.em_fit", _em_diagnostics),
        (gmm, "extract_sgmm", "gmm.extract_sgmm", None),
        (gmm, "map_adapt_means", "gmm.map_adapt_means", None),
        (gmm, "save_sgmm", "gmm.save_sgmm", None),
        (gmm, "load_sgmm", "gmm.load_sgmm", None),
        (model, "build_model", "model.build_model",
         partial(_built_network, tracer)),
        (model, "train", "model.train", _trained_epochs),
        (model, "evaluate", "model.evaluate", _evaluated_clips),
        (model, "stack_features", "model.stack_features", None),
        (model, "adam_step", "model.adam_step", None),
        (model, "softmax_cross_entropy", "model.softmax_cross_entropy", None),
    ]
    probes += [(pipeline, stage, f"pipeline.{stage}", None)
               for stage in STAGES]
    for owner, attr, name, hook in probes:
        tracer.wrap(owner, attr, name, hook)
