"""Minimal dense-tensor neural stack with paired forward/backward passes."""

from .adam import AdamState, adam_step
from .attention import SelfAttention
from .conv import (AvgPool3d, Conv3d, ExpandedConv3d, MaxPool3d,
                   PointwiseExpansion, avgpool3d, conv3d_backward,
                   conv3d_forward, maxpool3d, maxpool3d_backward)
from .layers import (BatchNorm3d, Dense, FlattenPerStep, MeanOverTime, ReLU,
                     softmax_cross_entropy)
from .params import (Parameter, ParamStore, load_checkpoint, save_checkpoint,
                     uniform_fanin)
from .recurrent import BiLstm

__all__ = [
    "AdamState", "adam_step",
    "SelfAttention",
    "AvgPool3d", "Conv3d", "ExpandedConv3d", "MaxPool3d", "PointwiseExpansion",
    "avgpool3d", "conv3d_backward", "conv3d_forward", "maxpool3d",
    "maxpool3d_backward",
    "BatchNorm3d", "Dense", "FlattenPerStep", "MeanOverTime", "ReLU",
    "softmax_cross_entropy",
    "Parameter", "ParamStore", "load_checkpoint", "save_checkpoint",
    "uniform_fanin",
    "BiLstm",
]
