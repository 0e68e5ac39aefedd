"""Subcommand driver for the recognition pipeline."""

import argparse
import sys

from . import pipeline
from .errors import PipelineError


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="pipeline config file "
                        "(section.key = value lines)")
    common.add_argument("--seed", type=int,
                        help="master seed; overrides corpus, gmm and train seeds")
    common.add_argument("--workdir", help="stage output directory")

    parser = argparse.ArgumentParser(
        prog="deviceprint",
        description="Source recording-device recognition pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("synth", parents=[common],
                   help="generate the synthetic corpus")
    sub.add_parser("mfcc", parents=[common],
                   help="extract cepstral features for every clip")
    sub.add_parser("train-ubm", parents=[common],
                   help="fit the background mixture on training features")
    sub.add_parser("sgmm", parents=[common],
                   help="extract temporal Gaussian-mean tensors")
    sub.add_parser("train", parents=[common], help="train the classifier")
    sub.add_parser("eval", parents=[common],
                   help="evaluate the trained classifier on the test split")
    sub.add_parser("ablate", parents=[common],
                   help="front-end grid scored by the linear baseline")
    p = sub.add_parser("small-sample", parents=[common],
                       help="train on n clips per device, evaluate")
    p.add_argument("--n-train", type=int, default=5,
                   help="training clips kept per device")
    sub.add_parser("gradcheck",
                   help="finite-difference checks for every layer")
    return parser


def _configure(args):
    cfg = pipeline.load_config(args.config)
    if args.workdir:
        cfg.set("paths.workdir", args.workdir)
    if args.seed is not None:
        for key in ("corpus.seed", "gmm.seed", "train.seed"):
            cfg.set(key, args.seed)
    return cfg


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gradcheck":
            return 0 if pipeline.stage_gradcheck() else 1
        cfg = _configure(args)
        stage = getattr(pipeline, "stage_" + args.command.replace("-", "_"))
        if args.command == "small-sample":
            stage(cfg, args.n_train)
        else:
            stage(cfg)
    except PipelineError as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
