"""The parser table of every subcommand, recorded as a literal.

Each action is keyed by its dest and described by its action class, option
strings, ``required``, ``default``, ``choices`` and ``type``; comparing dicts
keeps the test independent of the order in which ``--help`` lists the flags.
"""

import argparse

import pytest

from icis.cli import _loss_config_from_args, _train_config_from_args, build_parser
from icis.model import LossConfig, TrainConfig

HELP = ("_HelpAction", ("-h", "--help"), False, argparse.SUPPRESS, None, None)


def _text(flag, required=True):
    return ("_StoreAction", (flag,), required, None, None, None)


RUN = {
    "hidden_dim": ("_StoreAction", ("--hidden-dim",), False, 2048, None, "int"),
    "lr": ("_StoreAction", ("--lr",), False, 1e-05, None, "float"),
    "batch": ("_StoreAction", ("--batch",), False, 16, None, "int"),
    "max_epochs": ("_StoreAction", ("--max-epochs",), False, 500, None, "int"),
    "stop_window": ("_StoreAction", ("--stop-window",), False, 10, None, "int"),
    "stop_threshold": ("_StoreAction", ("--stop-threshold",), False, 0.0002, None, "float"),
    "seed": ("_StoreAction", ("--seed",), False, 0, None, "int"),
}
INCLUDE_BIAS = {"include_bias": ("_StoreTrueAction", ("--include-bias",), False, False, None, None)}
DESCRIPTORS = {"descriptors": _text("--descriptors")}
HEAD = {"head": _text("--head"), "manifest": _text("--manifest"), "biases": _text("--biases", False)}
FEATURES = {"features": _text("--features")}

EXPECTED = {
    "synth": {
        "help": HELP,
        "out": _text("--out"),
        "seed": ("_StoreAction", ("--seed",), False, 0, None, "int"),
        "seen": ("_StoreAction", ("--seen",), True, None, None, "int"),
        "unseen": ("_StoreAction", ("--unseen",), True, None, None, "int"),
        "desc_dim": ("_StoreAction", ("--desc-dim",), True, None, None, "int"),
        "weight_dim": ("_StoreAction", ("--weight-dim",), True, None, None, "int"),
        "map": ("_StoreAction", ("--map",), False, "linear", ("linear", "mlp"), None),
        "map_noise": ("_StoreAction", ("--map-noise",), False, 0.0, None, "float"),
        "samples_per_class": ("_StoreAction", ("--samples-per-class",), False, 50, None, "int"),
        "feature_noise": ("_StoreAction", ("--feature-noise",), False, 0.0, None, "float"),
        "margin": ("_StoreAction", ("--margin",), False, 1.0, None, "float"),
        "descriptor_rank": ("_StoreAction", ("--descriptor-rank",), False, None, None, "int"),
    },
    "train": {
        "help": HELP, **DESCRIPTORS, **HEAD,
        "out": _text("--out"),
        "distance": ("_StoreAction", ("--distance",), False, "cosine", ("cosine", "l2"), None),
        "terms": ("_StoreAction", ("--terms",), False, "a2w,a2a,w2w,w2a", None, None),
        "include_unseen_desc": ("BooleanOptionalAction",
                                ("--include-unseen-desc", "--no-include-unseen-desc"),
                                False, True, None, None),
        **RUN, **INCLUDE_BIAS,
    },
    "inject": {
        "help": HELP, **DESCRIPTORS, **HEAD,
        "checkpoint": _text("--checkpoint"),
        "out": _text("--out"),
        "zsl_only": ("_StoreTrueAction", ("--zsl-only",), False, False, None, None),
    },
    "eval": {
        "help": HELP, **HEAD, **FEATURES,
        "report_dir": _text("--report-dir", False),
        "zsl_only": ("_StoreTrueAction", ("--zsl-only",), False, False, None, None),
    },
    "ablate": {
        "help": HELP, **DESCRIPTORS, **HEAD, **FEATURES,
        "out": _text("--out"),
        **RUN, **INCLUDE_BIAS,
    },
    "sweep": {
        "help": HELP, **DESCRIPTORS, **HEAD, **FEATURES,
        "out": _text("--out"),
        "fractions": ("_StoreAction", ("--fractions",), False, "0.25,0.5,0.75,1.0", None, None),
        **RUN, **INCLUDE_BIAS,
    },
    "analyze": {
        "help": HELP, **DESCRIPTORS, **HEAD, **FEATURES,
        "class_id": _text("--class"),
        "bin_size": ("_StoreAction", ("--bin-size",), False, 10, None, "int"),
        "out": _text("--out", False),
    },
    "baseline": {
        "help": HELP, **DESCRIPTORS, **HEAD, **FEATURES,
        "method": ("_StoreAction", ("--method",), True, None,
                   ("conse", "costa", "subreg", "dae", "wavg", "smo"), None),
        "out": _text("--out", False),
        "top_t": ("_StoreAction", ("--top-t",), False, 10, None, "int"),
        "temperature": ("_StoreAction", ("--temperature",), False, 0.1, None, "float"),
        "gamma": ("_StoreAction", ("--gamma",), False, 0.001, None, "float"),
        "lam": ("_StoreAction", ("--lam",), False, 1.0, None, "float"),
        "base": ("_StoreAction", ("--base",), False, "wavg", ("wavg", "costa", "smo"), None),
        "distance": ("_StoreAction", ("--distance",), False, "l2", ("cosine", "l2"), None),
        **RUN,
    },
}


def _subparsers():
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _table(parser):
    return {
        a.dest: (
            type(a).__name__,
            tuple(a.option_strings),
            a.required,
            a.default,
            None if a.choices is None else tuple(a.choices),
            None if a.type is None else a.type.__name__,
        )
        for a in parser._actions
    }


def test_every_subcommand_is_listed():
    assert sorted(_subparsers()) == sorted(EXPECTED)


@pytest.mark.parametrize("command", sorted(EXPECTED))
def test_parser_table_is_unchanged(command):
    parser = _subparsers()[command]
    assert len(parser._actions) == len(EXPECTED[command])  # no dest declared twice
    assert _table(parser) == EXPECTED[command]


def test_a_bare_train_parse_builds_the_library_default_configs():
    args = build_parser().parse_args(["train", "--descriptors", "d", "--head", "h", "--manifest", "m", "--out", "o"])
    assert _loss_config_from_args(args) == LossConfig()
    assert _train_config_from_args(args) == TrainConfig()
