"""Golden outputs of the trainers, compared exactly.

Every value below was recorded from the trainers with each layer's
gradient written as one product of its stacked factors, Adam's bias
corrections folded into two scalars per step, the span penalty taken from
the seen rows' basis and ``dae_refine`` at its module constants. Each case
trains at a tiny shape and compares
per-epoch losses as ``float.hex`` strings and final parameters, refined rows
and checkpoint files as sha256 digests of their bytes. There is no
tolerance: any change in arithmetic order, RNG draws or batching shows up.

To re-record after an intended numeric change, print ``_outputs()`` for each
case and paste the result over the matching ``GOLDEN`` entry.
"""

import hashlib

import numpy as np
import pytest

from icis.baselines import dae_refine, train_subreg
from icis.data import make_pairs, synth_generate
from icis.model import IcisModel, LossConfig, TrainConfig, save_checkpoint, train
from icis.tensor import RngState

N_SEEN, N_UNSEEN, D_A, D_W, HIDDEN = 21, 7, 6, 5, 8


def _task():
    task = synth_generate(seed=3, n_seen=N_SEEN, n_unseen=N_UNSEEN, d_a=D_A, d_w=D_W,
                          samples_per_class=1)
    pairs = make_pairs(task.descriptors, task.head)
    unseen = task.descriptors.subset(task.manifest.unseen).matrix
    return pairs, unseen


def _model():
    return IcisModel.init(D_A, D_W, HIDDEN, RngState(4).spawn("model-init"))


def _config(**overrides):
    settings = dict(lr=1e-2, batch_size=4, hidden_dim=HIDDEN, max_epochs=5, stop_window=5, seed=7)
    settings.update(overrides)
    return TrainConfig(**settings)


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _trace_outputs(trace, model):
    return {
        "total": [float(x).hex() for x in trace.total],
        "terms": {name: [float(x).hex() for x in values] for name, values in trace.terms.items()},
        "stopped_early": trace.stopped_early,
        "params": _digest(model.parameters()),
    }


def _run_train(distance, **overrides):
    pairs, unseen = _task()
    model = _model()
    trace = train(model, pairs, unseen, LossConfig(distance=distance), _config(**overrides))
    return trace, model


def _outputs(case, tmp_path=None):
    if case == "train_cosine":
        return _trace_outputs(*_run_train("cosine"))
    if case == "train_l2":
        return _trace_outputs(*_run_train("l2"))
    if case == "train_early_stop":
        return _trace_outputs(*_run_train("cosine", max_epochs=20, stop_window=2, stop_threshold=10.0))
    if case == "subreg":
        pairs, unseen = _task()
        model = _model()
        trace = train_subreg(model, pairs, unseen, lam=0.5, train_config=_config(max_epochs=4))
        return _trace_outputs(trace, model)
    if case == "dae":
        pairs, unseen = _task()
        rows = dae_refine(pairs.weights, pairs.weights[:3] * 0.9, seed=5, epochs=3)
        return {"rows": _digest([rows])}
    if case == "checkpoint":
        _trace, model = _run_train("cosine")
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, LossConfig(), include_bias=False, seed=7)
        return {"bytes": hashlib.sha256(path.read_bytes()).hexdigest()}
    raise KeyError(case)


GOLDEN = {'checkpoint': {'bytes': 'ee4a575ca9e3f5f8a7c04e75a217cbbef2524164e2e968c605e58fb65473b4f2'},
 'dae': {'rows': 'b2aeaa029891fc7ad9574995e4f0e3163ca0c9d88d6a83c6c652f1078285cbfd'},
 'subreg': {'params': '7c3e8726633233340937334cb8f94d6862d1fedf3b455f80de39ce7f1feb851b',
            'stopped_early': False,
            'terms': {'a_to_a': ['0x0.0p+0',
                                 '0x0.0p+0',
                                 '0x0.0p+0',
                                 '0x0.0p+0'],
                      'reg': ['0x1.1da5bf06c2fe9p+0',
                              '0x1.84d4b33e6d720p-1',
                              '0x1.13cac44f00720p-1',
                              '0x1.a44ed2bb02458p-2'],
                      'w_to_a': ['0x0.0p+0',
                                 '0x0.0p+0',
                                 '0x0.0p+0',
                                 '0x0.0p+0'],
                      'w_to_w': ['0x0.0p+0',
                                 '0x0.0p+0',
                                 '0x0.0p+0',
                                 '0x0.0p+0']},
            'total': ['0x1.1da5bf06c2fe9p+0',
                      '0x1.84d4b33e6d720p-1',
                      '0x1.13cac44f00720p-1',
                      '0x1.a44ed2bb02458p-2']},
 'train_cosine': {'params': '2f6684dd4d2b54b089d6a55cc0ce5a9e4dfe641c0dade08ceb0f0b95fe68af58',
                  'stopped_early': False,
                  'terms': {'a_to_a': ['0x1.093419dad6911p+0',
                                       '0x1.dcfd41638833bp-1',
                                       '0x1.abc83125ea8f5p-1',
                                       '0x1.8075513a2cae2p-1',
                                       '0x1.563e30e9c36e9p-1'],
                            'reg': ['0x1.03ef61bb3e6fap+0',
                                    '0x1.cca0be5d8ac20p-1',
                                    '0x1.9bd49c63f589bp-1',
                                    '0x1.6ccc525e7a88ap-1',
                                    '0x1.40cfb7bede58cp-1'],
                            'w_to_a': ['0x1.f2d10be66b700p-1',
                                       '0x1.ba436de3a5eddp-1',
                                       '0x1.9200676a6e694p-1',
                                       '0x1.6f009063b0745p-1',
                                       '0x1.47f54701611a7p-1'],
                            'w_to_w': ['0x1.ea99d4f0fe10fp-1',
                                       '0x1.95a6d46043a09p-1',
                                       '0x1.52a451480a9f8p-1',
                                       '0x1.2381e948788e3p-1',
                                       '0x1.fb072020259f8p-2']},
                  'total': ['0x1.fdec7600e4e0ap+1',
                            '0x1.be6210813f210p+1',
                            '0x1.8b10618f16487p+1',
                            '0x1.5ff10751340e5p+1',
                            '0x1.3721afee856c6p+1']},
 'train_early_stop': {'params': 'a9f0d448c7976614a73c5e365b74e7c42bfd906b7ebd10a8c75882cc786c3e57',
                      'stopped_early': True,
                      'terms': {'a_to_a': ['0x1.093419dad6911p+0',
                                           '0x1.dcfd41638833bp-1',
                                           '0x1.abc83125ea8f5p-1',
                                           '0x1.8075513a2cae2p-1'],
                                'reg': ['0x1.03ef61bb3e6fap+0',
                                        '0x1.cca0be5d8ac20p-1',
                                        '0x1.9bd49c63f589bp-1',
                                        '0x1.6ccc525e7a88ap-1'],
                                'w_to_a': ['0x1.f2d10be66b700p-1',
                                           '0x1.ba436de3a5eddp-1',
                                           '0x1.9200676a6e694p-1',
                                           '0x1.6f009063b0745p-1'],
                                'w_to_w': ['0x1.ea99d4f0fe10fp-1',
                                           '0x1.95a6d46043a09p-1',
                                           '0x1.52a451480a9f8p-1',
                                           '0x1.2381e948788e3p-1']},
                      'total': ['0x1.fdec7600e4e0ap+1',
                                '0x1.be6210813f210p+1',
                                '0x1.8b10618f16487p+1',
                                '0x1.5ff10751340e5p+1']},
 'train_l2': {'params': '7a575b7fe5fe3be1fada79ad717d983352c9c0d074e5fd968e60ff11282c6643',
              'stopped_early': False,
              'terms': {'a_to_a': ['0x1.03d8a8780c7eap+1',
                                   '0x1.8913256390362p+0',
                                   '0x1.37f66cb026a48p+0',
                                   '0x1.035d32cd02147p+0',
                                   '0x1.c67b500d7395dp-1'],
                        'reg': ['0x1.1e5017daf1287p+0',
                                '0x1.80e0182cf751ep-1',
                                '0x1.0f81a46f8ed75p-1',
                                '0x1.94b818cfbd4c5p-2',
                                '0x1.46c3b1b91cec1p-2'],
                        'w_to_a': ['0x1.429b0b9a26ebap+0',
                                   '0x1.205776d332fbep+0',
                                   '0x1.111eeb1d70c5bp+0',
                                   '0x1.05433f615119ap+0',
                                   '0x1.f8a005069c755p-1'],
                        'w_to_w': ['0x1.0eb1dbab3ed38p-2',
                                   '0x1.c1fc3a02dd152p-3',
                                   '0x1.94d428253c14ep-3',
                                   '0x1.835e0ae689a02p-3',
                                   '0x1.722fabd8183bep-3']},
              'total': ['0x1.2b123ad400319p+2',
                        '0x1.d10d17c6cd3ecp+1',
                        '0x1.81b85785032c4p+1',
                        '0x1.4f1d1cdf89da9p+1',
                        '0x1.2fc24639a9241p+1']}}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_outputs_are_bit_identical(case, tmp_path):
    assert _outputs(case, tmp_path) == GOLDEN[case]


def test_golden_early_stop_case_really_stops():
    assert GOLDEN["train_early_stop"]["stopped_early"]
    assert len(GOLDEN["train_early_stop"]["total"]) == 4
