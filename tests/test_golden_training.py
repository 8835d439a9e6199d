"""Golden outputs of the trainers, compared exactly.

Every value below was recorded from the trainers with each layer's
gradient written as one product of its stacked factors (the upstreams of
terms that share an input array summed first), Adam on scaled moments
with its bias corrections folded into two scalars per step, the span
penalty taken from the seen rows' basis and ``dae_refine`` at its module
constants. Each case trains at a tiny shape and compares per-epoch losses
as ``float.hex`` strings and final parameters, refined rows and checkpoint
files as sha256 digests of their bytes. There is no
tolerance: any change in arithmetic order, RNG draws or batching shows up.

To re-record after an intended numeric change, print ``_outputs()`` for each
case and paste the result over the matching ``GOLDEN`` entry.
"""

import hashlib

import numpy as np
import pytest

from icis.baselines import dae_refine, span_basis, subspace_reg_loss, train_subreg
from icis.data import make_pairs, synth_generate
from icis.model import IcisModel, LossConfig, TrainConfig, save_checkpoint, train
from icis.tensor import RngState

N_SEEN, N_UNSEEN, D_A, D_W, HIDDEN = 21, 7, 6, 5, 8
# the subspace case: its 5 seen weight rows span a proper subspace of R^9
SUB_SEEN, SUB_D_W = 5, 9


def _task(n_seen=N_SEEN, d_w=D_W):
    task = synth_generate(seed=3, n_seen=n_seen, n_unseen=N_UNSEEN, d_a=D_A, d_w=d_w,
                          samples_per_class=1)
    pairs = make_pairs(task.descriptors, task.head)
    unseen = task.descriptors.subset(task.manifest.unseen).matrix
    return pairs, unseen


def _model(d_w=D_W):
    return IcisModel.init(D_A, d_w, HIDDEN, RngState(4).spawn("model-init"))


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
        "params": _digest([p for layer in model.layers() for p in layer.parameters()]),
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
    if case == "subreg_subspace":
        pairs, unseen = _task(SUB_SEEN, SUB_D_W)
        model = _model(SUB_D_W)
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
 'subreg': {'params': '22f98c0ce8100872f56dacb9c972413fa5fc55dc81be43d304282901e2b4daa8',
            'stopped_early': False,
            'terms': {'a_to_a': ['0x0.0p+0',
                                 '0x0.0p+0',
                                 '0x0.0p+0',
                                 '0x0.0p+0'],
                      'reg': ['0x1.1da5bf06c2fe9p+0',
                              '0x1.84d4b33e6d720p-1',
                              '0x1.13cac44f0071fp-1',
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
                      '0x1.13cac44f0071fp-1',
                      '0x1.a44ed2bb02458p-2']},
 'subreg_subspace': {'params': '1b78c5fd26d59305b148ea00aa24de9d296917bafe4a944b2004a4f26e81a99e',
                     'stopped_early': False,
                     'terms': {'a_to_a': ['0x0.0p+0',
                                          '0x0.0p+0',
                                          '0x0.0p+0',
                                          '0x0.0p+0'],
                               'reg': ['0x1.7bf606b460538p+2',
                                       '0x1.05d9b76c63fb0p+2',
                                       '0x1.a71e5c256885bp+1',
                                       '0x1.4ee9360ecbf18p+1'],
                               'w_to_a': ['0x0.0p+0',
                                          '0x0.0p+0',
                                          '0x0.0p+0',
                                          '0x0.0p+0'],
                               'w_to_w': ['0x0.0p+0',
                                          '0x0.0p+0',
                                          '0x0.0p+0',
                                          '0x0.0p+0']},
                     'total': ['0x1.7bf606b460538p+2',
                               '0x1.05d9b76c63fb0p+2',
                               '0x1.a71e5c256885bp+1',
                               '0x1.4ee9360ecbf18p+1']},
 'train_cosine': {'params': '578ce4efe9bc518833cdff6656353592367a384dd1750da6a32fc0951d2cc87e',
                  'stopped_early': False,
                  'terms': {'a_to_a': ['0x1.093419dad6911p+0',
                                       '0x1.dcfd416388339p-1',
                                       '0x1.abc83125ea8f5p-1',
                                       '0x1.8075513a2cae1p-1',
                                       '0x1.563e30e9c36e9p-1'],
                            'reg': ['0x1.03ef61bb3e6fap+0',
                                    '0x1.cca0be5d8ac20p-1',
                                    '0x1.9bd49c63f589bp-1',
                                    '0x1.6ccc525e7a88bp-1',
                                    '0x1.40cfb7bede58bp-1'],
                            'w_to_a': ['0x1.f2d10be66b700p-1',
                                       '0x1.ba436de3a5eddp-1',
                                       '0x1.9200676a6e694p-1',
                                       '0x1.6f009063b0745p-1',
                                       '0x1.47f54701611a7p-1'],
                            'w_to_w': ['0x1.ea99d4f0fe10fp-1',
                                       '0x1.95a6d46043a09p-1',
                                       '0x1.52a451480a9fap-1',
                                       '0x1.2381e948788e3p-1',
                                       '0x1.fb072020259f7p-2']},
                  'total': ['0x1.fdec7600e4e0ap+1',
                            '0x1.be6210813f20fp+1',
                            '0x1.8b10618f16487p+1',
                            '0x1.5ff10751340e5p+1',
                            '0x1.3721afee856c6p+1']},
 'train_early_stop': {'params': '40157217f14437ae036938cd505089b64841202759e7a66fbb1b222985b78461',
                      'stopped_early': True,
                      'terms': {'a_to_a': ['0x1.093419dad6911p+0',
                                           '0x1.dcfd416388339p-1',
                                           '0x1.abc83125ea8f5p-1',
                                           '0x1.8075513a2cae1p-1'],
                                'reg': ['0x1.03ef61bb3e6fap+0',
                                        '0x1.cca0be5d8ac20p-1',
                                        '0x1.9bd49c63f589bp-1',
                                        '0x1.6ccc525e7a88bp-1'],
                                'w_to_a': ['0x1.f2d10be66b700p-1',
                                           '0x1.ba436de3a5eddp-1',
                                           '0x1.9200676a6e694p-1',
                                           '0x1.6f009063b0745p-1'],
                                'w_to_w': ['0x1.ea99d4f0fe10fp-1',
                                           '0x1.95a6d46043a09p-1',
                                           '0x1.52a451480a9fap-1',
                                           '0x1.2381e948788e3p-1']},
                      'total': ['0x1.fdec7600e4e0ap+1',
                                '0x1.be6210813f20fp+1',
                                '0x1.8b10618f16487p+1',
                                '0x1.5ff10751340e5p+1']},
 'train_l2': {'params': 'f6a324aea56bb71843555f76ebf5f52adfe16ab5eb26f4381a1b60052cf79a92',
              'stopped_early': False,
              'terms': {'a_to_a': ['0x1.03d8a8780c7eap+1',
                                   '0x1.8913256390362p+0',
                                   '0x1.37f66cb026a48p+0',
                                   '0x1.035d32cd02149p+0',
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
                                   '0x1.f8a005069c757p-1'],
                        'w_to_w': ['0x1.0eb1dbab3ed38p-2',
                                   '0x1.c1fc3a02dd152p-3',
                                   '0x1.94d428253c14cp-3',
                                   '0x1.835e0ae689a02p-3',
                                   '0x1.722fabd8183bep-3']},
              'total': ['0x1.2b123ad400319p+2',
                        '0x1.d10d17c6cd3ecp+1',
                        '0x1.81b85785032c4p+1',
                        '0x1.4f1d1cdf89daap+1',
                        '0x1.2fc24639a9241p+1']}}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_outputs_are_bit_identical(case, tmp_path):
    assert _outputs(case, tmp_path) == GOLDEN[case]


def test_golden_early_stop_case_really_stops():
    assert GOLDEN["train_early_stop"]["stopped_early"]
    assert len(GOLDEN["train_early_stop"]["total"]) == 4


def test_golden_subspace_case_trains_a_real_penalty():
    # the 21 seen rows of the other cases span all of R^5, so their penalty is
    # rounding noise; here the seen rows span a proper subspace
    pairs, unseen = _task(SUB_SEEN, SUB_D_W)
    basis = span_basis(pairs.weights)
    assert basis.shape[0] == SUB_SEEN < SUB_D_W
    penalty, _ = subspace_reg_loss(_model(SUB_D_W).a_to_w.predict(unseen), basis)
    assert penalty > 1e-3
