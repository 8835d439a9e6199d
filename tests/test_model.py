"""Tests for the weight-inference model: configs, loss terms, training,
stopping, injection, and checkpoints."""

import tracemalloc

import numpy as np
import pytest

from icis.data import ClassifierHead, PairSet, make_pairs, synth_generate
from icis.errors import ClassIdError, DataFormatError, DivergenceError, IcisError, ZeroNormError
from icis.model import (
    IcisModel,
    LossConfig,
    LossTrace,
    TrainConfig,
    _proportional_slice,
    ablation_variants,
    fit,
    infer_and_inject,
    infer_weights,
    inject,
    load_checkpoint,
    save_checkpoint,
    should_stop,
    stopping_threshold,
    total_loss,
    train,
)
from icis.nn import LinearLayer, MlpTwoLayer, batch_cosine_loss, batch_l2_loss
from icis.tensor import RngState


def parameters(module) -> list:
    """Every parameter of ``module``, layer by layer in ``layers()`` order."""
    return [p for layer in module.layers() for p in layer.parameters()]


# ---------------------------------------------------------------------------
# configs


def test_loss_config_validates_distance():
    with pytest.raises(IcisError):
        LossConfig(distance="hamming")


def test_loss_config_enabled_terms():
    assert LossConfig().enabled_terms() == ("reg", "a_to_a", "w_to_w", "w_to_a")
    assert LossConfig(use_a_to_a=False, use_w_to_w=False, use_w_to_a=False).enabled_terms() == ("reg",)
    assert LossConfig(use_w_to_w=False).enabled_terms() == ("reg", "a_to_a", "w_to_a")


def test_train_config_validation():
    TrainConfig(max_epochs=0)  # zero epochs is legal
    with pytest.raises(IcisError):
        TrainConfig(batch_size=0)
    with pytest.raises(IcisError):
        TrainConfig(max_epochs=-1)
    with pytest.raises(IcisError):
        TrainConfig(stop_window=0)
    with pytest.raises(IcisError):
        TrainConfig(stop_threshold=0.0)
    with pytest.raises(IcisError):
        TrainConfig(hidden_dim=0)
    with pytest.raises(IcisError, match="seed must be >= 0, got -1"):
        TrainConfig(seed=-1)
    TrainConfig(lr=0.0)  # a zero learning rate is legal
    for bad in (dict(lr=-1.0), dict(lr=float("nan")), dict(lr=float("inf")),
                dict(stop_threshold=float("nan"))):
        with pytest.raises(IcisError):
            TrainConfig(**bad)


def test_stopping_threshold_shrinks_for_squared_error():
    cfg = TrainConfig(stop_threshold=2e-4)
    assert stopping_threshold(LossConfig(), cfg) == pytest.approx(2e-4)
    assert stopping_threshold(LossConfig(distance="l2"), cfg) == pytest.approx(2e-7)


# ---------------------------------------------------------------------------
# slope stopping


def test_should_stop_needs_two_full_windows():
    assert not should_stop([1.0] * 19, window=10, threshold=1e-3)
    assert should_stop([1.0] * 20, window=10, threshold=1e-3)


def test_should_stop_flat_trace_stops():
    assert should_stop([0.5] * 8, window=4, threshold=2e-4)


def test_should_stop_steep_decline_keeps_going():
    losses = [1.0 - 0.05 * i for i in range(20)]
    # window means differ by 0.05 * window = 0.5 >> threshold
    assert not should_stop(losses, window=10, threshold=2e-4)


def test_should_stop_threshold_boundary():
    # previous window mean 1.0, latest 1.0 - delta; stop iff delta < threshold
    def trace(delta):
        return [1.0] * 10 + [1.0 - delta] * 10

    assert should_stop(trace(1e-5), window=10, threshold=2e-4)
    assert not should_stop(trace(1e-3), window=10, threshold=2e-4)


def test_loss_trace_records_and_serialises(tmp_path):
    trace = LossTrace()
    trace.append(1.0, {"reg": 0.6, "a_to_a": 0.4})
    trace.append(0.5, {"reg": 0.3, "a_to_a": 0.2})
    assert trace.epochs_run == 2
    trace.to_csv(tmp_path / "trace.csv")
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == "epoch,total,reg,a_to_a,w_to_w,w_to_a"
    assert lines[1].startswith("0,1.0,0.6,0.4")


# ---------------------------------------------------------------------------
# model structure


def test_model_init_shapes_and_determinism():
    m1 = IcisModel.init(5, 7, 16, RngState(3))
    m2 = IcisModel.init(5, 7, 16, RngState(3))
    assert m1.d_a == 5 and m1.d_w == 7 and m1.hidden == 16
    assert m1.a_to_w.in_dim == 5 and m1.a_to_w.out_dim == 7
    assert m1.w_to_a.in_dim == 7 and m1.w_to_a.out_dim == 5
    for p, q in zip(parameters(m1), parameters(m2)):
        assert np.array_equal(p, q)
    m3 = IcisModel.init(5, 7, 16, RngState(4))
    assert not all(np.array_equal(p, q) for p, q in zip(parameters(m1), parameters(m3)))


def test_model_views_share_layers():
    m = IcisModel.init(3, 4, 8, RngState(0))
    assert m.a_to_w.layer1 is m.a_to_a.layer1 is m.desc_encoder
    assert m.a_to_w.layer2 is m.w_to_w.layer2 is m.weight_decoder
    assert m.w_to_w.layer1 is m.w_to_a.layer1 is m.weight_encoder
    assert m.a_to_a.layer2 is m.w_to_a.layer2 is m.desc_decoder


def test_model_rejects_mismatched_latents():
    ok = lambda i, o: LinearLayer(np.ones((o, i)), np.zeros(o))
    with pytest.raises(IcisError):
        IcisModel(ok(3, 8), ok(8, 3), ok(4, 9), ok(9, 4))


@pytest.mark.parametrize("d_desc_out, d_weight_out", [(5, 6), (4, 7), (5, 7)])
def test_model_rejects_decoders_that_do_not_invert_their_encoders(d_desc_out, d_weight_out):
    layer = lambda i, o: LinearLayer(np.ones((o, i)), np.zeros(o))
    with pytest.raises(IcisError, match="decoder output dims"):
        IcisModel(layer(4, 8), layer(8, d_desc_out), layer(6, 8), layer(8, d_weight_out))


def test_train_refuses_a_hidden_dim_other_than_the_model_width():
    m = IcisModel.init(4, 6, 8, RngState(0))
    before = [p.copy() for p in parameters(m)]
    with pytest.raises(IcisError, match="hidden_dim=16 does not match the model's latent width 8"):
        train(m, _toy_pairs(), train_config=TrainConfig(max_epochs=1, hidden_dim=16))
    assert all(np.array_equal(p, q) for p, q in zip(parameters(m), before))


# ---------------------------------------------------------------------------
# loss terms


def _identity_layers(d):
    # relu-safe identity: route positive and negative parts separately
    up = np.vstack([np.eye(d), -np.eye(d)])
    down = np.hstack([np.eye(d), -np.eye(d)])
    return (
        LinearLayer(up.copy(), np.zeros(2 * d)),
        LinearLayer(down.copy(), np.zeros(d)),
    )


def _identity_model(d):
    e1, d1 = _identity_layers(d)
    e2, d2 = _identity_layers(d)
    return IcisModel(e1, d1, e2, d2)


def test_identity_model_has_zero_loss_on_matched_pairs():
    m = _identity_model(3)
    a = np.array([[1.0, -2.0, 0.5], [0.25, 3.0, -1.0]])
    values = total_loss(m, a, a, LossConfig())
    for name in ("reg", "a_to_a", "w_to_w", "w_to_a", "total"):
        assert values[name] == pytest.approx(0.0, abs=1e-12)


def test_infer_weights_uses_regression_path():
    m = _identity_model(3)
    a = np.array([[0.5, -1.5, 2.0]])
    assert np.allclose(infer_weights(m, a), a, atol=1e-12)
    with pytest.raises(IcisError):
        infer_weights(m, np.ones((1, 4)))


def _term_paths(m, a, w):
    # (term, composition, input, target) per term, written out independently of total_loss
    return [("reg", m.a_to_w, a, w), ("a_to_a", m.a_to_a, a, a),
            ("w_to_w", m.w_to_w, w, w), ("w_to_a", m.w_to_a, w, a)]


def test_total_loss_matches_named_terms():
    m = IcisModel.init(4, 6, 10, RngState(5))
    a = RngState(6).normal(5, 4)
    w = RngState(7).normal(5, 6)
    values = total_loss(m, a, w, LossConfig())
    for name, net, x, y in _term_paths(m, a, w):
        assert values[name] == pytest.approx(batch_cosine_loss(net.forward(x), y)[0], abs=1e-12)
    assert values["total"] == pytest.approx(
        values["reg"] + values["a_to_a"] + values["w_to_w"] + values["w_to_a"], abs=1e-12
    )


def test_total_loss_disabled_terms_are_absent():
    m = IcisModel.init(4, 6, 10, RngState(5))
    a = RngState(6).normal(5, 4)
    w = RngState(7).normal(5, 6)
    only_reg = total_loss(m, a, w, LossConfig(use_a_to_a=False, use_w_to_w=False, use_w_to_a=False))
    assert set(only_reg) == {"reg", "total"}
    assert only_reg["total"] == pytest.approx(only_reg["reg"], abs=1e-15)


def test_the_weight_encoder_writes_from_the_batch_weights_held_once():
    # w_to_w and w_to_a both record the batch's w on the weight encoder: the
    # second record sums its upstream onto the first pair's, which keeps w
    # itself, not a copy
    m = IcisModel.init(4, 6, 10, RngState(5))
    a = RngState(6).normal(5, 4)
    w = RngState(7).normal(5, 6)
    total_loss(m, a, w, LossConfig(), unseen_descriptors=RngState(8).normal(2, 4))
    assert len(m.weight_encoder.factors) == 1
    u, x = m.weight_encoder.stacked_factors()
    assert x is w and u.shape == (5, 10)
    # the descriptor encoder's two inputs (a, and a with the unseen rows) differ
    assert len(m.desc_encoder.factors) == 2


def test_total_gradient_is_sum_of_term_gradients():
    m = IcisModel.init(4, 6, 10, RngState(8))
    a = RngState(9).normal(5, 4)
    w = RngState(10).normal(5, 6)
    m.zero_grad()
    total_loss(m, a, w, LossConfig())
    combined = [g.array() for layer in m.layers() for g in layer.gradient_writers()]

    m.zero_grad()
    for _name, net, x, y in _term_paths(m, a, w):
        net.backward(batch_cosine_loss(net.forward(x), y)[1])
    for got, expected in zip(combined, [g.array() for layer in m.layers() for g in layer.gradient_writers()]):
        assert np.allclose(got, expected, atol=1e-10)


def test_unseen_descriptors_feed_only_the_descriptor_autoencoder():
    m = IcisModel.init(4, 6, 10, RngState(11))
    a = RngState(12).normal(5, 4)
    w = RngState(13).normal(5, 6)
    extra = RngState(14).normal(3, 4)
    with_extra = total_loss(m, a, w, LossConfig(), unseen_descriptors=extra)
    without = total_loss(m, a, w, LossConfig(), unseen_descriptors=None)
    assert with_extra["reg"] == pytest.approx(without["reg"], abs=1e-15)
    assert with_extra["w_to_w"] == pytest.approx(without["w_to_w"], abs=1e-15)
    assert with_extra["w_to_a"] == pytest.approx(without["w_to_a"], abs=1e-15)
    assert with_extra["a_to_a"] != pytest.approx(without["a_to_a"], abs=1e-9)
    # and the config switch removes them again
    off = total_loss(m, a, w, LossConfig(include_unseen_descriptors=False), unseen_descriptors=extra)
    assert off["a_to_a"] == pytest.approx(without["a_to_a"], abs=1e-15)


def test_unseen_descriptors_leave_a_loss_without_the_descriptor_autoencoder_alone():
    task = synth_generate(seed=3, n_seen=21, n_unseen=7, d_a=6, d_w=5, samples_per_class=1)
    pairs = make_pairs(task.descriptors, task.head)
    unseen = task.descriptors.subset(task.manifest.unseen).matrix
    cfg = TrainConfig(lr=1e-2, batch_size=4, hidden_dim=8, max_epochs=3, stop_window=3, seed=7)
    runs = []
    for include in (True, False):
        lc = LossConfig(use_a_to_a=False, use_w_to_w=False, use_w_to_a=False,
                        include_unseen_descriptors=include)
        assert not lc.uses_unseen_descriptors
        model = IcisModel.init(6, 5, 8, RngState(4).spawn("model-init"))
        trace = train(model, pairs, unseen, lc, cfg)
        runs.append(([float(x).hex() for x in trace.total], parameters(model)))
    # the unseen rows drew no shuffle of their own, so the traces and weights are equal
    assert runs[0][0] == runs[1][0]
    assert all(np.array_equal(a, b) for a, b in zip(runs[0][1], runs[1][1]))
    assert LossConfig().uses_unseen_descriptors


def test_proportional_slice_partitions_the_target_range():
    n_src, n_dst, batch = 23, 7, 5
    covered = []
    for start in range(0, n_src, batch):
        end = min(start + batch, n_src)
        s = _proportional_slice(start, end, n_src, n_dst)
        covered.extend(range(n_dst)[s])
    assert covered == list(range(n_dst))


# ---------------------------------------------------------------------------
# training


def _toy_pairs(n=8, d_a=4, d_w=6, seed=0):
    rng = RngState(seed)
    return PairSet([f"c{i}" for i in range(n)], rng.normal(n, d_a), rng.normal(n, d_w))


def test_train_zero_epochs_returns_empty_trace_and_leaves_model_alone():
    pairs = _toy_pairs()
    m = IcisModel.init(4, 6, 8, RngState(0))
    before = [p.copy() for p in parameters(m)]
    trace = train(m, pairs, train_config=TrainConfig(max_epochs=0, hidden_dim=8))
    assert trace.total == [] and not trace.stopped_early
    for p, q in zip(parameters(m), before):
        assert np.array_equal(p, q)


def test_train_requires_two_pairs():
    single = PairSet(["a"], np.ones((1, 4)), np.ones((1, 6)))
    m = IcisModel.init(4, 6, 8, RngState(0))
    with pytest.raises(IcisError):
        train(m, single)


def test_train_rejects_dim_mismatch():
    pairs = _toy_pairs(d_a=4, d_w=6)
    m = IcisModel.init(5, 6, 8, RngState(0))
    with pytest.raises(IcisError):
        train(m, pairs)


def test_train_reduces_regression_loss_on_synthetic_task():
    task = synth_generate(seed=0, n_seen=24, n_unseen=0, d_a=8, d_w=12, samples_per_class=1)
    pairs = make_pairs(task.descriptors.subset(task.manifest.seen), task.head)
    m = IcisModel.init(8, 12, 64, RngState(1))
    trace = train(m, pairs, train_config=TrainConfig(lr=1e-3, max_epochs=60, hidden_dim=64))
    assert trace.terms["reg"][-1] < trace.terms["reg"][0] * 0.5


def test_train_equal_seeds_are_bit_identical():
    pairs = _toy_pairs()
    cfg = TrainConfig(lr=1e-3, max_epochs=8, hidden_dim=8, seed=4)
    m1 = IcisModel.init(4, 6, 8, RngState(2))
    m2 = IcisModel.init(4, 6, 8, RngState(2))
    t1 = train(m1, pairs, train_config=cfg)
    t2 = train(m2, pairs, train_config=cfg)
    assert t1.total == t2.total
    for p, q in zip(parameters(m1), parameters(m2)):
        assert np.array_equal(p, q)


def test_train_shuffle_seed_changes_trajectory():
    pairs = _toy_pairs(n=20)
    m1 = IcisModel.init(4, 6, 8, RngState(2))
    m2 = IcisModel.init(4, 6, 8, RngState(2))
    t1 = train(m1, pairs, train_config=TrainConfig(lr=1e-3, max_epochs=5, hidden_dim=8, batch_size=4, seed=0))
    t2 = train(m2, pairs, train_config=TrainConfig(lr=1e-3, max_epochs=5, hidden_dim=8, batch_size=4, seed=1))
    assert t1.total != t2.total


def test_train_flat_loss_stops_after_two_windows():
    pairs = _toy_pairs()
    m = IcisModel.init(4, 6, 8, RngState(3))
    # zero learning rate keeps the loss exactly flat
    cfg = TrainConfig(lr=0.0, max_epochs=50, stop_window=10, hidden_dim=8)
    trace = train(m, pairs, train_config=cfg)
    assert trace.stopped_early
    assert trace.epochs_run == 20


def test_train_divergence_carries_partial_trace():
    pairs = _toy_pairs()
    m = IcisModel.init(4, 6, 8, RngState(4))
    cfg = TrainConfig(lr=1e9, max_epochs=50, hidden_dim=8)
    with pytest.raises(DivergenceError) as err:
        train(m, pairs, loss_config=LossConfig(distance="l2"), train_config=cfg)
    assert err.value.trace is not None
    assert err.value.trace.epochs_run >= 1


def test_a_zero_norm_error_in_a_step_carries_the_finished_epochs():
    rng = RngState(93)
    net = MlpTwoLayer(LinearLayer.init(3, 4, rng, pre_rectifier=True),
                      LinearLayer.init(4, 3, rng, pre_rectifier=False))
    x = RngState(94).normal(4, 3)
    calls = []

    def step(rows, _extra_rows):
        calls.append(rows.size)
        if len(calls) == 3:  # the first batch of the second epoch
            raise ZeroNormError("zero-norm predicted row(s)")
        loss, grad = batch_l2_loss(net.forward(x[rows]), x[rows])
        net.backward(grad)
        return {"reg": (loss, rows.size)}

    with pytest.raises(ZeroNormError, match="zero-norm predicted") as err:
        fit(net, 4, step, TrainConfig(lr=1e-3, batch_size=2, max_epochs=5, stop_window=5), RngState(95), 1.0)
    assert err.value.trace.epochs_run == 1 and len(err.value.trace.terms["reg"]) == 1


def test_fit_holds_no_gradient_buffer_and_steps_without_weight_sized_temporaries():
    side = 1024  # each weight is 8 MiB
    held = []

    def step(rows, _extra_rows):
        if len(held) == 1:
            # the first step built m and v; from here only p, m and v should be held
            held.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
        else:
            held.append(None)
        for _ in range(2):  # two terms, so a later pair's product is added too
            loss, grad = batch_l2_loss(net.forward(x[rows]), x[rows])
            net.backward(grad)
        return {"reg": (loss, rows.size)}

    tracemalloc.start()
    try:
        rng = RngState(90)
        net = MlpTwoLayer(LinearLayer.init(side, side, rng, pre_rectifier=True),
                          LinearLayer.init(side, side, rng, pre_rectifier=False))
        x = RngState(91).normal(4, side)
        fit(net, 4, step, TrainConfig(lr=1e-3, batch_size=2, max_epochs=1, stop_window=1), RngState(92), 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    weight = net.layer1.weight.nbytes
    params = sum(p.nbytes for p in parameters(net))
    assert len(held) == 2
    # p, m, v, Adam's scratch (1.25 MiB) and the data; a gradient buffer would add 2 weights
    assert held[1] < 3 * params + weight / 2
    assert peak - held[1] < weight / 4


def test_train_callback_sees_every_epoch():
    pairs = _toy_pairs()
    m = IcisModel.init(4, 6, 8, RngState(5))
    seen = []
    train(m, pairs, train_config=TrainConfig(lr=1e-4, max_epochs=6, hidden_dim=8),
          callback=lambda e, loss: seen.append((e, loss)))
    assert [e for e, _ in seen] == list(range(6))


# the ladder, plus the loss of ``--terms a2w,w2w``
REACHED_CONFIGS = {**ablation_variants(), "a2w_w2w": LossConfig(use_a_to_a=False, use_w_to_a=False)}


def _train_recording_adam(monkeypatch, loss_config, over_all_layers):
    """Train a tiny model; returns it, its initial parameters, the trace and
    the Adam states seen. With ``over_all_layers`` the oracle runs: every
    Adam step is given all four layers' parameters and writers, as if every
    layer were reached."""
    import icis.model as model_module

    states = []
    real_adam = model_module.adam_step
    m = IcisModel.init(4, 5, 16, RngState(9))
    every_writer = [g for layer in m.layers() for g in layer.gradient_writers()]

    def recording_adam(state, params, grads):
        states.append(state)
        if over_all_layers:
            params, grads = parameters(m), every_writer
        return real_adam(state, params, grads)

    monkeypatch.setattr(model_module, "adam_step", recording_adam)
    pairs = _toy_pairs(n=10, d_a=4, d_w=5, seed=7)
    unseen = RngState(8).normal(3, 4)
    initial = [p.copy() for p in parameters(m)]
    trace = train(m, pairs, unseen, loss_config,
                  TrainConfig(lr=1e-3, batch_size=4, max_epochs=3, hidden_dim=16, seed=1))
    monkeypatch.undo()
    return m, initial, trace, states


@pytest.mark.parametrize("name", sorted(REACHED_CONFIGS))
def test_adam_over_the_reached_layers_is_bit_identical_to_adam_over_all_four(monkeypatch, name):
    loss_config = REACHED_CONFIGS[name]
    m, initial, trace, states = _train_recording_adam(monkeypatch, loss_config, over_all_layers=False)
    oracle, _, oracle_trace, oracle_states = _train_recording_adam(monkeypatch, loss_config, over_all_layers=True)
    assert trace.total == oracle_trace.total and trace.terms == oracle_trace.terms
    for p, q in zip(parameters(m), parameters(oracle)):
        assert np.array_equal(p, q)
    assert len(oracle_states[-1]._m) == 8
    trained = [layer for layer, start in zip(m.layers(), zip(initial[::2], initial[1::2]))
               if not all(np.array_equal(p, q) for p, q in zip(layer.parameters(), start))]
    assert [m_.shape for m_ in states[-1]._m] == [p.shape for layer in trained for p in layer.parameters()]


def test_base_l2_steps_adam_over_the_regression_path_alone(monkeypatch):
    m, initial, _trace, states = _train_recording_adam(monkeypatch, ablation_variants()["base_l2"],
                                                       over_all_layers=False)
    assert len({id(s) for s in states}) == 1  # one Adam state for the whole run
    assert len(states[0]._m) == len(states[0]._v) == 4
    assert [m_.shape for m_ in states[0]._m] == [p.shape for p in parameters(m.a_to_w)]
    for p, q in zip(m.desc_decoder.parameters() + m.weight_encoder.parameters(), initial[2:6]):
        assert np.array_equal(p, q)


# the layers each trainer's loss reaches, in ``layers()`` order
ALL_FOUR = ("desc_encoder", "desc_decoder", "weight_encoder", "weight_decoder")
REACHED = {"base_l2": ("desc_encoder", "weight_decoder"), "cosine": ("desc_encoder", "weight_decoder"),
           "within_spaces": ALL_FOUR, "across_spaces": ALL_FOUR, "full": ALL_FOUR,
           "subreg": ("desc_encoder", "weight_decoder"), "dae": ("layer1", "layer2")}


@pytest.mark.parametrize("name", sorted(REACHED))
def test_adam_holds_moments_for_exactly_the_layers_that_recorded_factors(monkeypatch, name):
    import icis.baselines as baselines_module
    import icis.model as model_module

    modules, steps = [], []
    real_adam, real_fit = model_module.adam_step, model_module.fit

    def recording_fit(module, *args, **kwargs):
        modules.append(module)
        return real_fit(module, *args, **kwargs)

    def recording_adam(state, params, grads):
        recorded = [layer for layer in modules[-1].layers() if layer.factors]
        real_adam(state, params, grads)
        steps.append((state, recorded, params, [g.layer for g in grads]))

    monkeypatch.setattr(model_module, "adam_step", recording_adam)
    monkeypatch.setattr(model_module, "fit", recording_fit)
    monkeypatch.setattr(baselines_module, "fit", recording_fit)
    pairs = _toy_pairs(n=10, d_a=4, d_w=5, seed=7)
    unseen = RngState(8).normal(3, 4)
    m = IcisModel.init(4, 5, 16, RngState(9))
    cfg = TrainConfig(lr=1e-3, batch_size=4, max_epochs=2, hidden_dim=16, seed=1)
    if name == "subreg":
        baselines_module.train_subreg(m, pairs, unseen, train_config=cfg)
    elif name == "dae":
        baselines_module.dae_refine(pairs.weights, pairs.weights, seed=1, epochs=2)
    else:
        train(m, pairs, unseen, REACHED_CONFIGS[name], cfg)
    monkeypatch.undo()
    owner = m if name != "dae" else modules[0]
    reached = [getattr(owner, attr) for attr in REACHED[name]]
    # 2 epochs of 10 rows in batches of 4 (dae: DAE_BATCH_SIZE, one batch)
    assert len(modules) == 1 and len(steps) == (2 if name == "dae" else 6)
    for state, recorded, params, layers in steps:
        assert state is steps[0][0]
        assert recorded == reached
        assert params == [p for layer in reached for p in layer.parameters()]
        assert layers == [layer for layer in reached for _ in range(2)]
        assert [m_.shape for m_ in state._m] == [p.shape for p in params]


# ---------------------------------------------------------------------------
# injection


def _head(ids=("a", "b", "c")):
    return ClassifierHead(list(ids), np.eye(len(ids)) + 0.1)


def test_inject_empty_is_a_no_op():
    head = _head()
    out = inject(head, [], np.zeros((0, 3)))
    assert out.class_ids == head.class_ids
    assert np.array_equal(out.weights, head.weights)
    assert out.seen.all()


def test_inject_appends_rows_and_flags_them_unseen():
    head = _head()
    out = inject(head, ["d", "e"], np.full((2, 3), 0.5))
    assert out.class_ids == ["a", "b", "c", "d", "e"]
    assert out.seen.tolist() == [True, True, True, False, False]
    assert np.array_equal(out.weights[:3], head.weights)
    assert np.array_equal(out.weights[3:], np.full((2, 3), 0.5))


def test_inject_preserves_seen_logits_bit_for_bit():
    head = _head()
    x = RngState(0).normal(10, 3)
    before = head.logits(x)
    out = inject(head, ["z"], np.ones((1, 3)))
    after = out.logits(x)[:, :3]
    assert np.array_equal(before, after)


def test_inject_id_collision_is_an_error():
    with pytest.raises(ClassIdError):
        inject(_head(), ["b"], np.ones((1, 3)))


def test_inject_zsl_only_keeps_just_new_rows():
    out = inject(_head(), ["d", "e"], np.eye(3)[:2] + 0.5, zsl_only=True)
    assert out.class_ids == ["d", "e"]
    assert not out.seen.any()


def test_inject_merges_biases_with_zero_fill():
    head = _head()
    out = inject(head, ["d"], np.ones((1, 3)), new_biases=[2.5])
    assert out.biases.tolist() == [0.0, 0.0, 0.0, 2.5]


def test_inject_checks_new_rows_as_a_head():
    # the new rows are refused by the ClassifierHead checks, with its messages
    with pytest.raises(IcisError, match="zero-norm weight rows, first of class 'e'"):
        inject(_head(), ["d", "e"], [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ClassIdError, match="duplicate classifier id 'd'"):
        inject(_head(), ["d", "d"], np.ones((2, 3)))
    with pytest.raises(ClassIdError, match="bias vector length does not match weight rows"):
        inject(_head(), ["d"], np.ones((1, 3)), new_biases=[1.0, 2.0])
    with pytest.raises(IcisError, match="non-finite"):
        inject(_head(), ["d"], [[1.0, np.nan, 0.0]])


def test_inject_checks_the_new_rows_and_not_the_carried_over_ones(monkeypatch):
    head = ClassifierHead(["a", "b", "c"], np.eye(3) + 0.5, biases=[1.0, 2.0, 3.0], seen=[True, False, True])
    real, checked = ClassifierHead.__post_init__, []

    def counted(self):
        checked.append(list(self.class_ids))
        real(self)

    monkeypatch.setattr(ClassifierHead, "__post_init__", counted)
    out = inject(head, ["d", "e"], np.full((2, 3), 0.5), new_biases=[4.0, 5.0])
    assert checked == [["d", "e"]]
    # the result holds what the checking constructor would have made of the same rows
    again = ClassifierHead(out.class_ids, out.weights, out.biases, out.seen)
    for mine, theirs in ((out.weights, again.weights), (out.biases, again.biases), (out.seen, again.seen)):
        assert mine.dtype == theirs.dtype and mine.flags.c_contiguous and np.array_equal(mine, theirs)
    assert out.class_ids == ["a", "b", "c", "d", "e"] and out.seen.tolist() == [True, False, True, False, False]


def test_inject_of_no_rows_returns_a_copy_of_the_head():
    head = ClassifierHead(["a", "b"], np.eye(2) + 0.1, biases=[1.0, 2.0])
    out = inject(head, [], np.zeros((0, 2)))
    assert out.class_ids == head.class_ids and out.biases.tolist() == [1.0, 2.0]
    for mine, theirs in ((out.weights, head.weights), (out.biases, head.biases), (out.seen, head.seen)):
        assert np.array_equal(mine, theirs) and not np.shares_memory(mine, theirs)


def test_inject_zsl_only_shares_no_array_with_the_input():
    weights, biases = np.ones((2, 3)), np.array([1.0, 2.0])
    out = inject(_head(), ["d", "e"], weights, new_biases=biases, zsl_only=True)
    assert not np.shares_memory(out.weights, weights) and not np.shares_memory(out.biases, biases)
    weights[:], biases[:] = 7.0, 7.0
    assert out.weights.tolist() == [[1.0] * 3] * 2 and out.biases.tolist() == [1.0, 2.0]


def test_inject_shape_errors():
    with pytest.raises(ClassIdError):
        inject(_head(), ["d", "e"], np.ones((1, 3)))
    with pytest.raises(IcisError):
        inject(_head(), ["d"], np.ones((1, 4)))


def test_infer_and_inject_splits_bias_column():
    # model output dim = head dim + 1; trailing coordinate becomes the bias
    m = _identity_model(3)
    head = ClassifierHead(["a"], np.ones((1, 2)), biases=[0.0])
    desc = np.array([[0.5, -0.5, 2.0]])
    out = infer_and_inject(m, head, desc, ["new"], include_bias=True)
    assert np.allclose(out.weights[1], [0.5, -0.5], atol=1e-12)
    assert out.biases[1] == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(IcisError):
        infer_and_inject(m, ClassifierHead(["a"], np.ones((1, 3))), desc, ["new"], include_bias=True)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path):
    m = IcisModel.init(4, 6, 10, RngState(6))
    lc = LossConfig(distance="l2", use_w_to_a=False, include_unseen_descriptors=False)
    p = tmp_path / "model.ckpt"
    save_checkpoint(p, m, lc, include_bias=True, seed=42)
    back, lc2, meta = load_checkpoint(p)
    assert (back.d_a, back.d_w, back.hidden) == (4, 6, 10)
    assert lc2.distance == "l2" and not lc2.use_w_to_a and not lc2.include_unseen_descriptors
    assert lc2.use_a_to_a
    assert meta["include_bias"] == "1" and meta["seed"] == "42"
    for a, b in zip(parameters(m), parameters(back)):
        assert np.allclose(a, b, atol=1e-6)  # 32-bit storage


def test_checkpoint_predictions_survive_storage(tmp_path):
    m = IcisModel.init(4, 6, 10, RngState(7))
    p = tmp_path / "model.ckpt"
    save_checkpoint(p, m, LossConfig())
    back, _, _ = load_checkpoint(p)
    x = RngState(8).normal(3, 4)
    assert np.allclose(infer_weights(m, x), infer_weights(back, x), atol=1e-5)


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"NOPE" * 10)
    with pytest.raises(DataFormatError):
        load_checkpoint(p)


def test_checkpoint_truncation(tmp_path):
    m = IcisModel.init(3, 3, 4, RngState(0))
    p = tmp_path / "model.ckpt"
    save_checkpoint(p, m, LossConfig())
    raw = p.read_bytes()
    p.write_bytes(raw[:-10])
    with pytest.raises(DataFormatError):
        load_checkpoint(p)


def test_checkpoint_non_finite_block(tmp_path):
    m = IcisModel.init(3, 3, 4, RngState(0))
    p = tmp_path / "model.ckpt"
    save_checkpoint(p, m, LossConfig())
    raw = bytearray(p.read_bytes())
    # the first value of the last block (the weight decoder's bias)
    raw[-12:-8] = np.array([np.nan], dtype="<f4").tobytes()
    p.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError, match="non-finite"):
        load_checkpoint(p)


def test_checkpoint_non_finite_value_reports_its_byte(tmp_path, monkeypatch):
    m = IcisModel.init(3, 3, 4, RngState(0))
    p = tmp_path / "model.ckpt"
    save_checkpoint(p, m, LossConfig())
    raw = bytearray(p.read_bytes())
    # the last value of the last block, in its second chunk of two values
    raw[-4:] = np.array([np.nan], dtype="<f4").tobytes()
    p.write_bytes(bytes(raw))
    monkeypatch.setattr("icis.data.READ_CHUNK", 2)
    with pytest.raises(DataFormatError, match="non-finite") as err:
        load_checkpoint(p)
    assert err.value.offset == len(raw) - 4


@pytest.mark.parametrize("bad", [1e39, float("nan")])
def test_checkpoint_save_rejects_what_float32_cannot_hold_and_writes_nothing(tmp_path, bad):
    m = IcisModel.init(3, 3, 4, RngState(0))
    m.weight_decoder.bias[1] = bad
    p = tmp_path / "model.ckpt"
    with pytest.raises(IcisError, match="float32"):
        save_checkpoint(p, m, LossConfig())
    assert not p.exists()


def test_checkpoint_trailing_bytes(tmp_path):
    m = IcisModel.init(3, 3, 4, RngState(0))
    p = tmp_path / "model.ckpt"
    save_checkpoint(p, m, LossConfig())
    p.write_bytes(p.read_bytes() + b"extra")
    with pytest.raises(DataFormatError):
        load_checkpoint(p)


# ---------------------------------------------------------------------------
# ablation ladder


def test_ablation_ladder_names_and_order():
    assert list(ablation_variants()) == ["base_l2", "cosine", "within_spaces", "across_spaces", "full"]


def test_ablation_ladder_is_cumulative():
    v = ablation_variants()
    base = v["base_l2"]
    assert base.distance == "l2"
    assert base.enabled_terms() == ("reg",)
    assert v["cosine"].distance == "cosine"
    assert v["cosine"].enabled_terms() == ("reg",)
    assert v["within_spaces"].enabled_terms() == ("reg", "a_to_a", "w_to_w")
    assert v["across_spaces"].enabled_terms() == ("reg", "a_to_a", "w_to_w", "w_to_a")
    assert not v["across_spaces"].include_unseen_descriptors
    assert v["full"].include_unseen_descriptors
