"""Tests for the shared EpochHook protocol and the emit path."""

import numpy as np

from repro.nn import Tensor
from repro.nn.layers import Linear
from repro.nn.optim import Adam
from repro.obs import (
    EpochEvent,
    EpochHook,
    LambdaHook,
    active_hooks,
    emit_counter,
    emit_epoch,
    emit_gauge,
    gradient_norms,
    use_hooks,
)


class Collector:
    wants_gradients = False

    def __init__(self):
        self.events = []
        self.counters = []
        self.gauges = []

    def on_epoch(self, event):
        self.events.append(event)

    def counter(self, name, value, **tags):
        self.counters.append((name, value, tags))

    def gauge(self, name, value, **tags):
        self.gauges.append((name, value, tags))


def _model_and_optimizer():
    model = Linear(4, 3, rng=np.random.default_rng(0))
    optimizer = Adam(model.parameters())
    loss = (model(Tensor(np.ones((2, 4)))) ** 2).sum()
    loss.backward()
    return model, optimizer


class TestHookStack:
    def test_empty_by_default(self):
        assert active_hooks() == ()

    def test_use_hooks_nests_and_restores(self):
        a, b = Collector(), Collector()
        with use_hooks(a):
            assert active_hooks() == (a,)
            with use_hooks(b):
                assert active_hooks() == (a, b)
            assert active_hooks() == (a,)
        assert active_hooks() == ()

    def test_emit_epoch_without_hooks_is_noop(self):
        emit_epoch("GCMAE", 0, 1.0)  # must not raise, must not compute

    def test_emit_dispatches_to_all_hooks(self):
        a, b = Collector(), Collector()
        with use_hooks(a, b):
            emit_epoch("DGI", 3, 0.5, parts={"x": 0.25})
        assert len(a.events) == len(b.events) == 1
        event = a.events[0]
        assert event.method == "DGI" and event.epoch == 3
        assert event.loss == 0.5 and event.parts == {"x": 0.25}

    def test_extra_hooks_receive_events_without_stack(self):
        a = Collector()
        emit_epoch("GCMAE", 0, 1.0, extra_hooks=(a,))
        assert len(a.events) == 1


class TestGradientGating:
    def test_no_gradients_unless_requested(self):
        a = Collector()
        model, optimizer = _model_and_optimizer()
        with use_hooks(a):
            emit_epoch("X", 0, 1.0, model=model, optimizer=optimizer)
        assert a.events[0].grad_norms == {}
        assert a.events[0].update_ratio is None

    def test_gradients_computed_when_any_hook_wants_them(self):
        a, b = Collector(), Collector()
        b.wants_gradients = True
        model, optimizer = _model_and_optimizer()
        optimizer.step()
        with use_hooks(a, b):
            emit_epoch("X", 0, 1.0, model=model, optimizer=optimizer)
        event = a.events[0]  # every hook sees the same enriched event
        assert event.grad_norms and all(v >= 0.0 for v in event.grad_norms.values())
        assert event.update_ratio is not None and event.update_ratio > 0.0


class TestGradientNorms:
    def test_groups_by_first_name_component(self):
        model, _ = _model_and_optimizer()
        norms = gradient_norms(model=model)
        assert set(norms) == {"weight", "bias"}
        expected = float(np.sqrt(np.sum(np.square(model.weight.grad))))
        assert np.isclose(norms["weight"], expected)

    def test_optimizer_fallback_single_group(self):
        _, optimizer = _model_and_optimizer()
        norms = gradient_norms(optimizer=optimizer)
        assert set(norms) == {"all"}
        assert norms["all"] > 0.0

    def test_empty_without_model_or_optimizer(self):
        assert gradient_norms() == {}


class TestShims:
    def test_lambda_hook(self):
        seen = []
        hook = LambdaHook(seen.append, wants_gradients=True)
        assert hook.wants_gradients is True
        event = EpochEvent(method="X", epoch=0, loss=0.0)
        hook.on_epoch(event)
        assert seen == [event]

    def test_protocol_runtime_check(self):
        assert isinstance(Collector(), EpochHook)
        assert isinstance(LambdaHook(lambda e: None), EpochHook)


class TestCountersGauges:
    def test_counter_and_gauge_forwarded_with_tags(self):
        a = Collector()
        with use_hooks(a):
            emit_counter("table7.oom", method="MVGRL", dataset="x")
            emit_gauge("peak", 12.0)
        assert a.counters == [("table7.oom", 1.0, {"method": "MVGRL", "dataset": "x"})]
        assert a.gauges == [("peak", 12.0, {})]

    def test_hooks_without_counter_methods_are_skipped(self):
        hook = LambdaHook(lambda e: None)  # no counter()/gauge()
        with use_hooks(hook):
            emit_counter("x")
            emit_gauge("y", 1.0)  # must not raise
