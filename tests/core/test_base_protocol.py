"""Tests for the SSL method protocol (``engine.Method``) and Stopwatch."""

import time

import numpy as np

from repro.baselines import DGI, GraphCL
from repro.core import GCMAEConfig, GCMAEMethod, Stopwatch
from repro.core.base import EmbeddingResult
from repro.engine import Method


class TestProtocols:
    def test_gcmae_satisfies_node_protocol(self):
        assert isinstance(GCMAEMethod(GCMAEConfig(epochs=1)), Method)

    def test_gcmae_satisfies_graph_protocol(self):
        assert isinstance(GCMAEMethod(GCMAEConfig(epochs=1)), Method)

    def test_dgi_satisfies_node_protocol(self):
        assert isinstance(DGI(epochs=1), Method)

    def test_graphcl_satisfies_graph_protocol(self):
        assert isinstance(GraphCL(epochs=1), Method)

    def test_embedding_result_defaults(self):
        result = EmbeddingResult(np.zeros((3, 2)), 1.0)
        assert result.loss_history == []


class TestStopwatch:
    def test_measures_elapsed_time(self):
        with Stopwatch() as timer:
            time.sleep(0.02)
        assert timer.seconds >= 0.015

    def test_reusable(self):
        watch = Stopwatch()
        with watch:
            pass
        first = watch.seconds
        with watch:
            time.sleep(0.01)
        assert watch.seconds >= first
