"""CPD builders: uniform, tabular, deterministic and noisy-OR tables."""

import numpy as np
import pytest

from repro.bn.cpd import (
    deterministic_cpd,
    noisy_or_cpd,
    tabular_cpd,
    uniform_cpd,
)
from repro.bn.network import BayesianNetwork
from repro.inference.engine import InferenceEngine


class TestCpdBuilders:
    def test_uniform(self):
        cpd = uniform_cpd(3, 4)
        assert np.allclose(cpd.values, 0.25)

    def test_tabular_validates_rows(self):
        with pytest.raises(ValueError, match="sum to 1"):
            tabular_cpd(1, 2, [0], [2], np.array([[0.5, 0.6], [0.5, 0.5]]))

    def test_tabular_in_network(self):
        bn = BayesianNetwork([2, 2])
        bn.add_edge(0, 1)
        bn.set_cpt(0, uniform_cpd(0, 2))
        bn.set_cpt(
            1, tabular_cpd(1, 2, [0], [2], np.array([[0.9, 0.1], [0.2, 0.8]]))
        )
        assert np.allclose(
            bn.marginal_bruteforce(1), [0.55, 0.45]
        )

    def test_deterministic_xor(self):
        cpd = deterministic_cpd(2, 2, [0, 1], [2, 2], lambda a, b: a ^ b)
        assert cpd.values[0, 1, 1] == 1.0
        assert cpd.values[1, 1, 0] == 1.0
        assert np.allclose(cpd.values.sum(axis=-1), 1.0)

    def test_deterministic_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            deterministic_cpd(1, 2, [0], [2], lambda a: 5)

    def test_noisy_or_no_parents_active(self):
        cpd = noisy_or_cpd(2, [0, 1], [0.8, 0.6], leak=0.1)
        assert cpd.values[0, 0, 1] == pytest.approx(0.1)

    def test_noisy_or_all_parents_active(self):
        cpd = noisy_or_cpd(2, [0, 1], [0.8, 0.6], leak=0.0)
        assert cpd.values[1, 1, 1] == pytest.approx(1 - 0.2 * 0.4)

    def test_noisy_or_rows_normalized(self):
        cpd = noisy_or_cpd(3, [0, 1, 2], [0.5, 0.5, 0.5], leak=0.05)
        assert np.allclose(cpd.values.sum(axis=-1), 1.0)

    def test_noisy_or_validation(self):
        with pytest.raises(ValueError):
            noisy_or_cpd(1, [0], [0.5, 0.5])
        with pytest.raises(ValueError):
            noisy_or_cpd(1, [0], [1.5])
        with pytest.raises(ValueError):
            noisy_or_cpd(1, [0], [0.5], leak=1.0)

    def test_noisy_or_inference_end_to_end(self):
        # Two causes, noisy-OR effect; verify posterior "explaining away".
        bn = BayesianNetwork([2, 2, 2])
        bn.add_edge(0, 2)
        bn.add_edge(1, 2)
        bn.set_cpt(0, tabular_cpd(0, 2, [], [], np.array([0.9, 0.1])))
        bn.set_cpt(1, tabular_cpd(1, 2, [], [], np.array([0.7, 0.3])))
        bn.set_cpt(2, noisy_or_cpd(2, [0, 1], [0.9, 0.8], leak=0.01))
        engine = InferenceEngine.from_network(bn)
        engine.set_evidence({2: 1})
        engine.propagate()
        p0_effect = engine.marginal(0)[1]
        engine.set_evidence({2: 1, 1: 1})
        engine.propagate()
        p0_explained = engine.marginal(0)[1]
        assert p0_explained < p0_effect  # cause 1 explains the effect away
