"""Energy and energy-delay accounting of simulated runs."""

import pytest

from repro.jt.generation import synthetic_tree
from repro.jt.rerooting import reroot_optimally
from repro.simcore.policies import CollaborativePolicy
from repro.simcore.profiles import XEON
from repro.tasks.dag import build_task_graph


@pytest.fixture(scope="module")
def graph():
    tree = synthetic_tree(
        48, clique_width=12, states=2, avg_children=3, seed=123
    )
    tree, _, _ = reroot_optimally(tree)
    return build_task_graph(tree)


class TestEnergy:
    def test_energy_nonnegative_and_scales(self, graph):
        result = CollaborativePolicy().simulate(graph, XEON, 4)
        low = result.energy_joules(active_watts=10, idle_watts=2)
        high = result.energy_joules(active_watts=20, idle_watts=2)
        assert 0 < low < high

    def test_idle_cores_draw_idle_power(self, graph):
        result = CollaborativePolicy().simulate(graph, XEON, 8)
        zero_idle = result.energy_joules(active_watts=10, idle_watts=0)
        with_idle = result.energy_joules(active_watts=10, idle_watts=5)
        assert with_idle > zero_idle

    def test_edp_consistent(self, graph):
        result = CollaborativePolicy().simulate(graph, XEON, 4)
        assert result.energy_delay_product() == pytest.approx(
            result.energy_joules() * result.makespan
        )

    def test_negative_power_rejected(self, graph):
        result = CollaborativePolicy().simulate(graph, XEON, 2)
        with pytest.raises(ValueError):
            result.energy_joules(active_watts=-1)

    def test_parallel_saves_energy_via_idle_reduction(self, graph):
        """More cores finish sooner: busy energy is ~constant, idle
        energy shrinks with the makespan tail, so EDP improves."""
        serial = CollaborativePolicy().simulate(graph, XEON, 1)
        parallel = CollaborativePolicy().simulate(graph, XEON, 8)
        assert (
            parallel.energy_delay_product()
            < serial.energy_delay_product()
        )
