"""Task-graph metrics: level widths, work splits, heavy tasks, summary."""

import numpy as np
import pytest

from repro.jt.generation import synthetic_tree
from repro.tasks.dag import build_task_graph
from repro.tasks.metrics import (
    heavy_task_fraction,
    level_widths,
    level_work,
    summarize,
    work_by_kind,
    work_by_phase,
)


@pytest.fixture(scope="module")
def graph():
    tree = synthetic_tree(30, clique_width=6, avg_children=3, seed=55)
    return build_task_graph(tree)


class TestMetrics:
    def test_level_widths_sum_to_task_count(self, graph):
        assert sum(level_widths(graph)) == graph.num_tasks

    def test_level_work_sums_to_total(self, graph):
        assert np.isclose(sum(level_work(graph)), graph.total_work())

    def test_phase_split_covers_everything(self, graph):
        split = work_by_phase(graph)
        assert set(split) == {"collect", "distribute"}
        assert np.isclose(sum(split.values()), graph.total_work())

    def test_kind_split_covers_everything(self, graph):
        split = work_by_kind(graph)
        assert set(split) == {
            "marginalize",
            "divide",
            "extend",
            "multiply",
        }
        assert np.isclose(sum(split.values()), graph.total_work())

    def test_heavy_fraction_monotone_in_threshold(self, graph):
        small = heavy_task_fraction(graph, 1)
        large = heavy_task_fraction(graph, 1 << 20)
        assert 0.0 <= large <= small <= 1.0

    def test_summary_consistency(self, graph):
        summary = summarize(graph)
        assert summary.num_tasks == graph.num_tasks
        assert summary.parallelism >= 1.0
        assert summary.max_level_width <= graph.num_tasks
        assert summary.num_levels == len(level_widths(graph))

    def test_empty_graph_summary(self):
        from repro.tasks.task import TaskGraph

        summary = summarize(TaskGraph())
        assert summary.num_tasks == 0
        assert summary.parallelism == 1.0
        assert heavy_task_fraction(TaskGraph(), 1) == 0.0

