"""Tests for the memory-model accounting (the ``memory`` verb's report)."""

from repro.experiments.memory_model import measure_memory
from repro.faults.injection import generate_scenario
from repro.mesh.topology import Mesh2D


class TestMemoryModel:
    def test_orders_of_magnitude(self, rng):
        scenario = generate_scenario(Mesh2D(60, 60), 18, rng)
        report = measure_memory(scenario.blocks)
        # Routing table holds one entry per other node.
        assert report.routing_table_per_node == 60 * 60 - 1
        # The global map is 4 words per block.
        assert report.global_map_per_node == 4 * len(scenario.blocks)
        # The coded model is a small constant plus local boundary tags.
        assert 4 <= report.esl_per_node < 40
        assert report.esl_per_node < report.global_map_per_node or len(scenario.blocks) < 3
        assert report.esl_per_node < report.routing_table_per_node

    def test_no_faults_is_bare_esl(self):
        from repro.faults.blocks import build_faulty_blocks

        mesh = Mesh2D(30, 30)
        scenario_blocks = build_faulty_blocks(mesh, [])
        report = measure_memory(scenario_blocks)
        assert report.esl_per_node == 4.0
        assert report.esl_max_node == 4
        assert report.global_map_per_node == 0

    def test_table_renders(self, rng):
        scenario = generate_scenario(Mesh2D(40, 40), 12, rng)
        table = measure_memory(scenario.blocks).to_table()
        assert "routing table" in table
        assert "Extension 3" in table
