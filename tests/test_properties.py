"""Cross-module property tests (hypothesis) and algorithmic cross-checks."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.config import SMOKE
from repro.fpga import (
    DesignSpec,
    PathFinderRouter,
    Placement,
    RouterOptions,
    generate_design,
    paper_architecture,
)
from repro.fpga.arch import FpgaArchitecture
from repro.fpga.generators import minimum_architecture_size
from repro.serve.http import float32_to_json
from repro.viz import FloorplanLayout, minimum_image_size


class TestLayoutProperties:
    @settings(max_examples=12, deadline=None)
    @given(width=st.integers(3, 14), height=st.integers(3, 14),
           extra=st.sampled_from([1, 2, 4]))
    def test_rects_disjoint_for_any_grid(self, width, height, extra):
        """Tiles, channels, and pads never overlap at any resolution."""
        arch = FpgaArchitecture(width, height)
        size = minimum_image_size(arch) * extra
        if size > 512:
            return
        layout = FloorplanLayout(arch, size)
        cover = np.zeros((size, size), dtype=np.int32)

        def paint(rect):
            x0, y0, x1, y1 = rect
            assert 0 <= x0 <= x1 <= size
            assert 0 <= y0 <= y1 <= size
            cover[y0:y1, x0:x1] += 1

        for x in range(1, width + 1):
            for y in range(1, height + 1):
                paint(layout.tile_rect(x, y))
        for x in range(1, width + 1):
            for y in range(0, height + 1):
                paint(layout.hchan_rect(x, y))
        for x in range(0, width + 1):
            for y in range(1, height + 1):
                paint(layout.vchan_rect(x, y))
        assert cover.max() <= 1

    @settings(max_examples=12, deadline=None)
    @given(width=st.integers(3, 14))
    def test_minimum_size_always_satisfies_2x2(self, width):
        arch = FpgaArchitecture(width, width)
        layout = FloorplanLayout(arch, minimum_image_size(arch))
        for x in range(1, width + 1):
            x0, y0, x1, y1 = layout.tile_rect(x, 1)
            assert x1 - x0 >= 2
            assert y1 - y0 >= 2


class TestRouterCrossChecks:
    @pytest.fixture(scope="class")
    def routed_setup(self):
        spec = DesignSpec("astar", 40, 12, 120)
        netlist = generate_design(spec, cluster_size=4, seed=13)
        arch = paper_architecture(minimum_architecture_size(netlist),
                                  channel_width=64)
        placement = Placement.random(netlist, arch,
                                     np.random.default_rng(3))
        return netlist, arch, placement

    def test_astar_matches_dijkstra(self, routed_setup):
        """With an admissible heuristic (astar_weight=1, >=1 segment costs),
        A* must find paths of the same cost as plain Dijkstra.  Checked on a
        clean graph (uniform costs), where cost equals path length."""
        netlist, arch, placement = routed_setup

        def fresh_router(weight: float) -> PathFinderRouter:
            router = PathFinderRouter(
                netlist, arch, placement,
                options=RouterOptions(astar_weight=weight))
            graph = router.graph
            router._cost_list = [1.0] * graph.num_nodes
            router._history_list = [0.0] * graph.num_nodes
            router._occ_list = [0] * graph.num_nodes
            router._cap_list = graph.capacity.tolist()
            router._pres_fac = 0.5
            return router

        astar = fresh_router(1.0)
        dijkstra = fresh_router(0.0)
        rng = np.random.default_rng(4)
        blocks = rng.choice(netlist.num_blocks, size=(20, 2))
        for source_block, target_block in blocks:
            if source_block == target_block:
                continue
            sources = astar._block_access(int(source_block))
            targets = astar._block_access(int(target_block))
            path_a = astar._shortest_path(sources, targets)
            path_d = dijkstra._shortest_path(sources, targets)
            assert len(path_a) == len(path_d), (source_block, target_block)

    def test_wirelength_lower_bound_is_hpwl_like(self, routed_setup):
        """Each 2-pin connection uses at least ~manhattan-distance segments,
        so total wirelength is bounded below by the sum of net spans."""
        netlist, arch, placement = routed_setup
        result = PathFinderRouter(
            netlist, arch, placement,
            options=RouterOptions(max_iterations=1)).route()
        for net in netlist.nets:
            xs = placement.xs[list(net.terminals)]
            ys = placement.ys[list(net.terminals)]
            span = (xs.max() - xs.min()) + (ys.max() - ys.min())
            # A tree spanning the bbox needs at least span-ish segments.
            assert len(result.net_trees[net.id]) >= max(1, span - 1)


class TestGeneratorProperties:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_congestion_signal_exists_for_any_seed(self, seed):
        """For any generator seed, a deliberately bad placement must not be
        *less* congested than an annealed one — the monotone signal the
        whole study depends on."""
        from repro.fpga import PlacerOptions, SimulatedAnnealingPlacer

        spec = DesignSpec("sig", 36, 10, 110)
        netlist = generate_design(spec, cluster_size=4, seed=seed)
        arch = paper_architecture(minimum_architecture_size(netlist),
                                  channel_width=24)
        good = SimulatedAnnealingPlacer(
            netlist, arch, PlacerOptions(seed=1, alpha_t=0.8,
                                         inner_num=1.0)).place().placement
        bad = Placement.random(netlist, arch, np.random.default_rng(seed))
        good_wl = PathFinderRouter(
            netlist, arch, good,
            options=RouterOptions(max_iterations=2)).route().wirelength
        bad_wl = PathFinderRouter(
            netlist, arch, bad,
            options=RouterOptions(max_iterations=2)).route().wirelength
        assert good_wl <= bad_wl


class TestPipelineDeterminism:
    def test_bundle_build_is_reproducible(self):
        """Two independent builds of the same design dataset are identical
        — the property that makes cached and fresh experiments agree."""
        from repro.flows import build_design_bundle
        from repro.fpga.generators import scaled_suite

        spec = scaled_suite(SMOKE)[1]
        a = build_design_bundle(spec, SMOKE, num_placements=3, seed=8)
        b = build_design_bundle(spec, SMOKE, num_placements=3, seed=8)
        assert a.channel_width == b.channel_width
        for sample_a, sample_b in zip(a.dataset, b.dataset):
            np.testing.assert_array_equal(sample_a.x, sample_b.x)
            np.testing.assert_array_equal(sample_a.y, sample_b.y)
            assert sample_a.true_congestion == sample_b.true_congestion


class TestFloat32JsonProperties:
    @settings(max_examples=200, deadline=None)
    @given(values=hnp.arrays(
        np.float32, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                     max_side=6),
        elements=st.floats(width=32)))
    def test_decodes_like_json_dumps(self, values):
        """Any float32 array decodes to the same float32 array as
        ``json.dumps(tolist())`` does: bitwise, NaNs in place."""
        ours = np.asarray(json.loads(float32_to_json(values)), np.float32)
        reference = np.asarray(json.loads(json.dumps(values.tolist())),
                               np.float32)
        assert ours.shape == reference.shape
        nan = np.isnan(reference)
        np.testing.assert_array_equal(np.isnan(ours), nan)
        np.testing.assert_array_equal(ours[~nan].view(np.uint32),
                                      reference[~nan].view(np.uint32))
