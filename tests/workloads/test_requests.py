"""Tests for request-stream generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.types import Request
from repro.workloads.graphs import SocialGraph
from repro.workloads.requests import (
    EgoRequestGenerator,
    RandomRequestGenerator,
    ZipfRequestGenerator,
    with_limit,
)


class TestEgoRequests:
    def test_requests_are_friend_sets(self, tiny_graph):
        gen = EgoRequestGenerator(tiny_graph, rng=np.random.default_rng(0))
        adjacency = {
            tuple(sorted(tiny_graph.out_neighbors(n).tolist()))
            for n in tiny_graph.nonisolated_nodes()
        }
        for _ in range(50):
            req = gen.generate()
            assert tuple(sorted(req.items)) in adjacency

    def test_no_empty_requests(self, tiny_graph):
        gen = EgoRequestGenerator(tiny_graph, rng=np.random.default_rng(1))
        for req in gen.stream(100):
            assert req.size >= 1

    def test_include_self(self, tiny_graph):
        gen = EgoRequestGenerator(
            tiny_graph, rng=np.random.default_rng(2), include_self=True
        )
        for _ in range(20):
            req = gen.generate()
            assert len(set(req.items)) == len(req.items)

    def test_graph_without_edges_rejected(self):
        g = SocialGraph.from_edges(3, [])
        with pytest.raises(WorkloadError):
            EgoRequestGenerator(g)

    def test_deterministic_with_seed(self, small_slashdot):
        a = EgoRequestGenerator(small_slashdot, rng=np.random.default_rng(5))
        b = EgoRequestGenerator(small_slashdot, rng=np.random.default_rng(5))
        for _ in range(20):
            assert a.generate() == b.generate()

    def test_mean_request_size(self, small_slashdot):
        gen = EgoRequestGenerator(small_slashdot, rng=np.random.default_rng(6))
        sizes = [gen.generate().size for _ in range(3000)]
        assert np.mean(sizes) == pytest.approx(gen.mean_request_size(), rel=0.25)

    def test_stream_finite(self, tiny_graph):
        gen = EgoRequestGenerator(tiny_graph, rng=np.random.default_rng(7))
        assert len(list(gen.stream(13))) == 13


class _CountingRng:
    """Forwards ``integers`` to a real generator and counts the calls."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.calls = 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self.rng.integers(*args, **kwargs)


def _scalar_generate(gen: EgoRequestGenerator) -> Request:
    """``EgoRequestGenerator.generate`` as it was before blocks: one scalar
    draw, one adjacency row — the specification of the block path."""
    root = int(gen._roots[gen.rng.integers(len(gen._roots))])
    items = tuple(gen.graph.out_neighbors(root).tolist())
    if gen.include_self:
        items = (root, *(i for i in items if i != root))
    return Request(items=items)


class TestEgoStreamBlocks:
    """``block`` is the one draw path: ``stream``, ``blocks`` and
    ``generate`` must all be the scalar draw repeated — same requests,
    same rng position afterwards."""

    @pytest.mark.parametrize("include_self", [False, True])
    @pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 3000])
    def test_stream_is_generate_repeated(self, small_slashdot, n, include_self):
        def gen():
            return EgoRequestGenerator(
                small_slashdot, rng=np.random.default_rng(11), include_self=include_self
            )

        one_by_one, streamed, blocked = gen(), gen(), gen()
        want = [_scalar_generate(one_by_one) for _ in range(n)]
        assert list(streamed.stream(n)) == want
        blocks = list(blocked.blocks(n))
        assert [r for block in blocks for r in block.requests()] == want
        tail = [n % 1024] if n % 1024 else []
        assert [len(block) for block in blocks] == [1024] * (n // 1024) + tail
        # exactly n draws consumed: all three generators go on alike
        state = one_by_one.rng.bit_generator.state
        assert streamed.rng.bit_generator.state == state
        assert blocked.rng.bit_generator.state == state
        assert streamed.generate() == _scalar_generate(one_by_one)

    @pytest.mark.parametrize("include_self", [False, True])
    def test_any_block_sizes_and_skips_are_one_stream(self, small_slashdot, include_self):
        def gen():
            return EgoRequestGenerator(
                small_slashdot, rng=np.random.default_rng(15), include_self=include_self
            )

        one_by_one, chunked = gen(), gen()
        want = [_scalar_generate(one_by_one) for _ in range(557)]
        got = chunked.block(256).requests() + chunked.block(1).requests()
        got += chunked.block(0).requests() + chunked.block(300).requests()
        assert got == want
        assert chunked.rng.bit_generator.state == one_by_one.rng.bit_generator.state

    def test_include_self_drops_a_self_loop(self):
        # from_edges removes self-loops; the CSR constructor does not
        graph = SocialGraph(np.array([0, 3, 4, 4]), np.array([1, 0, 2, 0]))
        gen = EgoRequestGenerator(graph, rng=np.random.default_rng(16), include_self=True)
        seen = {r.items for r in gen.stream(40)}
        assert seen == {(0, 1, 2), (1, 0)}

    def test_block_arrays(self, small_slashdot):
        gen = EgoRequestGenerator(small_slashdot, rng=np.random.default_rng(17))
        block = gen.block(50)
        assert block.items.dtype == block.offsets.dtype == np.int64
        assert block.offsets[0] == 0 and block.offsets[-1] == len(block.items)
        assert len(block) == 50 and np.all(np.diff(block.offsets) >= 1)

    def test_infinite_stream_prefix(self, small_slashdot):
        one_by_one = EgoRequestGenerator(small_slashdot, rng=np.random.default_rng(12))
        streamed = EgoRequestGenerator(small_slashdot, rng=np.random.default_rng(12))
        stream = streamed.stream()
        assert [next(stream) for _ in range(2500)] == [
            one_by_one.generate() for _ in range(2500)
        ]

    @pytest.mark.parametrize("bound", [7, 2**16 + 1, 2**32 - 1, 2**32, 2**33])
    def test_a_block_of_draws_is_the_scalar_draws(self, bound):
        # what stream() rests on, for bounds on both sides of numpy's
        # 32-bit / 64-bit sampling split
        block = np.random.default_rng(13).integers(bound, size=300).tolist()
        scalar = np.random.default_rng(13)
        assert block == [int(scalar.integers(bound)) for _ in range(300)]

    def test_one_rng_call_per_block(self, small_slashdot):
        gen = EgoRequestGenerator(small_slashdot, rng=np.random.default_rng(14))
        gen.rng = _CountingRng(gen.rng)
        assert len(list(gen.stream(1024))) == 1024
        assert gen.rng.calls == 1
        list(gen.stream(1025))
        assert gen.rng.calls == 3


class TestRandomRequests:
    def test_distinct_items(self):
        gen = RandomRequestGenerator(100, 20, rng=np.random.default_rng(0))
        for _ in range(30):
            req = gen.generate()
            assert req.size == 20
            assert len(set(req.items)) == 20
            assert all(0 <= i < 100 for i in req.items)

    @pytest.mark.parametrize("cls", [RandomRequestGenerator, ZipfRequestGenerator])
    def test_items_are_the_choice_as_python_ints(self, cls):
        gen = cls(500, 30, rng=np.random.default_rng(3))
        twin = cls(500, 30, rng=np.random.default_rng(3))
        p = getattr(twin, "_item_weights", None)
        for _ in range(20):
            drawn = twin.rng.choice(500, size=30, replace=False, p=p)
            req = gen.generate()
            assert req.items == tuple(int(i) for i in drawn)  # the conversion it replaced
            assert all(type(i) is int for i in req.items)

    def test_size_validation(self):
        with pytest.raises(WorkloadError):
            RandomRequestGenerator(10, 11)
        with pytest.raises(WorkloadError):
            RandomRequestGenerator(10, 0)

    def test_uniform_item_usage(self):
        gen = RandomRequestGenerator(50, 5, rng=np.random.default_rng(1))
        counts = np.zeros(50)
        for req in gen.stream(1000):
            for i in req.items:
                counts[i] += 1
        assert counts.min() > 0.5 * counts.mean()


class TestZipfRequests:
    def test_distinct_items_in_range(self):
        gen = ZipfRequestGenerator(200, 15, rng=np.random.default_rng(0))
        for req in gen.stream(40):
            assert req.size == 15
            assert len(set(req.items)) == 15
            assert all(0 <= i < 200 for i in req.items)

    def test_skewed_popularity(self):
        """With exponent 1, a few hot items dominate request membership."""
        gen = ZipfRequestGenerator(500, 10, exponent=1.0, rng=np.random.default_rng(1))
        counts = np.zeros(500)
        for req in gen.stream(600):
            for i in req.items:
                counts[i] += 1
        top = np.sort(counts)[::-1]
        assert top[:10].sum() > 5 * top[-100:].sum()

    def test_exponent_zero_is_uniformish(self):
        gen = ZipfRequestGenerator(100, 5, exponent=0.0, rng=np.random.default_rng(2))
        counts = np.zeros(100)
        for req in gen.stream(2000):
            for i in req.items:
                counts[i] += 1
        assert counts.min() > 0.4 * counts.mean()

    def test_validation(self):
        with pytest.raises(WorkloadError):
            ZipfRequestGenerator(10, 11)
        with pytest.raises(WorkloadError):
            ZipfRequestGenerator(10, 0)
        with pytest.raises(WorkloadError):
            ZipfRequestGenerator(10, 5, exponent=-1)

    def test_deterministic(self):
        a = ZipfRequestGenerator(100, 5, rng=np.random.default_rng(3))
        b = ZipfRequestGenerator(100, 5, rng=np.random.default_rng(3))
        for _ in range(10):
            assert a.generate() == b.generate()


class TestWithLimit:
    def test_fraction_applied(self, tiny_graph):
        gen = EgoRequestGenerator(tiny_graph, rng=np.random.default_rng(3))
        for req in with_limit(gen.stream(20), 0.5):
            assert req.limit_fraction == 0.5

    def test_items_preserved(self):
        base = [RandomRequestGenerator(50, 5, rng=np.random.default_rng(2)).generate()]
        [limited] = list(with_limit(base, 0.9))
        assert limited.items == base[0].items
