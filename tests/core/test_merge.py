"""Tests for request merging."""

from __future__ import annotations

import pytest

from repro.core.merge import merge_requests, merge_stream
from repro.types import Request


class TestMergeRequests:
    def test_union_dedupe(self):
        merged = merge_requests(
            [Request(items=(1, 2, 3)), Request(items=(1, 2, 4))]
        )
        assert set(merged.items) == {1, 2, 3, 4}
        assert len(merged.items) == 4

    def test_order_preserved_first_appearance(self):
        merged = merge_requests([Request(items=(5, 1)), Request(items=(2, 5))])
        assert merged.items == (5, 1, 2)

    def test_union_is_the_setdefault_loop(self):
        import numpy as np

        rng = np.random.default_rng(21)
        for _ in range(50):
            window = [
                Request(items=tuple(rng.choice(60, size=size, replace=False).tolist()))
                for size in rng.integers(0, 25, size=rng.integers(1, 5))
            ]
            seen: dict[int, None] = {}  # the union as merge_requests built it before
            for r in window:
                for item in r.items:
                    seen.setdefault(item)
            assert merge_requests(window).items == tuple(seen)

    def test_single_request_identity_items(self):
        r = Request(items=(9, 8))
        assert merge_requests([r]).items == (9, 8)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            merge_requests([])

    def test_limit_requests_rejected(self):
        with pytest.raises(ValueError):
            merge_requests([Request(items=(1,), limit_fraction=0.5)])


class TestMergeStream:
    def test_window_two(self):
        stream = [Request(items=(i,)) for i in range(6)]
        merged = list(merge_stream(stream, 2))
        assert len(merged) == 3
        assert merged[0].items == (0, 1)

    def test_window_one_is_identity(self):
        stream = [Request(items=(i, i + 10)) for i in range(4)]
        merged = list(merge_stream(stream, 1))
        assert [m.items for m in merged] == [r.items for r in stream]

    def test_trailing_partial_batch(self):
        stream = [Request(items=(i,)) for i in range(5)]
        merged = list(merge_stream(stream, 2))
        assert len(merged) == 3
        assert merged[-1].items == (4,)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            list(merge_stream([], 0))

    def test_lazy_evaluation(self):
        def gen():
            yield Request(items=(1,))
            yield Request(items=(2,))
            raise AssertionError("should not be consumed")

        stream = merge_stream(gen(), 2)
        assert next(stream).items == (1, 2)
