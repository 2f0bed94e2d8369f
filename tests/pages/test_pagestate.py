"""Tests for the NumPy-backed page table."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.pages.pagestate import UNPLACED, PageArray
from repro.units import mib


class TestConstruction:
    def test_uniform(self):
        pages = PageArray.uniform(100, mib(2))
        assert pages.n_pages == 100
        assert len(pages) == 100
        assert pages.total_bytes == 100 * mib(2)
        assert (pages.tier == UNPLACED).all()

    def test_mixed_sizes(self):
        pages = PageArray([4096, 2 * 1024 * 1024, 4096])
        assert pages.total_bytes == 4096 * 2 + 2 * 1024 * 1024

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            PageArray([])

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ConfigurationError):
            PageArray([4096, 0])

    def test_rejects_nonpositive_uniform(self):
        with pytest.raises(ConfigurationError):
            PageArray.uniform(0, 4096)
        with pytest.raises(ConfigurationError):
            PageArray.uniform(5, 0)


class TestTierAssignment:
    def test_set_tier_and_query(self):
        pages = PageArray.uniform(10, 4096)
        pages.set_tier(np.array([0, 1, 2]), 0)
        pages.set_tier(np.array([3, 4]), 1)
        assert list(pages.pages_in_tier(0)) == [0, 1, 2]
        assert list(pages.pages_in_tier(1)) == [3, 4]
        assert pages.bytes_in_tier(0) == 3 * 4096
        assert pages.bytes_in_tier(1) == 2 * 4096

    def test_unplaced_pages_not_counted(self):
        pages = PageArray.uniform(10, 4096)
        assert pages.bytes_in_tier(0) == 0


class TestResize:
    def test_resize_changes_sizes(self):
        pages = PageArray.uniform(4, mib(2))
        pages.resize_pages(np.array([1]), [4096])
        assert pages.sizes_bytes[1] == 4096
        assert pages.sizes_bytes[0] == mib(2)

    def test_resize_refreshes_the_cached_total(self):
        pages = PageArray.uniform(4, mib(2))
        assert pages.total_bytes == 4 * mib(2)
        pages.resize_pages(np.array([1]), [4096])
        assert pages.total_bytes == 3 * mib(2) + 4096

    def test_rejects_nonpositive_resize(self):
        pages = PageArray.uniform(4, mib(2))
        with pytest.raises(ConfigurationError):
            pages.resize_pages(np.array([0]), [0])
