"""Tests for probability-budgeted page selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.pages.selection as selection
from repro.errors import ConfigurationError
from repro.pages.selection import (
    _TOP_K_SORT_MAX_N,
    select_pages_by_probability,
    stable_top_k,
)


def uniform_sizes(n, size=100):
    return np.full(n, size, dtype=np.int64)


class TestBudgets:
    def test_respects_probability_budget(self):
        probs = np.array([0.4, 0.3, 0.2, 0.1])
        chosen = select_pages_by_probability(
            probs, uniform_sizes(4), np.arange(4),
            dp_budget=0.5, byte_budget=10_000,
        )
        assert probs[chosen].sum() <= 0.5 + 1e-12
        # 0.4 taken, 0.3 skipped (overshoot), 0.1... -> greedy hottest
        assert 0 in chosen

    def test_respects_byte_budget(self):
        probs = np.array([0.4, 0.3, 0.2, 0.1])
        chosen = select_pages_by_probability(
            probs, uniform_sizes(4), np.arange(4),
            dp_budget=1.0, byte_budget=250,
        )
        assert len(chosen) == 2

    def test_skips_individually_overshooting_pages(self):
        """A small dp budget picks cooler pages, like Colloid's binned
        iteration."""
        probs = np.array([0.5, 0.05, 0.04, 0.01])
        chosen = select_pages_by_probability(
            probs, uniform_sizes(4), np.arange(4),
            dp_budget=0.1, byte_budget=10_000,
        )
        assert 0 not in chosen
        assert set(chosen) == {1, 2, 3}

    def test_zero_budgets_select_nothing(self):
        probs = np.array([0.5, 0.5])
        assert select_pages_by_probability(
            probs, uniform_sizes(2), np.arange(2), 0.0, 1000
        ).size == 0
        assert select_pages_by_probability(
            probs, uniform_sizes(2), np.arange(2), 1.0, 0
        ).size == 0

    def test_empty_candidates(self):
        probs = np.array([0.5, 0.5])
        chosen = select_pages_by_probability(
            probs, uniform_sizes(2), np.empty(0, dtype=np.int64), 1.0, 1000
        )
        assert chosen.size == 0

    def test_all_fit_fast_path(self):
        probs = np.full(10, 0.05)
        chosen = select_pages_by_probability(
            probs, uniform_sizes(10), np.arange(10), 1.0, 10_000
        )
        assert len(chosen) == 10

    def test_hottest_first_ordering(self):
        probs = np.array([0.1, 0.4, 0.2, 0.3])
        chosen = select_pages_by_probability(
            probs, uniform_sizes(4), np.arange(4), 0.45, 10_000
        )
        assert list(chosen)[:1] == [1]  # hottest considered first

    def test_given_order_respected_when_disabled(self):
        probs = np.array([0.1, 0.4, 0.2, 0.3])
        chosen = select_pages_by_probability(
            probs, uniform_sizes(4), np.array([3, 2, 1, 0]),
            0.45, 10_000, hottest_first=False,
        )
        assert list(chosen)[0] == 3

    def test_rejects_negative_budgets(self):
        probs = np.array([0.5])
        with pytest.raises(ConfigurationError):
            select_pages_by_probability(
                probs, uniform_sizes(1), np.array([0]), -0.1, 100
            )


class TestSelectionProperties:
    @given(
        st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1,
                 max_size=40),
        st.floats(min_value=0.0, max_value=2.0),
        st.integers(min_value=0, max_value=5000),
    )
    @settings(max_examples=80, deadline=None)
    def test_budgets_never_violated(self, raw_probs, dp, byte_budget):
        probs = np.array(raw_probs)
        probs = probs / probs.sum()
        sizes = uniform_sizes(len(probs))
        chosen = select_pages_by_probability(
            probs, sizes, np.arange(len(probs)), dp, byte_budget
        )
        assert probs[chosen].sum() <= dp + 1e-9
        assert sizes[chosen].sum() <= byte_budget
        assert len(set(chosen.tolist())) == len(chosen)  # no duplicates

    @given(st.integers(min_value=1, max_value=30))
    @settings(max_examples=30, deadline=None)
    def test_generous_budgets_take_everything(self, n):
        probs = np.full(n, 1.0 / n)
        chosen = select_pages_by_probability(
            probs, uniform_sizes(n), np.arange(n), 2.0, 10**9
        )
        assert len(chosen) == n


def _scan_oracle(prob_estimates, sizes_bytes, candidates, dp_budget,
                 byte_budget, hottest_first=True):
    """The page-by-page scan over the fully sorted candidates that the
    selection must reproduce, kept verbatim from its earlier
    implementation."""
    if dp_budget < 0 or byte_budget < 0:
        raise ConfigurationError("budgets must be non-negative")
    cand = np.asarray(candidates, dtype=np.int64)
    if cand.size == 0 or dp_budget == 0 or byte_budget == 0:
        return np.empty(0, dtype=np.int64)
    if hottest_first:
        cand = cand[np.argsort(-prob_estimates[cand], kind="stable")]
    probs = prob_estimates[cand]
    sizes = sizes_bytes[cand]

    # Fast path: the longest prefix that fits both budgets outright; only
    # past the first overshooting page do we fall back to the
    # skip-and-continue scan.
    cum_p = np.cumsum(probs)
    cum_b = np.cumsum(sizes)
    fits = (cum_p <= dp_budget + 1e-15) & (cum_b <= byte_budget)
    if fits.all():
        return cand
    prefix = int(np.argmin(fits))  # first index that does not fit
    selected = list(cand[:prefix])
    acc_p = float(cum_p[prefix - 1]) if prefix > 0 else 0.0
    acc_b = int(cum_b[prefix - 1]) if prefix > 0 else 0
    for i in range(prefix, len(cand)):
        p = float(probs[i])
        b = int(sizes[i])
        if acc_p + p <= dp_budget + 1e-15 and acc_b + b <= byte_budget:
            selected.append(int(cand[i]))
            acc_p += p
            acc_b += b
    return np.asarray(selected, dtype=np.int64)


_KIB4 = 4 << 10
_MIB2 = 2 << 20


@st.composite
def _selection_inputs(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    # Decimal probabilities and budgets put running sums within rounding
    # of the budget (0.1 + 0.2 > 0.3), where the 1e-15 slack decides.
    probs = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.sampled_from([0.1, 0.15, 0.2, 0.3]),
                  st.floats(min_value=1e-9, max_value=1.0)),
        min_size=n, max_size=n)))
    sizes = np.array(draw(st.lists(st.sampled_from([_KIB4, _MIB2]),
                                   min_size=n, max_size=n)),
                     dtype=np.int64)
    candidates = np.array(sorted(draw(st.sets(
        st.integers(min_value=0, max_value=n - 1), max_size=n))),
        dtype=np.int64)
    if not draw(st.booleans()):
        candidates = candidates[::-1].copy()
    total = float(probs.sum())
    dp_budget = draw(st.one_of(
        st.just(0.0), st.just(1e-12), st.sampled_from([0.3, 0.6]),
        st.floats(min_value=0.0, max_value=max(total, 1e-9))))
    byte_budget = draw(st.one_of(
        st.just(0), st.just(1), st.sampled_from([_KIB4, 8 << 20, 2**62]),
        st.integers(min_value=0, max_value=int(sizes.sum()))))
    return probs, sizes, candidates, dp_budget, byte_budget


@st.composite
def _ranked_selection_inputs(draw):
    """Candidate sets on both sides of the full-sort cutoff of
    :func:`stable_top_k`, with budgets that stop the walk early, late or
    never, built from a drawn seed so large arrays stay cheap."""
    n = draw(st.one_of(st.integers(min_value=1, max_value=40),
                       st.integers(min_value=_TOP_K_SORT_MAX_N - 20,
                                   max_value=3 * _TOP_K_SORT_MAX_N)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["float", "ties", "zeros", "decimal"]))
    if kind == "float":
        probs = rng.random(n)
    elif kind == "ties":
        probs = rng.integers(0, draw(st.integers(1, 6)), n) / 8.0
    elif kind == "zeros":
        probs = np.where(rng.random(n) < 0.7, 0.0, rng.random(n))
    else:
        probs = rng.choice([0.0, 0.1, 0.15, 0.2, 0.3], n)
    probs = probs / max(float(probs.sum()), 1.0)
    if draw(st.booleans()):
        sizes = np.full(n, _MIB2, dtype=np.int64)
    else:
        sizes = rng.choice([_KIB4, _MIB2], n).astype(np.int64)
    candidates = np.flatnonzero(rng.random(n) < draw(
        st.sampled_from([0.3, 0.9, 1.0])))
    if draw(st.booleans()):
        candidates = rng.permutation(candidates)
    hot = np.sort(probs[candidates])[::-1]
    dp_kind = draw(st.sampled_from(
        ["zero", "random", "everything", "below_hot", "above_hot"]))
    if dp_kind == "zero" or hot.size == 0:
        dp_budget = 0.0
    elif dp_kind == "random":
        dp_budget = float(rng.random()) * float(hot.sum())
    elif dp_kind == "everything":
        dp_budget = float(hot.sum()) + 1.0
    else:
        # Around a hot page's probability, so the walk takes one hot
        # page and then skips every page that fits alone but not on top
        # of it: dp runs out before bytes do and the head has to grow.
        i = min(int(rng.integers(0, 50)), hot.size - 1)
        dp_budget = float(hot[i]) * (0.4 if dp_kind == "below_hot" else 1.5)
    byte_budget = draw(st.sampled_from(
        [0, 1, _KIB4, 4 * _MIB2, 8 * _MIB2, 2**62,
         int(rng.integers(0, int(sizes.sum()) + 1))]))
    return probs, sizes, candidates, dp_budget, byte_budget


class TestMatchesPageByPageScan:
    @given(inputs=st.one_of(_selection_inputs(), _ranked_selection_inputs()),
           hottest_first=st.booleans())
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_same_selection_as_the_scan(self, inputs, hottest_first):
        probs, sizes, candidates, dp_budget, byte_budget = inputs
        expected = _scan_oracle(probs, sizes, candidates, dp_budget,
                                byte_budget, hottest_first)
        chosen = select_pages_by_probability(
            probs, sizes, candidates, dp_budget, byte_budget,
            hottest_first=hottest_first,
        )
        assert chosen.dtype == np.int64
        np.testing.assert_array_equal(chosen, expected)

    def test_rounding_slack_applies_past_the_first_overshoot(self):
        """0.2 + 0.1 rounds above 0.3; the 1e-15 slack still takes the
        0.1 page after the 0.15 page overshoots."""
        probs = np.array([0.2, 0.15, 0.1])
        chosen = select_pages_by_probability(
            probs, uniform_sizes(3), np.arange(3), 0.3, 10_000)
        np.testing.assert_array_equal(chosen, [0, 2])
        np.testing.assert_array_equal(
            chosen, _scan_oracle(probs, uniform_sizes(3), np.arange(3),
                                 0.3, 10_000))

    def test_page_filling_the_byte_budget_exactly_past_the_overshoot(self):
        """After the 0.4 page overshoots dp, the 0.05 pages are taken
        until the last one fills the byte budget exactly."""
        probs = np.array([0.5, 0.4, 0.05, 0.05, 0.05])
        sizes = np.full(5, _MIB2, dtype=np.int64)
        chosen = select_pages_by_probability(
            probs, sizes, np.arange(5), 0.6, 3 * _MIB2)
        np.testing.assert_array_equal(chosen, [0, 2, 3])
        np.testing.assert_array_equal(
            chosen, _scan_oracle(probs, sizes, np.arange(5), 0.6, 3 * _MIB2))


class TestRankedHead:
    """Hottest-first selection ranks only a head of the hotness order;
    the result must be the full-sort scan's, page for page."""

    def test_head_doubles_until_dp_reaches_cool_pages(self, monkeypatch):
        """Room for 4 pages. The hottest page takes most of dp and the
        next 3,000 each fit alone but not on top of it, so the head must
        grow past them to the cool pages that still fit."""
        n = 4 * _TOP_K_SORT_MAX_N
        dp = 0.01
        probs = np.full(n, 1e-6)
        probs[:3001] = np.linspace(0.9 * dp, 0.6 * dp, 3001)
        probs = probs[np.random.default_rng(3).permutation(n)]
        sizes = np.full(n, _MIB2, dtype=np.int64)
        heads = []
        real = selection.stable_top_k
        monkeypatch.setattr(selection, "stable_top_k",
                            lambda keys, k: heads.append(k) or real(keys, k))
        chosen = select_pages_by_probability(
            probs, sizes, np.arange(n), dp, 4 * _MIB2)
        np.testing.assert_array_equal(
            chosen, _scan_oracle(probs, sizes, np.arange(n), dp,
                                 4 * _MIB2))
        assert probs[chosen].tolist()[0] == 0.9 * dp
        assert chosen.size == 4
        assert heads == [4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048,
                         4096]

    def test_byte_budget_alone_ranks_one_head(self, monkeypatch):
        n = 3 * _TOP_K_SORT_MAX_N
        probs = np.random.default_rng(1).random(n)
        probs /= probs.sum()
        sizes = np.full(n, _MIB2, dtype=np.int64)
        heads = []
        real = selection.stable_top_k
        monkeypatch.setattr(selection, "stable_top_k",
                            lambda keys, k: heads.append(k) or real(keys, k))
        chosen = select_pages_by_probability(
            probs, sizes, np.arange(n), 1.0, 4 * _MIB2)
        np.testing.assert_array_equal(
            chosen, _scan_oracle(probs, sizes, np.arange(n), 1.0,
                                 4 * _MIB2))
        assert heads == [4]


class TestUnlimitedByteBudget:
    """``BatmanSystem`` and ``MultiTierColloidSystem`` select with
    ``byte_budget=2**62``: the head is every candidate at once."""

    def test_dp_skipping_most_of_100k_pages(self):
        n = 100_000
        rng = np.random.default_rng(7)
        probs = rng.pareto(1.5, n)
        probs /= probs.sum()
        sizes = np.full(n, _KIB4, dtype=np.int64)
        candidates = rng.permutation(n)[: n - 1000]
        # Below the hottest pages' probability: a few pages fill dp and
        # the walk skips nearly all of the other ~99k.
        dp = float(np.sort(probs)[n // 2]) * 300
        chosen = select_pages_by_probability(
            probs, sizes, candidates, dp, 2**62)
        expected = _scan_oracle(probs, sizes, candidates, dp, 2**62)
        np.testing.assert_array_equal(chosen, expected)
        assert 0 < chosen.size < 100


def _top_k_oracle(keys, k):
    return np.argsort(-keys, kind="stable")[:k]


@st.composite
def _top_k_inputs(draw):
    """Keys on both sides of the small-n cutoff, built from a drawn seed
    so large arrays stay cheap to generate and shrink."""
    n = draw(st.one_of(
        st.integers(min_value=0, max_value=12),
        st.sampled_from([_TOP_K_SORT_MAX_N, _TOP_K_SORT_MAX_N + 1]),
        st.integers(min_value=_TOP_K_SORT_MAX_N - 50,
                    max_value=3 * _TOP_K_SORT_MAX_N)))
    kind = draw(st.sampled_from(
        ["float", "ties", "all_equal", "signed_zero", "int"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "float":
        keys = rng.random(n)
    elif kind == "ties":
        keys = rng.integers(0, draw(st.integers(1, 8)), n).astype(float)
    elif kind == "all_equal":
        keys = np.full(n, 3.5)
    elif kind == "signed_zero":
        # -0.0 and 0.0 compare equal, so they tie and break by index.
        keys = rng.choice([-0.0, 0.0, 1.0, -1.0], n)
    else:
        keys = rng.integers(-5, 6, n)
    k = draw(st.one_of(
        st.just(0), st.just(1), st.just(n), st.just(n + 3),
        st.integers(min_value=0, max_value=max(n, 0))))
    return keys, k


class TestStableTopK:
    @given(inputs=_top_k_inputs())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_the_full_stable_argsort(self, inputs):
        keys, k = inputs
        np.testing.assert_array_equal(stable_top_k(keys, k),
                                      _top_k_oracle(keys, k))

    def test_signed_zeros_tie_past_the_cutoff(self):
        n = 2 * _TOP_K_SORT_MAX_N
        keys = np.where(np.arange(n) % 2 == 0, -0.0, 0.0)
        keys[-5:] = 1.0
        for k in (3, 5, 6, 100, n - 1):
            np.testing.assert_array_equal(stable_top_k(keys, k),
                                          _top_k_oracle(keys, k))

    def test_nan_keys_rank_last(self):
        n = 2 * _TOP_K_SORT_MAX_N
        keys = np.random.default_rng(0).random(n)
        keys[::3] = np.nan
        for k in (1, 10, n - n // 3, n - 5):
            np.testing.assert_array_equal(stable_top_k(keys, k),
                                          _top_k_oracle(keys, k))

    def test_k_outside_zero_to_n_is_clamped(self):
        keys = np.arange(5.0)
        assert stable_top_k(keys, -2).size == 0
        np.testing.assert_array_equal(stable_top_k(keys, 99),
                                      [4, 3, 2, 1, 0])
