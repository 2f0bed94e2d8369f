"""Tests for the TPP hint-fault tracker."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.tracking.hintfaults import FaultEvent, HintFaultTracker


def make_tracker(n_pages=100, scan=10, seed=0):
    return HintFaultTracker(n_pages, scan,
                            rng=np.random.default_rng(seed))


def drive(tracker, rates, quanta, quantum_ns=1e7):
    """Run ``quanta`` quanta, returning all fault events."""
    events = []
    for q in range(quanta):
        events.extend(
            tracker.quantum(rates, 1.0, now_ns=q * quantum_ns,
                            quantum_ns=quantum_ns)
        )
    return events


class TestScanning:
    def test_scanner_marks_round_robin(self):
        tracker = make_tracker(n_pages=10, scan=4)
        rates = np.zeros(10)
        tracker.quantum(rates, 1.0, 0.0, 1e6)
        assert set(tracker.marked_pages) == {0, 1, 2, 3}
        tracker.quantum(rates, 1.0, 1e6, 1e6)
        assert set(tracker.marked_pages) == {0, 1, 2, 3, 4, 5, 6, 7}

    def test_scan_wraps_around(self):
        tracker = make_tracker(n_pages=6, scan=4)
        rates = np.zeros(6)
        tracker.quantum(rates, 1.0, 0.0, 1e6)
        tracker.quantum(rates, 1.0, 1e6, 1e6)
        assert set(tracker.marked_pages) == set(range(6))

    def test_rejects_bad_construction(self):
        with pytest.raises(ConfigurationError):
            HintFaultTracker(0, 1, np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            HintFaultTracker(10, 0, np.random.default_rng(0))

    def test_rejects_rate_shape_mismatch(self):
        tracker = make_tracker(n_pages=10)
        with pytest.raises(ConfigurationError):
            tracker.quantum(np.zeros(5), 1.0, 0.0, 1e6)


class TestFaultStatistics:
    def test_unaccessed_pages_never_fault(self):
        tracker = make_tracker(n_pages=20, scan=20)
        events = drive(tracker, np.zeros(20), quanta=10)
        assert events == []

    def test_hot_pages_fault_quickly(self):
        """Mean time-to-fault approximates 1/(p*R) — §4.3's relation."""
        n = 50
        tracker = make_tracker(n_pages=n, scan=n, seed=3)
        rates = np.full(n, 1e-4)  # 1/(rate) = 10 us expected ttf
        events = drive(tracker, rates, quanta=30, quantum_ns=1e6)
        assert len(events) > 100
        mean_ttf = np.mean([e.time_to_fault_ns for e in events])
        assert mean_ttf == pytest.approx(1e4, rel=0.25)

    def test_hotter_pages_fault_faster(self):
        n = 40
        tracker = make_tracker(n_pages=n, scan=n, seed=4)
        rates = np.concatenate([np.full(20, 1e-3), np.full(20, 1e-5)])
        events = drive(tracker, rates, quanta=50, quantum_ns=1e6)
        hot_ttf = [e.time_to_fault_ns for e in events if e.page < 20]
        cold_ttf = [e.time_to_fault_ns for e in events if e.page >= 20]
        assert hot_ttf and cold_ttf
        assert np.mean(hot_ttf) < np.mean(cold_ttf) / 10

    def test_fault_clears_mark_until_rescanned(self):
        tracker = make_tracker(n_pages=4, scan=4, seed=5)
        rates = np.full(4, 1e-2)  # faults fire almost immediately
        tracker.quantum(rates, 1.0, 0.0, 1e6)          # scan all
        events = tracker.quantum(rates, 1.0, 1e6, 1e6)  # all fault, rescan
        assert len(events) == 4
        # After faulting, pages were re-marked by the same quantum's scan.
        assert len(tracker.marked_pages) == 4

    def test_faults_are_reproducible(self):
        a = drive(make_tracker(seed=9), np.full(100, 1e-4), quanta=20)
        b = drive(make_tracker(seed=9), np.full(100, 1e-4), quanta=20)
        assert [(e.page, e.time_to_fault_ns) for e in a] == [
            (e.page, e.time_to_fault_ns) for e in b
        ]


class ArrayHintFaultTracker:
    """The tracker as it was before it kept its pending list and due
    heap: full-array passes and one array ``exponential`` per quantum.
    Kept verbatim as the oracle for events, marks and the RNG stream."""

    def __init__(self, n_pages: int, scan_pages_per_quantum: int,
                 rng: np.random.Generator) -> None:
        self._n_pages = n_pages
        self._scan_rate = int(scan_pages_per_quantum)
        self._rng = rng
        self._scan_cursor = 0
        self._marked = np.zeros(n_pages, dtype=bool)
        self._mark_time = np.zeros(n_pages)
        self._due_time = np.full(n_pages, np.inf)

    @property
    def marked_pages(self) -> np.ndarray:
        return np.nonzero(self._marked)[0]

    def quantum(self, page_access_rates, now_ns, quantum_ns):
        end = now_ns + quantum_ns
        armed = self._marked & ~np.isfinite(self._due_time)
        armed_idx = np.nonzero(armed)[0]
        if armed_idx.size:
            rates = page_access_rates[armed_idx]
            positive = rates > 0
            draw = armed_idx[positive]
            if draw.size:
                waits = self._rng.exponential(1.0 / rates[positive])
                self._due_time[draw] = now_ns + waits

        fired_idx = np.nonzero(self._marked & (self._due_time <= end))[0]
        events = [
            FaultEvent(
                page=int(i),
                time_to_fault_ns=float(self._due_time[i] - self._mark_time[i]),
            )
            for i in fired_idx
        ]
        self._marked[fired_idx] = False
        self._due_time[fired_idx] = np.inf

        start = self._scan_cursor
        count = min(self._scan_rate, self._n_pages)
        idx = (start + np.arange(count)) % self._n_pages
        self._scan_cursor = int((start + count) % self._n_pages)
        fresh = idx[~self._marked[idx]]
        self._marked[fresh] = True
        self._mark_time[fresh] = end
        self._due_time[fresh] = np.inf
        return events


#: Per-page rates the oracle test draws from: zero, negative, NaN and
#: ``inf`` (a zero wait) next to cold-to-hot finite rates, and a
#: subnormal rate whose ``1 / rate`` overflows to an ``inf`` wait.
_RATES = st.sampled_from([0.0, -1e-4, np.nan, np.inf, 5e-324, 1e-9, 1e-7,
                          1e-6, 1e-5, 1e-4, 1e-3, 1e-2])


@st.composite
def _tracker_runs(draw):
    n_pages = draw(st.integers(1, 24))
    scan = draw(st.integers(1, n_pages + 4))
    n_quanta = draw(st.integers(1, 30))
    rates = [np.array(draw(st.lists(_RATES, min_size=n_pages,
                                    max_size=n_pages)))
             for __ in range(draw(st.integers(1, 3)))]
    schedule = draw(st.lists(st.integers(0, len(rates) - 1),
                             min_size=n_quanta, max_size=n_quanta))
    quantum_ns = draw(st.sampled_from([1e4, 1e6, 1e7]))
    request_rate = draw(st.sampled_from([1.0, 0.37, 3e-3, 2.5e2]))
    return (n_pages, scan, [rates[i] for i in schedule], quantum_ns,
            request_rate)


class TestAgainstArrayTracker:
    """The tracker, given per-page probabilities and the request rate,
    against the array tracker given the whole ``probs * rate`` array."""

    @given(run=_tracker_runs(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_same_events_marks_and_generator_state(self, run, seed):
        n_pages, scan, schedule, quantum_ns, request_rate = run
        new = HintFaultTracker(n_pages, scan, np.random.default_rng(seed))
        old = ArrayHintFaultTracker(n_pages, scan,
                                    np.random.default_rng(seed))
        with np.errstate(over="ignore"):  # the subnormal rate's wait
            for q, probs in enumerate(schedule):
                got = new.quantum(probs, request_rate, q * quantum_ns,
                                  quantum_ns)
                want = old.quantum(probs * request_rate, q * quantum_ns,
                                   quantum_ns)
                assert got == want
                np.testing.assert_array_equal(new.marked_pages,
                                              old.marked_pages)
        assert (new._rng.bit_generator.state
                == old._rng.bit_generator.state)

    def test_scan_wraps_past_the_end(self):
        new = make_tracker(n_pages=7, scan=5, seed=1)
        old = ArrayHintFaultTracker(7, 5, np.random.default_rng(1))
        rates = np.linspace(1e-6, 1e-4, 7)
        for q in range(12):
            assert (new.quantum(rates, 1.0, q * 1e5, 1e5)
                    == old.quantum(rates, q * 1e5, 1e5))
            np.testing.assert_array_equal(new.marked_pages,
                                          old.marked_pages)

    @given(scales=st.lists(st.floats(1e-3, 1e9), min_size=1, max_size=20),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_scalar_draws_equal_one_array_draw(self, scales, seed):
        """The identity the tracker's per-page draws rest on: ``k``
        scalar ``exponential`` calls give the values, and leave the
        generator where, one array call over the same scales does."""
        scalar = np.random.default_rng(seed)
        array = np.random.default_rng(seed)
        one_by_one = [scalar.exponential(s) for s in scales]
        at_once = array.exponential(np.array(scales))
        assert one_by_one == at_once.tolist()
        assert scalar.bit_generator.state == array.bit_generator.state
