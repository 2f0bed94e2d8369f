"""Placement observability: ledger, flow tracker, audit references,
trace-side summaries, timeline folding, detectors, and the report/
chrome-trace renderings."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.obs.chrometrace import chrome_trace_events
from repro.obs.diagnose import diagnose_events
from repro.obs.placement import (
    DEFAULT_AUDIT_PERIOD_QUANTA,
    FlowTracker,
    N_HOTNESS_DECILES,
    PlacementObserver,
    balance_p,
    flow_matrix,
    hotness_deciles,
    occupancy_ledger,
    pack_hottest_p,
    placement_payload,
    placement_summary,
)
from repro.obs.report import format_summary
from repro.obs.timeline import build_timeline, split_timelines
from repro.options import PLACEMENT_AUDIT_ENV_VAR, RunOptions
from repro.obs.tracer import Tracer, load_events
from repro.pages.pagestate import PageArray
from repro.pages.placement import PlacementState

META = {"type": "run_start", "time_s": 0.0, "system": "hemem+colloid",
        "workload": "gups", "n_tiers": 2, "quantum_ms": 10.0,
        "migration_limit_bytes": 1 << 20}


def make_placement(tiers, page_bytes=4096):
    pages = PageArray.uniform(len(tiers), page_bytes)
    placement = PlacementState(
        pages, [page_bytes * len(tiers)] * 2
    )
    for t in (0, 1):
        idx = np.flatnonzero(np.asarray(tiers) == t)
        placement.move(idx, t)
    return placement


def sample(index, tenant=None, **extra):
    event = {
        "type": "placement_sample", "time_s": round(index * 0.01, 6),
        "tier_pages": [[1] * 10, [2] * 10],
        "tier_bytes": [[4096] * 10, [8192] * 10],
        "flow_bytes": [[0, 4096], [8192, 0]],
        "ping_pong_pages": 0,
        "wasted_bytes": 0,
    }
    if tenant is not None:
        event["tenant"] = tenant
    event.update(extra)
    return event


class TestEnablement:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(PLACEMENT_AUDIT_ENV_VAR, raising=False)
        assert RunOptions.from_env().placement_audit is None
        assert RunOptions().placement_audit is None
        observer = PlacementObserver(n_tiers=2, tracer=None)
        assert observer.audit_period == DEFAULT_AUDIT_PERIOD_QUANTA

    def test_enable_and_period(self, monkeypatch):
        monkeypatch.setenv(PLACEMENT_AUDIT_ENV_VAR, "1")
        assert RunOptions.from_env().placement_audit == 1
        monkeypatch.setenv(PLACEMENT_AUDIT_ENV_VAR, "25")
        assert RunOptions.from_env().placement_audit == 25

    def test_falsey_values_disable(self, monkeypatch):
        for value in ("0", "false", "off", "no", ""):
            monkeypatch.setenv(PLACEMENT_AUDIT_ENV_VAR, value)
            assert RunOptions.from_env().placement_audit is None

    def test_rejects_nonpositive_period(self, monkeypatch):
        with pytest.raises(ConfigurationError):
            RunOptions(placement_audit=0)
        for value in ("-5", "abc", "2.5", "true"):
            monkeypatch.setenv(PLACEMENT_AUDIT_ENV_VAR, value)
            with pytest.raises(ConfigurationError):
                RunOptions.from_env()


class TestHotnessDeciles:
    def test_hottest_pages_in_decile_zero(self):
        probs = np.linspace(1.0, 0.1, 20)
        deciles = hotness_deciles(probs)
        assert deciles[0] == 0 and deciles[1] == 0
        assert deciles[-1] == N_HOTNESS_DECILES - 1
        assert np.bincount(deciles).tolist() == [2] * 10

    def test_ties_keep_index_order(self):
        deciles = hotness_deciles(np.full(10, 0.1))
        assert deciles.tolist() == list(range(10))

    def test_empty(self):
        assert len(hotness_deciles(np.empty(0))) == 0


class TestOccupancyLedger:
    def test_counts_and_bytes_per_tier(self):
        # 20 pages, hottest half in tier 0, coldest half in tier 1.
        tiers = [0] * 10 + [1] * 10
        placement = make_placement(tiers)
        deciles = hotness_deciles(np.linspace(1.0, 0.1, 20))
        tier_pages, tier_bytes = occupancy_ledger(placement, deciles)
        assert tier_pages[0] == [2] * 5 + [0] * 5
        assert tier_pages[1] == [0] * 5 + [2] * 5
        assert tier_bytes[0] == [8192] * 5 + [0] * 5
        assert sum(map(sum, tier_bytes)) == 20 * 4096


class TestFlowMatrix:
    def test_accumulates_bytes_by_direction(self):
        flows = flow_matrix(
            2,
            np.array([0, 1, 0]), np.array([1, 0, 1]),
            np.array([100, 50, 25]),
        )
        assert flows[0, 1] == 125
        assert flows[1, 0] == 50
        assert flows.sum() == 175

    def test_empty_moves(self):
        flows = flow_matrix(2, np.empty(0), np.empty(0), np.empty(0))
        assert flows.sum() == 0


class TestFlowTracker:
    def test_reversals_accumulate_to_ping_pong(self):
        tracker = FlowTracker(window_quanta=10, min_reversals=2)
        page = np.array([7])
        size = np.array([4096])
        # 0->1, back 1->0 (reversal 1), again 0->1 (reversal 2).
        ping, wasted = tracker.observe(page, np.array([0]),
                                       np.array([1]), size)
        assert (ping, wasted) == (0, 0)
        ping, wasted = tracker.observe(page, np.array([1]),
                                       np.array([0]), size)
        assert (ping, wasted) == (0, 4096)
        ping, wasted = tracker.observe(page, np.array([0]),
                                       np.array([1]), size)
        assert (ping, wasted) == (1, 4096)
        assert tracker.total_wasted_bytes == 8192

    def test_window_expires_old_reversals(self):
        tracker = FlowTracker(window_quanta=2, min_reversals=1)
        page, size = np.array([1]), np.array([64])
        tracker.observe(page, np.array([0]), np.array([1]), size)
        ping, __ = tracker.observe(page, np.array([1]), np.array([0]),
                                   size)
        assert ping == 1
        none = (np.empty(0, dtype=np.int64),) * 3
        for __ in range(3):
            ping, w = tracker.observe(none[0], none[1], none[2],
                                      np.empty(0, dtype=np.int64))
        assert ping == 0

    def test_one_way_moves_never_ping_pong(self):
        tracker = FlowTracker()
        for q in range(5):
            page = np.array([q])
            ping, wasted = tracker.observe(
                page, np.array([0]), np.array([1]), np.array([10])
            )
            assert (ping, wasted) == (0, 0)

    def test_rejects_bad_window(self):
        with pytest.raises(ConfigurationError):
            FlowTracker(window_quanta=0)


class TestPackHottestP:
    def test_greedy_fill_by_hotness(self):
        probs = np.array([0.4, 0.3, 0.2, 0.1])
        sizes = np.full(4, 100, dtype=np.int64)
        assert pack_hottest_p(probs, sizes, 250) == pytest.approx(0.7)

    def test_everything_fits(self):
        probs = np.array([0.5, 0.5])
        sizes = np.full(2, 10, dtype=np.int64)
        assert pack_hottest_p(probs, sizes, 1000) == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            pack_hottest_p(np.zeros(3), np.zeros(2, dtype=np.int64), 10)


class TestBalanceP:
    def test_bisects_to_latency_crossing(self):
        # L_D = 100 + 200p, L_A = 300 - 200p: balanced at p = 0.5.
        def evaluate(p):
            return np.array([100 + 200 * p, 300 - 200 * p]), 1.0

        assert balance_p(evaluate) == pytest.approx(0.5, abs=1e-3)

    def test_clamps_to_bounds(self):
        always_hot = lambda p: (np.array([500.0, 100.0]), 1.0)
        always_cold = lambda p: (np.array([100.0, 500.0]), 1.0)
        assert balance_p(always_hot) == 0.0
        assert balance_p(always_cold) == 1.0


class TestObserver:
    def test_emits_sample_every_quantum_and_audits_on_period(self):
        tracer = Tracer(ring_size=64)
        observer = PlacementObserver(n_tiers=2, tracer=tracer,
                                     audit_period=3)
        placement = make_placement([0] * 4 + [1] * 4)
        probs = np.linspace(0.3, 0.05, 8)
        probs /= probs.sum()

        def evaluate(p):
            return np.array([100 + 50 * p, 150 - 50 * p]), 2.0 - p

        for q in range(6):
            observer.observe_quantum(
                access_probs=probs, placement=placement, result=object(),
                p_actual=0.6,
                evaluate=evaluate if observer.audit_due() else None,
            )
        events = tracer.events()
        samples = [e for e in events
                   if e["type"] == "placement_sample"]
        assert len(samples) == 6
        audited = [e for e in samples if "gap_balance" in e]
        assert len(audited) == 2  # quanta 0 and 3
        assert observer.audits_run == 2
        for event in audited:
            assert 0.0 <= event["gap_balance"]
            assert 0.0 <= event["p_balance"] <= event["p_packed"] <= 1.0

    def test_result_without_move_record_still_samples(self):
        tracer = Tracer(ring_size=8)
        observer = PlacementObserver(n_tiers=2, tracer=tracer,
                                     audit_period=10)
        placement = make_placement([0, 1])
        observer.observe_quantum(
            access_probs=np.array([0.6, 0.4]), placement=placement,
            result=object(), p_actual=0.6,
        )
        [event] = tracer.events()
        assert event["flow_bytes"] == [[0, 0], [0, 0]]

    def test_quiet_quanta_share_one_converted_ledger(self, tmp_path):
        """Quanta where no page moved reuse the ledger converted at the
        last recount: every event holds the same lists, and they still
        serialize as plain JSON."""
        path = tmp_path / "t.jsonl"
        with Tracer(jsonl_path=path) as tracer:
            observer = PlacementObserver(n_tiers=2, tracer=tracer,
                                         audit_period=10)
            placement = make_placement([0, 0, 1, 1])
            probs = np.array([0.4, 0.3, 0.2, 0.1])
            for __ in range(3):
                observer.observe_quantum(
                    access_probs=probs, placement=placement,
                    result=object(), p_actual=0.7, probs_changed=False,
                )
            first, *rest = tracer.events()
        for event in rest:
            for field in ("tier_pages", "tier_bytes", "flow_bytes"):
                assert event[field] is first[field]
        assert first["tier_pages"] == occupancy_ledger(
            placement, hotness_deciles(probs))[0]
        assert [e["tier_pages"] for e in load_events(path)] == [
            first["tier_pages"]] * 3


class TestSummaries:
    def test_no_samples_is_none(self):
        timeline = build_timeline([META])
        assert placement_summary(timeline) is None
        assert placement_payload(timeline, {}) is None

    def test_summary_folds_samples_and_audits(self):
        events = [META]
        for i in range(4):
            extra = {}
            if i in (0, 3):
                extra = {"gap_balance": 0.2 - 0.05 * i,
                         "gap_packed": 0.1}
            events.append(sample(i, ping_pong_pages=i,
                                 wasted_bytes=100 * i, **extra))
        summary = placement_summary(build_timeline(events))
        assert summary["n_samples"] == 4
        assert summary["n_audits"] == 2
        assert summary["ping_pong_pages_peak"] == 3
        assert summary["wasted_migration_bytes"] == 600
        assert summary["flow_bytes_total"] == 4 * (4096 + 8192)
        assert summary["tier_bytes_last"] == [40960, 81920]
        assert summary["gap_balance_first"] == pytest.approx(0.2)
        assert summary["gap_balance_last"] == pytest.approx(0.05)

    def test_payload_scopes_tenants(self):
        # The machine view sums occupancy, flows and churn over the
        # tenants of each quantum and keeps the worst tenant's gap.
        events = [META,
                  sample(0, tenant="a", ping_pong_pages=2,
                         gap_balance=0.1, gap_packed=0.0),
                  sample(0, tenant="b", ping_pong_pages=3,
                         gap_balance=0.3, gap_packed=0.2)]
        payload = placement_payload(*split_timelines(events))
        tenants = payload["tenants"]
        assert set(tenants) == {"a", "b"}
        assert payload["n_samples"] == 1
        assert tenants["a"]["ping_pong_pages_peak"] == 2
        assert tenants["b"]["ping_pong_pages_peak"] == 3
        assert payload["ping_pong_pages_peak"] == 5
        a, b = tenants["a"], tenants["b"]
        assert payload["tier_bytes_last"] == [
            x + y for x, y in zip(a["tier_bytes_last"], b["tier_bytes_last"])]
        assert payload["flow_bytes_total"] == (a["flow_bytes_total"]
                                               + b["flow_bytes_total"])
        assert payload["gap_balance_last"] == pytest.approx(0.3)


class TestTimelineFold:
    def test_single_sample_fields(self):
        events = [META, sample(0, gap_balance=0.1, gap_packed=0.05,
                               p_packed=0.8, p_balance=0.6)]
        timeline = build_timeline(events)
        [folded] = timeline.samples
        assert folded.occupancy_bytes == ((4096,) * 10, (8192,) * 10)
        assert folded.flow_bytes == ((0, 4096), (8192, 0))
        assert folded.gap_balance == pytest.approx(0.1)
        assert folded.p_balance == pytest.approx(0.6)

    def test_tenant_samples_sum_and_keep_worst_gap(self):
        events = [META,
                  sample(0, tenant="a", ping_pong_pages=1,
                         wasted_bytes=10, gap_balance=0.1,
                         gap_packed=0.0),
                  sample(0, tenant="b", ping_pong_pages=2,
                         wasted_bytes=20, gap_balance=0.3,
                         gap_packed=0.2)]
        timeline = build_timeline(events)
        [folded] = timeline.samples
        assert folded.occupancy_bytes[0] == (8192,) * 10
        assert folded.flow_bytes == ((0, 8192), (16384, 0))
        assert folded.ping_pong_pages == 3
        assert folded.wasted_migration_bytes == 30
        assert folded.gap_balance == pytest.approx(0.3)


class TestDetectors:
    def test_sustained_ping_pong_warns(self):
        events = [META]
        for i in range(20):
            events.append(sample(i, ping_pong_pages=6,
                                 wasted_bytes=4096))
        diagnostics = diagnose_events(events)
        findings = [f for f in diagnostics.findings
                    if f.detector == "ping-pong-churn"]
        assert findings and findings[0].severity in (
            "warning", "critical")
        assert findings[0].evidence["peak_ping_pong_pages"] == 6

    def test_quiet_run_has_no_churn_finding(self):
        events = [META] + [sample(i) for i in range(20)]
        diagnostics = diagnose_events(events)
        assert not [f for f in diagnostics.findings
                    if f.detector == "ping-pong-churn"]

    def test_sticky_gap_after_grace_flags(self):
        events = [META]
        for i in range(45):
            extra = ({"gap_balance": 0.25, "gap_packed": 0.1}
                     if i % 10 == 0 else {})
            events.append(sample(i, **extra))
        diagnostics = diagnose_events(events)
        findings = [f for f in diagnostics.findings
                    if f.detector == "misplacement-gap"]
        assert findings and findings[0].severity == "critical"
        assert diagnostics.summary.misplacement_gap_last == (
            pytest.approx(0.25))

    def test_shrinking_gap_is_clean(self):
        events = [META]
        gaps = iter([0.3, 0.2, 0.1, 0.01, 0.005])
        for i in range(45):
            extra = {}
            if i % 10 == 0:
                gap = next(gaps)
                extra = {"gap_balance": gap, "gap_packed": gap}
            events.append(sample(i, **extra))
        diagnostics = diagnose_events(events)
        assert not [f for f in diagnostics.findings
                    if f.detector == "misplacement-gap"]


class TestRenderings:
    def trace(self):
        events = [META]
        for i in range(3):
            extra = ({"gap_balance": 0.12, "gap_packed": 0.02}
                     if i == 0 else {})
            events.append(sample(i, ping_pong_pages=1,
                                 wasted_bytes=4096, **extra))
        events.append({"type": "tpp_promotion", "time_s": 0.0,
                       "n_faults": 9, "n_hot": 4, "n_promoted": 4,
                       "n_demoted": 2, "hot_ttf_ns": 1000.0})
        return events

    def test_report_renders_placement_section(self):
        text = format_summary(build_timeline(self.trace()))
        assert "-- placement --" in text
        assert "3 (1 audited)" in text
        assert "gap vs latency-balance" in text
        assert "4 page(s) promoted, 2 queued for kswapd demotion" in text

    def test_report_without_samples_has_no_section(self):
        text = format_summary(build_timeline([META]))
        assert "-- placement --" not in text

    def test_chrome_trace_tracks(self):
        out = chrome_trace_events(self.trace())
        names = {e["name"] for e in out}
        assert "tier occupancy (bytes)" in names
        assert "hottest-decile bytes" in names
        assert "migration flow" in names
        assert "misplacement gap" in names
        assert "ping-pong churn" in names
        flow = [e for e in out if e["name"] == "migration flow"][0]
        assert flow["args"]["t0->t1"] == 4096
        assert flow["args"]["t1->t0"] == 8192
