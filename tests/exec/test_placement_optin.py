"""Per-cell placement-audit opt-in (``RunOptions.placement_audit``) in
the exec layer, and the CellResult/AggregatedCell placement payload
plumbing."""

import pytest

from repro.exec.cache import ResultCache
from repro.exec.execute import execute_spec
from repro.exec.journal import FleetJournal
from repro.exec.result import CellResult
from repro.exec.runner import Runner, aggregate
from repro.experiments.common import ExperimentConfig, steady_cell_spec
from repro.options import PLACEMENT_AUDIT_ENV_VAR, RunOptions

TINY = ExperimentConfig(scale=0.03, seed=7)


def tiny_spec():
    return steady_cell_spec("hemem+colloid", 1, TINY,
                            max_duration_s=4.0)


class TestExecuteOptIn:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(PLACEMENT_AUDIT_ENV_VAR, raising=False)
        result = execute_spec(tiny_spec())
        assert result.placement is None

    def test_enabled_attaches_payload(self):
        result = execute_spec(tiny_spec(), RunOptions(placement_audit=5))
        assert isinstance(result.placement, dict)
        assert result.placement["n_samples"] > 0
        assert result.placement["n_audits"] > 0
        assert "gap_balance_last" in result.placement
        # The audit alone must not drag diagnostics in.
        assert result.diagnostics is None

    def test_composes_with_diagnostics(self):
        result = execute_spec(tiny_spec(), RunOptions(
            diagnose=True, placement_audit=1))
        assert isinstance(result.placement, dict)
        assert isinstance(result.diagnostics, dict)

    def test_audit_does_not_perturb_results(self):
        plain = execute_spec(tiny_spec(), RunOptions())
        audited = execute_spec(tiny_spec(), RunOptions(placement_audit=1))
        assert audited.throughput == plain.throughput
        assert audited.tail_latencies_ns == plain.tail_latencies_ns


class TestStoredResults:
    """A stored result without the placement summary the options ask
    for is a miss (cache and ``--resume`` journal alike)."""

    def test_plain_cache_entry_is_a_miss_for_an_audited_run(
            self, tmp_path):
        spec = tiny_spec()
        Runner(cache=ResultCache(tmp_path)).run_one(spec)
        audited = Runner(cache=ResultCache(tmp_path),
                         options=RunOptions(placement_audit=5))
        assert audited.run_one(spec).placement is not None
        assert (audited.stats.cache_hits, audited.stats.executed) == (0, 1)
        again = Runner(cache=ResultCache(tmp_path),
                       options=RunOptions(placement_audit=5))
        assert again.run_one(spec).placement is not None
        assert (again.stats.cache_hits, again.stats.executed) == (1, 0)

    def test_plain_journal_entry_is_a_miss_on_resume(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "fleet.jsonl"
        with FleetJournal(path) as journal:
            Runner(journal=journal).run_one(spec)
        with FleetJournal(path, resume=True) as journal:
            resumed = Runner(journal=journal,
                             options=RunOptions(placement_audit=5))
            assert resumed.run_one(spec).placement is not None
            assert (resumed.stats.journal_hits,
                    resumed.stats.executed) == (0, 1)


def make_result(**overrides):
    fields = dict(mode="steady", throughput=1.5, converged=True,
                  duration_s=2.0, tail_latencies_ns=(150.0, 100.0),
                  tail_default_share=0.7, cpu_work={"scan": 3.0})
    fields.update(overrides)
    return CellResult(**fields)


PAYLOAD = {"n_samples": 40, "n_audits": 4, "ping_pong_pages_peak": 2,
           "wasted_migration_bytes": 8192, "flow_bytes_total": 1 << 20,
           "gap_balance_first": 0.3, "gap_balance_last": 0.02,
           "gap_packed_first": 0.1, "gap_packed_last": 0.05}


class TestResultRoundTrip:
    def test_placement_survives_serialization(self):
        result = make_result(placement=dict(PAYLOAD))
        clone = CellResult.from_dict(result.to_dict())
        assert clone == result
        assert clone.placement["n_audits"] == 4

    def test_unaudited_payload_keeps_its_shape(self):
        data = make_result().to_dict()
        assert "placement" not in data
        assert CellResult.from_dict(data).placement is None


class TestAggregatedPlacement:
    def test_none_without_payloads(self):
        cell = aggregate([make_result(), make_result()])
        assert cell.placement is None

    def test_merges_gaps_and_churn_across_runs(self):
        a = dict(PAYLOAD)
        b = dict(PAYLOAD, gap_balance_last=0.04,
                 ping_pong_pages_peak=5, wasted_migration_bytes=1024)
        cell = aggregate([make_result(placement=a),
                          make_result(placement=b)])
        merged = cell.placement
        assert merged["gap_balance_last"] == pytest.approx(0.03)
        assert merged["ping_pong_pages_peak"] == 5
        assert merged["wasted_migration_bytes"] == 8192
