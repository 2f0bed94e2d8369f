"""Diagnostics engine: detectors over synthetic timelines, the summary
round-trip, threshold validation, the CLI exit code on a misbehaving
trace, and the verdicts on one pinned contention-step run."""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.experiments.common import make_system, scaled_machine
from repro.obs.diagnose import (
    DEFAULT_CONFIG,
    DiagnosticsConfig,
    DiagnosticsSummary,
    diagnose_events,
    format_diagnostics,
    with_overrides,
)
from repro.obs.timeline import build_timeline
from repro.obs.tracer import Tracer
from repro.options import DIAGNOSE_ENV_VAR, RunOptions
from repro.runtime.loop import SimulationLoop
from repro.workloads.gups import GupsWorkload

META = {"type": "run_start", "time_s": 0.0, "system": "hemem+colloid",
        "workload": "gups", "n_tiers": 2, "quantum_ms": 10.0,
        "migration_limit_bytes": 1 << 20}


def quantum(index, p, l_d, l_a, executed=0):
    time_s = round(index * 0.01, 6)
    return [
        {"type": "compute_shift", "time_s": time_s, "p": p,
         "p_lo": 0.0, "p_hi": 1.0, "dp": 0.0,
         "latency_default_ns": l_d, "latency_alternate_ns": l_a},
        {"type": "migration_executed", "time_s": time_s,
         "planned_moves": 1, "planned_bytes": executed,
         "executed_bytes": executed, "budget_bytes": executed,
         "moves_applied": 1, "moves_skipped": 0, "moves_deferred": 0},
    ]


def reset(index, side="lo"):
    return {"type": "watermark_reset", "time_s": round(index * 0.01, 6),
            "side": side, "p": 0.5, "resets": 1}


def oscillating_trace(n=60):
    """p alternates well above the deadband while latencies stay
    imbalanced — the pathological bracket-bouncing run."""
    events = [META]
    for i in range(n):
        p = 0.5 + (0.1 if i % 2 else -0.1)
        events += quantum(i, p=p, l_d=200.0, l_a=100.0)
    return events


def converging_trace():
    """p walks down for 10 quanta, then latencies balance and hold."""
    events = [META]
    for i in range(10):
        events += quantum(i, p=0.9 - 0.04 * i, l_d=200.0, l_a=100.0,
                          executed=10 << 20)
    for i in range(10, 20):
        events += quantum(i, p=0.5, l_d=103.0, l_a=100.0)
    return events


class TestConvergence:
    def test_latency_balance_criterion(self):
        diagnostics = diagnose_events(converging_trace())
        assert diagnostics.summary.convergence_quanta == (10,)
        finding = [f for f in diagnostics.findings
                   if f.detector == "convergence"][0]
        assert finding.severity == "info"
        assert finding.evidence["criterion"] == "latency-balance"

    def test_p_settled_corner_criterion(self):
        # Latencies never balance (capacity-bound corner) but p is
        # flat — the run is converged, not broken.
        events = [META]
        for i in range(25):
            events += quantum(i, p=0.7, l_d=130.0, l_a=100.0)
        diagnostics = diagnose_events(events)
        assert diagnostics.summary.convergence_quanta == (0,)
        finding = [f for f in diagnostics.findings
                   if f.detector == "convergence"][0]
        assert finding.evidence["criterion"] == "p-settled"

    def test_never_converges_warns(self):
        events = [META]
        for i in range(30):
            p = 0.5 + (0.1 if i % 2 else -0.1)
            events += quantum(i, p=p, l_d=200.0, l_a=100.0)
        diagnostics = diagnose_events(events)
        assert diagnostics.summary.convergence_quanta == (None,)
        warnings = [f for f in diagnostics.findings
                    if f.detector == "convergence"]
        assert warnings[0].severity == "warning"


class TestOscillation:
    def test_oscillating_trace_is_critical(self):
        diagnostics = diagnose_events(oscillating_trace())
        oscillation = [f for f in diagnostics.findings
                       if f.detector == "oscillation"]
        assert oscillation and oscillation[0].severity == "critical"
        assert diagnostics.has_critical
        assert diagnostics.summary.oscillation_score >= 0.9

    def test_noise_below_deadband_ignored(self):
        # CHA noise moves p a little every quantum; successive iid
        # differences flip sign ~2/3 of the time, so sub-deadband
        # jitter must not read as oscillation.
        events = [META]
        for i in range(60):
            p = 0.5 + (0.01 if i % 2 else -0.01)  # < deadband_p
            events += quantum(i, p=p, l_d=103.0, l_a=100.0)
        diagnostics = diagnose_events(events)
        assert not [f for f in diagnostics.findings
                    if f.detector == "oscillation"]
        assert diagnostics.summary.oscillation_score == 0.0


class TestResetStorm:
    def test_storm_outside_grace_is_flagged(self):
        events = [META]
        for i in range(60):
            events += quantum(i, p=0.7, l_d=130.0, l_a=100.0)
        for i in (30, 33, 36, 39, 42, 45):
            events.append(reset(i))
        diagnostics = diagnose_events(events)
        storm = [f for f in diagnostics.findings
                 if f.detector == "reset-storm"
                 and f.severity != "info"]
        assert storm and storm[0].severity == "critical"

    def test_resets_after_boundary_are_expected(self):
        events = [META]
        for i in range(60):
            events += quantum(i, p=0.7, l_d=130.0, l_a=100.0)
        events.append({"type": "workload_shift", "time_s": 0.10,
                       "epoch": 1})
        events.append(reset(12))
        events.append(reset(14))
        diagnostics = diagnose_events(events)
        storm = [f for f in diagnostics.findings
                 if f.detector == "reset-storm"]
        assert all(f.severity == "info" for f in storm)
        assert "Fig. 4c" in storm[0].message

    def test_isolated_reset_reported_as_info(self):
        events = [META]
        for i in range(60):
            events += quantum(i, p=0.7, l_d=130.0, l_a=100.0)
        events.append(reset(40))
        diagnostics = diagnose_events(events)
        isolated = [f for f in diagnostics.findings
                    if f.detector == "reset-storm"]
        assert isolated and isolated[0].severity == "info"
        assert "isolated" in isolated[0].message


class TestThrash:
    def test_post_convergence_migration_flagged(self):
        events = [META]
        for i in range(10):
            events += quantum(i, p=0.9 - 0.04 * i, l_d=200.0,
                              l_a=100.0, executed=10 << 20)
        for i in range(10, 20):
            events += quantum(i, p=0.5, l_d=103.0, l_a=100.0,
                              executed=8 << 20)
        diagnostics = diagnose_events(events)
        thrash = [f for f in diagnostics.findings
                  if f.detector == "migration-thrash"]
        assert thrash and thrash[0].severity == "critical"
        assert diagnostics.summary.thrash_score == pytest.approx(0.8)

    def test_quiet_tail_not_flagged(self):
        diagnostics = diagnose_events(converging_trace())
        assert not [f for f in diagnostics.findings
                    if f.detector == "migration-thrash"]
        assert diagnostics.summary.thrash_score == 0.0


class TestSummaryAndFormat:
    def test_summary_round_trip(self):
        summary = diagnose_events(converging_trace()).summary
        clone = DiagnosticsSummary.from_dict(
            json.loads(json.dumps(summary.to_dict())))
        assert clone == summary

    def test_format_lists_findings_by_severity(self):
        diagnostics = diagnose_events(oscillating_trace())
        timeline = build_timeline(oscillating_trace())
        text = format_diagnostics(diagnostics, timeline=timeline)
        assert "-- diagnostics --" in text
        assert "[CRITICAL]" in text
        assert text.index("CRITICAL") < text.index("WARNING")

    def test_with_overrides_skips_none(self):
        config = with_overrides(DEFAULT_CONFIG, epsilon=0.2,
                                sustain_quanta=None)
        assert config.epsilon == 0.2
        assert config.sustain_quanta == DEFAULT_CONFIG.sustain_quanta

    def test_env_toggle(self, monkeypatch):
        monkeypatch.delenv(DIAGNOSE_ENV_VAR, raising=False)
        assert not RunOptions.from_env().diagnose
        monkeypatch.setenv(DIAGNOSE_ENV_VAR, "1")
        assert RunOptions.from_env().diagnose
        monkeypatch.setenv(DIAGNOSE_ENV_VAR, "false")
        assert not RunOptions.from_env().diagnose


class TestConfigValidation:
    @pytest.mark.parametrize("sustain", [0, -3])
    def test_sustain_below_one_rejected(self, sustain):
        with pytest.raises(ConfigurationError, match="sustain_quanta"):
            DiagnosticsConfig(sustain_quanta=sustain)

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, float("nan")])
    def test_non_positive_epsilon_rejected(self, epsilon):
        with pytest.raises(ConfigurationError, match="epsilon"):
            with_overrides(DEFAULT_CONFIG, epsilon=epsilon)


class TestCli:
    def write_trace(self, tmp_path, events):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(json.dumps(e) for e in events) + "\n")
        return path

    def test_exit_nonzero_on_critical(self, tmp_path, capsys):
        path = self.write_trace(tmp_path, oscillating_trace())
        code = main(["diagnose", str(path)])
        assert code == 2
        assert "oscillat" in capsys.readouterr().out

    def test_exit_zero_on_healthy_trace(self, tmp_path, capsys):
        path = self.write_trace(tmp_path, converging_trace())
        code = main(["diagnose", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "converged" in out

    def test_json_output(self, tmp_path, capsys):
        path = self.write_trace(tmp_path, converging_trace())
        code = main(["diagnose", str(path), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["convergence_quanta"] == [10]

    def test_out_writes_json_file(self, tmp_path, capsys):
        path = self.write_trace(tmp_path, converging_trace())
        out_path = tmp_path / "diag.json"
        code = main(["diagnose", str(path), "--json",
                     "--out", str(out_path)])
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert payload["summary"]["convergence_quanta"] == [10]

    @pytest.mark.parametrize("flag,value", [("--sustain", "0"),
                                            ("--sustain", "-3"),
                                            ("--epsilon", "-1")])
    def test_invalid_threshold_exits_one(self, tmp_path, capsys, flag,
                                         value):
        path = self.write_trace(tmp_path, converging_trace())
        code = main(["diagnose", str(path), flag, value])
        assert code == 1
        assert "error:" in capsys.readouterr().err


#: Per-epoch convergence quanta of the representative run below.
_PINNED_CONVERGENCE_QUANTA = (0, 45)


class TestRepresentativeRun:
    """``hemem+colloid`` on GUPS at scale 0.03, seed 42, with contention
    stepping from 0 to 2 at 1.5 s of a 3 s run (the Fig. 4c dynamism).

    The controller must keep converging in every epoch, stay below the
    oscillation and thrash warning levels, reset its watermarks after the
    step, and draw no warning or critical finding.
    """

    @pytest.fixture(scope="class")
    def summary(self):
        tracer = Tracer(ring_size=8192)
        loop = SimulationLoop(
            machine=scaled_machine(0.03),
            workload=GupsWorkload(scale=0.03, seed=42),
            system=make_system("hemem+colloid"),
            contention=lambda t: 0 if t < 1.5 else 2,
            seed=42,
            tracer=tracer,
        )
        loop.run(duration_s=3.0)
        loop.emit_run_end()
        return diagnose_events(tracer.events()).summary

    def test_every_epoch_converges_within_twice_pinned_plus_slack(
            self, summary):
        quanta = summary.convergence_quanta
        assert len(quanta) == len(_PINNED_CONVERGENCE_QUANTA)
        for got, pinned in zip(quanta, _PINNED_CONVERGENCE_QUANTA):
            assert got is not None
            assert got <= 2 * pinned + 5, quanta

    def test_below_oscillation_and_thrash_warning_levels(self, summary):
        assert summary.oscillation_score < DEFAULT_CONFIG.oscillation_warn
        assert summary.thrash_score < DEFAULT_CONFIG.thrash_warn

    def test_step_resets_the_watermarks(self, summary):
        assert summary.watermark_resets >= 1

    def test_no_warning_or_critical_finding(self, summary):
        assert summary.max_severity in (None, "info"), summary.findings
