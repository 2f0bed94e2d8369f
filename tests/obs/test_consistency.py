"""One fold, one answer: every reader of a trace agrees with the others.

``repro report``, ``repro diagnose --json``, the Chrome-trace export and
a cell's ``diagnostics``/``placement`` payloads all read the trace's
:class:`~repro.obs.timeline.Timeline`. On two recorded runs — the seed-42
``hemem+colloid`` contention step (the Fig. 4c dynamism) and a two-tenant
gups+silo run with a placement audit — they must report the same
per-epoch convergence quanta, the same dynamic watermark-reset count and
the same executed migration bytes, which equal the ``run_end`` counter.
"""

import json
import re

import pytest

from repro.cli import main
from repro.exec.execute import cell_payloads
from repro.obs.chrometrace import PID_SIMULATED, chrome_trace_events
from repro.obs.report import _format_bytes, report_from_file
from repro.obs.tracer import load_events
from repro.options import RunOptions

#: A report line claiming convergence: the diagnostics section's
#: ``epoch N : converged in Q quanta`` and the convergence findings'
#: ``epoch N converged to ... in Q quanta``.
_CONVERGED = re.compile(
    r"epoch (\d+)\s*:? converged (?:to .+ )?in (\d+) quanta")


def record(path, *argv):
    assert main(["run", "--scale", "0.03", "--trace", str(path),
                 *argv]) == 0
    return path


@pytest.fixture(scope="module")
def step_trace(tmp_path_factory):
    return record(tmp_path_factory.mktemp("step") / "trace.jsonl",
                  "--system", "hemem+colloid", "--duration", "3",
                  "--contention", "0", "--contention-step", "1.5:2",
                  "--seed", "42")


@pytest.fixture(scope="module")
def tenant_trace(tmp_path_factory):
    return record(tmp_path_factory.mktemp("tenants") / "trace.jsonl",
                  "--tenant", "gups", "--tenant", "silo", "--duration", "1",
                  "--contention-step", "0.5:2", "--placement-audit", "5")


def report_sections(path):
    """``{None: machine section, tenant: tenant section}`` of a report."""
    parts = re.split(r"\n\n== tenant: (\S+) ==\n", report_from_file(path))
    return {None: parts[0], **dict(zip(parts[1::2], parts[2::2]))}


def report_convergence(section):
    """Every convergence claim in a report section, as {epoch: quanta};
    a claim of any other form fails the test."""
    claims = {}
    for line in section.splitlines():
        if not re.search(r"\bconverged\b", line):
            continue
        match = _CONVERGED.search(line)
        assert match, f"convergence claim in another form: {line!r}"
        epoch, quanta = int(match.group(1)), int(match.group(2))
        assert claims.setdefault(epoch, quanta) == quanta, line
    return claims


def report_resets(section):
    counts = set(re.findall(r"watermark resets: (\d+)", section))
    counts |= set(re.findall(r"resets\s+: (\d+) dynamic", section))
    assert len(counts) == 1, counts
    return int(counts.pop())


def diagnose_json(path, tmp_path):
    out = tmp_path / "diagnose.json"
    code = main(["diagnose", str(path), "--json", "--out", str(out)])
    assert code in (0, 2)
    payload = json.loads(out.read_text())
    if "tenants" in payload:
        return {name: section["summary"]
                for name, section in payload["tenants"].items()}
    return {None: payload["summary"]}


def chrome_controllers(events):
    """Per controller label: ({epoch: quanta}, dynamic reset count)."""
    convergence, resets = {}, {}
    for event in chrome_trace_events(events):
        label, args = event["args"].get("tenant"), event["args"]
        if event["name"].startswith("converged (epoch"):
            convergence.setdefault(label, {})[args["epoch"]] = args["quanta"]
        elif event["name"].startswith("watermark reset"):
            resets[label] = resets.get(label, 0) + (args["side"] != "init")
    return {label: (convergence.get(label, {}), count)
            for label, count in resets.items()}


def chrome_executed_bytes(events):
    return sum(e["args"]["executed_bytes"]
               for e in chrome_trace_events(events)
               if e["ph"] == "X" and e["pid"] == PID_SIMULATED)


def as_epochs(quanta):
    return {epoch: q for epoch, q in enumerate(quanta) if q is not None}


class TestOneAnswerPerQuestion:
    @pytest.fixture(params=["step_trace", "tenant_trace"])
    def trace(self, request):
        return request.getfixturevalue(request.param)

    def test_convergence_and_resets_agree(self, trace, tmp_path):
        events = load_events(trace)
        diagnosed = diagnose_json(trace, tmp_path)
        sections = report_sections(trace)
        chrome = chrome_controllers(events)
        options = RunOptions(diagnose=True)
        cell, __ = cell_payloads(events, options)
        cell = cell.get("tenants", {None: cell})
        assert set(diagnosed) == set(cell) == set(chrome)
        assert set(sections) == set(diagnosed) | {None}
        for label, summary in diagnosed.items():
            convergence = as_epochs(summary["convergence_quanta"])
            assert convergence, label
            assert report_convergence(sections[label]) == convergence
            assert chrome[label][0] == convergence
            assert as_epochs(cell[label]["convergence_quanta"]) == (
                convergence)
            resets = summary["watermark_resets"]
            assert resets >= 1, label
            assert report_resets(sections[label]) == resets
            assert chrome[label][1] == resets
            assert cell[label]["watermark_resets"] == resets
        if label is not None:
            # A colocated trace answers controller questions per tenant
            # only: the machine section makes no convergence claim.
            assert report_convergence(sections[None]) == {}

    def test_executed_bytes_are_the_run_end_counter(self, trace):
        events = load_events(trace)
        [end] = [e for e in events if e["type"] == "run_end"]
        migrated = end["counters"]["migrated_bytes"]
        assert migrated > 0
        assert chrome_executed_bytes(events) == migrated
        machine = report_sections(trace)[None]
        assert f"executed      : {_format_bytes(migrated)} " in machine

    def test_two_tenant_migrated_bytes_pinned(self, tenant_trace):
        [end] = [e for e in load_events(tenant_trace)
                 if e["type"] == "run_end"]
        assert end["counters"]["migrated_bytes"] == 3_286_237_184


class TestMachinePlacement:
    def test_machine_is_the_sum_of_its_tenants(self, tenant_trace):
        events = load_events(tenant_trace)
        __, placement = cell_payloads(events,
                                      RunOptions(placement_audit=5))
        tenants = placement["tenants"]
        assert set(tenants) == {"gups", "silo"}
        assert placement["tier_bytes_last"] == [
            sum(column) for column in
            zip(*(t["tier_bytes_last"] for t in tenants.values()))]
        assert placement["flow_bytes_total"] == sum(
            t["flow_bytes_total"] for t in tenants.values())
        [end] = [e for e in events if e["type"] == "run_end"]
        assert placement["flow_bytes_total"] == (
            end["counters"]["migrated_bytes"])
        occupancy = ", ".join(
            f"tier{i}={_format_bytes(total)}"
            for i, total in enumerate(placement["tier_bytes_last"]))
        assert f"occupancy     : {occupancy}" in report_sections(
            tenant_trace)[None]
