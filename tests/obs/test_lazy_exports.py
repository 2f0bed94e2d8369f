"""``repro.obs`` exports its names lazily (PEP 562).

Every exported name must still resolve, and importing the exec runner
and the simulation loop — which reach ``repro.obs.tracer`` — must not
load the trace-analysis modules.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.obs

#: Modules only trace analysis and export need.
ANALYSIS_MODULES = ("repro.obs.diagnose", "repro.obs.report",
                    "repro.obs.timeline", "repro.obs.chrometrace")


@pytest.mark.parametrize("name", repro.obs.__all__)
def test_every_exported_name_resolves(name):
    value = getattr(repro.obs, name)
    assert value is not None
    assert name in dir(repro.obs)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.obs.no_such_name  # noqa: B018


def test_from_import_resolves():
    from repro.obs import Timeline, Tracer, export_chrome_trace
    from repro.obs.timeline import Timeline as timeline_cls
    from repro.obs.tracer import Tracer as direct

    assert Tracer is direct
    assert Timeline is timeline_cls
    assert callable(export_chrome_trace)


def test_the_loop_does_not_load_trace_analysis():
    """Checked in a fresh interpreter: this one has loaded them all."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    probe = ("import sys, repro.exec.runner, repro.runtime.loop; "
             f"print([m for m in {ANALYSIS_MODULES!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
