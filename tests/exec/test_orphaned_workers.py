"""A SIGKILLed ``--jobs`` fleet leaves no pool workers behind.

The fleet runs in a subprocess whose cells write their worker's pid to
a directory and then hang. Once both workers have reported, the fleet
is killed with SIGKILL; its workers must notice and exit on their own.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import repro

FLEET = textwrap.dedent("""
    import os
    import sys
    import time
    from pathlib import Path

    import repro.exec.execute as execute
    from repro.exec.runner import Runner
    from repro.experiments.common import ExperimentConfig, best_case_spec

    pid_dir = Path(sys.argv[1])

    def report_and_hang(spec, options=None):
        (pid_dir / str(os.getpid())).touch()
        time.sleep(600)

    execute.execute_spec = report_and_hang
    Runner(jobs=2).run([best_case_spec(0, ExperimentConfig(scale=0.03,
                                                           seed=seed))
                        for seed in range(2)])
""")


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (an exited zombie is not)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="reads process states from /proc")
def test_sigkilled_fleet_leaves_no_workers(tmp_path):
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    fleet = subprocess.Popen([sys.executable, "-c", FLEET, str(tmp_path)],
                             env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
    workers = []
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2:
            assert fleet.poll() is None, "the fleet exited before its cells"
            assert time.monotonic() < deadline, "the cells never started"
            time.sleep(0.05)
            workers = [int(p.name) for p in tmp_path.iterdir()]
        fleet.send_signal(signal.SIGKILL)
        fleet.wait()
        deadline = time.monotonic() + 5
        while any(_running(pid) for pid in workers):
            assert time.monotonic() < deadline, (
                f"workers {workers} outlived their fleet")
            time.sleep(0.05)
    finally:
        fleet.kill()
        fleet.wait()
        for pid in workers:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
