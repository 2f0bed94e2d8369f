"""Per-quantum identity: every QuantumRecord field, pinned by digest.

Each case runs 300 quanta of a small but representative loop and hashes
every :class:`~repro.runtime.metrics.QuantumRecord` field across the run
(for a colocated run: the aggregate series, then each tenant's). The
digests below are the committed reference. A change that is meant to
leave the simulation untouched — caching, scalar rewrites of numpy
bookkeeping, a faster one-page move — must leave every digest unchanged
bit for bit. A deliberate behavior change regenerates them with::

    PYTHONPATH=src python -m tests.runtime.test_quantum_identity

Every case runs twice, with invariant checking on (so the solver also
validates its cache hits) and off, and both runs must agree everywhere.
The committed digests are compared only on the Python and numpy
versions they were generated with (:data:`REFERENCE_PLATFORM`): float
summation order is not fixed across them (Python 3.12's ``sum`` is
compensated, numpy's pairwise sum is an implementation detail), so other
versions legitimately produce other bits.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np
import pytest

from repro.check.invariants import NULL_CHECKER, Checker
from repro.core.multitier import MultiTierColloidSystem
from repro.exec.factories import make_system
from repro.experiments.common import scaled_machine
from repro.runtime.colocation import ColocatedLoop, TenantSpec
from repro.runtime.loop import SimulationLoop
from repro.tiering.memorymode import MemoryModeSystem
from repro.workloads.dynamic import HotSetShiftWorkload
from repro.workloads.gups import GupsWorkload
from tests.conftest import FAST_SCALE
from tests.core.test_multitier import three_tier_machine

#: Quanta per case (3 simulated seconds at the default 10 ms quantum).
N_QUANTA = 300

#: QuantumRecord fields, in declaration order.
FIELDS = ("time_s", "throughput", "latencies_ns", "p_true", "p_measured",
          "app_tier_bandwidth", "migration_bytes", "antagonist_intensity")


def _step_contention(t: float) -> int:
    return 0 if t < 1.5 else 3


def _single(system, contention, workload=None, machine=None, **kwargs):
    return SimulationLoop(
        machine=machine if machine is not None
        else scaled_machine(FAST_SCALE),
        workload=(workload if workload is not None
                  else GupsWorkload(scale=FAST_SCALE, seed=5)),
        system=system, contention=contention, seed=5, **kwargs,
    )


def _two_tenants(**kwargs):
    tenants = [
        TenantSpec(name=f"t{i}",
                   workload=GupsWorkload(scale=FAST_SCALE / 2, seed=5 + i),
                   system=make_system(name))
        for i, name in enumerate(("hemem+colloid", "tpp+colloid"))
    ]
    return ColocatedLoop(machine=scaled_machine(FAST_SCALE),
                         tenants=tenants, contention=2, seed=5, **kwargs)


#: Case name -> loop builder (keyword arguments go to the loop).
CASES = {
    "hemem": lambda **kw: _single(make_system("hemem"), 0, **kw),
    "hemem+colloid": lambda **kw: _single(
        make_system("hemem+colloid"), _step_contention, **kw),
    "tpp": lambda **kw: _single(make_system("tpp"), 2, **kw),
    "memtis+colloid": lambda **kw: _single(
        make_system("memtis+colloid"), 1, **kw),
    "memory-mode": lambda **kw: _single(MemoryModeSystem(), 1, **kw),
    "hotset-shift": lambda **kw: _single(
        make_system("hemem+colloid"), 0,
        workload=HotSetShiftWorkload(
            GupsWorkload(scale=FAST_SCALE, seed=5), [0.8, 1.6, 2.4]),
        **kw),
    "two-tenant": _two_tenants,
    "three-tier": lambda **kw: _single(
        MultiTierColloidSystem(), 3, machine=three_tier_machine(), **kw),
}


def digests(loop) -> dict:
    """Run ``N_QUANTA`` quanta; sha256 per QuantumRecord field over the
    aggregate series followed by every tenant's series."""
    for __ in range(N_QUANTA):
        loop.step()
    recorders = [loop.metrics] + list(loop.tenant_metrics.values())
    result = {}
    for name in FIELDS:
        h = hashlib.sha256()
        for recorder in recorders:
            series = np.array([getattr(r, name) for r in recorder.records])
            h.update(str(series.dtype).encode())
            h.update(np.ascontiguousarray(series).tobytes())
        result[name] = h.hexdigest()
    return result


#: (Python, numpy) major.minor versions the digests were generated with.
REFERENCE_PLATFORM = ("3.11", "2.4")


def _platform() -> tuple:
    return (f"{sys.version_info[0]}.{sys.version_info[1]}",
            ".".join(np.__version__.split(".")[:2]))


#: Reference digests (see the module docstring to regenerate).
EXPECTED = {
    'hemem': {
        'time_s':
            'fac4996409ebc1d06296b6e5b8a67fb17a659376c1d0a56fa5fcf1ef60f59880',
        'throughput':
            'e548dd3dacb9e6014b067b5ba46334b08e1380ef4e9e40b3109ce5a995f4a314',
        'latencies_ns':
            'e99c4f7f8f27df50f45a81e6a5d71ece3e4361212835f4551216f12030a9d295',
        'p_true':
            '7a7cff344015e6f94a5ea29f595dc222aae0fb0f0fa1f4d27111d02ddc452bbf',
        'p_measured':
            'f0c20465ea8c92e06b8c34a857c6061b7816c5e83ceec3efa531ac2188da01ad',
        'app_tier_bandwidth':
            '28744bec97a3287bc651cf5a72f05f3de2238c3a3a1ffdc69b21003f4bcdc85e',
        'migration_bytes':
            'ee555980276cfe225c1872804a037e9cbad11dc1cc7e3684528d9a4b65db1626',
        'antagonist_intensity':
            '4eb3f372adbd23982b3debd4d16283adda5236e591a55b15fb0a7e7c69876818',
    },
    'hemem+colloid': {
        'time_s':
            'fac4996409ebc1d06296b6e5b8a67fb17a659376c1d0a56fa5fcf1ef60f59880',
        'throughput':
            '2930aaa4bdb09dde9d804d8a5a65243044b48966fca5d597dcfba81b893ab8c3',
        'latencies_ns':
            '940f12dff8bac5021a5a929b94501c62ab5f9975f0170222e2035c1deb1b995e',
        'p_true':
            '047d01ea09fdd14d09f81ea04b5dc3e94e6ead88335289f79009c11c42b0d0f0',
        'p_measured':
            'abd9f4c412b7b9be1dbdd496ef2a2ad7130186f370221522c1f1e5fe0a6523c0',
        'app_tier_bandwidth':
            '238556ad3316e6b1b7237dcafae317138f53e024f7f525a93ba4d6bfbb76ca5c',
        'migration_bytes':
            'b6844ff6f1471ffc1bfb738c607a345c54899948967a18b94d61287d2e0c937d',
        'antagonist_intensity':
            'af52d4c9b74865dedc84e1c448a8122c2c086187b2371d1bb4eb6690f598b2d5',
    },
    'hotset-shift': {
        'time_s':
            'fac4996409ebc1d06296b6e5b8a67fb17a659376c1d0a56fa5fcf1ef60f59880',
        'throughput':
            'd2be1bce3ecc6e06c2ae4d502ee77a5f20e33c2f91b25f3e85036275009c6b2f',
        'latencies_ns':
            'fadcacc6d03ad698de02a9bc9690c48de6d2722b84967af612004520a15f8faa',
        'p_true':
            '6078c849df6adc094e2d23c1eb525981c8abcdb93521fd95c813d5f5841eefa7',
        'p_measured':
            '41bb554d8dbda4241da7a188e78508767c44e1c18a07c782a63bdc30f97885b1',
        'app_tier_bandwidth':
            'd96b4f13dd041e57173da6143d59913571486b261f0375b4ca70b7059597e09d',
        'migration_bytes':
            '8400fcd3728a08fc9688d434aeea9fdc3ea0f7994e74a161ef2b7f10088d0cee',
        'antagonist_intensity':
            '4eb3f372adbd23982b3debd4d16283adda5236e591a55b15fb0a7e7c69876818',
    },
    'memory-mode': {
        'time_s':
            'fac4996409ebc1d06296b6e5b8a67fb17a659376c1d0a56fa5fcf1ef60f59880',
        'throughput':
            '614cce007d53db84712dd0103d29c5e3b8e78ad1f6f2e61f468558438db99fec',
        'latencies_ns':
            '3326e488c433457273e70a5bc05b52900e9c6ae9c9a3a34a6112155f75c72db9',
        'p_true':
            'b03231a5f77af230e482ed4095f42850ecec714c65ada8a7f4681c1da34be091',
        'p_measured':
            'd070c6047c6040392d651f13d5518207ff59c5de4f30ff9a6cd99b182436e932',
        'app_tier_bandwidth':
            '68a498013333ab2e86aa7db9dbefb2493d97e7d17160701f507caa7b9e8ca6fd',
        'migration_bytes':
            '4eb3f372adbd23982b3debd4d16283adda5236e591a55b15fb0a7e7c69876818',
        'antagonist_intensity':
            '67bb4c83515c8bd655ee810b4a52cffa5869242c28bcb91c51cc3c9efb67c433',
    },
    'memtis+colloid': {
        'time_s':
            'fac4996409ebc1d06296b6e5b8a67fb17a659376c1d0a56fa5fcf1ef60f59880',
        'throughput':
            '35681c0b26320d53ba46ad23c18c253ff6ffce8450359fb85d3f0dc3656af9c5',
        'latencies_ns':
            '9b16834bb437e868971e84c4eb5ae159c3afe3bac9d55b74cce9b0b3ea379087',
        'p_true':
            '787133c097fd54d3d6a7958537c470538f79c7d0b6a3370ff28ed0c04487fba3',
        'p_measured':
            'c8b63cc0a47a94d621a05d15d18a9c804ef2f895602a3c8d79dbcd29a994f790',
        'app_tier_bandwidth':
            '944865a346b2fbf92bbd27cf12262745568d0e8f19fef1ac00577e8636048d15',
        'migration_bytes':
            '8743c1bb4a79dda44a1bd87d926518d73e69920a86a18be93e25cf556f22879a',
        'antagonist_intensity':
            '67bb4c83515c8bd655ee810b4a52cffa5869242c28bcb91c51cc3c9efb67c433',
    },
    'three-tier': {
        'time_s':
            'fac4996409ebc1d06296b6e5b8a67fb17a659376c1d0a56fa5fcf1ef60f59880',
        'throughput':
            'a5a7cefeeca77a92c92c3a31cf7aa2c8ebf7de5d93a608df6a3f001bbbe2697c',
        'latencies_ns':
            '08738486ef0c7fe2e8f9b0e94c764db01f72785b4990090d9ad76a7d47968eda',
        'p_true':
            '458b681725925720f0f5bcfd7615a23cc984d4749e0fbd710dfa9b794065375c',
        'p_measured':
            '05cf630341b6a8124ec680116f8fe216fb1ca50dbc699a5433a70d28ab20f010',
        'app_tier_bandwidth':
            'c777af518410e46f04ab5a610fbeff6ce39d3f796078402666341137341b09ca',
        'migration_bytes':
            'ac54d238474ac0f4b06b7d785cc18c8e348457776e32e888bffad16dd2c8721f',
        'antagonist_intensity':
            '1ae09b2a802d298f33ddc03f62e4cfe909db399e7640ea0351a97c88c196277f',
    },
    'tpp': {
        'time_s':
            'fac4996409ebc1d06296b6e5b8a67fb17a659376c1d0a56fa5fcf1ef60f59880',
        'throughput':
            '0ad3eb67b9586bbc6c38ebbb08ddf73403da4f4a36cfad33bc9ed5b10fed0c05',
        'latencies_ns':
            '2da0c1c4924ae5076b00c2442622d29f59a55a27c1f0c87292ce05008e66c90e',
        'p_true':
            '7566f0be55b33b4827d3cecea0fb0d59b71893796aedd707c6145a95027d16ba',
        'p_measured':
            'dcfd722b82b5ead2dad05989d39d28b4786f9ca27a67f4e50da279ba874531f3',
        'app_tier_bandwidth':
            '9b119c6bba149ac9ab3728eee20ac06aea81066662c51cf54a6ec42034d46260',
        'migration_bytes':
            '8f81cf2bbb595a7e6613feb2a17992f149cd08576aa9e1499a24a193a0d0dfa9',
        'antagonist_intensity':
            '7f5e283e0c0c04b5502d20dc4e85f0b1441b561654fe4a4236c638a96d6af5f1',
    },
    'two-tenant': {
        'time_s':
            'e0deaa7b846cb1b0324c7e6ef3c9ce59c03d21a73b6f197ad87ecd0ac1b16bb2',
        'throughput':
            '7650ddb240d339acd4941cf29dd89671ad699021512efa1d1bf0c2d3bc186b6b',
        'latencies_ns':
            'a749c1888fa91ea1098105dc1c3a9a91d528be3bd4f100fac0d15ba67e597ceb',
        'p_true':
            'a8057d5fcece728d3038a4c8c417b5920ce874b498513eddcaf07dfa6e2bac56',
        'p_measured':
            'cfa738c5cffa3e56a676b57936403983db711943dd12432a38897d62baff9f6c',
        'app_tier_bandwidth':
            'ca8b265411e09a2479f581b9488fb1673775cf51dfdeebe2e4c51cc75799652f',
        'migration_bytes':
            '3b14ae5c12ea8715ba1a1be6cebf99d0709ce6547aa36a95cc4972c301ae94ed',
        'antagonist_intensity':
            '0d10cfcbf9aa746a5e6e9aaa75dc073a6f1d299a47d4f0381307135a5aae1923',
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_quantum_records_are_bit_identical(case):
    checked = digests(CASES[case](checker=Checker()))
    unchecked = digests(CASES[case](checker=NULL_CHECKER))
    assert checked == unchecked, f"{case}: checking changed the records"
    if _platform() != REFERENCE_PLATFORM:
        pytest.skip(f"digests are pinned on Python/numpy "
                    f"{REFERENCE_PLATFORM}, running on {_platform()}")
    changed = [name for name in FIELDS
               if checked[name] != EXPECTED[case][name]]
    assert not changed, f"{case}: QuantumRecord fields changed: {changed}"


if __name__ == "__main__":
    print(f"REFERENCE_PLATFORM = {_platform()!r}")
    print("EXPECTED = {")
    for case in sorted(CASES):
        print(f"    {case!r}: {{")
        for name, digest in digests(CASES[case]()).items():
            print(f"        {name!r}:")
            print(f"            {digest!r},")
        print("    },")
    print("}")
