"""Link-attached memory model for the event simulator.

The analytic model treats the remote-socket/CXL tier as a *duplex link*
in front of uncontended DRAM: reads and writebacks travel in opposite
directions with independent bandwidth, latency stays near unloaded until
the busier direction approaches saturation, and the queueing scale is the
per-cacheline serialization time (small) rather than DRAM bank-conflict
service variability (large).

:class:`LinkAttachedMemory` implements that mechanically: a serializer
queue per direction (cacheline transfer time = 64 B / link bandwidth)
feeding a generously-banked remote memory. The validation tests check
the analytic model's two distinguishing predictions: a flat-then-sharp
latency curve, and insensitivity to access randomness.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.engine import Simulator
from repro.sim.memctrl import BankedMemoryController
from repro.units import CACHELINE_BYTES


class LinkAttachedMemory:
    """A serializing duplex link in front of remote memory."""

    def __init__(
        self,
        sim: Simulator,
        link_bandwidth_gbps: float = 75.0,
        propagation_ns: float = 100.0,
        remote_banks: int = 64,
        remote_service_ns: float = 15.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if link_bandwidth_gbps <= 0:
            raise ConfigurationError("link bandwidth must be positive")
        if propagation_ns < 0:
            raise ConfigurationError("propagation must be non-negative")
        self._sim = sim
        #: Time to serialize one cacheline onto the link (per direction).
        self.serialization_ns = CACHELINE_BYTES / link_bandwidth_gbps
        self.propagation_ns = float(propagation_ns)
        self._read_link_free_at = 0.0
        self._write_link_free_at = 0.0
        self._remote = BankedMemoryController(
            sim,
            n_banks=remote_banks,
            wire_latency_ns=0.0,
            row_hit_service_ns=remote_service_ns,
            row_miss_service_ns=remote_service_ns,
            row_hit_probability=1.0,
            rng=rng if rng is not None else np.random.default_rng(0),
        )
        self.reads_served = 0
        self.writes_served = 0

    def submit_read(self, on_complete: Callable[[float], None]) -> None:
        """A demand read: request over the link, remote access, data back.

        The request message is tiny (ignored); the returning cacheline
        occupies the read-direction serializer — the queueing point.
        """
        issued_at = self._sim.now

        def _remote_done(_remote_latency: float) -> None:
            # Data serializes onto the read-direction link after the
            # remote access completes; back-to-back responses queue here.
            begin = max(self._sim.now, self._read_link_free_at)
            finish = begin + self.serialization_ns
            self._read_link_free_at = finish
            arrival = finish + self.propagation_ns / 2
            self.reads_served += 1
            self._sim.schedule(
                max(0.0, arrival - self._sim.now),
                lambda: on_complete(arrival - issued_at),
            )

        self._sim.schedule(
            self.propagation_ns / 2,
            lambda: self._remote.submit(_remote_done),
        )

    def submit_writeback(self) -> None:
        """A writeback: occupies the write-direction link only.

        Writebacks are asynchronous (no one waits on them), so the only
        observable effect is write-direction occupancy — which never
        delays reads on a duplex link.
        """
        now = self._sim.now
        begin = max(now, self._write_link_free_at)
        self._write_link_free_at = begin + self.serialization_ns
        self.writes_served += 1
