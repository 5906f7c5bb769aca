"""Per-node application statistics and system-load proxies.

The paper's real-world feasibility study (Table I) reports, besides download
time and transmissions, the *system load* of running DAPES: memory overhead,
context switches, system calls and page faults.  A Python simulation cannot
reproduce those OS-level numbers directly, so this module defines proxies,
one :class:`NodeLoadStats` property each:

* memory overhead  → peak bytes of protocol state (packet stores, PIT, CS,
  knowledge store, RPF history, advertisement tracker);
* context switches → scheduler activations of the node's handlers/timers;
* system calls     → frames sent + frames received + timers armed;
* page faults      → Data packets the packet store refused
  (``PacketStore.add_packet`` returned ``False``: a name outside the
  metadata or a failed digest check).  No honest run refuses one, so every
  committed Table I row reads ``0.0``.

Each field is read by :meth:`NodeLoadStats.as_dict` (the trial's
``node_loads``: Table I and ``perfbench --trace 1``), directly or through a
proxy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class NodeLoadStats:
    """Counters tracked by each DAPES node and each IP baseline peer."""

    messages_sent: int = 0
    messages_received: int = 0
    timers_armed: int = 0
    scheduler_activations: int = 0
    state_misses: int = 0
    state_bytes_peak: int = 0
    packets_downloaded: int = 0
    packets_overheard: int = 0
    bitmaps_sent: int = 0
    bitmaps_received: int = 0
    retransmissions: int = 0

    # ------------------------------------------------------------ recording
    def record_state_size(self, size_bytes: int) -> None:
        """Track the peak protocol-state footprint."""
        if size_bytes > self.state_bytes_peak:
            self.state_bytes_peak = size_bytes

    def activation(self) -> None:
        self.scheduler_activations += 1

    # --------------------------------------------------------------- proxies
    @property
    def memory_overhead_mb(self) -> float:
        """Table I "Memory Overhead (MB)" proxy."""
        return self.state_bytes_peak / (1024 * 1024)

    @property
    def context_switches(self) -> int:
        """Table I "Context Switches" proxy."""
        return self.scheduler_activations

    @property
    def system_calls(self) -> int:
        """Table I "System Calls" proxy."""
        return self.messages_sent + self.messages_received + self.timers_armed

    @property
    def page_faults(self) -> int:
        """Table I "Page Faults" proxy."""
        return self.state_misses

    def as_dict(self) -> Dict[str, float]:
        """Snapshot used by the experiment harness."""
        return {
            "memory_overhead_mb": self.memory_overhead_mb,
            "context_switches": self.context_switches,
            "system_calls": self.system_calls,
            "page_faults": self.page_faults,
            "messages_sent": self.messages_sent,
            "messages_received": self.messages_received,
            "packets_downloaded": self.packets_downloaded,
            "packets_overheard": self.packets_overheard,
            "bitmaps_sent": self.bitmaps_sent,
            "bitmaps_received": self.bitmaps_received,
            "retransmissions": self.retransmissions,
        }
