"""Priority-based Exponential Backoff Algorithm — PEBA (Section IV-F).

PEBA governs *bitmap* transmissions during an encounter:

* With no collision detected, a peer schedules its bitmap transmission by
  dividing the default transmission window by the fraction of packets it
  holds that are missing from all previously transmitted bitmaps — the more
  useful a peer's data, the earlier it transmits (linear prioritization).
* When peers detect a collision, PEBA creates transmission slots through an
  exponential backoff, splits the colliding peers into priority groups
  (peers holding at least half of the still-missing packets go into the
  first group) and has each peer pick a random slot inside its group.  The
  slot table doubles on every further collision, up to a cap.  Groups and
  slots are created per encounter; no long-term state is kept.

The analysis helpers implement the formulas of Section IV-F: with ``L``
slots split into ``k`` groups there are ``n = floor(L/k)`` slots per group,
a peer's average contention window is ``(n-1)/2`` and its average bitmap
transmission delay is ``T_delay = (L_average - 1)/2 * tau``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.core.config import (
    PEBA_INITIAL_SLOTS,
    PEBA_MAX_SLOTS,
    PEBA_PRIORITY_GROUPS,
    PEBA_SLOT_DURATION,
    TRANSMISSION_WINDOW,
)


@dataclass
class PebaDecision:
    """Outcome of one scheduling decision."""

    delay: float
    slot: Optional[int] = None
    group: Optional[int] = None
    used_backoff: bool = False


class PebaScheduler:
    """Per-encounter scheduler for prioritized bitmap transmissions."""

    def __init__(
        self,
        transmission_window: float = TRANSMISSION_WINDOW,
        slot_duration: float = PEBA_SLOT_DURATION,
        initial_slots: int = PEBA_INITIAL_SLOTS,
        priority_groups: int = PEBA_PRIORITY_GROUPS,
        max_slots: int = PEBA_MAX_SLOTS,
        enabled: bool = True,
        rng: Optional[random.Random] = None,
    ):
        if transmission_window <= 0 or slot_duration <= 0:
            raise ValueError("window and slot duration must be positive")
        if initial_slots < 1 or priority_groups < 1 or max_slots < initial_slots:
            raise ValueError("invalid slot/group configuration")
        self.transmission_window = transmission_window
        self.slot_duration = slot_duration
        self.initial_slots = initial_slots
        self.priority_groups = priority_groups
        self.max_slots = max_slots
        self.enabled = enabled
        self._rng = rng if rng is not None else random.Random(0)
        self._slots = 0  # 0 means "no collision detected yet in this encounter"
        # Collisions per decision: the PEBA evidence ROADMAP item 1(a) reports.
        self.collisions_detected = 0
        self.decisions = 0

    # ------------------------------------------------------------ lifecycle
    def reset_encounter(self) -> None:
        """Forget collision state; called when an encounter ends."""
        self._slots = 0

    def record_collision(self) -> None:
        """Register a detected bitmap-transmission collision.

        The first collision creates ``initial_slots`` slots; every further
        collision doubles the table (exponential backoff) up to ``max_slots``.
        Without PEBA (``enabled=False``) collisions do not change behaviour —
        peers keep using the purely linear prioritization, which is the
        "w/o PEBA" configuration of Fig. 9b.
        """
        self.collisions_detected += 1
        if not self.enabled:
            return
        if self._slots == 0:
            self._slots = self.initial_slots
        else:
            self._slots = min(self._slots * 2, self.max_slots)

    # ------------------------------------------------------------ scheduling
    def schedule(self, useful_packets: int, total_missing: int) -> PebaDecision:
        """Delay before transmitting this peer's bitmap.

        ``useful_packets`` is the number of packets this peer holds that are
        missing from all previously transmitted bitmaps; ``total_missing``
        is the total number of packets still missing from those bitmaps.
        """
        self.decisions += 1
        useful_packets = max(useful_packets, 0)
        total_missing = max(total_missing, 0)
        if not self.enabled or self._slots == 0:
            return PebaDecision(delay=self._linear_delay(useful_packets, total_missing))
        # Backoff mode: pick a random slot inside the peer's priority group.
        group = self._group_of(useful_packets, total_missing)
        slots_per_group = max(self._slots // self.priority_groups, 1)
        first_slot = group * slots_per_group
        slot = first_slot + self._rng.randrange(slots_per_group)
        return PebaDecision(
            delay=slot * self.slot_duration,
            slot=slot,
            group=group,
            used_backoff=True,
        )

    def _linear_delay(self, useful_packets: int, total_missing: int) -> float:
        if total_missing <= 0:
            # Nothing is known to be missing yet: the peer with most data
            # should go first; approximate by a small random delay.
            return self._rng.uniform(0.0, self.transmission_window * 0.25)
        fraction = useful_packets / total_missing
        if fraction <= 0:
            return self.transmission_window
        return min(self.transmission_window / max(fraction, 1e-9), self.transmission_window / 1e-2)

    def _group_of(self, useful_packets: int, total_missing: int) -> int:
        """Priority group index (0 = highest priority)."""
        if total_missing <= 0:
            return 0
        if self.priority_groups == 2:
            # The paper's rule: peers holding at least half of the missing
            # packets go to the first group.
            return 0 if useful_packets * 2 >= total_missing else 1
        fraction = useful_packets / total_missing
        group = int((1.0 - fraction) * self.priority_groups)
        return min(max(group, 0), self.priority_groups - 1)

    @property
    def current_slots(self) -> int:
        """Current size of the slot table (0 before any collision)."""
        return self._slots


# --------------------------------------------------------------------- analysis
def slots_per_group(total_slots: int, groups: int) -> int:
    """``n = floor(L / k)`` slots per priority group."""
    if total_slots < 1 or groups < 1:
        raise ValueError("total_slots and groups must be >= 1")
    return max(total_slots // groups, 1)


def average_contention_window(slots_in_group: int) -> float:
    """``L_average = (n - 1) / 2`` from the paper's analysis."""
    if slots_in_group < 1:
        raise ValueError("slots_in_group must be >= 1")
    return (slots_in_group - 1) / 2


def peba_average_delay(total_slots: int, groups: int, slot_duration: float) -> float:
    """Average delay ``T_delay = (L_average - 1)/2 * tau`` before a successful bitmap transmission."""
    if slot_duration <= 0:
        raise ValueError("slot_duration must be positive")
    l_average = average_contention_window(slots_per_group(total_slots, groups))
    return max((l_average - 1) / 2, 0.0) * slot_duration


def bitmap_exchange_time_budget(
    contact_duration: float,
    bitmap_count: int,
    average_delay: float,
    transmission_delay: float,
    interleaved: bool,
) -> float:
    """Average time left for data fetching, ``T_data`` of Section IV-D.

    With bitmaps exchanged *before* data, ``T_data = Δt − (T_delay + d)·b``
    (zero if the encounter is shorter than the bitmap exchanges).  With
    interleaved exchanges only a single bitmap exchange must fit in the
    encounter.
    """
    if contact_duration < 0 or bitmap_count < 0:
        raise ValueError("contact_duration and bitmap_count must be non-negative")
    per_bitmap = average_delay + transmission_delay
    if interleaved:
        if per_bitmap >= contact_duration:
            return 0.0
        return contact_duration - per_bitmap * bitmap_count
    if per_bitmap * bitmap_count >= contact_duration:
        return 0.0
    return contact_duration - per_bitmap * bitmap_count
