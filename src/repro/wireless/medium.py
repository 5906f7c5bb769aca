"""The shared broadcast wireless medium.

A transmission by one radio is delivered, after its airtime, to every other
radio the configured propagation model deems reachable at the moment the
transmission starts.  Radio physics is pluggable
(:mod:`repro.wireless.propagation`): the medium queries the spatial index
out to the model's ``max_range`` and filters the candidates through
``link_quality``, which may also attach a per-link loss probability (e.g.
``log_distance`` fading) on top of the uniform Bernoulli loss.  The default
``unit_disk`` model reproduces the seed semantics byte-for-byte — every
node within ``wifi_range`` of the sender hears the frame — and, being
*trivial* (no per-link state), lets the medium skip link evaluation
entirely.  Two receptions that overlap in time at the same receiver corrupt
each other (both are dropped at that receiver), which is how the paper's
collision effects — and the benefit of PEBA — arise.

Three MAC-level realities are modelled explicitly because the protocols under
study depend on them:

* **per-sender serialization** — a node cannot transmit two frames at once;
  frames handed to the medium while the node is already transmitting are
  queued and sent back-to-back (plus a short inter-frame space), exactly
  like an 802.11 interface queue;
* **half-duplex operation** — a node that is transmitting cannot
  simultaneously receive; receptions overlapping its own transmissions are
  lost at that node;
* **carrier sensing (CSMA)** — a node defers its transmission (with a small
  random backoff) while it can hear another transmission in progress, up to
  a bounded number of deferrals.  Hidden terminals still collide, as in real
  802.11 ad-hoc networks.

Delivery is *batched*: one completion event per transmission walks the
receiver list at ``end_time``.  Collisions and half-duplex losses are
settled when the transmission begins (one record per reception, two scalars
per receiver), so corruption, CSMA busy-sensing, loss and ARQ semantics —
and event ordering — are identical to scheduling one event per receiver:
such a scheduler gives one transmission's reception events consecutive
sequence numbers, so they always fire back-to-back with nothing
interleaved, which is exactly what the batch loop reproduces.
``Simulator.events_processed`` still advances by one per reception.  The
per-receiver schedule is the test suite's oracle: ``PerReceiverMedium`` in
``tests/oracles.py`` overrides :meth:`WirelessMedium._schedule_delivery`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import math
from repro.mobility.base import MobilityModel
from repro.simulation import Simulator
from repro.wireless.channel import ChannelConfig
from repro.wireless.environment import Environment
from repro.wireless.frames import Frame
from repro.wireless.propagation import build_propagation
from repro.wireless.spatial import build_neighbor_index
from repro.wireless.stats import MediumStats

#: Give up sensing and transmit anyway after this many deferrals.
MAX_CSMA_DEFERRALS = 16


class _Reception:
    """One frame in flight towards a particular receiver.

    A compact mutable record (no dataclass machinery, ``__slots__`` only):
    one exists per (receiver, in-flight frame) and they are created and
    destroyed on the hottest path of the simulator.
    """

    __slots__ = ("frame", "corrupted", "link_loss")

    def __init__(self, frame: Frame, corrupted: bool, link_loss: float):
        self.frame = frame
        self.corrupted = corrupted
        self.link_loss = link_loss


class _RetryState:
    """Link-layer ARQ state for one in-flight unicast frame."""

    __slots__ = ("sender", "destination", "retries")

    def __init__(self, sender: str, destination: str):
        self.sender = sender
        self.destination = destination
        self.retries = 0


class WirelessMedium:
    """The broadcast medium shared by all radios in a scenario."""

    def __init__(
        self,
        sim: Simulator,
        mobility: MobilityModel,
        config: Optional[ChannelConfig] = None,
        environment: Optional[Environment] = None,
    ):
        self.sim = sim
        self.mobility = mobility
        self.config = config if config is not None else ChannelConfig()
        self.environment = environment
        self.stats = MediumStats()
        self.propagation = build_propagation(
            self.config, sim=sim, environment=environment, mobility=mobility
        )
        # Trivial models (unit_disk) deliver to exactly the index candidates
        # with no per-link state, so the hot path can skip link evaluation —
        # this is the seed fast path, byte-identical by construction.
        self._trivial = self.propagation.trivial
        self._position_xy = mobility.position_xy
        self._index = build_neighbor_index(
            self.config, mobility, max_range=self.config.max_range()
        )
        self._radios: Dict[str, "Radio"] = {}
        self._busy_until: Dict[str, float] = {}
        # What a receiver needs to know about its receptions in flight (those
        # with end time > now), in two scalars: when the last of them ends —
        # carrier sense and "does this arrival overlap anything" — and the
        # one that is still uncorrupted, if any (two that overlap corrupt
        # each other, so there is never a second).
        self._rx_busy_until: Dict[str, float] = {}
        self._rx_clean: Dict[str, Optional[_Reception]] = {}
        self._loss_rng = sim.rng("wireless.loss")
        self._backoff_rng = sim.rng("wireless.csma")
        # Per-link loss draws (propagation models only) use their own named
        # stream so the seed "wireless.loss" draw sequence stays untouched.
        self._link_rng = sim.rng("wireless.link")
        self._unicast_retries: Dict[int, _RetryState] = {}
        # Per-node index of live ARQ frame ids (as sender or destination) so
        # detach drops exactly that node's entries instead of rebuilding the
        # whole retry dict.
        self._retry_index: Dict[str, Set[int]] = {}
        self._node_ids_cache: Optional[Tuple[str, ...]] = None
        # MAC timing/ARQ knobs (hoisted from module constants onto the
        # channel config; defaults are byte-identical to the constants).
        self._inter_frame_space = self.config.inter_frame_space
        self._unicast_retry_limit = self.config.unicast_retry_limit
        self._unicast_retry_backoff = self.config.unicast_retry_backoff
        # Fault injection (repro.faults): None in a fault-free run, so the
        # hot paths pay one attribute check and nothing else.  The invariant
        # monitor's delivery hook is equally optional and pure observation.
        self._faults = None
        self._delivery_monitor = None
        # Counters for metrics(); the churn manager reports orphaned_sends.
        self.csma_deferrals = 0
        self.arq_retries = 0
        self.completed_transmissions = 0
        self.link_evaluations = 0
        self.orphaned_sends = 0

    def metrics(self) -> Dict[str, float]:
        """Medium counters, then its index's, propagation's and mobility's."""
        stats = self.stats
        metrics = {
            "wireless.frames_transmitted": float(stats.frames_transmitted),
            "wireless.bytes_transmitted": float(stats.bytes_transmitted),
            "wireless.deliveries": float(stats.deliveries),
            "wireless.collisions": float(stats.collisions),
            "wireless.losses": float(stats.losses),
            "wireless.csma_deferrals": float(self.csma_deferrals),
            "wireless.arq_retries": float(self.arq_retries),
            "wireless.completed_transmissions": float(self.completed_transmissions),
            "wireless.link_evaluations": float(self.link_evaluations),
        }
        metrics.update(self.propagation.metrics())
        metrics.update(self._index.metrics())
        metrics.update(self.mobility.metrics())
        return metrics

    # ---------------------------------------------------------------- faults
    def set_fault_manager(self, faults) -> None:
        """Hook a :class:`repro.faults.manager.FaultManager` into the medium."""
        self._faults = faults

    def set_delivery_monitor(self, monitor) -> None:
        """Install a pure-observation callback fired before each delivery."""
        self._delivery_monitor = monitor

    # ------------------------------------------------------------- topology
    def attach(self, radio: "Radio") -> None:
        """Attach a radio to the medium (one per node id)."""
        if radio.node_id in self._radios:
            raise ValueError(f"a radio for node {radio.node_id!r} is already attached")
        wifi_range = radio.wifi_range
        if wifi_range is not None and not (
            isinstance(wifi_range, (int, float)) and math.isfinite(wifi_range) and wifi_range > 0
        ):
            # A bad per-radio override would silently poison the spatial
            # index's query radii; fail at attach time instead.
            raise ValueError(
                f"radio {radio.node_id!r} has an inconsistent wifi_range override "
                f"({wifi_range!r}); must be a positive finite number or None"
            )
        self._radios[radio.node_id] = radio
        self._busy_until[radio.node_id] = 0.0
        self._rx_busy_until[radio.node_id] = 0.0
        self._rx_clean[radio.node_id] = None
        self._node_ids_cache = None
        self._index.attach(radio.node_id)

    def detach(self, node_id: str) -> None:
        """Detach a node's radio (e.g. a node powering off)."""
        self._radios.pop(node_id, None)
        self._busy_until.pop(node_id, None)
        self._rx_busy_until.pop(node_id, None)
        self._rx_clean.pop(node_id, None)
        self._node_ids_cache = None
        self._index.detach(node_id)
        # Drop ARQ state referencing the node: its pending retries can never
        # resolve, and long node-churn runs would otherwise leak entries.
        # The per-node index makes this O(own retries), not O(backlog).
        for frame_id in self._retry_index.pop(node_id, ()):
            state = self._unicast_retries.pop(frame_id, None)
            if state is None:
                continue
            other = state.destination if state.sender == node_id else state.sender
            peers = self._retry_index.get(other)
            if peers is not None:
                peers.discard(frame_id)
                if not peers:
                    del self._retry_index[other]

    def radio_of(self, node_id: str) -> "Radio":
        """The attached radio for ``node_id`` (KeyError when detached)."""
        return self._radios[node_id]

    @property
    def node_ids(self) -> Tuple[str, ...]:
        """Attached node ids (cached tuple, invalidated on attach/detach)."""
        if self._node_ids_cache is None:
            self._node_ids_cache = tuple(self._radios)
        return self._node_ids_cache

    def neighbours_of(self, node_id: str, time: Optional[float] = None) -> list[str]:
        """Node ids currently reachable from ``node_id`` (excluding itself).

        Reachability follows the configured propagation model: under
        ``unit_disk`` this is the classic "within WiFi range" set; other
        models filter the candidates through ``link_quality`` (an occluded
        link, for instance, is not a neighbour even when geometrically in
        range).
        """
        if node_id not in self._radios:
            # A detached node has no neighbours; callers probing a departed
            # peer (routing maintenance, liveness checks) get the empty set.
            return []
        when = self.sim.now if time is None else time
        nominal = self._range_of(node_id)
        faults = self._faults
        if self._trivial:
            reachable = self._index.neighbors(node_id, nominal, when)
        else:
            candidates = self._index.neighbors(
                node_id, self.propagation.max_range(nominal), when
            )
            reachable = [
                other for other, _loss in self._evaluate_links(node_id, nominal, candidates, when)
            ]
        if faults is not None:
            # A blocked link or a stalled peer is not a usable neighbour.
            return [other for other in reachable if faults.visible(node_id, other)]
        return reachable

    def _evaluate_links(
        self, sender_id: str, nominal: float, candidates: list[str], now: float
    ) -> list[Tuple[str, float]]:
        """Filter index candidates through the propagation model.

        Returns ``(receiver_id, link_loss)`` for each reachable candidate,
        preserving the index's attach order so event scheduling stays
        deterministic across spatial backends.
        """
        position_xy = self._position_xy
        sender_xy = position_xy(sender_id, now)
        sender_x, sender_y = sender_xy
        link_quality = self.propagation.link_quality
        link_rng = self._link_rng
        self.link_evaluations += len(candidates)
        reachable = []
        for receiver_id in candidates:
            receiver_xy = position_xy(receiver_id, now)
            dx = receiver_xy[0] - sender_x
            dy = receiver_xy[1] - sender_y
            loss = link_quality(
                sender_xy,
                receiver_xy,
                math.sqrt(dx * dx + dy * dy),
                nominal,
                link_rng,
                (sender_id, receiver_id),
            )
            if loss is not None:
                reachable.append((receiver_id, loss))
        return reachable

    # ----------------------------------------------------------- transmission
    def transmit(self, sender_id: str, frame: Frame) -> float:
        """Hand ``frame`` to the medium for transmission by ``sender_id``.

        If the sender is already transmitting, the frame is queued behind the
        ongoing transmission(s).  Returns the frame airtime in seconds.
        """
        if sender_id not in self._radios:
            # Liveness guard: a fire-and-forget callback (ARQ retry, delayed
            # forward, timer tick) can fire after its node departed.  Under
            # churn that is expected, not a bug — count it and drop the frame.
            self.orphaned_sends += 1
            return 0.0
        faults = self._faults
        if faults is not None and faults.sender_stalled(sender_id):
            # A stalled node is paused, not dead: its frame is queued and
            # replayed through this method, in order, when the stall ends.
            faults.queue_frame(sender_id, frame)
            return 0.0
        now = self.sim.now
        airtime = self.config.airtime(frame.size_bytes)
        start = max(now, self._busy_until.get(sender_id, 0.0))
        if start > now:
            start += self._inter_frame_space
            self._busy_until[sender_id] = start + airtime
            self.sim.schedule_call(start - now, self._begin_transmission, sender_id, frame, airtime, 0)
        else:
            self._busy_until[sender_id] = start + airtime
            self._begin_transmission(sender_id, frame, airtime, 0)
        return airtime

    def _begin_transmission(self, sender_id: str, frame: Frame, airtime: float, deferrals: int) -> None:
        if sender_id not in self._radios:
            return  # radio detached while the frame was queued
        now = self.sim.now
        # Carrier sense: defer while another transmission is audible here.
        busy_until = self._rx_busy_until[sender_id]
        if busy_until > now and deferrals < MAX_CSMA_DEFERRALS:
            self.csma_deferrals += 1
            backoff = self._backoff_rng.uniform(0.0, 0.001)
            restart = busy_until - now + self._inter_frame_space + backoff
            self._busy_until[sender_id] = max(self._busy_until[sender_id], now + restart + airtime)
            self.sim.schedule_call(restart, self._begin_transmission, sender_id, frame, airtime, deferrals + 1)
            return
        end_time = now + airtime
        self.stats.record_transmission(frame.kind, frame.protocol, frame.size_bytes)

        nominal = self._range_of(sender_id)
        batch = []
        open_reception = self._open_reception
        faults = self._faults
        if self._trivial:
            # Seed fast path: every index candidate is a loss-free receiver
            # (no per-link evaluation, no extra allocations).
            for receiver_id in self._index.neighbors(sender_id, nominal, now):
                if faults is not None:
                    extra = faults.link_extra_loss(sender_id, receiver_id)
                    if extra is None:
                        continue  # link blocked (flap or partition boundary)
                else:
                    extra = 0.0
                batch.append((receiver_id, open_reception(receiver_id, frame, now, end_time, extra)))
        else:
            candidates = self._index.neighbors(
                sender_id, self.propagation.max_range(nominal), now
            )
            for receiver_id, link_loss in self._evaluate_links(
                sender_id, nominal, candidates, now
            ):
                if faults is not None:
                    extra = faults.link_extra_loss(sender_id, receiver_id)
                    if extra is None:
                        continue
                    if extra:
                        link_loss = 1.0 - (1.0 - link_loss) * (1.0 - extra)
                batch.append(
                    (receiver_id, open_reception(receiver_id, frame, now, end_time, link_loss))
                )
        if batch:
            self._schedule_delivery(airtime, batch)

    def _schedule_delivery(self, airtime: float, batch: List[Tuple[str, _Reception]]) -> None:
        """Schedule one transmission's receptions: a single completion event."""
        self.sim.schedule_call(airtime, self._complete_transmission, batch)

    def _range_of(self, node_id: str) -> float:
        radio = self._radios[node_id]
        return radio.wifi_range if radio.wifi_range is not None else self.config.wifi_range

    def _open_reception(
        self, receiver_id: str, frame: Frame, now: float, end_time: float, link_loss: float
    ) -> _Reception:
        """Start ``frame`` arriving at ``receiver_id`` until ``end_time``."""
        # Half-duplex: a transmitting node cannot receive.
        reception = _Reception(frame, self._busy_until[receiver_id] > now, link_loss)
        rx_busy_until = self._rx_busy_until[receiver_id]
        if rx_busy_until > now:
            # Overlaps a reception still in flight: they corrupt each other,
            # and each counts once toward ``stats.collisions`` — when an
            # overlap first corrupts it (one lost earlier, to an overlap or
            # to half-duplex, is not counted again).  A clean reception on
            # record here is in flight: it was the last arrival, so it is
            # the one that ends at ``rx_busy_until``.
            clean = self._rx_clean[receiver_id]
            if clean is not None:
                clean.corrupted = True
                self.stats.collisions += 1
                self._rx_clean[receiver_id] = None
            if not reception.corrupted:
                reception.corrupted = True
                self.stats.collisions += 1
            if end_time > rx_busy_until:
                self._rx_busy_until[receiver_id] = end_time
        else:
            self._rx_busy_until[receiver_id] = end_time
            self._rx_clean[receiver_id] = None if reception.corrupted else reception
        return reception

    def _complete_transmission(
        self, batch: List[Tuple[str, _Reception]], resume_slot: Optional[int] = None
    ) -> None:
        """Batched delivery: resolve every reception of one transmission.

        The loop visits receivers in the order their per-receiver events
        would have fired (attach order — consecutive sequence numbers in the
        seed scheduler), so RNG draws, ARQ scheduling and protocol reactions
        happen in exactly the per-receiver order.  A ``sim.stop()`` raised by
        a delivery callback halts the batch between receivers — exactly where
        the per-receiver schedule would have stopped — and the unprocessed
        remainder is requeued under a slot reserved *before* any receiver
        ran, so on resume it still fires ahead of any same-timestamp events
        the delivery callbacks scheduled (matching the remaining per-receiver
        events' older sequence numbers in the seed scheduler).
        """
        sim = self.sim
        slot = sim.reserve_slot() if resume_slot is None else resume_slot
        complete_one = self._complete_reception
        processed = 0
        for index, (receiver_id, reception) in enumerate(batch):
            if processed and sim.stopping:
                sim.schedule_reserved(slot, self._complete_transmission, batch[index:], slot)
                break
            complete_one(receiver_id, reception)
            processed += 1
        else:
            self.completed_transmissions += 1
        # Keep the logical event count (one per reception) identical to
        # per-receiver scheduling: the run loop counted this batch as one.
        sim.events_processed += processed - 1

    def _complete_reception(self, receiver_id: str, reception: _Reception) -> None:
        radio = self._radios.get(receiver_id)
        if radio is None:
            return  # radio detached mid-flight
        if reception.corrupted:
            radio.stats.frames_collided += 1
            self._maybe_retry_unicast(receiver_id, reception.frame)
            return
        faults = self._faults
        if faults is not None and faults.delivery_suppressed(receiver_id):
            # The receiver stalled while the frame was on the air: a silent
            # peer, indistinguishable from loss — so ARQ reacts as to loss.
            self._maybe_retry_unicast(receiver_id, reception.frame)
            return
        # Per-link propagation loss (fading, lossy wall penetration) draws
        # from its own stream; unit_disk links carry 0.0 and never draw, so
        # the seed RNG sequences are untouched.
        if reception.link_loss and self._link_rng.random() < reception.link_loss:
            self.stats.losses += 1
            radio.stats.frames_lost += 1
            self._maybe_retry_unicast(receiver_id, reception.frame)
            return
        if self.config.loss_rate and self._loss_rng.random() < self.config.loss_rate:
            self.stats.losses += 1
            radio.stats.frames_lost += 1
            self._maybe_retry_unicast(receiver_id, reception.frame)
            return
        self.stats.deliveries += 1
        if reception.frame.destination == receiver_id:
            self._drop_retry_state(reception.frame.frame_id)
        if faults is not None:
            faults.note_delivery(reception.frame.sender, receiver_id)
        if self._delivery_monitor is not None:
            self._delivery_monitor(receiver_id, reception.frame)
        radio.deliver(reception.frame)

    # ------------------------------------------------------------------- ARQ
    def _drop_retry_state(self, frame_id: int) -> None:
        state = self._unicast_retries.pop(frame_id, None)
        if state is None:
            return
        for node_id in (state.sender, state.destination):
            peers = self._retry_index.get(node_id)
            if peers is not None:
                peers.discard(frame_id)
                if not peers:
                    del self._retry_index[node_id]

    def _maybe_retry_unicast(self, receiver_id: str, frame: Frame) -> None:
        """802.11-style link-layer ARQ: retransmit lost unicast frames a few times.

        Only frames addressed to ``receiver_id`` are retried (broadcast frames
        have no acknowledgements in 802.11 ad-hoc mode, so neither do ours).
        """
        if frame.destination != receiver_id or frame.sender not in self._radios:
            return
        state = self._unicast_retries.get(frame.frame_id)
        if state is None:
            state = _RetryState(sender=frame.sender, destination=frame.destination)
            self._unicast_retries[frame.frame_id] = state
            self._retry_index.setdefault(frame.sender, set()).add(frame.frame_id)
            self._retry_index.setdefault(frame.destination, set()).add(frame.frame_id)
        if state.retries >= self._unicast_retry_limit:
            self._drop_retry_state(frame.frame_id)
            return
        retries = state.retries
        state.retries = retries + 1
        self.arq_retries += 1
        backoff = self._unicast_retry_backoff * (retries + 1) + self._backoff_rng.uniform(0.0, 0.001)
        self.sim.schedule_call(backoff, self._retry_transmit, frame.sender, frame)

    def _retry_transmit(self, sender_id: str, frame: Frame) -> None:
        """Fire a scheduled ARQ retransmission unless the sender detached meanwhile."""
        if sender_id in self._radios:
            self.transmit(sender_id, frame)

    # ------------------------------------------------------------- inspection
    def busy_until(self, node_id: str) -> float:
        """Time until which ``node_id``'s transmitter is busy (for tests)."""
        return self._busy_until.get(node_id, 0.0)

    @property
    def unicast_retry_backlog(self) -> int:
        """Number of unicast frames with live ARQ state (for tests/monitoring)."""
        return len(self._unicast_retries)
