"""Per-node radio: the interface between a protocol stack and the medium."""

from __future__ import annotations

from typing import Callable, Optional

from repro.simulation import Simulator
from repro.wireless.frames import Frame
from repro.wireless.medium import WirelessMedium
from repro.wireless.stats import NodeRadioStats

FrameHandler = Callable[[Frame], None]


class Radio:
    """A node's wireless interface.

    A radio physically hears every frame transmitted within range.  Frames
    addressed to this node (or link-layer broadcasts) are passed to
    ``on_receive``; frames addressed to someone else are passed to
    ``on_overhear`` when set.  Overhearing is how DAPES intermediate nodes
    and pure forwarders learn about data available around them.
    """

    def __init__(
        self,
        sim: Simulator,
        medium: WirelessMedium,
        node_id: str,
        wifi_range: Optional[float] = None,
    ):
        self.sim = sim
        self.medium = medium
        self.node_id = node_id
        self.wifi_range = wifi_range
        self.stats = NodeRadioStats()
        self.on_receive: Optional[FrameHandler] = None
        self.on_overhear: Optional[FrameHandler] = None
        medium.attach(self)

    # --------------------------------------------------------------- sending
    def send(self, frame: Frame) -> float:
        """Hand a frame to the medium; returns the frame airtime in seconds."""
        if frame.sender != self.node_id:
            raise ValueError(
                f"frame sender {frame.sender!r} does not match radio owner {self.node_id!r}"
            )
        self.stats.frames_sent += 1
        return self.medium.transmit(self.node_id, frame)

    def broadcast(self, payload, size_bytes: int, kind: str, protocol: str = "") -> float:
        """Convenience helper to broadcast ``payload`` as a new frame."""
        frame = Frame(
            sender=self.node_id,
            payload=payload,
            size_bytes=size_bytes,
            kind=kind,
            protocol=protocol,
        )
        return self.send(frame)

    def unicast(self, destination: str, payload, size_bytes: int, kind: str, protocol: str = "") -> float:
        """Convenience helper to send a link-layer unicast frame."""
        frame = Frame(
            sender=self.node_id,
            payload=payload,
            size_bytes=size_bytes,
            kind=kind,
            protocol=protocol,
            destination=destination,
        )
        return self.send(frame)

    # ------------------------------------------------------------- receiving
    def deliver(self, frame: Frame) -> None:
        """Called by the medium when a frame is successfully received."""
        destination = frame.destination
        if destination is None or destination == self.node_id:
            self.stats.frames_received += 1
            if self.on_receive is not None:
                self.on_receive(frame)
        else:
            self.stats.frames_overheard += 1
            if self.on_overhear is not None:
                self.on_overhear(frame)

    def neighbours(self) -> list[str]:
        """Node ids currently within range."""
        return self.medium.neighbours_of(self.node_id)
