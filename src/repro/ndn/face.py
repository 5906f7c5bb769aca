"""Faces: the forwarder's attachment points.

A face is a bidirectional channel between the forwarder and either a local
application (:class:`AppFace`) or the shared wireless medium
(:class:`BroadcastFace`).  The forwarder assigns face ids when faces are
added.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.ndn.packet import Data, Interest
from repro.wireless.frames import Frame
from repro.wireless.radio import Radio

InterestHandler = Callable[[Interest], None]
DataHandler = Callable[[Data], None]


class Face:
    """Base face.  Subclasses implement the outgoing direction."""

    def __init__(self, name: str = ""):
        self.face_id: int = -1
        self.forwarder = None
        self.name = name

    # ------------------------------------------------ forwarder -> face (out)
    def send_interest(self, interest: Interest) -> None:
        raise NotImplementedError

    def send_data(self, data: Data) -> None:
        raise NotImplementedError

    # ------------------------------------------------ face -> forwarder (in)
    def receive_interest(self, interest: Interest) -> None:
        """Inject an Interest arriving on this face into the forwarder."""
        self.forwarder.process_interest(interest, self)

    def receive_data(self, data: Data) -> None:
        """Inject a Data packet arriving on this face into the forwarder."""
        self.forwarder.process_data(data, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} id={self.face_id} {self.name}>"


class AppFace(Face):
    """Face connecting a local application to the forwarder.

    The application plays consumer by calling :meth:`express_interest` and
    receiving Data through ``on_data``; it plays producer by receiving
    Interests through ``on_interest`` and answering with :meth:`put_data`.
    """

    def __init__(self, name: str = "app"):
        super().__init__(name)
        self.on_interest: Optional[InterestHandler] = None
        self.on_data: Optional[DataHandler] = None

    # Outgoing direction: the forwarder hands packets to the application.
    def send_interest(self, interest: Interest) -> None:
        if self.on_interest is not None:
            self.on_interest(interest)

    def send_data(self, data: Data) -> None:
        if self.on_data is not None:
            self.on_data(data)

    # Incoming direction: the application hands packets to the forwarder.
    def express_interest(self, interest: Interest) -> None:
        """Application-side: request a named Data packet."""
        self.receive_interest(interest)

    def put_data(self, data: Data) -> None:
        """Application-side: publish a Data packet (usually answering an Interest)."""
        self.receive_data(data)


class BroadcastFace(Face):
    """Face connecting the forwarder to the wireless broadcast medium.

    NDN packets are broadcast as link-layer frames; every node in range
    receives them.  ``classify`` maps a packet to a frame ``kind`` so the
    experiment harness can break overhead down per protocol component
    (discovery Interests, bitmap Data, file-collection Data, ...).
    """

    FRAME_KIND_INTEREST = "ndn-interest"
    FRAME_KIND_DATA = "ndn-data"

    def __init__(
        self,
        radio: Radio,
        protocol: str = "ndn",
        classify: Optional[Callable[[object], str]] = None,
        name: str = "wireless",
    ):
        super().__init__(name)
        self.radio = radio
        self.protocol = protocol
        self.classify = classify
        radio.on_receive = self._on_frame
        radio.on_overhear = self._on_frame

    # ------------------------------------------------ forwarder -> medium
    def send_interest(self, interest: Interest) -> None:
        kind = self.classify(interest) if self.classify else self.FRAME_KIND_INTEREST
        frame = Frame(
            sender=self.radio.node_id,
            payload=interest,
            size_bytes=interest.wire_size,
            kind=kind,
            protocol=self.protocol,
        )
        self.radio.send(frame)

    def send_data(self, data: Data) -> None:
        kind = self.classify(data) if self.classify else self.FRAME_KIND_DATA
        frame = Frame(
            sender=self.radio.node_id,
            payload=data,
            size_bytes=data.wire_size,
            kind=kind,
            protocol=self.protocol,
        )
        self.radio.send(frame)

    # ------------------------------------------------ medium -> forwarder
    def _on_frame(self, frame: Frame) -> None:
        payload = frame.payload
        if isinstance(payload, Interest):
            self.forwarder.process_interest(payload, self)
        elif isinstance(payload, Data):
            self.forwarder.process_data(payload, self)
        # Frames of other protocols sharing the channel are ignored.
