"""Link-layer frames carried by the wireless medium."""

from __future__ import annotations

import itertools
from typing import Any, Optional

_frame_ids = itertools.count(1)


class Frame:
    """A link-layer frame.

    ``payload`` carries whichever protocol object is being transmitted (an
    NDN Interest/Data, an IP packet, a routing update...).  ``destination``
    is a link-layer destination node id; ``None`` means link-layer broadcast.
    Even unicast frames are physically heard by every node in range — the
    receiving radio decides whether the frame is addressed to it or merely
    overheard, which is what lets DAPES intermediate nodes learn from
    overheard traffic.

    ``kind`` and ``protocol`` are free-form labels used only for accounting
    (the paper's per-protocol overhead breakdown).

    A hand-written ``__slots__`` class rather than a dataclass: one Frame is
    allocated per transmission on the hottest path of the simulator.
    """

    __slots__ = ("sender", "payload", "size_bytes", "kind", "protocol", "destination", "frame_id")

    def __init__(
        self,
        sender: str,
        payload: Any,
        size_bytes: int,
        kind: str,
        protocol: str = "",
        destination: Optional[str] = None,
        frame_id: Optional[int] = None,
    ):
        if size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        self.sender = sender
        self.payload = payload
        self.size_bytes = size_bytes
        self.kind = kind
        self.protocol = protocol
        self.destination = destination
        self.frame_id = next(_frame_ids) if frame_id is None else frame_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        target = "broadcast" if self.destination is None else self.destination
        return f"Frame(#{self.frame_id} {self.sender}->{target} {self.kind} {self.size_bytes}B)"
