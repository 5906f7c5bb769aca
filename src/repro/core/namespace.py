"""The DAPES namespace (Section IV-A).

A collection is named ``/<label>-<unix-timestamp>`` (e.g.
``/damaged-bridge-1533783192``); a packet of a file inside it is
``/<collection>/<file>/<sequence>``; the collection metadata is
``/<collection>/metadata-file/<digest>[/<segment>]``.

Protocol signalling uses the application namespace ``/dapes``:

* discovery Interests — ``/dapes/discovery/<peer>/<serial>``;
* bitmap Interests — ``/dapes/bitmap/<target-peer>/<collection>/<serial>``
  (the sender's own bitmap travels in the Interest's application
  parameters, the target's bitmap comes back in the Data content).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from repro.ndn.name import Name, NameLike

APP_PREFIX = Name("/dapes")
DISCOVERY_PREFIX = APP_PREFIX.append("discovery")
BITMAP_PREFIX = APP_PREFIX.append("bitmap")
METADATA_COMPONENT = "metadata-file"


@dataclass(frozen=True)
class PacketName:
    """Parsed form of a file-collection packet name."""

    collection: str
    file_name: str
    sequence: int

    def to_name(self) -> Name:
        return Name([self.collection, self.file_name, str(self.sequence)])


class DapesNamespace:
    """Builders and parsers for every name DAPES uses."""

    # ----------------------------------------------------------- collections
    @staticmethod
    def collection_name(label: str, timestamp: int) -> Name:
        """Name of a collection created at ``timestamp`` (a unix time)."""
        label = label.strip("/")
        if not label:
            raise ValueError("collection label must be non-empty")
        return Name([f"{label}-{int(timestamp)}"])

    @staticmethod
    def packet_name(collection: NameLike, file_name: str, sequence: int) -> Name:
        """Name of packet ``sequence`` of ``file_name`` in ``collection``."""
        if sequence < 0:
            raise ValueError("sequence must be non-negative")
        return Name(collection).append(file_name, str(sequence))

    @staticmethod
    def parse_packet_name(name: NameLike) -> Optional[PacketName]:
        """Parse a packet name; returns ``None`` if ``name`` is not one.

        Memoized like :meth:`classify`: every node re-parses the same packet
        names for every frame it hears, and :class:`PacketName` is frozen so
        sharing instances is safe.
        """
        if type(name) is not Name:
            name = Name(name)
        return _parse_packet_name(name)

    # -------------------------------------------------------------- metadata
    @staticmethod
    def metadata_name(collection: NameLike, digest: str, segment: Optional[int] = None) -> Name:
        """Name of the (possibly segmented) metadata file of ``collection``."""
        name = Name(collection).append(METADATA_COMPONENT, digest)
        if segment is not None:
            name = name.append(str(segment))
        return name

    @staticmethod
    def is_metadata_name(name: NameLike) -> bool:
        name = Name(name)
        return len(name) >= 3 and name[1] == METADATA_COMPONENT

    @staticmethod
    def metadata_collection(name: NameLike) -> str:
        """Collection component of a metadata name."""
        name = Name(name)
        if not DapesNamespace.is_metadata_name(name):
            raise ValueError(f"{name} is not a metadata name")
        return name[0]

    # ------------------------------------------------------------- discovery
    @staticmethod
    def discovery_name(peer_id: str, serial: int) -> Name:
        """Name of one discovery Interest from ``peer_id``."""
        return DISCOVERY_PREFIX.append(peer_id, str(serial))

    @staticmethod
    def is_discovery_name(name: NameLike) -> bool:
        return DISCOVERY_PREFIX.is_prefix_of(name)

    @staticmethod
    def discovery_sender(name: NameLike) -> str:
        """Peer id embedded in a discovery name."""
        name = Name(name)
        if not DapesNamespace.is_discovery_name(name) or len(name) < 3:
            raise ValueError(f"{name} is not a discovery name")
        return name[2]

    # ---------------------------------------------------------------- bitmaps
    @staticmethod
    def bitmap_name(target_peer: str, collection: NameLike, serial: int) -> Name:
        """Name of a bitmap Interest asking ``target_peer`` for its bitmap."""
        collection_component = Name(collection)[0]
        return BITMAP_PREFIX.append(target_peer, collection_component, str(serial))

    @staticmethod
    def is_bitmap_name(name: NameLike) -> bool:
        return BITMAP_PREFIX.is_prefix_of(name)

    @staticmethod
    def bitmap_target(name: NameLike) -> str:
        """Target peer id of a bitmap name."""
        name = Name(name)
        if not DapesNamespace.is_bitmap_name(name) or len(name) < 4:
            raise ValueError(f"{name} is not a bitmap name")
        return name[2]

    @staticmethod
    def bitmap_collection(name: NameLike) -> str:
        """Collection component of a bitmap name."""
        name = Name(name)
        if not DapesNamespace.is_bitmap_name(name) or len(name) < 4:
            raise ValueError(f"{name} is not a bitmap name")
        return name[3]

    # ------------------------------------------------------- classification
    @staticmethod
    def classify(name: NameLike) -> str:
        """Frame-kind label used by the overhead accounting.

        Classification is pure and names repeat heavily (every forwarded
        frame re-classifies the same packet names), so results are memoized;
        the bound keeps pathological workloads from growing the table
        without limit.
        """
        if type(name) is not Name:
            name = Name(name)
        return _classify(name)


@functools.lru_cache(maxsize=65536)
def _classify(name: Name) -> str:
    components = name.components
    # Same decision order as the is_*_name predicates, inlined: the prefixes
    # are /dapes/discovery and /dapes/bitmap; metadata names are
    # /<collection>/metadata-file/...
    if len(components) >= 2 and components[0] == "dapes":
        second = components[1]
        if second == "discovery":
            return "discovery"
        if second == "bitmap":
            return "bitmap"
    if len(components) >= 3 and components[1] == METADATA_COMPONENT:
        return "metadata"
    return "collection-data"


@functools.lru_cache(maxsize=65536)
def _parse_packet_name(name: Name) -> Optional[PacketName]:
    components = name.components
    if len(components) != 3:
        return None
    collection, file_name, sequence = components
    if file_name == METADATA_COMPONENT:
        return None
    try:
        seq = int(sequence)
    except ValueError:
        return None
    if seq < 0:
        return None
    return PacketName(collection=collection, file_name=file_name, sequence=seq)
