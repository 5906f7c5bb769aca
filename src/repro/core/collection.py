"""File collections, packetisation and the per-peer packet store.

A producer groups individual files into a *collection*, segments each file
into fixed-size network-layer packets, signs every packet, and generates the
signed collection metadata.  Downloading peers keep a :class:`PacketStore`
per collection: the metadata, a bitmap of which packets they hold, and the
packets themselves.

Large simulated files do not materialise their full content: each packet
carries small deterministic *synthetic content* (a function of its name) and
an explicit wire-size override equal to the configured packet size, so
digests and Merkle roots are real while memory stays bounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto.keys import KeyPair
from repro.crypto.signing import sign
from repro.ndn.name import Name
from repro.ndn.packet import Data
from repro.core.metadata import CollectionMetadata, MetadataFormat, build_metadata
from repro.core.namespace import DapesNamespace


def synthetic_packet_content(packet_name: Name) -> bytes:
    """Deterministic stand-in content for a modelled (not materialised) packet."""
    return f"content-of:{packet_name}".encode("utf-8")


@dataclass
class FileSpec:
    """One file to be shared: either real content or a modelled size."""

    name: str
    size_bytes: int = 0
    content: Optional[bytes] = None

    def __post_init__(self) -> None:
        if "/" in self.name:
            raise ValueError("file names must be a single name component (no '/')")
        if self.content is not None:
            self.size_bytes = len(self.content)
        if self.size_bytes <= 0:
            raise ValueError(f"file {self.name!r} must have positive size")

    def packet_count(self, packet_size: int) -> int:
        """Number of packets the file splits into."""
        return max(1, -(-self.size_bytes // packet_size))

    def packet_payload(self, index: int, packet_size: int) -> Optional[bytes]:
        """Real packet payload when content was provided, otherwise ``None``."""
        if self.content is None:
            return None
        start = index * packet_size
        return self.content[start:start + packet_size]


class FileCollection:
    """A named collection of files, as published by its producer."""

    def __init__(self, name: Name, files: Sequence[FileSpec], packet_size: int, producer: str):
        if not files:
            raise ValueError("a collection needs at least one file")
        if packet_size <= 0:
            raise ValueError("packet_size must be positive")
        self.name = Name(name)
        self.files = list(files)
        self.packet_size = packet_size
        self.producer = producer
        seen = set()
        for spec in self.files:
            if spec.name in seen:
                raise ValueError(f"duplicate file name {spec.name!r} in collection")
            seen.add(spec.name)

    # ------------------------------------------------------------ structure
    @property
    def collection_id(self) -> str:
        """The single name component identifying the collection."""
        return self.name[0]

    @property
    def total_packets(self) -> int:
        return sum(spec.packet_count(self.packet_size) for spec in self.files)

    def packet_contents(self) -> List[Tuple[str, List[bytes]]]:
        """Per-file packet payloads (synthetic for modelled files)."""
        result: List[Tuple[str, List[bytes]]] = []
        for spec in self.files:
            packets: List[bytes] = []
            for index in range(spec.packet_count(self.packet_size)):
                payload = spec.packet_payload(index, self.packet_size)
                if payload is None:
                    payload = synthetic_packet_content(
                        DapesNamespace.packet_name(self.name, spec.name, index)
                    )
                packets.append(payload)
            result.append((spec.name, packets))
        return result

    # -------------------------------------------------------------- metadata
    def build_metadata(self, metadata_format: MetadataFormat | str) -> CollectionMetadata:
        """Generate the collection metadata in the requested format."""
        return build_metadata(
            collection=self.collection_id,
            file_packets=self.packet_contents(),
            metadata_format=metadata_format,
            producer=self.producer,
            packet_size=self.packet_size,
        )

    # --------------------------------------------------------------- packets
    def packet_payload(self, metadata: CollectionMetadata, global_index: int) -> bytes:
        """Payload bytes of the packet at ``global_index``."""
        file_name, sequence = metadata.locate(global_index)
        for spec in self.files:
            if spec.name == file_name:
                payload = spec.packet_payload(sequence, self.packet_size)
                if payload is None:
                    payload = synthetic_packet_content(metadata.packet_name(global_index))
                return payload
        raise KeyError(file_name)

    def build_packet(
        self, metadata: CollectionMetadata, global_index: int, key: KeyPair
    ) -> Data:
        """Build and sign the Data packet at ``global_index``.

        When the file content is modelled rather than materialised, the Data
        carries the synthetic payload but reports the configured packet size
        on the wire (``content_size_override``).
        """
        name = metadata.packet_name(global_index)
        payload = self.packet_payload(metadata, global_index)
        file_name, sequence = metadata.locate(global_index)
        spec = next(s for s in self.files if s.name == file_name)
        override = None
        if spec.content is None:
            last_index = spec.packet_count(self.packet_size) - 1
            if sequence < last_index:
                override = self.packet_size
            else:
                override = spec.size_bytes - self.packet_size * last_index or self.packet_size
        data = Data(
            name=name,
            content=payload,
            content_size_override=override,
            signature=sign(str(name), payload, key),
        )
        return data


class CollectionBuilder:
    """Fluent builder used by producers (the DAPES application's "create collection")."""

    def __init__(self, label: str, timestamp: int, packet_size: int = 1024, producer: str = ""):
        self._label = label
        self._timestamp = timestamp
        self._packet_size = packet_size
        self._producer = producer
        self._files: List[FileSpec] = []

    def add_file(self, name: str, size_bytes: int = 0, content: Optional[bytes] = None) -> "CollectionBuilder":
        """Add one file, either with real ``content`` or a modelled ``size_bytes``."""
        self._files.append(FileSpec(name=name, size_bytes=size_bytes, content=content))
        return self

    def build(self) -> FileCollection:
        """Create the collection."""
        name = DapesNamespace.collection_name(self._label, self._timestamp)
        return FileCollection(
            name=name,
            files=self._files,
            packet_size=self._packet_size,
            producer=self._producer,
        )


@dataclass
class PacketStore:
    """A downloading peer's per-collection state: bitmap + received packets."""

    metadata: CollectionMetadata
    packets: Dict[int, Data] = field(default_factory=dict)
    unverified: Dict[int, Data] = field(default_factory=dict)
    completion_time: Optional[float] = None

    def __post_init__(self) -> None:
        from repro.core.bitmap import Bitmap  # local import to avoid a cycle

        self.bitmap = Bitmap(self.metadata.total_packets)

    # --------------------------------------------------------------- queries
    def has(self, global_index: int) -> bool:
        return self.bitmap.get(global_index)

    def packet(self, global_index: int) -> Optional[Data]:
        return self.packets.get(global_index)

    def is_complete(self) -> bool:
        return self.bitmap.is_complete()

    # -------------------------------------------------------------- mutation
    def add_packet(self, data: Data, now: float = 0.0) -> bool:
        """Store a received packet after integrity verification.

        Returns ``True`` if the packet was accepted (or already present).
        Digest-format metadata verifies immediately; Merkle-format packets
        are accepted provisionally and re-checked per file once the file is
        complete (rejected packets of a corrupt file are dropped again).
        """
        index = self.metadata.packet_index_of(data.name)
        if index is None:
            return False
        if self.bitmap.get(index):
            return True
        verdict = self.metadata.verify_packet(index, data.content)
        if verdict is False:
            return False
        self.packets[index] = data
        self.bitmap.set(index)
        if verdict is None:
            self.unverified[index] = data
            self._maybe_verify_file(index)
        if self.is_complete() and self.completion_time is None:
            self.completion_time = now
        return True

    def mark_all_present(self, builder: FileCollection, key: KeyPair) -> None:
        """Populate the store with every packet (producer / preloaded repository)."""
        for index in range(self.metadata.total_packets):
            data = builder.build_packet(self.metadata, index, key)
            self.packets[index] = data
            self.bitmap.set(index)
        self.completion_time = 0.0

    def _maybe_verify_file(self, touched_index: int) -> None:
        file_name, _ = self.metadata.locate(touched_index)
        file_meta = self.metadata.file(file_name)
        base = self.metadata.global_index(file_name, 0)
        indices = range(base, base + file_meta.packet_count)
        if not self.bitmap.all_set(base, base + file_meta.packet_count):
            return
        contents = [self.packets[i].content for i in indices]
        if self.metadata.verify_file(file_name, contents):
            for i in indices:
                self.unverified.pop(i, None)
        else:
            # The whole file failed verification: drop the unverified packets
            # so they are re-fetched.
            for i in indices:
                if i in self.unverified:
                    self.unverified.pop(i)
                    self.packets.pop(i, None)
                    self.bitmap.set(i, False)

    # ------------------------------------------------------------ accounting
    #: Book-keeping bytes per stored packet (name reference + index entry).
    PER_PACKET_STATE_BYTES = 48

    @property
    def state_size_bytes(self) -> int:
        """Approximate *protocol* memory held by this store (Table I memory proxy).

        Packet payloads are excluded: the DAPES application writes received
        file data to storage, so what stays resident is the per-packet
        book-keeping, the bitmap and the metadata.
        """
        return (
            self.PER_PACKET_STATE_BYTES * len(self.packets)
            + self.bitmap.wire_size
            + self.metadata.wire_size
        )

    def progress(self) -> float:
        """Download progress in [0, 1]."""
        total = self.metadata.total_packets
        return self.bitmap.count() / total if total else 1.0
