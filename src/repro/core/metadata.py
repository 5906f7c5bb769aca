"""Collection metadata and its two encodings (Section IV-C).

The metadata file is generated and signed by the collection producer.  It
lets peers (i) learn the names of the data packets to request and (ii)
verify the integrity of each received packet without verifying its
signature.

Two formats are provided, mirroring Figure 4 of the paper:

* **packet-digest based** — the metadata lists, per file, one
  ``index/digest`` subname per packet.  Packets can be verified the moment
  they arrive, but the metadata grows with the collection and may need to be
  segmented into several network-layer packets.
* **Merkle-tree based** — the metadata carries one Merkle root per file plus
  the packet count.  It usually fits in a single packet, but a packet can
  only be integrity-checked once all packets of its file (and hence the full
  tree) are available.

:func:`metadata_segments` wraps the encoding into signed Data segments, and
:class:`SecureInit` is the peer's part that fetches, authenticates and
serves them.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.crypto.digest import sha256_hex
from repro.crypto.keys import KeyPair
from repro.crypto.merkle import MerkleTree
from repro.crypto.signing import sign
from repro.ndn.name import Name
from repro.ndn.packet import Data, Interest
from repro.core.config import INTEREST_LIFETIME
from repro.core.namespace import DapesNamespace

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.peer import CollectionSession, DapesPeer


class MetadataFormat(str, Enum):
    """The two metadata encodings of Section IV-C."""

    DIGEST = "digest"
    MERKLE = "merkle"


@dataclass
class FileMetadata:
    """Metadata of one file inside a collection."""

    file_name: str
    packet_count: int
    packet_digests: List[str] = field(default_factory=list)
    merkle_root: Optional[str] = None

    def __post_init__(self) -> None:
        if self.packet_count <= 0:
            raise ValueError("packet_count must be positive")
        if self.packet_digests and len(self.packet_digests) != self.packet_count:
            raise ValueError("packet_digests length must equal packet_count")


@dataclass
class CollectionMetadata:
    """The full metadata of a file collection."""

    collection: str
    files: List[FileMetadata]
    format: MetadataFormat
    producer: str
    packet_size: int

    def __post_init__(self) -> None:
        if not self.files:
            raise ValueError("a collection needs at least one file")
        if isinstance(self.format, str):
            self.format = MetadataFormat(self.format)
        self._offsets: Dict[str, int] = {}
        offset = 0
        for file_meta in self.files:
            self._offsets[file_meta.file_name] = offset
            offset += file_meta.packet_count
        self._total = offset
        # Name <-> bitmap index memos: metadata is immutable and the same
        # packet names are resolved for every frame heard (hot path).
        self._index_of_name: Dict[object, Optional[int]] = {}
        self._name_of_index: Dict[int, Name] = {}
        self._wire_size_cache: Optional[int] = None

    # ------------------------------------------------------------ structure
    @property
    def collection_name(self) -> Name:
        return Name([self.collection])

    @property
    def total_packets(self) -> int:
        """Total number of packets across every file (bitmap length)."""
        return self._total

    def file(self, file_name: str) -> FileMetadata:
        for file_meta in self.files:
            if file_meta.file_name == file_name:
                return file_meta
        raise KeyError(f"no file {file_name!r} in collection {self.collection!r}")

    def global_index(self, file_name: str, sequence: int) -> int:
        """Bitmap index of packet ``sequence`` of ``file_name`` (Section IV-D ordering)."""
        file_meta = self.file(file_name)
        if not 0 <= sequence < file_meta.packet_count:
            raise IndexError(f"sequence {sequence} out of range for file {file_name!r}")
        return self._offsets[file_name] + sequence

    def locate(self, global_index: int) -> Tuple[str, int]:
        """Inverse of :meth:`global_index`: map a bitmap index to (file, sequence)."""
        if not 0 <= global_index < self._total:
            raise IndexError(f"global index {global_index} out of range (total {self._total})")
        for file_meta in self.files:
            offset = self._offsets[file_meta.file_name]
            if offset <= global_index < offset + file_meta.packet_count:
                return file_meta.file_name, global_index - offset
        raise IndexError(global_index)  # pragma: no cover - unreachable

    def packet_name(self, global_index: int) -> Name:
        """NDN name of the packet at ``global_index`` (memoized; names are hot)."""
        name = self._name_of_index.get(global_index)
        if name is None:
            file_name, sequence = self.locate(global_index)
            name = DapesNamespace.packet_name(self.collection, file_name, sequence)
            self._name_of_index[global_index] = name
        return name

    def packet_index_of(self, name) -> Optional[int]:
        """Bitmap index of a packet name, or ``None`` if it does not belong here."""
        try:
            return self._index_of_name[name]
        except KeyError:
            pass
        except TypeError:
            return self._packet_index_of_uncached(name)  # unhashable NameLike
        index = self._packet_index_of_uncached(name)
        if len(self._index_of_name) < 4 * self._total + 1024:
            self._index_of_name[name] = index
        return index

    def _packet_index_of_uncached(self, name) -> Optional[int]:
        parsed = DapesNamespace.parse_packet_name(name)
        if parsed is None or parsed.collection != self.collection:
            return None
        try:
            return self.global_index(parsed.file_name, parsed.sequence)
        except (KeyError, IndexError):
            return None

    # ------------------------------------------------------------- integrity
    def verify_packet(self, global_index: int, content: bytes) -> Optional[bool]:
        """Verify one packet's integrity.

        Returns ``True``/``False`` for the digest format.  For the Merkle
        format per-packet verification is not possible until the whole file
        is present, so ``None`` ("undecided") is returned — use
        :meth:`verify_file` once every packet of the file has arrived.
        """
        file_name, sequence = self.locate(global_index)
        file_meta = self.file(file_name)
        if self.format is MetadataFormat.DIGEST:
            return sha256_hex(content) == file_meta.packet_digests[sequence]
        return None

    def verify_file(self, file_name: str, contents: Sequence[bytes]) -> bool:
        """Verify a whole file's integrity (both formats)."""
        file_meta = self.file(file_name)
        if len(contents) != file_meta.packet_count:
            return False
        if self.format is MetadataFormat.DIGEST:
            return all(
                sha256_hex(content) == digest
                for content, digest in zip(contents, file_meta.packet_digests)
            )
        return MerkleTree.root_of(list(contents)) == file_meta.merkle_root

    # -------------------------------------------------------------- encoding
    def encode(self) -> bytes:
        """Serialise the metadata content (the bytes that get signed)."""
        payload = {
            "collection": self.collection,
            "format": self.format.value,
            "producer": self.producer,
            "packet_size": self.packet_size,
            "files": [
                {
                    "file_name": file_meta.file_name,
                    "packet_count": file_meta.packet_count,
                    "packet_digests": file_meta.packet_digests,
                    "merkle_root": file_meta.merkle_root,
                }
                for file_meta in self.files
            ],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")

    @classmethod
    def decode(cls, payload: bytes) -> "CollectionMetadata":
        """Inverse of :meth:`encode`."""
        parsed = json.loads(payload.decode("utf-8"))
        files = [
            FileMetadata(
                file_name=item["file_name"],
                packet_count=item["packet_count"],
                packet_digests=item.get("packet_digests") or [],
                merkle_root=item.get("merkle_root"),
            )
            for item in parsed["files"]
        ]
        return cls(
            collection=parsed["collection"],
            files=files,
            format=MetadataFormat(parsed["format"]),
            producer=parsed["producer"],
            packet_size=parsed["packet_size"],
        )

    @property
    def digest(self) -> str:
        """Digest of the encoded metadata, used in the metadata name."""
        return sha256_hex(self.encode())[:16]

    @property
    def wire_size(self) -> int:
        """Size of the encoded metadata in bytes.

        Cached: the metadata is immutable and this is sampled by every
        peer's periodic state-size accounting, which used to re-encode the
        whole metadata (all per-packet digests) each time.
        """
        size = self._wire_size_cache
        if size is None:
            size = self._wire_size_cache = len(self.encode())
        return size

    def name(self, segment: Optional[int] = None) -> Name:
        """The metadata's NDN name (optionally of one segment)."""
        return DapesNamespace.metadata_name(self.collection, self.digest, segment)


def build_metadata(
    collection: str,
    file_packets: Sequence[Tuple[str, Sequence[bytes]]],
    metadata_format: MetadataFormat | str,
    producer: str,
    packet_size: int,
) -> CollectionMetadata:
    """Build metadata from the actual packet contents of every file.

    ``file_packets`` is an ordered sequence of ``(file_name, [packet bytes])``
    pairs; the order defines the bitmap ordering.
    """
    metadata_format = MetadataFormat(metadata_format)
    files: List[FileMetadata] = []
    for file_name, packets in file_packets:
        packets = list(packets)
        if not packets:
            raise ValueError(f"file {file_name!r} has no packets")
        if metadata_format is MetadataFormat.DIGEST:
            files.append(
                FileMetadata(
                    file_name=file_name,
                    packet_count=len(packets),
                    packet_digests=[sha256_hex(packet) for packet in packets],
                )
            )
        else:
            files.append(
                FileMetadata(
                    file_name=file_name,
                    packet_count=len(packets),
                    merkle_root=MerkleTree.root_of(packets),
                )
            )
    return CollectionMetadata(
        collection=collection,
        files=files,
        format=metadata_format,
        producer=producer,
        packet_size=packet_size,
    )


def metadata_segments(metadata: CollectionMetadata, key: KeyPair) -> Dict[int, Data]:
    """The signed Data segments that carry ``metadata``, by segment number.

    Each segment's content is a JSON envelope ``{segment, total, chunk}``
    holding one base64 chunk of :meth:`CollectionMetadata.encode`.
    """
    encoded = metadata.encode()
    chunk_size = max(metadata.packet_size - 200, 256)
    chunks = [encoded[i:i + chunk_size] for i in range(0, len(encoded), chunk_size)] or [b""]
    segments: Dict[int, Data] = {}
    for index, chunk in enumerate(chunks):
        content = json.dumps(
            {"segment": index, "total": len(chunks), "chunk": base64.b64encode(chunk).decode("ascii")}
        ).encode("utf-8")
        name = metadata.name(segment=index)
        segments[index] = Data(name=name, content=content, signature=sign(str(name), content, key))
    return segments


class SecureInit:
    """The peer's secure initialization (Section IV-C).

    A downloader requests segment 0 of the metadata name discovery gave it,
    then the first missing segment until it holds them all.  Every segment
    is authenticated against the peer's trust anchors, and the decoded
    metadata is adopted only if its producer is trusted.  A peer that holds
    the metadata serves its segments.
    """

    def __init__(self, peer: "DapesPeer"):
        self.peer, self.sim, self.config, self.load = peer, peer.sim, peer.config, peer.load
        self.knowledge, self.sessions, self.node_id = peer.knowledge, peer.sessions, peer.node_id

    # ----------------------------------------------------------------- events
    def interest(self, interest: Interest) -> None:
        """A metadata Interest: answer it with the segment it names."""
        name = interest.name
        session = self.sessions.get(DapesNamespace.metadata_collection(name))
        if session is None or not session.metadata_segments:
            return
        segment = 0
        if len(name) >= 4:
            try:
                segment = int(name[-1])
            except ValueError:
                segment = 0
        data = session.metadata_segments.get(segment)
        if data is not None and interest.matches(data):
            # Serve only what satisfies the Interest (digest must agree).
            self.peer.respond(data)

    def overheard(self, interest: Interest) -> None:
        """Overheard metadata Interests teach the peer nothing."""

    def data(self, data: Data) -> None:
        collection = DapesNamespace.metadata_collection(data.name)
        session = self.sessions.get(collection)
        if session is None or session.metadata is not None or session.distrusted:
            return
        peer = self.peer
        if not (self.config.interested_in_all or collection in peer.join_targets or session.interested):
            return
        # Authenticate the segment against our local trust anchors.
        if data.signature is None or not peer.trust.authenticate(str(data.name), data.content, data.signature):
            session.distrusted = True
            return
        try:
            envelope = json.loads(data.content.decode("utf-8"))
            segment, total = int(envelope["segment"]), int(envelope["total"])
            chunk = base64.b64decode(envelope["chunk"])
        except (ValueError, KeyError, TypeError):
            return
        if session.metadata_name is None:
            session.metadata_name = data.name.parent()
        session.metadata_chunks[segment] = chunk
        missing = [i for i in range(total) if i not in session.metadata_chunks]
        if missing:
            self.request(session, segment=missing[0])
            return
        try:
            metadata = CollectionMetadata.decode(b"".join(session.metadata_chunks[i] for i in range(total)))
        except (ValueError, KeyError):
            return
        if not peer.trust.is_trusted(metadata.producer):
            session.distrusted = True
            return
        peer.adopt_metadata(session, metadata)
        if session.start_time is None:
            session.start_time = self.sim.now
        # Begin advertisement exchange with every neighbour believed relevant.
        for neighbor in self.knowledge.neighbors_with_collection(metadata.collection, self.sim.now):
            if neighbor != self.node_id:
                peer.advertising.maybe_request(session, neighbor)
        peer.fetching.fill(session)

    def expired(self, name: Name) -> None:
        session = self.sessions.get(DapesNamespace.metadata_collection(name))
        if session is not None and session.metadata is None and self.peer.discovery.any_active():
            self.load.retransmissions += 1
            self.request(session)

    def request(self, session: "CollectionSession", segment: int = 0) -> None:
        """Express an Interest for one segment of the session's metadata."""
        if session.metadata is not None or session.metadata_name is None or session.distrusted:
            return
        name = session.metadata_name.append(str(segment))
        self.peer.express(Interest(name=name, lifetime=INTEREST_LIFETIME))
