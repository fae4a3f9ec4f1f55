"""The on-disk result store: CRC-framed records in bounded, compacting chunks.

:class:`ChunkedResultStore` is the disk tier behind every persistent
:class:`~repro.engine.cache.ResultCache`.  A directory holds O(chunks)
files, not one inode per entry, so a thousand-machine sweep's 10^6
results stay cheap to keep, reopen and merge.  The layout, in the style
of Hub's ``Chunk``/``BytePositionsEncoder``:

* **Appends, not files.**  Entries are framed records appended to the
  *active* chunk file (``chunk-00000001.bin``): a fixed header
  (key length, payload length, CRC-32 of key+payload) followed by the
  key and the JSON payload bytes.  A 100k-entry store is ~100 chunk
  files, not 100k inodes.
* **In-chunk byte-range index.**  When the active chunk reaches its
  bound (``max_chunk_bytes`` / ``max_chunk_entries``) it is *sealed*:
  a sidecar ``chunk-00000001.idx`` records every record's key, byte
  offset and length (three parallel arrays — the byte-positions
  encoding), written atomically.  Opening a store loads sidecars for
  sealed chunks and only ever byte-scans chunks that lack one (the
  active chunk, or chunks orphaned by a crash — which are healed with
  a fresh sidecar on the way in).
* **Compacting manifest.**  ``chunks.manifest`` (deliberately not
  ``*.json``, so the legacy importer of :func:`merge_result_stores`
  never reads it as an entry) tracks the sealed-chunk generation.
  Overwritten keys leave *dead* records behind; once a sealed chunk is
  mostly dead its live records are migrated to the active chunk and
  the file deleted (``compactions`` counter, ``health.cache.compactions``
  in the metrics registry).
* **Chunk-granularity eviction.**  ``max_entries`` evicts the oldest
  sealed chunks wholesale, by append order and not by read recency,
  down to ~90% of cap — there is no per-put directory scan at all.
* **Reliability.**  A torn record (a writer that died mid-append) is
  detected by the CRC at open and counted as quarantined
  (``health.cache.quarantined``) once: a torn tail is truncated away,
  and a torn record with intact records after it stays in the file as a
  dead entry, recorded in its chunk's sidecar (the active chunk is
  sealed around it), so no later open counts it again.  A record
  ``get`` cannot parse, or one stored under another key, becomes a
  clean miss the same way.  Persistent write failures — disk full, read-only
  filesystem — degrade the store to memory-only mode with a single
  warning instead of raising ``OSError`` into the middle of a solve
  (``health.cache.write_errors``/``health.cache.degraded``).

Concurrency: the store is thread-safe within one process (one lock
around index/append state) and takes one writer per root at a time:
each open instance indexes only what it has read or appended itself,
and sealing writes that view into the chunk's sidecar.  Sealed chunks
are immutable, so serving replicas may share one store instance (or
open a merged store) while a single producer appends — the fleet-wide
"warm fabric" is built by :func:`merge_result_stores`, which
concatenates stores into one deduplicated by key (first source wins)
and also imports caches written in the old one-file-per-entry layout.
"""

from __future__ import annotations

import errno
import json
import os
import struct
import tempfile
import threading
import warnings
import zlib
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from ..obs.metrics import REGISTRY
from ..reliability.faults import fault_fires, fault_point

#: Format marker stored in every entry; bump on incompatible changes.
CACHE_FORMAT_VERSION = 1

#: Record frame: little-endian (key length, payload length, CRC-32 of
#: key+payload bytes), then the key, then the JSON payload.
_FRAME = struct.Struct("<III")

#: Keys are content hashes (hex digests); anything longer than this in a
#: frame header means we are reading garbage, not a record.
_MAX_KEY_BYTES = 4096

#: Manifest file name.  Deliberately NOT ``*.json``: importing legacy
#: ``<key>.json`` entries from a root must not parse it as one.
MANIFEST_NAME = "chunks.manifest"

#: Format marker of the chunk layout; bump on incompatible changes.
CHUNK_FORMAT_VERSION = 1


def _record_at(data: bytes, pos: int) -> Optional[Tuple[Tuple[str, int, int], int]]:
    """The intact record framed at ``pos`` of a chunk's bytes as ``((key,
    blob offset, blob length), end)``, or ``None`` when its frame is cut
    off or implausible or its CRC fails."""
    if pos + _FRAME.size > len(data):
        return None
    key_len, blob_len, crc = _FRAME.unpack_from(data, pos)
    start = pos + _FRAME.size
    end = start + key_len + blob_len
    if key_len == 0 or key_len > _MAX_KEY_BYTES or end > len(data):
        return None
    if zlib.crc32(data[start:end]) != crc:
        return None
    key = data[start : start + key_len].decode("utf-8", "replace")
    return (key, start + key_len, blob_len), end


@dataclass
class _ChunkInfo:
    """Accounting for one chunk file: total/live records and byte size.

    ``torn`` counts the torn records left inside the file; they are
    dead entries (in ``entries``, never ``live``).
    """

    entries: int = 0
    live: int = 0
    bytes: int = 0
    sealed: bool = False
    torn: int = 0


@dataclass(frozen=True)
class _Loc:
    """Byte range of one live record's JSON payload."""

    chunk: int
    offset: int
    length: int


class ChunkedResultStore:
    """Append-only chunked store: the disk tier of a :class:`ResultCache`.

    ``get``/``put``/``__contains__``/``__len__``/``clear`` plus the
    reliability counters (``quarantined``, ``write_errors``,
    ``degraded``, ``evictions``) are what
    :class:`~repro.engine.cache.ResultCache` uses of its disk tier.

    ``max_entries`` caps *live* entries with chunk-granularity batch
    eviction; ``max_chunk_bytes``/``max_chunk_entries`` bound individual
    chunks; ``durability`` is ``"flush"`` (default — a crash loses at
    most the tail records, which the CRC scan truncates away on the next
    open) or ``"fsync"`` (one fsync per put).
    """

    #: Consecutive generic write failures tolerated before the store
    #: degrades to memory-only mode.  Environmental errnos (disk full,
    #: read-only filesystem, permission denied, quota) degrade at once.
    MAX_WRITE_FAILURES = 3

    _DEGRADE_ERRNOS = frozenset(
        code
        for code in (
            errno.ENOSPC,
            errno.EROFS,
            errno.EACCES,
            errno.EPERM,
            getattr(errno, "EDQUOT", None),
        )
        if code is not None
    )

    def __init__(
        self,
        root: Union[str, Path],
        *,
        max_entries: Optional[int] = None,
        max_chunk_bytes: int = 4 * 1024 * 1024,
        max_chunk_entries: int = 1024,
        durability: str = "flush",
    ):
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None for unbounded)")
        if max_chunk_bytes < 1 or max_chunk_entries < 1:
            raise ValueError("chunk bounds must be >= 1")
        if durability not in ("flush", "fsync"):
            raise ValueError(
                f"durability must be 'flush' or 'fsync', got {durability!r}"
            )
        self.root = Path(root).expanduser()
        self.max_entries = max_entries
        self.max_chunk_bytes = max_chunk_bytes
        if max_entries is not None:
            # Eviction drops *sealed* chunks only — a cap smaller than one
            # chunk would never evict.  Clamp so a capped store always
            # spans several chunks (≥ ~4) before reaching its cap.
            max_chunk_entries = min(max_chunk_entries, max(1, -(-max_entries // 4)))
        self.max_chunk_entries = max_chunk_entries
        self.durability = durability
        self.evictions = 0
        self.quarantined = 0
        self.write_errors = 0
        self.compactions = 0
        self.degraded = False
        self._consecutive_write_failures = 0
        self._warned_degraded = False
        self._lock = threading.RLock()
        self._index: Dict[str, _Loc] = {}
        self._chunks: Dict[int, _ChunkInfo] = {}
        self._active_id: Optional[int] = None
        self._handle = None
        self._next_id = 1
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            self._open()
        except OSError as error:
            self._note_write_failure(error)

    # ------------------------------------------------------------------
    # layout helpers
    # ------------------------------------------------------------------
    def _chunk_file(self, chunk_id: int) -> str:
        return os.path.join(self.root, f"chunk-{chunk_id:08d}.bin")

    def _chunk_path(self, chunk_id: int) -> Path:
        return Path(self._chunk_file(chunk_id))

    def _idx_path(self, chunk_id: int) -> Path:
        return self.root / f"chunk-{chunk_id:08d}.idx"

    @property
    def _manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    # ------------------------------------------------------------------
    # reliability plumbing
    # ------------------------------------------------------------------
    def _note_write_failure(self, error: OSError) -> None:
        """Count one failed write; degrade to memory-only when persistent."""
        self.write_errors += 1
        self._consecutive_write_failures += 1
        REGISTRY.counter("health.cache.write_errors").inc()
        persistent = (
            error.errno in self._DEGRADE_ERRNOS
            or self._consecutive_write_failures >= self.MAX_WRITE_FAILURES
        )
        if persistent and not self.degraded:
            self.degraded = True
            REGISTRY.counter("health.cache.degraded").inc()
        if self.degraded and not self._warned_degraded:
            self._warned_degraded = True
            warnings.warn(
                f"result cache at {self.root} degraded to memory-only mode "
                f"after a write failure: {error}",
                RuntimeWarning,
                stacklevel=4,
            )

    def _note_quarantine(self, count: int = 1) -> None:
        self.quarantined += count
        REGISTRY.counter("health.cache.quarantined").inc(count)

    # ------------------------------------------------------------------
    # open / recovery
    # ------------------------------------------------------------------
    def _open(self) -> None:
        """Load sealed-chunk indexes, scan the rest, pick the active chunk."""
        manifest = self._read_manifest()
        sealed_ids = set(manifest.get("sealed", {}))
        chunk_ids = sorted(
            int(path.stem.split("-", 1)[1])
            for path in self.root.glob("chunk-*.bin")
            if path.stem.split("-", 1)[1].isdigit()
        )
        for chunk_id in chunk_ids:
            loaded: Optional[Tuple[List[Tuple[str, int, int]], int]] = None
            if chunk_id in sealed_ids:
                loaded = self._load_idx(chunk_id)
            if loaded is None:
                loaded = self._scan_chunk(chunk_id)
                # Heal: a sealed-sized chunk that lost its sidecar in a
                # crash gets one now, so the next open skips the scan.
                if chunk_id != chunk_ids[-1]:
                    self._write_idx(chunk_id, *loaded)
            records, torn = loaded
            info = _ChunkInfo(
                entries=len(records) + torn,
                live=0,
                bytes=self._chunk_size(chunk_id),
                sealed=chunk_id != chunk_ids[-1],
                torn=torn,
            )
            self._chunks[chunk_id] = info
            for key, offset, length in records:
                self._place(key, _Loc(chunk_id, offset, length))
        if chunk_ids:
            self._next_id = chunk_ids[-1] + 1
            self._active_id = chunk_ids[-1]
            if self._chunks[self._active_id].torn:
                # Seal the active chunk around its torn record: the
                # sidecar records it, so no later open scans it and
                # counts it again.
                self._seal(self._active_id)
            else:
                self._seal_if_full(self._active_id)
        self._next_id = max(self._next_id, int(manifest.get("next_id", 1)))

    def _place(self, key: str, loc: _Loc) -> None:
        """Point the index at ``loc``, marking any older record dead."""
        old = self._index.get(key)
        if old is not None:
            self._chunks[old.chunk].live -= 1
        self._index[key] = loc
        self._chunks[loc.chunk].live += 1

    def _chunk_size(self, chunk_id: int) -> int:
        try:
            return self._chunk_path(chunk_id).stat().st_size
        except OSError:
            return 0

    def _read_manifest(self) -> Dict[str, Any]:
        try:
            payload = json.loads(self._manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return {}
        if (
            not isinstance(payload, dict)
            or payload.get("version") != CHUNK_FORMAT_VERSION
        ):
            return {}
        sealed = payload.get("sealed", {})
        return {
            "sealed": {int(k): v for k, v in sealed.items()}
            if isinstance(sealed, dict)
            else {},
            "next_id": payload.get("next_id", 1),
        }

    def _write_manifest(self) -> None:
        payload = {
            "version": CHUNK_FORMAT_VERSION,
            "entry_version": CACHE_FORMAT_VERSION,
            "next_id": self._next_id,
            "sealed": {
                str(chunk_id): {"entries": info.entries, "bytes": info.bytes}
                for chunk_id, info in self._chunks.items()
                if info.sealed
            },
        }
        self._atomic_write(
            self._manifest_path, json.dumps(payload, sort_keys=True).encode("utf-8")
        )

    def _atomic_write(self, target: Path, data: bytes) -> None:
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{target.name}-", suffix=".tmp", dir=self.root
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_name, target)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def _load_idx(
        self, chunk_id: int
    ) -> Optional[Tuple[List[Tuple[str, int, int]], int]]:
        """Records and torn-record count of one sealed chunk from its
        byte-positions sidecar."""
        try:
            payload = json.loads(
                self._idx_path(chunk_id).read_text(encoding="utf-8")
            )
            keys = payload["keys"]
            offsets = payload["offsets"]
            lengths = payload["lengths"]
            if not (len(keys) == len(offsets) == len(lengths)):
                return None
            records = list(zip(keys, map(int, offsets), map(int, lengths)))
            return records, int(payload.get("torn", 0))
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError):
            return None  # caller falls back to a byte scan

    def _write_idx(
        self, chunk_id: int, records: Sequence[Tuple[str, int, int]], torn: int
    ) -> None:
        payload = {
            "version": CHUNK_FORMAT_VERSION,
            "keys": [r[0] for r in records],
            "offsets": [r[1] for r in records],
            "lengths": [r[2] for r in records],
            "torn": torn,
        }
        self._atomic_write(
            self._idx_path(chunk_id),
            json.dumps(payload, sort_keys=True).encode("utf-8"),
        )

    def _scan_chunk(self, chunk_id: int) -> Tuple[List[Tuple[str, int, int]], int]:
        """Byte-scan one chunk; quarantine (and count) each torn record.

        Chunks are bounded (``max_chunk_bytes``), so reading one whole
        chunk is cheap.  A record whose frame or CRC does not check out
        is quarantined and the scan resumes at the next offset where an
        intact record starts: a writer that kept appending after a torn
        write (a short write, a crash and a restart) left its later
        records intact behind it.  A torn tail with no intact record
        after it is truncated away so future appends start from a clean
        record boundary.  Returns the intact records and how many torn
        records stay in the file.
        """
        path = self._chunk_path(chunk_id)
        try:
            data = path.read_bytes()
        except OSError:
            return [], 0
        records: List[Tuple[str, int, int]] = []
        torn = 0
        pos = 0
        while pos < len(data):
            record = _record_at(data, pos)
            if record is not None:
                records.append(record[0])
                pos = record[1]
                continue
            self._note_quarantine()
            resume = next(
                (
                    start
                    for start in range(pos + 1, len(data) - _FRAME.size + 1)
                    if _record_at(data, start) is not None
                ),
                None,
            )
            if resume is None:
                try:
                    with path.open("r+b") as handle:
                        handle.truncate(pos)
                except OSError:
                    pass
                break
            torn += 1
            pos = resume
        return records, torn

    # ------------------------------------------------------------------
    # the store API
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Load one entry's payload, or ``None`` on miss/corruption.

        A record that does not parse, or that was stored under another
        key, is dropped from the index (quarantined — every later lookup
        is a clean miss).
        """
        with self._lock:
            loc = self._index.get(key)
            if loc is None:
                return None
            # Open, one pread, close: each syscall releases the GIL, and
            # no descriptor is kept, as compaction replaces chunk files.
            try:
                fd = os.open(self._chunk_file(loc.chunk), os.O_RDONLY)
                try:
                    blob = os.pread(fd, loc.length, loc.offset)
                finally:
                    os.close(fd)
            except OSError:
                return None
            entry: Any = None
            if len(blob) == loc.length:
                try:
                    entry = json.loads(blob.decode("utf-8"))
                except (json.JSONDecodeError, UnicodeDecodeError):
                    entry = None
            if (
                not isinstance(entry, dict)
                or entry.get("version") != CACHE_FORMAT_VERSION
                or entry.get("key") != key
            ):
                self._drop(key)
                self._note_quarantine()
                return None
            return entry.get("result")

    def put(self, key: str, payload: Mapping[str, Any]) -> None:
        """Append one entry to the active chunk (never raises ``OSError``).

        Write failures are counted and persistent ones (disk full,
        read-only) degrade the store to memory-only mode with a single
        warning.
        """
        entry = {"version": CACHE_FORMAT_VERSION, "key": key, "result": dict(payload)}
        blob = json.dumps(entry, sort_keys=True).encode("utf-8")
        with self._lock:
            if self.degraded:
                return
            try:
                fault_point("cache.put_oserror", key=key)
                chunk_id = self._append(key, blob)
            except OSError as error:
                self._note_write_failure(error)
                return
            self._consecutive_write_failures = 0
            if fault_fires("cache.corrupt_entry", key=key):
                # Deterministic chaos: the record that just landed is
                # torn, as if the writer died mid-append.  The index
                # still points at it (the writer never knew), so the
                # next get is a parse-failed quarantine and the next
                # open skips it (or truncates it, when nothing follows).
                try:
                    os.ftruncate(
                        self._handle.fileno(), self._chunks[chunk_id].bytes - 4
                    )
                except OSError:
                    pass
            self._seal_if_full(chunk_id)
            if self.max_entries is not None and len(self._index) > self.max_entries:
                self._evict_over_cap()
            self._maybe_compact()

    def _append(self, key: str, blob: bytes) -> int:
        """Append one framed record to the active chunk; returns its id.

        The record's offset is taken from where the append landed
        (``tell`` after the flush), not from this instance's byte count:
        another store open on the same root may have appended since.
        """
        key_bytes = key.encode("utf-8")
        frame = _FRAME.pack(len(key_bytes), len(blob), zlib.crc32(key_bytes + blob))
        chunk_id, handle = self._active()
        handle.write(frame + key_bytes + blob)
        handle.flush()
        if self.durability == "fsync":
            os.fsync(handle.fileno())
        end = handle.tell()
        info = self._chunks[chunk_id]
        info.entries += 1
        info.bytes = end
        self._place(key, _Loc(chunk_id, end - len(blob), len(blob)))
        return chunk_id

    def _seal_if_full(self, chunk_id: int) -> None:
        info = self._chunks[chunk_id]
        if (
            info.bytes >= self.max_chunk_bytes
            or info.entries >= self.max_chunk_entries
        ):
            self._seal(chunk_id)

    def _active(self):
        """The active chunk's ``(id, append handle)``."""
        if self._active_id is None:
            chunk_id = self._next_id
            self._next_id += 1
            self._chunks[chunk_id] = _ChunkInfo()
            self._active_id = chunk_id
            # Creating the file now (not at first append) keeps _open's
            # newest-chunk-is-active logic simple after a clean seal.
            self._chunk_path(chunk_id).touch()
        if self._handle is None:
            self._handle = self._chunk_path(self._active_id).open("ab")
        return self._active_id, self._handle

    def _seal(self, chunk_id: int) -> None:
        """Freeze one chunk: sidecar index + manifest update."""
        if self._handle is not None and chunk_id == self._active_id:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None
        if chunk_id == self._active_id:
            self._active_id = None
        info = self._chunks[chunk_id]
        info.sealed = True
        records = [
            (key, loc.offset, loc.length)
            for key, loc in self._index.items()
            if loc.chunk == chunk_id
        ]
        records.sort(key=lambda r: r[1])
        try:
            self._write_idx(chunk_id, records, info.torn)
            self._write_manifest()
        except OSError as error:
            # The data chunk itself is intact; a missing sidecar only
            # costs a rescan at the next open.
            self._note_write_failure(error)

    def _drop(self, key: str) -> None:
        loc = self._index.pop(key, None)
        if loc is not None:
            self._chunks[loc.chunk].live -= 1

    def _evict_over_cap(self) -> None:
        """Evict oldest sealed chunks until live entries reach ~90% of cap.

        Eviction is chunk-granular (append order approximates LRU for a
        content-addressed result cache) and batched: no directory scan,
        no per-put stat storm — dropping whole chunks down to 90% of the
        cap buys ~10% of the cap in puts before the next pass.
        """
        target = -(-self.max_entries * 9 // 10)  # ceil(0.9 * cap)
        for chunk_id in sorted(self._chunks):
            if len(self._index) <= target:
                break
            info = self._chunks[chunk_id]
            if not info.sealed:
                continue  # never evict the chunk being appended to
            victims = [
                key for key, loc in self._index.items() if loc.chunk == chunk_id
            ]
            for key in victims:
                del self._index[key]
            self.evictions += len(victims)
            self._delete_chunk(chunk_id)

    def _delete_chunk(self, chunk_id: int) -> None:
        del self._chunks[chunk_id]
        for path in (self._chunk_path(chunk_id), self._idx_path(chunk_id)):
            try:
                path.unlink()
            except OSError:
                pass
        try:
            self._write_manifest()
        except OSError as error:
            self._note_write_failure(error)

    def _maybe_compact(self) -> None:
        """Compact sealed chunks that are mostly dead records."""
        for chunk_id, info in list(self._chunks.items()):
            if not info.sealed or info.entries < 8:
                continue
            if info.live * 2 <= info.entries:
                self._compact_chunk(chunk_id)

    def compact(self) -> int:
        """Rewrite every sealed chunk holding dead records; returns count."""
        with self._lock:
            compacted = 0
            for chunk_id, info in list(self._chunks.items()):
                if info.sealed and info.live < info.entries:
                    self._compact_chunk(chunk_id)
                    compacted += 1
            return compacted

    def _compact_chunk(self, chunk_id: int) -> None:
        """Migrate one sealed chunk's live records to the active chunk."""
        live = sorted(
            (
                (key, loc)
                for key, loc in self._index.items()
                if loc.chunk == chunk_id
            ),
            key=lambda pair: pair[1].offset,
        )
        try:
            with self._chunk_path(chunk_id).open("rb") as handle:
                for key, loc in live:
                    handle.seek(loc.offset)
                    blob = handle.read(loc.length)
                    self._seal_if_full(self._append(key, blob))
        except OSError as error:
            self._note_write_failure(error)
            return
        self._delete_chunk(chunk_id)
        self.compactions += 1
        REGISTRY.counter("health.cache.compactions").inc()

    # ------------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._index

    def __len__(self) -> int:
        """Live entries — O(1) bookkeeping, no directory walk."""
        with self._lock:
            return len(self._index)

    def keys(self) -> List[str]:
        """Every live key (snapshot)."""
        with self._lock:
            return list(self._index)

    def items(self) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """Stream ``(key, result payload)`` pairs chunk by chunk, in
        append order — the merge/iteration path, one sequential read per
        chunk instead of one ``open`` per entry."""
        with self._lock:
            by_chunk: Dict[int, List[Tuple[str, _Loc]]] = {}
            for key, loc in self._index.items():
                by_chunk.setdefault(loc.chunk, []).append((key, loc))
        for chunk_id in sorted(by_chunk):
            pairs = sorted(by_chunk[chunk_id], key=lambda p: p[1].offset)
            try:
                with self._chunk_path(chunk_id).open("rb") as handle:
                    for key, loc in pairs:
                        handle.seek(loc.offset)
                        blob = handle.read(loc.length)
                        try:
                            entry = json.loads(blob.decode("utf-8"))
                        except (json.JSONDecodeError, UnicodeDecodeError):
                            continue
                        if (
                            isinstance(entry, dict)
                            and entry.get("version") == CACHE_FORMAT_VERSION
                        ):
                            yield key, entry.get("result")
            except OSError:
                continue

    def clear(self) -> None:
        """Delete every chunk, sidecar and the manifest (root kept)."""
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:
                    pass
                self._handle = None
            for chunk_id in list(self._chunks):
                for path in (self._chunk_path(chunk_id), self._idx_path(chunk_id)):
                    try:
                        path.unlink()
                    except OSError:
                        pass
            try:
                self._manifest_path.unlink()
            except OSError:
                pass
            self._index.clear()
            self._chunks.clear()
            self._active_id = None

    def close(self) -> None:
        """Close the append handle (reopened lazily by the next put)."""
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:
                    pass
                self._handle = None

    def flush(self) -> None:
        """Make every appended record visible to other processes."""
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.flush()
                    os.fsync(self._handle.fileno())
                except OSError:
                    pass

    # ------------------------------------------------------------------
    def inode_count(self) -> int:
        """Files currently under the root — the O(chunks) claim, measurable."""
        return sum(1 for _ in self.root.iterdir())

    @property
    def chunk_count(self) -> int:
        with self._lock:
            return len(self._chunks)

    def reliability_stats(self) -> Dict[str, Any]:
        """Degradation counters plus the layout's (chunks, live/dead
        entries, compactions, evictions)."""
        with self._lock:
            total = sum(info.entries for info in self._chunks.values())
            return {
                "quarantined": self.quarantined,
                "write_errors": self.write_errors,
                "degraded": self.degraded,
                "chunks": len(self._chunks),
                "live_entries": len(self._index),
                "dead_entries": total - len(self._index),
                "compactions": self.compactions,
                "evictions": self.evictions,
            }


# ----------------------------------------------------------------------
# merge
# ----------------------------------------------------------------------
def _legacy_items(root: Path) -> Iterator[Tuple[str, Any]]:
    """``(key, result payload)`` of the ``<key>.json`` entries a cache of
    the old one-file-per-entry layout left under ``root``.  Entries of
    another format version and corrupt ones are skipped."""
    for path in sorted(root.glob("*.json")):
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            continue
        if isinstance(entry, dict) and entry.get("version") == CACHE_FORMAT_VERSION:
            yield path.stem, entry.get("result")


def merge_result_stores(
    dest: Union[str, Path, ChunkedResultStore],
    sources: Sequence[Union[str, Path, ChunkedResultStore]],
    *,
    max_chunk_bytes: int = 4 * 1024 * 1024,
    max_chunk_entries: int = 1024,
) -> Dict[str, int]:
    """Concatenate result stores into one chunked store, deduped by key.

    Sources are stores or their directories.  Each source's chunked
    entries are read together with any ``<key>.json`` entries of the old
    one-file-per-entry layout under its root, which is how such a cache
    is imported.  Keys are content hashes, so two shards that solved the
    same (spec, machine, strategy) agree on the payload — precedence is
    deterministic anyway: the first source listed wins, later duplicates
    are skipped.  Returns counters (``merged``, ``skipped``, ``sources``).
    """
    if isinstance(dest, ChunkedResultStore):
        dest_store = dest
    else:
        dest_store = ChunkedResultStore(
            dest,
            max_chunk_bytes=max_chunk_bytes,
            max_chunk_entries=max_chunk_entries,
        )
    merged = skipped = 0
    for source in sources:
        if not isinstance(source, ChunkedResultStore):
            source = ChunkedResultStore(source)
        for key, payload in chain(source.items(), _legacy_items(source.root)):
            if payload is None or key in dest_store:
                skipped += 1
                continue
            dest_store.put(key, payload)
            merged += 1
    dest_store.flush()
    dest_store.close()
    return {"merged": merged, "skipped": skipped, "sources": len(sources)}
