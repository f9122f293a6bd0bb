"""One content-addressed blob store for flow checkpoints and flow results.

A long flow serializes its expensive intermediate artifacts (synthesis
result, floorplan, placement, clock tree, routing) under a key derived
from *what was asked for* (:func:`~repro.resil.cachekey.flow_cache_key`),
so a retried or resumed run skips every stage that already completed.
The campaign result cache memoizes whole ``FlowResult`` objects the
same way under :func:`~repro.campaign.cache.result_cache_key`.  Both are
pickled blobs addressed by ``(key, stage)``, so there is one store with
two stage namings: the :data:`CHECKPOINT_STAGES`, and the single
:data:`RESULT_STAGE` ``"res"`` whose ``get(key)`` / ``put(key, result)``
are ``load`` / ``save`` of that stage.

Two backends: :class:`MemoryBlobStore` (per-process; hub retries and the
default campaign cache) and :class:`DirectoryBlobStore` (flat
``<root>/<key>.<stage>`` files that survive the process; the CLI
``--checkpoint-dir`` and the semester-long shared result cache).  What a
hit returns:

* a stage artifact is always a fresh unpickle — later stages mutate
  what earlier ones produced, and must never touch the stored bytes;
* an in-memory result hit shares one deserialized ``FlowResult`` per key
  (``FlowResult`` is read-only downstream of ``run_flow``), so a hit is
  a dict lookup, not an unpickle of the whole artifact graph;
* a directory hit re-reads disk, so it is always a private copy.

By default a store grows without bound.  ``max_entries`` / ``max_bytes``
cap it with least-recently-used eviction: every hit or save refreshes an
entry, and a save that pushes the store over budget deletes the coldest
entries (never the one just written) until it fits again.  Recency is an
in-process sequence number; entries inherited from an earlier process
rank below everything touched in this one, ordered among themselves by
file mtime, so eviction order is deterministic within a run.

A blob that does not unpickle (truncated by a killed writer, corrupted
on disk) counts as a miss and is deleted.  Directory writes go to a temp
file beside the blob and ``os.replace`` it, so a crash mid-write leaves
the old blob or the new one, never half of one.
"""

from __future__ import annotations

import itertools
import os
import pickle
from dataclasses import dataclass

#: Stage names a full flow run checkpoints, in order.
CHECKPOINT_STAGES = (
    "synthesis", "floorplan", "placement", "clock_tree", "routing",
)
#: The one stage of a memoized whole-flow result.
RESULT_STAGE = "res"
STAGES = CHECKPOINT_STAGES + (RESULT_STAGE,)

Entry = tuple[str, str]  # (key, stage)


class BlobStore:
    """Pickled blobs by ``(key, stage)``: the LRU policy and the
    hit/miss/eviction ledger.  Subclasses supply the backend."""

    def __init__(self, max_entries: int | None = None,
                 max_bytes: int | None = None):
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be at least 1")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._seq = itertools.count()
        self._recency: dict[Entry, int] = {}

    # -- backend contract ----------------------------------------------------

    def _read(self, entry: Entry) -> bytes | None:
        raise NotImplementedError

    def _write(self, entry: Entry, data: bytes) -> None:
        raise NotImplementedError

    def _delete(self, entry: Entry) -> None:
        """Remove one blob; raises ``OSError`` when it cannot."""
        raise NotImplementedError

    def _scan(self) -> dict[Entry, tuple[int, float]]:
        """Every stored entry with its ``(size in bytes, mtime)``."""
        raise NotImplementedError

    def _decode(self, entry: Entry, data: bytes):
        return pickle.loads(data)

    # -- public API ----------------------------------------------------------

    def save(self, key: str, stage: str, obj) -> None:
        if stage not in STAGES:
            raise ValueError(f"unknown stage {stage!r}; expected one of "
                             f"{', '.join(STAGES)}")
        entry = (key, stage)
        self._write(entry, pickle.dumps(obj, protocol=4))
        self._recency[entry] = next(self._seq)
        self._evict(keep=entry)

    def load(self, key: str, stage: str):
        """The stored object, or ``None`` on a miss."""
        entry = (key, stage)
        data = self._read(entry)
        if data is not None:
            try:
                obj = self._decode(entry, data)
            except Exception:
                # Unpickling damaged bytes raises almost any type (the
                # reconstructed objects' own constructors run), and no
                # damage may crash a run: a miss, and the blob goes so a
                # recomputed one replaces it.
                self._recency.pop(entry, None)
                try:
                    self._delete(entry)
                except OSError:
                    pass
            else:
                self.hits += 1
                self._recency[entry] = next(self._seq)
                return obj
        self.misses += 1
        return None

    def get(self, key: str):
        """The memoized FlowResult for ``key``, or ``None`` on a miss.

        Read-only: the in-memory backend hands every hit the same object.
        """
        return self.load(key, RESULT_STAGE)

    def put(self, key: str, result) -> None:
        self.save(key, RESULT_STAGE, result)

    def entries(self) -> list[Entry]:
        """Stored ``(key, stage)`` pairs, least-recently-used first."""
        return self._coldest_first(self._scan())

    def total_bytes(self) -> int:
        return sum(size for size, _ in self._scan().values())

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # -- the LRU policy ------------------------------------------------------

    def _coldest_first(self, found: dict[Entry, tuple[int, float]]):
        def coldness(entry):
            if entry in self._recency:
                return (1, self._recency[entry])
            # Inherited from an earlier process: colder than anything
            # this process touched, ordered among themselves by mtime.
            return (0, found[entry][1])

        return sorted(found, key=coldness)

    def _evict(self, keep: Entry) -> None:
        """Delete cold entries until the store fits its budget."""
        if self.max_entries is None and self.max_bytes is None:
            return
        found = self._scan()
        count = len(found)
        total = sum(size for size, _ in found.values())
        for entry in self._coldest_first(found):
            over = (
                (self.max_entries is not None and count > self.max_entries)
                or (self.max_bytes is not None and total > self.max_bytes)
            )
            if not over:
                break
            if entry == keep:
                continue
            try:
                self._delete(entry)
            except OSError:
                continue
            self._recency.pop(entry, None)
            self.evictions += 1
            count -= 1
            total -= found[entry][0]


class MemoryBlobStore(BlobStore):
    """In-process store: a dict of pickled blobs."""

    def __init__(self, max_entries: int | None = None,
                 max_bytes: int | None = None):
        super().__init__(max_entries, max_bytes)
        self._blobs: dict[Entry, bytes] = {}
        self._results: dict[Entry, object] = {}

    def _read(self, entry):
        return self._blobs.get(entry)

    def _write(self, entry, data):
        self._blobs[entry] = data
        self._results.pop(entry, None)

    def _delete(self, entry):
        self._blobs.pop(entry, None)
        self._results.pop(entry, None)

    def _scan(self):
        return {entry: (len(data), 0.0) for entry, data in self._blobs.items()}

    def _decode(self, entry, data):
        if entry[1] != RESULT_STAGE:
            return super()._decode(entry, data)
        if entry not in self._results:
            self._results[entry] = pickle.loads(data)
        return self._results[entry]


class DirectoryBlobStore(BlobStore):
    """Filesystem store: one ``<root>/<key>.<stage>`` file per blob,
    shared across processes and campaigns.  Anything else under
    ``root`` (temp files, directories, stray names) is ignored."""

    def __init__(self, root, max_entries: int | None = None,
                 max_bytes: int | None = None):
        super().__init__(max_entries, max_bytes)
        self.root = os.fspath(root)

    def _path(self, entry: Entry) -> str:
        key, stage = entry
        return os.path.join(self.root, f"{key}.{stage}")

    def _read(self, entry):
        try:
            with open(self._path(entry), "rb") as handle:
                return handle.read()
        except OSError:
            return None

    def _write(self, entry, data):
        os.makedirs(self.root, exist_ok=True)
        path = self._path(entry)
        # Hidden, with a suffix that is no stage: never scanned as a blob.
        temp = os.path.join(
            self.root, f".{os.path.basename(path)}.{os.getpid()}.tmp"
        )
        with open(temp, "wb") as handle:
            handle.write(data)
        os.replace(temp, path)

    def _delete(self, entry):
        os.remove(self._path(entry))

    def _scan(self):
        found = {}
        try:
            listing = os.scandir(self.root)
        except OSError:
            return found
        with listing:
            for item in listing:
                key, _, stage = item.name.rpartition(".")
                if not key or stage not in STAGES:
                    continue
                try:
                    if not item.is_file():
                        continue
                    info = item.stat()
                except OSError:
                    continue
                found[(key, stage)] = (info.st_size, info.st_mtime)
        return found


@dataclass
class StageCheckpointer:
    """A store bound to one flow request's key.

    The flow runner and the backend orchestrator share this object:
    ``load`` returns ``None`` when resuming is disabled, so callers need
    no resume conditionals of their own.
    """

    store: BlobStore
    key: str
    resume: bool = True

    def load(self, stage: str):
        if not self.resume:
            return None
        return self.store.load(self.key, stage)

    def save(self, stage: str, obj) -> None:
        self.store.save(self.key, stage, obj)
