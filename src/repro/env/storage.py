"""In-memory simulated disk with I/O accounting and crash realism.

The disk is a flat namespace of append-only files (the only write mode any
log-structured engine needs).  By default every write is treated as durable
the instant it is issued and crash injection is performed by cloning the
disk at a chosen point (:meth:`SimulatedDisk.clone`) and reopening a store
against the clone, which models "everything synced so far survives,
everything after is lost".

With ``sync_tracking=True`` the disk additionally models the gap between a
write landing in the OS page cache and it being durable on media:

* each file carries a **synced offset**, advanced only by
  :meth:`SequentialWriter.sync` (or the implicit sync in ``close()``);
* :meth:`SimulatedDisk.crash_clone` produces the post-power-failure state:
  every file's unsynced tail is truncated at a *seeded* offset — possibly
  mid-record, i.e. a **torn write** — and never-synced files may vanish
  entirely;
* :meth:`SimulatedDisk.arm_crash` makes the device "lose power" after a
  chosen number of further appended bytes: the append that crosses the
  threshold lands only partially and raises :class:`DiskCrashed`, and every
  later operation fails until the harness recovers from a crash clone;
* :meth:`SimulatedDisk.inject_read_fault` plants latent media faults that
  corrupt (or fail) reads overlapping a byte range without touching the
  stored bytes.

Default behaviour (``sync_tracking=False``) is bit-identical to the
original always-durable model: ``sync()`` is a no-op and ``crash_clone``
degenerates to :meth:`clone`.
"""

from __future__ import annotations

import random

from repro.env.iostats import IOStats, RAND, READ, SEQ, WRITE


class FileNotFound(KeyError):
    """Raised when opening or deleting a file that does not exist."""


class DiskCrashed(RuntimeError):
    """The simulated device lost power; all further I/O fails.

    Recover by building a fresh store over :meth:`SimulatedDisk.crash_clone`.
    """


class ReadFault(IOError):
    """A read overlapped an injected ``mode="error"`` fault region."""


class SimulatedDisk:
    """A namespace of in-memory files that accounts every I/O operation.

    Files are append-only byte arrays.  Random reads, sequential reads and
    sequential (append) writes are tagged and recorded in :attr:`stats`.
    """

    def __init__(self, *, sync_tracking: bool = False) -> None:
        self._files: dict[str, bytearray] = {}
        self.stats = IOStats()
        #: when True, durability requires an explicit sync (see module doc)
        self.sync_tracking = sync_tracking
        self._synced: dict[str, int] = {}
        self._crashed = False
        self._crash_after: int | None = None
        self._read_faults: dict[str, list[tuple[int, int, str]]] = {}
        #: number of injected read faults that reads have actually hit
        self.read_faults_hit = 0
        #: explicit sync() calls (close() counts once when it syncs)
        self.sync_count = 0

    # -- namespace -----------------------------------------------------------

    def create(self, name: str) -> "SequentialWriter":
        """Create (or truncate) a file and return an append-only writer."""
        self._check_alive()
        self._files[name] = bytearray()
        if self.sync_tracking:
            self._synced[name] = 0
        return SequentialWriter(self, name)

    def append_writer(self, name: str) -> "SequentialWriter":
        """Open an existing file for appending (creating it if missing)."""
        self._check_alive()
        if name not in self._files:
            self._files[name] = bytearray()
            if self.sync_tracking:
                self._synced[name] = 0
        return SequentialWriter(self, name)

    def open(self, name: str) -> "RandomAccessFile":
        self._check_alive()
        if name not in self._files:
            raise FileNotFound(name)
        return RandomAccessFile(self, name)

    def delete(self, name: str) -> None:
        self._check_alive()
        if name not in self._files:
            raise FileNotFound(name)
        del self._files[name]
        self._synced.pop(name, None)
        self._read_faults.pop(name, None)

    def exists(self, name: str) -> bool:
        return name in self._files

    def size(self, name: str) -> int:
        if name not in self._files:
            raise FileNotFound(name)
        return len(self._files[name])

    def list(self, prefix: str = "") -> list[str]:
        return sorted(n for n in self._files if n.startswith(prefix))

    def total_bytes(self, prefix: str = "") -> int:
        """Space currently occupied by files matching ``prefix``."""
        return sum(len(b) for n, b in self._files.items() if n.startswith(prefix))

    # -- durability ----------------------------------------------------------

    def sync(self, name: str) -> None:
        """Make every byte of ``name`` written so far durable (fsync)."""
        self._check_alive()
        if name not in self._files:
            raise FileNotFound(name)
        self.sync_count += 1
        if self.sync_tracking:
            self._synced[name] = len(self._files[name])

    def synced_size(self, name: str) -> int:
        """Durable byte count of ``name`` (== size when not tracking)."""
        if name not in self._files:
            raise FileNotFound(name)
        if not self.sync_tracking:
            return len(self._files[name])
        return self._synced.get(name, 0)

    # -- raw I/O (used by the file handles) ------------------------------------

    def _check_alive(self) -> None:
        if self._crashed:
            raise DiskCrashed("simulated device has crashed; "
                              "recover from crash_clone()")

    def _append(self, name: str, data: bytes, tag: str) -> int:
        self._check_alive()
        buf = self._files[name]
        offset = len(buf)
        if self._crash_after is not None:
            if len(data) >= self._crash_after:
                # The power fails mid-write: a prefix of this append lands
                # (beyond the synced offset — crash_clone may tear it more).
                buf.extend(data[:self._crash_after])
                self._crash_after = None
                self._crashed = True
                raise DiskCrashed(f"simulated power failure mid-append "
                                  f"to {name!r}")
            self._crash_after -= len(data)
        buf.extend(data)
        self.stats.record(WRITE, SEQ, tag, len(data))
        return offset

    def _read(self, name: str, offset: int, length: int, tag: str,
              pattern: str = RAND) -> bytes:
        self._check_alive()
        buf = self._files[name]
        data = bytes(buf[offset:offset + length])
        self.stats.record(READ, pattern, tag, len(data))
        if self._read_faults:
            return self._apply_read_faults(name, offset, data)
        return data

    def read_full(self, name: str, tag: str) -> bytes:
        """Stream an entire file (accounted as one sequential read)."""
        self._check_alive()
        if name not in self._files:
            raise FileNotFound(name)
        data = bytes(self._files[name])
        self.stats.record(READ, SEQ, tag, len(data))
        return self._apply_read_faults(name, 0, data)

    # -- fault injection -------------------------------------------------------

    def inject_read_fault(self, name: str, offset: int, length: int = 1,
                          mode: str = "flip") -> None:
        """Plant a latent media fault over ``[offset, offset+length)``.

        ``mode="flip"`` XOR-corrupts the overlapping bytes of every read
        that touches the region (the stored bytes are untouched, modelling
        a bad sector returning garbage); ``mode="error"`` makes such reads
        raise :class:`ReadFault`.
        """
        if mode not in ("flip", "error"):
            raise ValueError("mode must be 'flip' or 'error'")
        self._read_faults.setdefault(name, []).append((offset, length, mode))

    def clear_read_faults(self, name: str | None = None) -> None:
        if name is None:
            self._read_faults.clear()
        else:
            self._read_faults.pop(name, None)

    def _apply_read_faults(self, name: str, offset: int, data: bytes) -> bytes:
        faults = self._read_faults.get(name)
        if not faults:
            return data
        out = None
        for f_off, f_len, mode in faults:
            lo = max(f_off, offset)
            hi = min(f_off + f_len, offset + len(data))
            if lo >= hi:
                continue
            self.read_faults_hit += 1
            if mode == "error":
                raise ReadFault(f"{name}: injected read fault at "
                                f"[{f_off}, {f_off + f_len})")
            if out is None:
                out = bytearray(data)
            for i in range(lo - offset, hi - offset):
                out[i] ^= 0xFF
        return data if out is None else bytes(out)

    # -- crash injection -------------------------------------------------------

    def arm_crash(self, after_bytes: int) -> None:
        """Lose power once ``after_bytes`` more bytes have been appended.

        The append that crosses the threshold lands partially (a torn
        write) and raises :class:`DiskCrashed`; every subsequent operation
        fails until a new store is built over :meth:`crash_clone`.
        """
        if after_bytes < 0:
            raise ValueError("after_bytes must be >= 0")
        self._crash_after = after_bytes

    def disarm_crash(self) -> None:
        self._crash_after = None

    @property
    def crashed(self) -> bool:
        return self._crashed

    def crash(self) -> None:
        """Lose power immediately (between operations)."""
        self._crashed = True

    def clone(self) -> "SimulatedDisk":
        """A deep copy of the current durable state (stats start fresh).

        Everything written so far is considered durable — the legacy
        "everything synced" crash model.  The clone itself is fully synced.
        """
        copy = SimulatedDisk(sync_tracking=self.sync_tracking)
        copy._files = {name: bytearray(buf) for name, buf in self._files.items()}
        if self.sync_tracking:
            copy._synced = {name: len(buf) for name, buf in copy._files.items()}
        return copy

    def crash_clone(self, rng: "random.Random | int") -> "SimulatedDisk":
        """The durable state after a power failure *now* (seeded, torn).

        Every file keeps its synced prefix plus a seeded-random-length
        prefix of its unsynced tail (torn write); a file with nothing
        synced may be lost entirely.  With ``sync_tracking=False`` this is
        exactly :meth:`clone`.  The clone is healthy and fully synced; the
        same seed always produces the same clone.
        """
        if not self.sync_tracking:
            return self.clone()
        if isinstance(rng, int):
            rng = random.Random(rng)
        copy = SimulatedDisk(sync_tracking=True)
        for name in sorted(self._files):
            buf = self._files[name]
            synced = min(self._synced.get(name, 0), len(buf))
            keep = synced + rng.randint(0, len(buf) - synced)
            if synced == 0 and (keep == 0 or rng.random() < 0.25):
                continue  # never-synced file: creation itself was lost
            copy._files[name] = bytearray(buf[:keep])
            copy._synced[name] = keep
        return copy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimulatedDisk(files={len(self._files)}, bytes={self.total_bytes()})"


class SequentialWriter:
    """Append-only handle to one file."""

    def __init__(self, disk: SimulatedDisk, name: str) -> None:
        self._disk = disk
        self.name = name
        self.closed = False

    def append(self, data: bytes, tag: str) -> int:
        """Append ``data``; returns the offset at which it was written."""
        if self.closed:
            raise ValueError(f"append of {len(data)} bytes to {self.name!r}: "
                             f"writer is closed")
        return self._disk._append(self.name, data, tag)

    def sync(self) -> None:
        """Make everything appended so far durable (fsync)."""
        if self.closed:
            raise ValueError(f"sync of {self.name!r}: writer is closed")
        self._disk.sync(self.name)

    def tell(self) -> int:
        return self._disk.size(self.name)

    def close(self) -> None:
        """Close the handle; implies a final sync (like fsync-on-close)."""
        if self.closed:
            return
        if (self._disk.sync_tracking and not self._disk.crashed
                and self._disk.exists(self.name)):
            self._disk.sync(self.name)
        self.closed = True


class RandomAccessFile:
    """Positioned-read handle to one file."""

    def __init__(self, disk: SimulatedDisk, name: str) -> None:
        self._disk = disk
        self.name = name

    def read(self, offset: int, length: int, tag: str, pattern: str = RAND) -> bytes:
        return self._disk._read(self.name, offset, length, tag, pattern)

    def size(self) -> int:
        return self._disk.size(self.name)

