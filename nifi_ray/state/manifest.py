"""Versioned commit manifest — the lake's single source of truth.

Layout (all paths relative to the lake root):

    _manifest/v{N:06d}.json     committed manifest versions
    p={k:05d}/part-v{N:06d}[-{token}].parquet   partition data files (COW)
    _delta/delta-v{N:06d}-p{lo:05d}-{hi:05d}[-{token}].parquet
                                one merge-on-read tick file per apply
                                task: the collapsed events of the task's
                                pids [lo, hi), one row group in pid order;
                                each partition's entry names its rows

Two-phase commit: apply tasks write partition part files (phase 1,
deterministic names, published with ``publish_part`` — exclusive link;
a retried task re-links identical bytes, a CONCURRENT WRITER's
different bytes raise ``CommitConflict`` before any manifest could
reference them), then the driver links ``v{N}.json`` into place
(phase 2, atomic + exclusive). Readers only ever trust the highest
committed ``v*.json``; part files not referenced by it are invisible
orphans, ignored on read and removed by ``gc()``.

This collapses three NiFi mechanisms into one structure (SURVEY.md §3.2):
- session-commit atomicity: StandardProcessSession.commit orders
  provenance → claims → WAL → queues (reference
  nifi-framework-core/.../repository/StandardProcessSession.java:303-427);
  here, data files are worthless until the manifest rename publishes them;
- PutHDFS's tmp-write-then-atomic-rename sink (reference
  nifi-hdfs-processors/.../PutHDFS.java:233-356);
- component state / watermarks (StateManager Scope.CLUSTER, reference
  nifi-api/.../components/state/StateManager.java): ``applied_through``
  is the per-lake resume point, per-partition ``max_lsn`` the fine-grained
  watermark.

``lineage`` entries stand in for NiFi's provenance repository (reference
nifi-api/.../provenance/ProvenanceEventType.java:25-135): one record per
commit with input event ranges, per-partition row/byte counts and
content hashes.
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass, field, replace
from typing import Any

import pyarrow as pa

_MANIFEST_DIR = "_manifest"
_V_RE = re.compile(r"^v(\d{6})\.json$")

# Inline provenance window: each committed manifest carries at most this
# many full lineage records; older records are aged off into one ROLLUP
# head (NiFi analog: the provenance repository's max.storage.time age-off,
# reference nifi-docs/src/main/asciidoc/administration-guide.adoc
# provenance section). Without the bound, every commit re-serializes
# O(history) JSON — at the 10^10-event regime (10^4-10^5 ticks) commit
# cost and manifest bytes would grow linearly with lake age (measured:
# ~15 KB/tick with 64 partitions). Full per-tick provenance within the
# retention window stays queryable from the RETAINED older manifests.
LINEAGE_KEEP = 64

# counters summed into the rollup when a record ages off
_ROLLUP_SUMS = (
    "events_applied",
    "dups_dropped",
    "quarantined",
    "deletes",
    "bytes_written",
    "wall_sec",
    "deltas_folded",
)


def append_lineage(
    prev: list[dict[str, Any]], record: dict[str, Any], keep: int | None = None
) -> list[dict[str, Any]]:
    """``prev + [record]`` with the oldest records aged off into a single
    ROLLUP head once the inline window exceeds ``keep``. The newest
    ``keep`` records are always carried verbatim (``lineage[-1]`` is
    stable for callers); the rollup preserves the aggregate counters."""
    keep = LINEAGE_KEEP if keep is None else keep
    out = list(prev) + [record]
    if len(out) <= keep + 1:  # +1: an existing rollup head doesn't count
        return out
    head = (
        dict(out[0])
        if out and out[0].get("kind") == "ROLLUP"
        else {"kind": "ROLLUP", "records": 0, "kinds": {}, **{k: 0 for k in _ROLLUP_SUMS}}
    )
    aged, out = out[:-keep], out[-keep:]
    if aged and aged[0].get("kind") == "ROLLUP":
        aged = aged[1:]
    for r in aged:
        head["records"] += 1
        kinds = head.setdefault("kinds", {})
        kinds[r.get("kind", "?")] = kinds.get(r.get("kind", "?"), 0) + 1
        for k in _ROLLUP_SUMS:
            if k in r:
                head[k] = round(head.get(k, 0) + r[k], 3)
        rng = r.get("lsn_range")
        if rng:
            head["lsn_lo"] = min(head.get("lsn_lo", rng[0]), rng[0])
            head["lsn_hi"] = max(head.get("lsn_hi", rng[1]), rng[1])
    return [head] + out


def _schema_to_b64(schema: pa.Schema) -> str:
    import base64

    return base64.b64encode(schema.serialize().to_pybytes()).decode()


def _schema_from_b64(s: str) -> pa.Schema:
    import base64

    return pa.ipc.read_schema(pa.BufferReader(base64.b64decode(s)))


@dataclass
class Manifest:
    version: int
    num_partitions: int
    schema_version: int
    schema: pa.Schema
    applied_through: int  # resume watermark: all events with lsn <= this are applied
    partitions: dict[int, dict[str, Any]] = field(default_factory=dict)
    # partitions[k] = {file, rows, max_lsn, token_hash, hash_rev
    #                  [, deltas: [...], delta_meta: {...}]}
    # ``hash_rev``: revision of the ``state_checksum`` that produced
    # ``token_hash`` (missing = rev 1). ``deltas``: merge-on-read part
    # files written by delta-mode replay (collapsed events incl.
    # tombstones, newest last); ``file``/``rows``/``token_hash`` then
    # describe the last COMPACTED state — readers overlay deltas by LWW,
    # ``compact()`` folds them back in. ``delta_meta[d]`` = {rows, hash,
    # hash_rev, offset}: this partition's rows [offset, offset + rows)
    # of tick file ``d`` (shared by the task's partitions) and their
    # checksum, so ``verify()`` covers them. An entry without ``offset``
    # owns its whole file.
    lineage: list[dict[str, Any]] = field(default_factory=list)
    created_unix: float = 0.0

    def to_json(self) -> str:
        return json.dumps(
            {
                "version": self.version,
                "num_partitions": self.num_partitions,
                "schema_version": self.schema_version,
                "schema_b64": _schema_to_b64(self.schema),
                "schema_repr": str(self.schema).splitlines(),
                "applied_through": self.applied_through,
                "partitions": {str(k): v for k, v in self.partitions.items()},
                "lineage": self.lineage,
                "created_unix": self.created_unix,
            },
            indent=1,
        )

    @staticmethod
    def from_json(text: str) -> "Manifest":
        d = json.loads(text)
        return Manifest(
            version=d["version"],
            num_partitions=d["num_partitions"],
            schema_version=d["schema_version"],
            schema=_schema_from_b64(d["schema_b64"]),
            applied_through=d["applied_through"],
            partitions={int(k): v for k, v in d["partitions"].items()},
            lineage=d["lineage"],
            created_unix=d.get("created_unix", 0.0),
        )

    def advance(self, record: dict[str, Any], **changes: Any) -> "Manifest":
        """The next version: this manifest with ``record`` appended to
        its lineage and ``changes`` (dataclass fields) applied. Every
        commit after the first is built this way, so version + 1 and the
        lineage append live in one place."""
        return replace(
            self,
            version=self.version + 1,
            lineage=append_lineage(self.lineage, record),
            **changes,
        )

    def data_files(self, lake_dir: str) -> list[str]:
        return [os.path.join(lake_dir, e["file"]) for e in self.partitions.values()]

    def has_deltas(self) -> bool:
        return any(e.get("deltas") for e in self.partitions.values())


def partition_dir(k: int) -> str:
    return f"p={k:05d}"


def part_file(k: int, version: int, token: str | None = None) -> str:
    """Part name for (partition, version) + an optional TICK TOKEN.

    The token is a deterministic hash of the tick's inputs (base
    manifest version, lsn bounds, event files, mode): a Ray-retried
    task or an identical re-run of a crashed tick regenerates the SAME
    name (and identical bytes — publish_part dedups), while any
    DIFFERENT attempt at the same version — a resumed tick with other
    bounds, a concurrent writer with other events — gets distinct
    names and can never overwrite in-flight files another writer's
    manifest might reference. The manifest stores full paths, so
    readers never reconstruct names."""
    tok = f"-{token}" if token else ""
    return os.path.join(partition_dir(k), f"part-v{version:06d}{tok}.parquet")


def delta_file(pid_lo: int, pid_hi: int, version: int, token: str | None = None) -> str:
    """Tick delta file of the apply task for pids [pid_lo, pid_hi) at
    ``version``, under the same tick-token rule as ``part_file``."""
    tok = f"-{token}" if token else ""
    return os.path.join(
        "_delta", f"delta-v{version:06d}-p{pid_lo:05d}-{pid_hi:05d}{tok}.parquet"
    )


def manifest_path(lake_dir: str, version: int) -> str:
    return os.path.join(lake_dir, _MANIFEST_DIR, f"v{version:06d}.json")


def latest_version(lake_dir: str) -> int | None:
    versions = retained_versions(lake_dir)
    return versions[-1] if versions else None


def retained_versions(lake_dir: str) -> list[int]:
    """Sorted committed manifest versions still on disk (the time-travel
    / provenance window; ``expire_versions`` shrinks it)."""
    mdir = os.path.join(lake_dir, _MANIFEST_DIR)
    if not os.path.isdir(mdir):
        return []
    return sorted(int(m.group(1)) for f in os.listdir(mdir) if (m := _V_RE.match(f)))


def load_manifest(lake_dir: str, version: int | None = None) -> Manifest | None:
    if version is None:
        version = latest_version(lake_dir)
        if version is None:
            return None
    with open(manifest_path(lake_dir, version)) as f:
        return Manifest.from_json(f.read())


class CommitConflict(ValueError):
    """Another writer committed this version (manifest link race) or
    published different bytes at a deterministic part path. Retryable:
    reload the latest manifest and re-run the tick — watermark dedup
    makes re-application exactly-once."""


def _file_md5(path: str) -> str:
    import hashlib

    h = hashlib.md5()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def publish_part(tmp: str, out: str) -> None:
    """Phase-1 atomic + EXCLUSIVE data-part publish.

    Part names are deterministic per (partition, version), so exclusive
    manifest commit alone cannot protect the data: two writers racing
    the same version would silently overwrite each other's part files
    with ``os.replace`` and the manifest winner could end up
    referencing the loser's bytes. ``os.link`` makes the first publish
    win; a second publish with IDENTICAL content (a Ray-retried task or
    an idempotent re-replay — part bytes are a pure function of inputs)
    is success, different content raises ``CommitConflict`` so the
    losing tick aborts before its manifest commit."""
    try:
        os.link(tmp, out)
    except FileExistsError:
        if _file_md5(tmp) != _file_md5(out):
            raise CommitConflict(
                f"part {out} published concurrently by another writer with "
                "different content — tick lost the version race; retry"
            ) from None
    finally:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass


def publish_once(path: str, write) -> None:
    """First-wins publish of a derived file: ``write(tmp)``, then
    ``os.link``; EEXIST means a concurrent writer already published
    content equivalent by construction, so losing is a no-op."""
    tmp = path + f".tmp-{os.getpid()}"
    write(tmp)
    try:
        os.link(tmp, path)
    except FileExistsError:
        pass
    finally:
        os.unlink(tmp)


def commit_manifest(lake_dir: str, manifest: Manifest) -> str:
    """Phase-2 atomic publish — atomic AND exclusive: the version file
    is linked into place with ``os.link``, which fails with EEXIST if
    another writer already committed that version (optimistic
    concurrency, the Delta-log trick). ``os.replace`` would silently
    last-writer-win and lose the other commit's files from the chain —
    a lost update the exactly-once contract forbids. Refuses to go
    backwards in version."""
    cur = latest_version(lake_dir)
    if cur is not None and manifest.version <= cur:
        # same conflict class as the link race below: the writer built
        # this version from a manifest another writer has since
        # superseded — retryable
        raise CommitConflict(
            f"manifest v{manifest.version} not newer than committed v{cur}"
        )
    manifest.created_unix = time.time()
    mdir = os.path.join(lake_dir, _MANIFEST_DIR)
    os.makedirs(mdir, exist_ok=True)
    path = manifest_path(lake_dir, manifest.version)
    tmp = path + f".tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        f.write(manifest.to_json())
        f.flush()
        os.fsync(f.fileno())
    try:
        os.link(tmp, path)  # atomic, EEXIST on concurrent commit
    except FileExistsError:
        raise CommitConflict(
            f"manifest v{manifest.version} committed concurrently by another "
            "writer — re-read the latest manifest and retry the tick"
        ) from None
    finally:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
    return path


def expire_versions(lake_dir: str, keep_last: int = 2) -> list[int]:
    """Delete manifest versions older than the newest ``keep_last``.
    Run before ``gc_orphans`` to release their exclusive part files.
    The latest manifest is never expired."""
    expired = retained_versions(lake_dir)[: -max(keep_last, 1)]
    for v in expired:
        os.remove(manifest_path(lake_dir, v))
    return expired


def gc_orphans(lake_dir: str) -> list[str]:
    """Remove part files not referenced by ANY committed manifest
    (crash leftovers; part files of expired versions). Files of every
    retained manifest are kept so rollback/resume to an older committed
    version never dangles — call ``expire_versions`` first to shrink
    the retained set. NiFi analog: orphaned content-claim cleanup on
    restart (reference nifi-docs/src/main/asciidoc/nifi-in-depth.adoc:52)."""
    versions = retained_versions(lake_dir)
    if not versions:
        return []
    live: set[str] = set()
    for v in versions:
        m = load_manifest(lake_dir, v)
        for e in m.partitions.values():
            live.add(os.path.normpath(e["file"]))
            live |= {os.path.normpath(d) for d in e.get("deltas", [])}
    removed = []
    for root, _dirs, files in os.walk(lake_dir):
        # quarantined-event parts live outside manifest accounting by
        # design (diagnostic side-channel, content-addressed) — never GC
        _dirs[:] = [d for d in _dirs if d != "_quarantine"]
        for f in files:
            if not f.endswith(".parquet"):
                continue
            full = os.path.join(root, f)
            rel = os.path.normpath(os.path.relpath(full, lake_dir))
            if rel not in live:
                os.remove(full)
                removed.append(rel)
    return removed
