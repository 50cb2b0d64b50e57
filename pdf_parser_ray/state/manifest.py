"""Per-partition lineage manifests + resumable job driver.

The resumability contract (north_rule: "resumable from checkpoint with
per-partition lineage + metrics"):

* The unit of checkpointing is a **shard group** — a fixed slice of the
  sorted input file list.  Group identity is a pure function of the
  input listing, so a restarted job computes the same groups.
* Each group's output lands under ``out_dir/shard=NNNNN/`` and is made
  visible *atomically*: results are written to a temp directory and
  renamed into place, then a one-line JSON lineage record
  (input files, row count, record count, content-hash rollup, wall
  time, throughput) is written to ``out_dir/_manifest/NNNNN.json`` via
  the same write-temp-then-rename dance.  A crash mid-group leaves no
  manifest entry, so the group reruns from scratch; finished groups are
  skipped on resume without touching their data.
* Identity/ordering of *rows* inside a group doesn't matter — the
  north-rule invariant is per-url, and extraction is deterministic.

At 100 TB the same layout holds: groups of ~N parquet shards each are
sized so one group ≈ one streaming-executor run of a few minutes, and a
killed ``ray job submit`` re-run skips completed groups by listing one
small manifest directory.
"""

from __future__ import annotations

import json
import os
import shutil
import time
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.json as pj
import pyarrow.parquet as pq
import ray

from ..pipelines.extract import (
    DEFAULT_BATCH_SIZE,
    build_extraction_pipeline,
    read_pages,
)


def _atomic_write_json(path: str, payload: dict) -> None:
    tmp = f"{path}.tmp.{uuid.uuid4().hex[:8]}"
    with open(tmp, "w") as f:
        json.dump(payload, f, sort_keys=True)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def list_shard_groups(input_dir: str, group_size: int) -> list[list[str]]:
    files = sorted(
        os.path.join(input_dir, f)
        for f in os.listdir(input_dir)
        if f.endswith(".parquet")
    )
    return [files[i : i + group_size] for i in range(0, len(files), group_size)]


def completed_groups(out_dir: str) -> set[int]:
    mdir = os.path.join(out_dir, "_manifest")
    if not os.path.isdir(mdir):
        return set()
    done = set()
    for name in os.listdir(mdir):
        if name.endswith(".json") and not name.startswith("_"):
            try:
                done.add(int(name[:-5]))
            except ValueError:
                continue
    return done


_LINEAGE_SCHEMA = pa.schema([("n_records", pa.int64()), ("content_sha256", pa.string())])


@ray.remote
def _file_lineage(path: str) -> tuple[int, int, int]:
    """(rows, records, content-hash rollup) of one written output file,
    read from its two lineage columns only.  The rollup XORs the first
    16 hex digits (64 bits) of every row's content sha256, so it is
    order-insensitive."""
    if path.endswith(".parquet"):
        t = pq.read_table(path, columns=_LINEAGE_SCHEMA.names)
    elif not os.path.getsize(path):
        t = _LINEAGE_SCHEMA.empty_table()  # pyarrow rejects an empty JSON file
    else:
        # one block per file: a JSON line must not straddle two blocks
        t = pj.read_json(
            path,
            read_options=pj.ReadOptions(block_size=os.path.getsize(path) + 1),
            parse_options=pj.ParseOptions(
                explicit_schema=_LINEAGE_SCHEMA, unexpected_field_behavior="ignore"
            ),
        )
    prefixes = pc.utf8_slice_codeunits(t.column("content_sha256"), 0, 16)
    words = np.frombuffer(bytes.fromhex("".join(prefixes.to_pylist())), ">u8")
    rollup = int(np.bitwise_xor.reduce(words.astype(np.uint64), initial=0))
    return t.num_rows, pc.sum(t.column("n_records")).as_py() or 0, rollup


def _group_lineage(tmp_dir: str) -> tuple[int, int, int]:
    """Lineage stats over a group's written files (parquet or JSONL):
    one Ray task per file, the driver only combines three ints each."""
    paths = [
        os.path.join(tmp_dir, n)
        for n in sorted(os.listdir(tmp_dir))
        if n.endswith((".parquet", ".json"))
    ]
    rows = n_records = rollup = 0
    for r, nr, h in ray.get([_file_lineage.remote(p) for p in paths]):
        rows += r
        n_records += nr
        rollup ^= h
    return rows, n_records, rollup


def run_job(
    input_dir: str,
    out_dir: str,
    *,
    group_size: int = 8,
    batch_size: int = DEFAULT_BATCH_SIZE,
    output_format: str = "parquet",
) -> dict:
    """Run (or resume) the extraction job over a directory of pages
    parquet shards.  Returns a summary with per-group metrics.

    ``output_format="jsonl"`` writes newline-delimited JSON instead of
    parquet — the reference service's native output shape (app.py
    returns a JSON record array per document).  Parquet remains the
    at-scale sink: JSONL lineage stats can't column-prune, so each
    output file is fully parsed by its lineage task.  Nested record/span
    columns serialize as JSON objects either way."""
    os.makedirs(os.path.join(out_dir, "_manifest"), exist_ok=True)
    # sweep tmp dirs left by crashed writes — resume only trusts
    # manifests, so these are dead weight that would otherwise
    # accumulate a fresh uuid-suffixed dir per crashed rerun
    for name in os.listdir(out_dir):
        if name.startswith("_tmp.shard="):
            shutil.rmtree(os.path.join(out_dir, name), ignore_errors=True)
    groups = list_shard_groups(input_dir, group_size)
    done = completed_groups(out_dir)

    summary: dict = {"groups": len(groups), "skipped": 0, "ran": [], "rows": 0}
    for gid, files in enumerate(groups):
        if gid in done:
            summary["skipped"] += 1
            continue
        t0 = time.perf_counter()
        ds = build_extraction_pipeline(read_pages(files), batch_size=batch_size)

        final_dir = os.path.join(out_dir, f"shard={gid:05d}")
        tmp_dir = os.path.join(out_dir, f"_tmp.shard={gid:05d}.{uuid.uuid4().hex[:8]}")
        # Ray writes no directory for a 0-row group; made here, an empty
        # input shard still commits an empty shard dir and its manifest
        os.makedirs(tmp_dir)
        # the heavy write is distributed (workers stream blocks straight
        # to parquet/json); the driver never materializes the data
        if output_format == "jsonl":
            ds.write_json(tmp_dir)
        else:
            ds.write_parquet(tmp_dir)
        rows, n_records, hash_rollup = _group_lineage(tmp_dir)
        if os.path.isdir(final_dir):
            shutil.rmtree(final_dir)
        os.replace(tmp_dir, final_dir)

        wall = time.perf_counter() - t0
        in_bytes = sum(os.path.getsize(f) for f in files)
        _atomic_write_json(
            os.path.join(out_dir, "_manifest", f"{gid:05d}.json"),
            {
                "group": gid,
                "input_files": [os.path.basename(f) for f in files],
                "input_bytes": in_bytes,
                "rows": rows,
                "records": n_records,
                "content_hash_rollup": f"{hash_rollup:016x}",
                "wall_sec": round(wall, 4),
                "rows_per_sec": round(rows / wall, 2) if wall > 0 else None,
                "mb_per_sec": round(in_bytes / wall / 1e6, 3) if wall > 0 else None,
            },
        )
        summary["ran"].append(gid)
        summary["rows"] += rows
    return summary
