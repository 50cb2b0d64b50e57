"""Output checks for one job run against the workload's goldens.

Mismatched rows are *counted*, not raised: a page whose text hash,
parser key or records differ from its golden is a page failure, and a
url whose curation verdict differs from the DuckDB oracle is a verdict
failure.  Only structural errors make a run incorrect: a missing,
extra or duplicate url, manifest ``rows`` that differ from the input
rows, or a ``content_hash_rollup`` that does not match the written
output.
"""

from __future__ import annotations

import json
import os
from contextlib import ExitStack
from dataclasses import dataclass, field
from unittest import mock

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

OUTPUT_COLUMNS = ["url", "content_sha256", "parser_key", "records"]


@dataclass
class Result:
    pages: int = 0
    urls: int = 0  # curation verdicts checked
    fail: dict = field(
        default_factory=lambda: {"html": 0, "pdf": 0, "extractors": 0}
    )
    verdict_fail: int = 0
    structural: list = field(default_factory=list)
    group_wall_s: list = field(default_factory=list)  # manifest wall_sec

    @property
    def page_fail(self) -> int:
        return sum(self.fail.values())


def _read_files(paths: list[str], columns: list[str]) -> pa.Table:
    tables = [pq.read_table(p, columns=columns) for p in paths]
    return pa.concat_tables(tables) if tables else None


def _parquet_files(d: str) -> list[str]:
    return sorted(
        os.path.join(d, f) for f in os.listdir(d) if f.endswith(".parquet")
    )


def _rollup(shas: list[str]) -> str:
    h = 0
    for s in shas:
        h ^= int(s[:16], 16)
    return f"{h:016x}"


def check_job(out_dir: str, pages_dir: str, golden: pa.Table,
              res: Result) -> None:
    """Check ``run_job``'s output directory: per-group manifests, then
    every output row against its golden."""
    mdir = os.path.join(out_dir, "_manifest")
    shard_dirs = sorted(d for d in os.listdir(out_dir) if d.startswith("shard="))
    manifests = sorted(f for f in os.listdir(mdir) if f.endswith(".json"))
    if len(manifests) != len(shard_dirs):
        res.structural.append(
            f"{len(manifests)} manifests for {len(shard_dirs)} shard dirs"
        )
    parts = []
    for name in manifests:
        with open(os.path.join(mdir, name)) as f:
            m = json.load(f)
        res.group_wall_s.append(m["wall_sec"])
        shard = os.path.join(out_dir, f"shard={m['group']:05d}")
        if not os.path.isdir(shard):
            res.structural.append(f"group {m['group']}: no shard dir")
            continue
        in_rows = sum(
            pq.ParquetFile(os.path.join(pages_dir, f)).metadata.num_rows
            for f in m["input_files"]
        )
        t = _read_files(_parquet_files(shard), OUTPUT_COLUMNS)
        n = 0 if t is None else t.num_rows
        if not m["rows"] == in_rows == n:
            res.structural.append(
                f"group {m['group']}: manifest rows {m['rows']},"
                f" input rows {in_rows}, written rows {n}"
            )
        shas = [] if t is None else t.column("content_sha256").to_pylist()
        if m["content_hash_rollup"] != _rollup(shas):
            res.structural.append(f"group {m['group']}: content_hash_rollup")
        if t is not None:
            parts.append(t)
    if not parts:
        res.structural.append("no output rows")
        res.pages += golden.num_rows
        return
    compare_pages(pa.concat_tables(parts), golden, res)


def _url_set_errors(what: str, got: pa.Array, want: pa.Array) -> list[str]:
    errors = []
    n_unique = len(pc.unique(got))
    if n_unique != len(got):
        errors.append(f"{what}: {len(got) - n_unique} duplicate urls")
    missing = pc.sum(pc.invert(pc.is_in(want, got))).as_py() or 0
    extra = pc.sum(pc.invert(pc.is_in(got, want))).as_py() or 0
    if missing or extra:
        errors.append(f"{what}: {missing} urls missing, {extra} unexpected")
    return errors


def compare_pages(out: pa.Table, golden: pa.Table, res: Result) -> None:
    """Count output rows whose text hash, parser key or records differ
    from the golden row of the same url, by the layer at fault."""
    errors = _url_set_errors("pages", out.column("url"), golden.column("url"))
    res.structural.extend(errors)
    res.pages += golden.num_rows
    if errors:
        return
    out = out.sort_by("url")
    g = golden.sort_by("url")
    text_ok = pc.equal(out.column("content_sha256"), g.column("content_sha256"))
    key_ok = pc.equal(out.column("parser_key"), g.column("parser_key"))
    kinds = g.column("content_type").to_pylist()
    out_recs = out.column("records").to_pylist()
    g_recs = g.column("records").to_pylist()
    for i, (t_ok, k_ok) in enumerate(zip(text_ok.to_pylist(), key_ok.to_pylist())):
        if not t_ok:
            res.fail["pdf" if kinds[i] == "pdf" else "html"] += 1
        elif not k_ok or out_recs[i] != g_recs[i]:
            res.fail["extractors"] += 1


def oracle_verdicts(golden: pa.Table, work_dir: str) -> pa.Table:
    """(url, verdict) for the workload, from the ``curate_pages`` DuckDB
    mirror in ``__ray_entry__._extract_oracle_sql`` run over this
    workload's goldens."""
    import duckdb

    import __ray_entry__ as entry
    from pdf_parser_ray.fixtures import gen

    os.makedirs(work_dir, exist_ok=True)
    golden_path = os.path.join(work_dir, "golden.parquet")
    pq.write_table(
        golden.select(["url", "content_sha256", "extracted_text"]), golden_path
    )
    with ExitStack() as stack:
        # point the oracle SQL at this workload's goldens instead of
        # the fixture corpus it synthesizes by default
        for target, name, value in (
            (entry, "_ORACLE_SF_DIR", work_dir),
            (entry, "_CACHE_ROOT", work_dir),
            (gen, "golden_paths_for", lambda *a: (golden_path, golden_path)),
            (gen, "golden_tables_path_for", lambda *a: golden_path),
            (gen, "golden_links_path_for", lambda *a: golden_path),
        ):
            stack.enter_context(mock.patch.object(target, name, value))
        sql = entry._extract_oracle_sql()["curate_pages"]
    con = duckdb.connect()
    try:
        return con.execute(sql).arrow()
    finally:
        con.close()


def check_verdicts(verdict_dir: str, oracle: pa.Table, res: Result) -> None:
    res.urls += oracle.num_rows
    got = _read_files(_parquet_files(verdict_dir), ["url", "verdict"])
    if got is None:
        res.structural.append("no verdict files")
        return
    errors = _url_set_errors("verdicts", got.column("url"), oracle.column("url"))
    res.structural.extend(errors)
    if errors:
        return
    got = got.sort_by("url")
    want = oracle.sort_by("url")
    same = pc.equal(got.column("verdict"), want.column("verdict"))
    res.verdict_fail += len(same) - (pc.sum(same).as_py() or 0)
