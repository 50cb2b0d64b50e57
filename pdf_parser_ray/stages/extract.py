"""The fused extraction stage: raw page bytes -> extracted text, spans,
parser key, normalized records.

One ``map_batches`` task stage does charset decode + content-type
detection + HTML-or-PDF extraction + source detection + record
extraction + normalization in a single pass over each row
(SURVEY.md §3.4).  Fusing matters at scale: the ``html`` payload — by
far the widest column — is read from the zero-copy Arrow batch exactly
once and never re-shipped between stages (the reference parses every
document twice per request, SURVEY.md §3.1; we touch the bytes once).

The stage is a plain function run as stateless Ray tasks: all
rule-set/detection regexes are compiled once per worker process at
import, not per batch.  Byte-size skew is handled here, by the data:
a row whose payload exceeds ``GIANT_BYTES`` is extracted on its own
1-row slice, so a task never holds more than one decoded giant.
Everything is a pure function of the batch (year fallback comes from
``warc_ts``, not the wall clock), so task retries are byte-identical.
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..extractors import detect_source, get_extractor
from ..functions.charset import decode_payload
from ..functions.directions import normalize_records
from ..functions.scalars import text_to_lines
from ..html.extract import extract_main_text
from ..pdf.parse import extract_page_texts, is_pdf
from ..schemas import EXTRACTED_SCHEMA, NUM_BUCKETS, RECORD_TYPE, SPAN_TYPE

# payloads over this many bytes are extracted one row at a time
GIANT_BYTES = 8 * 1024 * 1024


def url_bucket(url: str, num_buckets: int = NUM_BUCKETS) -> int:
    """Stable url hash bucket — the single partition key reused for
    output layout, resume lineage, and any later co-location shuffle."""
    return zlib.crc32(url.encode("utf-8", "surrogatepass")) % num_buckets


def extract_one(payload: bytes, fallback_year: int) -> dict:
    """One page's full extraction; returns plain-Python column values."""
    if not payload:
        return {
            "content_type": "empty",
            "encoding": "empty",
            "parser_key": "generic",
            "extracted_text": "",
            "spans": [],
            "records": [],
        }
    if is_pdf(payload):
        page_texts = extract_page_texts(payload)
        text = "\n".join(page_texts)
        spans = []
        pos = 0
        for pt in page_texts:
            spans.append({"start": pos, "end": pos + len(pt), "kind": "page"})
            pos += len(pt) + 1
        content_type, encoding = "pdf", "binary"
    else:
        decoded, encoding = decode_payload(payload)
        text, spans = extract_main_text(decoded)
        content_type = "html"

    parser_key = detect_source(text)
    records = normalize_records(
        get_extractor(parser_key)(text_to_lines(text), text, fallback_year)
    )
    return {
        "content_type": content_type,
        "encoding": encoding,
        "parser_key": parser_key,
        "extracted_text": text,
        "spans": spans,
        "records": records,
    }


def extract_batch(batch: pa.Table) -> pa.Table:
    """Stateless batch UDF: ``pa.Table`` in (pages schema) ->
    ``pa.Table`` out (EXTRACTED_SCHEMA), rows in input order.  The wide
    ``html`` column is consumed here and dropped from the output.

    A batch holding a giant payload (> ``GIANT_BYTES``) is split at each
    giant row, so the Python heap holds at most one giant's decode at a
    time instead of every giant in the batch."""
    giant = pc.fill_null(
        pc.greater(pc.binary_length(batch.column("html")), GIANT_BYTES), False
    )
    if not pc.any(giant).as_py():
        return _extract_rows(batch)
    pieces = []
    start = 0
    for i in np.flatnonzero(giant.to_numpy(zero_copy_only=False)).tolist():
        if i > start:
            pieces.append(_extract_rows(batch.slice(start, i - start)))
        pieces.append(_extract_rows(batch.slice(i, 1)))
        start = i + 1
    if start < batch.num_rows:
        pieces.append(_extract_rows(batch.slice(start)))
    return pa.concat_tables(pieces)


def _extract_rows(batch: pa.Table) -> pa.Table:
    urls = batch.column("url").to_pylist()
    payloads = batch.column("html").to_pylist()
    # vectorized year-of-timestamp for the deterministic date fallback
    years = pc.year(batch.column("warc_ts")).to_pylist()

    cols: dict[str, list] = {
        "content_type": [],
        "encoding": [],
        "parser_key": [],
        "extracted_text": [],
        "spans": [],
        "records": [],
    }
    shas: list[str] = []
    n_records: list[int] = []
    buckets: list[int] = []
    for url, payload, year in zip(urls, payloads, years):
        out = extract_one(payload or b"", year or 2024)
        for k, v in out.items():
            cols[k].append(v)
        shas.append(hashlib.sha256(out["extracted_text"].encode("utf-8")).hexdigest())
        n_records.append(len(out["records"]))
        buckets.append(url_bucket(url))

    return pa.table(
        {
            "url": batch.column("url"),
            "warc_ts": batch.column("warc_ts"),
            "lang": batch.column("lang"),
            "content_type": pa.array(cols["content_type"], pa.string()),
            "encoding": pa.array(cols["encoding"], pa.string()),
            "parser_key": pa.array(cols["parser_key"], pa.string()),
            "extracted_text": pa.array(cols["extracted_text"], pa.large_string()),
            "spans": pa.array(cols["spans"], pa.list_(SPAN_TYPE)),
            "records": pa.array(cols["records"], pa.list_(RECORD_TYPE)),
            "n_records": pa.array(n_records, pa.int32()),
            "content_sha256": pa.array(shas, pa.string()),
            "bucket": pa.array(buckets, pa.int32()),
        },
        schema=EXTRACTED_SCHEMA,
    )
