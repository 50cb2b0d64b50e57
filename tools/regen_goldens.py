"""Regenerate the committed rows-only goldens (VERDICT r04 ask #7).

Eight queries have no SQL-expressible oracle (codec decode, iterative
BPE merges, zlib ratios, sketch folds) but ARE bit-deterministic:
fixed-seed synthetic media, integer feature math, seeded merges.  Their
canonical outputs at the driver's oracle scale (sf0.01; the multimodal
pipelines are sf-independent fixed-n corpora) are committed as parquet
under goldens/rows_only/, and oracle_sql() serves them as plain
SELECTs — upgrading the driver gate from rows-only to full
rows+schema+value-hash for these entries.

Run this tool ONLY when the pipeline semantics intentionally change
(new codec, retuned banding, different merge count), then re-run the
test suite: tests/test_multimodal.py's independent md5 value-hash
goldens and the sketch/BPE unit tests must be updated in the same
commit, so a regeneration can never silently ratify a regression.

Usage: python tools/regen_goldens.py
"""
import os
import sys
from pathlib import Path

import ray

ray.init(address="local", num_cpus=8, include_dashboard=False)

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))
import __ray_entry__ as e  # noqa: E402

SF = "/root/testdata/sf0.01"
OUT = str(ROOT / "goldens" / "rows_only")

# name -> canonical sort keys (full-column sort is ambiguous for wide
# binary payloads; explicit keys keep the files byte-stable)
GOLDEN_QUERIES = {
    "compression_ratio": ["doc_id"],
    "train_bpe": ["rank"],
    "bpe_segment_counts": ["doc_id"],
    "approx_distinct_users": ["event_type"],
    "heavy_hitters": ["user_id"],
    "approx_event_quantiles": ["event_type"],
    "media_features": ["media_id"],
    "image_resize": ["media_id"],
    "image_dedup": ["media_id_a", "media_id_b"],
    "audio_dedup": ["media_id_a", "media_id_b"],
    "frame_sample": ["media_id", "frame_idx"],
    "audio_features": ["media_id"],
}

os.makedirs(OUT, exist_ok=True)
queries = e.queries()
for name, keys in GOLDEN_QUERIES.items():
    res = queries[name](SF)
    df = res.to_pandas() if hasattr(res, "to_pandas") else res
    df = df.sort_values(keys).reset_index(drop=True)
    path = os.path.join(OUT, f"{name}.parquet")
    import pyarrow as pa
    import pyarrow.parquet as pq

    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), path)
    print(f"{name:24s} rows={len(df):6d} -> {path}")

ray.shutdown()
print("done")
