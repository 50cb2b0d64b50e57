"""Driver simulation: init Ray first, then exercise the __ray_entry__
contract exactly as the graft driver does, comparing every query that
has an oracle against DuckDB at sf0.01.

``--json OUT`` additionally writes a machine-readable sweep summary
(one entry per query: rows + MATCH / no_oracle / fail) — committed
per round as SWEEP_r{N}.json so the non-driver-gated oracle tail has
a driver-shaped hard signal (VERDICT r03 ask #5).
"""
import json
import os
import sys
from pathlib import Path

import duckdb
import pandas as pd
import ray

ray.init(address="local", num_cpus=8, include_dashboard=False)

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import __ray_entry__ as e  # noqa: E402

SF = "/root/testdata/sf0.01"

oracles = e.oracle_sql()  # cold-cache order probe: SQL first
queries = e.queries()

con = duckdb.connect()
for t in ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split():
    p = os.path.join(SF, f"{t}.parquet")
    if os.path.exists(p):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")

def to_pdf(res):
    if isinstance(res, pd.DataFrame):
        return res
    if hasattr(res, "to_pandas"):
        return res.to_pandas()
    return pd.DataFrame(res)

fails = []
summary = {}
for name, fn in queries.items():
    try:
        got = to_pdf(fn(SF))
    except Exception as ex:  # noqa: BLE001
        fails.append((name, f"query raised: {ex!r}"))
        summary[name] = {"status": "fail", "err": repr(ex)}
        continue
    if name not in oracles:
        print(f"{name:24s} rows={len(got):6d}  (no oracle)")
        summary[name] = {"status": "no_oracle", "rows": len(got)}
        continue
    want = con.execute(oracles[name]).fetchdf()
    tag = ""
    if len(got) != len(want):
        fails.append((name, f"rows {len(got)} vs {len(want)}"))
        summary[name] = {"status": "fail", "err": "row count"}
        continue
    g = got.reindex(sorted(got.columns), axis=1)
    w = want.reindex(sorted(want.columns), axis=1)
    if list(g.columns) != list(w.columns):
        fails.append((name, f"cols {list(g.columns)} vs {list(w.columns)}"))
        summary[name] = {"status": "fail", "err": "columns"}
        continue
    g = g.sort_values(list(g.columns)).reset_index(drop=True)
    w = w.sort_values(list(w.columns)).reset_index(drop=True)
    try:
        pd.testing.assert_frame_equal(g, w, check_dtype=False,
                                      check_exact=False, atol=1e-6, rtol=1e-6)
    except AssertionError as ex:
        fails.append((name, str(ex).splitlines()[0]))
        summary[name] = {"status": "fail", "err": "values"}
        continue
    print(f"{name:24s} rows={len(got):6d}  MATCH{tag}")
    summary[name] = {"status": "MATCH", "rows": len(got)}

ent = e.entry()
ep = to_pdf(ent)
print(f"entry() rows={len(ep)} cols={list(ep.columns)[:6]}...")
assert len(ep) >= 0

ray.shutdown()
if "--json" in sys.argv:
    out_path = sys.argv[sys.argv.index("--json") + 1]
    n_match = sum(1 for v in summary.values() if v["status"] == "MATCH")
    n_no = sum(1 for v in summary.values() if v["status"] == "no_oracle")
    with open(out_path, "w") as f:
        json.dump(
            {
                "sf": SF,
                "n_queries": len(summary),
                "n_oracle_match": n_match,
                "n_no_oracle": n_no,
                "n_fail": len(summary) - n_match - n_no,
                "queries": summary,
            },
            f,
            indent=1,
        )
    print(f"wrote {out_path}")
if fails:
    print("\nFAILURES:")
    for n, m in fails:
        print(f"  {n}: {m}")
    sys.exit(1)
print("\nALL OK")
