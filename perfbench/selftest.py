"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

1. The checker is not vacuous: a fake ``run_job`` output built from the
   goldens passes, a corrupted row is counted in ``page_ok_frac`` by the
   layer at fault, a flipped verdict in ``verdict_ok_frac``, and a
   duplicated url is a structural error.
2. ``run.py`` on a tiny ``job_curate`` prints every metric of
   BENCHMARK.json with its unit, with ``--trace 0`` and ``--trace 1``.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def expect(ok: bool, *detail) -> None:
    if not ok:
        raise AssertionError(detail)


def fake_job_output(w: workloads.Workload, out_dir: str, rows: pa.Table) -> None:
    """A one-group run_job layout holding ``rows``, with a manifest that
    agrees with what was written."""
    shard = os.path.join(out_dir, "shard=00000")
    os.makedirs(shard)
    os.makedirs(os.path.join(out_dir, "_manifest"))
    pq.write_table(rows, os.path.join(shard, "part-0.parquet"))
    manifest = {
        "group": 0,
        "input_files": sorted(os.listdir(w.pages_dir)),
        "rows": rows.num_rows,
        "wall_sec": 0.0,
        "content_hash_rollup": check._rollup(
            rows.column("content_sha256").to_pylist()),
    }
    with open(os.path.join(out_dir, "_manifest", "00000.json"), "w") as f:
        json.dump(manifest, f)


def replace_value(t: pa.Table, column: str, row: int, value) -> pa.Table:
    vals = t.column(column).to_pylist()
    vals[row] = value
    i = t.schema.get_field_index(column)
    return t.set_column(i, column, pa.array(vals, t.schema.field(i).type))


def check_fake(w, tmp: str, rows: pa.Table) -> check.Result:
    out_dir = tempfile.mkdtemp(dir=tmp)
    fake_job_output(w, out_dir, rows)
    res = check.Result()
    check.check_job(out_dir, w.pages_dir, w.golden, res)
    return res


def test_checker(tmp: str) -> None:
    spec = workloads.specs(scale=0.02)["job_curate"]
    w = workloads.generate(spec, 5, os.path.join(tmp, "pages"))
    exact = w.golden.select(check.OUTPUT_COLUMNS)

    res = check_fake(w, tmp, exact)
    expect(not res.structural and res.page_fail == 0, res.structural, res.fail)

    pdf_row = w.golden.column("content_type").to_pylist().index("pdf")
    html_row = w.golden.column("content_type").to_pylist().index("html")
    bad = replace_value(exact, "content_sha256", pdf_row, "0" * 64)
    bad = replace_value(bad, "parser_key", html_row, "not_a_parser")
    res = check_fake(w, tmp, bad)
    expect(not res.structural, res.structural)
    expect(res.fail == {"html": 0, "pdf": 1, "extractors": 1}, res.fail)
    m = run.end_to_end_metrics(w, res, [1.0], [1.0], [1])
    expect(m["page_ok_frac"] == 1 - 2 / w.golden.num_rows, m["page_ok_frac"])

    dup = pa.concat_tables([exact, exact.slice(0, 1)])
    res = check_fake(w, tmp, dup)
    expect(any("duplicate" in e for e in res.structural), res.structural)

    oracle = check.oracle_verdicts(w.golden, os.path.join(tmp, "oracle"))
    expect(pc.sum(pc.equal(oracle.column("verdict"), "host_cap")).as_py() > 0,
           "the oracle caps no host")
    for flip, want in ((False, 0), (True, 1)):
        verdicts = oracle
        if flip:
            old = verdicts.column("verdict")[0].as_py()
            verdicts = replace_value(verdicts, "verdict", 0,
                                     "exact_dup" if old != "exact_dup" else "")
        vdir = tempfile.mkdtemp(dir=tmp)
        pq.write_table(verdicts, os.path.join(vdir, "part-0.parquet"))
        res = check.Result()
        check.check_verdicts(vdir, oracle, res)
        expect(not res.structural and res.verdict_fail == want,
               res.structural, res.verdict_fail)
    print("checker: ok", flush=True)


def test_metric_names() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", "job_curate", "--seed", "3", "--seconds", "1",
             "--trace", str(trace), "--scale", "0.05"],
            stdout=subprocess.PIPE, text=True, timeout=600, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        expect(result["correct"] is True and result["attempted"] >= 1, result)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        want = {m["name"]: m["unit"] for m in declared}
        expect(got == want, trace, set(got) ^ set(want))
        print(f"metrics --trace {trace}: all {len(want)} present", flush=True)


def main() -> int:
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=run.WORK_ROOT)
    try:
        test_checker(tmp)
        test_metric_names()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
