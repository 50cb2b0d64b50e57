"""Job entry point for ``ray job submit`` (SURVEY.md §2.1 S4):

    ray job submit -- python -m pdf_parser_ray.job \\
        --input /data/pages --output /data/extracted \\
        --group-size 8 --batch-size 64 [--format jsonl]

Runs (or resumes) the extraction job with per-group lineage manifests.
The fused extraction stage runs as stateless Ray tasks and isolates
giant payloads by itself, so the job has no pool or skew options.
``--query NAME --sf-dir DIR`` runs any named table operator from
``pdf_parser_ray.registry`` instead (``--list-queries`` enumerates).
Owns its Ray session (guarded init; the library itself never inits).
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv: list[str] | None = None) -> int:
    from pdf_parser_ray.pipelines.extract import DEFAULT_BATCH_SIZE

    ap = argparse.ArgumentParser(prog="pdf_parser_ray.job")
    ap.add_argument("--input", help="directory of pages parquet shards")
    ap.add_argument("--output", help="output directory (resumable layout)")
    ap.add_argument("--group-size", type=int, default=8)
    ap.add_argument("--batch-size", type=int, default=DEFAULT_BATCH_SIZE)
    ap.add_argument("--num-cpus", type=int, default=None,
                    help="only for local testing; omit on a real cluster")
    ap.add_argument("--curate", action="store_true",
                    help="after extraction, run the page-curation "
                         "composition (exact dedup + host cap + quality "
                         "gate) over --output and write per-url verdicts "
                         "parquet (parquet sink only)")
    ap.add_argument("--format", choices=("parquet", "jsonl"), default="parquet",
                    help="extraction sink format (jsonl = the reference "
                         "service's native JSON output shape)")
    ap.add_argument("--query", metavar="NAME",
                    help="run a named table operator from the registry "
                         "over --sf-dir instead of the extraction job")
    ap.add_argument("--sf-dir", default="/root/testdata/sf0.01",
                    help="data directory for --query (documents/"
                         "embeddings/events/TPC-H parquet tables)")
    ap.add_argument("--list-queries", action="store_true",
                    help="print the registry's operator names and exit")
    args = ap.parse_args(argv)

    if args.list_queries:
        from pdf_parser_ray.registry import queries

        for name in sorted(queries()):
            print(name)
        return 0
    if args.query is None and (args.input is None or args.output is None):
        ap.error("--input and --output are required (unless --query/"
                 "--list-queries)")
    if args.curate and args.format == "jsonl":
        ap.error("--curate reads the parquet sink; drop --format jsonl")

    import ray

    if not ray.is_initialized():
        kwargs = dict(include_dashboard=False, ignore_reinit_error=True,
                      logging_level="ERROR")
        if args.num_cpus:
            kwargs.update(address="local", num_cpus=args.num_cpus)
        ray.init(**kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    if args.query is not None:
        from pdf_parser_ray.registry import queries

        reg = queries()
        if args.query not in reg:
            print(f"unknown query {args.query!r}; --list-queries shows all",
                  file=sys.stderr)
            ray.shutdown()
            return 2
        result = reg[args.query](args.sf_dir)
        summary = {"query": args.query, "sf_dir": args.sf_dir}
        if hasattr(result, "write_parquet"):  # a Dataset
            if args.output:
                # materialize once: count() after a write would re-run
                # the whole lazy pipeline a second time
                result = result.materialize()
                if args.format == "jsonl":
                    result.write_json(args.output)
                else:
                    result.write_parquet(args.output)
                summary["output"] = args.output
            summary["rows"] = result.count()
        else:  # a small driver-side DataFrame
            if args.output:
                import os

                os.makedirs(args.output, exist_ok=True)
                if args.format == "jsonl":
                    path = f"{args.output}/{args.query}.jsonl"
                    result.to_json(path, orient="records", lines=True)
                else:
                    path = f"{args.output}/{args.query}.parquet"
                    result.to_parquet(path, index=False)
                summary["output"] = path
            summary["rows"] = len(result)
        print(json.dumps(summary))
        ray.shutdown()
        return 0

    from pdf_parser_ray.state.manifest import run_job

    summary = run_job(
        args.input,
        args.output,
        group_size=args.group_size,
        batch_size=args.batch_size,
        output_format=args.format,
    )

    if args.curate:
        import os

        verdict_dir = os.path.join(args.output, "curation")
        done = os.path.join(verdict_dir, "_DONE")
        if os.path.exists(done):
            summary["curation"] = "skipped"
        else:
            import shutil

            from pdf_parser_ray.pipelines.curate import curate_pages

            tmp = verdict_dir + ".tmp"
            shutil.rmtree(tmp, ignore_errors=True)
            shutil.rmtree(verdict_dir, ignore_errors=True)
            curate_pages(args.output, batch_size=args.batch_size).write_parquet(tmp)
            os.replace(tmp, verdict_dir)
            with open(done, "w") as f:
                f.write("ok")
            summary["curation"] = verdict_dir

    print(json.dumps(summary))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
