"""Seeded workload generator for the benchmark.

Each workload is a pages-parquet input directory laid out the way the
shipped job reads it (one directory of shard files, grouped by
``state.manifest.run_job``), plus the per-url goldens that
``fixtures.gen.synthesize_pages`` writes for it.  Everything is a pure
function of ``(workload, seed, scale)``: the same seed gives the same
bytes.  The documents table the fixture generator expects is built
here from the seed, in the shape of the repository's test documents
(short texts over a small technical vocabulary, five languages).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from pdf_parser_ray.fixtures.gen import _PDF_FORMS, synthesize_pages

_VOCAB = (
    "join hash row batch scan column customer filter small slow merge "
    "order vector line table data agg value key stream window a spark "
    "part group big sort query fast the"
).split()
_LANGS = (("en", 44), ("zh", 15), ("es", 15), ("de", 14), ("fr", 12))
N_FORMS = len(_PDF_FORMS)


@dataclass(frozen=True)
class Spec:
    """How one workload's input is shaped."""

    name: str
    pages: int  # unique documents generated
    pdf_fraction: float
    shards: int  # parquet files in the input directory
    group_size: int  # run_job shard-group size (files per group)
    curate: bool = False
    dup_fraction: float = 0.0  # extra urls that copy another row's payload
    hot_host_fraction: float = 0.0  # share of urls on the single hot host


def specs(scale: float = 1.0) -> dict[str, Spec]:
    """The benchmark workloads; ``scale`` shrinks them for the self-test."""

    def n(pages: int) -> int:
        return max(N_FORMS, int(pages * scale))

    return {
        "crawl_mix": Spec("crawl_mix", n(4000), 0.1, shards=8, group_size=8),
        "pdf_forms": Spec("pdf_forms", n(1400), 1.0, shards=8, group_size=8),
        "job_curate": Spec(
            "job_curate", n(600), 0.1, shards=8, group_size=1,
            curate=True, dup_fraction=0.25, hot_host_fraction=0.3,
        ),
    }


def _documents(n: int, rng: random.Random) -> pa.Table:
    langs, weights = zip(*_LANGS)
    texts = [
        " ".join(rng.choice(_VOCAB) for _ in range(rng.randint(8, 90)))
        for _ in range(n)
    ]
    return pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(rng.choices(langs, weights, k=n), pa.string()),
        }
    )


@dataclass
class Workload:
    spec: Spec
    pages_dir: str
    golden: pa.Table  # synthesize_pages goldens, plus pdf_form (-1 = html)
    payload_bytes: int  # uncompressed ``html`` column bytes


def generate(spec: Spec, seed: int, out_dir: str) -> Workload:
    """Write the workload's shard files under ``out_dir`` and return its
    goldens.  Rows are shuffled across shards so every shard carries
    the workload's mix."""
    rng = random.Random(f"perfbench:{spec.name}:{seed}")
    docs = _documents(spec.pages, rng)
    pages, golden = synthesize_pages(
        docs, seed=seed, pdf_fraction=spec.pdf_fraction
    )
    is_pdf = pc.equal(golden.column("content_type"), "pdf")
    # synthesize_pages picks the writer form as doc_id % len(_PDF_FORMS)
    forms = [
        i % N_FORMS if p else -1 for i, p in enumerate(is_pdf.to_pylist())
    ]
    golden = golden.append_column("pdf_form", pa.array(forms, pa.int32()))

    rows = list(range(pages.num_rows))
    n_dup = int(spec.dup_fraction * len(rows))
    rows += [rng.randrange(spec.pages) for _ in range(n_dup)]
    rng.shuffle(rows)
    pages = pages.take(rows)
    golden = golden.take(rows)
    if spec.curate:
        # curate_pages keys exact dedup on content and the crawl cap on
        # host, so urls are re-minted: copies get urls of their own and
        # a hot host holds hot_host_fraction of them
        urls = []
        for i in range(len(rows)):
            if rng.random() < spec.hot_host_fraction:
                host = "hot.example"
            else:
                host = f"site{rng.randrange(200)}.example"
            urls.append(f"https://{host}/c{seed}/u{i}")
        url_col = pa.array(urls, pa.string())
        pages = pages.set_column(0, "url", url_col)
        golden = golden.set_column(0, "url", url_col)

    os.makedirs(out_dir, exist_ok=True)
    n = pages.num_rows
    for s in range(spec.shards):
        lo, hi = s * n // spec.shards, (s + 1) * n // spec.shards
        pq.write_table(
            pages.slice(lo, hi - lo),
            os.path.join(out_dir, f"part-{s:05d}.parquet"),
        )
    payload_bytes = pc.sum(
        pc.binary_length(pages.column("html"))
    ).as_py()
    return Workload(spec, out_dir, golden, int(payload_bytes))
