"""pdf_parser_ray — a Ray-Data-native web/document extraction engine.

A from-scratch reimplementation of the *capabilities* of the reference
``ambolt-studio/pdf-parser`` (see SURVEY.md) re-expressed as a
streaming ``ray.data.Dataset`` pipeline over Parquet tables of
Common-Crawl-style pages ``(url, warc_ts, html, text, lang)``:

* charset/encoding normalization (BOM / declared-meta / statistical),
* HTML boilerplate stripping via DOM block text-density/link-density scoring,
* PDF byte-stream detection + layout-aware text extraction (xref/object
  parse, page-tree walk, text-run reordering by bbox),
* bank-statement record extraction (date-anchored block grouping with
  per-source rule-sets) and normalization,
* large-scale training-data ops: dedup (exact/MinHash-LSH/SimHash/
  n-gram-Jaccard/embedding), similarity search, text analysis.

Nothing here calls ``ray.init`` — the session is owned by the caller
(bench.py, CLI, or the test fixture).
"""

__version__ = "0.1.0"
