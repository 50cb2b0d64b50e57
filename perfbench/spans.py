"""Spans recorded around calls into the engine's public functions.

The benchmark never edits the engine: a traced run swaps a module
global (the name a caller looks up at call time) for a wrapper that
records a span, and restores it afterwards.  Spans stay in memory and
are written out when the run ends.

The layer ledger drives ``stages.extract.extract_batch`` in-process on
64-row batches of the workload's input, so the calls it makes into
``html.extract``, ``pdf.parse``, ``functions`` and ``extractors`` are
all timed from here.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from unittest import mock

import pyarrow as pa
import pyarrow.parquet as pq


@dataclass
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int | None  # index of the enclosing span
    ref: str | int | None  # doc url or batch index


class Tracer:
    """Spans of one process, nested by a stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, ref: str | int | None = None):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, ref))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx].end = time.perf_counter_ns()

    def patch(self, stack: ExitStack, module, attr: str, name: str) -> None:
        """Until ``stack`` closes, record a span around every call of
        ``module.attr``."""
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        stack.enter_context(mock.patch.object(module, attr, traced))

    def durations(self, name: str) -> list[float]:
        """Seconds of every span called ``name``."""
        return [(s.end - s.start) / 1e9 for s in self.spans if s.name == name]

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": s.name, "start_ns": s.start,
                    "end_ns": s.end, "parent": s.parent, "ref": s.ref,
                }) + "\n")


def _input_batches(pages_dir: str, batch_size: int):
    for f in sorted(os.listdir(pages_dir)):
        if f.endswith(".parquet"):
            t = pq.read_table(os.path.join(pages_dir, f))
            for off in range(0, t.num_rows, batch_size):
                yield t.slice(off, batch_size)


def stage_seconds(pages_dir: str, batch_size: int) -> float:
    """Untraced in-process ``extract_batch`` time over the whole input."""
    from pdf_parser_ray.stages.extract import extract_batch

    total = 0.0
    for batch in _input_batches(pages_dir, batch_size):
        t0 = time.perf_counter()
        extract_batch(batch)
        total += time.perf_counter() - t0
    return total


def layer_ledger(tracer: Tracer, pages_dir: str, batch_size: int) -> int:
    """Run the fused stage in-process with a span around every call into
    a layer's public function.  Returns the number of records made."""
    from pdf_parser_ray.stages import extract as stage

    n_records = 0
    real_get_extractor = stage.get_extractor

    def get_extractor(key):
        rules = real_get_extractor(key)

        def traced_rules(*args):
            nonlocal n_records
            with tracer.span("extractors.rules"):
                out = rules(*args)
            n_records += len(out)
            return out

        return traced_rules

    # extract_one sees only the payload; the batch's payload -> url map
    # gives its doc span the url as ref
    url_of: dict[bytes, str] = {}

    def extract_one(payload, year, _real=stage.extract_one):
        with tracer.span("stages.extract.doc", url_of.get(payload)):
            return _real(payload, year)

    with ExitStack() as stack:
        for attr, name in (
            ("decode_payload", "functions.charset"),
            ("extract_main_text", "html.extract"),
            ("extract_page_texts", "pdf.parse"),
            ("detect_source", "extractors.detect"),
            ("text_to_lines", "functions.scalars"),
            ("normalize_records", "functions.directions"),
        ):
            tracer.patch(stack, stage, attr, name)
        stack.enter_context(mock.patch.object(stage, "get_extractor", get_extractor))
        stack.enter_context(mock.patch.object(stage, "extract_one", extract_one))
        for bi, batch in enumerate(_input_batches(pages_dir, batch_size)):
            url_of = dict(zip(batch.column("html").to_pylist(),
                              batch.column("url").to_pylist()))
            with tracer.span("stages.extract", bi):
                stage.extract_batch(batch)
    return n_records


def layer_metrics(tracer: Tracer, golden: pa.Table, n_records: int,
                  n_forms: int) -> dict[str, float]:
    """Per-layer numbers from a ledger trace."""
    docs = len(tracer.durations("stages.extract.doc"))

    def per_doc(name: str) -> float:
        return 1e3 * sum(tracer.durations(name)) / max(docs, 1)

    def per_call(name: str) -> float:
        d = tracer.durations(name)
        return 1e3 * sum(d) / len(d) if d else 0.0

    # a doc span's children are its layer calls; the batch span's
    # children are its doc spans, so batch self time is the stage's own
    # per-batch work (Arrow build, hashing) and doc self time the glue
    stage_s = sum(tracer.durations("stages.extract"))
    layer_s = sum(
        sum(tracer.durations(n)) for n in (
            "functions.charset", "html.extract", "pdf.parse",
            "extractors.detect", "extractors.rules", "functions.scalars",
            "functions.directions",
        )
    )
    m = {
        "stages.extract.ms_per_doc": 1e3 * stage_s / max(docs, 1),
        "stages.extract.self_ms_per_doc": 1e3 * (stage_s - layer_s) / max(docs, 1),
        "html.extract.ms_per_doc": per_call("html.extract"),
        "html.extract.calls": len(tracer.durations("html.extract")),
        "pdf.parse.ms_per_doc": per_call("pdf.parse"),
        "pdf.parse.calls": len(tracer.durations("pdf.parse")),
        "extractors.detect.ms_per_doc": per_doc("extractors.detect"),
        "extractors.rules.ms_per_doc": per_doc("extractors.rules"),
        "extractors.rules.records_per_doc": n_records / max(docs, 1),
        "functions.charset.ms_per_doc": per_call("functions.charset"),
        "functions.charset.calls": len(tracer.durations("functions.charset")),
        "functions.scalars.ms_per_doc": per_doc("functions.scalars"),
        "functions.directions.ms_per_doc": per_doc("functions.directions"),
    }
    # per writer form: the pdf.parse span's parent is its doc span,
    # whose ref is the url; the golden maps url -> form
    form_of = dict(zip(golden.column("url").to_pylist(),
                       golden.column("pdf_form").to_pylist()))
    by_form: dict[int, list[float]] = {k: [] for k in range(n_forms)}
    for s in tracer.spans:
        if s.name == "pdf.parse":
            url = tracer.spans[s.parent].ref
            by_form[form_of[url]].append((s.end - s.start) / 1e6)
    for k, ms in by_form.items():
        m[f"pdf.parse.form_{k:02d}.ms_per_doc"] = statistics.fmean(ms) if ms else 0.0
    return m
