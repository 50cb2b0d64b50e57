"""Text-analysis operators over the ``documents`` table: token counting,
quality scoring, language-ID, document fingerprinting, direction
classification (the engine's scalar rules applied corpus-wide).

All are single-pass ``map_batches`` stages (no shuffle) except the
grouped aggregates, which pre-aggregate per batch before the small
exchange — the partial/combiner pattern that keeps the exchange tiny
at 100 TB.  A hash-keyed group or a final combine goes through
:func:`~.join.co_group`; a ``groupby`` keys only on a real column.
"""

from __future__ import annotations

import os
import re

import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from .io_util import arrow_udf, read_parquet_clean
from ray.data.aggregate import Sum

from ..functions.directions import classify_direction

_TOKEN_RE = re.compile(r"\S+")  # used by curate's verdict stage


def _docs(sf_dir: str, columns: list[str]) -> rd.Dataset:
    from .dedup import _blocks_for

    path = os.path.join(sf_dir, "documents.parquet")
    return read_parquet_clean(
        path, columns=columns, override_num_blocks=_blocks_for(path)
    )


def _crc32s(strings: "list[str]") -> pa.Array:
    """int64 crc32 per string: a co_group key that every worker
    computes alike (builtin ``hash()`` of a str is salted per
    process)."""
    import zlib

    import numpy as np

    return pa.array(
        np.fromiter((zlib.crc32(v.encode()) for v in strings), np.int64, len(strings))
    )


def _count_rows(c: "Counter", fields: "dict[str, pa.DataType]", key: str) -> pa.Table:
    """A per-batch Counter as partial rows for a :func:`co_group`
    keyed on ``h``: one column per field of the Counter's keys
    (``fields``; a one-field Counter is keyed by the bare value), the
    count ``n``, and ``h`` = crc32 of field ``key``, so every partial
    of one ``key`` value meets in one bucket."""
    import numpy as np

    names = list(fields)
    if not c:
        cols: list = [[] for _ in names]
    elif len(names) == 1:
        cols = [list(c)]
    else:
        cols = [list(col) for col in zip(*c)]
    out = {name: pa.array(col, fields[name]) for name, col in zip(names, cols)}
    out["h"] = _crc32s(cols[names.index(key)])
    out["n"] = pa.array(np.fromiter(c.values(), np.int64, count=len(c)))
    return pa.table(out)


def _word_counts(sf_dir: str) -> rd.Dataset:
    """(word, n): exact corpus word counts — per-batch Counter partials
    (vocabulary-sized, not token-sized) summed per word in one
    word-keyed :func:`co_group`."""
    from collections import Counter

    from .join import co_group

    def partials(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for text in batch.column("text").to_pylist():
            c.update(text.split())
        return _count_rows(c, {"word": pa.string()}, "word")

    def total(parts: "pd.DataFrame") -> "pd.DataFrame":
        return parts.groupby("word", as_index=False)["n"].sum()

    parts = _docs(sf_dir, ["text"]).map_batches(
        partials, batch_format="pyarrow", zero_copy_batch=True
    )
    return co_group(total, parts=(parts, "h"))


def _word_candidates(counts: rd.Dataset, k: int) -> rd.Dataset:
    """Each block of a (word, n) count table cut to its own top ``k`` by
    (n DESC, word ASC): a global top-k word always wins its block, so a
    final cut over these ≤ k × blocks rows is exact."""

    def local_top(batch: pa.Table) -> pa.Table:
        idx = pc.select_k_unstable(
            batch, k, [("n", "descending"), ("word", "ascending")]
        )
        return batch.take(idx)

    return counts.map_batches(local_top, batch_format="pyarrow", zero_copy_batch=True)


def _top_words(counts: rd.Dataset, k: int) -> rd.Dataset:
    """(word, n): the top ``k`` rows of a (word, n) count table by
    (n DESC, word ASC), in that order — one keyless :func:`co_group`
    over :func:`_word_candidates`."""
    from .join import co_group

    def cut(top: "pd.DataFrame") -> "pd.DataFrame":
        top = top.sort_values(["n", "word"], ascending=[False, True])
        return top.head(k).reset_index(drop=True)

    return co_group(cut, top=(_word_candidates(counts, k), None))


def _source_word_partials(sf_dir: str) -> rd.Dataset:
    """Per-batch (source, word) Counter partials with ``h`` =
    crc32(word): a word-keyed :func:`co_group` sees each word's exact
    count in every source."""
    from collections import Counter

    def partials(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for s, t in zip(
            batch.column("source").to_pylist(), batch.column("text").to_pylist()
        ):
            for w in t.split():
                c[(s, w)] += 1
        return _count_rows(c, {"source": pa.string(), "word": pa.string()}, "word")

    return _docs(sf_dir, ["source", "text"]).map_batches(
        partials, batch_format="pyarrow", zero_copy_batch=True
    )


# -- token counting ---------------------------------------------------------


def token_counts(sf_dir: str) -> rd.Dataset:
    """(doc_id, n_tokens): whitespace-delimited token count per document
    — a vectorized Arrow regex-count kernel, no per-row Python."""
    import pyarrow.compute as pc

    def count(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_tokens": pc.cast(
                    pc.count_substring_regex(batch.column("text"), r"\S+"),
                    pa.int64(),
                ),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        count, batch_format="pyarrow", zero_copy_batch=True
    )


# -- quality scoring --------------------------------------------------------


def quality_stats(sf_dir: str) -> rd.Dataset:
    """(doc_id, n_chars, n_tokens, n_digits, n_punct): integer quality
    features (ratios are downstream arithmetic; integers hash exactly in
    the oracle comparison)."""

    def stats(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        text = batch.column("text")
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_chars": pc.cast(pc.utf8_length(text), pa.int64()),
                "n_tokens": pc.cast(
                    pc.count_substring_regex(text, r"\S+"), pa.int64()
                ),
                "n_digits": pc.cast(
                    pc.count_substring_regex(text, "[0-9]"), pa.int64()
                ),
                "n_punct": pc.cast(
                    pc.count_substring_regex(text, r"[!-/:-@\[-`{-~]"), pa.int64()
                ),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        stats, batch_format="pyarrow", zero_copy_batch=True
    )


# -- grouped aggregates -----------------------------------------------------


def lang_distribution(sf_dir: str) -> rd.Dataset:
    """(lang, n): document count per language tag.  Each batch collapses
    to one partial row per lang (Arrow hash aggregate) so the exchange
    and Ray's sort-based aggregate carry key-cardinality × blocks rows,
    never the corpus."""

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by("lang").aggregate([([], "count_all")])
        return pa.table(
            {"lang": g.column("lang"), "n": pc.cast(g.column("count_all"), pa.int64())}
        )

    return (
        _docs(sf_dir, ["lang"])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("lang")
        .aggregate(Sum("n", alias_name="n"))
    )


def source_stats(sf_dir: str) -> rd.Dataset:
    """(source, n_docs, total_chars): per-source volume, with the same
    in-batch partial collapse as ``lang_distribution``."""

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by("source").aggregate(
            [([], "count_all"), ("n_chars", "sum")]
        )
        return pa.table(
            {
                "source": g.column("source"),
                "n_docs": pc.cast(g.column("count_all"), pa.int64()),
                "total_chars": pc.cast(g.column("n_chars_sum"), pa.int64()),
            }
        )

    return (
        _docs(sf_dir, ["source", "n_chars"])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("source")
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("total_chars", alias_name="total_chars"),
        )
    )


def top_docs_by_chars(sf_dir: str, k: int = 10) -> rd.Dataset:
    """(doc_id, n_chars): global top-k largest documents — per-batch
    local top-k first, so the sort only sees ≤ k rows per batch."""

    def local_topk(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        idx = pc.select_k_unstable(
            batch, k, [("n_chars", "descending"), ("doc_id", "ascending")]
        )
        return batch.take(idx)

    return (
        _docs(sf_dir, ["doc_id", "n_chars"])
        .map_batches(local_topk, batch_format="pyarrow", zero_copy_batch=True)
        .sort(["n_chars", "doc_id"], descending=[True, False])
        .limit(k)
    )


# -- language ID (n-gram/stopword heuristic) --------------------------------

_LANG_PROFILES: dict[str, frozenset[str]] = {
    "en": frozenset("the of and to a in is it you that was for on are".split()),
    "es": frozenset("el la de que y en un ser se no por con para una".split()),
    "fr": frozenset("le la de et les des en un une que pour dans est".split()),
    "de": frozenset("der die das und ist von mit den nicht ein eine zu".split()),
}


def langid(sf_dir: str) -> rd.Dataset:
    """(doc_id, lang_pred, confidence_millis): stopword-profile language
    guess; 'und' (undetermined) when no profile scores."""

    def guess(batch: pa.Table) -> pa.Table:
        preds, confs = [], []
        for text in batch.column("text").to_pylist():
            words = text.lower().split()
            if not words:
                preds.append("und")
                confs.append(0)
                continue
            scores = {
                lang: sum(w in prof for w in words) / len(words)
                for lang, prof in _LANG_PROFILES.items()
            }
            best = max(sorted(scores), key=lambda k: scores[k])
            if scores[best] <= 0:
                preds.append("und")
                confs.append(0)
            else:
                preds.append(best)
                confs.append(int(scores[best] * 1000))
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "lang_pred": pa.array(preds, pa.string()),
                "confidence_millis": pa.array(confs, pa.int64()),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        guess, batch_format="pyarrow", zero_copy_batch=True
    )


# -- document fingerprinting ------------------------------------------------

_FP_BASE = 1_000_003
_FP_MOD = (1 << 61) - 1
_FP_WINDOW = 8


def rolling_fingerprint(text: str) -> int:
    """Winnowing-style fingerprint: minimum of the rolling polynomial
    hashes of all byte 8-grams (0 for shorter texts).

    The hash of the window at position i is the plain polynomial
    ``sum_k data[i+k] * BASE^(7-k) mod M`` — a pure function of the
    window bytes, which is what lets the DuckDB oracle mirror it with
    eight precomputed power constants (``__ray_entry__._fingerprint_sql``;
    the oracle works char-wise, exact for ASCII corpora)."""
    data = text.encode("utf-8", "ignore")
    n = len(data)
    if n < _FP_WINDOW:
        return 0
    power = pow(_FP_BASE, _FP_WINDOW - 1, _FP_MOD)
    h = 0
    best = _FP_MOD
    for i, b in enumerate(data):
        if i >= _FP_WINDOW:
            h = (h - data[i - _FP_WINDOW] * power) % _FP_MOD
        h = (h * _FP_BASE + b) % _FP_MOD
        if i >= _FP_WINDOW - 1 and h < best:
            best = h
    return best


def fingerprints(sf_dir: str) -> rd.Dataset:
    """(doc_id, fingerprint): rolling-hash winnowing fingerprint."""

    def fp(batch: pa.Table) -> pa.Table:
        vals = [rolling_fingerprint(t) for t in batch.column("text").to_pylist()]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "fingerprint": pa.array(vals, pa.int64()),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        fp, batch_format="pyarrow", zero_copy_batch=True
    )


# -- n-gram statistics (corpus-wide top-k bigrams) --------------------------


def ngram_stats(sf_dir: str, k: int = 20) -> rd.Dataset:
    """(bigram, n): the k most frequent word bigrams corpus-wide.

    Scale shape: bigram counts are COMBINED INSIDE each batch first
    (one partial row per distinct bigram per batch), so the groupby
    exchange carries vocabulary-sized partials, not corpus-sized token
    streams; the final sort sees ≤ k rows per post-agg batch."""
    from collections import Counter

    from ray.data.aggregate import Sum

    def partial_counts(batch: pa.Table) -> pa.Table:
        counts: Counter = Counter()
        for text in batch.column("text").to_pylist():
            words = text.split()
            counts.update(
                f"{a} {b}" for a, b in zip(words, words[1:])
            )
        if not counts:
            return pa.table(
                {"bigram": pa.array([], pa.string()), "n": pa.array([], pa.int64())}
            )
        grams, ns = zip(*counts.items())
        return pa.table(
            {"bigram": pa.array(grams, pa.string()), "n": pa.array(ns, pa.int64())}
        )

    def local_topk(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        idx = pc.select_k_unstable(
            batch, k, [("n", "descending"), ("bigram", "ascending")]
        )
        return batch.take(idx)

    return (
        _docs(sf_dir, ["text"])
        .map_batches(partial_counts, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bigram")
        .aggregate(Sum("n", alias_name="n"))
        .map_batches(local_topk, batch_format="pyarrow", zero_copy_batch=True)
        .sort(["n", "bigram"], descending=[True, False])
        .limit(k)
    )


# -- repetition statistics (Gopher-style diversity features) ----------------


def word_counter_stats(text: str) -> tuple[int, int, int, int]:
    """(n_words, n_distinct, top_word_n, sum_word_chars) for one text —
    the per-document inputs of the repetition / quality rules, shared
    by repetition_stats and filter.quality_filter."""
    from collections import Counter

    words = text.split()
    if not words:
        return 0, 0, 0, 0
    counts = Counter(words)
    return (
        len(words),
        len(counts),
        max(counts.values()),
        sum(len(w) for w in words),
    )


def word_stats_arrays(texts) -> tuple:
    """Vectorized per-row (n_words, n_distinct, top_word_n,
    sum_word_chars) over a string array/chunked-array — Arrow
    list-flatten + two hash group_bys, no per-row Python.  Exactly
    matches ``word_counter_stats`` (unicode whitespace split, codepoint
    word lengths; empty rows -> all zeros)."""
    import numpy as np

    n = len(texts)
    words = pc.utf8_split_whitespace(texts)
    flat = pc.list_flatten(words)
    idx = pc.list_parent_indices(words)
    mask = pc.not_equal(flat, "")  # split emits '' for edge whitespace
    t = pa.table({"i": pc.filter(idx, mask), "w": pc.filter(flat, mask)})
    g = t.group_by(["i", "w"]).aggregate([([], "count_all")])
    c = pc.cast(g.column("count_all"), pa.int64())
    wc = pc.multiply(c, pc.cast(pc.utf8_length(g.column("w")), pa.int64()))
    a = (
        pa.table({"i": g.column("i"), "c": c, "wc": wc})
        .group_by("i")
        .aggregate([("c", "sum"), ("c", "count"), ("c", "max"), ("wc", "sum")])
    )
    ii = a.column("i").to_numpy(zero_copy_only=False)
    n_words = np.zeros(n, np.int64)
    n_distinct = np.zeros(n, np.int64)
    top = np.zeros(n, np.int64)
    swc = np.zeros(n, np.int64)
    n_words[ii] = a.column("c_sum").to_numpy(zero_copy_only=False)
    n_distinct[ii] = a.column("c_count").to_numpy(zero_copy_only=False)
    top[ii] = a.column("c_max").to_numpy(zero_copy_only=False)
    swc[ii] = a.column("wc_sum").to_numpy(zero_copy_only=False)
    return n_words, n_distinct, top, swc


def repetition_stats(sf_dir: str) -> rd.Dataset:
    """(doc_id, n_words, n_distinct, top_word_n): per-document word
    diversity — total words, distinct words, and the count of the most
    frequent word (the numerator of Gopher's most-common-word-fraction
    filter).  Single pass, no shuffle, Arrow-vectorized."""

    def stats(batch: pa.Table) -> pa.Table:
        n_words, n_distinct, top, _swc = word_stats_arrays(batch.column("text"))
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_words": pa.array(n_words),
                "n_distinct": pa.array(n_distinct),
                "top_word_n": pa.array(top),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        stats, batch_format="pyarrow", zero_copy_batch=True
    )


# -- direction classification over synthesized descriptions -----------------

_DESC_PREFIXES = [
    "ACH DEBIT ",
    "WIRE IN ",
    "ZELLE PAYMENT FROM ",
    "PAYPAL TRANSFER ",
    "WT 1234 SETTLEMENT ",
    "",  # plain text -> usually unknown
]


def synth_description(doc_id: int, text: str) -> str:
    """Deterministic description used by both the Ray query and the SQL
    oracle: a direction-bearing prefix keyed on doc_id + the text head."""
    return _DESC_PREFIXES[doc_id % 6] + text[:20].upper()


def direction_classify(sf_dir: str) -> rd.Dataset:
    """(doc_id, description, direction): the global ordered direction
    rule table (len(_RULE_SPECS) rules, mirroring the reference's
    DIR_RULES) applied corpus-wide (oracle: the same rules as ordered
    SQL CASE/regexp_matches)."""

    def classify(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        descs = [synth_description(i, t) for i, t in zip(ids, texts)]
        dirs = [classify_direction(d) for d in descs]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "description": pa.array(descs, pa.string()),
                "direction": pa.array(dirs, pa.string()),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        classify, batch_format="pyarrow", zero_copy_batch=True
    )


# -- BPE-style sub-word token counting --------------------------------------

# GPT-2-style pre-tokenizer, restricted to constructs with identical
# semantics in Python re, Arrow's RE2, and DuckDB's RE2 (no lookahead,
# no unicode property classes — the synthetic corpus is ASCII; all
# three engines scan leftmost-first non-overlapping, verified in
# tests/test_oracle.py via the bpe_token_counts hash match)
BPE_TOKEN_PATTERN = (
    r"'(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+|\s+"
)


def bpe_token_counts(sf_dir: str) -> rd.Dataset:
    """(doc_id, n_bpe_tokens): sub-word token counts under a GPT-2-style
    pre-tokenizer split — the standard training-data budget unit (a
    closer proxy for LLM token cost than whitespace words).  One
    vectorized Arrow regex-count kernel per batch, no per-row Python."""
    import pyarrow.compute as pc

    def count(batch: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(batch.column("text"), BPE_TOKEN_PATTERN)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_bpe_tokens": pc.cast(n, pa.int64()),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        count, batch_format="pyarrow", zero_copy_batch=True
    )


# -- unigram language-model scoring -----------------------------------------

# production default for the broadcast-model caps below; the driver's
# queries() registers ORACLE_VOCAB_CAP so the cap (and the OOV path)
# actually binds on the 31-word synthetic vocabulary and is verified by
# the DuckDB oracles
VOCAB_CAP = 1 << 16
ORACLE_VOCAB_CAP = 24


def _capped_vocab(
    vocab_ds: rd.Dataset, count_col: str, vocab_cap: int
) -> "tuple[object, object]":
    """Distributed top-V selection over a fitted (word, counts...) vocab
    dataset: each output block keeps its local top-V by (count DESC,
    word ASC) — plus the '' sentinel rows that carry corpus totals —
    so the driver collects at most (V+1)·num_blocks rows, NEVER the
    whole open-web vocabulary (billions of keys of typos/URLs/numbers
    at 100 TB; VERDICT r02 'What's wrong' #2).  Returns (sentinel_df,
    top_df) where top_df is the final deterministic global top-V."""
    import pandas as pd

    def local_topv(df: pd.DataFrame) -> pd.DataFrame:
        sent = df[df["word"] == ""]
        rest = (
            df[df["word"] != ""]
            .sort_values([count_col, "word"], ascending=[False, True])
            .head(vocab_cap)
        )
        return pd.concat([sent, rest])

    head = vocab_ds.map_batches(local_topv, batch_format="pandas").to_pandas()
    sent = head[head["word"] == ""]
    top = (
        head[head["word"] != ""]
        .sort_values([count_col, "word"], ascending=[False, True])
        .head(vocab_cap)
    )
    return sent, top


def fit_unigram_table(sf_dir: str, vocab_cap: int) -> "tuple[dict, int]":
    """Fit the capped unigram LM: (micros table of ≤ vocab_cap words,
    OOV floor micros).  N (the corpus token total) is over the FULL
    corpus — it rides the vocab exchange as a '' sentinel row
    (str.split never yields an empty token, so the key cannot collide)
    — while the broadcast table is bounded at vocab_cap entries."""
    import math
    from collections import Counter

    def partial_counts(batch: pa.Table) -> pa.Table:
        counts: Counter = Counter()
        total = 0
        for text in batch.column("text").to_pylist():
            words = text.split()
            counts.update(words)
            total += len(words)
        words = list(counts)
        return pa.table(
            {
                "word": pa.array([""] + words, pa.string()),
                "n": pa.array([total] + [counts[w] for w in words], pa.int64()),
            }
        )

    vocab_ds = (
        _docs(sf_dir, ["text"])
        .map_batches(partial_counts, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("word")
        .aggregate(Sum("n", alias_name="n"))
    )
    sent, top = _capped_vocab(vocab_ds, "n", vocab_cap)
    total = int(sent["n"].sum())
    micros = {
        w: math.floor(math.log(int(c) / total) * 1e6)
        for w, c in zip(top["word"], top["n"])
    }
    oov = math.floor(math.log(1.0 / total) * 1e6)  # OOV floor: count 1
    return micros, oov


def unigram_logprob(sf_dir: str, *, vocab_cap: int = VOCAB_CAP) -> rd.Dataset:
    """(doc_id, n_words, logprob_micros): unigram LM score per document
    — the sum over token occurrences of floor(ln(count(w)/N) * 1e6),
    carried as integer micros so the distributed sum is associative and
    the DuckDB oracle is float-safe (ln and the double division are
    bit-identical libm ops on both sides; floor avoids the
    banker's-rounding mismatch between Python round and SQL round).
    Out-of-table words score the OOV floor floor(ln(1/N) * 1e6).

    Two-phase train-small/score-wide shape: phase 1 fits the unigram
    table with in-batch partial counts -> vocabulary-keyed groupby (the
    exchange carries vocab-sized partials, not the token stream), then
    prunes to the top-``vocab_cap`` words by (count DESC, word ASC)
    *before* anything reaches the driver; the fitted table — now a
    bounded model artifact — is broadcast once via ``ray.put`` and
    every batch is scored against local plasma."""
    from collections import Counter

    import ray

    micros, oov = fit_unigram_table(sf_dir, vocab_cap)
    ref = ray.put((micros, oov))

    def score(batch: pa.Table) -> pa.Table:
        table, default = ray.get(ref)
        n_words, scores = [], []
        for text in batch.column("text").to_pylist():
            words = text.split()
            n_words.append(len(words))
            c = Counter(words)
            scores.append(sum(table.get(w, default) * k for w, k in c.items()))
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_words": pa.array(n_words, pa.int64()),
                "logprob_micros": pa.array(scores, pa.int64()),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        score, batch_format="pyarrow", zero_copy_batch=True
    )


def fit_idf_table(sf_dir: str, vocab_cap: int) -> "tuple[dict, int]":
    """Fit the capped idf table: (micros table of ≤ vocab_cap words by
    (df DESC, word ASC), OOV default micros).  OOV words default to
    df=1 — the correct limit for rare words, which is exactly what
    falls off the frequency-capped table."""
    import math

    from collections import Counter

    def partial_df(batch: pa.Table) -> pa.Table:
        counts: Counter = Counter()
        for text in batch.column("text").to_pylist():
            counts.update(set(text.split()))
        words = list(counts)
        return pa.table(
            {
                "word": pa.array(words, pa.string()),
                "df": pa.array([counts[w] for w in words], pa.int64()),
            }
        )

    vocab_ds = (
        _docs(sf_dir, ["text"])
        .map_batches(partial_df, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("word")
        .aggregate(Sum("df", alias_name="df"))
    )
    _, top = _capped_vocab(vocab_ds, "df", vocab_cap)
    n_docs = int(_docs(sf_dir, ["doc_id"]).count())
    idf = {
        w: math.floor(math.log(n_docs / int(d)) * 1e6)
        for w, d in zip(top["word"], top["df"])
    }
    oov = math.floor(math.log(n_docs / 1.0) * 1e6)
    return idf, oov


def tfidf_scores(sf_dir: str, *, vocab_cap: int = VOCAB_CAP) -> rd.Dataset:
    """(doc_id, n_words, tfidf_micros): TF-IDF relevance mass per
    document — the sum over the document's terms of tf(doc, w) ·
    floor(ln(N / df(w)) · 1e6), carried as integer micros so the
    distributed sum is associative and the DuckDB oracle is float-safe
    (same ln/floor discipline as ``unigram_logprob``).  Words outside
    the capped table take the OOV default floor(ln(N / 1) · 1e6).

    Train-small/score-wide shape: document frequencies come from
    in-batch partials (a document lives wholly inside one batch, so the
    per-batch distinct-word counts are exact df contributions) ->
    vocabulary-keyed groupby, pruned to the top-``vocab_cap`` words by
    (df DESC, word ASC) before collection; the fitted idf table — a
    bounded model artifact — broadcasts once via ``ray.put`` and the
    scoring pass is embarrassingly parallel."""
    from collections import Counter

    import ray

    idf, oov = fit_idf_table(sf_dir, vocab_cap)
    ref = ray.put((idf, oov))

    def score(batch: pa.Table) -> pa.Table:
        table, default = ray.get(ref)
        n_words, scores = [], []
        for text in batch.column("text").to_pylist():
            words = text.split()
            n_words.append(len(words))
            c = Counter(words)
            scores.append(sum(table.get(w, default) * k for w, k in c.items()))
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_words": pa.array(n_words, pa.int64()),
                "tfidf_micros": pa.array(scores, pa.int64()),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        score, batch_format="pyarrow", zero_copy_batch=True
    )


# -- Okapi BM25 retrieval scoring ---------------------------------------------

#: fixed keyword query for the BM25 demo — terms from the synthetic
#: vocabulary so tf>0 rows exist; interpolated into the SQL mirror.
BM25_QUERY = ("spark", "fast", "query")

# Okapi BM25 with k1 = 3/2 and b = 3/4 as exact rationals, carried in
# all-integer arithmetic so the distributed sum and the DuckDB mirror
# agree bit-for-bit at any scale:
#   avgdl_milli = (1000·W) // N          (W corpus words, N docs)
#   R           = (dl·1_000_000) // avgdl_milli   (≈ 1000·dl/avgdl)
#   idf_micros  = floor(ln(1 + (N − df + ½)/(df + ½)) · 1e6)   (Lucene
#                 form — strictly positive, so // is a true floor)
#   per term    = (idf_micros·tf·20000) // (8000·tf + 3000 + 9·R)
# which is idf·tf·(k1+1)/(tf + k1·(1 − b + b·dl/avgdl)) multiplied
# through by 8000 with dl/avgdl quantized to milli units.  Magnitudes
# stay < 2^63 independent of corpus size (idf ≤ ~2.5e7, tf ≤ dl ≤ 1e6).


def _query_term_tfs(batch: pa.Table) -> "tuple[np.ndarray, np.ndarray]":
    """(dl, tf[len(BM25_QUERY), n_rows]) for a (…, text) batch — one
    whitespace split, per-term equality masks + bincount, all Arrow /
    numpy kernels (the badwords_filter machinery)."""
    import numpy as np

    texts = batch.column("text")
    n = len(texts)
    words = pc.utf8_split_whitespace(texts)
    flat = pc.list_flatten(words)
    idx = pc.list_parent_indices(words)
    mask = pc.not_equal(flat, "")  # split emits '' at edge whitespace
    flat = pc.filter(flat, mask)
    ii = pc.filter(idx, mask).to_numpy(zero_copy_only=False)
    dl = np.bincount(ii, minlength=n).astype(np.int64)
    tf = np.empty((len(BM25_QUERY), n), dtype=np.int64)
    for t, term in enumerate(BM25_QUERY):
        m = pc.equal(flat, term).to_numpy(zero_copy_only=False)
        tf[t] = np.bincount(ii[m], minlength=n)
    return dl, tf


def fit_bm25_stats(sf_dir: str) -> "tuple[int, int, list[int]]":
    """(N, W, df per query term) in ONE streaming pass: each batch emits
    a single constant-width partial row (n_docs, n_words, df_0..df_k),
    so the driver materializes one narrow row per block regardless of
    corpus size — the same bounded-model-artifact shape as
    :func:`fit_idf_table`, without the vocabulary exchange (the query
    is a constant)."""

    def partials(batch: pa.Table) -> pa.Table:
        dl, tf = _query_term_tfs(batch)
        cols = {
            "n_docs": pa.array([len(dl)], pa.int64()),
            "n_words": pa.array([int(dl.sum())], pa.int64()),
        }
        for t in range(len(BM25_QUERY)):
            cols[f"df_{t}"] = pa.array([int((tf[t] > 0).sum())], pa.int64())
        return pa.table(cols)

    stats = (
        _docs(sf_dir, ["text"])
        .map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()  # one 5-int row per block — bounded driver state
        .sum()
    )
    n_docs = int(stats["n_docs"])
    n_words = int(stats["n_words"])
    dfs = [int(stats[f"df_{t}"]) for t in range(len(BM25_QUERY))]
    return n_docs, n_words, dfs


def bm25_scores(sf_dir: str) -> rd.Dataset:
    """(doc_id, n_words, bm25_micros): Okapi BM25 relevance of every
    document against the fixed :data:`BM25_QUERY` — the keyword-
    retrieval ranking primitive (tf saturation + length normalization)
    that TF-IDF lacks.  All-integer micros arithmetic (constants block
    above) keeps the score exact and the DuckDB oracle bit-identical.

    Scale shape: pass 1 (:func:`fit_bm25_stats`) reduces the corpus to
    len(query)+2 integers; pass 2 is a stateless vectorized scoring
    ``map_batches`` — no shuffle anywhere, text never leaves the
    worker."""
    import math

    n_docs, n_words_total, dfs = fit_bm25_stats(sf_dir)
    avgdl_milli = (1000 * n_words_total) // n_docs
    idf = [
        math.floor(math.log(1 + (n_docs - df + 0.5) / (df + 0.5)) * 1e6)
        for df in dfs
    ]

    def score(batch: pa.Table) -> pa.Table:
        import numpy as np

        dl, tf = _query_term_tfs(batch)
        r = dl * 1_000_000 // avgdl_milli
        total = np.zeros(len(dl), dtype=np.int64)
        for t in range(len(BM25_QUERY)):
            contrib = idf[t] * tf[t] * 20000 // (8000 * tf[t] + 3000 + 9 * r)
            total += np.where(tf[t] > 0, contrib, 0)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_words": pa.array(dl),
                "bm25_micros": pa.array(total),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        score, batch_format="pyarrow", zero_copy_batch=True
    )


# -- DSIR-style importance weights -------------------------------------------

IW_TARGET_MOD = 97  # doc_id % 97 == 0 -> target-domain member (same
# membership rule as filter.decontaminate's benchmark set)


def fit_ratio_table(sf_dir: str, vocab_cap: int) -> "tuple[dict, int]":
    """Fit the capped DSIR ratio table: (micros table of ≤ vocab_cap
    words by (n_all DESC, word ASC), OOV default micros).  The corpus
    and target token totals are FULL-corpus (they ride the vocab
    exchange as '' sentinel rows); the add-one smoothing denominator
    uses the CAPPED table size (the model's actual vocabulary).  OOV
    words default to (c_t=0, c_all=1) — the rare-word limit."""
    import math
    from collections import Counter

    def partial_counts(batch: pa.Table) -> pa.Table:
        c_all: Counter = Counter()
        c_tgt: Counter = Counter()
        tot_all = tot_tgt = 0
        for doc_id, text in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            words = text.split()
            c_all.update(words)
            tot_all += len(words)
            if doc_id % IW_TARGET_MOD == 0:
                c_tgt.update(words)
                tot_tgt += len(words)
        words = list(c_all)
        return pa.table(
            {
                "word": pa.array([""] + words, pa.string()),
                "n_all": pa.array(
                    [tot_all] + [c_all[w] for w in words], pa.int64()
                ),
                "n_tgt": pa.array(
                    [tot_tgt] + [c_tgt[w] for w in words], pa.int64()
                ),
            }
        )

    vocab_ds = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(partial_counts, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("word")
        .aggregate(Sum("n_all", alias_name="n_all"), Sum("n_tgt", alias_name="n_tgt"))
    )
    sent, top = _capped_vocab(vocab_ds, "n_all", vocab_cap)
    n_all_total = int(sent["n_all"].sum())
    n_tgt_total = int(sent["n_tgt"].sum())
    v_size = len(top)
    ratio = {
        w: (
            math.floor(math.log((int(ct) + 1) / (n_tgt_total + v_size)) * 1e6)
            - math.floor(math.log(int(ca) / n_all_total) * 1e6)
        )
        for w, ca, ct in zip(top["word"], top["n_all"], top["n_tgt"])
    }
    oov = math.floor(
        math.log(1.0 / (n_tgt_total + v_size)) * 1e6
    ) - math.floor(math.log(1.0 / n_all_total) * 1e6)
    return ratio, oov


def importance_weights(sf_dir: str, *, vocab_cap: int = VOCAB_CAP) -> rd.Dataset:
    """(doc_id, n_words, weight_micros): DSIR-style importance weight per
    document — the unigram log-likelihood ratio between a small TARGET
    domain (the benchmark subset, ``doc_id % 97 == 0``) and the full
    corpus, used to resample a raw crawl toward a target distribution
    (Xie et al., "Data Selection for Language Models via Importance
    Resampling", public method).  Per word: ratio_micros =
    floor(ln((c_t+1)/(N_t+V))·1e6) − floor(ln(c_all/N_all)·1e6)
    (add-one smoothing over the model vocabulary keeps unseen target
    words finite); per document: Σ tf·ratio_micros — an associative
    integer sum, float-safe for the DuckDB oracle.  Words outside the
    capped table take the OOV default (c_t=0, c_all=1).

    Scale shape: ONE counting pass emits in-batch partial (word,
    n_all, n_target) rows -> vocabulary-keyed groupby, pruned to the
    top-``vocab_cap`` words by (n_all DESC, word ASC) before anything
    reaches the driver; the fitted ratio table (a bounded model
    artifact) broadcasts once via ``ray.put``; scoring is a stateless
    second pass."""
    from collections import Counter

    import ray

    ratio, oov = fit_ratio_table(sf_dir, vocab_cap)
    ref = ray.put((ratio, oov))

    def score(batch: pa.Table) -> pa.Table:
        table, default = ray.get(ref)
        n_words, weights = [], []
        for text in batch.column("text").to_pylist():
            words = text.split()
            n_words.append(len(words))
            c = Counter(words)
            weights.append(sum(table.get(w, default) * k for w, k in c.items()))
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_words": pa.array(n_words, pa.int64()),
                "weight_micros": pa.array(weights, pa.int64()),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        score, batch_format="pyarrow", zero_copy_batch=True
    )


DSIR_SAMPLE_K = 100


def dsir_resample(
    sf_dir: str, *, k: int = DSIR_SAMPLE_K, vocab_cap: int = VOCAB_CAP
) -> rd.Dataset:
    """(doc_id, weight_micros, score_micros): the DSIR paper's actual
    RESAMPLING step — the ``k`` documents drawn without replacement with
    probability ∝ exp(importance weight), via the Gumbel-top-k identity
    (adding independent Gumbel noise to each log-weight and taking the
    top k IS that draw; public Gumbel-max trick).  The noise is
    derandomized through ``pack.shuffle_key``'s SQL-mirrorable integer
    hash — g = -ln(-ln(u)) with u = (hash+1)/2^31, an exact dyadic
    rational in both numpy and DuckDB doubles — so the sample is
    reproducible and oracle-checkable: score_micros = weight_micros +
    floor(g·1e6), ties broken by doc_id.

    Scale shape: scoring IS :func:`importance_weights` (same dataset,
    same broadcast-capped ratio table — keeping the two queries on one
    code path so the shared ``_importance_sql`` oracle can never
    desync); the Gumbel attach + per-batch local top-k (k rows survive
    each block) then one ≤ k·num_blocks-row sort add no extra pass —
    nothing corpus-sized moves, sorts, or touches the driver."""
    import numpy as np

    from .pack import shuffle_key

    def gumbel_topk(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        w = batch.column("weight_micros").to_numpy(zero_copy_only=False)
        u = (shuffle_key(ids) + 1) / 2147483648.0
        g = np.floor(-np.log(-np.log(u)) * 1e6).astype(np.int64)
        score = w + g
        if len(ids) > k:
            keep = np.lexsort((ids, -score))[:k]  # same key as the sort
            ids, w, score = ids[keep], w[keep], score[keep]
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "weight_micros": pa.array(w),
                "score_micros": pa.array(score),
            }
        )

    return (
        importance_weights(sf_dir, vocab_cap=vocab_cap)
        .map_batches(gumbel_topk, batch_format="pyarrow", zero_copy_batch=True)
        .sort(["score_micros", "doc_id"], descending=[True, False])
        .limit(k)
    )


#: the corpus language domain (a generator constant at every sf).  The
#: pivot's WIDE schema is fixed from it; an unexpected language fails
#: loudly instead of silently widening/dropping (the
#: rollup_source_lang margin-sentinel discipline).
PIVOT_LANGS = ("de", "en", "es", "fr", "zh")


def pivot_source_lang(sf_dir: str) -> rd.Dataset:
    """(source, n_de, n_en, n_es, n_fr, n_zh, n_total): the long→wide
    PIVOT — one row per source, one count column per language — the
    reshaping step every per-source language-mix report needs (the
    transpose of what ``groupby(source, lang)`` emits).

    Scale shape: each batch collapses to ≤ sources·langs narrow
    (source, lang, n) partial rows via an Arrow ``group_by``; the one
    exchange is keyed on source and the ``map_groups`` pivot is a
    pandas reindex over the FIXED language domain — output cardinality
    is the source count, bounded by definition."""
    import numpy as np
    import pandas as pd

    langs = tuple(PIVOT_LANGS)  # bind at build time: the closure ships
    # the domain to the workers (module-global lookup would re-resolve
    # in each worker process)

    def partials(batch: pa.Table) -> pa.Table:
        g = (
            batch.select(["source", "lang"])
            .group_by(["source", "lang"])
            .aggregate([("lang", "count")])
        )
        return pa.table(
            {
                "source": g.column("source"),
                "lang": g.column("lang"),
                "n": pc.cast(g.column("lang_count"), pa.int64()),
            }
        )

    def widen(g: pd.DataFrame) -> pd.DataFrame:
        unexpected = set(g["lang"]) - set(langs)
        if unexpected:
            raise ValueError(
                f"pivot_source_lang: languages {sorted(unexpected)} are"
                " outside the fixed PIVOT_LANGS schema"
            )
        counts = g.groupby("lang")["n"].sum().reindex(langs, fill_value=0)
        row = {"source": [g["source"].iloc[0]]}
        for lang in langs:
            row[f"n_{lang}"] = [np.int64(counts[lang])]
        row["n_total"] = [np.int64(counts.sum())]
        return pd.DataFrame(row)

    return (
        _docs(sf_dir, ["source", "lang"])
        .map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("source")
        .map_groups(arrow_udf(widen), batch_format="pandas")
    )


def rollup_source_lang(sf_dir: str) -> rd.Dataset:
    """(gid, source, lang, n_docs, total_chars): the OLAP GROUPING SETS
    rollup — per-(source, lang) cells (gid=0), per-source margins
    (gid=1, lang=''), per-lang margins (gid=2, source='') and the grand
    total (gid=3) in ONE pass.

    Scale shape: each batch emits pre-aggregated partial rows for all
    four grouping sets at once (multiplexed on gid, the same pattern as
    curate_pages' verdict union), so the corpus is read once and the
    single exchange carries ≤ 4·|cells| tiny rows per batch — versus
    four separate scans+groupbys for the naive plan.  '' is the
    margin sentinel (the documents tables have no empty source/lang),
    mirrored by COALESCE in the SQL oracle."""
    import numpy as np
    import pandas as pd

    def partials(batch: pa.Table) -> pa.Table:
        # the '' margin sentinel requires non-null keys; a null would
        # silently fall out of the gid=0/1/2 pandas groupbys while the
        # gid=3 grand total (len(df)) kept it — margins would desync
        # from the total AND from the oracle's NULL-keeping GROUPING
        # SETS.  Fail loudly instead (ADVICE r03 #1).
        if batch.column("source").null_count or batch.column("lang").null_count:
            raise ValueError(
                "rollup_source_lang: null source/lang violates the"
                " margin-sentinel contract"
            )
        df = pd.DataFrame(
            {
                "source": batch.column("source").to_pandas(),
                "lang": batch.column("lang").to_pandas(),
                "chars": batch.column("n_chars").to_numpy(zero_copy_only=False),
            }
        )
        outs = []
        for gid, keys in enumerate(
            (["source", "lang"], ["source"], ["lang"], [])
        ):
            if keys:
                agg = (
                    df.groupby(keys, sort=False)
                    .agg(n=("chars", "size"), c=("chars", "sum"))
                    .reset_index()
                )
            else:
                agg = pd.DataFrame(
                    {"n": [len(df)], "c": [int(df["chars"].sum())]}
                )
            agg["gid"] = gid
            if "source" not in agg:
                agg["source"] = ""
            if "lang" not in agg:
                agg["lang"] = ""
            outs.append(agg[["gid", "source", "lang", "n", "c"]])
        out = pd.concat(outs, ignore_index=True)
        return pa.table(
            {
                "gid": pa.array(out["gid"].to_numpy(np.int64)),
                "source": pa.array(out["source"], pa.string()),
                "lang": pa.array(out["lang"], pa.string()),
                "n": pa.array(out["n"].to_numpy(np.int64)),
                "c": pa.array(out["c"].to_numpy(np.int64)),
            }
        )

    return (
        _docs(sf_dir, ["source", "lang", "n_chars"])
        .map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["gid", "source", "lang"])
        .aggregate(
            Sum("n", alias_name="n_docs"), Sum("c", alias_name="total_chars")
        )
    )


def word_entropy(sf_dir: str) -> rd.Dataset:
    """(doc_id, n_words, surprisal_micros): total unigram self-
    information of each document under its OWN word distribution —
    Σ_w c_w · floor(ln(n/c_w)·1e6).  Dividing by n_words gives the
    Shannon entropy in micro-nats; low values flag repetitive/templated
    text (the information-theoretic cousin of compression_ratio).  The
    per-word term is floored to integer micros BEFORE the sum, so the
    total is an associative integer — batch order can never change the
    result, and the DuckDB oracle matches bit-for-bit.

    Scale shape: stateless single pass, no shuffle, no model."""
    import math
    from collections import Counter

    def score(batch: pa.Table) -> pa.Table:
        n_words, surp = [], []
        for text in batch.column("text").to_pylist():
            words = text.split()
            n = len(words)
            n_words.append(n)
            if n == 0:
                surp.append(0)
                continue
            c = Counter(words)
            surp.append(
                sum(k * math.floor(math.log(n / k) * 1e6) for k in c.values())
            )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_words": pa.array(n_words, pa.int64()),
                "surprisal_micros": pa.array(surp, pa.int64()),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        score, batch_format="pyarrow", zero_copy_batch=True
    )


def ols_residuals(sf_dir: str) -> rd.Dataset:
    """(doc_id, n_words, n_unique, resid_micros): length-adjusted
    vocabulary richness — residual of each document's unique-word count
    against the corpus-wide least-squares line n_unique ~ a + b·n_words.
    Raw type counts correlate with length (Heaps' law), so the residual,
    not the count, is the comparable "rich vs repetitive" signal; large
    negative residuals flag templated/repetitive pages.

    Scale shape (distributed closed-form fit, train-tiny/score-wide):
    pass 1 reduces each batch to ONE row of partial sums (n, Σx, Σy,
    Σxy, Σx²) — the driver folds ≤ num_blocks tiny rows into the two
    scalars (a, b); pass 2 scores statelessly with the scalars captured
    in the closure.  All moment sums are exact int64 per batch and fold
    in float64 in the same operation order as the SQL oracle, so
    floor(resid·1e6) agrees bit-for-bit."""
    import numpy as np

    def xy(batch: pa.Table) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        texts = batch.column("text").to_pylist()
        x = np.empty(len(ids), np.int64)
        y = np.empty(len(ids), np.int64)
        for i, t in enumerate(texts):
            words = t.split()  # one split serves both moments
            x[i] = len(words)
            y[i] = len(set(words))
        return ids, x, y

    def partials(batch: pa.Table) -> pa.Table:
        _, x, y = xy(batch)
        return pa.table(
            {
                "n": pa.array([len(x)], pa.int64()),
                "sx": pa.array([int(x.sum())], pa.int64()),
                "sy": pa.array([int(y.sum())], pa.int64()),
                "sxy": pa.array([int((x * y).sum())], pa.int64()),
                "sxx": pa.array([int((x * x).sum())], pa.int64()),
            }
        )

    docs = _docs(sf_dir, ["doc_id", "text"])
    mom = docs.map_batches(
        partials, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()  # <= num_blocks single-row partials, never corpus-sized

    def exact(col: str) -> float:
        # fold in unbounded Python ints, NOT int64: per-batch partials
        # are int64-safe, but the corpus-wide Σx² can pass 2^63 at
        # design scale — the SQL mirror sums in HUGEINT, so an int64
        # wrap here would silently desync the fit
        return float(sum(int(v) for v in mom[col]))

    n = exact("n")
    sx = exact("sx")
    sy = exact("sy")
    sxy = exact("sxy")
    sxx = exact("sxx")
    denom = n * sxx - sx * sx
    b = 0.0 if denom == 0.0 else (n * sxy - sx * sy) / denom
    a = (sy - b * sx) / n

    def score(batch: pa.Table) -> pa.Table:
        ids, x, y = xy(batch)
        resid = np.floor(
            (y.astype(np.float64) - (a + b * x.astype(np.float64))) * 1e6
        ).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "n_words": pa.array(x),
                "n_unique": pa.array(y),
                "resid_micros": pa.array(resid),
            }
        )

    return docs.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)


def fit_bigram_table(
    sf_dir: str, vocab_cap: int
) -> "tuple[dict, dict, int]":
    """Fit the capped interpolated-bigram LM: (bigram micros table over
    <= vocab_cap pairs, per-word backoff micros over <= vocab_cap
    words, OOV backoff micros).

    Two bounded fitting exchanges:
      1. unigram counts (same shape as :func:`fit_unigram_table`) ->
         top-``vocab_cap`` words by (count DESC, word ASC); N is the
         full-corpus token total via the '' sentinel row.
      2. bigram counts restricted to adjacent pairs whose BOTH words
         are in the capped vocabulary (the <= V-word set broadcasts
         into the counting stage, so the exchange carries at most V^2
         pair types, never the open-web bigram tail) ->
         top-``vocab_cap`` pairs by (count DESC, w1 ASC, w2 ASC).

    Model (Jelinek-Mercer interpolation, lambda = 0.75):
      p(w2|w1) = 0.75 * c12/c1 + 0.25 * c2/N   for capped pairs,
      p(w2|w1) = 0.25 * c2/N                    unseen pair, w2 in vocab,
      p(w2|w1) = 0.25 * 1/N                     w2 out of vocab,
    each stored as floor(ln(p) * 1e6) so the per-document sum is an
    associative integer and the DuckDB oracle is float-safe."""
    import math
    from collections import Counter

    import ray

    def partial_counts(batch: pa.Table) -> pa.Table:
        counts: Counter = Counter()
        total = 0
        for text in batch.column("text").to_pylist():
            words = text.split()
            counts.update(words)
            total += len(words)
        words = list(counts)
        return pa.table(
            {
                "word": pa.array([""] + words, pa.string()),
                "n": pa.array([total] + [counts[w] for w in words], pa.int64()),
            }
        )

    vocab_ds = (
        _docs(sf_dir, ["text"])
        .map_batches(partial_counts, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("word")
        .aggregate(Sum("n", alias_name="n"))
    )
    sent, top = _capped_vocab(vocab_ds, "n", vocab_cap)
    n_total = int(sent["n"].sum())
    uni = {w: int(c) for w, c in zip(top["word"], top["n"])}
    vocab_ref = ray.put(set(uni))

    def partial_bigrams(batch: pa.Table) -> pa.Table:
        vocab = ray.get(vocab_ref)
        counts: Counter = Counter()
        for text in batch.column("text").to_pylist():
            words = text.split()
            counts.update(
                (a, b)
                for a, b in zip(words, words[1:])
                if a in vocab and b in vocab
            )
        pairs = list(counts)
        return pa.table(
            {
                "w1": pa.array([p[0] for p in pairs], pa.string()),
                "w2": pa.array([p[1] for p in pairs], pa.string()),
                "c12": pa.array([counts[p] for p in pairs], pa.int64()),
            }
        )

    import pandas as pd

    def local_topv(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(
            ["c12", "w1", "w2"], ascending=[False, True, True]
        ).head(vocab_cap)

    head = (
        _docs(sf_dir, ["text"])
        .map_batches(partial_bigrams, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["w1", "w2"])
        .aggregate(Sum("c12", alias_name="c12"))
        .map_batches(local_topv, batch_format="pandas")
        .to_pandas()
    )
    btop = head.sort_values(
        ["c12", "w1", "w2"], ascending=[False, True, True]
    ).head(vocab_cap)

    bigram = {
        (w1, w2): math.floor(
            math.log(0.75 * (int(c12) / uni[w1]) + 0.25 * (uni[w2] / n_total))
            * 1e6
        )
        for w1, w2, c12 in zip(btop["w1"], btop["w2"], btop["c12"])
    }
    backoff = {
        w: math.floor(math.log(0.25 * (c / n_total)) * 1e6)
        for w, c in uni.items()
    }
    oov = math.floor(math.log(0.25 * (1.0 / n_total)) * 1e6)
    return bigram, backoff, oov


def perplexity_scores(sf_dir: str, *, vocab_cap: int = VOCAB_CAP) -> rd.Dataset:
    """(doc_id, n_bigrams, logprob_micros, ppl_micros): CCNet-style LM
    perplexity per document under an interpolated bigram model — the
    standard web-corpus quality signal (Wenzek et al., "CCNet:
    Extracting High Quality Monolingual Datasets from Web Crawl Data"
    score documents with a KenLM n-gram model; this is the same
    train-small/score-wide shape with a from-scratch bigram LM).

    logprob_micros = sum over adjacent word pairs of the fitted
    floor(ln p(w2|w1) * 1e6) (see :func:`fit_bigram_table`);
    ppl_micros = floor(exp(-logprob_micros / (n_bigrams * 1e6)) * 1e6)
    — integer end-to-end so the DuckDB oracle hash-matches.  Documents
    with fewer than two words carry (0, 0, -1): perplexity undefined.

    Scale shape: both fitting passes exchange only capped-vocabulary
    partials; the fitted model (<= 2V+1 entries) broadcasts once via
    ``ray.put``; scoring is a stateless single pass."""
    import ray

    bigram, backoff, oov = fit_bigram_table(sf_dir, vocab_cap)
    ref = ray.put((bigram, backoff, oov))

    def score(batch: pa.Table) -> pa.Table:
        btab, btof, default = ray.get(ref)
        n_bi, lps, ppls = _ppl_score_texts(
            batch.column("text").to_pylist(), btab, btof, default
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_bigrams": pa.array(n_bi, pa.int64()),
                "logprob_micros": pa.array(lps, pa.int64()),
                "ppl_micros": pa.array(ppls, pa.int64()),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        score, batch_format="pyarrow", zero_copy_batch=True
    )


def _ppl_score_texts(
    texts: list[str], btab: dict, btof: dict, default: int
) -> "tuple[list[int], list[int], list[int]]":
    """Score a text batch under the fitted bigram LM: per text
    (n_bigrams, logprob_micros, ppl_micros) — shared by
    :func:`perplexity_scores` and :func:`ccnet_buckets`."""
    import math

    n_bi: list[int] = []
    lps: list[int] = []
    ppls: list[int] = []
    for text in texts:
        words = text.split()
        n = max(len(words) - 1, 0)
        n_bi.append(n)
        if n == 0:
            lps.append(0)
            ppls.append(-1)
            continue
        lp = 0
        for pair in zip(words, words[1:]):
            m = btab.get(pair)
            if m is None:
                m = btof.get(pair[1], default)
            lp += m
        lps.append(lp)
        ppls.append(math.floor(math.exp(-lp / (n * 1e6)) * 1e6))
    return n_bi, lps, ppls


CCNET_TILES = 3
_CCNET_GRID_SUB = 8  # eighth-octave ppl range buckets in the rank grid


def ccnet_buckets(
    sf_dir: str, *, vocab_cap: int = VOCAB_CAP, tiles: int = CCNET_TILES
) -> rd.Dataset:
    """(doc_id, lang, tile): CCNet's head/middle/tail selection (Wenzek
    et al.) — each language's documents split into ``tiles`` equal
    rank-tiles by ascending perplexity (ties by doc_id); tile 0 = head
    = most fluent.  Tile sizes mirror SQL ``ntile()``: the first
    ``n % tiles`` tiles take one extra row.

    Scale shape: the capped LM broadcasts once (see
    :func:`fit_bigram_table`); one scoring pass materializes narrow
    (doc_id, lang, ppl_micros) rows; per-language global ranks then use
    the two-pass distributed-rank pattern of ``pack.shuffle_shards`` —
    a constant-size (lang × log-range-bucket) count grid on the driver
    plus one co-shuffle on the composite bucket key, each group ranked
    by one vectorized sort.  The bucket map floor(8·log2(ppl+2)) is
    monotone in ppl, so grid offsets align with the sort order; equal
    ppl values always share a bucket (the only skew hazard is
    integer-micros ties)."""
    import numpy as np
    import ray

    bigram, backoff, oov = fit_bigram_table(sf_dir, vocab_cap)
    model_ref = ray.put((bigram, backoff, oov))

    def score_narrow(batch: pa.Table) -> pa.Table:
        btab, btof, default = ray.get(model_ref)
        _, _, ppls = _ppl_score_texts(
            batch.column("text").to_pylist(), btab, btof, default
        )
        ppl = np.array(ppls, np.int64)
        vb = np.floor(
            _CCNET_GRID_SUB * np.log2((ppl + 2).astype(np.float64))
        ).astype(np.int64)
        langs = batch.column("lang").to_pylist()
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "lang": batch.column("lang"),
                "ppl_micros": pa.array(ppl),
                "gkey": pa.array(
                    [f"{lg}:{b}" for lg, b in zip(langs, vb)], pa.string()
                ),
            }
        )

    narrow = (
        _docs(sf_dir, ["doc_id", "lang", "text"])
        .map_batches(score_narrow, batch_format="pyarrow", zero_copy_batch=True)
        .materialize()  # scored once; both rank passes read these blocks
    )

    from collections import Counter

    import pandas as pd

    from .join import co_group

    def count_partials(batch: pa.Table) -> pa.Table:
        c = Counter(batch.column("gkey").to_pylist())
        return _count_rows(c, {"gkey": pa.string()}, "gkey")

    def combine(parts: pd.DataFrame) -> pd.DataFrame:
        return parts.groupby("gkey", as_index=False)["n"].sum()

    counts = narrow.map_batches(
        count_partials, batch_format="pyarrow", zero_copy_batch=True
    )
    # <= langs × log-range buckets rows, constant
    grid = co_group(combine, parts=(counts, "h")).to_pandas()
    grid["lang"] = grid["gkey"].str.rsplit(":", n=1).str[0]
    grid["vb"] = grid["gkey"].str.rsplit(":", n=1).str[1].astype(np.int64)
    grid = grid.sort_values(["lang", "vb"])
    csum = grid.groupby("lang", sort=False)["n"].cumsum().to_numpy()
    offsets = dict(zip(grid["gkey"], (csum - grid["n"].to_numpy()).tolist()))
    totals = grid.groupby("lang")["n"].sum().to_dict()
    plan_ref = ray.put((offsets, totals))

    def rank(g: pd.DataFrame) -> pd.DataFrame:
        offs, tots = ray.get(plan_ref)
        g = g.sort_values(["ppl_micros", "doc_id"])
        gkey = g["gkey"].iloc[0]
        lang = g["lang"].iloc[0]
        ranks = offs[gkey] + np.arange(len(g), dtype=np.int64)
        n = int(tots[lang])
        base, rem = divmod(n, tiles)
        cut = rem * (base + 1)
        tile = np.where(
            ranks < cut,
            ranks // (base + 1),
            rem + (ranks - cut) // max(base, 1),
        ).astype(np.int64)
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy().astype(np.int64),
                "lang": g["lang"].to_numpy(),
                "tile": tile,
            }
        )

    return narrow.groupby("gkey").map_groups(arrow_udf(rank), batch_format="pandas")


# -- PMI collocations --------------------------------------------------------

PMI_MIN_COUNT = 3


def pmi_bigrams(sf_dir: str, k: int = 20) -> rd.Dataset:
    """(bigram, n_xy, pmi_micros): the k strongest word collocations by
    pointwise mutual information — pmi = ln(p(xy) / (p(x) p(y))) with
    p(xy) = c_xy / N_bi and p(w) = c_w / N_uni, floored to integer
    micros, over bigrams seen >= PMI_MIN_COUNT times.

    Scale shape (no corpus-sized exchange, no whole-vocab broadcast,
    TWO AllToAll passes total + a ≤ k×batches sort):
    1. each batch emits partial unigram-count rows keyed by the word
       and partial bigram half-rows keyed by each side's word — the
       counting exchange and the count-attachment exchange are FUSED:
       inside a word bucket the partials sum to global counts (every
       partial of a word, and of a bigram keyed by that side, lands in
       the same bucket), the min-count filter binds, and c_x / c_y
       attach by exact string merge.  Per-group total rows
       (partitioned partials of N_uni / N_bi) ride the same output.
    2. the vocabulary-sized half-row output materializes once; the
       driver folds the ≤ #buckets total rows into two scalars.
    3. a bigram-keyed regroup combines the two sides and computes the
       PMI; per-batch local top-k bounds the final sort.
    The word-count table is never collected or broadcast (contrast the
    deliberately-capped broadcast models in unigram_logprob and
    friends: the top-V cap there changes results; a co-shuffle here
    keeps PMI exact at any vocabulary size)."""
    import math
    from collections import Counter

    import pandas as pd

    from .join import co_group

    def partials(batch: pa.Table) -> pa.Table:
        uni: Counter = Counter()
        bi: Counter = Counter()
        for text in batch.column("text").to_pylist():
            words = text.split()
            uni.update(words)
            bi.update(f"{a} {b}" for a, b in zip(words, words[1:]))
        wkey, roles, sides, bigrams, ns = [], [], [], [], []
        for w, c in uni.items():
            wkey.append(w)
            roles.append(0)
            sides.append(0)
            bigrams.append("")
            ns.append(c)
        for g, c in bi.items():
            for side, w in enumerate(g.split(" "), start=1):
                wkey.append(w)
                roles.append(1)
                sides.append(side)
                bigrams.append(g)
                ns.append(c)
        return pa.table(
            {
                "h": _crc32s(wkey),
                "word": pa.array(wkey, pa.string()),
                "role": pa.array(roles, pa.int8()),
                "side": pa.array(sides, pa.int8()),
                "bigram": pa.array(bigrams, pa.string()),
                "n": pa.array(ns, pa.int64()),
            }
        )

    def join_words(df: pd.DataFrame) -> pd.DataFrame:
        u = (
            df.loc[df["role"] == 0]
            .groupby("word", as_index=False)["n"]
            .sum()
            .rename(columns={"n": "c_w"})
        )
        p = (
            df.loc[df["role"] == 1]
            .groupby(["bigram", "side", "word"], as_index=False)["n"]
            .sum()
        )
        # totals partials: every unigram count lands in exactly one
        # bucket; side-1 half-rows partition the bigrams
        tot = pd.DataFrame(
            {
                "bigram": [""],
                "side": [0],
                "n": [0],
                "c_w": [0],
                "n_uni_part": [int(u["c_w"].sum())],
                "n_bi_part": [int(p.loc[p["side"] == 1, "n"].sum())],
            }
        )
        p = p[p["n"] >= PMI_MIN_COUNT].merge(u, on="word")[
            ["bigram", "side", "n", "c_w"]
        ]
        p["n_uni_part"] = 0
        p["n_bi_part"] = 0
        return pd.concat([p, tot], ignore_index=True)

    parts = _docs(sf_dir, ["text"]).map_batches(
        partials, batch_format="pyarrow", zero_copy_batch=True
    )
    sided = co_group(join_words, df=(parts, "h")).materialize()

    def block_totals(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "u": pa.array(
                    [int(batch.column("n_uni_part").to_numpy().sum())], pa.int64()
                ),
                "b": pa.array(
                    [int(batch.column("n_bi_part").to_numpy().sum())], pa.int64()
                ),
            }
        )

    tot = sided.map_batches(
        block_totals, batch_format="pyarrow", zero_copy_batch=True
    ).take_all()
    n_uni = float(sum(r["u"] for r in tot))
    n_bi = float(sum(r["b"] for r in tot))

    def bigram_key(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.not_equal(batch.column("side"), pa.scalar(0, pa.int8()))
        )
        return pa.table(
            {
                "h": _crc32s(batch.column("bigram").to_pylist()),
                "bigram": batch.column("bigram"),
                "side": batch.column("side"),
                "n_xy": batch.column("n"),
                "c_w": batch.column("c_w"),
            }
        )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        piv = df.pivot_table(
            index=["bigram", "n_xy"], columns="side", values="c_w", aggfunc="first"
        ).reset_index()
        rows = []
        for b, nxy, cx, cy in zip(piv["bigram"], piv["n_xy"], piv[1], piv[2]):
            r = float(nxy)
            r = r * n_uni
            r = r * n_uni
            r = r / n_bi
            r = r / float(cx)
            r = r / float(cy)
            rows.append((b, int(nxy), math.floor(math.log(r) * 1e6)))
        return pd.DataFrame(rows, columns=["bigram", "n_xy", "pmi_micros"])

    def local_topk(batch: pa.Table) -> pa.Table:
        idx = pc.select_k_unstable(
            batch, k, [("pmi_micros", "descending"), ("bigram", "ascending")]
        )
        return batch.take(idx)

    halves = sided.map_batches(
        bigram_key, batch_format="pyarrow", zero_copy_batch=True
    )
    return (
        co_group(finish, df=(halves, "h"))
        .map_batches(local_topk, batch_format="pyarrow", zero_copy_batch=True)
        .sort(["pmi_micros", "bigram"], descending=[True, False])
        .limit(k)
    )


# -- vocabulary construction -------------------------------------------------

VOCAB_TOP_V = 50


def vocab_coverage(sf_dir: str, v: int = VOCAB_TOP_V) -> "pd.DataFrame":
    """(rank, word, n, cum_n, coverage_micros): the top-V corpus
    vocabulary by (count DESC, word ASC) with cumulative token
    coverage — the artifact a tokenizer build starts from.

    Scale shape: :func:`_word_counts` (vocabulary-sized rows) →
    :func:`_top_words` (per-block local top-V prune, one keyless
    :func:`co_group` cut over ≤ V × blocks candidates).  The corpus total comes from
    per-block partial sums (the driver adds one int per block).  Only
    the final V rows (bounded by definition) leave the cluster;
    coverage is pure integer arithmetic (cum * 1e6 // total) so the
    oracle hashes exactly."""
    counts = _word_counts(sf_dir).materialize()

    def block_total(batch: pa.Table) -> pa.Table:
        n = batch.column("n").to_numpy(zero_copy_only=False)
        return pa.table({"t": pa.array([int(n.sum())], pa.int64())})

    total = sum(
        r["t"]
        for r in counts.map_batches(
            block_total, batch_format="pyarrow", zero_copy_batch=True
        ).take_all()
    )

    top = _top_words(counts, v).to_pandas()
    top.insert(0, "rank", range(1, len(top) + 1))
    top["cum_n"] = top["n"].cumsum()
    top["coverage_micros"] = top["cum_n"] * 1_000_000 // int(total)
    return top


# -- compression-ratio quality signal ----------------------------------------


def compression_ratio(sf_dir: str) -> rd.Dataset:
    """(doc_id, raw_len, comp_len, ratio_permille): zlib-level-6
    compressed size per document — the classic gibberish/boilerplate
    signal (highly repetitive text compresses far below natural prose;
    random noise barely compresses).  ratio_permille = comp_len * 1000
    // raw_len.  Rows-only for the driver: SQL has no zlib, so the
    check is a value-golden test against the library itself.  One
    stateless map_batches pass; the C-level compressor is the kernel."""
    import zlib

    import numpy as np

    def run(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        raw = np.empty(len(texts), np.int64)
        comp = np.empty(len(texts), np.int64)
        for i, t in enumerate(texts):
            b = t.encode("utf-8")
            raw[i] = len(b)
            comp[i] = len(zlib.compress(b, 6))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(raw > 0, comp * 1000 // np.maximum(raw, 1), 0)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "raw_len": pa.array(raw),
                "comp_len": pa.array(comp),
                "ratio_permille": pa.array(ratio.astype(np.int64)),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        run, batch_format="pyarrow", zero_copy_batch=True
    )


# -- BPE tokenizer training --------------------------------------------------

BPE_MERGES = 12
BPE_VOCAB_CAP = 200


def _bpe_training_vocab(sf_dir: str, cap: int) -> "pd.DataFrame":
    """Distributed (word, n) counts pruned to the top ``cap`` by
    (n DESC, word) — the same shape as vocab_coverage's head, reused as
    the training table for BPE (classic BPE trains on the weighted
    word VOCAB, not the token stream, so the only corpus-scale pass is
    this aggregation)."""
    return _top_words(_word_counts(sf_dir), cap).to_pandas()


def bpe_merge_loop(
    vocab: "list[tuple[str, int]]", n_merges: int
) -> "list[tuple[int, str, str, int]]":
    """The classic Sennrich BPE loop over a weighted word vocabulary:
    words start as char sequences + '</w>'; each round counts adjacent
    symbol pairs (weighted by word count), merges the most frequent
    (ties to the lexicographically smallest pair — deterministic), and
    rewrites the sequences.  Pure function of the vocab; the driver
    runs it on the CAPPED table, so its cost is bounded by cap, never
    the corpus."""
    seqs: list[tuple[list[str], int]] = [
        ([*word, "</w>"], n) for word, n in vocab
    ]
    merges: list[tuple[int, str, str, int]] = []
    for rank in range(1, n_merges + 1):
        pairs: dict[tuple[str, str], int] = {}
        for sym, n in seqs:
            for a, b in zip(sym, sym[1:]):
                pairs[(a, b)] = pairs.get((a, b), 0) + n
        if not pairs:
            break
        (la, lb), cnt = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))
        merged = la + lb
        out = []
        for sym, n in seqs:
            i, new = 0, []
            while i < len(sym):
                if i + 1 < len(sym) and sym[i] == la and sym[i + 1] == lb:
                    new.append(merged)
                    i += 2
                else:
                    new.append(sym[i])
                    i += 1
            out.append((new, n))
        seqs = out
        merges.append((rank, la, lb, cnt))
    return merges


def train_bpe(sf_dir: str, n_merges: int = BPE_MERGES) -> "pd.DataFrame":
    """(rank, left, right, pair_count): the learned BPE merge table —
    distributed top-V weighted vocab aggregation (the one corpus-scale
    pass), then the bounded merge loop on the driver.  Rows-only for
    the driver (the iterative merge rewrite is not SQL-expressible);
    pinned in tests by exact equality with an independent reference
    loop over the same vocab."""
    import pandas as pd

    vocab_df = _bpe_training_vocab(sf_dir, BPE_VOCAB_CAP)
    merges = bpe_merge_loop(
        list(zip(vocab_df["word"], vocab_df["n"])), n_merges
    )
    return pd.DataFrame(
        merges, columns=["rank", "left", "right", "pair_count"]
    )


def bpe_segment_counts(sf_dir: str, n_merges: int = BPE_MERGES) -> rd.Dataset:
    """(doc_id, n_bpe_tokens): apply the learned merge table corpus-wide
    and count resulting subword tokens per document — the score-wide
    half of the train-small/score-wide shape.  The merge table (bounded
    by n_merges) broadcasts once via ray.put; per-batch the word →
    segmentation map is memoized, so the merge loop runs once per
    distinct word per batch, not per token."""
    import ray

    merges = train_bpe(sf_dir, n_merges)
    merge_list = list(zip(merges["left"], merges["right"]))
    ref = ray.put(merge_list)

    def seg_len(word: str, mlist: "list[tuple[str, str]]") -> int:
        sym = [*word, "</w>"]
        for la, lb in mlist:
            i, new = 0, []
            while i < len(sym):
                if i + 1 < len(sym) and sym[i] == la and sym[i + 1] == lb:
                    new.append(la + lb)
                    i += 2
                else:
                    new.append(sym[i])
                    i += 1
            sym = new
        return len(sym)

    def run(batch: pa.Table) -> pa.Table:
        mlist = ray.get(ref)
        memo: dict[str, int] = {}
        counts = []
        for text in batch.column("text").to_pylist():
            total = 0
            for w in text.split():
                if w not in memo:
                    memo[w] = seg_len(w, mlist)
                total += memo[w]
            counts.append(total)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_bpe_tokens": pa.array(counts, pa.int64()),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        run, batch_format="pyarrow", zero_copy_batch=True
    )


# -- pairwise source similarity over word-frequency vectors ------------------


def source_vocab_overlap(sf_dir: str) -> rd.Dataset:
    """(source_a, source_b, sum_min, n_a, n_b, ruzicka_micros): pairwise
    corpus-mixing diagnostic — the weighted-Jaccard (Ruzicka)
    similarity of every two sources' word-FREQUENCY vectors,
    ``sum_w min(f_a, f_b) / sum_w max(f_a, f_b)``.  Set-Jaccard over
    vocabularies is degenerate when sources share one vocabulary (all
    1.0 on this corpus); frequency weighting discriminates.  The
    denominator never needs unshared words explicitly:
    ``sum max = n_a + n_b − sum min`` (totals minus the shared mass),
    so only words present in BOTH sources ever join.  Pairs sharing no
    word are omitted (no SQL row either).  ``ruzicka_micros`` is the
    integer floor of 1e6·min/max — exact on both sides.

    Scale shape: :func:`_source_word_partials` (vocabulary-sized, not
    token-sized) go through one word-keyed :func:`co_group`, so each
    word's full count vector lands in one bucket; the bucket's pandas
    self-merge emits ≤ |sources|² partial pair rows plus per-source
    total partials (multiplexed — no second text pass), and ONE
    keyless :func:`co_group` folds ≤ buckets·(pairs+sources) narrow
    rows.  Quadratic only in |sources| (inherent to all-pairs output),
    linear in corpus size."""
    import numpy as np
    import pandas as pd

    from .join import co_group

    def pair_partials(parts: pd.DataFrame) -> pd.DataFrame:
        # combine cross-batch partials: exact per-(word, source) counts
        f = parts.groupby(["word", "source"], as_index=False)["n"].sum()
        solo = f.groupby("source", as_index=False)["n"].sum()
        m = f.merge(f, on="word")
        m = m[m["source_x"] < m["source_y"]]
        m["mn"] = np.minimum(m["n_x"], m["n_y"])
        p = m.groupby(["source_x", "source_y"], as_index=False)["mn"].sum()
        out = pd.DataFrame(
            {
                "sa": pd.concat(
                    [p["source_x"], solo["source"]], ignore_index=True
                ),
                "sb": pd.concat(
                    [p["source_y"], pd.Series([""] * len(solo))],
                    ignore_index=True,
                ),
                "v": pd.concat([p["mn"], solo["n"]], ignore_index=True),
            }
        )
        out["v"] = out["v"].astype(np.int64)
        return out

    def combine(pairs: pd.DataFrame) -> pd.DataFrame:
        solo = pairs[pairs["sb"] == ""].groupby("sa")["v"].sum()
        p = pairs[pairs["sb"] != ""].groupby(["sa", "sb"], as_index=False)["v"].sum()
        n_a = solo.loc[p["sa"]].to_numpy(np.int64)
        n_b = solo.loc[p["sb"]].to_numpy(np.int64)
        smin = p["v"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "source_a": p["sa"],
                "source_b": p["sb"],
                "sum_min": smin,
                "n_a": n_a,
                "n_b": n_b,
                "ruzicka_micros": (1_000_000 * smin) // (n_a + n_b - smin),
            }
        )

    pairs = co_group(pair_partials, parts=(_source_word_partials(sf_dir), "h"))
    return co_group(combine, pairs=(pairs, None))


# -- inter-document n-gram novelty --------------------------------------------

#: word n-gram length for gram_novelty (matches decontaminate's grams)
NOVELTY_NGRAM = 8


def gram_novelty(sf_dir: str) -> rd.Dataset:
    """(doc_id, n_grams, n_novel): per document, its count of DISTINCT
    word-8-grams and how many of those appear in NO lower-numbered
    document (min-doc_id first-seen rule) — the document-level novelty
    signal behind "how much of this crawl is genuinely new text".

    Scale shape: grams never leave workers as strings.  Each batch
    emits per-doc distinct gram HASHES (the memoized word-hash +
    odd-multiplier rolling combine minhash already uses — O(words)
    digests, vectorized combine) plus one zero row per document (so
    gram-less short docs still appear, mirroring the SQL LEFT JOIN),
    keyed by the gram hash (a zero row by its doc_id) in one
    :func:`co_group`; each bucket owns its grams wholly, so min-doc_id
    and per-doc partial (n_grams, n_novel) counts are exact in ONE
    exchange of 16-byte rows.  A doc-keyed second :func:`co_group`
    folds the ≤ docs × K partials.  The gram hash is
    64-bit (same collision bound as the shuffle key: ~n²/2⁶⁵ — the
    sf0.01 oracle hash-match evidences collision-free test corpora);
    the hash never reaches the output, the oracle groups gram TEXT."""
    import numpy as np
    import pandas as pd

    from .dedup import _SHINGLE_C1, _SHINGLE_C2, _stable64
    from .join import co_group

    def gram_rows(batch: pa.Table) -> pa.Table:
        word_cache: dict[str, int] = {}
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        out_gh, out_doc = [], []
        n = NOVELTY_NGRAM
        for doc_id, text in zip(ids, batch.column("text").to_pylist()):
            words = text.split()
            if len(words) >= n:
                hs = np.fromiter(
                    (
                        word_cache[w]
                        if w in word_cache
                        else word_cache.setdefault(w, _stable64(w))
                        for w in words
                    ),
                    dtype=np.uint64,
                    count=len(words),
                )
                with np.errstate(over="ignore"):
                    # rolling 8-word combine with odd-multiplier powers
                    # (same family as _shingle_hashes, width 8)
                    acc = hs[: len(hs) - n + 1].copy()
                    for j in range(1, n):
                        acc = acc * _SHINGLE_C1 + hs[j : len(hs) - n + 1 + j] * _SHINGLE_C2
                grams = np.unique(acc).view(np.int64)
                out_gh.append(grams)
                out_doc.append(np.full(len(grams), doc_id, np.int64))
        gh = (
            np.concatenate(out_gh) if out_gh else np.zeros(0, np.int64)
        )
        doc = (
            np.concatenate(out_doc) if out_doc else np.zeros(0, np.int64)
        )
        # one zero row per doc, keyed by its doc_id in the gh column,
        # so gram-less docs still appear
        zrow_doc = ids.astype(np.int64)
        return pa.table(
            {
                "gh": pa.array(np.concatenate([gh, zrow_doc]), pa.int64()),
                "doc_id": pa.array(
                    np.concatenate([doc, zrow_doc]), pa.int64()
                ),
                "z": pa.array(
                    np.concatenate(
                        [np.zeros(len(gh), np.int8),
                         np.ones(len(zrow_doc), np.int8)]
                    )
                ),
            }
        )

    def bucket_partials(rows: pd.DataFrame) -> pd.DataFrame:
        gram = rows["z"].to_numpy() == 0
        grams = rows[gram]
        first = grams.groupby("gh")["doc_id"].transform("min").to_numpy(np.int64)
        novel = np.zeros(len(rows), np.int64)
        novel[gram] = grams["doc_id"].to_numpy(np.int64) == first
        df = pd.DataFrame(
            {
                "doc_id": rows["doc_id"].to_numpy(np.int64),
                "n_grams": gram.astype(np.int64),
                "n_novel": novel,
            }
        )
        return df.groupby("doc_id", as_index=False).sum()

    def doc_combine(parts: pd.DataFrame) -> pd.DataFrame:
        out = parts.groupby("doc_id", as_index=False)[["n_grams", "n_novel"]].sum()
        return out.astype(np.int64)

    rows = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        gram_rows, batch_format="pyarrow", zero_copy_batch=True
    )
    parts = co_group(bucket_partials, rows=(rows, "gh"))
    return co_group(doc_combine, parts=(parts, "doc_id"))


# -- exact global top-k words --------------------------------------------------

#: how many top words top_words reports
TOP_WORDS_K = 50


def top_words(sf_dir: str, k: int = TOP_WORDS_K) -> rd.Dataset:
    """(word, n): the ``k`` most frequent words corpus-wide with EXACT
    counts — the exact counterpart of the CMS-based ``heavy_hitters``
    sketch, ties broken by word ascending (deterministic cut).

    Scale shape: :func:`_word_counts` — each batch collapses to its
    own word counts (vocabulary-sized, not token-sized) and one
    word-keyed :func:`co_group` makes totals exact — then
    :func:`_top_words`: each block keeps its LOCAL top-k (a global
    winner always wins its block — the salted two-stage top-k) and one
    keyless :func:`co_group` cuts the final k.  A skewed hot word costs
    nothing extra: its partials are pre-summed per batch, so the hot
    bucket sees blocks, not occurrences."""
    return _top_words(_word_counts(sf_dir), k)


# -- distributed percent_rank of document length per source --------------------


def length_percentiles(sf_dir: str) -> rd.Dataset:
    """(doc_id, source, pct_micros): each document's percent_rank of
    (n_chars, doc_id) within its source, as exact integer micros
    ``(rank₀ · 10⁶) // (n_source − 1)`` (0 when the source has one
    doc) — the normalized quality-score transform that makes length
    comparable across sources with different length regimes.

    Scale shape: the two-pass distributed-rank pattern of
    ``ccnet_buckets`` with n_chars ITSELF as the grid value (no log
    bucketing needed — the (source, n_chars) count grid is bounded by
    sources × distinct lengths, constant at any corpus size).  Pass 1
    folds per-batch grid partials in one n_chars-keyed
    :func:`co_group` to a driver-side cumulative-offset map, broadcast
    once; pass 2 co-shuffles narrow (doc_id, source,
    n_chars) rows on the (source, n_chars) tie-group key — equal keys
    land whole, so the within-tie doc_id sort is exact — and emits
    rank = offset + position."""
    import numpy as np
    import pandas as pd
    import ray

    from .join import co_group

    def grid_partials(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "source": batch.column("source").to_pandas(),
                "n_chars": batch.column("n_chars").to_pandas(),
            }
        )
        agg = df.groupby(["source", "n_chars"], sort=False).size().reset_index(
            name="n"
        )
        return pa.table(
            {
                "source": pa.array(agg["source"], pa.string()),
                "n_chars": pa.array(agg["n_chars"].to_numpy(np.int64)),
                "n": pa.array(agg["n"].to_numpy(np.int64)),
            }
        )

    def grid_combine(parts: pd.DataFrame) -> pd.DataFrame:
        agg = parts.groupby(["source", "n_chars"], as_index=False)["n"].sum()
        return agg.astype({"n_chars": np.int64, "n": np.int64})

    parts = _docs(sf_dir, ["source", "n_chars"]).map_batches(
        grid_partials, batch_format="pyarrow", zero_copy_batch=True
    )
    # <= sources × distinct lengths rows, constant
    grid = co_group(grid_combine, parts=(parts, "n_chars")).to_pandas()
    grid = grid.sort_values(["source", "n_chars"])
    csum = grid.groupby("source", sort=False)["n"].cumsum().to_numpy()
    offsets = {
        (s, int(c)): int(o)
        for s, c, o in zip(
            grid["source"], grid["n_chars"], csum - grid["n"].to_numpy()
        )
    }
    totals = grid.groupby("source")["n"].sum().to_dict()
    plan_ref = ray.put((offsets, totals))

    def narrow(batch: pa.Table) -> pa.Table:
        src = batch.column("source").to_pylist()
        nch = batch.column("n_chars").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "gkey": pa.array(
                    [f"{s}:{c}" for s, c in zip(src, nch)], pa.string()
                ),
                "doc_id": batch.column("doc_id"),
                "source": batch.column("source"),
                "n_chars": pc.cast(batch.column("n_chars"), pa.int64()),
            }
        )

    def rank(g: pd.DataFrame) -> pd.DataFrame:
        offs, tots = ray.get(plan_ref)
        g = g.sort_values("doc_id")
        src = g["source"].iloc[0]
        key = (src, int(g["n_chars"].iloc[0]))
        ranks = offs[key] + np.arange(len(g), dtype=np.int64)
        n = int(tots[src])
        pct = (
            (ranks * 1_000_000) // (n - 1)
            if n > 1
            else np.zeros(len(g), np.int64)
        )
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(np.int64),
                "source": g["source"].to_numpy(),
                "pct_micros": pct.astype(np.int64),
            }
        )

    return (
        _docs(sf_dir, ["doc_id", "source", "n_chars"])
        .map_batches(narrow, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("gkey")
        .map_groups(arrow_udf(rank), batch_format="pandas")
    )


# -- table profiling: per-column null / distinct counts ------------------------

#: documents columns profiled by profile_documents
PROFILE_COLUMNS = ("doc_id", "lang", "n_chars", "source", "text")


def profile_documents(sf_dir: str) -> rd.Dataset:
    """(col, n_null, n_distinct): the data-profiling summary every
    ingest job runs first — per column of ``documents``, its null count
    and exact distinct-value count.

    Scale shape: one multiplexed exchange for ALL columns.  Each batch
    emits per-column DISTINCT value hashes (64-bit stable blake2b over
    a canonical string form — values never shuffle raw, the text
    column's payload stays on the worker) plus one per-column null-
    count partial row; a :func:`co_group` keyed on the hash gives each
    bucket its (col, hash) slots wholly, so distinct counts are exact;
    the combine folds ≤ buckets × cols rows.  Hash collisions would
    undercount distincts by ~n²/2⁶⁵ — the sf0.01 oracle hash-match
    evidences collision-free profiling at test scale."""
    import numpy as np
    import pandas as pd

    from .dedup import _stable64
    from .join import co_group

    def partials(batch: pa.Table) -> pa.Table:
        cols, hs, nulls = [], [], []
        for name in PROFILE_COLUMNS:
            col = batch.column(name)
            n_null = col.null_count
            vals = [v for v in col.to_pylist() if v is not None]
            uniq = {
                _stable64(f"{name}\x00{v}") for v in vals
            }
            cols.extend([name] * (len(uniq) + 1))
            h = np.fromiter(uniq, np.uint64, count=len(uniq)).view(np.int64)
            hs.append(h)
            hs.append(np.array([-1], np.int64))  # the null-count slot
            nulls.extend([0] * len(uniq) + [n_null])
        flat = np.concatenate(hs) if hs else np.zeros(0, np.int64)
        return pa.table(
            {
                "col": pa.array(cols, pa.string()),
                "h": pa.array(flat, pa.int64()),
                "n_null": pa.array(np.array(nulls, np.int64)),
            }
        )

    def bucket_fold(parts: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for col, gg in parts.groupby("col"):
            vals = gg[gg["h"] != -1]["h"].nunique()
            rows.append((col, int(gg["n_null"].sum()), int(vals)))
        return pd.DataFrame(
            rows, columns=["col", "n_null", "n_distinct"]
        ).astype({"n_null": np.int64, "n_distinct": np.int64})

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "col": [g["col"].iloc[0]],
                "n_null": np.array([g["n_null"].sum()], np.int64),
                "n_distinct": np.array([g["n_distinct"].sum()], np.int64),
            }
        )

    parts = _docs(sf_dir, list(PROFILE_COLUMNS)).map_batches(
        partials, batch_format="pyarrow", zero_copy_batch=True
    )
    return (
        co_group(bucket_fold, parts=(parts, "h"))
        .groupby("col")
        .map_groups(arrow_udf(combine), batch_format="pandas")
    )


# -- reciprocal-rank fusion of two retrieval rankings ---------------------------

#: RRF smoothing constant (the standard 60 from Cormack et al. 2009)
RRF_K = 60
#: how deep each source ranking is retrieved before fusion
RRF_TOPR = 100
#: how many fused results rrf_fusion reports
RRF_OUT_K = 20


def rrf_fusion(sf_dir: str) -> rd.Dataset:
    """(doc_id, bm25_rank, tfidf_rank, rrf_micros): hybrid retrieval —
    the top-:data:`RRF_TOPR` documents under Okapi BM25 and under
    plain tf·idf query scoring (both against :data:`BM25_QUERY`) fused
    by reciprocal-rank fusion, ``Σ 10⁶ // (RRF_K + rank)`` over the
    lists that retrieved the doc (0 rank marks "not retrieved").  The
    standard two-retriever fusion shape; scores are exact integers on
    both sides so the oracle is bit-identical.

    Scale shape: one corpus pass computes BOTH scores from the same
    term-frequency vectors (the BM25 broadcast stats, len(query)+2
    ints); each batch keeps only its local top-R per ranking on the
    global sort key (score DESC, doc_id ASC) — a global winner always
    wins its batch — and one keyless :func:`co_group` ranks the
    ≤ 2·R·blocks candidate rows and fuses.  The corpus never shuffles;
    the reducer input is bounded by R, not the corpus."""
    import math

    import numpy as np
    import pandas as pd

    from .join import co_group

    n_docs, n_words_total, dfs = fit_bm25_stats(sf_dir)
    avgdl_milli = (1000 * n_words_total) // n_docs
    idf_bm25 = [
        math.floor(math.log(1 + (n_docs - df + 0.5) / (df + 0.5)) * 1e6)
        for df in dfs
    ]
    idf_plain = [
        math.floor(math.log(n_docs / max(df, 1)) * 1e6) for df in dfs
    ]

    def _local_cut(ids, score):
        if len(ids) > RRF_TOPR:
            keep = np.lexsort((ids, -score))[:RRF_TOPR]
            return ids[keep], score[keep]
        return ids, score

    def local_tops(batch: pa.Table) -> pa.Table:
        dl, tf = _query_term_tfs(batch)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        r = dl * 1_000_000 // avgdl_milli
        bm25 = np.zeros(len(dl), np.int64)
        plain = np.zeros(len(dl), np.int64)
        for t in range(len(BM25_QUERY)):
            contrib = idf_bm25[t] * tf[t] * 20000 // (
                8000 * tf[t] + 3000 + 9 * r
            )
            bm25 += np.where(tf[t] > 0, contrib, 0)
            plain += idf_plain[t] * tf[t]
        i0, s0 = _local_cut(ids, bm25)
        i1, s1 = _local_cut(ids, plain)
        return pa.table(
            {
                "lst": pa.array(
                    np.concatenate(
                        [np.zeros(len(i0), np.int8), np.ones(len(i1), np.int8)]
                    )
                ),
                "doc_id": pa.array(np.concatenate([i0, i1]), pa.int64()),
                "score": pa.array(np.concatenate([s0, s1]), pa.int64()),
            }
        )

    def fuse(tops: pd.DataFrame) -> pd.DataFrame:
        ranks = {}
        for lst in (0, 1):
            part = tops[tops["lst"] == lst]
            order = np.lexsort(
                (part["doc_id"].to_numpy(np.int64),
                 -part["score"].to_numpy(np.int64))
            )[:RRF_TOPR]
            ranks[lst] = {
                int(d): i + 1
                for i, d in enumerate(
                    part["doc_id"].to_numpy(np.int64)[order]
                )
            }
        all_ids = sorted(set(ranks[0]) | set(ranks[1]))
        rows = []
        for d in all_ids:
            r0 = ranks[0].get(d, 0)
            r1 = ranks[1].get(d, 0)
            rrf = sum(
                1_000_000 // (RRF_K + r) for r in (r0, r1) if r > 0
            )
            rows.append((d, r0, r1, rrf))
        rows.sort(key=lambda t: (-t[3], t[0]))
        out = pd.DataFrame(
            rows[:RRF_OUT_K],
            columns=["doc_id", "bm25_rank", "tfidf_rank", "rrf_micros"],
        )
        return out.astype(np.int64)

    tops = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        local_tops, batch_format="pyarrow", zero_copy_batch=True
    )
    return co_group(fuse, tops=(tops, None))


# -- Zipf law fit over the head of the word-frequency distribution ------------

ZIPF_TOP_V = 24


def _tdiv(a: int, b: int) -> int:
    """Exact integer division TRUNCATING toward zero — DuckDB's
    ``//`` semantics (Python's ``//`` floors, which differs on
    negatives; Zipf slopes are negative)."""
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def zipf_fit(sf_dir: str, v: int = ZIPF_TOP_V) -> rd.Dataset:
    """(n_vocab, slope_micros, intercept_micros): least-squares fit of
    ln(count) ~ a + b·ln(rank) over the corpus's top-``v`` words — the
    Zipf exponent of the head of the frequency distribution (b ≈ −1
    for natural text; a shallow slope flags templated/duplicated
    corpora).  All moments are exact integers over floored-micros logs,
    division truncates toward zero (DuckDB ``//``), so the fit is
    order-free and hash-stable.

    Scale shape: top_words' exact top-v (:func:`_word_counts` →
    :func:`_word_candidates`) cut and fitted in one keyless
    :func:`co_group`; the OLS itself runs on v rows."""
    import numpy as np
    import pandas as pd

    from .join import co_group

    def fit(top: pd.DataFrame) -> pd.DataFrame:
        t = top.sort_values(
            ["n", "word"], ascending=[False, True], kind="stable"
        ).head(v)
        counts = t["n"].to_numpy(np.int64)
        nv = len(counts)
        rank = np.arange(1, nv + 1, dtype=np.float64)
        x = np.floor(np.log(rank) * 1e6).astype(np.int64)
        y = np.floor(np.log(counts.astype(np.float64)) * 1e6).astype(np.int64)
        sx = int(x.sum())
        sy = int(y.sum())
        sxy = int((x.astype(object) * y.astype(object)).sum())
        sxx = int((x.astype(object) * x.astype(object)).sum())
        num = nv * sxy - sx * sy
        den = nv * sxx - sx * sx
        if den == 0:
            slope = intercept = 0
        else:
            slope = _tdiv(num * 10**6, den)
            # y is ALREADY in micros, so the intercept needs no extra
            # 1e6 scaling (slope does: it is micros/micros)
            intercept = _tdiv(sy * den - num * sx, nv * den)
        return pd.DataFrame(
            {
                "n_vocab": np.array([nv], np.int64),
                "slope_micros": np.array([slope], np.int64),
                "intercept_micros": np.array([intercept], np.int64),
            }
        )

    return co_group(fit, top=(_word_candidates(_word_counts(sf_dir), v), None))


# -- type-token ratio ----------------------------------------------------------


def ttr_stats(sf_dir: str) -> rd.Dataset:
    """(doc_id, n_words, n_unique, ttr_micros): type-token ratio per
    document in integer micros (1e6·unique // words; 0 for empty docs)
    — the classic lexical-diversity screen (very low TTR flags
    keyword-stuffed / repeated-boilerplate pages).  Map-only: no
    shuffle, one pass, same split+set kernel as :func:`ols_residuals`."""
    import numpy as np

    def score(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        texts = batch.column("text").to_pylist()
        nw = np.empty(len(ids), np.int64)
        nu = np.empty(len(ids), np.int64)
        for i, t in enumerate(texts):
            words = t.split()
            nw[i] = len(words)
            nu[i] = len(set(words))
        ttr = np.where(nw > 0, (nu * 1_000_000) // np.maximum(nw, 1), 0)
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "n_words": pa.array(nw),
                "n_unique": pa.array(nu),
                "ttr_micros": pa.array(ttr.astype(np.int64)),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        score, batch_format="pyarrow", zero_copy_batch=True
    )


# -- stopword ratio --------------------------------------------------------------

STOPWORDS = (
    "the", "a", "an", "and", "or", "of", "to", "in", "is", "it",
    "that", "for", "on", "as", "with", "was", "at", "by", "be", "this",
    "are", "from", "but", "not", "have",
)


def stopword_ratio(sf_dir: str) -> rd.Dataset:
    """(doc_id, n_words, n_stop, stop_micros): fraction of tokens that
    are common-English stopwords, in integer micros — a cheap
    natural-language-vs-gibberish gate (C4/Gopher both use a stopword
    floor; near-zero ratios flag lexicons, logs and SEO spam).

    Map-only and fully vectorized: one Arrow whitespace split per
    batch, lowercase + set membership on the flattened values, and a
    reduceat over the list offsets — no per-row Python."""
    import numpy as np

    sw = pa.array(list(STOPWORDS), pa.string())

    def score(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        words = pc.utf8_split_whitespace(batch.column("text"))
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        # .values (not .flatten()) so indices line up with the raw
        # offsets buffer even if the list array carries a slice offset
        flat = words.values
        is_stop = pc.is_in(pc.utf8_lower(flat), value_set=sw)
        # empty-string tokens from leading/trailing whitespace are not
        # words: count real tokens, not split artifacts
        nonempty = pc.not_equal(flat, "")
        offsets = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        stop_np = pc.and_(is_stop, nonempty).to_numpy(zero_copy_only=False)
        word_np = nonempty.to_numpy(zero_copy_only=False)
        cs_stop = np.concatenate([[0], np.cumsum(stop_np.astype(np.int64))])
        cs_word = np.concatenate([[0], np.cumsum(word_np.astype(np.int64))])
        n_stop = cs_stop[offsets[1:]] - cs_stop[offsets[:-1]]
        n_words = cs_word[offsets[1:]] - cs_word[offsets[:-1]]
        ratio = np.where(
            n_words > 0, (n_stop * 1_000_000) // np.maximum(n_words, 1), 0
        )
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "n_words": pa.array(n_words.astype(np.int64)),
                "n_stop": pa.array(n_stop.astype(np.int64)),
                "stop_micros": pa.array(ratio.astype(np.int64)),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        score, batch_format="pyarrow", zero_copy_batch=True
    )


# -- hapax legomena per source ----------------------------------------------------


def hapax_stats(sf_dir: str) -> rd.Dataset:
    """(source, n_vocab, n_hapax, hapax_micros): per-source vocabulary
    size, hapax-legomena count (words occurring exactly once within the
    source) and their integer-micros fraction — a corpus-health signal
    (a collapsing hapax share flags heavy duplication; an exploding one
    flags OCR noise / tokenizer breakage).

    Scale shape: :func:`_source_word_partials` through one word-keyed
    :func:`co_group`, so each bucket owns its words' EXACT totals;
    buckets emit one (source, vocab, hapax) partial each, and the
    per-source combine folds ≤ buckets rows per source."""
    import numpy as np
    import pandas as pd

    from .join import co_group

    def bucket_fold(parts: pd.DataFrame) -> pd.DataFrame:
        t = parts.groupby(["source", "word"], as_index=False)["n"].sum()
        out = t.groupby("source").agg(
            n_vocab=("n", "size"), n_hapax=("n", lambda s: int((s == 1).sum()))
        ).reset_index()
        out["n_vocab"] = out["n_vocab"].astype(np.int64)
        out["n_hapax"] = out["n_hapax"].astype(np.int64)
        return out

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        vocab = np.int64(g["n_vocab"].sum())
        hapax = np.int64(g["n_hapax"].sum())
        ratio = np.int64(0) if vocab == 0 else np.int64(
            (int(hapax) * 1_000_000) // int(vocab)
        )
        return pd.DataFrame(
            {
                "source": [g["source"].iloc[0]],
                "n_vocab": [vocab],
                "n_hapax": [hapax],
                "hapax_micros": [ratio],
            }
        )

    return (
        co_group(bucket_fold, parts=(_source_word_partials(sf_dir), "h"))
        .groupby("source")
        .map_groups(arrow_udf(combine), batch_format="pandas")
    )


# -- language-ID confusion matrix ---------------------------------------------------


def langid_confusion(sf_dir: str) -> rd.Dataset:
    """(lang, lang_pred, n): labeled language vs the stopword-profile
    prediction of :func:`langid`, as a confusion-matrix rollup — the
    calibration check that says whether the cheap n-gram gate can be
    trusted per language before it filters a crawl.

    Scale shape: the langid scorer runs in-batch; partials collapse to
    the ≤ (langs+1)² cell domain before the one tiny groupby."""
    import numpy as np
    import pandas as pd

    def partials(batch: pa.Table) -> pa.Table:
        langs = batch.column("lang").to_pylist()
        preds = []
        for text in batch.column("text").to_pylist():
            words = text.lower().split()
            if not words:
                preds.append("und")
                continue
            scores = {
                lang: sum(w in prof for w in words) / len(words)
                for lang, prof in _LANG_PROFILES.items()
            }
            best = max(sorted(scores), key=lambda k: scores[k])
            preds.append(best if scores[best] > 0 else "und")
        df = (
            pd.DataFrame({"lang": langs, "lang_pred": preds})
            .groupby(["lang", "lang_pred"], as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )
        return pa.table(
            {
                "lang": pa.array(df["lang"], pa.string()),
                "lang_pred": pa.array(df["lang_pred"], pa.string()),
                "n": pa.array(df["n"].to_numpy(np.int64)),
            }
        )

    from ray.data.aggregate import Sum

    return (
        _docs(sf_dir, ["lang", "text"])
        .map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["lang", "lang_pred"])
        .aggregate(Sum("n", alias_name="n"))
    )


# -- per-source KL divergence from the corpus unigram distribution -------------


def source_kl_divergence(sf_dir: str) -> rd.Dataset:
    """(source, n_tokens, kl_sum_micros): per-source KL divergence of
    the source's unigram distribution from the whole-corpus unigram
    distribution — the data-mixture drift signal (a source whose KL
    explodes is vocabulary-divergent from the rest of the corpus;
    DSIR/ccnet-style mixture tuning watches exactly this quantity).

    kl_sum_micros = Σ_w k_sw · floor(ln((k_sw·N)/(n_s·c_w))·1e6), i.e.
    n_s·KL(p_s‖p) in integer micros with the per-word log floored, so
    Ray and the SQL oracle hash identically regardless of summation
    order (the same integer-entropy identity as word_entropy /
    user_type_entropy; int64-safe to ~2^63/1.4e7 ≈ 6·10^11 tokens per
    source per bucket — beyond that the oracle's BIGINT overflows at
    the same point).

    Scale shape: pass A folds per-batch (source, n_tokens) partials to
    a source-cardinality dict (bounded by the source domain — a
    broadcast by definition, like decontaminate's eval grams); pass B
    runs hapax_stats' word-keyed :func:`co_group` of
    :func:`_source_word_partials`, so each bucket owns its words' EXACT
    global counts c_w and can compute every per-word log locally — no
    vocabulary broadcast, no driver state; buckets emit one (source,
    kl_part) row each and the per-source combine folds ≤ buckets
    rows."""
    from collections import Counter

    import numpy as np
    import pandas as pd

    from .join import co_group

    def tok_partials(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for s, t in zip(
            batch.column("source").to_pylist(), batch.column("text").to_pylist()
        ):
            c[s] += len(t.split())
        return pa.table(
            {
                "source": pa.array(list(c.keys()), pa.string()),
                "n": pa.array(
                    np.fromiter(c.values(), np.int64, count=len(c))
                ),
            }
        )

    tot = (
        _docs(sf_dir, ["source", "text"])
        .map_batches(tok_partials, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
        .groupby("source")["n"]
        .sum()
    )
    n_s = {s: int(v) for s, v in tot.items()}
    n_total = float(sum(n_s.values()))

    def bucket_fold(parts: pd.DataFrame) -> pd.DataFrame:
        t = parts.groupby(["source", "word"], as_index=False)["n"].sum()
        cw = t.groupby("word")["n"].transform("sum").to_numpy(np.float64)
        k = t["n"].to_numpy(np.float64)
        ns = t["source"].map(n_s).to_numpy(np.float64)
        # EXACTLY the oracle's association: (k·N) / (n_s·c_w), both
        # sides double — every int here is < 2^53, so the casts are
        # lossless and the IEEE ops agree bit-for-bit
        m = np.floor(
            np.log((k * n_total) / (ns * cw)) * 1_000_000.0
        ).astype(np.int64)
        contrib = t["n"].to_numpy(np.int64) * m
        out = (
            pd.DataFrame({"source": t["source"], "kl_part": contrib})
            .groupby("source", as_index=False)["kl_part"]
            .sum()
        )
        out["kl_part"] = out["kl_part"].astype(np.int64)
        return out

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        s = g["source"].iloc[0]
        return pd.DataFrame(
            {
                "source": [s],
                "n_tokens": np.array([n_s.get(s, 0)], np.int64),
                "kl_sum_micros": np.array([g["kl_part"].sum()], np.int64),
            }
        )

    return (
        co_group(bucket_fold, parts=(_source_word_partials(sf_dir), "h"))
        .groupby("source")
        .map_groups(arrow_udf(combine), batch_format="pandas")
    )


# -- Flesch-style readability ---------------------------------------------------

def readability_scores(sf_dir: str) -> rd.Dataset:
    """(doc_id, n_words, n_sents, n_syll, flesch_micros): a
    Flesch-reading-ease-shaped readability signal per document —
    whitespace words, ``[.!?]`` sentence marks, and vowel runs
    (``[aeiou]+``) as the classic syllable proxy, folded into
    206.835 − 1.015·(words/sents) − 84.6·(syll/words) in exact integer
    micros (floor division, divisors clamped to ≥ 1) so Ray and the
    DuckDB oracle agree bit-for-bit.  Low scores flag dense or
    degenerate text — a quality-gate axis the length/stopword gates
    miss (legalese, keyword stuffing, run-on boilerplate).

    Map-only and vectorized: one whitespace split, two RE2
    count-matches kernels per batch, no per-row Python."""
    import numpy as np

    def score(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        text = batch.column("text")
        words = pc.utf8_split_whitespace(text)
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        flat = words.values
        nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        offsets = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        cs = np.concatenate([[0], np.cumsum(nonempty.astype(np.int64))])
        n_words = cs[offsets[1:]] - cs[offsets[:-1]]
        n_sents = pc.count_substring_regex(text, r"[.!?]").to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        n_syll = pc.count_substring_regex(
            pc.utf8_lower(text), r"[aeiou]+"
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        flesch = (
            206_835_000
            - (1_015_000 * n_words) // np.maximum(n_sents, 1)
            - (84_600_000 * n_syll) // np.maximum(n_words, 1)
        )
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "n_words": pa.array(n_words),
                "n_sents": pa.array(n_sents),
                "n_syll": pa.array(n_syll),
                "flesch_micros": pa.array(flesch.astype(np.int64)),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        score, batch_format="pyarrow", zero_copy_batch=True
    )


# -- per-document top TF-IDF term ------------------------------------------------

def doc_top_terms(sf_dir: str, *, vocab_cap: int = VOCAB_CAP) -> rd.Dataset:
    """(doc_id, top_word, tf, score_micros): each document's single
    most characteristic term — argmax over its distinct words of
    tf · idf_micros (the :func:`tfidf_scores` weighting), ties broken
    to the lexicographically smallest word; documents with no words
    are dropped.  The keyword-extraction primitive: one label per
    document for faceting / mixture inspection without shipping the
    full tf-idf matrix anywhere.

    Scale shape: the capped idf table is the same bounded broadcast
    artifact tfidf_scores fits (train-small/score-wide); scoring is
    map-only — a document lives wholly inside one batch, so the argmax
    never leaves the task."""
    from collections import Counter

    import ray

    idf, oov = fit_idf_table(sf_dir, vocab_cap)
    ref = ray.put((idf, oov))

    def top_term(batch: pa.Table) -> pa.Table:
        table, default = ray.get(ref)
        out_id, out_w, out_tf, out_s = [], [], [], []
        ids = batch.column("doc_id").to_pylist()
        for i, text in zip(ids, batch.column("text").to_pylist()):
            words = text.split()
            if not words:
                continue
            best_w, best_tf, best_s = None, 0, None
            for w, k in Counter(words).items():
                s = table.get(w, default) * k
                if best_s is None or s > best_s or (s == best_s and w < best_w):
                    best_w, best_tf, best_s = w, k, s
            out_id.append(i)
            out_w.append(best_w)
            out_tf.append(best_tf)
            out_s.append(best_s)
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "top_word": pa.array(out_w, pa.string()),
                "tf": pa.array(out_tf, pa.int64()),
                "score_micros": pa.array(out_s, pa.int64()),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        top_term, batch_format="pyarrow", zero_copy_batch=True
    )


# -- winnowing fingerprints (Schleimer-Wilkerson-Aiken) ---------------------------

#: winnowing over char 8-grams hashed with a SMALLER modulus than
#: rolling_fingerprint's 2^61-1: the window-min tie-break packs
#: (hash, position) into one int64 key — hash·2^16 + (2^16−1−pos) —
#: which needs hash < 2^46; 2^31−1 leaves headroom and keeps every
#: SQL product in HUGEINT range.
WIN_K = 8
WIN_W = 16
WIN_MOD = (1 << 31) - 1
WIN_BASE = 1_000_003
WIN_POS = 1 << 16  # position packing bound: documents < 65536 chars


def winnow_fingerprints(sf_dir: str) -> rd.Dataset:
    """(doc_id, pos, fp): the full winnowing digest (Schleimer,
    Wilkerson & Aiken 2003 — the MOSS fingerprinting scheme): the
    minimum k-gram hash of every w-hash window, ties to the RIGHTMOST
    position, deduplicated — the guarantee is one fingerprint per
    w-window, so any match of length ≥ w+k−1 chars between two
    documents shares a fingerprint.  The positional digest
    :func:`rolling_fingerprint` (global min only) cannot offer that
    guarantee; this is the overlap-detection primitive for
    plagiarism-style near-dup mining.

    Map-only: a document lives wholly in its batch; the per-doc work is
    three vectorized numpy passes (slice-weighted polynomial hash,
    packed sliding-window min via stride tricks, unique).  Positions
    are 1-based to match the SQL mirror's substr convention."""
    import numpy as np

    powers = np.array(
        [pow(WIN_BASE, WIN_K - 1 - j, WIN_MOD) for j in range(WIN_K)],
        dtype=np.int64,
    )

    def digest(batch: pa.Table) -> pa.Table:
        out_id, out_pos, out_fp = [], [], []
        ids = batch.column("doc_id").to_pylist()
        for did, text in zip(ids, batch.column("text").to_pylist()):
            data = np.frombuffer(
                text.encode("utf-8", "ignore"), dtype=np.uint8
            ).astype(np.int64)
            m = len(data) - WIN_K + 1
            if m < WIN_W:
                continue  # no full window: no fingerprints (mirrored)
            h = np.zeros(m, dtype=np.int64)
            for j in range(WIN_K):
                h = (h + data[j : j + m] * powers[j]) % WIN_MOD
            pos = np.arange(1, m + 1, dtype=np.int64)
            arg = h * WIN_POS + (WIN_POS - 1 - pos)
            sel = np.unique(
                np.lib.stride_tricks.sliding_window_view(arg, WIN_W).min(axis=1)
            )
            out_id.extend([did] * len(sel))
            out_pos.extend((WIN_POS - 1 - (sel % WIN_POS)).tolist())
            out_fp.extend((sel // WIN_POS).tolist())
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "pos": pa.array(out_pos, pa.int64()),
                "fp": pa.array(out_fp, pa.int64()),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        digest, batch_format="pyarrow", zero_copy_batch=True
    )


HEAPS_CHECKPOINTS = 16


def heaps_law_curve(
    sf_dir: str, checkpoints: int = HEAPS_CHECKPOINTS
) -> rd.Dataset:
    """(checkpoint, last_doc_id, n_tokens_cum, n_distinct_cum): the
    vocabulary growth curve — distinct words seen vs tokens processed
    in doc_id order, sampled at ``checkpoints`` evenly-spaced document
    ranks — the Heaps'-law companion to :func:`zipf_fit` (sublinear
    growth V ∝ n^β marks natural language; linear growth flags
    id-soup/codes; an early plateau flags template spam).

    Exact on both engines: a word's contribution to checkpoint c is
    1 iff its FIRST occurrence (min doc_id) is ≤ the checkpoint's
    boundary doc; token counts are whitespace words.

    Scale shape: one word-keyed min-fold (vocabulary-sized partials,
    the fit_idf_table exchange) + one doc-keyed token-count pass;
    both collapse onto the constant checkpoint grid IN-BATCH, so the
    driver folds ≤ blocks × checkpoints rows."""
    import numpy as np
    import pandas as pd

    from ray.data.aggregate import Min

    # checkpoint boundaries: evenly spaced doc_id ranks
    ids = (
        _docs(sf_dir, ["doc_id"])
        .to_pandas()["doc_id"]
        .sort_values()
        .to_numpy()
    )
    n_docs = len(ids)
    # max(0, ...) guards corpora smaller than the checkpoint grid:
    # without it an early checkpoint's index resolves to -1 = ids[-1]
    # (the LARGEST doc) while the SQL mirror's rank-0 row is NULL —
    # both engines now clamp to the first doc (SQL: greatest(1, rn))
    bounds = [
        int(ids[max(0, min(n_docs - 1, ((c + 1) * n_docs) // checkpoints - 1))])
        for c in range(checkpoints)
    ]
    bnd = np.array(bounds, np.int64)

    def first_partials(batch: pa.Table) -> pa.Table:
        firsts: dict = {}
        ids_b = batch.column("doc_id").to_pylist()
        for i, text in zip(ids_b, batch.column("text").to_pylist()):
            for w in text.split():
                prev = firsts.get(w)
                if prev is None or i < prev:
                    firsts[w] = i
        words = list(firsts)
        return pa.table(
            {
                "word": pa.array(words, pa.string()),
                "first": pa.array([firsts[w] for w in words], pa.int64()),
            }
        )

    firsts = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(first_partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("word")
        .aggregate(Min("first", alias_name="first"))
    )

    def distinct_grid(batch: pa.Table) -> pa.Table:
        f = batch.column("first").to_numpy(zero_copy_only=False)
        counts = (f[None, :] <= bnd[:, None]).sum(axis=1).astype(np.int64)
        return pa.table(
            {
                "c": pa.array(np.arange(checkpoints, dtype=np.int64)),
                "v": pa.array(counts),
                "kind": pa.array(np.zeros(checkpoints, np.int8)),
            }
        )

    def token_grid(batch: pa.Table) -> pa.Table:
        ids_b = batch.column("doc_id").to_numpy(zero_copy_only=False)
        words = pc.utf8_split_whitespace(batch.column("text"))
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        flat = words.values
        nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        offsets = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        cs = np.concatenate([[0], np.cumsum(nonempty.astype(np.int64))])
        n_words = cs[offsets[1:]] - cs[offsets[:-1]]
        counts = np.array(
            [int(n_words[ids_b <= b].sum()) for b in bnd], np.int64
        )
        return pa.table(
            {
                "c": pa.array(np.arange(checkpoints, dtype=np.int64)),
                "v": pa.array(counts),
                "kind": pa.array(np.ones(checkpoints, np.int8)),
            }
        )

    grid = (
        firsts.map_batches(
            distinct_grid, batch_format="pyarrow", zero_copy_batch=True
        )
        .union(
            _docs(sf_dir, ["doc_id", "text"]).map_batches(
                token_grid, batch_format="pyarrow", zero_copy_batch=True
            )
        )
        .to_pandas()
        .groupby(["kind", "c"], as_index=False)["v"]
        .sum()
    )
    dist = grid[grid["kind"] == 0].set_index("c")["v"]
    toks = grid[grid["kind"] == 1].set_index("c")["v"]
    out = pd.DataFrame(
        {
            "checkpoint": np.arange(checkpoints, dtype=np.int64),
            "last_doc_id": bnd,
            "n_tokens_cum": toks.reindex(range(checkpoints)).to_numpy(np.int64),
            "n_distinct_cum": dist.reindex(range(checkpoints)).to_numpy(np.int64),
        }
    )
    return out


RANK_TEST_SRC_A = "src0"
RANK_TEST_SRC_B = "src1"


def length_rank_test(
    sf_dir: str, src_a: str = RANK_TEST_SRC_A, src_b: str = RANK_TEST_SRC_B
) -> rd.Dataset:
    """(n_a, n_b, u_x2_a, auc_micros): Mann-Whitney rank-sum comparison
    of document word-length distributions between two sources — the
    NONPARAMETRIC drift test (no normality assumption, robust to the
    heavy tails that break a t-test): U counts cross-source pairs where
    an ``src_a`` doc is longer (ties half), and AUC = U/(n_a·n_b) is
    the probability-of-superiority effect size (≈500000 micros = no
    shift).

    Exact integers throughout: midranks double to stay integral —
    for a length v with cnt_less docs below and cnt_eq tied,
    midrank·2 = 2·cnt_less + cnt_eq + 1; then
    U·2 = R_a·2 − n_a·(n_a+1) and AUC_micros = (U·2 · 1e6) //
    (2·n_a·n_b), identical floors on both engines.

    Scale shape: per-batch (source, length, n) histogram partials over
    the two filtered sources — the bounded event_quantiles trick (word
    counts have a small domain) — fold to one joint histogram; the
    rank algebra is driver math over that artifact; one row out."""
    import numpy as np
    import pandas as pd

    def partials(batch: pa.Table) -> pa.Table:
        keep = pc.is_in(
            batch.column("source"),
            value_set=pa.array([src_a, src_b], pa.string()),
        )
        b = batch.filter(keep)
        if b.num_rows == 0:
            return pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "length": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        words = pc.utf8_split_whitespace(b.column("text"))
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        flat = words.values
        nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        offsets = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        cs = np.concatenate([[0], np.cumsum(nonempty.astype(np.int64))])
        n_words = cs[offsets[1:]] - cs[offsets[:-1]]
        df = pd.DataFrame(
            {"source": b.column("source").to_pandas(), "length": n_words}
        )
        g = df.groupby(["source", "length"], as_index=False).size()
        return pa.table(
            {
                "source": pa.array(g["source"], pa.string()),
                "length": pa.array(g["length"].to_numpy(np.int64)),
                "n": pa.array(g["size"].to_numpy(np.int64)),
            }
        )

    hist = (
        _docs(sf_dir, ["source", "text"])
        .map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
        .groupby(["source", "length"], as_index=False)["n"]
        .sum()
    )
    ha = hist[hist["source"] == src_a].set_index("length")["n"]
    hb = hist[hist["source"] == src_b].set_index("length")["n"]
    lengths = sorted(set(ha.index) | set(hb.index))
    na, nb = int(ha.sum()), int(hb.sum())
    cnt_less = 0
    r_a_x2 = 0
    for v in lengths:
        a_v = int(ha.get(v, 0))
        b_v = int(hb.get(v, 0))
        eq = a_v + b_v
        r_a_x2 += a_v * (2 * cnt_less + eq + 1)
        cnt_less += eq
    u_x2 = r_a_x2 - na * (na + 1)
    auc = (u_x2 * 1_000_000) // (2 * na * nb)
    return pd.DataFrame(
        {
            "n_a": np.array([na], np.int64),
            "n_b": np.array([nb], np.int64),
            "u_x2_a": np.array([u_x2], np.int64),
            "auc_micros": np.array([auc], np.int64),
        }
    )


def lang_source_chi2(sf_dir: str) -> rd.Dataset:
    """(n, df, chi2_milli): Pearson's χ² independence test on the
    source × language contingency matrix — "is the language mixture
    the same in every feed?", the statistical companion to
    :func:`rollup_source_lang`'s raw matrix (a large χ² against df
    flags a feed whose language profile diverges — routing bugs,
    mislabeled crawls).

    Exact integers to one shared per-cell floor (the
    hour_of_day_effect discipline — a float Σ(O−E)²/E would be
    addition-order-dependent): with row sums R_s, column sums C_l and
    total N, each cell contributes (O·N − R·C)²·1000 // (R·C), the sum
    divides by N once at the end, and milli-units report
    χ²·1000.  Magnitudes route through Python ints / HUGEINT.

    Scale shape: per-batch (source, lang, n) partials collapse the
    corpus to the bounded contingency matrix; driver rank algebra on
    that artifact, one row out."""
    import numpy as np
    import pandas as pd

    def partials(batch: pa.Table) -> pa.Table:
        g = (
            pa.table(
                {
                    "source": batch.column("source"),
                    "lang": batch.column("lang"),
                }
            )
            .group_by(["source", "lang"])
            .aggregate([("lang", "count")])
        )
        return pa.table(
            {
                "source": g.column("source"),
                "lang": g.column("lang"),
                "n": pc.cast(g.column("lang_count"), pa.int64()),
            }
        )

    m = (
        _docs(sf_dir, ["source", "lang"])
        .map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
        .groupby(["source", "lang"], as_index=False)["n"]
        .sum()
    )
    rows = m.groupby("source")["n"].sum()
    cols = m.groupby("lang")["n"].sum()
    N = int(m["n"].sum())
    K = 1000
    total = 0
    for s in rows.index:
        for l in cols.index:
            o = int(
                m.loc[(m["source"] == s) & (m["lang"] == l), "n"].sum()
            )
            r, c = int(rows[s]), int(cols[l])
            d = o * N - r * c
            total += (d * d * K) // (r * c)
    chi2_milli = total // N
    df = (len(rows) - 1) * (len(cols) - 1)
    return pd.DataFrame(
        {
            "n": np.array([N], np.int64),
            "df": np.array([df], np.int64),
            "chi2_milli": np.array([chi2_milli], np.int64),
        }
    )


def length_ks_test(
    sf_dir: str, src_a: str = RANK_TEST_SRC_A, src_b: str = RANK_TEST_SRC_B
) -> rd.Dataset:
    """(n_a, n_b, d_micros, at_length): two-sample Kolmogorov-Smirnov
    distance between the sources' word-length distributions — the
    max-CDF-gap companion to :func:`length_rank_test` (U is blind to
    shape changes that leave the median put; D catches any
    distributional difference), plus the length where the gap peaks
    (ties to the SMALLEST length).

    Exact integers: D = max_v |cumA(v)·n_b − cumB(v)·n_a| over the
    joint support, reported as micros // (n_a·n_b) — cross-multiplied
    CDFs never touch a float.

    Scale shape: identical to length_rank_test — one bounded joint
    length-histogram fold, driver algebra, one row out."""
    import numpy as np
    import pandas as pd

    def partials(batch: pa.Table) -> pa.Table:
        keep = pc.is_in(
            batch.column("source"),
            value_set=pa.array([src_a, src_b], pa.string()),
        )
        b = batch.filter(keep)
        if b.num_rows == 0:
            return pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "length": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        words = pc.utf8_split_whitespace(b.column("text"))
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        flat = words.values
        nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        offsets = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        cs = np.concatenate([[0], np.cumsum(nonempty.astype(np.int64))])
        n_words = cs[offsets[1:]] - cs[offsets[:-1]]
        df = pd.DataFrame(
            {"source": b.column("source").to_pandas(), "length": n_words}
        )
        g = df.groupby(["source", "length"], as_index=False).size()
        return pa.table(
            {
                "source": pa.array(g["source"], pa.string()),
                "length": pa.array(g["length"].to_numpy(np.int64)),
                "n": pa.array(g["size"].to_numpy(np.int64)),
            }
        )

    hist = (
        _docs(sf_dir, ["source", "text"])
        .map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
        .groupby(["source", "length"], as_index=False)["n"]
        .sum()
    )
    ha = hist[hist["source"] == src_a].set_index("length")["n"]
    hb = hist[hist["source"] == src_b].set_index("length")["n"]
    lengths = sorted(set(ha.index) | set(hb.index))
    na, nb = int(ha.sum()), int(hb.sum())
    ca = cb = 0
    best, at = -1, -1
    for v in lengths:
        ca += int(ha.get(v, 0))
        cb += int(hb.get(v, 0))
        gap = abs(ca * nb - cb * na)
        if gap > best:
            best, at = gap, int(v)
    return pd.DataFrame(
        {
            "n_a": np.array([na], np.int64),
            "n_b": np.array([nb], np.int64),
            "d_micros": np.array([(best * 1_000_000) // (na * nb)], np.int64),
            "at_length": np.array([at], np.int64),
        }
    )


def length_vocab_spearman(sf_dir: str) -> rd.Dataset:
    """(n, rho_micros): Spearman rank correlation between document
    length (words) and vocabulary size (distinct words) — the
    monotone-association statistic that completes the correlation
    family (ols_residuals: linear Pearson; user_value_autocorr:
    serial; this: rank-based, outlier-immune).  A low ρ on a corpus
    flags template/boilerplate pollution (length growing without new
    vocabulary).

    Exact integers to one shared float fold: doubled midranks
    (2·cnt_less + ties + 1, the length_rank_test identity) come from
    the MARGINAL histograms; every moment Σ rx·ry etc. folds from the
    bounded JOINT (length, distinct) histogram through Python ints;
    then ρ = cov/(√vx·√vy) in the one shared IEEE expression, floored
    to micros.

    Scale shape: one split pass emitting joint-histogram partials
    (both coordinates have small domains), driver rank algebra, one
    row out."""
    import numpy as np
    import pandas as pd

    def partials(batch: pa.Table) -> pa.Table:
        out_w, out_d = [], []
        for text in batch.column("text").to_pylist():
            ws = text.split()
            out_w.append(len(ws))
            out_d.append(len(set(ws)))
        df = pd.DataFrame({"w": out_w, "d": out_d})
        g = df.groupby(["w", "d"], as_index=False).size()
        return pa.table(
            {
                "w": pa.array(g["w"].to_numpy(np.int64)),
                "d": pa.array(g["d"].to_numpy(np.int64)),
                "n": pa.array(g["size"].to_numpy(np.int64)),
            }
        )

    joint = (
        _docs(sf_dir, ["text"])
        .map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
        .groupby(["w", "d"], as_index=False)["n"]
        .sum()
    )
    N = int(joint["n"].sum())

    def midranks_x2(marginal: "pd.Series") -> dict:
        cnt_less = 0
        out = {}
        for v in sorted(marginal.index):
            c = int(marginal[v])
            out[int(v)] = 2 * cnt_less + c + 1
            cnt_less += c
        return out

    rw = midranks_x2(joint.groupby("w")["n"].sum())
    rd_ = midranks_x2(joint.groupby("d")["n"].sum())
    sx = sy = sxy = sxx = syy = 0
    for _, r in joint.iterrows():
        x, y, c = rw[int(r["w"])], rd_[int(r["d"])], int(r["n"])
        sx += c * x
        sy += c * y
        sxy += c * x * y
        sxx += c * x * x
        syy += c * y * y
    cov = N * sxy - sx * sy
    vx, vy = N * sxx - sx * sx, N * syy - sy * sy
    rho = (
        0.0
        if vx <= 0 or vy <= 0
        else float(cov) / (np.sqrt(float(vx)) * np.sqrt(float(vy)))
    )
    return pd.DataFrame(
        {
            "n": np.array([N], np.int64),
            "rho_micros": np.array(
                [int(np.floor(rho * 1_000_000))], np.int64
            ),
        }
    )


HILL_K = 20


def hill_tail_index(sf_dir: str, k: int = HILL_K) -> rd.Dataset:
    """(k, x_ref, alpha_micros): the Hill estimator of the
    word-frequency tail exponent — α̂ = k / Σᵢ ln(xᵢ / x_{k+1}) over
    the top-k word counts (order by count DESC, word ASC) — the
    maximum-likelihood companion to :func:`zipf_fit`'s log-log
    regression slope: the regression reads the whole curve, Hill reads
    only the extreme tail, and disagreement between them flags a
    kinked (mixed-regime) frequency distribution.

    Float discipline: each ln(xᵢ/x_ref) floors to integer micros
    INDIVIDUALLY (the unigram_logprob ln-micros rule — the sum of
    per-term floors is order-independent), then
    α_micros = k·1e12 // Σ ln_micros, exact integers on both engines.

    Scale shape: the word-count fold is the capped-vocab exchange
    (vocabulary-sized partials, top-(k+1) kept); the estimator is
    driver arithmetic over k+1 numbers."""
    import math

    import numpy as np
    import pandas as pd

    from collections import Counter

    def partial_counts(batch: pa.Table) -> pa.Table:
        counts: Counter = Counter()
        for text in batch.column("text").to_pylist():
            counts.update(text.split())
        words = list(counts)
        return pa.table(
            {
                "word": pa.array(words, pa.string()),
                "n": pa.array([counts[w] for w in words], pa.int64()),
            }
        )

    vocab = (
        _docs(sf_dir, ["text"])
        .map_batches(partial_counts, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("word")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
        .sort_values(["n", "word"], ascending=[False, True])
        .reset_index(drop=True)
    )
    top = vocab.head(k + 1)
    xs = top["n"].to_numpy(np.int64)
    x_ref = int(xs[k])
    s = sum(
        math.floor(math.log(int(x) / x_ref) * 1_000_000) for x in xs[:k]
    )
    alpha = (k * 10**12) // s if s > 0 else 0
    return pd.DataFrame(
        {
            "k": np.array([k], np.int64),
            "x_ref": np.array([x_ref], np.int64),
            "alpha_micros": np.array([alpha], np.int64),
        }
    )


# -- template / boilerplate screening ----------------------------------------

PREFIX_WORDS = 16


def prefix_dup_groups(sf_dir: str, k: int = PREFIX_WORDS) -> rd.Dataset:
    """(prefix_hash, n_docs, min_doc_id): groups of documents sharing
    an identical first-``k``-word prefix — the cheap template/
    boilerplate screen (mirrored-page and stamped-header detection)
    that exact_dedup (whole text) and minhash (global similarity) both
    miss when only the opening matters.  Only groups with ≥ 2 members
    surface.  The hash is the char-wise polynomial over Z/(2^61−1)
    (the simhash/rolling_fingerprint family) of the space-joined
    prefix, so the DuckDB oracle recomputes it exactly.

    Scale shape: one narrow (hash, doc_id) :func:`co_group` keyed on
    the hash; per-bucket count/min is a vectorized pandas combine.
    Nothing but 16 words per doc is ever hashed — the text column is
    read once and never shuffled."""
    import numpy as np
    import pandas as pd

    from .dedup import _SIMHASH_HASH_BASE, _SIMHASH_HASH_MOD
    from .join import co_group

    def narrow(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        hashes = []
        for t in batch.column("text").to_pylist():
            prefix = " ".join(t.split()[:k])
            h = 0
            for ch in prefix:
                h = (h * _SIMHASH_HASH_BASE + ord(ch)) % _SIMHASH_HASH_MOD
            hashes.append(h)
        hv = np.array(hashes, np.int64)
        return pa.table(
            {
                "prefix_hash": pa.array(hv),
                "doc_id": pa.array(ids.astype(np.int64)),
            }
        )

    def combine(docs: pd.DataFrame) -> pd.DataFrame:
        m = docs.groupby("prefix_hash", as_index=False).agg(
            n_docs=("doc_id", "size"), min_doc_id=("doc_id", "min")
        )
        m = m[m["n_docs"] >= 2]
        return m.astype(np.int64)

    docs = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        narrow, batch_format="pyarrow", zero_copy_batch=True
    )
    return co_group(combine, docs=(docs, "prefix_hash"))


WORD_LEN_CAP = 24


def word_length_histogram(sf_dir: str, cap: int = WORD_LEN_CAP) -> rd.Dataset:
    """(length, n_words, share_micros): the corpus word-length
    distribution (whitespace words, lengths clamped to ``cap`` so the
    long tail folds into one bucket) — the orthographic signature that
    separates natural language (unimodal, mode 3-5) from id-soup and
    minified payloads (mass at the cap).  share = n·1e6 // total.

    Scale shape: map-only per-batch bincount partials (cap+1-row
    constant output per batch) through one keyless :func:`co_group`."""
    import numpy as np
    import pandas as pd

    from .join import co_group

    def partials(batch: pa.Table) -> pa.Table:
        counts = np.zeros(cap + 1, np.int64)
        for t in batch.column("text").to_pylist():
            lens = np.fromiter(
                (len(w) for w in t.split()), np.int64
            )
            if len(lens):
                np.add.at(
                    counts, np.minimum(lens, cap), 1
                )
        return pa.table(
            {
                "length": pa.array(np.arange(cap + 1, dtype=np.int64)),
                "n": pa.array(counts),
            }
        )

    def fold(parts: pd.DataFrame) -> pd.DataFrame:
        agg = parts.groupby("length", as_index=False)["n"].sum()
        agg = agg[agg["n"] > 0]
        total = int(agg["n"].sum())
        # Python-int shares: n·1e6 wraps int64 past ~9e12 words
        share = [int(v) * 1_000_000 // total for v in agg["n"]]
        return pd.DataFrame(
            {
                "length": agg["length"].to_numpy(np.int64),
                "n_words": agg["n"].to_numpy(np.int64),
                "share_micros": np.array(share, np.int64),
            }
        )

    parts = _docs(sf_dir, ["text"]).map_batches(
        partials, batch_format="pyarrow", zero_copy_batch=True
    )
    return co_group(fold, parts=(parts, None))


# -- temporal drift / per-language length regimes ----------------------------


def temporal_vocab_drift(sf_dir: str) -> rd.Dataset:
    """(half, n_tokens, n_shared_tokens, kl_micros): common-support KL
    divergence between the unigram distributions of the EARLY and LATE
    halves of the corpus (doc_id ≤ the id-range midpoint vs above —
    doc_id order is the synthetic crawl time), each half against the
    other — the crawl-drift monitor: rising KL between adjacent crawl
    windows flags vocabulary shift (new template boilerplate, language
    mix change) before any per-source gauge moves.

    Restricting to the SHARED support (words present in both halves)
    keeps every log finite without smoothing constants; coverage is
    reported via n_shared_tokens vs n_tokens.  Per the source_kl
    discipline: per-word floor(ln(k_this/k_other)·1e6) factors are
    bucket-local exact integers, and the final
    KL = A/sh_this + ln(sh_other/sh_this) is one double expression
    applied to the same integers on both engines, floored to micros.

    Scale shape: a narrow min/max doc_id fold picks the cut; one
    word-keyed :func:`co_group` of Counter partials (each bucket owns
    its words' exact counts in both halves — no vocabulary broadcast)
    emits four-number partials; a keyless :func:`co_group` produces
    the 2 rows."""
    from collections import Counter

    import numpy as np
    import pandas as pd

    from .join import co_group

    def id_rng(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "lo": pa.array([int(ids.min())], pa.int64()),
                "hi": pa.array([int(ids.max())], pa.int64()),
            }
        )

    rng = (
        _docs(sf_dir, ["doc_id"])
        .map_batches(id_rng, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
    )
    cut = (int(rng["lo"].min()) + int(rng["hi"].max())) // 2

    def partial_counts(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        for i, t in zip(ids, batch.column("text").to_pylist()):
            half = 0 if int(i) <= cut else 1
            for w in t.split():
                c[(half, w)] += 1
        return _count_rows(c, {"half": pa.int32(), "word": pa.string()}, "word")

    def bucket_fold(parts: pd.DataFrame) -> pd.DataFrame:
        t = parts.groupby(["half", "word"], as_index=False)["n"].sum()
        wide = t.pivot_table(
            index="word", columns="half", values="n", aggfunc="sum"
        ).reindex(columns=[0, 1])
        k0 = wide[0].fillna(0).to_numpy(np.int64)
        k1 = wide[1].fillna(0).to_numpy(np.int64)
        shared = (k0 > 0) & (k1 > 0)
        s0, s1 = k0[shared].astype(np.float64), k1[shared].astype(np.float64)
        a0 = int(
            (
                k0[shared]
                * np.floor(np.log(s0 / s1) * 1_000_000.0).astype(np.int64)
            ).sum()
        )
        a1 = int(
            (
                k1[shared]
                * np.floor(np.log(s1 / s0) * 1_000_000.0).astype(np.int64)
            ).sum()
        )
        return pd.DataFrame(
            {
                "half": np.array([0, 1], np.int64),
                "tok": np.array([int(k0.sum()), int(k1.sum())], np.int64),
                "sh": np.array(
                    [int(k0[shared].sum()), int(k1[shared].sum())], np.int64
                ),
                "a": np.array([a0, a1], np.int64),
            }
        )

    def combine(halves: pd.DataFrame) -> pd.DataFrame:
        m = halves.groupby("half")[["tok", "sh", "a"]].sum()
        sh0, sh1 = int(m.loc[0, "sh"]), int(m.loc[1, "sh"])
        rows = []
        for half, other in ((0, 1), (1, 0)):
            sh_t = sh0 if half == 0 else sh1
            sh_o = sh1 if half == 0 else sh0
            if sh_t == 0 or sh_o == 0:  # no shared support: KL undefined -> 0
                kl = 0
            else:
                kl = int(
                    np.floor(
                        float(m.loc[half, "a"]) / sh_t
                        + np.log(float(sh_o) / sh_t) * 1_000_000.0
                    )
                )
            rows.append((half, int(m.loc[half, "tok"]), sh_t, kl))
        return pd.DataFrame(
            rows, columns=["half", "n_tokens", "n_shared_tokens", "kl_micros"]
        ).astype(np.int64)

    parts = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        partial_counts, batch_format="pyarrow", zero_copy_batch=True
    )
    halves = co_group(bucket_fold, parts=(parts, "h"))
    return co_group(combine, halves=(halves, None))


def length_deciles_by_lang(sf_dir: str) -> rd.Dataset:
    """(lang, decile, cutoff_chars): per-language deciles of document
    length (n_chars) at the quantile_disc rank ceil(d·n/10) — the
    per-regime length profile behind stratified length filtering (a
    global length gate over mixed languages clips CJK-style compact
    scripts; per-lang cutoffs don't).

    Scale shape: the exchange carries (lang, n_chars, count) histogram
    partials — bounded by langs × distinct lengths, constant in corpus
    size — and each language reads its nine ranks off the sorted
    cumulative counts."""
    import numpy as np
    import pandas as pd

    def partials(batch: pa.Table) -> pa.Table:
        g = (
            pa.table(
                {
                    "lang": batch.column("lang"),
                    "v": batch.column("n_chars"),
                }
            )
            .group_by(["lang", "v"])
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "lang": g.column("lang"),
                "v": g.column("v"),
                "n": g.column("count_all"),
            }
        )

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        lang = g["lang"].iloc[0]
        agg = g.groupby("v", as_index=False)["n"].sum().sort_values("v")
        v = agg["v"].to_numpy(np.int64)
        cum = np.cumsum(agg["n"].to_numpy(np.int64))
        n = int(cum[-1])
        rows = []
        for d in range(1, 10):
            rank = -(-d * n // 10)  # ceil with positive operands
            idx = int(np.searchsorted(cum, rank))
            rows.append((lang, d, int(v[idx])))
        return pd.DataFrame(rows, columns=["lang", "decile", "cutoff_chars"])

    return (
        _docs(sf_dir, ["lang", "n_chars"])
        .map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("lang")
        .map_groups(arrow_udf(fold), batch_format="pandas")
    )


MAX_NGRAM_N = 16


def max_repeated_ngram(sf_dir: str, n_cap: int = MAX_NGRAM_N) -> rd.Dataset:
    """(doc_id, max_n, n_occ): the longest word n-gram (n ≤ ``n_cap``)
    that occurs at least twice WITHIN the document, and how often the
    most-repeated n-gram of that length occurs — the intra-document
    repetition gauge of the Gopher/Rae family, sharper than duplicate
    LINE fractions because it catches re-flowed boilerplate that never
    reproduces byte-identical lines.  Docs with no repeated word at
    all emit (0, 0).

    A repeated n-gram contains a repeated (n−1)-gram, so the predicate
    is monotone in n and each doc binary-searches its max_n in
    O(log n_cap) passes over its words — exact string grams, no hash
    collisions.

    Scale shape: map-only; per-doc work is a few joined-slice passes
    over that doc's own words."""
    import numpy as np

    def has_repeat(words: list[str], n: int) -> "tuple[bool, int]":
        if n <= 0 or len(words) < n + 1:
            return False, 0
        seen: dict[str, int] = {}
        best = 1
        for i in range(len(words) - n + 1):
            g = " ".join(words[i : i + n])
            c = seen.get(g, 0) + 1
            seen[g] = c
            if c > best:
                best = c
        return best >= 2, best

    def per_doc(batch: pa.Table) -> pa.Table:
        out_n, out_c = [], []
        for t in batch.column("text").to_pylist():
            words = t.split()
            ok1, _ = has_repeat(words, 1)
            if not ok1:
                out_n.append(0)
                out_c.append(0)
                continue
            lo, hi = 1, min(n_cap, len(words) - 1)
            # invariant: repeat exists at lo; none above hi+... classic
            # binary search for the last True of the monotone predicate
            while lo < hi:
                mid = (lo + hi + 1) // 2
                ok, _ = has_repeat(words, mid)
                if ok:
                    lo = mid
                else:
                    hi = mid - 1
            _, cnt = has_repeat(words, lo)
            out_n.append(lo)
            out_c.append(cnt)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "max_n": pa.array(np.array(out_n, np.int64)),
                "n_occ": pa.array(np.array(out_c, np.int64)),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        per_doc, batch_format="pyarrow", zero_copy_batch=True
    )


STORAGE_AUDIT_TABLES = (
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
)


def storage_audit(sf_dir: str) -> rd.Dataset:
    """(table_name, n_files, n_row_groups, n_rows, compressed_bytes):
    the parquet LAYOUT audit — row-group granularity is the read-split
    unit, so a table whose n_rows/n_row_groups is huge caps scan
    parallelism (the rg4k lesson: coarse row groups capped the 8→32
    extraction scaling at ~0.72 until the corpus was rewritten), and
    compressed_bytes/n_rows exposes columns that dominate storage.
    Footer-only: no table DATA is ever read.

    Scale shape: one task per file list shard reads footers (a footer
    is KBs regardless of file size); a table-keyed combine folds
    file-count partials.  At 100 TB this audits thousands of files
    without touching a single row group payload."""
    import os

    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq

    items = []
    for t in STORAGE_AUDIT_TABLES:
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.isfile(p):
            items.append({"table_name": t, "path": p})
        elif os.path.isdir(p):
            items.extend(
                {"table_name": t, "path": os.path.join(p, f)}
                for f in sorted(os.listdir(p))
                if f.endswith(".parquet")
            )

    def footer_stats(batch: pa.Table) -> pa.Table:
        rows = []
        for t, path in zip(
            batch.column("table_name").to_pylist(),
            batch.column("path").to_pylist(),
        ):
            md = pq.ParquetFile(path).metadata
            comp = sum(
                md.row_group(i).column(j).total_compressed_size
                for i in range(md.num_row_groups)
                for j in range(md.num_columns)
            )
            rows.append((t, 1, md.num_row_groups, md.num_rows, comp))
        df = pd.DataFrame(
            rows,
            columns=[
                "table_name", "n_files", "n_row_groups", "n_rows",
                "compressed_bytes",
            ],
        )
        return pa.Table.from_pandas(df, preserve_index=False)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("table_name", as_index=False)[
            ["n_files", "n_row_groups", "n_rows", "compressed_bytes"]
        ].sum()
        for c in out.columns[1:]:
            out[c] = out[c].astype(np.int64)
        return out

    return (
        rd.from_items(items)
        .map_batches(footer_stats, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("table_name")
        .map_groups(arrow_udf(fold), batch_format="pandas")
    )


def sentence_stats(sf_dir: str) -> rd.Dataset:
    """(doc_id, n_sentences, mean_sent_chars_milli, max_sent_chars):
    sentence-granularity length profile — documents split on
    ``[.!?]+`` runs (pieces trimmed of ASCII whitespace, empties
    dropped; a fragment with no terminal punctuation counts as one
    sentence) — the readability/segment-quality signal at the level
    tokenizer-context packing actually operates on.  mean is
    (1000·Σchars)//n on both engines.

    Scale shape: map-only, one vectorized regex split per batch."""
    import numpy as np
    import re

    split_re = re.compile(r"[.!?]+")

    def per_doc(batch: pa.Table) -> pa.Table:
        out_n, out_mean, out_max = [], [], []
        for t in batch.column("text").to_pylist():
            pieces = [
                p.strip(" \t\r\n") for p in split_re.split(t)
            ]
            pieces = [p for p in pieces if p]
            if not pieces:
                out_n.append(0)
                out_mean.append(0)
                out_max.append(0)
                continue
            lens = [len(p) for p in pieces]
            out_n.append(len(pieces))
            out_mean.append(1000 * sum(lens) // len(pieces))
            out_max.append(max(lens))
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_sentences": pa.array(np.array(out_n, np.int64)),
                "mean_sent_chars_milli": pa.array(
                    np.array(out_mean, np.int64)
                ),
                "max_sent_chars": pa.array(np.array(out_max, np.int64)),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        per_doc, batch_format="pyarrow", zero_copy_batch=True
    )


def bigram_entropy(sf_dir: str) -> rd.Dataset:
    """(n_bigrams, n_distinct_bigrams, h_micros): the corpus
    conditional entropy H(w₂|w₁) over within-document word bigrams —
    the language-structure gauge one level above unigram entropy
    (natural text sits well below H(unigram); id-soup whose "words"
    are independent sits at it).  h_micros = A // N with
    A = Σ k₁₂·floor(ln(k₁/k₁₂)·10⁶) — k₁ is the word's count as a
    bigram LEFT, so k₁ ≥ k₁₂ and every operand is a non-negative
    integer (the word_entropy identity one order up; summation-order
    free because the per-bigram factor is floored first).

    Scale shape: per-batch bigram Counter partials through one
    :func:`co_group` keyed on w₁ — a left word's k₁ and all its k₁₂
    land in ONE bucket, so every log factor is bucket-local; buckets
    emit 3-number partials and a keyless :func:`co_group` finishes."""
    from collections import Counter

    import numpy as np
    import pandas as pd

    from .join import co_group

    def partial_counts(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for t in batch.column("text").to_pylist():
            ws = t.split()
            for a, b in zip(ws[:-1], ws[1:]):
                c[(a, b)] += 1
        return _count_rows(c, {"w1": pa.string(), "w2": pa.string()}, "w1")

    def bucket_fold(parts: pd.DataFrame) -> pd.DataFrame:
        t = parts.groupby(["w1", "w2"], as_index=False)["n"].sum()
        k1 = t.groupby("w1")["n"].transform("sum").to_numpy(np.float64)
        k12 = t["n"].to_numpy(np.float64)
        factors = np.floor(np.log(k1 / k12) * 1_000_000.0).astype(np.int64)
        a = int((t["n"].to_numpy(np.int64) * factors).sum())
        return pd.DataFrame(
            {
                "nb": np.array([int(t["n"].sum())], np.int64),
                "nd": np.array([len(t)], np.int64),
                "a": np.array([a], np.int64),
            }
        )

    def combine(folds: pd.DataFrame) -> pd.DataFrame:
        nb = int(folds["nb"].sum())
        return pd.DataFrame(
            {
                "n_bigrams": np.array([nb], np.int64),
                "n_distinct_bigrams": np.array([int(folds["nd"].sum())], np.int64),
                "h_micros": np.array([int(folds["a"].sum()) // nb], np.int64),
            }
        )

    parts = _docs(sf_dir, ["text"]).map_batches(
        partial_counts, batch_format="pyarrow", zero_copy_batch=True
    )
    folds = co_group(bucket_fold, parts=(parts, "h"))
    return co_group(combine, folds=(folds, None))


def lang_token_density(sf_dir: str) -> rd.Dataset:
    """(lang, n_docs, n_tokens, n_chars, tokens_per_kchar_milli): how
    many whitespace tokens a kilochar of each language's text carries
    — the tokenizer-budget planner (compact scripts inflate per-char
    token costs; the milli ratio is (10⁶·tokens) // chars).

    Scale shape: map-only per-batch (lang, docs, tokens, chars)
    partials through one lang-keyed combine."""
    import numpy as np
    import pandas as pd

    def partials(batch: pa.Table) -> pa.Table:
        rows: dict[str, list[int]] = {}
        for lang, t in zip(
            batch.column("lang").to_pylist(), batch.column("text").to_pylist()
        ):
            r = rows.setdefault(lang, [0, 0, 0])
            r[0] += 1
            r[1] += len(t.split())
            r[2] += len(t)
        langs = list(rows)
        return pa.table(
            {
                "lang": pa.array(langs, pa.string()),
                "d": pa.array([rows[k][0] for k in langs], pa.int64()),
                "tk": pa.array([rows[k][1] for k in langs], pa.int64()),
                "ch": pa.array([rows[k][2] for k in langs], pa.int64()),
            }
        )

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        lang = g["lang"].iloc[0]
        d, tk, ch = int(g["d"].sum()), int(g["tk"].sum()), int(g["ch"].sum())
        return pd.DataFrame(
            {
                "lang": [lang],
                "n_docs": np.array([d], np.int64),
                "n_tokens": np.array([tk], np.int64),
                "n_chars": np.array([ch], np.int64),
                "tokens_per_kchar_milli": np.array(
                    [(1_000_000 * tk) // ch], np.int64
                ),
            }
        )

    return (
        _docs(sf_dir, ["lang", "text"])
        .map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("lang")
        .map_groups(arrow_udf(fold), batch_format="pandas")
    )
