"""Curation filters over the ``documents`` table: Gopher-style quality
gating and PII redaction — the per-document keep/drop and scrub stages a
training-data pipeline runs between extraction and dedup.

Both are single-pass ``map_batches`` stages (no shuffle, no driver
state); verdicts stream out as narrow rows, so at 100 TB the wide text
column is read once and never leaves the worker.  Every rule uses
integer arithmetic only, so the DuckDB oracle mirrors are exact
(``__ray_entry__.oracle_sql``).
"""

from __future__ import annotations

import re

import pyarrow as pa
import ray.data as rd

from .analysis import _docs

# -- quality gate -----------------------------------------------------------

# Ordered integer-arithmetic rules (first match wins).  The rule SHAPE
# follows the Gopher / C4 curation heuristics (word-count bounds, mean
# word length in [2, 12], most-common-word fraction cap, distinct-word
# ratio floor); the repetition/diversity percentages are tuned to the
# synthetic corpus distribution so every verdict class actually fires
# in tests.  Scaled-integer comparisons keep the oracle float-safe.
MIN_WORDS = 20
MAX_WORDS = 100_000
TOP_WORD_PCT = 12  # drop when the most common word exceeds 12% of words
DISTINCT_PCT = 35  # drop when distinct words fall below 35% of words


def quality_verdict(n_words: int, n_distinct: int, top_word_n: int,
                    sum_word_chars: int) -> str:
    """First failing rule name, or 'ok'."""
    if n_words < MIN_WORDS:
        return "too_short"
    if n_words > MAX_WORDS:
        return "too_long"
    if 10 * sum_word_chars < 20 * n_words:  # mean word length < 2
        return "short_words"
    if 10 * sum_word_chars > 120 * n_words:  # mean word length > 12
        return "long_words"
    if 100 * top_word_n > TOP_WORD_PCT * n_words:
        return "repetitive"
    if 100 * n_distinct < DISTINCT_PCT * n_words:
        return "low_diversity"
    return "ok"


def quality_filter(sf_dir: str) -> rd.Dataset:
    """(doc_id, keep, reason): ordered quality-rule verdict per document
    (keep=1 iff reason='ok').  The downstream curation join drops
    keep=0 rows without ever re-reading the text."""

    def verdict(batch: pa.Table) -> pa.Table:
        from .analysis import word_stats_arrays

        stats = word_stats_arrays(batch.column("text"))
        reasons = [
            quality_verdict(int(w), int(d), int(t), int(s))
            for w, d, t, s in zip(*stats)
        ]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "keep": pa.array(
                    [1 if r == "ok" else 0 for r in reasons], pa.int64()
                ),
                "reason": pa.array(reasons, pa.string()),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        verdict, batch_format="pyarrow", zero_copy_batch=True
    )


# -- Gopher rule set (Rae et al. 2021 §A1.1 — the signals quality_filter
# doesn't cover) --------------------------------------------------------------

#: ordered, integer-arithmetic rules: fraction of words containing an
#: alphabetic character, presence of common English stopwords, and
#: symbol-to-word ratio ('#' and '…' counts) — the remaining word-level
#: Gopher heuristics.  Constants are interpolated into the SQL mirror
#: (oracle_sql) so retuning can't silently desync the two sides.
GOPHER_STOPWORDS = ("the", "be", "to", "of", "and", "that", "have", "with")
ALPHA_WORD_PCT = 80  # >= 80% of words must contain [A-Za-z]
MIN_STOP_HITS = 2  # >= 2 stopword occurrences
SYMBOL_PER_WORD_PCT = 10  # '#'+'…' chars <= 10% of word count

_ALPHA_RE = re.compile(r"[A-Za-z]")
_GOPHER_STOPSET = frozenset(GOPHER_STOPWORDS)


def gopher_verdict(
    n_words: int, alpha_words: int, stop_hits: int, symbol_chars: int
) -> str:
    """First failing Gopher rule name, or 'ok' (ordered, integer-only)."""
    if n_words == 0:
        return "empty"
    if 100 * alpha_words < ALPHA_WORD_PCT * n_words:
        return "low_alpha"
    if stop_hits < MIN_STOP_HITS:
        return "no_stopwords"
    if 100 * symbol_chars > SYMBOL_PER_WORD_PCT * n_words:
        return "symbol_heavy"
    return "ok"


def gopher_rules(sf_dir: str) -> rd.Dataset:
    """(doc_id, n_words, alpha_words, stop_hits, symbol_chars, reason,
    keep): the word-level Gopher quality signals per document, with the
    ordered first-failing-rule verdict.  Complements quality_filter
    (word-count/mean-length/repetition live there).

    Scale shape: stateless single map_batches pass, narrow integer
    output rows — the text column never leaves the worker."""

    def verdict(batch: pa.Table) -> pa.Table:
        n_words, alpha, stops, syms, reasons, keeps = [], [], [], [], [], []
        for text in batch.column("text").to_pylist():
            words = text.split()
            nw = len(words)
            aw = sum(1 for w in words if _ALPHA_RE.search(w))
            sh = sum(1 for w in words if w.lower() in _GOPHER_STOPSET)
            sc = text.count("#") + text.count("…")
            r = gopher_verdict(nw, aw, sh, sc)
            n_words.append(nw)
            alpha.append(aw)
            stops.append(sh)
            syms.append(sc)
            reasons.append(r)
            keeps.append(1 if r == "ok" else 0)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_words": pa.array(n_words, pa.int64()),
                "alpha_words": pa.array(alpha, pa.int64()),
                "stop_hits": pa.array(stops, pa.int64()),
                "symbol_chars": pa.array(syms, pa.int64()),
                "reason": pa.array(reasons, pa.string()),
                "keep": pa.array(keeps, pa.int64()),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        verdict, batch_format="pyarrow", zero_copy_batch=True
    )


# -- mojibake repair ----------------------------------------------------------

#: the accented phrase appended before synthetic corruption — every
#: char's UTF-8 bytes avoid the five cp1252 holes, so the cp1252
#: mis-decode is strict-reversible (as real-world mojibake is)
MOJIBAKE_PHRASE = " café naïve – ½ øre"


def synth_mojibake(doc_id: int, text: str) -> tuple[str, str, int]:
    """Deterministic corruption fixture (the pii_scrub pattern: inject,
    then prove the scrubber finds it): every document gains an accented
    phrase; doc_id%7==3 rows are then corrupted by one UTF-8→cp1252
    mis-decode, %7==5 rows by two (double-encoded mojibake).  Returns
    (clean_text, corrupted_text, n_corruption_passes)."""
    clean = text + MOJIBAKE_PHRASE
    n = 1 if doc_id % 7 == 3 else 2 if doc_id % 7 == 5 else 0
    corrupted = clean
    for _ in range(n):
        corrupted = corrupted.encode("utf-8").decode("cp1252")
    return clean, corrupted, n


def mojibake_repair(sf_dir: str) -> rd.Dataset:
    """(doc_id, corrupted_passes, n_fixes, restored): end-to-end
    mojibake repair over deterministically corrupted documents —
    ``n_fixes`` is what :func:`functions.charset.fix_mojibake` actually
    applied, ``restored`` is 1 iff the repaired text equals the
    pre-corruption original (computed in-worker).  The DuckDB oracle
    states the invariant: n_fixes == corruption depth and restored == 1
    on every row — any failed or spurious repair hash-mismatches.

    Scale shape: stateless single pass, narrow integer rows out."""
    from ..functions.charset import fix_mojibake

    def run(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        n_corr, n_fix, restored = [], [], []
        for doc_id, text in zip(ids, texts):
            clean, corrupted, n = synth_mojibake(doc_id, text)
            repaired, fixes = fix_mojibake(corrupted)
            n_corr.append(n)
            n_fix.append(fixes)
            restored.append(1 if repaired == clean else 0)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "corrupted_passes": pa.array(n_corr, pa.int64()),
                "n_fixes": pa.array(n_fix, pa.int64()),
                "restored": pa.array(restored, pa.int64()),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        run, batch_format="pyarrow", zero_copy_batch=True
    )


# -- flagged-word gate (C4 / RefinedWeb-style badword filtering) --------------

#: Ordered two-tier flagged-word rule (the C4 "bad words" gate shape:
#: Raffel et al. 2020 §2.2 drop any page containing a list word;
#: RefinedWeb soft-scores instead of hard-dropping).  HARD words drop on
#: a single occurrence; SOFT words drop only past a fraction threshold.
#: Words are chosen from the synthetic corpus vocabulary so every
#: verdict class fires in tests; all three constants are interpolated
#: into the SQL mirror (oracle_sql) so retuning can't desync the sides.
BADWORDS_HARD = ("dup",)
BADWORDS_SOFT = ("spark", "slow")
BAD_WORD_PCT = 6  # drop when soft flagged words exceed 6% of words


def badwords_verdict(n_words: int, hard_hits: int, soft_hits: int) -> str:
    """First failing flagged-word rule name, or 'ok' (ordered,
    integer-only)."""
    if n_words == 0:
        return "empty"
    if hard_hits > 0:
        return "hard_bad"
    if 100 * soft_hits > BAD_WORD_PCT * n_words:
        return "bad_fraction"
    return "ok"


def badwords_filter(sf_dir: str) -> rd.Dataset:
    """(doc_id, n_words, hard_hits, soft_hits, reason, keep): the
    flagged-word verdict per document — any HARD-list word drops the
    page outright (the C4 rule); SOFT-list words drop it only when they
    exceed ``BAD_WORD_PCT``% of the words (the RefinedWeb softening).

    Scale shape: stateless single ``map_batches`` pass; the word split,
    lowercase and list membership are Arrow kernels and the per-row
    counts one ``np.bincount`` each — no per-row Python, no shuffle,
    narrow integer rows out (the text never leaves the worker)."""
    import numpy as np
    import pyarrow.compute as pc

    hard_set = pa.array(BADWORDS_HARD, pa.string())
    soft_set = pa.array(BADWORDS_SOFT, pa.string())

    def verdict(batch: pa.Table) -> pa.Table:
        texts = batch.column("text")
        n = len(texts)
        words = pc.utf8_split_whitespace(texts)
        flat = pc.list_flatten(words)
        idx = pc.list_parent_indices(words)
        mask = pc.not_equal(flat, "")  # split emits '' at edge whitespace
        flat = pc.filter(flat, mask)
        ii = pc.filter(idx, mask).to_numpy(zero_copy_only=False)
        low = pc.utf8_lower(flat)
        hard_m = pc.is_in(low, value_set=hard_set).to_numpy(zero_copy_only=False)
        soft_m = pc.is_in(low, value_set=soft_set).to_numpy(zero_copy_only=False)
        n_words = np.bincount(ii, minlength=n).astype(np.int64)
        hard = np.bincount(ii[hard_m], minlength=n).astype(np.int64)
        soft = np.bincount(ii[soft_m], minlength=n).astype(np.int64)
        reason = np.select(
            [n_words == 0, hard > 0, 100 * soft > BAD_WORD_PCT * n_words],
            ["empty", "hard_bad", "bad_fraction"],
            default="ok",
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_words": pa.array(n_words),
                "hard_hits": pa.array(hard),
                "soft_hits": pa.array(soft),
                "reason": pa.array(reason.tolist(), pa.string()),
                "keep": pa.array((reason == "ok").astype(np.int64)),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        verdict, batch_format="pyarrow", zero_copy_batch=True
    )


# -- corpus-quantile length trim ----------------------------------------------

LEN_Q_LO_PCT = 5  # drop below the 5th percentile of corpus word counts
LEN_Q_HI_PCT = 95  # drop above the 95th


def length_quantile_bounds(lengths, counts, lo_pct: int, hi_pct: int):
    """(lo, hi) discrete corpus quantiles from a (length -> count)
    histogram — 1-based rank ``max(1, ceil(q*total))`` read off the
    sorted cumulative counts, matching DuckDB's ``quantile_disc``
    (the :func:`relational.event_quantiles` rule)."""
    import math

    import numpy as np

    order = np.argsort(lengths, kind="stable")
    vals = np.asarray(lengths)[order]
    cum = np.asarray(counts)[order].cumsum()
    total = int(cum[-1])

    def pick(pct: int) -> int:
        rank = max(1, math.ceil(pct * total / 100))
        return int(vals[np.searchsorted(cum, rank, side="left")])

    return pick(lo_pct), pick(hi_pct)


def length_outlier_filter(sf_dir: str) -> rd.Dataset:
    """(doc_id, n_words, keep): trim documents whose word count falls
    outside the corpus's own [p5, p95] band — the global-stats-then-
    filter shape (compute a corpus statistic, then gate every row
    against it) that fixed-threshold gates like quality_filter can't
    express.

    Scale shape: pass 1 reduces the corpus to a (word-count -> n_docs)
    HISTOGRAM via per-batch partials + a groupby over the distinct-
    length domain (bounded by the max document length, NOT the corpus
    size — the event_quantiles contract), so the only driver state is
    that small histogram.  Pass 2 is a stateless vectorized re-count +
    range test; keep flags stream out, nothing shuffles."""
    import numpy as np
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    def partials(batch: pa.Table) -> pa.Table:
        nw = pc.cast(
            pc.count_substring_regex(batch.column("text"), r"\S+"), pa.int64()
        )
        vc = nw.value_counts()
        return pa.table(
            {
                "n_words": vc.field("values"),
                "n": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    hist = (
        _docs(sf_dir, ["text"])
        .map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("n_words")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    lo, hi = length_quantile_bounds(
        hist["n_words"].to_numpy(),
        hist["n"].to_numpy(),
        LEN_Q_LO_PCT,
        LEN_Q_HI_PCT,
    )

    def gate(batch: pa.Table) -> pa.Table:
        nw = pc.cast(
            pc.count_substring_regex(batch.column("text"), r"\S+"), pa.int64()
        ).to_numpy(zero_copy_only=False)
        keep = ((nw >= lo) & (nw <= hi)).astype(np.int64)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_words": pa.array(nw),
                "keep": pa.array(keep),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        gate, batch_format="pyarrow", zero_copy_batch=True
    )


# -- PII scrubbing ----------------------------------------------------------

# Patterns chosen to behave identically under Python re and RE2
# (no lookarounds, no backreferences); redaction order SSN -> phone ->
# email so the narrower dashed-digit patterns can't eat SSN fragments.
SSN_RE = re.compile(r"\b\d{3}-\d{2}-\d{4}\b")
PHONE_RE = re.compile(r"\b\d{3}-\d{4}\b")
EMAIL_RE = re.compile(r"[A-Za-z0-9_.]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}")


def synth_contact(doc_id: int, text: str) -> str:
    """Deterministic PII-bearing line used by both the Ray query and the
    SQL oracle (the documents corpus itself is PII-free word soup):
    contact fields keyed on doc_id + a text head."""
    parts = []
    if doc_id % 2 == 0:
        parts.append(f"EMAIL user{doc_id}@mail{doc_id % 7}.example")
    if doc_id % 3 == 0:
        parts.append(f"CALL {200 + doc_id % 800}-{1000 + doc_id % 9000}")
    if doc_id % 5 == 0:
        parts.append(
            f"SSN {100 + doc_id % 900}-{10 + doc_id % 90}-{1000 + doc_id % 9000}"
        )
    parts.append(text[:40])
    return " ".join(parts)


def scrub(text: str) -> tuple[int, int, int, str]:
    """(n_emails, n_phones, n_ssn, redacted) for one text."""
    n_ssn = len(SSN_RE.findall(text))
    n_phones = len(PHONE_RE.findall(text))
    n_emails = len(EMAIL_RE.findall(text))
    red = SSN_RE.sub("[SSN]", text)
    red = PHONE_RE.sub("[PHONE]", red)
    red = EMAIL_RE.sub("[EMAIL]", red)
    return n_emails, n_phones, n_ssn, red


def pii_scrub(sf_dir: str) -> rd.Dataset:
    """(doc_id, n_emails, n_phones, n_ssn, redacted): PII detection
    counts and the redacted text over synthesized contact lines.
    Counts run on the original text; redaction replaces SSN, then
    phone, then email (left-to-right non-overlapping, same semantics
    in re and RE2)."""

    def run(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        rows = [scrub(synth_contact(i, t)) for i, t in zip(ids, texts)]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_emails": pa.array([r[0] for r in rows], pa.int64()),
                "n_phones": pa.array([r[1] for r in rows], pa.int64()),
                "n_ssn": pa.array([r[2] for r in rows], pa.int64()),
                "redacted": pa.array([r[3] for r in rows], pa.string()),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        run, batch_format="pyarrow", zero_copy_batch=True
    )


# -- deterministic sampling ---------------------------------------------------

KNUTH = 2654435761  # Knuth multiplicative hash constant (2^32 / phi)
SAMPLE_MOD = 1 << 32


def sample_documents(sf_dir: str, permille: int = 200) -> rd.Dataset:
    """(source, n_sampled, total_chars): a deterministic ~20% hash
    sample of the corpus, aggregated per source — the
    sampling-for-eval / debugging op every corpus pipeline needs.  A doc
    is kept iff the multiplicative hash of doc_id falls in the first
    permille/1000 of the 32-bit ring: pure integer arithmetic, so the
    SQL oracle is exact and the sample is stable with no RNG.
    Single pass + tiny groupby (per-batch filter, no shuffle of kept
    rows beyond the grouped partials)."""
    from ray.data.aggregate import Count, Sum

    import numpy as np

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        with np.errstate(over="ignore"):
            h = (ids.astype(np.uint64) * np.uint64(KNUTH)) % np.uint64(SAMPLE_MOD)
        mask = h * np.uint64(1000) < np.uint64(SAMPLE_MOD) * np.uint64(permille)
        t = batch.filter(pa.array(mask))
        return t.select(["source", "n_chars"])

    return (
        _docs(sf_dir, ["doc_id", "source", "n_chars"])
        .map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("source")
        .aggregate(Count(alias_name="n_sampled"), Sum("n_chars", alias_name="total_chars"))
    )


def stratified_sample(sf_dir: str, per_stratum: int = 50) -> rd.Dataset:
    """(doc_id, lang): a deterministic expected-``per_stratum``-per-
    language sample — the balanced-eval-set draw a multilingual corpus
    pipeline needs (uniform sampling would mirror the corpus skew).

    Scale shape: pass 1 reduces the corpus to per-language counts via
    in-batch partials + a tiny groupby (rows = #languages, bounded by
    definition — the only driver state, same contract as the 25-row
    nation broadcast).  Pass 2 keeps a document iff its hash-ring
    position clears the per-language threshold — a stateless vectorized
    filter, no shuffle of kept rows.  The threshold form
    ``h <= (MOD*per - 1) // cnt`` equals ``h * cnt < MOD * per``
    without the uint64 overflow the product form would hit at 10^12
    rows per stratum."""
    import numpy as np
    from ray.data.aggregate import Sum

    def count_partials(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        vc = batch.column("lang").value_counts()
        return pa.table(
            {
                "lang": vc.field("values"),
                "cnt": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    counts = (
        _docs(sf_dir, ["lang"])
        .map_batches(count_partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("lang")
        .aggregate(Sum("cnt", alias_name="cnt"))
        .to_pandas()
    )
    thresholds = {
        lang: (SAMPLE_MOD * per_stratum - 1) // int(cnt)
        for lang, cnt in zip(counts["lang"], counts["cnt"])
    }

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        thr = (
            batch.column("lang")
            .to_pandas()
            .map(thresholds)
            .to_numpy(dtype=np.uint64)
        )
        with np.errstate(over="ignore"):
            h = (ids.astype(np.uint64) * np.uint64(KNUTH)) % np.uint64(SAMPLE_MOD)
        t = batch.filter(pa.array(h <= thr))
        return t.select(["doc_id", "lang"])

    return _docs(sf_dir, ["doc_id", "lang"]).map_batches(
        keep, batch_format="pyarrow", zero_copy_batch=True
    )


# -- temperature-based source mixture -----------------------------------------

#: total documents the mixture draws (the "epoch budget")
TEMP_TARGET = 200
# Temperature alpha = 1/2: per-source sampling weight w_i =
# floor(sqrt(n_i) · 1e6) — the multilingual-corpus balancing rule
# (sample p_i ∝ p_i^alpha, alpha < 1 upsamples small sources relative
# to their share; Conneau & Lample 2019 §3.1 use exactly this shape).
# Quotas come from the largest-remainder (Hamilton) apportionment so
# they are integers summing to the target, deterministically.


def temperature_quotas(
    counts: "dict[str, int]", target: int = TEMP_TARGET
) -> "dict[str, int]":
    """Largest-remainder apportionment of ``target`` draws over
    sqrt-temperature weights: base_i = (T·w_i) // W, the T − Σ base
    leftovers go to the largest remainders (source ASC breaks ties)."""
    import math

    w = {s: math.floor(math.sqrt(n) * 1e6) for s, n in counts.items()}
    total_w = sum(w.values())
    base = {s: target * w[s] // total_w for s in w}
    rem = {s: target * w[s] % total_w for s in w}
    leftover = target - sum(base.values())
    for s in sorted(w, key=lambda s: (-rem[s], s))[:leftover]:
        base[s] += 1
    return base


def source_counts(ds: rd.Dataset) -> "dict[str, int]":
    """Per-source row counts of a (…, source) dataset via in-batch
    value_counts partials + a source-cardinality groupby — the only
    driver state is one int per source."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    def count_partials(batch: pa.Table) -> pa.Table:
        vc = batch.column("source").value_counts()
        return pa.table(
            {
                "source": vc.field("values"),
                "cnt": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    counts = (
        ds.map_batches(count_partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("source")
        .aggregate(Sum("cnt", alias_name="cnt"))
        .to_pandas()
    )
    return {s: int(n) for s, n in zip(counts["source"], counts["cnt"])}


def mixture_select(ds: rd.Dataset, quotas: "dict[str, int]") -> rd.Dataset:
    """Fill each source's quota from a (doc_id, source, …) dataset by
    the smallest ``shuffle_key`` values (doc_id ties) — local
    bottom-quota per batch, then one source-keyed ``map_groups`` takes
    the global bottom-quota; nothing corpus-sized moves.  Shared by
    :func:`temperature_sample` and :func:`curate.web_curate`."""
    import numpy as np
    import pandas as pd

    from .io_util import arrow_udf
    from .pack import shuffle_key

    max_q = max(quotas.values())

    def local_bottom(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        key = shuffle_key(ids)
        df = pd.DataFrame(
            {
                "doc_id": ids,
                "source": batch.column("source").to_pandas(),
                "key": key,
            }
        )
        kept = (
            df.sort_values(["key", "doc_id"], kind="stable")
            .groupby("source", sort=False)
            .head(max_q)
        )
        # explicit construction: from_pandas would inject the b'pandas'
        # schema metadata the next shuffle chokes on (io_util.arrow_udf)
        return pa.table(
            {
                "doc_id": pa.array(kept["doc_id"].to_numpy(), pa.int64()),
                "source": pa.array(kept["source"].tolist(), pa.string()),
                "key": pa.array(kept["key"].to_numpy(), pa.int64()),
            }
        )

    def take_quota(g: pd.DataFrame) -> pd.DataFrame:
        q = quotas.get(g["source"].iloc[0], 0)
        out = g.sort_values(["key", "doc_id"], kind="stable").head(q)
        return out[["doc_id", "source"]].astype({"doc_id": np.int64})

    return (
        ds.map_batches(local_bottom, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("source")
        .map_groups(arrow_udf(take_quota), batch_format="pandas")
    )


def temperature_sample(sf_dir: str) -> rd.Dataset:
    """(doc_id, source): a deterministic :data:`TEMP_TARGET`-document
    draw whose per-source allocation follows sqrt-temperature weights
    — the data-mixing op that rebalances a source-skewed corpus for
    training (uniform sampling would mirror the skew; per-source equal
    counts would starve big sources).  Within each source the quota is
    filled by the smallest ``shuffle_key`` values (doc_id ties) — the
    same deterministic hash-ring rank as ``uniform_sample_k``.

    Scale shape: pass 1 reduces the corpus to per-source counts
    (:func:`source_counts` — the only driver state is one int per
    source); quotas are computed once and ride the task closure; the
    selection is :func:`mixture_select` (local bottom-quota per batch
    + one source-keyed map_groups)."""
    quotas = temperature_quotas(source_counts(_docs(sf_dir, ["source"])))
    return mixture_select(_docs(sf_dir, ["doc_id", "source"]), quotas)


def token_histogram(sf_dir: str, bucket: int = 10) -> rd.Dataset:
    """(bucket_lo, n_docs): corpus length distribution — token counts
    floored to `bucket`-wide buckets, counted.  Partial counts combine
    inside each batch; the exchange carries one row per bucket per
    batch."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    def partials(batch: pa.Table) -> pa.Table:
        import numpy as np

        n_tok = pc.cast(
            pc.count_substring_regex(batch.column("text"), r"\S+"), pa.int64()
        ).to_numpy(zero_copy_only=False)
        lo = (n_tok // bucket) * bucket
        vals, counts = np.unique(lo, return_counts=True)
        return pa.table(
            {
                "bucket_lo": pa.array(vals, pa.int64()),
                "n_docs": pa.array(counts, pa.int64()),
            }
        )

    return (
        _docs(sf_dir, ["text"])
        .map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket_lo")
        .aggregate(Sum("n_docs", alias_name="n_docs"))
    )


# -- blocklist anti-join ------------------------------------------------------


def synth_blocklist(sf_dir: str) -> set[int]:
    """Deterministic stand-in for an external blocklist (every 17th
    doc_id) — in production this is a parquet/sidecar read.  Small by
    contract: blocklists are curated, not corpus-scale."""
    import pyarrow.parquet as pq
    import os

    t = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    )
    return {int(d) for d in t.column("doc_id").to_pylist() if d % 17 == 0}


def blocklist_filter(sf_dir: str) -> rd.Dataset:
    """(doc_id, source): the corpus minus blocklisted documents — a
    broadcast ANTI-join: the (small, curated) blocklist ships once via
    ray.put and each batch drops members with one vectorized isin;
    nothing corpus-sized is collected or shuffled."""
    import numpy as np
    import ray

    block_ref = ray.put(np.fromiter(synth_blocklist(sf_dir), dtype=np.int64))

    def drop(batch: pa.Table) -> pa.Table:
        blocked = ray.get(block_ref)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        keep = ~np.isin(ids, blocked)
        return batch.filter(pa.array(keep))

    return _docs(sf_dir, ["doc_id", "source"]).map_batches(
        drop, batch_format="pyarrow", zero_copy_batch=True
    )


# -- benchmark decontamination ----------------------------------------------

DECON_NGRAM = 8  # word n-gram length compared against the eval set
DECON_MOD = 97  # doc_id % DECON_MOD == 0 (real ids only) -> benchmark member


def _gram_set(words: list[str], n: int = DECON_NGRAM) -> set[str]:
    if len(words) < n:
        return set()
    return {" ".join(words[i : i + n]) for i in range(len(words) - n + 1)}


def benchmark_grams(sf_dir: str) -> rd.Dataset:
    """(g,): distinct word-8-grams of the benchmark slice.  The slice is
    a deterministic stand-in for an external eval set (every 97th REAL
    doc_id); in production this is its own small table.  Computed
    distributed; the output is eval-set-sized, not corpus-sized."""
    from .dedup import NEAR_DUP_ID_OFFSET

    def grams(batch: pa.Table) -> pa.Table:
        out: set[str] = set()
        for i, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            if i % DECON_MOD == 0 and i < NEAR_DUP_ID_OFFSET:
                out |= _gram_set(t.split())
        return pa.table({"g": pa.array(sorted(out), pa.string())})

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        grams, batch_format="pyarrow", zero_copy_batch=True
    )


def decontaminate(sf_dir: str) -> rd.Dataset:
    """(doc_id, is_benchmark, n_hits, verdict): GPT-3-style training-set
    decontamination over the near-dup-augmented corpus — a document is
    'contaminated' when any of its word-8-grams appears in the benchmark
    (eval) slice; benchmark members themselves are tagged 'benchmark'.
    ``n_hits`` counts the document's DISTINCT overlapping 8-grams.

    Scale shape: the eval set is a model artifact (MBs at the 100 TB
    corpus scale) — its distinct grams are computed distributed,
    collected once, and broadcast via ``ray.put``; the corpus pass is a
    single ``map_batches`` probe with no shuffle of corpus rows."""
    import ray

    from .dedup import NEAR_DUP_ID_OFFSET, with_near_dups

    grams_df = benchmark_grams(sf_dir).to_pandas()
    bench: set[str] = set(grams_df["g"]) if "g" in grams_df else set()
    bench_ref = ray.put(bench)

    def verdicts(batch: pa.Table) -> pa.Table:
        b = ray.get(bench_ref)
        ids, is_b, hits, verd = [], [], [], []
        for i, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            n = len(_gram_set(t.split()) & b)
            member = 1 if (i % DECON_MOD == 0 and i < NEAR_DUP_ID_OFFSET) else 0
            ids.append(i)
            is_b.append(member)
            hits.append(n)
            verd.append(
                "benchmark" if member else ("contaminated" if n else "")
            )
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "is_benchmark": pa.array(is_b, pa.int64()),
                "n_hits": pa.array(hits, pa.int64()),
                "verdict": pa.array(verd, pa.string()),
            }
        )

    corpus = with_near_dups(_docs(sf_dir, ["doc_id", "text"]))
    return corpus.map_batches(
        verdicts, batch_format="pyarrow", zero_copy_batch=True
    )


# -- C4-style line-level cleaning --------------------------------------------

# Line/page heuristics from the C4 corpus construction (Raffel et al.
# 2020, "Exploring the Limits of Transfer Learning", §2.2): keep only
# lines ending in terminal punctuation with >= C4_MIN_LINE_WORDS words
# and no "javascript"; drop whole pages containing a curly brace or
# "lorem ipsum", or retaining fewer than C4_MIN_SENTENCES lines.  The
# documents corpus is single-line word soup, so — like pii_scrub's
# synth_contact — each doc is first expanded into a deterministic
# multi-line page (both the Ray stage and the SQL oracle rebuild the
# identical page from doc_id + text, so the filter itself is what the
# hash-match checks).
C4_LINE_WORDS = 6  # words per synthesized line
C4_MIN_LINE_WORDS = 3
C4_MIN_SENTENCES = 3
C4_TERMINAL = (".", "!", "?", '"')


def synth_page_lines(doc_id: int, text: str) -> list[str]:
    """Deterministic multi-line page for one doc: 6-word lines, each
    decorated by (doc_id + 7*j) % 5 — terminal '.', terminal '!',
    no terminal punctuation, truncated-to-2-words '.', or a trailing
    ' javascript required.' — plus page-level markers ' {' (doc_id %
    13 == 0) and ' lorem ipsum.' (doc_id % 17 == 3) on line 0."""
    words = [w for w in text.split() if w]
    n_lines = max(-(-len(words) // C4_LINE_WORDS), 1)
    lines = []
    for j in range(n_lines):
        chunk = words[C4_LINE_WORDS * j : C4_LINE_WORDS * (j + 1)]
        m = (doc_id + 7 * j) % 5
        if m == 0:
            line = " ".join(chunk) + "."
        elif m == 1:
            line = " ".join(chunk) + "!"
        elif m == 2:
            line = " ".join(chunk)
        elif m == 3:
            line = " ".join(chunk[:2]) + "."
        else:
            line = " ".join(chunk) + " javascript required."
        if j == 0 and doc_id % 13 == 0:
            line += " {"
        if j == 0 and doc_id % 17 == 3:
            line += " lorem ipsum."
        lines.append(line)
    return lines


def c4_line_keep(line: str) -> bool:
    """The C4 per-line predicate: terminal punctuation, >= 3 words,
    no 'javascript' (case-insensitive)."""
    return (
        line.endswith(C4_TERMINAL)
        and len([w for w in line.split(" ") if w]) >= C4_MIN_LINE_WORDS
        and "javascript" not in line.lower()
    )


def c4_page_verdict(lines: list[str]) -> tuple[str, list[str]]:
    """(reason, kept_lines): ordered page rules — curly brace, lorem
    ipsum, then too-few-retained-sentences; 'ok' keeps the page."""
    kept = [ln for ln in lines if c4_line_keep(ln)]
    if any("{" in ln for ln in lines):
        return "curly_brace", kept
    if any("lorem ipsum" in ln.lower() for ln in lines):
        return "lorem_ipsum", kept
    if len(kept) < C4_MIN_SENTENCES:
        return "too_few_sentences", kept
    return "ok", kept


def c4_line_filter(sf_dir: str) -> rd.Dataset:
    """(doc_id, n_lines, n_kept, keep, reason, clean_text): C4-style
    line-level cleaning over synthesized multi-line pages.  One
    map_batches pass — per-line verdicts never leave the worker; only
    the cleaned text and narrow counters stream out (at 100 TB the
    page text is read once, scrubbed in place, and the driver holds
    nothing)."""

    def run(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        n_lines, n_kept, keeps, reasons, cleans = [], [], [], [], []
        for i, t in zip(ids, texts):
            lines = synth_page_lines(i, t)
            reason, kept = c4_page_verdict(lines)
            n_lines.append(len(lines))
            n_kept.append(len(kept))
            keeps.append(1 if reason == "ok" else 0)
            reasons.append(reason)
            cleans.append("\n".join(kept) if reason == "ok" else "")
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_lines": pa.array(n_lines, pa.int64()),
                "n_kept": pa.array(n_kept, pa.int64()),
                "keep": pa.array(keeps, pa.int64()),
                "reason": pa.array(reasons, pa.string()),
                "clean_text": pa.array(cleans, pa.string()),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        run, batch_format="pyarrow", zero_copy_batch=True
    )


# -- leakage-safe train/validation split -------------------------------------

# Split assignment hashes the GROUP key (source), never the document:
# every page from one source lands in the same split, so near-dups and
# boilerplate siblings (which cluster within a source) cannot straddle
# the train/val boundary and leak evaluation data into training.  The
# hash is an md5 hex slice -> int (same device as sketch.bloom_dedup),
# so the DuckDB oracle reproduces it exactly.
VAL_PERMILLE = 150


def split_of(source: str, val_permille: int = VAL_PERMILLE) -> str:
    import hashlib

    h = int(hashlib.md5(source.encode("utf-8")).hexdigest()[:15], 16)
    return "val" if h % 1000 < val_permille else "train"


def leakage_safe_split(sf_dir: str) -> rd.Dataset:
    """(doc_id, source, split): deterministic group-aware train/val
    assignment — hash the source, not the doc.  One stateless
    map_batches pass (the hash IS the routing; no shuffle, no driver
    state, trivially resumable), with the per-batch source->split map
    memoized since source cardinality << row count."""

    def assign(batch: pa.Table) -> pa.Table:
        srcs = batch.column("source").to_pylist()
        memo: dict[str, str] = {}
        splits = [
            memo.setdefault(s, split_of(s)) if s not in memo else memo[s]
            for s in srcs
        ]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "source": batch.column("source"),
                "split": pa.array(splits, pa.string()),
            }
        )

    return _docs(sf_dir, ["doc_id", "source"]).map_batches(
        assign, batch_format="pyarrow", zero_copy_batch=True
    )


# -- within-document line dedup ----------------------------------------------


def dedup_lines_within_doc(sf_dir: str) -> rd.Dataset:
    """(doc_id, n_lines, n_unique, clean_text): remove repeated lines
    WITHIN each document, keeping the first occurrence in order — the
    Gopher/Dolma in-document boilerplate rule, complementary to the
    corpus-frequency `extract.line_dedup`.  Pages are the same
    deterministic synthesis as :func:`c4_line_filter` plus one planted
    duplicate (a copy of line ``doc_id % n_lines`` appended) so the
    rule provably fires on every document; the SQL oracle rebuilds the
    identical page.  Pure per-document map_batches — no shuffle, no
    state, the dedup set lives and dies inside the row."""

    def run(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        n_lines, n_unique, cleans = [], [], []
        for i, t in zip(ids, texts):
            lines = synth_page_lines(i, t)
            lines.append(lines[i % len(lines)])
            seen: set[str] = set()
            kept = []
            for ln in lines:
                if ln not in seen:
                    seen.add(ln)
                    kept.append(ln)
            n_lines.append(len(lines))
            n_unique.append(len(kept))
            cleans.append("\n".join(kept))
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_lines": pa.array(n_lines, pa.int64()),
                "n_unique": pa.array(n_unique, pa.int64()),
                "clean_text": pa.array(cleans, pa.string()),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        run, batch_format="pyarrow", zero_copy_batch=True
    )


# -- domain-level quality gating ---------------------------------------------

SOURCE_MIN_OK_PCT = 60


def source_quality_filter(sf_dir: str) -> rd.Dataset:
    """(source, n_docs, n_ok, keep): drop WHOLE SOURCES whose share of
    quality-passing documents falls below SOURCE_MIN_OK_PCT — the
    domain-level gate crawl curation applies after the per-document
    one (a spammy domain's few clean pages are usually not worth
    keeping).  Integer comparison (100*n_ok >= PCT*n_docs) keeps the
    oracle exact.

    Scale shape: the per-document verdict computes in-batch (same rule
    table as quality_filter) and collapses to one (source, n, ok)
    partial row per source per batch — the exchange is
    source-cardinality × blocks, the text never leaves the stage."""
    from ray.data.aggregate import Sum

    def partials(batch: pa.Table) -> pa.Table:
        from .analysis import word_stats_arrays

        stats = word_stats_arrays(batch.column("text"))
        ok = [
            1 if quality_verdict(int(w), int(d), int(t), int(s)) == "ok" else 0
            for w, d, t, s in zip(*stats)
        ]
        t = pa.table(
            {
                "source": batch.column("source"),
                "one": pa.array([1] * len(ok), pa.int64()),
                "ok": pa.array(ok, pa.int64()),
            }
        )
        g = t.group_by("source").aggregate([("one", "sum"), ("ok", "sum")])
        return pa.table(
            {
                "source": g.column("source"),
                "n_docs": g.column("one_sum"),
                "n_ok": g.column("ok_sum"),
            }
        )

    import numpy as np

    def verdict(batch: pa.Table) -> pa.Table:
        n = batch.column("n_docs").to_numpy(zero_copy_only=False)
        ok = batch.column("n_ok").to_numpy(zero_copy_only=False)
        return batch.append_column(
            "keep",
            pa.array((100 * ok >= SOURCE_MIN_OK_PCT * n).astype(np.int64)),
        )

    return (
        _docs(sf_dir, ["source", "text"])
        .map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("source")
        .aggregate(Sum("n_docs", alias_name="n_docs"), Sum("n_ok", alias_name="n_ok"))
        .map_batches(verdict, batch_format="pyarrow", zero_copy_batch=True)
    )
