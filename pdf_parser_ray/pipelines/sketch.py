"""Mergeable sketches as custom Ray Data aggregates.

At 100 TB an exact grouped distinct count (relational.py::
distinct_users_per_type) still shuffles every distinct pair; when the
per-group cardinality itself is huge, the scale path is a MERGEABLE
SKETCH: constant-size per-group state that accumulates vectorized per
block and merges associatively across blocks — exactly the contract of
``ray.data.aggregate.AggregateFn`` (init / accumulate_block / merge /
finalize).  The shuffle then carries one ~2^p-byte register array per
group per block instead of the data.

HyperLogLog here is the textbook Flajolet–Fuhr–Gandouet–Meunier
construction (public algorithm): register index = top ``p`` bits of a
64-bit hash, rank = leading-zero count of the rest + 1, estimate =
alpha * m^2 / sum(2^-reg) with the standard small-range (linear
counting) correction.  Deterministic: the hash is a fixed multiply-
xorshift mix, so reruns and retries produce identical sketches.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

from .io_util import arrow_udf, read_parquet_clean
from ray.data.aggregate import AggregateFn

_MIX1 = np.uint64(0xFF51AFD7ED558CCD)
_MIX2 = np.uint64(0xC4CEB9FE1A85EC53)


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64-style finalizer: uniform 64-bit hash of int64 keys."""
    with np.errstate(over="ignore"):
        x = x.astype(np.uint64)
        x ^= x >> np.uint64(33)
        x *= _MIX1
        x ^= x >> np.uint64(33)
        x *= _MIX2
        x ^= x >> np.uint64(33)
    return x


def hll_accumulate(regs: np.ndarray, keys: np.ndarray, p: int) -> np.ndarray:
    """Fold a key batch into the register array (vectorized)."""
    if len(keys) == 0:
        return regs
    h = _mix64(keys)
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = h << np.uint64(p)  # remaining 64-p bits, left-aligned
    # rank = leading zeros of `rest` + 1, capped at 64-p+1 (rest == 0)
    # bit_length via float log2 is unsafe; use a descending bit probe
    probe = rest
    # leading-zero count by halving steps (6 vector ops for 64 bits)
    shift = 32
    lz = np.zeros(len(h), np.uint8)
    while shift >= 1:
        mask = probe < (np.uint64(1) << np.uint64(64 - shift))
        lz = np.where(mask, lz + shift, lz).astype(np.uint8)
        probe = np.where(mask, probe << np.uint64(shift), probe)
        shift //= 2
    rank = np.minimum(lz + 1, 64 - p + 1).astype(np.uint8)
    np.maximum.at(regs, idx, rank)
    return regs


def hll_estimate(regs: np.ndarray) -> int:
    """Bias-corrected HLL estimate with linear-counting small range."""
    m = len(regs)
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    zeros = int(np.count_nonzero(regs == 0))
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)  # linear counting
    return int(round(est))


def hll_distinct(on: str, p: int = 12, alias_name: str | None = None) -> AggregateFn:
    """A mergeable approximate-distinct aggregate over column ``on``
    (~1.04/sqrt(2^p) relative error; p=12 -> ~1.6%).  Drop-in for
    ``ds.groupby(...).aggregate(...)``."""
    m = 1 << p

    def accumulate(regs: np.ndarray, block) -> np.ndarray:
        if isinstance(block, pa.Table):
            keys = block.column(on).to_numpy(zero_copy_only=False)
        else:  # pandas
            keys = block[on].to_numpy()
        return hll_accumulate(regs, keys.astype(np.int64), p)

    return AggregateFn(
        init=lambda k: np.zeros(m, np.uint8),
        accumulate_block=accumulate,
        merge=lambda a, b: np.maximum(a, b),
        finalize=lambda regs: hll_estimate(regs),
        name=alias_name or f"hll_{on}",
    )


def approx_distinct_users(sf_dir: str) -> rd.Dataset:
    """(event_type, n_users_approx): HLL distinct users per event type —
    the sketch counterpart of relational.distinct_users_per_type.
    Accuracy is pinned against the exact counts in tests (rows-only for
    the driver: approximate results have no SQL hash mirror)."""
    import os

    from .dedup import _blocks_for

    path = os.path.join(sf_dir, "events.parquet")
    ds = read_parquet_clean(
        path, columns=["event_type", "user_id"], override_num_blocks=_blocks_for(path)
    )
    return ds.groupby("event_type").aggregate(
        hll_distinct("user_id", alias_name="n_users_approx")
    )


# -- Count-Min Sketch heavy hitters -----------------------------------------

_CMS_SALTS = np.array(
    [0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 0xD6E8FEB86659FD93],
    dtype=np.uint64,
)


def cms_accumulate(
    table: np.ndarray, keys: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Fold (key, count) pairs into a (d, w) Count-Min table — d
    independent hash rows via salted remixes, vectorized adds."""
    if len(keys) == 0:
        return table
    d, w = table.shape
    with np.errstate(over="ignore"):
        base = keys.astype(np.uint64)
        for r in range(d):
            idx = (_mix64(base ^ _CMS_SALTS[r]) % np.uint64(w)).astype(np.int64)
            np.add.at(table[r], idx, counts)
    return table


def cms_query(table: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Point estimates: min over the d rows (classic CMS upper-bound
    estimate — never under the true count)."""
    d, w = table.shape
    est = None
    with np.errstate(over="ignore"):
        base = keys.astype(np.uint64)
        for r in range(d):
            idx = (_mix64(base ^ _CMS_SALTS[r]) % np.uint64(w)).astype(np.int64)
            vals = table[r][idx]
            est = vals if est is None else np.minimum(est, vals)
    return est


def cms_counts(on: str, w: int = 4096, d: int = 4,
               alias_name: str | None = None) -> AggregateFn:
    """Mergeable Count-Min aggregate over column ``on``: constant
    (d × w × 8)-byte state per group, vectorized accumulate, element-
    wise-sum merge.  Estimates overshoot by at most ~e·N/w with
    probability 1 - e^-d (public Cormode–Muthukrishnan construction)."""

    def accumulate(table: np.ndarray, block) -> np.ndarray:
        if isinstance(block, pa.Table):
            keys = block.column(on).to_numpy(zero_copy_only=False)
        else:
            keys = block[on].to_numpy()
        return cms_accumulate(
            table, keys.astype(np.int64), np.ones(len(keys), np.int64)
        )

    return AggregateFn(
        init=lambda k: np.zeros((d, w), np.int64),
        accumulate_block=accumulate,
        merge=lambda a, b: a + b,
        finalize=lambda t: t,
        name=alias_name or f"cms_{on}",
    )


def heavy_hitters(sf_dir: str, k: int = 10, w: int = 4096, d: int = 4) -> rd.Dataset:
    """(user_id, n_est): the top-k users by Count-Min estimated event
    count, ties broken by user_id — the heavy-hitters-at-scale pattern.
    One mergeable Count-Min sketch accumulates the full stream
    (constant-size state through the tree merge) and is broadcast with
    ``ray.put``; each batch then nominates its distinct ids' top-k by
    that GLOBAL estimate (candidate set ≤ k × batches, the only thing
    collected).  An id in the global top-k by (estimate desc, id) is in
    the top-k of every batch that holds it, so the candidates always
    contain the global top-k and the answer does not depend on the
    block layout (batch-LOCAL counts would drop true heavy hitters when
    blocks are small).  Exact per-candidate counts never
    shuffle; estimates are upper bounds within ~e·N/w.  Accuracy pinned
    vs exact counts in tests."""
    import os

    from .dedup import _blocks_for

    path = os.path.join(sf_dir, "events.parquet")
    ds = read_parquet_clean(
        path, columns=["user_id"], override_num_blocks=_blocks_for(path)
    )

    # deliberate global ds.aggregate — exempt from the house rule
    # against Ray global aggregates: the state here is ONE
    # constant-size CMS ndarray per block, merged tree-wise; there is no
    # per-key row exchange for a partial+map_groups combine to shrink,
    # so the fixed AllToAll overhead IS the whole (tiny) exchange
    table = ds.aggregate(cms_counts("user_id", w=w, d=d, alias_name="cms"))["cms"]
    table_ref = ray.put(table)

    def top_by_estimate(ids: np.ndarray) -> np.ndarray:
        est = cms_query(ray.get(table_ref), ids)
        return ids[np.lexsort((ids, -est))[:k]]

    def local_topk(batch: pa.Table) -> pa.Table:
        ids = np.unique(batch.column("user_id").to_numpy(zero_copy_only=False))
        return pa.table({"user_id": pa.array(top_by_estimate(ids.astype(np.int64)))})

    candidates = np.unique(
        ds.map_batches(local_topk, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()["user_id"]
        .to_numpy()
    )
    top = top_by_estimate(candidates)
    return rd.from_arrow(
        pa.table(
            {
                "user_id": pa.array(top.astype(np.int64)),
                "n_est": pa.array(cms_query(table, top).astype(np.int64)),
            }
        )
    )


# -- DDSketch approximate quantiles ------------------------------------------

_DD_ALPHA = 0.01  # relative-error guarantee of the log-bucket histogram
# Representable positive-value range of the BOUNDED sketch (the paper's
# collapsing variant): values outside clamp to the edge bucket — counts
# are never dropped, but a clamped value reports the range edge instead
# of its true bucket.  [1e-6, 1e12] spans 18 decades; at alpha=0.01
# that is ~2100 buckets → ~17 KiB of int64 per group, CONSTANT in row
# count and (unlike a dict) a plain ndarray that Ray's tensor extension
# stores as native Arrow blocks instead of per-block pickled objects.
_DD_VMIN = 1e-6
_DD_VMAX = 1e12


def _dd_gamma(alpha: float) -> float:
    return (1.0 + alpha) / (1.0 - alpha)


def _dd_layout(alpha: float) -> tuple[int, int]:
    """(min_idx, nbuckets) covering [_DD_VMIN, _DD_VMAX] at this alpha.
    Slot 0 of the state array is the pinned zero bucket (values <= 0);
    slot 1+j counts bucket index min_idx+j."""
    lg = np.log(_dd_gamma(alpha))
    min_idx = int(np.floor(np.log(_DD_VMIN) / lg))
    max_idx = int(np.ceil(np.log(_DD_VMAX) / lg)) + 1
    return min_idx, max_idx - min_idx + 1


def dd_init(alpha: float = _DD_ALPHA) -> np.ndarray:
    """Empty sketch state: a fixed int64 bucket-count array.  The
    TRAILING slot is the clamped-value diagnostic counter (values that
    fell outside [_DD_VMIN, _DD_VMAX] and were collapsed to an edge
    bucket) — merged additively with the rest, excluded from quantile
    ranks, readable via :func:`dd_clamped_count` so a value-domain
    change surfaces instead of silently degrading the alpha guarantee
    (ADVICE r03 #4)."""
    _, nbuckets = _dd_layout(alpha)
    return np.zeros(1 + nbuckets + 1, np.int64)


def dd_accumulate(state: np.ndarray, vals: np.ndarray, alpha: float) -> np.ndarray:
    """Fold a value batch into the bucket-count array.  Bucket index =
    ceil(log_gamma(x)) — every value in bucket i lies within a
    (1±alpha) relative band of gamma^i·2/(gamma+1), the DDSketch
    invariant (public Datadog construction).  Bucket COUNTS add, so the
    merge is order-invariant and rerun-deterministic — unlike
    buffer-compaction sketches (GK/KLL), whose state depends on arrival
    order.  Non-positive values land in the pinned zero bucket (the
    events stream is positive; the guard keeps the sketch total);
    values outside [_DD_VMIN, _DD_VMAX] clamp to the edge bucket
    (bounded collapsing variant — count kept, value clamped)."""
    if len(vals) == 0:
        return state
    min_idx, nbuckets = _dd_layout(alpha)
    pos = vals[vals > 0]
    state[0] += int(len(vals) - len(pos))
    if len(pos):
        idx = np.ceil(
            np.log(pos) / np.log(_dd_gamma(alpha)) - 1e-12
        ).astype(np.int64)
        raw = idx - min_idx
        state[-1] += int(((raw < 0) | (raw > nbuckets - 1)).sum())
        slots = np.clip(raw, 0, nbuckets - 1) + 1
        state[:-1] += np.bincount(
            slots, minlength=len(state) - 1
        ).astype(np.int64)
    return state


def dd_merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a + b


def dd_clamped_count(state: np.ndarray) -> int:
    """How many accumulated values fell outside the representable
    [_DD_VMIN, _DD_VMAX] range and were collapsed to an edge bucket
    (their counts kept, their values misreported at the range edge —
    the alpha guarantee does NOT hold for them)."""
    return int(state[-1])


def dd_quantile_micros(state: np.ndarray, q: float, alpha: float) -> int:
    """The q-quantile as integer micros of the bucket's geometric
    midpoint — within alpha relative error of the true item value."""
    counts = state[:-1]  # trailing slot is the clamped diagnostic
    n = int(counts.sum())
    if n == 0:
        return 0
    rank = int(np.ceil(q * n)) if q > 0 else 1
    rank = max(1, min(n, rank))
    if rank <= counts[0]:
        return 0
    min_idx, _ = _dd_layout(alpha)
    slot = int(np.searchsorted(np.cumsum(counts), rank))
    gamma = _dd_gamma(alpha)
    mid = (gamma ** (min_idx + slot - 1)) * 2.0 / (gamma + 1.0)
    return int(round(mid * 1_000_000))


def dd_quantile(
    on: str, q: float, alpha: float = _DD_ALPHA, alias_name: str | None = None
) -> AggregateFn:
    """A mergeable approximate-quantile aggregate over column ``on``
    (DDSketch log-bucket histogram, ≤ ``alpha`` relative value error
    inside [_DD_VMIN, _DD_VMAX]; fixed ndarray state like
    :func:`hll_distinct` / :func:`cms_counts`, so Ray's aggregate
    exchange carries native Arrow tensor blocks, not pickled dicts)."""

    def accumulate(state: np.ndarray, block) -> np.ndarray:
        if isinstance(block, pa.Table):
            vals = block.column(on).to_numpy(zero_copy_only=False)
        else:
            vals = block[on].to_numpy()
        return dd_accumulate(state, vals.astype(np.float64), alpha)

    return AggregateFn(
        init=lambda k: dd_init(alpha),
        accumulate_block=accumulate,
        merge=dd_merge,
        finalize=lambda s: dd_quantile_micros(s, q, alpha),
        name=alias_name or f"dd_q{int(q * 100)}_{on}",
    )


def approx_event_quantiles(sf_dir: str) -> rd.Dataset:
    """(event_type, q50_micros, q90_micros, q99_micros): approximate
    per-type value quantiles via DDSketch — the sketch counterpart of
    relational.event_quantiles (exact histogram).  Rows-only for the
    driver (approximate results have no SQL hash mirror); the relative
    -error bound is pinned against exact quantiles in tests."""
    import os

    from .dedup import _blocks_for

    path = os.path.join(sf_dir, "events.parquet")
    ds = read_parquet_clean(
        path, columns=["event_type", "value"], override_num_blocks=_blocks_for(path)
    )
    return ds.groupby("event_type").aggregate(
        dd_quantile("value", 0.50, alias_name="q50_micros"),
        dd_quantile("value", 0.90, alias_name="q90_micros"),
        dd_quantile("value", 0.99, alias_name="q99_micros"),
    )


# -- Bloom-filter membership (delta-vs-base exact dedup, constant state) -----

# Bloom geometry: M bits (128 KiB), K double-hashed probes per key.
# h1/h2 come from the md5 hex digest (15 hex digits each, < 2^60, h2
# forced odd), so the DuckDB oracle recomputes the exact positions:
# position_i = (h1 + i*h2) % M, and the set of SET BITS equals the set
# of all base positions — SQL membership over a positions table is
# bit-for-bit the Bloom probe.  With n ≈ M/16 base keys the false-
# positive rate is ~ (1 - e^(-K*n/M))^K ≈ 0.1%.
BLOOM_BITS = 1 << 20
BLOOM_K = 7


def bloom_positions(texts: list[str]) -> np.ndarray:
    """(len(texts), BLOOM_K) int64 positions via md5 double hashing."""
    import hashlib

    out = np.empty((len(texts), BLOOM_K), np.int64)
    ks = np.arange(BLOOM_K, dtype=np.int64)
    for r, t in enumerate(texts):
        hx = hashlib.md5(t.encode("utf-8")).hexdigest()
        h1 = int(hx[:15], 16)
        h2 = int(hx[15:30], 16) | 1
        out[r] = (h1 + ks * h2) % BLOOM_BITS
    return out


def bloom_or(bitsets: list[bytes]) -> np.ndarray:
    """Associative merge of packed Bloom bitsets (bitwise OR)."""
    acc = np.zeros(BLOOM_BITS // 8, np.uint8)
    for b in bitsets:
        acc |= np.frombuffer(b, np.uint8)
    return acc


def bloom_dedup(sf_dir: str) -> rd.Dataset:
    """(doc_id, n_hits, maybe_dup): probe every DELTA document against
    a Bloom filter of the BASE corpus's exact text digests — the
    constant-memory alternative to incremental_dedup's exact layer.
    maybe_dup = 1 iff all BLOOM_K probe bits are set: never a false
    negative (every exact re-crawl flags), false positives bounded by
    the filter geometry.

    Scale shape: the base pass emits ONE 128 KiB partial bitset per
    block, tree-reduced through a 16-way groupby OR so the driver
    collects at most 16 bitsets (2 MiB) REGARDLESS of corpus size —
    that constant-size state is the entire point of a Bloom filter,
    and the legitimate broadcast case (`ray.put` once, read per
    probe batch).  At 100 TB, size M to the base-key budget; the
    probe side stays a stateless single pass."""
    import ray

    from .dedup import _base_corpus, _delta_corpus

    _REDUCE_FAN = 16

    def partial_bits(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:  # a filtered block can come up empty
            return pa.table(
                {"fan": pa.array([], pa.int64()),
                 "bits": pa.array([], pa.binary())}
            )
        pos = bloom_positions(batch.column("text").to_pylist())
        bits = np.zeros(BLOOM_BITS // 8, np.uint8)
        flat = pos.ravel()
        np.bitwise_or.at(bits, flat // 8, np.uint8(1) << (flat % 8).astype(np.uint8))
        fan = int(batch.column("doc_id")[0].as_py()) % _REDUCE_FAN
        return pa.table(
            {"fan": pa.array([fan], pa.int64()),
             "bits": pa.array([bits.tobytes()], pa.binary())}
        )

    def or_group(df) -> "pa.Table":
        import pandas as pd

        merged = bloom_or(list(df["bits"]))
        return pd.DataFrame({"fan": [int(df["fan"].iloc[0])],
                             "bits": [merged.tobytes()]})

    partials = (
        _base_corpus(sf_dir)
        .map_batches(partial_bits, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("fan")
        .map_groups(arrow_udf(or_group), batch_format="pandas")
        .take_all()
    )
    bits_ref = ray.put(bloom_or([r["bits"] for r in partials]).tobytes())

    def probe(batch: pa.Table) -> pa.Table:
        bits = np.frombuffer(ray.get(bits_ref), np.uint8)
        pos = bloom_positions(batch.column("text").to_pylist())
        set_ = (bits[pos // 8] >> (pos % 8).astype(np.uint8)) & 1
        n_hits = set_.sum(axis=1).astype(np.int64)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_hits": pa.array(n_hits),
                "maybe_dup": pa.array(
                    (n_hits == BLOOM_K).astype(np.int64)
                ),
            }
        )

    return _delta_corpus(sf_dir).map_batches(
        probe, batch_format="pyarrow", zero_copy_batch=True
    )


def sketch_quantile_error(sf_dir: str) -> "pd.DataFrame":
    """(event_type, q_pct, exact_micros, approx_micros, err_micros,
    rel_err_ppm): the eval harness that certifies the DDSketch
    quantile path against the exact histogram quantiles — the
    ann_recall pattern for sketches: run it before switching a
    percentile dashboard from the exact (bounded-domain) operator to
    the sketch, and alarm if rel error exceeds the configured alpha.
    exact is the quantile_disc cents value ×10⁴ (micros); approx is
    the sketch's geometric-midpoint micros; rel_err_ppm =
    err·10⁶ // max(1, exact).

    Scale shape: the exact side is the event_quantiles value-histogram
    fold (distinct-cents artifact); the approx side is the mergeable
    DDSketch aggregate; the comparison is driver math over
    types × 3 rows."""
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc

    from .dedup import _blocks_for

    path = os.path.join(sf_dir, "events.parquet")

    def hist(batch: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("value"), 100.0)), pa.int64()
        )
        g = (
            pa.table({"t": batch.column("event_type"), "v": cents})
            .group_by(["t", "v"])
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {"t": g.column("t"), "v": g.column("v"), "n": g.column("count_all")}
        )

    h = (
        read_parquet_clean(
            path,
            columns=["event_type", "value"],
            override_num_blocks=_blocks_for(path),
        )
        .map_batches(hist, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
        .groupby(["t", "v"], as_index=False)["n"]
        .sum()
    )
    approx = approx_event_quantiles(sf_dir).to_pandas().set_index("event_type")

    rows = []
    for t, sub in h.groupby("t", sort=True):
        sub = sub.sort_values("v")
        v = sub["v"].to_numpy(np.int64)
        cum = np.cumsum(sub["n"].to_numpy(np.int64))
        n = int(cum[-1])
        for q_pct in (50, 90, 99):
            # the sketch's rank convention: max(1, min(n, ceil(q*n)))
            rank = max(1, min(n, -(-q_pct * n // 100)))
            exact = int(v[int(np.searchsorted(cum, rank))]) * 10_000
            ap = int(approx.loc[t, f"q{q_pct}_micros"])
            err = abs(ap - exact)
            rows.append(
                (
                    t,
                    q_pct,
                    exact,
                    ap,
                    err,
                    err * 1_000_000 // max(1, abs(exact)),
                )
            )
    df = pd.DataFrame(
        rows,
        columns=[
            "event_type", "q_pct", "exact_micros", "approx_micros",
            "err_micros", "rel_err_ppm",
        ],
    )
    for c in df.columns[1:]:
        df[c] = df[c].astype(np.int64)
    return df


def hll_error_eval(sf_dir: str) -> "pd.DataFrame":
    """(event_type, exact_n, approx_n, err_ppm): the HLL
    distinct-count eval — exact per-type distinct users (the
    distinct_users_per_type fold) vs the HLL estimate, absolute error
    in parts-per-million of the exact count.  The certification gate
    before a dashboard swaps the exact two-phase distinct for the
    constant-state sketch.

    Scale shape: both sides are existing bounded pipelines; the
    comparison is driver math over the type domain."""
    import pandas as pd

    from .relational import distinct_users_per_type

    exact = (
        distinct_users_per_type(sf_dir)
        .to_pandas()
        .set_index("event_type")["n_users"]
    )
    approx = (
        approx_distinct_users(sf_dir)
        .to_pandas()
        .set_index("event_type")["n_users_approx"]
    )
    rows = []
    for t in sorted(exact.index):
        e, a = int(exact[t]), int(approx[t])
        rows.append((t, e, a, abs(a - e) * 1_000_000 // max(1, e)))
    df = pd.DataFrame(
        rows, columns=["event_type", "exact_n", "approx_n", "err_ppm"]
    )
    for c in df.columns[1:]:
        df[c] = df[c].astype(np.int64)
    return df


def cms_error_eval(sf_dir: str) -> "pd.DataFrame":
    """(user_id, exact_n, approx_n, err): the Count-Min heavy-hitter
    eval — the sketch's estimate is an UPPER bound (err ≥ 0 always;
    pinned in tests), so this reports exactly how much collision
    inflation the top-k candidates carry.  exact counts come from one
    candidate-filtered streaming fold (the 10 candidate ids broadcast
    in-closure; full per-user counts never shuffle).

    Scale shape: the heavy_hitters pipeline plus one map-only
    filtered-count pass over events."""
    import pandas as pd
    import pyarrow.compute as pc

    from .dedup import _blocks_for

    hh = heavy_hitters(sf_dir).to_pandas()
    cand = hh["user_id"].astype(np.int64).tolist()
    cand_set = np.array(cand, np.int64)

    path = os.path.join(sf_dir, "events.parquet")

    def counts(batch: pa.Table) -> pa.Table:
        u = batch.column("user_id").to_numpy(zero_copy_only=False)
        keep = np.isin(u, cand_set)
        kept = u[keep]
        ids, n = np.unique(kept, return_counts=True)
        return pa.table(
            {
                "user_id": pa.array(ids.astype(np.int64)),
                "n": pa.array(n.astype(np.int64)),
            }
        )

    exact = (
        read_parquet_clean(
            path, columns=["user_id"], override_num_blocks=_blocks_for(path)
        )
        .map_batches(counts, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
        .groupby("user_id")["n"]
        .sum()
    )
    rows = []
    for _, r in hh.iterrows():
        uid = int(r["user_id"])
        e = int(exact.get(uid, 0))
        a = int(r["n_est"])
        rows.append((uid, e, a, a - e))
    df = pd.DataFrame(rows, columns=["user_id", "exact_n", "approx_n", "err"])
    return df.astype(np.int64)
