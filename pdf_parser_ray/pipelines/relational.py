"""Relational operators beyond the reference (the reference has no
joins or aggregations — SURVEY.md §2.4-2.5); these demonstrate the
engine's grouped-aggregate, broadcast-join and windowed-aggregate
machinery on the TPC-H-ish driver tables.

Float discipline: money sums use integer cents (``round(value*100)``)
so Ray and the DuckDB oracle hash identically regardless of summation
order.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from .io_util import arrow_udf, read_parquet_clean
from .join import co_group
from ray.data.aggregate import Count, Max, Min, Sum


def _t(sf_dir: str, name: str, columns: list[str] | None = None) -> rd.Dataset:
    from .dedup import _blocks_for

    path = os.path.join(sf_dir, f"{name}.parquet")
    return read_parquet_clean(
        path, columns=columns, override_num_blocks=_blocks_for(path)
    )


def _cents(col) -> pa.Array:
    """Money column → integer cents, ``round(value*100)``."""
    return pc.cast(pc.round(pc.multiply(col, 100.0)), pa.int64())


def _rev_cc(batch: pa.Table) -> pa.Array:
    """Discounted lineitem revenue in cent-percent units:
    price_cents × (100 − disc_pct), PURE INTEGER arithmetic after the
    per-column rounding (both are 2-decimal columns, so ×100 lands on
    integers ± fp noise and the rounding mode can't diverge from the
    SQL oracle) — sums are associative at any reduction order."""
    disc = _cents(batch.column("l_discount"))
    return pc.multiply(
        _cents(batch.column("l_extendedprice")),
        pc.subtract(pa.scalar(100, pa.int64()), disc),
    )


def lineitem_agg(sf_dir: str) -> rd.Dataset:
    """TPC-H Q1-shaped pricing summary in integer cents:
    (l_returnflag, l_linestatus, sum_qty_cents, sum_price_cents, n).

    Each batch collapses to one partial row per (flag, status) with an
    Arrow ``group_by`` (a C-speed hash aggregate over ~6 groups) before
    the Ray groupby — the exchange and Ray's sort-based aggregate see
    key-cardinality × blocks rows, not the fact table.  (Measured: Ray's
    AggregateMap alone spent ~2 s/block sorting 75k-row blocks on the
    two-string key; the in-batch partial drops the whole aggregate to
    milliseconds.)"""

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "l_returnflag": batch.column("l_returnflag"),
                "l_linestatus": batch.column("l_linestatus"),
                "qty_cents": pc.cast(
                    pc.round(pc.multiply(batch.column("l_quantity"), 100.0)), pa.int64()
                ),
                "price_cents": pc.cast(
                    pc.round(pc.multiply(batch.column("l_extendedprice"), 100.0)),
                    pa.int64(),
                ),
            }
        )
        g = t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("qty_cents", "sum"), ("price_cents", "sum"), ("qty_cents", "count")]
        )
        return pa.table(
            {
                "l_returnflag": g.column("l_returnflag"),
                "l_linestatus": g.column("l_linestatus"),
                "qty_cents": g.column("qty_cents_sum"),
                "price_cents": g.column("price_cents_sum"),
                "n": pc.cast(g.column("qty_cents_count"), pa.int64()),
            }
        )

    return (
        _t(sf_dir, "lineitem",
           ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("qty_cents", alias_name="sum_qty_cents"),
            Sum("price_cents", alias_name="sum_price_cents"),
            Sum("n", alias_name="n"),
        )
    )


def _orders_per_cust(sf_dir: str) -> rd.Dataset:
    """In-batch order-count/cents partials per custkey (no global
    groupby — :func:`_dim_rollup` consumers co-shuffle once and
    tolerate multiple partial rows per key)."""

    def partial(batch: pa.Table) -> pa.Table:
        g = (
            pa.table(
                {
                    "o_custkey": batch.column("o_custkey"),
                    "cents": _cents(batch.column("o_totalprice")),
                }
            )
            .group_by(["o_custkey"])
            .aggregate([("cents", "sum"), ("cents", "count")])
        )
        return pa.table(
            {
                "o_custkey": g.column("o_custkey"),
                "cents": g.column("cents_sum"),
                "n_orders": pc.cast(g.column("cents_count"), pa.int64()),
            }
        )

    return _t(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    )


def _small_table_dict(sf_dir: str, name: str, key: str, val: str) -> dict:
    import pyarrow.parquet as pq

    t = pq.read_table(os.path.join(sf_dir, f"{name}.parquet"), columns=[key, val])
    return dict(zip(t.column(key).to_pylist(), t.column(val).to_pylist()))


def orders_by_nation(sf_dir: str) -> rd.Dataset:
    """(n_name, n_orders, total_cents): the orders→customer join runs
    **distributed** — in-batch order partials per custkey, then ONE
    :func:`_dim_rollup` co-shuffle with the customer table on
    custkey.  Only ``nation`` (25 rows, the genuinely-small side)
    rides along as the bucket-local ``val_map``; no driver-side dict
    ever scales with the fact or customer table."""
    return _dim_rollup(
        _orders_per_cust(sf_dir),
        _t(sf_dir, "customer", ["c_custkey", "c_nationkey"]),
        "o_custkey",
        "c_custkey",
        "c_nationkey",
        sums=[("n_orders", "n_orders"), ("cents", "total_cents")],
        out_key="n_name",
        val_map=_small_table_dict(sf_dir, "nation", "n_nationkey", "n_name"),
    )


def region_revenue(sf_dir: str) -> rd.Dataset:
    """(r_name, n_orders, total_cents): orders rolled up to regions
    through customer→nation→region — the multi-hop join plan at scale:
    in-batch fact partials per custkey, ONE :func:`_dim_rollup`
    co-shuffle with the customer dim; the two genuinely-small dims
    (nation 25 rows, region 5 rows) compose into the bucket-local
    ``val_map``."""
    region_name = _small_table_dict(sf_dir, "region", "r_regionkey", "r_name")
    nation_region = {
        nk: region_name.get(rk, "UNKNOWN")
        for nk, rk in _small_table_dict(
            sf_dir, "nation", "n_nationkey", "n_regionkey"
        ).items()
    }
    return _dim_rollup(
        _orders_per_cust(sf_dir),
        _t(sf_dir, "customer", ["c_custkey", "c_nationkey"]),
        "o_custkey",
        "c_custkey",
        "c_nationkey",
        sums=[("n_orders", "n_orders"), ("cents", "total_cents")],
        out_key="r_name",
        val_map=nation_region,
    )


def events_hourly(sf_dir: str) -> rd.Dataset:
    """(event_type, hour_start, n, total_cents, min_cents, max_cents):
    tumbling 1-hour windowed aggregate over the events stream table —
    the window key is computed per batch (no per-row python), then one
    grouped aggregate."""

    def window_key(batch: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(batch.column("ts"), unit="hour")
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("value"), 100.0)), pa.int64()
        )
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "hour_start": hour,
                "cents": cents,
            }
        )

    def widen_key(batch: pa.Table) -> pa.Table:
        # Ray's grouped aggregate narrows the timestamp key to [s];
        # restore microseconds so the dtype matches the SQL oracle's
        # TIMESTAMP exactly
        i = batch.schema.get_field_index("hour_start")
        return batch.set_column(
            i, "hour_start", batch.column("hour_start").cast(pa.timestamp("us"))
        )

    return (
        _t(sf_dir, "events", ["ts", "event_type", "value"])
        .map_batches(window_key, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["event_type", "hour_start"])
        .aggregate(
            Count(alias_name="n"),
            Sum("cents", alias_name="total_cents"),
            Min("cents", alias_name="min_cents"),
            Max("cents", alias_name="max_cents"),
        )
        .map_batches(widen_key, batch_format="pyarrow", zero_copy_batch=True)
    )


def orders_filtered(sf_dir: str, min_price: float = 150_000.0) -> rd.Dataset:
    """(o_orderpriority, n): big-order count per priority with the
    predicate pushed into the parquet read (row-group pruning + filter at
    the scan — "prune at the read"; only two columns leave storage)."""
    ds = read_parquet_clean(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderpriority", "o_totalprice"],
        filter=(pc.field("o_totalprice") > min_price),
    )

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.select(["o_orderpriority"]).group_by("o_orderpriority").aggregate(
            [([], "count_all")]
        )
        return pa.table(
            {
                "o_orderpriority": g.column("o_orderpriority"),
                "n": pc.cast(g.column("count_all"), pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("o_orderpriority")
        .aggregate(Sum("n", alias_name="n"))
    )


def sessionize_events(sf_dir: str, gap_minutes: int = 30) -> rd.Dataset:
    """(user_id, n_sessions, n_events): session windows per user.  One
    user-keyed :func:`co_group` so one Python group call handles
    thousands of users — inside, a vectorized sort + diff-over-boundaries
    computes every user's session count at once.  Partitioning
    assumption: one user's events fit in one group (true for user-keyed
    event data)."""
    import pandas as pd

    gap = np.timedelta64(gap_minutes * 60, "s")

    def sessions(ev: pd.DataFrame) -> pd.DataFrame:
        df = ev.sort_values(["user_id", "ts"])
        users = df["user_id"].to_numpy()
        ts = df["ts"].to_numpy()
        same_user = users[1:] == users[:-1]
        breaks = same_user & (np.diff(ts) > gap)
        # per-user: n_events by run length, n_sessions = 1 + breaks
        uniq, starts, counts = np.unique(users, return_index=True, return_counts=True)
        n_breaks = np.zeros(len(uniq), np.int64)
        if len(breaks):
            idx = np.searchsorted(starts, np.nonzero(breaks)[0], side="right") - 1
            np.add.at(n_breaks, idx, 1)
        return pd.DataFrame(
            {
                "user_id": uniq.astype(np.int64),
                "n_sessions": n_breaks + 1,
                "n_events": counts.astype(np.int64),
            }
        )

    return co_group(sessions, ev=(_t(sf_dir, "events", ["user_id", "ts"]), "user_id"))


def events_hourly_delta(sf_dir: str) -> rd.Dataset:
    """(event_type, hour_us, n, delta_n): hour-over-hour change of the
    hourly event count — the LAG window over the rollup (delta vs the
    previous OBSERVED hour; the first hour's delta is its own count).
    Hours are int64 epoch-micros so the value hash is dtype-stable.

    Scale shape: the expensive part is the same distributed tumbling
    rollup as events_hourly (types × hours rows, tiny relative to the
    stream); the LAG itself is one type-keyed co-shuffle of the rollup
    with a vectorized sorted diff per group.  Partitioning assumption:
    one event type's hour rollup fits in a group (hours grow with time,
    not data rate)."""
    import pandas as pd

    hour_col = "hour_us"

    def window_key(batch: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(batch.column("ts"), unit="hour")
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                hour_col: hour.cast(pa.int64()),
            }
        )

    def lag(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(hour_col)
        n = g["n"].to_numpy()
        prev = np.concatenate([np.zeros(1, n.dtype), n[:-1]])
        return pd.DataFrame(
            {
                "event_type": g["event_type"].to_numpy(),
                hour_col: g[hour_col].to_numpy().astype(np.int64),
                "n": n.astype(np.int64),
                "delta_n": (n - prev).astype(np.int64),
            }
        )

    return (
        _t(sf_dir, "events", ["ts", "event_type"])
        .map_batches(window_key, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["event_type", hour_col])
        .aggregate(Count(alias_name="n"))
        .groupby("event_type")
        .map_groups(arrow_udf(lag), batch_format="pandas")
    )


def cohort_retention(sf_dir: str) -> rd.Dataset:
    """(cohort_day, offset_day, n_users): classic cohort-retention
    matrix — users grouped by their first-activity day (epoch-day of
    the earliest event), each cell counting DISTINCT users from that
    cohort active again ``offset_day`` days later.

    Scale shape: one narrow (user_id, day) user-keyed :func:`co_group`
    — a user's full history lands in one group, so the group computes
    the user's cohort AND its distinct (cohort, offset) cells locally;
    per-group partial cell counts are exact because users never
    straddle groups, and the final cell-sum exchange carries at most
    days² tiny rows.  The ts column is reduced to an int64 epoch day
    inside the first map — timestamps never shuffle."""
    import pandas as pd

    day_us = 86_400_000_000

    def narrow(batch: pa.Table) -> pa.Table:
        u = batch.column("user_id").to_numpy(zero_copy_only=False)
        ts = batch.column("ts").to_numpy(zero_copy_only=False)
        day = ts.astype("datetime64[us]").astype(np.int64) // day_us
        df = pd.DataFrame({"user_id": u, "day": day}).drop_duplicates()
        return pa.table(
            {
                "user_id": pa.array(df["user_id"].to_numpy().astype(np.int64)),
                "day": pa.array(df["day"].to_numpy().astype(np.int64)),
            }
        )

    def cells(days: pd.DataFrame) -> pd.DataFrame:
        df = days.drop_duplicates(["user_id", "day"])
        cohort = df.groupby("user_id")["day"].transform("min")
        # rows are already one-per-(cell, user): df is distinct on
        # (user_id, day) and cohort/offset are functions of those
        out = (
            pd.DataFrame(
                {
                    "cohort_day": cohort.to_numpy(),
                    "offset_day": df["day"].to_numpy() - cohort.to_numpy(),
                }
            )
            .groupby(["cohort_day", "offset_day"])
            .size()
            .reset_index(name="n")
        )
        return out.astype(np.int64)

    days = _t(sf_dir, "events", ["user_id", "ts"]).map_batches(
        narrow, batch_format="pyarrow", zero_copy_batch=True
    )
    return (
        co_group(cells, days=(days, "user_id"))
        .groupby(["cohort_day", "offset_day"])
        .aggregate(Sum("n", alias_name="n_users"))
    )


def error_attribution(sf_dir: str) -> rd.Dataset:
    """(event_id, gap_micros): for every 'error' event, the time since
    the same user's latest preceding non-error event (backward as-of
    join; errors with no preceding activity are dropped).  The as-of
    operator itself is pipelines/join.py::asof_attach — one co-shuffle
    on hash(user) and a vectorized merge_asof per bucket.  Oracle:
    DuckDB's native ASOF JOIN."""
    from .join import asof_attach

    ev = _t(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])

    def split(want_error: bool):
        def f(batch: pa.Table) -> pa.Table:
            mask = pc.equal(batch.column("event_type"), "error")
            if not want_error:
                mask = pc.invert(mask)
            t = batch.filter(mask)
            return t.select(
                ["event_id", "user_id", "ts"] if want_error else ["user_id", "ts"]
            )

        return f

    left = ev.map_batches(split(True), batch_format="pyarrow", zero_copy_batch=True)
    right = ev.map_batches(split(False), batch_format="pyarrow", zero_copy_batch=True)
    joined = asof_attach(left, right, key_col="user_id", ts_col="ts")

    def gap(batch: pa.Table) -> pa.Table:
        d = pc.subtract(batch.column("ts"), batch.column("match_ts"))
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "gap_micros": pc.cast(
                    pc.cast(d, pa.duration("us")), pa.int64()
                ),
            }
        )

    return joined.map_batches(gap, batch_format="pyarrow", zero_copy_batch=True)


def event_quantiles(sf_dir: str) -> rd.Dataset:
    """(event_type, p50_cents, p95_cents): exact discrete quantiles of
    the event value per type.

    Scale shape: values are integer cents, so the op is a HISTOGRAM
    aggregate — per-batch (type, cents, n) partial counts, one groupby
    sum over the (small) distinct-value domain, then the quantile is
    read off the sorted cumulative counts per type.  The shuffle carries
    distinct (type, cents) partials, never the raw rows; exactness costs
    nothing because the domain is bounded (vs a t-digest sketch for
    unbounded floats).  Quantile index = ceil(q*n)-1, matching DuckDB's
    quantile_disc."""
    import math

    import pandas as pd

    def partials(batch: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("value"), 100.0)), pa.int64()
        )
        df = pd.DataFrame(
            {
                "event_type": batch.column("event_type").to_pandas(),
                "cents": cents.to_pandas(),
            }
        )
        g = df.groupby(["event_type", "cents"], sort=False).size().reset_index(name="n")
        return pa.table(
            {
                "event_type": pa.array(g["event_type"], pa.string()),
                "cents": pa.array(g["cents"], pa.int64()),
                "n": pa.array(g["n"], pa.int64()),
            }
        )

    def quantiles(g) -> "pd.DataFrame":
        g = g.sort_values("cents")
        cum = g["n"].to_numpy().cumsum()
        total = int(cum[-1])
        vals = g["cents"].to_numpy()

        def pick(q: float) -> int:
            rank = max(1, math.ceil(q * total))  # 1-based rank, disc
            return int(vals[np.searchsorted(cum, rank, side="left")])

        return pd.DataFrame(
            {
                "event_type": [g["event_type"].iloc[0]],
                "p50_cents": [pick(0.5)],
                "p95_cents": [pick(0.95)],
            }
        )

    return (
        _t(sf_dir, "events", ["event_type", "value"])
        .map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["event_type", "cents"])
        .aggregate(Sum("n", alias_name="n"))
        .groupby("event_type")
        .map_groups(arrow_udf(quantiles), batch_format="pandas")
    )


def top_orders_per_nation(sf_dir: str, k: int = 3) -> rd.Dataset:
    """(n_name, o_orderkey, price_cents, rnk): the k most expensive
    orders per nation with their rank — the windowed-rank op (SQL
    ROW_NUMBER() OVER (PARTITION BY ... ORDER BY ...)).

    Scale shape: after the distributed customer join, each batch keeps
    only its LOCAL top-k per nation (<= k x 25 rows per batch), so the
    final per-nation groupby sees k x batches candidates, not the fact
    table.  Ties break on o_orderkey for determinism."""
    import pandas as pd

    from .join import attach_dim, broadcast_lookup

    def to_cents(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": batch.column("o_orderkey"),
                "o_custkey": batch.column("o_custkey"),
                "price_cents": pc.cast(
                    pc.round(pc.multiply(batch.column("o_totalprice"), 100.0)),
                    pa.int64(),
                ),
            }
        )

    orders = _t(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"]
    ).map_batches(to_cents, batch_format="pyarrow", zero_copy_batch=True)
    joined = attach_dim(
        orders,
        _t(sf_dir, "customer", ["c_custkey", "c_nationkey"]),
        "o_custkey",
        "c_custkey",
        ["c_nationkey"],
    )

    def local_topk(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df.sort_values(
            ["c_nationkey", "price_cents", "o_orderkey"],
            ascending=[True, False, True],
        )
        return pa.Table.from_pandas(
            df.groupby("c_nationkey", sort=False).head(k), preserve_index=False
        )

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["price_cents", "o_orderkey"], ascending=[False, True]).head(k)
        g = g.reset_index(drop=True)
        g["rnk"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g[["c_nationkey", "o_orderkey", "price_cents", "rnk"]]

    nation_name = _small_table_dict(sf_dir, "nation", "n_nationkey", "n_name")
    ranked = (
        joined.map_batches(local_topk, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("c_nationkey")
        .map_groups(arrow_udf(final_topk), batch_format="pandas")
    )
    named = broadcast_lookup(ranked, nation_name, "c_nationkey", "n_name", "UNKNOWN")
    return named.select_columns(["n_name", "o_orderkey", "price_cents", "rnk"])


def events_sliding(sf_dir: str, window_min: int = 60, slide_min: int = 15) -> rd.Dataset:
    """(event_type, window_start, n, total_cents): 1-hour windows
    sliding every 15 min — each event lands in window_min/slide_min
    windows, emitted per batch (vectorized repeat) before one grouped
    aggregate.  The exchange carries (type, window) partials; the
    fan-out factor (4 here) is the only data growth."""
    k = window_min // slide_min
    slide_us = slide_min * 60 * 1_000_000

    def expand(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("value"), 100.0)), pa.int64()
        ).to_numpy(zero_copy_only=False)
        etype = batch.column("event_type").to_numpy(zero_copy_only=False)
        # windows containing ts: starts floor(ts/slide)-i for i in 0..k-1
        base = (ts // slide_us) * slide_us
        starts = np.concatenate([base - i * slide_us for i in range(k)])
        return pa.table(
            {
                "event_type": pa.array(np.tile(etype, k)),
                "window_start": pa.array(starts).cast(pa.timestamp("us")),
                "cents": pa.array(np.tile(cents, k), pa.int64()),
            }
        )

    def widen_key(batch: pa.Table) -> pa.Table:
        # same dtype fix as events_hourly: the grouped aggregate narrows
        # the timestamp key; restore [us] to match the oracle TIMESTAMP
        i = batch.schema.get_field_index("window_start")
        return batch.set_column(
            i, "window_start", batch.column("window_start").cast(pa.timestamp("us"))
        )

    return (
        _t(sf_dir, "events", ["event_type", "ts", "value"])
        .map_batches(expand, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["event_type", "window_start"])
        .aggregate(Count(alias_name="n"), Sum("cents", alias_name="total_cents"))
        .map_batches(widen_key, batch_format="pyarrow", zero_copy_batch=True)
    )


def distinct_users_per_type(sf_dir: str) -> rd.Dataset:
    """(event_type, n_users): EXACT distinct-user count per event type —
    the two-phase shape: per-batch local dedup of (type, user) pairs
    (the partial), one groupby over the deduped pairs, then a count per
    type.  The shuffle carries distinct pairs, not events; for
    cardinalities too large even deduped, swap the exact phase for an
    HLL sketch in the same partial/combine shape."""
    import pandas as pd

    def local_pairs(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "event_type": batch.column("event_type").to_pandas(),
                "user_id": batch.column("user_id").to_pandas(),
            }
        ).drop_duplicates()
        return pa.table(
            {
                "event_type": pa.array(df["event_type"], pa.string()),
                "user_id": pa.array(df["user_id"], pa.int64()),
            }
        )

    # first groupby dedups pairs globally (Count aggregate unused — the
    # group key IS the distinct pair); second counts pairs per type
    pairs = (
        _t(sf_dir, "events", ["event_type", "user_id"])
        .map_batches(local_pairs, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["event_type", "user_id"])
        .aggregate(Count(alias_name="dummy"))
        .drop_columns(["dummy"])
    )
    return pairs.groupby("event_type").aggregate(Count(alias_name="n_users"))


def range_join_events(sf_dir: str, window_s: int = 600) -> rd.Dataset:
    """(window_id, n_events, sum_cents): distributed RANGE JOIN — every
    'error' event opens an incident window ``[ts, ts+window_s)``; each
    window joins, by interval containment (a non-equi predicate no hash
    join expresses), every event whose timestamp falls inside it.

    Partitioning assumption: both sides :func:`co_group` on the time
    bucket ``ts // window_s``, and a window spans AT MOST TWO time
    buckets because the bucket width equals the window length — each
    window row is emitted to both, partials sum exactly (a point
    belongs to exactly one time bucket).  The per-bucket kernel is
    sort + ``searchsorted`` + prefix sums, each window row clipped to
    its own time bucket: O((P+W)·log P) with NO pairwise blowup, so a
    boilerplate-dense bucket costs log, not quadratic, work.  Value
    sums ride as integer cents (events_hourly's convention) so partial
    order can't shift the hash.  Wider-than-bucket windows would need
    the interval fanned to ceil(len/width)+1 time buckets — the
    emission is the only line that changes."""
    import pandas as pd

    w_us = window_s * 1_000_000

    def point_rows(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "tb": pa.array(ts // w_us),
                "ts": pa.array(ts),
                "cents": _cents(batch.column("value")),
            }
        )

    def window_rows(batch: pa.Table) -> pa.Table:
        sel = batch.filter(pc.equal(batch.column("event_type"), "error"))
        ts = pc.cast(sel.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
        wid = sel.column("event_id").to_numpy(zero_copy_only=False)
        # both overlapped time buckets; dedup when the window fits in
        # one is unnecessary (the second copy just matches zero points)
        tb0 = ts // w_us
        return pa.table(
            {
                "tb": pa.array(np.concatenate([tb0, tb0 + 1])),
                "ts": pa.array(np.concatenate([ts, ts])),
                "window_id": pa.array(np.concatenate([wid, wid]), pa.int64()),
            }
        )

    def join_bucket(points: pd.DataFrame, windows: pd.DataFrame) -> pd.DataFrame:
        if points.empty or windows.empty:
            return pd.DataFrame()
        # ts order is time-bucket order, so one sorted run serves every
        # time bucket of this coarse bucket
        order = np.argsort(points["ts"].to_numpy(), kind="stable")
        ts_s = points["ts"].to_numpy()[order]
        cum = np.concatenate([[0], np.cumsum(points["cents"].to_numpy()[order])])
        t0 = windows["ts"].to_numpy()
        tb = windows["tb"].to_numpy()
        lo = np.searchsorted(ts_s, np.maximum(t0, tb * w_us), side="left")
        hi = np.searchsorted(ts_s, np.minimum(t0 + w_us, (tb + 1) * w_us), side="left")
        return pd.DataFrame(
            {
                "window_id": windows["window_id"].to_numpy(np.int64),
                "n_events": (hi - lo).astype(np.int64),
                "sum_cents": (cum[hi] - cum[lo]).astype(np.int64),
            }
        )

    def final_sum(parts: pd.DataFrame) -> pd.DataFrame:
        return parts.groupby("window_id", as_index=False).sum().astype(np.int64)

    ev = _t(sf_dir, "events", ["event_id", "ts", "event_type", "value"])
    partials = co_group(
        join_bucket,
        points=(
            ev.map_batches(point_rows, batch_format="pyarrow", zero_copy_batch=True),
            "tb",
        ),
        windows=(
            ev.map_batches(window_rows, batch_format="pyarrow", zero_copy_batch=True),
            "tb",
        ),
    )
    return co_group(final_sum, parts=(partials, "window_id"))


def _dim_rollup(
    fact: rd.Dataset,
    dim: rd.Dataset,
    key: str,
    dim_key: str,
    dim_val: str,
    sums: "list[tuple[str, str]]",
    out_key: str,
    val_map: dict | None = None,
    val_default="UNKNOWN",
    distinct_alias: str | None = None,
) -> rd.Dataset:
    """Joined rollup in ONE data exchange: fact partial rows
    ``(key, *sum_cols)`` and dim rows ``(dim_key, dim_val)`` meet in one
    :func:`co_group` bucket per key, each bucket merges and collapses
    to ≤|distinct dim_val| partial rows, and a keyless co_group sums
    the ≤ buckets×|vals| leftovers per ``out_key``.  Replaces the
    pre-agg-groupby → attach_dim-sort → global-aggregate plan whose
    THREE AllToAll passes each carried seconds of fixed overhead
    (brand_revenue measured 15.3 s at sf0.1; Ray's AggregateMap alone
    spent ~600 ms/block sorting 1.2k-row string-keyed blocks —
    SCALE.md §aggregate-overhead).

    ``sums`` maps fact columns to output aliases (summed); a key's fact
    rows may arrive as multiple in-batch partials — sums are
    associative, and ``distinct_alias`` (count of distinct fact keys,
    e.g. n_suppliers) stays exact because a key lives wholly in one
    bucket.  ``val_map`` composes a genuinely-tiny second dim (e.g.
    nationkey→region name) inside the bucket, so multi-hop rollups
    still pay one exchange.  Int64 sums stay int64 end to end."""
    import pandas as pd

    sum_cols = [c for c, _ in sums]
    out_aliases = [a for _, a in sums]
    if distinct_alias:
        out_aliases = [distinct_alias, *out_aliases]
    int_cols = {a: np.int64 for a in out_aliases}

    def combine(fact: pd.DataFrame, dim: pd.DataFrame) -> pd.DataFrame:
        if fact.empty or dim.empty:
            return pd.DataFrame()
        m = fact.merge(dim, left_on=key, right_on=dim_key)
        v = m[dim_val]
        if val_map is not None:
            v = v.map(val_map).fillna(val_default)
        grp = m.groupby(v.rename(out_key), sort=False)
        agg = grp[sum_cols].sum().rename(columns=dict(sums))
        if distinct_alias:
            agg[distinct_alias] = grp[key].nunique()
        return agg.reset_index()[[out_key, *out_aliases]].astype(int_cols)

    def final(parts: pd.DataFrame) -> pd.DataFrame:
        out = parts.groupby(out_key, as_index=False, sort=False)[out_aliases].sum()
        return out.astype(int_cols)

    parts = co_group(combine, fact=(fact, key), dim=(dim, dim_key))
    return co_group(final, parts=(parts, None))


def _lineitem_revenue_partials(sf_dir: str, key: str) -> rd.Dataset:
    """In-batch partials of discounted lineitem revenue per ``key``
    (l_partkey / l_suppkey), :func:`_rev_cc` units.  No global groupby
    here: consumers co-shuffle the partials once in
    :func:`_dim_rollup`, which tolerates multiple partial rows per key."""

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({key: batch.column(key), "rev_cc": _rev_cc(batch)})
        g = t.group_by([key]).aggregate(
            [("rev_cc", "sum"), ("rev_cc", "count")]
        )
        return pa.table(
            {
                key: g.column(key),
                "rev_cc": g.column("rev_cc_sum"),
                "n": pc.cast(g.column("rev_cc_count"), pa.int64()),
            }
        )

    return _t(sf_dir, "lineitem", [key, "l_extendedprice", "l_discount"]).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    )


def brand_revenue(sf_dir: str) -> rd.Dataset:
    """(p_brand, n_items, revenue_cc): TPC-H Q14-shaped lineitem→part
    rollup.  In-batch revenue partials per partkey, then — because
    ``part`` SCALES with the data (10^8 rows at 100 TB, never a
    broadcast dict) — ONE :func:`_dim_rollup` co-shuffle on
    partkey merges brands in-bucket and collapses straight to the
    25-brand result."""
    return _dim_rollup(
        _lineitem_revenue_partials(sf_dir, "l_partkey"),
        _t(sf_dir, "part", ["p_partkey", "p_brand"]),
        "l_partkey",
        "p_partkey",
        "p_brand",
        sums=[("n", "n_items"), ("rev_cc", "revenue_cc")],
        out_key="p_brand",
    )


def supplier_value_by_nation(sf_dir: str) -> rd.Dataset:
    """(n_name, n_suppliers, value_cc): TPC-H Q11-shaped supplier value
    rollup — in-batch lineitem revenue partials per suppkey, supplier's
    nation attached via ONE :func:`_dim_rollup` co-shuffle (supplier
    scales with the data), the 25-row nation table composed in as the
    bucket-local ``val_map``.  ``n_suppliers`` is the distinct-suppkey
    count (exact: a suppkey lives wholly in one bucket); suppliers with
    no lineitems drop (inner join), mirroring the SQL oracle."""
    return _dim_rollup(
        _lineitem_revenue_partials(sf_dir, "l_suppkey"),
        _t(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]),
        "l_suppkey",
        "s_suppkey",
        "s_nationkey",
        sums=[("rev_cc", "value_cc")],
        out_key="n_name",
        val_map=_small_table_dict(sf_dir, "nation", "n_nationkey", "n_name"),
        distinct_alias="n_suppliers",
    )


def copartitioned_order_customer(sf_dir: str) -> rd.Dataset:
    """(o_orderkey, c_custkey, c_mktsegment, total_cents): every order
    enriched with its customer's market segment via a SHUFFLE-FREE
    co-partitioned join — both tables are pre-bucketed on the customer
    key into a sort-merge-bucket layout (``join.build_bucketed``, a
    one-time amortized pass) and the query merges each ``bucket=N``
    directory pair locally (``join.smb_join``).  The scale story: at
    100 TB a fact/dim join whose layout can be chosen ahead of time
    should pay the exchange once at ingest, not per query — contrast
    with :func:`orders_by_nation`, which co-shuffles per query."""
    from .join import _SMB_BUCKETS, _SMB_VERSION, build_bucketed, smb_join

    tag = os.path.basename(os.path.normpath(sf_dir)) or "sf"
    root = os.path.join("/tmp/pdf_parser_ray_index", tag)
    os.makedirs(root, exist_ok=True)
    odir = build_bucketed(
        os.path.join(sf_dir, "orders.parquet"),
        "o_custkey",
        ["o_orderkey", "o_custkey", "o_totalprice"],
        os.path.join(root, f"smb_v{_SMB_VERSION}_orders_b{_SMB_BUCKETS}"),
    )
    cdir = build_bucketed(
        os.path.join(sf_dir, "customer.parquet"),
        "c_custkey",
        ["c_custkey", "c_mktsegment"],
        os.path.join(root, f"smb_v{_SMB_VERSION}_customer_b{_SMB_BUCKETS}"),
    )
    joined = smb_join(odir, cdir, "o_custkey", "c_custkey", _smb_oc_schema())

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": pc.cast(batch.column("o_orderkey"), pa.int64()),
                "c_custkey": pc.cast(batch.column("c_custkey"), pa.int64()),
                "c_mktsegment": batch.column("c_mktsegment"),
                "total_cents": pc.cast(
                    pc.round(pc.multiply(batch.column("o_totalprice"), 100.0)),
                    pa.int64(),
                ),
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def _smb_oc_schema() -> pa.Schema:
    """Raw merge schema of the bucketed orders x customer join (cents
    conversion happens after the merge so the bucketed layout stores
    the source column unchanged and stays reusable by other queries)."""
    return pa.schema(
        [
            ("o_orderkey", pa.int64()),
            ("o_custkey", pa.int64()),
            ("o_totalprice", pa.float64()),
            ("c_custkey", pa.int64()),
            ("c_mktsegment", pa.string()),
        ]
    )


# -- incremental materialized rollup -----------------------------------------

_MV_VERSION = 1
MV_DELTA_MOD = 8  # event_id % 8 == 0 is the late-arriving delta shard


def _shard_filter(delta: bool):
    """Vectorized base/delta shard mask (Ray's filter expr has no
    modulo support)."""

    def f(batch: pa.Table) -> pa.Table:
        ids = batch.column("event_id").to_numpy(zero_copy_only=False)
        m = (ids % MV_DELTA_MOD == 0) if delta else (ids % MV_DELTA_MOD != 0)
        return batch.filter(pa.array(m))

    return f


def _hourly_rollup(ds: rd.Dataset) -> rd.Dataset:
    """The shared hourly-rollup shape of :func:`events_hourly`, applied
    to an arbitrary events dataset (base or delta)."""

    def window_key(batch: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(batch.column("ts"), unit="hour")
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("value"), 100.0)), pa.int64()
        )
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "hour_start": hour,
                "cents": cents,
            }
        )

    return (
        ds.map_batches(window_key, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["event_type", "hour_start"])
        .aggregate(
            Count(alias_name="n"),
            Sum("cents", alias_name="total_cents"),
            Min("cents", alias_name="min_cents"),
            Max("cents", alias_name="max_cents"),
        )
    )


def _widen_hour(batch: pa.Table) -> pa.Table:
    i = batch.schema.get_field_index("hour_start")
    return batch.set_column(
        i, "hour_start", batch.column("hour_start").cast(pa.timestamp("us"))
    )


def build_events_rollup(sf_dir: str, out_dir: str) -> str:
    """'Yesterday's materialized view' stand-in: the hourly rollup of
    the BASE events shard (event_id % MV_DELTA_MOD != 0), written once
    to partitioned parquet.  Idempotent via _DONE, crash-safe via the
    tmp sweep — the same build discipline as the IVF/SMB indexes."""
    import shutil

    done = os.path.join(out_dir, "_DONE")
    if os.path.exists(done):
        return out_dir
    shutil.rmtree(out_dir + ".tmp", ignore_errors=True)
    shutil.rmtree(out_dir, ignore_errors=True)
    base = _t(sf_dir, "events", ["event_id", "ts", "event_type", "value"]).map_batches(
        _shard_filter(False), batch_format="pyarrow", zero_copy_batch=True
    )
    tmp = out_dir + ".tmp"
    _hourly_rollup(base).map_batches(
        _widen_hour, batch_format="pyarrow", zero_copy_batch=True
    ).write_parquet(tmp)
    os.replace(tmp, out_dir)
    with open(done, "w") as f:
        f.write("ok")
    return out_dir


def incremental_events_hourly(sf_dir: str) -> rd.Dataset:
    """(event_type, hour_start, n, total_cents, min_cents, max_cents):
    the events_hourly rollup maintained INCREMENTALLY — read the cached
    base rollup parquet (never the base events), aggregate only the
    late-arriving delta shard, and merge the two rollups with the
    mergeable forms of each aggregate (sum-of-n, sum, min, max).

    The 100-TB story: appending a day to a year-long materialized view
    costs O(delta + rollup), not O(history) — the historical events are
    not re-read (pinned by the tamper test: edits to the cached rollup
    flow straight into the output).  The oracle is the full recompute
    over ALL events, proving merge == recompute."""
    tag = os.path.basename(os.path.normpath(sf_dir)) or "sf"
    out_dir = os.path.join(
        "/tmp/pdf_parser_ray_index", tag, f"mv_v{_MV_VERSION}_events_hourly"
    )
    os.makedirs(os.path.dirname(out_dir), exist_ok=True)
    build_events_rollup(sf_dir, out_dir)

    base = read_parquet_clean(out_dir)

    def delta_partials(batch: pa.Table) -> pa.Table:
        # in-batch Arrow hash aggregate (the lineitem_agg partial
        # pattern): the query pays ONE merge exchange total — the
        # base rollup rows and the delta's per-batch partial rows go
        # straight into the same mergeable groupby (a separate global
        # delta aggregate measured ~2 s of fixed AllToAll overhead)
        ids = batch.column("event_id").to_numpy(zero_copy_only=False)
        batch = batch.filter(pa.array(ids % MV_DELTA_MOD == 0))
        t = pa.table(
            {
                "event_type": batch.column("event_type"),
                "hour_start": pc.cast(
                    pc.floor_temporal(batch.column("ts"), unit="hour"),
                    pa.timestamp("us"),
                ),
                "cents": pc.cast(
                    pc.round(pc.multiply(batch.column("value"), 100.0)),
                    pa.int64(),
                ),
            }
        )
        g = t.group_by(["event_type", "hour_start"]).aggregate(
            [
                ("cents", "count"),
                ("cents", "sum"),
                ("cents", "min"),
                ("cents", "max"),
            ]
        )
        return pa.table(
            {
                "event_type": g.column("event_type"),
                "hour_start": g.column("hour_start"),
                "n": pc.cast(g.column("cents_count"), pa.int64()),
                "total_cents": g.column("cents_sum"),
                "min_cents": g.column("cents_min"),
                "max_cents": g.column("cents_max"),
            }
        )

    delta = _t(
        sf_dir, "events", ["event_id", "ts", "event_type", "value"]
    ).map_batches(delta_partials, batch_format="pyarrow", zero_copy_batch=True)
    return (
        base.union(delta)
        .groupby(["event_type", "hour_start"])
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("total_cents", alias_name="total_cents"),
            Min("min_cents", alias_name="min_cents"),
            Max("max_cents", alias_name="max_cents"),
        )
        .map_batches(_widen_hour, batch_format="pyarrow", zero_copy_batch=True)
    )


def _event_cents(sf_dir: str) -> rd.Dataset:
    """Events as narrow (event_id, user_id, ts, cents) rows — the value
    column as integer cents — for the per-user ordered-series
    operators."""

    def to_cents(batch: pa.Table) -> pa.Table:
        cents = _cents(batch.column("value"))
        return batch.drop_columns(["value"]).append_column("cents", cents)

    return _t(sf_dir, "events", ["event_id", "user_id", "ts", "value"]).map_batches(
        to_cents, batch_format="pyarrow", zero_copy_batch=True
    )


def user_running_totals(sf_dir: str) -> rd.Dataset:
    """(event_id, user_id, run_n, run_cents): per-user RUNNING count and
    cumulative value over the event stream ordered by (ts, event_id) —
    the unbounded-preceding window aggregate (the tumbling/sliding
    windows above report per-window rows; this one carries state down
    an ordered partition).

    Scale shape: one user-keyed :func:`co_group` (the sessionize
    pattern), then a vectorized pandas sort + grouped cumsum inside
    each group handles thousands of users at once.  Partitioning
    assumption: one user's events fit in a group."""
    import pandas as pd

    def running(ev: pd.DataFrame) -> pd.DataFrame:
        df = ev.sort_values(["user_id", "ts", "event_id"])
        grp = df.groupby("user_id", sort=False)
        return pd.DataFrame(
            {
                "event_id": df["event_id"].to_numpy(),
                "user_id": df["user_id"].to_numpy(),
                "run_n": grp.cumcount().to_numpy().astype(np.int64) + 1,
                "run_cents": grp["cents"].cumsum().to_numpy().astype(np.int64),
            }
        )

    return co_group(running, ev=(_event_cents(sf_dir), "user_id"))


# -- sequential conversion funnel over the event stream ----------------------

#: funnel steps, in order; each later step must occur strictly after the
#: user's first qualifying occurrence of the previous step
FUNNEL_STEPS = ("view", "click", "purchase")
#: max minutes between consecutive steps for a conversion to count
FUNNEL_WINDOW_MIN = 480


def event_funnel(
    sf_dir: str, window_min: int = FUNNEL_WINDOW_MIN
) -> rd.Dataset:
    """(step_idx, step, n_users): sequential conversion funnel — how
    many users have a 'view', then a 'click' strictly after their first
    view and within ``window_min`` minutes of it, then a 'purchase'
    within the same window of that first qualifying click.  Each step
    anchors on the MIN qualifying timestamp (first-touch attribution).

    Scale shape: one narrow pass drops non-step events and widens ts to
    int64 micros in-batch; ONE user-keyed :func:`co_group` colocates
    each user's step events, and the per-bucket pandas cascade (three
    merge+filter+groupby-min hops over only that bucket's users) emits
    3 partial count rows per bucket; a 3-key combine folds them.
    Nothing corpus-sized reaches the driver; the window cascade never
    materializes per-user state outside its bucket."""
    import numpy as np
    import pandas as pd

    from .io_util import arrow_udf

    win_us = window_min * 60_000_000
    step_of = {s: i for i, s in enumerate(FUNNEL_STEPS)}

    def narrow(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(
            batch.column("event_type"),
            value_set=pa.array(FUNNEL_STEPS, pa.string()),
        )
        t = batch.filter(mask)
        si = np.array(
            [step_of[s] for s in t.column("event_type").to_pylist()], np.int8
        )
        return pa.table(
            {
                "user_id": t.column("user_id"),
                "si": pa.array(si),
                "tm": pc.cast(t.column("ts"), pa.int64()),
            }
        )

    def cascade(steps: pd.DataFrame) -> pd.DataFrame:
        t_prev = steps.loc[steps["si"] == 0].groupby("user_id")["tm"].min()
        counts = [len(t_prev)]
        for si in range(1, len(FUNNEL_STEPS)):
            e = steps.loc[steps["si"] == si].merge(
                t_prev.rename("tp"), left_on="user_id", right_index=True
            )
            # an empty merge names the output index 'user_id', making
            # the next groupby ambiguous — drop it unconditionally
            e = e.reset_index(drop=True)
            e = e[(e["tm"] > e["tp"]) & (e["tm"] <= e["tp"] + win_us)]
            t_prev = e.groupby("user_id")["tm"].min()
            counts.append(len(t_prev))
        return pd.DataFrame(
            {
                "step_idx": np.arange(1, len(FUNNEL_STEPS) + 1, dtype=np.int64),
                "n": np.asarray(counts, np.int64),
            }
        )

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        idx = int(g["step_idx"].iloc[0])
        return pd.DataFrame(
            {
                "step_idx": np.array([idx], np.int64),
                "step": [FUNNEL_STEPS[idx - 1]],
                "n_users": np.array([g["n"].sum()], np.int64),
            }
        )

    steps = _t(sf_dir, "events", ["user_id", "ts", "event_type"]).map_batches(
        narrow, batch_format="pyarrow", zero_copy_batch=True
    )
    return (
        co_group(cascade, steps=(steps, "user_id"))
        .groupby("step_idx")
        .map_groups(arrow_udf(combine), batch_format="pandas")
    )


# -- anti-join: high-balance customers with no urgent order -------------------

#: the order priority whose ABSENCE marks a customer as an opportunity
OPPORTUNITY_PRIORITY = "1-URGENT"


def sales_opportunity(sf_dir: str) -> rd.Dataset:
    """(c_mktsegment, n_customers, sum_acctbal_cents): TPC-H Q22-shaped
    'sales opportunity' rollup — customers whose account balance is
    strictly above the mean positive balance (scalar subquery) and who
    have placed NO urgent-priority order (anti-join / NOT EXISTS),
    grouped by market segment.  The mean comparison is exact integer
    cross-multiplication (cents·n_pos > sum_pos_cents) — no float mean
    on either side.

    Scale shape: pass 1 folds per-batch (sum, count) positive-balance
    partials (driver state: two ints).  Pass 2 is ONE custkey
    :func:`co_group`: threshold-surviving customer rows and
    per-batch-distinct urgent-order custkeys land in the same bucket,
    the bucket's vectorized isin drops blocked customers, and partial
    segment rollups (≤ buckets·segments narrow rows) fold in a final
    segment-keyed combine.  The anti-join side never becomes a
    broadcast set — urgent keys stay bucket-local."""
    import pandas as pd

    def pos_partial(batch: pa.Table) -> pa.Table:
        cents = _cents(batch.column("c_acctbal")).to_numpy(zero_copy_only=False)
        pos = cents[cents > 0]
        return pa.table(
            {
                "s": pa.array([int(pos.sum())], pa.int64()),
                "n": pa.array([len(pos)], pa.int64()),
            }
        )

    parts = (
        _t(sf_dir, "customer", ["c_acctbal"])
        .map_batches(pos_partial, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
    )
    sum_pos, n_pos = int(parts["s"].sum()), int(parts["n"].sum())

    def cust_rows(batch: pa.Table) -> pa.Table:
        cents = _cents(batch.column("c_acctbal"))
        keep = pa.array(cents.to_numpy(zero_copy_only=False) * n_pos > sum_pos)
        return pa.table(
            {
                "c_custkey": batch.column("c_custkey"),
                "c_mktsegment": batch.column("c_mktsegment"),
                "cents": cents,
            }
        ).filter(keep)

    def urgent_keys(batch: pa.Table) -> pa.Table:
        mask = pc.equal(batch.column("o_orderpriority"), OPPORTUNITY_PRIORITY)
        return pa.table(
            {"o_custkey": pc.unique(batch.filter(mask).column("o_custkey"))}
        )

    def antijoin(cust: pd.DataFrame, urgent: pd.DataFrame) -> pd.DataFrame:
        if cust.empty:
            return pd.DataFrame()
        if not urgent.empty:
            cust = cust[~cust["c_custkey"].isin(urgent["o_custkey"])]
        return cust.groupby("c_mktsegment", as_index=False).agg(
            n_customers=("c_custkey", "size"), sum_acctbal_cents=("cents", "sum")
        ).astype({"n_customers": np.int64, "sum_acctbal_cents": np.int64})

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "c_mktsegment": [g["c_mktsegment"].iloc[0]],
                "n_customers": np.array([g["n_customers"].sum()], np.int64),
                "sum_acctbal_cents": np.array(
                    [g["sum_acctbal_cents"].sum()], np.int64
                ),
            }
        )

    cust = _t(
        sf_dir, "customer", ["c_custkey", "c_acctbal", "c_mktsegment"]
    ).map_batches(cust_rows, batch_format="pyarrow", zero_copy_batch=True)
    urgent = _t(sf_dir, "orders", ["o_custkey", "o_orderpriority"]).map_batches(
        urgent_keys, batch_format="pyarrow", zero_copy_batch=True
    )
    return (
        co_group(antijoin, cust=(cust, "c_custkey"), urgent=(urgent, "o_custkey"))
        .groupby("c_mktsegment")
        .map_groups(arrow_udf(combine), batch_format="pandas")
    )


# -- per-type hourly anomaly gate (exact integer variance test) ---------------


def hourly_anomalies(sf_dir: str) -> rd.Dataset:
    """(event_type, hour_us, n): hours whose event count sits more than
    two standard deviations from that type's mean hourly count — the
    ops-monitoring op, as an EXACT integer test: with H hours, count
    sum S and square-sum Q, hour x is anomalous iff
    ``(H·x − S)² > 4·(Q·H − S²)`` (the |x−μ|>2σ inequality cleared of
    divisions), so no float mean/stddev exists on either side.  The
    squares are arbitrary-precision Python ints inside the per-type
    combine — immune to the int64 overflow a 100 TB hourly count
    (n·H ≳ 3·10⁹) would hit in a vectorized int64 square.

    Scale shape: per-batch Arrow group_by partials (type, hour, n) —
    the exchange carries hour-cardinality rows, never events; one
    type-keyed ``map_groups`` combines partial hours and applies the
    integer gate.  Per-type state is one row per distinct hour."""
    import numpy as np
    import pandas as pd

    from .io_util import arrow_udf

    def partials(batch: pa.Table) -> pa.Table:
        hour = pc.cast(
            pc.floor_temporal(batch.column("ts"), unit="hour"), pa.int64()
        )
        g = (
            pa.table({"event_type": batch.column("event_type"), "hour_us": hour})
            .group_by(["event_type", "hour_us"])
            .aggregate([("hour_us", "count")])
        )
        return pa.table(
            {
                "event_type": g.column("event_type"),
                "hour_us": g.column("hour_us"),
                "n": pc.cast(g.column("hour_us_count"), pa.int64()),
            }
        )

    def gate(g: pd.DataFrame) -> pd.DataFrame:
        h = g.groupby("hour_us", as_index=False)["n"].sum()
        hh = len(h)
        s = int(h["n"].sum())
        q = sum(int(v) * int(v) for v in h["n"])
        rhs = 4 * (q * hh - s * s)
        keep = [
            (hh * int(v) - s) ** 2 > rhs for v in h["n"]
        ]
        out = h[np.asarray(keep, bool)]
        return pd.DataFrame(
            {
                "event_type": [g["event_type"].iloc[0]] * len(out),
                "hour_us": out["hour_us"].to_numpy(np.int64),
                "n": out["n"].to_numpy(np.int64),
            }
        )

    return (
        _t(sf_dir, "events", ["ts", "event_type"])
        .map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("event_type")
        .map_groups(arrow_udf(gate), batch_format="pandas")
    )


# -- market-basket part affinity (co-ordered part pairs, top-k) ---------------

#: how many top part pairs part_affinity reports
PART_AFFINITY_K = 20


def part_affinity(sf_dir: str, k: int = PART_AFFINITY_K) -> rd.Dataset:
    """(part_a, part_b, n_orders): the ``k`` part pairs most often
    appearing together in one order (market-basket affinity), ties
    broken by (part_a, part_b) ascending — a deterministic total
    order, so the cut is oracle-stable.

    Scale shape: three :func:`co_group` exchanges.  (1) narrow
    (orderkey, partkey) rows group on orderkey so each order's basket
    is group-local; the group dedupes line repeats and self-merges per
    order — pair fan-out is Σ|basket|², bounded by TPC-H's ≤7
    lines/order, never corpus². (2) pair-count partials group on one
    int64 pair key for exact totals, each group keeps only its LOCAL
    top-k (a global top-k row always wins its own group), and (3) a
    keyless combine picks the final k from ≤ 64·k candidates."""
    import numpy as np
    import pandas as pd

    def pair_partials(li: pd.DataFrame) -> pd.DataFrame:
        d = li.drop_duplicates(["l_orderkey", "l_partkey"])
        m = d.merge(d, on="l_orderkey")
        m = m[m["l_partkey_x"] < m["l_partkey_y"]]
        p = m.groupby(["l_partkey_x", "l_partkey_y"], as_index=False).size()
        a = p["l_partkey_x"].to_numpy(np.int64)
        b = p["l_partkey_y"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "pair": a * 1_000_003 + b,
                "part_a": a,
                "part_b": b,
                "n_orders": p["size"].to_numpy(np.int64),
            }
        )

    def local_topk(pairs: pd.DataFrame) -> pd.DataFrame:
        t = pairs.groupby(["part_a", "part_b"], as_index=False)["n_orders"].sum()
        return t.sort_values(
            ["n_orders", "part_a", "part_b"],
            ascending=[False, True, True],
            kind="stable",
        ).head(k)

    def final_topk(top: pd.DataFrame) -> pd.DataFrame:
        t = top.sort_values(
            ["n_orders", "part_a", "part_b"],
            ascending=[False, True, True],
            kind="stable",
        ).head(k)
        out = t[["part_a", "part_b", "n_orders"]].reset_index(drop=True)
        return out.astype(np.int64)

    li = _t(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    pairs = co_group(pair_partials, li=(li, "l_orderkey"))
    top = co_group(local_topk, pairs=(pairs, "pair"))
    return co_group(final_topk, top=(top, None))


# -- large orders (TPC-H Q18 shape: big-basket customers) ----------------------

#: minimum summed lineitem quantity (in cents) for large_orders
LARGE_ORDER_MIN_QTY_CENTS = 25_000


def large_orders(sf_dir: str) -> rd.Dataset:
    """(o_orderkey, c_custkey, c_name, total_cents, sum_qty_cents):
    TPC-H Q18-shaped "large volume customer" query — orders whose
    summed lineitem quantity exceeds :data:`LARGE_ORDER_MIN_QTY_CENTS`
    (quantity in integer cents, same round(×100) discipline as every
    money column), enriched with the ordering customer's name.

    Scale shape: two :func:`co_group` exchanges, no broadcast.  (1)
    in-batch Arrow group_by partials of qty cents per orderkey meet
    order rows on orderkey; the bucket folds partials, applies the
    threshold (survivors are a tiny fraction — Q18 semantics) and
    attaches (custkey, total).  (2) survivors meet customer rows on
    custkey and attach c_name in-bucket.  Both exchanges carry narrow
    rows; the fact table itself never shuffles (per-batch partials
    bound pass-1 traffic by orderkey-cardinality × blocks)."""
    import pandas as pd

    def li_partials(batch: pa.Table) -> pa.Table:
        g = (
            pa.table(
                {
                    "l_orderkey": batch.column("l_orderkey"),
                    "q": _cents(batch.column("l_quantity")),
                }
            )
            .group_by(["l_orderkey"])
            .aggregate([("q", "sum")])
        )
        return g.rename_columns(["l_orderkey", "sum_qty_cents"])

    def order_rows(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": batch.column("o_orderkey"),
                "c_custkey": batch.column("o_custkey"),
                "total_cents": _cents(batch.column("o_totalprice")),
            }
        )

    def fold_orders(li: pd.DataFrame, orders: pd.DataFrame) -> pd.DataFrame:
        if li.empty or orders.empty:
            return pd.DataFrame()
        qty = li.groupby("l_orderkey")["sum_qty_cents"].sum()
        big = qty[qty.to_numpy() > LARGE_ORDER_MIN_QTY_CENTS]
        return orders.merge(big, left_on="o_orderkey", right_index=True)

    def attach_name(big: pd.DataFrame, cust: pd.DataFrame) -> pd.DataFrame:
        if big.empty or cust.empty:
            return pd.DataFrame()
        m = big.merge(cust, on="c_custkey")
        return m[["o_orderkey", "c_custkey", "c_name", "total_cents", "sum_qty_cents"]]

    li = _t(sf_dir, "lineitem", ["l_orderkey", "l_quantity"]).map_batches(
        li_partials, batch_format="pyarrow", zero_copy_batch=True
    )
    ords = _t(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"]
    ).map_batches(order_rows, batch_format="pyarrow", zero_copy_batch=True)
    big = co_group(fold_orders, li=(li, "l_orderkey"), orders=(ords, "o_orderkey"))
    return co_group(
        attach_name,
        big=(big, "c_custkey"),
        cust=(_t(sf_dir, "customer", ["c_custkey", "c_name"]), "c_custkey"),
    )


# -- customer order-count distribution (TPC-H Q13 shape) ----------------------


def customer_order_histogram(sf_dir: str):
    """(n_orders, n_customers): how many customers placed exactly N
    orders — TPC-H Q13's customer-distribution histogram, including the
    zero-order bin (LEFT JOIN semantics).

    Scale shape: orders fold to per-batch (custkey, count) Arrow
    partials; ONE custkey :func:`co_group` makes per-customer totals
    exact (a custkey lives wholly in its group) and each group
    collapses immediately to its LOCAL histogram — the driver sees only
    ≤ 64 × distinct-count narrow rows (distinct order counts per
    customer are data-bounded small integers, ~dozens at any corpus
    size), plus one customer-count scalar fold.  The zero bin is
    total-customers − customers-with-orders; it is appended only when
    positive, exactly matching the SQL LEFT JOIN (which emits no 0
    group when every customer ordered)."""
    import pandas as pd

    def ord_partials(batch: pa.Table) -> pa.Table:
        g = (
            pa.table({"k": batch.column("o_custkey")})
            .group_by(["k"])
            .aggregate([("k", "count")])
        )
        return pa.table(
            {
                "k": pc.cast(g.column("k"), pa.int64()),
                "n": pc.cast(g.column("k_count"), pa.int64()),
            }
        )

    def bucket_hist(counts: pd.DataFrame) -> pd.DataFrame:
        per_cust = counts.groupby("k")["n"].sum()
        h = per_cust.value_counts()
        return pd.DataFrame(
            {
                "n_orders": h.index.to_numpy(np.int64),
                "n_customers": h.to_numpy(np.int64),
            }
        )

    counts = _t(sf_dir, "orders", ["o_custkey"]).map_batches(
        ord_partials, batch_format="pyarrow", zero_copy_batch=True
    )
    parts = co_group(bucket_hist, counts=(counts, "k")).to_pandas()
    hist = (
        parts.groupby("n_orders", as_index=False)["n_customers"]
        .sum()
        .astype(np.int64)
    )

    def count_partial(batch: pa.Table) -> pa.Table:
        return pa.table({"n": pa.array([batch.num_rows], pa.int64())})

    n_total = int(
        _t(sf_dir, "customer", ["c_custkey"])
        .map_batches(count_partial, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()["n"]
        .sum()
    )
    n_zero = n_total - int(hist["n_customers"].sum())
    if n_zero > 0:
        hist = pd.concat(
            [pd.DataFrame({"n_orders": [0], "n_customers": [n_zero]}), hist],
            ignore_index=True,
        ).astype(np.int64)
    return hist.sort_values("n_orders").reset_index(drop=True)


# -- promo revenue share per ship month (TPC-H Q14 shape) ----------------------


def promo_revenue_share(sf_dir: str) -> rd.Dataset:
    """(ship_month, promo_rev_cc, total_rev_cc, promo_share_micros):
    TPC-H Q14-shaped promotion-effect series — per ship month (yyyymm),
    discounted revenue from PROMO-type parts vs all revenue, and the
    share as exact integer micros (floor(promo·10⁶ / total), computed
    in arbitrary-precision Python ints so a 100 TB month can't overflow
    the ×10⁶ product).

    Scale shape: ONE partkey :func:`co_group`.  Lineitem folds to
    per-batch (partkey, month, rev_cc) Arrow partials; part ships only
    (partkey, is_promo) rows — the part table SCALES (10⁸ rows at
    100 TB), so it is never a broadcast dict.  Each bucket classifies
    its partials via an inner merge and collapses to per-month
    (promo, total) sums — the second exchange carries
    ≤ buckets × months rows into a month-keyed combine."""
    import pandas as pd

    def li_partials(batch: pa.Table) -> pa.Table:
        ship = batch.column("l_shipdate")
        month = pc.add(
            pc.multiply(pc.cast(pc.year(ship), pa.int64()), 100),
            pc.cast(pc.month(ship), pa.int64()),
        )
        g = (
            pa.table(
                {"l_partkey": batch.column("l_partkey"), "ship_month": month,
                 "rev": _rev_cc(batch)}
            )
            .group_by(["l_partkey", "ship_month"])
            .aggregate([("rev", "sum")])
        )
        return g.rename_columns(["l_partkey", "ship_month", "rev"])

    def part_rows(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "p_partkey": batch.column("p_partkey"),
                "promo": pc.cast(
                    pc.starts_with(batch.column("p_type"), "PROMO"), pa.int64()
                ),
            }
        )

    def bucket_month_partials(li: pd.DataFrame, part: pd.DataFrame) -> pd.DataFrame:
        if li.empty or part.empty:
            return pd.DataFrame()
        # inner-join semantics: a partkey absent from part drops the
        # lineitem row, exactly like the SQL oracle's JOIN
        m = li.merge(part, left_on="l_partkey", right_on="p_partkey")
        df = pd.DataFrame(
            {
                "ship_month": m["ship_month"],
                "promo": m["rev"] * m["promo"],
                "total": m["rev"],
            }
        )
        return df.groupby("ship_month", as_index=False).sum().astype(np.int64)

    def month_combine(g: pd.DataFrame) -> pd.DataFrame:
        promo = int(g["promo"].sum())
        total = int(g["total"].sum())
        share = (promo * 1_000_000) // total if total else 0
        return pd.DataFrame(
            {
                "ship_month": np.array([g["ship_month"].iloc[0]], np.int64),
                "promo_rev_cc": np.array([promo], np.int64),
                "total_rev_cc": np.array([total], np.int64),
                "promo_share_micros": np.array([share], np.int64),
            }
        )

    li = _t(
        sf_dir, "lineitem",
        ["l_partkey", "l_shipdate", "l_extendedprice", "l_discount"],
    ).map_batches(li_partials, batch_format="pyarrow", zero_copy_batch=True)
    parts = _t(sf_dir, "part", ["p_partkey", "p_type"]).map_batches(
        part_rows, batch_format="pyarrow", zero_copy_batch=True
    )
    return (
        co_group(bucket_month_partials, li=(li, "l_partkey"), part=(parts, "p_partkey"))
        .groupby("ship_month")
        .map_groups(arrow_udf(month_combine), batch_format="pandas")
    )


# -- session path mining: event-type transition matrix -------------------------


def event_transitions(sf_dir: str) -> rd.Dataset:
    """(prev_type, next_type, n): counts of consecutive event-type
    transitions per user, ordered by (ts, event_id) — the Markov
    transition matrix behind session path mining.  The event_id
    tie-break makes the order (and so the oracle) deterministic when a
    user has two events in the same microsecond.

    Scale shape: one user-keyed :func:`co_group` of narrow (user, ts,
    id, type) rows; each group sorts its users vectorized (one lexsort
    per group, not per user), masks user boundaries, and collapses to
    ≤ types² pair partials; a final pair-keyed combine over
    64 × types² rows.  Event types are a small closed set, so both
    exchanges are tiny; the events table itself shuffles once as
    4-column narrow rows."""
    import pandas as pd

    def pair_partials(ev: pd.DataFrame) -> pd.DataFrame:
        u = ev["user_id"].to_numpy(np.int64)
        order = np.lexsort(
            (ev["event_id"].to_numpy(np.int64), ev["ts"].to_numpy(), u)
        )
        u = u[order]
        t = ev["event_type"].to_numpy()[order]
        same = u[:-1] == u[1:]
        df = pd.DataFrame(
            {"prev_type": t[:-1][same], "next_type": t[1:][same]}
        )
        out = df.groupby(["prev_type", "next_type"], as_index=False).size()
        return pa.table(
            {
                "prev_type": pa.array(out["prev_type"], pa.string()),
                "next_type": pa.array(out["next_type"], pa.string()),
                "n": pa.array(out["size"].to_numpy(np.int64), pa.int64()),
            }
        )

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "prev_type": [g["prev_type"].iloc[0]],
                "next_type": [g["next_type"].iloc[0]],
                "n": np.array([g["n"].sum()], np.int64),
            }
        )

    ev = _t(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"])
    return (
        co_group(pair_partials, ev=(ev, "user_id"))
        .groupby(["prev_type", "next_type"])
        .map_groups(arrow_udf(combine), batch_format="pandas")
    )


# -- returned-item revenue by customer (TPC-H Q10 shape) -----------------------

#: how many top customers returned_items reports
RETURNED_TOP_K = 20


def returned_items(sf_dir: str, k: int = RETURNED_TOP_K) -> rd.Dataset:
    """(c_custkey, c_name, n_name, revenue_cc): the ``k`` customers with
    the highest discounted revenue on RETURNED lineitems
    (l_returnflag='R') — TPC-H Q10's lost-revenue report — ties broken
    by c_custkey ascending (deterministic, oracle-stable).

    Scale shape: the returnflag filter prunes at the batch level; two
    :func:`co_group` exchanges (orderkey → attach custkey, custkey →
    exact per-customer totals + name), both carrying narrow integer
    partials.  Each custkey bucket keeps only its LOCAL top-k (a global
    winner always wins its own bucket), the 25-row nation map composes
    in as a broadcast dict, and a keyless :func:`co_group` cuts the
    final k from ≤ 64·k candidates."""
    import pandas as pd

    nation = _small_table_dict(sf_dir, "nation", "n_nationkey", "n_name")

    def li_partials(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.equal(batch.column("l_returnflag"), "R"))
        g = (
            pa.table({"l_orderkey": b.column("l_orderkey"), "rev": _rev_cc(b)})
            .group_by(["l_orderkey"])
            .aggregate([("rev", "sum")])
        )
        return g.rename_columns(["l_orderkey", "rev"])

    def to_cust(li: pd.DataFrame, orders: pd.DataFrame) -> pd.DataFrame:
        if li.empty or orders.empty:
            return pd.DataFrame()
        m = li.merge(orders, left_on="l_orderkey", right_on="o_orderkey")
        return m.groupby("o_custkey", as_index=False)["rev"].sum()

    def local_topk(rev: pd.DataFrame, cust: pd.DataFrame) -> pa.Table:
        if rev.empty or cust.empty:
            return pd.DataFrame()
        tot = rev.groupby("o_custkey", as_index=False)["rev"].sum()
        tot = tot.sort_values(
            ["rev", "o_custkey"], ascending=[False, True], kind="stable"
        ).head(k)
        m = tot.merge(cust, left_on="o_custkey", right_on="c_custkey")
        return pa.table(
            {
                "c_custkey": pa.array(m["c_custkey"].to_numpy(np.int64)),
                "c_name": pa.array(m["c_name"], pa.string()),
                "n_name": pa.array(
                    [nation.get(int(x), "UNKNOWN") for x in m["c_nationkey"]],
                    pa.string(),
                ),
                "revenue_cc": pa.array(m["rev"].to_numpy(np.int64)),
            }
        )

    def final_topk(top: pd.DataFrame) -> pd.DataFrame:
        t = top.sort_values(
            ["revenue_cc", "c_custkey"], ascending=[False, True], kind="stable"
        ).head(k)
        return t[["c_custkey", "c_name", "n_name", "revenue_cc"]].reset_index(
            drop=True
        )

    li = _t(
        sf_dir, "lineitem",
        ["l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"],
    ).map_batches(li_partials, batch_format="pyarrow", zero_copy_batch=True)
    rev = co_group(
        to_cust,
        li=(li, "l_orderkey"),
        orders=(_t(sf_dir, "orders", ["o_orderkey", "o_custkey"]), "o_orderkey"),
    )
    cust = _t(sf_dir, "customer", ["c_custkey", "c_name", "c_nationkey"])
    top = co_group(local_topk, rev=(rev, "o_custkey"), cust=(cust, "c_custkey"))
    return co_group(final_topk, top=(top, None))


# -- order priority counts with a late-ship EXISTS gate (TPC-H Q4 shape) -------


def order_priority_counts(sf_dir: str) -> rd.Dataset:
    """(o_orderpriority, n_orders): orders having AT LEAST ONE lineitem
    shipped after the order date, counted per priority — TPC-H Q4's
    EXISTS semi-join shape (our tables carry shipdate, not
    commit/receipt).

    Scale shape: lineitem collapses per batch to (orderkey,
    max shipdate) partials — max is associative, so the semi-join probe
    is one orderkey :func:`co_group` of 16-byte rows against order
    (okey, priority, odate) rows; each bucket applies the
    max_ship > odate gate and collapses to ≤ priorities partial counts;
    a keyless co_group folds the buckets × 5 rows per priority."""
    import pandas as pd

    def li_partials(batch: pa.Table) -> pa.Table:
        return batch.group_by(["l_orderkey"]).aggregate(
            [("l_shipdate", "max")]
        )

    def gate(li: pd.DataFrame, orders: pd.DataFrame) -> pd.DataFrame:
        if li.empty or orders.empty:
            return pd.DataFrame()
        max_ship = li.groupby("l_orderkey")["l_shipdate_max"].max()
        o = orders.merge(max_ship, left_on="o_orderkey", right_index=True)
        keep = o[o["l_shipdate_max"] > o["o_orderdate"]]
        out = keep.groupby("o_orderpriority", as_index=False).size()
        return out.rename(columns={"size": "n_orders"}).astype(
            {"n_orders": np.int64}
        )

    def combine(counts: pd.DataFrame) -> pd.DataFrame:
        return counts.groupby("o_orderpriority", as_index=False)["n_orders"].sum()

    li = _t(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"]).map_batches(
        li_partials, batch_format="pyarrow", zero_copy_batch=True
    )
    ords = _t(sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_orderpriority"])
    counts = co_group(gate, li=(li, "l_orderkey"), orders=(ords, "o_orderkey"))
    return co_group(combine, counts=(counts, None))


# -- exact order-value quantiles per market segment ----------------------------


def segment_order_quantiles(sf_dir: str) -> rd.Dataset:
    """(c_mktsegment, p25_cents, p50_cents, p75_cents): exact discrete
    quartiles of the order total per customer market segment — the
    per-cohort spend distribution, THROUGH a join (contrast
    :func:`event_quantiles`, which quantiles a single table).

    Scale shape: one custkey :func:`co_group` attaches the segment to
    order (custkey, cents) rows; each bucket collapses immediately to
    its (segment, cents) partial HISTOGRAM — the second exchange
    carries distinct-value counts, never orders — and the per-segment
    fold reads quantiles off sorted cumulative counts.  Quantile index
    = max(1, ceil(q·n)), matching DuckDB's quantile_disc (same rule as
    event_quantiles)."""
    import math

    import pandas as pd

    def order_rows(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_custkey": batch.column("o_custkey"),
                "cents": _cents(batch.column("o_totalprice")),
            }
        )

    def hist_partials(orders: pd.DataFrame, cust: pd.DataFrame) -> pa.Table:
        if orders.empty or cust.empty:
            return pd.DataFrame()
        m = orders.merge(cust, left_on="o_custkey", right_on="c_custkey")
        out = m.groupby(["c_mktsegment", "cents"], as_index=False).size()
        return pa.table(
            {
                "c_mktsegment": pa.array(out["c_mktsegment"], pa.string()),
                "cents": pa.array(out["cents"].to_numpy(np.int64)),
                "n": pa.array(out["size"].to_numpy(np.int64)),
            }
        )

    def quantiles(g: pd.DataFrame) -> pd.DataFrame:
        seg = g["c_mktsegment"].iloc[0]
        h = g.groupby("cents", as_index=False)["n"].sum().sort_values("cents")
        cum = h["n"].to_numpy(np.int64).cumsum()
        total = int(cum[-1])
        vals = h["cents"].to_numpy(np.int64)

        def pick(q: float) -> int:
            rank = max(1, math.ceil(q * total))
            return int(vals[np.searchsorted(cum, rank, side="left")])

        return pd.DataFrame(
            {
                "c_mktsegment": [seg],
                "p25_cents": np.array([pick(0.25)], np.int64),
                "p50_cents": np.array([pick(0.50)], np.int64),
                "p75_cents": np.array([pick(0.75)], np.int64),
            }
        )

    ords = _t(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(
        order_rows, batch_format="pyarrow", zero_copy_batch=True
    )
    cust = _t(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    return (
        co_group(hist_partials, orders=(ords, "o_custkey"), cust=(cust, "c_custkey"))
        .groupby("c_mktsegment")
        .map_groups(arrow_udf(quantiles), batch_format="pandas")
    )


# -- nation-to-nation trade balance (TPC-H Q7 shape) ----------------------------


def _nation_pair_revenue(
    li: rd.Dataset, orders: rd.Dataset, cust: rd.Dataset, supp: rd.Dataset
) -> rd.Dataset:
    """(s_nationkey, c_nationkey, rev) partial rows: lineitem revenue
    partials ``li`` (l_orderkey, l_suppkey, rev) walked to the
    customer's and the supplier's nation — three narrow
    :func:`co_group` exchanges, none carrying the fact table raw.
    (1) orderkey: attach o_custkey from ``orders``; (2) custkey: attach
    the customer nation from ``cust`` and collapse to (suppkey,
    cust_nation) partials — from here rows are bounded by suppliers ×
    nations; (3) suppkey: attach the supplier nation from ``supp``.
    Every hop is an inner join, so a filter on any input prunes the
    rest."""
    import pandas as pd

    def attach_cust(li: pd.DataFrame, orders: pd.DataFrame) -> pd.DataFrame:
        if li.empty or orders.empty:
            return pd.DataFrame()
        m = li.merge(orders, left_on="l_orderkey", right_on="o_orderkey")
        return m.groupby(["o_custkey", "l_suppkey"], as_index=False)["rev"].sum()

    def attach_cnat(lc: pd.DataFrame, cust: pd.DataFrame) -> pd.DataFrame:
        if lc.empty or cust.empty:
            return pd.DataFrame()
        m = lc.merge(cust, left_on="o_custkey", right_on="c_custkey")
        return m.groupby(["l_suppkey", "c_nationkey"], as_index=False)["rev"].sum()

    def attach_snat(ls: pd.DataFrame, supp: pd.DataFrame) -> pd.DataFrame:
        if ls.empty or supp.empty:
            return pd.DataFrame()
        m = ls.merge(supp, left_on="l_suppkey", right_on="s_suppkey")
        out = m.groupby(["s_nationkey", "c_nationkey"], as_index=False)["rev"].sum()
        return out.astype(np.int64)

    lc = co_group(attach_cust, li=(li, "l_orderkey"), orders=(orders, "o_orderkey"))
    ls = co_group(attach_cnat, lc=(lc, "o_custkey"), cust=(cust, "c_custkey"))
    return co_group(attach_snat, ls=(ls, "l_suppkey"), supp=(supp, "s_suppkey"))


def _order_supp_rev(batch: pa.Table) -> pa.Table:
    """Per-batch (l_orderkey, l_suppkey, rev) revenue partials."""
    g = (
        pa.table(
            {
                "l_orderkey": batch.column("l_orderkey"),
                "l_suppkey": batch.column("l_suppkey"),
                "rev": _rev_cc(batch),
            }
        )
        .group_by(["l_orderkey", "l_suppkey"])
        .aggregate([("rev", "sum")])
    )
    return g.rename_columns(["l_orderkey", "l_suppkey", "rev"])


def nation_trade_balance(sf_dir: str) -> rd.Dataset:
    """(supp_nation, cust_nation, revenue_cc): discounted lineitem
    revenue by (supplier nation → customer nation) — TPC-H Q7's trade
    matrix over ALL nation pairs, the multi-hop two-dimension join
    (fact → orders → customer on one side, fact → supplier on the
    other).

    Scale shape: per-batch (orderkey, suppkey, rev) Arrow partials take
    the three exchanges of :func:`_nation_pair_revenue`; the 25-row
    nation-name map composes in a final pair-keyed combine that folds
    the ≤ buckets × 625 leftovers."""
    import pandas as pd

    nation = _small_table_dict(sf_dir, "nation", "n_nationkey", "n_name")

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "supp_nation": [nation.get(int(g["s_nationkey"].iloc[0]), "UNKNOWN")],
                "cust_nation": [nation.get(int(g["c_nationkey"].iloc[0]), "UNKNOWN")],
                "revenue_cc": np.array([g["rev"].sum()], np.int64),
            }
        )

    li = _t(
        sf_dir, "lineitem",
        ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).map_batches(_order_supp_rev, batch_format="pyarrow", zero_copy_batch=True)
    return (
        _nation_pair_revenue(
            li,
            _t(sf_dir, "orders", ["o_orderkey", "o_custkey"]),
            _t(sf_dir, "customer", ["c_custkey", "c_nationkey"]),
            _t(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]),
        )
        .groupby(["s_nationkey", "c_nationkey"])
        .map_groups(arrow_udf(combine), batch_format="pandas")
    )


# -- daily / weekly active users ------------------------------------------------

#: trailing window (days, inclusive of the current day) for WAU
WAU_WINDOW_DAYS = 7


def events_dau_wau(sf_dir: str) -> rd.Dataset:
    """(day_us, dau, wau, stickiness_micros): daily active users, the
    trailing-:data:`WAU_WINDOW_DAYS`-day weekly active users, and the
    DAU/WAU "stickiness" ratio as exact floor-division micros — the
    canonical product-analytics rollup.

    Scale shape: events collapse per batch to DISTINCT (day, user)
    pairs; the WAU window is a 7× fan-out of those narrow 16-byte rows
    (each pair votes for the 7 window-days it supports, clipped to
    days that actually exist so phantom tail days never appear); one
    user-keyed :func:`co_group` dedups (window-day, user) votes exactly
    (a pair lives wholly in its user's group) and emits per-day
    partials, and a day-keyed combine computes the
    ratio in Python ints.  The raw event stream never shuffles."""
    import pandas as pd
    import ray

    day_us = 86_400_000_000

    # pass 1: the distinct day domain (bounded: days, not events)
    def day_partials(batch: pa.Table) -> pa.Table:
        d = pc.cast(batch.column("ts"), pa.int64()).to_numpy(
            zero_copy_only=False
        ) // day_us
        return pa.table({"d": pa.array(np.unique(d), pa.int64())})

    days = np.unique(
        _t(sf_dir, "events", ["ts"])
        .map_batches(day_partials, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()["d"]
        .to_numpy(np.int64)
    )
    days_ref = ray.put(days)  # sorted int64 ndarray, bounded by the day span

    def vote_rows(batch: pa.Table) -> pa.Table:
        valid = ray.get(days_ref)
        d = pc.cast(batch.column("ts"), pa.int64()).to_numpy(
            zero_copy_only=False
        ) // day_us
        u = batch.column("user_id").to_numpy(zero_copy_only=False)
        pairs = np.unique(np.stack([d, u], axis=1), axis=0)
        dd, uu = pairs[:, 0], pairs[:, 1]
        # each (day, user) votes for window-days day .. day+6 that exist
        out_w, out_u, out_own = [], [], []
        for off in range(WAU_WINDOW_DAYS):
            w = dd + off
            keep = np.isin(w, valid)
            out_w.append(w[keep])
            out_u.append(uu[keep])
            out_own.append(np.full(keep.sum(), 1 if off == 0 else 0, np.int8))
        return pa.table(
            {
                "w": pa.array(np.concatenate(out_w), pa.int64()),
                "u": pa.array(np.concatenate(out_u), pa.int64()),
                "own": pa.array(np.concatenate(out_own)),
            }
        )

    def bucket_counts(votes: pd.DataFrame) -> pd.DataFrame:
        agg = votes.groupby(["w", "u"], as_index=False)["own"].max()
        out = agg.groupby("w", as_index=False).agg(
            wau=("u", "size"), dau=("own", "sum")
        )
        return pd.DataFrame(
            {
                "w": out["w"].to_numpy(np.int64),
                "dau": out["dau"].to_numpy(np.int64),
                "wau": out["wau"].to_numpy(np.int64),
            }
        )

    def day_combine(g: pd.DataFrame) -> pd.DataFrame:
        dau = int(g["dau"].sum())
        wau = int(g["wau"].sum())
        return pd.DataFrame(
            {
                "day_us": np.array([int(g["w"].iloc[0]) * day_us], np.int64),
                "dau": np.array([dau], np.int64),
                "wau": np.array([wau], np.int64),
                "stickiness_micros": np.array(
                    [(dau * 1_000_000) // wau if wau else 0], np.int64
                ),
            }
        )

    votes = _t(sf_dir, "events", ["ts", "user_id"]).map_batches(
        vote_rows, batch_format="pyarrow", zero_copy_batch=True
    )
    return (
        co_group(bucket_counts, votes=(votes, "u"))
        .groupby("w")
        .map_groups(arrow_udf(day_combine), batch_format="pandas")
    )


# -- per-user lifecycle summary --------------------------------------------------


def user_lifetimes(sf_dir: str) -> rd.Dataset:
    """(user_id, first_day_us, last_day_us, active_days, n_events): the
    user-lifecycle summary — first/last epoch day seen, count of
    DISTINCT active days, and total events.

    Scale shape: each batch collapses to per-(user, day) partial counts
    (Arrow group_by — the exchange carries user×day cardinality, never
    events); one user-keyed :func:`co_group` makes distinct-day counts
    and min/max exact (a user lives wholly in its group)."""
    import pandas as pd

    day_us = 86_400_000_000

    def partials(batch: pa.Table) -> pa.Table:
        d = pc.cast(batch.column("ts"), pa.int64()).to_numpy(
            zero_copy_only=False
        ) // day_us
        g = (
            pa.table({"u": batch.column("user_id"), "d": pa.array(d, pa.int64())})
            .group_by(["u", "d"])
            .aggregate([("d", "count")])
        )
        return pa.table(
            {
                "u": pc.cast(g.column("u"), pa.int64()),
                "d": g.column("d"),
                "n": pc.cast(g.column("d_count"), pa.int64()),
            }
        )

    def fold(days: pd.DataFrame) -> pd.DataFrame:
        out = days.groupby("u").agg(
            first_day=("d", "min"),
            last_day=("d", "max"),
            active_days=("d", "nunique"),
            n_events=("n", "sum"),
        )
        return pd.DataFrame(
            {
                "user_id": out.index.to_numpy(np.int64),
                "first_day_us": out["first_day"].to_numpy(np.int64) * day_us,
                "last_day_us": out["last_day"].to_numpy(np.int64) * day_us,
                "active_days": out["active_days"].to_numpy(np.int64),
                "n_events": out["n_events"].to_numpy(np.int64),
            }
        )

    days = _t(sf_dir, "events", ["user_id", "ts"]).map_batches(
        partials, batch_format="pyarrow", zero_copy_batch=True
    )
    return co_group(fold, days=(days, "u"))


# -- TPC-H Q3: shipping priority (top unshipped orders by revenue) ---------------

SHIP_SEGMENT = "BUILDING"
SHIP_CUTOFF = "1998-01-01"
SHIP_TOP_K = 10


def _epoch_us(day: str) -> int:
    return int(np.datetime64(day, "us").astype(np.int64))


def shipping_priority(
    sf_dir: str,
    segment: str = SHIP_SEGMENT,
    cutoff: str = SHIP_CUTOFF,
    k: int = SHIP_TOP_K,
) -> rd.Dataset:
    """(o_orderkey, revenue_cc, o_orderdate_us): the ``k`` highest-value
    orders from ``segment`` customers placed before ``cutoff`` with at
    least one lineitem still shipping after it — TPC-H Q3's shipping
    priority report, ties broken by orderkey ascending.

    Scale shape: both date predicates prune at the batch level before
    anything moves; two :func:`co_group` exchanges (orderkey → attach
    custkey+orderdate, custkey → segment semi-join) carry narrow
    integer partials; each custkey bucket keeps only its LOCAL top-k (a
    global winner always wins its own bucket) so the final keyless
    :func:`co_group` sees ≤ 64·k candidate rows."""
    import pandas as pd

    cut = pa.scalar(_epoch_us(cutoff), pa.int64())

    def li_partials(batch: pa.Table) -> pa.Table:
        ship = pc.cast(batch.column("l_shipdate"), pa.int64())
        b = batch.filter(pc.greater(ship, cut))
        g = (
            pa.table({"l_orderkey": b.column("l_orderkey"), "rev": _rev_cc(b)})
            .group_by(["l_orderkey"])
            .aggregate([("rev", "sum")])
        )
        return g.rename_columns(["l_orderkey", "rev"])

    def order_rows(batch: pa.Table) -> pa.Table:
        odate = pc.cast(batch.column("o_orderdate"), pa.int64())
        return pa.table(
            {
                "o_orderkey": batch.column("o_orderkey"),
                "o_custkey": batch.column("o_custkey"),
                "o_orderdate_us": odate,
            }
        ).filter(pc.less(odate, cut))

    def segment_keys(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.equal(batch.column("c_mktsegment"), segment))
        return b.select(["c_custkey"])

    def attach_order(li: pd.DataFrame, orders: pd.DataFrame) -> pd.DataFrame:
        if li.empty or orders.empty:
            return pd.DataFrame()
        # collapse the per-batch lineitem partials to ONE exact revenue
        # row per orderkey (all partials of an orderkey share the bucket)
        rev = li.groupby("l_orderkey")["rev"].sum()
        return orders.merge(rev, left_on="o_orderkey", right_index=True)

    def local_topk(orders: pd.DataFrame, cust: pd.DataFrame) -> pa.Table:
        if orders.empty or cust.empty:
            return pd.DataFrame()
        o = orders[orders["o_custkey"].isin(cust["c_custkey"])]
        t = o.sort_values(
            ["rev", "o_orderkey"], ascending=[False, True], kind="stable"
        ).head(k)
        return pa.table(
            {
                "o_orderkey": pa.array(t["o_orderkey"].to_numpy(np.int64)),
                "revenue_cc": pa.array(t["rev"].to_numpy(np.int64)),
                "o_orderdate_us": pa.array(t["o_orderdate_us"].to_numpy(np.int64)),
            }
        )

    def final_topk(top: pd.DataFrame) -> pd.DataFrame:
        t = top.sort_values(
            ["revenue_cc", "o_orderkey"], ascending=[False, True], kind="stable"
        ).head(k)
        return t[["o_orderkey", "revenue_cc", "o_orderdate_us"]].reset_index(
            drop=True
        )

    li = _t(
        sf_dir, "lineitem",
        ["l_orderkey", "l_shipdate", "l_extendedprice", "l_discount"],
    ).map_batches(li_partials, batch_format="pyarrow", zero_copy_batch=True)
    ords = _t(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]
    ).map_batches(order_rows, batch_format="pyarrow", zero_copy_batch=True)
    cust = _t(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).map_batches(
        segment_keys, batch_format="pyarrow", zero_copy_batch=True
    )
    rev = co_group(attach_order, li=(li, "l_orderkey"), orders=(ords, "o_orderkey"))
    top = co_group(local_topk, orders=(rev, "o_custkey"), cust=(cust, "c_custkey"))
    return co_group(final_topk, top=(top, None))


# -- TPC-H Q5: local supplier volume (customer and supplier same nation) --------

LOCAL_VOLUME_REGION = "ASIA"
LOCAL_VOLUME_DATE_LO = "1996-01-01"
LOCAL_VOLUME_DATE_HI = "1997-01-01"


def local_supplier_volume(
    sf_dir: str,
    region: str = LOCAL_VOLUME_REGION,
    date_lo: str = LOCAL_VOLUME_DATE_LO,
    date_hi: str = LOCAL_VOLUME_DATE_HI,
) -> rd.Dataset:
    """(n_name, revenue_cc): discounted revenue per nation in ``region``
    where the ordering customer and the shipping supplier share the
    nation — TPC-H Q5's local-supplier-volume report over orders placed
    in [date_lo, date_hi).

    Scale shape: nation⋈region collapses to a ≤25-entry broadcast set
    (the genuinely-small side); the date filter prunes orders and the
    region filter prunes customer and supplier rows at the batch level
    BEFORE they enter any exchange.  The three exchanges are
    :func:`_nation_pair_revenue`'s, shared with
    :func:`nation_trade_balance`; after exchange 2 rows are bounded by
    suppliers × in-region nations, never fact-sized."""
    import pandas as pd

    lo_us, hi_us = _epoch_us(date_lo), _epoch_us(date_hi)
    nation = _small_table_dict(sf_dir, "nation", "n_nationkey", "n_name")
    nat_region = _small_table_dict(sf_dir, "nation", "n_nationkey", "n_regionkey")
    region_keys = {
        rk for rk, rn in _small_table_dict(
            sf_dir, "region", "r_regionkey", "r_name"
        ).items() if rn == region
    }
    in_region = pa.array(
        sorted(nk for nk, rk in nat_region.items() if rk in region_keys), pa.int32()
    )

    def order_rows(batch: pa.Table) -> pa.Table:
        odate = pc.cast(batch.column("o_orderdate"), pa.int64())
        return batch.filter(
            pc.and_(
                pc.greater_equal(odate, pa.scalar(lo_us, pa.int64())),
                pc.less(odate, pa.scalar(hi_us, pa.int64())),
            )
        ).select(["o_orderkey", "o_custkey"])

    def in_region_rows(nation_col: str):
        def rows(batch: pa.Table) -> pa.Table:
            return batch.filter(pc.is_in(batch.column(nation_col), in_region))

        return rows

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        same = g[g["s_nationkey"] == g["c_nationkey"]]
        if same.empty:
            return pd.DataFrame()
        return pd.DataFrame(
            {
                "n_name": [nation.get(int(g["s_nationkey"].iloc[0]), "UNKNOWN")],
                "revenue_cc": np.array([same["rev"].sum()], np.int64),
            }
        )

    li = _t(
        sf_dir, "lineitem",
        ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).map_batches(_order_supp_rev, batch_format="pyarrow", zero_copy_batch=True)
    ords = _t(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]
    ).map_batches(order_rows, batch_format="pyarrow", zero_copy_batch=True)
    cust = _t(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(
        in_region_rows("c_nationkey"), batch_format="pyarrow", zero_copy_batch=True
    )
    supp = _t(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]).map_batches(
        in_region_rows("s_nationkey"), batch_format="pyarrow", zero_copy_batch=True
    )
    return (
        _nation_pair_revenue(li, ords, cust, supp)
        .groupby("s_nationkey")
        .map_groups(arrow_udf(combine), batch_format="pandas")
    )


# -- TPC-H Q6: forecast revenue change (filtered scan-sum) -----------------------

DISCOUNT_BAND_LO = 5  # discount pct, inclusive
DISCOUNT_BAND_HI = 7
DISCOUNT_QTY_LT = 24
DISCOUNT_DATE_LO = "1996-01-01"
DISCOUNT_DATE_HI = "1997-01-01"


def discount_band_revenue(sf_dir: str) -> rd.Dataset:
    """(revenue_cc, n_items): the revenue that would vanish if
    discounts in the [5%,7%] band on small (<24 qty) 1996 lineitems were
    dropped — TPC-H Q6's forecast, ``sum(extendedprice·discount)`` in
    integer price_cents·discount_pct.

    Scale shape: a pure streaming scan-sum — every predicate and the
    per-batch partial run vectorized inside map_batches; the exchange
    carries exactly one (revenue, n) row per block to a keyless
    :func:`co_group` combine.  No fact-sized anything moves."""
    lo_us, hi_us = _epoch_us(DISCOUNT_DATE_LO), _epoch_us(DISCOUNT_DATE_HI)

    def partial(batch: pa.Table) -> pa.Table:
        ship = pc.cast(batch.column("l_shipdate"), pa.int64())
        b = batch.filter(
            pc.and_(
                pc.greater_equal(ship, pa.scalar(lo_us, pa.int64())),
                pc.less(ship, pa.scalar(hi_us, pa.int64())),
            )
        )
        price = pc.cast(
            pc.round(pc.multiply(b.column("l_extendedprice"), 100.0)), pa.int64()
        )
        disc = pc.cast(
            pc.round(pc.multiply(b.column("l_discount"), 100.0)), pa.int64()
        )
        qty = pc.cast(pc.round(b.column("l_quantity")), pa.int64())
        dn, qn = disc.to_numpy(zero_copy_only=False), qty.to_numpy(
            zero_copy_only=False
        )
        mask = (dn >= DISCOUNT_BAND_LO) & (dn <= DISCOUNT_BAND_HI) & (
            qn < DISCOUNT_QTY_LT
        )
        pn = price.to_numpy(zero_copy_only=False)[mask]
        return pa.table(
            {
                "revenue_cc": pa.array([int((pn * dn[mask]).sum())], pa.int64()),
                "n_items": pa.array([int(mask.sum())], pa.int64()),
            }
        )

    parts = _t(
        sf_dir, "lineitem",
        ["l_shipdate", "l_extendedprice", "l_discount", "l_quantity"],
    ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return co_group(_sum_revenue_items, parts=(parts, None))


def _sum_revenue_items(parts: "pd.DataFrame") -> "pd.DataFrame":
    """Keyless final combine of (revenue_cc, n_items) partial rows."""
    import pandas as pd

    return pd.DataFrame(
        {
            "revenue_cc": np.array([parts["revenue_cc"].sum()], np.int64),
            "n_items": np.array([parts["n_items"].sum()], np.int64),
        }
    )


# -- TPC-H Q15: top supplier by interval revenue ---------------------------------

TOP_SUPPLIER_DATE_LO = "1996-01-01"
TOP_SUPPLIER_DATE_HI = "1996-04-01"


def top_supplier(sf_dir: str) -> rd.Dataset:
    """(s_suppkey, s_name, revenue_cc): the supplier(s) with the maximum
    discounted revenue over shipments in [date_lo, date_hi) — TPC-H
    Q15's top-supplier view join, keeping ALL ties (Q15 semantics).

    Scale shape: the date filter prunes at the batch level; per-batch
    (suppkey, rev) Arrow partials take ONE suppkey :func:`co_group`
    with the supplier name rows; each bucket computes its suppliers'
    exact totals and forwards only its local maxima (the global max is
    some bucket's max), so the keyless :func:`co_group` combine sees
    ≤ 64·ties rows."""
    import pandas as pd

    lo_us, hi_us = _epoch_us(TOP_SUPPLIER_DATE_LO), _epoch_us(TOP_SUPPLIER_DATE_HI)

    def li_partials(batch: pa.Table) -> pa.Table:
        ship = pc.cast(batch.column("l_shipdate"), pa.int64())
        b = batch.filter(
            pc.and_(
                pc.greater_equal(ship, pa.scalar(lo_us, pa.int64())),
                pc.less(ship, pa.scalar(hi_us, pa.int64())),
            )
        )
        g = (
            pa.table({"l_suppkey": b.column("l_suppkey"), "rev": _rev_cc(b)})
            .group_by(["l_suppkey"])
            .aggregate([("rev", "sum")])
        )
        return g.rename_columns(["l_suppkey", "rev"])

    def local_max(li: pd.DataFrame, supp: pd.DataFrame) -> pa.Table:
        if li.empty or supp.empty:
            return pd.DataFrame()
        tot = li.groupby("l_suppkey", as_index=False)["rev"].sum()
        best = tot[tot["rev"] == tot["rev"].max()]
        m = best.merge(supp, left_on="l_suppkey", right_on="s_suppkey")
        return pa.table(
            {
                "s_suppkey": pa.array(m["s_suppkey"].to_numpy(np.int64)),
                "s_name": pa.array(m["s_name"], pa.string()),
                "revenue_cc": pa.array(m["rev"].to_numpy(np.int64)),
            }
        )

    def global_max(top: pd.DataFrame) -> pd.DataFrame:
        best = top[top["revenue_cc"] == top["revenue_cc"].max()].sort_values(
            "s_suppkey"
        )
        return best[["s_suppkey", "s_name", "revenue_cc"]].reset_index(drop=True)

    li = _t(
        sf_dir, "lineitem",
        ["l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"],
    ).map_batches(li_partials, batch_format="pyarrow", zero_copy_batch=True)
    supp = _t(sf_dir, "supplier", ["s_suppkey", "s_name"])
    top = co_group(local_max, li=(li, "l_suppkey"), supp=(supp, "s_suppkey"))
    return co_group(global_max, top=(top, None))


# -- TPC-H Q17: small-quantity-order revenue -------------------------------------

SMALL_QTY_BRAND = "Brand#2"


def small_qty_revenue(sf_dir: str, brand: str = SMALL_QTY_BRAND) -> rd.Dataset:
    """(revenue_cc, n_items): extended-price revenue on lineitems of
    ``brand`` parts whose quantity is below 20% of that part's average
    order quantity — TPC-H Q17's small-lot forecast, with the gate in
    exact integers (5·qty·count(part) < sum_qty(part) ≡ qty < 0.2·avg).

    Scale shape: quantities are small integers (1..50), so the
    fact-side partial is a per-(part, qty) HISTOGRAM — (n, sum_price)
    per bin — and the partkey :func:`co_group` carries ≤ parts×50
    bins, never raw lineitems.  The brand filter prunes the part side
    at the batch level; each bucket derives the part's exact (count,
    sum_qty) from its own bins and applies the gate bin-wise."""
    import pandas as pd

    def li_partials(batch: pa.Table) -> pa.Table:
        g = (
            pa.table(
                {
                    "l_partkey": batch.column("l_partkey"),
                    "q": pc.cast(pc.round(batch.column("l_quantity")), pa.int64()),
                    "price": _cents(batch.column("l_extendedprice")),
                }
            )
            .group_by(["l_partkey", "q"])
            .aggregate([("price", "sum"), ("price", "count")])
        )
        return g.rename_columns(["l_partkey", "q", "sum_price", "n"])

    def brand_keys(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.equal(batch.column("p_brand"), brand))
        return b.select(["p_partkey"])

    def fold_gate(li: pd.DataFrame, part: pd.DataFrame) -> pd.DataFrame:
        rev = items = 0
        if not (li.empty or part.empty):
            li = li[li["l_partkey"].isin(part["p_partkey"])]
            bins = li.groupby(["l_partkey", "q"], as_index=False)[
                ["sum_price", "n"]
            ].sum()
            per_pk = bins.groupby("l_partkey")
            cnt = per_pk["n"].transform("sum").to_numpy(np.int64)
            sumq = (
                bins.assign(qn=bins["q"] * bins["n"])
                .groupby("l_partkey")["qn"]
                .transform("sum")
                .to_numpy(np.int64)
            )
            gate = 5 * bins["q"].to_numpy(np.int64) * cnt < sumq
            rev = bins["sum_price"].to_numpy(np.int64)[gate].sum()
            items = bins["n"].to_numpy(np.int64)[gate].sum()
        return pd.DataFrame(
            {
                "revenue_cc": np.array([rev], np.int64),
                "n_items": np.array([items], np.int64),
            }
        )

    li = _t(
        sf_dir, "lineitem", ["l_partkey", "l_quantity", "l_extendedprice"]
    ).map_batches(li_partials, batch_format="pyarrow", zero_copy_batch=True)
    parts = _t(sf_dir, "part", ["p_partkey", "p_brand"]).map_batches(
        brand_keys, batch_format="pyarrow", zero_copy_batch=True
    )
    bins = co_group(fold_gate, li=(li, "l_partkey"), part=(parts, "p_partkey"))
    return co_group(_sum_revenue_items, parts=(bins, None))


# -- TPC-H Q19: disjunctive-predicate discounted revenue -------------------------

#: (brand, max size, qty lo, qty hi) — one OR-arm each, Q19's shape
DISJUNCT_ARMS = (
    ("Brand#1", 5, 1, 11),
    ("Brand#2", 10, 10, 20),
    ("Brand#3", 15, 20, 30),
)


def disjunctive_revenue(sf_dir: str) -> rd.Dataset:
    """(revenue_cc, n_items): discounted revenue over lineitems
    matching ANY of the three (brand, size≤S, qty∈[lo,hi]) arms —
    TPC-H Q19's disjunctive predicate join.

    Scale shape: same per-(part, qty) histogram partials as
    :func:`small_qty_revenue` (the qty pre-filter keeps only bins that
    could satisfy SOME arm); the part side ships (arm, size) only for
    parts under the largest size cap, and each bucket evaluates the
    disjunction bin-wise — the exchange never carries raw lineitems."""
    import pandas as pd

    qty_lo = min(a[2] for a in DISJUNCT_ARMS)
    qty_hi = max(a[3] for a in DISJUNCT_ARMS)
    size_cap = max(a[1] for a in DISJUNCT_ARMS)
    brands = {a[0]: i for i, a in enumerate(DISJUNCT_ARMS)}

    def li_partials(batch: pa.Table) -> pa.Table:
        qty = pc.cast(pc.round(batch.column("l_quantity")), pa.int64())
        t = pa.table(
            {"l_partkey": batch.column("l_partkey"), "q": qty, "rev": _rev_cc(batch)}
        ).filter(
            pc.and_(
                pc.greater_equal(qty, pa.scalar(qty_lo, pa.int64())),
                pc.less_equal(qty, pa.scalar(qty_hi, pa.int64())),
            )
        )
        g = t.group_by(["l_partkey", "q"]).aggregate(
            [("rev", "sum"), ("rev", "count")]
        )
        return g.rename_columns(["l_partkey", "q", "rev", "n"])

    def part_rows(batch: pa.Table) -> pa.Table:
        size = pc.cast(batch.column("p_size"), pa.int64())
        arm = np.full(len(batch), -1, np.int64)
        bn = batch.column("p_brand").to_numpy(zero_copy_only=False)
        for b, i in brands.items():
            arm[bn == b] = i
        return pa.table(
            {"p_partkey": batch.column("p_partkey"), "size": size, "arm": arm}
        ).filter(
            pa.array((arm >= 0) & (size.to_numpy(zero_copy_only=False) <= size_cap))
        )

    def fold_arms(li: pd.DataFrame, part: pd.DataFrame) -> pd.DataFrame:
        rev = items = 0
        if not (li.empty or part.empty):
            m = li.merge(part, left_on="l_partkey", right_on="p_partkey")
            arm, size, q = (m[c].to_numpy(np.int64) for c in ("arm", "size", "q"))
            ok = np.zeros(len(m), bool)
            for i, (_, cap, lo, hi) in enumerate(DISJUNCT_ARMS):
                ok |= (arm == i) & (size <= cap) & (q >= lo) & (q <= hi)
            rev = m["rev"].to_numpy(np.int64)[ok].sum()
            items = m["n"].to_numpy(np.int64)[ok].sum()
        return pd.DataFrame(
            {
                "revenue_cc": np.array([rev], np.int64),
                "n_items": np.array([items], np.int64),
            }
        )

    li = _t(
        sf_dir, "lineitem",
        ["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
    ).map_batches(li_partials, batch_format="pyarrow", zero_copy_batch=True)
    parts = _t(sf_dir, "part", ["p_partkey", "p_brand", "p_size"]).map_batches(
        part_rows, batch_format="pyarrow", zero_copy_batch=True
    )
    bins = co_group(fold_arms, li=(li, "l_partkey"), part=(parts, "p_partkey"))
    return co_group(_sum_revenue_items, parts=(bins, None))


# -- TPC-H Q8: national market share ---------------------------------------------

MARKET_REGION = "ASIA"
MARKET_PART_TYPE = "ECONOMY"
MARKET_NATION = "NATION_7"


def market_share(sf_dir: str) -> rd.Dataset:
    """(o_year, total_cc, nation_cc, share_micros): for each order
    year, the share of ``MARKET_NATION``-supplied revenue within the
    ``MARKET_REGION`` customers' market for ``MARKET_PART_TYPE`` parts
    — TPC-H Q8, share as floor(nation/total·1e6) exact integer micros.

    Scale shape: four narrow :func:`co_group` exchanges, each pruning
    before it moves: partkey (type semi-join) → orderkey (attach order
    year + custkey) → custkey (region semi-join, collapse to
    per-(suppkey, year)) → suppkey (attach supplier nation).  After
    exchange 3 rows are bounded by suppliers × years; the keyless
    per-year combine and the share division run on a handful of
    rows."""
    import pandas as pd

    nation = _small_table_dict(sf_dir, "nation", "n_nationkey", "n_name")
    nat_region = _small_table_dict(sf_dir, "nation", "n_nationkey", "n_regionkey")
    region_keys = {
        rk for rk, rn in _small_table_dict(
            sf_dir, "region", "r_regionkey", "r_name"
        ).items() if rn == MARKET_REGION
    }
    in_region = pa.array(
        sorted(nk for nk, rk in nat_region.items() if rk in region_keys), pa.int32()
    )
    market_nk = [nk for nk, name in nation.items() if name == MARKET_NATION]

    def li_partials(batch: pa.Table) -> pa.Table:
        keys = ["l_partkey", "l_orderkey", "l_suppkey"]
        g = (
            pa.table({**{c: batch.column(c) for c in keys}, "rev": _rev_cc(batch)})
            .group_by(keys)
            .aggregate([("rev", "sum")])
        )
        return g.rename_columns([*keys, "rev"])

    def type_keys(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.equal(batch.column("p_type"), MARKET_PART_TYPE))
        return b.select(["p_partkey"])

    def region_custkeys(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.is_in(batch.column("c_nationkey"), in_region))
        return b.select(["c_custkey"])

    def semi_part(li: pd.DataFrame, part: pd.DataFrame) -> pd.DataFrame:
        if li.empty or part.empty:
            return pd.DataFrame()
        li = li[li["l_partkey"].isin(part["p_partkey"])]
        return li[["l_orderkey", "l_suppkey", "rev"]]

    def attach_order(li: pd.DataFrame, orders: pd.DataFrame) -> pd.DataFrame:
        if li.empty or orders.empty:
            return pd.DataFrame()
        m = li.merge(orders, left_on="l_orderkey", right_on="o_orderkey")
        return pd.DataFrame(
            {
                "o_custkey": m["o_custkey"],
                "l_suppkey": m["l_suppkey"],
                "o_year": m["o_orderdate"].dt.year.astype(np.int64),
                "rev": m["rev"],
            }
        )

    def semi_region(lo: pd.DataFrame, cust: pd.DataFrame) -> pd.DataFrame:
        if lo.empty or cust.empty:
            return pd.DataFrame()
        lo = lo[lo["o_custkey"].isin(cust["c_custkey"])]
        return lo.groupby(["l_suppkey", "o_year"], as_index=False)["rev"].sum()

    def fold_share(ly: pd.DataFrame, supp: pd.DataFrame) -> pd.DataFrame:
        if ly.empty or supp.empty:
            return pd.DataFrame()
        m = ly.merge(supp, left_on="l_suppkey", right_on="s_suppkey")
        nat = m["rev"].where(m["s_nationkey"].isin(market_nk), 0)
        df = pd.DataFrame({"o_year": m["o_year"], "total": m["rev"], "nat": nat})
        return df.groupby("o_year", as_index=False).sum().astype(np.int64)

    def combine(years: pd.DataFrame) -> pd.DataFrame:
        out = years.groupby("o_year", as_index=False)[["total", "nat"]].sum()
        share = [
            0 if t == 0 else (n * 1_000_000) // t
            for t, n in zip(out["total"].tolist(), out["nat"].tolist())
        ]
        return pd.DataFrame(
            {
                "o_year": out["o_year"].to_numpy(np.int64),
                "total_cc": out["total"].to_numpy(np.int64),
                "nation_cc": out["nat"].to_numpy(np.int64),
                "share_micros": np.array(share, np.int64),
            }
        )

    li = _t(
        sf_dir, "lineitem",
        ["l_partkey", "l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).map_batches(li_partials, batch_format="pyarrow", zero_copy_batch=True)
    parts = _t(sf_dir, "part", ["p_partkey", "p_type"]).map_batches(
        type_keys, batch_format="pyarrow", zero_copy_batch=True
    )
    ords = _t(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])
    cust = _t(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(
        region_custkeys, batch_format="pyarrow", zero_copy_batch=True
    )
    supp = _t(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    li = co_group(semi_part, li=(li, "l_partkey"), part=(parts, "p_partkey"))
    li = co_group(attach_order, li=(li, "l_orderkey"), orders=(ords, "o_orderkey"))
    li = co_group(semi_region, lo=(li, "o_custkey"), cust=(cust, "c_custkey"))
    years = co_group(fold_share, ly=(li, "l_suppkey"), supp=(supp, "s_suppkey"))
    return co_group(combine, years=(years, None))


# -- inter-event arrival-gap quantiles -------------------------------------------


def inter_event_quantiles(sf_dir: str) -> rd.Dataset:
    """(n_gaps, p25_s, p50_s, p75_s, p95_s): exact discrete quantiles of
    the per-user inter-event arrival gap, in whole seconds — the
    load-model signal behind session-gap and rate-limit tuning.

    Scale shape: events :func:`co_group` once on user_id (the same
    exchange sessionize_events uses); each group sorts its users
    locally and emits a (gap_s, n) HISTOGRAM partial — flooring gaps to
    seconds bounds the distinct-value domain, so the quantile is a
    cumulative-count read like event_quantiles, not a distributed
    sort."""
    import math

    import pandas as pd

    def gap_hist(ev: pd.DataFrame) -> pd.DataFrame:
        ev = ev.sort_values(["user_id", "ts", "event_id"], kind="stable")
        u = ev["user_id"].to_numpy(np.int64)
        ts = ev["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        gap = ts[1:] - ts[:-1]
        same = u[1:] == u[:-1]
        gap_s = gap[same] // 1_000_000
        uniq, counts = np.unique(gap_s, return_counts=True)
        return pd.DataFrame(
            {"gap_s": uniq.astype(np.int64), "n": counts.astype(np.int64)}
        )

    def quantiles(hist: pd.DataFrame) -> pd.DataFrame:
        # ≤ 64 × distinct-seconds histogram partials: sum the bins here
        # instead of paying a separate global aggregate exchange
        g = hist.groupby("gap_s", as_index=False)["n"].sum().sort_values("gap_s")
        cum = g["n"].to_numpy().cumsum()
        total = int(cum[-1])
        vals = g["gap_s"].to_numpy()

        def pick(q: float) -> int:
            rank = max(1, math.ceil(q * total))
            return int(vals[np.searchsorted(cum, rank, side="left")])

        return pd.DataFrame(
            {
                "n_gaps": np.array([total], np.int64),
                "p25_s": np.array([pick(0.25)], np.int64),
                "p50_s": np.array([pick(0.50)], np.int64),
                "p75_s": np.array([pick(0.75)], np.int64),
                "p95_s": np.array([pick(0.95)], np.int64),
            }
        )

    ev = _t(sf_dir, "events", ["user_id", "ts", "event_id"])
    hist = co_group(gap_hist, ev=(ev, "user_id"))
    return co_group(quantiles, hist=(hist, None))


# -- per-user event-type entropy --------------------------------------------------


def user_type_entropy(sf_dir: str) -> rd.Dataset:
    """(user_id, n_events, entropy_micros): Shannon surprisal of each
    user's event-type mix — Σ k·floor(ln(n/k)·1e6) in exact integers
    (the word_entropy identity on (user, type) counts); 0 for
    single-type users, higher = more diverse behavior.

    Scale shape: per-batch (user, type) Arrow partials, ONE user-keyed
    :func:`co_group` bounded by users × event types, vectorized
    per-group fold."""
    import pandas as pd

    def partials(batch: pa.Table) -> pa.Table:
        g = (
            pa.table(
                {
                    "user_id": batch.column("user_id"),
                    "event_type": batch.column("event_type"),
                }
            )
            .group_by(["user_id", "event_type"])
            .aggregate([("event_type", "count")])
        )
        return pa.table(
            {
                "user_id": pc.cast(g.column("user_id"), pa.int64()),
                "event_type": g.column("event_type"),
                "k": pc.cast(g.column("event_type_count"), pa.int64()),
            }
        )

    def fold(counts: pd.DataFrame) -> pd.DataFrame:
        c = counts.groupby(["user_id", "event_type"], as_index=False)["k"].sum()
        n = c.groupby("user_id")["k"].transform("sum").to_numpy(np.int64)
        k = c["k"].to_numpy(np.int64)
        term = k * np.floor(
            np.log(n.astype(np.float64) / k.astype(np.float64)) * 1e6
        ).astype(np.int64)
        out = (
            pd.DataFrame(
                {"user_id": c["user_id"].to_numpy(np.int64), "n": n, "t": term}
            )
            .groupby("user_id", as_index=False)
            .agg(n_events=("n", "first"), entropy_micros=("t", "sum"))
        )
        out["n_events"] = out["n_events"].astype(np.int64)
        out["entropy_micros"] = out["entropy_micros"].astype(np.int64)
        return out

    counts = _t(sf_dir, "events", ["user_id", "event_type"]).map_batches(
        partials, batch_format="pyarrow", zero_copy_batch=True
    )
    return co_group(fold, counts=(counts, "user_id"))


# -- ship-latency quantiles per order priority ------------------------------------


def ship_latency_quantiles(sf_dir: str) -> rd.Dataset:
    """(o_orderpriority, n_items, p50_days, p95_days): exact discrete
    quantiles of the order-date → ship-date latency in whole days, per
    order priority — the fulfillment-SLA report (does URGENT actually
    ship faster?).

    Scale shape: one orderkey :func:`co_group` attaches (orderdate,
    priority) to lineitem rows, then each bucket emits (priority,
    delay_days, n) HISTOGRAM partials — days bound the domain, so the
    final per-priority quantile reads cumulative counts over ≤ a few
    thousand bins, like event_quantiles."""
    import math

    import pandas as pd

    day_us = 86_400_000_000

    def delay_hist(li: pd.DataFrame, orders: pd.DataFrame) -> pd.DataFrame:
        if li.empty or orders.empty:
            return pd.DataFrame()
        m = li.merge(orders, left_on="l_orderkey", right_on="o_orderkey")
        # day-number difference, NOT floor((ship-order)/day): ship can
        # precede order in this data, and DuckDB's // truncates where
        # numpy floors — per-side day numbers are non-negative, so
        # truncation and floor agree exactly on both sides
        days = (
            m["l_shipdate"].to_numpy("datetime64[us]").astype(np.int64) // day_us
            - m["o_orderdate"].to_numpy("datetime64[us]").astype(np.int64) // day_us
        )
        out = (
            pd.DataFrame({"o_orderpriority": m["o_orderpriority"], "days": days})
            .groupby(["o_orderpriority", "days"], as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )
        return out.astype({"days": np.int64, "n": np.int64})

    def quantiles(g: pd.DataFrame) -> pd.DataFrame:
        t = g.groupby("days", as_index=False)["n"].sum().sort_values("days")
        cum = t["n"].to_numpy().cumsum()
        total = int(cum[-1])
        vals = t["days"].to_numpy()

        def pick(q: float) -> int:
            rank = max(1, math.ceil(q * total))
            return int(vals[np.searchsorted(cum, rank, side="left")])

        return pd.DataFrame(
            {
                "o_orderpriority": [g["o_orderpriority"].iloc[0]],
                "n_items": np.array([total], np.int64),
                "p50_days": np.array([pick(0.50)], np.int64),
                "p95_days": np.array([pick(0.95)], np.int64),
            }
        )

    li = _t(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
    ords = _t(sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_orderpriority"])
    return (
        co_group(delay_hist, li=(li, "l_orderkey"), orders=(ords, "o_orderkey"))
        .groupby("o_orderpriority")
        .map_groups(arrow_udf(quantiles), batch_format="pandas")
    )


# -- day-of-week x hour activity heatmap -------------------------------------------


def events_dow_hour(sf_dir: str) -> rd.Dataset:
    """(dow, hour, n, total_cents): the weekly activity heatmap —
    event count and integer-cents value per (day-of-week, hour-of-day)
    cell; dow 0 = Sunday (DuckDB's dayofweek convention, via epoch-day
    arithmetic: 1970-01-01 was a Thursday).

    Scale shape: pure in-batch Arrow partials over a ≤168-cell key
    domain, one tiny groupby — the canonical pre-aggregated rollup."""

    day_us = 86_400_000_000

    def partials(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch.column("ts"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("value"), 100.0)), pa.int64()
        )
        days = ts // day_us
        dow = (days + 4) % 7
        hour = (ts % day_us) // 3_600_000_000
        g = (
            pa.table(
                {
                    "dow": pa.array(dow.astype(np.int64)),
                    "hour": pa.array(hour.astype(np.int64)),
                    "cents": cents,
                }
            )
            .group_by(["dow", "hour"])
            .aggregate([("cents", "sum"), ("cents", "count")])
        )
        return pa.table(
            {
                "dow": g.column("dow"),
                "hour": g.column("hour"),
                "n": pc.cast(g.column("cents_count"), pa.int64()),
                "total_cents": g.column("cents_sum"),
            }
        )

    return (
        _t(sf_dir, "events", ["ts", "value"])
        .map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["dow", "hour"])
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("total_cents", alias_name="total_cents"),
        )
    )


# -- supplier revenue concentration per nation -------------------------------------


def supplier_concentration(sf_dir: str) -> rd.Dataset:
    """(n_name, n_suppliers, total_cc, top_cc, top_micros): how much of
    each nation's lineitem revenue its single largest supplier carries
    (integer-micros share) — the supply-chain concentration-risk
    screen.

    Scale shape: per-batch (suppkey, rev) Arrow partials
    :func:`co_group` once with the supplier table on suppkey; supplier
    totals are exact in-bucket, so each bucket forwards ONE (nation,
    sum, max, count) partial per nation and the 25-way combine folds
    ≤ buckets rows per nation."""
    import pandas as pd

    nation = _small_table_dict(sf_dir, "nation", "n_nationkey", "n_name")

    def per_nation(li: pd.DataFrame, supp: pd.DataFrame) -> pd.DataFrame:
        if li.empty or supp.empty:
            return pd.DataFrame()
        tot = li.groupby("l_suppkey", as_index=False)["rev_cc"].sum()
        m = tot.merge(supp, left_on="l_suppkey", right_on="s_suppkey")
        out = m.groupby("s_nationkey", as_index=False).agg(
            n_suppliers=("rev_cc", "size"),
            total_cc=("rev_cc", "sum"),
            top_cc=("rev_cc", "max"),
        )
        return out.astype(np.int64)

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        total = np.int64(g["total_cc"].sum())
        top = np.int64(g["top_cc"].max())
        share = np.int64(0) if total == 0 else np.int64(
            (int(top) * 1_000_000) // int(total)
        )
        return pd.DataFrame(
            {
                "n_name": [nation.get(int(g["s_nationkey"].iloc[0]), "UNKNOWN")],
                "n_suppliers": np.array([g["n_suppliers"].sum()], np.int64),
                "total_cc": [total],
                "top_cc": [top],
                "top_micros": [share],
            }
        )

    li = _lineitem_revenue_partials(sf_dir, "l_suppkey")
    supp = _t(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    return (
        co_group(per_nation, li=(li, "l_suppkey"), supp=(supp, "s_suppkey"))
        .groupby("s_nationkey")
        .map_groups(arrow_udf(combine), batch_format="pandas")
    )


# -- sole-late-supplier blame (TPC-H Q21 shape) ---------------------------------

LATE_SUPPLIER_DAYS = 365  # shipday - orderday gate, strict >


def sole_late_supplier(sf_dir: str, late_days: int = LATE_SUPPLIER_DAYS) -> rd.Dataset:
    """(s_name, n_orders): per supplier, the number of multi-supplier
    orders (>= 2 distinct suppliers) where THIS supplier shipped a
    lineitem more than ``late_days`` after the order date and no other
    supplier in the order did — TPC-H Q21's "suppliers who kept orders
    waiting" EXISTS / NOT-EXISTS pair over the available columns (our
    lineitem carries shipdate, not commit/receipt dates; the reference
    has no relational layer at all, SURVEY.md §2.4).

    Scale shape: lineitem collapses per batch to (orderkey, suppkey,
    max shipday) partials — max is associative, so the orderkey
    :func:`co_group` carries order×supplier-cardinality 25-byte rows,
    never lineitems.  Each bucket re-folds the partials, attaches the
    order date, and evaluates the whole blame predicate (late AND >= 2
    suppliers AND exactly one late supplier) in one vectorized pandas
    pass, emitting (suppkey, n) partial counts; a second suppkey
    :func:`co_group` folds those against the supplier dim rows to
    attach s_name — the dim scales with SF, so it rides the exchange,
    never a broadcast."""
    import pandas as pd

    day_us = 86_400_000_000

    def li_partials(batch: pa.Table) -> pa.Table:
        shipday = pc.divide(
            pc.cast(batch.column("l_shipdate"), pa.int64()), day_us
        )
        g = (
            pa.table(
                {
                    "l_orderkey": batch.column("l_orderkey"),
                    "l_suppkey": batch.column("l_suppkey"),
                    "shipday": shipday,
                }
            )
            .group_by(["l_orderkey", "l_suppkey"])
            .aggregate([("shipday", "max")])
        )
        return g.rename_columns(["l_orderkey", "l_suppkey", "shipday"])

    def blame(li: pd.DataFrame, orders: pd.DataFrame) -> pd.DataFrame:
        if li.empty or orders.empty:
            return pd.DataFrame()
        # re-fold cross-batch partials to the exact per-(order, supplier)
        # max; the inner merge drops orphan lineitems
        f = li.groupby(["l_orderkey", "l_suppkey"], as_index=False)["shipday"].max()
        f = f.merge(orders, left_on="l_orderkey", right_on="o_orderkey")
        oday = f["o_orderdate"].to_numpy("datetime64[us]").astype(np.int64) // day_us
        late = (f["shipday"].to_numpy(np.int64) - oday) > late_days
        per_order = (
            pd.DataFrame({"k": f["l_orderkey"], "late": late.astype(np.int64)})
            .groupby("k")
            .agg(n_supp=("late", "size"), n_late=("late", "sum"))
            .reindex(f["l_orderkey"])
        )
        blamed = f[
            late
            & (per_order["n_supp"].to_numpy() >= 2)
            & (per_order["n_late"].to_numpy() == 1)
        ]
        out = blamed.groupby("l_suppkey", as_index=False).size()
        return out.rename(columns={"size": "n"}).astype(np.int64)

    def attach_name(blames: pd.DataFrame, supp: pd.DataFrame) -> pd.DataFrame:
        if blames.empty or supp.empty:
            return pd.DataFrame()
        counts = blames.groupby("l_suppkey", as_index=False)["n"].sum()
        m = counts.merge(supp, left_on="l_suppkey", right_on="s_suppkey")
        return pd.DataFrame(
            {"s_name": m["s_name"], "n_orders": m["n"].to_numpy(np.int64)}
        )

    li = _t(sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_shipdate"]).map_batches(
        li_partials, batch_format="pyarrow", zero_copy_batch=True
    )
    ords = _t(sf_dir, "orders", ["o_orderkey", "o_orderdate"])
    blames = co_group(blame, li=(li, "l_orderkey"), orders=(ords, "o_orderkey"))
    supp = _t(sf_dir, "supplier", ["s_suppkey", "s_name"])
    return co_group(
        attach_name, blames=(blames, "l_suppkey"), supp=(supp, "s_suppkey")
    )


# -- ship-latency band x order-priority counts (TPC-H Q12 shape) -----------------

LATENCY_ON_TIME_DAYS = 365  # band edge: 0..365 on_time, > late, < 0 early
HIGH_PRIORITIES = ("1-URGENT", "2-HIGH")


def latency_band_priority(sf_dir: str) -> rd.Dataset:
    """(band, high_n, low_n): lineitem counts per ship-latency band
    (early / on_time / late vs the order date), split by high
    (1-URGENT / 2-HIGH) vs low order priority — TPC-H Q12's
    shipmode × priority matrix re-expressed over the available columns
    (our lineitem has no l_shipmode; latency bands play its role).

    Scale shape: lineitem collapses per batch to (orderkey, shipday, n)
    partials — distinct ship DAYS per order, not lineitems — so the
    orderkey :func:`co_group` carries near-order-cardinality rows;
    each bucket attaches (orderdate, priority), bands the day delta,
    and collapses to <= 3×2 partial cells; the final band-keyed
    combine folds buckets × 3 rows."""
    import pandas as pd

    day_us = 86_400_000_000

    def li_partials(batch: pa.Table) -> pa.Table:
        shipday = pc.divide(
            pc.cast(batch.column("l_shipdate"), pa.int64()), day_us
        )
        g = (
            pa.table({"l_orderkey": batch.column("l_orderkey"), "shipday": shipday})
            .group_by(["l_orderkey", "shipday"])
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "l_orderkey": g.column("l_orderkey"),
                "shipday": g.column("shipday"),
                "n": pc.cast(g.column("count_all"), pa.int64()),
            }
        )

    def band_cells(li: pd.DataFrame, orders: pd.DataFrame) -> pd.DataFrame:
        if li.empty or orders.empty:
            return pd.DataFrame()
        m = li.merge(orders, left_on="l_orderkey", right_on="o_orderkey")
        oday = m["o_orderdate"].to_numpy("datetime64[us]").astype(np.int64) // day_us
        days = m["shipday"].to_numpy(np.int64) - oday
        band = np.where(
            days < 0,
            "early",
            np.where(days <= LATENCY_ON_TIME_DAYS, "on_time", "late"),
        )
        high = m["o_orderpriority"].isin(HIGH_PRIORITIES).to_numpy()
        n = m["n"].to_numpy(np.int64)
        cells = pd.DataFrame(
            {"band": band, "high_n": np.where(high, n, 0), "low_n": np.where(high, 0, n)}
        ).groupby("band", as_index=False).sum()
        return cells.astype({"high_n": np.int64, "low_n": np.int64})

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "band": [g["band"].iloc[0]],
                "high_n": np.array([g["high_n"].sum()], np.int64),
                "low_n": np.array([g["low_n"].sum()], np.int64),
            }
        )

    li = _t(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"]).map_batches(
        li_partials, batch_format="pyarrow", zero_copy_batch=True
    )
    ords = _t(sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_orderpriority"])
    return (
        co_group(band_cells, li=(li, "l_orderkey"), orders=(ords, "o_orderkey"))
        .groupby("band")
        .map_groups(arrow_udf(combine), batch_format="pandas")
    )


# -- Pareto skyline of orders ----------------------------------------------------


def _pareto_front(df: "pd.DataFrame") -> "pd.DataFrame":
    """Exact 2-D skyline sweep (max price_cents, min order_day): the
    price-level min day, swept from the highest price down — a level
    survives iff its min day is STRICTLY below the running min of all
    higher-price levels (>= on either axis with equality on the other
    is domination); within a surviving level only min-day rows survive,
    so both-axes ties are all kept.  Used for both the per-batch local
    front and the global combine — front(S ∪ T) ⊆ front(S) ∪ front(T)
    makes the two-level application exact."""
    import pandas as pd  # noqa: F401

    lv = (
        df.groupby("price_cents", as_index=False)["order_day"]
        .min()
        .sort_values("price_cents", ascending=False)
    )
    run = lv["order_day"].cummin().shift(1, fill_value=np.iinfo(np.int64).max)
    keep_lv = lv[lv["order_day"].to_numpy() < run.to_numpy()]
    m = df.merge(
        keep_lv.rename(columns={"order_day": "min_day"}), on="price_cents"
    )
    out = m[m["order_day"] == m["min_day"]]
    return out[["o_orderkey", "price_cents", "order_day"]].astype(np.int64)


def pareto_orders(sf_dir: str) -> rd.Dataset:
    """(o_orderkey, price_cents, order_day): the 2-D Pareto front of
    orders — maximize total price, minimize order date ("the earliest
    orders at every spend level nothing beats on both axes"), the
    classic skyline query (Börzsönyi et al., ICDE 2001).  A point
    survives iff no other order has (price ≥, day ≤) with at least one
    strict; exact ties on BOTH axes are mutually non-dominating and all
    survive.

    Scale shape: skylines distribute because front(S ∪ T) ⊆
    front(S) ∪ front(T) — each batch collapses to its LOCAL front with
    a vectorized price-level cummin sweep (2-D fronts are typically
    O(log n) rows), and the exact global front is the same sweep over
    the union of local fronts in one keyless :func:`co_group`; the
    fact table never shuffles and the one exchange carries only front
    candidates."""
    import pandas as pd

    _day_us = 86_400_000_000

    def local_front(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "o_orderkey": batch.column("o_orderkey").to_numpy(
                    zero_copy_only=False
                ),
                "price_cents": pc.cast(
                    pc.round(pc.multiply(batch.column("o_totalprice"), 100.0)),
                    pa.int64(),
                ).to_numpy(zero_copy_only=False),
                "order_day": (
                    pc.cast(batch.column("o_orderdate"), pa.int64())
                    .to_numpy(zero_copy_only=False)
                    // _day_us
                ),
            }
        )
        return pa.Table.from_pandas(_pareto_front(df), preserve_index=False)

    fronts = _t(
        sf_dir, "orders", ["o_orderkey", "o_totalprice", "o_orderdate"]
    ).map_batches(local_front, batch_format="pyarrow", zero_copy_batch=True)
    return co_group(_pareto_front, df=(fronts, None))


# -- TPC-H Q2: minimum-cost supplier per part ---------------------------------

MIN_COST_MAX_SIZE = 10


def min_cost_supplier(sf_dir: str, max_size: int = MIN_COST_MAX_SIZE) -> rd.Dataset:
    """(p_partkey, s_suppkey, s_name, unit_cc): for every part with
    ``p_size <= max_size``, the supplier offering the lowest observed
    unit cost over shipment history — TPC-H Q2's min-supplycost
    correlated subquery, with lineitem unit prices standing in for
    partsupp (the driver tables carry no partsupp).  Unit cost is the
    exact integer ``price_cents * 10000 // qty_cents`` so Ray and the
    DuckDB oracle floor identically; ties break to the smallest
    suppkey (Q2 orders by supplier).

    Scale shape: per-batch Arrow (partkey, suppkey) min-cost partials
    :func:`co_group` ONCE with the size-filtered part keys on partkey
    (min is associative, so multi-batch partials stay exact
    in-bucket); each bucket keeps one argmin row per qualifying part,
    and a second suppkey :func:`co_group` attaches supplier names —
    nothing wider than (pk, sk, cost) ever moves."""
    import pandas as pd

    def li_partials(batch: pa.Table) -> pa.Table:
        # exact int64 floor division (matches SQL //): numpy, not a
        # float path, so no 2^53 representability caveat
        ucost = (
            _cents(batch.column("l_extendedprice")).to_numpy(zero_copy_only=False)
            * 10000
        ) // _cents(batch.column("l_quantity")).to_numpy(zero_copy_only=False)
        g = (
            pa.table(
                {
                    "l_partkey": batch.column("l_partkey"),
                    "l_suppkey": batch.column("l_suppkey"),
                    "unit_cc": pa.array(ucost, pa.int64()),
                }
            )
            .group_by(["l_partkey", "l_suppkey"])
            .aggregate([("unit_cc", "min")])
        )
        return g.rename_columns(["l_partkey", "l_suppkey", "unit_cc"])

    def size_keys(batch: pa.Table) -> pa.Table:
        b = batch.filter(
            pc.less_equal(batch.column("p_size"), pa.scalar(max_size, pa.int32()))
        )
        return b.select(["p_partkey"])

    def per_part_argmin(li: pd.DataFrame, part: pd.DataFrame) -> pd.DataFrame:
        if li.empty or part.empty:
            return pd.DataFrame()
        li = li[li["l_partkey"].isin(part["p_partkey"])]
        tot = li.groupby(["l_partkey", "l_suppkey"], as_index=False)["unit_cc"].min()
        best = tot.sort_values(["l_partkey", "unit_cc", "l_suppkey"]).drop_duplicates(
            "l_partkey"
        )
        return best.rename(columns={"l_partkey": "p_partkey"})

    def attach_names(best: pd.DataFrame, supp: pd.DataFrame) -> pd.DataFrame:
        if best.empty or supp.empty:
            return pd.DataFrame()
        m = best.merge(supp, left_on="l_suppkey", right_on="s_suppkey")
        return m[["p_partkey", "s_suppkey", "s_name", "unit_cc"]]

    li = _t(
        sf_dir, "lineitem",
        ["l_partkey", "l_suppkey", "l_quantity", "l_extendedprice"],
    ).map_batches(li_partials, batch_format="pyarrow", zero_copy_batch=True)
    parts = _t(sf_dir, "part", ["p_partkey", "p_size"]).map_batches(
        size_keys, batch_format="pyarrow", zero_copy_batch=True
    )
    best = co_group(per_part_argmin, li=(li, "l_partkey"), part=(parts, "p_partkey"))
    supp = _t(sf_dir, "supplier", ["s_suppkey", "s_name"])
    return co_group(attach_names, best=(best, "l_suppkey"), supp=(supp, "s_suppkey"))


# -- TPC-H Q16: supplier counts per (brand, size) -----------------------------

Q16_EXCL_BRAND = "Brand#13"
Q16_EXCL_TYPE_PREFIX = "PROMO"


def brand_supplier_counts(sf_dir: str) -> rd.Dataset:
    """(p_brand, p_size, supplier_cnt): how many distinct suppliers
    ship each (brand, size) slice, excluding one brand and one type
    prefix — TPC-H Q16's supplier-diversity report, with distinct
    lineitem (partkey, suppkey) pairs standing in for partsupp.

    Scale shape: per-batch distinct (pk, sk) pairs :func:`co_group`
    with the filtered part attribute rows on partkey; each bucket maps
    its pairs to (brand, size, sk) triples; the SECOND exchange keys
    on suppkey so every copy of a triple (the same supplier can reach
    one brand/size via parts in different partkey buckets) lands in
    one bucket, where a single drop_duplicates makes the distinct
    exact; per-bucket counts then sum in a keyless :func:`co_group`."""
    import pandas as pd

    def li_pairs(batch: pa.Table) -> pa.Table:
        return batch.group_by(["l_partkey", "l_suppkey"]).aggregate([])

    def part_rows(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.invert(pc.equal(batch.column("p_brand"), Q16_EXCL_BRAND)),
            pc.invert(
                pc.starts_with(batch.column("p_type"), Q16_EXCL_TYPE_PREFIX)
            ),
        )
        return batch.filter(keep).select(["p_partkey", "p_brand", "p_size"])

    def to_triples(pairs: pd.DataFrame, part: pd.DataFrame) -> pd.DataFrame:
        if pairs.empty or part.empty:
            return pd.DataFrame()
        m = pairs.merge(part, left_on="l_partkey", right_on="p_partkey")
        return m[["l_suppkey", "p_brand", "p_size"]]

    def bucket_counts(triples: pd.DataFrame) -> pd.DataFrame:
        d = triples.drop_duplicates()
        c = d.groupby(["p_brand", "p_size"], as_index=False).size()
        return pd.DataFrame(
            {
                "p_brand": c["p_brand"],
                "p_size": c["p_size"].to_numpy(np.int64),
                "n": c["size"].to_numpy(np.int64),
            }
        )

    def final(counts: pd.DataFrame) -> pd.DataFrame:
        agg = counts.groupby(["p_brand", "p_size"], as_index=False)["n"].sum()
        return pd.DataFrame(
            {
                "p_brand": agg["p_brand"].to_numpy(),
                "p_size": agg["p_size"].to_numpy(np.int64),
                "supplier_cnt": agg["n"].to_numpy(np.int64),
            }
        )

    li = _t(sf_dir, "lineitem", ["l_partkey", "l_suppkey"]).map_batches(
        li_pairs, batch_format="pyarrow", zero_copy_batch=True
    )
    parts = _t(
        sf_dir, "part", ["p_partkey", "p_brand", "p_type", "p_size"]
    ).map_batches(part_rows, batch_format="pyarrow", zero_copy_batch=True)
    triples = co_group(to_triples, pairs=(li, "l_partkey"), part=(parts, "p_partkey"))
    counts = co_group(bucket_counts, triples=(triples, "l_suppkey"))
    return co_group(final, counts=(counts, None))


# -- TPC-H Q20: dominant part suppliers ---------------------------------------

DOM_DATE_LO = "1997-01-01"
DOM_DATE_HI = "1998-01-01"


def dominant_suppliers(sf_dir: str) -> rd.Dataset:
    """(s_suppkey, s_name, n_parts): suppliers who shipped MORE THAN
    HALF of some contested part's total quantity in the window — TPC-H
    Q20's excess-stock shape (qty > 0.5 × total) with shipped quantity
    standing in for partsupp availability, counting only parts with at
    least two suppliers (so "dominant" is a real comparison, not a
    monopoly tautology).

    Scale shape: the date filter prunes at the batch level; per-batch
    (pk, sk, qty_cents) sum partials take one partkey exchange; each
    pk lives wholly in one bucket, so the 2·q > total and nsup ≥ 2
    gates are exact in-bucket and only (sk, n_dominated) partials
    leave; a second suppkey :func:`co_group` folds partials and
    attaches names."""
    import pandas as pd

    lo_us, hi_us = _epoch_us(DOM_DATE_LO), _epoch_us(DOM_DATE_HI)

    def li_partials(batch: pa.Table) -> pa.Table:
        ship = pc.cast(batch.column("l_shipdate"), pa.int64())
        b = batch.filter(
            pc.and_(
                pc.greater_equal(ship, pa.scalar(lo_us, pa.int64())),
                pc.less(ship, pa.scalar(hi_us, pa.int64())),
            )
        )
        g = (
            pa.table(
                {
                    "l_partkey": b.column("l_partkey"),
                    "l_suppkey": b.column("l_suppkey"),
                    "q": _cents(b.column("l_quantity")),
                }
            )
            .group_by(["l_partkey", "l_suppkey"])
            .aggregate([("q", "sum")])
        )
        return g.rename_columns(["l_partkey", "l_suppkey", "q"])

    def per_part_gate(li: pd.DataFrame) -> pd.DataFrame:
        ps = li.groupby(["l_partkey", "l_suppkey"], as_index=False)["q"].sum()
        tot = ps.groupby("l_partkey").agg(tq=("q", "sum"), nsup=("l_suppkey", "size"))
        m = ps.join(tot, on="l_partkey")
        dom = m[(2 * m["q"] > m["tq"]) & (m["nsup"] >= 2)]
        c = dom.groupby("l_suppkey", as_index=False).size()
        return c.rename(columns={"size": "n"}).astype(np.int64)

    def fold_names(dom: pd.DataFrame, supp: pd.DataFrame) -> pd.DataFrame:
        if dom.empty or supp.empty:
            return pd.DataFrame()
        agg = dom.groupby("l_suppkey", as_index=False)["n"].sum()
        m = agg.merge(supp, left_on="l_suppkey", right_on="s_suppkey")
        return pd.DataFrame(
            {
                "s_suppkey": m["s_suppkey"].to_numpy(np.int64),
                "s_name": m["s_name"],
                "n_parts": m["n"].to_numpy(np.int64),
            }
        )

    li = _t(
        sf_dir, "lineitem",
        ["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"],
    ).map_batches(li_partials, batch_format="pyarrow", zero_copy_batch=True)
    dom = co_group(per_part_gate, li=(li, "l_partkey"))
    supp = _t(sf_dir, "supplier", ["s_suppkey", "s_name"])
    return co_group(fold_names, dom=(dom, "l_suppkey"), supp=(supp, "s_suppkey"))


# -- robust (median/MAD) value anomalies ----------------------------------------

MAD_OUTLIER_MULT = 3


def robust_value_outliers(sf_dir: str) -> rd.Dataset:
    """(event_type, med_cents, mad_cents, n_outliers, n): robust
    per-type anomaly screen — median and MAD (median absolute
    deviation) of the event value, and how many events sit beyond
    median ± 3·MAD.  Unlike :func:`hourly_anomalies`' mean/σ gate,
    the median/MAD pair is unmoved by the outliers it hunts — the
    robust-statistics screen for long-tailed value streams.

    Exact integers end to end: values are cents, both medians use the
    discrete index ceil(n/2) = (n+1)//2 (DuckDB's quantile_disc rule,
    the event_quantiles convention).

    Scale shape: the event_quantiles histogram trick twice over —
    per-batch (type, cents, n) partial counts collapse the corpus to
    the bounded distinct-value domain; ONE exchange brings each type's
    full histogram into one group, where median, the |x−med| deviation
    histogram, MAD, and the outlier count are all cumsum reads —
    deviations never touch raw rows."""
    import pandas as pd

    def partials(batch: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("value"), 100.0)), pa.int64()
        )
        g = (
            pa.table({"event_type": batch.column("event_type"), "cents": cents})
            .group_by(["event_type", "cents"])
            .aggregate([("cents", "count")])
        )
        return pa.table(
            {
                "event_type": g.column("event_type"),
                "cents": g.column("cents"),
                "n": pc.cast(g.column("cents_count"), pa.int64()),
            }
        )

    def _disc_median(vals: np.ndarray, cnts: np.ndarray) -> int:
        # vals ascending; index = (n+1)//2 - 1 in the expanded order
        cum = cnts.cumsum()
        n = int(cum[-1])
        return int(vals[np.searchsorted(cum, (n + 1) // 2)])

    def robust(g: pd.DataFrame) -> pd.DataFrame:
        h = g.groupby("cents", as_index=False)["n"].sum().sort_values("cents")
        vals = h["cents"].to_numpy(np.int64)
        cnts = h["n"].to_numpy(np.int64)
        med = _disc_median(vals, cnts)
        dev = pd.DataFrame({"d": np.abs(vals - med), "n": cnts})
        dh = dev.groupby("d", as_index=False)["n"].sum().sort_values("d")
        mad = _disc_median(
            dh["d"].to_numpy(np.int64), dh["n"].to_numpy(np.int64)
        )
        n = int(cnts.sum())
        n_out = int(cnts[np.abs(vals - med) > MAD_OUTLIER_MULT * mad].sum())
        return pd.DataFrame(
            {
                "event_type": [g["event_type"].iloc[0]],
                "med_cents": np.array([med], np.int64),
                "mad_cents": np.array([mad], np.int64),
                "n_outliers": np.array([n_out], np.int64),
                "n": np.array([n], np.int64),
            }
        )

    return (
        _t(sf_dir, "events", ["event_type", "value"])
        .map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("event_type")
        .map_groups(arrow_udf(robust), batch_format="pandas")
    )


# -- customer value deciles ------------------------------------------------------


def _customer_rev_grid(sf_dir: str) -> rd.Dataset:
    """Materialized narrow (gkey, ck, rev) rows: every customer's exact
    lifetime order cents ``rev`` (in-batch partials, one custkey
    :func:`co_group`) and its constant log2-revenue grid cell
    ``gkey`` — pass one of the two-pass distributed rank that
    customer_value_deciles, gini_customer_revenue and
    revenue_concentration share."""
    import pandas as pd

    def ord_partials(batch: pa.Table) -> pa.Table:
        cents = _cents(batch.column("o_totalprice"))
        g = (
            pa.table({"ck": batch.column("o_custkey"), "rev": cents})
            .group_by(["ck"])
            .aggregate([("rev", "sum")])
        )
        return pa.table(
            {"ck": pc.cast(g.column("ck"), pa.int64()), "rev": g.column("rev_sum")}
        )

    def per_customer(parts: pd.DataFrame) -> pa.Table:
        tot = parts.groupby("ck", as_index=False)["rev"].sum()
        rev = tot["rev"].to_numpy(np.int64)
        grid = np.floor(np.log2(rev.astype(np.float64) + 2.0)).astype(np.int64)
        return pa.table(
            {
                "gkey": pa.array(grid),
                "ck": pa.array(tot["ck"].to_numpy(np.int64)),
                "rev": pa.array(rev),
            }
        )

    parts = _t(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(
        ord_partials, batch_format="pyarrow", zero_copy_batch=True
    )
    return co_group(per_customer, parts=(parts, "ck")).materialize()


VALUE_DECILES = 10


def customer_value_deciles(sf_dir: str, tiles: int = VALUE_DECILES) -> rd.Dataset:
    """(decile, n_customers, total_cc, min_cc, max_cc): customers
    ranked by lifetime order value and split into ``tiles`` rank-tiles
    (SQL ntile sizing: the first n % tiles tiles take one extra row;
    order (rev ASC, custkey ASC)) — the customer-segmentation rollup.

    Scale shape: per-customer revenue is exact after one custkey
    :func:`co_group` (:func:`_customer_rev_grid`); ranks then use the ccnet/
    shuffle_shards two-pass distributed-rank pattern — a constant
    log2-revenue grid of counts folds on the driver, one co-shuffle on
    the grid key gives every row its global rank = grid offset + local
    sort position (equal revenues share a grid cell, so offsets align
    with the (rev, ck) order), and each group emits per-decile partials
    that a keyless :func:`co_group` folds to ``tiles`` rows."""
    import pandas as pd

    per_cust = _customer_rev_grid(sf_dir)

    counts = (
        per_cust.groupby("gkey")
        .count()
        .to_pandas()
        .sort_values("gkey")
        .reset_index(drop=True)
    )
    n_total = int(counts["count()"].sum())
    offsets = {
        int(k): int(v)
        for k, v in zip(
            counts["gkey"], counts["count()"].cumsum() - counts["count()"]
        )
    }
    base, extra = divmod(n_total, tiles)

    def decile_partials(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["rev", "ck"])
        start = offsets[int(g["gkey"].iloc[0])]
        rank = start + np.arange(len(g), dtype=np.int64)
        # ntile: first `extra` tiles have base+1 rows
        cut = extra * (base + 1)
        dec = np.where(
            rank < cut, rank // max(base + 1, 1), extra + (rank - cut) // max(base, 1)
        ).astype(np.int64)
        rev = g["rev"].to_numpy(np.int64)
        agg = pd.DataFrame({"decile": dec, "rev": rev}).groupby(
            "decile", as_index=False
        ).agg(
            n_customers=("rev", "size"),
            total_cc=("rev", "sum"),
            min_cc=("rev", "min"),
            max_cc=("rev", "max"),
        )
        return agg

    def final(deciles: pd.DataFrame) -> pd.DataFrame:
        agg = deciles.groupby("decile", as_index=False).agg(
            n_customers=("n_customers", "sum"),
            total_cc=("total_cc", "sum"),
            min_cc=("min_cc", "min"),
            max_cc=("max_cc", "max"),
        )
        for c in ("decile", "n_customers", "total_cc", "min_cc", "max_cc"):
            agg[c] = agg[c].astype(np.int64)
        return agg[["decile", "n_customers", "total_cc", "min_cc", "max_cc"]]

    deciles = per_cust.groupby("gkey").map_groups(
        arrow_udf(decile_partials), batch_format="pandas"
    )
    return co_group(final, deciles=(deciles, None))


def event_trigrams(sf_dir: str, k: int = 25) -> rd.Dataset:
    """(t1, t2, t3, n): the ``k`` most frequent 3-step event-type paths
    across users (consecutive triples in each user's (ts, event_id)
    order, ties by (n DESC, t1, t2, t3)) — second-order sequence mining
    on top of :func:`event_transitions`' first-order matrix: a funnel
    A→B→C that the pairwise counts can't see.

    Scale shape: identical to event_transitions — one user-keyed
    :func:`co_group` of narrow rows, per-group vectorized lexsort with
    two-step boundary masks collapsing to ≤ types³ triple partials,
    and a keyless :func:`co_group` that sums them and cuts the top-k."""
    import pandas as pd

    def triple_partials(ev: pd.DataFrame) -> pa.Table:
        u = ev["user_id"].to_numpy(np.int64)
        order = np.lexsort(
            (ev["event_id"].to_numpy(np.int64), ev["ts"].to_numpy(), u)
        )
        u = u[order]
        t = ev["event_type"].to_numpy()[order]
        same = (u[:-2] == u[1:-1]) & (u[1:-1] == u[2:])
        df = pd.DataFrame(
            {"t1": t[:-2][same], "t2": t[1:-1][same], "t3": t[2:][same]}
        )
        out = df.groupby(["t1", "t2", "t3"], as_index=False).size()
        return pa.table(
            {
                "t1": pa.array(out["t1"], pa.string()),
                "t2": pa.array(out["t2"], pa.string()),
                "t3": pa.array(out["t3"], pa.string()),
                "n": pa.array(out["size"].to_numpy(np.int64), pa.int64()),
            }
        )

    def combine_topk(triples: pd.DataFrame) -> pd.DataFrame:
        agg = triples.groupby(["t1", "t2", "t3"], as_index=False)["n"].sum()
        agg = agg.sort_values(
            ["n", "t1", "t2", "t3"], ascending=[False, True, True, True]
        ).head(k)
        agg["n"] = agg["n"].astype(np.int64)
        return agg.reset_index(drop=True)

    ev = _t(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"])
    triples = co_group(triple_partials, ev=(ev, "user_id"))
    return co_group(combine_topk, triples=(triples, None))


def user_drawdowns(sf_dir: str) -> rd.Dataset:
    """(user_id, peak_cents, max_drawdown_cents, n_events): each user's
    maximum drawdown — the largest drop from a running peak of the
    event value in (ts, event_id) order — the classic risk /
    engagement-decay signal over a per-entity time series, and the
    windowed-cummax shape (MAX OVER ROWS UNBOUNDED PRECEDING) no other
    operator exercises.

    Exact integer cents; users with one event report drawdown 0.

    Scale shape: one user-keyed :func:`co_group` of narrow rows (the
    event_transitions exchange); each group lexsorts once and computes
    every user's running max with a segment-reset np.maximum.accumulate
    — per-user output is ONE row, so nothing user-cardinality-squared
    ever exists."""
    import pandas as pd

    def drawdown(ev: pd.DataFrame) -> pd.DataFrame:
        u = ev["user_id"].to_numpy(np.int64)
        order = np.lexsort(
            (ev["event_id"].to_numpy(np.int64), ev["ts"].to_numpy(), u)
        )
        u = u[order]
        v = ev["cents"].to_numpy(np.int64)[order]
        # segment-reset running max: subtract a per-segment offset big
        # enough that accumulate never bleeds across user boundaries
        starts = np.flatnonzero(np.concatenate([[True], u[1:] != u[:-1]]))
        seg = np.zeros(len(u), np.int64)
        seg[starts] = 1
        seg = seg.cumsum() - 1  # 0-based segment index per row
        shift = (v.max() - v.min() + 1) if len(v) else 1
        runmax = np.maximum.accumulate(v + seg * shift) - seg * shift
        dd = runmax - v
        df = pd.DataFrame({"u": u, "peak": runmax, "dd": dd})
        agg = df.groupby("u", as_index=False).agg(
            peak_cents=("peak", "max"),
            max_drawdown_cents=("dd", "max"),
            n_events=("dd", "size"),
        )
        return pd.DataFrame(
            {
                "user_id": agg["u"].to_numpy(np.int64),
                "peak_cents": agg["peak_cents"].to_numpy(np.int64),
                "max_drawdown_cents": agg["max_drawdown_cents"].to_numpy(np.int64),
                "n_events": agg["n_events"].to_numpy(np.int64),
            }
        )

    return co_group(drawdown, ev=(_event_cents(sf_dir), "user_id"))


# -- TPC-H Q9 shape: revenue by supplier nation x ship year ----------------------

def nation_year_revenue(sf_dir: str) -> rd.Dataset:
    """(n_name, year, revenue_cc): discounted lineitem revenue by the
    SUPPLIER's nation and ship year — TPC-H Q9's profit rollup over
    the available columns (no partsupp supplycost, so revenue stands
    in for profit).  The two-level rollup no single-dim operator
    covers: a year-refined :func:`supplier_value_by_nation`.

    Scale shape: per-batch (suppkey, year, rev) Arrow partials — year
    extracted as epoch-day // 365.2425 is WRONG; Arrow's calendar
    ``year()`` is identical to SQL year() — :func:`co_group` once with
    supplier nation rows on suppkey; each bucket folds to ≤ nations ×
    years rows and a keyless :func:`co_group` combine finishes."""
    import pandas as pd

    nation = _small_table_dict(sf_dir, "nation", "n_nationkey", "n_name")

    def li_partials(batch: pa.Table) -> pa.Table:
        g = (
            pa.table(
                {
                    "l_suppkey": batch.column("l_suppkey"),
                    "year": pc.cast(pc.year(batch.column("l_shipdate")), pa.int64()),
                    "rev": _rev_cc(batch),
                }
            )
            .group_by(["l_suppkey", "year"])
            .aggregate([("rev", "sum")])
        )
        return g.rename_columns(["l_suppkey", "year", "rev"])

    def fold(li: pd.DataFrame, supp: pd.DataFrame) -> pd.DataFrame:
        if li.empty or supp.empty:
            return pd.DataFrame()
        m = li.merge(supp, left_on="l_suppkey", right_on="s_suppkey")
        m["n_name"] = m["s_nationkey"].map(nation)
        agg = m.groupby(["n_name", "year"], as_index=False)["rev"].sum()
        return agg.astype({"year": np.int64, "rev": np.int64})

    def final(parts: pd.DataFrame) -> pd.DataFrame:
        agg = parts.groupby(["n_name", "year"], as_index=False)["rev"].sum()
        return pd.DataFrame(
            {
                "n_name": agg["n_name"].to_numpy(),
                "year": agg["year"].to_numpy(np.int64),
                "revenue_cc": agg["rev"].to_numpy(np.int64),
            }
        )

    li = _t(
        sf_dir, "lineitem",
        ["l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"],
    ).map_batches(li_partials, batch_format="pyarrow", zero_copy_batch=True)
    supp = _t(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    parts = co_group(fold, li=(li, "l_suppkey"), supp=(supp, "s_suppkey"))
    return co_group(final, parts=(parts, None))


def gini_customer_revenue(sf_dir: str) -> rd.Dataset:
    """(n_customers, total_cc, gini_micros): the Gini coefficient of
    customer lifetime order value — the standard inequality summary
    (0 = everyone equal, →1 = one whale), via the sorted-rank identity
    G = (2·Σ i·xᵢ − (n+1)·Σx) / (n·Σx) over x ascending — the
    whale-risk companion to :func:`customer_value_deciles`.

    Everything before the single final division is exact integer
    arithmetic; the division is a true floor on both engines (the
    numerator is non-negative by the Chebyshev sum inequality).
    Per-bucket Σ i·xᵢ stays under int64 through sf1-scale customer
    counts; the driver's final fold uses Python ints (arbitrary
    precision), the SQL mirror HUGEINT.

    Scale shape: the customer_value_deciles two-pass distributed rank
    (:func:`_customer_rev_grid` → in-cell global ranks), but each grid
    cell emits ONE (n, Σx, Σi·x) moment row to a keyless
    :func:`co_group` fold."""
    import pandas as pd

    per_cust = _customer_rev_grid(sf_dir)

    counts = (
        per_cust.groupby("gkey")
        .count()
        .to_pandas()
        .sort_values("gkey")
        .reset_index(drop=True)
    )
    offsets = {
        int(k): int(v)
        for k, v in zip(
            counts["gkey"], counts["count()"].cumsum() - counts["count()"]
        )
    }

    def moment_partials(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["rev", "ck"])
        start = offsets[int(g["gkey"].iloc[0])]
        rank = start + 1 + np.arange(len(g), dtype=np.int64)  # 1-based
        rev = g["rev"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "n": np.array([len(g)], np.int64),
                "s0": np.array([rev.sum()], np.int64),
                "s1": np.array([(rank * rev).sum()], np.int64),
            }
        )

    def final(moments: pd.DataFrame) -> pd.DataFrame:
        n = int(moments["n"].sum())
        s0 = int(moments["s0"].sum())
        s1 = int(moments["s1"].sum())
        gini = ((2 * s1 - (n + 1) * s0) * 1_000_000) // (n * s0)
        return pd.DataFrame(
            {
                "n_customers": np.array([n], np.int64),
                "total_cc": np.array([s0], np.int64),
                "gini_micros": np.array([gini], np.int64),
            }
        )

    moments = per_cust.groupby("gkey").map_groups(
        arrow_udf(moment_partials), batch_format="pandas"
    )
    return co_group(final, moments=(moments, None))


def user_value_autocorr(sf_dir: str) -> rd.Dataset:
    """(user_id, n_pairs, r_micros): lag-1 Pearson autocorrelation of
    each user's event-value series in (ts, event_id) order — the
    behavioral-persistence signal (r → 1: sticky spend levels; r < 0:
    alternating bursts).  Users with < 3 events (or a constant-value
    side) are dropped — r is undefined there on both engines.

    Float discipline (the ols_residuals pattern): the five moment sums
    over lagged pairs are exact integer cents; each engine casts the
    SAME integers to double once and applies the same IEEE expression
    r = (n·Σxy − Σx·Σy) / (sqrt(n·Σx² − Σx²ᵗᵒᵗ) · sqrt(n·Σy² − …)),
    floored to micros.

    Scale shape: one user-keyed :func:`co_group` of narrow rows;
    per-group lexsort, boundary-masked lag pairs, and a vectorized per-user
    moment groupby — one row per qualifying user out."""
    import pandas as pd

    def autocorr(ev: pd.DataFrame) -> pd.DataFrame:
        u = ev["user_id"].to_numpy(np.int64)
        order = np.lexsort(
            (ev["event_id"].to_numpy(np.int64), ev["ts"].to_numpy(), u)
        )
        u = u[order]
        v = ev["cents"].to_numpy(np.int64)[order]
        same = u[:-1] == u[1:]
        x, y, uu = v[:-1][same], v[1:][same], u[:-1][same]
        df = pd.DataFrame(
            {"u": uu, "x": x, "y": y, "xy": x * y, "xx": x * x, "yy": y * y}
        )
        m = df.groupby("u").agg(
            n=("x", "size"), sx=("x", "sum"), sy=("y", "sum"),
            sxy=("xy", "sum"), sxx=("xx", "sum"), syy=("yy", "sum"),
        )
        m = m[m["n"] >= 2]
        n = m["n"].to_numpy(np.int64).astype(np.float64)
        sx = m["sx"].to_numpy(np.int64).astype(np.float64)
        sy = m["sy"].to_numpy(np.int64).astype(np.float64)
        vx = m["n"].to_numpy(np.int64) * m["sxx"].to_numpy(np.int64) - (
            m["sx"].to_numpy(np.int64) ** 2
        )
        vy = m["n"].to_numpy(np.int64) * m["syy"].to_numpy(np.int64) - (
            m["sy"].to_numpy(np.int64) ** 2
        )
        keep = (vx > 0) & (vy > 0)
        m, n, sx, sy, vx, vy = m[keep], n[keep], sx[keep], sy[keep], vx[keep], vy[keep]
        cov = (
            m["n"].to_numpy(np.int64) * m["sxy"].to_numpy(np.int64)
            - m["sx"].to_numpy(np.int64) * m["sy"].to_numpy(np.int64)
        ).astype(np.float64)
        r = cov / (np.sqrt(vx.astype(np.float64)) * np.sqrt(vy.astype(np.float64)))
        return pd.DataFrame(
            {
                "user_id": m.index.to_numpy(np.int64),
                "n_pairs": m["n"].to_numpy(np.int64),
                "r_micros": np.floor(r * 1_000_000).astype(np.int64),
            }
        )

    return co_group(autocorr, ev=(_event_cents(sf_dir), "user_id"))


def value_cume_dist(sf_dir: str) -> rd.Dataset:
    """(event_id, event_type, cd_micros): each event's value quantile
    within its type — cume_dist as the exact integer
    (count of peers ≤ value · 1e6) // n — the rank-based feature
    normalization (quantile transform) a model pipeline applies before
    mixing heavy-tailed signals.  Row-level output: every event gets
    its normalized score.

    Scale shape: the per-type value histogram is a bounded model
    artifact (the event_quantiles trick); it folds once on the driver,
    broadcasts, and the annotation pass is map-only — a searchsorted
    per batch, no second exchange, no row-level shuffle."""
    import ray

    def hist_partials(batch: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("value"), 100.0)), pa.int64()
        )
        g = (
            pa.table({"event_type": batch.column("event_type"), "cents": cents})
            .group_by(["event_type", "cents"])
            .aggregate([("cents", "count")])
        )
        return pa.table(
            {
                "event_type": g.column("event_type"),
                "cents": g.column("cents"),
                "n": pc.cast(g.column("cents_count"), pa.int64()),
            }
        )

    hist = (
        _t(sf_dir, "events", ["event_type", "value"])
        .map_batches(hist_partials, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
        .groupby(["event_type", "cents"], as_index=False)["n"]
        .sum()
    )
    tables = {}
    for t, g in hist.groupby("event_type"):
        g = g.sort_values("cents")
        vals = g["cents"].to_numpy(np.int64)
        cum = g["n"].to_numpy(np.int64).cumsum()
        tables[t] = (vals, cum, int(cum[-1]))
    ref = ray.put(tables)

    def annotate(batch: pa.Table) -> pa.Table:
        lut = ray.get(ref)
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("value"), 100.0)), pa.int64()
        ).to_numpy(zero_copy_only=False)
        types = batch.column("event_type").to_pylist()
        out = np.empty(len(cents), np.int64)
        for t in set(types):
            vals, cum, n = lut[t]
            m = np.array([x == t for x in types])
            le = cum[np.searchsorted(vals, cents[m], side="right") - 1]
            out[m] = (le * 1_000_000) // n
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "event_type": batch.column("event_type"),
                "cd_micros": pa.array(out),
            }
        )

    return _t(sf_dir, "events", ["event_id", "event_type", "value"]).map_batches(
        annotate, batch_format="pyarrow", zero_copy_batch=True
    )


LEAVE_LAST_K = 2


def leave_last_k(sf_dir: str, k: int = LEAVE_LAST_K) -> rd.Dataset:
    """(event_id, user_id, split): the recommendation-style evaluation
    split — each user's LAST ``k`` events (by (ts, event_id)) are
    'test', everything earlier is 'train' — per-entity temporal holdout
    that :func:`filter.leakage_safe_split`'s group-keyed hash split
    cannot express (it assigns whole users; this holds out each user's
    future).  Users with ≤ k events contribute only test rows.

    Scale shape: one user-keyed :func:`co_group` of narrow rows;
    per-group vectorized lexsort + reversed segment rank (no per-user Python);
    row-level output, nothing user-squared."""
    import pandas as pd

    def tag(ev: pd.DataFrame) -> pd.DataFrame:
        u = ev["user_id"].to_numpy(np.int64)
        eid = ev["event_id"].to_numpy(np.int64)
        order = np.lexsort((eid, ev["ts"].to_numpy(), u))
        u, eid = u[order], eid[order]
        # rank from each segment's END: seg_end(i) = the FIRST boundary
        # index at or after i — a suffix MIN over boundary positions
        # (a suffix max would pin every row to the bucket's final row;
        # that bug hid at sf0.001 where each bucket held one user)
        idx = np.arange(len(u), dtype=np.int64)
        is_last = np.concatenate([u[1:] != u[:-1], [True]])
        seg_end = np.minimum.accumulate(
            np.where(is_last, idx, len(u))[::-1]
        )[::-1]
        rev_rank = seg_end - idx
        split = np.where(rev_rank < k, "test", "train")
        return pd.DataFrame(
            {
                "event_id": eid,
                "user_id": u,
                "split": split,
            }
        )

    ev = _t(sf_dir, "events", ["user_id", "ts", "event_id"])
    return co_group(tag, ev=(ev, "user_id"))


CONC_PCT_NUM, CONC_PCT_DEN = 4, 5  # the "80" of the 80/20 summary


def revenue_concentration(sf_dir: str) -> rd.Dataset:
    """(n_customers, n_top, top_share_micros, rev_share_micros): the
    80/20 concentration summary — the smallest customer count whose
    combined revenue reaches ≥ 80% of the total (integer predicate
    5·cum ≥ 4·total), customers ordered (rev DESC, custkey ASC).
    Reports what fraction of customers that is and the share they
    actually carry — the whale-dependence number next to
    :func:`gini_customer_revenue`'s integral view.

    Scale shape: a distributed THRESHOLD SEARCH — the constant
    log2-revenue grid's per-cell (count, sum) moments locate which
    single cell the 80% boundary crosses (grid cells are monotone in
    revenue, so cells above the boundary contribute wholesale); only
    that one cell's group then resolves the exact cut in-bucket with a
    vectorized cumsum, emitting ONE row.  No pass ships more than grid
    moments; the wide data never moves."""
    import pandas as pd

    per_cust = _customer_rev_grid(sf_dir)

    def cell_moments(cust: pd.DataFrame) -> pd.DataFrame:
        return cust.groupby("gkey", as_index=False).agg(
            n=("rev", "size"), s=("rev", "sum")
        ).astype(np.int64)

    grid = (
        co_group(cell_moments, cust=(per_cust, None))
        .to_pandas()
        .sort_values("gkey", ascending=False)
        .reset_index(drop=True)
    )
    n_total = int(grid["n"].sum())
    s_total = int(grid["s"].sum())
    # walk cells from the richest down until the NEXT cell would cross
    n_before, s_before, g_star = 0, 0, int(grid["gkey"].iloc[0])
    for _, row in grid.iterrows():
        g_star = int(row["gkey"])
        if CONC_PCT_DEN * (s_before + int(row["s"])) >= CONC_PCT_NUM * s_total:
            break  # the boundary falls inside this cell
        n_before += int(row["n"])
        s_before += int(row["s"])

    def resolve(cell: pd.DataFrame) -> pd.DataFrame:
        g = cell.sort_values(["rev", "ck"], ascending=[False, True])
        cum = s_before + g["rev"].to_numpy(np.int64).cumsum()
        pos = int(
            np.argmax(CONC_PCT_DEN * cum >= CONC_PCT_NUM * s_total)
        )
        n_top = n_before + pos + 1
        share = int(cum[pos])
        return pd.DataFrame(
            {
                "n_customers": np.array([n_total], np.int64),
                "n_top": np.array([n_top], np.int64),
                "top_share_micros": np.array(
                    [(n_top * 1_000_000) // n_total], np.int64
                ),
                "rev_share_micros": np.array(
                    [(share * 1_000_000) // s_total], np.int64
                ),
            }
        )

    return co_group(resolve, cell=(per_cust.filter(expr=f"gkey == {g_star}"), None))


# -- Poisson bootstrap over the deterministic shuffle hash ----------------------

BOOT_REPS = 32
BOOT_WMAX = 8  # Poisson(1) tail beyond 7 is < 1e-5; cap the CDF ladder


def _poisson_thresholds() -> "list[int]":
    """Integer thresholds T_k = floor(CDF_Poisson(1)(k) · SHUF_P):
    a hash value u ∈ [0, SHUF_P) maps to weight
    w = |{k : T_k ≤ u}| — the inverse-CDF draw both engines share."""
    import math

    from .pack import SHUF_P

    cdf, acc = [], 0.0
    for k in range(BOOT_WMAX):
        acc += math.exp(-1.0) / math.factorial(k)
        cdf.append(min(acc, 1.0))
    return [math.floor(c * SHUF_P) for c in cdf]


def bootstrap_mean_ci(sf_dir: str, reps: int = BOOT_REPS) -> rd.Dataset:
    """(b, n_eff, sum_cc, mean_milli): ``reps`` Poisson-bootstrap
    replicates of the mean order value — each row enters replicate b
    with weight ~ Poisson(1) drawn by inverse-CDF from the
    deterministic shuffle hash of ``o_orderkey·reps + b``, so the
    whole resampling study is ONE streaming pass (the at-scale
    bootstrap: no materialized resamples, no RNG state) and both
    engines draw identical weights.  The replicate spread IS the
    sampling distribution — percentiles of ``mean_milli`` give the CI.

    Scale shape: per-batch (b, Σw, Σw·x) partials — constant reps-row
    output per batch — then one ``reps``-key combine.  mean_milli is
    the exact floor (sum_cc · 1000) // n_eff on both sides."""
    import pandas as pd

    from .pack import shuffle_key

    T = np.array(_poisson_thresholds(), np.int64)

    def partials(batch: pa.Table) -> pa.Table:
        okey = batch.column("o_orderkey").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("o_totalprice"), 100.0)),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        bs, ns, ss = [], [], []
        for b in range(reps):
            u = shuffle_key(okey * reps + b)
            w = np.searchsorted(T, u, side="right").astype(np.int64)
            bs.append(b)
            ns.append(int(w.sum()))
            ss.append(int((w * cents).sum()))
        return pa.table(
            {
                "b": pa.array(bs, pa.int64()),
                "n": pa.array(ns, pa.int64()),
                "s": pa.array(ss, pa.int64()),
            }
        )

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        n = int(g["n"].sum())
        s = int(g["s"].sum())
        return pd.DataFrame(
            {
                "b": np.array([int(g["b"].iloc[0])], np.int64),
                "n_eff": np.array([n], np.int64),
                "sum_cc": np.array([s], np.int64),
                "mean_milli": np.array(
                    [(s * 1000) // n if n else 0], np.int64
                ),
            }
        )

    return (
        _t(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
        .map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("b")
        .map_groups(arrow_udf(combine), batch_format="pandas")
    )


def hour_of_day_effect(sf_dir: str) -> rd.Dataset:
    """(n, n_groups, eta2_micros): how much of the event-value variance
    the hour-of-day explains — the ANOVA effect size
    η² = SS_between / SS_total over the 24 hour groups, the
    seasonality-strength scalar behind :func:`events_dow_hour`'s
    visual matrix (η² → 0: no diurnal structure; → 1: value is a pure
    function of the hour).

    Exact integers end to end — no float sum anywhere (a double
    Σ S_g²/n_g would be addition-order-dependent, which SQL SUM does
    not pin): the between/total identity is evaluated as
    T = Σ_g (S_g²·K) // n_g with K = 1000 (per-group floor, defined
    identically on both engines), then
    η²_micros = ((N·T − K·S²) · 1e6) // (K·(N·Q − S²)).  The K-scaled
    per-group floor biases η² by < 1/(K·n_g) — microscopic against the
    1e-6 reporting grid.  Magnitudes pass through Python ints here and
    HUGEINT in the mirror.

    Scale shape: one streaming pass of per-batch (hour, n, S, Q)
    partials — a constant 24-row output per batch — then one keyless
    :func:`co_group` fold to a single row, driver-free."""
    import pandas as pd

    def partials(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch.column("ts"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        hour = (ts // 3_600_000_000) % 24
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("value"), 100.0)), pa.int64()
        ).to_numpy(zero_copy_only=False)
        n = np.bincount(hour, minlength=24).astype(np.int64)
        # int64 accumulators (np.add.at), not float64 bincount weights:
        # exactness then holds to 2^63 per hour per batch instead of
        # 2^53 — larger blocks or larger values can't silently break
        # the integer contract
        s = np.zeros(24, np.int64)
        np.add.at(s, hour, cents)
        q = np.zeros(24, np.int64)
        np.add.at(q, hour, cents * cents)
        return pa.table(
            {
                "hour": pa.array(np.arange(24, dtype=np.int64)),
                "n": pa.array(n),
                "s": pa.array(s),
                "q": pa.array(q),
            }
        )

    def fold(parts: pd.DataFrame) -> pd.DataFrame:
        K = 1000
        agg = parts.groupby("hour", as_index=False)[["n", "s", "q"]].sum()
        agg = agg[agg["n"] > 0]
        N = int(agg["n"].sum())
        S = int(agg["s"].sum())
        Q = int(agg["q"].sum())
        t = sum(
            (int(r["s"]) * int(r["s"]) * K) // int(r["n"])
            for _, r in agg.iterrows()
        )  # Python ints: S_g² exceeds int64 at sf0.1
        den = K * (N * Q - S * S)
        # the numerator can be slightly negative when between-hour
        # variance is ~0 (per-group floors bound it only from below);
        # clamp to 0 on BOTH engines — Python // floors to -1 where
        # DuckDB // truncates to 0 (the CLAUDE.md division gotcha)
        num = max(0, N * t - K * S * S)
        eta2_micros = 0 if den <= 0 else (num * 1_000_000) // den
        return pd.DataFrame(
            {
                "n": np.array([N], np.int64),
                "n_groups": np.array([len(agg)], np.int64),
                "eta2_micros": np.array([eta2_micros], np.int64),
            }
        )

    parts = _t(sf_dir, "events", ["ts", "value"]).map_batches(
        partials, batch_format="pyarrow", zero_copy_batch=True
    )
    return co_group(fold, parts=(parts, None))


def target_encode_events(sf_dir: str) -> rd.Dataset:
    """(event_id, event_type, loo_mean_milli): leave-one-out target
    encoding of the event type — each event's feature is the mean
    value of its type EXCLUDING itself, (S_t − x) / (n_t − 1) in
    floor-division milli-cents — the leakage-safe categorical encoder
    (plain per-category means leak each row's own target into its
    feature; LOO is the standard fix).  Singleton types fall back to
    the global LOO mean on both engines.

    Scale shape: the per-type (n, S) moments are a bounded artifact
    (one streaming fold, types are a small closed set); they broadcast
    in-closure and the encoding pass is map-only row-level output —
    the value_cume_dist shape with a different statistic."""
    def moment_partials(batch: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("value"), 100.0)), pa.int64()
        )
        g = (
            pa.table({"event_type": batch.column("event_type"), "c": cents})
            .group_by(["event_type"])
            .aggregate([("c", "count"), ("c", "sum")])
        )
        return pa.table(
            {
                "event_type": g.column("event_type"),
                "n": pc.cast(g.column("c_count"), pa.int64()),
                "s": g.column("c_sum"),
            }
        )

    m = (
        _t(sf_dir, "events", ["event_type", "value"])
        .map_batches(moment_partials, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
        .groupby("event_type", as_index=False)[["n", "s"]]
        .sum()
    )
    lut = {
        str(r["event_type"]): (int(r["n"]), int(r["s"]))
        for _, r in m.iterrows()
    }
    n_all, s_all = int(m["n"].sum()), int(m["s"].sum())

    def encode(batch: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("value"), 100.0)), pa.int64()
        ).to_numpy(zero_copy_only=False)
        types = batch.column("event_type").to_pylist()
        out = np.empty(len(cents), np.int64)
        for t in set(types):
            n_t, s_t = lut[t]
            mask = np.array([x == t for x in types])
            if n_t <= 1:
                # singleton category: global LOO mean
                out[mask] = ((s_all - cents[mask]) * 1000) // (n_all - 1)
            else:
                out[mask] = ((s_t - cents[mask]) * 1000) // (n_t - 1)
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "event_type": batch.column("event_type"),
                "loo_mean_milli": pa.array(out),
            }
        )

    return _t(sf_dir, "events", ["event_id", "event_type", "value"]).map_batches(
        encode, batch_format="pyarrow", zero_copy_batch=True
    )


def customer_rfm(sf_dir: str) -> rd.Dataset:
    """(ck, r_days, f_orders, m_cc, r_score, f_score, m_score): RFM
    segmentation — every customer scored 1-4 on Recency (days from
    their last order to the corpus max date), Frequency (order count)
    and Monetary (lifetime cents) by their quartile position:
    score = 1 + #quartile-cutoffs strictly below the value (recency
    INVERTED so 4 always = best).  Cutoffs are the discrete
    quantile_disc values at p25/p50/p75 (index ceil(q·n) — the
    event_quantiles convention) over the per-customer metric
    distributions.

    Scale shape: ONE custkey :func:`co_group` builds exact per-customer
    (r, f, m) narrow rows; each metric's quartile cutoffs come from a
    BOUNDED histogram fold (recency days and order counts have small
    domains; monetary folds its distinct values per bucket first — at
    true scale swap the m-fold for the revenue_concentration log2-grid
    search); the 9 cutoffs broadcast in-closure and scoring is
    map-only."""
    import pandas as pd

    def ord_partials(batch: pa.Table) -> pa.Table:
        ck = batch.column("o_custkey").to_numpy(zero_copy_only=False)
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("o_totalprice"), 100.0)),
            pa.int64(),
        )
        day = pc.cast(batch.column("o_orderdate"), pa.int64()).to_numpy(
            zero_copy_only=False
        ) // 86_400_000_000
        g = (
            pa.table(
                {
                    "ck": pa.array(ck, pa.int64()),
                    "m": cents,
                    "n": pa.array(np.ones(len(ck), np.int64)),
                    "d": pa.array(day, pa.int64()),
                }
            )
            .group_by(["ck"])
            .aggregate([("m", "sum"), ("n", "sum"), ("d", "max")])
        )
        return g.rename_columns(["ck", "m", "n", "d"])

    def per_customer(parts: pd.DataFrame) -> pa.Table:
        agg = parts.groupby("ck", as_index=False).agg(
            m=("m", "sum"), n=("n", "sum"), d=("d", "max")
        )
        return pa.table(
            {
                "ck": pa.array(agg["ck"].to_numpy(np.int64)),
                "m": pa.array(agg["m"].to_numpy(np.int64)),
                "n": pa.array(agg["n"].to_numpy(np.int64)),
                "d": pa.array(agg["d"].to_numpy(np.int64)),
            }
        )

    parts = _t(
        sf_dir, "orders", ["o_custkey", "o_totalprice", "o_orderdate"]
    ).map_batches(ord_partials, batch_format="pyarrow", zero_copy_batch=True)
    # narrow customer-dim rows; read by 2 passes
    per_cust = co_group(per_customer, parts=(parts, "ck")).materialize()

    # bounded histogram folds: distinct values per metric << customers
    def hist_partials(batch: pa.Table) -> pa.Table:
        out = []
        for col, key in (("d", 0), ("n", 1), ("m", 2)):
            v = batch.column(col).to_numpy(zero_copy_only=False)
            vals, cnts = np.unique(v, return_counts=True)
            out.append(
                pa.table(
                    {
                        "metric": pa.array(np.full(len(vals), key, np.int8)),
                        "v": pa.array(vals.astype(np.int64)),
                        "c": pa.array(cnts.astype(np.int64)),
                    }
                )
            )
        return pa.concat_tables(out)

    hist = (
        per_cust.map_batches(
            hist_partials, batch_format="pyarrow", zero_copy_batch=True
        )
        .to_pandas()
        .groupby(["metric", "v"], as_index=False)["c"]
        .sum()
    )

    def cutoffs(metric: int) -> "list[int]":
        h = hist[hist["metric"] == metric].sort_values("v")
        cum = h["c"].to_numpy(np.int64).cumsum()
        n = int(cum[-1])
        vals = h["v"].to_numpy(np.int64)
        out = []
        for qn, qd in ((1, 4), (2, 4), (3, 4)):
            idx = -(-qn * n // qd)  # ceil(q*n)
            out.append(int(vals[np.searchsorted(cum, idx)]))
        return out

    cd, cn, cm = cutoffs(0), cutoffs(1), cutoffs(2)
    max_day = int(hist.loc[hist["metric"] == 0, "v"].max())

    def score(batch: pa.Table) -> pa.Table:
        d = batch.column("d").to_numpy(zero_copy_only=False)
        n = batch.column("n").to_numpy(zero_copy_only=False)
        m = batch.column("m").to_numpy(zero_copy_only=False)
        r_days = max_day - d
        # recency: low r_days (recent last order) = high score; the
        # cutoffs were computed over d, so invert positionally
        r_sc = 1 + sum((d > c).astype(np.int64) for c in cd)
        f_sc = 1 + sum((n > c).astype(np.int64) for c in cn)
        m_sc = 1 + sum((m > c).astype(np.int64) for c in cm)
        return pa.table(
            {
                "ck": batch.column("ck"),
                "r_days": pa.array(r_days.astype(np.int64)),
                "f_orders": pa.array(n.astype(np.int64)),
                "m_cc": pa.array(m.astype(np.int64)),
                "r_score": pa.array(r_sc.astype(np.int64)),
                "f_score": pa.array(f_sc.astype(np.int64)),
                "m_score": pa.array(m_sc.astype(np.int64)),
            }
        )

    return per_cust.map_batches(
        score, batch_format="pyarrow", zero_copy_batch=True
    )


CUSUM_ALLOW_DIV = 4  # allowance k = mean // 4 (tuned: ~1% alarm rate on the sf corpora)
CUSUM_ALARM_MULT = 5  # alarm when S exceeds 5x the hourly mean


def hourly_cusum(sf_dir: str) -> rd.Dataset:
    """(hour_us, total_cents, cusum_cents, alarm): one-sided CUSUM
    change detection over the hourly event-value totals —
    S_t = max(0, S_{t-1} + x_t − μ − k) with allowance k = μ//4 and
    alarm when S_t > 5·μ — the sequential drift detector that flags a
    sustained level shift long before any single hour trips a
    per-hour outlier gate (the hourly_anomalies contrast case: CUSUM
    accumulates evidence, the σ-gate evaluates hours in isolation).
    All-integer recurrence, so the recursive-CTE oracle replays it
    exactly.

    Scale shape: the 100 TB work is the events_hourly-style in-batch
    rollup to the BOUNDED hour domain; the recurrence is inherently
    sequential but runs over that small artifact on the driver —
    the pagerank/threshold-search 'driver math over a bounded model
    artifact' pattern, with output rows = hours."""
    import pandas as pd

    def partials(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch.column("ts"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        hour = (ts // 3_600_000_000) * 3_600_000_000
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("value"), 100.0)), pa.int64()
        )
        g = (
            pa.table({"h": pa.array(hour), "c": cents})
            .group_by(["h"])
            .aggregate([("c", "sum")])
        )
        return pa.table({"h": g.column("h"), "c": g.column("c_sum")})

    hourly = (
        _t(sf_dir, "events", ["ts", "value"])
        .map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
        .groupby("h", as_index=False)["c"]
        .sum()
        .sort_values("h")
        .reset_index(drop=True)
    )
    n = len(hourly)
    mu = int(hourly["c"].sum()) // n
    k = mu // CUSUM_ALLOW_DIV
    thresh = CUSUM_ALARM_MULT * mu
    s = 0
    cusum, alarm = [], []
    for c in hourly["c"]:
        s = max(0, s + int(c) - mu - k)
        cusum.append(s)
        alarm.append(1 if s > thresh else 0)
    return pd.DataFrame(
        {
            "hour_us": hourly["h"].to_numpy(np.int64),
            "total_cents": hourly["c"].to_numpy(np.int64),
            "cusum_cents": np.array(cusum, np.int64),
            "alarm": np.array(alarm, np.int64),
        }
    )


#: Benford P(d) = log10(1 + 1/d) in micros, frozen as integer
#: constants shared verbatim with the SQL mirror.
BENFORD_MICROS = (
    301030, 176091, 124939, 96910, 79181, 66947, 57992, 51153, 45757,
)


def benford_orders(sf_dir: str) -> rd.Dataset:
    """(digit, n_obs, n_expected, dev_micros): first-significant-digit
    census of order totals against Benford's law — the classic
    forensic screen for fabricated or clipped monetary data (organic
    multi-scale amounts lean on small leading digits; uniform or
    generator-capped data does not).  n_expected = N·P(d) floored via
    the frozen integer micros table; dev_micros = the digit's
    |observed − expected| share of N.

    Scale shape: map-only per-batch digit bincounts (first digit via
    integer decimation, no string round-trip) folding to a 9-row
    artifact; one keyless :func:`co_group` combine, driver-free."""
    import pandas as pd

    def partials(batch: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("o_totalprice"), 100.0)),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        v = np.abs(cents)
        v = v[v > 0]
        while_big = v
        # integer decimation to the leading digit
        for _ in range(19):  # int64 max has 19 digits
            big = while_big >= 10
            if not big.any():
                break
            while_big = np.where(big, while_big // 10, while_big)
        d = while_big
        counts = np.bincount(d, minlength=10)[1:10].astype(np.int64)
        return pa.table(
            {
                "digit": pa.array(np.arange(1, 10, dtype=np.int64)),
                "n": pa.array(counts),
            }
        )

    def fold(parts: pd.DataFrame) -> pd.DataFrame:
        agg = parts.groupby("digit", as_index=False)["n"].sum()
        N = int(agg["n"].sum())
        exp = [
            (N * BENFORD_MICROS[d - 1]) // 1_000_000
            for d in agg["digit"]
        ]
        obs = agg["n"].to_numpy(np.int64)
        dev = [
            (abs(int(o) - e) * 1_000_000) // N for o, e in zip(obs, exp)
        ]
        return pd.DataFrame(
            {
                "digit": agg["digit"].to_numpy(np.int64),
                "n_obs": obs,
                "n_expected": np.array(exp, np.int64),
                "dev_micros": np.array(dev, np.int64),
            }
        )

    parts = _t(sf_dir, "orders", ["o_totalprice"]).map_batches(
        partials, batch_format="pyarrow", zero_copy_batch=True
    )
    return co_group(fold, parts=(parts, None))


BURST_RATE_MULT = 2  # burst-state level = 2x the mean hourly total
BURST_SWITCH_DIV = 1  # switching penalty = mean // 1 (one mean-hour)


def hourly_burst_states(sf_dir: str) -> rd.Dataset:
    """(hour_us, total_cents, cost_base, cost_burst, in_burst): a
    two-state burst automaton over the hourly value totals — the
    Kleinberg-shaped detector with integer L1 emission costs
    |x − λ_s| (λ_base = mean, λ_burst = 2·mean) and a switching
    penalty γ = mean: forward costs
    c_s(t) = min(c_base(t−1) + γ·[s≠base], c_burst(t−1) + γ·[s≠burst])
    + |x_t − λ_s|, with ``in_burst`` the running state estimate
    (cost_burst < cost_base).  The hysteresis both ways is what
    :func:`hourly_cusum`'s one-sided drift score lacks: a burst must
    PAY γ to enter and to leave, so single spiky hours don't flap the
    state.  Exact integers, so the recursive-CTE oracle replays the
    recursion bit-for-bit.

    Scale shape: the hourly rollup is the 100 TB pass; the recursion
    is driver math over that bounded artifact (the hourly_cusum
    pattern)."""
    import pandas as pd

    def partials(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch.column("ts"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        hour = (ts // 3_600_000_000) * 3_600_000_000
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("value"), 100.0)), pa.int64()
        )
        g = (
            pa.table({"h": pa.array(hour), "c": cents})
            .group_by(["h"])
            .aggregate([("c", "sum")])
        )
        return pa.table({"h": g.column("h"), "c": g.column("c_sum")})

    hourly = (
        _t(sf_dir, "events", ["ts", "value"])
        .map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
        .groupby("h", as_index=False)["c"]
        .sum()
        .sort_values("h")
        .reset_index(drop=True)
    )
    mu = int(hourly["c"].sum()) // len(hourly)
    lam0, lam1 = mu, BURST_RATE_MULT * mu
    gamma = mu // BURST_SWITCH_DIV
    c0 = c1 = 0
    first = True
    rows = []
    for h, x in zip(hourly["h"], hourly["c"]):
        x = int(x)
        if first:
            n0 = abs(x - lam0)
            n1 = gamma + abs(x - lam1)  # entering burst from rest
            first = False
        else:
            n0 = min(c0, c1 + gamma) + abs(x - lam0)
            n1 = min(c1, c0 + gamma) + abs(x - lam1)
        c0, c1 = n0, n1
        rows.append((int(h), x, c0, c1, 1 if c1 < c0 else 0))
    return pd.DataFrame(
        rows,
        columns=["hour_us", "total_cents", "cost_base", "cost_burst", "in_burst"],
    ).astype(np.int64)


# -- robust trend / dispersion statistics over the hourly series -------------


def _hourly_series(sf_dir: str) -> "pd.DataFrame":
    """(h, c): event-value totals in integer cents per epoch-hour, hour
    ascending — the shared bounded artifact behind the trend operators
    (the hourly_cusum rollup shape: per-batch in-Arrow groupby partials
    fold on the driver over ≤ blocks × hours rows)."""
    import pandas as pd

    def partials(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch.column("ts"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        hour = (ts // 3_600_000_000) * 3_600_000_000
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("value"), 100.0)), pa.int64()
        )
        g = (
            pa.table({"h": pa.array(hour), "c": cents})
            .group_by(["h"])
            .aggregate([("c", "sum")])
        )
        return pa.table({"h": g.column("h"), "c": g.column("c_sum")})

    return (
        _t(sf_dir, "events", ["ts", "value"])
        .map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
        .groupby("h", as_index=False)["c"]
        .sum()
        .sort_values("h")
        .reset_index(drop=True)
    )


def _trunc_div(num: int, den: int) -> int:
    """Truncate-toward-zero division with positive denominator — the
    form whose SQL mirror is DuckDB's native `//` (CLAUDE.md pins that
    Python `//` floors negatives while DuckDB truncates; routing the
    sign around a positive-operand division makes both engines agree)."""
    return -((-num) // den) if num < 0 else num // den


def theil_sen_hourly(sf_dir: str) -> "pd.DataFrame":
    """(n_hours, n_pairs, slope_micros, intercept_micros): the
    Theil–Sen robust trend of the hourly event-value totals — slope =
    median over ALL pairwise slopes (micro-cents per hour), intercept =
    median of the per-point residual intercepts at that slope.  Immune
    to the outlier hours that drag an OLS fit (ols_residuals is the
    contrast case).  Lower median (rank (m+1)//2) on both engines;
    pairwise slopes are truncate-toward-zero micro divisions of exact
    integer cents over integer hour gaps.

    Scale shape: the O(hours²) pair set is driver math over the bounded
    hourly artifact (one streaming rollup; the series is hours-long
    regardless of corpus size)."""
    import pandas as pd

    hourly = _hourly_series(sf_dir)
    h0 = int(hourly["h"].iloc[0])
    x = ((hourly["h"].to_numpy(np.int64) - h0) // 3_600_000_000).astype(
        np.int64
    )
    c = hourly["c"].to_numpy(np.int64)
    n = len(c)
    # vectorized pairwise slopes (the hour span is bounded by crawl
    # DURATION, not corpus size — 720 slots/month ⇒ ~260k pairs; |dy|
    # ≤ ~1e12 micro-cents keeps every product in int64)
    i, j = np.triu_indices(n, k=1)
    dy = (c[j] - c[i]) * 1_000_000
    dx = x[j] - x[i]
    slopes = np.sign(dy) * (np.abs(dy) // dx)  # truncate toward zero
    slopes.sort()
    m = len(slopes)
    slope = int(slopes[(m + 1) // 2 - 1])
    inter = np.sort(c * 1_000_000 - slope * x)
    intercept = int(inter[(n + 1) // 2 - 1])
    return pd.DataFrame(
        {
            "n_hours": np.array([n], np.int64),
            "n_pairs": np.array([m], np.int64),
            "slope_micros": np.array([slope], np.int64),
            "intercept_micros": np.array([intercept], np.int64),
        }
    )


def mann_kendall_hourly(sf_dir: str) -> "pd.DataFrame":
    """(n_hours, s_stat, var18, z_milli, tau_milli): the Mann–Kendall
    monotonic-trend test over the hourly totals — S = Σ_{i<j}
    sign(c_j − c_i), tie-corrected variance reported ×18 so it stays
    integer (var18 = n(n−1)(2n+5) − Σ t(t−1)(2t+5) over tie groups),
    the continuity-corrected normal score z floored to millis (both
    engines cast the same exact integers to double and apply the same
    IEEE expression), and Kendall's τ = S / (n(n−1)/2) as a
    truncate-toward-zero milli ratio.

    Scale shape: same bounded-hourly-artifact driver math as
    :func:`theil_sen_hourly`."""
    import pandas as pd

    c = _hourly_series(sf_dir)["c"].to_numpy(np.int64)
    n = len(c)
    s = 0
    for i in range(n):
        s += int(np.sign(c[i + 1 :] - c[i]).sum())
    _, tie_counts = np.unique(c, return_counts=True)
    var18 = n * (n - 1) * (2 * n + 5) - sum(
        int(t) * (t - 1) * (2 * t + 5) for t in tie_counts if t > 1
    )
    if s > 0:
        z = (s - 1) / np.sqrt(var18 / 18.0)
    elif s < 0:
        z = (s + 1) / np.sqrt(var18 / 18.0)
    else:
        z = 0.0
    pairs = n * (n - 1) // 2
    tau_milli = _trunc_div(s * 1000, pairs)
    return pd.DataFrame(
        {
            "n_hours": np.array([n], np.int64),
            "s_stat": np.array([s], np.int64),
            "var18": np.array([var18], np.int64),
            "z_milli": np.array([int(np.floor(z * 1000))], np.int64),
            "tau_milli": np.array([tau_milli], np.int64),
        }
    )


def fano_hourly_by_type(sf_dir: str) -> rd.Dataset:
    """(event_type, n_slots, n_events, mean_milli, fano_milli): the
    Fano factor (index of dispersion, population variance / mean) of
    each event type's hourly arrival counts over the GLOBAL hour span
    [min_hour, max_hour] — hours with no arrivals count as zeros, so a
    type that fires in one burst scores far above the Poisson baseline
    of 1.0 while a steady drip scores below it.  Exact integers:
    mean_milli = 1000·N // slots and fano_milli = 1000·(slots·Σx² −
    N²) // (slots·N) — every operand non-negative, so Python // and
    DuckDB // agree.

    Scale shape: per-batch (type, hour) count partials (narrow, bounded
    by types × hours) through one keyless :func:`co_group` fold."""
    import pandas as pd

    def partials(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch.column("ts"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        hour = (ts // 3_600_000_000) * 3_600_000_000
        g = (
            pa.table({"t": batch.column("event_type"), "h": pa.array(hour)})
            .group_by(["t", "h"])
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "t": g.column("t"),
                "h": g.column("h"),
                "n": g.column("count_all"),
            }
        )

    def fold(parts: pd.DataFrame) -> pd.DataFrame:
        agg = parts.groupby(["t", "h"], as_index=False)["n"].sum()
        h_lo = int(agg["h"].min())
        h_hi = int(agg["h"].max())
        slots = (h_hi - h_lo) // 3_600_000_000 + 1
        rows = []
        for t, sub in agg.groupby("t", sort=True):
            counts = sub["n"].to_numpy(np.int64)
            total = int(counts.sum())
            sq = int((counts * counts).sum())
            var_num = slots * sq - total * total
            rows.append(
                (
                    t,
                    slots,
                    total,
                    (1000 * total) // slots,
                    (1000 * var_num) // (slots * total),
                )
            )
        return pd.DataFrame(
            rows,
            columns=[
                "event_type", "n_slots", "n_events", "mean_milli",
                "fano_milli",
            ],
        )

    parts = _t(sf_dir, "events", ["event_type", "ts"]).map_batches(
        partials, batch_format="pyarrow", zero_copy_batch=True
    )
    return co_group(fold, parts=(parts, None))


ACF_MAX_LAG = 6


def hourly_acf_panel(sf_dir: str, max_lag: int = ACF_MAX_LAG) -> "pd.DataFrame":
    """(lag, n_terms, acf_micros): the autocorrelation function of the
    zero-filled hourly total series at lags 1..max_lag — the diurnal /
    weekly periodicity detector (a 24-hour cycle shows as a ridge at
    lag 24; here the short-lag panel captures burst persistence).
    Zero-filling over the global hour span makes the series well
    defined under gaps on both engines.

    Exactness: with S = Σc and N = slots, the numerator
    Σ_t (N·c_t − S)(N·c_{t+k} − S) and denominator Σ_t (N·c_t − S)²
    are exact Python ints; each engine casts the SAME integers to
    double once, divides, and floors to micros (the user_value_autocorr
    float discipline).

    Scale shape: bounded-hourly-artifact driver math."""
    import pandas as pd

    hourly = _hourly_series(sf_dir)
    h0 = int(hourly["h"].iloc[0])
    slots = (int(hourly["h"].iloc[-1]) - h0) // 3_600_000_000 + 1
    c = np.zeros(slots, dtype=object)
    idx = (hourly["h"].to_numpy(np.int64) - h0) // 3_600_000_000
    for i, v in zip(idx, hourly["c"].to_numpy(np.int64)):
        c[int(i)] = int(v)
    s_tot = int(sum(c))
    d = [slots * int(v) - s_tot for v in c]  # N·c_t − S, exact ints
    den = sum(v * v for v in d)
    rows = []
    for k in range(1, max_lag + 1):
        num = sum(d[t] * d[t + k] for t in range(slots - k))
        acf = float(num) / float(den)
        rows.append((k, slots - k, int(np.floor(acf * 1_000_000))))
    return pd.DataFrame(
        rows, columns=["lag", "n_terms", "acf_micros"]
    ).astype(np.int64)


TRIM_PCTS = (5, 10, 25)


def trimmed_mean_orders(sf_dir: str) -> rd.Dataset:
    """(trim_pct, n_total, n_kept, lo_cut_cents, hi_cut_cents,
    mean_cents): the symmetric trimmed mean of order totals at 5/10/25%
    — the robust location estimate that discards the k = (n·pct)//100
    lowest and highest ROWS (ties split by cumulative row count, so the
    cut is exact on both engines) and floor-averages the integer-cents
    remainder.

    Scale shape: the exchange carries one (cents → count, mass) row
    per DISTINCT price — bounded by the value domain, not the row
    count (the histogram-partial quantile shape); rank cuts and range
    sums run once over that artifact in a keyless :func:`co_group`."""
    import pandas as pd

    def partials(batch: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("o_totalprice"), 100.0)),
            pa.int64(),
        )
        g = (
            pa.table({"v": cents})
            .group_by(["v"])
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "v": g.column("v"),
                "n": g.column("count_all"),
            }
        )

    def fold(parts: pd.DataFrame) -> pd.DataFrame:
        agg = parts.groupby("v", as_index=False)["n"].sum().sort_values("v")
        v = agg["v"].to_numpy(np.int64)
        cnt = agg["n"].to_numpy(np.int64)
        n_total = int(cnt.sum())
        cum_hi = np.cumsum(cnt)  # rank of each value's LAST row
        cum_lo = cum_hi - cnt + 1  # rank of each value's FIRST row
        rows = []
        for pct in TRIM_PCTS:
            k = (n_total * pct) // 100
            lo_rank, hi_rank = k + 1, n_total - k
            # overlap of [cum_lo, cum_hi] with [lo_rank, hi_rank]
            take = np.minimum(cum_hi, hi_rank) - np.maximum(
                cum_lo, lo_rank
            ) + 1
            take = np.clip(take, 0, None)
            n_kept = int(take.sum())
            total = int((v * take).sum())
            kept_vals = v[take > 0]
            rows.append(
                (
                    pct,
                    n_total,
                    n_kept,
                    int(kept_vals[0]),
                    int(kept_vals[-1]),
                    total // n_kept,
                )
            )
        return pd.DataFrame(
            rows,
            columns=[
                "trim_pct", "n_total", "n_kept", "lo_cut_cents",
                "hi_cut_cents", "mean_cents",
            ],
        ).astype(np.int64)

    parts = _t(sf_dir, "orders", ["o_totalprice"]).map_batches(
        partials, batch_format="pyarrow", zero_copy_batch=True
    )
    return co_group(fold, parts=(parts, None))


def robust_scaled_events(sf_dir: str) -> rd.Dataset:
    """(event_id, cents, z_milli): median/MAD robust standardization
    of every event value — z = (x − median) / MAD in
    truncate-toward-zero millis — the outlier-insensitive feature
    scaling a downstream model pipeline applies where mean/σ scaling
    would let one whale event shift every z-score.  Lower median at
    rank (n+1)//2 on both engines; MAD is the same-rank median of
    |x − median| (0 ⇒ all z = 0 by convention).

    Scale shape: the two-pass broadcast-moments pattern
    (value_cume_dist family): pass 1 folds a (cents → count) value
    histogram — bounded by the value domain — to the driver, which
    reads median and MAD off cumulative counts; the two ints broadcast
    in-closure and pass 2 is map-only row-level output."""
    import pandas as pd

    def hist(batch: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("value"), 100.0)), pa.int64()
        )
        g = pa.table({"v": cents}).group_by(["v"]).aggregate([([], "count_all")])
        return pa.table({"v": g.column("v"), "n": g.column("count_all")})

    h = (
        _t(sf_dir, "events", ["value"])
        .map_batches(hist, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
        .groupby("v", as_index=False)["n"]
        .sum()
        .sort_values("v")
        .reset_index(drop=True)
    )
    v = h["v"].to_numpy(np.int64)
    cnt = h["n"].to_numpy(np.int64)
    n = int(cnt.sum())
    rank = (n + 1) // 2  # lower median
    med = int(v[int(np.searchsorted(np.cumsum(cnt), rank))])
    dev = pd.DataFrame({"d": np.abs(v - med), "n": cnt}).groupby(
        "d", as_index=False
    )["n"].sum().sort_values("d")
    dv = dev["d"].to_numpy(np.int64)
    mad = int(dv[int(np.searchsorted(np.cumsum(dev["n"].to_numpy(np.int64)), rank))])

    def scale(batch: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("value"), 100.0)), pa.int64()
        ).to_numpy(zero_copy_only=False)
        if mad == 0:
            z = np.zeros(len(cents), np.int64)
        else:
            d = (cents - med) * 1000
            z = np.sign(d) * (np.abs(d) // mad)  # truncate toward zero
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "cents": pa.array(cents),
                "z_milli": pa.array(z.astype(np.int64)),
            }
        )

    return _t(sf_dir, "events", ["event_id", "value"]).map_batches(
        scale, batch_format="pyarrow", zero_copy_batch=True
    )


def asof_event_join(
    sf_dir: str, left_type: str = "error", right_type: str = "click"
) -> rd.Dataset:
    """(event_id, user_id, click_event_id, gap_ms): the AS-OF join —
    each ``left_type`` event matched to the LATEST ``right_type`` event
    of the same user strictly earlier in (ts, event_id) order, gap in
    truncated milliseconds.  Ray Data has no asof-join primitive; this
    is the custom-operator composition the engine uses for
    point-in-time feature lookups (last click before an error, last
    price before a trade): left events with no prior right event are
    dropped (inner asof).

    Scale shape: ONE user-keyed :func:`co_group` of narrow rows; each
    group lexsorts (user, ts, event_id) once and computes the match
    with a vectorized forward-fill over the right-side rows — no
    per-row Python, no cross-group state (a user lives wholly in its
    group).  The (ts, event_id) tie rule makes the result
    deterministic under equal timestamps."""
    import pandas as pd

    def narrow(batch: pa.Table) -> pa.Table:
        et = batch.column("event_type").to_pylist()
        keep = np.array([t in (left_type, right_type) for t in et], bool)
        u = batch.column("user_id").to_numpy(zero_copy_only=False)[keep]
        return pa.table(
            {
                "u": pa.array(u.astype(np.int64)),
                "tm": pc.cast(batch.column("ts"), pa.int64()).to_numpy(
                    zero_copy_only=False
                )[keep],
                "eid": batch.column("event_id").to_numpy(
                    zero_copy_only=False
                )[keep],
                "is_left": pa.array(
                    np.array([t == left_type for t in et], bool)[keep]
                ),
            }
        )

    def asof(ev: pd.DataFrame) -> pd.DataFrame:
        order = np.lexsort(
            (
                ev["eid"].to_numpy(np.int64),
                ev["tm"].to_numpy(np.int64),
                ev["u"].to_numpy(np.int64),
            )
        )
        u = ev["u"].to_numpy(np.int64)[order]
        tm = ev["tm"].to_numpy(np.int64)[order]
        eid = ev["eid"].to_numpy(np.int64)[order]
        is_left = ev["is_left"].to_numpy()[order]
        # forward-fill the last RIGHT row's (tm, eid) within each user:
        # right rows carry their own index, left rows inherit the
        # previous one (strictly-before holds because a left row never
        # indexes itself — its slot is NaN before the fill)
        idx = np.where(~is_left, np.arange(len(u), dtype=np.float64), np.nan)
        s = pd.Series(idx)
        # reset the fill at user boundaries
        user_grp = pd.Series(u)
        filled = s.groupby(user_grp, sort=False).ffill().to_numpy()
        take = is_left & ~np.isnan(filled)
        src = filled[take].astype(np.int64)
        return pd.DataFrame(
            {
                "event_id": eid[take],
                "user_id": u[take],
                "click_event_id": eid[src],
                "gap_ms": (tm[take] - tm[src]) // 1000,
            }
        ).astype(np.int64)

    ev = _t(
        sf_dir, "events", ["event_id", "ts", "user_id", "event_type"]
    ).map_batches(narrow, batch_format="pyarrow", zero_copy_batch=True)
    return co_group(asof, ev=(ev, "u"))


def open_order_concurrency(sf_dir: str) -> rd.Dataset:
    """(day, n_open): how many orders are simultaneously OPEN
    (order-date day through the order's last line-item ship day,
    inclusive) at every boundary day — the classic sweep-line /
    interval-overlap operator (WIP inventory, connection-concurrency,
    room-booking counting), expressed without an interval join: +1 at
    each start day, −1 past each end day, running sum in day order.

    Scale shape: one orderkey :func:`co_group` of the orders and
    line-item sides pairs each order's start with its per-order max
    receipt day (line items pre-reduce per batch, so the exchange
    carries ≤ one row per order per side); the ±1 boundary deltas fold
    onto the BOUNDED day domain on the driver and the cumsum is driver
    math over ~years×365 rows."""
    import pandas as pd

    def order_rows(batch: pa.Table) -> pa.Table:
        k = batch.column("o_orderkey").to_numpy(zero_copy_only=False)
        sd = (
            pc.cast(batch.column("o_orderdate"), pa.int64()).to_numpy(
                zero_copy_only=False
            )
            // 86_400_000_000
        )
        return pa.table(
            {"k": pa.array(k.astype(np.int64)), "d": pa.array(sd.astype(np.int64))}
        )

    def line_rows(batch: pa.Table) -> pa.Table:
        k = batch.column("l_orderkey").to_numpy(zero_copy_only=False)
        rd_ = (
            pc.cast(batch.column("l_shipdate"), pa.int64()).to_numpy(
                zero_copy_only=False
            )
            // 86_400_000_000
        )
        # per-batch pre-reduction: one (orderkey, max receipt) row
        df = (
            pd.DataFrame({"k": k.astype(np.int64), "d": rd_.astype(np.int64)})
            .groupby("k", as_index=False)["d"]
            .max()
        )
        return pa.Table.from_pandas(df, preserve_index=False)

    def deltas(orders: pd.DataFrame, lines: pd.DataFrame) -> pd.DataFrame:
        ends = lines.groupby("k", as_index=False)["d"].max()
        m = orders.merge(ends, on="k", suffixes=("_s", "_e"))
        ev = pd.concat(
            [
                pd.DataFrame({"day": m["d_s"], "delta": 1}),
                pd.DataFrame({"day": m["d_e"] + 1, "delta": -1}),
            ]
        )
        out = ev.groupby("day", as_index=False)["delta"].sum()
        return out.astype(np.int64)

    orders = _t(sf_dir, "orders", ["o_orderkey", "o_orderdate"]).map_batches(
        order_rows, batch_format="pyarrow", zero_copy_batch=True
    )
    lines = _t(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"]).map_batches(
        line_rows, batch_format="pyarrow", zero_copy_batch=True
    )
    h = (
        co_group(deltas, orders=(orders, "k"), lines=(lines, "k"))
        .to_pandas()
        .groupby("day", as_index=False)["delta"]
        .sum()
        .sort_values("day")
        .reset_index(drop=True)
    )
    h["n_open"] = h["delta"].cumsum()
    return pd.DataFrame(
        {
            "day": h["day"].to_numpy(np.int64),
            "n_open": h["n_open"].to_numpy(np.int64),
        }
    )


def revenue_grouping_sets(sf_dir: str) -> rd.Dataset:
    """(nation_key, year, revenue_cc, n_orders): order revenue by
    GROUPING SETS ((nation, year), (nation), (year), ()) in ONE pass —
    the CUBE/ROLLUP operator: each input row contributes to all four
    grouping levels inside its batch partial, so the exchange carries
    ≤ 4·|nations×years| narrow rows and the raw orders never shuffle.
    Rolled-up dimensions surface as −1 (both engines).

    Scale shape: the small customer→nation dim broadcasts as an
    in-closure LUT (the _dim_rollup shape); the four levels share one
    coarse groupby on the partial rows."""
    import pandas as pd
    import pyarrow.parquet as pq_  # noqa: N813

    cust = pq_.read_table(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_nationkey"],
    )
    nation_of = dict(
        zip(
            cust.column("c_custkey").to_pylist(),
            cust.column("c_nationkey").to_pylist(),
        )
    )

    def partials(batch: pa.Table) -> pa.Table:
        ck = batch.column("o_custkey").to_numpy(zero_copy_only=False)
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("o_totalprice"), 100.0)),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        yr = (
            pc.year(batch.column("o_orderdate"))
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        nk = np.fromiter(
            (nation_of.get(int(k), -2) for k in ck), np.int64, count=len(ck)
        )
        df = pd.DataFrame({"n": nk, "y": yr, "c": cents})
        levels = []
        for keep_n, keep_y in ((1, 1), (1, 0), (0, 1), (0, 0)):
            g = df.copy()
            if not keep_n:
                g["n"] = -1
            if not keep_y:
                g["y"] = -1
            agg = g.groupby(["n", "y"], as_index=False).agg(
                c=("c", "sum"), cnt=("c", "size")
            )
            levels.append(agg)
        out = pd.concat(levels, ignore_index=True)
        return pa.table(
            {
                "nation_key": pa.array(out["n"].to_numpy(np.int64)),
                "year": pa.array(out["y"].to_numpy(np.int64)),
                "c": pa.array(out["c"].to_numpy(np.int64)),
                "cnt": pa.array(out["cnt"].to_numpy(np.int64)),
            }
        )

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["nation_key", "year"], as_index=False)[
            ["c", "cnt"]
        ].sum()
        return pd.DataFrame(
            {
                "nation_key": out["nation_key"].to_numpy(np.int64),
                "year": out["year"].to_numpy(np.int64),
                "revenue_cc": out["c"].to_numpy(np.int64),
                "n_orders": out["cnt"].to_numpy(np.int64),
            }
        )

    return (
        _t(sf_dir, "orders", ["o_custkey", "o_totalprice", "o_orderdate"])
        .map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("nation_key")
        .map_groups(arrow_udf(fold), batch_format="pandas")
    )


PSI_BINS = 10


def value_psi(sf_dir: str) -> rd.Dataset:
    """(n_early, n_late, n_bins_used, psi_micros): the Population
    Stability Index of the event-value distribution between the early
    and late halves of the time range — THE model-monitoring drift
    metric (rule of thumb: <0.1 stable, >0.25 shifted).  Bin edges are
    the GLOBAL value deciles (quantile_disc ranks), so bins are
    well-populated by construction; bins empty on either side are
    skipped and counted.

    Exactness: with per-bin counts (a_i, b_i) and totals (n_a, n_b),
    each term (a_i·n_b − b_i·n_a)·floor-or-ceil'd… — concretely the
    per-bin log factor mᵢ = floor(ln((aᵢ·n_b)/(bᵢ·n_a))·10⁶) is an
    exact int whose sign matches (aᵢ·n_b − bᵢ·n_a), so every term is
    ≥ 0 and psi_micros = Σ termᵢ // (n_a·n_b) divides non-negative
    integers on both engines.

    Scale shape: one value-histogram fold picks the decile edges
    (bounded cents domain); one (bin, half) count fold of 2·10 rows;
    driver math assembles the scalar."""
    import pandas as pd

    def hist(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch.column("ts"), pa.int64())
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("value"), 100.0)), pa.int64()
        )
        g = (
            pa.table({"v": cents, "t": ts})
            .group_by(["v"])
            .aggregate([([], "count_all"), ("t", "min"), ("t", "max")])
        )
        return pa.table(
            {
                "v": g.column("v"),
                "n": g.column("count_all"),
                "tmin": g.column("t_min"),
                "tmax": g.column("t_max"),
            }
        )

    h = (
        _t(sf_dir, "events", ["ts", "value"])
        .map_batches(hist, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
    )
    t_cut = (int(h["tmin"].min()) + int(h["tmax"].max())) // 2
    vh = h.groupby("v", as_index=False)["n"].sum().sort_values("v")
    v = vh["v"].to_numpy(np.int64)
    cum = np.cumsum(vh["n"].to_numpy(np.int64))
    n_tot = int(cum[-1])
    edges = []
    for d in range(1, PSI_BINS):
        rank = -(-d * n_tot // PSI_BINS)  # ceil, positive operands
        edges.append(int(v[int(np.searchsorted(cum, rank))]))
    edges_arr = np.array(edges, np.int64)

    def bin_counts(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch.column("ts"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("value"), 100.0)), pa.int64()
        ).to_numpy(zero_copy_only=False)
        half = (ts > t_cut).astype(np.int64)
        b = np.searchsorted(edges_arr, cents, side="left")
        key = half * PSI_BINS + b
        counts = np.bincount(key, minlength=2 * PSI_BINS)
        return pa.table(
            {
                "k": pa.array(np.arange(2 * PSI_BINS, dtype=np.int64)),
                "n": pa.array(counts.astype(np.int64)),
            }
        )

    c = (
        _t(sf_dir, "events", ["ts", "value"])
        .map_batches(bin_counts, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
        .groupby("k")["n"]
        .sum()
    )
    a = [int(c.get(i, 0)) for i in range(PSI_BINS)]
    b = [int(c.get(PSI_BINS + i, 0)) for i in range(PSI_BINS)]
    n_a, n_b = sum(a), sum(b)
    total = 0
    used = 0
    for ai, bi in zip(a, b):
        if ai == 0 or bi == 0:
            continue
        used += 1
        m = int(np.floor(np.log((ai * n_b) / (bi * n_a)) * 1_000_000.0))
        total += (ai * n_b - bi * n_a) * m
    psi = total // (n_a * n_b)
    return pd.DataFrame(
        {
            "n_early": np.array([n_a], np.int64),
            "n_late": np.array([n_b], np.int64),
            "n_bins_used": np.array([used], np.int64),
            "psi_micros": np.array([psi], np.int64),
        }
    )


def value_fivenum(sf_dir: str) -> rd.Dataset:
    """(event_type, min_c, q1_c, med_c, q3_c, max_c, n_outliers): the
    Tukey five-number summary of event values per type plus the
    1.5·IQR outlier count — the box-plot profile a monitoring
    dashboard draws.  Quartiles at quantile_disc ranks ceil(q·n);
    fences are exact integer arithmetic (4·x vs 4·q ± 6·IQR avoids
    the 1.5 float).

    Scale shape: one (type, cents) histogram exchange — bounded by
    types × distinct values — with rank reads and fence counts per
    type inside the combine."""
    import pandas as pd

    def partials(batch: pa.Table) -> pa.Table:
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

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        t = g["t"].iloc[0]
        agg = g.groupby("v", as_index=False)["n"].sum().sort_values("v")
        v = agg["v"].to_numpy(np.int64)
        cnt = agg["n"].to_numpy(np.int64)
        cum = np.cumsum(cnt)
        n = int(cum[-1])

        def at(q_num: int, q_den: int) -> int:
            rank = max(1, -(-q_num * n // q_den))
            return int(v[int(np.searchsorted(cum, rank))])

        q1, med, q3 = at(1, 4), at(2, 4), at(3, 4)
        iqr = q3 - q1
        # outliers: 4·x < 4·q1 − 6·IQR or 4·x > 4·q3 + 6·IQR (×4 keeps
        # the 1.5 factor integer)
        lo_f = 4 * q1 - 6 * iqr
        hi_f = 4 * q3 + 6 * iqr
        out = int(cnt[(4 * v < lo_f) | (4 * v > hi_f)].sum())
        return pd.DataFrame(
            {
                "event_type": [t],
                "min_c": np.array([int(v[0])], np.int64),
                "q1_c": np.array([q1], np.int64),
                "med_c": np.array([med], np.int64),
                "q3_c": np.array([q3], np.int64),
                "max_c": np.array([int(v[-1])], np.int64),
                "n_outliers": np.array([out], np.int64),
            }
        )

    return (
        _t(sf_dir, "events", ["event_type", "value"])
        .map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("t")
        .map_groups(arrow_udf(fold), batch_format="pandas")
    )
