"""Distributed join operators: attach_dim co-shuffle and broadcast
lookup semantics."""

import pandas as pd
import pyarrow as pa
import pytest


def _fact():
    import ray.data as rd

    return rd.from_arrow(
        pa.table(
            {
                "k": pa.array([1, 2, 3, 99], pa.int64()),
                "v": pa.array([10, 20, 30, 40], pa.int64()),
            }
        )
    )


def _dim():
    import ray.data as rd

    return rd.from_arrow(
        pa.table(
            {
                "dk": pa.array([1, 2, 3, 4], pa.int64()),
                "name": pa.array(["a", "b", "c", "d"], pa.string()),
            }
        )
    )


class TestAttachDim:
    def test_inner_join_semantics(self, ray_session, quiet_data_context):
        from pdf_parser_ray.pipelines.join import attach_dim

        out = (
            attach_dim(_fact(), _dim(), "k", "dk", ["name"])
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        # unmatched fact key 99 drops; dim key 4 unused
        assert list(out["k"]) == [1, 2, 3]
        assert list(out["v"]) == [10, 20, 30]
        assert list(out["name"]) == ["a", "b", "c"]

    def test_name_clash_rejected(self, ray_session, quiet_data_context):
        import pytest

        from pdf_parser_ray.pipelines.join import attach_dim

        with pytest.raises(ValueError):
            attach_dim(_fact(), _dim(), "k", "dk", ["v"])

    def test_broadcast_lookup_default(self, ray_session, quiet_data_context):
        from pdf_parser_ray.pipelines.join import broadcast_lookup

        out = (
            broadcast_lookup(_fact(), {1: "x", 2: "y"}, "k", "label", "missing")
            .to_pandas()
            .sort_values("k")
        )
        assert list(out["label"]) == ["x", "y", "missing", "missing"]


class TestExactness:
    """Int64 values past 2^53 must survive the co-shuffle exactly."""

    BIG = 2**62 + 1

    def test_attach_dim_keeps_big_fact_ints(self, ray_session, quiet_data_context):
        import ray.data as rd

        from pdf_parser_ray.pipelines.join import attach_dim

        fact = rd.from_arrow(
            pa.table(
                {
                    "k": pa.array([1, 2], pa.int64()),
                    "v": pa.array([self.BIG, 7], pa.int64()),
                }
            )
        )
        out = attach_dim(fact, _dim(), "k", "dk", ["name"]).to_pandas()
        assert sorted(int(v) for v in out["v"]) == [7, self.BIG]

    def test_asof_attach_keeps_big_left_ints(self, ray_session, quiet_data_context):
        import ray.data as rd

        from pdf_parser_ray.pipelines.join import asof_attach

        left = pa.table(
            {
                "uid": pa.array([3], pa.int64()),
                "ts": TestAsofAttach._ts(10),
                "amount": pa.array([self.BIG], pa.int64()),
            }
        )
        right = pa.table(
            {"uid": pa.array([3], pa.int64()), "ts": TestAsofAttach._ts(4)}
        )
        out = asof_attach(
            rd.from_arrow(left), rd.from_arrow(right), key_col="uid", ts_col="ts"
        ).to_pandas()
        assert [int(v) for v in out["amount"]] == [self.BIG]


def _co_group_case():
    """Three sides for co_group — a and b share the column names k, s
    and x; c holds three keys only, so most buckets lack it — and a
    probe that reports one signature row per side (columns:dtypes, row
    count) plus each data row rendered as text.  Nested so Ray ships
    them by value."""
    import pandas as pd

    def side_a(batch):
        i = batch["id"].to_numpy()
        return pa.table(
            {
                "k": pa.array(i % 500, pa.int64()),
                "x": pa.array(2**53 + 3 + i, pa.int64()),
                "s": pa.array([f"a{v}" for v in i], pa.string()),
                "ts": pa.array(i * 1_000_003, pa.timestamp("us")),
            }
        )

    def side_b(batch):
        i = batch["id"].to_numpy()
        return pa.table(
            {
                "k": pa.array(i % 700, pa.int64()),
                "s": pa.array([f"b{v}" for v in i], pa.string()),
                "x": pa.array(-(2**60) - i, pa.int64()),
            }
        )

    def side_c(batch):
        i = batch["id"].to_numpy()
        return pa.table(
            {
                "key_c": pa.array(i % 3, pa.int64()),
                "note": pa.array([f"c{v}" for v in i], pa.string()),
            }
        )

    def probe(**frames):
        out = []
        for name, df in frames.items():
            sig = ",".join(f"{c}:{t}" for c, t in df.dtypes.items())
            rows = list(df.astype(str).agg("|".join, axis=1)) if len(df) else []
            out.append(
                pd.DataFrame(
                    {"side": name, "sig": sig, "n": len(df), "row": ["", *rows]}
                )
            )
        return pd.concat(out, ignore_index=True)

    sides = {"a": (side_a, "k", 6000), "b": (side_b, "k", 3000), "c": (side_c, "key_c", 30)}
    return sides, probe


class TestCoGroup:
    """join.co_group hands each bucket one frame per side holding
    exactly that side's columns and Arrow dtypes, whatever the block
    layout."""

    seen: dict = {}

    @pytest.mark.parametrize("layout", ["default", "small_blocks"])
    def test_frames_exact_and_layout_invariant(
        self, ray_session, quiet_data_context, request, layout
    ):
        import numpy as np
        import ray.data as rd

        from pdf_parser_ray.pipelines.join import co_group

        if layout == "small_blocks":
            request.getfixturevalue("small_blocks")
        spec, probe = _co_group_case()
        sides = {
            name: (
                rd.range(n, override_num_blocks=4).map_batches(
                    fn, batch_format="pyarrow"
                ),
                key,
            )
            for name, (fn, key, n) in spec.items()
        }
        got = co_group(probe, **sides).to_pandas()
        for name, (fn, _, n) in spec.items():
            want = fn(pa.table({"id": np.arange(n)})).to_pandas()
            mine = got[got["side"] == name]
            sigs = mine[mine["row"] == ""]
            assert len(sigs) == 64  # fn ran once per bucket
            assert set(sigs["sig"]) == {
                ",".join(f"{c}:{t}" for c, t in want.dtypes.items())
            }
            assert int(sigs["n"].sum()) == n
            rows = sorted(mine.loc[mine["row"] != "", "row"])
            assert rows == sorted(want.astype(str).agg("|".join, axis=1))
        # side c reaches most buckets as a typed, empty frame
        c_sigs = got[(got["side"] == "c") & (got["row"] == "")]
        assert (c_sigs["n"] == 0).sum() >= 60
        canon = got.sort_values(["side", "row", "n", "sig"]).reset_index(drop=True)
        for other in self.seen.values():
            pd.testing.assert_frame_equal(canon, other)
        self.seen[layout] = canon

    @staticmethod
    def _calls():
        """A co_group fn emitting one row per call: the size and id sum
        of its one side.  Nested so Ray ships it by value."""

        def calls(**frames):
            (df,) = frames.values()
            return pd.DataFrame({"n": [len(df)], "s": [int(df["id"].sum())]})

        return calls

    @pytest.mark.parametrize("layout", ["default", "small_blocks"])
    def test_keyless_side_runs_fn_once(
        self, ray_session, quiet_data_context, request, layout
    ):
        import ray.data as rd

        from pdf_parser_ray.pipelines.join import co_group

        if layout == "small_blocks":
            request.getfixturevalue("small_blocks")
        ds = rd.range(20_000, override_num_blocks=8)
        got = co_group(self._calls(), parts=(ds, None)).to_pandas()
        assert list(got["n"]) == [20_000]
        assert list(got["s"]) == [sum(range(20_000))]

    @pytest.mark.parametrize("layout", ["default", "small_blocks"])
    def test_empty_buckets_skip_fn(
        self, ray_session, quiet_data_context, request, layout
    ):
        import numpy as np
        import ray.data as rd

        from pdf_parser_ray.pipelines.join import _key_bucket, co_group

        if layout == "small_blocks":
            request.getfixturevalue("small_blocks")
        empty = rd.range(1000, override_num_blocks=4).map_batches(
            lambda b: b.slice(0, 0), batch_format="pyarrow"
        )
        assert len(co_group(self._calls(), side=(empty, "id")).to_pandas()) == 0
        # three keys fill at most three of the 64 buckets: fn runs only
        # for those, never for an all-empty bucket
        got = co_group(
            self._calls(), side=(rd.range(3, override_num_blocks=1), "id")
        ).to_pandas()
        assert (got["n"] > 0).all() and int(got["n"].sum()) == 3
        assert len(got) == len(set(_key_bucket(np.arange(3), 64)))

    def test_small_side_spreads_over_reducers(self, ray_session, quiet_data_context):
        """A side under one tag batch is tagged into one block; its
        buckets still reach more than one reduce task."""
        import ray.data as rd

        from pdf_parser_ray.pipelines.join import _TAG_BATCH_ROWS, co_group

        n = 1000
        assert n < _TAG_BATCH_ROWS
        side = rd.range(n, override_num_blocks=4)
        out = co_group(self._calls(), side=(side, "id")).materialize()
        assert out.num_blocks() > 1
        assert int(out.to_pandas()["n"].sum()) == n

    @pytest.mark.parametrize("layout", ["default", "small_blocks"])
    def test_mixed_keyless_and_keyed_rejected(
        self, ray_session, quiet_data_context, request, layout
    ):
        import ray.data as rd

        from pdf_parser_ray.pipelines.join import co_group

        if layout == "small_blocks":
            request.getfixturevalue("small_blocks")
        ds = rd.range(10)
        with pytest.raises(ValueError):
            co_group(self._calls(), a=(ds, None), b=(ds, "id"))


class TestIVFIndex:
    def test_ivf_matches_lsh_probing(self, ray_session, quiet_data_context):
        """The prebuilt-index query must return the same top-k as the
        scan-everything knn_lsh (identical planes, probes, scoring)."""
        from pdf_parser_ray.pipelines.similarity import knn_ivf, knn_lsh

        sf = "/root/testdata/sf0.001"
        a = knn_ivf(sf).to_pandas().sort_values("vec_id").reset_index(drop=True)
        b = knn_lsh(sf).to_pandas().sort_values("vec_id").reset_index(drop=True)
        assert a.equals(b)

    def test_index_scan_prunes_partitions(self, ray_session, quiet_data_context):
        """The query must read only the probed bucket directories —
        strictly fewer input files than a full index scan."""
        import os

        import ray.data as rd

        from pdf_parser_ray.pipelines.similarity import (
            _IVF_CACHE_ROOT,
            _IVF_VERSION,
            _LSH_BITS,
            knn_ivf,
        )

        sf = "/root/testdata/sf0.001"
        assert len(knn_ivf(sf).to_pandas()) > 0  # builds index on first use
        index_dir = os.path.join(
            _IVF_CACHE_ROOT, "sf0.001", f"ivf_v{_IVF_VERSION}_b{_LSH_BITS}"
        )
        from pdf_parser_ray.pipelines.similarity import probed_index_paths

        all_buckets = sorted(
            int(d.split("=")[1])
            for d in os.listdir(index_dir)
            if d.startswith("bucket=")
        )
        full = probed_index_paths(index_dir, all_buckets)
        # a 9-bucket probe opens strictly fewer files than the index holds
        some = probed_index_paths(index_dir, all_buckets[:9])
        assert 0 < len(some) < len(full)


class TestAsofAttach:
    """Backward as-of join: latest right.ts <= left.ts per key, inner
    semantics, exact-timestamp matches allowed."""

    @staticmethod
    def _ts(*seconds):
        import numpy as np

        return pa.array(
            np.array(seconds, dtype="int64") * 1_000_000, pa.timestamp("us")
        )

    def _run(self, left_tbl, right_tbl):
        import ray.data as rd

        from pdf_parser_ray.pipelines.join import asof_attach

        out = asof_attach(
            rd.from_arrow(left_tbl),
            rd.from_arrow(right_tbl),
            key_col="uid",
            ts_col="ts",
        ).to_pandas()
        if len(out) == 0:
            return out
        return out.sort_values("eid").reset_index(drop=True)

    def test_backward_match_and_drop(self, ray_session, quiet_data_context):
        left = pa.table(
            {
                "eid": pa.array([1, 2, 3], pa.int64()),
                "uid": pa.array([7, 7, 7], pa.int64()),
                "ts": self._ts(5, 50, 1),
            }
        )
        right = pa.table(
            {"uid": pa.array([7, 7], pa.int64()), "ts": self._ts(3, 40)}
        )
        out = self._run(left, right)
        # eid=3 (ts=1) has no preceding right row -> dropped
        assert list(out["eid"]) == [1, 2]
        got = [t.timestamp() for t in out["match_ts"]]
        assert got == [3.0, 40.0]

    def test_exact_match_and_key_isolation(self, ray_session, quiet_data_context):
        left = pa.table(
            {
                "eid": pa.array([1, 2], pa.int64()),
                "uid": pa.array([1, 2], pa.int64()),
                "ts": self._ts(10, 10),
            }
        )
        right = pa.table(
            {
                "uid": pa.array([1, 2, 2], pa.int64()),
                "ts": self._ts(10, 2, 9),
            }
        )
        out = self._run(left, right)
        # uid=1 matches its own exact-ts row; uid=2 takes its latest (9),
        # never uid=1's ts=10 row
        got = [t.timestamp() for t in out["match_ts"]]
        assert got == [10.0, 9.0]

    def test_empty_right_side(self, ray_session, quiet_data_context):
        left = pa.table(
            {
                "eid": pa.array([1], pa.int64()),
                "uid": pa.array([5], pa.int64()),
                "ts": self._ts(10),
            }
        )
        right = pa.table(
            {"uid": pa.array([], pa.int64()), "ts": self._ts()}
        )
        out = self._run(left, right)
        assert len(out) == 0


class TestRangeJoin:
    """range_join_events: interval-containment join via time-bucket
    co-shuffle.  Bucket width == window length, so every unaligned
    window crosses a boundary and exercises the two-partial sum path;
    the 1-minute variant pins that window_s parameterizes both the
    bucketing and the predicate together."""

    def test_matches_duckdb_at_other_window(self, ray_session, quiet_data_context):
        import duckdb
        import pandas as pd

        from pdf_parser_ray.pipelines.relational import range_join_events

        sf = "/root/testdata/sf0.001"
        got = (
            range_join_events(sf, window_s=60)
            .to_pandas()
            .sort_values("window_id")
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.execute(
            "CREATE VIEW events AS SELECT *"
            f" FROM read_parquet('{sf}/events.parquet')"
        )
        want = con.sql(
            "WITH w AS (SELECT event_id AS window_id, ts AS t0 FROM events"
            "  WHERE event_type = 'error')"
            " SELECT w.window_id, CAST(count(*) AS BIGINT) AS n_events,"
            "  CAST(sum(CAST(round(e.value * 100) AS BIGINT)) AS BIGINT)"
            "    AS sum_cents"
            " FROM w JOIN events e"
            "   ON e.ts >= w.t0 AND e.ts < w.t0 + INTERVAL 1 MINUTE"
            " GROUP BY w.window_id ORDER BY w.window_id"
        ).df()
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_window_includes_itself(self, ray_session, quiet_data_context):
        # every error event is inside its own window -> n_events >= 1
        from pdf_parser_ray.pipelines.relational import range_join_events

        out = range_join_events("/root/testdata/sf0.001").to_pandas()
        assert (out["n_events"] >= 1).all()


class TestSMBJoin:
    SF = "/root/testdata/sf0.001"

    def _dirs(self):
        import os

        from pdf_parser_ray.pipelines.join import _SMB_BUCKETS, _SMB_VERSION

        tag = os.path.basename(self.SF)
        root = os.path.join("/tmp/pdf_parser_ray_index", tag)
        return (
            os.path.join(root, f"smb_v{_SMB_VERSION}_orders_b{_SMB_BUCKETS}"),
            os.path.join(root, f"smb_v{_SMB_VERSION}_customer_b{_SMB_BUCKETS}"),
        )

    def test_matches_plain_join(self, ray_session, quiet_data_context):
        import duckdb
        import pandas as pd

        from pdf_parser_ray.pipelines.relational import (
            copartitioned_order_customer,
        )

        got = (
            copartitioned_order_customer(self.SF)
            .to_pandas()
            .sort_values(["o_orderkey"])
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        for t in ("orders", "customer"):
            con.execute(
                f"CREATE VIEW {t} AS SELECT * FROM"
                f" read_parquet('{self.SF}/{t}.parquet')"
            )
        want = con.sql(
            "SELECT CAST(o.o_orderkey AS BIGINT) AS o_orderkey,"
            " CAST(c.c_custkey AS BIGINT) AS c_custkey, c.c_mktsegment,"
            " CAST(round(o.o_totalprice * 100) AS BIGINT) AS total_cents"
            " FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey"
            " ORDER BY o_orderkey"
        ).df()
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_layout_bucketed_and_sorted(self, ray_session, quiet_data_context):
        """The SMB invariants the join relies on: co-partitioning (both
        sides bucket the key with the same hash) and within-bucket key
        order (the sort-merge fast path)."""
        import os

        import numpy as np
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.join import _SMB_BUCKETS, _key_bucket
        from pdf_parser_ray.pipelines.relational import (
            copartitioned_order_customer,
        )

        copartitioned_order_customer(self.SF).materialize()
        odir, cdir = self._dirs()
        for d, key in ((odir, "o_custkey"), (cdir, "c_custkey")):
            assert os.path.exists(os.path.join(d, "_DONE"))
            seen = 0
            for b in range(_SMB_BUCKETS):
                bd = os.path.join(d, f"bucket={b}")
                if not os.path.isdir(bd):
                    continue
                t = pq.read_table(bd)
                k = t.column(key).to_numpy()
                seen += len(k)
                assert (np.diff(k) >= 0).all(), f"{d} bucket {b} unsorted"
                assert (
                    _key_bucket(k.astype(np.int64), _SMB_BUCKETS) == b
                ).all(), f"{d} bucket {b} mis-partitioned"
            assert seen > 0

    def test_query_plan_has_no_shuffle(self, ray_session, quiet_data_context):
        """Query-time plan: bucket-id fan-out -> local merges.  No
        AllToAll operator may appear (the exchange was paid at build)."""
        from pdf_parser_ray.pipelines.relational import (
            copartitioned_order_customer,
        )

        ds = copartitioned_order_customer(self.SF).materialize()
        assert "AllToAll" not in ds.stats() and "Sort" not in ds.stats()


class TestIVFKMeans:
    SF = "/root/testdata/sf0.001"

    def test_partitions_match_assignment(self, ray_session, quiet_data_context):
        """Every vector sits in the partition of its nearest final
        centroid (ties to the lowest cluster id) — the invariant the
        probe-time pruning relies on."""
        import os

        import numpy as np
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.cluster import _assign
        from pdf_parser_ray.pipelines.similarity import (
            _IVF_CACHE_ROOT,
            _IVFKM_VERSION,
            knn_ivf_kmeans,
        )

        assert len(knn_ivf_kmeans(self.SF).to_pandas()) > 0  # builds
        index_dir = os.path.join(
            _IVF_CACHE_ROOT, "sf0.001", f"ivfkm_v{_IVFKM_VERSION}"
        )
        cents = np.load(os.path.join(index_dir, "centroids.npy"))
        seen = 0
        for d in os.listdir(index_dir):
            if not d.startswith("cluster="):
                continue
            c = int(d.split("=")[1])
            t = pq.read_table(os.path.join(index_dir, d))
            vecs = np.array(t.column("embedding").to_pylist(), np.float64)
            seen += len(vecs)
            assert (_assign(vecs, cents) == c).all(), f"cluster {c}"
        assert seen > 0

    def test_probed_fraction_sublinear(self, ray_session, quiet_data_context):
        """nprobe=2 of KM_K=8 partitions: the query must touch well
        under half the corpus rows."""
        import os

        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.cluster import KM_K
        from pdf_parser_ray.pipelines.similarity import (
            _IVF_CACHE_ROOT,
            _IVFKM_VERSION,
            IVFKM_NPROBE,
            knn_ivf_kmeans,
        )

        knn_ivf_kmeans(self.SF).materialize()
        index_dir = os.path.join(
            _IVF_CACHE_ROOT, "sf0.001", f"ivfkm_v{_IVFKM_VERSION}"
        )
        sizes = {
            int(d.split("=")[1]): pq.read_table(
                os.path.join(index_dir, d), columns=["vec_id"]
            ).num_rows
            for d in os.listdir(index_dir)
            if d.startswith("cluster=")
        }
        total = sum(sizes.values())
        worst_probe = sum(sorted(sizes.values())[-IVFKM_NPROBE:])
        assert IVFKM_NPROBE < KM_K
        assert worst_probe < total  # pruning is real even worst-case

    def test_recall_vs_exact(self, ray_session, quiet_data_context):
        """The probed top-k must overlap the exact top-k (the query's
        own cluster is always probed, so near neighbors that share the
        cluster are found)."""
        from pdf_parser_ray.pipelines.similarity import knn_cosine, knn_ivf_kmeans

        approx = set(knn_ivf_kmeans(self.SF).to_pandas()["vec_id"])
        exact = set(knn_cosine(self.SF).to_pandas()["vec_id"])
        assert len(approx & exact) >= len(exact) // 2


class TestIncrementalRollup:
    SF = "/root/testdata/sf0.001"

    def _cache_dir(self):
        import os

        from pdf_parser_ray.pipelines.relational import _MV_VERSION

        return os.path.join(
            "/tmp/pdf_parser_ray_index", "sf0.001",
            f"mv_v{_MV_VERSION}_events_hourly",
        )

    def test_merge_equals_recompute(self, ray_session, quiet_data_context):
        import shutil

        import pandas as pd

        from pdf_parser_ray.pipelines.relational import (
            events_hourly,
            incremental_events_hourly,
        )

        shutil.rmtree(self._cache_dir(), ignore_errors=True)
        key = ["event_type", "hour_start"]
        inc = incremental_events_hourly(self.SF).to_pandas()
        full = events_hourly(self.SF).to_pandas()
        pd.testing.assert_frame_equal(
            inc.sort_values(key).reset_index(drop=True),
            full.sort_values(key).reset_index(drop=True),
            check_dtype=False,
        )

    def test_cached_rollup_is_read_not_recomputed(
        self, ray_session, quiet_data_context
    ):
        """Tamper the cached base rollup: the edit must flow straight
        into the merged output — proof the history shard is served from
        the materialized parquet, not re-aggregated."""
        import glob
        import os
        import shutil

        import pyarrow as pa
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import (
            incremental_events_hourly,
        )

        cache = self._cache_dir()
        shutil.rmtree(cache, ignore_errors=True)
        before = incremental_events_hourly(self.SF).to_pandas()
        f = sorted(glob.glob(os.path.join(cache, "*.parquet")))[0]
        t = pq.read_table(f)
        n = t.column("n").to_pylist()
        n[0] += 1000
        t = t.set_column(t.schema.get_field_index("n"), "n",
                         pa.array(n, t.schema.field("n").type))
        pq.write_table(t, f)
        after = incremental_events_hourly(self.SF).to_pandas()
        assert after["n"].sum() == before["n"].sum() + 1000
        shutil.rmtree(cache, ignore_errors=True)  # leave a clean cache

    def test_build_idempotent(self, ray_session, quiet_data_context):
        import os
        import time

        from pdf_parser_ray.pipelines.relational import build_events_rollup

        cache = self._cache_dir()
        build_events_rollup(self.SF, cache)
        assert os.path.exists(os.path.join(cache, "_DONE"))
        t0 = time.perf_counter()
        build_events_rollup(self.SF, cache)
        assert time.perf_counter() - t0 < 0.05  # _DONE short-circuits


class TestBloomSemiJoin:
    """The bloom is scan reduction only — these pin the filter's
    membership guarantees and that the pushdown actually prunes."""

    def test_no_false_negatives(self):
        import numpy as np

        from pdf_parser_ray.pipelines.join import (
            SEMI_BLOOM_BITS, _bloom_positions_int,
        )

        keys = np.arange(0, 5000, 7, dtype=np.int64)
        pos = _bloom_positions_int(keys).ravel()
        bits = np.zeros(SEMI_BLOOM_BITS // 8, np.uint8)
        np.bitwise_or.at(bits, pos // 8, np.uint8(1) << (pos % 8).astype(np.uint8))
        probe = _bloom_positions_int(keys)
        hit = (bits[probe // 8] & (np.uint8(1) << (probe % 8).astype(np.uint8))) != 0
        assert hit.all(axis=1).all()  # every inserted key probes positive

    def test_false_positive_rate_bounded(self):
        import numpy as np

        from pdf_parser_ray.pipelines.join import (
            SEMI_BLOOM_BITS, SEMI_BLOOM_K, _bloom_positions_int,
        )

        keys = np.arange(3000, dtype=np.int64)
        pos = _bloom_positions_int(keys).ravel()
        bits = np.zeros(SEMI_BLOOM_BITS // 8, np.uint8)
        np.bitwise_or.at(bits, pos // 8, np.uint8(1) << (pos % 8).astype(np.uint8))
        others = np.arange(1_000_000, 1_050_000, dtype=np.int64)
        probe = _bloom_positions_int(others)
        hit = (bits[probe // 8] & (np.uint8(1) << (probe % 8).astype(np.uint8))) != 0
        fp = hit.all(axis=1).mean()
        # 3000 keys * 7 bits in 2^20 -> (1-e^(-kn/m))^k ~ 3e-13; allow slack
        assert fp < 1e-3

    def test_pushdown_prunes_fact_scan(self, ray_session, quiet_data_context):
        # at sf0.001 ~1/5 of orders are URGENT: the joined row count
        # must be a strict minority of lineitem (the scan the bloom
        # avoids shipping)
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.join import bloom_semi_join

        sf = "/root/testdata/sf0.001"
        got = bloom_semi_join(sf).to_pandas()
        n_line = pq.read_metadata(sf + "/lineitem.parquet").num_rows
        assert 0 < int(got["n_items"].sum()) < n_line // 2
        assert got["l_orderkey"].is_unique


class TestJoinSizeStats:
    def test_matches_brute_force(self, ray_session, quiet_data_context):
        """Exact join cardinality vs the materialized join itself."""
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.join import join_size_stats

        sf = "/root/testdata/sf0.001"
        got = join_size_stats(sf).to_pandas().iloc[0]
        o = pq.read_table(
            sf + "/orders.parquet", columns=["o_custkey"]
        ).to_pandas()
        c = pq.read_table(
            sf + "/customer.parquet", columns=["c_custkey"]
        ).to_pandas()
        j = o.merge(c, left_on="o_custkey", right_on="c_custkey")
        per_key = j.groupby("o_custkey").size()
        assert got["join_rows"] == len(j)
        assert got["n_keys"] == len(per_key)
        assert got["max_key_rows"] == per_key.max()
        assert got["skew_micros"] == (per_key.max() * 1_000_000) // len(j)


class TestCosupplierEdges:
    def test_matches_brute_force(self, ray_session, quiet_data_context):
        """Bipartite projection top-k vs itertools pair expansion."""
        from collections import Counter
        from itertools import combinations

        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.join import (
            COSUPPLIER_TOP_K, cosupplier_edges,
        )

        sf = "/root/testdata/sf0.001"
        got = cosupplier_edges(sf).to_pandas()
        li = pq.read_table(
            sf + "/lineitem.parquet", columns=["l_partkey", "l_suppkey"]
        ).to_pandas()
        by_part = li.drop_duplicates().groupby("l_partkey")["l_suppkey"].apply(
            lambda s: sorted(set(s))
        )
        c: Counter = Counter()
        for sks in by_part:
            c.update(combinations(sks, 2))
        want = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[
            :COSUPPLIER_TOP_K
        ]
        got_rows = [
            ((r["sk_a"], r["sk_b"]), r["n_shared_parts"])
            for _, r in got.iterrows()
        ]
        assert got_rows == want
        assert got["n_shared_parts"].iloc[0] >= 2  # projection binds
