"""Invariant tests for relational operators beyond the oracle gate
(the SQL-equality check itself lives in test_oracle)."""

import pytest


class TestCohortRetention:
    def test_matrix_invariants(self, ray_session, quiet_data_context):
        import duckdb

        from pdf_parser_ray.pipelines.relational import cohort_retention

        sf = "/root/testdata/sf0.001"
        df = cohort_retention(sf).to_pandas()
        assert (df["offset_day"] >= 0).all()
        # day-0 cell exists for every cohort and is its largest cell:
        # every cohort member is by definition active on day 0
        base = df[df["offset_day"] == 0].set_index("cohort_day")["n_users"]
        assert set(df["cohort_day"]) == set(base.index)
        merged = df.join(base.rename("cohort_size"), on="cohort_day")
        assert (merged["n_users"] <= merged["cohort_size"]).all()
        # cohort sizes partition the user base
        n_users = duckdb.sql(
            "SELECT count(DISTINCT user_id) FROM"
            f" read_parquet('{sf}/events.parquet')"
        ).fetchone()[0]
        assert int(base.sum()) == n_users


class TestEventsHourlyDelta:
    def test_deltas_telescope(self, ray_session, quiet_data_context):
        from pdf_parser_ray.pipelines.relational import events_hourly_delta

        df = events_hourly_delta("/root/testdata/sf0.001").to_pandas()
        # deltas telescope back to the final count per type
        for etype, grp in df.groupby("event_type"):
            grp = grp.sort_values("hour_us")
            assert grp["delta_n"].sum() == grp["n"].iloc[-1]
            # n = prefix-sum of deltas at every step
            assert (grp["delta_n"].cumsum() == grp["n"]).all()
        assert (df["n"] > 0).all()


class TestEventFunnel:
    def test_counts_monotone_and_window_sensitive(
        self, ray_session, quiet_data_context
    ):
        from pdf_parser_ray.pipelines.relational import FUNNEL_STEPS, event_funnel

        sf = "/root/testdata/sf0.001"
        df = (
            event_funnel(sf).to_pandas().sort_values("step_idx")
        ).reset_index(drop=True)
        assert list(df["step"]) == list(FUNNEL_STEPS)
        # conversion can only shrink down the funnel
        assert (df["n_users"].diff().dropna() <= 0).all()
        assert df["n_users"].iloc[0] > df["n_users"].iloc[-1] >= 0
        # a zero window forbids any step-2+ conversion (strict >)
        tight = (
            event_funnel(sf, window_min=0).to_pandas().sort_values("step_idx")
        )
        assert (tight["n_users"].iloc[1:] == 0).all()
        assert tight["n_users"].iloc[0] == df["n_users"].iloc[0]
        # widening the window can only add conversions
        wide = (
            event_funnel(sf, window_min=10**6)
            .to_pandas()
            .sort_values("step_idx")
            .reset_index(drop=True)
        )
        assert (wide["n_users"] >= df["n_users"]).all()


class TestSalesOpportunity:
    def test_matches_bruteforce(self, ray_session, quiet_data_context):
        import numpy as np
        import pandas as pd
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import (
            OPPORTUNITY_PRIORITY, sales_opportunity,
        )

        sf = "/root/testdata/sf0.001"
        got = (
            sales_opportunity(sf)
            .to_pandas()
            .sort_values("c_mktsegment")
            .reset_index(drop=True)
        )
        cust = pq.read_table(sf + "/customer.parquet").to_pandas()
        orders = pq.read_table(sf + "/orders.parquet").to_pandas()
        cents = np.round(cust["c_acctbal"] * 100).astype(np.int64)
        pos = cents[cents > 0]
        urgent = set(
            orders.loc[
                orders["o_orderpriority"] == OPPORTUNITY_PRIORITY, "o_custkey"
            ]
        )
        keep = (cents * len(pos) > pos.sum()) & ~cust["c_custkey"].isin(urgent)
        want = (
            pd.DataFrame(
                {"c_mktsegment": cust["c_mktsegment"][keep], "cents": cents[keep]}
            )
            .groupby("c_mktsegment", as_index=False)
            .agg(n_customers=("cents", "size"), sum_acctbal_cents=("cents", "sum"))
            .sort_values("c_mktsegment")
            .reset_index(drop=True)
        )
        assert len(got) > 0  # the anti-join actually keeps someone
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


class TestHourlyAnomalies:
    def test_flags_match_bruteforce(self, ray_session, quiet_data_context):
        import pandas as pd
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import hourly_anomalies

        sf = "/root/testdata/sf0.001"
        got = hourly_anomalies(sf).to_pandas()
        ev = pq.read_table(sf + "/events.parquet", columns=["ts", "event_type"])
        df = ev.to_pandas()
        # parquet timestamps load as datetime64[us]: int64 view IS micros
        df["hour_us"] = df["ts"].dt.floor("h").astype("int64")
        flagged = []
        for etype, g in df.groupby("event_type"):
            h = g.groupby("hour_us").size()
            hh, s = len(h), int(h.sum())
            q = sum(int(v) * int(v) for v in h)
            rhs = 4 * (q * hh - s * s)
            for hour, n in h.items():
                if (hh * int(n) - s) ** 2 > rhs:
                    flagged.append((etype, int(hour), int(n)))
        want = (
            pd.DataFrame(flagged, columns=["event_type", "hour_us", "n"])
            .sort_values(["event_type", "hour_us"])
            .reset_index(drop=True)
        )
        got = got.sort_values(["event_type", "hour_us"]).reset_index(drop=True)
        assert len(got) > 0  # the gate actually fires on this corpus
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


class TestPartAffinity:
    def test_topk_matches_bruteforce(self, ray_session, quiet_data_context):
        from collections import Counter
        from itertools import combinations

        import pandas as pd
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import (
            PART_AFFINITY_K, part_affinity,
        )

        sf = "/root/testdata/sf0.001"
        got = part_affinity(sf).to_pandas().reset_index(drop=True)
        li = pq.read_table(
            sf + "/lineitem.parquet", columns=["l_orderkey", "l_partkey"]
        ).to_pandas()
        counts: Counter = Counter()
        for _, g in li.groupby("l_orderkey"):
            for a, b in combinations(sorted(set(g["l_partkey"])), 2):
                counts[(a, b)] += 1
        rows = sorted(
            ((n, a, b) for (a, b), n in counts.items()),
            key=lambda t: (-t[0], t[1], t[2]),
        )[:PART_AFFINITY_K]
        want = pd.DataFrame(
            {
                "part_a": [a for _, a, _ in rows],
                "part_b": [b for _, _, b in rows],
                "n_orders": [n for n, _, _ in rows],
            }
        )
        assert len(got) == PART_AFFINITY_K
        # the cut is deterministic: exact frame equality, order included
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


class TestEventFunnelEdges:
    def test_order_and_window_constraints(
        self, ray_session, quiet_data_context, tmp_path
    ):
        """A click BEFORE the first view never converts; a purchase
        outside the window after the qualifying click never converts."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import event_funnel

        m = 60_000_000  # one minute in micros
        rows = [
            # u1: clean chain inside the window
            (1, "view", 0), (1, "click", 10 * m), (1, "purchase", 20 * m),
            # u2: click precedes its only view — stops at step 1
            (2, "click", 0), (2, "view", 10 * m),
            # u3: purchase lands outside the window after the click
            (3, "view", 0), (3, "click", 10 * m),
            (3, "purchase", (10 + 481) * m),
            # noise the narrow pass must drop
            (1, "error", 5 * m), (2, "signup", 5 * m),
        ]
        t = pa.table(
            {
                "user_id": pa.array([r[0] for r in rows], pa.int64()),
                "event_type": pa.array([r[1] for r in rows], pa.string()),
                "ts": pa.array(
                    [r[2] for r in rows], pa.timestamp("us")
                ),
            }
        )
        pq.write_table(t, str(tmp_path / "events.parquet"))
        got = (
            event_funnel(str(tmp_path))
            .to_pandas()
            .sort_values("step_idx")
            .reset_index(drop=True)
        )
        assert got["n_users"].tolist() == [3, 2, 1]


class TestLargeOrders:
    def test_threshold_binds_and_matches_brute_force(
        self, ray_session, quiet_data_context
    ):
        """The Q18 gate must actually bind on sf0.001 (some orders
        survive, most don't) and match a pandas brute force."""
        import pandas as pd
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import (
            LARGE_ORDER_MIN_QTY_CENTS, large_orders,
        )

        sf = "/root/testdata/sf0.001"
        got = (
            large_orders(sf)
            .to_pandas()
            .sort_values("o_orderkey")
            .reset_index(drop=True)
        )
        li = pq.read_table(
            sf + "/lineitem.parquet", columns=["l_orderkey", "l_quantity"]
        ).to_pandas()
        li["q"] = (li["l_quantity"] * 100).round().astype("int64")
        per = li.groupby("l_orderkey")["q"].sum()
        big = per[per > LARGE_ORDER_MIN_QTY_CENTS]
        assert 0 < len(big) < len(per)
        assert sorted(got["o_orderkey"]) == sorted(big.index)
        ords = pq.read_table(sf + "/orders.parquet").to_pandas()
        cust = pq.read_table(sf + "/customer.parquet").to_pandas()
        want = (
            ords[ords["o_orderkey"].isin(big.index)]
            .merge(cust, left_on="o_custkey", right_on="c_custkey")
            .sort_values("o_orderkey")
        )
        assert got["c_name"].tolist() == want["c_name"].tolist()
        assert got["sum_qty_cents"].tolist() == (
            big.loc[want["o_orderkey"]].tolist()
        )


class TestCustomerOrderHistogram:
    def test_zero_order_bin_appears(
        self, ray_session, quiet_data_context, tmp_path
    ):
        """Customers with no orders must land in the n_orders=0 bin —
        the LEFT JOIN semantics the sf tables never exercise (every
        generated customer has orders)."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import (
            customer_order_histogram,
        )

        cust = pa.table(
            {
                "c_custkey": pa.array([1, 2, 3, 4, 5], pa.int64()),
                "c_name": pa.array([f"c{i}" for i in range(5)], pa.string()),
            }
        )
        ords = pa.table(
            {
                "o_orderkey": pa.array([10, 11, 12], pa.int64()),
                "o_custkey": pa.array([1, 1, 3], pa.int64()),
            }
        )
        pq.write_table(cust, str(tmp_path / "customer.parquet"))
        pq.write_table(ords, str(tmp_path / "orders.parquet"))
        got = customer_order_histogram(str(tmp_path))
        want = {0: 3, 1: 1, 2: 1}
        assert dict(zip(got["n_orders"], got["n_customers"])) == want

    def test_total_mass_conserved(self, ray_session, quiet_data_context):
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import (
            customer_order_histogram,
        )

        sf = "/root/testdata/sf0.001"
        got = customer_order_histogram(sf)
        n_cust = pq.read_metadata(sf + "/customer.parquet").num_rows
        n_ord = pq.read_metadata(sf + "/orders.parquet").num_rows
        assert int((got["n_orders"] * got["n_customers"]).sum()) == n_ord
        assert int(got["n_customers"].sum()) == n_cust


class TestPromoRevenueShare:
    def test_share_bounds_and_identity(self, ray_session, quiet_data_context):
        """promo ≤ total per month, share micros in [0, 1e6], and the
        floor-division identity holds row by row."""
        from pdf_parser_ray.pipelines.relational import promo_revenue_share

        got = promo_revenue_share("/root/testdata/sf0.001").to_pandas()
        assert len(got) > 10
        assert (got["promo_rev_cc"] <= got["total_rev_cc"]).all()
        assert got["promo_share_micros"].between(0, 1_000_000).all()
        for _, r in got.iterrows():
            assert (
                int(r["promo_share_micros"])
                == int(r["promo_rev_cc"]) * 1_000_000 // int(r["total_rev_cc"])
            )


class TestEventTransitions:
    def test_tie_break_and_counts(
        self, ray_session, quiet_data_context, tmp_path
    ):
        """Two events in the same microsecond order by event_id; cross-
        user boundaries never form a transition."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import event_transitions

        rows = [
            # u1: view -> click -> click (tie at t=10 broken by id 3<4)
            (1, 1, "view", 0), (1, 4, "purchase", 10), (1, 3, "click", 10),
            # u2: single event, no transition
            (2, 5, "view", 0),
            # u3: error -> view
            (3, 6, "error", 0), (3, 7, "view", 1),
        ]
        t = pa.table(
            {
                "user_id": pa.array([r[0] for r in rows], pa.int64()),
                "event_id": pa.array([r[1] for r in rows], pa.int64()),
                "event_type": pa.array([r[2] for r in rows], pa.string()),
                "ts": pa.array([r[3] for r in rows], pa.timestamp("us")),
            }
        )
        pq.write_table(t, str(tmp_path / "events.parquet"))
        got = event_transitions(str(tmp_path)).to_pandas()
        pairs = {
            (r["prev_type"], r["next_type"]): r["n"] for _, r in got.iterrows()
        }
        assert pairs == {
            ("view", "click"): 1,
            ("click", "purchase"): 1,
            ("error", "view"): 1,
        }


class TestReturnedItems:
    def test_matches_brute_force(self, ray_session, quiet_data_context):
        import pandas as pd
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import (
            RETURNED_TOP_K, returned_items,
        )

        sf = "/root/testdata/sf0.001"
        got = returned_items(sf).to_pandas().reset_index(drop=True)
        li = pq.read_table(sf + "/lineitem.parquet").to_pandas()
        li = li[li["l_returnflag"] == "R"].copy()
        li["rev"] = (li["l_extendedprice"] * 100).round().astype("int64") * (
            100 - (li["l_discount"] * 100).round().astype("int64")
        )
        ords = pq.read_table(sf + "/orders.parquet").to_pandas()
        cust = pq.read_table(sf + "/customer.parquet").to_pandas()
        nat = pq.read_table(sf + "/nation.parquet").to_pandas()
        m = li.merge(ords, left_on="l_orderkey", right_on="o_orderkey")
        tot = m.groupby("o_custkey", as_index=False)["rev"].sum()
        tot = tot.merge(
            cust, left_on="o_custkey", right_on="c_custkey"
        ).merge(nat, left_on="c_nationkey", right_on="n_nationkey")
        tot = tot.sort_values(
            ["rev", "c_custkey"], ascending=[False, True], kind="stable"
        ).head(RETURNED_TOP_K)
        assert got["c_custkey"].tolist() == tot["c_custkey"].tolist()
        assert got["revenue_cc"].tolist() == tot["rev"].tolist()
        assert got["n_name"].tolist() == tot["n_name"].tolist()


class TestOrderPriorityCounts:
    def test_exists_gate(self, ray_session, quiet_data_context):
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import order_priority_counts

        sf = "/root/testdata/sf0.001"
        got = order_priority_counts(sf).to_pandas()
        li = pq.read_table(
            sf + "/lineitem.parquet", columns=["l_orderkey", "l_shipdate"]
        ).to_pandas()
        ords = pq.read_table(sf + "/orders.parquet").to_pandas()
        ms = li.groupby("l_orderkey")["l_shipdate"].max()
        late = ords[
            ords["o_orderkey"].map(ms).notna()
            & (ords["o_orderkey"].map(ms) > ords["o_orderdate"])
        ]
        want = late.groupby("o_orderpriority").size()
        assert dict(zip(got["o_orderpriority"], got["n_orders"])) == dict(
            want.items()
        )
        # the gate must actually bind: not every order ships late
        assert int(got["n_orders"].sum()) < len(ords)


class TestSegmentOrderQuantiles:
    def test_matches_brute_force(self, ray_session, quiet_data_context):
        import math

        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import (
            segment_order_quantiles,
        )

        sf = "/root/testdata/sf0.001"
        got = (
            segment_order_quantiles(sf)
            .to_pandas()
            .set_index("c_mktsegment")
            .sort_index()
        )
        ords = pq.read_table(sf + "/orders.parquet").to_pandas()
        cust = pq.read_table(sf + "/customer.parquet").to_pandas()
        m = ords.merge(cust, left_on="o_custkey", right_on="c_custkey")
        m["cents"] = (m["o_totalprice"] * 100).round().astype("int64")
        for seg, g in m.groupby("c_mktsegment"):
            v = sorted(g["cents"])
            for q, col in ((0.25, "p25_cents"), (0.5, "p50_cents"),
                           (0.75, "p75_cents")):
                want = v[max(1, math.ceil(q * len(v))) - 1]
                assert got.loc[seg, col] == want, (seg, col)


class TestNationTradeBalance:
    def test_matches_brute_force(self, ray_session, quiet_data_context):
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import nation_trade_balance

        sf = "/root/testdata/sf0.001"
        got = (
            nation_trade_balance(sf)
            .to_pandas()
            .set_index(["supp_nation", "cust_nation"])
            .sort_index()
        )
        li = pq.read_table(sf + "/lineitem.parquet").to_pandas()
        li["rev"] = (li["l_extendedprice"] * 100).round().astype("int64") * (
            100 - (li["l_discount"] * 100).round().astype("int64")
        )
        ords = pq.read_table(sf + "/orders.parquet").to_pandas()
        cust = pq.read_table(sf + "/customer.parquet").to_pandas()
        supp = pq.read_table(sf + "/supplier.parquet").to_pandas()
        nat = pq.read_table(sf + "/nation.parquet").to_pandas()
        nm = dict(zip(nat["n_nationkey"], nat["n_name"]))
        m = (
            li.merge(ords, left_on="l_orderkey", right_on="o_orderkey")
            .merge(cust, left_on="o_custkey", right_on="c_custkey")
            .merge(supp, left_on="l_suppkey", right_on="s_suppkey")
        )
        m["supp_nation"] = m["s_nationkey"].map(nm)
        m["cust_nation"] = m["c_nationkey"].map(nm)
        want = (
            m.groupby(["supp_nation", "cust_nation"])["rev"].sum().sort_index()
        )
        assert got["revenue_cc"].tolist() == want.tolist()
        assert len(got) > 100  # most of the 25x25 pair space is populated


class TestEventsDauWau:
    def test_window_and_gap_semantics(
        self, ray_session, quiet_data_context, tmp_path
    ):
        """WAU counts a user active any of the trailing 7 existing days;
        a user active 8 days before drops out; stickiness is exact
        integer micros."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import events_dau_wau

        day = 86_400_000_000
        rows = [
            (1, 0), (2, 0),          # day 0: users 1, 2
            (1, 3 * day),            # day 3: user 1
            (3, 10 * day), (1, 10 * day),  # day 10: users 3, 1
        ]
        t = pa.table(
            {
                "user_id": pa.array([r[0] for r in rows], pa.int64()),
                "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
            }
        )
        pq.write_table(t, str(tmp_path / "events.parquet"))
        got = (
            events_dau_wau(str(tmp_path))
            .to_pandas()
            .set_index("day_us")
            .sort_index()
        )
        # day 0: dau 2, wau 2; day 3: dau 1, wau {1,2}=2;
        # day 10: dau 2, wau 2 (day-3 activity is 7 days back, outside)
        assert got.loc[0].tolist() == [2, 2, 1_000_000]
        assert got.loc[3 * day].tolist() == [1, 2, 500_000]
        assert got.loc[10 * day].tolist() == [2, 2, 1_000_000]
        assert len(got) == 3  # phantom in-between days never appear


class TestUserLifetimes:
    def test_matches_brute_force(self, ray_session, quiet_data_context):
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import user_lifetimes

        sf = "/root/testdata/sf0.001"
        got = (
            user_lifetimes(sf).to_pandas().set_index("user_id").sort_index()
        )
        e = pq.read_table(
            sf + "/events.parquet", columns=["user_id", "ts"]
        ).to_pandas()
        day = 86_400_000_000
        e["d"] = e["ts"].astype("int64") // day
        want = e.groupby("user_id").agg(
            first=("d", "min"), last=("d", "max"),
            days=("d", "nunique"), n=("d", "size"),
        )
        assert got["first_day_us"].tolist() == (want["first"] * day).tolist()
        assert got["last_day_us"].tolist() == (want["last"] * day).tolist()
        assert got["active_days"].tolist() == want["days"].tolist()
        assert got["n_events"].tolist() == want["n"].tolist()


class TestShippingPriority:
    def test_matches_brute_force(self, ray_session, quiet_data_context):
        import numpy as np
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import (
            SHIP_CUTOFF, SHIP_SEGMENT, SHIP_TOP_K, _epoch_us,
            shipping_priority,
        )

        sf = "/root/testdata/sf0.001"
        got = shipping_priority(sf).to_pandas()
        cut = _epoch_us(SHIP_CUTOFF)
        li = pq.read_table(sf + "/lineitem.parquet").to_pandas()
        o = pq.read_table(sf + "/orders.parquet").to_pandas()
        c = pq.read_table(sf + "/customer.parquet").to_pandas()
        li["ship"] = li["l_shipdate"].astype("int64")
        li = li[li["ship"] > cut]
        li["rev"] = np.round(li["l_extendedprice"] * 100).astype(np.int64) * (
            100 - np.round(li["l_discount"] * 100).astype(np.int64)
        )
        o["od"] = o["o_orderdate"].astype("int64")
        o = o[o["od"] < cut]
        seg = set(c[c["c_mktsegment"] == SHIP_SEGMENT]["c_custkey"])
        j = li.merge(o, left_on="l_orderkey", right_on="o_orderkey")
        j = j[j["o_custkey"].isin(seg)]
        want = (
            j.groupby(["l_orderkey", "od"], as_index=False)["rev"]
            .sum()
            .sort_values(["rev", "l_orderkey"], ascending=[False, True])
            .head(SHIP_TOP_K)
        )
        assert got["o_orderkey"].tolist() == want["l_orderkey"].tolist()
        assert got["revenue_cc"].tolist() == want["rev"].tolist()
        assert got["o_orderdate_us"].tolist() == want["od"].tolist()


class TestSmallQtyRevenue:
    def test_matches_brute_force(self, ray_session, quiet_data_context):
        import numpy as np
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import (
            SMALL_QTY_BRAND, small_qty_revenue,
        )

        sf = "/root/testdata/sf0.001"
        got = small_qty_revenue(sf).to_pandas()
        li = pq.read_table(sf + "/lineitem.parquet").to_pandas()
        p = pq.read_table(sf + "/part.parquet").to_pandas()
        keep = set(p[p["p_brand"] == SMALL_QTY_BRAND]["p_partkey"])
        li = li[li["l_partkey"].isin(keep)].copy()
        li["q"] = np.round(li["l_quantity"]).astype(np.int64)
        li["pc"] = np.round(li["l_extendedprice"] * 100).astype(np.int64)
        agg = li.groupby("l_partkey")["q"].agg(["count", "sum"])
        cnt = agg["count"].reindex(li["l_partkey"]).to_numpy(np.int64)
        sumq = agg["sum"].reindex(li["l_partkey"]).to_numpy(np.int64)
        gate = 5 * li["q"].to_numpy() * cnt < sumq
        assert got["revenue_cc"].iloc[0] == li["pc"].to_numpy()[gate].sum()
        assert got["n_items"].iloc[0] == int(gate.sum())


class TestMarketShare:
    def test_share_algebra(self, ray_session, quiet_data_context):
        from pdf_parser_ray.pipelines.relational import market_share

        got = market_share("/root/testdata/sf0.001").to_pandas()
        assert len(got) > 0
        # the share must be the exact integer floor of nation/total
        for _, r in got.iterrows():
            assert 0 <= r["nation_cc"] <= r["total_cc"]
            assert r["share_micros"] == (r["nation_cc"] * 1_000_000) // r["total_cc"]


class TestInterEventQuantiles:
    def test_matches_brute_force(self, ray_session, quiet_data_context):
        import math

        import numpy as np
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import inter_event_quantiles

        sf = "/root/testdata/sf0.001"
        got = inter_event_quantiles(sf).to_pandas().iloc[0]
        e = pq.read_table(
            sf + "/events.parquet", columns=["user_id", "ts", "event_id"]
        ).to_pandas()
        e["ts_us"] = e["ts"].astype("int64")
        e = e.sort_values(["user_id", "ts_us", "event_id"])
        u = e["user_id"].to_numpy()
        ts = e["ts_us"].to_numpy(np.int64)
        gaps = np.sort((ts[1:] - ts[:-1])[u[1:] == u[:-1]] // 1_000_000)
        assert got["n_gaps"] == len(gaps)
        for q, col in ((0.25, "p25_s"), (0.5, "p50_s"), (0.75, "p75_s"),
                       (0.95, "p95_s")):
            assert got[col] == gaps[max(1, math.ceil(q * len(gaps))) - 1]


class TestSupplierConcentration:
    def test_matches_brute_force(self, ray_session, quiet_data_context):
        import numpy as np
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import supplier_concentration

        sf = "/root/testdata/sf0.001"
        got = (
            supplier_concentration(sf).to_pandas().set_index("n_name").sort_index()
        )
        li = pq.read_table(sf + "/lineitem.parquet").to_pandas()
        s = pq.read_table(sf + "/supplier.parquet").to_pandas()
        n = pq.read_table(sf + "/nation.parquet").to_pandas()
        li["rev"] = np.round(li["l_extendedprice"] * 100).astype(np.int64) * (
            100 - np.round(li["l_discount"] * 100).astype(np.int64)
        )
        per = li.groupby("l_suppkey", as_index=False)["rev"].sum()
        per = per.merge(s, left_on="l_suppkey", right_on="s_suppkey").merge(
            n, left_on="s_nationkey", right_on="n_nationkey"
        )
        want = per.groupby("n_name").agg(
            n_suppliers=("rev", "size"), total_cc=("rev", "sum"),
            top_cc=("rev", "max"),
        )
        assert got["n_suppliers"].tolist() == want["n_suppliers"].tolist()
        assert got["total_cc"].tolist() == want["total_cc"].tolist()
        assert got["top_cc"].tolist() == want["top_cc"].tolist()
        for nm, r in got.iterrows():
            assert r["top_micros"] == (r["top_cc"] * 1_000_000) // r["total_cc"]


class TestSoleLateSupplier:
    def test_matches_brute_force(self, ray_session, quiet_data_context):
        """Q21-shaped blame: late AND >=2 suppliers AND exactly one
        late supplier — pandas brute force over sf0.001."""
        import numpy as np
        import pandas as pd
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import (
            LATE_SUPPLIER_DAYS, sole_late_supplier,
        )

        sf = "/root/testdata/sf0.001"
        got = (
            sole_late_supplier(sf)
            .to_pandas()
            .sort_values("s_name")
            .reset_index(drop=True)
        )
        li = pq.read_table(
            sf + "/lineitem.parquet",
            columns=["l_orderkey", "l_suppkey", "l_shipdate"],
        ).to_pandas()
        ords = pq.read_table(
            sf + "/orders.parquet", columns=["o_orderkey", "o_orderdate"]
        ).to_pandas()
        supp = pq.read_table(
            sf + "/supplier.parquet", columns=["s_suppkey", "s_name"]
        ).to_pandas()
        li["shipday"] = li["l_shipdate"].astype("int64") // 86_400_000_000
        ords["oday"] = ords["o_orderdate"].astype("int64") // 86_400_000_000
        f = li.groupby(["l_orderkey", "l_suppkey"], as_index=False)[
            "shipday"
        ].max()
        j = f.merge(ords, left_on="l_orderkey", right_on="o_orderkey")
        j["late"] = (j["shipday"] - j["oday"]) > LATE_SUPPLIER_DAYS
        g = j.groupby("l_orderkey").agg(
            n_supp=("late", "size"), n_late=("late", "sum")
        )
        jj = j.join(g, on="l_orderkey")
        blamed = jj[jj["late"] & (jj["n_supp"] >= 2) & (jj["n_late"] == 1)]
        want = (
            blamed.groupby("l_suppkey")
            .size()
            .rename("n_orders")
            .reset_index()
            .merge(supp, left_on="l_suppkey", right_on="s_suppkey")
            .sort_values("s_name")
            .reset_index(drop=True)
        )
        # the predicate must actually bind: some blamed, some not
        assert 0 < len(want)
        assert blamed["late"].all()
        assert got["s_name"].tolist() == want["s_name"].tolist()
        assert got["n_orders"].tolist() == want["n_orders"].tolist()


class TestLatencyBandPriority:
    def test_matches_brute_force(self, ray_session, quiet_data_context):
        """Q12-shaped band × priority matrix vs a pandas brute force;
        every band must be populated and counts conserve lineitems."""
        import numpy as np
        import pandas as pd
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import (
            HIGH_PRIORITIES, LATENCY_ON_TIME_DAYS, latency_band_priority,
        )

        sf = "/root/testdata/sf0.001"
        got = (
            latency_band_priority(sf)
            .to_pandas()
            .sort_values("band")
            .reset_index(drop=True)
        )
        li = pq.read_table(
            sf + "/lineitem.parquet", columns=["l_orderkey", "l_shipdate"]
        ).to_pandas()
        ords = pq.read_table(
            sf + "/orders.parquet",
            columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
        ).to_pandas()
        j = li.merge(ords, left_on="l_orderkey", right_on="o_orderkey")
        days = (
            j["l_shipdate"].astype("int64") // 86_400_000_000
            - j["o_orderdate"].astype("int64") // 86_400_000_000
        )
        band = np.where(
            days < 0,
            "early",
            np.where(days <= LATENCY_ON_TIME_DAYS, "on_time", "late"),
        )
        high = j["o_orderpriority"].isin(HIGH_PRIORITIES).to_numpy()
        want = (
            pd.DataFrame(
                {
                    "band": band,
                    "high_n": high.astype("int64"),
                    "low_n": (~high).astype("int64"),
                }
            )
            .groupby("band", as_index=False)
            .sum()
            .sort_values("band")
            .reset_index(drop=True)
        )
        assert set(got["band"]) == {"early", "on_time", "late"}
        assert int(got["high_n"].sum() + got["low_n"].sum()) == len(j)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


class TestParetoOrders:
    def test_matches_brute_force(self, ray_session, quiet_data_context):
        """O(n²) dominance brute force over sf0.001; the local-front
        union property must also hold on a synthetic tie fixture."""
        import numpy as np
        import pandas as pd
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import pareto_orders

        sf = "/root/testdata/sf0.001"
        got = (
            pareto_orders(sf)
            .to_pandas()
            .sort_values("o_orderkey")
            .reset_index(drop=True)
        )
        o = pq.read_table(sf + "/orders.parquet").to_pandas()
        cents = (o["o_totalprice"] * 100).round().astype("int64").to_numpy()
        day = (o["o_orderdate"].astype("int64") // 86_400_000_000).to_numpy()
        keep = []
        for i in range(len(o)):
            dominated = bool(
                np.any(
                    (cents >= cents[i])
                    & (day <= day[i])
                    & ((cents > cents[i]) | (day < day[i]))
                )
            )
            if not dominated:
                keep.append(i)
        want = pd.DataFrame(
            {
                "o_orderkey": o["o_orderkey"].to_numpy()[keep],
                "price_cents": cents[keep],
                "order_day": day[keep],
            }
        ).sort_values("o_orderkey").reset_index(drop=True)
        assert 0 < len(want) < len(o)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_both_axes_ties_survive(self):
        """Two identical points never dominate each other — both stay
        on the front (the sweep's within-level min-day rule) — and a
        point dominated on one axis with the other equal is dropped."""
        import pandas as pd

        from pdf_parser_ray.pipelines.relational import _pareto_front

        df = pd.DataFrame(
            {
                "o_orderkey": [1, 2, 3],
                "price_cents": [500, 500, 400],
                "order_day": [10, 10, 10],
            }
        )
        assert sorted(_pareto_front(df)["o_orderkey"]) == [1, 2]


class TestMinCostSupplier:
    def test_matches_brute_force(self, ray_session, quiet_data_context):
        """Q2-shaped per-part argmin unit cost vs a pandas brute force;
        the size filter and the suppkey tie-break must both bind."""
        import numpy as np
        import pandas as pd
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import (
            MIN_COST_MAX_SIZE, min_cost_supplier,
        )

        sf = "/root/testdata/sf0.001"
        got = (
            min_cost_supplier(sf)
            .to_pandas()
            .sort_values("p_partkey")
            .reset_index(drop=True)
        )
        li = pq.read_table(
            sf + "/lineitem.parquet",
            columns=["l_partkey", "l_suppkey", "l_quantity", "l_extendedprice"],
        ).to_pandas()
        part = pq.read_table(
            sf + "/part.parquet", columns=["p_partkey", "p_size"]
        ).to_pandas()
        supp = pq.read_table(
            sf + "/supplier.parquet", columns=["s_suppkey", "s_name"]
        ).to_pandas()
        li["u"] = (
            np.round(li["l_extendedprice"] * 100).astype(np.int64) * 10000
        ) // np.round(li["l_quantity"] * 100).astype(np.int64)
        u = li.groupby(["l_partkey", "l_suppkey"], as_index=False)["u"].min()
        ok = set(part.loc[part["p_size"] <= MIN_COST_MAX_SIZE, "p_partkey"])
        u = u[u["l_partkey"].isin(ok)]
        best = u.sort_values(["l_partkey", "u", "l_suppkey"]).drop_duplicates(
            "l_partkey"
        )
        want = best.merge(
            supp, left_on="l_suppkey", right_on="s_suppkey"
        ).sort_values("l_partkey")
        assert 0 < len(want) < len(part)  # the size filter binds
        assert got["p_partkey"].tolist() == want["l_partkey"].tolist()
        assert got["s_suppkey"].tolist() == want["l_suppkey"].tolist()
        assert got["s_name"].tolist() == want["s_name"].tolist()
        assert got["unit_cc"].tolist() == want["u"].tolist()


class TestBrandSupplierCounts:
    def test_matches_brute_force(self, ray_session, quiet_data_context):
        """Q16-shaped distinct-supplier counts vs pandas nunique; both
        exclusion predicates must remove rows."""
        import pandas as pd
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import (
            Q16_EXCL_BRAND, Q16_EXCL_TYPE_PREFIX, brand_supplier_counts,
        )

        sf = "/root/testdata/sf0.001"
        got = (
            brand_supplier_counts(sf)
            .to_pandas()
            .sort_values(["p_brand", "p_size"])
            .reset_index(drop=True)
        )
        li = pq.read_table(
            sf + "/lineitem.parquet", columns=["l_partkey", "l_suppkey"]
        ).to_pandas()
        part = pq.read_table(
            sf + "/part.parquet",
            columns=["p_partkey", "p_brand", "p_type", "p_size"],
        ).to_pandas()
        keep = part[
            (part["p_brand"] != Q16_EXCL_BRAND)
            & ~part["p_type"].str.startswith(Q16_EXCL_TYPE_PREFIX)
        ]
        assert 0 < len(keep) < len(part)  # both exclusions bind
        m = li.merge(keep, left_on="l_partkey", right_on="p_partkey")
        want = (
            m.groupby(["p_brand", "p_size"], as_index=False)
            .agg(supplier_cnt=("l_suppkey", "nunique"))
            .sort_values(["p_brand", "p_size"])
            .reset_index(drop=True)
        )
        assert got["p_brand"].tolist() == want["p_brand"].tolist()
        assert got["p_size"].tolist() == want["p_size"].tolist()
        assert got["supplier_cnt"].tolist() == want["supplier_cnt"].tolist()


class TestDominantSuppliers:
    def test_matches_brute_force(self, ray_session, quiet_data_context):
        """Q20-shaped 2q > total dominance vs pandas; the nsup >= 2
        gate must exclude monopolized parts."""
        import numpy as np
        import pandas as pd
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import (
            DOM_DATE_HI, DOM_DATE_LO, dominant_suppliers,
        )

        sf = "/root/testdata/sf0.001"
        got = (
            dominant_suppliers(sf)
            .to_pandas()
            .sort_values("s_suppkey")
            .reset_index(drop=True)
        )
        li = pq.read_table(
            sf + "/lineitem.parquet",
            columns=["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"],
        ).to_pandas()
        supp = pq.read_table(
            sf + "/supplier.parquet", columns=["s_suppkey", "s_name"]
        ).to_pandas()
        lo = pd.Timestamp(DOM_DATE_LO)
        hi = pd.Timestamp(DOM_DATE_HI)
        w = li[(li["l_shipdate"] >= lo) & (li["l_shipdate"] < hi)].copy()
        assert 0 < len(w) < len(li)  # the window binds
        w["q"] = np.round(w["l_quantity"] * 100).astype(np.int64)
        ps = w.groupby(["l_partkey", "l_suppkey"], as_index=False)["q"].sum()
        tot = ps.groupby("l_partkey").agg(tq=("q", "sum"), nsup=("q", "size"))
        j = ps.join(tot, on="l_partkey")
        monop = j[j["nsup"] == 1]
        assert len(monop) > 0  # the >=2-supplier gate excludes something
        dom = j[(2 * j["q"] > j["tq"]) & (j["nsup"] >= 2)]
        want = (
            dom.groupby("l_suppkey", as_index=False)
            .agg(n_parts=("q", "size"))
            .merge(supp, left_on="l_suppkey", right_on="s_suppkey")
            .sort_values("l_suppkey")
            .reset_index(drop=True)
        )
        assert got["s_suppkey"].tolist() == want["s_suppkey"].tolist()
        assert got["s_name"].tolist() == want["s_name"].tolist()
        assert got["n_parts"].tolist() == want["n_parts"].tolist()


class TestRobustValueOutliers:
    def test_matches_brute_force(self, ray_session, quiet_data_context):
        """Median/MAD/outlier-count per type vs a pandas brute force
        using the same discrete (n+1)//2 index; the MAD gate must
        actually flag something somewhere."""
        import numpy as np
        import pandas as pd
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import (
            MAD_OUTLIER_MULT, robust_value_outliers,
        )

        sf = "/root/testdata/sf0.001"
        got = (
            robust_value_outliers(sf)
            .to_pandas()
            .sort_values("event_type")
            .reset_index(drop=True)
        )
        ev = pq.read_table(
            sf + "/events.parquet", columns=["event_type", "value"]
        ).to_pandas()
        ev["cents"] = np.round(ev["value"] * 100).astype(np.int64)

        def disc_med(v):
            v = np.sort(np.asarray(v, np.int64))
            return int(v[(len(v) + 1) // 2 - 1])

        rows = []
        for t, g in ev.groupby("event_type"):
            med = disc_med(g["cents"])
            dev = np.abs(g["cents"].to_numpy(np.int64) - med)
            mad = disc_med(dev)
            rows.append(
                (t, med, mad, int((dev > MAD_OUTLIER_MULT * mad).sum()), len(g))
            )
        want = pd.DataFrame(
            rows,
            columns=["event_type", "med_cents", "mad_cents", "n_outliers", "n"],
        ).sort_values("event_type").reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
        assert got["n_outliers"].sum() > 0  # the gate binds somewhere


class TestCustomerValueDeciles:
    def test_matches_brute_force(self, ray_session, quiet_data_context):
        """Distributed ntile vs pandas qcut-free rank arithmetic; tile
        sizes must follow the SQL remainder rule and conserve rows."""
        import numpy as np
        import pandas as pd
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import (
            VALUE_DECILES, customer_value_deciles,
        )

        sf = "/root/testdata/sf0.001"
        got = (
            customer_value_deciles(sf)
            .to_pandas()
            .sort_values("decile")
            .reset_index(drop=True)
        )
        o = pq.read_table(
            sf + "/orders.parquet", columns=["o_custkey", "o_totalprice"]
        ).to_pandas()
        o["cents"] = np.round(o["o_totalprice"] * 100).astype(np.int64)
        rev = (
            o.groupby("o_custkey", as_index=False)["cents"]
            .sum()
            .sort_values(["cents", "o_custkey"])
            .reset_index(drop=True)
        )
        n = len(rev)
        base, extra = divmod(n, VALUE_DECILES)
        rank = np.arange(n)
        cut = extra * (base + 1)
        dec = np.where(
            rank < cut, rank // (base + 1), extra + (rank - cut) // base
        )
        rev["decile"] = dec
        want = rev.groupby("decile", as_index=False).agg(
            n_customers=("cents", "size"),
            total_cc=("cents", "sum"),
            min_cc=("cents", "min"),
            max_cc=("cents", "max"),
        )
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
        assert got["n_customers"].sum() == n
        sizes = got["n_customers"].tolist()
        assert set(sizes) <= {base, base + 1}  # the ntile remainder rule


class TestEventTrigrams:
    def test_matches_brute_force(self, ray_session, quiet_data_context):
        """3-step path counts vs a per-user Python walk in (ts,
        event_id) order; trigram counts relate to transition counts."""
        import pandas as pd
        import pyarrow.parquet as pq
        from collections import Counter

        from pdf_parser_ray.pipelines.relational import event_trigrams

        sf = "/root/testdata/sf0.001"
        got = event_trigrams(sf).to_pandas()
        ev = (
            pq.read_table(
                sf + "/events.parquet",
                columns=["user_id", "ts", "event_id", "event_type"],
            )
            .to_pandas()
            .sort_values(["user_id", "ts", "event_id"])
        )
        c: Counter = Counter()
        for _, g in ev.groupby("user_id"):
            t = g["event_type"].tolist()
            for a, b, d in zip(t, t[1:], t[2:]):
                c[(a, b, d)] += 1
        want = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[: len(got)]
        got_rows = [
            ((r["t1"], r["t2"], r["t3"]), r["n"]) for _, r in got.iterrows()
        ]
        assert got_rows == want
        assert len(got) == 25 and got["n"].iloc[0] > got["n"].iloc[-1]


class TestUserDrawdowns:
    def test_matches_brute_force(self, ray_session, quiet_data_context):
        """Segment-reset running max vs a per-user Python walk; the
        drawdown must be non-trivial for someone."""
        import numpy as np
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import user_drawdowns

        sf = "/root/testdata/sf0.001"
        got = (
            user_drawdowns(sf)
            .to_pandas()
            .set_index("user_id")
            .sort_index()
        )
        ev = (
            pq.read_table(
                sf + "/events.parquet",
                columns=["user_id", "ts", "event_id", "value"],
            )
            .to_pandas()
            .sort_values(["user_id", "ts", "event_id"])
        )
        ev["cents"] = np.round(ev["value"] * 100).astype(np.int64)
        for uid, g in ev.groupby("user_id"):
            peak, dd = -(1 << 62), 0
            for v in g["cents"]:
                peak = max(peak, v)
                dd = max(dd, peak - v)
            assert got.loc[uid, "peak_cents"] == peak
            assert got.loc[uid, "max_drawdown_cents"] == dd
            assert got.loc[uid, "n_events"] == len(g)
        assert (got["max_drawdown_cents"] > 0).any()


class TestNationYearRevenue:
    def test_matches_brute_force(self, ray_session, quiet_data_context):
        """Two-level (nation, year) rollup vs pandas; years must span
        the shipdate range so the second dimension really binds."""
        import numpy as np
        import pandas as pd
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import nation_year_revenue

        sf = "/root/testdata/sf0.001"
        got = (
            nation_year_revenue(sf)
            .to_pandas()
            .sort_values(["n_name", "year"])
            .reset_index(drop=True)
        )
        li = pq.read_table(
            sf + "/lineitem.parquet",
            columns=["l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"],
        ).to_pandas()
        supp = pq.read_table(
            sf + "/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
        ).to_pandas()
        nat = pq.read_table(
            sf + "/nation.parquet", columns=["n_nationkey", "n_name"]
        ).to_pandas()
        li["rev"] = np.round(li["l_extendedprice"] * 100).astype(np.int64) * (
            100 - np.round(li["l_discount"] * 100).astype(np.int64)
        )
        li["year"] = li["l_shipdate"].dt.year.astype(np.int64)
        m = li.merge(supp, left_on="l_suppkey", right_on="s_suppkey").merge(
            nat, left_on="s_nationkey", right_on="n_nationkey"
        )
        want = (
            m.groupby(["n_name", "year"], as_index=False)["rev"]
            .sum()
            .rename(columns={"rev": "revenue_cc"})
            .sort_values(["n_name", "year"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
        assert got["year"].nunique() > 3  # the year dimension binds


class TestGiniCustomerRevenue:
    def test_matches_brute_force(self, ray_session, quiet_data_context):
        """Sorted-rank identity vs the O(n²) mean-absolute-difference
        definition (computed exactly with Python ints)."""
        import numpy as np
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import gini_customer_revenue

        sf = "/root/testdata/sf0.001"
        got = gini_customer_revenue(sf).to_pandas().iloc[0]
        o = pq.read_table(
            sf + "/orders.parquet", columns=["o_custkey", "o_totalprice"]
        ).to_pandas()
        o["cents"] = np.round(o["o_totalprice"] * 100).astype(np.int64)
        rev = np.sort(
            o.groupby("o_custkey")["cents"].sum().to_numpy(np.int64)
        )
        n, s0 = len(rev), int(rev.sum())
        s1 = int((np.arange(1, n + 1, dtype=np.int64) * rev).sum())
        assert got["n_customers"] == n and got["total_cc"] == s0
        assert got["gini_micros"] == ((2 * s1 - (n + 1) * s0) * 1_000_000) // (
            n * s0
        )
        # cross-check vs the definitional G = mean|xi-xj| / (2*mean)
        mad = sum(
            abs(int(a) - int(b)) for a in rev for b in rev
        )  # n² exact sum
        g_def = mad * 1_000_000 // (2 * n * s0)
        assert abs(got["gini_micros"] - g_def) <= 1  # same value, two floors
        assert 0 < got["gini_micros"] < 1_000_000


class TestUserValueAutocorr:
    def test_matches_brute_force(self, ray_session, quiet_data_context):
        """Lag-1 Pearson per user vs numpy corrcoef on the ordered
        series; signs and micro floors must agree."""
        import numpy as np
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import user_value_autocorr

        sf = "/root/testdata/sf0.001"
        got = (
            user_value_autocorr(sf).to_pandas().set_index("user_id").sort_index()
        )
        ev = (
            pq.read_table(
                sf + "/events.parquet",
                columns=["user_id", "ts", "event_id", "value"],
            )
            .to_pandas()
            .sort_values(["user_id", "ts", "event_id"])
        )
        ev["cents"] = np.round(ev["value"] * 100).astype(np.int64)
        seen = 0
        for uid, g in ev.groupby("user_id"):
            v = g["cents"].to_numpy(np.int64)
            if len(v) < 3:
                assert uid not in got.index
                continue
            x, y = v[:-1], v[1:]
            if x.std() == 0 or y.std() == 0:
                assert uid not in got.index
                continue
            r = float(np.corrcoef(x, y)[0, 1])
            seen += 1
            assert got.loc[uid, "n_pairs"] == len(x)
            # corrcoef's float path differs; agree to 1 micro
            assert abs(got.loc[uid, "r_micros"] - np.floor(r * 1e6)) <= 1
        assert seen > 5  # non-vacuous panel


class TestValueCumeDist:
    def test_matches_brute_force(self, ray_session, quiet_data_context):
        """Exact integer cume_dist vs a pandas rank brute force; ties
        must take the peer-inclusive count and maxima hit exactly 1e6."""
        import numpy as np
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import value_cume_dist

        sf = "/root/testdata/sf0.001"
        got = (
            value_cume_dist(sf).to_pandas().set_index("event_id").sort_index()
        )
        ev = pq.read_table(
            sf + "/events.parquet", columns=["event_id", "event_type", "value"]
        ).to_pandas()
        ev["cents"] = np.round(ev["value"] * 100).astype(np.int64)
        assert len(got) == len(ev)
        for t, g in ev.groupby("event_type"):
            v = np.sort(g["cents"].to_numpy())
            n = len(v)
            for _, r in g.sample(min(40, len(g)), random_state=5).iterrows():
                le = int(np.searchsorted(v, r["cents"], side="right"))
                assert got.loc[r["event_id"], "cd_micros"] == (
                    le * 1_000_000
                ) // n
            top = g.loc[g["cents"].idxmax(), "event_id"]
            assert got.loc[top, "cd_micros"] == 1_000_000


class TestLeaveLastK:
    def test_matches_brute_force(self, ray_session, quiet_data_context):
        """Per-user last-k holdout vs a per-user Python walk; every
        user's test set is exactly its chronological tail."""
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import (
            LEAVE_LAST_K, leave_last_k,
        )

        sf = "/root/testdata/sf0.001"
        got = (
            leave_last_k(sf).to_pandas().set_index("event_id").sort_index()
        )
        ev = (
            pq.read_table(
                sf + "/events.parquet", columns=["user_id", "ts", "event_id"]
            )
            .to_pandas()
            .sort_values(["user_id", "ts", "event_id"])
        )
        assert len(got) == len(ev)
        n_test = 0
        for uid, g in ev.groupby("user_id"):
            ids = g["event_id"].tolist()
            test = set(ids[-LEAVE_LAST_K:])
            n_test += len(test)
            for e in ids:
                assert got.loc[e, "split"] == (
                    "test" if e in test else "train"
                )
        assert (got["split"] == "test").sum() == n_test
        assert (got["split"] == "train").any()


class TestHostAssortativity:
    def test_matches_brute_force(self):
        """Assortativity vs a direct numpy corrcoef over oriented
        endpoint-degree pairs."""
        import numpy as np

        from pdf_parser_ray.pipelines.graph import (
            PR_NODES, host_assortativity, host_graph_edges,
        )

        sf = "/root/testdata/sf0.001"
        got = host_assortativity(sf).iloc[0]
        edges = host_graph_edges(sf).to_pandas()
        und = {
            (min(int(s), int(d)), max(int(s), int(d)))
            for s, d in zip(edges["src"], edges["dst"])
            if s != d
        }
        deg = np.zeros(PR_NODES, np.int64)
        for a, b in und:
            deg[a] += 1
            deg[b] += 1
        x = np.array([deg[a] for a, b in und] + [deg[b] for a, b in und], float)
        y = np.array([deg[b] for a, b in und] + [deg[a] for a, b in und], float)
        r = float(np.corrcoef(x, y)[0, 1])
        assert got["n_edges"] == len(und)
        assert abs(got["r_micros"] - np.floor(r * 1e6)) <= 1
        assert got["r_micros"] != 0  # the metric binds on this graph


class TestRevenueConcentration:
    def test_matches_brute_force(self, ray_session, quiet_data_context):
        """Distributed threshold search vs a direct sorted cumsum; the
        cut must be minimal (one fewer customer falls short)."""
        import numpy as np
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import (
            CONC_PCT_DEN, CONC_PCT_NUM, revenue_concentration,
        )

        sf = "/root/testdata/sf0.001"
        got = revenue_concentration(sf).to_pandas().iloc[0]
        o = pq.read_table(
            sf + "/orders.parquet", columns=["o_custkey", "o_totalprice"]
        ).to_pandas()
        o["cents"] = np.round(o["o_totalprice"] * 100).astype(np.int64)
        rev = np.sort(
            o.groupby("o_custkey")["cents"].sum().to_numpy(np.int64)
        )[::-1]
        tot = int(rev.sum())
        cum = rev.cumsum()
        n_top = int(np.argmax(CONC_PCT_DEN * cum >= CONC_PCT_NUM * tot)) + 1
        assert got["n_customers"] == len(rev)
        assert got["n_top"] == n_top
        assert got["rev_share_micros"] == (int(cum[n_top - 1]) * 1_000_000) // tot
        assert got["top_share_micros"] == (n_top * 1_000_000) // len(rev)
        # minimality: one fewer customer does NOT reach the threshold
        assert CONC_PCT_DEN * int(cum[n_top - 2]) < CONC_PCT_NUM * tot


class TestBootstrapMeanCI:
    def test_matches_brute_force(self, ray_session, quiet_data_context):
        """Replicate moments vs a numpy recomputation of the same
        hash-derived Poisson weights; the weights must look Poisson(1)
        (mean ≈ 1) and the replicate means must actually spread."""
        import numpy as np
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.pack import shuffle_key
        from pdf_parser_ray.pipelines.relational import (
            BOOT_REPS, _poisson_thresholds, bootstrap_mean_ci,
        )

        sf = "/root/testdata/sf0.001"
        got = (
            bootstrap_mean_ci(sf).to_pandas().set_index("b").sort_index()
        )
        assert len(got) == BOOT_REPS
        o = pq.read_table(
            sf + "/orders.parquet", columns=["o_orderkey", "o_totalprice"]
        ).to_pandas()
        okey = o["o_orderkey"].to_numpy(np.int64)
        cents = np.round(o["o_totalprice"] * 100).astype(np.int64).to_numpy()
        T = np.array(_poisson_thresholds(), np.int64)
        total_w = 0
        for b in range(BOOT_REPS):
            w = np.searchsorted(
                T, shuffle_key(okey * BOOT_REPS + b), side="right"
            ).astype(np.int64)
            total_w += int(w.sum())
            assert got.loc[b, "n_eff"] == w.sum()
            assert got.loc[b, "sum_cc"] == (w * cents).sum()
            assert got.loc[b, "mean_milli"] == (
                int((w * cents).sum()) * 1000
            ) // int(w.sum())
        # Poisson(1): average weight near 1 across replicates
        avg = total_w / (BOOT_REPS * len(o))
        assert 0.9 < avg < 1.1
        # the sampling distribution has real spread
        assert got["mean_milli"].nunique() > BOOT_REPS // 2


class TestHourOfDayEffect:
    def test_matches_brute_force(self, ray_session, quiet_data_context):
        """Exact-integer eta-squared vs a Python-int recomputation, and
        sanity vs the float ANOVA identity; a planted pure-hour signal
        must read ~1e6."""
        import numpy as np
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import hour_of_day_effect

        sf = "/root/testdata/sf0.001"
        got = hour_of_day_effect(sf).to_pandas().iloc[0]
        ev = pq.read_table(
            sf + "/events.parquet", columns=["ts", "value"]
        ).to_pandas()
        hour = (
            ev["ts"].astype("int64") // 3_600_000_000
        ) % 24
        cents = np.round(ev["value"] * 100).astype(np.int64)
        K = 1000
        N = len(cents)
        S = int(cents.sum())
        Q = int((cents.astype(object) * cents.astype(object)).sum())
        t = 0
        ng = 0
        for h in range(24):
            m = hour == h
            if not m.any():
                continue
            ng += 1
            sg = int(cents[m].sum())
            t += (sg * sg * K) // int(m.sum())
        den = K * (N * Q - S * S)
        want = ((N * t - K * S * S) * 1_000_000) // den
        assert got["n"] == N and got["n_groups"] == ng
        assert got["eta2_micros"] == want
        # sanity: within 1/1000 of the float ANOVA eta-squared
        means = {h: cents[hour == h].mean() for h in range(24)}
        gm = cents.mean()
        ssb = sum(
            (hour == h).sum() * (means[h] - gm) ** 2 for h in range(24)
        )
        sst = ((cents - gm) ** 2).sum()
        assert abs(got["eta2_micros"] / 1e6 - ssb / sst) < 1e-3

    def test_planted_pure_hour_signal(
        self, ray_session, quiet_data_context, tmp_path
    ):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import hour_of_day_effect

        n = 480
        ts = [1_600_000_000_000_000 + i * 3_600_000_000 for i in range(n)]
        vals = [float((i % 24) * 10) for i in range(n)]  # value == f(hour)
        pq.write_table(
            pa.table(
                {
                    "event_id": pa.array(range(n), pa.int64()),
                    "ts": pa.array(ts, pa.timestamp("us")),
                    "user_id": pa.array([i % 7 for i in range(n)], pa.int64()),
                    "event_type": pa.array(["x"] * n, pa.string()),
                    "value": pa.array(vals, pa.float64()),
                    "props": pa.array([""] * n, pa.string()),
                }
            ),
            str(tmp_path / "events.parquet"),
        )
        got = hour_of_day_effect(str(tmp_path)).to_pandas().iloc[0]
        assert got["eta2_micros"] >= 999_000  # pure diurnal signal


class TestTargetEncodeEvents:
    def test_matches_brute_force(self, ray_session, quiet_data_context):
        """LOO means vs a per-row Python recomputation; the encoding
        must differ from the plain (leaky) per-type mean."""
        import numpy as np
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import target_encode_events

        sf = "/root/testdata/sf0.001"
        got = (
            target_encode_events(sf)
            .to_pandas()
            .set_index("event_id")
            .sort_index()
        )
        ev = pq.read_table(
            sf + "/events.parquet", columns=["event_id", "event_type", "value"]
        ).to_pandas()
        ev["c"] = np.round(ev["value"] * 100).astype(np.int64)
        stats = ev.groupby("event_type")["c"].agg(["count", "sum"])
        n_all, s_all = len(ev), int(ev["c"].sum())
        plain_differs = 0
        for _, r in ev.iterrows():
            n_t = int(stats.loc[r["event_type"], "count"])
            s_t = int(stats.loc[r["event_type"], "sum"])
            if n_t <= 1:
                want = ((s_all - int(r["c"])) * 1000) // (n_all - 1)
            else:
                want = ((s_t - int(r["c"])) * 1000) // (n_t - 1)
                if want != (s_t * 1000) // n_t:
                    plain_differs += 1
            assert got.loc[r["event_id"], "loo_mean_milli"] == want
        assert plain_differs > len(ev) // 2  # LOO genuinely de-leaks


class TestCustomerRFM:
    def test_matches_brute_force(self, ray_session, quiet_data_context):
        """RFM scores vs a pandas recomputation with the same ceil(q*n)
        discrete cutoffs; scores span the range and recency inverts."""
        import numpy as np
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import customer_rfm

        sf = "/root/testdata/sf0.001"
        got = customer_rfm(sf).to_pandas().set_index("ck").sort_index()
        o = pq.read_table(
            sf + "/orders.parquet",
            columns=["o_custkey", "o_totalprice", "o_orderdate"],
        ).to_pandas()
        o["cents"] = np.round(o["o_totalprice"] * 100).astype(np.int64)
        o["day"] = o["o_orderdate"].astype("int64") // 86_400_000_000
        pc_ = o.groupby("o_custkey").agg(
            m=("cents", "sum"), n=("cents", "size"), d=("day", "max")
        )
        nt = len(pc_)
        max_day = int(pc_["d"].max())

        def cuts(series):
            v = np.sort(series.to_numpy(np.int64))
            return [int(v[-(-q * nt // 4) - 1]) for q in (1, 2, 3)]

        cd, cn, cm = cuts(pc_["d"]), cuts(pc_["n"]), cuts(pc_["m"])
        for ck, r in pc_.iterrows():
            g = got.loc[ck]
            assert g["r_days"] == max_day - int(r["d"])
            assert g["f_orders"] == int(r["n"])
            assert g["m_cc"] == int(r["m"])
            assert g["r_score"] == 1 + sum(int(r["d"]) > c for c in cd)
            assert g["f_score"] == 1 + sum(int(r["n"]) > c for c in cn)
            assert g["m_score"] == 1 + sum(int(r["m"]) > c for c in cm)
        # scores use the full 1-4 range on at least one axis
        assert got["m_score"].nunique() == 4
        # recency inversion: the most recent customer scores 4
        assert got.loc[got["r_days"].idxmin(), "r_score"] == 4


class TestHourlyCusum:
    def test_matches_brute_force_and_alarm_binds(
        self, ray_session, quiet_data_context
    ):
        """Integer CUSUM vs a Python replay; the alarm must fire
        somewhere at sf0.001 and reset behavior must hold (S returns
        to 0 after sub-mean stretches)."""
        import numpy as np
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import (
            CUSUM_ALARM_MULT, CUSUM_ALLOW_DIV, hourly_cusum,
        )

        sf = "/root/testdata/sf0.001"
        got = hourly_cusum(sf).sort_values("hour_us").reset_index(drop=True)
        ev = pq.read_table(
            sf + "/events.parquet", columns=["ts", "value"]
        ).to_pandas()
        ev["h"] = (
            ev["ts"].astype("int64") // 3_600_000_000
        ) * 3_600_000_000
        ev["c"] = np.round(ev["value"] * 100).astype(np.int64)
        hourly = (
            ev.groupby("h")["c"].sum().sort_index()
        )
        mu = int(hourly.sum()) // len(hourly)
        k = mu // CUSUM_ALLOW_DIV
        s = 0
        for i, (h, c) in enumerate(hourly.items()):
            s = max(0, s + int(c) - mu - k)
            assert got.loc[i, "hour_us"] == h
            assert got.loc[i, "total_cents"] == c
            assert got.loc[i, "cusum_cents"] == s
            assert got.loc[i, "alarm"] == (
                1 if s > CUSUM_ALARM_MULT * mu else 0
            )
        assert got["alarm"].sum() > 0  # the detector fires at sf0.001
        assert (got["cusum_cents"] == 0).any()  # and resets


class TestBenfordOrders:
    def test_matches_brute_force(self, ray_session, quiet_data_context):
        """Digit census vs a Python str()-head count; every digit row
        present, counts conserve, constants sum to ~1e6."""
        import numpy as np
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import (
            BENFORD_MICROS, benford_orders,
        )

        assert abs(sum(BENFORD_MICROS) - 1_000_000) <= 2  # frozen table
        sf = "/root/testdata/sf0.001"
        got = (
            benford_orders(sf)
            .to_pandas()
            .set_index("digit")
            .sort_index()
        )
        o = pq.read_table(
            sf + "/orders.parquet", columns=["o_totalprice"]
        ).to_pandas()
        cents = np.abs(np.round(o["o_totalprice"] * 100).astype(np.int64))
        cents = cents[cents > 0]
        from collections import Counter

        c = Counter(int(str(int(v))[0]) for v in cents)
        N = len(cents)
        assert list(got.index) == list(range(1, 10))
        assert got["n_obs"].sum() == N
        for d in range(1, 10):
            assert got.loc[d, "n_obs"] == c.get(d, 0)
            exp = (N * BENFORD_MICROS[d - 1]) // 1_000_000
            assert got.loc[d, "n_expected"] == exp
            assert got.loc[d, "dev_micros"] == (
                abs(c.get(d, 0) - exp) * 1_000_000
            ) // N


class TestHourlyBurstStates:
    def test_matches_brute_force_and_hysteresis(
        self, ray_session, quiet_data_context
    ):
        """Two-state forward costs vs a Python replay; the hysteresis
        must make in_burst stickier than the memoryless comparison."""
        import numpy as np
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import (
            BURST_RATE_MULT, BURST_SWITCH_DIV, hourly_burst_states,
        )

        sf = "/root/testdata/sf0.001"
        got = hourly_burst_states(sf).sort_values("hour_us").reset_index(
            drop=True
        )
        ev = pq.read_table(
            sf + "/events.parquet", columns=["ts", "value"]
        ).to_pandas()
        ev["h"] = (ev["ts"].astype("int64") // 3_600_000_000) * 3_600_000_000
        ev["c"] = np.round(ev["value"] * 100).astype(np.int64)
        hourly = ev.groupby("h")["c"].sum().sort_index()
        mu = int(hourly.sum()) // len(hourly)
        lam1, g = BURST_RATE_MULT * mu, mu // BURST_SWITCH_DIV
        c0 = c1 = None
        memoryless_flips = sticky_flips = 0
        prev_sticky = prev_memoryless = None
        for i, (h, x) in enumerate(hourly.items()):
            x = int(x)
            if c0 is None:
                c0, c1 = abs(x - mu), g + abs(x - lam1)
            else:
                c0, c1 = (
                    min(c0, c1 + g) + abs(x - mu),
                    min(c1, c0 + g) + abs(x - lam1),
                )
            assert got.loc[i, "cost_base"] == c0
            assert got.loc[i, "cost_burst"] == c1
            sticky = 1 if c1 < c0 else 0
            assert got.loc[i, "in_burst"] == sticky
            memoryless = 1 if abs(x - lam1) < abs(x - mu) else 0
            if prev_sticky is not None and sticky != prev_sticky:
                sticky_flips += 1
            if prev_memoryless is not None and memoryless != prev_memoryless:
                memoryless_flips += 1
            prev_sticky, prev_memoryless = sticky, memoryless
        # the switching penalty suppresses state flapping
        assert sticky_flips < memoryless_flips
        assert got["in_burst"].sum() > 0  # bursts exist at sf0.001


class TestTrendStats:
    """Brute-force pins for the r05 hourly trend/dispersion shelf —
    tiny controlled corpora, scipy-free reference math."""

    @staticmethod
    def _events(tmp_path, hours_cents, event_type="click"):
        import pyarrow as pa
        import pyarrow.parquet as pq

        ts = []
        vals = []
        for h, cents in hours_cents:
            ts.append(h * 3_600_000_000 + 5)
            vals.append(cents / 100.0)
        pq.write_table(
            pa.table(
                {
                    "ts": pa.array(ts, pa.timestamp("us")),
                    "value": pa.array(vals, pa.float64()),
                    "event_type": pa.array([event_type] * len(ts)),
                }
            ),
            str(tmp_path / "events.parquet"),
        )
        return str(tmp_path)

    def test_theil_sen_exact_line(self, ray_session, quiet_data_context, tmp_path):
        """A perfect line recovers its slope exactly (all pairwise
        slopes equal) and the intercept at x=0."""
        from pdf_parser_ray.pipelines.relational import theil_sen_hourly

        sf = self._events(tmp_path, [(10 + k, 500 + 7 * k) for k in range(6)])
        r = theil_sen_hourly(sf).iloc[0]
        assert int(r["n_hours"]) == 6 and int(r["n_pairs"]) == 15
        assert int(r["slope_micros"]) == 7_000_000
        assert int(r["intercept_micros"]) == 500_000_000

    def test_theil_sen_outlier_immune(self, ray_session, quiet_data_context, tmp_path):
        """One wild hour doesn't move the median slope (the OLS
        contrast)."""
        from pdf_parser_ray.pipelines.relational import theil_sen_hourly

        pts = [(k, 100 + 3 * k) for k in range(9)]
        pts[4] = (4, 99_999)  # outlier
        sf = self._events(tmp_path, pts)
        r = theil_sen_hourly(sf).iloc[0]
        assert int(r["slope_micros"]) == 3_000_000

    def test_mann_kendall_monotone_and_ties(
        self, ray_session, quiet_data_context, tmp_path
    ):
        from pdf_parser_ray.pipelines.relational import mann_kendall_hourly

        # strictly increasing: S = n(n-1)/2, tau = 1000
        sf = self._events(tmp_path, [(k, 100 + k) for k in range(8)])
        r = mann_kendall_hourly(sf).iloc[0]
        assert int(r["s_stat"]) == 28 and int(r["tau_milli"]) == 1000
        assert int(r["var18"]) == 8 * 7 * 21
        # with a tie pair: brute-force S and tie-corrected variance
        (tmp_path / "t2").mkdir(exist_ok=True)
        sf2 = self._events(tmp_path / "t2", [(0, 5), (1, 9), (2, 9), (3, 7)])
        r2 = mann_kendall_hourly(sf2).iloc[0]
        vals = [5, 9, 9, 7]
        s = sum(
            (0 if vals[j] == vals[i] else (1 if vals[j] > vals[i] else -1))
            for i in range(4)
            for j in range(i + 1, 4)
        )
        assert int(r2["s_stat"]) == s
        assert int(r2["var18"]) == 4 * 3 * 13 - 2 * 1 * 9

    def test_fano_poisson_baseline(self, ray_session, quiet_data_context, tmp_path):
        """A constant arrival series has zero dispersion; a one-burst
        series scores far above 1000 milli."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import fano_hourly_by_type

        ts, types = [], []
        for h in range(10):  # 'flat': one event every hour
            ts.append(h * 3_600_000_000)
            types.append("flat")
        for _ in range(10):  # 'burst': ten events in hour 0
            ts.append(3)
            types.append("burst")
        pq.write_table(
            pa.table(
                {
                    "ts": pa.array(ts, pa.timestamp("us")),
                    "value": pa.array([1.0] * len(ts)),
                    "event_type": pa.array(types),
                }
            ),
            str(tmp_path / "events.parquet"),
        )
        df = fano_hourly_by_type(str(tmp_path)).to_pandas().set_index("event_type")
        assert int(df.loc["flat", "fano_milli"]) == 0
        # burst: counts = [10, 0x9] over 10 slots: mean 1, var 9 -> 9000
        assert int(df.loc["burst", "fano_milli"]) == 9000

    def test_acf_alternating_series(self, ray_session, quiet_data_context, tmp_path):
        """A strict +/- alternation: lag-1 ACF ~ -1, lag-2 ~ +1."""
        from pdf_parser_ray.pipelines.relational import hourly_acf_panel

        sf = self._events(
            tmp_path, [(k, 100 if k % 2 else 300) for k in range(12)]
        )
        df = hourly_acf_panel(sf).set_index("lag")
        assert df.loc[1, "acf_micros"] < -800_000
        assert df.loc[2, "acf_micros"] > 800_000

    def test_trimmed_mean_brute_force(self, ray_session, quiet_data_context, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import (
            TRIM_PCTS, trimmed_mean_orders,
        )

        vals = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987,
                1597, 2584, 4181, 6765]
        pq.write_table(
            pa.table({"o_totalprice": pa.array([v / 100 for v in vals])}),
            str(tmp_path / "orders.parquet"),
        )
        df = trimmed_mean_orders(str(tmp_path)).to_pandas().set_index("trim_pct")
        sv = sorted(vals)
        for pct in TRIM_PCTS:
            k = (len(sv) * pct) // 100
            kept = sv[k : len(sv) - k]
            row = df.loc[pct]
            assert int(row["n_kept"]) == len(kept)
            assert int(row["lo_cut_cents"]) == kept[0]
            assert int(row["hi_cut_cents"]) == kept[-1]
            assert int(row["mean_cents"]) == sum(kept) // len(kept)


class TestRobustScaledEvents:
    def test_known_median_mad(self, ray_session, quiet_data_context, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import robust_scaled_events

        # cents: [100, 200, 300, 400, 1000] -> lower median 300,
        # |dev| = [200, 100, 0, 100, 700] -> MAD (rank 3 of sorted
        # [0,100,100,200,700]) = 100
        pq.write_table(
            pa.table(
                {
                    "event_id": pa.array(range(5), pa.int64()),
                    "value": pa.array([1.0, 2.0, 3.0, 4.0, 10.0]),
                }
            ),
            str(tmp_path / "events.parquet"),
        )
        df = robust_scaled_events(str(tmp_path)).to_pandas().set_index("event_id")
        assert list(df["z_milli"]) == [-2000, -1000, 0, 1000, 7000]


class TestSketchQuantileError:
    def test_exact_side_and_alpha_bound(self, ray_session, quiet_data_context):
        import numpy as np
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.sketch import sketch_quantile_error

        df = sketch_quantile_error("/root/testdata/sf0.001")
        ev = pq.read_table(
            "/root/testdata/sf0.001/events.parquet",
            columns=["event_type", "value"],
        ).to_pandas()
        cents = (ev["value"] * 100).round().astype("int64")
        for _, row in df.iterrows():
            vals = np.sort(
                cents[ev["event_type"] == row["event_type"]].to_numpy()
            )
            n = len(vals)
            rank = max(1, min(n, -(-int(row["q_pct"]) * n // 100)))
            assert int(row["exact_micros"]) == int(vals[rank - 1]) * 10_000
        # DDSketch alpha = 1%: relative error stays ~within the bucket
        # bound (2% slack for edge quantization)
        assert int(df["rel_err_ppm"].max()) < 20_000


class TestAsofEventJoin:
    def test_planted_timeline(self, ray_session, quiet_data_context, tmp_path):
        """Hand-built per-user timeline: each error matches the LATEST
        strictly-prior click; errors before any click drop; same-ts
        ordering follows event_id."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import asof_event_join

        #         id  ts(us)  user  type
        rows = [
            (1, 1_000_000, 7, "click"),
            (2, 2_000_000, 7, "error"),   # -> click 1, gap 1000 ms
            (3, 3_000_000, 7, "click"),
            (4, 3_500_000, 7, "view"),    # ignored type
            (5, 9_000_000, 7, "error"),   # -> click 3, gap 6000 ms
            (6, 500_000, 8, "error"),     # no prior click: dropped
            (7, 4_000_000, 8, "click"),
            (8, 4_000_000, 8, "error"),   # same ts, id 8 > 7 -> matches 7
            (9, 4_000_000, 9, "error"),   # same ts, id 9 < 10 -> dropped
            (10, 4_000_000, 9, "click"),
        ]
        pq.write_table(
            pa.table(
                {
                    "event_id": pa.array([r[0] for r in rows], pa.int64()),
                    "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
                    "user_id": pa.array([r[2] for r in rows], pa.int64()),
                    "event_type": pa.array([r[3] for r in rows]),
                }
            ),
            str(tmp_path / "events.parquet"),
        )
        got = {
            int(r.event_id): (int(r.click_event_id), int(r.gap_ms))
            for r in asof_event_join(str(tmp_path)).to_pandas().itertuples()
        }
        assert got == {2: (1, 1000), 5: (3, 6000), 8: (7, 0)}


class TestOpenOrderConcurrency:
    def test_planted_intervals(self, ray_session, quiet_data_context, tmp_path):
        """Three hand-built intervals: the sweep's running count hits
        the known overlap profile, ends inclusive."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import open_order_concurrency

        D = 86_400_000_000
        # order 1: days 0-2; order 2: days 1-1; order 3: days 4-5
        pq.write_table(
            pa.table(
                {
                    "o_orderkey": pa.array([1, 2, 3], pa.int64()),
                    "o_orderdate": pa.array(
                        [0, 1 * D, 4 * D], pa.timestamp("us")
                    ),
                }
            ),
            str(tmp_path / "orders.parquet"),
        )
        pq.write_table(
            pa.table(
                {
                    "l_orderkey": pa.array([1, 1, 2, 3], pa.int64()),
                    "l_shipdate": pa.array(
                        [1 * D, 2 * D, 1 * D, 5 * D], pa.timestamp("us")
                    ),
                }
            ),
            str(tmp_path / "lineitem.parquet"),
        )
        got = {
            int(r.day): int(r.n_open)
            for r in open_order_concurrency(str(tmp_path)).itertuples()
        }
        # day 0: {1}; day 1: {1,2}; day 2: {1} (2 closed); day 3: {};
        # day 4: {3}; day 6: {}
        assert got == {0: 1, 1: 2, 2: 1, 3: 0, 4: 1, 6: 0}


class TestRevenueGroupingSets:
    def test_levels_consistent(self, ray_session, quiet_data_context):
        """The four grouping levels are mutually consistent: the grand
        total (-1, -1) equals the sum of the (nation, year) cells, and
        each marginal sums its slice."""
        from pdf_parser_ray.pipelines.relational import revenue_grouping_sets

        df = revenue_grouping_sets("/root/testdata/sf0.001").to_pandas()
        cells = df[(df["nation_key"] >= 0) & (df["year"] >= 0)]
        nat = df[(df["nation_key"] >= 0) & (df["year"] == -1)]
        yr = df[(df["nation_key"] == -1) & (df["year"] >= 0)]
        grand = df[(df["nation_key"] == -1) & (df["year"] == -1)]
        assert len(grand) == 1
        for col in ("revenue_cc", "n_orders"):
            assert int(grand[col].iloc[0]) == int(cells[col].sum())
            assert int(nat[col].sum()) == int(cells[col].sum())
            assert int(yr[col].sum()) == int(cells[col].sum())
        # every nation marginal equals its cells
        for nk, sub in cells.groupby("nation_key"):
            row = nat[nat["nation_key"] == nk]
            assert int(row["revenue_cc"].iloc[0]) == int(sub["revenue_cc"].sum())


class TestValuePSI:
    def test_identical_halves_near_zero(
        self, ray_session, quiet_data_context, tmp_path
    ):
        """A distribution repeated identically in both halves scores
        PSI 0; a shifted late half scores clearly positive."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import value_psi

        def write(vals_early, vals_late, d):
            d.mkdir(exist_ok=True)
            ts = list(range(len(vals_early))) + [
                10_000_000 + i for i in range(len(vals_late))
            ]
            pq.write_table(
                pa.table(
                    {
                        "ts": pa.array(
                            [t * 1_000_000 for t in ts], pa.timestamp("us")
                        ),
                        "value": pa.array(
                            [v / 100 for v in vals_early + vals_late]
                        ),
                    }
                ),
                str(d / "events.parquet"),
            )
            return str(d)

        base = [100 + 7 * (i % 40) for i in range(200)]
        sf = write(base, base, tmp_path / "same")
        r = value_psi(sf).iloc[0]
        assert int(r["psi_micros"]) == 0
        assert int(r["n_early"]) == int(r["n_late"]) == 200

        shifted = [v + 150 for v in base]
        r2 = value_psi(write(base, shifted, tmp_path / "shift")).iloc[0]
        assert int(r2["psi_micros"]) > 100_000  # PSI > 0.1: drifted


class TestValueFivenum:
    def test_brute_force_numpy(self, ray_session, quiet_data_context):
        import numpy as np
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.relational import value_fivenum

        df = (
            value_fivenum("/root/testdata/sf0.001")
            .to_pandas()
            .set_index("event_type")
        )
        ev = pq.read_table(
            "/root/testdata/sf0.001/events.parquet",
            columns=["event_type", "value"],
        ).to_pandas()
        cents = (ev["value"] * 100).round().astype("int64")
        for t, sub in cents.groupby(ev["event_type"]):
            v = np.sort(sub.to_numpy())
            n = len(v)

            def at(qn, qd):
                return int(v[max(1, -(-qn * n // qd)) - 1])

            row = df.loc[t]
            q1, q3 = at(1, 4), at(3, 4)
            iqr = q3 - q1
            out = int(((4 * v < 4 * q1 - 6 * iqr) | (4 * v > 4 * q3 + 6 * iqr)).sum())
            assert (
                int(row["min_c"]), int(row["q1_c"]), int(row["med_c"]),
                int(row["q3_c"]), int(row["max_c"]), int(row["n_outliers"]),
            ) == (int(v[0]), q1, at(2, 4), q3, int(v[-1]), out)


class TestRoutingGuard:
    @pytest.mark.parametrize(
        "module", ["relational", "analysis", "join", "dedup", "similarity"]
    )
    def test_no_hand_built_routing_columns(self, module):
        """Every routing exchange goes through join.co_group: no
        hash-bucket or constant-key column is built by hand to feed a
        groupby, and no module keeps its own bucket count.  Exempt:
        co_group itself (its bucket function and ``__bkt`` column) and
        build_bucketed, whose ``bucket`` column is the on-disk
        sort-merge-bucket layout, not an exchange key."""
        import importlib
        import inspect
        import re

        mod = importlib.import_module(f"pdf_parser_ray.pipelines.{module}")
        src = inspect.getsource(mod)
        if module == "join":
            for fn in (mod.co_group, mod._key_bucket, mod.build_bucketed):
                src = src.replace(inspect.getsource(fn), "")
        hits = re.findall(
            r'groupby\(\s*"(?:bkt|coarse|coarse2|pbkt|dbkt|fin|key|vkey|dkey)"\s*\)',
            src,
        )
        hits += re.findall(
            r"%\s*buckets\b|\bcoarse_buckets\b|\b_PMI_COARSE\b|\b_VOCAB_BUCKETS\b"
            r"|\b_COARSE_BUCKETS\b|\b_JOIN_BUCKETS\b|\b_id_bucket\b"
            r"|\bGRAFT_COARSE_BUCKETS\b",
            src,
        )
        assert hits == []
