"""HyperLogLog mergeable-sketch aggregate: register math pinned against
an int.bit_length ground truth, accuracy pinned against exact counts,
and merge associativity (the property the distributed combine relies
on)."""

import numpy as np
import pytest

from pdf_parser_ray.pipelines.sketch import (
    _mix64,
    hll_accumulate,
    hll_estimate,
)

P = 12
M = 1 << P


def _ground_truth_regs(keys: np.ndarray) -> np.ndarray:
    regs = np.zeros(M, np.uint8)
    for x in _mix64(keys):
        idx = int(x) >> (64 - P)
        rest = (int(x) << P) & ((1 << 64) - 1)
        lz = 64 - rest.bit_length() if rest else 64
        regs[idx] = max(regs[idx], min(lz + 1, 64 - P + 1))
    return regs


class TestHLL:
    def test_vectorized_rank_matches_bit_length(self):
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 2**62, 5000, dtype=np.int64)
        regs = hll_accumulate(np.zeros(M, np.uint8), keys, P)
        assert np.array_equal(regs, _ground_truth_regs(keys))

    def test_estimate_accuracy(self):
        # p=12 -> ~1.6% typical relative error; assert a loose 5% bound
        for n in (100, 1_000, 20_000, 300_000):
            keys = np.arange(n, dtype=np.int64) * 7919 + 13
            regs = hll_accumulate(np.zeros(M, np.uint8), keys, P)
            est = hll_estimate(regs)
            assert abs(est - n) / n < 0.05, (n, est)

    def test_merge_equals_single_pass(self):
        rng = np.random.default_rng(7)
        keys = rng.integers(0, 2**62, 10_000, dtype=np.int64)
        whole = hll_accumulate(np.zeros(M, np.uint8), keys, P)
        a = hll_accumulate(np.zeros(M, np.uint8), keys[:3000], P)
        b = hll_accumulate(np.zeros(M, np.uint8), keys[3000:], P)
        assert np.array_equal(np.maximum(a, b), whole)

    def test_grouped_aggregate_matches_exact(self, ray_session, quiet_data_context):
        import duckdb

        from pdf_parser_ray.pipelines.sketch import approx_distinct_users

        got = (
            approx_distinct_users("/root/testdata/sf0.001")
            .to_pandas()
            .set_index("event_type")["n_users_approx"]
        )
        exact = duckdb.sql(
            "SELECT event_type, count(DISTINCT user_id) AS n FROM"
            " read_parquet('/root/testdata/sf0.001/events.parquet')"
            " GROUP BY event_type"
        ).df().set_index("event_type")["n"]
        for etype, n in exact.items():
            assert abs(int(got[etype]) - int(n)) / int(n) < 0.05


class TestCountMin:
    def test_accumulate_merge_query_bounds(self):
        import numpy as np

        from pdf_parser_ray.pipelines.sketch import (
            cms_accumulate, cms_query,
        )

        rng = np.random.default_rng(7)
        keys = rng.integers(0, 500, size=20_000).astype(np.int64)
        # split into two halves, accumulate separately, merge by sum
        a = np.zeros((4, 4096), np.int64)
        b = np.zeros((4, 4096), np.int64)
        cms_accumulate(a, keys[:10_000], np.ones(10_000, np.int64))
        cms_accumulate(b, keys[10_000:], np.ones(10_000, np.int64))
        merged = a + b
        ids, exact = np.unique(keys, return_counts=True)
        est = cms_query(merged, ids)
        assert (est >= exact).all()  # CMS never undercounts
        # e*N/w expected overshoot; allow 5x slack for the tail
        assert (est - exact).max() <= 5 * np.e * len(keys) / 4096

    def test_heavy_hitters_vs_exact(self, ray_session, quiet_data_context):
        import numpy as np
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.sketch import heavy_hitters

        sf = "/root/testdata/sf0.01"
        df = heavy_hitters(sf, k=10).to_pandas()
        assert len(df) == 10
        users = pq.read_table(
            f"{sf}/events.parquet", columns=["user_id"]
        ).column("user_id").to_numpy(zero_copy_only=False)
        ids, counts = np.unique(users, return_counts=True)
        exact = dict(zip(ids.tolist(), counts.tolist()))
        n = len(users)
        for uid, est in zip(df.user_id, df.n_est):
            true = exact[int(uid)]
            assert est >= true  # upper bound property
            assert est - true <= 5 * np.e * n / 4096
        # the estimated top-1 count is at least the true max count
        assert int(df.n_est.max()) >= int(counts.max())


    @pytest.mark.parametrize("layout", ["default", "small_blocks"])
    def test_heavy_hitters_layout_invariant(
        self, ray_session, quiet_data_context, request, layout
    ):
        """The answer is the top-10 by Count-Min estimate over ALL
        distinct ids (ties by id) under any block layout — batch-local
        nomination dropped true heavy hitters at 16 KiB blocks."""
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.sketch import (
            cms_accumulate,
            cms_query,
            heavy_hitters,
        )

        from __ray_entry__ import _ORACLE_SF_DIR as sf

        if layout == "small_blocks":
            request.getfixturevalue("small_blocks")
        df = heavy_hitters(sf, k=10).to_pandas()
        users = pq.read_table(
            f"{sf}/events.parquet", columns=["user_id"]
        ).column("user_id").to_numpy(zero_copy_only=False)
        ids, counts = np.unique(users.astype(np.int64), return_counts=True)
        table = cms_accumulate(np.zeros((4, 4096), np.int64), ids, counts)
        est = cms_query(table, ids)
        order = np.lexsort((ids, -est))[:10]
        assert list(df["user_id"]) == ids[order].tolist()
        assert list(df["n_est"]) == est[order].tolist()

class TestDDSketch:
    ALPHA = 0.01

    def _exact_rank_value(self, vals: np.ndarray, q: float) -> float:
        s = np.sort(vals)
        rank = max(1, int(np.ceil(q * len(s))))
        return float(s[rank - 1])

    def test_merge_order_invariance(self):
        from pdf_parser_ray.pipelines.sketch import (
            dd_accumulate, dd_init, dd_merge, dd_quantile_micros,
        )

        rng = np.random.default_rng(11)
        vals = rng.lognormal(mean=2.0, sigma=1.5, size=30_000)
        whole = dd_accumulate(dd_init(self.ALPHA), vals, self.ALPHA)
        parts = [
            dd_accumulate(dd_init(self.ALPHA), chunk, self.ALPHA)
            for chunk in np.array_split(vals, 7)
        ]
        # left fold and right fold must agree with the single pass
        left = parts[0]
        for p in parts[1:]:
            left = dd_merge(left, p)
        right = parts[-1]
        for p in reversed(parts[:-1]):
            right = dd_merge(p, right)
        assert np.array_equal(left, whole) and np.array_equal(whole, right)
        for q in (0.5, 0.9, 0.99):
            assert dd_quantile_micros(left, q, self.ALPHA) == dd_quantile_micros(
                whole, q, self.ALPHA
            )

    def test_relative_error_bound(self):
        from pdf_parser_ray.pipelines.sketch import (
            dd_accumulate, dd_init, dd_quantile_micros,
        )

        rng = np.random.default_rng(5)
        for vals in (
            rng.lognormal(mean=1.0, sigma=2.0, size=50_000),
            rng.uniform(0.01, 500.0, size=20_000),
            np.concatenate([np.zeros(100), rng.exponential(30.0, 5_000)]),
        ):
            state = dd_accumulate(dd_init(self.ALPHA), vals, self.ALPHA)
            for q in (0.01, 0.25, 0.5, 0.9, 0.99, 1.0):
                exact = self._exact_rank_value(vals, q)
                got = dd_quantile_micros(state, q, self.ALPHA) / 1e6
                if exact == 0.0:
                    assert got == 0.0
                else:
                    # alpha guarantee + boundary fudge + micros rounding
                    assert abs(got - exact) <= exact * (self.ALPHA + 1e-3) + 1e-6

    def test_clamped_values_are_counted(self):
        """Out-of-range values collapse to an edge bucket with their
        counts kept — and the trailing diagnostic slot reports exactly
        how many lost the alpha guarantee (ADVICE r03 #4)."""
        from pdf_parser_ray.pipelines.sketch import (
            _DD_VMAX, _DD_VMIN, dd_accumulate, dd_clamped_count, dd_init,
            dd_merge, dd_quantile_micros,
        )

        in_range = np.array([0.5, 3.0, 1e6])
        state = dd_accumulate(dd_init(self.ALPHA), in_range, self.ALPHA)
        assert dd_clamped_count(state) == 0
        out = np.array([_DD_VMIN / 10, _DD_VMAX * 10, 2.0])
        state2 = dd_accumulate(dd_init(self.ALPHA), out, self.ALPHA)
        assert dd_clamped_count(state2) == 2
        merged = dd_merge(state, state2)
        assert dd_clamped_count(merged) == 2
        # counts are kept: the quantile rank space still covers all 6
        assert dd_quantile_micros(merged, 1.0, self.ALPHA) > 0

    def test_events_value_domain_in_range(self):
        """The events table's value domain must stay inside the
        representable range — if this breaks, dd_quantile silently
        reports range edges for the tail (pin the contract here)."""
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.sketch import (
            _DD_VMAX, _DD_VMIN, dd_accumulate, dd_clamped_count, dd_init,
        )

        vals = (
            pq.read_table(
                "/root/testdata/sf0.001/events.parquet", columns=["value"]
            )
            .column("value")
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )
        pos = vals[vals > 0]
        assert ((pos >= _DD_VMIN) & (pos <= _DD_VMAX)).all()
        state = dd_accumulate(dd_init(self.ALPHA), vals, self.ALPHA)
        assert dd_clamped_count(state) == 0

    def test_grouped_aggregate_vs_exact(self, ray_session, quiet_data_context):
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.sketch import approx_event_quantiles

        sf = "/root/testdata/sf0.001"
        got = approx_event_quantiles(sf).to_pandas().set_index("event_type")
        t = pq.read_table(f"{sf}/events.parquet", columns=["event_type", "value"])
        df = t.to_pandas()
        for etype, grp in df.groupby("event_type"):
            vals = grp["value"].to_numpy()
            for q, col in ((0.5, "q50_micros"), (0.9, "q90_micros"), (0.99, "q99_micros")):
                exact = self._exact_rank_value(vals, q)
                est = got.loc[etype, col] / 1e6
                assert abs(est - exact) <= exact * (self.ALPHA + 1e-3) + 1e-6, (
                    etype, q, exact, est,
                )


class TestBloomDedup:
    def test_positions_deterministic_in_range(self):
        from pdf_parser_ray.pipelines.sketch import (
            BLOOM_BITS,
            BLOOM_K,
            bloom_positions,
        )

        p = bloom_positions(["alpha", "beta", "alpha"])
        assert p.shape == (3, BLOOM_K)
        assert (p == bloom_positions(["alpha", "beta", "alpha"])).all()
        assert (p[0] == p[2]).all() and (p[0] != p[1]).any()
        assert (p >= 0).all() and (p < BLOOM_BITS).all()

    def test_or_merge_associative(self):
        import numpy as np

        from pdf_parser_ray.pipelines.sketch import BLOOM_BITS, bloom_or

        rng = np.random.default_rng(7)
        parts = [
            rng.integers(0, 256, BLOOM_BITS // 8, dtype=np.uint8).tobytes()
            for _ in range(4)
        ]
        a = bloom_or(parts)
        b = bloom_or([bloom_or(parts[:2]).tobytes(), bloom_or(parts[2:]).tobytes()])
        c = bloom_or(parts[::-1])
        assert (a == b).all() and (a == c).all()

    def test_no_false_negatives_and_fp_bound(self, ray_session, quiet_data_context):
        """Every exact re-crawl must flag (Bloom never misses a real
        member); non-members stay under a generous FP allowance."""
        from pdf_parser_ray.pipelines.dedup import RECRAWL_EXACT_OFFSET
        from pdf_parser_ray.pipelines.sketch import BLOOM_K, bloom_dedup

        df = bloom_dedup("/root/testdata/sf0.001").to_pandas()
        recrawl = df[df.doc_id >= RECRAWL_EXACT_OFFSET]
        assert len(recrawl) > 0
        assert (recrawl.maybe_dup == 1).all()
        assert (recrawl.n_hits == BLOOM_K).all()
        rest = df[df.doc_id < RECRAWL_EXACT_OFFSET]
        # geometry gives ~0.1% FP; allow 2% on the tiny corpus
        assert rest.maybe_dup.sum() <= max(1, len(rest) // 50)


class TestSketchErrorEvals:
    def test_cms_overestimates_only(self, ray_session, quiet_data_context):
        """Count-Min estimates are upper bounds: err >= 0 for every
        candidate, and the candidates' exact counts are genuinely
        heavy (above the mean user activity)."""
        import pyarrow.parquet as pq

        from pdf_parser_ray.pipelines.sketch import cms_error_eval

        df = cms_error_eval("/root/testdata/sf0.001")
        assert (df["err"] >= 0).all()
        ev = pq.read_table(
            "/root/testdata/sf0.001/events.parquet", columns=["user_id"]
        ).to_pandas()
        true_counts = ev.groupby("user_id").size()
        # the truly heaviest user is among the candidates, with its
        # exact count reported exactly
        top_user = int(true_counts.idxmax())
        row = df[df["user_id"] == top_user]
        assert len(row) == 1
        assert int(row["exact_n"].iloc[0]) == int(true_counts.max())

    def test_hll_error_within_bound(self, ray_session, quiet_data_context):
        """HLL with the configured register count stays within ~5%
        relative error on the per-type cardinalities."""
        from pdf_parser_ray.pipelines.sketch import hll_error_eval

        df = hll_error_eval("/root/testdata/sf0.001")
        assert (df["err_ppm"] < 50_000).all()
        assert (df["exact_n"] > 0).all()
