"""Named pipeline registry: every operator the engine exposes, keyed by
the same names the driver contract (`__ray_entry__.queries()`) and the
job CLI (`python -m pdf_parser_ray.job --query NAME`) use.  Each entry
is a callable taking an sf-style data directory and returning a
``ray.data.Dataset`` (or a small DataFrame)."""

from __future__ import annotations

from collections.abc import Callable
from functools import partial
from typing import Any


def queries() -> dict[str, Callable[[str], Any]]:
    """Build the name -> callable map over the sf-style parquet tables
    (documents / embeddings / events / TPC-H).  The extraction-family
    queries (extract_pages, line_dedup, curate_pages, ...) operate on a
    pages corpus instead and are exposed by the job CLI's main mode and
    by ``__ray_entry__`` (which synthesizes the fixture corpus)."""
    from pdf_parser_ray.pipelines import (
        analysis, curate, dedup, relational, similarity,
    )
    from pdf_parser_ray.pipelines import cluster as cluster_ops
    from pdf_parser_ray.pipelines import filter as filter_ops
    from pdf_parser_ray.pipelines import graph, multimodal, pack, sketch
    from pdf_parser_ray.pipelines import join as join_ops

    return {
        # -- text analysis (oracle-checked) --
        "token_counts": analysis.token_counts,
        "quality_stats": analysis.quality_stats,
        "direction_classify": analysis.direction_classify,
        "langid": analysis.langid,
        "fingerprints": analysis.fingerprints,
        "ngram_stats": analysis.ngram_stats,
        "repetition_stats": analysis.repetition_stats,
        # vocab_cap = ORACLE_VOCAB_CAP (24) so the top-V broadcast cap
        # and the OOV path BIND on the synthetic 31-word vocabulary and
        # are verified by the driver's DuckDB oracles; the functions'
        # own default is the production VOCAB_CAP
        "unigram_logprob": partial(
            analysis.unigram_logprob, vocab_cap=analysis.ORACLE_VOCAB_CAP
        ),
        "tfidf_scores": partial(
            analysis.tfidf_scores, vocab_cap=analysis.ORACLE_VOCAB_CAP
        ),
        "importance_weights": partial(
            analysis.importance_weights, vocab_cap=analysis.ORACLE_VOCAB_CAP
        ),
        "bpe_token_counts": analysis.bpe_token_counts,
        # -- curation filters / sampling --
        "quality_filter": filter_ops.quality_filter,
        "pii_scrub": filter_ops.pii_scrub,
        "decontaminate": filter_ops.decontaminate,
        "pack_sequences": pack.pack_sequences,
        # -- dedup --
        "exact_dedup": dedup.exact_dedup,
        "minhash_dedup": dedup.minhash_dedup,
        "simhash_dedup": dedup.simhash_dedup,
        "ngram_jaccard_dedup": dedup.ngram_jaccard_dedup,
        "embedding_dedup": dedup.embedding_dedup,
        "substring_dedup": dedup.substring_dedup,
        "near_dup_clusters": curate.near_dup_clusters,
        "curate_documents": curate.curate_documents,
        # -- similarity search / embedding clustering --
        "kmeans_embeddings": cluster_ops.kmeans_embeddings,
        "semantic_dedup": cluster_ops.semantic_dedup,
        "knn_cosine": similarity.knn_cosine,
        "knn_ivf": similarity.knn_ivf,
        # -- relational / windows --
        "lineitem_agg": relational.lineitem_agg,
        "orders_by_nation": relational.orders_by_nation,
        "brand_revenue": relational.brand_revenue,
        "supplier_value_by_nation": relational.supplier_value_by_nation,
        "range_join_events": relational.range_join_events,
        "orders_filtered": relational.orders_filtered,
        "events_hourly": relational.events_hourly,
        "sessionize_events": relational.sessionize_events,
        "error_attribution": relational.error_attribution,
        "event_quantiles": relational.event_quantiles,
        "top_orders_per_nation": relational.top_orders_per_nation,
        "events_sliding": relational.events_sliding,
        "distinct_users_per_type": relational.distinct_users_per_type,
        # ---- past-the-gate tail (see __ray_entry__.GATED) ----
        "knn_lsh": similarity.knn_lsh,
        "perplexity_scores": partial(
            analysis.perplexity_scores, vocab_cap=analysis.ORACLE_VOCAB_CAP
        ),
        "incremental_dedup": dedup.incremental_dedup,
        "normalized_dedup": dedup.normalized_dedup,
        "region_revenue": relational.region_revenue,
        "copartitioned_join": relational.copartitioned_order_customer,
        "embedding_norms": similarity.embedding_norms,
        "source_stats": analysis.source_stats,
        "lang_distribution": analysis.lang_distribution,
        "top_docs_by_chars": analysis.top_docs_by_chars,
        "sample_documents": filter_ops.sample_documents,
        "stratified_sample": filter_ops.stratified_sample,
        "chunk_documents": pack.chunk_documents,
        "token_histogram": filter_ops.token_histogram,
        "blocklist_filter": filter_ops.blocklist_filter,
        "c4_line_filter": filter_ops.c4_line_filter,
        "bloom_dedup": sketch.bloom_dedup,
        "pmi_bigrams": analysis.pmi_bigrams,
        "leakage_safe_split": filter_ops.leakage_safe_split,
        "knn_ivf_kmeans": similarity.knn_ivf_kmeans,
        "incremental_events_hourly": relational.incremental_events_hourly,
        "vocab_coverage": analysis.vocab_coverage,
        "dedup_lines_within_doc": filter_ops.dedup_lines_within_doc,
        "user_running_totals": relational.user_running_totals,
        "label_centroids": cluster_ops.label_centroids,
        "source_quality_filter": filter_ops.source_quality_filter,
        "shuffle_shards": pack.shuffle_shards,
        "ccnet_buckets": partial(
            analysis.ccnet_buckets, vocab_cap=analysis.ORACLE_VOCAB_CAP
        ),
        "dsir_resample": partial(
            analysis.dsir_resample, vocab_cap=analysis.ORACLE_VOCAB_CAP
        ),
        "ols_residuals": analysis.ols_residuals,
        "cohort_retention": relational.cohort_retention,
        "events_hourly_delta": relational.events_hourly_delta,
        "word_entropy": analysis.word_entropy,
        "rollup_source_lang": analysis.rollup_source_lang,
        "curate_and_pack": pack.curate_and_pack,
        "uniform_sample_k": pack.uniform_sample_k,
        "knn_quantized": similarity.knn_quantized,
        "gopher_rules": filter_ops.gopher_rules,
        "mojibake_repair": filter_ops.mojibake_repair,
        "badwords_filter": filter_ops.badwords_filter,
        "length_outlier_filter": filter_ops.length_outlier_filter,
        "best_of_duplicates": dedup.best_of_duplicates,
        "bm25_scores": analysis.bm25_scores,
        "host_graph_edges": graph.host_graph_edges,
        "pagerank_hosts": graph.pagerank_hosts,
        "doc_host_rank": graph.doc_host_rank,
        "temperature_sample": filter_ops.temperature_sample,
        "bloom_semi_join": join_ops.bloom_semi_join,
        "pivot_source_lang": analysis.pivot_source_lang,
        "web_curate": curate.web_curate,
        "event_funnel": relational.event_funnel,
        "sales_opportunity": relational.sales_opportunity,
        "source_vocab_overlap": analysis.source_vocab_overlap,
        "hourly_anomalies": relational.hourly_anomalies,
        "part_affinity": relational.part_affinity,
        "large_orders": relational.large_orders,
        "customer_order_histogram": relational.customer_order_histogram,
        "promo_revenue_share": relational.promo_revenue_share,
        "soft_dedup_weights": dedup.soft_dedup_weights,
        "event_transitions": relational.event_transitions,
        "gram_novelty": analysis.gram_novelty,
        "returned_items": relational.returned_items,
        "order_priority_counts": relational.order_priority_counts,
        "top_words": analysis.top_words,
        "length_percentiles": analysis.length_percentiles,
        "profile_documents": analysis.profile_documents,
        "segment_order_quantiles": relational.segment_order_quantiles,
        "nation_trade_balance": relational.nation_trade_balance,
        "dup_group_sizes": dedup.dup_group_sizes,
        "events_dau_wau": relational.events_dau_wau,
        "rrf_fusion": analysis.rrf_fusion,
        "user_lifetimes": relational.user_lifetimes,
        "shipping_priority": relational.shipping_priority,
        "local_supplier_volume": relational.local_supplier_volume,
        "discount_band_revenue": relational.discount_band_revenue,
        "top_supplier": relational.top_supplier,
        "small_qty_revenue": relational.small_qty_revenue,
        "disjunctive_revenue": relational.disjunctive_revenue,
        "market_share": relational.market_share,
        "zipf_fit": analysis.zipf_fit,
        "ttr_stats": analysis.ttr_stats,
        "stopword_ratio": analysis.stopword_ratio,
        "hapax_stats": analysis.hapax_stats,
        "inter_event_quantiles": relational.inter_event_quantiles,
        "user_type_entropy": relational.user_type_entropy,
        "ship_latency_quantiles": relational.ship_latency_quantiles,
        "cross_source_overlap": dedup.cross_source_overlap,
        "events_dow_hour": relational.events_dow_hour,
        "langid_confusion": analysis.langid_confusion,
        "supplier_concentration": relational.supplier_concentration,
        "sole_late_supplier": relational.sole_late_supplier,
        "latency_band_priority": relational.latency_band_priority,
        "source_kl_divergence": analysis.source_kl_divergence,
        "host_triangles": graph.host_triangles,
        "knn_mmr": similarity.knn_mmr,
        "pareto_orders": relational.pareto_orders,
        "weighted_priority_sample": pack.weighted_priority_sample,
        "min_cost_supplier": relational.min_cost_supplier,
        "brand_supplier_counts": relational.brand_supplier_counts,
        "dominant_suppliers": relational.dominant_suppliers,
        "readability_scores": analysis.readability_scores,
        "host_degree_stats": graph.host_degree_stats,
        "host_clustering": graph.host_clustering,
        "winnow_fingerprints": analysis.winnow_fingerprints,
        "embedding_outliers": similarity.embedding_outliers,
        "robust_value_outliers": relational.robust_value_outliers,
        "customer_value_deciles": relational.customer_value_deciles,
        "event_trigrams": relational.event_trigrams,
        "cosine_band_histogram": similarity.cosine_band_histogram,
        "knn_multi": similarity.knn_multi,
        "user_drawdowns": relational.user_drawdowns,
        "nation_year_revenue": relational.nation_year_revenue,
        "gini_customer_revenue": relational.gini_customer_revenue,
        "user_value_autocorr": relational.user_value_autocorr,
        "fuzzy_name_pairs": dedup.fuzzy_name_pairs,
        "near_dup_rate_by_source": dedup.near_dup_rate_by_source,
        "value_cume_dist": relational.value_cume_dist,
        "leave_last_k": relational.leave_last_k,
        "host_assortativity": graph.host_assortativity,
        "revenue_concentration": relational.revenue_concentration,
        "join_size_stats": join_ops.join_size_stats,
        "cosupplier_edges": join_ops.cosupplier_edges,
        "bootstrap_mean_ci": relational.bootstrap_mean_ci,
        "shard_balance_report": pack.shard_balance_report,
        "ann_recall": similarity.ann_recall,
        "hour_of_day_effect": relational.hour_of_day_effect,
        "target_encode_events": relational.target_encode_events,
        "customer_rfm": relational.customer_rfm,
        "heaps_law_curve": analysis.heaps_law_curve,
        "hourly_cusum": relational.hourly_cusum,
        "length_rank_test": analysis.length_rank_test,
        "lang_source_chi2": analysis.lang_source_chi2,
        "length_ks_test": analysis.length_ks_test,
        "benford_orders": relational.benford_orders,
        "hourly_burst_states": relational.hourly_burst_states,
        "length_vocab_spearman": analysis.length_vocab_spearman,
        "hill_tail_index": analysis.hill_tail_index,
        "knn_ivf_multi": similarity.knn_ivf_multi,
        "theil_sen_hourly": relational.theil_sen_hourly,
        "mann_kendall_hourly": relational.mann_kendall_hourly,
        "fano_hourly_by_type": relational.fano_hourly_by_type,
        "hourly_acf_panel": relational.hourly_acf_panel,
        "trimmed_mean_orders": relational.trimmed_mean_orders,
        "prefix_dup_groups": analysis.prefix_dup_groups,
        "word_length_histogram": analysis.word_length_histogram,
        "temporal_vocab_drift": analysis.temporal_vocab_drift,
        "length_deciles_by_lang": analysis.length_deciles_by_lang,
        "robust_scaled_events": relational.robust_scaled_events,
        "max_repeated_ngram": analysis.max_repeated_ngram,
        "sketch_quantile_error": sketch.sketch_quantile_error,
        "asof_event_join": relational.asof_event_join,
        "storage_audit": analysis.storage_audit,
        "sentence_stats": analysis.sentence_stats,
        "embedding_drift": similarity.embedding_drift,
        "hll_error_eval": sketch.hll_error_eval,
        "cms_error_eval": sketch.cms_error_eval,
        "open_order_concurrency": relational.open_order_concurrency,
        "bigram_entropy": analysis.bigram_entropy,
        "dedup_threshold_curve": dedup.dedup_threshold_curve,
        "host_components": graph.host_components,
        "revenue_grouping_sets": relational.revenue_grouping_sets,
        "value_psi": relational.value_psi,
        "value_fivenum": relational.value_fivenum,
        "lang_token_density": analysis.lang_token_density,
        "doc_top_terms": partial(
            analysis.doc_top_terms, vocab_cap=analysis.ORACLE_VOCAB_CAP
        ),
        "compression_ratio": analysis.compression_ratio,
        "train_bpe": analysis.train_bpe,
        "bpe_segment_counts": analysis.bpe_segment_counts,
        # rows-only: eigh float output is not stable across BLAS builds
        "pca_embeddings": similarity.pca_embeddings,
        # -- approximate sketches --
        "approx_distinct_users": sketch.approx_distinct_users,
        "heavy_hitters": sketch.heavy_hitters,
        "approx_event_quantiles": sketch.approx_event_quantiles,
        # -- multimodal (real PNG/WAV/MJPEG decode — jpeg.py baseline codec) --
        "media_features": lambda sf_dir: multimodal.hash_list_columns(
            multimodal.media_pipeline(300), ["features"]
        ),
        "image_resize": lambda sf_dir: multimodal.hash_list_columns(
            multimodal.image_resize_pipeline(300), ["thumb_png"]
        ),
        "image_dedup": lambda sf_dir: multimodal.image_dedup_pipeline(300),
        "audio_dedup": lambda sf_dir: multimodal.audio_dedup_pipeline(300),
        "frame_sample": lambda sf_dir: multimodal.hash_list_columns(
            multimodal.frame_sample_pipeline(300), ["frame_features"]
        ),
        "audio_features": lambda sf_dir: multimodal.audio_features_pipeline(300),
    }
