//! Host-side query planner.
//!
//! The paper fixes one engine configuration for the whole evaluation (the
//! Alveo U200 bitstream is built once), but a software reproduction can size
//! the buffer/processing areas per query: a query whose pruned subgraph is a
//! handful of vertices does not need an 8,192-path buffer area, and a query
//! with an enormous predicted intermediate volume benefits from dedicating as
//! much BRAM as possible to the buffer so fewer flushes reach DRAM. The
//! planner turns the Pre-BFS output plus a [`DeviceConfig`] into
//! [`EngineOptions`], the implied on-chip memory map and a resource estimate,
//! with a human-readable rationale for every decision.

use crate::counting::QueryEstimate;
use crate::engine::memory::PATH_ROW_BYTES;
use crate::options::{BatchStrategy, EngineOptions, VerificationPipeline};
use crate::preprocess::PreparedQuery;
use pefp_fpga::{DeviceConfig, ModuleCosts, OnChipAreas, ResourceBudget, ResourceEstimate};

/// The plan the host ships together with the query.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// Engine options to run the query with.
    pub options: EngineOptions,
    /// The on-chip memory areas the options imply.
    pub areas: OnChipAreas,
    /// Resource estimate of the configuration against the card budget.
    pub resources: ResourceEstimate,
    /// Predicted result / intermediate-path volume used for the sizing.
    pub estimate: QueryEstimate,
    /// One line per decision, in the order they were made.
    pub rationale: Vec<String>,
}

impl QueryPlan {
    /// Whether the planned configuration fits on the card.
    pub fn fits_device(&self) -> bool {
        self.resources.fits()
    }
}

fn round_down_pow2(x: usize) -> usize {
    if x <= 1 {
        1
    } else {
        1usize << (usize::BITS - 1 - x.leading_zeros())
    }
}

/// Plans engine options for a prepared query on `config`.
///
/// The heuristics are deliberately simple and fully deterministic:
///
/// 1. reserve BRAM for the graph and barrier caches when they fit,
/// 2. give half of the remaining BRAM to the buffer area (power-of-two
///    capacity, clamped to `[256, 65_536]` paths),
/// 3. size the processing area Θ2 at 1/8 of the buffer (clamped to
///    `[64, 4_096]` slots) and the DRAM fetch batch Θ1 at half the buffer,
/// 4. always keep Batch-DFS and the data-separated verification pipeline —
///    the ablations show they never lose.
pub fn plan_query(prepared: &PreparedQuery, config: &DeviceConfig) -> QueryPlan {
    let mut rationale = Vec::new();
    let g = &prepared.graph;
    // The router's memoised walk bounds: no DP of the planner's own.
    let estimate = prepared.route_features().estimate;
    rationale.push(format!(
        "pruned subgraph has {} vertices / {} edges; ≤ {} results, ≤ {} intermediate paths predicted",
        g.num_vertices(),
        g.num_edges(),
        estimate.max_results,
        estimate.max_intermediate_paths
    ));

    // Step 1: cache sizing.
    let (offsets, targets) = g.raw_parts();
    let graph_bytes = offsets.len() * 4 + targets.len() * 4;
    let barrier_bytes = g.num_vertices() * 4;
    let bram = config.bram_bytes;
    let cache_bytes = graph_bytes + barrier_bytes;
    let use_cache = cache_bytes <= bram / 2;
    if use_cache {
        rationale.push(format!(
            "graph + barrier ({} B) fit in half the BRAM ({} B): caching enabled",
            cache_bytes,
            bram / 2
        ));
    } else {
        rationale.push(format!(
            "graph + barrier ({} B) exceed half the BRAM ({} B): caching disabled, accesses go to DRAM",
            cache_bytes,
            bram / 2
        ));
    }

    // Step 2: buffer area from the remaining BRAM.
    let remaining = bram.saturating_sub(if use_cache { cache_bytes } else { 0 });
    let buffer_budget_paths = (remaining / 2) / PATH_ROW_BYTES;
    let predicted = estimate.max_intermediate_paths.min(65_536) as usize;
    let mut buffer_capacity = round_down_pow2(buffer_budget_paths.max(1));
    buffer_capacity = buffer_capacity.clamp(256, 65_536);
    if predicted > 0 && predicted < buffer_capacity {
        buffer_capacity = round_down_pow2(predicted.next_power_of_two()).clamp(256, 65_536);
        rationale.push(format!(
            "predicted intermediate volume ({predicted}) is small: buffer area shrunk to {buffer_capacity} paths"
        ));
    } else {
        rationale.push(format!(
            "buffer area sized at {buffer_capacity} paths from {remaining} B of free BRAM"
        ));
    }

    // Step 3: processing area and DRAM fetch batch.
    let processing_capacity = (buffer_capacity / 8).clamp(64, 4_096) as u32;
    let dram_fetch_batch = (buffer_capacity / 2).max(1);
    rationale.push(format!(
        "processing area Θ2 = {processing_capacity} slots, DRAM fetch batch Θ1 = {dram_fetch_batch} paths"
    ));

    // Step 4: fixed algorithmic choices.
    rationale.push(
        "Batch-DFS batching and data-separated verification kept (ablations show no regression)"
            .to_string(),
    );

    let options = EngineOptions {
        batch_strategy: BatchStrategy::LongestFirst,
        use_cache,
        verification: VerificationPipeline::Dataflow,
        processing_capacity,
        buffer_capacity,
        dram_fetch_batch,
        collect_paths: true,
        max_results: None,
        cancel: None,
        cycle_budget: None,
        bank_placement: pefp_graph::PlacementPolicy::Natural,
    };

    let areas = OnChipAreas {
        buffer_bytes: buffer_capacity * PATH_ROW_BYTES,
        processing_bytes: processing_capacity as usize * PATH_ROW_BYTES,
        graph_cache_bytes: if use_cache { graph_bytes } else { 0 },
        barrier_cache_bytes: if use_cache { barrier_bytes } else { 0 },
        fifo_bytes: config.verification_lanes * 2 * PATH_ROW_BYTES,
    };
    let resources = ResourceEstimate::estimate(
        config.verification_lanes,
        &areas,
        &ModuleCosts::default(),
        ResourceBudget::alveo_u200(),
    );

    QueryPlan { options, areas, resources, estimate, rationale }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::pre_bfs;
    use crate::variants::{run_prepared, PefpVariant};
    use pefp_graph::generators::chung_lu;
    use pefp_graph::{CsrGraph, VertexId};

    fn prepared_on(g: &CsrGraph, s: u32, t: u32, k: u32) -> PreparedQuery {
        pre_bfs(g, VertexId(s), VertexId(t), k)
    }

    #[test]
    fn plan_produces_valid_options() {
        let g = chung_lu(400, 6.0, 2.2, 9).to_csr();
        let prepared = prepared_on(&g, 0, 200, 4);
        let plan = plan_query(&prepared, &DeviceConfig::alveo_u200());
        assert!(plan.options.validate().is_empty(), "{:?}", plan.options.validate());
        assert!(!plan.rationale.is_empty());
        assert!(plan.fits_device());
        assert_eq!(plan.options.batch_strategy, BatchStrategy::LongestFirst);
        assert_eq!(plan.options.verification, VerificationPipeline::Dataflow);
    }

    #[test]
    fn small_pruned_graphs_enable_caching() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5)]);
        let prepared = prepared_on(&g, 0, 5, 4);
        let plan = plan_query(&prepared, &DeviceConfig::alveo_u200());
        assert!(plan.options.use_cache);
        assert!(plan.areas.graph_cache_bytes > 0);
        assert!(plan.areas.barrier_cache_bytes > 0);
    }

    #[test]
    fn tiny_device_disables_caching_for_large_graphs() {
        let g = chung_lu(3_000, 8.0, 2.2, 5).to_csr();
        // Use a hop constraint that keeps most of the graph after Pre-BFS.
        let prepared = prepared_on(&g, 0, 1_500, 8);
        let mut config = DeviceConfig::tiny_for_tests();
        config.bram_bytes = 16 * 1024;
        let plan = plan_query(&prepared, &config);
        if prepared.graph.num_edges() * 4 > config.bram_bytes / 2 {
            assert!(!plan.options.use_cache);
            assert_eq!(plan.areas.graph_cache_bytes, 0);
        }
        assert!(plan.options.validate().is_empty());
    }

    #[test]
    fn tiny_queries_get_small_buffer_areas() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let prepared = prepared_on(&g, 0, 3, 3);
        let plan = plan_query(&prepared, &DeviceConfig::alveo_u200());
        assert_eq!(plan.options.buffer_capacity, 256, "clamped to the minimum");
        assert!(plan.rationale.iter().any(|r| r.contains("shrunk") || r.contains("sized")));
    }

    #[test]
    fn theta1_never_exceeds_the_buffer_capacity() {
        for n in [50usize, 200, 800] {
            let g = chung_lu(n, 5.0, 2.2, n as u64).to_csr();
            let prepared = prepared_on(&g, 0, (n / 2) as u32, 5);
            let plan = plan_query(&prepared, &DeviceConfig::alveo_u200());
            assert!(plan.options.dram_fetch_batch <= plan.options.buffer_capacity);
        }
    }

    #[test]
    fn planned_options_run_and_agree_with_default_options() {
        let g = chung_lu(250, 5.0, 2.2, 77).to_csr();
        let prepared = prepared_on(&g, 3, 120, 4);
        let device = DeviceConfig::alveo_u200();
        let plan = plan_query(&prepared, &device);
        let planned = run_prepared(&prepared, plan.options.clone(), &device);
        let default = run_prepared(&prepared, PefpVariant::Full.engine_options(), &device);
        assert_eq!(planned.num_paths, default.num_paths);
    }

    #[test]
    fn round_down_pow2_behaves_at_boundaries() {
        assert_eq!(round_down_pow2(0), 1);
        assert_eq!(round_down_pow2(1), 1);
        assert_eq!(round_down_pow2(2), 2);
        assert_eq!(round_down_pow2(3), 2);
        assert_eq!(round_down_pow2(1024), 1024);
        assert_eq!(round_down_pow2(1025), 1024);
    }
}
