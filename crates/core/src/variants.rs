//! High-level query runner and the PEFP variants used by the ablations.
//!
//! The experiments in Section VII compare the full PEFP system against four
//! degraded variants, each disabling exactly one technique:
//!
//! | variant            | disabled technique                | paper figure |
//! |---------------------|-----------------------------------|--------------|
//! | `Full`              | —                                 | Fig. 8–11    |
//! | `NoPreBfs`          | Pre-BFS preprocessing             | Fig. 12      |
//! | `NoBatchDfs`        | Batch-DFS (uses FIFO batching)    | Fig. 13      |
//! | `NoCache`           | BRAM caching (paths/graph/barrier)| Fig. 14      |
//! | `NoDataSep`         | data separation (basic pipeline)  | Fig. 15      |
//!
//! [`run_query`] ties everything together: preprocessing on the host, PCIe
//! transfer, the device engine run, and result translation back to original
//! vertex ids.

use crate::engine::PefpEngine;
use crate::options::{BatchStrategy, EngineOptions, VerificationPipeline};
use crate::path::{MAX_K, NARROW_ROW};
use crate::preprocess::{
    no_prebfs_preprocess, no_prebfs_snapshot_with, no_prebfs_with, pre_bfs, pre_bfs_snapshot_with,
    pre_bfs_with, PrepareContext, PreparedQuery,
};
use crate::result::{EngineOutput, PefpRunResult};
use pefp_fpga::{Device, DeviceConfig, DeviceReport};
use pefp_graph::sink::{CollectSink, CountingSink, PathSink, TranslateSink};
use pefp_graph::{CsrGraph, VertexId};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// The PEFP system configurations evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PefpVariant {
    /// Full PEFP: Pre-BFS + Batch-DFS + caching + data separation.
    Full,
    /// PEFP without the Pre-BFS preprocessing (Fig. 12).
    NoPreBfs,
    /// PEFP with FIFO batching instead of Batch-DFS (Fig. 13).
    NoBatchDfs,
    /// PEFP without BRAM caching (Fig. 14).
    NoCache,
    /// PEFP with the basic (non-dataflow) verification pipeline (Fig. 15).
    NoDataSep,
}

impl PefpVariant {
    /// All variants, full system first.
    pub fn all() -> [PefpVariant; 5] {
        [
            PefpVariant::Full,
            PefpVariant::NoPreBfs,
            PefpVariant::NoBatchDfs,
            PefpVariant::NoCache,
            PefpVariant::NoDataSep,
        ]
    }

    /// The name used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            PefpVariant::Full => "PEFP",
            PefpVariant::NoPreBfs => "PEFP-No-Pre-BFS",
            PefpVariant::NoBatchDfs => "PEFP-No-Batch-DFS",
            PefpVariant::NoCache => "PEFP-No-Cache",
            PefpVariant::NoDataSep => "PEFP-No-DataSep",
        }
    }

    /// Whether this variant runs the Pre-BFS preprocessing.
    pub fn uses_prebfs(self) -> bool {
        !matches!(self, PefpVariant::NoPreBfs)
    }

    /// Engine options implementing this variant.
    pub fn engine_options(self) -> EngineOptions {
        let mut opts = EngineOptions::pefp_default();
        match self {
            PefpVariant::Full | PefpVariant::NoPreBfs => {}
            PefpVariant::NoBatchDfs => opts.batch_strategy = BatchStrategy::Fifo,
            PefpVariant::NoCache => opts.use_cache = false,
            PefpVariant::NoDataSep => opts.verification = VerificationPipeline::Basic,
        }
        opts
    }
}

/// Runs the host preprocessing for `variant` (Pre-BFS or the full-graph
/// fallback), returning the prepared query with its host timing filled in.
///
/// One-shot form; repeated-query callers should reuse a [`PrepareContext`]
/// via [`prepare_with`], which amortises BFS scratch and the reverse CSR.
pub fn prepare(
    g: &CsrGraph,
    s: VertexId,
    t: VertexId,
    k: u32,
    variant: PefpVariant,
) -> PreparedQuery {
    if variant.uses_prebfs() {
        pre_bfs(g, s, t, k)
    } else {
        no_prebfs_preprocess(g, s, t, k)
    }
}

/// [`prepare`] against a reusable [`PrepareContext`] and a shared graph:
/// per-query cost is proportional to the touched subgraph, and the full-graph
/// paths (no-Pre-BFS, trivial queries) share `g` instead of cloning it.
pub fn prepare_with(
    ctx: &mut PrepareContext,
    g: &Arc<CsrGraph>,
    s: VertexId,
    t: VertexId,
    k: u32,
    variant: PefpVariant,
) -> PreparedQuery {
    if variant.uses_prebfs() {
        pre_bfs_with(ctx, g, s, t, k)
    } else {
        no_prebfs_with(ctx, g, s, t, k)
    }
}

/// [`prepare_with`] against an epoch-versioned graph snapshot: queries are
/// preprocessed over the snapshot's copy-on-write overlay, so concurrent
/// updates to newer epochs never show through. The host runtime captures one
/// snapshot per admitted job and prepares against it here.
pub fn prepare_snapshot_with(
    ctx: &mut PrepareContext,
    snapshot: &pefp_graph::delta::GraphSnapshot,
    s: VertexId,
    t: VertexId,
    k: u32,
    variant: PefpVariant,
) -> PreparedQuery {
    if variant.uses_prebfs() {
        pre_bfs_snapshot_with(ctx, snapshot, s, t, k)
    } else {
        no_prebfs_snapshot_with(ctx, snapshot, s, t, k)
    }
}

/// Runs one complete PEFP query: preprocessing, PCIe transfer, device
/// enumeration and result translation.
pub fn run_query(
    g: &CsrGraph,
    s: VertexId,
    t: VertexId,
    k: u32,
    variant: PefpVariant,
    device_config: &DeviceConfig,
) -> PefpRunResult {
    run_query_with_options(g, s, t, k, variant, variant.engine_options(), device_config)
}

/// [`run_query`] with explicit engine options (used by the parameter-sweep
/// benchmarks; the options still inherit the variant's preprocessing choice).
pub fn run_query_with_options(
    g: &CsrGraph,
    s: VertexId,
    t: VertexId,
    k: u32,
    variant: PefpVariant,
    options: EngineOptions,
    device_config: &DeviceConfig,
) -> PefpRunResult {
    let prep = prepare(g, s, t, k, variant);
    run_prepared(&prep, options, device_config)
}

/// Runs the device phase for an already prepared query. Splitting this out
/// lets the benchmarks amortise preprocessing across repeated device runs.
///
/// Collect-everything wrapper over [`run_prepared_with_sink`]: with
/// `collect_paths` set the paths are gathered by a [`CollectSink`] (already
/// translated to original ids), otherwise a [`CountingSink`] counts them —
/// either way the same streaming pipeline runs underneath.
pub fn run_prepared(
    prep: &PreparedQuery,
    options: EngineOptions,
    device_config: &DeviceConfig,
) -> PefpRunResult {
    if options.collect_paths {
        let mut sink = CollectSink::new();
        let mut result = run_prepared_with_sink(prep, options, device_config, &mut sink);
        result.paths = sink.into_paths();
        result
    } else {
        run_prepared_with_sink(prep, options, device_config, &mut CountingSink::new())
    }
}

/// Runs the device phase for an already prepared query, streaming every
/// result path into `sink` in *original* graph vertex ids.
///
/// The translation from device ids happens inside a [`TranslateSink`] wrapper
/// with a reused scratch buffer, so no intermediate device-id path vector is
/// ever materialised between the engine and the caller. The returned
/// [`PefpRunResult`] carries timings, the device report and the engine
/// counters; its `paths` field is always empty.
pub fn run_prepared_with_sink<S: PathSink + ?Sized>(
    prep: &PreparedQuery,
    options: EngineOptions,
    device_config: &DeviceConfig,
    sink: &mut S,
) -> PefpRunResult {
    run_prepared_on_device(prep, options, Device::new(device_config.clone()), sink)
}

/// [`run_prepared_with_sink`] against a caller-supplied device instead of a
/// freshly instantiated one — the entry point for multi-CU execution, where
/// each device is one compute unit of a [`pefp_fpga::CuCluster`] and shares
/// the card's DRAM arbiter with its siblings.
///
/// The device is consumed: it accounts exactly one query (matching the
/// single-CU pipeline, which builds a fresh device per query) and its report
/// is returned inside the [`PefpRunResult`].
pub fn run_prepared_on_device<S: PathSink + ?Sized>(
    prep: &PreparedQuery,
    options: EngineOptions,
    mut device: Device,
    sink: &mut S,
) -> PefpRunResult {
    // Host -> device DMA of the subgraph, barrier and query parameters.
    device.charge_pcie_transfer(prep.transfer_bytes());

    let host_start = Instant::now();
    let (output, report) = if prep.feasible {
        // Host path rows sized to k; the simulated BRAM row is the same.
        if (prep.k as usize) < NARROW_ROW {
            run_engine::<NARROW_ROW, S>(prep, options, device, sink)
        } else {
            run_engine::<{ MAX_K + 1 }, S>(prep, options, device, sink)
        }
    } else {
        (EngineOutput::default(), device.report())
    };
    let host_engine_millis = host_start.elapsed().as_secs_f64() * 1e3;

    PefpRunResult {
        num_paths: output.num_paths,
        paths: Vec::new(),
        preprocess_millis: prep.host_millis,
        query_millis: report.total_millis,
        host_engine_millis,
        device: report,
        stats: output.stats,
    }
}

/// Runs the engine with host path rows of `N` vertices on a feasible query.
fn run_engine<const N: usize, S: PathSink + ?Sized>(
    prep: &PreparedQuery,
    options: EngineOptions,
    device: Device,
    sink: &mut S,
) -> (EngineOutput, DeviceReport) {
    let mut engine =
        PefpEngine::<N>::new(&prep.graph, &prep.barrier, prep.s, prep.t, prep.k, options, device);
    let output = match &prep.mapping {
        Some(mapping) => engine.run_with_sink(&mut TranslateSink::new(mapping, sink)),
        None => engine.run_with_sink(sink),
    };
    (output, engine.device_report())
}

/// Runs one complete PEFP query — preprocessing, PCIe transfer, device
/// enumeration — streaming every result path into `sink` in original graph
/// vertex ids instead of materialising the result set.
///
/// `options.collect_paths` is irrelevant here: the engine always pushes into
/// the caller's sink. Combine with [`pefp_graph::FirstN`] or
/// [`EngineOptions::max_results`] for early termination.
#[allow(clippy::too_many_arguments)]
pub fn run_query_with_sink<S: PathSink + ?Sized>(
    g: &CsrGraph,
    s: VertexId,
    t: VertexId,
    k: u32,
    variant: PefpVariant,
    options: EngineOptions,
    device_config: &DeviceConfig,
    sink: &mut S,
) -> PefpRunResult {
    let prep = prepare(g, s, t, k, variant);
    run_prepared_with_sink(&prep, options, device_config, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pefp_baselines::naive_dfs_enumerate;
    use pefp_graph::generators::chung_lu;
    use pefp_graph::paths::{canonicalize, validate_result};

    #[test]
    fn every_variant_produces_the_same_result_set() {
        let g = chung_lu(120, 5.0, 2.2, 31).to_csr();
        let (s, t, k) = (VertexId(0), VertexId(55), 5);
        let expected = canonicalize(naive_dfs_enumerate(&g, s, t, k));
        let cfg = DeviceConfig::alveo_u200();
        for variant in PefpVariant::all() {
            let result = run_query(&g, s, t, k, variant, &cfg);
            assert_eq!(
                canonicalize(result.paths.clone()),
                expected,
                "variant {} diverged",
                variant.name()
            );
            assert_eq!(result.num_paths as usize, expected.len());
            assert!(validate_result(&g, s, t, k as usize, &result.paths).is_empty());
        }
    }

    #[test]
    fn full_variant_is_fastest_in_simulated_time() {
        let g = chung_lu(300, 7.0, 2.1, 8).to_csr();
        let (s, t, k) = (VertexId(0), VertexId(150), 5);
        let cfg = DeviceConfig::alveo_u200();
        let full = run_query(&g, s, t, k, PefpVariant::Full, &cfg);
        for variant in [PefpVariant::NoCache, PefpVariant::NoDataSep] {
            let degraded = run_query(&g, s, t, k, variant, &cfg);
            assert!(
                degraded.device.cycles >= full.device.cycles,
                "{} ({} cycles) should not beat the full system ({} cycles)",
                variant.name(),
                degraded.device.cycles,
                full.device.cycles
            );
        }
    }

    #[test]
    fn prebfs_reduces_preprocess_plus_transfer_work() {
        let g = chung_lu(400, 6.0, 2.2, 3).to_csr();
        let (s, t, k) = (VertexId(2), VertexId(200), 4);
        let with = prepare(&g, s, t, k, PefpVariant::Full);
        let without = prepare(&g, s, t, k, PefpVariant::NoPreBfs);
        assert!(with.transfer_bytes() <= without.transfer_bytes());
        assert!(with.graph.num_vertices() <= without.graph.num_vertices());
    }

    #[test]
    fn infeasible_queries_return_quickly_and_empty() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (4, 5)]);
        let cfg = DeviceConfig::alveo_u200();
        let r = run_query(&g, VertexId(0), VertexId(5), 8, PefpVariant::Full, &cfg);
        assert_eq!(r.num_paths, 0);
        assert!(r.paths.is_empty());
    }

    #[test]
    fn cluster_device_run_matches_the_standalone_device() {
        use pefp_fpga::{CuCluster, MultiCuConfig};
        let g = chung_lu(150, 5.0, 2.2, 77).to_csr();
        let (s, t, k) = (VertexId(0), VertexId(70), 4);
        let cfg = DeviceConfig::alveo_u200();
        let prep = prepare(&g, s, t, k, PefpVariant::Full);
        let opts = PefpVariant::Full.engine_options();

        let mut standalone_sink = pefp_graph::CollectSink::new();
        let standalone = run_prepared_with_sink(&prep, opts.clone(), &cfg, &mut standalone_sink);

        // An idle cluster (no other active CU) must be cycle-identical.
        let cluster = CuCluster::new(
            cfg.clone(),
            MultiCuConfig { compute_units: 2, per_cu_bandwidth_share: 0.5, charge_banked: false },
        );
        let mut cu_sink = pefp_graph::CollectSink::new();
        let on_cu =
            run_prepared_on_device(&prep, opts.clone(), cluster.device_for_cu(1), &mut cu_sink);
        assert_eq!(cu_sink.into_paths(), standalone_sink.into_paths());
        assert_eq!(on_cu.device.cycles, standalone.device.cycles);
        assert_eq!(on_cu.device.contention_cycles, 0);
        assert_eq!(on_cu.device.dram_cycles, standalone.device.dram_cycles);

        // With the bus saturated by other CUs, the same query takes longer —
        // by exactly the inflated DRAM share — but the results are untouched.
        let _others: Vec<_> = (0..4).map(|_| cluster.arbiter().activate()).collect();
        let mut contended_sink = pefp_graph::CollectSink::new();
        let contended =
            run_prepared_on_device(&prep, opts, cluster.device_for_cu(0), &mut contended_sink);
        assert_eq!(contended.num_paths, standalone.num_paths);
        assert!(contended.device.contention_cycles > 0);
        assert_eq!(
            contended.device.cycles,
            standalone.device.cycles + contended.device.contention_cycles
        );
    }

    #[test]
    fn pcie_fault_on_the_transfer_dma_is_reported_on_the_run() {
        use pefp_fpga::{CuCluster, FaultKind, FaultPlan, MultiCuConfig, ScriptedFault};
        let g = chung_lu(120, 5.0, 2.2, 31).to_csr();
        let prep = prepare(&g, VertexId(0), VertexId(55), 5, PefpVariant::Full);
        let plan = FaultPlan::scripted(1);
        plan.push_script(0, ScriptedFault { after_ops: 0, kind: FaultKind::PcieError });
        let cluster =
            CuCluster::with_faults(DeviceConfig::alveo_u200(), MultiCuConfig::default(), plan);
        let mut sink = pefp_graph::CollectSink::new();
        let result = run_prepared_on_device(
            &prep,
            PefpVariant::Full.engine_options(),
            cluster.device_for_cu(0),
            &mut sink,
        );
        let fault = result.device_fault().expect("the DMA checksum must catch the fault");
        assert_eq!(fault.kind, FaultKind::PcieError);
        assert_eq!(result.num_paths, 0, "the engine aborts before emitting anything");
        assert!(sink.into_paths().is_empty());
    }

    #[test]
    fn variant_metadata_is_consistent() {
        assert_eq!(PefpVariant::all().len(), 5);
        assert_eq!(PefpVariant::Full.name(), "PEFP");
        assert!(PefpVariant::Full.uses_prebfs());
        assert!(!PefpVariant::NoPreBfs.uses_prebfs());
        assert_eq!(PefpVariant::NoBatchDfs.engine_options().batch_strategy, BatchStrategy::Fifo);
        assert!(!PefpVariant::NoCache.engine_options().use_cache);
        assert_eq!(
            PefpVariant::NoDataSep.engine_options().verification,
            VerificationPipeline::Basic
        );
    }

    #[test]
    fn total_time_combines_both_phases() {
        let g = chung_lu(100, 4.0, 2.2, 12).to_csr();
        let cfg = DeviceConfig::alveo_u200();
        let r = run_query(&g, VertexId(0), VertexId(50), 4, PefpVariant::Full, &cfg);
        assert!((r.total_millis() - (r.preprocess_millis + r.query_millis)).abs() < 1e-12);
        assert!(r.query_millis > 0.0);
    }
}
