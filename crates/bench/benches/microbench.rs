//! Component-level microbenchmarks.
//!
//! These do not correspond to a specific paper figure; they track the cost of
//! the individual building blocks (CSR construction, k-hop BFS, Pre-BFS,
//! path-row operations, verification throughput, the device simulator's host
//! time) so performance regressions can be localised when the figure-level
//! numbers move.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pefp_core::engine::verify::{verify, Verdict};
use pefp_core::{
    pre_bfs, pre_bfs_with, prepare, route_query, run_prepared_with_sink, CountingSink,
    EngineChoice, PefpVariant, PrepareContext, PreparedQuery, RouteContext, RoutingTable, TempPath,
};
use pefp_fpga::DeviceConfig;
use pefp_graph::bfs::{khop_bfs, BfsScratch};
use pefp_graph::{generators, CsrBuilder, VertexId};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn bench_csr_construction(c: &mut Criterion) {
    let graph = generators::chung_lu(5_000, 8.0, 2.2, 1);
    let edges: Vec<(VertexId, VertexId)> = graph.edges().map(|e| (e.from, e.to)).collect();
    let n = graph.num_vertices();
    let mut group = c.benchmark_group("csr_construction");
    group.throughput(Throughput::Elements(edges.len() as u64));
    group.bench_function("build_from_edge_list", |b| {
        b.iter(|| {
            let mut builder = CsrBuilder::with_edge_capacity(n, edges.len());
            for &(u, v) in &edges {
                builder.add_edge(u, v);
            }
            black_box(builder.build().num_edges())
        })
    });
    group.finish();
}

fn bench_khop_bfs(c: &mut Criterion) {
    let g = generators::chung_lu(10_000, 8.0, 2.2, 2).to_csr();
    let mut group = c.benchmark_group("khop_bfs");
    group.throughput(Throughput::Elements(g.num_edges() as u64));
    for k in [2u32, 4, 6] {
        group.bench_function(format!("k{k}"), |b| {
            b.iter(|| black_box(khop_bfs(&g, VertexId(0), k).len()))
        });
        // Epoch-stamped scratch: O(touched) per run instead of a fresh O(|V|)
        // distance array.
        let mut scratch = BfsScratch::new();
        group.bench_function(format!("k{k}_scratch"), |b| {
            b.iter(|| {
                scratch.run(&g, VertexId(0), k);
                black_box(scratch.touched_len())
            })
        });
    }
    group.finish();
}

fn bench_prebfs(c: &mut Criterion) {
    let g = Arc::new(generators::chung_lu(10_000, 8.0, 2.2, 3).to_csr());
    let mut group = c.benchmark_group("pre_bfs");
    for k in [3u32, 5] {
        group.bench_function(format!("k{k}"), |b| {
            b.iter(|| black_box(pre_bfs(&g, VertexId(0), VertexId(5_000), k).graph.num_edges()))
        });
        // The repeated-query path: scratch and the reverse CSR amortised
        // across queries by a reused PrepareContext.
        let mut ctx = PrepareContext::new();
        group.bench_function(format!("k{k}_ctx"), |b| {
            b.iter(|| {
                black_box(
                    pre_bfs_with(&mut ctx, &g, VertexId(0), VertexId(5_000), k).graph.num_edges(),
                )
            })
        });
    }
    group.finish();
}

fn bench_path_rows(c: &mut Criterion) {
    let g = generators::chung_lu(1_000, 8.0, 2.2, 4).to_csr();
    let base = TempPath::initial(&g, VertexId(0));
    let succ = g.successors(VertexId(0)).first().copied().unwrap_or(VertexId(1));
    let mut group = c.benchmark_group("path_rows");
    group.throughput(Throughput::Elements(1));
    group
        .bench_function("extend", |b| b.iter(|| black_box(base.extended(&g, succ).num_vertices())));
    let long = (1..=10u32).fold(base, |p, i| {
        let v = VertexId(i % g.num_vertices() as u32);
        if p.contains(v) {
            p
        } else {
            p.extended(&g, v)
        }
    });
    group.bench_function("visited_check", |b| b.iter(|| black_box(long.contains(VertexId(999)))));
    group.finish();
}

fn bench_verification_throughput(c: &mut Criterion) {
    let g = generators::chung_lu(1_000, 8.0, 2.2, 5).to_csr();
    let prep = pre_bfs(&g, VertexId(0), VertexId(500), 5);
    let path = TempPath::initial(&prep.graph, prep.s);
    let successors: Vec<VertexId> = prep.graph.successors(prep.s).to_vec();
    if successors.is_empty() {
        return;
    }
    let mut group = c.benchmark_group("verification");
    group.throughput(Throughput::Elements(successors.len() as u64));
    group.bench_function("three_stage_check", |b| {
        b.iter(|| {
            let mut valid = 0u32;
            for &nbr in &successors {
                if verify(&path, nbr, prep.t, 5, prep.barrier[nbr.index()]) == Verdict::Valid {
                    valid += 1;
                }
            }
            black_box(valid)
        })
    });
    group.finish();
}

/// Host time of the simulated device engine on the queries the builtin
/// router sends to the device: every ordered pair of the 8 heaviest hubs of
/// the gate graph at k = 6 and k = 7, as served on 2 CUs. One sample runs
/// the whole pool; the extra line gives host µs per query and simulated
/// device cycles per host second, the simulator's own speed.
fn bench_engine_host(c: &mut Criterion) {
    let handle = pefp_bench::gate::gate_graph();
    let table = RoutingTable::builtin();
    let route_ctx = RouteContext { compute_units: 2, ..RouteContext::default() };
    let device = DeviceConfig::alveo_u200();
    let mut options = PefpVariant::Full.engine_options();
    options.collect_paths = false;
    let mut group = c.benchmark_group("engine_host");
    group.sample_size(20);
    for k in [6u32, 7] {
        let pool: Vec<PreparedQuery> = (0..8u32)
            .flat_map(|s| (0..8u32).filter(move |&t| t != s).map(move |t| (s, t)))
            .map(|(s, t)| prepare(&handle.csr, VertexId(s), VertexId(t), k, PefpVariant::Full))
            .filter(|prep| {
                let choice = route_query(prep, &table, &route_ctx).choice;
                matches!(choice, EngineChoice::DeviceSingleCu | EngineChoice::DeviceMultiCu)
            })
            .collect();
        let run_pool = || -> u64 {
            pool.iter()
                .map(|prep| {
                    let mut sink = CountingSink::new();
                    run_prepared_with_sink(prep, options.clone(), &device, &mut sink).device.cycles
                })
                .sum()
        };
        let mut rounds = Vec::new();
        group.bench_function(format!("k{k}_device_routed_pool"), |b| {
            b.iter(|| {
                let started = Instant::now();
                let cycles = run_pool();
                rounds.push((started.elapsed().as_secs_f64(), cycles));
                cycles
            })
        });
        rounds.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (median_s, cycles) = rounds[rounds.len() / 2];
        println!(
            "engine_host/k{k}: {} device-routed queries, {:.1} host us/query, \
             {:.2}M simulated cycles per host second (median of {} pool runs)",
            pool.len(),
            median_s * 1e6 / pool.len().max(1) as f64,
            cycles as f64 / median_s / 1e6,
            rounds.len()
        );
    }
    group.finish();
}

fn bench_generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("generators");
    group.sample_size(10);
    group.bench_function("chung_lu_5k", |b| {
        b.iter(|| black_box(generators::chung_lu(5_000, 8.0, 2.2, 7).num_edges()))
    });
    group.bench_function("copying_5k", |b| {
        b.iter(|| black_box(generators::copying_model(5_000, 6, 0.2, 7).num_edges()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_csr_construction,
    bench_khop_bfs,
    bench_prebfs,
    bench_path_rows,
    bench_verification_throughput,
    bench_engine_host,
    bench_generators
);
criterion_main!(benches);
