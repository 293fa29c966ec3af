//! Golden simulated statistics of the device engine.
//!
//! The engine's host-side implementation may change (how successors are
//! scanned, how wide a host path row is), but the simulated device must not:
//! every case below pins the result count, the first result paths in
//! enumeration order, every [`EngineStats`] field and the device cycles and
//! traffic counters. The expected values were recorded from the scalar
//! engine — one `verify` call per expansion, `MAX_K + 1`-slot path rows —
//! before the barrier-survivor memo and k-sized rows replaced it, so any
//! drift in a simulated statistic fails here, not only in the cycle anchors
//! of the bench gates.
//!
//! On a mismatch the panic message prints the whole recomputed table in the
//! layout of `GOLDEN`.

use pefp_core::{
    pre_bfs, prepare, run_prepared_on_device, BatchStrategy, EngineOptions, EngineStats, FnSink,
    PefpRunResult, PefpVariant, PreparedQuery, VerificationPipeline, MAX_K,
};
use pefp_fpga::{CuCluster, Device, DeviceConfig, MultiCuConfig};
use pefp_graph::generators::{chung_lu, layered_dag, layered_sink, layered_source};
use pefp_graph::{CsrGraph, VertexId};
use std::ops::ControlFlow;

/// Result paths whose vertex sequences are pinned, per case.
const FIRST_PATHS: usize = 3;

/// Tiny capacities: Θ2 = 3 splits most rows into partial windows, a 6-row
/// buffer flushes constantly and Θ1 = 4 refills from DRAM in small bites.
fn tiny() -> EngineOptions {
    EngineOptions {
        processing_capacity: 3,
        buffer_capacity: 6,
        dram_fetch_batch: 4,
        ..EngineOptions::default()
    }
}

fn fifo(base: EngineOptions) -> EngineOptions {
    EngineOptions { batch_strategy: BatchStrategy::Fifo, ..base }
}

fn no_cache(base: EngineOptions) -> EngineOptions {
    EngineOptions { use_cache: false, ..base }
}

fn capped(base: EngineOptions, n: u64) -> EngineOptions {
    EngineOptions { max_results: Some(n), ..base }
}

/// The named option sets every small query is crossed with.
fn option_matrix() -> Vec<(&'static str, EngineOptions)> {
    let basic =
        EngineOptions { verification: VerificationPipeline::Basic, ..EngineOptions::default() };
    vec![
        ("default", EngineOptions::default()),
        ("fifo", fifo(EngineOptions::default())),
        ("nocache", no_cache(EngineOptions::default())),
        ("basic", basic),
        ("tiny", tiny()),
        ("tiny-fifo", fifo(tiny())),
        ("tiny-nocache", no_cache(tiny())),
        ("tiny-fifo-nocache", no_cache(fifo(tiny()))),
        ("cap1", capped(tiny(), 1)),
        ("cap7", capped(tiny(), 7)),
        ("cap7-fifo", capped(fifo(tiny()), 7)),
        ("cap100", capped(EngineOptions::default(), 100)),
    ]
}

/// A bidirectional chain `0 ↔ 1 ↔ … ↔ MAX_K`: one result path of `MAX_K`
/// hops, with every backward edge rejected by the barrier check.
fn chain() -> CsrGraph {
    let n = MAX_K as u32 + 1;
    let mut edges = Vec::new();
    for i in 0..n - 1 {
        edges.push((i, i + 1));
        edges.push((i + 1, i));
    }
    CsrGraph::from_edges(n as usize, &edges)
}

/// A `rows × cols` grid with edges in both directions between neighbours:
/// long simple paths, pruned by both the barrier and the visited check.
fn bidirectional_grid(rows: u32, cols: u32) -> CsrGraph {
    let mut edges = Vec::new();
    for v in 0..rows * cols {
        if v % cols + 1 < cols {
            edges.extend([(v, v + 1), (v + 1, v)]);
        }
        if v + cols < rows * cols {
            edges.extend([(v, v + cols), (v + cols, v)]);
        }
    }
    CsrGraph::from_edges((rows * cols) as usize, &edges)
}

fn vid(v: usize) -> VertexId {
    VertexId::from_index(v)
}

/// Runs one prepared query on `device` and renders everything simulated.
fn fingerprint(prep: &PreparedQuery, opts: EngineOptions, device: Device) -> String {
    let mut first: Vec<Vec<u32>> = Vec::new();
    let mut sink = FnSink(|path: &[VertexId]| {
        if first.len() < FIRST_PATHS {
            first.push(path.iter().map(|v| v.0).collect());
        }
        ControlFlow::Continue(())
    });
    let r: PefpRunResult = run_prepared_on_device(prep, opts, device, &mut sink);
    let EngineStats {
        batches,
        expansions,
        intermediate_paths,
        results,
        pruned_by_barrier,
        pruned_by_visited,
        peak_buffer_paths,
        peak_dram_paths,
        early_terminated,
        cancelled,
        device_fault,
    } = r.stats;
    let d = &r.device;
    let c = &d.counters;
    format!(
        "paths={} first={first:?} stats={batches}/{expansions}/{intermediate_paths}/{results}/\
         {pruned_by_barrier}/{pruned_by_visited}/{peak_buffer_paths}/{peak_dram_paths}/\
         {early_terminated}/{cancelled}/{device_fault:?} cycles={}/{}/{}/{}/{} bram={} \
         mem={}/{}/{}/{}/{}/{}/{}/{}/{}/{}",
        r.num_paths,
        d.cycles,
        d.dram_cycles,
        d.contention_cycles,
        d.bank_conflict_cycles,
        d.turnaround_cycles,
        d.bram_used,
        c.bram_reads,
        c.bram_writes,
        c.dram_reads,
        c.dram_writes,
        c.dram_words_read,
        c.dram_words_written,
        c.buffer_flushes,
        c.dram_batch_fetches,
        c.cache_hits,
        c.cache_misses,
    )
}

fn alveo() -> Device {
    Device::new(DeviceConfig::alveo_u200())
}

/// One compute unit of a cluster that charges banked DRAM stalls, so the
/// engine plans a row placement and times every uncached row fetch at its
/// placed address.
fn banked_cu() -> Device {
    let multi = MultiCuConfig { compute_units: 1, charge_banked: true, ..MultiCuConfig::default() };
    CuCluster::new(DeviceConfig::alveo_u200(), multi).device_for_cu(0)
}

fn recompute() -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut case = |name: String, prep: &PreparedQuery, opts: EngineOptions, device: Device| {
        out.push((name, fingerprint(prep, opts, device)));
    };

    // Hub-to-hub queries on a Chung-Lu graph: most expansions die at the
    // barrier, as in the paper's Table III.
    let cl = chung_lu(200, 5.0, 2.1, 8).to_csr();
    let layered = layered_dag(5, 4, 4, 1).to_csr();
    let (ls, lt) = (layered_source(), layered_sink(5, 4));
    let small: Vec<(String, PreparedQuery)> = vec![
        ("cl-k3".into(), pre_bfs(&cl, vid(0), vid(1), 3)),
        ("cl-k6".into(), pre_bfs(&cl, vid(0), vid(1), 6)),
        ("cl-nobfs-k4".into(), prepare(&cl, vid(0), vid(1), 4, PefpVariant::NoPreBfs)),
        ("layered-k6".into(), pre_bfs(&layered, ls, lt, 6)),
    ];
    for (qname, prep) in &small {
        for (oname, opts) in option_matrix() {
            case(format!("{qname}/{oname}"), prep, opts, alveo());
        }
        case(format!("{qname}/banked-nocache"), prep, no_cache(tiny()), banked_cu());
    }

    let cl7 = pre_bfs(&cl, vid(0), vid(1), 7);
    case("cl-k7/default".into(), &cl7, EngineOptions::default(), alveo());
    case("cl-k7/cap40-fifo".into(), &cl7, capped(fifo(tiny()), 40), alveo());

    // Both sides of the 16-slot row width: k = 15 and k = 16 on the same
    // graph, so the only difference is the hop budget.
    let grid = bidirectional_grid(3, 7);
    for k in [15u32, 16] {
        let g = pre_bfs(&grid, vid(0), vid(20), k);
        case(format!("grid-k{k}/default"), &g, EngineOptions::default(), alveo());
        case(format!("grid-k{k}/tiny-fifo"), &g, fifo(tiny()), alveo());
        case(format!("grid-k{k}/tiny-nocache"), &g, no_cache(tiny()), alveo());
        case(format!("grid-k{k}/cap9"), &g, capped(tiny(), 9), alveo());
    }

    let ch = chain();
    let top = MAX_K as u32;
    let full = pre_bfs(&ch, vid(0), VertexId(top), top);
    case("chain-kmax/default".into(), &full, EngineOptions::default(), alveo());
    case("chain-kmax/tiny-nocache".into(), &full, no_cache(tiny()), alveo());
    let nobfs = prepare(&ch, vid(0), VertexId(top), top, PefpVariant::NoPreBfs);
    case("chain-kmax-nobfs/tiny-fifo".into(), &nobfs, fifo(tiny()), alveo());
    out
}

const GOLDEN: &[(&str, &str)] = &[
    ("cl-k3/default", "paths=2 first=[[0, 155, 1], [0, 24, 3, 1]] stats=3/5/3/2/0/0/2/0/false/false/None cycles=36/20/0/0/0 bram=1253440 mem=9/0/0/2/0/7/0/0/9/0"),
    ("cl-k3/fifo", "paths=2 first=[[0, 155, 1], [0, 24, 3, 1]] stats=3/5/3/2/0/0/2/0/false/false/None cycles=36/20/0/0/0 bram=1253440 mem=9/0/0/2/0/7/0/0/9/0"),
    ("cl-k3/nocache", "paths=2 first=[[0, 155, 1], [0, 24, 3, 1]] stats=3/5/3/2/0/0/0/2/false/false/None cycles=117/101/0/0/0 bram=139264 mem=0/0/14/4/42/23/0/2/0/9"),
    ("cl-k3/basic", "paths=2 first=[[0, 155, 1], [0, 24, 3, 1]] stats=3/5/3/2/0/0/2/0/false/false/None cycles=36/20/0/0/0 bram=1253440 mem=9/0/0/2/0/7/0/0/9/0"),
    ("cl-k3/tiny", "paths=2 first=[[0, 155, 1], [0, 24, 3, 1]] stats=3/5/3/2/0/0/2/0/false/false/None cycles=36/20/0/0/0 bram=1288 mem=9/0/0/2/0/7/0/0/9/0"),
    ("cl-k3/tiny-fifo", "paths=2 first=[[0, 155, 1], [0, 24, 3, 1]] stats=3/5/3/2/0/0/2/0/false/false/None cycles=36/20/0/0/0 bram=1288 mem=9/0/0/2/0/7/0/0/9/0"),
    ("cl-k3/tiny-nocache", "paths=2 first=[[0, 155, 1], [0, 24, 3, 1]] stats=3/5/3/2/0/0/0/2/false/false/None cycles=117/101/0/0/0 bram=408 mem=0/0/14/4/42/23/0/2/0/9"),
    ("cl-k3/tiny-fifo-nocache", "paths=2 first=[[0, 155, 1], [0, 24, 3, 1]] stats=3/5/3/2/0/0/0/2/false/false/None cycles=117/101/0/0/0 bram=408 mem=0/0/14/4/42/23/0/2/0/9"),
    ("cl-k3/cap1", "paths=1 first=[[0, 155, 1]] stats=2/3/2/1/0/0/2/0/true/false/None cycles=21/10/0/0/0 bram=1288 mem=5/0/0/1/0/3/0/0/5/0"),
    ("cl-k3/cap7", "paths=2 first=[[0, 155, 1], [0, 24, 3, 1]] stats=3/5/3/2/0/0/2/0/false/false/None cycles=36/20/0/0/0 bram=1288 mem=9/0/0/2/0/7/0/0/9/0"),
    ("cl-k3/cap7-fifo", "paths=2 first=[[0, 155, 1], [0, 24, 3, 1]] stats=3/5/3/2/0/0/2/0/false/false/None cycles=36/20/0/0/0 bram=1288 mem=9/0/0/2/0/7/0/0/9/0"),
    ("cl-k3/cap100", "paths=2 first=[[0, 155, 1], [0, 24, 3, 1]] stats=3/5/3/2/0/0/2/0/false/false/None cycles=36/20/0/0/0 bram=1253440 mem=9/0/0/2/0/7/0/0/9/0"),
    ("cl-k3/banked-nocache", "paths=2 first=[[0, 155, 1], [0, 24, 3, 1]] stats=3/5/3/2/0/0/0/2/false/false/None cycles=137/101/0/0/20 bram=408 mem=0/0/14/4/42/23/0/2/0/9"),
    ("cl-k6/default", "paths=29 first=[[0, 155, 1], [0, 24, 3, 1], [0, 67, 24, 3, 1]] stats=6/466/128/29/306/3/29/0/false/false/None cycles=194/137/0/0/0 bram=1254052 mem=595/0/0/5/0/191/0/0/595/0"),
    ("cl-k6/fifo", "paths=29 first=[[0, 155, 1], [0, 24, 3, 1], [0, 67, 24, 3, 1]] stats=6/466/128/29/306/3/29/0/false/false/None cycles=194/137/0/0/0 bram=1254052 mem=595/0/0/5/0/191/0/0/595/0"),
    ("cl-k6/nocache", "paths=29 first=[[0, 155, 1], [0, 24, 3, 1], [0, 67, 24, 3, 1]] stats=6/466/128/29/306/3/0/29/false/false/None cycles=2866/2627/0/0/0 bram=139264 mem=0/0/728/10/2728/1089/0/5/0/595"),
    ("cl-k6/basic", "paths=29 first=[[0, 155, 1], [0, 24, 3, 1], [0, 67, 24, 3, 1]] stats=6/466/128/29/306/3/29/0/false/false/None cycles=246/137/0/0/0 bram=1254052 mem=595/0/0/5/0/191/0/0/595/0"),
    ("cl-k6/tiny", "paths=29 first=[[0, 9, 127, 40, 16, 3, 1], [0, 4, 127, 40, 16, 3, 1], [0, 2, 71, 67, 24, 3, 1]] stats=161/466/128/29/306/3/6/6/false/false/None cycles=1308/502/0/0/0 bram=1900 mem=699/0/5/35/74/265/6/5/699/0"),
    ("cl-k6/tiny-fifo", "paths=29 first=[[0, 9, 127, 40, 16, 3, 1], [0, 18, 71, 67, 24, 3, 1], [0, 77, 13, 8, 24, 3, 1]] stats=157/466/128/29/306/3/6/15/false/false/None cycles=1409/623/0/0/0 bram=1900 mem=707/0/7/38/151/342/9/7/707/0"),
    ("cl-k6/tiny-nocache", "paths=29 first=[[0, 24, 3, 1], [0, 18, 71, 67, 24, 3, 1], [0, 18, 127, 40, 16, 3, 1]] stats=166/466/128/29/306/3/0/24/false/false/None cycles=5840/5009/0/0/0 bram=408 mem=0/0/974/109/3577/1089/0/33/0/704"),
    ("cl-k6/tiny-fifo-nocache", "paths=29 first=[[0, 155, 1], [0, 145, 116, 40, 16, 3, 1], [0, 145, 127, 40, 16, 3, 1]] stats=171/466/128/29/306/3/0/22/false/false/None cycles=5867/5011/0/0/0 bram=408 mem=0/0/977/105/3609/1089/0/34/0/705"),
    ("cl-k6/cap1", "paths=1 first=[[0, 9, 127, 40, 16, 3, 1]] stats=6/16/9/1/6/0/6/6/true/false/None cycles=71/40/0/0/0 bram=1900 mem=27/0/0/3/0/31/2/0/27/0"),
    ("cl-k6/cap7", "paths=7 first=[[0, 9, 127, 40, 16, 3, 1], [0, 4, 127, 40, 16, 3, 1], [0, 2, 71, 67, 24, 3, 1]] stats=38/104/35/7/62/0/6/6/true/false/None cycles=331/140/0/0/0 bram=1900 mem=160/0/1/10/16/81/3/1/160/0"),
    ("cl-k6/cap7-fifo", "paths=7 first=[[0, 9, 127, 40, 16, 3, 1], [0, 18, 71, 67, 24, 3, 1], [0, 77, 13, 8, 24, 3, 1]] stats=42/123/41/7/74/1/6/15/true/false/None cycles=395/184/0/0/0 bram=1900 mem=187/0/1/12/26/124/5/1/187/0"),
    ("cl-k6/cap100", "paths=29 first=[[0, 155, 1], [0, 24, 3, 1], [0, 67, 24, 3, 1]] stats=6/466/128/29/306/3/29/0/false/false/None cycles=194/137/0/0/0 bram=1254052 mem=595/0/0/5/0/191/0/0/595/0"),
    ("cl-k6/banked-nocache", "paths=29 first=[[0, 24, 3, 1], [0, 18, 71, 67, 24, 3, 1], [0, 18, 127, 40, 16, 3, 1]] stats=166/466/128/29/306/3/0/24/false/false/None cycles=6672/5009/0/0/832 bram=408 mem=0/0/974/109/3577/1089/0/33/0/704"),
    ("cl-nobfs-k4/default", "paths=3 first=[[0, 155, 1], [0, 24, 3, 1], [0, 67, 24, 3, 1]] stats=4/169/6/3/160/0/3/0/false/false/None cycles=61/31/0/0/0 bram=1258500 mem=176/0/0/3/0/12/0/0/176/0"),
    ("cl-nobfs-k4/fifo", "paths=3 first=[[0, 155, 1], [0, 24, 3, 1], [0, 67, 24, 3, 1]] stats=4/169/6/3/160/0/3/0/false/false/None cycles=61/31/0/0/0 bram=1258500 mem=176/0/0/3/0/12/0/0/176/0"),
    ("cl-nobfs-k4/nocache", "paths=3 first=[[0, 155, 1], [0, 24, 3, 1], [0, 67, 24, 3, 1]] stats=4/169/6/3/160/0/0/3/false/false/None cycles=275/182/0/0/0 bram=139264 mem=0/0/185/6/406/46/0/3/0/176"),
    ("cl-nobfs-k4/basic", "paths=3 first=[[0, 155, 1], [0, 24, 3, 1], [0, 67, 24, 3, 1]] stats=4/169/6/3/160/0/3/0/false/false/None cycles=79/31/0/0/0 bram=1258500 mem=176/0/0/3/0/12/0/0/176/0"),
    ("cl-nobfs-k4/tiny", "paths=3 first=[[0, 155, 1], [0, 67, 24, 3, 1], [0, 24, 3, 1]] stats=57/169/6/3/160/0/18/6/false/false/None cycles=373/87/0/0/0 bram=6348 mem=247/0/2/5/24/36/2/2/247/0"),
    ("cl-nobfs-k4/tiny-fifo", "paths=3 first=[[0, 155, 1], [0, 67, 24, 3, 1], [0, 24, 3, 1]] stats=57/169/6/3/160/0/24/6/false/false/None cycles=375/89/0/0/0 bram=6348 mem=229/0/2/5/25/37/2/2/229/0"),
    ("cl-nobfs-k4/tiny-nocache", "paths=3 first=[[0, 155, 1], [0, 24, 3, 1], [0, 67, 24, 3, 1]] stats=57/169/6/3/160/0/0/3/false/false/None cycles=1286/1000/0/0/0 bram=408 mem=0/0/337/9/764/46/0/3/0/252"),
    ("cl-nobfs-k4/tiny-fifo-nocache", "paths=3 first=[[0, 155, 1], [0, 24, 3, 1], [0, 67, 24, 3, 1]] stats=57/169/6/3/160/0/0/3/false/false/None cycles=1026/740/0/0/0 bram=408 mem=0/0/285/9/660/46/0/3/0/226"),
    ("cl-nobfs-k4/cap1", "paths=1 first=[[0, 155, 1]] stats=9/25/1/1/23/0/18/3/true/false/None cycles=70/24/0/0/0 bram=6348 mem=42/0/0/2/0/15/1/0/42/0"),
    ("cl-nobfs-k4/cap7", "paths=3 first=[[0, 155, 1], [0, 67, 24, 3, 1], [0, 24, 3, 1]] stats=57/169/6/3/160/0/18/6/false/false/None cycles=373/87/0/0/0 bram=6348 mem=247/0/2/5/24/36/2/2/247/0"),
    ("cl-nobfs-k4/cap7-fifo", "paths=3 first=[[0, 155, 1], [0, 67, 24, 3, 1], [0, 24, 3, 1]] stats=57/169/6/3/160/0/24/6/false/false/None cycles=375/89/0/0/0 bram=6348 mem=229/0/2/5/25/37/2/2/229/0"),
    ("cl-nobfs-k4/cap100", "paths=3 first=[[0, 155, 1], [0, 24, 3, 1], [0, 67, 24, 3, 1]] stats=4/169/6/3/160/0/3/0/false/false/None cycles=61/31/0/0/0 bram=1258500 mem=176/0/0/3/0/12/0/0/176/0"),
    ("cl-nobfs-k4/banked-nocache", "paths=3 first=[[0, 155, 1], [0, 24, 3, 1], [0, 67, 24, 3, 1]] stats=57/169/6/3/160/0/0/3/false/false/None cycles=1358/1000/0/0/72 bram=408 mem=0/0/337/9/764/46/0/3/0/252"),
    ("layered-k6/default", "paths=1024 first=[[0, 4, 5, 12, 13, 20, 21], [0, 4, 5, 12, 13, 19, 21], [0, 4, 5, 12, 13, 18, 21]] stats=6/2388/1364/1024/0/0/1024/0/false/false/None cycles=3767/3592/0/0/0 bram=1253844 mem=3753/0/0/1/0/7168/0/0/3753/0"),
    ("layered-k6/fifo", "paths=1024 first=[[0, 1, 5, 9, 13, 17, 21], [0, 1, 5, 9, 13, 18, 21], [0, 1, 5, 9, 13, 19, 21]] stats=6/2388/1364/1024/0/0/1024/0/false/false/None cycles=3767/3592/0/0/0 bram=1253844 mem=3753/0/0/1/0/7168/0/0/3753/0"),
    ("layered-k6/nocache", "paths=1024 first=[[0, 4, 5, 12, 13, 20, 21], [0, 4, 5, 12, 13, 19, 21], [0, 4, 5, 12, 13, 18, 21]] stats=6/2388/1364/1024/0/0/0/1024/false/false/None cycles=34055/32872/0/0/0 bram=139264 mem=0/0/5122/6/28432/18996/0/5/0/3753"),
    ("layered-k6/basic", "paths=1024 first=[[0, 4, 5, 12, 13, 20, 21], [0, 4, 5, 12, 13, 19, 21], [0, 4, 5, 12, 13, 18, 21]] stats=6/2388/1364/1024/0/0/1024/0/false/false/None cycles=4055/3592/0/0/0 bram=1253844 mem=3753/0/0/1/0/7168/0/0/3753/0"),
    ("layered-k6/tiny", "paths=1024 first=[[0, 3, 7, 11, 15, 19, 21], [0, 3, 7, 11, 15, 18, 21], [0, 3, 7, 11, 15, 17, 21]] stats=831/2388/1364/1024/0/0/6/12/false/false/None cycles=15206/11050/0/0/0 bram=1692 mem=4100/0/100/493/2484/9652/128/100/4100/0"),
    ("layered-k6/tiny-fifo", "paths=1024 first=[[0, 3, 7, 11, 15, 19, 21], [0, 3, 7, 11, 15, 20, 21], [0, 3, 7, 11, 16, 20, 21]] stats=905/2388/1364/1024/0/0/6/42/false/false/None cycles=23646/19120/0/0/0 bram=1692 mem=4094/0/209/787/7215/14383/278/209/4094/0"),
    ("layered-k6/tiny-nocache", "paths=1024 first=[[0, 1, 5, 9, 13, 20, 21], [0, 1, 5, 9, 13, 19, 21], [0, 1, 5, 9, 13, 18, 21]] stats=1024/2388/1364/1024/0/0/0/52/false/false/None cycles=53356/48235/0/0/0 bram=408 mem=0/0/6140/1024/31048/18996/0/341/0/4094"),
    ("layered-k6/tiny-fifo-nocache", "paths=1024 first=[[0, 4, 8, 12, 16, 17, 21], [0, 4, 8, 12, 16, 18, 21], [0, 4, 8, 12, 16, 19, 21]] stats=1024/2388/1364/1024/0/0/0/52/false/false/None cycles=53356/48235/0/0/0 bram=408 mem=0/0/6140/1024/31048/18996/0/341/0/4094"),
    ("layered-k6/cap1", "paths=1 first=[[0, 3, 7, 11, 15, 19, 21]] stats=6/16/15/1/0/0/6/12/true/false/None cycles=113/82/0/0/0 bram=1692 mem=22/0/0/5/0/81/4/0/22/0"),
    ("layered-k6/cap7", "paths=7 first=[[0, 3, 7, 11, 15, 19, 21], [0, 3, 7, 11, 15, 18, 21], [0, 3, 7, 11, 15, 17, 21]] stats=10/26/19/7/0/0/6/12/true/false/None cycles=213/162/0/0/0 bram=1692 mem=40/0/1/8/30/145/5/1/40/0"),
    ("layered-k6/cap7-fifo", "paths=7 first=[[0, 3, 7, 11, 15, 19, 21], [0, 3, 7, 11, 15, 20, 21], [0, 3, 7, 11, 16, 20, 21]] stats=23/67/60/7/0/0/6/42/true/false/None cycles=461/345/0/0/0 bram=1692 mem=104/0/1/17/36/356/14/1/104/0"),
    ("layered-k6/cap100", "paths=100 first=[[0, 4, 5, 12, 13, 20, 21], [0, 4, 5, 12, 13, 19, 21], [0, 4, 5, 12, 13, 18, 21]] stats=6/1464/1364/100/0/0/1024/0/true/false/None cycles=476/358/0/0/0 bram=1253844 mem=1905/0/0/1/0/700/0/0/1905/0"),
    ("layered-k6/banked-nocache", "paths=1024 first=[[0, 1, 5, 9, 13, 20, 21], [0, 1, 5, 9, 13, 19, 21], [0, 1, 5, 9, 13, 18, 21]] stats=1024/2388/1364/1024/0/0/0/52/false/false/None cycles=61544/48235/0/0/8188 bram=408 mem=0/0/6140/1024/31048/18996/0/341/0/4094"),
    ("cl-k7/default", "paths=74 first=[[0, 155, 1], [0, 24, 3, 1], [0, 67, 24, 3, 1]] stats=7/1726/370/74/1266/16/80/0/false/false/None cycles=465/325/0/0/0 bram=1254500 mem=2097/0/0/6/0/551/0/0/2097/0"),
    ("cl-k7/cap40-fifo", "paths=40 first=[[0, 24, 3, 1], [0, 61, 9, 127, 40, 16, 3, 1], [0, 61, 53, 10, 67, 24, 3, 1]] stats=328/977/221/40/704/12/9/27/true/false/None cycles=2629/988/0/0/0 bram=2348 mem=1452/0/11/57/266/595/17/11/1452/0"),
    ("grid-k15/default", "paths=907 first=[[0, 7, 8, 15, 16, 17, 18, 19, 20], [0, 7, 8, 9, 10, 17, 18, 19, 20], [0, 7, 8, 9, 10, 11, 12, 19, 20]] stats=19/9148/2977/907/2407/2857/584/0/false/false/None cycles=6825/6170/0/0/0 bram=1253804 mem=12128/0/0/10/0/12175/0/0/12128/0"),
    ("grid-k15/tiny-fifo", "paths=907 first=[[0, 1, 8, 9, 10, 3, 4, 5, 12, 13, 20], [0, 1, 8, 9, 10, 3, 4, 11, 12, 19, 20], [0, 1, 8, 9, 10, 3, 4, 11, 18, 19, 20]] stats=3110/9148/2977/907/2407/2857/6/33/false/false/None cycles=41645/26094/0/0/0 bram=1652 mem=13995/0/171/1134/9006/21181/227/171/13995/0"),
    ("grid-k15/tiny-nocache", "paths=907 first=[[0, 7, 8, 1, 2, 9, 10, 11, 18, 19, 20], [0, 7, 8, 1, 2, 9, 10, 3, 4, 11, 12, 19, 20], [0, 7, 8, 1, 2, 9, 10, 3, 4, 11, 12, 13, 20]] stats=3294/9148/2977/907/2407/2857/0/41/false/false/None cycles=163424/146953/0/0/0 bram=408 mem=0/0/18609/3066/122595/54727/0/748/0/13505"),
    ("grid-k15/cap9", "paths=9 first=[[0, 7, 8, 1, 2, 9, 10, 11, 12, 13, 20], [0, 7, 8, 1, 2, 9, 10, 11, 12, 19, 20], [0, 7, 8, 1, 2, 9, 10, 11, 12, 5, 6, 13, 20]] stats=39/115/46/9/14/46/6/9/true/false/None cycles=500/304/0/0/0 bram=1652 mem=163/0/2/14/85/257/5/2/163/0"),
    ("grid-k16/default", "paths=1201 first=[[0, 7, 8, 15, 16, 17, 18, 19, 20], [0, 7, 8, 9, 10, 17, 18, 19, 20], [0, 7, 8, 9, 10, 11, 12, 19, 20]] stats=24/14039/4577/1201/2511/5750/725/0/false/false/None cycles=9683/8701/0/0/0 bram=1253804 mem=18624/0/0/14/0/17173/0/0/18624/0"),
    ("grid-k16/tiny-fifo", "paths=1201 first=[[0, 1, 8, 9, 10, 3, 4, 5, 12, 13, 20], [0, 1, 8, 9, 10, 3, 4, 11, 12, 19, 20], [0, 1, 8, 9, 10, 3, 4, 11, 18, 19, 20]] stats=4772/14039/4577/1201/2511/5750/6/31/false/false/None cycles=61869/38008/0/0/0 bram=1652 mem=21517/0/254/1539/14324/31497/338/254/21517/0"),
    ("grid-k16/tiny-nocache", "paths=1201 first=[[0, 7, 8, 1, 2, 9, 10, 11, 18, 19, 20], [0, 7, 8, 1, 2, 9, 10, 3, 4, 11, 12, 19, 20], [0, 7, 8, 1, 2, 9, 10, 3, 4, 11, 12, 13, 20]] stats=5057/14039/4577/1201/2511/5750/0/42/false/false/None cycles=257203/231917/0/0/0 bram=408 mem=0/0/28620/4551/200006/87113/0/1146/0/20757"),
    ("grid-k16/cap9", "paths=9 first=[[0, 7, 8, 1, 2, 9, 10, 11, 12, 13, 20], [0, 7, 8, 1, 2, 9, 10, 11, 12, 19, 20], [0, 7, 8, 1, 2, 9, 10, 11, 12, 5, 6, 13, 20]] stats=45/133/52/9/9/63/6/9/true/false/None cycles=530/304/0/0/0 bram=1652 mem=187/0/2/14/85/257/5/2/187/0"),
    ("chain-kmax/default", "paths=1 first=[[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30]] stats=30/59/29/1/29/0/1/0/false/false/None cycles=175/24/0/0/0 bram=1253868 mem=89/0/0/1/0/31/0/0/89/0"),
    ("chain-kmax/tiny-nocache", "paths=1 first=[[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30]] stats=30/59/29/1/29/0/0/1/false/false/None cycles=1720/1569/0/0/0 bram=408 mem=0/0/147/30/1220/582/0/29/0/89"),
    ("chain-kmax-nobfs/tiny-fifo", "paths=1 first=[[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30]] stats=30/59/29/1/29/0/1/0/false/false/None cycles=175/24/0/0/0 bram=1716 mem=89/0/0/1/0/31/0/0/89/0"),
];

#[test]
fn simulated_statistics_match_the_recorded_engine() {
    let actual = recompute();
    let same = actual.len() == GOLDEN.len()
        && actual.iter().zip(GOLDEN).all(|((an, af), (gn, gf))| an == gn && af == gf);
    if !same {
        let mut table = String::from("const GOLDEN: &[(&str, &str)] = &[\n");
        for (name, fp) in &actual {
            table.push_str(&format!("    ({name:?}, {fp:?}),\n"));
        }
        table.push_str("];\n");
        let diffs: Vec<String> = actual
            .iter()
            .filter(|(n, f)| !GOLDEN.iter().any(|(gn, gf)| gn == n && gf == f))
            .map(|(n, _)| n.clone())
            .collect();
        panic!("simulated statistics drifted in {diffs:?}; recomputed table:\n{table}");
    }
}
