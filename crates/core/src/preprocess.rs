//! Host-side preprocessing.
//!
//! Section V of the paper: before a query is shipped to the device, the host
//! runs **Pre-BFS** — a `(k-1)`-hop bidirectional BFS — to
//!
//! 1. compute `sd(s, ·)` on `G` and `sd(·, t)` on `G_rev`,
//! 2. keep only the vertices with `sd(s,u) + sd(u,t) ≤ k` (Theorem 1),
//! 3. extract the induced subgraph `G'` in CSR form, and
//! 4. send `s`, `t`, `G'` and the *barrier* array `bar[u] = sd(u, t)` to the
//!    device.
//!
//! `(k-1)` hops suffice because the only valid vertices a `k`-hop BFS could
//! additionally discover are `s` and `t` themselves (the paper's second proof
//! in Section V); the implementation force-keeps the two endpoints to cover
//! that corner case.
//!
//! ## Per-query cost: O(touched), not O(|V|)
//!
//! The paper's headline claim covers preprocessing as much as enumeration, so
//! the host side must not spend O(|V| + |E|) per query when the k-hop
//! frontier reaches a few hundred vertices. [`PrepareContext`] is the
//! reusable state that makes repeated preparation output-sensitive:
//!
//! * two epoch-stamped [`BfsScratch`] instances (forward from `s`, backward
//!   from `t` on `G_rev`) whose allocations persist across queries and whose
//!   touched-vertex lists replace full-vertex scans,
//! * a build-once-share-many reverse CSR (`Arc<CsrGraph>`), either installed
//!   by the caller (the host loader already builds one per graph) or computed
//!   lazily on the first query and reused for every subsequent query on the
//!   same graph,
//! * Theorem 1's cut evaluated over the forward frontier only, feeding
//!   `induce_subgraph_from_vertices` so `G'` is built from the kept list.
//!
//! [`pre_bfs_with`] / [`no_prebfs_with`] are the real implementations;
//! [`pre_bfs`] and [`no_prebfs_preprocess`] remain as one-shot wrappers with
//! their original signatures. The module also provides the *no-Pre-BFS*
//! preprocessing used by the ablation in Fig. 12 (barrier from a full k-hop
//! reverse BFS, no subgraph extraction).

use crate::routing::RouteFeatures;
use pefp_graph::bfs::{BfsScratch, UNREACHED};
use pefp_graph::delta::GraphSnapshot;
use pefp_graph::induced::{induce_subgraph_from_vertices_with, InducedSubgraph, RemapScratch};
use pefp_graph::view::GraphView;
use pefp_graph::{CsrGraph, VertexId};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// The set of data-graph vertices a preparation *depended on* — the sound
/// invalidation key for cached [`PreparedQuery`]s under incremental updates.
///
/// For Pre-BFS this is the union of the forward and backward `(k-1)`-hop BFS
/// frontiers plus the endpoints, in **original** graph ids. It is a superset
/// of the pruned subgraph `G'`: Theorem 1 keeps only frontier vertices, but
/// an edge insert `u -> v` with `u` outside the forward frontier and `v`
/// outside the backward frontier can change neither BFS, hence neither `G'`,
/// the barrier, nor the result set — while an insert touching either frontier
/// can (e.g. bridging a forward-reachable dead end to a vertex that reaches
/// `t`, where *neither* endpoint lies in `G'`). Intersecting a delta's
/// touched vertices against this set is therefore conservative and exact
/// enough: every invalidated result intersects it, and `G'` ⊆ touched means
/// every entry whose pruned subgraph meets the delta is evicted too.
///
/// Preparations that ship the whole graph (no-Pre-BFS ablation, trivial
/// queries) depend on everything and use [`TouchedSet::All`].
#[derive(Debug, Clone)]
pub enum TouchedSet {
    /// The preparation read the entire graph; any update invalidates it.
    All,
    /// Sorted, deduplicated original-id vertices the preparation read.
    Vertices(Vec<VertexId>),
}

impl TouchedSet {
    /// Whether any vertex of `sorted` (ascending, deduplicated) is in the set.
    pub fn intersects(&self, sorted: &[VertexId]) -> bool {
        match self {
            TouchedSet::All => true,
            TouchedSet::Vertices(mine) => {
                let (mut i, mut j) = (0usize, 0usize);
                while i < mine.len() && j < sorted.len() {
                    match mine[i].cmp(&sorted[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => return true,
                    }
                }
                false
            }
        }
    }

    /// Whether `v` is in the set.
    pub fn contains(&self, v: VertexId) -> bool {
        match self {
            TouchedSet::All => true,
            TouchedSet::Vertices(mine) => mine.binary_search(&v).is_ok(),
        }
    }
}

/// Everything the device needs to run one query.
///
/// The graph is held behind an `Arc`: the Pre-BFS path shares it with the
/// mapping (one copy of `G'`, not two), and the no-Pre-BFS / trivial paths
/// share the caller's data graph instead of cloning all of `G`.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    /// The graph the device will search (the induced subgraph `G'` for
    /// Pre-BFS, or the full graph for the no-Pre-BFS ablation), with densely
    /// remapped vertex ids.
    pub graph: Arc<CsrGraph>,
    /// Mapping between original and device vertex ids (`None` when the full
    /// graph is used unchanged). Shares its graph with the `graph` field.
    pub mapping: Option<InducedSubgraph>,
    /// Source vertex in device ids.
    pub s: VertexId,
    /// Target vertex in device ids.
    pub t: VertexId,
    /// Hop constraint.
    pub k: u32,
    /// Barrier array: `bar[u] = sd(u, t)` in device ids, clamped to `k + 1`
    /// for vertices that cannot reach `t` within `k` hops.
    pub barrier: Vec<u32>,
    /// `false` when preprocessing already proved the result set is empty
    /// (e.g. `t` unreachable); the device run can then be skipped.
    pub feasible: bool,
    /// Original-id vertices this preparation depended on — the invalidation
    /// key host-side caches intersect against graph-update deltas.
    pub touched: TouchedSet,
    /// Host wall-clock time spent preprocessing, in milliseconds.
    pub host_millis: f64,
    /// The router's features, filled on first use by
    /// [`route_features`](Self::route_features).
    route_features: OnceLock<RouteFeatures>,
}

impl PreparedQuery {
    /// Number of bytes that must be transferred to device DRAM for this query
    /// (CSR arrays + barrier + query parameters), used for the PCIe model.
    pub fn transfer_bytes(&self) -> usize {
        self.graph.byte_size() + self.barrier.len() * 4 + 4 * 4
    }

    /// The router's feature vector, computed on first call and memoised.
    ///
    /// The features are a pure function of the fields above, so a cached
    /// preparation routes, re-routes and explains from one computation, and
    /// the memo leaves the cache with its entry. Pre-BFS never fills it, so
    /// `host_millis` (T1) does not include it. Do not mutate a field after the
    /// first call: prepare the query again instead.
    pub fn route_features(&self) -> &RouteFeatures {
        self.route_features.get_or_init(|| RouteFeatures::compute(self))
    }

    /// Translates a path expressed in device ids back to original graph ids.
    pub fn translate_path(&self, path: &[VertexId]) -> Vec<VertexId> {
        match &self.mapping {
            Some(m) => m.translate_path(path),
            None => path.to_vec(),
        }
    }
}

/// Counters describing the work a [`PrepareContext`] has performed; used by
/// tests and benches to verify the O(touched) contract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrepareStats {
    /// Queries prepared through this context.
    pub queries: u64,
    /// Reverse-CSR constructions paid by this context (0 when the caller
    /// installed a prebuilt reverse). The cache holds one graph's reverse —
    /// the context-per-served-graph design — so this counts one build per
    /// *graph switch*: a context alternating between two graphs rebuilds on
    /// every alternation and wants to be split into one context per graph.
    pub reverse_builds: u64,
    /// Vertices reached by the BFS frontiers of the most recent preparation
    /// (forward + backward for Pre-BFS, endpoints included; backward only
    /// for no-Pre-BFS; 0 for trivial queries, which run no BFS).
    pub last_touched: usize,
}

/// Reusable preprocessing state: BFS scratch, kept-list buffer and the shared
/// reverse CSR for the graph currently being served.
///
/// One context per worker thread; it is deliberately `!Sync`-free (plain owned
/// buffers), so batch runners hand each thread its own.
#[derive(Debug, Default)]
pub struct PrepareContext {
    forward: BfsScratch,
    backward: BfsScratch,
    remap: RemapScratch,
    reverse: Option<(Arc<CsrGraph>, Arc<CsrGraph>)>,
    stats: PrepareStats,
}

impl PrepareContext {
    /// A fresh context with empty scratch buffers.
    pub fn new() -> Self {
        PrepareContext::default()
    }

    /// A context that already knows the reverse CSR of `g` — the host loader
    /// builds one per loaded graph; wiring it here means no query ever pays
    /// for `g.reverse()` again.
    pub fn with_reverse(g: &Arc<CsrGraph>, reverse: Arc<CsrGraph>) -> Self {
        let mut ctx = PrepareContext::new();
        ctx.install_reverse(g, reverse);
        ctx
    }

    /// Installs (or replaces) the shared reverse CSR for `g`. A no-op when
    /// the same graph's reverse is already installed.
    pub fn install_reverse(&mut self, g: &Arc<CsrGraph>, reverse: Arc<CsrGraph>) {
        debug_assert_eq!(g.num_vertices(), reverse.num_vertices());
        if !matches!(&self.reverse, Some((cached, _)) if Arc::ptr_eq(cached, g)) {
            self.reverse = Some((Arc::clone(g), reverse));
        }
    }

    /// The reverse CSR for `g`: the installed/cached one when it matches,
    /// otherwise computed once and cached for subsequent queries.
    fn reverse_for(&mut self, g: &Arc<CsrGraph>) -> Arc<CsrGraph> {
        if let Some((cached, rev)) = &self.reverse {
            if Arc::ptr_eq(cached, g) {
                return Arc::clone(rev);
            }
        }
        let rev = Arc::new(g.reverse());
        self.stats.reverse_builds += 1;
        self.reverse = Some((Arc::clone(g), Arc::clone(&rev)));
        rev
    }

    /// Work counters accumulated by this context.
    pub fn stats(&self) -> PrepareStats {
        self.stats
    }
}

/// Pre-BFS preprocessing (the paper's Algorithm in Section V) against a
/// reusable [`PrepareContext`]; cost is proportional to the BFS frontier.
pub fn pre_bfs_with(
    ctx: &mut PrepareContext,
    g: &Arc<CsrGraph>,
    s: VertexId,
    t: VertexId,
    k: u32,
) -> PreparedQuery {
    let start = Instant::now();
    assert!(s.index() < g.num_vertices(), "source {s} out of range");
    assert!(t.index() < g.num_vertices(), "target {t} out of range");
    ctx.stats.queries += 1;

    // Degenerate hop budgets: k = 0 only ever admits the trivial s == t path.
    if k == 0 || s == t {
        ctx.stats.last_touched = 0;
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        return trivial_prepared(Arc::clone(g), s, t, k, elapsed);
    }
    let rev = ctx.reverse_for(g);
    pre_bfs_core(ctx, g, &rev, s, t, k, start)
}

/// Pre-BFS preprocessing (the paper's Algorithm in Section V), one-shot form:
/// allocates fresh scratch and recomputes the reverse CSR. Kept for callers
/// that prepare a single query; batch and server workloads should reuse a
/// [`PrepareContext`] via [`pre_bfs_with`].
pub fn pre_bfs(g: &CsrGraph, s: VertexId, t: VertexId, k: u32) -> PreparedQuery {
    let start = Instant::now();
    assert!(s.index() < g.num_vertices(), "source {s} out of range");
    assert!(t.index() < g.num_vertices(), "target {t} out of range");

    if k == 0 || s == t {
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        return trivial_prepared(Arc::new(g.clone()), s, t, k, elapsed);
    }
    let mut ctx = PrepareContext::new();
    ctx.stats.queries += 1;
    let rev = g.reverse();
    pre_bfs_core(&mut ctx, g, &rev, s, t, k, start)
}

/// Shared non-trivial Pre-BFS implementation. Touches only the vertices the
/// two bounded BFS frontiers reach: the Theorem 1 cut iterates the forward
/// frontier (every kept vertex other than the force-kept endpoints has a
/// finite `sd(s, ·)`), and the subgraph is induced from the kept list.
fn pre_bfs_core<GF, GR>(
    ctx: &mut PrepareContext,
    g: &GF,
    rev: &GR,
    s: VertexId,
    t: VertexId,
    k: u32,
    start: Instant,
) -> PreparedQuery
where
    GF: GraphView + ?Sized,
    GR: GraphView + ?Sized,
{
    // (k-1)-hop bidirectional BFS.
    let bound = k - 1;
    ctx.forward.run(g, s, bound);
    ctx.backward.run(rev, t, bound);
    ctx.stats.last_touched = ctx.forward.touched_len() + ctx.backward.touched_len();

    // Theorem 1 cut, with s and t force-kept (they are the only valid vertices
    // a k-hop BFS could still add). `induce_subgraph_from_vertices` sorts and
    // deduplicates, so the kept order matches the old full-scan extraction.
    let mut kept: Vec<VertexId> = Vec::with_capacity(ctx.forward.touched_len() + 2);
    kept.push(s);
    kept.push(t);
    for &u in ctx.forward.touched() {
        if u == s || u == t {
            continue;
        }
        let b = ctx.backward.dist(u);
        if b != UNREACHED && ctx.forward.dist(u) + b <= k {
            kept.push(u);
        }
    }
    let mapping = induce_subgraph_from_vertices_with(&mut ctx.remap, g, kept);

    let new_s = mapping.to_new(s).expect("s is force-kept");
    let new_t = mapping.to_new(t).expect("t is force-kept");

    // Barrier in the new id space: sd(u, t) clamped to k + 1. For vertices
    // whose distance was not discovered by the (k-1)-hop reverse BFS the true
    // distance is at least k, which only matters for s (see module docs); the
    // barrier check never reads bar[s], so the clamp is harmless.
    let barrier: Vec<u32> = mapping
        .old_of_new
        .iter()
        .map(|&old| {
            let d = ctx.backward.dist(old);
            if d == UNREACHED || d > k {
                k + 1
            } else {
                d
            }
        })
        .collect();

    // Feasible iff t is reachable from s within k hops: either the BFS saw it
    // directly, or (distance exactly k) both frontiers meet.
    let feasible = ctx.forward.dist(t) != UNREACHED
        || g.successors(s)
            .iter()
            .any(|&v| v == t || (ctx.backward.dist(v) != UNREACHED && ctx.backward.dist(v) < k));

    // The dependency set for incremental invalidation: both frontiers plus
    // the force-kept endpoints, in original ids.
    let mut touched: Vec<VertexId> =
        Vec::with_capacity(ctx.forward.touched_len() + ctx.backward.touched_len() + 2);
    touched.push(s);
    touched.push(t);
    touched.extend_from_slice(ctx.forward.touched());
    touched.extend_from_slice(ctx.backward.touched());
    touched.sort_unstable();
    touched.dedup();

    let host_millis = start.elapsed().as_secs_f64() * 1e3;
    PreparedQuery {
        graph: Arc::clone(&mapping.graph),
        s: new_s,
        t: new_t,
        k,
        barrier,
        feasible,
        touched: TouchedSet::Vertices(touched),
        mapping: Some(mapping),
        host_millis,
        route_features: OnceLock::new(),
    }
}

/// Preprocessing for the PEFP-No-Pre-BFS ablation (Fig. 12) against a
/// reusable [`PrepareContext`]: the device receives the *full* graph (shared,
/// not cloned); only the barrier array is computed (k-hop BFS from `t` on the
/// reverse graph), because the barrier check is part of the core algorithm
/// rather than of the Pre-BFS optimisation.
pub fn no_prebfs_with(
    ctx: &mut PrepareContext,
    g: &Arc<CsrGraph>,
    s: VertexId,
    t: VertexId,
    k: u32,
) -> PreparedQuery {
    let start = Instant::now();
    assert!(s.index() < g.num_vertices(), "source {s} out of range");
    assert!(t.index() < g.num_vertices(), "target {t} out of range");
    ctx.stats.queries += 1;
    if k == 0 || s == t {
        ctx.stats.last_touched = 0;
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        return trivial_prepared(Arc::clone(g), s, t, k, elapsed);
    }
    let rev = ctx.reverse_for(g);
    ctx.backward.run(&rev, t, k);
    ctx.stats.last_touched = ctx.backward.touched_len();

    // The ablation ships a full-length barrier by design; fill the clamp
    // default and overwrite only the reached vertices.
    let mut barrier = vec![k + 1; g.num_vertices()];
    for &v in ctx.backward.touched() {
        barrier[v.index()] = ctx.backward.dist(v);
    }
    let feasible = barrier[s.index()] <= k;
    let host_millis = start.elapsed().as_secs_f64() * 1e3;
    PreparedQuery {
        graph: Arc::clone(g),
        mapping: None,
        s,
        t,
        k,
        barrier,
        feasible,
        touched: TouchedSet::All,
        host_millis,
        route_features: OnceLock::new(),
    }
}

/// One-shot form of [`no_prebfs_with`] with the original borrowed-graph
/// signature; clones `g` once into shared ownership (the ablation ships the
/// full graph, so that copy existed before the context API too).
pub fn no_prebfs_preprocess(g: &CsrGraph, s: VertexId, t: VertexId, k: u32) -> PreparedQuery {
    no_prebfs_with(&mut PrepareContext::new(), &Arc::new(g.clone()), s, t, k)
}

/// Pre-BFS preprocessing against an epoch-versioned [`GraphSnapshot`]: the
/// bidirectional BFS and the induced-subgraph extraction traverse the
/// snapshot's copy-on-write overlay directly (both directions are first-class
/// views), so no full CSR is ever materialised on this path. The produced
/// `G'` is a fresh dense CSR either way, so the device side is oblivious to
/// where the preparation read from.
pub fn pre_bfs_snapshot_with(
    ctx: &mut PrepareContext,
    snapshot: &GraphSnapshot,
    s: VertexId,
    t: VertexId,
    k: u32,
) -> PreparedQuery {
    let start = Instant::now();
    let n = snapshot.num_vertices();
    assert!(s.index() < n, "source {s} out of range");
    assert!(t.index() < n, "target {t} out of range");
    ctx.stats.queries += 1;
    if k == 0 || s == t {
        ctx.stats.last_touched = 0;
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        return trivial_prepared(snapshot.full_csr(), s, t, k, elapsed);
    }
    pre_bfs_core(ctx, &snapshot.forward(), &snapshot.reverse(), s, t, k, start)
}

/// No-Pre-BFS preprocessing against an epoch-versioned [`GraphSnapshot`].
/// The ablation ships the whole graph, so this path materialises the
/// snapshot once via [`GraphSnapshot::full_csr`] (cached per snapshot — the
/// cost is paid once per epoch, not per query); the barrier BFS still runs
/// over the overlay view.
pub fn no_prebfs_snapshot_with(
    ctx: &mut PrepareContext,
    snapshot: &GraphSnapshot,
    s: VertexId,
    t: VertexId,
    k: u32,
) -> PreparedQuery {
    let start = Instant::now();
    let n = snapshot.num_vertices();
    assert!(s.index() < n, "source {s} out of range");
    assert!(t.index() < n, "target {t} out of range");
    ctx.stats.queries += 1;
    if k == 0 || s == t {
        ctx.stats.last_touched = 0;
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        return trivial_prepared(snapshot.full_csr(), s, t, k, elapsed);
    }
    ctx.backward.run(&snapshot.reverse(), t, k);
    ctx.stats.last_touched = ctx.backward.touched_len();
    let mut barrier = vec![k + 1; n];
    for &v in ctx.backward.touched() {
        barrier[v.index()] = ctx.backward.dist(v);
    }
    let feasible = barrier[s.index()] <= k;
    let host_millis = start.elapsed().as_secs_f64() * 1e3;
    PreparedQuery {
        graph: snapshot.full_csr(),
        mapping: None,
        s,
        t,
        k,
        barrier,
        feasible,
        touched: TouchedSet::All,
        host_millis,
        route_features: OnceLock::new(),
    }
}

/// Shared handling of `k == 0` and `s == t`.
fn trivial_prepared(
    graph: Arc<CsrGraph>,
    s: VertexId,
    t: VertexId,
    k: u32,
    host_millis: f64,
) -> PreparedQuery {
    let barrier = vec![k + 1; graph.num_vertices()];
    PreparedQuery {
        graph,
        mapping: None,
        s,
        t,
        k,
        barrier,
        feasible: s == t,
        touched: TouchedSet::All,
        host_millis,
        route_features: OnceLock::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pefp_graph::generators::chung_lu;

    fn sample() -> CsrGraph {
        // The Fig. 3 example in miniature: a short s->t corridor plus a bundle
        // of vertices reachable from s that can never reach t.
        CsrGraph::from_edges(
            10,
            &[
                (0, 1),
                (1, 2),
                (2, 9), // corridor 0 -> 1 -> 2 -> 9 (t)
                (0, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 8), // dead-end tail
            ],
        )
    }

    #[test]
    fn prebfs_removes_vertices_that_cannot_reach_t() {
        let g = sample();
        let prep = pre_bfs(&g, VertexId(0), VertexId(9), 5);
        assert!(prep.feasible);
        // Only the corridor 0,1,2,9 can satisfy sds + sdt <= 5.
        assert_eq!(prep.graph.num_vertices(), 4);
        let mapping = prep.mapping.as_ref().unwrap();
        for dead in 3..=8u32 {
            assert_eq!(mapping.to_new(VertexId(dead)), None);
        }
    }

    #[test]
    fn barrier_equals_distance_to_t_in_new_ids() {
        let g = sample();
        let prep = pre_bfs(&g, VertexId(0), VertexId(9), 5);
        let mapping = prep.mapping.as_ref().unwrap();
        let new2 = mapping.to_new(VertexId(2)).unwrap();
        assert_eq!(prep.barrier[new2.index()], 1);
        assert_eq!(prep.barrier[prep.t.index()], 0);
    }

    #[test]
    fn exact_distance_k_keeps_the_endpoints() {
        // Chain of length 4; k = 4 means sd(s, t) == k exactly.
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let prep = pre_bfs(&g, VertexId(0), VertexId(4), 4);
        assert!(prep.feasible);
        assert_eq!(prep.graph.num_vertices(), 5);
        // s itself is outside the (k-1)-hop reverse frontier, so its barrier is
        // clamped to k + 1; that slot is never read by the barrier check.
        assert_eq!(prep.barrier[prep.s.index()], 5);
    }

    #[test]
    fn infeasible_query_is_detected() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (2, 3)]);
        let prep = pre_bfs(&g, VertexId(0), VertexId(3), 6);
        assert!(!prep.feasible);
    }

    #[test]
    fn no_prebfs_keeps_the_whole_graph() {
        let g = sample();
        let prep = no_prebfs_preprocess(&g, VertexId(0), VertexId(9), 5);
        assert_eq!(prep.graph.num_vertices(), g.num_vertices());
        assert!(prep.mapping.is_none());
        assert_eq!(prep.barrier[9], 0);
        assert_eq!(prep.barrier[2], 1);
        assert_eq!(prep.barrier[8], 6); // cannot reach t -> clamped to k + 1
    }

    #[test]
    fn prebfs_subgraph_is_never_larger_than_no_prebfs() {
        let g = chung_lu(300, 6.0, 2.2, 5).to_csr();
        for &(s, t, k) in &[(0u32, 100u32, 4u32), (5, 200, 5), (10, 20, 3)] {
            let a = pre_bfs(&g, VertexId(s), VertexId(t), k);
            let b = no_prebfs_preprocess(&g, VertexId(s), VertexId(t), k);
            assert!(a.graph.num_vertices() <= b.graph.num_vertices());
            assert!(a.graph.num_edges() <= b.graph.num_edges());
        }
    }

    #[test]
    fn trivial_queries_short_circuit() {
        let g = sample();
        let same = pre_bfs(&g, VertexId(3), VertexId(3), 4);
        assert!(same.feasible);
        let zero = pre_bfs(&g, VertexId(0), VertexId(9), 0);
        assert!(!zero.feasible);
    }

    #[test]
    fn transfer_bytes_counts_graph_and_barrier() {
        let g = sample();
        let prep = pre_bfs(&g, VertexId(0), VertexId(9), 5);
        let expected = prep.graph.byte_size() + prep.barrier.len() * 4 + 16;
        assert_eq!(prep.transfer_bytes(), expected);
    }

    #[test]
    fn translate_path_maps_back_to_original_ids() {
        let g = sample();
        let prep = pre_bfs(&g, VertexId(0), VertexId(9), 5);
        let m = prep.mapping.as_ref().unwrap();
        let device_path: Vec<VertexId> =
            [0u32, 1, 2, 9].iter().map(|&v| m.to_new(VertexId(v)).unwrap()).collect();
        assert_eq!(
            prep.translate_path(&device_path),
            vec![VertexId(0), VertexId(1), VertexId(2), VertexId(9)]
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_source_panics() {
        let g = sample();
        pre_bfs(&g, VertexId(99), VertexId(9), 5);
    }

    #[test]
    fn reused_context_matches_one_shot_across_queries() {
        let g = Arc::new(chung_lu(400, 6.0, 2.2, 7).to_csr());
        let mut ctx = PrepareContext::new();
        for &(s, t, k) in
            &[(0u32, 200u32, 4u32), (3, 17, 5), (250, 9, 3), (0, 200, 4), (5, 5, 4), (1, 2, 0)]
        {
            let with_ctx = pre_bfs_with(&mut ctx, &g, VertexId(s), VertexId(t), k);
            let one_shot = pre_bfs(&g, VertexId(s), VertexId(t), k);
            assert_eq!(with_ctx.graph, one_shot.graph, "query ({s},{t},{k})");
            assert_eq!(with_ctx.barrier, one_shot.barrier);
            assert_eq!(with_ctx.feasible, one_shot.feasible);
            assert_eq!((with_ctx.s, with_ctx.t, with_ctx.k), (one_shot.s, one_shot.t, one_shot.k));
        }
        assert_eq!(ctx.stats().queries, 6);
        assert_eq!(ctx.stats().reverse_builds, 1, "reverse CSR must be built once, not per query");
    }

    #[test]
    fn context_reuses_an_installed_reverse() {
        let g = Arc::new(sample());
        let rev = Arc::new(g.reverse());
        let mut ctx = PrepareContext::with_reverse(&g, rev);
        for _ in 0..3 {
            let prep = pre_bfs_with(&mut ctx, &g, VertexId(0), VertexId(9), 5);
            assert!(prep.feasible);
        }
        assert_eq!(ctx.stats().reverse_builds, 0, "installed reverse must be reused");
    }

    #[test]
    fn context_rebuilds_reverse_when_the_graph_changes() {
        let a = Arc::new(sample());
        let b = Arc::new(CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]));
        let mut ctx = PrepareContext::new();
        pre_bfs_with(&mut ctx, &a, VertexId(0), VertexId(9), 5);
        pre_bfs_with(&mut ctx, &b, VertexId(0), VertexId(3), 4);
        pre_bfs_with(&mut ctx, &b, VertexId(1), VertexId(3), 4);
        assert_eq!(ctx.stats().reverse_builds, 2, "one build per distinct graph");
    }

    #[test]
    fn shared_paths_do_not_clone_the_data_graph() {
        let g = Arc::new(chung_lu(500, 5.0, 2.2, 11).to_csr());
        let mut ctx = PrepareContext::new();
        // No-Pre-BFS ships the full graph: it must be the same allocation.
        let no_prebfs = no_prebfs_with(&mut ctx, &g, VertexId(0), VertexId(250), 4);
        assert!(Arc::ptr_eq(&no_prebfs.graph, &g));
        // Trivial queries share the data graph too.
        let trivial = pre_bfs_with(&mut ctx, &g, VertexId(7), VertexId(7), 4);
        assert!(Arc::ptr_eq(&trivial.graph, &g));
        // Pre-BFS stores G' exactly once: the query and its mapping share it.
        let full = pre_bfs_with(&mut ctx, &g, VertexId(0), VertexId(250), 4);
        let mapping = full.mapping.as_ref().unwrap();
        assert!(Arc::ptr_eq(&full.graph, &mapping.graph));
    }
}
