//! The router's memoised features never outlive their prepared query.
//!
//! `PreparedQuery::route_features` memoises the feature vector on the
//! preparation, and the runtime's prepared cache shares that preparation
//! between admission, the worker and `EXPLAIN`. An update that touches the
//! query's Pre-BFS frontier evicts the entry, memo included: `EXPLAIN` on the
//! new epoch must report the features of a fresh preparation of the new
//! snapshot, not the ones cached before the update.

use pefp_core::{pre_bfs, prepare_snapshot_with, PrepareContext, RouteFeatures, RoutingTable};
use pefp_graph::generators::chung_lu;
use pefp_graph::{GraphDelta, VertexId};
use pefp_host::{GraphHandle, HostRuntime, QueryRequest, RuntimeConfig};

/// Features of `request` prepared from scratch on the runtime's current
/// snapshot.
fn fresh_features(runtime: &HostRuntime, request: QueryRequest) -> RouteFeatures {
    let prepared = prepare_snapshot_with(
        &mut PrepareContext::new(),
        &runtime.current_snapshot(),
        request.s,
        request.t,
        request.k,
        runtime.config().variant,
    );
    RouteFeatures::compute(&prepared)
}

#[test]
fn explain_reports_the_new_epochs_features_after_a_frontier_update() {
    let g = chung_lu(400, 5.0, 2.2, 17).to_csr();
    // The first hub target the hub source reaches within k but not directly,
    // so inserting s -> t adds an edge to G'.
    let (s, k) = (0u32, 4u32);
    let t = (1..400u32)
        .find(|&t| {
            !g.successors(VertexId(s)).contains(&VertexId(t))
                && pre_bfs(&g, VertexId(s), VertexId(t), k).feasible
        })
        .expect("a feasible non-adjacent target");
    let config = RuntimeConfig {
        compute_units: 2,
        routing: Some(RoutingTable::builtin()),
        cpu_workers: 2,
        ..RuntimeConfig::default()
    };
    let runtime = HostRuntime::launch(GraphHandle::from_csr("cl", g), config);
    let session = runtime.register_session();
    let request = QueryRequest::new(s, t, k);

    // Warm the cache: the miss routes (filling the memo) and caches the entry;
    // the second submission is a hit routed at admission and on the worker.
    for _ in 0..2 {
        runtime.submit_query(session, request, false).unwrap().wait().unwrap();
    }
    assert_eq!(runtime.stats().cache_hits, 1);
    let old = runtime.explain(request).unwrap().features;
    assert!(old.feasible && old.estimate.max_results > 0);
    assert_eq!(old, fresh_features(&runtime, request));

    // s -> t touches both Pre-BFS frontiers (s is force-kept), so the entry
    // and its memo are evicted.
    let mut delta = GraphDelta::new();
    delta.insert_edge(VertexId(s), VertexId(t));
    assert_eq!(runtime.apply_updates(&delta), 1);
    assert!(runtime.stats().cache_invalidated >= 1);

    let new = runtime.explain(request).unwrap().features;
    assert_eq!(new, fresh_features(&runtime, request));
    // An insert only shortens distances, so the old G' survives inside the
    // new one, which also holds the edge s -> t.
    assert!(new.edges > old.edges, "the new edge grows G'");
    assert_ne!(new, old);

    // The re-prepared entry is cached again with the new memo: a hit on the
    // new epoch routes from it and EXPLAIN still agrees.
    let hits_before = runtime.stats().cache_hits;
    runtime.submit_query(session, request, false).unwrap().wait().unwrap();
    assert_eq!(runtime.stats().cache_hits, hits_before + 1);
    assert_eq!(runtime.explain(request).unwrap().features, new);
}
