//! Path verification (Algorithm 2) and its pipeline cost model.
//!
//! Each expansion `(p, u)` passes through three checks:
//!
//! 1. **target check** — `u == t` means `p · u` is a result path;
//! 2. **barrier check** — `len(p) + 1 + bar[u] > k` means the hop budget can
//!    no longer be met through `u`;
//! 3. **visited check** — `u ∈ p` would create a cycle.
//!
//! On the device the three checks form the validity-check module. In the
//! *basic* design (Fig. 6) they execute back to back, so one input occupies
//! the module for the full three-stage latency before the next can enter. The
//! *data-separation* design (Fig. 7) feeds each stage its own copy of the
//! input so the stages run concurrently under the HLS dataflow optimisation,
//! and a merge stage ANDs the verdicts; inputs then enter every cycle.
//!
//! The host skips the barrier stage's rejects wholesale through a
//! [`SurvivorMemo`]; the device model still streams every expansion.

use crate::options::VerificationPipeline;
use crate::path::PathRow;
use pefp_fpga::Device;
use pefp_graph::{CsrGraph, VertexId};
use std::ops::Range;

/// Outcome of verifying one expansion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The successor is the target: emit `p · u` as a result (and stop
    /// extending it — results are never re-expanded).
    Result,
    /// The successor passed all three checks: `p · u` becomes a new
    /// intermediate path.
    Valid,
    /// Rejected by the barrier check.
    PrunedBarrier,
    /// Rejected by the visited check.
    PrunedVisited,
}

/// Functional verification of one expansion (Algorithm 2).
#[inline]
pub fn verify<const N: usize>(
    path: &PathRow<N>,
    successor: VertexId,
    t: VertexId,
    k: u32,
    barrier: u32,
) -> Verdict {
    let new_hops = path.hops() + 1;
    // Target check. Intermediate paths always satisfy len(p) <= k - 1 (see the
    // paper's correctness argument), so `new_hops <= k` holds whenever the
    // engine is driven normally; the explicit guard keeps the function total.
    if successor == t {
        if new_hops <= k {
            return Verdict::Result;
        }
        return Verdict::PrunedBarrier;
    }
    // Barrier check.
    if new_hops + barrier > k {
        return Verdict::PrunedBarrier;
    }
    // Visited check (constant-bound loop, unrolled on the device).
    if path.contains(successor) {
        return Verdict::PrunedVisited;
    }
    Verdict::Valid
}

/// Marks a [`SurvivorMemo`] slot that has not been built yet.
const UNBUILT: usize = usize::MAX;

/// Per-run memo of the successors that pass the barrier check.
///
/// A successor `v` of a path with `h` hops passes the barrier check iff
/// `v == t` (while `h + 1 ≤ k`) or `bar[v] ≤ slack` with `slack = k − h − 1`
/// — see [`verify`]. The survivors of a CSR row therefore depend only on the
/// row's vertex and the slack: each list is built, in CSR order, the first
/// time a path asks for that (vertex, slack) pair, and a batch window (a
/// whole row, or part of one after a Θ2 split) takes its sub-slice by binary
/// search.
///
/// Memory is one index slot per vertex plus, for each vertex the run
/// expands, `k` list slots and its survivors; there is no eager `|V|·k`
/// table, because the NoPreBfs ablation runs the engine on the whole data
/// graph.
#[derive(Debug)]
pub(crate) struct SurvivorMemo {
    /// The target, which survives whenever the hop budget allows one more hop.
    t: VertexId,
    /// Hop constraint `k`: slacks range over `0..k`.
    k: u32,
    /// Per vertex: offset of its `k` slots in `lists`, or [`UNBUILT`].
    slots: Vec<usize>,
    /// Per (vertex, slack): the range of `edges` holding that row's
    /// survivors, starting at [`UNBUILT`] until built.
    lists: Vec<Range<usize>>,
    /// Survivor edge indices, list after list, each list in CSR order.
    edges: Vec<u32>,
}

impl Default for SurvivorMemo {
    /// A memo for a graph without vertices.
    fn default() -> Self {
        SurvivorMemo::new(0, VertexId::INVALID, 0)
    }
}

impl SurvivorMemo {
    /// An empty memo for a query `(t, k)` on a graph of `num_vertices`.
    pub(crate) fn new(num_vertices: usize, t: VertexId, k: u32) -> Self {
        let slots = vec![UNBUILT; num_vertices];
        SurvivorMemo { t, k, slots, lists: Vec::new(), edges: Vec::new() }
    }

    /// The edge indices in `window` — a sub-range of `u`'s CSR row — whose
    /// targets pass the barrier check when extending a path of `hops` hops
    /// that ends at `u`, in CSR order.
    pub(crate) fn window(
        &mut self,
        g: &CsrGraph,
        barrier: &[u32],
        u: VertexId,
        hops: u32,
        window: Range<u32>,
    ) -> &[u32] {
        // A path already at the hop budget extends to nothing, not even t.
        let Some(slack) = self.k.checked_sub(hops + 1) else { return &[] };
        let row = g.neighbor_range(u);
        let list = self.list(g, barrier, u, slack, row.clone());
        let survivors = &self.edges[list];
        if window == row {
            return survivors;
        }
        let lo = survivors.partition_point(|&e| e < window.start);
        let hi = lo + survivors[lo..].partition_point(|&e| e < window.end);
        &survivors[lo..hi]
    }

    /// The survivor list of `u`'s row at `slack`, built on first use.
    fn list(
        &mut self,
        g: &CsrGraph,
        barrier: &[u32],
        u: VertexId,
        slack: u32,
        row: Range<u32>,
    ) -> Range<usize> {
        if self.slots[u.index()] == UNBUILT {
            self.slots[u.index()] = self.lists.len();
            self.lists.resize(self.lists.len() + self.k as usize, UNBUILT..UNBUILT);
        }
        let slot = self.slots[u.index()] + slack as usize;
        if self.lists[slot].start == UNBUILT {
            let start = self.edges.len();
            for e in row {
                let v = g.edge_target(e);
                if v == self.t || barrier[v.index()] <= slack {
                    self.edges.push(e);
                }
            }
            self.lists[slot] = start..self.edges.len();
        }
        self.lists[slot].clone()
    }
}

/// Charges the verification module's schedule for `lane_iterations` inputs per
/// lane (the engine divides the batch across the replicated validity-check
/// modules before calling this).
pub fn charge_verification(
    device: &mut Device,
    pipeline: VerificationPipeline,
    lane_iterations: u64,
) {
    charge_expansion_schedule(device, pipeline, lane_iterations, 1);
}

/// Charges the complete per-batch expansion + verification schedule.
///
/// The batch streams `lane_iterations` inputs through each replicated lane.
/// The pipeline's initiation interval is determined by two bottlenecks:
///
/// * the verification module — 1 cycle with data separation (Fig. 7), the full
///   three-stage depth without it (Fig. 6), and
/// * memory — 1 cycle when the graph and barrier are served from BRAM, the
///   DRAM read latency when a lookup has to go off-chip (`memory_stall_ii`),
///   which is exactly why the caching techniques matter (Fig. 14).
///
/// The pipeline depth (fill latency) is the expansion stage plus the deeper of
/// the two verification schedules; it is paid once per batch.
pub fn charge_expansion_schedule(
    device: &mut Device,
    pipeline: VerificationPipeline,
    lane_iterations: u64,
    memory_stall_ii: u64,
) {
    let cfg = device.config();
    let verify_ii = match pipeline {
        VerificationPipeline::Basic => cfg.basic_verify_depth,
        VerificationPipeline::Dataflow => 1,
    };
    let ii = verify_ii.max(memory_stall_ii).max(1);
    // Expansion stage (successor fetch + input assembly) is ~2 cycles deep,
    // followed by the verification module and the merge stage.
    let depth = 2 + cfg.basic_verify_depth.max(cfg.dataflow_verify_depth + cfg.merge_depth);
    device.charge_cycles(pefp_fpga::pipeline_cycles(lane_iterations, depth, ii));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::TempPath;
    use pefp_fpga::DeviceConfig;

    fn path_0_1(g: &CsrGraph) -> TempPath {
        TempPath::initial(g, VertexId(0)).extended(g, VertexId(1))
    }

    #[test]
    fn target_check_wins_over_everything() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let p = path_0_1(&g);
        assert_eq!(verify(&p, VertexId(3), VertexId(3), 5, 0), Verdict::Result);
    }

    #[test]
    fn barrier_check_prunes_budget_violations() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let p = path_0_1(&g); // 1 hop used
                              // Needs 2 more hops after the expansion, but only 3 total allowed: 1+1+2 > 3.
        assert_eq!(verify(&p, VertexId(2), VertexId(9), 3, 2), Verdict::PrunedBarrier);
        // With k = 4 the same expansion survives.
        assert_eq!(verify(&p, VertexId(2), VertexId(9), 4, 2), Verdict::Valid);
    }

    #[test]
    fn visited_check_prevents_cycles() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 0), (1, 2)]);
        let p = path_0_1(&g);
        assert_eq!(verify(&p, VertexId(0), VertexId(3), 5, 0), Verdict::PrunedVisited);
    }

    #[test]
    fn check_order_matches_the_paper() {
        // A successor that is simultaneously the target and already on the
        // path cannot occur (t is never pushed), but a successor that fails
        // both barrier and visited must be attributed to the barrier stage,
        // because that stage is evaluated first.
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 0)]);
        let p = path_0_1(&g);
        assert_eq!(verify(&p, VertexId(0), VertexId(2), 1, 5), Verdict::PrunedBarrier);
    }

    #[test]
    fn overlong_target_hit_is_not_emitted() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let p = path_0_1(&g);
        assert_eq!(verify(&p, VertexId(2), VertexId(2), 1, 0), Verdict::PrunedBarrier);
    }

    /// The barrier stage of Algorithm 2 applied to every edge of `window`.
    fn brute_force_survivors(
        g: &CsrGraph,
        barrier: &[u32],
        t: VertexId,
        k: u32,
        hops: u32,
        window: Range<u32>,
    ) -> Vec<u32> {
        let new_hops = hops + 1;
        window
            .filter(|&e| {
                let v = g.edge_target(e);
                if v == t {
                    new_hops <= k
                } else {
                    new_hops + barrier[v.index()] <= k
                }
            })
            .collect()
    }

    #[test]
    fn survivor_windows_match_a_brute_force_barrier_filter() {
        let mut checked_windows = 0u32;
        for seed in 0..6u64 {
            let g = pefp_graph::generators::chung_lu(60, 4.0, 2.1, seed).to_csr();
            let t = VertexId::from_index(seed as usize * 7 % 60);
            for k in [1u32, 3, 7] {
                // Arbitrary barriers in 0..=k+1, including bar[t] != 0: the
                // memo must follow `verify` for any barrier array.
                let barrier: Vec<u32> = (0..60u64)
                    .map(|v| {
                        let h = (v + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (seed << 32);
                        ((h >> 29) % u64::from(k + 2)) as u32
                    })
                    .collect();
                let mut memo = SurvivorMemo::new(g.num_vertices(), t, k);
                // Visit rows in a scrambled order so lists are built lazily
                // in between reads of already-built ones.
                for step in 0..g.num_vertices() * 3 {
                    let u = VertexId::from_index(step * 37 % g.num_vertices());
                    let hops = (step as u32 * 5) % (k + 1);
                    let row = g.neighbor_range(u);
                    let mut windows = vec![row.clone(), row.start..row.start, row.end..row.end];
                    if !row.is_empty() {
                        windows.push(row.start..row.start + 1);
                    }
                    // Θ2 splits: consecutive windows of `quota` edges.
                    for quota in 1..=8u32 {
                        let mut start = row.start;
                        while start < row.end {
                            let end = (start + quota).min(row.end);
                            windows.push(start..end);
                            start = end;
                        }
                    }
                    for w in windows {
                        let got = memo.window(&g, &barrier, u, hops, w.clone()).to_vec();
                        let want = brute_force_survivors(&g, &barrier, t, k, hops, w.clone());
                        assert_eq!(got, want, "seed {seed} k {k} u {u} hops {hops} window {w:?}");
                        checked_windows += 1;
                    }
                }
            }
        }
        assert!(checked_windows > 10_000, "only {checked_windows} windows checked");
    }

    #[test]
    fn dataflow_schedule_is_cheaper_than_basic() {
        let mut basic = Device::new(DeviceConfig::alveo_u200());
        charge_verification(&mut basic, VerificationPipeline::Basic, 10_000);
        let mut dataflow = Device::new(DeviceConfig::alveo_u200());
        charge_verification(&mut dataflow, VerificationPipeline::Dataflow, 10_000);
        assert!(dataflow.cycles() < basic.cycles());
        // With depth 3 vs II 1 the gap approaches 3x for large batches.
        let ratio = basic.cycles() as f64 / dataflow.cycles() as f64;
        assert!(ratio > 2.0 && ratio < 3.5, "ratio {ratio}");
    }

    #[test]
    fn zero_inputs_cost_nothing() {
        let mut d = Device::new(DeviceConfig::alveo_u200());
        charge_verification(&mut d, VerificationPipeline::Basic, 0);
        charge_verification(&mut d, VerificationPipeline::Dataflow, 0);
        assert_eq!(d.cycles(), 0);
    }
}
