//! Fixed-width intermediate path storage.
//!
//! On the FPGA an intermediate path occupies a fixed-width row of BRAM (the
//! hop constraint bounds the number of vertices), together with the *neighbour
//! pointers* that Batch-DFS uses to split a high-degree vertex's expansion
//! across several batches (Algorithm 4 of the paper). [`PathRow`] mirrors
//! that layout: an inline vertex array plus a cursor window into the CSR edge
//! array, with no heap allocation in the hot loop.
//!
//! The host row is generic over its vertex capacity `N`: [`TempPath`] is the
//! full-width row for any path of up to [`MAX_K`] hops, and queries with
//! `k ≤ 15` run on 16-slot rows of about half the size. The modelled BRAM row
//! ([`crate::engine::memory::PATH_ROW_BYTES`]) does not depend on `N`.

use pefp_graph::{CsrGraph, VertexId};

/// Maximum supported hop constraint.
///
/// The paper evaluates `k ≤ 13`; 30 leaves generous headroom while keeping a
/// path row at 128 bytes of vertex payload (the fixed BRAM row width).
pub const MAX_K: usize = 30;

/// Row width of the narrow host path row: 16 vertices hold every path of a
/// query with `k ≤ 15`, which covers the paper's `k ≤ 13`.
pub(crate) const NARROW_ROW: usize = 16;

/// A partial path of at most `N` vertices held in the buffer/processing area
/// or spilled to DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathRow<const N: usize> {
    /// Number of vertices currently on the path (`1..=N`).
    len: u8,
    /// Inline vertex storage; slots `len..` are unspecified.
    vertices: [VertexId; N],
    /// Next unconsumed successor of the last vertex, as an index into the CSR
    /// edge array ("end neighbour pointer" in Algorithm 4).
    nbr_next: u32,
    /// End of the successor window this copy is allowed to expand
    /// ("last neighbour pointer" for buffer-resident paths, the batch window
    /// end for processing-area copies).
    nbr_end: u32,
}

/// The full-width path row: holds any path of up to [`MAX_K`] hops.
pub type TempPath = PathRow<{ MAX_K + 1 }>;

impl<const N: usize> PathRow<N> {
    /// Creates the initial single-vertex path `{s}` with the full successor
    /// range of `s`.
    pub fn initial(g: &CsrGraph, s: VertexId) -> Self {
        let range = g.neighbor_range(s);
        let mut vertices = [VertexId::INVALID; N];
        vertices[0] = s;
        PathRow { len: 1, vertices, nbr_next: range.start, nbr_end: range.end }
    }

    /// Extends this path with successor `v`, giving the new path the full
    /// successor range of `v`.
    ///
    /// # Panics
    ///
    /// Panics if the path already holds `N` vertices.
    pub fn extended(&self, g: &CsrGraph, v: VertexId) -> Self {
        assert!((self.len as usize) < N, "path exceeds its row capacity of {} hops", N - 1);
        let mut next = *self;
        next.vertices[next.len as usize] = v;
        next.len += 1;
        let range = g.neighbor_range(v);
        next.nbr_next = range.start;
        next.nbr_end = range.end;
        next
    }

    /// Number of vertices on the path.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.len as usize
    }

    /// Number of hops (`len(p)` in the paper's notation).
    #[inline]
    pub fn hops(&self) -> u32 {
        (self.len - 1) as u32
    }

    /// The last vertex of the path.
    #[inline]
    pub fn last(&self) -> VertexId {
        self.vertices[(self.len - 1) as usize]
    }

    /// The vertex sequence of the path.
    #[inline]
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertices[..self.len as usize]
    }

    /// Whether `v` already appears on the path (the *visited check*). The loop
    /// has a constant bound (`N`), which is what allows the FPGA
    /// design to unroll it into parallel comparators.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.vertices().contains(&v)
    }

    /// Materialises the path as an owned `Vec` (for result emission).
    pub fn to_vec(&self) -> Vec<VertexId> {
        self.vertices().to_vec()
    }

    /// Current successor-window start (CSR edge index).
    #[inline]
    pub fn window_start(&self) -> u32 {
        self.nbr_next
    }

    /// Current successor-window end (CSR edge index, exclusive).
    #[inline]
    pub fn window_end(&self) -> u32 {
        self.nbr_end
    }

    /// Number of successors still assigned to this copy.
    #[inline]
    pub fn window_len(&self) -> u32 {
        self.nbr_end - self.nbr_next
    }

    /// Whether every successor of the last vertex has been handed out.
    #[inline]
    pub fn window_exhausted(&self) -> bool {
        self.nbr_next >= self.nbr_end
    }

    /// Splits off a window of at most `quota` successors for the processing
    /// area and advances this path's cursor past it (Algorithm 4, lines 5–12).
    ///
    /// Returns the processing-area copy, or `None` when the window is empty.
    pub fn take_window(&mut self, quota: u32) -> Option<Self> {
        if self.window_exhausted() || quota == 0 {
            return None;
        }
        let take = quota.min(self.window_len());
        let mut batch_copy = *self;
        batch_copy.nbr_end = self.nbr_next + take;
        self.nbr_next += take;
        Some(batch_copy)
    }

    /// Size of this path in 32-bit words as stored on the device: the vertex
    /// payload, a length word and the two neighbour pointers.
    pub fn words(&self) -> u64 {
        self.len as u64 + 3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pefp_graph::CsrGraph;

    fn graph() -> CsrGraph {
        CsrGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (1, 4), (2, 4)])
    }

    #[test]
    fn initial_path_has_the_full_window_of_s() {
        let g = graph();
        let p = TempPath::initial(&g, VertexId(0));
        assert_eq!(p.num_vertices(), 1);
        assert_eq!(p.hops(), 0);
        assert_eq!(p.last(), VertexId(0));
        assert_eq!(p.window_len(), 3);
        assert_eq!(p.vertices(), &[VertexId(0)]);
    }

    #[test]
    fn extension_appends_and_switches_the_window() {
        let g = graph();
        let p = TempPath::initial(&g, VertexId(0));
        let q = p.extended(&g, VertexId(1));
        assert_eq!(q.hops(), 1);
        assert_eq!(q.last(), VertexId(1));
        assert_eq!(q.vertices(), &[VertexId(0), VertexId(1)]);
        assert_eq!(q.window_len(), 1); // vertex 1 has a single successor
                                       // The original is unchanged (value semantics).
        assert_eq!(p.window_len(), 3);
    }

    #[test]
    fn contains_checks_the_whole_prefix() {
        let g = graph();
        let p = TempPath::initial(&g, VertexId(0)).extended(&g, VertexId(2));
        assert!(p.contains(VertexId(0)));
        assert!(p.contains(VertexId(2)));
        assert!(!p.contains(VertexId(4)));
    }

    #[test]
    fn take_window_splits_a_super_node() {
        let g = graph();
        let mut p = TempPath::initial(&g, VertexId(0));
        let first = p.take_window(2).expect("window available");
        assert_eq!(first.window_len(), 2);
        assert_eq!(p.window_len(), 1);
        let second = p.take_window(2).expect("remainder available");
        assert_eq!(second.window_len(), 1);
        assert!(p.window_exhausted());
        assert!(p.take_window(2).is_none());
        // Together the two windows cover the original range without overlap.
        assert_eq!(first.window_end(), second.window_start());
    }

    #[test]
    fn zero_quota_takes_nothing() {
        let g = graph();
        let mut p = TempPath::initial(&g, VertexId(0));
        assert!(p.take_window(0).is_none());
        assert_eq!(p.window_len(), 3);
    }

    #[test]
    fn words_accounts_for_payload_and_pointers() {
        let g = graph();
        let p = TempPath::initial(&g, VertexId(0));
        assert_eq!(p.words(), 4);
        assert_eq!(p.extended(&g, VertexId(1)).words(), 5);
    }

    #[test]
    fn to_vec_round_trips() {
        let g = graph();
        let p =
            TempPath::initial(&g, VertexId(0)).extended(&g, VertexId(1)).extended(&g, VertexId(4));
        assert_eq!(p.to_vec(), vec![VertexId(0), VertexId(1), VertexId(4)]);
    }

    /// A chain path `0 → 1 → … → vertices - 1` built in a `PathRow<N>`.
    fn chain_path<const N: usize>(vertices: u32) -> PathRow<N> {
        let edges: Vec<(u32, u32)> = (0..vertices - 1).map(|i| (i, i + 1)).collect();
        let g = CsrGraph::from_edges(vertices as usize, &edges);
        let mut p = PathRow::<N>::initial(&g, VertexId(0));
        for i in 1..vertices {
            p = p.extended(&g, VertexId(i));
        }
        p
    }

    #[test]
    #[should_panic(expected = "exceeds its row capacity of 30 hops")]
    fn overlong_paths_are_rejected() {
        // The narrow row holds exactly 15 hops and refuses the 16th.
        assert_eq!(chain_path::<NARROW_ROW>(16).hops(), 15);
        let narrow = std::panic::catch_unwind(|| chain_path::<NARROW_ROW>(17));
        let message = narrow.expect_err("a 16-slot row must refuse a 17th vertex");
        let message = message.downcast_ref::<String>().expect("formatted panic message");
        assert!(message.contains("row capacity of 15 hops"), "{message}");
        // The full-width row holds MAX_K hops and refuses one more.
        assert_eq!(chain_path::<{ MAX_K + 1 }>(MAX_K as u32 + 1).hops(), MAX_K as u32);
        chain_path::<{ MAX_K + 1 }>(MAX_K as u32 + 2);
    }
}
