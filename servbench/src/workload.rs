//! The three workloads: their seeded inputs and the oracle their answers are
//! checked against.

use pefp_graph::CsrGraph;
use pefp_streaming::{Transaction, TransactionGenerator, TransactionGeneratorConfig};

/// Hop budget of a fraud check: a cycle of at most 6 hops closes through the
/// new edge plus an existing path of at most 5 (`RuntimeCycleDetector`'s
/// default `max_cycle_hops` of 6, minus the new edge).
pub const FRAUD_K: u32 = 5;

/// Share of transactions that start an injected fraud ring.
const FRAUD_RING_PROBABILITY: f64 = 0.05;

/// Accounts per injected fraud ring.
const FRAUD_RING_SIZE: u32 = 4;

/// The workloads, each loading a different layer of the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 16 hub pairs at k=3, warm cache, CPU-routed: front door, wire codec
    /// and runtime dispatch are nearly all of the time.
    HotHits,
    /// Every ordered pair of the 8 heaviest hubs at k=6 and k=7: router,
    /// device simulation and CPU lanes on the critical path.
    HubHeavy,
    /// A seeded transaction stream: COUNT on the pre-insert epoch, then an
    /// UPDATE inserting the edge — Pre-BFS on the overlay, `apply_updates`
    /// and cache invalidation.
    FraudUpdates,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [Workload::HotHits, Workload::HubHeavy, Workload::FraudUpdates];

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The name the benchmark and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotHits => "hot_hits",
            Workload::HubHeavy => "hub_heavy",
            Workload::FraudUpdates => "fraud_updates",
        }
    }

    /// Requests per episode. A run is a sequence of episodes, each on a
    /// freshly set-up stack, and each end-to-end metric is averaged over
    /// episodes: a new stack's threads land on the cores afresh, so a run
    /// samples many thread placements rather than one, and a burst of
    /// interference from other tenants of the machine moves one episode
    /// rather than the result. Each episode does the same work however fast
    /// the stack is — whole cycles of a static pool, or the same prefix of
    /// the update stream from the same graph — and holds at least 1000
    /// samples, so its p99 has at least 10 beyond it.
    pub fn episode_len(self) -> usize {
        match self {
            Workload::HotHits => 250 * 16,
            Workload::HubHeavy => 10 * 112,
            Workload::FraudUpdates => 1000,
        }
    }

    /// The fixed `(s, t, k)` pool a static workload cycles through, in a
    /// seeded order (empty for the update stream).
    pub fn pool(self, seed: u64) -> Vec<(u32, u32, u32)> {
        let mut pool = match self {
            Workload::HotHits => pefp_bench::gate::tcp_load_pool(),
            Workload::HubHeavy => {
                let mut pool = Vec::new();
                for k in [6, 7] {
                    for s in 0..8u32 {
                        for t in (0..8u32).filter(|&t| t != s) {
                            pool.push((s, t, k));
                        }
                    }
                }
                pool
            }
            Workload::FraudUpdates => Vec::new(),
        };
        shuffle(&mut pool, seed);
        pool
    }

    /// The seeded transaction stream of [`Workload::FraudUpdates`] over the
    /// accounts `0..accounts` (the gate graph's vertices), `len` long, with
    /// each transaction's COUNT answer: `oracle` replays the stream one
    /// epoch at a time (and ends holding every inserted edge).
    pub fn transactions(
        seed: u64,
        accounts: u32,
        len: usize,
        oracle: &mut Oracle,
    ) -> (Vec<Transaction>, Vec<u64>) {
        let txs = TransactionGenerator::new(TransactionGeneratorConfig {
            num_accounts: accounts,
            fraud_probability: FRAUD_RING_PROBABILITY,
            ring_size: FRAUD_RING_SIZE,
            seed,
        })
        .stream(len);
        let answers = txs
            .iter()
            .map(|tx| {
                let (s, t, k) = fraud_count(tx);
                let answer = oracle.count(s, t, k);
                oracle.insert(tx.from, tx.to);
                answer
            })
            .collect();
        (txs, answers)
    }
}

/// The COUNT a fraud transaction asks before its edge is inserted: paths
/// from the payee back to the payer that the new edge would close into a
/// cycle.
pub fn fraud_count(tx: &Transaction) -> (u32, u32, u32) {
    (tx.to, tx.from, FRAUD_K)
}

/// SplitMix64: a seeded generator for input orderings.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fisher–Yates shuffle driven by `seed`.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Reference path counter over its own mutable adjacency lists. It shares
/// no code with the serving stack: a depth-bounded DFS from `s`, pruned by
/// the exact hop distance to `t`.
pub struct Oracle {
    forward: Vec<Vec<u32>>,
    reverse: Vec<Vec<u32>>,
    dist: Vec<u32>,
    visited: Vec<bool>,
    frontier: Vec<u32>,
    reached: Vec<u32>,
}

impl Oracle {
    /// Copies `g`'s adjacency.
    pub fn new(g: &CsrGraph) -> Oracle {
        let n = g.num_vertices();
        let mut forward = vec![Vec::new(); n];
        let mut reverse = vec![Vec::new(); n];
        for (u, row) in forward.iter_mut().enumerate() {
            for &v in g.successors(pefp_graph::VertexId(u as u32)) {
                row.push(v.0);
                reverse[v.index()].push(u as u32);
            }
        }
        Oracle {
            forward,
            reverse,
            dist: vec![u32::MAX; n],
            visited: vec![false; n],
            frontier: Vec::new(),
            reached: Vec::new(),
        }
    }

    /// Inserts `u -> v` with set semantics (an existing edge stays single).
    pub fn insert(&mut self, u: u32, v: u32) {
        let n = (u.max(v) as usize) + 1;
        if n > self.forward.len() {
            self.forward.resize(n, Vec::new());
            self.reverse.resize(n, Vec::new());
            self.dist.resize(n, u32::MAX);
            self.visited.resize(n, false);
        }
        if !self.forward[u as usize].contains(&v) {
            self.forward[u as usize].push(v);
            self.reverse[v as usize].push(u);
        }
    }

    /// Number of simple `s -> t` paths with at most `k` hops (`s != t`).
    pub fn count(&mut self, s: u32, t: u32, k: u32) -> u64 {
        assert_ne!(s, t, "workloads never ask for the trivial path");
        // Backward BFS from t: dist[u] = hops from u to t, up to k - 1.
        self.dist[t as usize] = 0;
        self.reached.push(t);
        self.frontier.push(t);
        for depth in 1..k {
            let mut next = Vec::new();
            for &v in &self.frontier {
                for &u in &self.reverse[v as usize] {
                    if self.dist[u as usize] == u32::MAX {
                        self.dist[u as usize] = depth;
                        self.reached.push(u);
                        next.push(u);
                    }
                }
            }
            self.frontier = next;
        }
        self.frontier.clear();
        self.visited[s as usize] = true;
        let count = self.dfs(s, t, k);
        self.visited[s as usize] = false;
        for v in self.reached.drain(..) {
            self.dist[v as usize] = u32::MAX;
        }
        count
    }

    fn dfs(&mut self, u: u32, t: u32, budget: u32) -> u64 {
        let mut count = 0;
        for i in 0..self.forward[u as usize].len() {
            let v = self.forward[u as usize][i];
            if v == t {
                count += 1;
            } else if !self.visited[v as usize] && self.dist[v as usize] < budget {
                self.visited[v as usize] = true;
                count += self.dfs(v, t, budget - 1);
                self.visited[v as usize] = false;
            }
        }
        count
    }
}
