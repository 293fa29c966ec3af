//! The served stack, the TCP client that drives it, and the in-process
//! replay that times each layer's public entry point.

use crate::trace::Tracer;
use pefp_baselines::{BcDfs, Join};
use pefp_core::{
    prepare_snapshot_with, route_query, run_prepared_with_sink, EngineChoice, EngineOptions,
    PefpVariant, PrepareContext, PreparedQuery, RouteContext, RoutingTable,
};
use pefp_fpga::DeviceConfig;
use pefp_graph::sink::CountingSink;
use pefp_graph::{GraphDelta, VertexId};
use pefp_host::wire::{read_frame, Reply, Request};
use pefp_host::{GraphHandle, HostRuntime, NetConfig, NetServer, QueryRequest, RuntimeConfig};
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

/// The deployment shape `BENCH_08` calibrated: 2 CUs, the builtin routing
/// table, two CPU workers and the default prepared cache (128 entries in 8
/// stripes).
pub fn runtime_config() -> RuntimeConfig {
    RuntimeConfig {
        compute_units: 2,
        routing: Some(RoutingTable::builtin()),
        cpu_workers: 2,
        ..RuntimeConfig::default()
    }
}

/// Launches a runtime over `graph` and runs every `pool` query once
/// in-process, so the prepared cache is warm before the first timed request.
pub fn launch_warm(graph: GraphHandle, pool: &[(u32, u32, u32)]) -> Arc<HostRuntime> {
    let runtime = HostRuntime::launch(graph, runtime_config());
    let session = runtime.register_session();
    for &(s, t, k) in pool {
        runtime
            .submit_query(session, QueryRequest::new(s, t, k), false)
            .expect("warm-up query admitted")
            .wait()
            .expect("warm-up query completes");
    }
    runtime
}

/// A front door over a warm runtime, with the seconds its set-up took.
pub struct Stack {
    /// The runtime the front door serves.
    pub runtime: Arc<HostRuntime>,
    /// The TCP front door.
    pub server: NetServer,
    /// Graph build, runtime launch, cache warm-up and bind, in seconds.
    pub setup_s: f64,
}

impl Stack {
    /// Builds the gate graph, launches and warms the runtime, binds loopback.
    pub fn set_up(pool: &[(u32, u32, u32)]) -> Stack {
        let started = Instant::now();
        let runtime = launch_warm(pefp_bench::gate::gate_graph(), pool);
        let server = NetServer::bind(Arc::clone(&runtime), "127.0.0.1:0", NetConfig::default())
            .expect("bind a loopback front door");
        Stack { runtime, server, setup_s: started.elapsed().as_secs_f64() }
    }
}

/// One persistent binary-protocol connection to the front door.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connects with Nagle off, as a latency-sensitive client would.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        Ok(Conn { reader: BufReader::new(writer.try_clone()?), writer })
    }

    /// Sends one request as a single write and reads its whole reply.
    pub fn call(&mut self, request: &Request) -> Result<Reply, String> {
        self.writer.write_all(&request.encode()).map_err(|e| format!("send: {e}"))?;
        match Reply::read_from(&mut self.reader) {
            Ok(Some(reply)) => Ok(reply),
            Ok(None) => Err("server closed the connection".to_string()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    /// [`Conn::call`] with `wire.encode` and `wire.decode` spans under
    /// `parent`. The socket calls are the same as the untraced call's.
    pub fn call_traced(
        &mut self,
        request: &Request,
        tracer: &mut Tracer,
        id: u64,
        parent: u32,
    ) -> Result<Reply, String> {
        let started = Instant::now();
        let bytes = request.encode();
        tracer.leaf(id, parent, "wire.encode", started, Instant::now());
        self.writer.write_all(&bytes).map_err(|e| format!("send: {e}"))?;
        let frame = match read_frame(&mut self.reader) {
            Ok(Some(frame)) => frame,
            Ok(None) => return Err("server closed the connection".to_string()),
            Err(e) => return Err(format!("receive: {e}")),
        };
        let started = Instant::now();
        let reply = Reply::decode(&frame);
        tracer.leaf(id, parent, "wire.decode", started, Instant::now());
        reply.map_err(|e| format!("decode: {e}"))
    }
}

/// Work counters of the replayed layer calls.
#[derive(Debug, Default)]
pub struct LayerCounts {
    /// Pre-BFS calls (replica cache misses).
    pub preprocess_calls: u64,
    /// Summed |V(G')| / |V| over Pre-BFS calls.
    pub kept_frac_sum: f64,
    /// Pre-BFS calls that proved the answer empty.
    pub infeasible: u64,
    /// Engine runs of device-routed queries.
    pub engine_calls: u64,
    /// Summed engine host nanoseconds.
    pub engine_ns: f64,
    /// Summed simulated kernel cycles of the engine runs.
    pub engine_cycles: u64,
    /// Summed (path, successor) expansions.
    pub expansions: u64,
    /// Summed result paths of the engine runs.
    pub results: u64,
    /// Summed DRAM words moved.
    pub dram_words: u64,
    /// Summed graph/barrier cache hits served from BRAM.
    pub bram_hits: u64,
    /// Summed graph/barrier cache lookups.
    pub bram_lookups: u64,
    /// Summed buffer-area flushes to DRAM.
    pub buffer_flushes: u64,
    /// Summed overlay rows of the snapshots queried.
    pub overlay_rows: u64,
}

/// Replays traced requests on a replica runtime through each layer's public
/// call. The replica is launched and warmed like the served runtime and is
/// fed the same updates, so the served runtime never sees the replay.
pub struct Replay {
    /// The replica runtime.
    pub runtime: Arc<HostRuntime>,
    session: u64,
    ctx: PrepareContext,
    prepared: HashMap<(u32, u32, u32), Arc<PreparedQuery>>,
    prepared_epoch: u64,
    table: RoutingTable,
    route_ctx: RouteContext,
    variant: PefpVariant,
    options: EngineOptions,
    device: DeviceConfig,
    /// Counters of the replayed calls.
    pub counts: LayerCounts,
}

impl Replay {
    /// A replica of the served stack, warmed with `pool`.
    pub fn new(graph: GraphHandle, pool: &[(u32, u32, u32)]) -> Replay {
        let config = runtime_config();
        let mut options = config.variant.engine_options();
        options.collect_paths = false;
        options.bank_placement = graph.placement;
        let ctx = PrepareContext::with_reverse(&graph.csr, Arc::clone(&graph.reverse));
        let runtime = launch_warm(graph, pool);
        Replay {
            session: runtime.register_session(),
            runtime,
            ctx,
            prepared: HashMap::new(),
            prepared_epoch: 0,
            table: config.routing.clone().expect("the benchmark routes"),
            route_ctx: RouteContext {
                compute_units: config.compute_units,
                charge_banked: config.charge_banked,
            },
            variant: config.variant,
            options,
            device: config.device,
            counts: LayerCounts::default(),
        }
    }

    /// Replays one COUNT: `runtime.submit_wait` on the replica, then the
    /// calls the runtime made inside it — `preprocess` (only when the
    /// replica missed its cache), `routing`, and the lane the router chose.
    /// Returns the replica's answer.
    pub fn count(
        &mut self,
        tracer: &mut Tracer,
        id: u64,
        parent: u32,
        (s, t, k): (u32, u32, u32),
    ) -> Result<u64, String> {
        let hits_before = self.runtime.stats().cache_hits;
        let wait_id = tracer.reserve();
        let started = Instant::now();
        let outcome = self
            .runtime
            .submit_query(self.session, QueryRequest::new(s, t, k), false)
            .and_then(|ticket| ticket.wait())
            .map_err(|e| format!("replica: {e}"))?;
        tracer.record(wait_id, id, Some(parent), "runtime.submit_wait", started, Instant::now());
        let hit = self.runtime.stats().cache_hits > hits_before;

        let snapshot = self.runtime.current_snapshot();
        if snapshot.epoch() != self.prepared_epoch {
            self.prepared.clear();
            self.prepared_epoch = snapshot.epoch();
        }
        self.counts.overlay_rows += snapshot.overlay_rows() as u64;
        let variant = self.variant;
        let prepare = |ctx: &mut PrepareContext| {
            Arc::new(prepare_snapshot_with(ctx, &snapshot, VertexId(s), VertexId(t), k, variant))
        };
        let prepared = match (hit, self.prepared.get(&(s, t, k))) {
            (true, Some(prepared)) => Arc::clone(prepared),
            (true, None) => prepare(&mut self.ctx),
            (false, _) => {
                let started = Instant::now();
                let prepared = prepare(&mut self.ctx);
                tracer.leaf(id, wait_id, "preprocess", started, Instant::now());
                self.counts.preprocess_calls += 1;
                self.counts.kept_frac_sum +=
                    prepared.graph.num_vertices() as f64 / snapshot.num_vertices() as f64;
                self.counts.infeasible += u64::from(!prepared.feasible);
                prepared
            }
        };
        self.prepared.insert((s, t, k), Arc::clone(&prepared));

        let started = Instant::now();
        let decision = route_query(&prepared, &self.table, &self.route_ctx);
        tracer.leaf(id, wait_id, "routing", started, Instant::now());

        let started = Instant::now();
        let lane = match decision.choice {
            EngineChoice::CpuBcDfs | EngineChoice::CpuJoin if !prepared.feasible => None,
            EngineChoice::CpuBcDfs => {
                // The runtime seeds BC-DFS with the Pre-BFS barrier, tightened
                // at the source (Pre-BFS leaves bar[s] at the k+1 sentinel).
                let mut bar = prepared.barrier.clone();
                if let Some(b) = bar.get_mut(prepared.s.index()) {
                    *b = (*b).min(k);
                }
                let mut sink = CountingSink::new();
                let _ = BcDfs::with_barrier(bar, k).enumerate_into(
                    &prepared.graph,
                    prepared.s,
                    prepared.t,
                    k,
                    &mut sink,
                );
                Some("baselines.bcdfs")
            }
            EngineChoice::CpuJoin => {
                let mut sink = CountingSink::new();
                let _ = Join::new().enumerate_into(
                    &prepared.graph,
                    prepared.s,
                    prepared.t,
                    k,
                    &mut sink,
                );
                Some("baselines.join")
            }
            EngineChoice::DeviceSingleCu | EngineChoice::DeviceMultiCu => {
                let result = run_prepared_with_sink(
                    &prepared,
                    self.options.clone(),
                    &self.device,
                    &mut CountingSink::new(),
                );
                let c = &mut self.counts;
                c.engine_calls += 1;
                c.engine_ns += started.elapsed().as_nanos() as f64;
                c.engine_cycles += result.device.cycles;
                c.expansions += result.stats.expansions;
                c.results += result.stats.results;
                c.dram_words += result.device.counters.dram_words_total();
                c.bram_hits += result.device.counters.cache_hits;
                c.bram_lookups +=
                    result.device.counters.cache_hits + result.device.counters.cache_misses;
                c.buffer_flushes += result.device.counters.buffer_flushes;
                Some("engine")
            }
        };
        if let Some(lane) = lane {
            tracer.leaf(id, wait_id, lane, started, Instant::now());
        }
        Ok(outcome.num_paths)
    }

    /// Applies `delta` to the replica under a `delta.apply` span.
    pub fn apply(&mut self, tracer: &mut Tracer, id: u64, parent: u32, delta: &GraphDelta) {
        let started = Instant::now();
        self.runtime.apply_updates(delta);
        tracer.leaf(id, parent, "delta.apply", started, Instant::now());
    }
}
