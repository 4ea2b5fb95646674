//! The node runtime: one OS process hosting a shard of the overlay's nodes
//! over a real [`UdpSocket`], driving the *unmodified* event-driven
//! protocols through the same [`Cx`](p2p_estimation::net_protocol::Cx)
//! contract the DES uses.
//!
//! # Cx over sockets
//!
//! The process is one [`ShardCore`] — the same drive loop the simulator
//! runs — behind the UDP [`Host`] below (DESIGN.md, "The drive loop",
//! tabulates what each host answers). A handler's sends and timers go into
//! the core's local [`Network`] — the *outbox* — configured with the
//! cluster's shared [`NetworkModel`](p2p_sim::NetworkModel), exactly as in
//! the simulator. The runtime maps simulated time onto the wall clock at
//! one tick = one millisecond: whenever wall time reaches an outbox
//! event's maturity the core pops it. A delivery to a remote slot is then
//! encoded as a wire frame and sent over UDP to the shard owning it. An
//! injected drop never enters the outbox, exactly as in the simulator:
//! loss, injected or real, is observed only through protocol timeouts, in
//! every driver. The wheel carries only protocol events:
//! steps arrive as the coordinator's [`CtrlMsg::Step`] frames, and each one
//! pumps the outbox to the current wall millisecond, lands the step's
//! churn, then runs `on_step`.
//!
//! The result: injected latency/loss rides the same model and the same
//! per-process stream as in the simulator, stacked on top of whatever the
//! real loopback path adds. Determinism ends at the socket — arrival
//! interleaving is the kernel's business — which is exactly the boundary
//! the cluster's statistical cross-validation against the DES is built
//! around.
//!
//! # Replicated overlay
//!
//! Every process builds the same overlay from the cluster seed and applies
//! the same churn ops (broadcast by the coordinator over TCP, applied off
//! a shared application stream) in the same order, so the graph replicas
//! stay identical by induction without any view-synchronization protocol.
//! A shard *hosts* the nodes whose slot index is ≡ its shard index modulo
//! the shard count; the protocol sees this through the [`ShardView`] its
//! [`ShardCore`] lends every handler's context, and only acts for hosted
//! nodes.

// panic-in-io: a shard reports failure through its `Bye` accounting, never panics mid-cluster.
#![deny(clippy::expect_used, clippy::panic)]

use crate::wire::{decode_data, encode_data, read_ctrl, write_ctrl, CtrlMsg, WirePayload};
use p2p_estimation::{with_async_protocol, Host, NodeProtocol, ProtocolSpec, ShardCore, ShardView};
use p2p_experiments::runner::{in_flight_by_kind, IN_FLIGHT_BY_KIND, SENT_BY_KIND};
use p2p_experiments::Scenario;
use p2p_overlay::{Graph, NodeId};
use p2p_sim::rng::{derive_seed, small_rng};
use p2p_sim::{network::NetEvent, MessageKind, Network, SimTime};
use p2p_telemetry::{CounterId, GaugeId, Registry};
use std::io;
use std::net::{Ipv4Addr, SocketAddr, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed stream for a process's outbox network (latency/loss draws).
const OUTBOX_SEED_STREAM: u64 = 0x6F75_7462_6F78; // "outbox"

/// Static configuration one node process runs under. Every field must be
/// identical across the cluster (same seed → same overlay replica) except
/// `proc`.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// This process's shard index in `0..procs`.
    pub proc: u32,
    /// Total shard count.
    pub procs: u32,
    /// The protocol to run.
    pub protocol: ProtocolSpec,
    /// The resolved scenario: overlay size, step count, network model.
    /// The model's `step_ticks` is the step period in wall milliseconds.
    pub scenario: Scenario,
    /// The cluster seed (overlay build + churn application + per-process
    /// derived streams).
    pub seed: u64,
    /// The coordinator's TCP control address.
    pub coordinator: SocketAddr,
    /// Preferred UDP data port (`0` → ephemeral). Non-zero ports are tried
    /// with [`bind_with_retry`]'s backoff, falling back to ephemeral.
    pub data_port: u16,
    /// Steps between telemetry snapshots folded into [`CtrlMsg::Metrics`]
    /// control frames; `0` disables shard telemetry.
    pub metrics_every: u64,
}

/// What a finished node process reports.
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeStats {
    /// Data frames sent over UDP.
    pub sent: u64,
    /// Well-formed data frames received.
    pub received: u64,
    /// Received datagrams that failed to decode.
    pub malformed: u64,
    /// [`CtrlMsg::Step`] frames handled.
    pub steps: u64,
}

/// Binds a UDP socket on loopback, preferring `port`, retrying with
/// backoff on address collisions before falling back to an ephemeral port.
///
/// Collisions are real on shared CI hosts: a fixed port plan (`base+proc`)
/// keeps packet captures readable, but another process may hold a port.
/// Three spaced retries ride out TIME_WAIT-ish transients; after that an
/// ephemeral bind always succeeds and the true port travels in `Hello`.
pub fn bind_with_retry(port: u16) -> io::Result<UdpSocket> {
    if port == 0 {
        return UdpSocket::bind((Ipv4Addr::LOCALHOST, 0));
    }
    let mut backoff = Duration::from_millis(20);
    for attempt in 0..4 {
        match UdpSocket::bind((Ipv4Addr::LOCALHOST, port)) {
            Ok(sock) => return Ok(sock),
            Err(e) if e.kind() == io::ErrorKind::AddrInUse && attempt < 3 => {
                std::thread::sleep(backoff);
                backoff *= 2;
            }
            Err(_) => break,
        }
    }
    UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))
}

/// Everything the runtime's main loop reacts to, funneled through one
/// channel by the socket-reader threads.
enum Event<M> {
    /// A decoded data frame from the UDP socket.
    Frame { src: NodeId, dst: NodeId, msg: M },
    /// A malformed datagram arrived (counted, otherwise ignored).
    Malformed,
    /// A control message from the coordinator.
    Ctrl(CtrlMsg),
    /// The control stream closed — with a live coordinator that means
    /// shutdown; with a dead one it prevents orphaned node processes.
    CtrlClosed,
}

/// Runs one node process to completion: bind, handshake, serve until
/// `Shutdown` (or control-stream EOF), then report stats via `Bye`.
pub fn run_node(cfg: &RuntimeConfig) -> io::Result<NodeStats> {
    let socket = bind_with_retry(cfg.data_port)?;
    let udp_port = socket.local_addr()?.port();
    let mut ctrl = TcpStream::connect(cfg.coordinator)?;
    ctrl.set_nodelay(true)?;
    write_ctrl(
        &mut ctrl,
        &CtrlMsg::Hello {
            proc: cfg.proc,
            udp_port,
        },
    )?;

    // Wait for the peer table, then Start, before touching the clock.
    let mut ctrl_reader = ctrl.try_clone()?;
    let ports = loop {
        match read_ctrl(&mut ctrl_reader)? {
            Some(CtrlMsg::Peers { ports }) => break ports,
            Some(CtrlMsg::Shutdown) | None => return Ok(NodeStats::default()),
            Some(_) => {}
        }
    };
    if ports.len() != cfg.procs as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "peer table has {} ports for {} shards",
                ports.len(),
                cfg.procs
            ),
        ));
    }
    let peers: Vec<SocketAddr> = ports
        .iter()
        .map(|&p| SocketAddr::from((Ipv4Addr::LOCALHOST, p)))
        .collect();
    loop {
        match read_ctrl(&mut ctrl_reader)? {
            Some(CtrlMsg::Start) => break,
            Some(CtrlMsg::Shutdown) | None => return Ok(NodeStats::default()),
            Some(_) => {}
        }
    }

    with_async_protocol!(cfg.protocol.build_async(), p => {
        serve(cfg, p, socket, ctrl, ctrl_reader, &peers)
    })
}

/// One shard's telemetry: every metric is sampled at step boundaries from
/// accounting the runtime already keeps, rendered as a snapshot, and
/// shipped to the coordinator inside a [`CtrlMsg::Metrics`] frame. Every
/// shard registers the identical metric set in the identical order, which
/// is what makes the coordinator's index-ordered merge well-defined.
struct ShardTelemetry {
    reg: Registry,
    c_frames_sent: CounterId,
    c_frames_received: CounterId,
    c_frames_malformed: CounterId,
    c_outbox_sent: CounterId,
    c_outbox_delivered: CounterId,
    c_outbox_dropped: CounterId,
    c_outbox_churn_lost: CounterId,
    c_sent_kind: [CounterId; 7],
    g_in_flight_kind: [GaugeId; 7],
    g_alive: GaugeId,
    g_hosted: GaugeId,
    g_pending: GaugeId,
    series: String,
}

impl ShardTelemetry {
    fn new(proc: u32) -> Self {
        let mut reg = Registry::new();
        ShardTelemetry {
            c_frames_sent: reg.counter("node.frames_sent"),
            c_frames_received: reg.counter("node.frames_received"),
            c_frames_malformed: reg.counter("node.frames_malformed"),
            c_outbox_sent: reg.counter("net.sent"),
            c_outbox_delivered: reg.counter("net.delivered"),
            c_outbox_dropped: reg.counter("net.dropped"),
            c_outbox_churn_lost: reg.counter("net.churn_lost"),
            c_sent_kind: SENT_BY_KIND.map(|n| reg.counter(n)),
            g_in_flight_kind: IN_FLIGHT_BY_KIND.map(|n| reg.gauge(n)),
            g_alive: reg.gauge("overlay.alive"),
            g_hosted: reg.gauge("node.hosted"),
            g_pending: reg.gauge("outbox.pending"),
            reg,
            series: format!("shard{proc}"),
        }
    }
}

/// The socket [`Host`]: the overlay replica, the UDP data socket, the
/// coordinator's control stream and the shard's telemetry.
struct UdpHost<'a> {
    cfg: &'a RuntimeConfig,
    graph: Graph,
    socket: UdpSocket,
    peers: &'a [SocketAddr],
    ctrl: TcpStream,
    frame_buf: Vec<u8>,
    stats: NodeStats,
    tel: Option<ShardTelemetry>,
    /// The first I/O failure inside a seam call; the pump returns it once
    /// the core hands control back.
    failed: io::Result<()>,
}

impl UdpHost<'_> {
    fn note(&mut self, outcome: io::Result<()>) {
        if self.failed.is_ok() {
            self.failed = outcome;
        }
    }

    /// Samples every metric at the step boundary when a snapshot is due
    /// (ticks are step numbers, no extra wall-clock reads) and ships it.
    fn sample<M>(&mut self, step: u64, outbox: &Network<M>) -> io::Result<()> {
        let (cfg, stats, graph) = (self.cfg, &self.stats, &self.graph);
        let Some(t) = self.tel.as_mut() else {
            return Ok(());
        };
        if !step.is_multiple_of(cfg.metrics_every) && step != cfg.scenario.steps {
            return Ok(());
        }
        let reg = &mut t.reg;
        reg.counter_set_total(t.c_frames_sent, stats.sent);
        reg.counter_set_total(t.c_frames_received, stats.received);
        reg.counter_set_total(t.c_frames_malformed, stats.malformed);
        let net = outbox.stats();
        reg.counter_set_total(t.c_outbox_sent, net.sent);
        reg.counter_set_total(t.c_outbox_delivered, net.delivered);
        reg.counter_set_total(t.c_outbox_dropped, net.dropped);
        reg.counter_set_total(t.c_outbox_churn_lost, net.churn_lost);
        let in_flight = in_flight_by_kind(outbox);
        for (i, kind) in MessageKind::ALL.into_iter().enumerate() {
            reg.counter_set_total(t.c_sent_kind[i], outbox.counter().get(kind));
            reg.gauge_set(t.g_in_flight_kind[i], in_flight[i]);
        }
        reg.gauge_set(t.g_alive, graph.alive_count() as u64);
        let hosted = (graph.alive_nodes())
            .filter(|n| n.index() as u32 % cfg.procs == cfg.proc)
            .count();
        reg.gauge_set(t.g_hosted, hosted as u64);
        reg.gauge_set(t.g_pending, outbox.pending() as u64);
        let mut snap = reg.snapshot(step);
        snap.series = t.series.clone();
        let json = snap.to_jsonl().into_bytes();
        write_ctrl(&mut self.ctrl, &CtrlMsg::Metrics { json })
    }
}

impl<P> Host<P> for UdpHost<'_>
where
    P: NodeProtocol,
    P::Msg: WirePayload,
{
    fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Latency was served on this (the sender's) outbox; the frame leaves
    /// at maturity and is delivered on receipt.
    fn forward(&mut self, src: NodeId, dst: NodeId, msg: P::Msg) {
        encode_data(src, dst, &msg, &mut self.frame_buf);
        let peer = self.peers[dst.index() % self.peers.len()];
        match self.socket.send_to(&self.frame_buf, peer) {
            Ok(_) => self.stats.sent += 1,
            Err(e) => self.note(Err(e)),
        }
    }
}

/// The generic post-handshake server: overlay replica, outbox pump, UDP
/// I/O, control handling. `Start` has been received; time zero is now.
fn serve<P>(
    cfg: &RuntimeConfig,
    protocol: P,
    socket: UdpSocket,
    ctrl: TcpStream,
    mut ctrl_reader: TcpStream,
    peers: &[SocketAddr],
) -> io::Result<NodeStats>
where
    P: NodeProtocol,
    P::Msg: WirePayload + Send + 'static,
{
    // Identical on every process: same seed → same overlay replica, and
    // the post-build stream becomes the shared churn-application stream.
    let mut apply_rng = small_rng(cfg.seed);
    let graph = cfg.scenario.build_overlay(&mut apply_rng);
    let (view, proto_rng) = ShardView::elect(cfg.seed, &graph, cfg.proc, cfg.procs);
    let outbox: Network<P::Msg> = Network::new(
        cfg.scenario.network,
        derive_seed(derive_seed(cfg.seed, OUTBOX_SEED_STREAM), cfg.proc as u64),
    );
    // No send-time lanes: remote sends mature on this wheel, then `forward`.
    let mut core = ShardCore::shard(protocol, outbox, proto_rng, view, None);

    let (tx, rx) = mpsc::channel::<Event<P::Msg>>();
    let running = Arc::new(AtomicBool::new(true));

    // UDP reader: datagram → decoded frame → channel. A read timeout lets
    // it observe shutdown; decode failures only bump the malformed count.
    let udp_thread = {
        let socket = socket.try_clone()?;
        let tx = tx.clone();
        let running = Arc::clone(&running);
        socket.set_read_timeout(Some(Duration::from_millis(50)))?;
        std::thread::spawn(move || {
            let mut buf = [0u8; 2048];
            while running.load(Ordering::Relaxed) {
                match socket.recv_from(&mut buf) {
                    Ok((n, _)) => {
                        let event = match decode_data::<P::Msg>(&buf[..n]) {
                            Ok((src, dst, msg)) => Event::Frame { src, dst, msg },
                            Err(_) => Event::Malformed,
                        };
                        if tx.send(event).is_err() {
                            break;
                        }
                    }
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut => {}
                    Err(_) => break,
                }
            }
        })
    };

    // Control reader: coordinator frames → channel; EOF → CtrlClosed, the
    // no-orphans guarantee (a dead coordinator takes its nodes with it).
    let ctrl_thread = {
        let tx = tx.clone();
        std::thread::spawn(move || loop {
            match read_ctrl(&mut ctrl_reader) {
                Ok(Some(msg)) => {
                    if tx.send(Event::Ctrl(msg)).is_err() {
                        break;
                    }
                }
                Ok(None) | Err(_) => {
                    let _ = tx.send(Event::CtrlClosed);
                    break;
                }
            }
        })
    };

    let start = Instant::now();
    let mut delta = p2p_overlay::churn::ChurnDelta::default();
    let mut host = UdpHost {
        cfg,
        graph,
        socket,
        peers,
        ctrl,
        frame_buf: Vec::with_capacity(64),
        stats: NodeStats::default(),
        tel: (cfg.metrics_every > 0).then(|| ShardTelemetry::new(cfg.proc)),
        failed: Ok(()),
    };

    core.init(&host.graph);

    'main: loop {
        let now_ms = start.elapsed().as_millis() as u64;

        // Pump: every matured outbox event goes into the protocol or the
        // socket (a drop never entered the outbox); then ship what the
        // handlers — the pump's and the previous iteration's inbound
        // frame's — reported.
        core.run_until(SimTime(now_ms), &mut host);
        std::mem::replace(&mut host.failed, Ok(()))?;
        for outcome in core.drain_reports() {
            if let Some(estimate) = outcome.estimate() {
                let wall_ms = start.elapsed().as_millis() as u64;
                write_ctrl(&mut host.ctrl, &CtrlMsg::Report { wall_ms, estimate })?;
            }
        }

        // Wait for at most one channel event, sleeping only until the next
        // outbox maturity. Handling a single event per iteration matters:
        // an inbound frame's handler may schedule new outbox work maturing
        // *before* any previously computed deadline (a walk's next hop is
        // due in one hop-latency, not at the next step boundary), so the
        // deadline must be recomputed from the outbox after every dispatch
        // or hop-chained protocols crawl at step pace.
        let timeout = match core.net.next_event_time() {
            Some(t) => Duration::from_millis(t.0.saturating_sub(now_ms).min(100)),
            None => Duration::from_millis(50),
        };
        match rx.recv_timeout(timeout) {
            Ok(Event::Frame { src, dst, msg }) => {
                host.stats.received += 1;
                let (src, dst) = (src.0, dst.0);
                core.handle(NetEvent::Deliver { src, dst, msg }, &mut host);
            }
            Ok(Event::Malformed) => host.stats.malformed += 1,
            Ok(Event::Ctrl(CtrlMsg::Step { step, ops })) => {
                // The coordinator's clock says step `step` begins: what
                // matured before it runs first, then the step's churn lands,
                // then the protocol steps on the churned overlay.
                let now_ms = start.elapsed().as_millis() as u64;
                core.run_until(SimTime(now_ms), &mut host);
                delta.clear();
                for op in &ops {
                    op.apply(&mut host.graph, &mut apply_rng, &mut delta);
                }
                core.step(step, &host.graph);
                host.stats.steps += 1;
                host.sample(step, &core.net)?;
            }
            Ok(Event::Ctrl(CtrlMsg::EstimateQuery)) => {
                let entries = (host.graph.alive_nodes())
                    .filter(|&node| view.hosts(node))
                    .filter_map(|node| Some((node, core.protocol.estimate_at(node)?)))
                    .collect();
                write_ctrl(&mut host.ctrl, &CtrlMsg::Estimates { entries })?;
            }
            Ok(Event::Ctrl(CtrlMsg::Shutdown)) | Ok(Event::CtrlClosed) => break 'main,
            Ok(Event::Ctrl(_)) => {}
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break 'main,
        }
    }

    // Graceful drain: stop the readers, flush remaining matured events,
    // and hand the coordinator our stats.
    let UdpHost {
        mut ctrl, stats, ..
    } = host;
    running.store(false, Ordering::Relaxed);
    let _ = udp_thread.join();
    drop(rx);
    // Unblock the control reader even while the coordinator's write half
    // is still open: shutting down our read half turns its blocked read
    // into EOF. (Without this, shard and coordinator join each other's
    // readers in a cycle and teardown deadlocks.)
    let _ = ctrl.shutdown(std::net::Shutdown::Read);
    let _ = ctrl_thread.join();
    let _ = write_ctrl(
        &mut ctrl,
        &CtrlMsg::Bye {
            sent: stats.sent,
            received: stats.received,
            malformed: stats.malformed,
        },
    );
    Ok(stats)
}
