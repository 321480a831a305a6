//! The TCP daemons: a standalone [`Server`] in front of a [`ServeCore`]
//! and a replicated [`HaServer`] in front of a [`ReplicaNode`].
//!
//! Threading model: each daemon has exactly **one owner thread** that
//! holds its state by value. No other thread can reach that state, so
//! no lock guards it and no lock is ever held across a WAL or snapshot
//! fsync. Around the owner:
//!
//! - one **accept loop** (non-blocking poll so shutdown is prompt),
//!   refusing connections beyond `max_connections` with a typed
//!   `Overloaded` reply instead of letting them queue invisibly;
//! - one **connection thread** per client with read/write timeouts, so a
//!   stalled or vanished peer is dropped instead of pinning a thread
//!   forever. It decodes a frame and sends the owner a task that
//!   carries its own reply channel, then waits for the answer with a
//!   deadline. A connection has at most one task in flight, so the
//!   owner's inbox holds at most `max_connections` client tasks.
//!
//! A batch solve fetches its weight seed from the owner, then runs on
//! the connection thread under a [`CancelToken`] deadline, so a long
//! solve never blocks ingest.

use std::collections::{BTreeMap, VecDeque};
use std::io::Read as _;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crh_core::cancel::CancelToken;
use crh_core::schema::Schema;

use crate::client::Client;
use crate::core::ServeConfig;
use crate::core::{claims_from_csv, solve_claims, ChunkClaim, ServeCore};
use crate::error::ServeError;
use crate::proto::{read_frame, write_frame, ClaimBytes, Request, Response};
use crate::replicate::{ReplicaConfig, ReplicaNode, Role};
use crate::shard::{ShardMap, ShardMapStore, ShardRange};

/// Tuning for the network front-end.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Client ingests admitted but not yet folding; beyond this, ingests
    /// fail with `Overloaded`. Reads never count against it.
    pub queue_capacity: usize,
    /// How long a connection thread waits for its ingest to fold before
    /// answering `DeadlineExceeded`.
    pub ingest_deadline: Duration,
    /// Per-connection socket read/write timeout; a peer silent for this
    /// long is dropped. It also bounds how long a connection thread
    /// waits for any other answer from the owner thread.
    pub io_timeout: Duration,
    /// Wall-clock budget for a batch solve.
    pub solve_deadline: Duration,
    /// Concurrent client connections; beyond this, connections get an
    /// immediate `Overloaded` reply and are closed.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            ingest_deadline: Duration::from_secs(2),
            io_timeout: Duration::from_secs(2),
            solve_deadline: Duration::from_secs(5),
            max_connections: 32,
        }
    }
}

/// Work for an owner thread: a closure run on the state it owns. The
/// closure carries its own reply channel (see [`task`]).
type Task<S> = Box<dyn FnOnce(&mut S) + Send>;

/// Box `f` as a task for an owner thread, paired with the channel its
/// answer arrives on.
fn task<S, R: Send + 'static>(
    f: impl FnOnce(&mut S) -> R + Send + 'static,
) -> (Task<S>, mpsc::Receiver<R>) {
    let (tx, rx) = mpsc::sync_channel(1);
    let task: Task<S> = Box::new(move |state| {
        // the asker may have timed out and gone; that's fine
        tx.try_send(f(state)).ok();
    });
    (task, rx)
}

/// Wait up to `wait` for an owner thread's answer. An owner that has
/// exited drops its pending tasks, which ends the wait at once.
fn await_answer<R>(answer: &mpsc::Receiver<R>, wait: Duration) -> Result<R, ServeError> {
    answer.recv_timeout(wait).map_err(|e| match e {
        mpsc::RecvTimeoutError::Timeout => ServeError::DeadlineExceeded,
        mpsc::RecvTimeoutError::Disconnected => ServeError::ShuttingDown,
    })
}

/// The cheap reads both daemons answer from their folded state.
#[derive(Debug, Clone, Copy)]
enum Read {
    Weights,
    Truth { object: u32, property: u32 },
    Status,
}

impl Read {
    fn answer(self, core: &ServeCore, queue_depth: usize) -> Response {
        match self {
            Read::Weights => Response::Weights(core.weights().to_vec()),
            Read::Truth { object, property } => Response::Truth(core.truth(object, property)),
            Read::Status => {
                let status = core.status();
                Response::Status {
                    chunks_seen: status.chunks_seen,
                    wal_records: status.wal_records,
                    cached_truths: status.cached_truths,
                    queue_depth: queue_depth as u64,
                    quarantined: status.quarantined,
                }
            }
        }
    }
}

/// The ack for a `Shutdown` request, taken after the final snapshot.
fn shutdown_ack(chunks_seen: u64) -> Response {
    Response::Ack {
        seq: chunks_seen.saturating_sub(1),
        chunks_seen,
    }
}

/// Wrap an answer with a follower's staleness bound; `None` (a primary
/// or a standalone daemon) returns it unwrapped.
fn follower_wrap(lag: Option<u64>, inner: Response) -> Response {
    match lag {
        None => inner,
        Some(lag) => Response::FollowerRead {
            lag,
            inner: inner.encode(),
        },
    }
}

/// The pieces of daemon state the accept/connection machinery needs;
/// implemented by both the standalone [`Shared`] and the replicated
/// [`HaShared`] so they share one front-end and one request handler.
trait FrontEnd: Send + Sync + 'static {
    fn server_cfg(&self) -> &ServerConfig;
    fn is_shutdown(&self) -> bool;
    fn connection_count(&self) -> &AtomicUsize;
    fn schema(&self) -> &Schema;
    /// Ingest a client chunk, whose claim list arrived as `list` when it
    /// came in an `Ingest` frame; answer once it is durable (and, when
    /// replicated, quorum-committed).
    fn ingest(
        &self,
        claims: Vec<ChunkClaim>,
        list: Option<ClaimBytes>,
        budget: Option<Duration>,
    ) -> Result<Response, ServeError>;
    fn read(&self, read: Read, budget: Option<Duration>) -> Result<Response, ServeError>;
    /// A batch solve's weight seed and thread count, plus the follower
    /// lag its answer is wrapped with.
    fn solve_seed(
        &self,
        budget: Option<Duration>,
    ) -> Result<(Vec<f64>, usize, Option<u64>), ServeError>;
    /// Take the final snapshot, ack the chunks seen, and stop serving.
    fn shutdown_now(&self) -> Result<Response, ServeError>;
    /// A replication or shard frame.
    fn cluster(&self, frame: Request, budget: Option<Duration>) -> Result<Response, ServeError>;
}

fn accept_loop<F: FrontEnd>(listener: &TcpListener, shared: &Arc<F>) {
    while !shared.is_shutdown() {
        match listener.accept() {
            Ok((stream, _)) => {
                let active = shared.connection_count().load(Ordering::SeqCst);
                if active >= shared.server_cfg().max_connections {
                    refuse_connection(stream, shared.server_cfg());
                    continue;
                }
                shared.connection_count().fetch_add(1, Ordering::SeqCst);
                let shared = Arc::clone(shared);
                std::thread::spawn(move || {
                    serve_connection(stream, &*shared);
                    shared.connection_count().fetch_sub(1, Ordering::SeqCst);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// How long one read of a refused client's request may wait.
const REFUSE_DRAIN_WAIT: Duration = Duration::from_millis(50);
/// Reads spent draining a refused client's request. With the wait above
/// this bounds how long a refused client can hold the accept loop.
const REFUSE_DRAIN_READS: usize = 4;

fn refuse_connection(mut stream: TcpStream, cfg: &ServerConfig) {
    let err = ServeError::Overloaded {
        capacity: cfg.max_connections,
    };
    stream.set_write_timeout(Some(cfg.io_timeout)).ok();
    let payload = Response::from_error(&err).encode();
    if write_frame(&mut stream, &payload).is_err() {
        return;
    }
    // Closing a socket with unread bytes makes the kernel answer with an
    // RST, which can reach the client before it reads the refusal. So
    // half-close (the refusal is followed by a FIN) and drain the request
    // the client may still be sending before dropping the socket.
    if stream.shutdown(Shutdown::Write).is_ok()
        && stream.set_read_timeout(Some(REFUSE_DRAIN_WAIT)).is_ok()
    {
        drain_request(&mut stream);
    }
}

/// Read and discard one request frame. Gives up at end of stream, on a
/// read error or timeout, or after `REFUSE_DRAIN_READS` reads.
fn drain_request(stream: &mut TcpStream) {
    const HEADER: usize = 8; // payload length + CRC, little-endian u32s
    let mut buf = [0u8; 16 << 10];
    let mut len = [0u8; 4];
    let mut seen = 0usize;
    for _ in 0..REFUSE_DRAIN_READS {
        let n = match stream.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => n,
        };
        for (slot, &b) in len.iter_mut().skip(seen).zip(buf.iter().take(n)) {
            *slot = b;
        }
        seen += n;
        if seen >= HEADER && seen - HEADER >= u32::from_le_bytes(len) as usize {
            return;
        }
    }
}

fn serve_connection<F: FrontEnd>(mut stream: TcpStream, shared: &F) {
    let io_timeout = shared.server_cfg().io_timeout;
    if stream
        .set_read_timeout(Some(io_timeout))
        .and(stream.set_write_timeout(Some(io_timeout)))
        .is_err()
    {
        return;
    }
    stream.set_nodelay(true).ok();
    while !shared.is_shutdown() {
        // The io timeout is for peers stalled *mid-frame*; a connection
        // idling between requests is legitimate. Wait for the first byte
        // of the next frame separately, so an idle timeout just loops
        // (re-checking shutdown) while a mid-frame stall drops the peer.
        let mut first = [0u8; 1];
        match stream.read(&mut first) {
            Ok(0) => return, // clean EOF
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(_) => return,
        }
        let payload = match read_frame(&mut first.as_slice().chain(&mut stream)) {
            Ok(p) => p,
            // mid-frame timeout, disconnect, or garbage framing: drop the peer
            Err(_) => return,
        };
        let response = match Request::decode(&payload) {
            Ok(req) => {
                let list = ClaimBytes::of(&req, payload);
                handle(shared, req, list)
            }
            Err(e) => Response::from_error(&e),
        };
        if write_frame(&mut stream, &response.encode()).is_err() {
            return;
        }
    }
}

/// Strip the deadline envelope off a request, yielding the inner request
/// and the client's remaining budget. A zero budget is refused *before
/// any work* with a typed [`ServeError::DeadlineExceeded`] — the client
/// has already given up, so staging, queueing, or solving on its behalf
/// would be wasted (and, for a write, would surprise it with durable
/// state it believes was refused).
fn unwrap_deadline(req: Request) -> Result<(Request, Option<Duration>), ServeError> {
    match req {
        Request::WithDeadline { budget_ms, inner } => {
            if budget_ms == 0 {
                Err(ServeError::DeadlineExceeded)
            } else {
                Ok((*inner, Some(Duration::from_millis(budget_ms))))
            }
        }
        other => Ok((other, None)),
    }
}

/// A hop never waits longer than its own configured bound *or* the
/// client's remaining budget, whichever is smaller: deadline propagation
/// turns one client timeout into a chain of shrinking server-side waits
/// instead of a pile-up of orphaned work.
fn clamp_wait(bound: Duration, budget: Option<Duration>) -> Duration {
    budget.map_or(bound, |b| b.min(bound))
}

/// Answer one decoded request, with the claim-list bytes it carried if
/// it is an `Ingest`; both daemons serve every frame through here.
fn handle<F: FrontEnd>(fe: &F, req: Request, list: Option<ClaimBytes>) -> Response {
    let answer = unwrap_deadline(req).and_then(|(req, budget)| match req {
        Request::Ingest(claims) => fe.ingest(claims, list, budget),
        Request::IngestCsv(text) => {
            claims_from_csv(fe.schema(), &text).and_then(|claims| fe.ingest(claims, None, budget))
        }
        Request::Weights => fe.read(Read::Weights, budget),
        Request::Truth { object, property } => fe.read(Read::Truth { object, property }, budget),
        Request::Status => fe.read(Read::Status, budget),
        Request::Solve {
            tol,
            max_iters,
            claims,
        } => {
            let (seed, threads, lag) = fe.solve_seed(budget)?;
            let cancel =
                CancelToken::with_deadline(clamp_wait(fe.server_cfg().solve_deadline, budget));
            let solved = match solve_claims(
                fe.schema(),
                &claims,
                &seed,
                tol,
                max_iters as usize,
                threads,
                &cancel,
            ) {
                Ok(out) => Response::Solved {
                    weights: out.weights,
                    objective: out.objective,
                    iterations: out.iterations,
                },
                Err(e) => Response::from_error(&e),
            };
            // the staleness bound observed at seed time: the seed is
            // what the answer actually depends on
            Ok(follower_wrap(lag, solved))
        }
        Request::Probe { nonce } => Ok(Response::ProbeAck { nonce }),
        // decode refuses nested wrappers and unwrap_deadline stripped the
        // outer one, but the type still admits it — answer, don't panic
        Request::WithDeadline { .. } => Err(ServeError::Protocol("nested deadline wrapper".into())),
        Request::Shutdown => fe.shutdown_now(),
        frame => fe.cluster(frame, budget),
    });
    answer.unwrap_or_else(|e| Response::from_error(&e))
}

// ---------------------------------------------------------------------
// Standalone daemon
// ---------------------------------------------------------------------

/// Work for the fold worker, the sole owner of a [`Server`]'s core.
enum Job {
    /// A client chunk's fold. Folds run in arrival order, and each counts
    /// against `queue_capacity` until it starts.
    Ingest(Task<ServeCore>),
    /// Anything else that needs the core. Runs as soon as the worker is
    /// between folds, ahead of queued ingests.
    Query(Task<ServeCore>),
}

struct Shared {
    jobs: mpsc::Sender<Job>,
    /// Client ingests admitted but not yet folding.
    queued: AtomicUsize,
    schema: Schema,
    cfg: ServerConfig,
    shutdown: AtomicBool,
    connections: AtomicUsize,
}

impl Shared {
    /// Run `f` on the fold worker between folds and wait for its answer.
    fn query<R: Send + 'static>(
        &self,
        budget: Option<Duration>,
        f: impl FnOnce(&mut ServeCore) -> R + Send + 'static,
    ) -> Result<R, ServeError> {
        let (query, answer) = task(f);
        self.jobs
            .send(Job::Query(query))
            .map_err(|_| ServeError::ShuttingDown)?;
        await_answer(&answer, clamp_wait(self.cfg.io_timeout, budget))
    }
}

impl FrontEnd for Shared {
    fn server_cfg(&self) -> &ServerConfig {
        &self.cfg
    }
    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
    fn connection_count(&self) -> &AtomicUsize {
        &self.connections
    }
    fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Shed, don't buffer: a full queue refuses at once with a typed
    /// `Overloaded`, so memory held by queued chunks is
    /// `O(queue_capacity)` however fast clients push.
    fn ingest(
        &self,
        claims: Vec<ChunkClaim>,
        list: Option<ClaimBytes>,
        budget: Option<Duration>,
    ) -> Result<Response, ServeError> {
        if self.is_shutdown() {
            return Err(ServeError::ShuttingDown);
        }
        let capacity = self.cfg.queue_capacity.max(1);
        self.queued
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < capacity).then_some(n + 1)
            })
            .map_err(|_| ServeError::Overloaded { capacity })?;
        let (fold, receipt) = task(move |core: &mut ServeCore| {
            core.ingest_encoded(&claims, list.as_ref().map(ClaimBytes::as_slice))
        });
        if self.jobs.send(Job::Ingest(fold)).is_err() {
            self.queued.fetch_sub(1, Ordering::SeqCst);
            return Err(ServeError::ShuttingDown);
        }
        // a fold that outlives the wait still lands durably; the client
        // learns the outcome from a later Status, exactly like a lost
        // ack after a crash
        let receipt = await_answer(&receipt, clamp_wait(self.cfg.ingest_deadline, budget))??;
        Ok(Response::Ack {
            seq: receipt.seq,
            chunks_seen: receipt.chunks_seen,
        })
    }

    fn read(&self, read: Read, budget: Option<Duration>) -> Result<Response, ServeError> {
        let depth = self.queued.load(Ordering::SeqCst);
        self.query(budget, move |core| read.answer(core, depth))
    }

    fn solve_seed(
        &self,
        budget: Option<Duration>,
    ) -> Result<(Vec<f64>, usize, Option<u64>), ServeError> {
        self.query(budget, |core| {
            (core.weights().to_vec(), core.solve_threads(), None)
        })
    }

    fn shutdown_now(&self) -> Result<Response, ServeError> {
        let ack = self.query(None, |core| {
            // best-effort final snapshot; a poisoned (chaos) core refuses
            core.snapshot_now().ok();
            shutdown_ack(core.chunks_seen())
        });
        // ingests admitted before this flag still fold before the worker
        // exits
        self.shutdown.store(true, Ordering::SeqCst);
        ack
    }

    fn cluster(&self, frame: Request, _budget: Option<Duration>) -> Result<Response, ServeError> {
        let kind = match frame {
            Request::RouteTable
            | Request::ShardIngest { .. }
            | Request::ShardTruth { .. }
            | Request::SplitStage { .. }
            | Request::SplitCutover { .. } => "shard",
            _ => "replication",
        };
        Err(ServeError::Protocol(format!(
            "{kind} frame sent to a standalone daemon"
        )))
    }
}

/// A running daemon; dropping the handle shuts it down.
pub struct Server {
    shared: Arc<Shared>,
    addr: std::net::SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    worker_thread: Option<JoinHandle<ServeCore>>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0`) and start serving `core`.
    pub fn start(core: ServeCore, cfg: ServerConfig, addr: &str) -> Result<Self, ServeError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;

        let (jobs, inbox) = mpsc::channel();
        let shared = Arc::new(Shared {
            jobs,
            queued: AtomicUsize::new(0),
            schema: core.schema().clone(),
            cfg,
            shutdown: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
        });

        let worker_thread = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || fold_worker(core, &inbox, &shared))
        };
        let accept_thread = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };

        Ok(Self {
            shared,
            addr: local,
            accept_thread: Some(accept_thread),
            worker_thread: Some(worker_thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Signal shutdown, join the daemon threads, and take a final
    /// snapshot so the next [`ServeCore::open`] starts from a clean disk.
    pub fn shutdown(mut self) {
        if let Some(mut core) = self.stop() {
            // best-effort; a poisoned (chaos) core refuses
            core.snapshot_now().ok();
        }
    }

    /// Stop serving and hand back the core once queued folds drained.
    #[expect(
        clippy::disallowed_methods,
        reason = "shutdown join; the woken worker exits once its bounded backlog of folds drains"
    )]
    fn stop(&mut self) -> Option<ServeCore> {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // wake an idle worker so it sees the flag now
        self.shared.jobs.send(Job::Query(Box::new(|_| {}))).ok();
        if let Some(t) = self.accept_thread.take() {
            #[expect(
                clippy::disallowed_methods,
                reason = "shutdown join; the flag is set, so the loop exits on its next bounded accept tick"
            )]
            t.join().ok();
        }
        self.worker_thread.take().and_then(|t| t.join().ok())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// How long an idle fold worker sleeps before re-checking shutdown.
const IDLE_POLL: Duration = Duration::from_millis(50);

/// Own the core: answer queries between folds and fold queued ingests
/// in arrival order. Returns the core once shutdown is flagged and
/// every admitted ingest has folded.
fn fold_worker(mut core: ServeCore, inbox: &mpsc::Receiver<Job>, shared: &Shared) -> ServeCore {
    let mut backlog = VecDeque::new();
    loop {
        // block only while there is nothing to fold; once shutdown is
        // flagged, drain what was admitted without blocking
        let next = if backlog.is_empty() && !shared.is_shutdown() {
            inbox.recv_timeout(IDLE_POLL).ok()
        } else {
            inbox.try_recv().ok()
        };
        match next {
            Some(Job::Query(query)) => query(&mut core),
            Some(Job::Ingest(fold)) => backlog.push_back(fold),
            None => match backlog.pop_front() {
                Some(fold) => {
                    shared.queued.fetch_sub(1, Ordering::SeqCst);
                    fold(&mut core);
                }
                None if shared.is_shutdown() => return core,
                None => {}
            },
        }
    }
}

// ---------------------------------------------------------------------
// Replicated daemon
// ---------------------------------------------------------------------

/// Tuning for one member of a replicated cluster.
#[derive(Debug, Clone)]
pub struct HaConfig {
    /// Front-end knobs shared with the standalone server.
    pub server: ServerConfig,
    /// Wall-clock duration of one logical replication tick (heartbeats,
    /// election timeouts, and retention pushes are all counted in ticks).
    pub tick: Duration,
    /// `(node_id, address)` of every *other* member.
    pub peer_addrs: Vec<(u32, String)>,
    /// How long an ingest waits for the commit quorum before answering
    /// [`ServeError::NotReplicated`]. The node counts the wait in ticks:
    /// a write not acked by the `ceil(commit_wait / tick)`-th tick (at
    /// least the first) after it was staged expires on that tick, so
    /// expiry lands on a tick boundary. An ack still leaves as soon as
    /// the reply that commits the write has been handled.
    pub commit_wait: Duration,
    /// This member's shard identity in a sharded topology: the shard it
    /// serves plus the bootstrap route table, adopted (and durably
    /// persisted) only while the member's shard-map store is still
    /// empty — after the first cutover the store wins. `None` runs an
    /// unsharded cluster that refuses shard frames with a typed error.
    pub shard: Option<(u32, ShardMap)>,
}

impl Default for HaConfig {
    fn default() -> Self {
        Self {
            server: ServerConfig::default(),
            tick: Duration::from_millis(20),
            peer_addrs: Vec::new(),
            commit_wait: Duration::from_secs(2),
            shard: None,
        }
    }
}

/// A sharded member's routing state: its shard id plus the route table
/// it enforces, backed by the durable per-member map store (the atomic
/// cutover record of the split protocol).
struct ShardState {
    shard: u32,
    map: ShardMap,
    store: ShardMapStore,
}

/// Everything the replica owner thread holds by value.
struct Replica {
    node: ReplicaNode,
    /// Present iff this member serves a shard of a sharded topology.
    shard: Option<ShardState>,
    /// Logical replication time, advanced once per [`HaConfig::tick`].
    now: u64,
    /// Reply channels of the client writes the node holds pending, under
    /// the node's `(epoch, seq)` key.
    replies: BTreeMap<(u64, u64), mpsc::SyncSender<Response>>,
}

fn unsharded() -> ServeError {
    ServeError::Protocol("shard frame sent to an unsharded member".into())
}

fn follower_lag(node: &ReplicaNode) -> Option<u64> {
    (node.role() != Role::Primary).then(|| node.lag())
}

impl Replica {
    /// Stage a client chunk durably (after the shard check, for a
    /// shard-routed write) to wait `ticks` for its quorum, and keep its
    /// reply until the node decides it.
    fn stage(
        &mut self,
        claims: &[ChunkClaim],
        shard_check: Option<(u32, u64)>,
        ticks: u64,
        reply: mpsc::SyncSender<Response>,
    ) {
        let staged = shard_check
            .map_or(Ok(()), |(shard, version)| {
                self.check_shard(shard, version, claims.iter().map(|c| c.object))
            })
            .and_then(|()| {
                self.node
                    .client_ingest(claims, self.now.saturating_add(ticks))
            });
        match staged {
            Ok(key) => {
                self.replies.insert(key, reply);
            }
            Err(e) => {
                reply.try_send(Response::from_error(&e)).ok();
            }
        }
    }

    /// Answer every pending write the node has now decided.
    fn answer_writes(&mut self, stopping: bool) {
        for (key, answer) in self.node.take_decided(self.now, stopping) {
            if let Some(reply) = self.replies.remove(&key) {
                let resp = answer.unwrap_or_else(|e| Response::from_error(&e));
                reply.try_send(resp).ok();
            }
        }
    }

    fn read(&self, read: Read) -> Response {
        follower_wrap(follower_lag(&self.node), read.answer(self.node.core(), 0))
    }

    fn shard_state(&self) -> Result<&ShardState, ServeError> {
        self.shard.as_ref().ok_or_else(unsharded)
    }

    /// Gate a shard-checked frame: it must name this member's shard,
    /// carry the current map version, and (for writes) every claim must
    /// route here under that map — each violation is a distinct typed
    /// refusal the router can act on.
    fn check_shard(
        &self,
        shard: u32,
        map_version: u64,
        objects: impl IntoIterator<Item = u32>,
    ) -> Result<(), ServeError> {
        let st = self.shard_state()?;
        if shard != st.shard {
            return Err(ServeError::WrongShard {
                shard,
                at: st.shard,
            });
        }
        if map_version != st.map.version {
            return Err(ServeError::StaleShardMap {
                got: map_version,
                current: st.map.version,
            });
        }
        for object in objects {
            let owner = st.map.shard_of(object);
            if owner != st.shard {
                return Err(ServeError::WrongShard {
                    shard: owner,
                    at: st.shard,
                });
            }
        }
        Ok(())
    }

    fn route_table(&self) -> Result<Response, ServeError> {
        let st = self.shard_state()?;
        Ok(Response::RouteTable {
            version: st.map.version,
            shard: st.shard,
            ranges: st.map.ranges().to_vec(),
        })
    }

    /// Seed this (virgin) member with the donor's committed state for a
    /// split. Shard- and cluster-key-checked; the node itself refuses
    /// once it holds any state.
    fn split_stage(
        &mut self,
        token: u64,
        shard: u32,
        snapshot: Option<&[u8]>,
        records: &[Vec<u8>],
    ) -> Result<Response, ServeError> {
        let at = self.shard_state()?.shard;
        if token != self.node.cluster_key() {
            return Err(ServeError::Protocol(
                "split-stage frame with a foreign cluster key".into(),
            ));
        }
        if shard != at {
            return Err(ServeError::WrongShard { shard, at });
        }
        let head = self.node.seed_split(snapshot, records)?;
        Ok(Response::Ack {
            seq: head.saturating_sub(1),
            chunks_seen: head,
        })
    }

    /// Adopt a new route table: validate it, refuse regressions and
    /// conflicting same-version tables, persist it through the durable
    /// store (*the* atomic cutover record — a crash before the rename
    /// recovers the old map, after it the new one), then serve under it.
    fn split_cutover(
        &mut self,
        token: u64,
        version: u64,
        ranges: Vec<ShardRange>,
    ) -> Result<Response, ServeError> {
        let key = self.node.cluster_key();
        let st = self.shard.as_mut().ok_or_else(unsharded)?;
        if token != key {
            return Err(ServeError::Protocol(
                "split-cutover frame with a foreign cluster key".into(),
            ));
        }
        let new_map = ShardMap::from_ranges(version, ranges)?;
        if !new_map.shard_ids().contains(&st.shard) {
            return Err(ServeError::Protocol(format!(
                "route table v{version} drops this member's shard {}",
                st.shard
            )));
        }
        if new_map.version < st.map.version {
            return Err(ServeError::StaleShardMap {
                got: new_map.version,
                current: st.map.version,
            });
        }
        if new_map.version == st.map.version {
            if new_map.ranges() == st.map.ranges() {
                // idempotent retry of an already-adopted cutover
                return Ok(Response::Ack {
                    seq: st.map.version,
                    chunks_seen: st.map.version,
                });
            }
            return Err(ServeError::Protocol(format!(
                "conflicting route table at version {version}"
            )));
        }
        st.store.save(&new_map)?;
        st.map = new_map;
        Ok(Response::Ack {
            seq: version,
            chunks_seen: version,
        })
    }
}

struct HaShared {
    tasks: mpsc::Sender<Task<Replica>>,
    schema: Schema,
    cfg: HaConfig,
    shutdown: AtomicBool,
    connections: AtomicUsize,
}

impl HaShared {
    /// Run `f` on the owner thread and wait for its answer.
    fn ask<R: Send + 'static>(
        &self,
        budget: Option<Duration>,
        f: impl FnOnce(&mut Replica) -> R + Send + 'static,
    ) -> Result<R, ServeError> {
        let (task, answer) = task(f);
        self.tasks
            .send(task)
            .map_err(|_| ServeError::ShuttingDown)?;
        await_answer(&answer, clamp_wait(self.cfg.server.io_timeout, budget))
    }

    /// Send a client chunk to the owner to stage and wait for its answer.
    fn write(
        &self,
        claims: Vec<ChunkClaim>,
        budget: Option<Duration>,
        shard_check: Option<(u32, u64)>,
    ) -> Result<Response, ServeError> {
        let wait = clamp_wait(self.cfg.commit_wait, budget);
        let ticks = wait.as_nanos().div_ceil(self.cfg.tick.as_nanos().max(1));
        let ticks = u64::try_from(ticks).unwrap_or(u64::MAX).max(1);
        let (reply, answer) = mpsc::sync_channel(1);
        let stage: Task<Replica> = Box::new(move |r| r.stage(&claims, shard_check, ticks, reply));
        self.tasks
            .send(stage)
            .map_err(|_| ServeError::ShuttingDown)?;
        // the owner answers by the quorum deadline; the slack covers an
        // owner still busy with earlier work when the task arrived
        await_answer(&answer, wait + self.cfg.server.io_timeout)
    }
}

impl FrontEnd for HaShared {
    fn server_cfg(&self) -> &ServerConfig {
        &self.cfg.server
    }
    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
    fn connection_count(&self) -> &AtomicUsize {
        &self.connections
    }
    fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The replicated write path stages its own record.
    fn ingest(
        &self,
        claims: Vec<ChunkClaim>,
        _list: Option<ClaimBytes>,
        budget: Option<Duration>,
    ) -> Result<Response, ServeError> {
        self.write(claims, budget, None)
    }

    /// A non-primary wraps the answer with its staleness bound so the
    /// client knows how far behind the primary it may be.
    fn read(&self, read: Read, budget: Option<Duration>) -> Result<Response, ServeError> {
        self.ask(budget, move |r| r.read(read))
    }

    fn solve_seed(
        &self,
        budget: Option<Duration>,
    ) -> Result<(Vec<f64>, usize, Option<u64>), ServeError> {
        self.ask(budget, |r| {
            let core = r.node.core();
            (
                core.weights().to_vec(),
                core.solve_threads(),
                follower_lag(&r.node),
            )
        })
    }

    fn shutdown_now(&self) -> Result<Response, ServeError> {
        let ack = self.ask(None, |r| {
            r.node.snapshot_now().ok();
            shutdown_ack(r.node.core().chunks_seen())
        });
        self.shutdown.store(true, Ordering::SeqCst);
        ack
    }

    fn cluster(&self, frame: Request, budget: Option<Duration>) -> Result<Response, ServeError> {
        match frame {
            // the frame names its sender; CatchUp/SeqQuery are answered
            // over this connection, so the handler needs no sender id.
            // The node verifies the frame's cluster key before trusting
            // any of it, so a stray client cannot forge these.
            Request::Replicate { node, .. }
            | Request::Heartbeat { node, .. }
            | Request::Promote { node, .. } => {
                self.ask(budget, move |r| r.node.handle(node, &frame, r.now))
            }
            Request::CatchUp { .. } | Request::SeqQuery { .. } => {
                self.ask(budget, move |r| r.node.handle(0, &frame, r.now))
            }
            Request::RouteTable => self.ask(budget, |r| r.route_table())?,
            Request::ShardIngest {
                shard,
                map_version,
                claims,
            } => self.write(claims, budget, Some((shard, map_version))),
            Request::ShardTruth {
                shard,
                map_version,
                object,
                property,
            } => self.ask(budget, move |r| {
                r.check_shard(shard, map_version, [object])?;
                Ok(r.read(Read::Truth { object, property }))
            })?,
            Request::SplitStage {
                token,
                shard,
                snapshot,
                records,
            } => self.ask(budget, move |r| {
                r.split_stage(token, shard, snapshot.as_deref(), &records)
            })?,
            Request::SplitCutover {
                token,
                version,
                ranges,
            } => self.ask(budget, move |r| r.split_cutover(token, version, ranges))?,
            // handle() answers every client request itself
            _ => Err(ServeError::Protocol(
                "client request routed as a cluster frame".into(),
            )),
        }
    }
}

/// One member of a replicated `crh-serve` cluster: a [`ReplicaNode`]
/// state machine behind the same TCP front-end as the standalone
/// [`Server`].
///
/// Threading model:
///
/// - one **owner** thread holds the node and the shard state. It runs
///   every task connection threads and peer senders send it: client
///   writes, reads, replication frames, split stage and cutover, peer
///   replies. It also keeps logical time: it wakes on a task or at the
///   next [`HaConfig::tick`], advances the node, and hands each frame
///   the node emits to a bounded per-peer queue with a non-blocking
///   push;
/// - a client write is staged on the owner and kept pending in the node
///   with a deadline in ticks; the owner holds only its reply channel
///   and sends whatever [`ReplicaNode::take_decided`] returns after
///   every state change;
/// - one **peer sender** thread per peer owns that peer's persistent
///   [`Client`] connection, drains its queue, ships frames, and sends
///   each reply back to the owner. A stalled or black-holing peer
///   therefore delays only its own queue — never heartbeats to the
///   other peers, the tick cadence, or local reads and writes — so one
///   bad peer cannot cause cluster-wide spurious failovers. A full
///   queue simply drops the frame: the protocol retransmits from the
///   follower's acked position on every heartbeat interval, so a drop
///   costs latency, never correctness.
pub struct HaServer {
    shared: Arc<HaShared>,
    addr: std::net::SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    owner_thread: Option<JoinHandle<ReplicaNode>>,
}

impl HaServer {
    /// Open the replica state in `serve` and start serving on `addr`.
    pub fn start(
        replica: ReplicaConfig,
        serve: ServeConfig,
        cfg: HaConfig,
        addr: &str,
    ) -> Result<Self, ServeError> {
        let shard_map_path = serve.dir.join("shard.map");
        let (node, _recovery) = ReplicaNode::open(replica, serve)?;
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;

        // a sharded member recovers its route table from the durable
        // store; the bootstrap map only seeds a store that is still
        // empty (first boot, or a virgin split target)
        let shard = match cfg.shard.clone() {
            Some((shard, bootstrap)) => {
                let store = ShardMapStore::new(shard_map_path);
                let map = match store.load()? {
                    Some(m) => m,
                    None => {
                        store.save(&bootstrap)?;
                        bootstrap
                    }
                };
                Some(ShardState { shard, map, store })
            }
            None => None,
        };

        let (tasks, inbox) = mpsc::channel();
        let shared = Arc::new(HaShared {
            tasks,
            schema: node.core().schema().clone(),
            cfg,
            shutdown: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
        });
        let replica = Replica {
            node,
            shard,
            now: 0,
            replies: BTreeMap::new(),
        };

        let owner_thread = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || replica_owner(replica, inbox, &shared))
        };
        let accept_thread = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };

        Ok(Self {
            shared,
            addr: local,
            accept_thread: Some(accept_thread),
            owner_thread: Some(owner_thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// This member's current role (`Follower` once it has stopped).
    pub fn role(&self) -> Role {
        self.shared
            .ask(None, |r| r.node.role())
            .unwrap_or(Role::Follower)
    }

    /// This member's current epoch (0 once it has stopped).
    pub fn epoch(&self) -> u64 {
        self.shared.ask(None, |r| r.node.epoch()).unwrap_or(0)
    }

    /// Chunks known quorum-committed here (0 once it has stopped).
    pub fn commit(&self) -> u64 {
        self.shared.ask(None, |r| r.node.commit()).unwrap_or(0)
    }

    /// Digest of the folded state (replica-divergence checks; 0 once it
    /// has stopped).
    pub fn state_digest(&self) -> u64 {
        self.shared
            .ask(None, |r| r.node.state_digest())
            .unwrap_or(0)
    }

    /// Signal shutdown, join the daemon threads, and take a final
    /// snapshot so the next open starts from a clean disk.
    pub fn shutdown(mut self) {
        if let Some(mut node) = self.stop() {
            node.snapshot_now().ok();
        }
    }

    /// Stop serving and hand back the node.
    #[expect(
        clippy::disallowed_methods,
        reason = "shutdown join; the woken owner answers its waiting writes and joins its peer senders, each bounded by the io timeout"
    )]
    fn stop(&mut self) -> Option<ReplicaNode> {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // wake the owner so it sees the flag now
        self.shared.tasks.send(Box::new(|_| {})).ok();
        if let Some(t) = self.accept_thread.take() {
            #[expect(
                clippy::disallowed_methods,
                reason = "shutdown join; the flag is set, the accept loop exits on its next bounded accept tick"
            )]
            t.join().ok();
        }
        self.owner_thread.take().and_then(|t| t.join().ok())
    }
}

impl Drop for HaServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Frames buffered per peer between the owner and that peer's sender
/// thread. Sized to ride out a few slow ticks; overflow drops frames,
/// which the heartbeat-driven retransmit protocol absorbs.
const PEER_QUEUE_CAP: usize = 64;

/// Own the replica: run tasks as they arrive, advance logical time every
/// tick and fan the frames the node emits out to the per-peer sender
/// threads, and answer waiting writes once decided. This thread never
/// touches a socket, so no peer can stall it. Returns the node once
/// shutdown is flagged.
#[expect(
    clippy::disallowed_methods,
    reason = "wall-clock only paces the owner's ticks and bounds its waits; the node sees logical time (`r.now`), so replay never reads it"
)]
fn replica_owner(
    mut r: Replica,
    inbox: mpsc::Receiver<Task<Replica>>,
    shared: &Arc<HaShared>,
) -> ReplicaNode {
    let mut peers = BTreeMap::new();
    let mut senders = Vec::new();
    for (dest, addr) in shared.cfg.peer_addrs.clone() {
        let (tx, rx) = mpsc::sync_channel::<(u64, Request)>(PEER_QUEUE_CAP);
        let shared = Arc::clone(shared);
        senders.push(std::thread::spawn(move || {
            peer_sender(&shared, dest, &addr, &rx);
        }));
        peers.insert(dest, tx);
    }
    let mut next_tick = Instant::now() + shared.cfg.tick;
    while !shared.is_shutdown() {
        if let Ok(task) = inbox.recv_timeout(next_tick.saturating_duration_since(Instant::now())) {
            task(&mut r);
        }
        if Instant::now() >= next_tick {
            r.now += 1;
            // a failed fold inside tick() leaves nothing to ship this round
            for (dest, req) in r.node.tick(r.now).unwrap_or_default() {
                if let Some(tx) = peers.get(&dest) {
                    // non-blocking: a stalled peer's full queue drops the
                    // frame; the next heartbeat interval re-ships from
                    // the follower's acked position
                    tx.try_send((r.now, req)).ok();
                }
            }
            next_tick = Instant::now() + shared.cfg.tick;
        }
        r.answer_writes(false);
    }
    r.answer_writes(true);
    // tasks still queued are dropped with the inbox, ending their waits
    drop(inbox);
    // closing the queues wakes the sender threads so they can exit
    drop(peers);
    for s in senders {
        #[expect(
            clippy::disallowed_methods,
            reason = "shutdown join; the dropped queues wake each sender, and an in-flight call is bounded by the io timeout"
        )]
        s.join().ok();
    }
    r.node
}

/// Own one peer's connection: drain its frame queue, ship each frame,
/// and send the reply back to the owner. Connection failures are
/// silence (exactly like the simulator's dropped frames); the thread
/// reconnects on the next frame.
fn peer_sender(shared: &HaShared, dest: u32, addr: &str, rx: &mpsc::Receiver<(u64, Request)>) {
    let mut conn: Option<Client> = None;
    loop {
        let (now, req) = match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(x) => x,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if shared.is_shutdown() {
                    return;
                }
                continue;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        };
        if shared.is_shutdown() {
            return;
        }
        if conn.is_none() {
            conn = Client::connect(addr, shared.cfg.server.io_timeout).ok();
        }
        let Some(c) = conn.as_mut() else {
            continue; // dead peer: drop the frame, retry on the next one
        };
        match c.call_raw(&req) {
            Ok(resp) => {
                let reply: Task<Replica> = Box::new(move |r| {
                    r.node.on_reply(dest, &resp, now).ok();
                });
                shared.tasks.send(reply).ok();
            }
            Err(_) => {
                // broken connection; reconnect for the next frame
                conn = None;
            }
        }
    }
}
