//! `serve_small` / `serve_large` / `serve_replicated`: the `crh-serve`
//! daemon over loopback TCP, as one server or as a three-member
//! replicated group.
//!
//! An operation is one client sending one day's chunk (`Ingest`: queue,
//! WAL append + fsync, I-CRH fold, truth-cache update, snapshot cadence;
//! in a group also shipping the record to the followers and waiting for
//! the commit quorum) and then reading back one of the chunk's truths
//! (`Truth`): the time from a claim arriving to its truth being
//! readable. One client, closed loop. After the run, the chunks are
//! folded again through a local `ICrhState` and every truth the daemon
//! answered must equal the library's.
//!
//! The traced run also repeats each operation's layers in this process,
//! on the same bytes and the same chunk: frame encode/decode, a WAL
//! append on a separate log, and the fold through [`Mirror`]. What the
//! round trips spend beyond those layers — socket hops, the queue
//! hand-off, replication and the quorum wait, the truth cache and the
//! snapshot cadence — is reported as unattributed.

use std::net::TcpListener;
use std::path::Path;
use std::time::{Duration, Instant};

use crh_core::ids::{ObjectId, PropertyId};
use crh_core::schema::Schema;
use crh_core::table::ObservationTable;
use crh_core::value::Truth;
use crh_serve::proto::{Request, Response};
use crh_serve::{
    ChunkClaim, Client, HaConfig, HaServer, ReplicaConfig, Role, ServeConfig, ServeCore, Server,
    ServerConfig, Vfs, Wal,
};

use crate::gen::{self, Score, Weather};
use crate::measure::{closed_loop, span, Outcome, Trace};
use crate::stream::{session, Mirror, ALPHA};
use crate::Args;

/// Days generated; the chunks cycle through them.
const DAYS: usize = 4000;
const WARMUP: usize = 20;
/// Cities per chunk from which I-CRH is expected to beat voting.
const LEARNING_CITIES: usize = 20;
/// The daemon's default snapshot cadence, repeated by the traced WAL.
const SNAPSHOT_EVERY: u64 = 8;
/// Replication tick of the group: heartbeats and record pushes go out
/// every tick, so it bounds how long a staged chunk waits to be shipped.
const TICK: Duration = Duration::from_millis(1);
/// Ticks of silence before member 0 campaigns: it opens the group's
/// first election after about 250 ms. The default of 5 ticks would
/// depose a primary on any 5 ms host stall, and an fsync on a busy
/// shared disk can stall it for tens of ms.
const FIRST_CANDIDATE_TIMEOUT: u64 = 250;
/// Ticks of primary silence before any other member campaigns. The
/// default 2-tick id stagger is shorter than one accept poll (5 ms), so
/// member 1 could campaign before member 0's win reached it, win a later
/// epoch and depose the primary the client had just found. Waiting four
/// times longer leaves member 0 the only candidate of the first election.
const FOLLOWER_TIMEOUT: u64 = 1000;
/// How long set-up waits for a group to elect its primary.
const ELECTION_WAIT: Duration = Duration::from_secs(10);
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// The daemon under test and the client connected to it.
enum Daemon {
    Single(Server, Client),
    /// A replicated group; the client talks to the primary.
    Group(Vec<HaServer>, Client),
}

impl Daemon {
    /// Start a daemon of `replicas` members on fresh state directories
    /// under `dir` and connect one client: the set-up `setup_s` times.
    /// The first request on a connection can wait up to one accept-poll
    /// interval (5 ms) for the server to pick the connection up; that
    /// wait falls in the untimed warm-up.
    fn start(dir: &Path, schema: &Schema, replicas: usize) -> Result<Self, String> {
        let serve =
            |d: &Path| ServeConfig::new(schema.clone(), ALPHA, d.to_path_buf()).solve_threads(1);
        if replicas == 1 {
            let (core, _) = ServeCore::open(serve(dir)).map_err(|e| e.to_string())?;
            let server = Server::start(core, ServerConfig::default(), "127.0.0.1:0")
                .map_err(|e| e.to_string())?;
            let client =
                Client::connect(server.addr(), CLIENT_TIMEOUT).map_err(|e| e.to_string())?;
            return Ok(Self::Single(server, client));
        }
        // every member must know the others' addresses before it starts
        let reserved = (0..replicas)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let addrs = reserved
            .iter()
            .map(|l| l.local_addr().map(|a| a.to_string()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        drop(reserved);
        let ids: Vec<u32> = (0..replicas as u32).collect();
        let mut members = Vec::new();
        for (id, addr) in ids.iter().zip(&addrs) {
            let ha = HaConfig {
                tick: TICK,
                peer_addrs: ids
                    .iter()
                    .zip(&addrs)
                    .filter(|(peer, _)| *peer != id)
                    .map(|(peer, a)| (*peer, a.clone()))
                    .collect(),
                ..HaConfig::default()
            };
            let replica = ReplicaConfig {
                heartbeat_timeout: if *id == 0 {
                    FIRST_CANDIDATE_TIMEOUT
                } else {
                    FOLLOWER_TIMEOUT
                },
                ..ReplicaConfig::new(*id, &ids)
            };
            let member =
                HaServer::start(replica, serve(&dir.join(format!("member{id}"))), ha, addr)
                    .map_err(|e| e.to_string())?;
            members.push(member);
        }
        // ready once one member is primary and every other member follows
        // it in the same epoch, so the first ingest cannot meet a reign
        // that is about to end
        let elected = Instant::now();
        let primary = loop {
            let primaries: Vec<_> = members
                .iter()
                .filter(|m| m.role() == Role::Primary)
                .collect();
            if let [p] = primaries[..] {
                let settled = members.iter().all(|m| {
                    m.epoch() == p.epoch() && (m.role() == Role::Follower || m.addr() == p.addr())
                });
                if settled {
                    break p.addr();
                }
            }
            if elected.elapsed() > ELECTION_WAIT {
                return Err("the group settled on no primary".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let client = Client::connect(primary, CLIENT_TIMEOUT).map_err(|e| e.to_string())?;
        Ok(Self::Group(members, client))
    }

    fn client(&mut self) -> &mut Client {
        match self {
            Self::Single(_, c) | Self::Group(_, c) => c,
        }
    }

    /// For a group: whether every member, once it has caught up with the
    /// primary's commit, holds the same folded state.
    fn replicas_agree(&self) -> bool {
        let Self::Group(members, _) = self else {
            return true;
        };
        let commit = members.iter().map(HaServer::commit).max().unwrap_or(0);
        let waited = Instant::now();
        while members.iter().any(|m| m.commit() < commit) && waited.elapsed() < ELECTION_WAIT {
            std::thread::sleep(Duration::from_millis(1));
        }
        let digest = members.first().map(HaServer::state_digest);
        members
            .iter()
            .all(|m| m.commit() == commit && Some(m.state_digest()) == digest)
    }

    fn shutdown(self) {
        match self {
            Self::Single(server, client) => {
                drop(client);
                server.shutdown();
            }
            Self::Group(members, client) => {
                drop(client);
                for m in members {
                    m.shutdown();
                }
            }
        }
    }
}

/// What the client saw for one operation.
struct Seen {
    chunk: usize,
    object: u32,
    property: u32,
    truth: Option<Truth>,
}

/// The cell an operation reads back: the chunk's first object, the
/// property rotating with the operation index.
fn cell(chunk: &[ChunkClaim], i: usize, properties: usize) -> (u32, u32) {
    let object = chunk.first().map_or(0, |c| c.object);
    (object, (i % properties) as u32)
}

/// Run a daemon workload: chunks of `cities` cities (one day each) into
/// a daemon of `replicas` members.
pub fn run(args: &Args, cities: usize, replicas: usize, work: &Path) -> Result<Outcome, String> {
    let weather = Weather::new(args.seed, cities, DAYS / cities)?;
    let chunks = &weather.days;
    let baselines: Vec<Score> = chunks.iter().map(|c| weather.baseline(c)).collect();
    let schema = weather.schema.clone();
    let properties = schema.num_properties();
    std::fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;

    // the group's latency and set-up are mostly timer sleeps (commit-wait
    // poll, replication tick, election timeout), which do not speed up
    // with the host, so its times are reported as measured
    let mut out = Outcome::new(replicas == 1);
    let mut daemon = None;
    while out.setup_due() {
        let dir = work.join(format!("daemon{}", out.setups()));
        let started = out.time_setup(|| Daemon::start(&dir, &schema, replicas))?;
        if let Some(old) = daemon.replace(started) {
            old.shutdown();
        }
    }
    let mut daemon = daemon.ok_or("no set-up ran")?;
    let mut seen = Vec::new();

    // traced-only state: the mirrored fold, its WAL and their checks
    let mut mirror = Mirror::new();
    let mut wal = None;
    if args.trace {
        let vfs = Vfs::passthrough();
        let (w, _) = Wal::open(work.join("traced.wal"), &vfs).map_err(|e| e.to_string())?;
        wal = Some(w);
    }
    let mut trace_mismatch = 0u64;
    let mut seq_mismatch = 0u64;

    let mut op = |i: usize, trace: &mut Trace| -> Result<_, String> {
        let j = i % chunks.len();
        let chunk = &chunks[j];
        let (object, property) = cell(chunk, i, properties);
        let input = chunk.clone();
        let client = daemon.client();
        let t = Instant::now();
        let (seq, _) = client.ingest(input).map_err(|e| e.to_string())?;
        let acked = t.elapsed();
        let truth = client.truth(object, property).map_err(|e| e.to_string())?;
        let lat = t.elapsed();
        trace.ingest_rtt += acked.as_secs_f64();
        trace.read_rtt += (lat - acked).as_secs_f64();
        seq_mismatch += u64::from(seq != i as u64);
        if let Some(wal) = wal.as_mut() {
            // the layers again, in this process, on the same input
            let request = Request::Ingest(chunk.clone());
            let bytes = span(&mut trace.wire_codec, || {
                let bytes = request.encode();
                let read = Request::encode(&Request::Truth { object, property });
                let decoded = Request::decode(&bytes).and(Request::decode(&read));
                let ack = Response::Ack {
                    seq,
                    chunks_seen: seq + 1,
                }
                .encode();
                let answer = Response::Truth(truth.clone()).encode();
                decoded
                    .and(Response::decode(&ack))
                    .and(Response::decode(&answer))
                    .map(|_| bytes)
            })
            .map_err(|e| e.to_string())?;
            span(&mut trace.wal_append, || wal.append(&bytes)).map_err(|e| e.to_string())?;
            if (seq + 1) % SNAPSHOT_EVERY == 0 {
                wal.rotate(work.join("traced.prev.wal"))
                    .map_err(|e| e.to_string())?;
            }
            let (table, truths) = mirror.fold(&schema, gen::claims_of(chunk), trace)?;
            let local = table
                .entry_id(ObjectId(object), PropertyId(property))
                .map(|e| truths.get(e).clone());
            trace_mismatch += u64::from(local != truth);
        }
        seen.push(Seen {
            chunk: j,
            object,
            property,
            truth,
        });
        Ok((lat, chunk.len() as u64))
    };
    for i in 0..WARMUP {
        op(i, &mut Trace::default())?;
    }
    closed_loop(args.seconds, WARMUP, &mut out, &mut op);
    let agree = daemon.replicas_agree();
    daemon.shutdown();

    // fold the same chunk sequence locally; the daemon must agree
    let mut state = session()?;
    let (mut score, mut base) = (Score::default(), Score::default());
    let mut answers_differ = 0u64;
    for s in &seen {
        let claims = gen::claims_of(&chunks[s.chunk]);
        let table =
            ObservationTable::from_claims(schema.clone(), claims).map_err(|e| e.to_string())?;
        let truths = state.process_chunk(&table).map_err(|e| e.to_string())?;
        let local = table
            .entry_id(ObjectId(s.object), PropertyId(s.property))
            .map(|e| truths.get(e).clone());
        answers_differ += u64::from(local.is_none() || local != s.truth);
        score.add(&weather.score(&table, &truths));
        base.add(&baselines[s.chunk]);
    }
    // I-CRH needs a few dozen objects per chunk to learn source weights:
    // on one-object chunks, whichever source leads early fits the truth,
    // scores zero loss and keeps the lead, so accuracy and the source
    // ranking are checked only on chunks large enough to learn from
    let learns = cities >= LEARNING_CITIES;
    let accurate = !learns || score.beats(&base);
    let ranked = !learns || weather.ranks_sources(state.weights());
    let complete = out.failed == 0 && seq_mismatch == 0;
    for (bad, what) in [
        (
            answers_differ > 0,
            format!("{answers_differ} daemon answers differ from the library"),
        ),
        (
            trace_mismatch > 0,
            format!("{trace_mismatch} traced folds differ from the daemon"),
        ),
        (
            !complete,
            format!(
                "{} failed operations, {seq_mismatch} out-of-order acks",
                out.failed
            ),
        ),
        (
            !agree,
            "the group's members do not hold the same state".into(),
        ),
        (
            !accurate,
            format!("I-CRH does not beat voting / the median: {score:?} vs {base:?}"),
        ),
        (
            !ranked,
            "final weights do not rank the reliable sources first".into(),
        ),
    ] {
        if bad {
            eprintln!("serve: {what}");
        }
    }
    out.correct =
        answers_differ == 0 && trace_mismatch == 0 && complete && agree && accurate && ranked;
    Ok(out)
}
