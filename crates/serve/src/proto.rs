//! The daemon's length-prefixed wire protocol.
//!
//! Frames are symmetric in both directions:
//!
//! ```text
//! frame := len:u32 LE | crc32:u32 LE | payload[len]
//! ```
//!
//! with `len` capped at [`MAX_FRAME_BYTES`] so a hostile or broken peer
//! cannot make the daemon allocate unboundedly. Payloads are tagged
//! unions encoded with the same [`Enc`]/[`Dec`] codec as every durable
//! artefact in the workspace — bit-exact `f64`s, length-prefixed
//! strings, no text parsing on the hot path. Any framing or decoding
//! failure is a typed [`ServeError::Protocol`]; the daemon answers what
//! it can and drops the connection rather than panicking.

use std::io::{ErrorKind, IoSlice, Read, Write};

use crh_core::persist::{crc32, Dec, Enc};
use crh_core::value::{Truth, Value};

use crate::core::ChunkClaim;
use crate::error::ServeError;
use crate::shard::ShardRange;

/// Upper bound on a single frame's payload (16 MiB).
pub const MAX_FRAME_BYTES: u32 = 16 << 20;

/// One wire type: how a field of this type is written and read. Every
/// frame field, the WAL chunk record and the shard map are built from
/// these impls, so each wire type is encoded in exactly one place. The
/// non-generic impls are `#[inline]` so they inline into the list loops
/// across codegen units; without it, decoding a 5k-claim chunk ran about
/// 1.8x slower than the hand-written codec it replaced.
pub(crate) trait Wire: Sized {
    /// Append `self` to `e`.
    fn enc(&self, e: &mut Enc);
    /// Read one value from `d`.
    fn dec(d: &mut Dec) -> Result<Self, ServeError>;

    /// `self` encoded on its own.
    fn to_wire(&self) -> Vec<u8> {
        let mut e = Enc::new();
        self.enc(&mut e);
        e.into_bytes()
    }
}

/// Element types that travel in `u32`-counted lists.
pub(crate) trait Listed: Wire {}

/// `Wire` for the types [`Enc`]/[`Dec`] already encode, under the same
/// method name on both sides; `*` passes a `Copy` value by value.
macro_rules! wire_via_persist {
    ($($ty:ty => $method:ident($($deref:tt)?)),* $(,)?) => {$(
        impl Wire for $ty {
            #[inline]
            fn enc(&self, e: &mut Enc) {
                e.$method($($deref)? self)
            }
            #[inline]
            fn dec(d: &mut Dec) -> Result<Self, ServeError> {
                Ok(d.$method()?)
            }
        }
    )*};
}

wire_via_persist! {
    u8 => u8(*),
    u32 => u32(*),
    u64 => u64(*),
    f64 => f64(*),
    String => str(),
    Vec<u8> => bytes(),
    Vec<f64> => f64s(),
    Value => value(),
    Truth => truth(),
}

/// `Wire` for a struct whose fields go on the wire in the listed order;
/// such structs also travel in lists.
macro_rules! wire_struct {
    ($($ty:ident { $($field:ident),* })*) => {$(
        impl $crate::proto::Wire for $ty {
            #[inline]
            fn enc(&self, e: &mut ::crh_core::persist::Enc) {
                $($crate::proto::Wire::enc(&self.$field, e);)*
            }
            #[inline]
            fn dec(
                d: &mut ::crh_core::persist::Dec,
            ) -> Result<Self, $crate::error::ServeError> {
                Ok(Self { $($field: $crate::proto::Wire::dec(d)?),* })
            }
        }
        impl $crate::proto::Listed for $ty {}
    )*};
}

pub(crate) use wire_struct;

wire_struct! {
    ChunkClaim { object, property, source, value }
    ShardRange { shard, start, end }
}

impl Listed for u32 {}
impl Listed for Vec<u8> {}

/// Append a `u32`-counted list (the [`Wire`] encoding of `Vec<T>`). Room
/// for the rest is reserved at the first item's size, so a list of
/// fixed-size items grows the buffer once.
pub(crate) fn enc_list<T: Listed>(items: &[T], e: &mut Enc) {
    e.u32(items.len() as u32);
    let Some((first, rest)) = items.split_first() else {
        return;
    };
    let before = e.len();
    first.enc(e);
    e.reserve((e.len() - before) * rest.len());
    for x in rest {
        x.enc(e);
    }
}

impl<T: Listed> Wire for Vec<T> {
    fn enc(&self, e: &mut Enc) {
        enc_list(self, e);
    }
    fn dec(d: &mut Dec) -> Result<Self, ServeError> {
        let n = d.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            out.push(T::dec(d)?);
        }
        Ok(out)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn enc(&self, e: &mut Enc) {
        match self {
            None => e.u8(0),
            Some(x) => {
                e.u8(1);
                x.enc(e);
            }
        }
    }
    fn dec(d: &mut Dec) -> Result<Self, ServeError> {
        match d.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::dec(d)?)),
            tag => Err(ServeError::Protocol(format!("bad option tag {tag}"))),
        }
    }
}

/// The deadline envelope: the wrapped request travels as a byte string.
impl Wire for Box<Request> {
    fn enc(&self, e: &mut Enc) {
        e.bytes(&self.encode());
    }
    fn dec(d: &mut Dec) -> Result<Self, ServeError> {
        let inner = Request::decode(&d.bytes()?)?;
        if matches!(inner, Request::WithDeadline { .. }) {
            // one budget per request: a nested wrapper would let the
            // inner frame smuggle a larger budget past every hop that
            // already decremented the outer one
            return Err(ServeError::Protocol("nested deadline wrapper".into()));
        }
        Ok(Box::new(inner))
    }
}

/// An `Ingest` frame's claim list in the bytes it arrived in: the frame
/// payload and the offset where the list starts. The codec is canonical
/// (one encoding per value), so these bytes are exactly what
/// [`enc_list`] writes for the decoded claims, and a WAL record can be
/// `seq` followed by them with nothing encoded again.
#[derive(Debug)]
pub(crate) struct ClaimBytes {
    frame: Vec<u8>,
    start: usize,
}

impl ClaimBytes {
    /// The claim list of `frame`, the payload `req` was decoded from, when
    /// `req` is an `Ingest`, plain or inside the deadline envelope. The
    /// list runs to the end of the frame either way: decoding consumed
    /// every byte, and the envelope's inner request is its last field.
    pub(crate) fn of(req: &Request, frame: Vec<u8>) -> Option<Self> {
        const TAG: usize = 1;
        // budget_ms, then the inner request's byte-string length
        const ENVELOPE: usize = TAG + 8 + 8;
        let start = match req {
            Request::Ingest(_) => TAG,
            Request::WithDeadline { inner, .. } if matches!(**inner, Request::Ingest(_)) => {
                ENVELOPE + TAG
            }
            _ => return None,
        };
        Some(Self { frame, start })
    }

    /// The encoded claim list.
    pub(crate) fn as_slice(&self) -> &[u8] {
        self.frame.get(self.start..).unwrap_or_default()
    }
}

/// Decode all of `bytes` with `read`; leftover bytes are a typed
/// protocol error naming `what`.
pub(crate) fn decode_exact<T>(
    bytes: &[u8],
    what: &str,
    read: impl FnOnce(&mut Dec) -> Result<T, ServeError>,
) -> Result<T, ServeError> {
    let mut d = Dec::new(bytes);
    let out = read(&mut d)?;
    if !d.is_exhausted() {
        return Err(ServeError::Protocol(format!("trailing bytes after {what}")));
    }
    Ok(out)
}

/// The frame table. Each row declares one variant once — doc comment,
/// tag and fields — and the enum, `encode`, `decode` and `TAGS` are all
/// generated from it, so adding a frame is adding one row. Fields go on
/// the wire in declaration order through their [`Wire`] impls. `decode`
/// denies unreachable patterns, so two rows sharing a tag fail the build.
macro_rules! frames {
    ($(
        $(#[$meta:meta])*
        pub enum $family:ident {$(
            $(#[$vmeta:meta])*
            $tag:literal => $variant:ident
                $(($one:ident: $one_ty:ty))?
                $({$($(#[$fmeta:meta])* $field:ident: $field_ty:ty),* $(,)?})?
        ),* $(,)?}
    )*) => {$(
        $(#[$meta])*
        pub enum $family {$(
            $(#[$vmeta])*
            $variant $(($one_ty))? $({$($(#[$fmeta])* $field: $field_ty),*})?
        ),*}

        impl $family {
            /// Every tag this family puts on the wire, in declaration order.
            pub const TAGS: &'static [u8] = &[$($tag),*];

            /// Encode to a frame payload.
            pub fn encode(&self) -> Vec<u8> {
                let mut e = Enc::new();
                match self {$(
                    Self::$variant $(($one))? $({$($field),*})? => {
                        e.u8($tag);
                        $($one.enc(&mut e);)?
                        $($($field.enc(&mut e);)*)?
                    }
                )*}
                e.into_bytes()
            }

            /// Decode from a frame payload.
            #[deny(unreachable_patterns)]
            pub fn decode(bytes: &[u8]) -> Result<Self, ServeError> {
                let what = stringify!($family);
                decode_exact(bytes, what, |d| {
                    Ok(match d.u8()? {
                        $($tag => Self::$variant
                            $((<$one_ty as Wire>::dec(d)?))?
                            $({$($field: <$field_ty as Wire>::dec(d)?),*})?,)*
                        tag => {
                            let msg = format!("unknown {what} tag {tag}");
                            return Err(ServeError::Protocol(msg));
                        }
                    })
                })
            }
        }
    )*};
}

frames! {
    /// A client request.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Request {
        /// Fold one chunk of claims into the model.
        0 => Ingest(claims: Vec<ChunkClaim>),
        /// Fold one chunk given as CSV text with rows
        /// `object,property_name,source,value` (categorical labels are
        /// resolved against the daemon's schema, never interned).
        1 => IngestCsv(text: String),
        /// Read the current source weights.
        2 => Weights,
        /// Read the cached truth for one (object, property) cell.
        3 => Truth {
            /// The object id.
            object: u32,
            /// The property id.
            property: u32,
        },
        /// Read the daemon's operational status.
        4 => Status,
        /// Run a batch CRH solve over ad-hoc claims, seeded from the
        /// daemon's current weights.
        5 => Solve {
            /// Convergence tolerance.
            tol: f64,
            /// Iteration cap.
            max_iters: u64,
            /// The claims to solve over.
            claims: Vec<ChunkClaim>,
        },
        /// Ask the daemon to snapshot and exit cleanly.
        6 => Shutdown,
        /// Primary → follower: ship one WAL record. `record` is the same
        /// CRC-framed chunk payload the primary appended to its own log;
        /// `commit` lets the follower fold everything the quorum has fsync'd.
        7 => Replicate {
            /// Shared cluster key; frames with the wrong key are refused.
            token: u64,
            /// The primary's election epoch.
            epoch: u64,
            /// The sending primary's node id.
            node: u32,
            /// The record's sequence number.
            seq: u64,
            /// Highest quorum-fsync'd sequence (exclusive fold bound).
            commit: u64,
            /// The WAL record payload.
            record: Vec<u8>,
        },
        /// Primary → follower: liveness + commit propagation when there is
        /// nothing to ship.
        8 => Heartbeat {
            /// Shared cluster key; frames with the wrong key are refused.
            token: u64,
            /// The primary's election epoch.
            epoch: u64,
            /// The sending primary's node id.
            node: u32,
            /// Highest quorum-fsync'd sequence.
            commit: u64,
            /// The primary's own durable sequence (for follower lag).
            head: u64,
        },
        /// Follower → primary: request records from `from` onward (the
        /// follower detected a gap or is rejoining after a partition).
        9 => CatchUp {
            /// Shared cluster key; frames with the wrong key are refused.
            token: u64,
            /// The requester's epoch.
            epoch: u64,
            /// First missing sequence number.
            from: u64,
        },
        /// Election winner → everyone: announce the new primary for `epoch`.
        10 => Promote {
            /// Shared cluster key; frames with the wrong key are refused.
            token: u64,
            /// The new (strictly higher) epoch.
            epoch: u64,
            /// The winning node id.
            node: u32,
            /// The winner's durable sequence at promotion.
            head: u64,
        },
        /// Election probe: ask a peer for its durable sequence so the
        /// candidate set can be ranked deterministically.
        11 => SeqQuery {
            /// Shared cluster key; frames with the wrong key are refused.
            token: u64,
            /// The candidate's current epoch.
            epoch: u64,
        },
        /// Router → any shard member: fetch the member's current shard map
        /// so a client with a stale route table can re-route after a
        /// split/cutover.
        12 => RouteTable,
        /// Router → shard primary: fold one chunk of claims, all of which
        /// hash into `shard`'s entry range. Refused with `WRONG_SHARD` on a
        /// misdelivery and `STALE_SHARD_MAP` when `map_version` predates the
        /// member's map, so a routing error can never fold claims into the
        /// wrong group.
        13 => ShardIngest {
            /// The shard the sender believes it is addressing.
            shard: u32,
            /// The shard-map version the routing decision was made under.
            map_version: u64,
            /// The claims to fold.
            claims: Vec<ChunkClaim>,
        },
        /// Router → shard member: read one cell's truth, shard-checked the
        /// same way as [`Request::ShardIngest`].
        14 => ShardTruth {
            /// The shard the sender believes owns the cell.
            shard: u32,
            /// The shard-map version the routing decision was made under.
            map_version: u64,
            /// The object id.
            object: u32,
            /// The property id.
            property: u32,
        },
        /// Split coordinator → virgin member of a *new* shard group: install
        /// the donor's snapshot and catch-up records before the group opens.
        /// Only accepted by an empty replica (nothing staged, nothing
        /// folded), so a misdelivery can never overwrite live state.
        15 => SplitStage {
            /// Shared cluster key; frames with the wrong key are refused.
            token: u64,
            /// The shard this member will serve after cutover.
            shard: u32,
            /// Donor full-state snapshot, installed first when present.
            snapshot: Option<Vec<u8>>,
            /// Donor WAL record payloads, consecutive by sequence.
            records: Vec<Vec<u8>>,
        },
        /// Split coordinator → every member: atomically adopt the
        /// post-split shard map. Each member persists the map before
        /// answering, so the cutover survives any crash after the ack.
        16 => SplitCutover {
            /// Shared cluster key; frames with the wrong key are refused.
            token: u64,
            /// The new map version (must exceed the member's current).
            version: u64,
            /// The complete post-split range table.
            ranges: Vec<ShardRange>,
        },
        /// Any request, wrapped with the client's remaining deadline budget.
        /// Each hop decrements the budget by what it spends before
        /// forwarding; a hop that cannot finish inside the remainder refuses
        /// with a typed `DEADLINE` error *before* doing the work, so no
        /// caller pays for an answer it already gave up on. A budget of 0 is
        /// a valid frame that every hop must refuse.
        17 => WithDeadline {
            /// Remaining budget in milliseconds.
            budget_ms: u64,
            /// The wrapped request. Never itself a `WithDeadline` — nesting
            /// is a typed protocol error at decode.
            inner: Box<Request>,
        },
        /// A minimal liveness/latency round-trip: answered immediately with
        /// [`Response::ProbeAck`], bypassing the ingest queue. Health
        /// scoring uses it to re-measure a quarantined peer without betting
        /// real traffic on it.
        18 => Probe {
            /// Echo nonce tying the ack to this probe.
            nonce: u64,
        },
    }

    /// A daemon response.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Response {
        /// The chunk was accepted and folded.
        0 => Ack {
            /// Sequence number assigned to the chunk.
            seq: u64,
            /// Chunks folded so far.
            chunks_seen: u64,
        },
        /// Current source weights.
        1 => Weights(weights: Vec<f64>),
        /// Cached truth, if resident.
        2 => Truth(truth: Option<Truth>),
        /// Operational status.
        3 => Status {
            /// Chunks folded into the model.
            chunks_seen: u64,
            /// WAL records since the last snapshot.
            wal_records: u64,
            /// Entries in the truth cache.
            cached_truths: u64,
            /// Ingest requests currently queued.
            queue_depth: u64,
            /// Quarantined sources, ascending.
            quarantined: Vec<u32>,
        },
        /// Batch solve result.
        4 => Solved {
            /// Converged weights.
            weights: Vec<f64>,
            /// Final objective value.
            objective: f64,
            /// Iterations used.
            iterations: u64,
        },
        /// A typed failure (see [`crate::error::code`]).
        255 => Error {
            /// Stable wire code.
            code: u8,
            /// Human-readable message.
            message: String,
            /// Structured redirect target for `NOT_PRIMARY`: the node id of
            /// the primary, when the refusing node knows it. Carried here —
            /// not parsed out of `message` — so rewording the error text can
            /// never break failover redirects.
            hint: Option<u32>,
        },
        /// Acknowledgement of a replication message (`Replicate`,
        /// `Heartbeat`, `SeqQuery`, or `Promote`): the responder's identity,
        /// epoch, and durable sequence.
        5 => ReplAck {
            /// The responding node id.
            node: u32,
            /// The responder's epoch (a higher epoch deposes the sender).
            epoch: u64,
            /// The responder's durable (fsync'd) sequence — for a replication
            /// ack this is how far the log is verified consistent with the
            /// current primary; for an election probe it is the raw durable
            /// count.
            durable: u64,
            /// The epoch of the responder's last durable record (election
            /// ranking: a log from a newer epoch beats a longer stale one).
            last_epoch: u64,
        },
        /// Catch-up payload: records from the requested sequence onward,
        /// preceded by a full snapshot when the request predates the
        /// primary's retention window.
        6 => CatchUpRecords {
            /// The primary's epoch.
            epoch: u64,
            /// Highest quorum-fsync'd sequence.
            commit: u64,
            /// Full-state snapshot payload, when retention cannot cover the
            /// request; the follower installs it before applying `records`.
            snapshot: Option<Vec<u8>>,
            /// WAL record payloads, consecutive by sequence.
            records: Vec<Vec<u8>>,
        },
        /// A follower's answer to a read: the inner encoded [`Response`] plus
        /// the staleness bound (how many chunks the follower lags the
        /// primary's last advertised head).
        7 => FollowerRead {
            /// Staleness bound in chunks.
            lag: u64,
            /// The encoded inner response.
            inner: Vec<u8>,
        },
        /// A shard member's current route table, for
        /// [`Request::RouteTable`].
        8 => RouteTable {
            /// The member's shard-map version.
            version: u64,
            /// The shard this member serves.
            shard: u32,
            /// The complete range table, sorted and contiguous.
            ranges: Vec<ShardRange>,
        },
        /// Answer to [`Request::Probe`]: the nonce, echoed.
        9 => ProbeAck {
            /// The probe's nonce.
            nonce: u64,
        },
    }
}

impl Response {
    /// The response the daemon sends for a failed request. A
    /// `NotPrimary` refusal carries its redirect target as the
    /// structured `hint` field, never just prose.
    pub fn from_error(e: &ServeError) -> Self {
        let hint = match e {
            ServeError::NotPrimary { hint } => *hint,
            _ => None,
        };
        Self::Error {
            code: e.wire_code(),
            message: e.to_string(),
            hint,
        }
    }
}

/// Write one frame (length, CRC, payload) to `w`.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ServeError> {
    if payload.len() as u64 > MAX_FRAME_BYTES as u64 {
        return Err(ServeError::Protocol(format!(
            "frame of {} bytes exceeds the {} byte cap",
            payload.len(),
            MAX_FRAME_BYTES
        )));
    }
    let header = [payload.len() as u32, crc32(payload)].map(u32::to_le_bytes);
    // one vectored write, so the header does not go out as segments of
    // its own on a no-delay socket
    let mut bufs = [IoSlice::new(header.as_flattened()), IoSlice::new(payload)];
    let mut bufs = &mut bufs[..];
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(std::io::Error::from(ErrorKind::WriteZero).into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    w.flush()?;
    Ok(())
}

/// Read one frame from `r`, verifying the length cap and CRC.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, ServeError> {
    // the length and the CRC in one read
    let mut header = [[0u8; 4]; 2];
    r.read_exact(header.as_flattened_mut())?;
    let [len, stored_crc] = header.map(u32::from_le_bytes);
    if len > MAX_FRAME_BYTES {
        return Err(ServeError::Protocol(format!(
            "peer announced a {len} byte frame (cap {MAX_FRAME_BYTES})"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    if crc32(&payload) != stored_crc {
        return Err(ServeError::Protocol("frame CRC mismatch".into()));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_claims() -> Vec<ChunkClaim> {
        vec![
            ChunkClaim::num(0, 0, 1, 21.5),
            ChunkClaim {
                object: 3,
                property: 1,
                source: 2,
                value: Value::Cat(1),
            },
            ChunkClaim {
                object: 4,
                property: 2,
                source: 0,
                value: Value::Text("fog".into()),
            },
        ]
    }

    #[test]
    fn nested_deadline_wrappers_are_typed_protocol_errors() {
        // encode() permits the construction; decode() must refuse it so
        // no hop ever sees a second, larger budget hiding inside
        let nested = Request::WithDeadline {
            budget_ms: 9,
            inner: Box::new(Request::WithDeadline {
                budget_ms: 1_000_000,
                inner: Box::new(Request::Weights),
            }),
        };
        let err = Request::decode(&nested.encode()).unwrap_err();
        assert!(matches!(err, ServeError::Protocol(_)), "{err}");
        assert!(err.to_string().contains("nested"), "{err}");
    }

    #[test]
    fn garbage_and_truncation_are_typed_protocol_errors() {
        assert!(matches!(
            Request::decode(&[200]),
            Err(ServeError::Protocol(_))
        ));
        let mut bytes = Request::Weights.encode();
        bytes.push(0xAB);
        assert!(matches!(
            Request::decode(&bytes),
            Err(ServeError::Protocol(_))
        ));
        let solve = Request::Solve {
            tol: 1e-6,
            max_iters: 10,
            claims: sample_claims(),
        }
        .encode();
        assert!(Request::decode(&solve[..solve.len() - 2]).is_err());
    }

    #[test]
    fn claim_bytes_are_the_ingest_frames_list_and_only_theirs() {
        let claims = sample_claims();
        let mut list = Enc::new();
        enc_list(&claims, &mut list);
        let list = list.into_bytes();
        let ingest = Request::Ingest(claims.clone());
        let wrapped = Request::WithDeadline {
            budget_ms: 5,
            inner: Box::new(ingest.clone()),
        };
        for req in [ingest, wrapped] {
            let got = ClaimBytes::of(&req, req.encode()).unwrap();
            assert_eq!(got.as_slice(), list, "{req:?}");
        }
        let others = [
            Request::IngestCsv("0,t,1,2".into()),
            Request::Solve {
                tol: 1e-6,
                max_iters: 3,
                claims,
            },
            Request::WithDeadline {
                budget_ms: 5,
                inner: Box::new(Request::Weights),
            },
        ];
        for req in others {
            assert!(ClaimBytes::of(&req, req.encode()).is_none(), "{req:?}");
        }
    }

    #[test]
    fn frames_roundtrip_and_reject_corruption() {
        let payload = Request::Status.encode();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let got = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(got, payload);

        let mut corrupted = buf.clone();
        let last = corrupted.len() - 1;
        corrupted[last] ^= 0x01;
        let err = read_frame(&mut corrupted.as_slice()).unwrap_err();
        assert!(matches!(err, ServeError::Protocol(_)), "{err}");
    }

    #[test]
    fn oversized_frame_announcement_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, ServeError::Protocol(_)), "{err}");
    }
}
