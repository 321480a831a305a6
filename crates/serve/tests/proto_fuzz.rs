//! Protocol-level fuzz harness: every frame type, through seeded
//! truncation, bit-flips, and duplication, must come back as a typed
//! error or a valid frame — never a panic, never an unbounded
//! allocation.
//!
//! The mutations are derived from [`hash_rng`], so a failing input is
//! reproducible from the assertion message's `(variant, round)` key
//! alone.

use std::collections::BTreeSet;

use crh_core::persist::digest64;
use crh_core::rng::{hash_rng, Rng};
use crh_core::schema::Schema;
use crh_core::value::{Truth, Value};
use crh_serve::error::code;
use crh_serve::proto::{read_frame, write_frame, Request, Response};
use crh_serve::{ChunkClaim, ServeConfig, ServeCore, ShardMap, ShardRange};

fn sample_claims() -> Vec<ChunkClaim> {
    vec![
        ChunkClaim {
            object: 0,
            property: 0,
            source: 1,
            value: Value::Num(21.5),
        },
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

/// One instance of every request variant, replication frames included.
fn sample_requests() -> Vec<Request> {
    vec![
        Request::Ingest(sample_claims()),
        Request::IngestCsv("0,temperature,1,21.5\n".into()),
        Request::Weights,
        Request::Truth {
            object: 7,
            property: 1,
        },
        Request::Status,
        Request::Solve {
            tol: 1e-6,
            max_iters: 50,
            claims: sample_claims(),
        },
        Request::Shutdown,
        Request::Replicate {
            token: 0xC1A5,
            epoch: 3,
            node: 0,
            seq: 17,
            commit: 15,
            record: vec![0xDE, 0xAD, 0xBE, 0xEF],
        },
        Request::Heartbeat {
            token: 0xC1A5,
            epoch: 3,
            node: 1,
            commit: 17,
            head: 18,
        },
        Request::CatchUp {
            token: 0xC1A5,
            epoch: 3,
            from: 12,
        },
        Request::Promote {
            token: 0xC1A5,
            epoch: 4,
            node: 2,
            head: 18,
        },
        Request::SeqQuery {
            token: 0xC1A5,
            epoch: 4,
        },
        Request::RouteTable,
        Request::ShardIngest {
            shard: 1,
            map_version: 3,
            claims: sample_claims(),
        },
        Request::ShardTruth {
            shard: 2,
            map_version: 3,
            object: 7,
            property: 0,
        },
        Request::SplitStage {
            token: 0xC1A5,
            shard: 2,
            snapshot: None,
            records: vec![vec![4, 5, 6], vec![]],
        },
        Request::SplitStage {
            token: 0xC1A5,
            shard: 2,
            snapshot: Some(vec![7; 24]),
            records: vec![],
        },
        Request::SplitCutover {
            token: 0xC1A5,
            version: 4,
            ranges: sample_ranges(),
        },
        Request::WithDeadline {
            budget_ms: 250,
            inner: Box::new(Request::Truth {
                object: 7,
                property: 1,
            }),
        },
        Request::WithDeadline {
            budget_ms: 0,
            inner: Box::new(Request::Status),
        },
        Request::Probe { nonce: 0x9D5_F00D },
    ]
}

fn sample_ranges() -> Vec<ShardRange> {
    vec![
        ShardRange {
            shard: 0,
            start: 0,
            end: u64::MAX / 2,
        },
        ShardRange {
            shard: 2,
            start: u64::MAX / 2 + 1,
            end: u64::MAX,
        },
    ]
}

/// One instance of every response variant.
fn sample_responses() -> Vec<Response> {
    vec![
        Response::Ack {
            seq: 9,
            chunks_seen: 10,
        },
        Response::Weights(vec![1.0, 0.5, f64::MAX]),
        Response::Truth(None),
        Response::Truth(Some(Truth::Point(Value::Num(3.25)))),
        Response::Truth(Some(Truth::Distribution {
            probs: vec![0.25, 0.75],
            mode: 1,
        })),
        Response::Status {
            chunks_seen: 5,
            wal_records: 2,
            cached_truths: 11,
            queue_depth: 0,
            quarantined: vec![3, 8],
        },
        Response::Solved {
            weights: vec![2.0, 1.0],
            objective: 0.125,
            iterations: 7,
        },
        Response::Error {
            code: 1,
            message: "queue full".into(),
            hint: None,
        },
        Response::Error {
            code: 8,
            message: "not the primary; retry against node 2".into(),
            hint: Some(2),
        },
        Response::ReplAck {
            node: 1,
            epoch: 4,
            durable: 18,
            last_epoch: 3,
        },
        Response::CatchUpRecords {
            epoch: 4,
            commit: 17,
            snapshot: None,
            records: vec![vec![1, 2, 3], vec![]],
        },
        Response::CatchUpRecords {
            epoch: 4,
            commit: 17,
            snapshot: Some(vec![9; 32]),
            records: vec![],
        },
        Response::FollowerRead {
            lag: 2,
            inner: Response::Weights(vec![1.0, 0.5]).encode(),
        },
        Response::RouteTable {
            version: 4,
            shard: 2,
            ranges: sample_ranges(),
        },
        Response::ProbeAck { nonce: 0x9D5_F00D },
    ]
}

#[test]
fn corpus_roundtrips_and_covers_every_tag() {
    // the leading byte of every frame is its tag, so the tags the corpus
    // produces must be exactly the generated tag lists: a new frame row
    // with no sample here fails this test
    let requests = sample_requests();
    for req in &requests {
        assert_eq!(&Request::decode(&req.encode()).unwrap(), req);
    }
    let tags: BTreeSet<u8> = requests.iter().map(|r| r.encode()[0]).collect();
    assert_eq!(tags, Request::TAGS.iter().copied().collect());
    assert_eq!(tags.len(), Request::TAGS.len(), "duplicate request tag");

    let responses = sample_responses();
    for resp in &responses {
        assert_eq!(&Response::decode(&resp.encode()).unwrap(), resp);
    }
    let tags: BTreeSet<u8> = responses.iter().map(|r| r.encode()[0]).collect();
    assert_eq!(tags, Response::TAGS.iter().copied().collect());
    assert_eq!(tags.len(), Response::TAGS.len(), "duplicate response tag");
}

fn flip_some(bytes: &mut [u8], seed: u64, key: &[u64]) {
    let mut rng = hash_rng(seed, key);
    let flips = 1 + (rng.next_u64() % 4) as usize;
    for _ in 0..flips {
        let i = (rng.next_u64() as usize) % bytes.len();
        bytes[i] ^= 1 << (rng.next_u64() % 8);
    }
}

#[test]
fn truncated_requests_are_typed_errors() {
    for (vi, req) in sample_requests().iter().enumerate() {
        let bytes = req.encode();
        for cut in 0..bytes.len() {
            assert!(
                Request::decode(&bytes[..cut]).is_err(),
                "request variant {vi} decoded from a strict prefix of {cut} bytes"
            );
        }
    }
}

#[test]
fn truncated_responses_are_typed_errors() {
    for (vi, resp) in sample_responses().iter().enumerate() {
        let bytes = resp.encode();
        for cut in 0..bytes.len() {
            assert!(
                Response::decode(&bytes[..cut]).is_err(),
                "response variant {vi} decoded from a strict prefix of {cut} bytes"
            );
        }
    }
}

#[test]
fn duplicated_payloads_are_typed_errors() {
    for (vi, req) in sample_requests().iter().enumerate() {
        let mut doubled = req.encode();
        doubled.extend_from_slice(&doubled.clone());
        assert!(
            Request::decode(&doubled).is_err(),
            "request variant {vi} accepted a duplicated payload"
        );
    }
    for (vi, resp) in sample_responses().iter().enumerate() {
        let mut doubled = resp.encode();
        doubled.extend_from_slice(&doubled.clone());
        assert!(
            Response::decode(&doubled).is_err(),
            "response variant {vi} accepted a duplicated payload"
        );
    }
}

#[test]
fn bit_flipped_payloads_never_panic() {
    // a flipped byte may still decode (e.g. a value byte changed): the
    // contract is typed-error-or-valid-frame, never a panic. The test
    // harness turns any panic into a failure with the (variant, round)
    // key in scope.
    for (vi, req) in sample_requests().iter().enumerate() {
        let bytes = req.encode();
        for round in 0..128u64 {
            let mut m = bytes.clone();
            flip_some(&mut m, 0xF422_0001, &[vi as u64, round]);
            if let Ok(decoded) = Request::decode(&m) {
                // a mutated frame that decodes must re-encode cleanly
                let _ = decoded.encode();
            }
        }
    }
    for (vi, resp) in sample_responses().iter().enumerate() {
        let bytes = resp.encode();
        for round in 0..128u64 {
            let mut m = bytes.clone();
            flip_some(&mut m, 0xF422_0002, &[vi as u64, round]);
            if let Ok(decoded) = Response::decode(&m) {
                let _ = decoded.encode();
            }
        }
    }
}

#[test]
fn mutated_route_tables_are_typed_refusals_never_panics() {
    // A bit-flipped RouteTable frame may still decode — the ranges are
    // plain integers. The next gate, [`ShardMap::from_ranges`], must
    // then either accept a table that still satisfies every invariant
    // (contiguous, covering, unique owners) or refuse with a typed
    // error. Never a panic, and never a map that misroutes silently.
    for round in 0..512u64 {
        let resp = Response::RouteTable {
            version: 4,
            shard: 2,
            ranges: sample_ranges(),
        };
        let mut bytes = resp.encode();
        flip_some(&mut bytes, 0xF422_0005, &[round]);
        if let Ok(Response::RouteTable {
            version, ranges, ..
        }) = Response::decode(&bytes)
        {
            match ShardMap::from_ranges(version, ranges) {
                // a surviving table is total: every object routes somewhere
                Ok(m) => {
                    for object in 0..64u32 {
                        assert!(m.shard_ids().contains(&m.shard_of(object)));
                    }
                }
                // refusals carry the PROTOCOL wire code, so a router
                // treats a corrupt table exactly like any framing error
                Err(e) => assert_eq!(e.wire_code(), code::PROTOCOL, "round {round}"),
            }
        }
    }
}

#[test]
fn mutated_deadline_wrappers_stay_typed_and_never_nest() {
    // The deadline wrapper carries a length-prefixed inner frame. Bit
    // flips in the budget or the inner length must come back as typed
    // errors or valid frames — and no mutation may ever smuggle a
    // nested wrapper (a second, larger budget) past decode.
    let outer = Request::WithDeadline {
        budget_ms: 750,
        inner: Box::new(Request::Ingest(sample_claims())),
    };
    let bytes = outer.encode();
    for round in 0..512u64 {
        let mut m = bytes.clone();
        flip_some(&mut m, 0xF422_0006, &[round]);
        if let Ok(decoded) = Request::decode(&m) {
            if let Request::WithDeadline { inner, .. } = &decoded {
                assert!(
                    !matches!(**inner, Request::WithDeadline { .. }),
                    "round {round}: mutation produced a nested deadline wrapper"
                );
            }
            let _ = decoded.encode();
        }
    }
    // a hand-built nested wrapper is refused outright
    let nested = Request::WithDeadline {
        budget_ms: 1,
        inner: Box::new(Request::WithDeadline {
            budget_ms: u64::MAX,
            inner: Box::new(Request::Weights),
        }),
    };
    assert!(Request::decode(&nested.encode()).is_err());
    // boundary budgets are valid *frames*; refusing a zero budget is the
    // server's job, not the codec's
    for budget_ms in [0, u64::MAX] {
        let req = Request::WithDeadline {
            budget_ms,
            inner: Box::new(Request::Status),
        };
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    }
}

#[test]
fn random_garbage_never_panics_the_decoders() {
    for round in 0..256u64 {
        let mut rng = hash_rng(0xF422_0003, &[round]);
        let len = (rng.next_u64() % 200) as usize;
        let garbage: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let _ = Request::decode(&garbage);
        let _ = Response::decode(&garbage);
    }
}

#[test]
fn corrupted_frame_streams_never_panic() {
    // a stream of every request variant, framed; corrupt it and re-read.
    // Frame corruption must surface as a typed error (CRC, length cap,
    // or short read); any frame that does pass CRC must decode without
    // panicking.
    let mut stream = Vec::new();
    for req in sample_requests() {
        write_frame(&mut stream, &req.encode()).unwrap();
    }
    for round in 0..200u64 {
        let mut m = stream.clone();
        flip_some(&mut m, 0xF422_0004, &[round]);
        let mut cur = m.as_slice();
        while !cur.is_empty() {
            match read_frame(&mut cur) {
                Ok(payload) => {
                    let _ = Request::decode(&payload);
                    let _ = Response::decode(&payload);
                }
                Err(_) => break,
            }
        }
    }
    // truncation at every boundary of the healthy stream
    for cut in 0..stream.len() {
        let mut cur = &stream[..cut];
        while !cur.is_empty() {
            match read_frame(&mut cur) {
                Ok(payload) => {
                    let _ = Request::decode(&payload);
                }
                Err(_) => break,
            }
        }
    }
}

/// `(length, digest64)` of every encoding the wire and the disk carry,
/// pinned so a codec change that moves a single byte fails here. The
/// order follows `sample_requests`, then `sample_responses`, then one
/// `ShardMap`, then one WAL chunk record.
const GOLDEN: &[(usize, u64)] = &[
    (67, 0x383215CE2A9C2BB3),
    (30, 0xEC2C7723A6E675F0),
    (1, 0xAF63BF4C8601BB45),
    (9, 0x366480AA83C341A4),
    (1, 0xAF63B94C8601B113),
    (83, 0x3AE5EF5965CE4BAA),
    (1, 0xAF63BB4C8601B479),
    (49, 0x37A062293EA21E2F),
    (37, 0x348FCBF2BAD9981C),
    (25, 0x7FC7085E69217C29),
    (29, 0x66667C7F4FC9B5B7),
    (17, 0x340E507608934250),
    (1, 0xAF63C14C8601BEAB),
    (79, 0xA7019571964C172E),
    (21, 0x81D5C6AAF7C917A7),
    (37, 0xF9A7E556B44BB636),
    (50, 0x142AB6669E39E889),
    (61, 0xF4337B864EACEA01),
    (26, 0x7DB3AEC8E6A698F2),
    (18, 0x3B42F6FD9F35639B),
    (9, 0x4DBDBFABB8D4842A),
    (17, 0x40EC332D67D57A1C),
    (33, 0x9561FF0C643E62E7),
    (2, 0x08395407B4F1363F),
    (12, 0xA1B44F80462F49B5),
    (31, 0x17EF085B19BD381C),
    (45, 0x3E0E5913EDF5AFB7),
    (41, 0x631C12D5D7FB62A6),
    (21, 0x5315E1CFD4750129),
    (52, 0x02927AF01DCDD960),
    (29, 0x8E38645F387D0DE4),
    (41, 0x2390965A4FE9EA4B),
    (62, 0xF402B9A312C65027),
    (42, 0x51EF8519398A0AA6),
    (57, 0x77D50A3ABD2A33C1),
    (9, 0xAAD76221FF56A17F),
    (52, 0x1632EA2EB8FF03A1),
    (74, 0x9C4AC5156694266D),
];

/// The payload of the single record a fresh daemon appends to its WAL
/// for one ingested chunk of `sample_claims` (the file header and the
/// record's length/CRC frame stripped).
fn wal_chunk_record() -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!("crh_golden_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut schema = Schema::new();
    schema.add_continuous("temperature");
    let condition = schema.add_categorical("condition");
    schema.intern(condition, "sunny").unwrap();
    schema.intern(condition, "rainy").unwrap();
    schema.add_text("sky");
    let (mut core, _) = ServeCore::open(ServeConfig::new(schema, 0.5, &dir)).unwrap();
    core.ingest(&sample_claims()).unwrap();
    drop(core);
    let wal = std::fs::read(dir.join("ingest.wal")).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    // 8-byte file header, then len:u32 | crc32:u32 | payload
    let len = u32::from_le_bytes(wal[8..12].try_into().unwrap()) as usize;
    assert_eq!(wal.len(), 16 + len, "expected exactly one WAL record");
    wal[16..].to_vec()
}

#[test]
fn golden_bytes_pin_every_encoding() {
    let map = ShardMap::from_ranges(4, sample_ranges()).unwrap();
    let encodings: Vec<Vec<u8>> = sample_requests()
        .iter()
        .map(Request::encode)
        .chain(sample_responses().iter().map(Response::encode))
        .chain([map.encode(), wal_chunk_record()])
        .collect();
    let got: Vec<(usize, u64)> = encodings.iter().map(|b| (b.len(), digest64(b))).collect();
    let table: String = got
        .iter()
        .map(|(len, digest)| format!("    ({len}, 0x{digest:016X}),\n"))
        .collect();
    assert_eq!(got, GOLDEN, "encodings moved; current table:\n{table}");
}
