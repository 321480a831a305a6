//! Durable binary persistence: CRC-framed files with atomic replacement.
//!
//! Checkpoint/resume for long iterative runs (parallel CRH) and streaming
//! sessions (I-CRH) share one on-disk discipline:
//!
//! * a fixed **frame**: magic, format version, payload length, payload,
//!   CRC32 of the payload — so truncation (torn write, full disk, kill -9
//!   mid-write) and bit rot are both detected on load, never silently
//!   consumed;
//! * **write-temp-then-rename**: the frame is written to a sibling
//!   temporary file, fsync'd, then atomically renamed over the target, so
//!   a crash during save leaves the previous checkpoint intact;
//! * a little-endian primitive codec ([`Enc`]/[`Dec`]) including
//!   bit-exact `f64` round-trips — required for the bit-identical
//!   fault-recovery guarantee.

#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

use std::fmt;
use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

use crate::value::{Truth, Value};

/// Errors raised while saving or loading a persisted frame.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file does not start with the expected magic bytes.
    BadMagic {
        /// Magic expected by the caller.
        expected: [u8; 4],
        /// Magic actually found.
        got: [u8; 4],
    },
    /// The format version is one this build does not read.
    UnsupportedVersion(u32),
    /// The file ends before the declared payload (torn/partial write).
    Truncated {
        /// Bytes the frame header promised.
        expected: u64,
        /// Bytes actually present.
        got: u64,
    },
    /// The payload does not match its stored checksum.
    CrcMismatch {
        /// Checksum recorded in the frame.
        stored: u32,
        /// Checksum computed over the payload read.
        computed: u32,
    },
    /// The file continues past the declared payload (e.g. a duplicated
    /// frame or appended garbage) — a sign of corruption, rejected rather
    /// than silently ignored.
    TrailingGarbage {
        /// Bytes present beyond the declared frame.
        extra: u64,
    },
    /// The payload decoded to something structurally invalid.
    Malformed(&'static str),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "persist io error: {e}"),
            PersistError::BadMagic { expected, got } => write!(
                f,
                "bad magic: expected {expected:?}, got {got:?} (not a checkpoint file?)"
            ),
            PersistError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint format version {v}")
            }
            PersistError::Truncated { expected, got } => write!(
                f,
                "truncated checkpoint: header promises {expected} payload bytes, file has {got}"
            ),
            PersistError::CrcMismatch { stored, computed } => write!(
                f,
                "checkpoint CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            PersistError::TrailingGarbage { extra } => write!(
                f,
                "checkpoint file continues {extra} bytes past the declared frame"
            ),
            PersistError::Malformed(what) => write!(f, "malformed checkpoint payload: {what}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Sixteen 256-entry tables for [`crc32`] (16 KiB). `T[0]` is the classic
/// byte-at-a-time table; `T[k][b]` is the CRC register after byte `b`
/// followed by `k` zero bytes, so one lookup per byte of a 16-byte block
/// advances the register across the whole block.
static CRC32_TABLES: [[u32; 256]; 16] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC32 (IEEE 802.3, the zlib/PNG polynomial: reflected `0xEDB8_8320`,
/// initial value and final XOR `0xFFFF_FFFF`).
///
/// Slicing-by-16: the main loop folds 16 bytes per step through sixteen
/// 256-entry tables (16 KiB, built at compile time), reading the block as
/// four little-endian `u32` words; the remaining tail of fewer than 16
/// bytes takes the byte-at-a-time step through table 0. Same polynomial,
/// same bits as the byte-at-a-time algorithm, so every stored CRC (WAL
/// records, snapshots, checkpoints, wire frames) is unchanged.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let w = |i: usize| u32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]);
        let (w0, w1, w2, w3) = (w(0) ^ c, w(4), w(8), w(12));
        // The terms that read the register (w0) come last: the XOR chain
        // is evaluated in source order, so the other twelve lookups overlap
        // with the previous block and only four sit on the loop-carried path.
        c = t[0][(w3 >> 24) as usize]
            ^ t[1][((w3 >> 16) & 0xFF) as usize]
            ^ t[2][((w3 >> 8) & 0xFF) as usize]
            ^ t[3][(w3 & 0xFF) as usize]
            ^ t[4][(w2 >> 24) as usize]
            ^ t[5][((w2 >> 16) & 0xFF) as usize]
            ^ t[6][((w2 >> 8) & 0xFF) as usize]
            ^ t[7][(w2 & 0xFF) as usize]
            ^ t[8][(w1 >> 24) as usize]
            ^ t[9][((w1 >> 16) & 0xFF) as usize]
            ^ t[10][((w1 >> 8) & 0xFF) as usize]
            ^ t[11][(w1 & 0xFF) as usize]
            ^ t[12][(w0 >> 24) as usize]
            ^ t[13][((w0 >> 16) & 0xFF) as usize]
            ^ t[14][((w0 >> 8) & 0xFF) as usize]
            ^ t[15][(w0 & 0xFF) as usize];
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// A cheap 64-bit state digest (FNV-1a), for replica divergence checks.
///
/// Replication asserts compare whole-state fingerprints across nodes
/// constantly; shipping the full snapshot payload for every comparison
/// would dominate the heartbeat traffic. This digest is NOT
/// cryptographic — it detects accidental divergence (a missed fold, a
/// reordered record), not an adversary forging a matching state.
pub fn digest64(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Little-endian encoder appending to a byte buffer. Every primitive is
/// `#[inline]`, so the codecs built on it (the daemon's wire frames and
/// WAL records) compile to straight-line appends across crates.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Fresh empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finish, returning the encoded payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes encoded so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been encoded yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Make room for at least `additional` more bytes.
    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Append one byte.
    #[inline]
    pub fn u8(&mut self, x: u8) {
        self.buf.push(x);
    }

    /// Append a `u32`.
    #[inline]
    pub fn u32(&mut self, x: u32) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Append a `u64`.
    #[inline]
    pub fn u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Append an `f64` bit-exactly.
    #[inline]
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// Append a length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Append a length-prefixed raw byte string.
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// Append a length-prefixed `f64` slice.
    pub fn f64s(&mut self, xs: &[f64]) {
        self.u64(xs.len() as u64);
        self.buf.reserve(xs.len() * 8);
        for &x in xs {
            self.f64(x);
        }
    }

    /// Append one [`Value`] (tag + payload).
    #[inline]
    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Cat(c) => {
                self.u8(0);
                self.u32(*c);
            }
            Value::Num(x) => {
                self.u8(1);
                self.f64(*x);
            }
            Value::Text(t) => {
                self.u8(2);
                self.str(t);
            }
        }
    }

    /// Append one [`Truth`] (tag + payload).
    #[inline]
    pub fn truth(&mut self, t: &Truth) {
        match t {
            Truth::Point(v) => {
                self.u8(0);
                self.value(v);
            }
            Truth::Distribution { probs, mode } => {
                self.u8(1);
                self.u32(*mode);
                self.f64s(probs);
            }
        }
    }
}

/// Little-endian decoder over a payload slice; every read is
/// bounds-checked so truncated payloads surface as typed errors. It keeps
/// only the bytes not yet read, so each read is one length check and a
/// split, and the primitives are `#[inline]` for the same reason as
/// [`Enc`]'s.
#[derive(Debug)]
pub struct Dec<'a> {
    rest: &'a [u8],
}

/// The error of a read past the end of the payload, out of line so the
/// reads themselves stay small.
#[cold]
fn ends_mid_record() -> PersistError {
    PersistError::Malformed("payload ends mid-record")
}

impl<'a> Dec<'a> {
    /// Wrap a payload.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { rest: buf }
    }

    /// Whether every byte has been consumed.
    #[inline]
    pub fn is_exhausted(&self) -> bool {
        self.rest.is_empty()
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let (head, tail) = self.rest.split_at_checked(n).ok_or_else(ends_mid_record)?;
        self.rest = tail;
        Ok(head)
    }

    /// Read exactly `N` bytes into a fixed-size array.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], PersistError> {
        let (head, tail) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or_else(ends_mid_record)?;
        self.rest = tail;
        Ok(*head)
    }

    /// Read one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, PersistError> {
        let (&b, tail) = self.rest.split_first().ok_or_else(ends_mid_record)?;
        self.rest = tail;
        Ok(b)
    }

    /// Read a `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Read a `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Read an `f64` bit-exactly.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self) -> Result<String, PersistError> {
        let n = self.u64()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| PersistError::Malformed("string is not valid UTF-8"))
    }

    /// Read a length-prefixed raw byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>, PersistError> {
        let n = self.u64()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    /// Read a length-prefixed `f64` vector.
    pub fn f64s(&mut self) -> Result<Vec<f64>, PersistError> {
        let n = self.u64()? as usize;
        // cap pre-allocation by what the buffer could actually hold
        if self.rest.len() < n.saturating_mul(8) {
            return Err(PersistError::Malformed("f64 vector longer than payload"));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.f64()?);
        }
        Ok(out)
    }

    /// Read one [`Value`].
    #[inline]
    pub fn value(&mut self) -> Result<Value, PersistError> {
        match self.u8()? {
            0 => Ok(Value::Cat(self.u32()?)),
            1 => Ok(Value::Num(self.f64()?)),
            2 => Ok(Value::Text(self.str()?)),
            _ => Err(PersistError::Malformed("unknown Value tag")),
        }
    }

    /// Read one [`Truth`].
    #[inline]
    pub fn truth(&mut self) -> Result<Truth, PersistError> {
        match self.u8()? {
            0 => Ok(Truth::Point(self.value()?)),
            1 => {
                let mode = self.u32()?;
                let probs = self.f64s()?;
                Ok(Truth::Distribution { probs, mode })
            }
            _ => Err(PersistError::Malformed("unknown Truth tag")),
        }
    }
}

/// Frame header size: magic(4) + version(4) + payload_len(8) + crc(4).
const FRAME_HEADER: usize = 20;

/// Encode `payload` as a complete in-memory frame: magic, version,
/// declared length, CRC32, payload. The byte layout is exactly what
/// [`write_frame`] puts on disk; fault-injectable storage layers reuse
/// this so their artifacts stay readable by [`read_frame`].
pub fn encode_frame(magic: [u8; 4], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Write `payload` as a complete frame to `path`: temp file in the same
/// directory, flush + fsync, then atomic rename over the target.
pub fn write_frame(
    path: &Path,
    magic: [u8; 4],
    version: u32,
    payload: &[u8],
) -> Result<(), PersistError> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(d) = dir {
        std::fs::create_dir_all(d)?;
    }
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&encode_frame(magic, version, payload))?;
        f.flush()?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Decode a frame produced by [`encode_frame`]/[`write_frame`],
/// validating magic, version, declared length (truncation-safe) and CRC.
/// Returns `(version, payload)`.
pub fn decode_frame(
    bytes: &[u8],
    magic: [u8; 4],
    max_version: u32,
) -> Result<(u32, Vec<u8>), PersistError> {
    if bytes.len() < FRAME_HEADER {
        return Err(PersistError::Truncated {
            expected: FRAME_HEADER as u64,
            got: bytes.len() as u64,
        });
    }
    let mut header = Dec::new(bytes);
    let got_magic: [u8; 4] = header.array()?;
    if got_magic != magic {
        return Err(PersistError::BadMagic {
            expected: magic,
            got: got_magic,
        });
    }
    let version = header.u32()?;
    if version > max_version {
        return Err(PersistError::UnsupportedVersion(version));
    }
    let len = header.u64()?;
    let stored_crc = header.u32()?;
    let payload = &bytes[FRAME_HEADER..];
    if (payload.len() as u64) < len {
        return Err(PersistError::Truncated {
            expected: len,
            got: payload.len() as u64,
        });
    }
    if (payload.len() as u64) > len {
        return Err(PersistError::TrailingGarbage {
            extra: payload.len() as u64 - len,
        });
    }
    let payload = &payload[..len as usize];
    let computed = crc32(payload);
    if computed != stored_crc {
        return Err(PersistError::CrcMismatch {
            stored: stored_crc,
            computed,
        });
    }
    Ok((version, payload.to_vec()))
}

/// Read a frame written by [`write_frame`], validating magic, version,
/// declared length (truncation-safe) and CRC. Returns the payload.
pub fn read_frame(
    path: &Path,
    magic: [u8; 4],
    max_version: u32,
) -> Result<(u32, Vec<u8>), PersistError> {
    let mut f = File::open(path)?;
    let mut bytes = Vec::new();
    f.read_to_end(&mut bytes)?;
    decode_frame(&bytes, magic, max_version)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("crh_persist_{}_{name}", std::process::id()))
    }

    #[test]
    fn crc32_known_vectors() {
        // standard test vector
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Bit-at-a-time CRC32 by polynomial division: no tables, shares no
    /// code with [`crc32`].
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                let mask = (c & 1).wrapping_neg();
                c = (c >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !c
    }

    #[test]
    fn crc32_matches_bitwise_reference_at_every_length_and_offset() {
        let mut seed = 0xC0C3_2024u64;
        let buf: Vec<u8> = (0..1 << 20)
            .map(|_| crate::rng::splitmix64(&mut seed) as u8)
            .collect();
        for start in 0..=16 {
            for len in 0..=1100 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "start {start}, len {len}");
            }
        }
        assert_eq!(crc32(&buf), crc32_bitwise(&buf), "1 MiB buffer");
    }

    #[test]
    fn digest64_is_stable_and_sensitive() {
        // FNV-1a 64 offset basis for the empty input
        assert_eq!(digest64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(digest64(b"state"), digest64(b"state"));
        assert_ne!(digest64(b"state"), digest64(b"statf"));
        assert_ne!(digest64(b"ab"), digest64(b"ba"));
    }

    #[test]
    fn primitives_roundtrip_bit_exact() {
        let mut e = Enc::new();
        e.u8(7);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX);
        e.f64(-0.0);
        e.f64(f64::from_bits(0x7FF8_0000_0000_1234)); // NaN with payload
        e.str("héllo");
        e.f64s(&[1.5, f64::MIN_POSITIVE]);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(d.f64().unwrap().to_bits(), 0x7FF8_0000_0000_1234);
        assert_eq!(d.str().unwrap(), "héllo");
        assert_eq!(d.f64s().unwrap(), vec![1.5, f64::MIN_POSITIVE]);
        assert!(d.is_exhausted());
    }

    #[test]
    fn values_and_truths_roundtrip() {
        let cases = [
            Truth::Point(Value::Cat(9)),
            Truth::Point(Value::Num(-273.15)),
            Truth::Point(Value::Text("gate A7".into())),
            Truth::Distribution {
                probs: vec![0.25, 0.5, 0.25],
                mode: 1,
            },
        ];
        let mut e = Enc::new();
        for t in &cases {
            e.truth(t);
        }
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        for t in &cases {
            assert_eq!(&d.truth().unwrap(), t);
        }
        assert!(d.is_exhausted());
    }

    #[test]
    fn decoder_rejects_short_payloads() {
        let mut e = Enc::new();
        e.u64(42);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes[..5]);
        assert!(matches!(d.u64(), Err(PersistError::Malformed(_))));
        // oversized vector length can't trick the allocator
        let mut e = Enc::new();
        e.u64(u64::MAX);
        let bytes = e.into_bytes();
        assert!(Dec::new(&bytes).f64s().is_err());
    }

    #[test]
    fn frame_roundtrip() {
        let p = tmp("roundtrip");
        write_frame(&p, *b"CRHT", 1, b"payload bytes").unwrap();
        let (v, payload) = read_frame(&p, *b"CRHT", 1).unwrap();
        assert_eq!(v, 1);
        assert_eq!(payload, b"payload bytes");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn frame_detects_truncation() {
        let p = tmp("trunc");
        write_frame(&p, *b"CRHT", 1, &[9u8; 100]).unwrap();
        let full = std::fs::read(&p).unwrap();
        std::fs::write(&p, &full[..full.len() - 30]).unwrap();
        assert!(matches!(
            read_frame(&p, *b"CRHT", 1),
            Err(PersistError::Truncated { .. })
        ));
        // header-only truncation
        std::fs::write(&p, &full[..10]).unwrap();
        assert!(matches!(
            read_frame(&p, *b"CRHT", 1),
            Err(PersistError::Truncated { .. })
        ));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn frame_detects_corruption_and_wrong_magic() {
        let p = tmp("corrupt");
        write_frame(&p, *b"CRHT", 1, &[7u8; 64]).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&p, &bytes).unwrap();
        assert!(matches!(
            read_frame(&p, *b"CRHT", 1),
            Err(PersistError::CrcMismatch { .. })
        ));
        assert!(matches!(
            read_frame(&p, *b"XXXX", 1),
            Err(PersistError::BadMagic { .. })
        ));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn frame_rejects_trailing_garbage() {
        let p = tmp("trailing");
        write_frame(&p, *b"CRHT", 1, b"payload").unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        // a duplicated frame is the classic double-write corruption
        let dup = bytes.clone();
        bytes.extend_from_slice(&dup);
        std::fs::write(&p, &bytes).unwrap();
        assert!(matches!(
            read_frame(&p, *b"CRHT", 1),
            Err(PersistError::TrailingGarbage { extra }) if extra == dup.len() as u64
        ));
        // a single stray appended byte is enough to reject
        std::fs::write(&p, &dup).unwrap();
        let mut one_extra = dup.clone();
        one_extra.push(0);
        std::fs::write(&p, &one_extra).unwrap();
        assert!(matches!(
            read_frame(&p, *b"CRHT", 1),
            Err(PersistError::TrailingGarbage { extra: 1 })
        ));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn frame_rejects_future_versions() {
        let p = tmp("version");
        write_frame(&p, *b"CRHT", 9, b"x").unwrap();
        assert!(matches!(
            read_frame(&p, *b"CRHT", 1),
            Err(PersistError::UnsupportedVersion(9))
        ));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn save_is_atomic_no_tmp_left_behind() {
        let p = tmp("atomic");
        write_frame(&p, *b"CRHT", 1, b"first").unwrap();
        write_frame(&p, *b"CRHT", 1, b"second").unwrap();
        assert!(!p.with_extension("tmp").exists());
        let (_, payload) = read_frame(&p, *b"CRHT", 1).unwrap();
        assert_eq!(payload, b"second");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn errors_display_and_are_std_error() {
        let e = PersistError::CrcMismatch {
            stored: 1,
            computed: 2,
        };
        assert!(e.to_string().contains("CRC"));
        let _: &dyn std::error::Error = &e;
    }
}
