//! Crash-safe snapshot envelope: magic, version, length, checksum.
//!
//! The warm-start snapshot is a single file whose payload (serialized by
//! `cqdet-core`) is wrapped in a self-validating envelope:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "CQDS"
//! 4       4     version (u32 LE)
//! 8       8     payload length (u64 LE)
//! 16      n     payload
//! 16+n    8     FNV-1a-64 checksum over (version bytes ‖ payload), u64 LE
//! ```
//!
//! [`open`] verifies the magic, version, declared length and checksum
//! **before** the payload is parsed, so a truncated, torn, bit-flipped or
//! version-skewed file is rejected with a typed [`SnapshotError`] and the
//! caller cold-starts — no envelope state ever reaches the cache layer.
//! [`save_atomic`] writes the envelope to a temp file in the target
//! directory, fsyncs, then renames over the destination, so a crash during
//! save leaves either the old snapshot or a rejectable partial temp file,
//! never a half-written destination.
//!
//! Payload parsing uses the bounds-checked [`Reader`]: every read is
//! length-guarded and returns [`SnapshotError::Truncated`] instead of
//! panicking on malformed interior data that happens to pass the checksum
//! (e.g. a snapshot written by a buggy future exporter).

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::Path;

/// File magic: identifies a cqdet snapshot.
pub const MAGIC: [u8; 4] = *b"CQDS";

/// Envelope version; bump on any payload layout change.  A mismatch is a
/// rejection (cold start), never a migration attempt.
///
/// History: `1` — classes, gate verdicts, span echelons and hom counts;
/// `2` — the hom section dropped; `3` — gate verdicts only.
pub const VERSION: u32 = 3;

const HEADER_LEN: usize = 16;
const CHECKSUM_LEN: usize = 8;

/// Why a snapshot file was rejected.  Every variant maps to a cold start;
/// none of them is a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file could not be read (missing counts here too).
    Io(String),
    /// The magic bytes did not match [`MAGIC`].
    BadMagic,
    /// The envelope version differs from [`VERSION`].
    VersionMismatch { found: u32 },
    /// The file is shorter than its declared payload, or a payload read
    /// ran past the end (malformed interior data).
    Truncated,
    /// The checksum did not match: bit rot, torn write, or tampering.
    ChecksumMismatch,
    /// The payload decoded to structurally invalid data (e.g. a gate
    /// verdict byte that is neither 0 nor 1).
    Malformed(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::BadMagic => write!(f, "snapshot rejected: bad magic"),
            SnapshotError::VersionMismatch { found } => {
                write!(f, "snapshot rejected: version {found} (want {VERSION})")
            }
            SnapshotError::Truncated => write!(f, "snapshot rejected: truncated"),
            SnapshotError::ChecksumMismatch => {
                write!(f, "snapshot rejected: checksum mismatch")
            }
            SnapshotError::Malformed(what) => {
                write!(f, "snapshot rejected: malformed payload: {what}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> SnapshotError {
        SnapshotError::Io(e.to_string())
    }
}

/// FNV-1a-64 over `data`, folded over an optional seed prefix by the
/// callers below.  Chosen for zero dependencies and full determinism; the
/// threat model is corruption detection, not adversarial collision.
fn fnv1a(mut hash: u64, data: &[u8]) -> u64 {
    for &b in data {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn checksum(version: u32, payload: &[u8]) -> u64 {
    fnv1a(fnv1a(FNV_OFFSET, &version.to_le_bytes()), payload)
}

/// Wrap `payload` in the envelope (magic ‖ version ‖ length ‖ payload ‖
/// checksum).
pub fn seal(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + CHECKSUM_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&checksum(VERSION, payload).to_le_bytes());
    out
}

/// Validate the envelope around `file` and return the payload slice.
/// Magic, version, declared length and checksum are all checked before a
/// single payload byte is interpreted.
pub fn unseal(file: &[u8]) -> Result<&[u8], SnapshotError> {
    if file.len() < HEADER_LEN + CHECKSUM_LEN {
        return Err(SnapshotError::Truncated);
    }
    if file[..4] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes([file[4], file[5], file[6], file[7]]);
    if version != VERSION {
        return Err(SnapshotError::VersionMismatch { found: version });
    }
    let declared = u64::from_le_bytes([
        file[8], file[9], file[10], file[11], file[12], file[13], file[14], file[15],
    ]);
    let expected_total = (declared as usize)
        .checked_add(HEADER_LEN + CHECKSUM_LEN)
        .ok_or(SnapshotError::Truncated)?;
    if file.len() != expected_total {
        return Err(SnapshotError::Truncated);
    }
    let payload = &file[HEADER_LEN..HEADER_LEN + declared as usize];
    let stored = u64::from_le_bytes(
        file[HEADER_LEN + declared as usize..]
            .try_into()
            .map_err(|_| SnapshotError::Truncated)?,
    );
    if checksum(version, payload) != stored {
        return Err(SnapshotError::ChecksumMismatch);
    }
    Ok(payload)
}

/// Read `path` and return its validated payload.
pub fn open(path: &Path) -> Result<Vec<u8>, SnapshotError> {
    let file = fs::read(path)?;
    Ok(unseal(&file)?.to_vec())
}

/// Seal `payload` and write it to `path` atomically: temp file in the same
/// directory, `sync_all`, then rename.  A crash at any point leaves either
/// the previous snapshot intact or a stray `.tmp` that [`open`] will never
/// be pointed at.
pub fn save_atomic(path: &Path, payload: &[u8]) -> Result<(), SnapshotError> {
    let sealed = seal(payload);
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&sealed)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    Ok(())
}

/// Little-endian payload writer: the counterpart of [`Reader`].
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Writer {
        Writer::default()
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Length-prefixed byte string (u64 length then the bytes).
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian payload reader: every accessor returns
/// [`SnapshotError::Truncated`] instead of slicing past the end.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.buf.len() {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes([
            s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
        ]))
    }

    /// A `u64` that must fit a sane in-memory count; guards against a
    /// checksum-valid but hostile length field causing a huge allocation.
    pub fn count(&mut self, limit: u64) -> Result<usize, SnapshotError> {
        let n = self.u64()?;
        if n > limit {
            return Err(SnapshotError::Malformed(format!(
                "count {n} exceeds limit {limit}"
            )));
        }
        Ok(n as usize)
    }

    /// Length-prefixed byte string written by [`Writer::bytes`].
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.u64()?;
        if len > self.buf.len() as u64 {
            return Err(SnapshotError::Truncated);
        }
        self.take(len as usize)
    }

    /// Whether the whole payload has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_unseal_round_trip() {
        let payload = b"gate verdicts";
        let sealed = seal(payload);
        assert_eq!(unseal(&sealed).unwrap(), payload);
    }

    #[test]
    fn empty_payload_round_trips() {
        let sealed = seal(b"");
        assert_eq!(unseal(&sealed).unwrap(), b"");
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let sealed = seal(b"determinacy");
        for i in 0..sealed.len() {
            for bit in 0..8 {
                let mut bad = sealed.clone();
                bad[i] ^= 1 << bit;
                assert!(
                    unseal(&bad).is_err(),
                    "flip of byte {i} bit {bit} was accepted"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let sealed = seal(b"cold start beats a wrong answer");
        for len in 0..sealed.len() {
            assert!(
                unseal(&sealed[..len]).is_err(),
                "truncation to {len} accepted"
            );
        }
    }

    #[test]
    fn version_skew_is_typed() {
        let skewed = VERSION + 1;
        let mut sealed = seal(b"x");
        sealed[4..8].copy_from_slice(&skewed.to_le_bytes());
        assert_eq!(
            unseal(&sealed),
            Err(SnapshotError::VersionMismatch { found: skewed })
        );
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut sealed = seal(b"x");
        sealed[0] = b'X';
        assert_eq!(unseal(&sealed), Err(SnapshotError::BadMagic));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut sealed = seal(b"x");
        sealed.push(0);
        assert_eq!(unseal(&sealed), Err(SnapshotError::Truncated));
    }

    #[test]
    fn writer_reader_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u64(1 << 40);
        w.bytes(b"canon");
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.bytes().unwrap(), b"canon");
        assert!(r.is_exhausted());
    }

    #[test]
    fn reader_never_overruns() {
        let buf = [1u8, 2, 3];
        let mut r = Reader::new(&buf);
        assert!(r.u64().is_err());
        // A hostile length prefix larger than the buffer is Truncated,
        // not an allocation or a panic.
        let mut w = Writer::new();
        w.u64(u64::MAX);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert!(r.bytes().is_err());
    }

    #[test]
    fn count_guards_hostile_lengths() {
        let mut w = Writer::new();
        w.u64(10_000_000);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert!(matches!(
            r.count(1_000_000),
            Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn save_atomic_then_open_round_trips() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("cqdet-snap-test-{}.bin", std::process::id()));
        save_atomic(&path, b"warm start").unwrap();
        assert_eq!(open(&path).unwrap(), b"warm start");
        // Overwrite atomically.
        save_atomic(&path, b"second generation").unwrap();
        assert_eq!(open(&path).unwrap(), b"second generation");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_missing_file_is_io_error() {
        let err = open(Path::new("/nonexistent/cqdet.snap")).unwrap_err();
        assert!(matches!(err, SnapshotError::Io(_)));
    }
}
