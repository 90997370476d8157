//! The container format: header, checksummed sections, primitive codecs,
//! and crash-safe file replacement.
//!
//! ## Layout
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"NEMOPRST"
//! 8       4     format version (little-endian u32; currently 1)
//! 12      4     endianness tag 0x0102_0304 (LE on disk; a byte-swapped
//!               writer would round-trip to 0x0403_0201)
//! 16      4     file kind (2 = session checkpoint; 1 is retired, see
//!               [`KIND_SESSION`])
//! 20      4     section count
//! 24      4     CRC-32 (IEEE) over bytes 0..24
//! 28      …     sections, sequential:
//!               [u32 section id][u64 payload length][u32 payload CRC][payload]
//! ```
//!
//! All integers are little-endian. Sections appear in a fixed order per
//! file kind, so the reader knows exactly which id must come next — a
//! corrupted id is caught by position, not by searching.
//!
//! ## Why every corruption maps to a typed error
//!
//! - Any byte flip in the header trips the magic, version, endianness,
//!   kind, count, or header-CRC check.
//! - Any byte flip in a section id trips the fixed-order id check; in a
//!   length prefix it either desynchronizes the CRC framing or runs past
//!   the end of the buffer ([`PersistError::Truncated`] /
//!   [`PersistError::LengthOverflow`]); in a payload or its CRC it trips
//!   [`PersistError::ChecksumMismatch`].
//! - Truncation at any length cuts a header field, a section frame, or a
//!   payload — all of which read as [`PersistError::Truncated`] (or a
//!   CRC/count mismatch when the cut lands on a frame boundary).
//! - A *crafted* file with consistent CRCs can still lie inside a payload
//!   (an element count larger than the payload holds); the element
//!   decoders therefore validate every length prefix against the bytes
//!   actually remaining, with overflow-checked multiplication.
//!
//! `tests/persist_fault_injection.rs` exercises all of the above
//! byte-by-byte.

use std::fs;
use std::io::Write;
use std::path::Path;

/// On-disk magic, first 8 bytes of every file.
pub const MAGIC: [u8; 8] = *b"NEMOPRST";
/// Current format version.
pub const FORMAT_VERSION: u32 = 1;
/// Endianness canary: round-trips to itself only under the writer's
/// byte order.
pub const ENDIAN_TAG: u32 = 0x0102_0304;
/// File kind: session checkpoint. Kind 1 is retired: it marked the
/// dataset artifact files of earlier versions, which open as
/// [`PersistError::WrongKind`].
pub const KIND_SESSION: u32 = 2;
/// Header length in bytes (magic through header CRC).
pub const HEADER_LEN: usize = 28;

/// Why a persisted file could not be written or loaded.
///
/// Loading never panics on hostile input: every structural inconsistency
/// maps to one of these variants.
#[derive(Debug)]
pub enum PersistError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not supported by this build.
    UnsupportedVersion(u32),
    /// The endianness canary does not round-trip: the file was written
    /// with a different byte order.
    EndiannessMismatch,
    /// The file is of a different kind than requested (e.g. a retired
    /// dataset artifact file opened as a session checkpoint).
    WrongKind {
        /// Kind requested by the caller.
        expected: u32,
        /// Kind recorded in the file.
        found: u32,
    },
    /// The file ends before a declared field or payload.
    Truncated,
    /// The header's or a section's CRC-32 does not match its bytes.
    ChecksumMismatch {
        /// What failed: `"header"` or the section name.
        what: &'static str,
    },
    /// A section id out of the fixed order for this file kind.
    UnexpectedSection {
        /// Section id required at this position.
        expected: u32,
        /// Section id found.
        found: u32,
    },
    /// The header's section count disagrees with the sections present.
    SectionCount {
        /// Sections the reader needed.
        expected: u32,
        /// Sections the header declared.
        found: u32,
    },
    /// A length prefix asks for more elements than the payload holds
    /// (or overflows the address space).
    LengthOverflow,
    /// A decoded value violates a documented invariant of its type.
    InvalidValue(&'static str),
    /// Valid sections were followed by unaccounted trailing bytes.
    TrailingBytes,
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::BadMagic => write!(f, "not a nemo persist file (bad magic)"),
            PersistError::UnsupportedVersion(v) => {
                write!(f, "unsupported format version {v} (this build reads {FORMAT_VERSION})")
            }
            PersistError::EndiannessMismatch => {
                write!(f, "file written with a different byte order")
            }
            PersistError::WrongKind { expected, found } => {
                write!(f, "wrong file kind: expected {expected}, found {found}")
            }
            PersistError::Truncated => write!(f, "file truncated"),
            PersistError::ChecksumMismatch { what } => {
                write!(f, "checksum mismatch in {what}")
            }
            PersistError::UnexpectedSection { expected, found } => {
                write!(f, "unexpected section id {found} (expected {expected})")
            }
            PersistError::SectionCount { expected, found } => {
                write!(
                    f,
                    "section count mismatch: header declares {found}, reader needs {expected}"
                )
            }
            PersistError::LengthOverflow => {
                write!(f, "length prefix exceeds the available payload")
            }
            PersistError::InvalidValue(what) => write!(f, "invalid value: {what}"),
            PersistError::TrailingBytes => write!(f, "trailing bytes after the last section"),
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

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB8_8320) lookup tables,
/// built at compile time — the workspace is dependency-free by design, so
/// the checksum is implemented here. Eight tables implement the
/// slicing-by-8 variant: table `t` maps a byte to its CRC contribution
/// `t` positions further down the stream, so eight input bytes fold into
/// the running CRC per iteration instead of one.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes`, eight bytes per table lookup round.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Convert a persisted `u64` count/index to `usize`, rejecting values the
/// address space cannot hold.
pub fn to_usize(v: u64) -> Result<usize, PersistError> {
    usize::try_from(v).map_err(|_| PersistError::LengthOverflow)
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Append-only payload encoder. All multi-byte values are little-endian;
/// variable-length data is length-prefixed with a `u64` element count.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append a raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append an `i8` (two's complement byte).
    pub fn i8(&mut self, v: i8) {
        self.buf.push(v as u8);
    }

    /// Append a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as a little-endian `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Append a little-endian IEEE-754 `f64` (bit pattern preserved).
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Append an optional `u64` (presence byte + value).
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.u8(1);
                self.u64(v);
            }
            None => self.u8(0),
        }
    }

    /// Append an optional `f64` (presence byte + value).
    pub fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(v) => {
                self.u8(1);
                self.f64(v);
            }
            None => self.u8(0),
        }
    }

    /// Append a length-prefixed `i8` slice.
    pub fn vec_i8(&mut self, v: &[i8]) {
        self.usize(v.len());
        for &x in v {
            self.i8(x);
        }
    }

    /// Append a length-prefixed bool slice (one byte per flag).
    pub fn vec_bool(&mut self, v: &[bool]) {
        self.usize(v.len());
        for &x in v {
            self.u8(x as u8);
        }
    }

    /// Append a length-prefixed `f64` slice.
    pub fn vec_f64(&mut self, v: &[f64]) {
        self.usize(v.len());
        for &x in v {
            self.f64(x);
        }
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Bounds-checked payload cursor. Every read validates against the bytes
/// actually present; element counts are checked with overflow-safe
/// arithmetic *before* any allocation, so a lying length prefix cannot
/// trigger a huge allocation or a panic.
#[derive(Debug, Clone, Copy)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Decode from a payload slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Require the payload to be fully consumed (a valid-CRC payload with
    /// leftover bytes is malformed, not silently acceptable).
    pub fn finish(&self) -> Result<(), PersistError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(PersistError::TrailingBytes)
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if n > self.remaining() {
            return Err(PersistError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    /// Read an `i8`.
    pub fn i8(&mut self) -> Result<i8, PersistError> {
        Ok(self.take(1)?[0] as i8)
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, PersistError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, PersistError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Read a `u64` and convert to `usize`.
    pub fn usize(&mut self) -> Result<usize, PersistError> {
        to_usize(self.u64()?)
    }

    /// Read an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a presence byte (`0`/`1`; anything else is invalid).
    pub fn presence(&mut self) -> Result<bool, PersistError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(PersistError::InvalidValue("presence byte must be 0 or 1")),
        }
    }

    /// Read an optional `u64`.
    pub fn opt_u64(&mut self) -> Result<Option<u64>, PersistError> {
        Ok(if self.presence()? { Some(self.u64()?) } else { None })
    }

    /// Read an optional `f64`.
    pub fn opt_f64(&mut self) -> Result<Option<f64>, PersistError> {
        Ok(if self.presence()? { Some(self.f64()?) } else { None })
    }

    /// Validate an element-count prefix against the remaining payload:
    /// `count * elem_size` must fit in `usize` *and* in the bytes left.
    fn checked_count(&self, count: usize, elem_size: usize) -> Result<usize, PersistError> {
        let bytes = count.checked_mul(elem_size).ok_or(PersistError::LengthOverflow)?;
        if bytes > self.remaining() {
            return Err(PersistError::LengthOverflow);
        }
        Ok(count)
    }

    /// Read a length-prefixed `i8` vector.
    pub fn vec_i8(&mut self) -> Result<Vec<i8>, PersistError> {
        let n = self.usize()?;
        let n = self.checked_count(n, 1)?;
        let bytes = self.take(n)?;
        Ok(bytes.iter().map(|&b| b as i8).collect())
    }

    /// Read a length-prefixed bool vector (bytes must be 0/1).
    pub fn vec_bool(&mut self) -> Result<Vec<bool>, PersistError> {
        let n = self.usize()?;
        let n = self.checked_count(n, 1)?;
        let bytes = self.take(n)?;
        bytes
            .iter()
            .map(|&b| match b {
                0 => Ok(false),
                1 => Ok(true),
                _ => Err(PersistError::InvalidValue("bool byte must be 0 or 1")),
            })
            .collect()
    }

    /// Read a length-prefixed `f64` vector (bit patterns preserved).
    pub fn vec_f64(&mut self) -> Result<Vec<f64>, PersistError> {
        let n = self.usize()?;
        let n = self.checked_count(n, 8)?;
        let bytes = self.take(n * 8)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| {
                f64::from_bits(u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
            })
            .collect())
    }
}

// ---------------------------------------------------------------------------
// File assembly and parsing
// ---------------------------------------------------------------------------

/// Assembles a complete file image: header plus checksummed sections in
/// the order they are added.
#[derive(Debug)]
pub struct FileBuilder {
    kind: u32,
    sections: Vec<(u32, Vec<u8>)>,
}

impl FileBuilder {
    /// Start a file of the given kind.
    pub fn new(kind: u32) -> Self {
        Self { kind, sections: Vec::new() }
    }

    /// Append a section.
    pub fn section(&mut self, id: u32, payload: Vec<u8>) {
        self.sections.push((id, payload));
    }

    /// Produce the final byte image (header CRC and per-section CRCs
    /// computed here).
    pub fn into_bytes(self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&ENDIAN_TAG.to_le_bytes());
        out.extend_from_slice(&self.kind.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        let header_crc = crc32(&out);
        out.extend_from_slice(&header_crc.to_le_bytes());
        for (id, payload) in &self.sections {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&crc32(payload).to_le_bytes());
            out.extend_from_slice(payload);
        }
        out
    }
}

/// Parses a file image: validates the header, then serves sections in the
/// caller's fixed order, verifying id, framing, and CRC for each.
#[derive(Debug)]
pub struct FileParser<'a> {
    buf: &'a [u8],
    pos: usize,
    sections_left: u32,
    sections_declared: u32,
    sections_read: u32,
}

impl<'a> FileParser<'a> {
    /// Validate the header of `buf` as a file of kind `expected_kind`.
    pub fn open(buf: &'a [u8], expected_kind: u32) -> Result<Self, PersistError> {
        if buf.len() < HEADER_LEN {
            // Distinguish "not even a magic" from a short header so tiny
            // files still produce a sensible error.
            if buf.len() < MAGIC.len() {
                return Err(if buf.is_empty() || !MAGIC.starts_with(buf) {
                    PersistError::BadMagic
                } else {
                    PersistError::Truncated
                });
            }
            if buf[..MAGIC.len()] != MAGIC {
                return Err(PersistError::BadMagic);
            }
            return Err(PersistError::Truncated);
        }
        if buf[..8] != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let word = |at: usize| u32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]]);
        // The endianness canary is checked before the version: on a
        // byte-swapped file *every* header word is garbled, and the swap
        // is the actionable diagnosis.
        if word(12) != ENDIAN_TAG {
            return Err(PersistError::EndiannessMismatch);
        }
        if word(8) != FORMAT_VERSION {
            return Err(PersistError::UnsupportedVersion(word(8)));
        }
        if word(24) != crc32(&buf[..24]) {
            return Err(PersistError::ChecksumMismatch { what: "header" });
        }
        if word(16) != expected_kind {
            return Err(PersistError::WrongKind { expected: expected_kind, found: word(16) });
        }
        let n_sections = word(20);
        Ok(Self {
            buf,
            pos: HEADER_LEN,
            sections_left: n_sections,
            sections_declared: n_sections,
            sections_read: 0,
        })
    }

    /// Read the next section, which must carry `expected_id`
    /// (`name` labels checksum failures). Returns a [`Dec`] over the
    /// verified payload.
    pub fn section(
        &mut self,
        expected_id: u32,
        name: &'static str,
    ) -> Result<Dec<'a>, PersistError> {
        if self.sections_left == 0 {
            return Err(PersistError::SectionCount {
                expected: self.sections_read + 1,
                found: self.sections_declared,
            });
        }
        let frame = self.buf.get(self.pos..self.pos + 16).ok_or(PersistError::Truncated)?;
        let id = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]);
        if id != expected_id {
            return Err(PersistError::UnexpectedSection { expected: expected_id, found: id });
        }
        let len = to_usize(u64::from_le_bytes([
            frame[4], frame[5], frame[6], frame[7], frame[8], frame[9], frame[10], frame[11],
        ]))?;
        let crc = u32::from_le_bytes([frame[12], frame[13], frame[14], frame[15]]);
        let start = self.pos + 16;
        let payload = self
            .buf
            .get(start..start.checked_add(len).ok_or(PersistError::LengthOverflow)?)
            .ok_or(PersistError::Truncated)?;
        if crc32(payload) != crc {
            return Err(PersistError::ChecksumMismatch { what: name });
        }
        self.pos = start + len;
        self.sections_left -= 1;
        self.sections_read += 1;
        Ok(Dec::new(payload))
    }

    /// Read a trailing section that older files of this kind end without,
    /// which must carry `expected_id` if present: `None` when the header
    /// declares no more sections and the file ends here. Otherwise the
    /// section is read as [`FileParser::section`] reads one, and a header
    /// that disagrees with the body is still a
    /// [`PersistError::SectionCount`]: one that declares the section over
    /// a body ending without it, or declares none while a frame with
    /// `expected_id` follows.
    pub fn optional_section(
        &mut self,
        expected_id: u32,
        name: &'static str,
    ) -> Result<Option<Dec<'a>>, PersistError> {
        let at_end = self.pos == self.buf.len();
        let next_id = self.buf.get(self.pos..self.pos + 4);
        match (self.sections_left, at_end) {
            (0, true) => Ok(None),
            (0, false) if next_id == Some(&expected_id.to_le_bytes()[..]) => {
                Err(PersistError::SectionCount {
                    expected: self.sections_read + 1,
                    found: self.sections_declared,
                })
            }
            // Trailing bytes, which `finish` reports.
            (0, false) => Ok(None),
            (_, true) => Err(PersistError::SectionCount {
                expected: self.sections_read,
                found: self.sections_declared,
            }),
            (_, false) => self.section(expected_id, name).map(Some),
        }
    }

    /// Require the file to be fully consumed: no undeclared sections, no
    /// declared-but-unread sections, no trailing bytes.
    pub fn finish(self) -> Result<(), PersistError> {
        if self.sections_left != 0 {
            return Err(PersistError::SectionCount {
                expected: self.sections_read,
                found: self.sections_declared,
            });
        }
        if self.pos != self.buf.len() {
            return Err(PersistError::TrailingBytes);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Crash-safe file replacement
// ---------------------------------------------------------------------------

/// Write `bytes` to `path` crash-safely: write to a temporary file in the
/// same directory, fsync it, atomically rename it over `path`, then fsync
/// the directory. A crash at any point leaves either the old file or the
/// new file — never a partial mix.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| PersistError::Io(std::io::Error::other("path has no file name")))?;
    let tmp = {
        let mut name = std::ffi::OsString::from(".");
        name.push(file_name);
        name.push(format!(".tmp.{}", std::process::id()));
        match dir {
            Some(d) => d.join(name),
            None => std::path::PathBuf::from(name),
        }
    };
    let result = (|| -> Result<(), PersistError> {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, path)?;
        // Make the rename itself durable (directory metadata).
        if let Some(d) = dir {
            if let Ok(dh) = fs::File::open(d) {
                let _ = dh.sync_all();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn primitive_roundtrip() {
        let mut e = Enc::new();
        e.u8(7);
        e.i8(-3);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 1);
        e.f64(f64::NEG_INFINITY);
        e.opt_f64(Some(1.5));
        e.opt_f64(None);
        e.opt_u64(Some(9));
        e.vec_i8(&[-1, 1]);
        e.vec_bool(&[true, false]);
        e.vec_f64(&[0.25]);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.i8().unwrap(), -3);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.f64().unwrap(), f64::NEG_INFINITY);
        assert_eq!(d.opt_f64().unwrap(), Some(1.5));
        assert_eq!(d.opt_f64().unwrap(), None);
        assert_eq!(d.opt_u64().unwrap(), Some(9));
        assert_eq!(d.vec_i8().unwrap(), vec![-1, 1]);
        assert_eq!(d.vec_bool().unwrap(), vec![true, false]);
        assert_eq!(d.vec_f64().unwrap(), vec![0.25]);
        d.finish().unwrap();
    }

    #[test]
    fn lying_length_prefix_is_overflow_not_panic() {
        let mut e = Enc::new();
        e.usize(1_000_000); // declares a million elements…
        e.f64(1.0); // …but holds one
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(matches!(d.vec_f64(), Err(PersistError::LengthOverflow)));
        // Absurd count that would overflow `count * elem_size`.
        let mut e = Enc::new();
        e.u64(u64::MAX);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(matches!(d.vec_f64(), Err(PersistError::LengthOverflow)));
    }

    #[test]
    fn truncated_reads_are_typed() {
        let mut d = Dec::new(&[1, 2]);
        assert!(matches!(d.u32(), Err(PersistError::Truncated)));
        let mut d = Dec::new(&[]);
        assert!(matches!(d.u8(), Err(PersistError::Truncated)));
    }

    #[test]
    fn file_roundtrip_and_finish() {
        let mut b = FileBuilder::new(KIND_SESSION);
        let mut e = Enc::new();
        e.vec_f64(&[4.0, 5.0]);
        b.section(1, e.into_bytes());
        b.section(2, Vec::new());
        let bytes = b.into_bytes();
        let mut p = FileParser::open(&bytes, KIND_SESSION).unwrap();
        let mut s1 = p.section(1, "first").unwrap();
        assert_eq!(s1.vec_f64().unwrap(), vec![4.0, 5.0]);
        s1.finish().unwrap();
        let s2 = p.section(2, "second").unwrap();
        s2.finish().unwrap();
        p.finish().unwrap();
    }

    #[test]
    fn header_violations_are_typed() {
        let mut b = FileBuilder::new(KIND_SESSION);
        b.section(1, vec![1, 2, 3]);
        let good = b.into_bytes();

        assert!(matches!(FileParser::open(&[], KIND_SESSION), Err(PersistError::BadMagic)));
        assert!(matches!(
            FileParser::open(&good[..10], KIND_SESSION),
            Err(PersistError::Truncated)
        ));
        // Kind 1, the retired dataset artifact.
        let mut b = FileBuilder::new(1);
        b.section(1, vec![1, 2, 3]);
        assert!(matches!(
            FileParser::open(&b.into_bytes(), KIND_SESSION),
            Err(PersistError::WrongKind { expected: KIND_SESSION, found: 1 })
        ));

        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(FileParser::open(&bad, KIND_SESSION), Err(PersistError::BadMagic)));

        let mut bad = good.clone();
        bad[8] = 99; // version — caught by the version check
        assert!(matches!(
            FileParser::open(&bad, KIND_SESSION),
            Err(PersistError::UnsupportedVersion(99))
        ));

        let mut bad = good.clone();
        bad[12] ^= 0xFF; // endian tag
        assert!(matches!(
            FileParser::open(&bad, KIND_SESSION),
            Err(PersistError::EndiannessMismatch)
        ));

        let mut bad = good.clone();
        bad[20] ^= 1; // section count — header CRC trips
        assert!(matches!(
            FileParser::open(&bad, KIND_SESSION),
            Err(PersistError::ChecksumMismatch { what: "header" })
        ));
    }

    #[test]
    fn section_violations_are_typed() {
        let mut b = FileBuilder::new(KIND_SESSION);
        b.section(3, vec![9; 8]);
        let good = b.into_bytes();

        // Wrong id at this position.
        let mut p = FileParser::open(&good, KIND_SESSION).unwrap();
        assert!(matches!(
            p.section(4, "other"),
            Err(PersistError::UnexpectedSection { expected: 4, found: 3 })
        ));

        // Payload corruption.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x80;
        let mut p = FileParser::open(&bad, KIND_SESSION).unwrap();
        assert!(matches!(
            p.section(3, "payload"),
            Err(PersistError::ChecksumMismatch { what: "payload" })
        ));

        // Asking for more sections than declared.
        let mut p = FileParser::open(&good, KIND_SESSION).unwrap();
        p.section(3, "payload").unwrap();
        assert!(matches!(p.section(5, "missing"), Err(PersistError::SectionCount { .. })));

        // Declared sections left unread.
        let p = FileParser::open(&good, KIND_SESSION).unwrap();
        assert!(matches!(p.finish(), Err(PersistError::SectionCount { .. })));

        // Trailing garbage after the last section.
        let mut bad = good.clone();
        bad.push(0);
        // Header CRC does not cover the tail, so open succeeds…
        let mut p = FileParser::open(&bad, KIND_SESSION).unwrap();
        p.section(3, "payload").unwrap();
        // …but finish rejects the extra byte.
        assert!(matches!(p.finish(), Err(PersistError::TrailingBytes)));
    }

    #[test]
    fn write_atomic_replaces_and_survives_garbage_tmp() {
        let dir = std::env::temp_dir().join(format!("nemo-persist-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.bin");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        // No temp litter left behind.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
