//! The one container every cache file is stored in, and the one way
//! each is published.
//!
//! A sealed file is `magic (8 bytes) · format version (u32 LE) ·
//! payload checksum (u64 LE) · payload`. The per-TU summary entries
//! (`tu-<hash>.mod`) and the analysis snapshot (`analysis.snap`) differ
//! only in their magic, their version constant, and what their payload
//! holds. [`unseal`] checks the three header fields in that order, so a
//! file from another format version is told apart from a torn or
//! corrupt one.
//!
//! Files are published atomically: the image is written to a
//! process-unique `<name>.tmp.<pid>` inside the cache directory, then
//! renamed over `<name>`. Readers observe either no file, the previous
//! one, or the new one, never a torn file. A crash between the write and
//! the rename leaves only a dangling temp, which the next open of the
//! directory sweeps once it is old enough. The `DDM_CACHE_FAULT`
//! environment variable injects crashes into this path for the torture
//! tests: `kill-mid-write` / `kill-pre-rename` fault the first summary
//! entry, `snap-kill-mid-write` / `snap-kill-pre-rename` the snapshot.

use std::fmt;
use std::path::Path;

/// Bytes before the payload: magic, version, checksum.
const HEADER_LEN: usize = 8 + 4 + 8;

/// Payload checksum: FNV-1a folded over little-endian 8-byte words
/// with the tail zero-padded and the length mixed in last. Detects the
/// same torn/corrupt writes as byte-wise FNV but reads the payload a
/// word at a time. Part of every sealed format (a change here must bump
/// each format's version).
fn checksum(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h ^= u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = h.wrapping_mul(PRIME);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h ^= u64::from_le_bytes(tail);
        h = h.wrapping_mul(PRIME);
    }
    h ^= bytes.len() as u64;
    h.wrapping_mul(PRIME)
}

/// Frames `payload` into a complete file image.
pub(crate) fn seal(magic: &[u8; 8], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&checksum(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Why [`unseal`] rejected a file image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EnvelopeError {
    /// Shorter than the header.
    Truncated,
    /// Not this kind of file.
    BadMagic,
    /// Written by another format version.
    VersionSkew,
    /// The payload does not match its checksum (torn or corrupt).
    Checksum,
}

impl fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EnvelopeError::Truncated => "truncated envelope",
            EnvelopeError::BadMagic => "bad magic",
            EnvelopeError::VersionSkew => "format version mismatch",
            EnvelopeError::Checksum => "payload checksum mismatch",
        })
    }
}

/// The payload of a file image sealed with `magic` at `version`.
///
/// # Errors
///
/// The first header check that fails, in the order magic, version,
/// checksum.
pub(crate) fn unseal<'b>(
    bytes: &'b [u8],
    magic: &[u8; 8],
    version: u32,
) -> Result<&'b [u8], EnvelopeError> {
    if bytes.len() < HEADER_LEN {
        return Err(EnvelopeError::Truncated);
    }
    if &bytes[..8] != magic {
        return Err(EnvelopeError::BadMagic);
    }
    if u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) != version {
        return Err(EnvelopeError::VersionSkew);
    }
    let sum = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let payload = &bytes[HEADER_LEN..];
    if checksum(payload) != sum {
        return Err(EnvelopeError::Checksum);
    }
    Ok(payload)
}

/// The cache files a `DDM_CACHE_FAULT` crash point can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CacheFile {
    /// A per-TU summary entry.
    Entry,
    /// The analysis snapshot.
    Snapshot,
}

/// A crash-injection point inside [`publish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// Abort after writing half the image to the temp file (a torn
    /// temp, never a torn final).
    KillMidWrite,
    /// Abort after fully writing the temp file, before the rename (a
    /// complete but unpublished temp).
    KillPreRename,
}

/// The fault `DDM_CACHE_FAULT` selects for `file`, read once per
/// process. Unset or unrecognized values disable injection.
fn cache_fault(file: CacheFile) -> Option<Fault> {
    static FAULT: std::sync::OnceLock<Option<(CacheFile, Fault)>> = std::sync::OnceLock::new();
    let selected = *FAULT.get_or_init(|| match std::env::var("DDM_CACHE_FAULT").as_deref() {
        Ok("kill-mid-write") => Some((CacheFile::Entry, Fault::KillMidWrite)),
        Ok("kill-pre-rename") => Some((CacheFile::Entry, Fault::KillPreRename)),
        Ok("snap-kill-mid-write") => Some((CacheFile::Snapshot, Fault::KillMidWrite)),
        Ok("snap-kill-pre-rename") => Some((CacheFile::Snapshot, Fault::KillPreRename)),
        _ => None,
    });
    selected.and_then(|(target, fault)| (target == file).then_some(fault))
}

/// Atomically publishes `bytes` as `dir/name` (temp, then rename).
/// Best-effort like all cache I/O: any failure simply means the file is
/// recomputed next time.
pub(crate) fn publish(dir: &Path, name: &str, bytes: &[u8], file: CacheFile) {
    let tmp = dir.join(format!("{name}.tmp.{}", std::process::id()));
    let fault = cache_fault(file);
    let written = (|| -> std::io::Result<()> {
        use std::io::Write as _;
        let mut f = std::fs::File::create(&tmp)?;
        if fault == Some(Fault::KillMidWrite) {
            f.write_all(&bytes[..bytes.len() / 2])?;
            let _ = f.sync_all();
            std::process::abort();
        }
        f.write_all(bytes)?;
        Ok(())
    })();
    match written {
        Ok(()) => {
            if fault == Some(Fault::KillPreRename) {
                std::process::abort();
            }
            let _ = std::fs::rename(&tmp, dir.join(name));
        }
        Err(_) => {
            let _ = std::fs::remove_file(&tmp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_checks_run_in_order() {
        let image = seal(b"TESTMAGC", 3, b"payload bytes");
        assert_eq!(unseal(&image, b"TESTMAGC", 3), Ok(&b"payload bytes"[..]));
        assert_eq!(
            unseal(&image[..HEADER_LEN - 1], b"TESTMAGC", 3),
            Err(EnvelopeError::Truncated)
        );
        assert_eq!(unseal(&image, b"OTHERMAG", 3), Err(EnvelopeError::BadMagic));
        assert_eq!(
            unseal(&image, b"TESTMAGC", 4),
            Err(EnvelopeError::VersionSkew)
        );
        let mut flipped = image.clone();
        *flipped.last_mut().unwrap() ^= 1;
        assert_eq!(
            unseal(&flipped, b"TESTMAGC", 3),
            Err(EnvelopeError::Checksum)
        );
        // Version skew is reported even when the payload is also damaged:
        // another version may lay its payload out differently.
        assert_eq!(
            unseal(&flipped, b"TESTMAGC", 4),
            Err(EnvelopeError::VersionSkew)
        );
    }

    #[test]
    fn an_empty_payload_seals_and_unseals() {
        let image = seal(b"TESTMAGC", 1, &[]);
        assert_eq!(image.len(), HEADER_LEN);
        assert_eq!(unseal(&image, b"TESTMAGC", 1), Ok(&[][..]));
    }
}
