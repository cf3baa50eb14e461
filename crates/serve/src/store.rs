//! Crash-consistent fleet checkpointing: [`FleetCheckpointStore`].
//!
//! The store wraps the fleet's manifest payload (see
//! [`FleetScheduler::recover`]) in a small self-validating container
//! and writes it atomically — temp file + rename — so a hard kill at
//! any instant leaves either the previous manifest or the new one,
//! never a torn file:
//!
//! ```text
//! magic "PIMVOFLT" | version u16 | payload_len u64 | payload | crc32
//! ```
//!
//! The CRC (the same CRC-32 the per-session tracker checkpoints use,
//! [`pimvo_telemetry::crc32`]) covers the payload; magic and version
//! catch foreign or stale files before the payload is parsed.

use crate::fleet::MANIFEST_PAYLOAD_VERSION;
use crate::FleetScheduler;
use pimvo_telemetry::crc32;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Container magic: "PIMVOFLT" (fleet), distinct from the per-session
/// tracker checkpoint magic "PIMVOCKP".
const MAGIC: &[u8; 8] = b"PIMVOFLT";
/// Bytes before the payload: magic + version + payload length.
const HEADER_LEN: usize = 8 + 2 + 8;

/// Typed fleet-store errors.
#[derive(Debug)]
pub enum StoreError {
    /// Reading or writing the manifest file failed.
    Io(std::io::Error),
    /// The file does not start with the fleet-manifest magic.
    BadMagic,
    /// The manifest was written by an incompatible version.
    Version(u16),
    /// The payload CRC does not match: torn or corrupted file.
    Crc {
        /// CRC recorded in the file.
        expected: u32,
        /// CRC of the payload actually read.
        got: u32,
    },
    /// The payload failed structural validation.
    Malformed(&'static str),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "fleet manifest I/O failed: {e}"),
            StoreError::BadMagic => write!(f, "not a fleet manifest (bad magic)"),
            StoreError::Version(v) => write!(f, "unsupported fleet manifest version {v}"),
            StoreError::Crc { expected, got } => write!(
                f,
                "fleet manifest CRC mismatch (expected {expected:#010x}, got {got:#010x})"
            ),
            StoreError::Malformed(what) => write!(f, "malformed fleet manifest: {what}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Atomic, CRC-checked storage for one fleet manifest file.
#[derive(Debug, Clone)]
pub struct FleetCheckpointStore {
    path: PathBuf,
}

impl FleetCheckpointStore {
    /// A store over `path`. Nothing is touched until the first
    /// [`FleetCheckpointStore::save`].
    pub fn new(path: impl Into<PathBuf>) -> Self {
        FleetCheckpointStore { path: path.into() }
    }

    /// The manifest path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether a manifest file exists (it may still fail validation).
    pub fn exists(&self) -> bool {
        self.path.exists()
    }

    /// Saves the fleet's manifest atomically: the container is written
    /// to a sibling temp file, flushed, and renamed over the target, so
    /// a kill mid-save can never leave a torn manifest behind.
    ///
    /// The manifest covers the virtual clock, pool health/probation,
    /// scheduler counters and per-session checkpoint blobs. In-flight
    /// queued frames are not saved — a crash loses uncommitted frames
    /// and the submitter replays them (at-least-once semantics).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on any filesystem failure.
    pub fn save(&self, fleet: &FleetScheduler) -> Result<(), StoreError> {
        let payload = fleet.manifest_payload();
        let mut buf = Vec::with_capacity(HEADER_LEN + payload.len() + 4);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&MANIFEST_PAYLOAD_VERSION.to_le_bytes());
        buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        buf.extend_from_slice(&payload);
        buf.extend_from_slice(&crc32(&payload).to_le_bytes());

        let tmp = self.path.with_extension("fleet.tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&buf)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &self.path)?;
        Ok(())
    }

    /// Reads and validates the container, returning the raw manifest
    /// payload for [`FleetScheduler::recover`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the file cannot be read, and
    /// [`StoreError::BadMagic`] / [`StoreError::Version`] /
    /// [`StoreError::Malformed`] / [`StoreError::Crc`] when it fails
    /// validation.
    pub fn load_payload(&self) -> Result<Vec<u8>, StoreError> {
        let bytes = fs::read(&self.path)?;
        if bytes.len() < HEADER_LEN + 4 {
            return Err(StoreError::Malformed("file shorter than header"));
        }
        if &bytes[..8] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = u16::from_le_bytes(bytes[8..10].try_into().expect("2 bytes"));
        if version != MANIFEST_PAYLOAD_VERSION {
            return Err(StoreError::Version(version));
        }
        let len = u64::from_le_bytes(bytes[10..18].try_into().expect("8 bytes")) as usize;
        if bytes.len() != HEADER_LEN + len + 4 {
            return Err(StoreError::Malformed("payload length mismatch"));
        }
        let payload = &bytes[HEADER_LEN..HEADER_LEN + len];
        let expected = u32::from_le_bytes(bytes[HEADER_LEN + len..].try_into().expect("4 bytes"));
        let got = crc32(payload);
        if expected != got {
            return Err(StoreError::Crc { expected, got });
        }
        Ok(payload.to_vec())
    }
}
