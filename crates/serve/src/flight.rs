//! Per-session flight recorder: a ring of the last N frames' op
//! traces, dumped atomically when something goes wrong.
//!
//! Arming [`crate::SessionSpec::flight_recorder`] makes the fleet
//! record every frame the session runs on the shared pool as a
//! dependency-tracked op trace ([`pimvo_telemetry::optrace`]) and keep
//! the most recent `frames` of them. When the session's circuit
//! breaker trips, a frame misses its deadline, or the pool quarantines
//! an array during the frame, the ring is dumped to disk — like an
//! aircraft flight recorder, the file holds the *lead-up* to the
//! incident, not just the incident itself.
//!
//! Dumps use the same self-validating container idiom as the fleet
//! manifest ([`crate::FleetCheckpointStore`]): written to a temp file
//! and renamed into place, CRC-checked on load, decoded with typed
//! [`StoreError`]s:
//!
//! ```text
//! magic "PIMVOFDR" | version u16 | session u32 | reason u8
//!   | nframes u64 | (frame u64, wall_delta u64, len u64, OpTrace)* | crc32
//! ```
//!
//! Each embedded [`OpTrace`] is itself a CRC'd container, so a dump
//! replays through the ordinary trace tooling: the critical path of a
//! frame's trace equals that frame's recorded `wall_delta` (asserted
//! by the chaos harness in `pimvo-bench`).

use crate::store::StoreError;
use pimvo_telemetry::crc32;
use pimvo_telemetry::optrace::OpTrace;
use std::collections::VecDeque;
use std::fs;
use std::io::Write;
use std::path::Path;

/// Container magic: "PIMVOFDR" (flight data recorder), distinct from
/// the fleet manifest magic "PIMVOFLT" and the raw trace "PIMVOTRC".
pub const FLIGHT_MAGIC: &[u8; 8] = b"PIMVOFDR";
/// Dump container version; bumped on layout changes.
pub const FLIGHT_VERSION: u16 = 1;
/// Bytes before the frame list: magic + version + session + reason +
/// frame count.
const HEADER_LEN: usize = 8 + 2 + 4 + 1 + 8;

/// Why a flight dump was written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DumpReason {
    /// The session's circuit breaker tripped open on this frame.
    BreakerTrip,
    /// The frame completed past the session's deadline.
    DeadlineMiss,
    /// The shared pool quarantined at least one array during the frame.
    Quarantine,
    /// An operator or tool requested the dump (no incident).
    Manual,
    /// A host↔array DMA channel quarantined during the frame (the
    /// transfer retry ladder exhausted; traffic degraded to the
    /// synchronous port).
    DmaQuarantine,
}

impl DumpReason {
    /// Stable wire tag.
    fn as_u8(self) -> u8 {
        match self {
            DumpReason::BreakerTrip => 0,
            DumpReason::DeadlineMiss => 1,
            DumpReason::Quarantine => 2,
            DumpReason::Manual => 3,
            DumpReason::DmaQuarantine => 4,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(DumpReason::BreakerTrip),
            1 => Some(DumpReason::DeadlineMiss),
            2 => Some(DumpReason::Quarantine),
            3 => Some(DumpReason::Manual),
            4 => Some(DumpReason::DmaQuarantine),
            _ => None,
        }
    }

    /// Human-readable reason, used in dump file names.
    pub fn as_str(self) -> &'static str {
        match self {
            DumpReason::BreakerTrip => "breaker",
            DumpReason::DeadlineMiss => "deadline",
            DumpReason::Quarantine => "quarantine",
            DumpReason::Manual => "manual",
            DumpReason::DmaQuarantine => "dma",
        }
    }
}

/// One frame's worth of flight data: which completed frame it was (the
/// session's 1-based completion count), how long it ran on the shared
/// pool, and the full op trace of that execution window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightFrame {
    /// The session's completed-frame count when this frame finished.
    pub frame: u64,
    /// Pool wall-cycles the frame consumed (execution, not queue wait).
    pub wall_delta: u64,
    /// Dependency-tracked op trace of the execution window.
    pub trace: OpTrace,
}

/// The in-memory ring holding a session's last N [`FlightFrame`]s.
#[derive(Debug)]
pub(crate) struct FlightRecorder {
    frames: VecDeque<FlightFrame>,
    capacity: usize,
}

impl FlightRecorder {
    pub(crate) fn new(capacity: usize) -> Self {
        FlightRecorder {
            frames: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    pub(crate) fn push(&mut self, frame: FlightFrame) {
        if self.frames.len() >= self.capacity {
            self.frames.pop_front();
        }
        self.frames.push_back(frame);
    }

    pub(crate) fn snapshot(&self) -> Vec<FlightFrame> {
        self.frames.iter().cloned().collect()
    }
}

/// A decoded (or to-be-written) flight-recorder dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightDump {
    /// Session the dump belongs to.
    pub session: u32,
    /// What triggered it.
    pub reason: DumpReason,
    /// The ring contents at the incident, oldest first; the last entry
    /// is the frame that triggered the dump.
    pub frames: Vec<FlightFrame>,
}

impl FlightDump {
    /// Serializes the dump into its container bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        payload.extend_from_slice(FLIGHT_MAGIC);
        payload.extend_from_slice(&FLIGHT_VERSION.to_le_bytes());
        payload.extend_from_slice(&self.session.to_le_bytes());
        payload.push(self.reason.as_u8());
        payload.extend_from_slice(&(self.frames.len() as u64).to_le_bytes());
        for f in &self.frames {
            payload.extend_from_slice(&f.frame.to_le_bytes());
            payload.extend_from_slice(&f.wall_delta.to_le_bytes());
            let trace = f.trace.encode();
            payload.extend_from_slice(&(trace.len() as u64).to_le_bytes());
            payload.extend_from_slice(&trace);
        }
        let crc = crc32(&payload[8..]);
        payload.extend_from_slice(&crc.to_le_bytes());
        payload
    }

    /// Decodes a dump, validating length, magic, CRC, version and
    /// structure — in that order, with typed errors and no panics.
    pub fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        if bytes.len() < HEADER_LEN + 4 {
            return Err(StoreError::Malformed("file shorter than header"));
        }
        if &bytes[..8] != FLIGHT_MAGIC {
            return Err(StoreError::BadMagic);
        }
        let body = &bytes[8..bytes.len() - 4];
        let expected = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
        let got = crc32(body);
        if expected != got {
            return Err(StoreError::Crc { expected, got });
        }
        let version = u16::from_le_bytes(bytes[8..10].try_into().expect("2 bytes"));
        if version != FLIGHT_VERSION {
            return Err(StoreError::Version(version));
        }
        let session = u32::from_le_bytes(bytes[10..14].try_into().expect("4 bytes"));
        let reason =
            DumpReason::from_u8(bytes[14]).ok_or(StoreError::Malformed("unknown dump reason"))?;
        let nframes = u64::from_le_bytes(bytes[15..23].try_into().expect("8 bytes"));
        let mut cursor = HEADER_LEN;
        let end = bytes.len() - 4;
        let mut frames = Vec::new();
        for _ in 0..nframes {
            if cursor + 24 > end {
                return Err(StoreError::Malformed("truncated frame header"));
            }
            let frame = u64::from_le_bytes(bytes[cursor..cursor + 8].try_into().expect("8 bytes"));
            let wall_delta =
                u64::from_le_bytes(bytes[cursor + 8..cursor + 16].try_into().expect("8 bytes"));
            let len =
                u64::from_le_bytes(bytes[cursor + 16..cursor + 24].try_into().expect("8 bytes"))
                    as usize;
            cursor += 24;
            if len > end - cursor {
                return Err(StoreError::Malformed("frame trace overruns dump"));
            }
            let trace = OpTrace::decode(&bytes[cursor..cursor + len])
                .map_err(|_| StoreError::Malformed("embedded op trace rejected"))?;
            cursor += len;
            frames.push(FlightFrame {
                frame,
                wall_delta,
                trace,
            });
        }
        if cursor != end {
            return Err(StoreError::Malformed("trailing bytes in dump"));
        }
        Ok(FlightDump {
            session,
            reason,
            frames,
        })
    }

    /// Writes the dump atomically: temp file + fsync + rename, the same
    /// crash-safety contract as the fleet manifest store.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on any filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), StoreError> {
        let bytes = self.encode();
        let tmp = path.with_extension("flight.tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Reads and decodes a dump file.
    ///
    /// # Errors
    ///
    /// Any [`StoreError`]: I/O, corruption, or structural rejection.
    pub fn load(path: &Path) -> Result<Self, StoreError> {
        Self::decode(&fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimvo_telemetry::optrace::{OpKind, OpRecord, NO_LABEL, NO_ROW, NO_SESSION};

    fn tiny_trace(cycles: u64) -> OpTrace {
        let mut t = OpTrace::new();
        t.records.push(OpRecord {
            id: 1,
            deps: [0, 0, 0],
            start: 0,
            cycles,
            sram: 2,
            size: 40,
            rows: [0, NO_ROW],
            dst: NO_ROW,
            session: NO_SESSION,
            label: NO_LABEL,
            kind: OpKind::AddSub,
            array: 0,
        });
        t
    }

    fn dump() -> FlightDump {
        FlightDump {
            session: 7,
            reason: DumpReason::DeadlineMiss,
            frames: vec![
                FlightFrame {
                    frame: 1,
                    wall_delta: 10,
                    trace: tiny_trace(10),
                },
                FlightFrame {
                    frame: 2,
                    wall_delta: 12,
                    trace: tiny_trace(12),
                },
            ],
        }
    }

    #[test]
    fn dump_roundtrips_byte_identically() {
        let d = dump();
        let bytes = d.encode();
        let back = FlightDump::decode(&bytes).expect("valid dump decodes");
        assert_eq!(back, d);
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn corruption_yields_typed_errors() {
        let bytes = dump().encode();
        assert!(matches!(
            FlightDump::decode(&bytes[..10]),
            Err(StoreError::Malformed(_))
        ));
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            FlightDump::decode(&bad),
            Err(StoreError::BadMagic)
        ));
        let mut flipped = bytes.clone();
        let mid = bytes.len() / 2;
        flipped[mid] ^= 0x08;
        assert!(matches!(
            FlightDump::decode(&flipped),
            Err(StoreError::Crc { .. })
        ));
    }

    #[test]
    fn ring_keeps_the_last_n_frames() {
        let mut r = FlightRecorder::new(2);
        for i in 1..=5u64 {
            r.push(FlightFrame {
                frame: i,
                wall_delta: i,
                trace: tiny_trace(i),
            });
        }
        let frames = r.snapshot();
        assert_eq!(frames.len(), 2);
        assert_eq!((frames[0].frame, frames[1].frame), (4, 5));
    }

    #[test]
    fn save_and_load_through_disk() {
        let dir = std::env::temp_dir().join(format!("pimvo_flight_unit_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s7.flight");
        let d = dump();
        d.save(&path).unwrap();
        assert_eq!(FlightDump::load(&path).unwrap(), d);
        std::fs::remove_dir_all(&dir).ok();
    }
}
