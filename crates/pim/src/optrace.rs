//! Machine-side op-trace recorder: the producer half of the
//! [`pimvo_telemetry::optrace`] flight-recorder format.
//!
//! An [`OpRecorder`] is a fixed-capacity ring of
//! [`OpRecord`]s with a drop counter. It is **off by default** — the
//! machine holds an `Option` and every hook is one `is_some` branch, so
//! an unarmed machine is bit- and cycle-identical to a build without
//! the recorder (the same contract `pimvo-telemetry` makes, and a test
//! asserts it).
//!
//! # Dependency edges
//!
//! Each record carries up to three explicit dependency ids:
//!
//! 1. **serial** — the previous record in the same stream. A machine
//!    executes macro-ops one at a time on one accumulator, so this
//!    chain subsumes intra-machine ordering. After a pool sync point
//!    the chain restarts from the barrier record
//!    ([`OpRecorder::set_pending_dep`]), which is how phase ordering
//!    across the pool enters the graph.
//! 2. **RAW** — the most recent record that *wrote* any row this
//!    record reads (host upload → compute, compute → compute).
//! 3. **WAR/WAW** — the most recent record that read or wrote the row
//!    this record writes (compute → host readout ordering and row
//!    reuse).
//!
//! Ids are namespaced per stream (`(stream + 1) << 40 | seq`), so the
//! per-array streams of a pool can be recorded lock-free under the
//! pool's scoped phase threads and merged afterwards without
//! renumbering. Draining ([`OpRecorder::drain`]) hands the buffer off
//! but keeps sequence counters and row maps, so ids stay unique across
//! frames and cross-frame edges simply dangle (the profiler treats a
//! missing dependency as already finished).

use pimvo_telemetry::optrace::{OpKind, OpRecord, OpTrace, NO_LABEL, NO_ROW, NO_SESSION};
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Default ring capacity for a recorder armed without an explicit
/// bound: large enough to hold several VGA tracker frames per array,
/// small enough (a few MiB) to stay allocation-bounded.
pub const DEFAULT_OP_RING_CAPACITY: usize = 1 << 18;

/// Fixed-capacity op-record ring with dependency tracking. See the
/// module docs for the edge rules.
#[derive(Debug, Clone)]
pub struct OpRecorder {
    buf: VecDeque<OpRecord>,
    capacity: usize,
    dropped: u64,
    /// High id bits: `(stream + 1) << 40`.
    base: u64,
    /// Low id bits: next sequence number (never reset by drain).
    seq: u64,
    /// `array` field stamped on records (may be
    /// [`pimvo_telemetry::optrace::POOL_STREAM`] for the pool stream).
    array: u16,
    session: u32,
    label: u32,
    labels: Vec<String>,
    /// Tail of the serial chain (0 = none yet).
    last_id: u64,
    /// Barrier id injected as the next record's serial dep.
    pending_dep: u64,
    /// Row → id of its most recent writer.
    row_writer: BTreeMap<u32, u64>,
    /// Row → id of its most recent reader.
    row_reader: BTreeMap<u32, u64>,
}

impl OpRecorder {
    /// A recorder for stream `stream` (the id namespace *and* the
    /// record `array` field), holding at most `capacity` records.
    pub fn new(stream: u16, capacity: usize) -> Self {
        Self::with_stream(stream, stream, capacity)
    }

    /// A recorder whose id namespace (`stream`) differs from the
    /// stamped `array` field — used for the pool sync stream, which
    /// needs a namespace index but renders as
    /// [`pimvo_telemetry::optrace::POOL_STREAM`].
    pub fn with_stream(stream: u16, array: u16, capacity: usize) -> Self {
        OpRecorder {
            buf: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
            base: (stream as u64 + 1) << 40,
            seq: 0,
            array,
            session: NO_SESSION,
            label: NO_LABEL,
            labels: Vec::new(),
            last_id: 0,
            pending_dep: 0,
            row_writer: BTreeMap::new(),
            row_reader: BTreeMap::new(),
        }
    }

    /// Stamps subsequent records with a session id (serving layer).
    pub fn set_session(&mut self, session: u32) {
        self.session = session;
    }

    /// Sets (or clears) the kernel label stamped on subsequent
    /// records. Labels are interned per recorder and remapped on
    /// merge.
    pub fn set_label(&mut self, label: Option<&str>) {
        self.label = match label {
            None => NO_LABEL,
            Some(l) => match self.labels.iter().position(|x| x == l) {
                Some(i) => i as u32,
                None => {
                    self.labels.push(l.to_string());
                    (self.labels.len() - 1) as u32
                }
            },
        };
    }

    /// Id of the last record emitted in this stream (0 = none).
    pub fn tail(&self) -> u64 {
        self.last_id
    }

    /// Injects `id` (a pool barrier) as the serial dependency of the
    /// next record, restarting the chain from the sync point.
    pub fn set_pending_dep(&mut self, id: u64) {
        self.pending_dep = id;
    }

    /// Records the ring has dropped so far (capacity overflow).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring currently holds no records.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one record, computing its dependency edges from the
    /// serial chain and the row maps. `reads`/`writes` list the SRAM
    /// rows touched; `start` is the stream clock at op start. Returns
    /// the record id.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        kind: OpKind,
        reads: &[u32],
        writes: &[u32],
        start: u64,
        cycles: u64,
        sram: u32,
        size: u32,
    ) -> u64 {
        self.seq += 1;
        let id = self.base | self.seq;

        let serial = if self.pending_dep != 0 {
            std::mem::take(&mut self.pending_dep)
        } else {
            self.last_id
        };
        let mut raw = 0u64;
        for r in reads {
            if let Some(&w) = self.row_writer.get(r) {
                raw = raw.max(w);
            }
        }
        let mut war = 0u64;
        for w in writes {
            if let Some(&x) = self.row_writer.get(w) {
                war = war.max(x);
            }
            if let Some(&x) = self.row_reader.get(w) {
                war = war.max(x);
            }
        }
        if raw == serial {
            raw = 0;
        }
        if war == serial || war == raw {
            war = 0;
        }

        for &r in reads {
            self.row_reader.insert(r, id);
        }
        for &w in writes {
            self.row_writer.insert(w, id);
        }
        self.last_id = id;

        if self.buf.len() >= self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(OpRecord {
            id,
            deps: [serial, raw, war],
            start,
            cycles,
            sram,
            size,
            rows: [
                reads.first().copied().unwrap_or(NO_ROW),
                reads.get(1).copied().unwrap_or(NO_ROW),
            ],
            dst: writes.first().copied().unwrap_or(NO_ROW),
            session: self.session,
            label: self.label,
            kind,
            array: self.array,
        });
        id
    }

    /// Appends a barrier record with explicit dependency ids (the pool
    /// sync stream bypasses the row maps). Returns the record id.
    pub fn record_barrier(&mut self, deps: [u64; 3], start: u64, cycles: u64, size: u32) -> u64 {
        self.record_explicit(
            OpKind::Barrier,
            deps,
            start,
            cycles,
            [NO_ROW, NO_ROW],
            NO_ROW,
            size,
        )
    }

    /// Appends a record of `kind` with explicit dependency ids, row
    /// operands and destination, bypassing the row maps — the DMA
    /// channel lanes use this: their cross-stream edges (issuing
    /// machine record, channel serial chain) are known to the caller,
    /// not derivable from this stream's row history. Returns the
    /// record id.
    #[allow(clippy::too_many_arguments)]
    pub fn record_explicit(
        &mut self,
        kind: OpKind,
        deps: [u64; 3],
        start: u64,
        cycles: u64,
        rows: [u32; 2],
        dst: u32,
        size: u32,
    ) -> u64 {
        self.seq += 1;
        let id = self.base | self.seq;
        self.last_id = id;
        if self.buf.len() >= self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(OpRecord {
            id,
            deps,
            start,
            cycles,
            sram: 0,
            size,
            rows,
            dst,
            session: self.session,
            label: self.label,
            kind,
            array: self.array,
        });
        id
    }

    /// Marks `row` as last written by a record of *another* stream
    /// (an inbound DMA descriptor): the next record reading the row
    /// picks up a cross-stream RAW edge onto the channel lane.
    pub fn note_external_write(&mut self, row: u32, id: u64) {
        self.row_writer.insert(row, id);
    }

    /// Folds extra cycles/SRAM traffic of a multi-step macro-op into
    /// the most recent record (protection checks, mul/div steps).
    pub fn extend_last(&mut self, cycles: u64, sram: u32) {
        if let Some(last) = self.buf.back_mut() {
            last.cycles += cycles;
            last.sram += sram;
        }
    }

    /// Hands the buffered records off as an [`OpTrace`] and clears the
    /// ring and the drop counter. Sequence counters, row maps and the
    /// serial tail survive, so ids stay unique across drains and
    /// cross-drain dependencies dangle instead of colliding.
    pub fn drain(&mut self) -> OpTrace {
        let active = if self.label == NO_LABEL {
            None
        } else {
            self.labels.get(self.label as usize).cloned()
        };
        let trace = OpTrace {
            records: std::mem::take(&mut self.buf).into(),
            labels: std::mem::take(&mut self.labels),
            dropped: std::mem::take(&mut self.dropped),
        };
        // a label active across the drain is re-interned into the
        // fresh table so later records don't index the drained one
        self.label = NO_LABEL;
        self.set_label(active.as_deref());
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_chain_and_row_edges() {
        let mut r = OpRecorder::new(0, 16);
        let a = r.record(OpKind::HostWrite, &[], &[3], 0, 0, 0, 40); // write r3
        let b = r.record(OpKind::AddSub, &[3, 4], &[], 0, 1, 1, 40); // read r3
        let c = r.record(OpKind::WriteBack, &[], &[3], 1, 1, 1, 40); // overwrite r3
        let t = r.drain();
        assert_eq!(t.records[1].deps, [a, 0, 0], "RAW folds into serial dep");
        let rec_c = &t.records[2];
        assert_eq!(rec_c.deps[0], b);
        assert_eq!(rec_c.deps[2], 0, "WAR vs the serial dep deduplicates");
        assert_eq!(rec_c.id, c);
    }

    #[test]
    fn pending_dep_restarts_the_chain() {
        let mut r = OpRecorder::new(2, 16);
        r.record(OpKind::AddSub, &[], &[], 0, 1, 0, 8);
        r.set_pending_dep(0xBEEF);
        let id = r.record(OpKind::AddSub, &[], &[], 1, 1, 0, 8);
        let t = r.drain();
        assert_eq!(t.records[1].deps[0], 0xBEEF);
        assert_eq!(t.records[1].id, id);
        assert_eq!(id >> 40, 3, "ids are namespaced by stream + 1");
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut r = OpRecorder::new(0, 2);
        for i in 0..5 {
            r.record(OpKind::Logic, &[], &[], i, 1, 0, 1);
        }
        assert_eq!(r.dropped(), 3);
        let t = r.drain();
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped, 3);
        assert_eq!(t.records[0].id & 0xFF, 4, "oldest records were dropped");
    }

    #[test]
    fn drain_keeps_ids_unique_and_labels_fresh() {
        let mut r = OpRecorder::new(1, 8);
        r.set_label(Some("lpf"));
        let a = r.record(OpKind::Mul, &[], &[], 0, 3, 0, 1);
        let t1 = r.drain();
        assert_eq!(t1.label(t1.records[0].label), Some("lpf"));
        r.set_label(Some("hpf"));
        let b = r.record(OpKind::Mul, &[], &[], 3, 3, 0, 1);
        let t2 = r.drain();
        assert_ne!(a, b);
        assert_eq!(t2.records[0].deps[0], a, "serial tail survives the drain");
        assert_eq!(t2.label(t2.records[0].label), Some("hpf"));
    }
}
