//! Property tests for the binary op-trace codec: arbitrary record
//! batches round-trip byte-identically, and corrupted containers come
//! back as typed errors, never panics.

use pimvo_telemetry::crc32;
use pimvo_telemetry::optrace::{
    OpRecord, OpTrace, OpTraceError, NO_LABEL, OPTRACE_MAGIC, OP_KINDS,
};
use proptest::prelude::*;

/// Expands one fuzz seed into derived material (splitmix64 step), so a
/// `vec(any::<u64>(), ..)` strategy drives every record field.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds a structurally valid trace from raw fuzz seeds: ids are made
/// unique and non-zero, kinds valid, label indices in range.
fn build_trace(seeds: &[u64], nlabels: u64, dropped: u64) -> OpTrace {
    let mut t = OpTrace::new();
    for i in 0..nlabels {
        t.intern(&format!("kernel_{i}"));
    }
    for (i, &seed) in seeds.iter().enumerate() {
        let (a, b, c) = (mix(seed), mix(seed ^ 0xA5A5), mix(seed ^ 0x5A5A));
        t.records.push(OpRecord {
            id: ((i as u64 + 1) << 20) | (seed & 0xF_FFFF),
            deps: [a & 0x3FF, b & 0x3FF, c & 0x3FF],
            start: a >> 10,
            cycles: b >> 24,
            sram: c as u32,
            size: (a >> 32) as u32,
            rows: [b as u32, (b >> 32) as u32],
            dst: (c >> 32) as u32,
            session: (a >> 16) as u32,
            label: if nlabels == 0 || seed & 1 == 0 {
                NO_LABEL
            } else {
                ((c >> 8) % nlabels) as u32
            },
            kind: OP_KINDS[(seed >> 5) as usize % OP_KINDS.len()],
            array: seed as u16,
        });
    }
    t.dropped = dropped;
    t
}

proptest! {
    #[test]
    fn roundtrip_byte_identical(
        seeds in prop::collection::vec(any::<u64>(), 0..64),
        nlabels in 0u64..6,
        dropped in any::<u64>(),
    ) {
        let t = build_trace(&seeds, nlabels, dropped);
        let bytes = t.encode();
        let back = OpTrace::decode(&bytes).expect("valid container decodes");
        prop_assert_eq!(&back, &t);
        prop_assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn truncation_rejected_with_typed_error(
        seeds in prop::collection::vec(any::<u64>(), 1..16),
        cut_frac in 0.0f64..1.0,
    ) {
        let t = build_trace(&seeds, 1, 0);
        let bytes = t.encode();
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        let err = OpTrace::decode(&bytes[..cut]).expect_err("truncated input must fail");
        // any typed error is fine; the property is "no panic, no Ok"
        let _ = format!("{err}");
    }

    #[test]
    fn bitflip_rejected_with_typed_error(
        seeds in prop::collection::vec(any::<u64>(), 1..16),
        pos_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let t = build_trace(&seeds, 0, 0);
        let mut bytes = t.encode();
        let pos = (pos_seed as usize) % bytes.len();
        bytes[pos] ^= 1 << bit;
        // single-bit flips are always caught: magic check for the first
        // 8 bytes, CRC-32 for the body and the stored CRC itself
        match OpTrace::decode(&bytes) {
            Err(OpTraceError::BadMagic) => prop_assert!(pos < 8, "magic error from body flip at {pos}"),
            Err(_) => prop_assert!(pos >= 8, "body error from magic flip at {pos}"),
            Ok(_) => prop_assert!(false, "bit flip at byte {pos} accepted"),
        }
    }

    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // decode must return, not panic, on arbitrary input
        let _ = OpTrace::decode(&bytes);
    }

    #[test]
    fn crc_catches_every_single_bit_flip(
        data in prop::collection::vec(any::<u8>(), 1..64),
        pos_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let base = crc32(&data);
        let mut flipped = data.clone();
        let pos = (pos_seed as usize) % flipped.len();
        flipped[pos] ^= 1 << bit;
        prop_assert_ne!(crc32(&flipped), base);
    }
}

#[test]
fn magic_is_stable() {
    // the on-disk magic is a compatibility contract; changing it breaks
    // every recorded flight dump
    assert_eq!(OPTRACE_MAGIC, b"PIMVOTRC");
}
