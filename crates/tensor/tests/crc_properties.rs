//! Differential gate for the CRC-32 of both container formats: every
//! [`Crc32Fast`] result, on the carry-less-multiply fold path and with
//! the table path forced by `simd::force_scalar`, equals the
//! byte-at-a-time reference `crc32`.
//!
//! Inputs come from seeded `TensorRng` streams. Each case is sliced at
//! a start offset of 0..16 bytes into a larger buffer, so the fold's
//! 16-byte loads are unaligned, and lengths cover every short input,
//! every length next to a multiple of the 16-byte lane and the 64-byte
//! block, and 4-64 KiB payloads like the ingest path's frames.

use std::sync::Mutex;

use p3d_tensor::crc::{crc32, crc32_fast, reference_update, Crc32Fast, FOLD_MIN};
use p3d_tensor::{simd, TensorRng};

/// Serialises the tests of this binary: each flips the process-wide
/// `force_scalar` and asserts which path it selected.
static PATHS: Mutex<()> = Mutex::new(());

fn random_bytes(rng: &mut TensorRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.below(256) as u8).collect()
}

/// Runs `check` once on the detected path and once with the table path
/// forced, asserting each time that the dispatch predicate agrees.
fn on_both_paths(mut check: impl FnMut(&str)) {
    let _guard = PATHS.lock().unwrap_or_else(|e| e.into_inner());
    simd::force_scalar(false);
    assert_eq!(simd::use_pclmul(), simd::has_pclmul());
    check(if simd::has_pclmul() { "fold" } else { "table" });
    simd::force_scalar(true);
    assert!(!simd::use_pclmul());
    check("forced table");
    simd::force_scalar(false);
}

/// `crc32_fast` of `buf[off..off + len]` for every start offset 0..16.
fn assert_all_offsets(buf: &[u8], len: usize, path: &str) {
    for off in 0..16 {
        let s = &buf[off..off + len];
        assert_eq!(crc32_fast(s), crc32(s), "{path}: len {len} at offset {off}");
    }
}

#[test]
fn every_length_up_to_300_at_every_offset() {
    let mut rng = TensorRng::seed(0xC3C0_0001);
    let buf = random_bytes(&mut rng, 300 + 16);
    on_both_paths(|path| {
        for len in 0..=300 {
            assert_all_offsets(&buf, len, path);
        }
    });
}

#[test]
fn lengths_around_lane_and_block_multiples() {
    let mut rng = TensorRng::seed(0xC3C0_0002);
    let buf = random_bytes(&mut rng, 4096 + 2 + 16);
    let mut lens: Vec<usize> = (1..=256)
        .map(|m| 16 * m)
        .chain((1..=64).map(|m| 64 * m))
        .chain((1..=32).map(|m| 128 * m))
        .flat_map(|m| [m - 1, m, m + 1])
        .collect();
    lens.sort_unstable();
    lens.dedup();
    on_both_paths(|path| {
        for &len in &lens {
            assert_all_offsets(&buf, len, path);
        }
    });
}

#[test]
fn long_payloads_from_4_to_64_kib() {
    let mut rng = TensorRng::seed(0xC3C0_0003);
    let buf = random_bytes(&mut rng, (64 << 10) + 16);
    let mut cases: Vec<(usize, usize)> = vec![(4 << 10, 0), ((64 << 10) - 1, 7), (64 << 10, 15)];
    for _ in 0..24 {
        cases.push(((4 << 10) + rng.below((60 << 10) + 1), rng.below(16)));
    }
    on_both_paths(|path| {
        for &(len, off) in &cases {
            let s = &buf[off..off + len];
            assert_eq!(crc32_fast(s), crc32(s), "{path}: len {len} at offset {off}");
        }
    });
}

#[test]
fn split_updates_equal_one_shot() {
    let mut rng = TensorRng::seed(0xC3C0_0004);
    let buf = random_bytes(&mut rng, (16 << 10) + 16);
    let cases: Vec<(usize, usize, Vec<usize>)> = (0..200)
        .map(|_| {
            let len = rng.below(16 << 10);
            let off = rng.below(16);
            let mut cuts: Vec<usize> = (0..1 + rng.below(5)).map(|_| rng.below(len + 1)).collect();
            cuts.sort_unstable();
            (len, off, cuts)
        })
        .collect();
    on_both_paths(|path| {
        for (len, off, cuts) in &cases {
            let s = &buf[*off..*off + *len];
            let mut crc = Crc32Fast::new();
            let mut at = 0;
            for &cut in cuts.iter().chain([len]) {
                crc.update(&s[at..cut]);
                at = cut;
            }
            assert_eq!(
                crc.finish(),
                crc32(s),
                "{path}: len {len} off {off} cuts {cuts:?}"
            );
        }
    });
}

/// The fold and the table loops hand each other the same raw state, so
/// a checksum can switch paths between updates (as it does across a
/// `force_scalar` flip, or between a short header and a long payload).
#[test]
fn paths_switch_mid_stream() {
    let mut rng = TensorRng::seed(0xC3C0_0005);
    let buf = random_bytes(&mut rng, 3 * FOLD_MIN + 4 * 1000 + 16);
    let _guard = PATHS.lock().unwrap_or_else(|e| e.into_inner());
    for (i, &split) in [FOLD_MIN + 1, 1000, 2 * FOLD_MIN + 15, 3000]
        .iter()
        .enumerate()
    {
        let s = &buf[i..i + split + 1000];
        for first_forced in [false, true] {
            let mut crc = Crc32Fast::new();
            simd::force_scalar(first_forced);
            crc.update(&s[..split]);
            simd::force_scalar(!first_forced);
            crc.update(&s[split..]);
            simd::force_scalar(false);
            assert_eq!(
                crc.finish(),
                crc32(s),
                "split {split}, first forced {first_forced}"
            );
        }
    }
    // The reference's own raw-state chaining, which P3DVID1's
    // reference reader relies on, agrees too.
    let (a, b) = buf.split_at(777);
    assert_eq!(
        reference_update(reference_update(0xFFFF_FFFF, a), b) ^ 0xFFFF_FFFF,
        crc32(&buf)
    );
}

#[test]
fn known_vectors() {
    on_both_paths(|path| {
        assert_eq!(crc32_fast(b""), 0, "{path}");
        assert_eq!(crc32_fast(b"123456789"), 0xCBF4_3926, "{path}");
        // Inputs long enough to fold; values from zlib's crc32.
        let long = b"123456789".repeat(32);
        assert_eq!(crc32_fast(&long), 0x0177_618C, "{path}");
        assert_eq!(crc32_fast(&[0u8; 4096]), 0xC71C_0011, "{path}");
        assert_eq!(crc32_fast(&[0xFFu8; 4096]), 0xF154_670A, "{path}");
    });
}
