//! Format-fuzz smoke for the P3DVID1 hardened reader: every truncation
//! point, every single-byte corruption, and random garbage must resolve
//! to a clean `io::Error` — never a panic, never an unbounded
//! allocation. The ingest mirror of `checkpoint_fuzz`.

use std::io::Cursor;

use p3d_tensor::{simd, TensorRng};
use p3d_video_data::io::{VidHeader, VidReader, VidWriter, VID_HEADER_LEN};

fn sample_container(rng: &mut TensorRng, w: u32, h: u32, frames: u32) -> Vec<u8> {
    let header = VidHeader::gray8(w, h, frames, 30_000);
    let mut wtr = VidWriter::new(Vec::new(), header).unwrap();
    let mut frame = vec![0u8; header.frame_bytes()];
    for _ in 0..frames {
        for px in frame.iter_mut() {
            *px = rng.below(256) as u8;
        }
        wtr.write_frame(&frame).unwrap();
    }
    wtr.finish().unwrap()
}

/// Fully drains a reader over `bytes`; Ok(frames read) or the error.
fn drain(bytes: &[u8]) -> Result<usize, std::io::Error> {
    let mut r = VidReader::open(Cursor::new(bytes))?;
    let mut buf = Vec::new();
    let mut n = 0;
    while r.read_frame_into(&mut buf)? {
        n += 1;
    }
    Ok(n)
}

#[test]
fn every_truncation_point_errors_cleanly() {
    let mut rng = TensorRng::seed(41);
    let bytes = sample_container(&mut rng, 6, 5, 3);
    for len in 0..bytes.len() {
        let err = match drain(&bytes[..len]) {
            Ok(n) => panic!("truncated stream of {len} bytes read {n} frames"),
            Err(e) => e,
        };
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::InvalidData,
            "truncation at {len} surfaced as {err}"
        );
    }
    assert_eq!(drain(&bytes).unwrap(), 3, "intact stream reads fully");
}

#[test]
fn every_single_bit_flip_is_detected() {
    let mut rng = TensorRng::seed(42);
    let bytes = sample_container(&mut rng, 4, 4, 2);
    for pos in 0..bytes.len() {
        for bit in [0u8, 3, 7] {
            let mut bad = bytes.clone();
            bad[pos] ^= 1 << bit;
            // Every flip must either fail (header CRC, frame CRC,
            // index, magic) — there is no payload byte a flip can
            // silently pass through, because every byte is covered by
            // a checksum.
            assert!(
                drain(&bad).is_err(),
                "flip of bit {bit} at byte {pos} went undetected"
            );
        }
    }
}

/// A 40x33 frame record (1328 bytes) is long enough for the folding CRC
/// where the CPU has it, and its 1320-byte payload ends in two 16-byte
/// lanes and an 8-byte tail past the last 64-byte block. One flipped bit
/// at any byte of the record (index, payload or stored CRC) must fail
/// the read with `InvalidData`.
#[test]
fn every_byte_of_a_large_frame_record_is_covered() {
    let mut rng = TensorRng::seed(44);
    let bytes = sample_container(&mut rng, 40, 33, 2);
    let record = VID_HEADER_LEN..VID_HEADER_LEN + 8 + 40 * 33;
    assert!(record.len() >= 1024);
    for pos in record {
        let mut bad = bytes.clone();
        bad[pos] ^= 1 << (pos % 8);
        match drain(&bad) {
            Ok(n) => panic!("flip at byte {pos} went undetected ({n} frames read)"),
            Err(e) => assert_eq!(
                e.kind(),
                std::io::ErrorKind::InvalidData,
                "flip at byte {pos} surfaced as {e}"
            ),
        }
    }
}

/// Containers written on the table path read back on the fold path and
/// the other way round, byte-identical on disk. The 1950-byte frames
/// take every stage of the fold: 64-byte blocks, one 16-byte lane and a
/// 14-byte tail.
#[test]
fn fold_and_table_paths_read_each_others_containers() {
    let write = |forced: bool| {
        simd::force_scalar(forced);
        let bytes = sample_container(&mut TensorRng::seed(45), 50, 39, 3);
        simd::force_scalar(false);
        bytes
    };
    let read = |bytes: &[u8], forced: bool| {
        simd::force_scalar(forced);
        let frames = drain(bytes);
        simd::force_scalar(false);
        frames.expect("container reads back")
    };
    let (table, fold) = (write(true), write(false));
    assert_eq!(table, fold, "both paths write the same bytes");
    assert_eq!(read(&table, false), 3);
    assert_eq!(read(&fold, true), 3);
}

#[test]
fn random_garbage_never_panics() {
    let mut rng = TensorRng::seed(43);
    for round in 0..200 {
        let len = rng.below(200);
        let mut garbage: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
        // Half the rounds get a valid magic so parsing goes deeper.
        if round % 2 == 0 && garbage.len() >= 8 {
            garbage[..8].copy_from_slice(b"P3DVID1\0");
        }
        let _ = drain(&garbage);
    }
}

#[test]
fn oversized_declared_dims_are_rejected_before_allocation() {
    // Hand-build a header declaring absurd geometry with a valid CRC;
    // the reader must reject it from the caps, not attempt the
    // multi-gigabyte frame buffer.
    let header = VidHeader::gray8(4, 4, 1, 0);
    let mut wtr = VidWriter::new(Vec::new(), header).unwrap();
    wtr.write_frame(&[0u8; 16]).unwrap();
    let good = wtr.finish().unwrap();
    for (field_off, value) in [(8usize, 1u32 << 30), (12, 1 << 30), (16, u32::MAX)] {
        let mut bad = good.clone();
        bad[field_off..field_off + 4].copy_from_slice(&value.to_le_bytes());
        let crc = p3d_video_data::io::crc32_fast(&bad[8..28]);
        bad[28..32].copy_from_slice(&crc.to_le_bytes());
        assert!(drain(&bad).is_err(), "field at {field_off} = {value}");
    }
}
