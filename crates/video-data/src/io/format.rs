//! The P3DVID1 planar raw-frame container format.
//!
//! A deliberately simple on-disk/on-wire format for raw video: a fixed
//! 32-byte header followed by one CRC-checked record per frame. It is
//! the ingestion twin of the P3DCKPT2 checkpoint format and follows the
//! same hardening rules:
//!
//! * every length field is validated against a cap **before** any
//!   buffer grows to hold it,
//! * truncation and corruption resolve to `io::ErrorKind::InvalidData`,
//!   never a panic or an oversized allocation,
//! * records carry CRC-32 (IEEE) checksums so bit flips are detected at
//!   read time.
//!
//! # Layout (all integers little-endian)
//!
//! ```text
//! header (32 bytes):
//!   0..8    magic  b"P3DVID1\0"
//!   8..12   u32    width   (1..=4096)
//!   12..16  u32    height  (1..=4096)
//!   16..20  u32    frames  (1..=1<<20)
//!   20..24  u32    fps_milli (frames/second * 1000; informational)
//!   24      u8     pixel format (0 = GRAY8, row-major luma bytes)
//!   25..28  u8*3   reserved, must be zero
//!   28..32  u32    CRC-32 of bytes 8..28
//! frame record i (for i in 0..frames):
//!   u32     frame index, must equal i
//!   bytes   width*height payload (GRAY8, row-major)
//!   u32     CRC-32 of the 4 index bytes followed by the payload
//! ```
//!
//! Frame records have a fixed size, so frame `k` lives at byte offset
//! `32 + k * (8 + width*height)` — which is what lets
//! [`IndexedVidReader`] decode stripes of a file from several workers
//! without coordinating reads.
//!
//! Every CRC here is computed by [`p3d_tensor::crc`], the one CRC-32 of
//! the workspace (re-exported below as [`crc32`], [`crc32_fast`] and
//! [`Crc32Fast`]). The hardened readers and the writer use
//! [`Crc32Fast`]: on x86-64 hosts with `pclmulqdq` it folds frame
//! payloads 64 bytes per step with carry-less multiplies, dispatched
//! through [`p3d_tensor::simd::use_pclmul`], and it falls back to
//! slicing-by-8 for short inputs (the 20-byte header, the 4 index
//! bytes), for the last `len % 16` bytes, on other hosts and under
//! [`p3d_tensor::simd::force_scalar`]. Every path is bitwise identical
//! to the byte-at-a-time reference [`crc32`], which P3DCKPT2 checkpoints
//! validate with too. [`VidReader::open_reference`] keeps a reader on
//! that reference path so differential tests (and the deliberately
//! naive serial-ingest baseline in the benchmarks) can pin the two
//! bitwise against each other.

use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

use p3d_tensor::crc::reference_update;

/// Magic bytes opening every P3DVID1 stream.
pub const VID_MAGIC: &[u8; 8] = b"P3DVID1\0";
/// Fixed header length in bytes.
pub const VID_HEADER_LEN: usize = 32;
/// Per-frame framing overhead: 4 index bytes + 4 CRC bytes.
pub const FRAME_OVERHEAD: usize = 8;
/// Largest accepted frame width or height.
pub const MAX_FRAME_DIM: u32 = 4096;
/// Largest accepted frame count in one container.
pub const MAX_FRAMES: u32 = 1 << 20;
/// Largest accepted frame payload (4096 * 4096 GRAY8).
pub const MAX_FRAME_BYTES: usize = 1 << 24;

pub use p3d_tensor::crc::{crc32, crc32_fast, Crc32Fast};

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// `read_exact` that reports truncation as `InvalidData`, so every
/// malformed-container failure surfaces under one error kind.
fn read_exact_vid(r: &mut impl Read, buf: &mut [u8]) -> io::Result<()> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            invalid("truncated P3DVID1 stream")
        } else {
            e
        }
    })
}

/// Supported pixel formats. Only planar 8-bit luma exists today; the
/// header byte keeps room for more without a magic bump.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PixelFormat {
    /// One byte per pixel, row-major luma.
    Gray8,
}

impl PixelFormat {
    fn to_byte(self) -> u8 {
        match self {
            PixelFormat::Gray8 => 0,
        }
    }

    fn from_byte(b: u8) -> io::Result<PixelFormat> {
        match b {
            0 => Ok(PixelFormat::Gray8),
            other => Err(invalid(format!("unknown pixel format {other}"))),
        }
    }
}

/// The parsed, validated P3DVID1 header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VidHeader {
    /// Frame width in pixels.
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
    /// Number of frame records in the container.
    pub frames: u32,
    /// Nominal frame rate, millihertz (informational only).
    pub fps_milli: u32,
    /// Payload pixel format.
    pub format: PixelFormat,
}

impl VidHeader {
    /// A GRAY8 header; `validate` still applies on write/read.
    pub fn gray8(width: u32, height: u32, frames: u32, fps_milli: u32) -> VidHeader {
        VidHeader {
            width,
            height,
            frames,
            fps_milli,
            format: PixelFormat::Gray8,
        }
    }

    /// Checks every field against the format caps.
    pub fn validate(&self) -> io::Result<()> {
        if self.width == 0 || self.width > MAX_FRAME_DIM {
            return Err(invalid(format!(
                "width {} outside 1..={MAX_FRAME_DIM}",
                self.width
            )));
        }
        if self.height == 0 || self.height > MAX_FRAME_DIM {
            return Err(invalid(format!(
                "height {} outside 1..={MAX_FRAME_DIM}",
                self.height
            )));
        }
        if self.frames == 0 || self.frames > MAX_FRAMES {
            return Err(invalid(format!(
                "frame count {} outside 1..={MAX_FRAMES}",
                self.frames
            )));
        }
        let bytes = (self.width as usize)
            .checked_mul(self.height as usize)
            .ok_or_else(|| invalid("frame byte count overflows"))?;
        if bytes > MAX_FRAME_BYTES {
            return Err(invalid(format!(
                "frame payload of {bytes} bytes exceeds cap {MAX_FRAME_BYTES}"
            )));
        }
        Ok(())
    }

    /// Payload bytes per frame (GRAY8: one per pixel). Valid headers
    /// cannot overflow — `validate` runs before this is used.
    pub fn frame_bytes(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// Total encoded stream length in bytes.
    pub fn stream_len(&self) -> u64 {
        VID_HEADER_LEN as u64
            + self.frames as u64 * (FRAME_OVERHEAD as u64 + self.frame_bytes() as u64)
    }

    /// Byte offset of frame record `index` within the stream.
    pub fn frame_offset(&self, index: u32) -> u64 {
        VID_HEADER_LEN as u64 + index as u64 * (FRAME_OVERHEAD as u64 + self.frame_bytes() as u64)
    }

    fn encode(&self) -> [u8; VID_HEADER_LEN] {
        let mut out = [0u8; VID_HEADER_LEN];
        out[0..8].copy_from_slice(VID_MAGIC);
        out[8..12].copy_from_slice(&self.width.to_le_bytes());
        out[12..16].copy_from_slice(&self.height.to_le_bytes());
        out[16..20].copy_from_slice(&self.frames.to_le_bytes());
        out[20..24].copy_from_slice(&self.fps_milli.to_le_bytes());
        out[24] = self.format.to_byte();
        let crc = crc32_fast(&out[8..28]);
        out[28..32].copy_from_slice(&crc.to_le_bytes());
        out
    }

    fn decode(buf: &[u8; VID_HEADER_LEN]) -> io::Result<VidHeader> {
        if &buf[0..8] != VID_MAGIC {
            return Err(invalid("bad magic: not a P3DVID1 stream"));
        }
        let word = |i: usize| u32::from_le_bytes([buf[i], buf[i + 1], buf[i + 2], buf[i + 3]]);
        let declared = word(28);
        if crc32_fast(&buf[8..28]) != declared {
            return Err(invalid("header checksum mismatch"));
        }
        if buf[25] != 0 || buf[26] != 0 || buf[27] != 0 {
            return Err(invalid("nonzero reserved header bytes"));
        }
        let header = VidHeader {
            width: word(8),
            height: word(12),
            frames: word(16),
            fps_milli: word(20),
            format: PixelFormat::from_byte(buf[24])?,
        };
        header.validate()?;
        Ok(header)
    }
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Streams a P3DVID1 container to any [`Write`] sink.
pub struct VidWriter<W: Write> {
    w: W,
    header: VidHeader,
    written: u32,
}

impl<W: Write> VidWriter<W> {
    /// Validates `header` and writes it to `w`.
    pub fn new(mut w: W, header: VidHeader) -> io::Result<VidWriter<W>> {
        header.validate()?;
        w.write_all(&header.encode())?;
        Ok(VidWriter {
            w,
            header,
            written: 0,
        })
    }

    /// Appends one frame record. `frame` must hold exactly
    /// [`VidHeader::frame_bytes`] bytes.
    pub fn write_frame(&mut self, frame: &[u8]) -> io::Result<()> {
        if frame.len() != self.header.frame_bytes() {
            return Err(invalid(format!(
                "frame of {} bytes, header declares {}",
                frame.len(),
                self.header.frame_bytes()
            )));
        }
        if self.written >= self.header.frames {
            return Err(invalid(format!(
                "container already holds the declared {} frames",
                self.header.frames
            )));
        }
        let idx = self.written.to_le_bytes();
        let mut crc = Crc32Fast::new();
        crc.update(&idx);
        crc.update(frame);
        self.w.write_all(&idx)?;
        self.w.write_all(frame)?;
        self.w.write_all(&crc.finish().to_le_bytes())?;
        self.written += 1;
        Ok(())
    }

    /// Checks the frame count matches the header, flushes, and returns
    /// the sink.
    pub fn finish(mut self) -> io::Result<W> {
        if self.written != self.header.frames {
            return Err(invalid(format!(
                "wrote {} of the declared {} frames",
                self.written, self.header.frames
            )));
        }
        self.w.flush()?;
        Ok(self.w)
    }
}

/// Atomically writes a container file: header + every frame yielded by
/// `frames`, to a temporary sibling first, fsynced, then renamed over
/// `path` — a crash mid-save can never leave a half-written file under
/// the final name (the P3DCKPT2 save discipline).
pub fn save_video<'a>(
    path: &Path,
    header: VidHeader,
    frames: impl IntoIterator<Item = &'a [u8]>,
) -> io::Result<()> {
    let tmp = {
        let mut name = path.file_name().unwrap_or_default().to_os_string();
        name.push(".tmp");
        path.with_file_name(name)
    };
    let file = std::fs::File::create(&tmp)?;
    let mut w = VidWriter::new(io::BufWriter::new(file), header)?;
    for frame in frames {
        w.write_frame(frame)?;
    }
    let file = w
        .finish()?
        .into_inner()
        .map_err(|e| io::Error::other(e.to_string()))?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    Ok(())
}

// ---------------------------------------------------------------------
// Readers
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CrcMode {
    Fast,
    Reference,
}

fn record_crc(mode: CrcMode, idx: &[u8; 4], payload: &[u8]) -> u32 {
    match mode {
        CrcMode::Fast => {
            let mut c = Crc32Fast::new();
            c.update(idx);
            c.update(payload);
            c.finish()
        }
        CrcMode::Reference => {
            reference_update(reference_update(0xFFFF_FFFF, idx), payload) ^ 0xFFFF_FFFF
        }
    }
}

/// Reads one frame record from `r` into `buf`, validating the index
/// and checksum. `buf` is resized to the frame payload length — an
/// allocation only the first time (or when the caller reuses one buffer
/// across streams of different dimensions).
fn read_record(
    r: &mut impl Read,
    expect_index: u32,
    frame_bytes: usize,
    mode: CrcMode,
    buf: &mut Vec<u8>,
) -> io::Result<()> {
    let mut idx = [0u8; 4];
    read_exact_vid(r, &mut idx)?;
    let got = u32::from_le_bytes(idx);
    if got != expect_index {
        return Err(invalid(format!(
            "frame index {got} where {expect_index} was expected"
        )));
    }
    // `frame_bytes` passed header validation (<= MAX_FRAME_BYTES), so
    // this resize is bounded.
    if buf.len() != frame_bytes {
        buf.clear();
        buf.resize(frame_bytes, 0);
    }
    read_exact_vid(r, buf)?;
    let mut declared = [0u8; 4];
    read_exact_vid(r, &mut declared)?;
    if record_crc(mode, &idx, buf) != u32::from_le_bytes(declared) {
        return Err(invalid(format!("frame {expect_index} checksum mismatch")));
    }
    Ok(())
}

/// Sequential hardened reader over any [`Read`] source — a file, or an
/// HTTP request body arriving frame by frame.
///
/// The header is validated (caps and checksum) before any frame buffer
/// exists; each [`read_frame_into`](Self::read_frame_into) then reuses
/// the caller's buffer, so steady-state streaming allocates nothing.
pub struct VidReader<R: Read> {
    r: R,
    header: VidHeader,
    next: u32,
    crc: CrcMode,
}

impl<R: Read> VidReader<R> {
    /// Parses and validates the header; frame payloads will be checked
    /// with [`Crc32Fast`].
    pub fn open(r: R) -> io::Result<VidReader<R>> {
        Self::open_mode(r, CrcMode::Fast)
    }

    /// Like [`open`](Self::open) but validating with the byte-at-a-time
    /// reference CRC — the differential twin used by tests and by the
    /// deliberately simple serial-ingest baseline.
    pub fn open_reference(r: R) -> io::Result<VidReader<R>> {
        Self::open_mode(r, CrcMode::Reference)
    }

    fn open_mode(mut r: R, crc: CrcMode) -> io::Result<VidReader<R>> {
        let mut buf = [0u8; VID_HEADER_LEN];
        read_exact_vid(&mut r, &mut buf)?;
        let header = VidHeader::decode(&buf)?;
        Ok(VidReader {
            r,
            header,
            next: 0,
            crc,
        })
    }

    /// The validated header.
    pub fn header(&self) -> &VidHeader {
        &self.header
    }

    /// Frames not yet read.
    pub fn remaining(&self) -> u32 {
        self.header.frames - self.next
    }

    /// Reads the next frame into `buf` (resized to the payload length).
    /// Returns `false` once every declared frame has been read.
    pub fn read_frame_into(&mut self, buf: &mut Vec<u8>) -> io::Result<bool> {
        if self.next == self.header.frames {
            return Ok(false);
        }
        read_record(
            &mut self.r,
            self.next,
            self.header.frame_bytes(),
            self.crc,
            buf,
        )?;
        self.next += 1;
        Ok(true)
    }

    /// Consumes the reader, returning the underlying source.
    pub fn into_inner(self) -> R {
        self.r
    }
}

/// Random-access hardened reader for seekable sources.
///
/// Frame records have a fixed size, so any frame decodes independently;
/// this is what lets prefetch workers decode interleaved clip stripes
/// of one file from separate file handles without coordination.
pub struct IndexedVidReader<R: Read + Seek> {
    r: R,
    header: VidHeader,
}

impl<R: Read + Seek> IndexedVidReader<R> {
    /// Parses and validates the header at the start of `r`.
    pub fn open(mut r: R) -> io::Result<IndexedVidReader<R>> {
        r.seek(SeekFrom::Start(0))?;
        let mut buf = [0u8; VID_HEADER_LEN];
        read_exact_vid(&mut r, &mut buf)?;
        let header = VidHeader::decode(&buf)?;
        Ok(IndexedVidReader { r, header })
    }

    /// The validated header.
    pub fn header(&self) -> &VidHeader {
        &self.header
    }

    /// Reads frame `index` into `buf`, validating index and checksum.
    pub fn read_frame(&mut self, index: u32, buf: &mut Vec<u8>) -> io::Result<()> {
        if index >= self.header.frames {
            return Err(invalid(format!(
                "frame {index} out of range (container holds {})",
                self.header.frames
            )));
        }
        self.r
            .seek(SeekFrom::Start(self.header.frame_offset(index)))?;
        read_record(
            &mut self.r,
            index,
            self.header.frame_bytes(),
            CrcMode::Fast,
            buf,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample_frames(header: &VidHeader, seed: u8) -> Vec<Vec<u8>> {
        (0..header.frames)
            .map(|f| {
                (0..header.frame_bytes())
                    .map(|i| (i as u32 * 31 + f * 7 + seed as u32) as u8)
                    .collect()
            })
            .collect()
    }

    fn encode(header: VidHeader, frames: &[Vec<u8>]) -> Vec<u8> {
        let mut w = VidWriter::new(Vec::new(), header).unwrap();
        for f in frames {
            w.write_frame(f).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn round_trip_both_crc_modes() {
        let header = VidHeader::gray8(5, 4, 3, 24_000);
        let frames = sample_frames(&header, 1);
        let bytes = encode(header, &frames);
        assert_eq!(bytes.len() as u64, header.stream_len());
        for open in [VidReader::open, VidReader::open_reference] {
            let mut r = open(Cursor::new(bytes.clone())).unwrap();
            assert_eq!(r.header(), &header);
            let mut buf = Vec::new();
            let mut seen = Vec::new();
            while r.read_frame_into(&mut buf).unwrap() {
                seen.push(buf.clone());
            }
            assert_eq!(seen, frames);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn indexed_reader_reads_out_of_order() {
        let header = VidHeader::gray8(3, 3, 4, 1000);
        let frames = sample_frames(&header, 9);
        let bytes = encode(header, &frames);
        let mut r = IndexedVidReader::open(Cursor::new(bytes)).unwrap();
        let mut buf = Vec::new();
        for &i in &[2u32, 0, 3, 1, 2] {
            r.read_frame(i, &mut buf).unwrap();
            assert_eq!(buf, frames[i as usize], "frame {i}");
        }
        assert!(r.read_frame(4, &mut buf).is_err());
    }

    #[test]
    fn writer_enforces_declared_geometry() {
        let header = VidHeader::gray8(2, 2, 2, 1000);
        let mut w = VidWriter::new(Vec::new(), header).unwrap();
        assert!(w.write_frame(&[0u8; 3]).is_err(), "wrong payload size");
        w.write_frame(&[0u8; 4]).unwrap();
        // Finishing short of the declared count fails.
        let w2 = VidWriter::new(Vec::new(), header).unwrap();
        assert!(w2.finish().is_err());
        // Writing past the declared count fails.
        w.write_frame(&[1u8; 4]).unwrap();
        assert!(w.write_frame(&[2u8; 4]).is_err());
        w.finish().unwrap();
    }

    #[test]
    fn header_caps_are_enforced() {
        for header in [
            VidHeader::gray8(0, 4, 1, 0),
            VidHeader::gray8(4, 0, 1, 0),
            VidHeader::gray8(MAX_FRAME_DIM + 1, 4, 1, 0),
            VidHeader::gray8(4, 4, 0, 0),
            VidHeader::gray8(4, 4, MAX_FRAMES + 1, 0),
        ] {
            assert!(header.validate().is_err(), "{header:?}");
            assert!(VidWriter::new(Vec::new(), header).is_err());
        }
    }

    #[test]
    fn corruption_is_detected_not_panicked() {
        let header = VidHeader::gray8(4, 4, 2, 1000);
        let bytes = encode(header, &sample_frames(&header, 3));
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(VidReader::open(Cursor::new(bad)).is_err());
        // Header field flip breaks the header CRC.
        let mut bad = bytes.clone();
        bad[9] ^= 0x10;
        assert!(VidReader::open(Cursor::new(bad)).is_err());
        // Payload flip breaks that frame's CRC (in both reader modes).
        for open in [VidReader::open, VidReader::open_reference] {
            let mut bad = bytes.clone();
            bad[VID_HEADER_LEN + 6] ^= 0x01;
            let mut r = open(Cursor::new(bad)).unwrap();
            let mut buf = Vec::new();
            assert!(r.read_frame_into(&mut buf).is_err());
        }
        // Truncation inside a record.
        let mut r = VidReader::open(Cursor::new(bytes[..bytes.len() - 1].to_vec())).unwrap();
        let mut buf = Vec::new();
        assert!(r.read_frame_into(&mut buf).unwrap());
        let err = r.read_frame_into(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
