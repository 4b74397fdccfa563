//! Checkpointing: saving and restoring network parameters and state.
//!
//! The on-disk format (`P3DCKPT2`) is a simple self-describing binary:
//! a magic header, a record count, then length-prefixed
//! `(name, shape, f32 data, crc32)` records for every parameter, pruning
//! mask, and exported state tensor. No external serialisation crate is
//! needed, and files are byte-identical across platforms (little-endian).
//!
//! # Format spec (`P3DCKPT2`)
//!
//! ```text
//! magic   : 8 bytes  b"P3DCKPT2"
//! count   : u64 LE   number of records (<= MAX_TENSORS)
//! record  :
//!   name_len : u32 LE   1..=MAX_NAME_LEN
//!   name     : name_len bytes, UTF-8
//!   rank     : u32 LE   1..=MAX_RANK
//!   dims     : rank x u64 LE, each >= 1; product <= MAX_ELEMS
//!   data     : product x f32 LE
//!   crc      : u32 LE   CRC-32 (IEEE) over the record bytes above
//!                       ([`p3d_tensor::crc`], the P3DVID1 checksum too)
//! ```
//!
//! No trailing bytes are allowed after the last record. The legacy
//! `P3DCKPT1` format (identical but without the per-record CRC) is still
//! readable; [`Checkpoint::write_to_v1`] can produce it for
//! compatibility tests.
//!
//! # Robustness
//!
//! The reader is hardened against corrupt or adversarial inputs: every
//! length field is bounds-checked before allocation, element counts use
//! checked multiplication, and tensor payloads are streamed in small
//! chunks so a truncated file fails with [`std::io::ErrorKind::InvalidData`]
//! after allocating at most a few kilobytes — it can never OOM or panic.
//! Saving is crash-safe: data is written to a sibling `*.tmp` file,
//! fsynced, and atomically renamed over the destination, so a crash
//! mid-save leaves either the old file or the new one, never a torn mix.

use crate::layer::Layer;
use p3d_tensor::crc::{crc32_fast, Crc32Fast};
use p3d_tensor::{Shape, Tensor};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

const MAGIC_V2: &[u8; 8] = b"P3DCKPT2";
const MAGIC_V1: &[u8; 8] = b"P3DCKPT1";

/// Maximum number of records in one checkpoint.
pub const MAX_TENSORS: usize = 1 << 20;
/// Maximum tensor-name length in bytes.
pub const MAX_NAME_LEN: usize = 4096;
/// Maximum number of scalars in one tensor (1 GiB of f32 data).
pub const MAX_ELEMS: usize = 1 << 28;

/// Streaming chunk size for tensor payloads (multiple of 4).
const IO_CHUNK: usize = 64 * 1024;

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// `read_exact` that reports truncation as `InvalidData` instead of
/// `UnexpectedEof`, so callers see one uniform "malformed checkpoint"
/// error kind.
fn read_exact_ckpt(r: &mut impl Read, buf: &mut [u8]) -> io::Result<()> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            invalid("truncated checkpoint")
        } else {
            e
        }
    })
}

/// Appends the little-endian bytes of `data` to `out` in bulk.
///
/// One `reserve` plus tight 4-byte appends replaces the historical
/// per-scalar `write_all` loop; on release builds this lowers to a
/// vectorised copy and makes R(2+1)D-sized checkpoint saves several
/// times faster (see EXPERIMENTS.md).
fn extend_f32_le(out: &mut Vec<u8>, data: &[f32]) {
    out.reserve(data.len() * 4);
    for &x in data {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

/// A report of what a [`Checkpoint::restore`] actually did.
///
/// Historically, tensors missing from the checkpoint or unused by the
/// network were silently ignored; this report makes every mismatch
/// visible, and [`Checkpoint::restore_checked`] turns the ones a model
/// loader cannot accept into an error.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RestoreReport {
    /// Names restored into the network (parameters, masks, and state).
    pub restored: Vec<String>,
    /// Names the network wanted but the checkpoint does not contain.
    pub missing: Vec<String>,
    /// Checkpoint tensors no part of the network consumed.
    pub unused: Vec<String>,
    /// Names present in both but with incompatible shapes (populated by
    /// [`Checkpoint::try_restore`]; the panicking [`Checkpoint::restore`]
    /// aborts on these instead).
    pub mismatched: Vec<String>,
}

impl RestoreReport {
    /// `true` when the checkpoint and network matched exactly: nothing
    /// missing, nothing unused, no shape mismatches.
    pub fn is_exact(&self) -> bool {
        self.missing.is_empty() && self.unused.is_empty() && self.mismatched.is_empty()
    }
}

/// Why a checkpoint does not fit a network ([`Checkpoint::restore_checked`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RestoreError {
    /// No tensor of the checkpoint belongs to the network.
    NothingRestored,
    /// These tensors are in both, with different shapes.
    ShapeMismatch(Vec<String>),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::NothingRestored => write!(f, "matches no parameters of this model"),
            RestoreError::ShapeMismatch(names) => write!(
                f,
                "shape mismatch for {names:?} — was it written by a different model?"
            ),
        }
    }
}

impl std::error::Error for RestoreError {}

/// A named collection of tensors: parameters plus exported state
/// (batch-norm running statistics, pruning masks, optimiser and
/// trainer state, ...).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Checkpoint {
    /// Tensors by unique name.
    pub tensors: BTreeMap<String, Tensor>,
}

impl Checkpoint {
    /// Captures every parameter value, installed pruning mask, and
    /// exported state tensor of a network.
    ///
    /// Masks are stored as `{param}.mask` tensors so that a
    /// saved-then-loaded pruned model stays on its sparsity set: without
    /// them the first optimiser step after a restore would resurrect
    /// pruned weights.
    pub fn capture(network: &mut dyn Layer) -> Self {
        let mut tensors = BTreeMap::new();
        network.visit_params(&mut |p| {
            tensors.insert(p.name.clone(), p.value.clone());
            if let Some(mask) = &p.mask {
                tensors.insert(format!("{}.mask", p.name), mask.clone());
            }
        });
        network.export_state(&mut |name, t| {
            tensors.insert(name.to_string(), t.clone());
        });
        Checkpoint { tensors }
    }

    fn restore_impl(&self, network: &mut dyn Layer) -> RestoreReport {
        let mut report = RestoreReport::default();
        let mut used: BTreeSet<String> = BTreeSet::new();
        network.visit_params(&mut |p| {
            match self.tensors.get(&p.name) {
                Some(t) if t.shape() == p.value.shape() => {
                    p.value = t.clone();
                    used.insert(p.name.clone());
                    report.restored.push(p.name.clone());
                }
                Some(_) => {
                    used.insert(p.name.clone());
                    report.mismatched.push(p.name.clone());
                }
                None => report.missing.push(p.name.clone()),
            }
            let mask_key = format!("{}.mask", p.name);
            match self.tensors.get(&mask_key) {
                Some(m) if m.shape() == p.value.shape() => {
                    p.set_mask(m.clone());
                    used.insert(mask_key.clone());
                    report.restored.push(mask_key);
                }
                Some(_) => {
                    used.insert(mask_key.clone());
                    report.mismatched.push(mask_key);
                }
                // No mask in the checkpoint: leave whatever mask the
                // live parameter has. (An unmasked checkpoint of a
                // masked network is a deliberate "unprune".)
                None => {}
            }
        });
        network.import_state(&mut |name, expect| match self.tensors.get(name) {
            Some(t) if t.shape() == *expect => {
                used.insert(name.to_string());
                report.restored.push(name.to_string());
                Some(t.clone())
            }
            Some(_) => {
                used.insert(name.to_string());
                report.mismatched.push(name.to_string());
                None
            }
            None => {
                report.missing.push(name.to_string());
                None
            }
        });
        for name in self.tensors.keys() {
            if !used.contains(name) {
                report.unused.push(name.clone());
            }
        }
        report
    }

    /// Restores parameter values, pruning masks (`{param}.mask`
    /// entries), *and* exported state (batch-norm running statistics)
    /// into a network built with the same architecture and naming.
    ///
    /// Returns a [`RestoreReport`] listing restored, missing, and unused
    /// tensors instead of silently ignoring mismatches.
    ///
    /// # Panics
    ///
    /// Panics if a stored tensor exists for a parameter (or its mask)
    /// but with a different shape. Use [`Checkpoint::try_restore`] for a
    /// non-panicking variant.
    pub fn restore(&self, network: &mut dyn Layer) -> RestoreReport {
        let report = self.restore_impl(network);
        assert!(
            report.mismatched.is_empty(),
            "checkpoint shape mismatch for {}",
            report.mismatched.join(", ")
        );
        report
    }

    /// Like [`Checkpoint::restore`], but records shape mismatches in
    /// [`RestoreReport::mismatched`] (skipping those tensors) instead of
    /// panicking.
    pub fn try_restore(&self, network: &mut dyn Layer) -> RestoreReport {
        self.restore_impl(network)
    }

    /// [`Checkpoint::try_restore`] under the rule a model loader needs:
    /// the checkpoint restores at least one tensor and mismatches none.
    /// Tensors missing on either side are allowed and reported.
    pub fn restore_checked(&self, network: &mut dyn Layer) -> Result<RestoreReport, RestoreError> {
        let report = self.restore_impl(network);
        if report.restored.is_empty() {
            Err(RestoreError::NothingRestored)
        } else if !report.mismatched.is_empty() {
            Err(RestoreError::ShapeMismatch(report.mismatched))
        } else {
            Ok(report)
        }
    }

    /// Serialises to any writer in the current (`P3DCKPT2`) format.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(MAGIC_V2)?;
        w.write_all(&(self.tensors.len() as u64).to_le_bytes())?;
        let mut rec: Vec<u8> = Vec::new();
        for (name, t) in &self.tensors {
            rec.clear();
            let name_bytes = name.as_bytes();
            rec.extend_from_slice(&(name_bytes.len() as u32).to_le_bytes());
            rec.extend_from_slice(name_bytes);
            let shape = t.shape();
            let dims = shape.dims();
            rec.extend_from_slice(&(dims.len() as u32).to_le_bytes());
            for &d in dims {
                rec.extend_from_slice(&(d as u64).to_le_bytes());
            }
            extend_f32_le(&mut rec, t.data());
            let crc = crc32_fast(&rec);
            w.write_all(&rec)?;
            w.write_all(&crc.to_le_bytes())?;
        }
        Ok(())
    }

    /// Serialises in the legacy `P3DCKPT1` format (no checksums).
    ///
    /// New code writes v2; this exists so compatibility tests (and any
    /// tooling that must interoperate with pre-v2 readers) can still
    /// produce v1 files.
    pub fn write_to_v1(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(MAGIC_V1)?;
        w.write_all(&(self.tensors.len() as u64).to_le_bytes())?;
        let mut rec: Vec<u8> = Vec::new();
        for (name, t) in &self.tensors {
            rec.clear();
            let name_bytes = name.as_bytes();
            rec.extend_from_slice(&(name_bytes.len() as u32).to_le_bytes());
            rec.extend_from_slice(name_bytes);
            let shape = t.shape();
            let dims = shape.dims();
            rec.extend_from_slice(&(dims.len() as u32).to_le_bytes());
            for &d in dims {
                rec.extend_from_slice(&(d as u64).to_le_bytes());
            }
            extend_f32_le(&mut rec, t.data());
            w.write_all(&rec)?;
        }
        Ok(())
    }

    /// Reads one `(name, tensor)` record; `with_crc` selects the v2
    /// layout (trailing CRC-32) versus legacy v1.
    fn read_record(r: &mut impl Read, with_crc: bool) -> io::Result<(String, Tensor)> {
        let mut crc = Crc32Fast::new();
        let mut u32buf = [0u8; 4];
        let mut u64buf = [0u8; 8];

        read_exact_ckpt(r, &mut u32buf)?;
        crc.update(&u32buf);
        let name_len = u32::from_le_bytes(u32buf) as usize;
        if name_len == 0 || name_len > MAX_NAME_LEN {
            return Err(invalid(format!(
                "tensor name length {name_len} out of bounds (1..={MAX_NAME_LEN})"
            )));
        }
        let mut name_bytes = vec![0u8; name_len];
        read_exact_ckpt(r, &mut name_bytes)?;
        crc.update(&name_bytes);
        let name = String::from_utf8(name_bytes).map_err(|e| invalid(e.to_string()))?;

        read_exact_ckpt(r, &mut u32buf)?;
        crc.update(&u32buf);
        let rank = u32::from_le_bytes(u32buf) as usize;
        if rank == 0 || rank > p3d_tensor::shape::MAX_RANK {
            return Err(invalid(format!("tensor rank {rank} out of bounds")));
        }
        let mut dims = Vec::with_capacity(rank);
        let mut elems: usize = 1;
        for _ in 0..rank {
            read_exact_ckpt(r, &mut u64buf)?;
            crc.update(&u64buf);
            let d = u64::from_le_bytes(u64buf);
            if d == 0 || d > MAX_ELEMS as u64 {
                return Err(invalid(format!("tensor dimension {d} out of bounds")));
            }
            let d = d as usize;
            elems = elems
                .checked_mul(d)
                .filter(|&e| e <= MAX_ELEMS)
                .ok_or_else(|| invalid("tensor element count overflows the allocation budget"))?;
            dims.push(d);
        }

        // Stream the payload in bounded chunks: a truncated or lying
        // header fails after at most IO_CHUNK extra bytes of allocation,
        // never a multi-GB `vec!`.
        let mut data: Vec<f32> = Vec::new();
        let mut remaining = elems * 4;
        let mut chunk = [0u8; IO_CHUNK];
        while remaining > 0 {
            let n = remaining.min(IO_CHUNK);
            read_exact_ckpt(r, &mut chunk[..n])?;
            crc.update(&chunk[..n]);
            data.reserve(n / 4);
            for b in chunk[..n].chunks_exact(4) {
                data.push(f32::from_le_bytes([b[0], b[1], b[2], b[3]]));
            }
            remaining -= n;
        }

        if with_crc {
            read_exact_ckpt(r, &mut u32buf)?;
            let stored = u32::from_le_bytes(u32buf);
            let computed = crc.finish();
            if stored != computed {
                return Err(invalid(format!(
                    "checksum mismatch for tensor '{name}': stored {stored:#010x}, computed {computed:#010x}"
                )));
            }
        }

        Ok((name, Tensor::from_vec(Shape::new(&dims), data)))
    }

    /// Deserialises from any reader, accepting both the current
    /// (`P3DCKPT2`, checksummed) and legacy (`P3DCKPT1`) formats.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for a wrong magic header, malformed or
    /// truncated records, out-of-bounds lengths, checksum mismatches,
    /// duplicate names, or trailing bytes. Never panics and never
    /// allocates more than a bounded amount beyond the bytes actually
    /// present in the input.
    pub fn read_from(r: &mut impl Read) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        read_exact_ckpt(r, &mut magic)?;
        let with_crc = match &magic {
            m if m == MAGIC_V2 => true,
            m if m == MAGIC_V1 => false,
            _ => return Err(invalid("not a p3d checkpoint")),
        };
        let mut u64buf = [0u8; 8];
        read_exact_ckpt(r, &mut u64buf)?;
        let count = u64::from_le_bytes(u64buf);
        if count > MAX_TENSORS as u64 {
            return Err(invalid(format!("record count {count} out of bounds")));
        }
        let mut tensors = BTreeMap::new();
        for _ in 0..count {
            let (name, t) = Self::read_record(r, with_crc)?;
            if tensors.insert(name.clone(), t).is_some() {
                return Err(invalid(format!("duplicate tensor name '{name}'")));
            }
        }
        // No trailing garbage: a flipped count field must not let a
        // corrupt file parse as a shorter valid one.
        let mut probe = [0u8; 1];
        loop {
            match r.read(&mut probe) {
                Ok(0) => break,
                Ok(_) => return Err(invalid("trailing bytes after last record")),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(Checkpoint { tensors })
    }

    /// Saves to a file **atomically**: the checkpoint is written to a
    /// sibling `{file}.tmp`, flushed and fsynced, then renamed over the
    /// destination. A crash mid-save leaves either the previous file or
    /// the complete new one — never a torn, half-written checkpoint.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        let tmp = tmp_sibling(path);
        let result = (|| {
            let f = std::fs::File::create(&tmp)?;
            let mut w = io::BufWriter::new(f);
            self.write_to(&mut w)?;
            w.flush()?;
            w.get_ref().sync_all()?;
            drop(w);
            std::fs::rename(&tmp, path)?;
            // Make the rename itself durable.
            if let Some(dir) = path.parent() {
                if !dir.as_os_str().is_empty() {
                    if let Ok(d) = std::fs::File::open(dir) {
                        let _ = d.sync_all();
                    }
                }
            }
            Ok(())
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }

    /// Loads from a file.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let mut f = std::io::BufReader::new(std::fs::File::open(path)?);
        Checkpoint::read_from(&mut f)
    }

    /// Total number of scalars stored.
    pub fn num_scalars(&self) -> usize {
        self.tensors.values().map(|t| t.len()).sum()
    }
}

/// `{path}.tmp` in the same directory (so the final rename is atomic on
/// POSIX filesystems — rename across filesystems is not).
fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| std::ffi::OsString::from("checkpoint"));
    name.push(".tmp");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::Sequential;
    use crate::conv3d::Conv3d;
    use crate::layer::Mode;
    use p3d_tensor::TensorRng;

    fn demo_net(seed: u64) -> Sequential {
        let mut rng = TensorRng::seed(seed);
        Sequential::new()
            .push(Conv3d::new(
                "a",
                3,
                2,
                (1, 3, 3),
                (1, 1, 1),
                (0, 1, 1),
                true,
                &mut rng,
            ))
            .push(crate::batchnorm::BatchNorm3d::new("bn0", 3))
    }

    #[test]
    fn roundtrip_through_bytes() {
        let mut net = demo_net(1);
        // Run a training step so BN stats are non-default.
        let mut rng = TensorRng::seed(2);
        let x = rng.uniform_tensor([2, 2, 2, 4, 4], -1.0, 1.0);
        let _ = net.forward(&x, Mode::Train);
        let ckpt = Checkpoint::capture(&mut net);
        let mut buf = Vec::new();
        ckpt.write_to(&mut buf).unwrap();
        let back = Checkpoint::read_from(&mut &buf[..]).unwrap();
        assert_eq!(back, ckpt);
        assert!(back.tensors.contains_key("a.weight"));
        assert!(back.tensors.contains_key("bn0.running_mean"));
    }

    #[test]
    fn v1_files_still_load() {
        let mut net = demo_net(2);
        let ckpt = Checkpoint::capture(&mut net);
        let mut v1 = Vec::new();
        ckpt.write_to_v1(&mut v1).unwrap();
        assert_eq!(&v1[..8], b"P3DCKPT1");
        let back = Checkpoint::read_from(&mut &v1[..]).unwrap();
        assert_eq!(back, ckpt);
    }

    #[test]
    fn restore_into_fresh_network() {
        let mut net = demo_net(3);
        let ckpt = Checkpoint::capture(&mut net);
        let mut fresh = demo_net(4);
        // Different seed -> different weights before restore.
        assert_ne!(
            Checkpoint::capture(&mut fresh).tensors["a.weight"],
            ckpt.tensors["a.weight"]
        );
        let report = ckpt.restore(&mut fresh);
        // weight, bias, gamma, beta + running mean/var.
        assert_eq!(report.restored.len(), 6);
        assert!(report.is_exact(), "unexpected mismatch: {report:?}");
        assert_eq!(
            Checkpoint::capture(&mut fresh).tensors["a.weight"],
            ckpt.tensors["a.weight"]
        );
    }

    #[test]
    fn restore_report_lists_missing_and_unused() {
        let mut net = demo_net(5);
        let mut ckpt = Checkpoint::capture(&mut net);
        ckpt.tensors.remove("a.bias");
        ckpt.tensors.insert("stray".into(), Tensor::zeros([2, 2]));
        let report = ckpt.restore(&mut net);
        assert_eq!(report.missing, vec!["a.bias".to_string()]);
        assert_eq!(report.unused, vec!["stray".to_string()]);
        assert!(!report.is_exact());
        // Missing and unused tensors are reported, not refused.
        assert!(ckpt.restore_checked(&mut net).is_ok());
    }

    #[test]
    fn masks_roundtrip_and_reinstall() {
        let mut net = demo_net(6);
        // Install a pruning mask on the conv weight.
        net.visit_params(&mut |p| {
            if p.name == "a.weight" {
                let mut m = Tensor::ones(p.value.shape());
                m.data_mut()[0] = 0.0;
                p.set_mask(m);
            }
        });
        let ckpt = Checkpoint::capture(&mut net);
        assert!(ckpt.tensors.contains_key("a.weight.mask"));

        let mut fresh = demo_net(7);
        let report = ckpt.restore(&mut fresh);
        assert!(report.restored.contains(&"a.weight.mask".to_string()));
        let mut mask_ok = false;
        fresh.visit_params(&mut |p| {
            if p.name == "a.weight" {
                let m = p.mask.as_ref().expect("mask not reinstalled");
                mask_ok = m.data()[0] == 0.0 && p.value.data()[0] == 0.0;
            }
        });
        assert!(mask_ok, "restored mask not applied");
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let mut net = demo_net(8);
        let mut ckpt = Checkpoint::capture(&mut net);
        ckpt.tensors
            .insert("a.weight".into(), Tensor::zeros([1, 1, 1, 1, 1]));
        let _ = ckpt.restore(&mut net);
    }

    #[test]
    fn try_restore_reports_mismatch_without_panicking() {
        let mut net = demo_net(9);
        let mut ckpt = Checkpoint::capture(&mut net);
        ckpt.tensors
            .insert("a.weight".into(), Tensor::zeros([1, 1, 1, 1, 1]));
        let report = ckpt.try_restore(&mut net);
        assert_eq!(report.mismatched, vec!["a.weight".to_string()]);
        let err = ckpt.restore_checked(&mut net).unwrap_err();
        assert_eq!(err, RestoreError::ShapeMismatch(vec!["a.weight".into()]));
    }

    #[test]
    fn restore_checked_needs_one_tensor() {
        let mut net = demo_net(12);
        let full = Checkpoint::capture(&mut net);
        assert!(full.restore_checked(&mut net).is_ok());
        let stray = Checkpoint {
            tensors: [("stray".to_string(), Tensor::zeros([1]))].into(),
        };
        let err = stray.restore_checked(&mut net).unwrap_err();
        assert_eq!(err, RestoreError::NothingRestored);
        assert_eq!(err.to_string(), "matches no parameters of this model");
    }

    #[test]
    fn rejects_wrong_magic() {
        let garbage = b"NOTACKPT________";
        assert!(Checkpoint::read_from(&mut &garbage[..]).is_err());
    }

    #[test]
    fn rejects_corruption_via_checksum() {
        let mut net = demo_net(10);
        let ckpt = Checkpoint::capture(&mut net);
        let mut buf = Vec::new();
        ckpt.write_to(&mut buf).unwrap();
        // Flip one payload bit somewhere past the header.
        let idx = buf.len() / 2;
        buf[idx] ^= 0x10;
        let err = Checkpoint::read_from(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_truncation() {
        let mut net = demo_net(11);
        let ckpt = Checkpoint::capture(&mut net);
        let mut buf = Vec::new();
        ckpt.write_to(&mut buf).unwrap();
        for cut in [9, 16, 21, buf.len() / 2, buf.len() - 1] {
            let err = Checkpoint::read_from(&mut &buf[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}");
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut net = demo_net(12);
        let ckpt = Checkpoint::capture(&mut net);
        let mut buf = Vec::new();
        ckpt.write_to(&mut buf).unwrap();
        buf.push(0);
        assert!(Checkpoint::read_from(&mut &buf[..]).is_err());
    }

    #[test]
    fn malicious_headers_fail_without_huge_allocation() {
        // A 16-byte file claiming u64::MAX records.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"P3DCKPT2");
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(Checkpoint::read_from(&mut &buf[..]).is_err());

        // One record whose name claims to be 4 GiB long.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"P3DCKPT2");
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Checkpoint::read_from(&mut &buf[..]).is_err());

        // One record whose dims multiply to ~2^64 elements.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"P3DCKPT2");
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.push(b'w');
        buf.extend_from_slice(&4u32.to_le_bytes());
        for _ in 0..4 {
            buf.extend_from_slice(&(u16::MAX as u64).to_le_bytes());
        }
        assert!(Checkpoint::read_from(&mut &buf[..]).is_err());

        // Zero-sized dimension (would panic Shape::new if trusted).
        let mut buf = Vec::new();
        buf.extend_from_slice(b"P3DCKPT2");
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.push(b'w');
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        assert!(Checkpoint::read_from(&mut &buf[..]).is_err());
    }

    #[test]
    fn file_roundtrip_is_atomic() {
        let mut net = demo_net(13);
        let ckpt = Checkpoint::capture(&mut net);
        let dir = std::env::temp_dir().join("p3d_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("net.ckpt");
        ckpt.save(&path).unwrap();
        // The temp sibling must not survive a successful save.
        assert!(!tmp_sibling(&path).exists(), "stale .tmp left behind");
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(back, ckpt);
        assert_eq!(back.num_scalars(), ckpt.num_scalars());
        // Overwriting an existing checkpoint also works atomically.
        ckpt.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), ckpt);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn crc32_known_vector() {
        // IEEE CRC-32 of "123456789" is 0xCBF43926.
        assert_eq!(p3d_tensor::crc::crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_fast(b"123456789"), 0xCBF4_3926);
    }
}
