//! Content-addressed on-disk model registry over P3DCKPT2 checkpoints.
//!
//! A registry directory holds every model version the server has ever
//! accepted, keyed by the **content hash** of the raw checkpoint bytes
//! (FNV-1a 64; per-record integrity inside the file is separately
//! guarded by P3DCKPT2's CRC-32 records). The layout is:
//!
//! ```text
//! <root>/
//!   models/<16-hex-hash>.ckpt     one file per accepted model version
//!   models/.<hash>.<pid>.<n>.tmp  in-flight publish (never listed)
//!   rejected/<name>.bad           quarantined bytes of a bad push
//!   rejected/<name>.reason        the typed reason it was rejected
//! ```
//!
//! Three invariants make the directory crash-safe and poison-safe:
//!
//! * **Atomic publish.** A model is written to a hidden `.tmp` sibling,
//!   fsynced, then renamed onto its final content-addressed name, and
//!   the directory is fsynced — exactly the `Checkpoint::save` protocol.
//!   A SIGKILL at any instant leaves either the complete file or an
//!   invisible `.tmp` leftover, which [`ModelRegistry::open`] sweeps.
//! * **Validate before publish.** The bytes must parse as a P3DCKPT2
//!   checkpoint (bounded reader, every record CRC checked) *before*
//!   anything lands under `models/`; garbage goes to `rejected/` with a
//!   typed reason and the server never panics.
//! * **Verify on load.** [`ModelRegistry::load`] re-hashes the file and
//!   re-parses it, so on-disk corruption after publish is detected and
//!   the damaged entry is quarantined to `rejected/` instead of being
//!   served.

use p3d_nn::Checkpoint;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// FNV-1a 64-bit over raw bytes — the registry's content hash. Stable
/// across platforms and cheap enough to re-run on every load.
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Renders a content hash as the 16-hex-digit key used on disk, in
/// URLs, and in response provenance.
pub fn hash_hex(hash: u64) -> String {
    format!("{hash:016x}")
}

/// A typed registry failure. Every path through the registry resolves
/// to one of these — never a panic.
#[derive(Clone, Debug, PartialEq)]
pub enum RegistryError {
    /// The filesystem failed underneath the registry.
    Io(String),
    /// The bytes were rejected (bad magic, truncated record, CRC
    /// mismatch, on-disk corruption, ...) and quarantined.
    Rejected {
        /// Content hash of the rejected bytes.
        hash: String,
        /// The typed reason recorded alongside the quarantined bytes.
        reason: String,
    },
    /// No model with this hash is published.
    NotFound {
        /// The hash that was requested.
        hash: String,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Io(e) => write!(f, "registry I/O error: {e}"),
            RegistryError::Rejected { hash, reason } => {
                write!(f, "checkpoint {hash} rejected: {reason}")
            }
            RegistryError::NotFound { hash } => write!(f, "no model {hash} in the registry"),
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<io::Error> for RegistryError {
    fn from(e: io::Error) -> Self {
        RegistryError::Io(e.to_string())
    }
}

/// One published model version.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ModelEntry {
    /// 16-hex content hash (the on-disk key).
    pub hash: String,
    /// Size of the checkpoint file in bytes.
    pub bytes: u64,
}

/// One quarantined push or corrupted entry.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct RejectedEntry {
    /// Quarantine file stem (usually the content hash).
    pub name: String,
    /// The typed reason recorded at quarantine time.
    pub reason: String,
}

/// What [`ModelRegistry::publish`] produced.
#[derive(Debug)]
pub struct Published {
    /// Content hash of the published bytes.
    pub hash: String,
    /// The parsed checkpoint (validated: every record CRC passed).
    pub checkpoint: Checkpoint,
    /// `true` when this exact content was already in the registry —
    /// publishing is idempotent.
    pub already_present: bool,
}

/// A content-addressed model store rooted at one directory.
///
/// All methods take `&self`: concurrent publishes are safe because each
/// writes a unique `.tmp` sibling and renames, and rename is atomic.
pub struct ModelRegistry {
    root: PathBuf,
    tmp_serial: AtomicU64,
}

impl ModelRegistry {
    /// Opens (creating if needed) a registry at `root`, sweeping any
    /// `.tmp` leftovers a crashed publish may have abandoned.
    pub fn open(root: impl AsRef<Path>) -> io::Result<ModelRegistry> {
        let root = root.as_ref().to_path_buf();
        let reg = ModelRegistry {
            root,
            tmp_serial: AtomicU64::new(0),
        };
        fs::create_dir_all(reg.models_dir())?;
        fs::create_dir_all(reg.rejected_dir())?;
        // Sweep in-flight publishes that never renamed: they are the
        // only partial state the protocol can leave behind.
        for entry in fs::read_dir(reg.models_dir())? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".tmp") {
                let _ = fs::remove_file(entry.path());
            }
        }
        Ok(reg)
    }

    /// The registry's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn models_dir(&self) -> PathBuf {
        self.root.join("models")
    }

    fn rejected_dir(&self) -> PathBuf {
        self.root.join("rejected")
    }

    /// On-disk path of a (possibly unpublished) model hash.
    pub fn path_of(&self, hash: &str) -> PathBuf {
        self.models_dir().join(format!("{hash}.ckpt"))
    }

    /// Validates and publishes checkpoint bytes. Returns the content
    /// hash and the parsed checkpoint on success; quarantines the bytes
    /// under `rejected/` with a typed reason on failure. Idempotent:
    /// re-publishing existing content succeeds without rewriting.
    pub fn publish(&self, bytes: &[u8]) -> Result<Published, RegistryError> {
        let hash = hash_hex(content_hash(bytes));
        let checkpoint = match Checkpoint::read_from(&mut &bytes[..]) {
            Ok(c) => c,
            Err(e) => {
                let reason = e.to_string();
                self.quarantine_bytes(&hash, bytes, &reason);
                return Err(RegistryError::Rejected { hash, reason });
            }
        };
        let path = self.path_of(&hash);
        if path.exists() {
            return Ok(Published {
                hash,
                checkpoint,
                already_present: true,
            });
        }
        self.write_atomic(&path, bytes)?;
        Ok(Published {
            hash,
            checkpoint,
            already_present: false,
        })
    }

    /// The atomic-publish protocol: unique hidden tmp sibling → write →
    /// fsync → rename onto the final name → fsync the directory.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let serial = self.tmp_serial.fetch_add(1, Ordering::Relaxed);
        let tmp = self.models_dir().join(format!(
            ".{}.{}.{serial}.tmp",
            path.file_stem().and_then(|s| s.to_str()).unwrap_or("model"),
            std::process::id(),
        ));
        {
            let mut f = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        if let Err(e) = fs::rename(&tmp, path) {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        if let Ok(dir) = File::open(self.models_dir()) {
            let _ = dir.sync_all();
        }
        Ok(())
    }

    /// Loads a published model by hash, re-verifying the content hash
    /// and re-parsing the checkpoint. A file that no longer matches its
    /// name or no longer parses is quarantined and reported as
    /// [`RegistryError::Rejected`] — corruption is never served.
    pub fn load(&self, hash: &str) -> Result<Checkpoint, RegistryError> {
        let path = self.path_of(hash);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Err(RegistryError::NotFound {
                    hash: hash.to_string(),
                })
            }
            Err(e) => return Err(e.into()),
        };
        let actual = hash_hex(content_hash(&bytes));
        if actual != hash {
            let reason = format!("on-disk corruption: content hashes to {actual}, filed as {hash}");
            self.quarantine_file(&path, hash, &reason);
            return Err(RegistryError::Rejected {
                hash: hash.to_string(),
                reason,
            });
        }
        match Checkpoint::read_from(&mut &bytes[..]) {
            Ok(c) => Ok(c),
            Err(e) => {
                let reason = e.to_string();
                self.quarantine_file(&path, hash, &reason);
                Err(RegistryError::Rejected {
                    hash: hash.to_string(),
                    reason,
                })
            }
        }
    }

    /// All published models, sorted by hash. Only complete
    /// content-addressed entries are visible — `.tmp` leftovers and
    /// foreign files are ignored.
    pub fn list(&self) -> io::Result<Vec<ModelEntry>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(self.models_dir())? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let Some(stem) = name.strip_suffix(".ckpt") else {
                continue;
            };
            if stem.len() != 16 || !stem.bytes().all(|b| b.is_ascii_hexdigit()) {
                continue;
            }
            out.push(ModelEntry {
                hash: stem.to_string(),
                bytes: entry.metadata()?.len(),
            });
        }
        out.sort();
        Ok(out)
    }

    /// All quarantined entries with their recorded reasons, sorted.
    pub fn rejected(&self) -> io::Result<Vec<RejectedEntry>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(self.rejected_dir())? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let Some(stem) = name.strip_suffix(".bad") else {
                continue;
            };
            let reason = fs::read_to_string(self.rejected_dir().join(format!("{stem}.reason")))
                .unwrap_or_else(|_| "(reason file missing)".to_string());
            out.push(RejectedEntry {
                name: stem.to_string(),
                reason: reason.trim().to_string(),
            });
        }
        out.sort();
        Ok(out)
    }

    /// Quarantines rejected push bytes. Best-effort: quarantine is
    /// forensics, and a full disk must not turn a typed rejection into
    /// a panic or mask the original reason.
    fn quarantine_bytes(&self, name: &str, bytes: &[u8], reason: &str) {
        let _ = fs::write(self.rejected_dir().join(format!("{name}.bad")), bytes);
        let _ = fs::write(
            self.rejected_dir().join(format!("{name}.reason")),
            format!("{reason}\n"),
        );
    }

    /// Moves a corrupted published file into quarantine (same
    /// filesystem, so this is a rename) and records the reason.
    fn quarantine_file(&self, path: &Path, name: &str, reason: &str) {
        let dst = self.rejected_dir().join(format!("{name}.bad"));
        if fs::rename(path, &dst).is_err() {
            // Cross-device or permission trouble: at minimum get the
            // bad entry out of the servable set.
            let _ = fs::remove_file(path);
        }
        let _ = fs::write(
            self.rejected_dir().join(format!("{name}.reason")),
            format!("{reason}\n"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3d_tensor::Tensor;

    fn tmp_root(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("p3d-registry-unit-{}-{tag}", std::process::id()))
    }

    fn checkpoint_bytes(seed: f32) -> Vec<u8> {
        let mut ckpt = Checkpoint::default();
        ckpt.tensors.insert(
            "w".to_string(),
            Tensor::from_vec([2, 2], vec![seed, 1.0, 2.0, 3.0]),
        );
        let mut out = Vec::new();
        ckpt.write_to(&mut out).unwrap();
        out
    }

    #[test]
    fn hash_is_stable_and_content_sensitive() {
        let a = checkpoint_bytes(0.5);
        let b = checkpoint_bytes(0.25);
        assert_eq!(content_hash(&a), content_hash(&a));
        assert_ne!(content_hash(&a), content_hash(&b));
        assert_eq!(hash_hex(content_hash(&a)).len(), 16);
    }

    #[test]
    fn publish_load_roundtrip_is_idempotent() {
        let root = tmp_root("roundtrip");
        let reg = ModelRegistry::open(&root).unwrap();
        let bytes = checkpoint_bytes(0.5);
        let first = reg.publish(&bytes).unwrap();
        assert!(!first.already_present);
        let again = reg.publish(&bytes).unwrap();
        assert!(again.already_present);
        assert_eq!(first.hash, again.hash);
        let loaded = reg.load(&first.hash).unwrap();
        assert_eq!(loaded, first.checkpoint);
        assert_eq!(reg.list().unwrap().len(), 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn garbage_is_rejected_typed_and_quarantined() {
        let root = tmp_root("garbage");
        let reg = ModelRegistry::open(&root).unwrap();
        let err = reg.publish(b"definitely not a checkpoint").unwrap_err();
        let RegistryError::Rejected { hash, reason } = &err else {
            panic!("expected Rejected, got {err:?}");
        };
        assert!(!reason.is_empty());
        let rejected = reg.rejected().unwrap();
        assert_eq!(rejected.len(), 1);
        assert_eq!(&rejected[0].name, hash);
        assert!(reg.list().unwrap().is_empty(), "nothing published");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn on_disk_corruption_is_quarantined_at_load() {
        let root = tmp_root("corrupt");
        let reg = ModelRegistry::open(&root).unwrap();
        let bytes = checkpoint_bytes(0.5);
        let hash = reg.publish(&bytes).unwrap().hash;
        // Flip one byte of the published file behind the registry's back.
        let path = reg.path_of(&hash);
        let mut on_disk = fs::read(&path).unwrap();
        let mid = on_disk.len() / 2;
        on_disk[mid] ^= 0x40;
        fs::write(&path, &on_disk).unwrap();
        let err = reg.load(&hash).unwrap_err();
        assert!(matches!(err, RegistryError::Rejected { .. }), "{err:?}");
        assert!(
            reg.list().unwrap().is_empty(),
            "corrupt entry must leave the servable set"
        );
        assert_eq!(reg.rejected().unwrap().len(), 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn open_sweeps_tmp_leftovers_and_ignores_foreign_files() {
        let root = tmp_root("sweep");
        fs::create_dir_all(root.join("models")).unwrap();
        fs::write(root.join("models/.deadbeef.1.0.tmp"), b"partial").unwrap();
        fs::write(root.join("models/notes.txt"), b"unrelated").unwrap();
        let reg = ModelRegistry::open(&root).unwrap();
        assert!(!root.join("models/.deadbeef.1.0.tmp").exists(), "tmp swept");
        assert!(reg.list().unwrap().is_empty(), "foreign files never listed");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_hash_is_not_found() {
        let root = tmp_root("missing");
        let reg = ModelRegistry::open(&root).unwrap();
        let err = reg.load("0123456789abcdef").unwrap_err();
        assert_eq!(
            err,
            RegistryError::NotFound {
                hash: "0123456789abcdef".to_string()
            }
        );
        let _ = fs::remove_dir_all(&root);
    }
}
