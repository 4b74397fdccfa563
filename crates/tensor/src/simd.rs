//! Runtime SIMD capability detection and kernel-path selection.
//!
//! Every vectorized kernel in the workspace — the AVX2 f32 GEMM
//! tile kernel in [`crate::gemm`], the AVX2 integer Q7.8 convolution
//! kernel in the FPGA functional simulator and the carry-less-multiply
//! CRC-32 fold in [`crate::crc`] — dispatches through this module: the
//! CPU is probed **once** (cached), kernels ask for the [`active`] level
//! (or [`use_pclmul`]) per call, and tests can force the scalar fallback
//! with [`force_scalar`] to prove the two paths bitwise identical on
//! the same machine.
//!
//! # Why the vector paths can be bitwise identical at all
//!
//! * The integer kernels accumulate exact `i64` sums — integer addition
//!   is associative, so any lane order gives the same bits.
//! * The f32 kernels use *separate* vector multiply and add
//!   (`_mm256_mul_ps` + `_mm256_add_ps`), never `_mm256_fmadd_ps`: a
//!   fused multiply-add skips the intermediate rounding and would break
//!   the canonical-accumulation-order contract every bitwise gate in
//!   `gemm_properties` pins. FMA presence is still *detected* and
//!   reported for provenance, but deliberately not used for arithmetic.
//! * CRC-32 is arithmetic over GF(2): the carry-less-multiply fold and
//!   the table loops compute the same polynomial remainder exactly.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// The instruction-set level a kernel dispatches at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable scalar (or autovectorized baseline) code path.
    Scalar,
    /// Explicit 256-bit AVX2 intrinsics.
    Avx2,
}

impl SimdLevel {
    /// Short lowercase name for reports (`"scalar"` / `"avx2"`).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// Process-wide request to ignore detected SIMD support and run the
/// scalar fallbacks. Used by the AVX2-vs-scalar bitwise gates.
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Serialises the unit tests that flip [`FORCE_SCALAR`] and assert on
/// the level it selects.
#[cfg(test)]
pub(crate) static FORCE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Cached result of the one-time CPU probe.
static DETECTED: OnceLock<SimdLevel> = OnceLock::new();
/// Cached result of the one-time carry-less-multiply probe.
static PCLMUL: OnceLock<bool> = OnceLock::new();
/// Cached comma-separated feature list for provenance reports.
static FEATURES: OnceLock<String> = OnceLock::new();

/// The SIMD level this CPU supports, probed once and cached.
pub fn detected() -> SimdLevel {
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return SimdLevel::Avx2;
            }
        }
        SimdLevel::Scalar
    })
}

/// The SIMD level kernels should dispatch at **right now**: the
/// detected level, unless a test forced the scalar fallback.
pub fn active() -> SimdLevel {
    if FORCE_SCALAR.load(Ordering::Relaxed) {
        SimdLevel::Scalar
    } else {
        detected()
    }
}

/// Forces (`true`) or releases (`false`) the scalar fallback for every
/// SIMD-dispatched kernel in the process.
///
/// This is a test hook: the AVX2-vs-scalar bitwise gates run each
/// kernel once per setting and compare bits. It is process-wide, so
/// tests that flip it must serialise on a lock and restore `false`.
pub fn force_scalar(on: bool) {
    FORCE_SCALAR.store(on, Ordering::Relaxed);
}

/// `true` when the AVX2 kernel paths should run (detected and not
/// overridden). The hot-loop dispatch predicate.
#[inline]
pub fn use_avx2() -> bool {
    active() == SimdLevel::Avx2
}

/// `true` when this CPU has `pclmulqdq` and `sse4.1`, the features of
/// the folding CRC-32 kernel; probed once and cached.
pub fn has_pclmul() -> bool {
    *PCLMUL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("pclmulqdq")
                && std::arch::is_x86_feature_detected!("sse4.1")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// `true` when the carry-less-multiply CRC-32 fold should run
/// (detected and not overridden by [`force_scalar`]).
#[inline]
pub fn use_pclmul() -> bool {
    !FORCE_SCALAR.load(Ordering::Relaxed) && has_pclmul()
}

/// Comma-separated list of the detected vector features relevant to
/// this workspace's kernels (e.g. `"sse4.2,pclmulqdq,avx2,fma"`), for the
/// provenance fields of benchmark and CLI reports. Empty when none of
/// the probed features are present (or on non-x86 hosts).
pub fn cpu_features() -> &'static str {
    FEATURES.get_or_init(|| {
        #[allow(unused_mut)]
        let mut feats: Vec<&str> = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("sse4.2") {
                feats.push("sse4.2");
            }
            if has_pclmul() {
                feats.push("pclmulqdq");
            }
            if std::arch::is_x86_feature_detected!("avx") {
                feats.push("avx");
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                feats.push("avx2");
            }
            if std::arch::is_x86_feature_detected!("fma") {
                feats.push("fma");
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                feats.push("avx512f");
            }
        }
        feats.join(",")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn force_scalar_downgrades_active_level() {
        // Whatever the host supports, forcing scalar must win; releasing
        // must restore the detected level.
        let _guard = FORCE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        force_scalar(true);
        assert_eq!(active(), SimdLevel::Scalar);
        assert!(!use_pclmul());
        force_scalar(false);
        assert_eq!(active(), detected());
        assert_eq!(use_pclmul(), has_pclmul());
    }

    #[test]
    fn detection_is_stable_and_consistent() {
        assert_eq!(detected(), detected());
        if detected() == SimdLevel::Avx2 {
            assert!(cpu_features().contains("avx2"));
        }
        assert_eq!(has_pclmul(), has_pclmul());
        let listed = cpu_features().split(',').any(|f| f == "pclmulqdq");
        assert_eq!(listed, has_pclmul());
        assert_eq!(SimdLevel::Scalar.name(), "scalar");
        assert_eq!(SimdLevel::Avx2.name(), "avx2");
    }
}
