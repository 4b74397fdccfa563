//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`): the one
//! checksum behind both container formats, P3DCKPT2 checkpoints and
//! P3DVID1 video.
//!
//! Three implementations, all bitwise identical on every input:
//!
//! * [`crc32`] and [`reference_update`] — byte-at-a-time over one
//!   256-entry table. The reference every other path is pinned to, and
//!   the deliberately simple baseline of the serial ingest reader.
//! * slicing-by-8 — eight derived tables fold eight bytes per step. It
//!   is [`Crc32Fast`]'s path for short inputs, for the tail a fold leaves
//!   behind, and on hosts without carry-less multiply.
//! * carry-less-multiply folding (x86-64 `pclmulqdq`) — the scheme of
//!   Gopal et al., *Fast CRC Computation for Generic Polynomials Using
//!   PCLMULQDQ* (Intel, 2009). Four 128-bit lanes fold 64 input bytes
//!   per step, then one lane folds 16-byte blocks, and a Barrett
//!   reduction turns the last 64 bits into the 32-bit state.
//!   [`Crc32Fast::update`] takes it for inputs of at least [`FOLD_MIN`]
//!   bytes whenever [`crate::simd::use_pclmul`] allows, so
//!   [`crate::simd::force_scalar`] pins it against slicing-by-8 on the
//!   same machine.
//!
//! Every path carries the same raw state: the register value before the
//! final inversion. That is why split updates compose, and why the fold
//! can hand its result and unread tail straight to slicing-by-8.

/// Shortest input [`Crc32Fast::update`] folds with carry-less multiply:
/// the one whole 64-byte block the four lanes start from. At this
/// length the fold already takes about half the slicing-by-8 time
/// (18 vs 34 ns on an AMD EPYC x86-64 host).
pub const FOLD_MIN: usize = 64;

/// Eight derived lookup tables; `TABLES[0]` is the classic
/// byte-at-a-time table, `TABLES[k]` advances a byte `k` extra
/// positions so eight bytes fold in one step.
const TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

/// Advances the raw CRC `state` over `bytes`, one table step per byte.
/// Start from `0xFFFF_FFFF` and invert the result to get the checksum;
/// chained calls equal one call over the concatenation.
pub fn reference_update(state: u32, bytes: &[u8]) -> u32 {
    let mut c = state;
    for &b in bytes {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 (IEEE) of `bytes`, byte-at-a-time — the reference
/// implementation.
pub fn crc32(bytes: &[u8]) -> u32 {
    reference_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// Slicing-by-8 over `bytes` from the raw `state`.
fn slice8_update(state: u32, bytes: &[u8]) -> u32 {
    let mut c = state;
    let mut chunks = bytes.chunks_exact(8);
    for w in &mut chunks {
        c ^= u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = TABLES[7][(c & 0xFF) as usize]
            ^ TABLES[6][((c >> 8) & 0xFF) as usize]
            ^ TABLES[5][((c >> 16) & 0xFF) as usize]
            ^ TABLES[4][(c >> 24) as usize]
            ^ TABLES[3][w[4] as usize]
            ^ TABLES[2][w[5] as usize]
            ^ TABLES[1][w[6] as usize]
            ^ TABLES[0][w[7] as usize];
    }
    reference_update(c, chunks.remainder())
}

/// Incremental CRC-32 (IEEE) state: carry-less-multiply folding on long
/// inputs where the CPU has it, slicing-by-8 otherwise.
///
/// Bitwise identical to [`crc32`] for every input and every way of
/// splitting it across [`update`](Self::update) calls, on either path
/// (pinned by the `crc_properties` suite).
#[derive(Clone, Copy, Debug)]
pub struct Crc32Fast(u32);

impl Default for Crc32Fast {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32Fast {
    /// Fresh CRC state.
    pub fn new() -> Self {
        Crc32Fast(0xFFFF_FFFF)
    }

    /// Folds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let (state, tail) = fold_prefix(self.0, bytes).unwrap_or((self.0, bytes));
        self.0 = slice8_update(state, tail);
    }

    /// Finalises and returns the checksum.
    pub fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

/// One-shot [`Crc32Fast`] over a byte slice.
pub fn crc32_fast(bytes: &[u8]) -> u32 {
    let mut c = Crc32Fast::new();
    c.update(bytes);
    c.finish()
}

/// Runs the carry-less-multiply fold over all of `bytes` but its last
/// `len % 16` when the input is long enough and the fold path is
/// active; returns the new raw state and the unread tail, or `None`
/// when the caller should take the table path for everything.
#[inline]
fn fold_prefix(state: u32, bytes: &[u8]) -> Option<(u32, &[u8])> {
    #[cfg(target_arch = "x86_64")]
    {
        if bytes.len() >= FOLD_MIN && crate::simd::use_pclmul() {
            return Some(clmul::fold(state, bytes));
        }
    }
    let _ = (state, bytes);
    None
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// x^(4*128+32) mod P and x^(4*128-32) mod P, bit-reflected: fold a
    /// lane forward over four lanes (64 bytes).
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// x^(128+32) mod P and x^(128-32) mod P: fold one lane forward by
    /// 16 bytes.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// x^64 mod P: the 96 -> 64 bit step of the final reduction.
    const K5: i64 = 0x1_63cd_6124;
    /// The polynomial P(x) and the Barrett constant floor(x^64 / P(x)),
    /// both bit-reflected with the implicit x^32 term.
    const P_X: i64 = 0x1_DB71_0641;
    const U_PRIME: i64 = 0x1_F701_1641;

    /// Safe entry of the folding kernel.
    ///
    /// The assert proves what the kernel's unaligned loads need: a first
    /// whole 64-byte block exists (every later load comes from
    /// `chunks_exact`, so it lies inside `bytes`), and the CPU has the
    /// instructions the kernel is compiled for.
    pub(super) fn fold(state: u32, bytes: &[u8]) -> (u32, &[u8]) {
        assert!(bytes.len() >= super::FOLD_MIN && crate::simd::has_pclmul());
        // SAFETY: has_pclmul() is true only when runtime detection found
        // both pclmulqdq and sse4.1, the kernel's target features, and
        // the length check above covers the first block's four loads.
        unsafe { fold_pclmul(state, bytes) }
    }

    /// Loads 16 bytes from the start of `block`.
    ///
    /// # Safety
    /// `block` must hold at least 16 bytes.
    #[inline(always)]
    unsafe fn load(block: &[u8]) -> __m128i {
        _mm_loadu_si128(block.as_ptr().cast())
    }

    /// `acc` carried 16*k bytes forward (k set by `keys`), XORed into
    /// `next`: the low half of `acc` times the low key plus its high
    /// half times the high key.
    ///
    /// # Safety
    /// The CPU must support `pclmulqdq`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    unsafe fn fold_lane(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// The folding kernel: raw `state` in, raw state of everything but
    /// the last `len % 16` bytes out, with those bytes as the tail.
    ///
    /// # Safety
    /// The CPU must support `pclmulqdq` and `sse4.1`, and `bytes` must
    /// hold at least 64 bytes.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    unsafe fn fold_pclmul(state: u32, bytes: &[u8]) -> (u32, &[u8]) {
        let (first, rest) = bytes.split_at(64);
        // SAFETY (all loads below): `first` is 64 bytes long and every
        // `block` from `chunks_exact` is exactly 64 or 16 bytes long.
        let mut x0 = _mm_xor_si128(load(first), _mm_cvtsi32_si128(state as i32));
        let mut x1 = load(&first[16..]);
        let mut x2 = load(&first[32..]);
        let mut x3 = load(&first[48..]);

        // Fold by four: each lane jumps 64 bytes ahead per block.
        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut blocks = rest.chunks_exact(64);
        for block in &mut blocks {
            x0 = fold_lane(x0, load(block), k1k2);
            x1 = fold_lane(x1, load(&block[16..]), k1k2);
            x2 = fold_lane(x2, load(&block[32..]), k1k2);
            x3 = fold_lane(x3, load(&block[48..]), k1k2);
        }

        // Fold the four lanes into one, then by one over 16-byte blocks.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_lane(x0, x1, k3k4);
        x = fold_lane(x, x2, k3k4);
        x = fold_lane(x, x3, k3k4);
        let mut lanes = blocks.remainder().chunks_exact(16);
        for block in &mut lanes {
            x = fold_lane(x, load(block), k3k4);
        }

        // 128 -> 96 bits: the low half times K4, plus the high half.
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        // 96 -> 64 bits: the low 32 bits times K5, plus the rest.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett reduction, reflected: T1 = (R mod x^32) * U',
        // T2 = (T1 mod x^32) * P, and the state is bits 32..64 of R ^ T2.
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let c = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        (c, lanes.remainder())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd;

    #[test]
    fn known_vector() {
        // IEEE CRC-32 of "123456789" is 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_fast(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn fold_path_is_selected_where_the_cpu_has_it() {
        let _guard = simd::FORCE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let data = vec![0xA5u8; 5 * FOLD_MIN + 40];
        let listed = simd::cpu_features().split(',').any(|f| f == "pclmulqdq");
        assert_eq!(simd::use_pclmul(), listed);
        let folded = fold_prefix(0xFFFF_FFFF, &data);
        assert_eq!(folded.is_some(), listed);
        if let Some((state, tail)) = folded {
            assert_eq!(
                tail.len(),
                data.len() % 16,
                "the fold reads every whole lane"
            );
            assert_eq!(slice8_update(state, tail) ^ 0xFFFF_FFFF, crc32(&data));
        }
        assert!(fold_prefix(0xFFFF_FFFF, &data[..FOLD_MIN - 1]).is_none());
        simd::force_scalar(true);
        assert!(fold_prefix(0xFFFF_FFFF, &data).is_none());
        simd::force_scalar(false);
    }
}
