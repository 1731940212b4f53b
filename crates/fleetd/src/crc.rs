//! CRC32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) of the store's
//! frames and manifest.
//!
//! Two kernels compute the same function:
//!
//! * **Slicing-by-16**, safe Rust on any CPU: sixteen compile-time
//!   256-entry tables fold 16 bytes per step. It is the portable kernel,
//!   the tail of the folding kernel, and the oracle both are tested
//!   against (with a bit-at-a-time reference).
//! * **Carry-less-multiply folding** on x86-64 CPUs with PCLMULQDQ and
//!   SSE4.1, chosen at run time by `is_x86_feature_detected!`: inputs of
//!   [`FOLD_MIN`] bytes or more are folded 64 bytes per step in four
//!   128-bit lanes, the lanes reduced to 128, 96 and 64 bits, and the
//!   result Barrett-reduced to 32 bits (Gopal et al., "Fast CRC
//!   Computation for Generic Polynomials Using PCLMULQDQ Instruction",
//!   Intel, 2009, with the constants zlib and Linux use). The last
//!   `len % 16` bytes go through slicing-by-16.
//!
//! The `clmul` module is the crate's only `unsafe` code.

/// Shortest input the folding kernel takes: its four 16-byte lanes.
const FOLD_MIN: usize = 64;

/// Slicing-by-16 lookup tables, built at compile time. Table 0 is the
/// classic byte-at-a-time table; table `k` advances a byte through `k`
/// further zero bytes, so 16 lookups fold 16 input bytes into the
/// register at once.
const TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) of `bytes`.
///
/// Every eviction and rehydration checksums a whole frame, so this sits
/// on the admission hot path. Matches the ubiquitous zlib/`cksum -o 3`
/// definition, so stored frames can be triaged with standard tooling.
pub fn crc32(bytes: &[u8]) -> u32 {
    !update(!0, bytes)
}

/// Folds `bytes` into the CRC32 register `crc` (pre-inversion state:
/// start from `!0`, finish with `!`), so one checksum can cover
/// non-contiguous slices without copying them together.
pub(crate) fn update(crc: u32, bytes: &[u8]) -> u32 {
    Kernel::detect().update(crc, bytes)
}

/// The slicing-by-16 kernel.
fn slicing_by_16(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let (blocks, tail) = bytes.as_chunks::<16>();
    for b in blocks {
        let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(lo & 0xFF) as usize]
            ^ t[14][((lo >> 8) & 0xFF) as usize]
            ^ t[13][((lo >> 16) & 0xFF) as usize]
            ^ t[12][(lo >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in tail {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// A CRC kernel this CPU can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// Slicing-by-16: portable, and the oracle.
    Slicing,
    /// Carry-less-multiply folding, then slicing-by-16 for the tail.
    #[cfg(target_arch = "x86_64")]
    Clmul(clmul::Clmul),
}

impl Kernel {
    /// The fastest kernel this CPU supports.
    fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if let Some(k) = clmul::Clmul::detect() {
            return Kernel::Clmul(k);
        }
        Kernel::Slicing
    }

    /// Every kernel this CPU supports.
    #[cfg(test)]
    fn supported() -> Vec<Kernel> {
        #[allow(unused_mut)]
        let mut kernels = vec![Kernel::Slicing];
        #[cfg(target_arch = "x86_64")]
        kernels.extend(clmul::Clmul::detect().map(Kernel::Clmul));
        kernels
    }

    fn update(self, crc: u32, bytes: &[u8]) -> u32 {
        match self {
            #[cfg(target_arch = "x86_64")]
            Kernel::Clmul(k) if bytes.len() >= FOLD_MIN => {
                let (blocks, tail) = bytes.as_chunks::<16>();
                slicing_by_16(k.fold(crc, blocks), tail)
            }
            _ => slicing_by_16(crc, bytes),
        }
    }
}

/// The PCLMULQDQ + SSE4.1 folding kernel.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi64x, _mm_setr_epi32, _mm_srli_si128, _mm_xor_si128,
    };

    // Folding constants for the reflected IEEE polynomial (Gopal et
    // al. 2009): k1/k2 fold a lane across 64 bytes, k3/k4 across 16,
    // k5 folds 96 bits to 64, and P′/μ′ are the Barrett pair.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// Proof that this CPU has PCLMULQDQ and SSE4.1: only
    /// [`Clmul::detect`] builds one.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) struct Clmul(());

    impl Clmul {
        /// `Some` iff this CPU has PCLMULQDQ and SSE4.1.
        pub(super) fn detect() -> Option<Clmul> {
            (std::arch::is_x86_feature_detected!("pclmulqdq")
                && std::arch::is_x86_feature_detected!("sse4.1"))
            .then_some(Clmul(()))
        }

        /// Folds `blocks` into the CRC register `crc`.
        ///
        /// # Panics
        ///
        /// Panics if there are fewer than four blocks.
        pub(super) fn fold(self, crc: u32, blocks: &[[u8; 16]]) -> u32 {
            // SAFETY: a `Clmul` is only built by `Clmul::detect`, after
            // `is_x86_feature_detected!` returned true for "pclmulqdq"
            // and "sse4.1".
            unsafe { fold(crc, blocks) }
        }
    }

    /// One unaligned 16-byte load.
    #[inline(always)]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes, exactly what the load
        // reads, and `loadu` has no alignment requirement (SSE2 is part
        // of the x86-64 baseline).
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `(x.lo · k.lo) ⊕ (x.hi · k.hi) ⊕ data`: moves the 128 bits of `x`
    /// forward over the distance `k` encodes and adds the data there.
    ///
    /// # Safety
    ///
    /// Callable only where PCLMULQDQ is known to be present.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold16(x: __m128i, k: __m128i, data: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(x, k, 0x00);
        let hi = _mm_clmulepi64_si128(x, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), data)
    }

    /// The folding kernel over `blocks.len() >= 4` blocks.
    ///
    /// # Safety
    ///
    /// The caller must have checked `is_x86_feature_detected!` for
    /// "pclmulqdq" and "sse4.1".
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(crc: u32, blocks: &[[u8; 16]]) -> u32 {
        let k1k2 = _mm_set_epi64x(K2, K1);
        let k3k4 = _mm_set_epi64x(K4, K3);
        let k5 = _mm_set_epi64x(0, K5);
        let barrett = _mm_set_epi64x(MU, P);
        let low32 = _mm_setr_epi32(!0, 0, !0, 0);

        // Four lanes, 64 bytes per step.
        let (quads, singles) = blocks.as_chunks::<4>();
        let (first, quads) = quads.split_first().expect("at least four blocks");
        let mut x = first.map(|block| load(&block));
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(crc as i32));
        for quad in quads {
            for (lane, block) in x.iter_mut().zip(quad) {
                *lane = fold16(*lane, k1k2, load(block));
            }
        }

        // Four lanes into one, then the remaining 16-byte blocks.
        let mut acc = fold16(x[0], k3k4, x[1]);
        acc = fold16(acc, k3k4, x[2]);
        acc = fold16(acc, k3k4, x[3]);
        for block in singles {
            acc = fold16(acc, k3k4, load(block));
        }

        // 128 → 96 bits: fold the low half onto the high half with k4.
        let folded = _mm_clmulepi64_si128(acc, k3k4, 0x10);
        acc = _mm_xor_si128(_mm_srli_si128(acc, 8), folded);
        // 96 → 64 bits with k5.
        let high = _mm_srli_si128(acc, 4);
        acc = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), k5, 0x00);
        acc = _mm_xor_si128(acc, high);

        // Barrett reduction to 32 bits.
        let mut t = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), barrett, 0x10);
        t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), barrett, 0x00);
        _mm_extract_epi32(_mm_xor_si128(acc, t), 1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-at-a-time CRC32 register update, straight from the
    /// polynomial: the reference every kernel must reproduce.
    fn bitwise_update(mut crc: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 == 1 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        crc
    }

    fn test_bytes(n: usize) -> Vec<u8> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect()
    }

    /// The dispatched kernel, then every kernel this CPU supports.
    fn kernels() -> Vec<Kernel> {
        std::iter::once(Kernel::detect())
            .chain(Kernel::supported())
            .collect()
    }

    #[test]
    fn known_answers() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn kernels_match_bitwise_reference_at_every_length_and_offset() {
        let bytes = test_bytes(1024 + 16);
        for offset in 0..16 {
            let mut want = !0u32;
            for len in 0..=1024 {
                if len > 0 {
                    want = bitwise_update(want, &bytes[offset + len - 1..offset + len]);
                }
                let input = &bytes[offset..offset + len];
                for k in kernels() {
                    assert_eq!(k.update(!0, input), want, "{k:?} offset {offset} len {len}");
                }
            }
        }
    }

    #[test]
    fn kernels_compose_at_every_split() {
        let bytes = test_bytes(1024);
        let whole = bitwise_update(!0, &bytes);
        for k in kernels() {
            for split in 0..=bytes.len() {
                let (a, b) = bytes.split_at(split);
                assert_eq!(k.update(k.update(!0, a), b), whole, "{k:?} split {split}");
            }
        }
        for split in 0..=bytes.len() {
            let (a, b) = bytes.split_at(split);
            assert_eq!(update(update(!0, a), b), whole, "split {split}");
        }
    }

    #[test]
    fn kernels_match_on_64_kib() {
        let bytes = test_bytes(64 * 1024);
        let want = !bitwise_update(!0, &bytes);
        assert_eq!(crc32(&bytes), want);
        for k in kernels() {
            assert_eq!(!k.update(!0, &bytes), want, "{k:?}");
        }
    }
}
