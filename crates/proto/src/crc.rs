//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), hand-rolled so
//! the wire protocol stays std-only. Every frame is checksummed on both
//! ends of every hop, so this is a per-byte cost of everything the data
//! plane moves. One function, two ways to compute it:
//!
//! - **Folding** (x86-64 with carry-less multiply, detected at run time;
//!   inputs of [`FOLD_MIN`] bytes or more): four 128-bit lanes take in 64
//!   bytes per step with `PCLMULQDQ`, are folded into one, and a Barrett
//!   reduction turns that into the 32-bit remainder (Gopal et al., "Fast
//!   CRC Computation for Generic Polynomials Using PCLMULQDQ Instruction",
//!   Intel, 2009). The bytes after the last 16-byte block go through the
//!   tables.
//! - **Slicing-by-8**: table-driven, eight bytes per step — shorter
//!   inputs, the folding path's tail, and every other CPU.
//!
//! Both compute the same polynomial from the same register, so a value
//! never depends on which path computed it: frames, WAL segments and
//! golden fixtures checksum alike on every host.

/// Inputs shorter than this are not worth the folding set-up.
const FOLD_MIN: usize = 128;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, which lets eight input
/// bytes be folded in with eight independent lookups.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
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
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// CRC-32 of `data` (the common zlib/PNG/Ethernet checksum).
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= FOLD_MIN && fold::available() {
        // SAFETY: the CPU has the instructions `fold::update` is built for.
        return !unsafe { fold::update(!0, data) };
    }
    !sliced(!0, data)
}

/// The CRC register `c` after `data`, eight bytes per step.
fn sliced(mut c: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        c = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][chunk[4] as usize]
            ^ TABLES[2][chunk[5] as usize]
            ^ TABLES[1][chunk[6] as usize]
            ^ TABLES[0][chunk[7] as usize];
    }
    for &b in chunks.remainder() {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The folding path. Polynomials are bit-reflected, as the register is:
/// each constant is `x^k mod P(x)` for the distance `k` it folds across,
/// reflected and shifted left by one to line up with `PCLMULQDQ`'s
/// product.
#[cfg(target_arch = "x86_64")]
mod fold {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Across four lanes (512 bits): `x^(512+32)`, `x^(512-32)`.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// Across one lane (128 bits): `x^(128+32)`, `x^(128-32)`.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// 64 bits down to 32: `x^64`.
    const K5: i64 = 0x1_63cd_6124;
    /// Barrett reduction: `P(x)` itself and `floor(x^64 / P(x))`.
    const P: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("pclmulqdq")
    }

    /// The CRC register `c` after `data`, any length (under 64 bytes it
    /// is all tail).
    #[target_feature(enable = "pclmulqdq")]
    pub fn update(c: u32, data: &[u8]) -> u32 {
        if data.len() < 64 {
            return super::sliced(c, data);
        }
        let (first, rest) = data.split_at(64);
        let mut lanes = [0, 16, 32, 48].map(|at| load(&first[at..]));
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(c as i32));
        let across_four = _mm_set_epi64x(K2, K1);
        let mut steps = rest.chunks_exact(64);
        for step in &mut steps {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = fold(*lane, load(&step[16 * i..]), across_four);
            }
        }
        let across_one = _mm_set_epi64x(K4, K3);
        let [mut x, x1, x2, x3] = lanes;
        for lane in [x1, x2, x3] {
            x = fold(x, lane, across_one);
        }
        let mut blocks = steps.remainder().chunks_exact(16);
        for block in &mut blocks {
            x = fold(x, load(block), across_one);
        }

        // 128 bits to 64, then to the 32-bit remainder.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(x, across_one),
            _mm_srli_si128::<8>(x),
        );
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );
        let barrett = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), barrett);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), barrett);
        let c = _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(x, t2))) as u32;
        super::sliced(c, blocks.remainder())
    }

    /// `lane` carried 128 bits (or 512, by the constants) further on, plus
    /// the `next` block that sits there.
    #[target_feature(enable = "pclmulqdq")]
    fn fold(lane: __m128i, next: __m128i, k: __m128i) -> __m128i {
        _mm_xor_si128(
            _mm_xor_si128(next, _mm_clmulepi64_si128::<0x00>(lane, k)),
            _mm_clmulepi64_si128::<0x11>(lane, k),
        )
    }

    /// The first 16 bytes of `bytes`.
    #[target_feature(enable = "pclmulqdq")]
    fn load(bytes: &[u8]) -> __m128i {
        assert!(bytes.len() >= 16);
        // SAFETY: 16 readable bytes, checked above; unaligned loads are allowed.
        unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One byte into the register: the loop the tables were derived from.
    fn bytewise(c: u32, b: u8) -> u32 {
        TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8)
    }

    /// Known-answer tests against published CRC-32 vectors (the last two
    /// as zlib computes them), on whichever path [`crc32`] picks here.
    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(&[0u8; 4096]), 0xC71C_0011);
        assert_eq!(crc32(&[0xFFu8; 1000]), 0xE053_3230);
        assert_eq!(
            !b"123456789".iter().fold(!0, |c, &b| bytewise(c, b)),
            0xCBF4_3926
        );
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let a = crc32(b"stream item");
        let b = crc32(b"stream iteM");
        assert_ne!(a, b);
    }

    /// Each path against [`bytewise`] — both of them, not only the one
    /// [`crc32`] picks on this host — over pseudo-random contents, every
    /// length 0..=4096 and 16 start alignments. The reference runs once
    /// per alignment: its register after `len` bytes is the CRC of the
    /// first `len`.
    #[test]
    fn every_path_equals_bytewise_at_every_length_and_alignment() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let noise: Vec<u8> = (0..4096 + 16)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect();
        #[cfg(target_arch = "x86_64")]
        let fold = fold::available();
        for align in 0..16 {
            let data = &noise[align..align + 4096];
            let mut reference = !0u32;
            for len in 0..=4096 {
                let prefix = &data[..len];
                assert_eq!(
                    sliced(!0, prefix),
                    reference,
                    "table, align {align}, len {len}"
                );
                #[cfg(target_arch = "x86_64")]
                if fold {
                    // SAFETY: the CPU has the instructions, checked above.
                    let folded = unsafe { fold::update(!0, prefix) };
                    assert_eq!(folded, reference, "fold, align {align}, len {len}");
                }
                if let Some(&b) = data.get(len) {
                    reference = bytewise(reference, b);
                }
            }
        }
    }
}
