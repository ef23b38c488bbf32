//! A small stable digest (FNV-1a, 64-bit) over the simulated outputs of
//! a run, so that "every rep and the traced run produced the same
//! simulation" is one integer comparison.

/// Incremental FNV-1a over little-endian words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// A fresh digest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold raw bytes in.
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold one integer in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_across_builds_and_order_sensitive() {
        // Pinned values: the digest must not change between runs,
        // processes or toolchains, or recorded results stop comparing.
        assert_eq!(Digest::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut d = Digest::new();
        d.bytes(b"a");
        assert_eq!(d.finish(), 0xaf63_dc4c_8601_ec8c);

        let mut ab = Digest::new();
        ab.u64(1);
        ab.u64(2);
        let mut ba = Digest::new();
        ba.u64(2);
        ba.u64(1);
        assert_ne!(ab.finish(), ba.finish());

        let mut again = Digest::new();
        again.u64(1);
        again.u64(2);
        assert_eq!(ab.finish(), again.finish());
    }
}
