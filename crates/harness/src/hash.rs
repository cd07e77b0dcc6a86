//! Content hashing for cache addressing.
//!
//! A 128-bit FNV-1a variant (two independent 64-bit streams) rendered
//! as 32 hex characters. Not cryptographic — the cache defends against
//! accidental collisions between configuration fingerprints, not
//! adversaries.

/// Incremental 128-bit hasher.
#[derive(Debug, Clone)]
pub struct Hasher {
    lo: u64,
    hi: u64,
}

impl Default for Hasher {
    fn default() -> Hasher {
        Hasher::new()
    }
}

impl Hasher {
    /// A fresh hasher with standard offsets.
    pub fn new() -> Hasher {
        Hasher {
            lo: 0xcbf2_9ce4_8422_2325,
            hi: 0x6c62_272e_07bb_0142,
        }
    }

    /// Absorbs bytes.
    pub(crate) fn update(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.lo ^= u64::from(b);
            self.lo = self.lo.wrapping_mul(0x0000_0100_0000_01B3);
            self.hi ^= u64::from(b).rotate_left(32);
            self.hi = self.hi.wrapping_mul(0x0000_0100_0000_01B3) ^ self.lo.rotate_left(7);
        }
        self
    }

    /// Absorbs a string with a length prefix, so field boundaries
    /// cannot alias (`"ab" + "c"` hashes differently from `"a" + "bc"`).
    pub fn field(&mut self, text: &str) -> &mut Self {
        self.update(&(text.len() as u64).to_le_bytes());
        self.update(text.as_bytes())
    }

    /// Absorbs an integer.
    pub fn number(&mut self, n: u64) -> &mut Self {
        self.update(&n.to_le_bytes())
    }

    /// The 32-hex-character digest.
    pub fn digest(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_are_stable_and_field_boundaries_matter() {
        let digest = |parts: &[&str]| {
            let mut h = Hasher::new();
            for p in parts {
                h.field(p);
            }
            h.digest()
        };
        assert_eq!(digest(&["fig4", "quick"]), digest(&["fig4", "quick"]));
        assert_ne!(digest(&["fig4", "quick"]), digest(&["fig4quick"]));
        assert_ne!(digest(&["ab", "c"]), digest(&["a", "bc"]));
        assert_eq!(digest(&["x"]).len(), 32);
    }
}
