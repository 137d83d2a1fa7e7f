//! 64-bit FNV-1a digests of pass outputs.
//!
//! FNV-1a is fixed by its definition, so a digest committed today stays
//! valid on every Rust version; `std`'s `DefaultHasher` makes no such
//! promise.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a hasher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(OFFSET)
    }
}

impl Fnv64 {
    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Feeds an integer as its 8 little-endian bytes.
    pub fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    /// Feeds a length-prefixed string, so consecutive strings can't
    /// alias (`"ab" + "c"` ≠ `"a" + "bc"`).
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// The digest of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The FNV-1a digest of `bytes` — equal to the digest of a file holding
/// exactly these bytes, which is how the goldens are cross-checked
/// against the repository's own command-line output.
pub fn of_bytes(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::default();
    h.bytes(bytes);
    h.finish()
}

/// A digest as 16 lowercase hex digits.
pub fn hex(digest: u64) -> String {
    format!("{digest:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_fnv1a_vectors() {
        assert_eq!(of_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(of_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(of_bytes(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn strings_are_length_prefixed() {
        let mut a = Fnv64::default();
        a.str("ab");
        a.str("c");
        let mut b = Fnv64::default();
        b.str("a");
        b.str("bc");
        assert_ne!(a.finish(), b.finish());
    }
}
