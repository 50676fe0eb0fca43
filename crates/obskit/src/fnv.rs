//! FNV-1a, 64-bit: the workspace's one stable digest. Model artifacts,
//! fingerprints and ledger records store its values, so it must never
//! change.

/// A streaming FNV-1a-64 hasher; `default()` starts at the offset basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Hash `bytes`.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Hash `part`, then a `0xff` separator so that `("ab", "c")` and
    /// `("a", "bc")` differ.
    pub fn part(&mut self, part: &[u8]) -> &mut Self {
        self.bytes(part).bytes(&[0xff])
    }

    /// The digest of everything hashed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a over `parts`, each followed by the `0xff` separator.
pub fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut h = Fnv1a::default();
    for part in parts {
        h.part(part);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_fnv1a_64_vectors() {
        for (input, want) in [
            ("", 0xcbf2_9ce4_8422_2325),
            ("a", 0xaf63_dc4c_8601_ec8c),
            ("foobar", 0x8594_4171_f739_67e8),
        ] {
            let got = Fnv1a::default().bytes(input.as_bytes()).finish();
            assert_eq!(got, want, "{input:?}");
        }
    }

    #[test]
    fn parts_are_separated() {
        assert_ne!(fnv1a(&[b"ab", b"c"]), fnv1a(&[b"a", b"bc"]));
    }
}
