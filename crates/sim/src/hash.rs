//! FNV-1a 64: the one non-cryptographic content hash of the workspace.
//!
//! Results-cache file names, wire-frame digests and trace content hashes
//! are all this function over different bytes; every on-disk and on-wire
//! format depends on its exact values, which the reference vectors below
//! pin.

/// FNV-1a offset basis: the state to start a streamed hash from.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a running FNV-1a state. Hashing a concatenation
/// equals folding its pieces in order, starting from [`FNV_BASIS`].
pub fn fnv1a_fold(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a 64 of `bytes`.
///
/// # Examples
///
/// ```
/// assert_eq!(nocout_sim::hash::fnv1a(b"a"), 0xaf63dc4c8601ec8c);
/// ```
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_fold(FNV_BASIS, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn folding_pieces_equals_hashing_the_whole() {
        let whole = fnv1a(b"core-000.nctrace\x01\x02\x03");
        let folded = fnv1a_fold(fnv1a_fold(FNV_BASIS, b"core-000.nctrace"), b"\x01\x02\x03");
        assert_eq!(whole, folded);
    }
}
