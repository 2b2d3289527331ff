//! The workspace's two non-cryptographic hashes, one copy each.
//!
//! - [`mix`], the SplitMix64 finalizer: sweep cell streams, fault
//!   decisions and the shard supervisor's chaos victims all derive from
//!   it, so its bits are pinned by every golden export.
//! - [`fnv1a`] (and the incremental [`fnv1a_extend`]): journal and cache
//!   record checksums, header fingerprints, the metrics sidecar trailer
//!   and the sweep input digests. It detects torn writes and accidental
//!   drift, which is all a local file needs; it is not collision-resistant.

/// SplitMix64 finalizer over `seed ⊕ γ·index` — the mixing family the
/// vendored `StdRng::seed_from_u64` uses, so nearby indices yield
/// statistically independent values.
#[inline]
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The 64-bit FNV-1a offset basis: the digest of no bytes.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues the 64-bit FNV-1a digest `hash` over `bytes`.
#[inline]
pub fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The 64-bit FNV-1a digest of `bytes`.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV1A_OFFSET, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), FNV1A_OFFSET);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a_extend(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }

    #[test]
    fn mix_is_the_splitmix64_finalizer() {
        // SplitMix64's first output for seed 0 is the finalizer of γ.
        assert_eq!(mix(0, 1), 0xE220_A839_7B1D_CDAF);
        assert_eq!(mix(0, 0), 0);
    }
}
