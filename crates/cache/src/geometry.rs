//! Cache size/associativity/line arithmetic.

use crate::addr::Address;
use serde::{Deserialize, Serialize};

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheGeometry {
    /// Total capacity in bytes (power of two).
    pub size_bytes: u64,
    /// Associativity (power of two).
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
}

impl CacheGeometry {
    /// Construct and validate a geometry.
    pub fn new(size_bytes: u64, ways: u32, line_bytes: u32) -> Self {
        let g = CacheGeometry {
            size_bytes,
            ways,
            line_bytes,
        };
        g.validate();
        g
    }

    /// The paper's real L2: 4 MiB, 16-way, 64-byte lines (Core 2 Duo).
    pub fn core2duo_l2() -> Self {
        CacheGeometry::new(4 << 20, 16, 64)
    }

    /// Scaled (1/16) L2 used for fast experiments: 256 KiB, 16-way, 64 B.
    pub fn scaled_l2() -> Self {
        CacheGeometry::new(256 << 10, 16, 64)
    }

    /// Scaled private L1: 8 KiB, 4-way, 64 B.
    pub fn scaled_l1() -> Self {
        CacheGeometry::new(8 << 10, 4, 64)
    }

    /// Panics when any field is not a power of two or sizes are
    /// inconsistent.
    pub fn validate(&self) {
        assert!(self.size_bytes.is_power_of_two(), "size must be 2^k");
        assert!(self.ways.is_power_of_two(), "ways must be 2^k");
        assert!(self.line_bytes.is_power_of_two(), "line size must be 2^k");
        assert!(
            self.size_bytes >= u64::from(self.ways) * u64::from(self.line_bytes),
            "cache smaller than one set"
        );
    }

    /// Number of lines the cache can hold.
    #[inline]
    pub fn lines(&self) -> u64 {
        self.size_bytes / u64::from(self.line_bytes)
    }

    /// Number of sets.
    #[inline]
    pub fn sets(&self) -> u32 {
        (self.lines() / u64::from(self.ways)) as u32
    }

    /// log2(line size).
    #[inline]
    pub fn line_shift(&self) -> u32 {
        self.line_bytes.trailing_zeros()
    }

    /// log2(sets).
    #[inline]
    pub fn set_bits(&self) -> u32 {
        self.sets().trailing_zeros()
    }

    /// Set index for an address.
    #[inline]
    pub fn set_of(&self, addr: Address) -> u32 {
        (addr.block(self.line_shift()) & u64::from(self.sets() - 1)) as u32
    }

    /// Tag for an address (block address above the set bits).
    #[inline]
    pub fn tag_of(&self, addr: Address) -> u64 {
        addr.block(self.line_shift()) >> self.set_bits()
    }

    /// Reconstruct a block address from a (tag, set) pair.
    #[inline]
    pub fn block_of(&self, tag: u64, set: u32) -> u64 {
        (tag << self.set_bits()) | u64::from(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn core2duo_dimensions() {
        let g = CacheGeometry::core2duo_l2();
        assert_eq!(g.lines(), 65536);
        assert_eq!(g.sets(), 4096);
        assert_eq!(g.line_shift(), 6);
        assert_eq!(g.set_bits(), 12);
    }

    #[test]
    fn scaled_is_sixteenth() {
        let g = CacheGeometry::scaled_l2();
        assert_eq!(g.size_bytes * 16, CacheGeometry::core2duo_l2().size_bytes);
        assert_eq!(g.sets(), 256);
        assert_eq!(g.ways, 16);
    }

    #[test]
    fn set_and_tag_partition_block() {
        let g = CacheGeometry::new(1 << 14, 4, 64); // 64 sets
        let a = Address(0xABCDE0);
        assert_eq!(
            g.block_of(g.tag_of(a), g.set_of(a)),
            a.block(g.line_shift())
        );
    }

    #[test]
    fn same_line_same_set() {
        let g = CacheGeometry::scaled_l2();
        assert_eq!(g.set_of(Address(0x1000)), g.set_of(Address(0x1004)));
    }

    #[test]
    #[should_panic(expected = "2^k")]
    fn rejects_non_power_of_two() {
        CacheGeometry::new(3000, 4, 64);
    }

    proptest! {
        #[test]
        fn prop_roundtrip_block(addr in any::<u64>()) {
            let g = CacheGeometry::scaled_l2();
            let a = Address(addr);
            prop_assert_eq!(
                g.block_of(g.tag_of(a), g.set_of(a)),
                a.block(g.line_shift())
            );
        }

        #[test]
        fn prop_set_in_range(addr in any::<u64>()) {
            let g = CacheGeometry::scaled_l1();
            prop_assert!(g.set_of(Address(addr)) < g.sets());
        }
    }
}
