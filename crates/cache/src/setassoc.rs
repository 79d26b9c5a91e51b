//! A set-associative cache with per-core statistics and event hooks.

use crate::addr::Address;
use crate::geometry::CacheGeometry;
use crate::replacement::{ReplacementPolicy, XorShift64};
use crate::set::{LineStore, SetAccess};
use crate::stats::CacheStats;
use symbio_cbf::LineLocation;

/// A line displaced by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// Block address of the victim.
    pub block: u64,
    /// Slot it occupied.
    pub loc: LineLocation,
    /// Core that filled it.
    pub owner: u8,
    /// Dirty (requires writeback bandwidth).
    pub dirty: bool,
}

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// Slot the line now occupies.
    pub loc: LineLocation,
    /// Victim displaced by the fill, when the access missed a full set.
    pub evicted: Option<EvictedLine>,
}

/// A set-associative, write-allocate, write-back cache.
///
/// Tracks, per requesting core: accesses/hits/misses, evictions caused, and
/// — crucially for the interference analysis — evictions *suffered* (lines
/// this core filled that another core's miss displaced).
///
/// All lines live in one flat [`LineStore`] (tags / packed metadata /
/// stamps indexed by `set * ways + way`) with running occupancy counters,
/// so footprint queries are O(1) instead of a scan over every set.
///
/// Aligned to 128 bytes (two 64-byte lines: the adjacent-line prefetcher
/// pulls them in pairs): every access writes `tick`, the replacement
/// stream and the line store's counters, and the memory system keeps its
/// caches per domain, so the alignment is what keeps one domain's cache
/// headers off the lines of another's when different threads step them
/// (DESIGN §12, "What a lane may share").
#[derive(Debug, Clone)]
#[repr(align(128))]
pub struct SetAssocCache {
    geo: CacheGeometry,
    policy: ReplacementPolicy,
    lines: LineStore,
    stats: Vec<CacheStats>,
    rng: XorShift64,
    tick: u64,
    // Derived geometry, precomputed once: `CacheGeometry::sets()` divides
    // by runtime fields, and the access path would otherwise pay four u64
    // divisions per lookup (set index + tag each recompute the set count).
    line_shift: u32,
    set_bits: u32,
    set_mask: u64,
}

impl SetAssocCache {
    /// Build an empty cache serving `cores` requestors.
    pub fn new(geo: CacheGeometry, policy: ReplacementPolicy, cores: usize, seed: u64) -> Self {
        geo.validate();
        assert!((1..=LineStore::MAX_CORES).contains(&cores));
        SetAssocCache {
            lines: LineStore::new(geo.sets(), geo.ways, cores),
            stats: vec![CacheStats::default(); cores],
            policy,
            rng: XorShift64::new(seed),
            tick: 0,
            line_shift: geo.line_shift(),
            set_bits: geo.set_bits(),
            set_mask: u64::from(geo.sets() - 1),
            geo,
        }
    }

    /// Geometry of this cache.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geo
    }

    /// Access `addr` on behalf of `core`. Fills on miss; returns the victim
    /// (if any) so the caller can emit signature events and charge
    /// writeback bandwidth.
    #[inline]
    pub fn access(&mut self, core: usize, addr: Address, write: bool) -> AccessOutcome {
        self.tick += 1;
        let block = addr.block(self.line_shift);
        let set_idx = (block & self.set_mask) as u32;
        let tag = block >> self.set_bits;
        self.stats[core].accesses += 1;

        match self.lines.access(
            set_idx,
            tag,
            core as u8,
            write,
            self.tick,
            self.policy,
            &mut self.rng,
        ) {
            SetAccess::Hit { way } => {
                self.stats[core].hits += 1;
                AccessOutcome {
                    hit: true,
                    loc: LineLocation { set: set_idx, way },
                    evicted: None,
                }
            }
            SetAccess::Miss { way, evicted } => {
                self.stats[core].misses += 1;
                let evicted = evicted.map(|e| {
                    let st = &mut self.stats[core];
                    st.evictions_caused += 1;
                    st.writebacks += u64::from(e.dirty);
                    // Branchless: an owner evicting its own line adds 0.
                    // (Owners come from fills, so the index is in range.)
                    let owner = e.owner as usize;
                    debug_assert!(owner < self.stats.len());
                    self.stats[owner].evictions_suffered += u64::from(owner != core);
                    EvictedLine {
                        block: (e.tag << self.set_bits) | u64::from(set_idx),
                        loc: LineLocation {
                            set: set_idx,
                            way: e.way,
                        },
                        owner: e.owner,
                        dirty: e.dirty,
                    }
                });
                AccessOutcome {
                    hit: false,
                    loc: LineLocation { set: set_idx, way },
                    evicted,
                }
            }
        }
    }

    /// Probe without disturbing replacement state or stats.
    pub fn contains(&self, addr: Address) -> bool {
        let block = addr.block(self.line_shift);
        self.lines
            .probe((block & self.set_mask) as u32, block >> self.set_bits)
            .is_some()
    }

    /// Ground-truth footprint: valid lines currently resident. O(1).
    pub fn resident_lines(&self) -> u64 {
        self.lines.occupancy()
    }

    /// Ground-truth per-core footprint: valid lines last filled by `core`.
    /// O(1).
    pub fn resident_lines_of(&self, core: usize) -> u64 {
        self.lines.occupancy_of(core as u8)
    }

    /// Stats for one requesting core.
    pub fn stats(&self, core: usize) -> &CacheStats {
        &self.stats[core]
    }

    /// Aggregate stats across cores.
    pub fn total_stats(&self) -> CacheStats {
        let mut t = CacheStats::default();
        for s in &self.stats {
            t.merge(s);
        }
        t
    }

    /// Invalidate everything (counters retained).
    pub fn flush(&mut self) {
        self.lines.flush();
    }

    /// Zero the statistics (contents retained).
    pub fn reset_stats(&mut self) {
        self.stats.fill(CacheStats::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache {
        // 4 KiB, 4-way, 64 B lines => 16 sets.
        SetAssocCache::new(
            CacheGeometry::new(4096, 4, 64),
            ReplacementPolicy::Lru,
            2,
            1,
        )
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        assert!(!c.access(0, Address(0x40), false).hit);
        assert!(c.access(0, Address(0x40), false).hit);
        assert!(c.access(0, Address(0x44), false).hit, "same line");
        let s = c.stats(0);
        assert_eq!(s.accesses, 3);
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 2);
    }

    #[test]
    fn footprint_ground_truth() {
        let mut c = small();
        for i in 0..10u64 {
            c.access(0, Address(i * 64), false);
        }
        assert_eq!(c.resident_lines(), 10);
        assert_eq!(c.resident_lines_of(0), 10);
        assert_eq!(c.resident_lines_of(1), 0);
    }

    #[test]
    fn cross_core_eviction_recorded() {
        // 1 set version: 256B, 4-way, 64B => 1 set.
        let mut c =
            SetAssocCache::new(CacheGeometry::new(256, 4, 64), ReplacementPolicy::Lru, 2, 1);
        for i in 0..4u64 {
            c.access(0, Address(i * 64), false);
        }
        // Core 1 misses into the full set, evicting core 0's LRU line.
        let out = c.access(1, Address(4 * 64), false);
        let ev = out.evicted.expect("eviction");
        assert_eq!(ev.owner, 0);
        assert_eq!(c.stats(1).evictions_caused, 1);
        assert_eq!(c.stats(0).evictions_suffered, 1);
        assert_eq!(c.resident_lines_of(0), 3);
        assert_eq!(c.resident_lines_of(1), 1);
    }

    #[test]
    fn evicted_block_address_reconstructed() {
        let mut c =
            SetAssocCache::new(CacheGeometry::new(256, 4, 64), ReplacementPolicy::Lru, 1, 1);
        let addrs: Vec<Address> = (0..5).map(|i| Address(i * 64)).collect();
        for &a in &addrs {
            c.access(0, a, false);
        }
        // The 5th access evicted the 1st line; its block must round-trip.
        let out = c.access(0, Address(5 * 64), false);
        let ev = out.evicted.unwrap();
        assert_eq!(ev.block, Address(64).block(6));
    }

    #[test]
    fn writeback_counted_for_dirty_victims() {
        let mut c =
            SetAssocCache::new(CacheGeometry::new(128, 2, 64), ReplacementPolicy::Lru, 1, 1);
        c.access(0, Address(0), true); // dirty
        c.access(0, Address(64), false);
        let out = c.access(0, Address(128), false); // evicts dirty line 0
        assert!(out.evicted.unwrap().dirty);
        assert_eq!(c.stats(0).writebacks, 1);
    }

    #[test]
    fn contains_is_side_effect_free() {
        let mut c = small();
        c.access(0, Address(0x80), false);
        let before = *c.stats(0);
        assert!(c.contains(Address(0x80)));
        assert!(!c.contains(Address(0xFFFF0)));
        assert_eq!(*c.stats(0), before);
    }

    #[test]
    fn flush_clears_contents_not_stats() {
        let mut c = small();
        c.access(0, Address(0), false);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.stats(0).accesses, 1);
        c.reset_stats();
        assert_eq!(c.stats(0).accesses, 0);
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = small(); // 64 lines
                             // Cyclic sweep over 128 lines with LRU => ~100% miss after warmup.
        let mut misses = 0u64;
        for round in 0..4 {
            for i in 0..128u64 {
                let out = c.access(0, Address(i * 64), false);
                if round > 0 && !out.hit {
                    misses += 1;
                }
            }
        }
        assert_eq!(misses, 3 * 128, "LRU cyclic thrash misses everything");
    }

    #[test]
    fn working_set_within_cache_all_hits_after_warmup() {
        let mut c = small(); // 64 lines
        for _ in 0..3 {
            for i in 0..32u64 {
                c.access(0, Address(i * 64), false);
            }
        }
        let s = c.stats(0);
        assert_eq!(s.misses, 32, "only compulsory misses");
    }
}
