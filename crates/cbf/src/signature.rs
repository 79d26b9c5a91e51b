//! The split-CBF signature unit (Section 3.1, Figure 6).

use crate::config::SignatureConfig;
use crate::hash::hash_address;
#[cfg(test)]
use crate::hash::HashKind;
use serde::{Deserialize, Serialize};
use symbio_bits::{BitVec, CounterArray, CounterEvent};

/// Physical location of a line inside the monitored cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LineLocation {
    /// Set index.
    pub set: u32,
    /// Way within the set.
    pub way: u32,
}

/// Receiver of L2 fill/evict events.
///
/// The shared cache calls this for every miss fill and every replacement;
/// [`SignatureUnit`] is the real hardware model and [`NullSink`] is the
/// "signature hardware absent" configuration used for phase-2 measurement
/// runs.
pub trait CacheEventSink {
    /// A miss from `core` filled `block_addr` into `loc`.
    fn on_fill(&mut self, core: usize, block_addr: u64, loc: LineLocation);
    /// The line holding `block_addr` at `loc` was evicted.
    fn on_evict(&mut self, block_addr: u64, loc: LineLocation);
}

/// A sink that ignores all events (no signature hardware).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl CacheEventSink for NullSink {
    #[inline]
    fn on_fill(&mut self, _core: usize, _block_addr: u64, _loc: LineLocation) {}
    #[inline]
    fn on_evict(&mut self, _block_addr: u64, _loc: LineLocation) {}
}

/// The scheduler-visible record produced when a process is switched out of a
/// core: the paper's `(2 + N)`-entry per-process structure (last core,
/// occupancy weight, and symbiosis with each of the N cores).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SignatureSample {
    /// Core the process was just switched out of.
    pub core: usize,
    /// `popcount(RBV)` — the cache footprint weight.
    pub occupancy: u32,
    /// `popcount(RBV ^ CF_j)` for each core `j`; high = low interference.
    pub symbiosis: Vec<u32>,
    /// Contested capacity per core: `popcount(RBV & CF_j)` for other
    /// cores — filter indexes this tenancy newly claimed that core *j*'s
    /// processes also hold — and `popcount(LF_own & !CF_own)` for the own
    /// core — indexes resident at switch-in (the core-mates' footprint)
    /// that were destroyed during this tenancy. Same AND/popcount
    /// hardware as the XOR path. High = many cache lines fought over.
    ///
    /// This is this reproduction's *overlap* interference metric; DESIGN.md
    /// documents why the paper's reciprocal-symbiosis metric is degenerate
    /// on two cores and how this variant preserves the paper's intent.
    pub overlap: Vec<u32>,
    /// Filter width, so consumers can normalise occupancy/symbiosis.
    pub filter_len: usize,
}

impl SignatureSample {
    /// The paper's *interference metric*: the reciprocal of symbiosis with
    /// core `j` (Section 3.3.2). A zero symbiosis is mapped to the inverse
    /// of one-half so it stays finite yet dominates any real value. The
    /// scalar kernel lives in [`symbio_eval::reciprocal_interference`] —
    /// for integer counts `s < 0.5` holds exactly when `s == 0`, so this
    /// is the same clamp the smoothed `ThreadView` metric uses.
    pub fn interference_with(&self, j: usize) -> f64 {
        symbio_eval::reciprocal_interference(f64::from(self.symbiosis[j]))
    }
}

/// The signature unit attached to a shared cache.
///
/// Owns the shared counter array and the per-core CF/LF bitvectors, and
/// implements the three hardware behaviours of Section 3.1:
///
/// 1. **fill**: increment `counter[h(addr)]`, set `CF[core][h(addr)]`;
/// 2. **evict**: decrement `counter[h(addr)]`; when it reaches zero, clear
///    that index in every CF;
/// 3. **context switch out of core c**: compute `RBV = CF_c & !LF_c`,
///    derive occupancy and per-core symbiosis, then snapshot `LF_c ← CF_c`.
#[derive(Debug, Clone)]
pub struct SignatureUnit {
    cfg: SignatureConfig,
    /// Cached `cfg.index_bits()` — recomputing it (entries + power-of-two
    /// assert + trailing_zeros) sits on the per-fill hot path otherwise.
    index_bits: u32,
    counters: CounterArray,
    cf: Vec<BitVec>,
    lf: Vec<BitVec>,
    /// Reused RBV buffer so context-switch sampling allocates nothing.
    rbv_scratch: BitVec,
    fills: u64,
    evictions: u64,
    snapshots: u64,
}

impl SignatureUnit {
    /// Build a unit for the given configuration.
    pub fn new(cfg: SignatureConfig) -> Self {
        cfg.validate();
        let entries = cfg.entries();
        SignatureUnit {
            index_bits: cfg.index_bits(),
            counters: CounterArray::new(entries, cfg.counter_bits),
            cf: (0..cfg.cores).map(|_| BitVec::new(entries)).collect(),
            lf: (0..cfg.cores).map(|_| BitVec::new(entries)).collect(),
            rbv_scratch: BitVec::new(entries),
            cfg,
            fills: 0,
            evictions: 0,
            snapshots: 0,
        }
    }

    /// The configuration this unit was built with.
    pub fn config(&self) -> &SignatureConfig {
        &self.cfg
    }

    /// Filter index for an event, or `None` when the set is not sampled.
    ///
    /// For address hashes the *block address* is hashed; for presence bits
    /// the index is the compacted physical slot `(set' * ways) + way`.
    #[inline]
    fn index_for(&self, block_addr: u64, loc: LineLocation) -> Option<usize> {
        if !self.cfg.sampling.samples(loc.set) {
            return None;
        }
        let idx = if self.cfg.hash.is_presence() {
            u64::from(self.cfg.sampling.compact(loc.set) * self.cfg.ways + loc.way)
        } else {
            hash_address(self.cfg.hash, block_addr, self.index_bits)
        };
        Some(idx as usize)
    }

    /// Read access to a Core Filter (e.g. for occupancy plots).
    pub fn core_filter(&self, core: usize) -> &BitVec {
        &self.cf[core]
    }

    /// Read access to a Last Filter.
    pub fn last_filter(&self, core: usize) -> &BitVec {
        &self.lf[core]
    }

    /// The occupancy weight of the *whole cache* footprint: non-zero
    /// counters (used by the Figure 5 style tracking experiment).
    pub fn global_occupancy(&self) -> usize {
        self.counters.count_nonzero()
    }

    /// Occupancy weight of a core's current filter (number of ones in CF).
    pub fn core_occupancy(&self, core: usize) -> u32 {
        self.cf[core].count_ones()
    }

    /// Compute the Running Bit Vector for `core` *without* snapshotting.
    pub fn running_bit_vector(&self, core: usize) -> BitVec {
        self.cf[core].and_not(&self.lf[core])
    }

    /// Counter-array saturation events so far (should be ~0 when the
    /// counter width is adequate; see Section 5.4).
    pub fn saturation_events(&self) -> u64 {
        self.counters.saturation_events()
    }

    /// Total fills observed (sampled sets only).
    pub fn fills(&self) -> u64 {
        self.fills
    }

    /// Total evictions observed (sampled sets only).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Total context-switch snapshots taken.
    pub fn snapshots(&self) -> u64 {
        self.snapshots
    }

    /// Hardware context-switch operation: sample the RBV-derived metrics
    /// for the process leaving `core`, then snapshot `LF ← CF`.
    pub fn switch_out(&mut self, core: usize) -> SignatureSample {
        let mut sample = SignatureSample::default();
        self.switch_out_into(core, &mut sample);
        sample
    }

    /// [`SignatureUnit::switch_out`] writing into a caller-owned sample —
    /// the hot-path variant: with a warm `out` (and the unit's internal RBV
    /// scratch) a context switch performs zero heap allocations.
    pub fn switch_out_into(&mut self, core: usize, out: &mut SignatureSample) {
        self.sample_into(core, out);
        let (cf, lf) = (&self.cf[core], &mut self.lf[core]);
        lf.copy_from(cf);
        self.snapshots += 1;
    }

    /// Compute the metrics the hardware *would* report for `core` now,
    /// without mutating any filter state.
    pub fn peek_sample(&self, core: usize) -> SignatureSample {
        let rbv = self.running_bit_vector(core);
        let occupancy = rbv.count_ones();
        let symbiosis = self.cf.iter().map(|cf_j| rbv.xor_popcount(cf_j)).collect();
        let overlap = (0..self.cfg.cores)
            .map(|j| {
                if j == core {
                    self.lf[j].and_not_popcount(&self.cf[j])
                } else {
                    rbv.and_popcount(&self.cf[j])
                }
            })
            .collect();
        SignatureSample {
            core,
            occupancy,
            symbiosis,
            overlap,
            filter_len: rbv.len(),
        }
    }

    /// [`SignatureUnit::peek_sample`] into a caller-owned sample, reusing
    /// the unit's RBV scratch buffer (filter state is not changed; only the
    /// scratch is overwritten).
    pub fn sample_into(&mut self, core: usize, out: &mut SignatureSample) {
        let rbv = &mut self.rbv_scratch;
        self.cf[core].and_not_into(&self.lf[core], rbv);
        out.core = core;
        out.occupancy = rbv.count_ones();
        out.filter_len = rbv.len();
        out.symbiosis.clear();
        out.symbiosis
            .extend(self.cf.iter().map(|cf_j| rbv.xor_popcount(cf_j)));
        out.overlap.clear();
        out.overlap.extend((0..self.cfg.cores).map(|j| {
            if j == core {
                self.lf[j].and_not_popcount(&self.cf[j])
            } else {
                rbv.and_popcount(&self.cf[j])
            }
        }));
    }

    /// Clear all filters and counters (e.g. between experiment phases).
    pub fn reset(&mut self) {
        self.counters.clear();
        for v in &mut self.cf {
            v.clear_all();
        }
        for v in &mut self.lf {
            v.clear_all();
        }
        self.fills = 0;
        self.evictions = 0;
        self.snapshots = 0;
    }
}

impl CacheEventSink for SignatureUnit {
    #[inline]
    fn on_fill(&mut self, core: usize, block_addr: u64, loc: LineLocation) {
        let Some(idx) = self.index_for(block_addr, loc) else {
            return;
        };
        self.fills += 1;
        self.counters.increment(idx);
        self.cf[core].set(idx);
    }

    #[inline]
    fn on_evict(&mut self, block_addr: u64, loc: LineLocation) {
        let Some(idx) = self.index_for(block_addr, loc) else {
            return;
        };
        self.evictions += 1;
        if self.counters.decrement(idx) == CounterEvent::BecameZero {
            // No live line hashes here any more: clear the bit in ALL core
            // filters (Section 3.1).
            for cf in &mut self.cf {
                cf.clear(idx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Sampling;

    fn tiny_cfg(hash: HashKind) -> SignatureConfig {
        SignatureConfig {
            cores: 2,
            sets: 16,
            ways: 4,
            line_shift: 6,
            counter_bits: 4,
            hash,
            sampling: Sampling::FULL,
        }
    }

    fn loc(set: u32, way: u32) -> LineLocation {
        LineLocation { set, way }
    }

    #[test]
    fn fill_sets_cf_bit_for_origin_core_only() {
        let mut u = SignatureUnit::new(tiny_cfg(HashKind::Modulo));
        u.on_fill(0, 0x05, loc(5, 0));
        assert_eq!(u.core_occupancy(0), 1);
        assert_eq!(u.core_occupancy(1), 0);
    }

    #[test]
    fn evict_clears_all_cfs_when_counter_zeroes() {
        let mut u = SignatureUnit::new(tiny_cfg(HashKind::Modulo));
        // Both cores fill lines hashing to the same index (modulo 64).
        u.on_fill(0, 0x05, loc(5, 0));
        u.on_fill(1, 0x05 + 64, loc(5, 1)); // 0x45 % 64 == 5
        assert_eq!(u.core_occupancy(0), 1);
        assert_eq!(u.core_occupancy(1), 1);
        // First eviction: counter 2 -> 1, bits stay (the paper's documented
        // inaccuracy).
        u.on_evict(0x05, loc(5, 0));
        assert_eq!(u.core_occupancy(0), 1);
        // Second eviction: counter 1 -> 0, ALL CFs cleared at that index.
        u.on_evict(0x05 + 64, loc(5, 1));
        assert_eq!(u.core_occupancy(0), 0);
        assert_eq!(u.core_occupancy(1), 0);
    }

    #[test]
    fn rbv_captures_only_new_bits() {
        let mut u = SignatureUnit::new(tiny_cfg(HashKind::Modulo));
        u.on_fill(0, 1, loc(1, 0));
        let s1 = u.switch_out(0); // snapshot: LF now has bit 1
        assert_eq!(s1.occupancy, 1);
        u.on_fill(0, 2, loc(2, 0));
        let s2 = u.switch_out(0);
        // Only the new bit counts toward the next tenancy's RBV.
        assert_eq!(s2.occupancy, 1);
        let rbv = u.running_bit_vector(0);
        assert_eq!(rbv.count_ones(), 0, "post-snapshot RBV empty");
    }

    #[test]
    fn figure6_worked_example() {
        // Reconstruct the spirit of Figure 6(b): an app whose RBV differs a
        // lot from CF0 (high symbiosis = low interference) and little from
        // CF1's contents.
        let mut u = SignatureUnit::new(tiny_cfg(HashKind::Modulo));
        // Core 1 (the app being switched out) touched indexes 8..12.
        for i in 8u64..12 {
            u.on_fill(1, i, loc(i as u32, 0));
        }
        // Core 0 touched a disjoint index set 0..3.
        for i in 0u64..3 {
            u.on_fill(0, i, loc(i as u32, 1));
        }
        let s = u.switch_out(1);
        assert_eq!(s.occupancy, 4);
        // symbiosis with core 0 = |RBV ^ CF0| = 4 + 3 (disjoint sets).
        assert_eq!(s.symbiosis[0], 7);
        // overlap with core 0 = |RBV & CF0| = 0 (disjoint footprints).
        assert_eq!(s.overlap[0], 0);
        // own-core overlap uses the LF snapshot (empty before first
        // switch): nothing was resident before this tenancy.
        assert_eq!(s.overlap[1], 0);
        // symbiosis with own core = |RBV ^ CF1| = 0 (identical).
        assert_eq!(s.symbiosis[1], 0);
        // Disjoint footprints => higher symbiosis => lower interference.
        assert!(s.interference_with(0) < s.interference_with(1));
    }

    #[test]
    fn sample_roundtrips_through_json() {
        let mut u = SignatureUnit::new(tiny_cfg(HashKind::Modulo));
        for i in 0u64..6 {
            u.on_fill((i % 2) as usize, i, loc(i as u32, 0));
        }
        let s = u.switch_out(1);
        let text = serde_json::to_string(&s).unwrap();
        let back: SignatureSample = serde_json::from_str(&text).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn interference_metric_reciprocal() {
        let s = SignatureSample {
            core: 0,
            occupancy: 4,
            symbiosis: vec![4, 0],
            overlap: vec![0, 4],
            filter_len: 64,
        };
        assert!((s.interference_with(0) - 0.25).abs() < 1e-12);
        assert_eq!(s.interference_with(1), 2.0); // zero symbiosis clamps
    }

    #[test]
    fn sampling_ignores_unsampled_sets() {
        let mut cfg = tiny_cfg(HashKind::Modulo);
        cfg.sampling = Sampling::QUARTER;
        let mut u = SignatureUnit::new(cfg);
        u.on_fill(0, 0x123, loc(1, 0)); // set 1 unsampled (1 % 4 != 0)
        assert_eq!(u.fills(), 0);
        assert_eq!(u.core_occupancy(0), 0);
        u.on_fill(0, 0x123, loc(4, 0)); // set 4 sampled
        assert_eq!(u.fills(), 1);
        assert_eq!(u.core_occupancy(0), 1);
    }

    #[test]
    fn presence_bits_index_by_slot() {
        let mut u = SignatureUnit::new(tiny_cfg(HashKind::PresenceBits));
        // Two different addresses filling the same slot toggle ONE bit.
        u.on_fill(0, 0xAAAA, loc(3, 2));
        u.on_fill(0, 0xBBBB, loc(3, 2));
        assert_eq!(u.core_occupancy(0), 1);
        // Different slot, different bit.
        u.on_fill(0, 0xCCCC, loc(3, 3));
        assert_eq!(u.core_occupancy(0), 2);
        // Index layout: set*ways + way.
        assert!(u.core_filter(0).get((3 * 4 + 2) as usize));
        assert!(u.core_filter(0).get((3 * 4 + 3) as usize));
    }

    #[test]
    fn global_occupancy_counts_nonzero_counters() {
        let mut u = SignatureUnit::new(tiny_cfg(HashKind::Modulo));
        u.on_fill(0, 1, loc(1, 0));
        u.on_fill(1, 2, loc(2, 0));
        assert_eq!(u.global_occupancy(), 2);
        u.on_evict(1, loc(1, 0));
        assert_eq!(u.global_occupancy(), 1);
    }

    #[test]
    fn reset_clears_state() {
        let mut u = SignatureUnit::new(tiny_cfg(HashKind::Xor));
        u.on_fill(0, 99, loc(0, 0));
        u.switch_out(0);
        u.reset();
        assert_eq!(u.fills(), 0);
        assert_eq!(u.snapshots(), 0);
        assert_eq!(u.global_occupancy(), 0);
        assert_eq!(u.core_occupancy(0), 0);
    }

    #[test]
    fn sample_into_matches_allocating_path() {
        let mut u = SignatureUnit::new(tiny_cfg(HashKind::Modulo));
        for i in 0u64..6 {
            u.on_fill((i % 2) as usize, i, loc(i as u32, 0));
        }
        // A stale, previously-used sample must be fully overwritten.
        let mut out = SignatureSample {
            core: 9,
            occupancy: 99,
            symbiosis: vec![1, 2, 3, 4],
            overlap: vec![5],
            filter_len: 1,
        };
        let peeked = u.peek_sample(1);
        u.sample_into(1, &mut out);
        assert_eq!(out, peeked);
        let mut switched = SignatureSample::default();
        u.switch_out_into(1, &mut switched);
        assert_eq!(switched, peeked);
        assert_eq!(u.snapshots(), 1);
        assert_eq!(u.running_bit_vector(1).count_ones(), 0, "LF snapshotted");
    }

    #[test]
    fn peek_does_not_mutate() {
        let mut u = SignatureUnit::new(tiny_cfg(HashKind::Xor));
        u.on_fill(0, 123, loc(0, 0));
        let a = u.peek_sample(0);
        let b = u.peek_sample(0);
        assert_eq!(a, b);
        // switch_out after peeks still sees the same occupancy.
        assert_eq!(u.switch_out(0).occupancy, a.occupancy);
    }
}

#[cfg(test)]
mod overlap_tests {
    use super::*;
    use crate::config::Sampling;
    use crate::hash::HashKind;

    fn cfg() -> SignatureConfig {
        SignatureConfig {
            cores: 2,
            sets: 16,
            ways: 4,
            line_shift: 6,
            counter_bits: 4,
            hash: HashKind::Modulo,
            sampling: Sampling::FULL,
        }
    }

    fn loc(set: u32, way: u32) -> LineLocation {
        LineLocation { set, way }
    }

    #[test]
    fn cross_core_overlap_counts_contested_indexes() {
        let mut u = SignatureUnit::new(cfg());
        // Core 0 fills indexes 1,2,3; core 1 fills 2,3,4 (modulo hash of
        // small block addresses = identity).
        for i in [1u64, 2, 3] {
            u.on_fill(0, i, loc(i as u32, 0));
        }
        for i in [2u64, 3, 4] {
            u.on_fill(1, i, loc(i as u32, 1));
        }
        let s = u.peek_sample(0);
        // RBV(core0) = {1,2,3}; CF1 = {2,3,4}: contested = 2.
        assert_eq!(s.overlap[1], 2);
    }

    #[test]
    fn own_core_overlap_counts_destroyed_predecessor_lines() {
        let mut u = SignatureUnit::new(cfg());
        // Predecessor (some process on core 0) filled {5, 6}.
        u.on_fill(0, 5, loc(5, 0));
        u.on_fill(0, 6, loc(6, 0));
        // Context switch: LF0 snapshots {5, 6}.
        u.switch_out(0);
        // The new tenant evicts the predecessor's line 5 to fill line 8.
        u.on_evict(5, loc(5, 0));
        u.on_fill(0, 8, loc(8, 0));
        let s = u.peek_sample(0);
        // LF & !CF = {5}: one predecessor-resident line destroyed.
        assert_eq!(s.overlap[0], 1);
        // Evicting and refilling the same index is NOT contested capacity
        // (the bit returns).
        u.on_evict(6, loc(6, 0));
        u.on_fill(0, 6, loc(6, 1));
        assert_eq!(u.peek_sample(0).overlap[0], 1);
    }
}
