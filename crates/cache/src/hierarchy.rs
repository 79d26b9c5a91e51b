//! Per-core L1s over per-domain shared L2s, backed by DRAM.

use crate::addr::Address;
use crate::dram::Dram;
use crate::geometry::CacheGeometry;
use crate::replacement::ReplacementPolicy;
use crate::setassoc::SetAssocCache;
use crate::stats::CacheStats;
use crate::topology::Topology;
use serde::{Deserialize, Serialize};
use symbio_cbf::CacheEventSink;

/// Which level serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessLevel {
    /// Private L1 hit.
    L1,
    /// L2 hit (the requesting core's domain L2).
    L2,
    /// Missed to memory.
    Memory,
}

/// Result of a hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResponse {
    /// Deepest level consulted.
    pub level: AccessLevel,
    /// Total extra cycles spent in DRAM (queue wait + base latency) when
    /// `level == Memory`, else 0. The timing model adds the per-level hit
    /// costs on top.
    pub dram_cycles: u64,
}

/// The full memory system below the cores: one L2 per cache domain, with
/// each domain's cores sharing it (see [`Topology`]).
///
/// Signature events ([`CacheEventSink`]) are emitted for the L2 level only —
/// the paper's signature unit monitors the shared L2. The core id handed to
/// the sink is **domain-local** (`0..domain.cores`): each domain has its own
/// signature filter bank sized to its own core count, so events never carry
/// another domain's core numbering. On a single-domain machine local and
/// global ids coincide.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    topology: Topology,
    cores: usize,
    /// Global core id → owning domain.
    domain_of: Vec<usize>,
    /// Domain-major: everything an access can write belongs to exactly one
    /// [`DomainMem`], so domains can be stepped independently
    /// ([`MemorySystem::domains_mut`]).
    domains: Vec<DomainMem>,
}

impl MemorySystem {
    /// Build a memory system over `topology`. `l2_geo` is the geometry of
    /// *each* domain L2, and every domain gets its own copy of the `dram`
    /// channel model: a domain's misses queue only behind its own.
    ///
    /// Seeding: a single-domain machine seeds its L2 with `seed ^ 0x12`
    /// and a multi-domain machine seeds domain `d` with `seed ^ (0x100 + d)`
    /// — exactly reproducing the pre-topology shared-L2 and private-L2
    /// cache streams, so single-domain behaviour is bit-identical to the
    /// old two-shape code.
    pub fn new(
        topology: Topology,
        l1_geo: CacheGeometry,
        l2_geo: CacheGeometry,
        policy: ReplacementPolicy,
        dram: Dram,
        seed: u64,
    ) -> Self {
        let cores = topology.cores();
        assert!(cores >= 1);
        let domains = (0..topology.domains())
            .map(|d| {
                let l2_seed = if topology.is_single() {
                    seed ^ 0x12
                } else {
                    seed ^ (0x100 + d as u64)
                };
                DomainMem {
                    l1: topology
                        .core_range(d)
                        .map(|i| SetAssocCache::new(l1_geo, policy, 1, seed ^ (i as u64 + 1)))
                        .collect(),
                    // Every domain L2 keeps one stats slot per *global*
                    // core: stats stay addressable by global id from any
                    // layer above.
                    l2: SetAssocCache::new(l2_geo, policy, cores, l2_seed),
                    dram: dram.clone(),
                    core_start: topology.core_start(d),
                    line_shift: l2_geo.line_shift(),
                }
            })
            .collect();
        MemorySystem {
            topology,
            cores,
            domain_of: (0..cores).map(|c| topology.domain_of(c)).collect(),
            domains,
        }
    }

    /// Convenience constructor for the scaled Core-2-Duo shared-L2 machine.
    pub fn scaled_shared(cores: usize, seed: u64) -> Self {
        MemorySystem::new(
            Topology::shared_l2(cores),
            CacheGeometry::scaled_l1(),
            CacheGeometry::scaled_l2(),
            ReplacementPolicy::Lru,
            Dram::default_model(),
            seed,
        )
    }

    /// Topology of this system.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// The slice (global) `core` belongs to.
    #[inline]
    fn mem_of(&self, core: usize) -> &DomainMem {
        &self.domains[self.domain_of[core]]
    }

    /// Access the hierarchy on behalf of (global) `core` at cycle `now`.
    ///
    /// Fill path: L1 miss → the core's domain L2; L2 miss → DRAM fetch,
    /// fill L2 (emitting `on_fill`, and `on_evict` + writeback for the
    /// victim), fill L1. Caches are non-inclusive; L2 victims do not
    /// back-invalidate L1s (process-namespaced addresses make stale L1
    /// lines harmless, they simply age out).
    #[inline]
    pub fn access<S: CacheEventSink + ?Sized>(
        &mut self,
        core: usize,
        addr: Address,
        write: bool,
        now: u64,
        sink: &mut S,
    ) -> AccessResponse {
        debug_assert!(core < self.cores);
        self.core_channel(core).access(addr, write, now, sink)
    }

    /// Borrow-split handle onto the path a single core's accesses take:
    /// its private L1, its domain L2, and the DRAM channel behind that
    /// domain. Lets a stepping loop hoist all per-access indexing out of
    /// its hot loop while the caller keeps the rest of the machine
    /// mutably borrowed elsewhere.
    #[inline]
    pub fn core_channel(&mut self, core: usize) -> CoreChannel<'_> {
        self.domains[self.domain_of[core]].core_channel(core)
    }

    /// The per-domain slices, in domain order: disjoint, so each can be
    /// stepped on its own worker thread.
    pub fn domains_mut(&mut self) -> &mut [DomainMem] {
        &mut self.domains
    }

    /// Domain `d`'s slice (stats, layout probes).
    pub fn domain(&self, d: usize) -> &DomainMem {
        &self.domains[d]
    }

    /// L1 stats for a core.
    pub fn l1_stats(&self, core: usize) -> &CacheStats {
        self.mem_of(core).l1(core).stats(0)
    }

    /// L2 stats as seen from a (global) core: its slice of its domain L2.
    pub fn l2_stats(&self, core: usize) -> &CacheStats {
        self.mem_of(core).l2.stats(core)
    }

    /// Ground-truth count of L2 lines currently owned by `core`.
    pub fn l2_resident_of(&self, core: usize) -> u64 {
        self.mem_of(core).l2.resident_lines_of(core)
    }

    /// Ground-truth count of valid lines across every domain L2.
    pub fn l2_resident_total(&self) -> u64 {
        self.domains.iter().map(|d| d.l2.resident_lines()).sum()
    }

    /// The L2 geometry (identical across domains).
    pub fn l2_geometry(&self) -> &CacheGeometry {
        self.domains[0].l2.geometry()
    }

    /// Domain 0's DRAM channel model (e.g. for bandwidth reporting) — the
    /// only channel on a single-domain system.
    pub fn dram(&self) -> &Dram {
        &self.domains[0].dram
    }

    /// Total DRAM requests summed over every channel.
    pub fn dram_requests_total(&self) -> u64 {
        self.domains.iter().map(|d| d.dram.requests()).sum()
    }

    /// Flush all caches and reset DRAM queue state (stats retained).
    pub fn flush(&mut self) {
        for d in &mut self.domains {
            for c in &mut d.l1 {
                c.flush();
            }
            d.l2.flush();
            d.dram.reset();
        }
    }
}

/// One domain's slice of the memory system: the domain's private L1s, its
/// shared L2, and its own DRAM channel.
///
/// The L2 and the channel sit inline and the struct takes
/// [`SetAssocCache`]'s 128-byte alignment (so do the L1s in their table):
/// the words an access writes in one domain (`tick`, the replacement
/// stream, `next_free`, …) never share a cache line with another domain's
/// (DESIGN §12, "What a lane may share").
#[derive(Debug, Clone)]
pub struct DomainMem {
    l1: Vec<SetAssocCache>,
    l2: SetAssocCache,
    dram: Dram,
    core_start: usize,
    line_shift: u32,
}

const _: () = assert!(std::mem::align_of::<DomainMem>() >= 128);

impl DomainMem {
    /// First global core id of this domain.
    #[inline]
    pub fn core_start(&self) -> usize {
        self.core_start
    }

    /// The private L1 of one of this domain's cores (global id).
    pub fn l1(&self, core: usize) -> &SetAssocCache {
        &self.l1[core - self.core_start]
    }

    /// The domain's shared L2.
    pub fn l2(&self) -> &SetAssocCache {
        &self.l2
    }

    /// The domain's DRAM channel.
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// Borrow-split channel for one of this domain's cores (global id).
    #[inline]
    pub fn core_channel(&mut self, core: usize) -> CoreChannel<'_> {
        let local = core - self.core_start;
        CoreChannel {
            l1: &mut self.l1[local],
            l2: &mut self.l2,
            dram: &mut self.dram,
            core,
            local_core: local,
            line_shift: self.line_shift,
        }
    }
}

/// Pre-resolved access path for a single core: no per-access domain or
/// channel indexing, and a generic (devirtualized) signature sink. The
/// access sequence is exactly [`MemorySystem::access`]'s — the golden
/// kernel digests pin the equivalence.
#[derive(Debug)]
pub struct CoreChannel<'a> {
    l1: &'a mut SetAssocCache,
    l2: &'a mut SetAssocCache,
    dram: &'a mut Dram,
    /// Global core id (L2 stats slot).
    core: usize,
    /// Domain-local core id (signature filter bank slot).
    local_core: usize,
    line_shift: u32,
}

impl CoreChannel<'_> {
    /// Access the hierarchy at cycle `now`. See [`MemorySystem::access`].
    #[inline]
    pub fn access<S: CacheEventSink + ?Sized>(
        &mut self,
        addr: Address,
        write: bool,
        now: u64,
        sink: &mut S,
    ) -> AccessResponse {
        if self.l1.access(0, addr, write).hit {
            return AccessResponse {
                level: AccessLevel::L1,
                dram_cycles: 0,
            };
        }
        let out = self.l2.access(self.core, addr, write);
        if out.hit {
            return AccessResponse {
                level: AccessLevel::L2,
                dram_cycles: 0,
            };
        }
        // L2 miss: victim first (bandwidth + signature), then the fill.
        if let Some(ev) = out.evicted {
            if ev.dirty {
                self.dram.writeback(now);
            }
            sink.on_evict(ev.block, ev.loc);
        }
        // The sink is the domain's own filter bank: report the
        // domain-local core id.
        sink.on_fill(self.local_core, addr.block(self.line_shift), out.loc);
        let dram_cycles = self.dram.fetch(now);
        AccessResponse {
            level: AccessLevel::Memory,
            dram_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbio_cbf::NullSink;

    fn sys() -> MemorySystem {
        MemorySystem::scaled_shared(2, 42)
    }

    #[test]
    fn first_touch_misses_to_memory() {
        let mut m = sys();
        let mut sink = NullSink;
        let r = m.access(0, Address(0x1000), false, 0, &mut sink);
        assert_eq!(r.level, AccessLevel::Memory);
        assert!(r.dram_cycles >= 200);
    }

    #[test]
    fn second_touch_hits_l1() {
        let mut m = sys();
        let mut sink = NullSink;
        m.access(0, Address(0x1000), false, 0, &mut sink);
        let r = m.access(0, Address(0x1000), false, 10, &mut sink);
        assert_eq!(r.level, AccessLevel::L1);
        assert_eq!(r.dram_cycles, 0);
    }

    #[test]
    fn l1_victim_still_hits_l2() {
        let mut m = sys();
        let mut sink = NullSink;
        // Fill far more lines than L1 holds (128) but fewer than L2 (4096).
        for i in 0..512u64 {
            m.access(0, Address(i * 64), false, i, &mut sink);
        }
        // Line 0 fell out of L1 but remains in L2.
        let r = m.access(0, Address(0), false, 9999, &mut sink);
        assert_eq!(r.level, AccessLevel::L2);
    }

    #[test]
    fn shared_l2_sees_both_cores() {
        let mut m = sys();
        let mut sink = NullSink;
        m.access(0, Address(0x1000), false, 0, &mut sink);
        // Same line from the other core: misses its own L1, hits shared L2.
        let r = m.access(1, Address(0x1000), false, 5, &mut sink);
        assert_eq!(r.level, AccessLevel::L2);
    }

    #[test]
    fn private_l2_does_not_share() {
        let mut m = MemorySystem::new(
            Topology::private_l2(2),
            CacheGeometry::scaled_l1(),
            CacheGeometry::scaled_l2(),
            ReplacementPolicy::Lru,
            Dram::default_model(),
            7,
        );
        let mut sink = NullSink;
        m.access(0, Address(0x1000), false, 0, &mut sink);
        let r = m.access(1, Address(0x1000), false, 5, &mut sink);
        assert_eq!(r.level, AccessLevel::Memory, "private L2s are isolated");
    }

    #[test]
    fn domains_isolate_but_share_within() {
        // 2 domains x 2 cores: cores 0,1 share an L2; cores 2,3 share the
        // other; nothing crosses the domain boundary.
        let mut m = MemorySystem::new(
            Topology::uniform(2, 2),
            CacheGeometry::scaled_l1(),
            CacheGeometry::scaled_l2(),
            ReplacementPolicy::Lru,
            Dram::default_model(),
            7,
        );
        let mut sink = NullSink;
        m.access(0, Address(0x1000), false, 0, &mut sink);
        let within = m.access(1, Address(0x1000), false, 5, &mut sink);
        assert_eq!(within.level, AccessLevel::L2, "same-domain cores share");
        let across = m.access(2, Address(0x1000), false, 10, &mut sink);
        assert_eq!(across.level, AccessLevel::Memory, "domains are isolated");
        let within_b = m.access(3, Address(0x1000), false, 15, &mut sink);
        assert_eq!(within_b.level, AccessLevel::L2);
    }

    #[test]
    fn signature_sink_sees_fills_and_evictions() {
        use symbio_cbf::{HashKind, Sampling, SignatureConfig, SignatureUnit};
        let mut m = sys();
        let geo = *m.l2_geometry();
        let mut unit = SignatureUnit::new(SignatureConfig {
            cores: 2,
            sets: geo.sets(),
            ways: geo.ways,
            line_shift: geo.line_shift(),
            counter_bits: 8,
            hash: HashKind::Xor,
            sampling: Sampling::FULL,
        });
        for i in 0..100u64 {
            m.access(0, Address(i * 64), false, i, &mut unit);
        }
        assert_eq!(unit.fills(), 100);
        assert!(unit.core_occupancy(0) > 0);
        assert_eq!(unit.core_occupancy(1), 0);
    }

    #[test]
    fn sink_core_ids_are_domain_local() {
        use symbio_cbf::{HashKind, Sampling, SignatureConfig, SignatureUnit};
        // A 2x2 machine: core 2 is local core 0 of domain 1, so a
        // domain-1 filter bank sized for 2 cores sees its fills as core 0.
        let mut m = MemorySystem::new(
            Topology::uniform(2, 2),
            CacheGeometry::scaled_l1(),
            CacheGeometry::scaled_l2(),
            ReplacementPolicy::Lru,
            Dram::default_model(),
            11,
        );
        let geo = *m.l2_geometry();
        let mut unit = SignatureUnit::new(SignatureConfig {
            cores: 2,
            sets: geo.sets(),
            ways: geo.ways,
            line_shift: geo.line_shift(),
            counter_bits: 8,
            hash: HashKind::Xor,
            sampling: Sampling::FULL,
        });
        for i in 0..50u64 {
            m.access(2, Address(i * 64), false, i, &mut unit);
        }
        assert!(unit.core_occupancy(0) > 0, "global core 2 is local core 0");
        assert_eq!(unit.core_occupancy(1), 0);
    }

    #[test]
    fn contention_on_bandwidth_visible() {
        let mut m = sys();
        let mut sink = NullSink;
        // Two cores issuing misses at the same cycle: second waits.
        let a = m.access(0, Address(0x10000), false, 0, &mut sink);
        let b = m.access(1, Address(0x20000), false, 0, &mut sink);
        assert!(b.dram_cycles > a.dram_cycles);
    }

    #[test]
    fn stats_separated_by_core() {
        let mut m = sys();
        let mut sink = NullSink;
        m.access(0, Address(0), false, 0, &mut sink);
        m.access(1, Address(64 * 1024), false, 1, &mut sink);
        assert_eq!(m.l1_stats(0).accesses, 1);
        assert_eq!(m.l1_stats(1).accesses, 1);
        assert_eq!(m.l2_stats(0).misses, 1);
        assert_eq!(m.l2_stats(1).misses, 1);
    }
}
