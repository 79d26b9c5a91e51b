//! Machine configuration.

use crate::timing::TimingModel;
use serde::{Deserialize, Serialize};
use symbio_cache::{CacheGeometry, ReplacementPolicy, Topology};
use symbio_cbf::{HashKind, Sampling, SignatureConfig};

/// Virtualization-layer model (Section 4.2's Xen setup).
///
/// Three effects distinguish VM execution from native in the paper's
/// results and are modelled here:
///
/// 1. a per-instruction hypervisor tax (shadow paging / vm exits);
/// 2. costlier, more frequent vcpu switches (hypervisor quantum < OS
///    quantum);
/// 3. Dom0 control-domain activity polluting the shared L2.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VirtConfig {
    /// Extra cycles on every context switch (VM entry/exit, vcpu state).
    pub vm_switch_extra: u64,
    /// Per-instruction tax as a rational `num/den` (e.g. 2/25 = 8 %).
    pub tax_num: u64,
    /// Denominator of the tax.
    pub tax_den: u64,
    /// Hypervisor scheduling quantum (cycles); typically shorter than the
    /// native OS quantum.
    pub quantum: u64,
    /// Whether to run a Dom0 background service workload.
    pub dom0: bool,
}

impl VirtConfig {
    /// Defaults approximating Xen on the scaled machine: 8 % instruction
    /// tax, 20k-cycle VM switches, a hypervisor quantum shorter than the
    /// native OS quantum, Dom0 on.
    pub fn default_model() -> Self {
        VirtConfig {
            vm_switch_extra: 20_000,
            tax_num: 2,
            tax_den: 25,
            quantum: 1_500_000,
            dom0: true,
        }
    }
}

/// Full description of a simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Number of cores (must equal the topology's total core count; see
    /// [`MachineConfig::validate`]).
    pub cores: usize,
    /// Cache-domain layout: which cores share which L2.
    pub topology: Topology,
    /// Per-core L1 geometry.
    pub l1: CacheGeometry,
    /// L2 geometry (the shared one, or each private one).
    pub l2: CacheGeometry,
    /// Replacement policy for both levels.
    pub policy: ReplacementPolicy,
    /// DRAM `(base_latency, service_interval)` cycles.
    pub dram: (u64, u64),
    /// Latency model.
    pub timing: TimingModel,
    /// OS scheduling quantum in cycles.
    pub quantum: u64,
    /// Attach the signature unit? (`None` = phase-2 measurement machine.)
    pub signature: Option<SigOptions>,
    /// Virtualize? (`None` = native.)
    pub virt: Option<VirtConfig>,
    /// Model page-granularity virtual→physical translation: each
    /// process's 4 KiB virtual pages are scattered pseudo-randomly across
    /// the physical space, as a real OS's page allocator does. Without
    /// this, synthetic processes occupy contiguous physical slabs whose
    /// cache-set/filter-index usage is artificially structured, which
    /// distorts both contention and the signature's collision statistics.
    pub paging: bool,
    /// Master seed; every stochastic component derives from it.
    pub seed: u64,
    /// OS threads that drive the stepping engine. Every run steps one
    /// lane per cache domain (its own frontier, DRAM channel and jitter
    /// stream); this only picks how many threads the lanes are spread
    /// over, the caller included — `min(step_threads, domains, host
    /// CPUs)`, with `1` (the default everywhere) running them inline in
    /// domain order. Output depends only on the domain decomposition,
    /// never on this value.
    pub step_threads: usize,
}

/// Signature-unit options that are not derivable from the cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SigOptions {
    /// Counter width in bits.
    pub counter_bits: u32,
    /// Hash function.
    pub hash: HashKind,
    /// Set sampling.
    pub sampling: Sampling,
}

impl SigOptions {
    /// Paper defaults: 3-bit counters, XOR hash, full sampling.
    pub fn default_options() -> Self {
        SigOptions {
            counter_bits: 3,
            hash: HashKind::Xor,
            sampling: Sampling::FULL,
        }
    }
}

impl MachineConfig {
    /// The 1/16-scale Core 2 Duo used by default in experiments: 2 cores,
    /// 8 KiB L1s, shared 256 KiB 16-way L2.
    ///
    /// The quantum is sized so that a full L2 refill after a context switch
    /// (~4096 lines x ~56 cycles) costs under ~10 % of the quantum, matching
    /// the real machine's warm-up-to-quantum ratio (Figure 3(a) shows < 10 %
    /// same-core degradation).
    pub fn scaled_core2duo(seed: u64) -> Self {
        MachineConfig {
            cores: 2,
            topology: Topology::shared_l2(2),
            l1: CacheGeometry::scaled_l1(),
            l2: CacheGeometry::scaled_l2(),
            policy: ReplacementPolicy::Lru,
            dram: (140, 25),
            timing: TimingModel::default_model(),
            quantum: 2_500_000,
            signature: Some(SigOptions::default_options()),
            virt: None,
            paging: true,
            seed,
            step_threads: 1,
        }
    }

    /// The scaled P4 Xeon SMP control machine: private L2 per core
    /// (128 KiB 8-way — half the shared capacity each, mirroring the real
    /// machines' 2 MiB-private vs 4 MiB-shared relation).
    pub fn scaled_p4_smp(seed: u64) -> Self {
        MachineConfig {
            topology: Topology::private_l2(2),
            l2: CacheGeometry::new(128 << 10, 8, 64),
            ..MachineConfig::scaled_core2duo(seed)
        }
    }

    /// A multi-domain machine: `domains` cache domains of two cores each,
    /// every domain carrying the scaled Core-2-Duo L2. The 1-domain case
    /// is exactly [`MachineConfig::scaled_core2duo`].
    pub fn scaled_multidomain(seed: u64, domains: usize) -> Self {
        MachineConfig {
            cores: 2 * domains,
            topology: Topology::uniform(domains, 2),
            ..MachineConfig::scaled_core2duo(seed)
        }
    }

    /// Full-size (4 MiB L2) geometry for paper-literal runs.
    pub fn full_core2duo(seed: u64) -> Self {
        MachineConfig {
            l1: CacheGeometry::new(32 << 10, 8, 64),
            l2: CacheGeometry::core2duo_l2(),
            ..MachineConfig::scaled_core2duo(seed)
        }
    }

    /// Scaled machine virtualized under the default Xen model.
    pub fn scaled_vm(seed: u64) -> Self {
        MachineConfig {
            virt: Some(VirtConfig::default_model()),
            ..MachineConfig::scaled_core2duo(seed)
        }
    }

    /// Derive the [`SignatureConfig`] for a `domain_cores`-core filter
    /// bank over the configured L2 geometry, if the unit is enabled.
    pub fn signature_config_for(&self, domain_cores: usize) -> Option<SignatureConfig> {
        self.signature.map(|s| SignatureConfig {
            cores: domain_cores,
            sets: self.l2.sets(),
            ways: self.l2.ways,
            line_shift: self.l2.line_shift(),
            counter_bits: s.counter_bits,
            hash: s.hash,
            sampling: s.sampling,
        })
    }

    /// Derive the machine-wide [`SignatureConfig`] (one bank spanning all
    /// cores — meaningful on single-domain machines), if enabled.
    pub fn signature_config(&self) -> Option<SignatureConfig> {
        self.signature_config_for(self.cores)
    }

    /// Structural validity: at least one core, and a topology whose
    /// per-domain core counts sum to `cores`. Returns a human-readable
    /// complaint so callers (`ExperimentConfig` building, the serving
    /// layer) can surface a typed validation error instead of letting an
    /// inconsistent machine panic downstream.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err("machine must have at least one core".to_string());
        }
        if self.step_threads == 0 {
            return Err("step_threads must be at least 1 (1 = lanes run inline)".to_string());
        }
        let topo_cores = self.topology.cores();
        if topo_cores != self.cores {
            return Err(format!(
                "topology domains {:?} sum to {topo_cores} cores, but the machine declares {}",
                self.topology.domain_counts(),
                self.cores
            ));
        }
        Ok(())
    }

    /// The effective scheduling quantum (hypervisor quantum when
    /// virtualized).
    pub fn effective_quantum(&self) -> u64 {
        self.virt.map_or(self.quantum, |v| v.quantum)
    }

    /// Disable the signature unit (phase-2 machine), preserving the rest.
    pub fn without_signature(mut self) -> Self {
        self.signature = None;
        self
    }

    /// Set how many OS threads drive the domain lanes (see
    /// [`MachineConfig::step_threads`]). Values below 1 are clamped to 1.
    pub fn with_step_threads(mut self, threads: usize) -> Self {
        self.step_threads = threads.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_config_consistent() {
        let c = MachineConfig::scaled_core2duo(1);
        assert_eq!(c.cores, 2);
        let sig = c.signature_config().unwrap();
        assert_eq!(sig.sets, 256);
        assert_eq!(sig.ways, 16);
        assert_eq!(sig.entries(), 4096);
    }

    #[test]
    fn without_signature_strips_unit() {
        let c = MachineConfig::scaled_core2duo(1).without_signature();
        assert!(c.signature_config().is_none());
    }

    #[test]
    fn vm_quantum_shorter() {
        let c = MachineConfig::scaled_vm(1);
        assert!(c.effective_quantum() < c.quantum);
    }

    #[test]
    fn p4_has_private_topology() {
        let c = MachineConfig::scaled_p4_smp(1);
        assert_eq!(c.topology, Topology::private_l2(2));
        assert!(c.l2.size_bytes < CacheGeometry::scaled_l2().size_bytes);
    }

    #[test]
    fn multidomain_preset_consistent() {
        let c = MachineConfig::scaled_multidomain(1, 4);
        assert_eq!(c.cores, 8);
        assert_eq!(c.topology.domains(), 4);
        assert!(c.validate().is_ok());
        // Per-domain signature banks are sized to the domain, not the machine.
        assert_eq!(c.signature_config_for(2).unwrap().cores, 2);
        // The 1-domain case degenerates to the classic scaled machine.
        assert_eq!(
            MachineConfig::scaled_multidomain(7, 1),
            MachineConfig::scaled_core2duo(7)
        );
    }

    #[test]
    fn validate_rejects_inconsistent_machines() {
        let mut c = MachineConfig::scaled_core2duo(1);
        assert!(c.validate().is_ok());
        c.cores = 0;
        assert!(c.validate().unwrap_err().contains("at least one core"));
        let mut c = MachineConfig::scaled_core2duo(1);
        c.topology = Topology::uniform(2, 2); // 4 cores vs cores: 2
        let err = c.validate().unwrap_err();
        assert!(err.contains("sum to 4"), "{err}");
    }

    #[test]
    fn full_scale_is_16x() {
        let f = MachineConfig::full_core2duo(1);
        let s = MachineConfig::scaled_core2duo(1);
        assert_eq!(f.l2.size_bytes, s.l2.size_bytes * 16);
    }
}
