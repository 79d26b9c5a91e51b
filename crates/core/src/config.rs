//! Experiment configuration.

use serde::{Deserialize, Serialize};
use symbio_machine::MachineConfig;

/// Parameters of a two-phase experiment.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Machine template. The profiling machine uses it as-is (signature
    /// on); the measurement machine strips the signature unit and offsets
    /// the seed, mirroring "decide on Simics, measure on the real box".
    pub machine: MachineConfig,
    /// Total frontier cycles of the profiling run (phase 1).
    pub profile_cycles: u64,
    /// Allocator invocation interval during profiling (the paper's 100 ms).
    /// Profiling is observe-only: each decision is tallied, never applied
    /// to the profiling machine (DESIGN.md §9.3).
    pub interval: u64,
    /// Cycle cap for each measurement run (phase 2).
    pub measure_max_cycles: u64,
    /// Seed offset applied to the measurement machine (decisions must
    /// transfer across runs, as they do from Simics to the real machine).
    pub measure_seed_offset: u64,
    /// Phase-2 measurement repetitions (different seeds, averaged) — the
    /// paper's "averaged over three independent runs".
    pub measure_repeats: u32,
}

impl ExperimentConfig {
    /// Default configuration on the scaled Core 2 Duo.
    pub fn scaled(seed: u64) -> Self {
        ExperimentConfigBuilder::scaled(seed)
            .build()
            .expect("scaled preset is valid")
    }

    /// Faster profiling for tests and smoke benches.
    pub fn fast(seed: u64) -> Self {
        ExperimentConfigBuilder::fast(seed)
            .build()
            .expect("fast preset is valid")
    }

    /// Start a validated configuration from the scaled preset.
    pub fn builder(seed: u64) -> ExperimentConfigBuilder {
        ExperimentConfigBuilder::scaled(seed)
    }

    /// The VM-mode (Xen-like) variant of this configuration.
    pub fn virtualized(self) -> Self {
        ExperimentConfig {
            machine: MachineConfig {
                virt: Some(symbio_machine::VirtConfig::default_model()),
                ..self.machine
            },
            ..self
        }
    }
}

/// Builder for [`ExperimentConfig`] with validation at [`build`] time.
///
/// The presets ([`scaled`](ExperimentConfigBuilder::scaled),
/// [`fast`](ExperimentConfigBuilder::fast)) mirror the former
/// `ExperimentConfig::scaled`/`fast` constructors; every setter overrides
/// one field, and `build` rejects parameter combinations that produce
/// meaningless experiments instead of letting them run for hours first.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfigBuilder {
    cfg: ExperimentConfig,
}

impl ExperimentConfigBuilder {
    /// The scaled Core 2 Duo preset (the paper's default setup).
    pub fn scaled(seed: u64) -> Self {
        ExperimentConfigBuilder {
            cfg: ExperimentConfig {
                machine: MachineConfig::scaled_core2duo(seed),
                profile_cycles: 60_000_000,
                interval: 5_000_000,
                measure_max_cycles: 400_000_000,
                measure_seed_offset: 0x5EED_0FF5E7,
                measure_repeats: 3,
            },
        }
    }

    /// The fast preset: shorter profiling, single measurement repeat.
    pub fn fast(seed: u64) -> Self {
        let mut b = ExperimentConfigBuilder::scaled(seed);
        b.cfg.profile_cycles = 25_000_000;
        b.cfg.measure_repeats = 1;
        b
    }

    /// Replace the machine template.
    pub fn machine(mut self, machine: MachineConfig) -> Self {
        self.cfg.machine = machine;
        self
    }

    /// Set the total profiling length (phase 1) in frontier cycles.
    pub fn profile_cycles(mut self, cycles: u64) -> Self {
        self.cfg.profile_cycles = cycles;
        self
    }

    /// Set the allocator invocation interval in cycles.
    pub fn interval(mut self, cycles: u64) -> Self {
        self.cfg.interval = cycles;
        self
    }

    /// Set the phase-2 per-run cycle cap.
    pub fn measure_max_cycles(mut self, cycles: u64) -> Self {
        self.cfg.measure_max_cycles = cycles;
        self
    }

    /// Set the measurement seed offset.
    pub fn measure_seed_offset(mut self, offset: u64) -> Self {
        self.cfg.measure_seed_offset = offset;
        self
    }

    /// Set the number of averaged measurement repeats.
    pub fn measure_repeats(mut self, repeats: u32) -> Self {
        self.cfg.measure_repeats = repeats;
        self
    }

    /// Drive the per-domain stepping lanes with up to `threads` OS
    /// threads (1 = lanes run inline; results never depend on it — see
    /// `MachineConfig::step_threads`).
    pub fn step_threads(mut self, threads: usize) -> Self {
        self.cfg.machine.step_threads = threads.max(1);
        self
    }

    /// Virtualize the machine under the default Xen-like model.
    pub fn virtualized(mut self) -> Self {
        self.cfg = self.cfg.virtualized();
        self
    }

    /// Validate and produce the configuration.
    ///
    /// Checks:
    /// * the machine itself is structurally sound
    ///   ([`MachineConfig::validate`]: at least one core, topology core
    ///   counts summing to `cores`) — surfaced as
    ///   [`Error::Validation`](crate::Error::Validation) so an
    ///   inconsistent machine is rejected here instead of panicking
    ///   downstream in `Machine::new`;
    /// * `interval` is nonzero and no longer than `profile_cycles`
    ///   (otherwise the allocator is never invoked and phase 1 decides
    ///   nothing);
    /// * `measure_repeats >= 1` (phase 2 averages over repeats);
    /// * the quantum/warm-up coupling of DESIGN.md §9.6: a full L2 refill
    ///   (`l2 lines × DRAM service interval`) must cost no more than ~10 %
    ///   of the effective scheduling quantum, otherwise context-switch
    ///   warm-up dominates and swamps the cache-sharing effects the
    ///   experiment is supposed to isolate.
    pub fn build(self) -> crate::Result<ExperimentConfig> {
        let c = &self.cfg;
        c.machine.validate().map_err(crate::Error::Validation)?;
        if c.interval == 0 {
            return Err(crate::Error::InvalidConfig(
                "allocator interval must be nonzero".into(),
            ));
        }
        if c.interval > c.profile_cycles {
            return Err(crate::Error::InvalidConfig(format!(
                "allocator interval ({}) exceeds the profiling run ({} cycles): \
                 phase 1 would never invoke the allocator",
                c.interval, c.profile_cycles
            )));
        }
        if c.measure_repeats == 0 {
            return Err(crate::Error::InvalidConfig(
                "measure_repeats must be >= 1 (phase 2 averages over repeats)".into(),
            ));
        }
        let refill = c.machine.l2.lines() * c.machine.dram.1;
        let quantum = c.machine.effective_quantum();
        if refill * 10 > quantum {
            return Err(crate::Error::InvalidConfig(format!(
                "quantum {} cycles is too short for this L2: a full refill costs \
                 ~{} cycles (> 10% of the quantum), so context-switch warm-up would \
                 dominate the measurements (DESIGN.md \u{a7}9.6)",
                quantum, refill
            )));
        }
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_shrinks_profile_only() {
        let a = ExperimentConfig::scaled(1);
        let b = ExperimentConfig::fast(1);
        assert!(b.profile_cycles < a.profile_cycles);
        assert_eq!(a.measure_max_cycles, b.measure_max_cycles);
    }

    #[test]
    fn virtualized_sets_virt() {
        let c = ExperimentConfig::fast(1).virtualized();
        assert!(c.machine.virt.is_some());
    }

    #[test]
    fn builder_presets_match_constructors() {
        let a = ExperimentConfig::scaled(9);
        let b = ExperimentConfigBuilder::scaled(9).build().unwrap();
        assert_eq!(a.profile_cycles, b.profile_cycles);
        assert_eq!(a.measure_repeats, b.measure_repeats);
        assert_eq!(a.machine, b.machine);
        let f = ExperimentConfigBuilder::fast(9).build().unwrap();
        assert_eq!(f.measure_repeats, 1);
    }

    #[test]
    fn builder_setters_override() {
        let c = ExperimentConfig::builder(2)
            .profile_cycles(30_000_000)
            .interval(3_000_000)
            .measure_repeats(2)
            .virtualized()
            .build()
            .unwrap();
        assert_eq!(c.profile_cycles, 30_000_000);
        assert_eq!(c.interval, 3_000_000);
        assert_eq!(c.measure_repeats, 2);
        assert!(c.machine.virt.is_some());
    }

    #[test]
    fn builder_rejects_degenerate_parameters() {
        // Interval longer than the whole profiling run.
        let e = ExperimentConfig::builder(2)
            .profile_cycles(1_000_000)
            .interval(5_000_000)
            .build()
            .unwrap_err();
        assert!(e.to_string().contains("interval"), "{e}");
        // Zero interval and zero repeats.
        assert!(ExperimentConfig::builder(2).interval(0).build().is_err());
        assert!(ExperimentConfig::builder(2)
            .measure_repeats(0)
            .build()
            .is_err());
    }

    #[test]
    fn builder_rejects_invalid_machines() {
        use symbio_machine::{MachineConfig, Topology};
        // Zero cores.
        let mut m = MachineConfig::scaled_core2duo(3);
        m.cores = 0;
        let e = ExperimentConfig::builder(3).machine(m).build().unwrap_err();
        assert!(
            matches!(e, crate::Error::Validation(_)),
            "expected Validation, got {e}"
        );
        // Topology/core-count mismatch.
        let mut m = MachineConfig::scaled_core2duo(3);
        m.topology = Topology::uniform(2, 2); // 4 cores vs cores: 2
        let e = ExperimentConfig::builder(3).machine(m).build().unwrap_err();
        assert!(matches!(e, crate::Error::Validation(_)), "{e}");
        assert!(e.to_string().contains("sum to 4"), "{e}");
        // A consistent multi-domain machine passes.
        let m = MachineConfig::scaled_multidomain(3, 2);
        assert!(ExperimentConfig::builder(3).machine(m).build().is_ok());
    }

    #[test]
    fn builder_enforces_quantum_warmup_coupling() {
        // The full-size L2 with the scaled quantum violates DESIGN.md
        // §9.6: refilling 65536 lines costs far more than 10% of 2.5M
        // cycles.
        let e = ExperimentConfig::builder(2)
            .machine(symbio_machine::MachineConfig::full_core2duo(2))
            .build()
            .unwrap_err();
        assert!(e.to_string().contains("9.6"), "{e}");
        // Scaling the quantum up proportionally fixes it.
        let mut m = symbio_machine::MachineConfig::full_core2duo(2);
        m.quantum *= 16;
        assert!(ExperimentConfig::builder(2).machine(m).build().is_ok());
    }
}
