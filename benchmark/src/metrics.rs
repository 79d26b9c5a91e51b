//! The metric and workload registry: every name the benchmark prints,
//! with its unit and direction. `BENCHMARK.json` at the repo root lists
//! the same names (checked by `tests/quick.rs`); README.md says what
//! each one means and which layer should move it on which workload.

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One registered metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The seven workloads, in run order.
pub const WORKLOADS: [&str; 7] = [
    "sim_flat",
    "sim_lanes",
    "sweep_paper",
    "serve_batch",
    "serve_rate",
    "serve_mixed",
    "fleet_proxy",
];

/// Metrics a user of the system sees; every workload reports every one
/// (untraced pass). The unit of "work" and of a "request" is the
/// workload's own — see README.md.
pub const END_TO_END: &[MetricDef] = &[
    lo("setup_s", "s"),
    hi("work_per_s", "1/s"),
    lo("req_p50_us", "us"),
    lo("req_p95_us", "us"),
    lo("cpu_s_per_mwork", "s"),
    lo("peak_rss_mb", "MB"),
];

/// Single-layer metrics (layer = crate), printed by the traced pass. A
/// workload that never enters a layer reports 0 for it.
pub const PER_LAYER: &[MetricDef] = &[
    lo("bits.xor_popcount_ns_per_kbit", "ns"),
    lo("bits.and_not_popcount_ns_per_kbit", "ns"),
    lo("cbf.fill_evict_ns_per_op", "ns"),
    lo("cbf.switch_out_ns", "ns"),
    lo("cbf.filter_fill_ratio", "ratio"),
    lo("cache.l2_probe_ns_per_op", "ns"),
    lo("cache.hier_access_ns_per_op", "ns"),
    hi("cache.l1_hit_ratio", "ratio"),
    lo("cache.l2_miss_ratio", "ratio"),
    lo("cache.dram_wait_cycles_per_miss", "cycles"),
    lo("cache.l2_accesses", "count"),
    lo("workloads.gen_ns_per_op", "ns"),
    lo("machine.host_ns_per_op", "ns"),
    lo("machine.residual_ns_per_op", "ns"),
    hi("machine.lane_speedup", "ratio"),
    lo("machine.export_snapshot_us", "us"),
    hi("machine.sim_cycles", "count"),
    hi("machine.sim_ops", "count"),
    lo("machine.cycles_per_op", "cycles"),
    lo("machine.ctx_switches", "count"),
    lo("eval.predicted_gain_ns", "ns"),
    lo("eval.pair_weight_ns", "ns"),
    lo("allocator.weight_sort_us", "us"),
    lo("allocator.graph_us", "us"),
    lo("allocator.weighted_graph_us", "us"),
    lo("allocator.domain_aware_us", "us"),
    lo("allocator.cut_ratio", "ratio"),
    lo("core.profile_s", "s"),
    lo("core.allocate_s", "s"),
    lo("core.measure_s", "s"),
    lo("core.sim_runs", "count"),
    hi("core.memo_hit_ratio", "ratio"),
    hi("core.exec_efficiency", "ratio"),
    hi("core.top1_hit_ratio", "ratio"),
    hi("core.gain_vs_worst_pct", "%"),
    lo("core.oracle_regret_pct", "%"),
    lo("online.ingest_us", "us"),
    lo("online.ingest_graph_us", "us"),
    lo("online.duplicate_us", "us"),
    lo("online.what_if_us", "us"),
    lo("online.journal_append_us", "us"),
    lo("online.journal_bytes_per_decision", "bytes"),
    lo("online.journal_replay_ms", "ms"),
    lo("online.export_import_us", "us"),
    lo("online.remap_ratio", "ratio"),
    lo("serve.v2_req_decode_ns_per_decision", "ns"),
    lo("serve.v2_req_encode_ns_per_decision", "ns"),
    lo("serve.v2_reply_encode_ns_per_decision", "ns"),
    lo("serve.v2_reply_decode_ns_per_decision", "ns"),
    lo("serve.v2_bytes_per_decision", "bytes"),
    lo("serve.v1_req_decode_us", "us"),
    lo("serve.v1_req_encode_us", "us"),
    lo("serve.v1_reply_encode_us", "us"),
    lo("serve.v1_reply_decode_us", "us"),
    lo("serve.v1_bytes_per_request", "bytes"),
    lo("serve.cold_verb_codec_us", "us"),
    lo("serve.read_p50_us", "us"),
    lo("serve.read_p99_us", "us"),
    hi("serve.whatif_memo_hit_ratio", "ratio"),
    lo("serve.wire_residual_us", "us"),
    lo("serve.shed_ratio", "ratio"),
    lo("serve.p99_us_r2000", "us"),
    lo("serve.p99_us_r4000", "us"),
    lo("serve.p99_us_r6000", "us"),
    lo("serve.p99_us_r8000", "us"),
    lo("serve.p99_us_r10000", "us"),
    hi("serve.rate_ok_rps", "1/s"),
    lo("serve.gen_late_p99_us", "us"),
    lo("fleet.route_get_ns", "ns"),
    lo("fleet.owner_index_ns", "ns"),
    lo("fleet.admit_ns", "ns"),
    lo("fleet.bytes_per_group", "bytes"),
    lo("fleet.rebalance_us_per_kgroup", "us"),
    lo("fleet.proxy_hop_us", "us"),
    hi("fleet.proxy_efficiency", "ratio"),
    lo("fleet.fleetd_cpu_share", "ratio"),
    lo("fleet.backend_errors", "count"),
    lo("fleet.rerouted", "count"),
    lo("trace.overhead_pct", "%"),
];

/// Metric values collected during one run, keyed by registered name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Record `value` under `name`, which must be registered.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "unregistered metric `{name}`"
        );
        self.0.insert(name, value);
    }

    /// The recorded value, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Values for every metric of `defs`, registry order. With
    /// `required`, a metric the run did not measure is an error (every
    /// workload owes every end-to-end metric); otherwise it reads 0 (a
    /// workload that never entered the layer).
    pub fn in_order(
        &self,
        defs: &'static [MetricDef],
        required: bool,
    ) -> Result<Vec<(MetricDef, f64)>, String> {
        defs.iter()
            .map(|d| match self.0.get(d.name) {
                Some(&v) => Ok((*d, v)),
                None if required => Err(format!("metric `{}` was not measured", d.name)),
                None => Ok((*d, 0.0)),
            })
            .collect()
    }
}
