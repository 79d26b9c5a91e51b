//! `sim_flat` and `sim_lanes`: the simulator driven through
//! `Machine::run_for` in fixed slices of simulated cycles.
//!
//! Work is a simulated memory op; a request is one round: one `run_for`
//! slice on each of the workload's machines, so every sample covers the
//! whole pool whatever the seed dealt where. `sim_flat` runs three
//! 1-domain machines on the serial engine (lane engine bypassed);
//! `sim_lanes` runs one 4-domain machine on the lane engine with two
//! stepping threads.

use std::time::Instant;

use symbio_bits::BitVec;
use symbio_cache::{AccessLevel, Address, Dram, MemorySystem, SetAssocCache};
use symbio_cbf::{CacheEventSink, LineLocation, NullSink, SignatureUnit};
use symbio_machine::Machine;
use symbio_workloads::Op;

use crate::inputs::{materialise, spec, SimInputs};
use crate::trace::Tracer;
use crate::util::{cpu_seconds, median, peak_rss_mb, quantile_sorted, secs_since, sorted};
use crate::{timed_setups, RunConfig, RunResult};

/// Simulated cycles warmed up before timing starts: every process has
/// run and the L2s have filled.
const WARMUP_CYCLES: u64 = 7_500_000;
/// Simulated cycles per machine in the traced pass.
const TRACED_CYCLES: u64 = 12_000_000;
/// Simulated cycles per machine in each determinism run.
const CHECK_CYCLES: u64 = 3_000_000;

/// Fresh machine copies timed per repetition. Host throughput of the
/// lane engine is a property of where a machine's state landed in
/// memory: one copy holds its level for as long as it lives, another
/// copy of the same machine sits up to 30 % away (README.md, "What the
/// benchmark found"). Throughput and the request percentiles are therefore
/// medians over copies.
const BUILDS_PER_REP: usize = 4;

/// Simulated cycles per `run_for` slice: a fifth of a scheduling
/// quantum, ~2 ms of host time on a flat machine and ~15 ms on the
/// 4-domain one.
const SLICE_CYCLES: u64 = 500_000;

/// Run every machine for `cycles`, slice by slice.
fn advance(machines: &mut [Machine], cycles: u64) {
    for m in machines {
        for _ in 0..cycles / SLICE_CYCLES {
            m.run_for(SLICE_CYCLES);
        }
    }
}

fn mem_ops(m: &Machine) -> u64 {
    (0..m.threads_len()).map(|t| m.thread(t).mem_ops).sum()
}

fn generate(cfg: &RunConfig) -> Result<SimInputs, String> {
    let inputs = match cfg.workload.as_str() {
        "sim_flat" => SimInputs::flat(cfg.seed),
        _ => SimInputs::lanes(cfg.seed),
    };
    materialise(&cfg.input_path(".json"), &inputs)
}

fn warmed(inputs: &SimInputs, step_threads: usize) -> Vec<Machine> {
    let mut machines = inputs.build(step_threads);
    advance(&mut machines, WARMUP_CYCLES);
    machines
}

/// FNV-1a over every simulated statistic of a machine: two runs of the
/// same inputs must agree on it, and so must the lane engine at any
/// worker count.
fn stats_digest(machines: &[Machine]) -> u64 {
    let mut words: Vec<u64> = Vec::new();
    for m in machines {
        words.push(m.now());
        words.push(m.switches());
        for t in 0..m.threads_len() {
            let th = m.thread(t);
            words.extend([
                th.mem_ops,
                th.retired,
                th.user_cycles,
                u64::from(th.completions),
            ]);
        }
        for c in 0..m.config().cores {
            for s in [m.memory().l1_stats(c), m.memory().l2_stats(c)] {
                words.extend([
                    s.accesses,
                    s.hits,
                    s.misses,
                    s.evictions_caused,
                    s.writebacks,
                ]);
            }
        }
        words.push(m.memory().dram_requests_total());
    }
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    symbio::fnv1a_64(&bytes)
}

fn digest_after(inputs: &SimInputs, step_threads: usize) -> u64 {
    let mut machines = inputs.build(step_threads);
    advance(&mut machines, CHECK_CYCLES);
    stats_digest(&machines)
}

fn check(inputs: &SimInputs, timed: &[Machine], reported_ops: u64, result: &mut RunResult) {
    let first = digest_after(inputs, inputs.step_threads);
    result.check(
        "two runs of the seed give identical stats digests",
        first == digest_after(inputs, inputs.step_threads),
    );
    if inputs.step_threads >= 2 {
        result.check(
            "lane engine identical at 2 and 4 workers",
            first == digest_after(inputs, 4),
        );
    }
    let mut levels_balance = true;
    let mut l1_accesses = 0;
    for m in timed {
        for c in 0..m.config().cores {
            for s in [m.memory().l1_stats(c), m.memory().l2_stats(c)] {
                levels_balance &= s.hits + s.misses == s.accesses;
            }
            l1_accesses += m.memory().l1_stats(c).accesses;
        }
    }
    result.check(
        "hits + misses = accesses at every cache level",
        levels_balance,
    );
    let thread_ops: u64 = timed.iter().map(mem_ops).sum();
    result.check(
        "sum of thread mem_ops = reported ops = L1 accesses",
        thread_ops == reported_ops && thread_ops == l1_accesses,
    );
}

/// Run one workload.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    if cfg.trace {
        return traced(cfg);
    }
    let mut result = RunResult::default();
    let ((inputs, mut machines), setup_s) = timed_setups(
        || {
            let inputs = generate(cfg)?;
            let machines = warmed(&inputs, inputs.step_threads);
            Ok((inputs, machines))
        },
        drop,
    )?;
    if inputs.step_threads > crate::util::nproc() {
        return Err(format!(
            "{} stepping threads on {} cores: refusing to oversubscribe",
            inputs.step_threads,
            crate::util::nproc()
        ));
    }
    let me = std::process::id();
    let builds = cfg.reps * BUILDS_PER_REP;
    let build_seconds = cfg.seconds / builds as f64;
    let (mut rates, mut p50s, mut p95s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut rounds, mut total_ops, mut last_ops, mut cpu_s) = (0u64, 0u64, 0u64, 0.0f64);
    for build in 0..builds {
        if build > 0 {
            // Outside the timed window: a fresh, warmed copy of the same
            // machines, somewhere else in memory.
            machines = warmed(&inputs, inputs.step_threads);
        }
        let warm_ops: u64 = machines.iter().map(mem_ops).sum();
        let cpu0 = cpu_seconds(me)?;
        let t0 = Instant::now();
        let mut round_us = Vec::new();
        while secs_since(t0) < build_seconds {
            let r0 = Instant::now();
            for m in &mut machines {
                m.run_for(SLICE_CYCLES);
            }
            round_us.push(secs_since(r0) * 1e6);
        }
        let wall = secs_since(t0);
        // Summed, not a median of ratios: one copy's half second is only
        // ~50 ticks of `/proc` CPU accounting.
        cpu_s += cpu_seconds(me)? - cpu0;
        let ops = machines.iter().map(mem_ops).sum::<u64>() - warm_ops;
        rates.push(ops as f64 / wall);
        let lat = sorted(round_us);
        p50s.push(quantile_sorted(&lat, 0.5));
        p95s.push(quantile_sorted(&lat, 0.95));
        rounds += lat.len() as u64;
        total_ops += ops;
        last_ops = warm_ops + ops;
    }

    result.attempted = rounds;
    result.metrics.set("setup_s", setup_s);
    result.metrics.set("work_per_s", median(&rates));
    result.metrics.set("req_p50_us", median(&p50s));
    result.metrics.set("req_p95_us", median(&p95s));
    result
        .metrics
        .set("cpu_s_per_mwork", cpu_s / (total_ops as f64 / 1e6));
    result.metrics.set("peak_rss_mb", peak_rss_mb(me)?);
    result.note(format!(
        "work = simulated memory op; request = run_for({SLICE_CYCLES} cycles) on each machine; {rounds} rounds, \
         {total_ops} ops over {builds} rebuilt copies (medians over the copies), {} machine(s) x {} domain(s), \
         step_threads {} on {} cores; caches warm ({WARMUP_CYCLES} cycles)",
        machines.len(),
        inputs.domains,
        inputs.step_threads,
        crate::util::nproc()
    ));
    check(&inputs, &machines, last_ops, &mut result);
    Ok(result)
}

/// The machine's page scatter (SplitMix64 finalizer over the virtual
/// page, as `symbio-machine` does privately), mirrored so the sibling
/// cache replay spreads each process over the sets the way the machine
/// does.
fn physical(pid: usize, addr: u64) -> Address {
    let va = addr | ((pid as u64 + 1) << 44);
    let mut z = (va >> 12).wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    let pfn = (z ^ (z >> 31)) & ((1 << 28) - 1);
    Address((pfn << 12) | (va & 0xfff))
}

/// A fill or eviction the L2 reported during the replay.
enum CacheEvent {
    Fill(usize, u64, LineLocation),
    Evict(u64, LineLocation),
}

/// Sink that keeps the events of one domain so they can be replayed into
/// a signature unit on their own.
#[derive(Default)]
struct Recorder(Vec<CacheEvent>);

impl CacheEventSink for Recorder {
    fn on_fill(&mut self, core: usize, block_addr: u64, loc: LineLocation) {
        self.0.push(CacheEvent::Fill(core, block_addr, loc));
    }
    fn on_evict(&mut self, block_addr: u64, loc: LineLocation) {
        self.0.push(CacheEvent::Evict(block_addr, loc));
    }
}

/// Mem ops per thread per replay chunk (threads are interleaved in
/// chunks, standing in for the scheduler's time slicing).
const CHUNK_OPS: usize = 2048;

/// Host nanoseconds per memory op spent in each sibling layer when the
/// machines' own op streams are replayed outside the machine.
struct LayerCosts {
    gen_ns: f64,
    hier_ns: f64,
    l2_probe_ns: f64,
    cbf_ns_per_event: f64,
    cbf_ns_per_op: f64,
    switch_out_ns: f64,
    xor_ns_per_kbit: f64,
    and_not_ns_per_kbit: f64,
}

/// Replay the op streams the traced machines executed through
/// `symbio-workloads`, `symbio-cache`, `symbio-cbf` and `symbio-bits`
/// directly, one span per chunk and layer.
fn replay_layers(inputs: &SimInputs, machines: &[Machine], tracer: &mut Tracer) -> LayerCosts {
    let (mut gen_ns, mut hier_ns, mut probe_ns, mut cbf_ns, mut switch_ns) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut ops, mut probes, mut events, mut switch_outs) = (0u64, 0u64, 0u64, 0u64);
    let mut last_unit: Option<SignatureUnit> = None;
    for (k, m) in machines.iter().enumerate() {
        let mcfg = *m.config();
        let new_mem = || {
            MemorySystem::new(
                mcfg.topology,
                mcfg.l1,
                mcfg.l2,
                mcfg.policy,
                Dram::new(mcfg.dram.0, mcfg.dram.1),
                mcfg.seed,
            )
        };
        let (mut timed_mem, mut event_mem) = (new_mem(), new_mem());
        let mut l2_alone = SetAssocCache::new(mcfg.l2, mcfg.policy, mcfg.cores, mcfg.seed);
        let domains = mcfg.topology.domains();
        let mut recorders: Vec<Recorder> = (0..domains).map(|_| Recorder::default()).collect();
        let mut units: Vec<SignatureUnit> = (0..domains)
            .map(|d| {
                SignatureUnit::new(
                    mcfg.signature_config_for(mcfg.topology.domain(d).cores)
                        .expect("the benchmark machines keep the signature unit on"),
                )
            })
            .collect();
        let threads = m.threads_len();
        let mut gens: Vec<_> = (0..threads)
            .map(|t| spec(&inputs.machines[k][m.thread(t).pid]).instantiate(m.thread(t).base_seed))
            .collect();
        let mut left: Vec<u64> = (0..threads).map(|t| m.thread(t).mem_ops).collect();
        let mut now = 0u64;
        let mut chunk: Vec<(Address, bool)> = Vec::with_capacity(CHUNK_OPS);
        let mut l2_bound: Vec<(Address, bool)> = Vec::with_capacity(CHUNK_OPS);
        while left.iter().any(|&n| n > 0) {
            for t in 0..threads {
                let n = left[t].min(CHUNK_OPS as u64) as usize;
                if n == 0 {
                    continue;
                }
                left[t] -= n as u64;
                let (pid, core) = (m.thread(t).pid, t % mcfg.cores);
                let d = mcfg.topology.domain_of(core);
                let req = ((k as u64) << 32) | ops;

                chunk.clear();
                let s = tracer.begin("workloads.gen", req);
                let g0 = Instant::now();
                while chunk.len() < n {
                    match gens[t].next_op() {
                        Op::Compute(_) => {}
                        op @ (Op::Load(a) | Op::Store(a)) => {
                            chunk.push((physical(pid, a), op.is_write()))
                        }
                    }
                }
                gen_ns += g0.elapsed().as_nanos() as u64;
                tracer.end(s);

                let s = tracer.begin("cache.access", req);
                let c0 = Instant::now();
                for &(addr, write) in &chunk {
                    std::hint::black_box(timed_mem.access(core, addr, write, now, &mut NullSink));
                    now += 4;
                }
                hier_ns += c0.elapsed().as_nanos() as u64;
                tracer.end(s);

                // Untimed twin that keeps what the timed pass threw away:
                // the L2-bound stream and the L2's fill/evict events.
                l2_bound.clear();
                for &(addr, write) in &chunk {
                    let r = event_mem.access(core, addr, write, now, &mut recorders[d]);
                    if r.level != AccessLevel::L1 {
                        l2_bound.push((addr, write));
                    }
                }
                let s = tracer.begin("cache.l2_probe", req);
                let p0 = Instant::now();
                for &(addr, write) in &l2_bound {
                    std::hint::black_box(l2_alone.access(core, addr, write));
                }
                probe_ns += p0.elapsed().as_nanos() as u64;
                tracer.end(s);
                probes += l2_bound.len() as u64;

                let s = tracer.begin("cbf.on_fill", req);
                let f0 = Instant::now();
                for ev in recorders[d].0.drain(..) {
                    match ev {
                        CacheEvent::Fill(c, block, loc) => units[d].on_fill(c, block, loc),
                        CacheEvent::Evict(block, loc) => units[d].on_evict(block, loc),
                    }
                    events += 1;
                }
                cbf_ns += f0.elapsed().as_nanos() as u64;
                tracer.end(s);

                // A chunk boundary stands in for the context switch at
                // which the machine samples the signature.
                let local = mcfg.topology.local_core(core);
                let s = tracer.begin("cbf.switch_out", req);
                let w0 = Instant::now();
                std::hint::black_box(units[d].switch_out(local));
                switch_ns += w0.elapsed().as_nanos() as u64;
                tracer.end(s);
                switch_outs += 1;
                ops += n as u64;
            }
        }
        last_unit = units.pop();
    }
    tracer.count("cache.l2_bound", probes);
    tracer.count("cbf.events", events);

    // The two fused kernels a switch-out runs, on the replay's own
    // filters (running vs. last bit vector of core 0).
    let unit = last_unit.expect("at least one machine");
    let (a, b): (&BitVec, &BitVec) = (unit.core_filter(0), unit.last_filter(0));
    const ROUNDS: u32 = 20_000;
    let kbits = f64::from(ROUNDS) * a.len() as f64 / 1000.0;
    let s = tracer.begin("bits.xor_popcount", 0);
    let x0 = Instant::now();
    for _ in 0..ROUNDS {
        std::hint::black_box(std::hint::black_box(a).xor_popcount(std::hint::black_box(b)));
    }
    let xor_ns = x0.elapsed().as_nanos() as f64;
    tracer.end(s);
    let s = tracer.begin("bits.and_not_popcount", 0);
    let n0 = Instant::now();
    for _ in 0..ROUNDS {
        std::hint::black_box(std::hint::black_box(a).and_not_popcount(std::hint::black_box(b)));
    }
    let and_not_ns = n0.elapsed().as_nanos() as f64;
    tracer.end(s);

    let per_op = |ns: u64| ns as f64 / ops.max(1) as f64;
    LayerCosts {
        gen_ns: per_op(gen_ns),
        hier_ns: per_op(hier_ns),
        l2_probe_ns: probe_ns as f64 / probes.max(1) as f64,
        cbf_ns_per_event: cbf_ns as f64 / events.max(1) as f64,
        cbf_ns_per_op: per_op(cbf_ns),
        switch_out_ns: switch_ns as f64 / switch_outs.max(1) as f64,
        xor_ns_per_kbit: xor_ns / kbits,
        and_not_ns_per_kbit: and_not_ns / kbits,
    }
}

/// Run [`TRACED_CYCLES`] on fresh warmed machines, one span per
/// `run_for`; returns the machines, the wall seconds and the ops done.
fn machine_pass(
    inputs: &SimInputs,
    step_threads: usize,
    tracer: &mut Tracer,
) -> (Vec<Machine>, f64, u64) {
    let mut machines = warmed(inputs, step_threads);
    let before: u64 = machines.iter().map(mem_ops).sum();
    let t0 = Instant::now();
    for slice in 0..TRACED_CYCLES / SLICE_CYCLES {
        for (k, m) in machines.iter_mut().enumerate() {
            let s = tracer.begin("machine.run_for", ((k as u64) << 32) | slice);
            m.run_for(SLICE_CYCLES);
            tracer.end(s);
        }
    }
    let wall = secs_since(t0);
    let ops = machines.iter().map(mem_ops).sum::<u64>() - before;
    (machines, wall, ops)
}

fn traced(cfg: &RunConfig) -> Result<RunResult, String> {
    let mut result = RunResult::default();
    let inputs = generate(cfg)?;
    let mut off = Tracer::new(false);
    let (_, untraced_wall, _) = machine_pass(&inputs, inputs.step_threads, &mut off);
    let mut tracer = Tracer::new(true);
    let (machines, traced_wall, ops) = machine_pass(&inputs, inputs.step_threads, &mut tracer);
    result.attempted = tracer.spans().len() as u64;
    let m = &mut result.metrics;
    m.set(
        "trace.overhead_pct",
        (traced_wall / untraced_wall - 1.0) * 100.0,
    );

    let run_for_ns = tracer.layer_times()["machine.run_for"].total_ns as f64;
    let host_ns = run_for_ns / ops as f64;
    let costs = replay_layers(&inputs, &machines, &mut tracer);
    m.set("machine.host_ns_per_op", host_ns);
    m.set("workloads.gen_ns_per_op", costs.gen_ns);
    m.set("cache.hier_access_ns_per_op", costs.hier_ns);
    m.set("cache.l2_probe_ns_per_op", costs.l2_probe_ns);
    m.set("cbf.fill_evict_ns_per_op", costs.cbf_ns_per_event);
    m.set("cbf.switch_out_ns", costs.switch_out_ns);
    m.set("bits.xor_popcount_ns_per_kbit", costs.xor_ns_per_kbit);
    m.set(
        "bits.and_not_popcount_ns_per_kbit",
        costs.and_not_ns_per_kbit,
    );
    // By construction: gen + hierarchy + cbf + residual = host ns/op.
    m.set(
        "machine.residual_ns_per_op",
        host_ns - costs.gen_ns - costs.hier_ns - costs.cbf_ns_per_op,
    );

    let s = tracer.begin("machine.export_snapshot", 0);
    let e0 = Instant::now();
    const EXPORTS: u32 = 200;
    for i in 0..EXPORTS {
        std::hint::black_box(
            machines[0]
                .export_snapshot("bench", u64::from(i))
                .map_err(|e| e.to_string())?,
        );
    }
    m.set(
        "machine.export_snapshot_us",
        secs_since(e0) * 1e6 / f64::from(EXPORTS),
    );
    tracer.end(s);

    if inputs.step_threads >= 2 {
        let (_, serial_wall, serial_ops) = machine_pass(&inputs, 1, &mut off);
        m.set(
            "machine.lane_speedup",
            (ops as f64 / traced_wall) / (serial_ops as f64 / serial_wall),
        );
    }

    // Simulated counts: exact for a seed, whatever the host does.
    let (mut l1_acc, mut l1_hit, mut l2_acc, mut l2_miss) = (0u64, 0u64, 0u64, 0u64);
    let (mut cycles, mut all_ops, mut switches, mut dram_wait, mut dram_reqs) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for mach in &machines {
        for c in 0..mach.config().cores {
            let (l1, l2) = (mach.memory().l1_stats(c), mach.memory().l2_stats(c));
            l1_acc += l1.accesses;
            l1_hit += l1.hits;
            l2_acc += l2.accesses;
            l2_miss += l2.misses;
        }
        cycles += mach.now();
        all_ops += mem_ops(mach);
        switches += mach.switches();
        dram_wait += mach.memory().dram().queue_wait_total();
        dram_reqs += mach.memory().dram().requests();
    }
    m.set("cache.l1_hit_ratio", l1_hit as f64 / l1_acc as f64);
    m.set("cache.l2_miss_ratio", l2_miss as f64 / l2_acc as f64);
    m.set("cache.l2_accesses", l2_acc as f64);
    m.set(
        "cache.dram_wait_cycles_per_miss",
        dram_wait as f64 / dram_reqs.max(1) as f64,
    );
    m.set("machine.sim_cycles", cycles as f64);
    m.set("machine.sim_ops", all_ops as f64);
    m.set("machine.cycles_per_op", cycles as f64 / all_ops as f64);
    m.set("machine.ctx_switches", switches as f64);
    let unit = machines[0].signature_of(0).ok_or("signature unit is off")?;
    m.set("cbf.filter_fill_ratio", unit.core_filter(0).fill_ratio());

    result.note(format!(
        "traced {} run_for spans over {ops} ops; sibling replay of the same generators through \
         workloads/cache/cbf in {CHUNK_OPS}-op chunks; simulated counts are exact for the seed",
        tracer.layer_times()["machine.run_for"].calls
    ));
    cfg.write_trace(&tracer)?;
    Ok(result)
}
