//! The incremental decision engine.
//!
//! [`OnlineEngine::ingest`] is the online counterpart of the offline
//! pipeline's profiling loop (`symbio::Pipeline::profile`): every
//! snapshot is one allocator invocation, votes accumulate in a sliding
//! window instead of a post-hoc batch tally, and a remap is committed
//! only when the windowed majority *and* a migration-cost hysteresis
//! check agree. The engine is deterministic: the same snapshot sequence
//! produces the same decision sequence (ties break oldest-first, no
//! clocks or randomness anywhere).
//!
//! Two robustness layers wrap the decision loop:
//!
//! * **quarantine** — a stream that keeps delivering invalid snapshots
//!   accumulates strikes; at the configured threshold the group trips
//!   into quarantine, its (suspect) vote window is dropped and the
//!   last-good mapping is served unchanged until the stream proves
//!   clean for a configured number of consecutive epochs;
//! * **crash safety** — with a [`JournalWriter`] attached, every state
//!   transition is journaled (checksummed, written) before the decision
//!   is returned — or, for a batch fed through
//!   [`OnlineEngine::ingest_staged`], before [`OnlineEngine::commit`]
//!   returns — and [`OnlineEngine::recover_journaled`] rebuilds the
//!   exact pre-crash state from the journal after a restart.

use crate::config::OnlineConfig;
use crate::journal::{
    EngineState, EpochRecord, GroupRecord, JournalRecord, JournalWriter, Recovery,
};
use crate::ring::{Epoch, EpochRing, PartitionKey};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use symbio::obs::Counters;
use symbio::Error;
use symbio_allocator::AllocationPolicy;
use symbio_eval::{
    domain_ranges, occupied_domains, uf_find, uf_union, ComponentGain, Explanation, Hysteresis,
};
use symbio_machine::{Mapping, SigSnapshot};

/// Why [`OnlineEngine::ingest`] decided what it decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DecisionReason {
    /// Not enough votes yet for a first mapping.
    Warmup,
    /// First mapping adopted (no migration cost: nothing was placed yet).
    Initial,
    /// Mapping kept: the majority agrees with it, or the challenger did
    /// not clear the vote/hysteresis bars.
    Held,
    /// Mapping replaced: the challenger won the window majority and its
    /// predicted gain beat the switch cost.
    Remap,
    /// Occupancy drift cleared the window this epoch (stale votes
    /// dropped); the mapping itself is unchanged until fresh votes
    /// accumulate.
    PhaseChange,
    /// The group is quarantined after repeated invalid snapshots: the
    /// last-good mapping is served, nothing was tallied, and the clean
    /// streak advanced by one.
    Quarantined,
    /// The snapshot's sequence number was already acknowledged (a client
    /// retry after a lost reply): the current mapping is re-served with
    /// no state change, making retries idempotent.
    Duplicate,
}

/// Outcome of ingesting one snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Decision {
    /// Process group the snapshot belonged to.
    pub group: String,
    /// Echo of the snapshot's sequence number.
    pub seq: u64,
    /// The group's mapping after this epoch (`None` while warming up).
    pub mapping: Option<Mapping>,
    /// Whether the mapping changed this epoch.
    pub changed: bool,
    /// Why.
    pub reason: DecisionReason,
    /// Normalized predicted symbiosis gain of the challenger over the
    /// incumbent (0 when no challenge was evaluated; on multi-domain
    /// machines, the best per-domain-component gain evaluated this
    /// epoch).
    pub gain: f64,
    /// Votes the window majority holds.
    pub votes: u32,
    /// Live epochs in the window.
    pub window: u32,
    /// Cache domains whose co-schedule groups were committed this epoch
    /// (empty when nothing changed). Single-domain machines report `[0]`
    /// on initial adoption and every remap.
    pub domains_changed: Vec<usize>,
}

/// Outcome of a [`OnlineEngine::what_if`] query: the predicted mapping
/// and its interference delta, with nothing committed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WhatIfAnswer {
    /// Process group the query was about.
    pub group: String,
    /// The mapping the engine predicts for the queried thread set.
    pub mapping: Mapping,
    /// Normalized predicted interference gain of the answer over its
    /// comparison point (the incumbent mapping when the population
    /// matches, a round-robin baseline otherwise). For a held incumbent
    /// this is the challenger's sub-threshold gain.
    pub delta: f64,
    /// Whether the incumbent was held (the challenger did not clear the
    /// switch cost, or already agrees with it).
    pub held: bool,
}

/// Per-group accumulated state.
#[derive(Debug)]
struct GroupState {
    ring: EpochRing,
    current: Option<Mapping>,
    epochs: u64,
    remaps: u64,
    /// Highest acknowledged sequence number (duplicate-suppression
    /// watermark).
    last_seq: Option<u64>,
    /// Outstanding invalid-snapshot strikes.
    strikes: u32,
    /// `Some(clean_streak)` while quarantined, `None` otherwise.
    quarantine: Option<u32>,
    /// Why the last decision went the way it did (recorded only when the
    /// engine runs with explanations enabled; advisory, not journaled).
    last_explanation: Option<Explanation>,
}

impl GroupState {
    fn new(window: usize) -> Self {
        GroupState {
            ring: EpochRing::new(window),
            current: None,
            epochs: 0,
            remaps: 0,
            last_seq: None,
            strikes: 0,
            quarantine: None,
            last_explanation: None,
        }
    }
}

/// The online decision engine: one allocation policy, many process-group
/// streams, bounded memory per group.
pub struct OnlineEngine {
    cfg: OnlineConfig,
    policy: Box<dyn AllocationPolicy + Send>,
    groups: HashMap<String, GroupState>,
    counters: Arc<Counters>,
    journal: Option<JournalWriter>,
    /// Record a per-decision [`Explanation`] alongside each ingest
    /// (disabled by default: it allocates per epoch on the hot path).
    explanations: bool,
}

impl std::fmt::Debug for OnlineEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnlineEngine")
            .field("cfg", &self.cfg)
            .field("policy", &self.policy.name())
            .field("groups", &self.groups.len())
            .field("journal", &self.journal.as_ref().map(|j| j.path()))
            .finish()
    }
}

impl OnlineEngine {
    /// An engine running `policy` under `cfg` (validated).
    pub fn new(
        policy: Box<dyn AllocationPolicy + Send>,
        cfg: OnlineConfig,
    ) -> symbio::Result<Self> {
        cfg.validate().map_err(Error::InvalidConfig)?;
        Ok(OnlineEngine {
            cfg,
            policy,
            groups: HashMap::new(),
            counters: Arc::new(Counters::new()),
            journal: None,
            explanations: false,
        })
    }

    /// Report epoch/remap statistics to `counters` (the daemon passes its
    /// shared ledger so `metrics` replies and engine activity agree).
    pub fn with_counters(mut self, counters: Arc<Counters>) -> Self {
        self.counters = counters;
        self
    }

    /// Journal every state transition through `writer` (crash safety).
    /// Records are written before [`OnlineEngine::ingest`] returns, so
    /// an acknowledged decision is always recoverable. A writer that
    /// fails twice in a row is detached (fail-open): the engine keeps
    /// serving decisions without persistence rather than going down.
    pub fn with_journal(mut self, writer: JournalWriter) -> Self {
        self.journal = Some(writer);
        self
    }

    /// Whether a journal is currently attached (false after fail-open
    /// detachment).
    pub fn journaling(&self) -> bool {
        self.journal.is_some()
    }

    /// Record a per-decision [`Explanation`] alongside each ingest,
    /// retrievable via [`OnlineEngine::explanation`] (the control plane
    /// attaches it to `Map` replies behind a flag).
    pub fn with_explanations(mut self, enabled: bool) -> Self {
        self.explanations = enabled;
        self
    }

    /// Why `group`'s last decision went the way it did (`None` for an
    /// unknown group, before the first ingest, or when the engine runs
    /// with explanations disabled).
    pub fn explanation(&self, group: &str) -> Option<&Explanation> {
        self.groups
            .get(group)
            .and_then(|g| g.last_explanation.as_ref())
    }

    /// The counters this engine reports to.
    pub fn counters(&self) -> &Arc<Counters> {
        &self.counters
    }

    /// The configuration the engine runs under.
    pub fn config(&self) -> &OnlineConfig {
        &self.cfg
    }

    /// Name of the allocation policy in use.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Current mapping of `group` (none before warmup completes or for an
    /// unknown group).
    pub fn mapping(&self, group: &str) -> Option<&Mapping> {
        self.groups.get(group).and_then(|g| g.current.as_ref())
    }

    /// Epochs ingested for `group`.
    pub fn epochs(&self, group: &str) -> u64 {
        self.groups.get(group).map_or(0, |g| g.epochs)
    }

    /// Remaps committed for `group`.
    pub fn remaps(&self, group: &str) -> u64 {
        self.groups.get(group).map_or(0, |g| g.remaps)
    }

    /// Whether `group` is currently quarantined.
    pub fn quarantined(&self, group: &str) -> bool {
        self.groups
            .get(group)
            .is_some_and(|g| g.quarantine.is_some())
    }

    /// Outstanding invalid-snapshot strikes against `group`.
    pub fn strikes(&self, group: &str) -> u32 {
        self.groups.get(group).map_or(0, |g| g.strikes)
    }

    /// Highest acknowledged sequence number of `group`'s stream.
    pub fn last_seq(&self, group: &str) -> Option<u64> {
        self.groups.get(group).and_then(|g| g.last_seq)
    }

    /// Known group names, unordered.
    pub fn group_names(&self) -> Vec<&str> {
        self.groups.keys().map(String::as_str).collect()
    }

    /// The window majority of `group` right now, if any vote exists —
    /// the online analogue of the offline pipeline's post-hoc majority.
    pub fn majority(&self, group: &str) -> Option<Mapping> {
        self.groups
            .get(group)
            .and_then(|g| g.ring.majority())
            .map(|(m, _)| m)
    }

    /// Vote tally of `group`'s window, first-seen order.
    pub fn tally(&self, group: &str) -> Vec<(PartitionKey, u32)> {
        self.groups.get(group).map_or_else(Vec::new, |g| {
            g.ring.tally().into_iter().map(|(k, _, c)| (k, c)).collect()
        })
    }

    /// Serialize the engine's full recoverable state (groups sorted by
    /// name, so equal states serialize identically).
    pub fn state(&self) -> EngineState {
        let mut groups: Vec<GroupRecord> = self
            .groups
            .iter()
            .map(|(name, g)| GroupRecord {
                name: name.clone(),
                window: g
                    .ring
                    .iter()
                    .map(|e| EpochRecord {
                        seq: e.seq,
                        vote: e.mapping.clone(),
                        cores: e.cores,
                        occupancy: e.mean_occupancy,
                    })
                    .collect(),
                current: g.current.clone(),
                epochs: g.epochs,
                remaps: g.remaps,
                last_seq: g.last_seq,
                strikes: g.strikes,
                quarantined: g.quarantine.is_some(),
                clean: g.quarantine.unwrap_or(0),
            })
            .collect();
        groups.sort_by(|a, b| a.name.cmp(&b.name));
        EngineState { groups }
    }

    /// Replace the engine's group state with a recovered one. Windows
    /// longer than the configured ring capacity keep their newest votes
    /// (the ring evicts oldest-first as they are replayed in).
    pub fn restore(&mut self, state: &EngineState) {
        self.groups.clear();
        for gr in &state.groups {
            let mut ring = EpochRing::new(self.cfg.window);
            for e in &gr.window {
                ring.push(Epoch {
                    seq: e.seq,
                    key: e.key(),
                    mapping: e.vote.clone(),
                    cores: e.cores,
                    mean_occupancy: e.occupancy,
                });
            }
            self.groups.insert(
                gr.name.clone(),
                GroupState {
                    ring,
                    current: gr.current.clone(),
                    epochs: gr.epochs,
                    remaps: gr.remaps,
                    last_seq: gr.last_seq,
                    strikes: gr.strikes,
                    quarantine: gr.quarantined.then_some(gr.clean),
                    last_explanation: None,
                },
            );
        }
    }

    /// Serialize one group's recoverable state for a fleet handoff:
    /// everything [`OnlineEngine::state`] would record for the group —
    /// vote window, committed mapping, hysteresis watermarks, quarantine
    /// state — so the receiving backend resumes the stream exactly where
    /// this one stops. `None` for an unknown group.
    pub fn export_group(&self, group: &str) -> Option<GroupRecord> {
        self.groups.get(group).map(|g| GroupRecord {
            name: group.to_string(),
            window: g
                .ring
                .iter()
                .map(|e| EpochRecord {
                    seq: e.seq,
                    vote: e.mapping.clone(),
                    cores: e.cores,
                    occupancy: e.mean_occupancy,
                })
                .collect(),
            current: g.current.clone(),
            epochs: g.epochs,
            remaps: g.remaps,
            last_seq: g.last_seq,
            strikes: g.strikes,
            quarantined: g.quarantine.is_some(),
            clean: g.quarantine.unwrap_or(0),
        })
    }

    /// Install one group's state from a fleet handoff, replacing any
    /// state this engine already holds for the group (the exporter's
    /// view wins: it acknowledged the stream's newest epochs). Windows
    /// longer than the configured ring capacity keep their newest votes,
    /// exactly as [`OnlineEngine::restore`] does. The import is journaled
    /// before this returns, like an ingested epoch.
    pub fn import_group(&mut self, record: &GroupRecord) {
        let mut ring = EpochRing::new(self.cfg.window);
        for e in &record.window {
            ring.push(Epoch {
                seq: e.seq,
                key: e.key(),
                mapping: e.vote.clone(),
                cores: e.cores,
                mean_occupancy: e.occupancy,
            });
        }
        self.groups.insert(
            record.name.clone(),
            GroupState {
                ring,
                current: record.current.clone(),
                epochs: record.epochs,
                remaps: record.remaps,
                last_seq: record.last_seq,
                strikes: record.strikes,
                quarantine: record.quarantined.then_some(record.clean),
                last_explanation: None,
            },
        );
        if self.journal.is_some() {
            self.log(&[JournalRecord::Group(record.clone())]);
            self.commit();
        }
    }

    /// Replay the journal at `path` into this engine, then keep
    /// journaling to it (created if missing), in one read of the file:
    /// windows, committed mappings, hysteresis watermarks and quarantine
    /// states all resume exactly where the previous process stopped.
    /// Replayed frame count lands in the `recovery_replays` counter.
    /// `snapshot_every` is [`JournalWriter::open`]'s checkpoint cadence.
    pub fn recover_journaled(
        &mut self,
        path: &Path,
        snapshot_every: u64,
    ) -> symbio::Result<Recovery> {
        let (writer, recovery) = JournalWriter::recover(path, snapshot_every, self.cfg.window)?;
        self.restore(&recovery.state);
        Counters::add(&self.counters.recovery_replays, recovery.frames);
        Counters::add(&self.counters.journal_bytes, recovery.bytes);
        self.journal = Some(writer);
        Ok(recovery)
    }

    /// Ingest one snapshot and journal what it changed before returning:
    /// [`OnlineEngine::ingest_staged`] then [`OnlineEngine::commit`], a
    /// batch of one.
    pub fn ingest(&mut self, snap: &SigSnapshot) -> symbio::Result<Decision> {
        let decision = self.ingest_staged(snap);
        self.commit();
        decision
    }

    /// Ingest one snapshot: invoke the allocator, slide the vote window,
    /// detect phase changes, and apply majority + hysteresis to decide
    /// whether the group's mapping changes. With a journal attached the
    /// transition records are only staged: the caller must not
    /// acknowledge the decision before [`OnlineEngine::commit`] has
    /// written them (one commit may cover any number of staged ingests).
    ///
    /// Robustness gates run first: an already-acknowledged sequence
    /// number is answered idempotently ([`DecisionReason::Duplicate`]),
    /// an invalid snapshot strikes the group (and trips it into
    /// quarantine at the threshold) before surfacing as
    /// [`Error::Protocol`], and a quarantined group serves its last-good
    /// mapping ([`DecisionReason::Quarantined`]) without tallying until
    /// its clean streak completes.
    pub fn ingest_staged(&mut self, snap: &SigSnapshot) -> symbio::Result<Decision> {
        // Duplicate suppression before anything else: a client retrying
        // a request whose reply was lost must not re-tally the vote (or
        // re-strike the group).
        if let Some(g) = self.groups.get(&snap.group) {
            if g.last_seq.is_some_and(|last| snap.seq <= last) {
                return Ok(Decision {
                    group: snap.group.clone(),
                    seq: snap.seq,
                    mapping: g.current.clone(),
                    changed: false,
                    reason: DecisionReason::Duplicate,
                    gain: 0.0,
                    votes: 0,
                    window: g.ring.len() as u32,
                    domains_changed: Vec::new(),
                });
            }
        }
        if let Err(msg) = snap.validate() {
            return self.strike(&snap.group, msg);
        }

        let cfg = self.cfg;
        let vote = self.policy.allocate(&snap.procs, snap.cores);
        let threads = snap.threads();
        let occ = snap.mean_occupancy();
        let mut records: Vec<JournalRecord> = Vec::new();

        let state = self
            .groups
            .entry(snap.group.clone())
            .or_insert_with(|| GroupState::new(cfg.window));

        // Quarantine gate: serve the last-good mapping and advance the
        // clean streak; only the epoch that completes the streak falls
        // through to normal tallying.
        if let Some(clean) = state.quarantine {
            let clean = clean + 1;
            if clean < cfg.quarantine_clean {
                state.quarantine = Some(clean);
                state.epochs += 1;
                state.last_seq = Some(snap.seq);
                Counters::add(&self.counters.online_epochs, 1);
                let decision = Decision {
                    group: snap.group.clone(),
                    seq: snap.seq,
                    mapping: state.current.clone(),
                    changed: false,
                    reason: DecisionReason::Quarantined,
                    gain: 0.0,
                    votes: 0,
                    window: state.ring.len() as u32,
                    domains_changed: Vec::new(),
                };
                records.push(JournalRecord::Clean {
                    group: snap.group.clone(),
                    seq: snap.seq,
                });
                self.log(&records);
                return Ok(decision);
            }
            state.quarantine = None;
            records.push(JournalRecord::Recovered {
                group: snap.group.clone(),
            });
        }

        state.epochs += 1;
        state.last_seq = Some(snap.seq);
        state.strikes = state.strikes.saturating_sub(1);
        Counters::add(&self.counters.online_epochs, 1);

        // Phase-change detection: when the stream's occupancy drifts far
        // from the window's trailing mean, the retained votes describe a
        // workload that no longer exists — drop them so the re-vote is
        // driven by the new phase (an early re-vote: `min_votes` epochs
        // instead of a full window turnover).
        let mut cleared = false;
        let mut dropped = false;
        if !state.ring.is_empty() {
            let trailing = state.ring.mean_occupancy();
            let drift = (occ - trailing).abs() / trailing.max(1.0);
            if drift > cfg.drift_threshold {
                state.ring.clear();
                cleared = true;
            }
        }
        // A mapping sized for a different thread population can no longer
        // be applied (a process finished or joined): treat it as a phase
        // boundary and let the stream re-elect from scratch.
        if let Some(cur) = &state.current {
            if cur.len() != threads.len() {
                state.current = None;
                state.ring.clear();
                cleared = true;
                dropped = true;
            }
        }
        let phase_change = cleared;

        state.ring.push(Epoch {
            seq: snap.seq,
            key: vote.partition_key(snap.cores),
            mapping: vote.clone(),
            cores: snap.cores,
            mean_occupancy: occ,
        });

        let (candidate, votes) = state.ring.majority().expect("ring just received a vote");
        let window = state.ring.len() as u32;
        let held_reason = if phase_change {
            DecisionReason::PhaseChange
        } else {
            DecisionReason::Held
        };

        let domains = snap.domain_counts();
        let hyst = Hysteresis {
            min_votes: cfg.min_votes,
            switch_cost: cfg.switch_cost,
        };
        let mut domains_changed: Vec<usize> = Vec::new();
        let mut components: Vec<ComponentGain> = Vec::new();
        let (changed, reason, gain) = match &state.current {
            None => {
                if votes >= cfg.min_votes {
                    domains_changed = occupied_domains(&candidate, &domains);
                    state.current = Some(candidate);
                    for &d in &domains_changed {
                        self.counters.bump_domain_remap(d);
                    }
                    (true, DecisionReason::Initial, 0.0)
                } else {
                    (false, DecisionReason::Warmup, 0.0)
                }
            }
            Some(current) if domains.len() <= 1 => {
                if candidate.partition_key(snap.cores) == current.partition_key(snap.cores) {
                    (false, held_reason, 0.0)
                } else {
                    // Migration-cost hysteresis: remap only when the
                    // challenger has real support in the window AND its
                    // predicted symbiosis gain beats the switch cost.
                    let gain = symbio_eval::predicted_gain(
                        cfg.gain_metric,
                        cfg.weighted_gain,
                        &threads,
                        current,
                        &candidate,
                    );
                    let committed = hyst.should_switch(votes, gain);
                    components.push(ComponentGain {
                        domains: vec![0],
                        gain,
                        committed,
                    });
                    if committed {
                        state.current = Some(candidate);
                        state.remaps += 1;
                        Counters::add(&self.counters.online_remaps, 1);
                        self.counters.bump_domain_remap(0);
                        domains_changed = vec![0];
                        (true, DecisionReason::Remap, gain)
                    } else {
                        (false, held_reason, gain)
                    }
                }
            }
            Some(current) => {
                // Per-domain hysteresis: compare the challenger to the
                // incumbent one cache domain at a time, weld domains that
                // trade threads into one component (a cross-domain move is
                // indivisible), gate each component on its own predicted
                // gain, and splice only the winning components into the
                // incumbent — a remap inside one domain never relabels
                // another.
                let ranges = domain_ranges(&domains);
                let changed_domains: Vec<usize> = (0..ranges.len())
                    .filter(|&d| {
                        current.domain_key(ranges[d].clone())
                            != candidate.domain_key(ranges[d].clone())
                    })
                    .collect();
                if changed_domains.is_empty() {
                    (false, held_reason, 0.0)
                } else {
                    let dom_of =
                        |core: usize| ranges.iter().position(|r| r.contains(&core)).unwrap_or(0);
                    // Union-find over domains, welded by moved threads.
                    let mut parent: Vec<usize> = (0..ranges.len()).collect();
                    for tid in 0..candidate.len() {
                        uf_union(
                            &mut parent,
                            dom_of(current.core_of(tid)),
                            dom_of(candidate.core_of(tid)),
                        );
                    }
                    let root: Vec<usize> =
                        (0..ranges.len()).map(|d| uf_find(&mut parent, d)).collect();
                    let mut welded: Vec<(usize, Vec<usize>)> = Vec::new();
                    for &d in &changed_domains {
                        match welded.iter_mut().find(|(r, _)| *r == root[d]) {
                            Some((_, doms)) => doms.push(d),
                            None => welded.push((root[d], vec![d])),
                        }
                    }
                    let mut spliced: Vec<usize> =
                        (0..current.len()).map(|t| current.core_of(t)).collect();
                    let mut best_gain: f64 = 0.0;
                    for (comp_root, doms) in welded {
                        let include =
                            |tid: usize| root[dom_of(candidate.core_of(tid))] == comp_root;
                        let gain = symbio_eval::predicted_gain_multidomain(
                            cfg.gain_metric,
                            cfg.weighted_gain,
                            &threads,
                            &ranges,
                            current,
                            &candidate,
                            &include,
                        );
                        best_gain = best_gain.max(gain);
                        let committed = hyst.should_switch(votes, gain);
                        components.push(ComponentGain {
                            domains: doms.clone(),
                            gain,
                            committed,
                        });
                        if committed {
                            for (tid, c) in spliced.iter_mut().enumerate() {
                                if include(tid) {
                                    *c = candidate.core_of(tid);
                                }
                            }
                            domains_changed.extend(doms);
                        }
                    }
                    if domains_changed.is_empty() {
                        (false, held_reason, best_gain)
                    } else {
                        domains_changed.sort_unstable();
                        state.current = Some(Mapping::new(spliced));
                        state.remaps += 1;
                        Counters::add(&self.counters.online_remaps, 1);
                        for &d in &domains_changed {
                            self.counters.bump_domain_remap(d);
                        }
                        (true, DecisionReason::Remap, best_gain)
                    }
                }
            }
        };

        let decision = Decision {
            group: snap.group.clone(),
            seq: snap.seq,
            mapping: state.current.clone(),
            changed,
            reason,
            gain,
            votes,
            window,
            domains_changed,
        };
        if self.explanations {
            state.last_explanation = Some(Explanation {
                seq: snap.seq,
                reason: format!("{reason:?}"),
                votes,
                window,
                gain,
                switch_cost: cfg.switch_cost,
                margin: hyst.margin(gain),
                components,
                domains_changed: decision.domains_changed.clone(),
            });
            Counters::add(&self.counters.explanations_emitted, 1);
        }
        records.push(JournalRecord::Epoch {
            group: snap.group.clone(),
            seq: snap.seq,
            vote,
            cores: snap.cores,
            occupancy: occ,
            cleared,
            dropped,
            committed: changed.then(|| decision.mapping.clone().expect("committed mapping")),
        });
        self.log(&records);
        Ok(decision)
    }

    /// Answer a what-if query: "given this snapshot (possibly carrying
    /// extra threads that are not in the live stream), what mapping would
    /// the engine predict, and how much interference does it buy?" —
    /// *without committing anything*.
    ///
    /// Unlike [`OnlineEngine::ingest`] this touches no group state: no
    /// vote is tallied, no sequence number acknowledged, no strike or
    /// quarantine transition taken, and nothing is journaled. The one
    /// caveat is the allocation policy itself: a stateful policy (e.g.
    /// pairwise attribution) folds every invocation into its own
    /// estimates, exactly as the offline profiling loop's re-invocations
    /// do — the engine's recoverable state is untouched either way.
    ///
    /// Semantics:
    ///
    /// * the snapshot describes the group's current thread population and
    ///   an incumbent mapping exists → the challenger is gated by the
    ///   same hysteresis margin `ingest` would apply: the answer is the
    ///   incumbent (delta = the challenger's sub-threshold gain) or the
    ///   challenger (delta = its winning gain). A stable stream therefore
    ///   gets back exactly the mapping `Map` serves.
    /// * the population differs (the "K extra threads" case) or the group
    ///   is unknown/warming up → the answer is the policy's fresh
    ///   placement, scored against a round-robin baseline (the default
    ///   schedule the threads would otherwise start under). On
    ///   multi-domain machines this flat score is advisory.
    pub fn what_if(&mut self, snap: &SigSnapshot) -> symbio::Result<WhatIfAnswer> {
        if let Err(msg) = snap.validate() {
            return Err(Error::Validation(msg));
        }
        let cfg = self.cfg;
        let vote = self.policy.allocate(&snap.procs, snap.cores);
        let threads = snap.threads();
        let incumbent = self
            .groups
            .get(&snap.group)
            .and_then(|g| g.current.as_ref());
        if let Some(cur) = incumbent {
            if cur.len() == vote.len() {
                if vote.partition_key(snap.cores) == cur.partition_key(snap.cores) {
                    return Ok(WhatIfAnswer {
                        group: snap.group.clone(),
                        mapping: cur.clone(),
                        delta: 0.0,
                        held: true,
                    });
                }
                let gain = symbio_eval::predicted_gain(
                    cfg.gain_metric,
                    cfg.weighted_gain,
                    &threads,
                    cur,
                    &vote,
                );
                return Ok(if gain > cfg.switch_cost {
                    WhatIfAnswer {
                        group: snap.group.clone(),
                        mapping: vote,
                        delta: gain,
                        held: false,
                    }
                } else {
                    WhatIfAnswer {
                        group: snap.group.clone(),
                        mapping: cur.clone(),
                        delta: gain,
                        held: true,
                    }
                });
            }
        }
        let baseline = Mapping::round_robin(vote.len(), snap.cores);
        let delta = symbio_eval::predicted_gain(
            cfg.gain_metric,
            cfg.weighted_gain,
            &threads,
            &baseline,
            &vote,
        );
        Ok(WhatIfAnswer {
            group: snap.group.clone(),
            mapping: vote,
            delta,
            held: false,
        })
    }

    /// Record an invalid snapshot against `group`: one strike (or a
    /// clean-streak reset if already quarantined), a quarantine trip at
    /// the threshold, and the protocol error surfaced to the caller.
    fn strike(&mut self, group: &str, msg: String) -> symbio::Result<Decision> {
        let cfg = self.cfg;
        let state = self
            .groups
            .entry(group.to_string())
            .or_insert_with(|| GroupState::new(cfg.window));
        let mut records = vec![JournalRecord::Strike {
            group: group.to_string(),
        }];
        if state.quarantine.is_some() {
            // Invalid input while quarantined: the stream has not proven
            // itself — restart the clean streak (no strike stacking).
            state.quarantine = Some(0);
        } else {
            state.strikes += 1;
            if state.strikes >= cfg.quarantine_strikes {
                state.strikes = 0;
                state.ring.clear();
                state.quarantine = Some(0);
                Counters::add(&self.counters.quarantine_trips, 1);
                records.push(JournalRecord::Trip {
                    group: group.to_string(),
                });
            }
        }
        self.log(&records);
        Err(Error::Protocol(msg))
    }

    /// Stage `records` on the attached journal (no-op when detached);
    /// [`OnlineEngine::commit`] writes them.
    fn log(&mut self, records: &[JournalRecord]) {
        let Some(writer) = self.journal.as_mut() else {
            return;
        };
        for record in records {
            if let Err(e) = writer.append(record) {
                eprintln!(
                    "symbio-online: journal record for {} did not encode ({e}); \
                     detaching journal, decisions continue unpersisted",
                    writer.path().display()
                );
                self.journal = None;
                return;
            }
        }
    }

    /// Write everything staged since the last commit to the attached
    /// journal (no-op when detached or nothing is staged), followed by a
    /// full-state checkpoint when one is due. The write is retried once;
    /// a second failure detaches the journal (fail-open) so persistence
    /// trouble never takes down the decision path.
    pub fn commit(&mut self) {
        let Some(mut writer) = self.journal.take() else {
            return;
        };
        let checkpoint = if writer.snapshot_due() {
            writer.write_snapshot(self.state()).map(drop)
        } else {
            Ok(())
        };
        match checkpoint.and_then(|()| writer.commit().or_else(|_| writer.commit())) {
            Ok(bytes) => {
                Counters::add(&self.counters.journal_bytes, bytes);
                self.journal = Some(writer);
            }
            Err(e) => eprintln!(
                "symbio-online: journal write to {} failed twice ({e}); \
                 detaching journal, decisions continue unpersisted",
                writer.path().display()
            ),
        }
    }
}

// The interference/gain model itself lives in `symbio-eval` (the unified
// evaluation engine shared with the offline sweep and the allocators);
// this module only drives it with windowed votes and hysteresis.
