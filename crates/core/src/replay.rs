//! The two-phase engine: a behavioral pass that records an [`EventTrace`],
//! and a timing replay that reprices it under any clock/memory setting.
//!
//! The paper's methodology holds a cache *organization* fixed and
//! re-evaluates it across cycle times and memory speeds (the §3 speed–size
//! grid crosses 11 sizes with 16 cycle times; the §5 grids cross block
//! sizes with memory latencies). Direct simulation re-runs the whole trace
//! for every grid cell even though the cache *behavior* — hits, misses,
//! victims, TLB walks — is identical along the whole timing axis. The
//! two-phase pipeline factors that redundancy out:
//!
//! * **Phase A** ([`BehavioralSim`]): run the trace once per organization
//!   through the first-level caches and MMU only — no clock, no memory —
//!   and emit a compact [`EventTrace`]. Runs of all-hit couplets collapse
//!   into counters, so the trace length is proportional to the *miss and
//!   store-downstream traffic*, not the reference count.
//! * **Phase B** ([`replay`]): walk the events under a concrete
//!   [`SystemConfig`] through one `Replayer` per distinct machine: the
//!   clock plus everything below the first level (write buffers,
//!   mid-level caches, main memory).
//!
//! This is the only pricing engine. [`Simulator`](crate::Simulator) runs
//! the same behavioral pass but hands each op straight to a live
//! `Replayer` instead of storing it, so direct simulation and repricing a
//! stored trace agree by construction. Timing itself is checked against
//! an independent cycle-stepping oracle (`tests/reference_engine.rs`) and
//! pinned golden results (`crates/core/tests/golden_results.rs`).
//!
//! ```
//! use cachetime::{replay, simulate, BehavioralSim, SystemConfig};
//! use cachetime_trace::catalog;
//! use cachetime_types::CycleTime;
//!
//! let base = SystemConfig::paper_default()?;
//! let trace = catalog::savec(0.01).generate();
//! let events = BehavioralSim::new(&base.organization()).record(&trace);
//! for ct in [20u32, 40, 80] {
//!     let config = SystemConfig::builder()
//!         .cycle_time(CycleTime::from_ns(ct)?)
//!         .build()?;
//!     let repriced = replay(&events, &config).expect("same organization");
//!     assert_eq!(repriced, simulate(&config, &trace));
//! }
//! # Ok::<(), cachetime_types::ConfigError>(())
//! ```

use crate::hierarchy::Downstream;
use crate::result::{CoupletHistogram, SimResult};
use crate::stream::{LoneReadMiss, Op, OpReader, OpWriter, Ops, Shape};
use crate::system::{FillPolicy, LevelTwoConfig, OrgConfig, SystemConfig, TimingConfig};
use cachetime_cache::{Cache, CacheStats, ReadOutcome, WriteOutcome};
use cachetime_mem::MemoryCycles;
use cachetime_mmu::{Mmu, MmuStats};
use cachetime_trace::Trace;
use cachetime_types::{
    AccessEvent, ConfigError, CoupletClass, Cycles, EventOp, MemRef, RefEvent, VictimBlock,
};

/// A recorded behavioral pass: the timing-free events of one
/// `(organization, trace)` pairing, plus the behavioral statistics that no
/// replay can change (first-level cache and MMU counters, reference and
/// couplet counts).
///
/// Valid for repricing under any timing half — cycle time, memory
/// parameters, write buffers, mid-level caches, hit costs, issue and fill
/// policies — because nothing above the write buffers depends on the
/// clock. Produced by [`BehavioralSim::record`], consumed by [`replay`].
#[derive(Debug, Clone, PartialEq)]
pub struct EventTrace {
    org: OrgConfig,
    /// The recorded ops as one compact stream (see [`crate::stream`]):
    /// the same bytes the codec carries, exactly sized.
    ops: Box<[u8]>,
    op_count: usize,
    behavior: Behavior,
}

/// What a behavioral pass counted besides its ops: the statistics no
/// replay can change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Behavior {
    /// References in the measured (post-warm-start) window.
    refs: u64,
    /// Total couplets over the whole trace.
    couplets: u64,
    l1i: CacheStats,
    l1d: CacheStats,
    mmu: Option<MmuStats>,
}

impl EventTrace {
    /// The organization this trace was recorded under. [`replay`] rejects
    /// configurations whose organization half differs.
    pub fn organization(&self) -> &OrgConfig {
        &self.org
    }

    /// The recorded event stream, decoded one op at a time.
    pub fn ops(&self) -> Ops<'_> {
        Ops::new(&self.ops, self.op_count, &self.org)
    }

    /// The op stream's bytes ([`crate::codec`] only).
    pub(crate) fn op_bytes(&self) -> &[u8] {
        &self.ops
    }

    /// References in the measured window.
    pub fn refs(&self) -> u64 {
        self.behavior.refs
    }

    /// Total couplets over the whole trace (warm-up included).
    pub fn couplets(&self) -> u64 {
        self.behavior.couplets
    }

    /// First-level instruction-cache statistics of the measured window.
    pub fn l1i_stats(&self) -> &CacheStats {
        &self.behavior.l1i
    }

    /// First-level data-cache statistics of the measured window.
    pub fn l1d_stats(&self) -> &CacheStats {
        &self.behavior.l1d
    }

    /// Size of this trace in bytes: the struct plus the op stream, its one
    /// heap allocation (exactly sized), so a byte-budgeted store (the
    /// simulation server's LRU) accounts for what eviction would actually
    /// reclaim.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.ops.len()
    }

    /// The compression the run-length encoding achieved: recorded ops per
    /// couplet (1.0 = nothing collapsed; paper-like hit ratios give a few
    /// percent).
    pub fn ops_per_couplet(&self) -> f64 {
        if self.behavior.couplets == 0 {
            0.0
        } else {
            self.op_count as f64 / self.behavior.couplets as f64
        }
    }

    /// MMU statistics of the measured window, if the organization has a
    /// translation layer.
    pub fn mmu_stats(&self) -> Option<&MmuStats> {
        self.behavior.mmu.as_ref()
    }

    /// Reassembles a trace from its decoded parts ([`crate::codec`] only).
    ///
    /// Callers must provide a stream of `op_count` ops that
    /// [`crate::stream::validate`] accepted under `org`; the codec's
    /// round-trip tests pin that the result is bit-identical to the
    /// original recording.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_raw_parts(
        org: OrgConfig,
        ops: Box<[u8]>,
        op_count: usize,
        refs: u64,
        couplets: u64,
        l1i: CacheStats,
        l1d: CacheStats,
        mmu: Option<MmuStats>,
    ) -> Self {
        EventTrace {
            org,
            ops,
            op_count,
            behavior: Behavior {
                refs,
                couplets,
                l1i,
                l1d,
                mmu,
            },
        }
    }
}

/// Phase A: the timing-free behavioral simulator.
///
/// Runs the first-level caches and the (optional) MMU over a trace in
/// couplet order and records what happened instead of when.
#[derive(Debug, Clone)]
pub struct BehavioralSim {
    org: OrgConfig,
    l1i: Cache,
    l1d: Cache,
    mmu: Option<Mmu>,
    /// Whether the machine still holds power-on state (nothing recorded).
    cold: bool,
}

impl BehavioralSim {
    /// Builds a cold behavioral machine for one organization.
    pub fn new(org: &OrgConfig) -> Self {
        BehavioralSim {
            org: *org,
            l1i: Cache::new(*org.l1i()),
            l1d: Cache::new(*org.l1d()),
            mmu: org.translation().map(|t| Mmu::new(*t)),
            cold: true,
        }
    }

    /// Records the behavioral events of `trace` from power-on state.
    ///
    /// A machine that has already recorded is reset first, so repeated
    /// `record` calls are independent.
    pub fn record(&mut self, trace: &Trace) -> EventTrace {
        self.record_refs(trace.refs().iter().copied(), trace.warm_start())
    }

    /// Streaming variant of [`record`](Self::record): consumes references
    /// from an iterator. `warm_start` is the index of the first measured
    /// reference.
    pub fn record_refs(
        &mut self,
        refs: impl IntoIterator<Item = MemRef>,
        warm_start: usize,
    ) -> EventTrace {
        let obs = cachetime_obs::global();
        let mut span = obs.span("core_record");
        let refs = refs.into_iter();
        // Hit runs collapse most couplets and an op takes a few bytes, so
        // the stream lands well under one byte per two references on
        // realistic traces; start there to keep the push path off the
        // reallocation slow path.
        let mut ops = OpWriter::new(Shape::of(&self.org), refs.size_hint().0 / 2);
        let (seen, behavior) = self.drive(refs, warm_start, |op| ops.push(op));

        // Phase accounting: the span's duration histogram plus raw
        // totals give events/sec without touching the record hot loop
        // (one lookup + a few atomic adds per *call*, not per ref).
        span.set_work(seen as u64);
        obs.counter("cachetime_record_refs_total", &[])
            .add(seen as u64);
        obs.counter("cachetime_record_ops_total", &[])
            .add(ops.len() as u64);

        let (ops, op_count) = ops.finish();
        EventTrace {
            org: self.org,
            ops,
            op_count,
            behavior,
        }
    }

    /// The behavioral pass itself: runs `refs` from power-on state through
    /// the first-level caches and MMU in couplet order and hands each op
    /// to `sink` as soon as it is complete — to an [`OpWriter`] when
    /// recording, to a live [`Replayer`] when simulating directly, which
    /// then never holds more than one op. Returns the references consumed
    /// and the behavioral statistics.
    ///
    /// A machine that has already run is reset first, so repeated passes
    /// are independent.
    pub(crate) fn drive(
        &mut self,
        refs: impl IntoIterator<Item = MemRef>,
        warm_start: usize,
        mut sink: impl FnMut(&EventOp),
    ) -> (usize, Behavior) {
        // Building the L1 frame arrays is a measurable share of a short
        // pass (megabytes at the largest sizes), so a fresh machine is
        // used as is.
        if !self.cold {
            *self = BehavioralSim::new(&self.org);
        }
        self.cold = false;
        let split = self.org.is_split();
        let mut refs = refs.into_iter().peekable();

        let mut i = 0usize;
        let mut couplets = 0u64;
        let mut warmed = warm_start == 0;
        // The open hit run accumulates in a register-resident array and is
        // handed on only when a non-trivial couplet (or the warm boundary)
        // ends the stretch — all-hit couplets never reach the sink.
        let mut pending = [0u32; CoupletClass::COUNT];
        while let Some(a) = refs.next() {
            if !warmed && i >= warm_start {
                warmed = true;
                flush_hits(&mut sink, &mut pending);
                sink(&EventOp::WarmBoundary);
                self.l1i.reset_stats();
                self.l1d.reset_stats();
                if let Some(mmu) = &mut self.mmu {
                    mmu.reset_stats();
                }
            }
            // Pair an ifetch with the immediately following data reference
            // of the same process — "instruction and data references in
            // the trace paired up without reordering any of the
            // references".
            let pairable = split
                && a.kind == cachetime_types::AccessKind::IFetch
                && refs
                    .peek()
                    .is_some_and(|d| d.kind.is_data() && d.pid == a.pid);
            if pairable {
                let d = refs.next().expect("peeked");
                self.drive_couplet(&mut sink, &mut pending, Some(a), Some(d));
                i += 2;
            } else if a.kind.is_data() {
                self.drive_couplet(&mut sink, &mut pending, None, Some(a));
                i += 1;
            } else {
                self.drive_couplet(&mut sink, &mut pending, Some(a), None);
                i += 1;
            }
            couplets += 1;
        }
        flush_hits(&mut sink, &mut pending);
        let behavior = Behavior {
            refs: (i - warm_start.min(i)) as u64,
            couplets,
            l1i: *self.l1i.stats(),
            l1d: *self.l1d.stats(),
            mmu: self.mmu.as_ref().map(|m| *m.stats()),
        };
        (i, behavior)
    }

    /// Runs one couplet through the behavioral state machines and hands
    /// on the resulting op (extending the open hit run where possible).
    fn drive_couplet(
        &mut self,
        sink: &mut impl FnMut(&EventOp),
        pending: &mut [u32; CoupletClass::COUNT],
        iref: Option<MemRef>,
        dref: Option<MemRef>,
    ) {
        let ie = iref.map(|r| {
            let (r, walk_cycles) = self.translate(r);
            let access = if self.org.is_split() {
                Self::read_event(&mut self.l1i, r)
            } else {
                Self::read_event(&mut self.l1d, r)
            };
            RefEvent {
                addr: r.addr,
                pid: r.pid,
                walk_cycles,
                access,
            }
        });
        let de = dref.map(|r| {
            let (r, walk_cycles) = self.translate(r);
            let access = if r.kind == cachetime_types::AccessKind::Store {
                Self::write_event(&mut self.l1d, r)
            } else {
                Self::read_event(&mut self.l1d, r)
            };
            RefEvent {
                addr: r.addr,
                pid: r.pid,
                walk_cycles,
                access,
            }
        });

        match trivial_class(ie.as_ref(), de.as_ref()) {
            Some(class) => {
                let i = class.index();
                if pending[i] == u32::MAX {
                    flush_hits(sink, pending);
                }
                pending[i] += 1;
            }
            None => {
                flush_hits(sink, pending);
                sink(&EventOp::Couplet { iref: ie, dref: de });
            }
        }
    }

    /// Runs a reference through the MMU if the hierarchy is physically
    /// addressed: returns the (possibly translated) reference and the
    /// cycles the translation adds (a TLB miss costs the walk penalty).
    fn translate(&mut self, r: MemRef) -> (MemRef, u64) {
        match &mut self.mmu {
            None => (r, 0),
            Some(mmu) => {
                let (phys, hit) = mmu.translate(r.addr, r.pid);
                let penalty = if hit { 0 } else { mmu.miss_penalty() };
                (MemRef::new(phys, r.kind, r.pid), penalty)
            }
        }
    }

    fn read_event(cache: &mut Cache, r: MemRef) -> AccessEvent {
        let fetch_words = cache.config().fetch().words();
        let block_words = cache.config().block().words();
        match cache.read(r.addr, r.pid) {
            ReadOutcome::Hit => AccessEvent::ReadHit,
            ReadOutcome::SlowHit => AccessEvent::ReadSlowHit,
            ReadOutcome::VictimHit => AccessEvent::ReadVictimHit,
            ReadOutcome::Miss { fill_words, victim } => AccessEvent::ReadMiss {
                fetch_start: cachetime_types::WordAddr::new(
                    r.addr.value() & !(fetch_words as u64 - 1),
                ),
                fill_words,
                victim: victim.map(|ev| VictimBlock {
                    addr: ev.addr.first_word(block_words),
                    words: ev.words,
                }),
            },
        }
    }

    fn write_event(cache: &mut Cache, r: MemRef) -> AccessEvent {
        let block_words = cache.config().block().words();
        match cache.write(r.addr, r.pid) {
            WriteOutcome::Hit { through } => AccessEvent::WriteHit { through },
            WriteOutcome::VictimHit { through } => AccessEvent::WriteVictimHit { through },
            WriteOutcome::MissNoAllocate => AccessEvent::WriteMissAround,
            WriteOutcome::MissAllocate {
                fill_words,
                victim,
                through,
            } => AccessEvent::WriteMissAllocate {
                fetch_start: cachetime_types::WordAddr::new(
                    r.addr.value() & !(fill_words as u64 - 1),
                ),
                fill_words,
                victim: victim.map(|ev| VictimBlock {
                    addr: ev.addr.first_word(block_words),
                    words: ev.words,
                }),
                through,
            },
        }
    }
}

/// Closes the open hit run, if any, by handing it to `sink`.
#[inline]
fn flush_hits(sink: &mut impl FnMut(&EventOp), pending: &mut [u32; CoupletClass::COUNT]) {
    if pending.iter().any(|&c| c != 0) {
        sink(&EventOp::HitRun { counts: *pending });
        *pending = [0u32; CoupletClass::COUNT];
    }
}

/// Classifies a couplet as repriceable-in-O(1): every present half must be
/// a plain hit (no walk, nothing downstream). Returns its shape, or `None`
/// if the couplet must be replayed event by event.
fn trivial_class(ie: Option<&RefEvent>, de: Option<&RefEvent>) -> Option<CoupletClass> {
    if let Some(e) = ie {
        if e.walk_cycles != 0 || !matches!(e.access, AccessEvent::ReadHit) {
            return None;
        }
    }
    match de {
        None => ie.map(|_| CoupletClass::Ifetch),
        Some(e) => {
            if e.walk_cycles != 0 {
                return None;
            }
            match e.access {
                AccessEvent::ReadHit => Some(if ie.is_some() {
                    CoupletClass::IfetchLoad
                } else {
                    CoupletClass::Load
                }),
                AccessEvent::WriteHit { through: false } => Some(if ie.is_some() {
                    CoupletClass::IfetchStore
                } else {
                    CoupletClass::Store
                }),
                _ => None,
            }
        }
    }
}

/// Phase B: reprices an [`EventTrace`] under `config`'s timing half.
///
/// The organization halves must match — the events were recorded by those
/// exact cache state machines. Everything in the timing half is free to
/// differ from whatever the trace was recorded alongside: cycle time,
/// memory parameters, write-buffer depths, mid-level caches, hit costs,
/// dual issue, and fill policy.
///
/// # Errors
///
/// [`ConfigError::Inconsistent`] if `config.organization()` differs from
/// [`EventTrace::organization`].
pub fn replay(events: &EventTrace, config: &SystemConfig) -> Result<SimResult, ConfigError> {
    let mut results = replay_many(events, std::slice::from_ref(config))?;
    Ok(results.pop().expect("one result per config"))
}

/// Reprices an [`EventTrace`] under several timing settings in one walk of
/// the event stream.
///
/// Equivalent to calling [`replay`] once per configuration, but the ops —
/// the bulk of the working set for a long trace — stream through the
/// cache hierarchy once instead of once per timing point, which is where
/// most of a repricing sweep's wall time goes. Configurations whose memory
/// delays quantize to the same cycle counts, and that agree on every other
/// timing parameter, differ only in `cycle_time` and share one replay: the
/// paper's 16-point cycle-time axis prices on 9 machines. Every other
/// configuration gets its own independent downstream machine, so results
/// are bit-identical to the one-at-a-time path.
///
/// # Errors
///
/// [`ConfigError::Inconsistent`] if any configuration's organization half
/// differs from [`EventTrace::organization`].
pub fn replay_many(
    events: &EventTrace,
    configs: &[SystemConfig],
) -> Result<Vec<SimResult>, ConfigError> {
    for config in configs {
        if config.organization() != events.org {
            return Err(ConfigError::Inconsistent {
                what: "replay configuration's organization differs from the recorded event trace",
            });
        }
    }
    let obs = cachetime_obs::global();
    let mut span = obs.span("core_replay");
    span.set_work(events.refs() * configs.len() as u64);
    // `machine_of[k]` is the replayer pricing `configs[k]`. A single
    // config has nothing to share and skips the grouping.
    let mut rs: Vec<Replayer> = Vec::with_capacity(configs.len());
    let mut machine_of = Vec::new();
    if let [config] = configs {
        rs.push(Replayer::new(config));
    } else {
        let mut machines: Vec<Machine> = Vec::with_capacity(configs.len());
        machine_of = configs
            .iter()
            .map(|config| {
                let m = Machine::of(config);
                machines.iter().position(|x| *x == m).unwrap_or_else(|| {
                    machines.push(m);
                    rs.push(Replayer::new(config));
                    rs.len() - 1
                })
            })
            .collect();
    }
    obs.counter("cachetime_replay_refs_total", &[])
        .add(events.refs() * configs.len() as u64);
    obs.counter("cachetime_replay_configs_total", &[])
        .add(configs.len() as u64);
    obs.counter("cachetime_replay_machines_total", &[])
        .add(rs.len() as u64);
    // On the sweeps this call exists for, only the *memory* quantization
    // varies between configs — cache hits cost processor cycles, so every
    // replayer prices a hit run identically. Resolve the per-class costs
    // and histogram buckets once up front and reprice each run with one
    // pass over the counts instead of one per replayer. That pays only
    // when there is more than one replayer to share it: a single config
    // takes the branchless per-replayer step.
    let shared_hits = rs.len() > 1 && rs.iter().all(|r| r.hit_costs == rs[0].hit_costs);
    let hit_costs = rs.first().map(|r| r.hit_costs).unwrap_or_default();
    let hit_buckets = hit_costs.map(CoupletHistogram::bucket_of);
    // Each op is decoded once, straight off the stream, for all replayers.
    let mut ops = OpReader::new(&events.ops, &events.org);
    let shape = Shape::of(&events.org);
    for _ in 0..events.op_count {
        match ops.next_valid() {
            Op::HitRun(counts) => {
                if shared_hits {
                    let mut d_now = 0u64;
                    let mut n_total = 0u64;
                    // At most `COUNT` distinct (bucket, count) pairs; with
                    // 1–2-cycle hits usually just one.
                    let mut pairs = [(0usize, 0u64); CoupletClass::COUNT];
                    let mut np = 0;
                    for i in 0..CoupletClass::COUNT {
                        let n = counts[i] as u64;
                        if n == 0 {
                            continue;
                        }
                        d_now += hit_costs[i] * n;
                        n_total += n;
                        match pairs[..np].iter_mut().find(|p| p.0 == hit_buckets[i]) {
                            Some(p) => p.1 += n,
                            None => {
                                pairs[np] = (hit_buckets[i], n);
                                np += 1;
                            }
                        }
                    }
                    for r in &mut rs {
                        r.now += d_now;
                        r.couplets += n_total;
                        for &(b, n) in &pairs[..np] {
                            r.latency.add_to_bucket(b, n);
                        }
                    }
                } else {
                    for r in &mut rs {
                        r.step_hit_run(&counts);
                    }
                }
            }
            // A lone, walk-free read miss is the commonest recorded
            // couplet; resolve that shape once here instead of once per
            // replayer.
            Op::Couplet(i, d) => match shape.lone_read_miss(i, d) {
                Some(m) => {
                    for r in &mut rs {
                        r.step_lone_read_miss(&m);
                    }
                }
                None => {
                    let i = i.map(|h| shape.event(h, true));
                    let d = d.map(|h| shape.event(h, false));
                    for r in &mut rs {
                        r.step_couplet(i.as_ref(), d.as_ref());
                    }
                }
            },
            Op::WarmBoundary => {
                for r in &mut rs {
                    r.warm_reset();
                }
            }
        }
    }
    Ok(configs
        .iter()
        .enumerate()
        .map(|(k, config)| {
            rs[machine_of.get(k).copied().unwrap_or(k)].result(&events.behavior, config)
        })
        .collect())
}

/// The cycle-count machine a configuration replays as: its timing half
/// with the clock set aside, plus the memory delays quantized under that
/// clock.
///
/// `cycle_time` reaches replay only through `MemoryTiming::new` (which
/// `Downstream::new` calls via `MemorySystem::new`); every other timing
/// parameter is already in cycles. So configurations with equal machines
/// replay to results that differ only in [`SimResult::cycle_time`], which
/// [`Replayer::result`] fills in per configuration. The memory
/// configuration stays in the signature (inside [`MemoryCycles`]), so two
/// different memories never merge.
#[derive(Debug, PartialEq, Eq)]
struct Machine {
    l2: Option<LevelTwoConfig>,
    l3: Option<LevelTwoConfig>,
    memory: MemoryCycles,
    read_hit_cycles: u64,
    write_hit_cycles: u64,
    dual_issue: bool,
    fill_policy: FillPolicy,
    way_slow_hit_cycles: u64,
    victim_swap_cycles: u64,
}

impl Machine {
    fn of(config: &SystemConfig) -> Self {
        // Exhaustive on purpose: a new timing parameter does not compile
        // here until it has a place in the signature.
        let TimingConfig {
            cycle_time,
            l2,
            l3,
            memory,
            read_hit_cycles,
            write_hit_cycles,
            dual_issue,
            fill_policy,
            way_slow_hit_cycles,
            victim_swap_cycles,
        } = config.timing();
        Machine {
            l2,
            l3,
            memory: MemoryCycles::new(&memory, cycle_time),
            read_hit_cycles,
            write_hit_cycles,
            dual_issue,
            fill_policy,
            way_slow_hit_cycles,
            victim_swap_cycles,
        }
    }
}

/// Convenience: Phase A + Phase B in one call. Equivalent to
/// [`simulate`](crate::simulate) but through the two-phase pipeline; the
/// payoff comes from calling [`BehavioralSim::record`] once and
/// [`replay`] many times instead.
pub fn simulate_two_phase(config: &SystemConfig, trace: &Trace) -> SimResult {
    let events = BehavioralSim::new(&config.organization()).record(trace);
    replay(&events, config).expect("organization matches by construction")
}

/// The timing state of one machine: the clock and everything below L1.
/// It prices ops whether they come off a stored stream ([`replay_many`])
/// or straight from a behavioral pass ([`Simulator`](crate::Simulator)).
///
/// The timing parameters are copied out of the [`SystemConfig`] once at
/// construction — replay visits tens of ops per couplet-equivalent of
/// work, so the hot loop should touch nothing but local state.
pub(crate) struct Replayer {
    down: Downstream,
    now: u64,
    couplets: u64,
    warm_cycle: u64,
    warm_couplets: u64,
    stall_cycles: u64,
    latency: CoupletHistogram,
    read_hit: u64,
    write_hit: u64,
    way_slow_hit: u64,
    victim_swap: u64,
    dual_issue: bool,
    fill_policy: FillPolicy,
    /// Cycles per all-hit couplet, indexed by [`CoupletClass::index`].
    hit_costs: [u64; CoupletClass::COUNT],
}

impl Replayer {
    pub(crate) fn new(config: &SystemConfig) -> Self {
        let rh = config.read_hit_cycles();
        let wh = config.write_hit_cycles();
        let dual = config.dual_issue();
        let mut hit_costs = [0u64; CoupletClass::COUNT];
        for class in CoupletClass::ALL {
            hit_costs[class.index()] = match class {
                CoupletClass::Ifetch | CoupletClass::Load => rh,
                CoupletClass::Store => wh,
                CoupletClass::IfetchLoad => {
                    if dual {
                        rh
                    } else {
                        rh + rh
                    }
                }
                CoupletClass::IfetchStore => {
                    if dual {
                        rh.max(wh)
                    } else {
                        rh + wh
                    }
                }
            };
        }
        Replayer {
            down: Downstream::new(config),
            now: 0,
            couplets: 0,
            warm_cycle: 0,
            warm_couplets: 0,
            stall_cycles: 0,
            latency: CoupletHistogram::default(),
            read_hit: rh,
            write_hit: wh,
            way_slow_hit: config.way_slow_hit_cycles(),
            victim_swap: config.victim_swap_cycles(),
            dual_issue: dual,
            fill_policy: config.fill_policy(),
            hit_costs,
        }
    }

    /// Assembles the [`SimResult`] of a finished replay of a pass with
    /// these behavioral statistics.
    pub(crate) fn result(&self, behavior: &Behavior, config: &SystemConfig) -> SimResult {
        SimResult {
            cycle_time: config.cycle_time(),
            cycles: Cycles(self.now - self.warm_cycle),
            refs: behavior.refs,
            couplets: self.couplets - self.warm_couplets,
            l1i: behavior.l1i,
            l1d: behavior.l1d,
            l2: self.down.l2_stats(),
            l3: self.down.l3_stats(),
            mem: *self.down.mem_stats(),
            mmu: behavior.mmu,
            latency: self.latency,
            stall_cycles: Cycles(self.stall_cycles),
        }
    }

    /// Prices one op as the behavioral pass hands it on.
    pub(crate) fn step(&mut self, op: &EventOp) {
        match op {
            EventOp::HitRun { counts } => self.step_hit_run(counts),
            EventOp::Couplet { iref, dref } => self.step_couplet(iref.as_ref(), dref.as_ref()),
            EventOp::WarmBoundary => self.warm_reset(),
        }
    }

    /// The warm-start boundary: timing statistics restart here (the
    /// behavioral counters were reset in Phase A).
    fn warm_reset(&mut self) {
        self.warm_cycle = self.now;
        self.warm_couplets = self.couplets;
        self.down.reset_stats();
        self.latency = CoupletHistogram::default();
        self.stall_cycles = 0;
    }

    /// Reprices a stretch of all-hit couplets in O(classes). Hit-only
    /// couplets never touch downstream state and complete in exactly their
    /// ideal time, so they advance the clock linearly with zero stall — in
    /// any order, which is why per-class counts suffice.
    #[inline]
    fn step_hit_run(&mut self, counts: &[u32; CoupletClass::COUNT]) {
        // Branchless on purpose: absent classes contribute n = 0 to the
        // histogram, clock, and couplet count, and the sparsity pattern of
        // `counts` is unpredictable enough that testing for zero costs
        // more than the five fused multiply-adds.
        for (i, &count) in counts.iter().enumerate() {
            let cost = self.hit_costs[i];
            let n = count as u64;
            self.latency.record_n(cost, n);
            self.now += cost * n;
            self.couplets += n;
        }
    }

    /// [`step_couplet`](Self::step_couplet) specialized for the commonest
    /// couplet shape: a single half, no TLB walk, read miss. Same
    /// arithmetic — whichever side the half was on, its issue time is
    /// `now` and its ideal time is one read hit — but the event is
    /// decoded by the caller, once for all replayers.
    #[inline]
    fn step_lone_read_miss(&mut self, m: &LoneReadMiss) {
        let now = self.now;
        let grant = self
            .down
            .fill_l1(now + 1, m.pid, m.fetch_start, m.fill_words, m.victim);
        let completion = match self.fill_policy {
            FillPolicy::WaitWholeBlock => grant.done,
            FillPolicy::EarlyContinuation => {
                grant.ready + self.down.upstream_transfer_cycles(m.offset + 1)
            }
            FillPolicy::LoadForward => grant.ready + self.down.upstream_transfer_cycles(1),
        };
        let done = completion.clamp(now + 1, grant.done);
        self.latency.record(done - now);
        self.stall_cycles += (done - now).saturating_sub(self.read_hit);
        self.now = done;
        self.couplets += 1;
    }

    /// Prices one couplet from its recorded cache outcomes. Both halves
    /// issue at once on a dual-issue CPU; a single-issue one starts the
    /// data half when the fetch completes. The couplet ends when both
    /// halves have.
    fn step_couplet(&mut self, iref: Option<&RefEvent>, dref: Option<&RefEvent>) {
        let now = self.now;
        let mut done = now;
        let mut ideal = 0u64;
        if let Some(e) = iref {
            ideal = ideal.max(self.read_hit);
            done = done.max(self.complete_read(e, now + e.walk_cycles));
        }
        if let Some(e) = dref {
            let issue = if self.dual_issue { now } else { done };
            let (c, this_ideal) = if e.access.is_write() {
                (self.complete_write(e, issue + e.walk_cycles), self.write_hit)
            } else {
                (self.complete_read(e, issue + e.walk_cycles), self.read_hit)
            };
            ideal = if self.dual_issue {
                ideal.max(this_ideal)
            } else {
                ideal + this_ideal
            };
            done = done.max(c);
        }
        debug_assert!(done > now, "a couplet must consume at least one cycle");
        self.latency.record(done - now);
        self.stall_cycles += (done - now).saturating_sub(ideal);
        self.now = done;
        self.couplets += 1;
    }

    /// Timing of a recorded load/ifetch; returns its completion cycle.
    fn complete_read(&mut self, e: &RefEvent, now: u64) -> u64 {
        match e.access {
            AccessEvent::ReadHit => now + self.read_hit,
            AccessEvent::ReadSlowHit => now + self.read_hit + self.way_slow_hit,
            AccessEvent::ReadVictimHit => now + self.read_hit + self.victim_swap,
            AccessEvent::ReadMiss {
                fetch_start,
                fill_words,
                victim,
            } => {
                let victim = victim.map(|v| (v.addr, v.words));
                // The miss is detected during the probe cycle; the fill
                // request goes downstream the cycle after.
                let grant = self
                    .down
                    .fill_l1(now + 1, e.pid, fetch_start, fill_words, victim);
                let completion = match self.fill_policy {
                    FillPolicy::WaitWholeBlock => grant.done,
                    FillPolicy::EarlyContinuation => {
                        let offset = (e.addr.value() - fetch_start.value()) as u32;
                        grant.ready + self.down.upstream_transfer_cycles(offset + 1)
                    }
                    FillPolicy::LoadForward => {
                        grant.ready + self.down.upstream_transfer_cycles(1)
                    }
                };
                completion.clamp(now + 1, grant.done)
            }
            _ => unreachable!("read completion on a write event"),
        }
    }

    /// Timing of a recorded store; returns its completion cycle.
    fn complete_write(&mut self, e: &RefEvent, now: u64) -> u64 {
        let whc = self.write_hit;
        match e.access {
            AccessEvent::WriteHit { through } => {
                let mut done = now + whc;
                if through {
                    let accepted = self.down.write_word_down(now + 1, e.pid, e.addr);
                    done = done.max(accepted + 1);
                }
                done
            }
            AccessEvent::WriteVictimHit { through } => {
                let mut done = now + whc + self.victim_swap;
                if through {
                    let accepted = self.down.write_word_down(now + 1, e.pid, e.addr);
                    done = done.max(accepted + 1);
                }
                done
            }
            AccessEvent::WriteMissAround => {
                let accepted = self.down.write_word_down(now + 1, e.pid, e.addr);
                (now + whc).max(accepted + 1)
            }
            AccessEvent::WriteMissAllocate {
                fetch_start,
                fill_words,
                victim,
                through,
            } => {
                let victim = victim.map(|v| (v.addr, v.words));
                let filled = self
                    .down
                    .fill_l1(now + 1, e.pid, fetch_start, fill_words, victim)
                    .done;
                let mut done = filled + 1; // the write itself
                if through {
                    let accepted = self.down.write_word_down(now + 1, e.pid, e.addr);
                    done = done.max(accepted + 1);
                }
                done
            }
            _ => unreachable!("write completion on a read event"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachetime_types::{Pid, WordAddr};

    fn trace_of(refs: Vec<MemRef>) -> Trace {
        Trace::new("t", refs, 0)
    }

    #[test]
    fn hit_runs_collapse() {
        let config = SystemConfig::paper_default().unwrap();
        let a = WordAddr::new(0x100);
        let refs: Vec<MemRef> = std::iter::once(MemRef::load(a, Pid(1)))
            .chain((0..1000).map(|_| MemRef::load(a, Pid(1))))
            .collect();
        let events = BehavioralSim::new(&config.organization()).record(&trace_of(refs));
        // One miss couplet + one run of 1000 hits.
        assert_eq!(events.ops().len(), 2);
        assert_eq!(events.couplets(), 1001);
        assert!(events.ops_per_couplet() < 0.01);
    }

    #[test]
    fn replay_rejects_a_different_organization() {
        let config = SystemConfig::paper_default().unwrap();
        let events = BehavioralSim::new(&config.organization())
            .record(&trace_of(vec![MemRef::load(WordAddr::new(0), Pid(1))]));
        let other_l1 = cachetime_cache::CacheConfig::builder(
            cachetime_types::CacheSize::from_kib(16).unwrap(),
        )
        .build()
        .unwrap();
        let other = SystemConfig::builder().l1_both(other_l1).build().unwrap();
        assert!(replay(&events, &other).is_err());
        assert!(replay(&events, &config).is_ok());
    }

    #[test]
    fn two_phase_matches_direct_on_a_smoke_trace() {
        let config = SystemConfig::paper_default().unwrap();
        let a = WordAddr::new(0x100);
        let conflict = WordAddr::new(0x40000);
        let refs = vec![
            MemRef::load(a, Pid(1)),
            MemRef::store(a, Pid(1)),
            MemRef::load(conflict, Pid(1)),
            MemRef::ifetch(WordAddr::new(0x2000), Pid(1)),
            MemRef::load(a, Pid(1)),
            MemRef::store(WordAddr::new(0x9999), Pid(2)),
        ];
        let t = Trace::new("t", refs, 2);
        let direct = crate::Simulator::new(&config).run(&t);
        assert_eq!(simulate_two_phase(&config, &t), direct);
    }

    #[test]
    fn one_behavioral_pass_reprices_the_whole_cycle_time_axis() {
        let base = SystemConfig::paper_default().unwrap();
        let refs: Vec<MemRef> = (0..400)
            .map(|i| match i % 3 {
                0 => MemRef::ifetch(WordAddr::new(i * 7 % 256), Pid(1)),
                1 => MemRef::load(WordAddr::new(i * 13 % 512), Pid(1)),
                _ => MemRef::store(WordAddr::new(i * 11 % 128), Pid(2)),
            })
            .collect();
        let t = Trace::new("t", refs, 50);
        let events = BehavioralSim::new(&base.organization()).record(&t);
        for ct in [20u32, 36, 56, 80] {
            let config = SystemConfig::builder()
                .cycle_time(cachetime_types::CycleTime::from_ns(ct).unwrap())
                .build()
                .unwrap();
            let direct = crate::Simulator::new(&config).run(&t);
            let repriced = replay(&events, &config).unwrap();
            assert_eq!(repriced, direct, "cycle time {ct}ns");
        }
    }

    #[test]
    fn the_paper_cycle_time_axis_prices_on_nine_machines() {
        let paper_memory = cachetime_mem::MemoryConfig::paper_default();
        let mut machines: Vec<Machine> = Vec::new();
        let mut groups: Vec<Vec<u32>> = Vec::new();
        for ns in (20..=80).step_by(4) {
            let config = SystemConfig::builder()
                .cycle_time(cachetime_types::CycleTime::from_ns(ns).unwrap())
                .memory(paper_memory)
                .build()
                .unwrap();
            let m = Machine::of(&config);
            match machines.iter().position(|x| *x == m) {
                Some(g) => groups[g].push(ns),
                None => {
                    machines.push(m);
                    groups.push(vec![ns]);
                }
            }
        }
        // 16 cycle times, 9 machines: 40≡44 and 52≡56 ns round every
        // memory delay alike, and so do 60 through 80 ns.
        let expected: Vec<Vec<u32>> = vec![
            vec![20],
            vec![24],
            vec![28],
            vec![32],
            vec![36],
            vec![40, 44],
            vec![48],
            vec![52, 56],
            vec![60, 64, 68, 72, 76, 80],
        ];
        assert_eq!(groups, expected);
    }

    #[test]
    fn empty_trace_replays_to_an_empty_result() {
        let config = SystemConfig::paper_default().unwrap();
        let events = BehavioralSim::new(&config.organization()).record_refs(std::iter::empty(), 0);
        let r = replay(&events, &config).unwrap();
        assert_eq!(r.refs, 0);
        assert_eq!(r.cycles.0, 0);
        assert_eq!(r.couplets, 0);
    }
}
