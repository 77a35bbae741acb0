//! Differential oracle: a deliberately naive cycle-stepping re-implementation
//! of first-level timing over a memory-only hierarchy, checked
//! cycle-for-cycle against the event-driven engine.
//!
//! The production engine never ticks idle cycles — write-buffer drains are
//! reconstructed lazily ("catch-up") at the next event. This oracle does
//! the opposite: it walks every cycle between events and launches drains
//! greedily the moment the memory is idle and the head entry has aged past
//! the drain delay. If the lazy reconstruction is correct, the two models
//! agree exactly on every completion time.
//!
//! The oracle prices the first level from the machine's description alone:
//! it steps the same cache, TLB and memory-timing vocabulary types
//! (`cachetime_cache::Cache`, `cachetime_mmu::Mmu`,
//! `cachetime_mem::MemoryTiming`) and shares no code with the engine's own
//! pricing. Scope: no mid-level caches, read priority and coalescing on, a
//! write buffer at least one entry deep. Everything at the first level
//! varies — sizes, blocks, sub-block fetch, associativity, write-through
//! and write-allocate policies, victim buffers, MRU and multi-column way
//! prediction, read- and write-hit cycles, slow-hit and victim-swap
//! penalties, wait-whole-block, early-continuation and load-forwarding
//! fills, single or dual issue, split or unified caches, and TLB walks —
//! as do the cycle time, buffer depth and drain delay. Mid-level timing is
//! pinned by `crates/core/tests/golden_results.rs`.

use cachetime::{FillPolicy, Simulator, SystemConfig};
use cachetime_cache::{
    Cache, CacheConfig, ReadOutcome, ReplacementPolicy, VictimCacheConfig, WayPrediction,
    WriteAllocate, WriteOutcome, WritePolicy,
};
use cachetime_mem::{MemoryConfig, MemoryTiming};
use cachetime_mmu::{Mmu, TranslationConfig};
use cachetime_testkit::{check_config, prop_assert_eq, CaseResult, Config, SplitMix64};
use cachetime_trace::Trace;
use cachetime_types::{AccessKind, Assoc, BlockWords, CacheSize, CycleTime, MemRef, Pid, WordAddr};

const WORD_REGION: u64 = 16; // must match WbEntry::word's coalescing region

#[derive(Debug, Clone)]
struct RefEntry {
    pid: Pid,
    start: u64,
    span: u64,
    /// None = whole block of `words`; Some(mask) = word entry.
    mask: Option<u64>,
    words: u32,
    ready_at: u64,
}

impl RefEntry {
    fn overlaps(&self, pid: Pid, start: u64, words: u32) -> bool {
        if self.pid != pid || self.start >= start + words as u64 || start >= self.start + self.span
        {
            return false;
        }
        match self.mask {
            None => true,
            Some(mask) => {
                let lo = start.saturating_sub(self.start).min(self.span) as u32;
                let hi = (start + words as u64 - self.start).min(self.span) as u32;
                (lo..hi).any(|b| mask & (1 << b) != 0)
            }
        }
    }
}

/// The first-level knobs of one oracle machine.
#[derive(Debug, Clone)]
struct Shape {
    kb_log: u32,
    block_log: u32,
    /// log2 of the fetch size in words; at most `block_log`.
    fetch_log: u32,
    assoc_log: u32,
    write_through: bool,
    write_allocate: bool,
    /// Victim-buffer entries; 0 = none.
    victim_entries: u32,
    prediction: Option<WayPrediction>,
    unified: bool,
    dual_issue: bool,
    read_hit: u64,
    write_hit: u64,
    way_slow_hit: u64,
    victim_swap: u64,
    fill: FillPolicy,
    /// TLB walk penalty in cycles; `None` = virtually addressed, no MMU.
    walk: Option<u64>,
    ct: u32,
    depth: u32,
    delay: u64,
}

impl Default for Shape {
    /// The paper's default machine shape, on a 1 KB cache.
    fn default() -> Self {
        Shape {
            kb_log: 0,
            block_log: 2,
            fetch_log: 2,
            assoc_log: 0,
            write_through: false,
            write_allocate: false,
            victim_entries: 0,
            prediction: None,
            unified: false,
            dual_issue: true,
            read_hit: 1,
            write_hit: 2,
            way_slow_hit: 1,
            victim_swap: 1,
            fill: FillPolicy::WaitWholeBlock,
            walk: None,
            ct: 40,
            depth: 4,
            delay: 0,
        }
    }
}

impl Shape {
    fn cache(&self) -> Option<CacheConfig> {
        let mut b = CacheConfig::builder(CacheSize::from_kib(1 << self.kb_log).ok()?);
        b.block(BlockWords::new(1 << self.block_log).ok()?)
            .fetch(BlockWords::new(1 << self.fetch_log).ok()?)
            .assoc(Assoc::new(1 << self.assoc_log).ok()?)
            .replacement(ReplacementPolicy::Lru);
        if self.write_through {
            b.write_policy(WritePolicy::WriteThrough);
        }
        if self.write_allocate {
            b.write_allocate(WriteAllocate::Allocate);
        }
        if self.victim_entries > 0 {
            b.victim_cache(VictimCacheConfig::new(self.victim_entries).ok()?);
        }
        if let Some(p) = self.prediction {
            b.way_prediction(p);
        }
        b.build().ok()
    }

    fn memory(&self) -> MemoryConfig {
        MemoryConfig::builder()
            .wb_depth(self.depth)
            .wb_drain_delay(self.delay)
            .build()
            .expect("valid memory")
    }

    fn translation(&self) -> Option<TranslationConfig> {
        // A small TLB over small pages, so short traces walk often.
        self.walk.map(|miss_penalty| TranslationConfig {
            page_words: 64,
            tlb_entries: 4,
            tlb_assoc: 2,
            miss_penalty,
        })
    }

    /// The same machine as the engine's configuration.
    fn system(&self) -> Option<SystemConfig> {
        let mut b = SystemConfig::builder();
        b.cycle_time(CycleTime::from_ns(self.ct).ok()?)
            .l1_both(self.cache()?)
            .unified(self.unified)
            .dual_issue(self.dual_issue)
            .read_hit_cycles(self.read_hit)
            .write_hit_cycles(self.write_hit)
            .way_slow_hit_cycles(self.way_slow_hit)
            .victim_swap_cycles(self.victim_swap)
            .fill_policy(self.fill)
            .memory(self.memory());
        if let Some(t) = self.translation() {
            b.translation(t);
        }
        b.build().ok()
    }
}

/// The naive tick-stepping machine.
struct RefMachine {
    shape: Shape,
    timing: MemoryTiming,
    drain_delay: u64,
    depth: usize,
    l1i: Cache,
    l1d: Cache,
    mmu: Option<Mmu>,
    wb: std::collections::VecDeque<RefEntry>,
    mem_free: u64,
    /// All cycles strictly before this have been tick-processed.
    swept_to: u64,
    mem_reads: u64,
    mem_writes: u64,
}

impl RefMachine {
    fn new(shape: &Shape) -> Self {
        let l1 = shape.cache().expect("valid cache");
        let memory = shape.memory();
        RefMachine {
            shape: shape.clone(),
            timing: MemoryTiming::new(&memory, CycleTime::from_ns(shape.ct).expect("nonzero")),
            drain_delay: memory.wb_drain_delay(),
            depth: memory.wb_depth() as usize,
            l1i: Cache::new(l1),
            l1d: Cache::new(l1),
            mmu: shape.translation().map(Mmu::new),
            wb: Default::default(),
            mem_free: 0,
            swept_to: 0,
            mem_reads: 0,
            mem_writes: 0,
        }
    }

    /// Launches the head drain at cycle `c` unconditionally.
    fn launch(&mut self, c: u64) -> u64 {
        let e = self.wb.pop_front().expect("launch on empty buffer");
        let start = c.max(e.ready_at).max(self.mem_free);
        let release = start + self.timing.write_bus_time(e.words);
        self.mem_free = release + self.timing.write_op_cycles() + self.timing.recovery_cycles();
        self.mem_writes += 1;
        release
    }

    /// Tick-steps every cycle in `[swept_to, upto)`, greedily launching
    /// eligible drains.
    fn sweep(&mut self, upto: u64) {
        let mut c = self.swept_to;
        while c < upto {
            let Some(front) = self.wb.front() else { break };
            let eligible = front.ready_at + self.drain_delay;
            // Nothing can happen before both the memory frees and the
            // entry ages; skip ahead (pure optimization of the tick loop).
            let next = c.max(eligible).max(self.mem_free);
            if next >= upto {
                break;
            }
            c = next;
            self.launch(c);
        }
        self.swept_to = self.swept_to.max(upto);
    }

    /// A fill request arriving at cycle `t` (read priority; address
    /// matches force drain-through). Returns the cycle the first word
    /// starts to arrive and the cycle the last one has arrived.
    fn fill(
        &mut self,
        t: u64,
        pid: Pid,
        addr: WordAddr,
        words: u32,
        victim: Option<(WordAddr, u32)>,
    ) -> (u64, u64) {
        self.sweep(t);
        if let Some(i) = self
            .wb
            .iter()
            .rposition(|e| e.overlaps(pid, addr.value(), words))
        {
            for _ in 0..=i {
                self.launch(t);
            }
        }
        let start = t.max(self.mem_free);
        let data_start = start + self.timing.config().addr_cycles() + self.timing.latency_cycles();
        let transfer = self.timing.transfer_cycles(words);
        self.mem_free = data_start + transfer + self.timing.recovery_cycles();
        self.mem_reads += 1;
        let mut gate = data_start;
        if let Some((vaddr, vwords)) = victim {
            let move_start = if self.wb.len() == self.depth {
                self.launch(self.mem_free)
            } else {
                start
            };
            let move_done = move_start + vwords as u64;
            self.wb.push_back(RefEntry {
                pid,
                start: vaddr.value(),
                span: vwords as u64,
                mask: None,
                words: vwords,
                ready_at: move_done,
            });
            gate = gate.max(move_done);
        }
        (gate, gate + transfer)
    }

    /// A word write arriving at cycle `t` (coalesce into the tail when the
    /// word falls in its region).
    fn write_word(&mut self, t: u64, pid: Pid, addr: WordAddr) -> u64 {
        self.sweep(t);
        let a = addr.value();
        if let Some(tail) = self.wb.back_mut() {
            if tail.pid == pid && a >= tail.start && a < tail.start + tail.span {
                match &mut tail.mask {
                    None => return t, // block entry absorbs the word
                    Some(mask) => {
                        let bit = 1u64 << (a - tail.start);
                        if *mask & bit == 0 {
                            *mask |= bit;
                            tail.words += 1;
                        }
                        return t;
                    }
                }
            }
        }
        let ready = if self.wb.len() == self.depth {
            self.launch(t)
        } else {
            t
        };
        let region = a & !(WORD_REGION - 1);
        self.wb.push_back(RefEntry {
            pid,
            start: region,
            span: WORD_REGION,
            mask: Some(1u64 << (a - region)),
            words: 1,
            ready_at: ready,
        });
        ready
    }

    /// Runs the whole trace; returns (total cycles, mem reads, mem writes).
    fn run(&mut self, trace: &Trace) -> (u64, u64, u64) {
        let refs = trace.refs();
        let mut now = 0u64;
        let mut i = 0usize;
        while i < refs.len() {
            let a = refs[i];
            // A unified cache has one port: nothing pairs.
            let (iref, dref) = if !self.shape.unified
                && a.kind == AccessKind::IFetch
                && i + 1 < refs.len()
                && refs[i + 1].kind.is_data()
                && refs[i + 1].pid == a.pid
            {
                i += 2;
                (Some(a), Some(refs[i - 1]))
            } else if a.kind.is_data() {
                i += 1;
                (None, Some(a))
            } else {
                i += 1;
                (Some(a), None)
            };
            // Both halves issue together on a dual-issue CPU; a
            // single-issue one starts the data half once the fetch is done.
            let mut done = now;
            if let Some(r) = iref {
                let (r, at) = self.translate(r, now);
                done = done.max(self.service_read(!self.shape.unified, r, at));
            }
            if let Some(r) = dref {
                let issue = if self.shape.dual_issue { now } else { done };
                let (r, at) = self.translate(r, issue);
                let c = if r.kind == AccessKind::Store {
                    self.service_write(r, at)
                } else {
                    self.service_read(false, r, at)
                };
                done = done.max(c);
            }
            now = done;
        }
        (now, self.mem_reads, self.mem_writes)
    }

    /// The physical reference and the cycle the cache probe starts: a TLB
    /// miss delays it by the walk.
    fn translate(&mut self, r: MemRef, issue: u64) -> (MemRef, u64) {
        let Some(mmu) = &mut self.mmu else {
            return (r, issue);
        };
        let (phys, hit) = mmu.translate(r.addr, r.pid);
        let walk = if hit {
            0
        } else {
            self.shape.walk.expect("mmu")
        };
        (MemRef::new(phys, r.kind, r.pid), issue + walk)
    }

    fn service_read(&mut self, instruction: bool, r: MemRef, now: u64) -> u64 {
        let cache = if instruction {
            &mut self.l1i
        } else {
            &mut self.l1d
        };
        let block_words = cache.config().block().words();
        let fetch_words = cache.config().fetch().words();
        let hit = now + self.shape.read_hit;
        match cache.read(r.addr, r.pid) {
            ReadOutcome::Hit => hit,
            // A second probe round.
            ReadOutcome::SlowHit => hit + self.shape.way_slow_hit,
            // The block swaps back in from the victim buffer.
            ReadOutcome::VictimHit => hit + self.shape.victim_swap,
            ReadOutcome::Miss { fill_words, victim } => {
                let fetch_start = r.addr.value() & !(fetch_words as u64 - 1);
                let victim = victim.map(|ev| (ev.addr.first_word(block_words), ev.words));
                // The probe detects the miss; the request leaves a cycle later.
                let (first, last) = self.fill(
                    now + 1,
                    r.pid,
                    WordAddr::new(fetch_start),
                    fill_words,
                    victim,
                );
                // Words arrive in address order from the fetch start, except
                // that load forwarding sends the requested word first.
                let needed = match self.shape.fill {
                    FillPolicy::WaitWholeBlock => return last,
                    FillPolicy::EarlyContinuation => (r.addr.value() - fetch_start) as u32 + 1,
                    FillPolicy::LoadForward => 1,
                };
                (first + self.timing.transfer_cycles(needed)).clamp(now + 1, last)
            }
        }
    }

    fn service_write(&mut self, r: MemRef, now: u64) -> u64 {
        let block_words = self.l1d.config().block().words();
        let hit = now + self.shape.write_hit;
        let (done, through) = match self.l1d.write(r.addr, r.pid) {
            WriteOutcome::Hit { through } => (hit, through),
            WriteOutcome::VictimHit { through } => (hit + self.shape.victim_swap, through),
            WriteOutcome::MissNoAllocate => (hit, true),
            WriteOutcome::MissAllocate {
                fill_words,
                victim,
                through,
            } => {
                let fetch_start = WordAddr::new(r.addr.value() & !(fill_words as u64 - 1));
                let victim = victim.map(|ev| (ev.addr.first_word(block_words), ev.words));
                let (_, filled) = self.fill(now + 1, r.pid, fetch_start, fill_words, victim);
                // The write itself takes one more cycle once the block is in.
                (filled + 1, through)
            }
        };
        if !through {
            return done;
        }
        // The word goes down through the write buffer a cycle after issue;
        // a full buffer holds the CPU until it is accepted.
        let accepted = self.write_word(now + 1, r.pid, r.addr);
        done.max(accepted + 1)
    }
}

/// One oracle scenario: machine shape plus a reference stream.
#[derive(Debug, Clone)]
struct Scenario {
    refs: Vec<MemRef>,
    shape: Shape,
}

fn gen_shape(rng: &mut SplitMix64) -> Shape {
    loop {
        let block_log = rng.gen_range(0u32..4);
        let assoc_log = rng.gen_range(0u32..3);
        let shape = Shape {
            kb_log: rng.gen_range(0u32..3),
            block_log,
            fetch_log: if rng.gen_bool(0.25) {
                rng.gen_range(0..block_log + 1)
            } else {
                block_log
            },
            assoc_log,
            write_through: rng.gen_bool(0.3),
            write_allocate: rng.gen_bool(0.3),
            victim_entries: if rng.gen_bool(0.3) {
                1 << rng.gen_range(0u32..4)
            } else {
                0
            },
            prediction: match rng.gen_range(0u8..4) {
                _ if assoc_log == 0 => None,
                0 => Some(WayPrediction::Mru),
                1 => Some(WayPrediction::MultiColumn),
                _ => None,
            },
            unified: rng.gen_bool(0.2),
            dual_issue: rng.gen_bool(0.7),
            read_hit: rng.gen_range(1u64..4),
            write_hit: rng.gen_range(1u64..4),
            way_slow_hit: rng.gen_range(1u64..4),
            victim_swap: rng.gen_range(1u64..4),
            fill: match rng.gen_range(0u8..3) {
                0 => FillPolicy::WaitWholeBlock,
                1 => FillPolicy::EarlyContinuation,
                _ => FillPolicy::LoadForward,
            },
            walk: if rng.gen_bool(0.3) {
                Some(rng.gen_range(1u64..40))
            } else {
                None
            },
            ct: rng.gen_range(10u32..80),
            depth: rng.gen_range(1u32..6),
            delay: rng.gen_range(0u64..48),
        };
        // Invalid combinations (a victim buffer under sub-block fetch)
        // rejection-sample away.
        if shape.system().is_some() {
            return shape;
        }
    }
}

fn gen_scenario(rng: &mut SplitMix64) -> Scenario {
    let n = rng.gen_range(1usize..400);
    let refs = (0..n)
        .map(|_| {
            let a = WordAddr::new(rng.gen_range(0u64..1024));
            let pid = Pid(rng.gen_range(0u16..2));
            match rng.gen_range(0u8..3) {
                0 => MemRef::ifetch(a, pid),
                1 => MemRef::load(a, pid),
                _ => MemRef::store(a, pid),
            }
        })
        .collect();
    Scenario {
        refs,
        shape: gen_shape(rng),
    }
}

/// Shrinks only the reference stream; the machine shape stays fixed.
fn shrink_scenario(s: &Scenario) -> Vec<Scenario> {
    cachetime_testkit::shrink::vec_linear(&s.refs)
        .into_iter()
        .map(|refs| Scenario { refs, ..s.clone() })
        .collect()
}

/// The property body, shared with the explicit regression tests.
fn check_engine_matches_oracle(s: &Scenario) -> CaseResult {
    let config = s.shape.system().expect("valid system");
    let trace = Trace::new("oracle", s.refs.clone(), 0);

    let real = Simulator::new(&config).run(&trace);
    let (cycles, reads, writes) = RefMachine::new(&s.shape).run(&trace);

    prop_assert_eq!(real.cycles.0, cycles, "cycle totals diverged");
    prop_assert_eq!(real.mem.reads, reads, "memory read counts diverged");
    prop_assert_eq!(real.mem.writes, writes, "memory write counts diverged");
    Ok(())
}

/// The lazy event-driven engine and the greedy tick-stepping oracle
/// agree exactly on total cycles and memory traffic.
#[test]
fn event_engine_matches_tick_oracle() {
    let config = Config {
        cases: 256,
        ..Config::default()
    };
    check_config(
        &config,
        "event_engine_matches_tick_oracle",
        gen_scenario,
        shrink_scenario,
        check_engine_matches_oracle,
    );
}

/// Every first-level feature the property samples, one at a time on an
/// otherwise default machine, over a stream with reuse, conflicts and
/// stores — so each is exercised even if the random draw skips it.
#[test]
fn each_first_level_feature_matches_the_oracle() {
    // A 48-word loop that moves every 300 couplets; data that touches two
    // blocks a cache extent apart four times in a row, ABAB (conflicts a
    // victim buffer catches in a 1 KB direct-mapped cache, way
    // mispredictions in a 2-way one), stores into them, and a scattered
    // load every tenth couplet.
    let refs: Vec<MemRef> = (0..1200u64)
        .flat_map(|i| {
            let pid = Pid((i / 400 % 2) as u16);
            let pc = WordAddr::new(i % 48 + i / 300 * 512);
            let a = WordAddr::new(1024 + i / 4 * 4 % 64 + i % 2 * 256);
            let d = match i % 10 {
                0 | 5 => MemRef::store(a, pid),
                4 => MemRef::load(WordAddr::new(4096 + i * 9 % 2048), pid),
                _ => MemRef::load(a, pid),
            };
            [MemRef::ifetch(pc, pid), d]
        })
        .collect();
    let two_way = Shape {
        assoc_log: 1,
        ..Shape::default()
    };
    let shapes = [
        ("default", Shape::default()),
        (
            "slow hits",
            Shape {
                read_hit: 2,
                write_hit: 3,
                ..Shape::default()
            },
        ),
        (
            "single issue",
            Shape {
                dual_issue: false,
                ..Shape::default()
            },
        ),
        (
            "unified",
            Shape {
                unified: true,
                ..Shape::default()
            },
        ),
        (
            "tlb walks",
            Shape {
                walk: Some(17),
                ..Shape::default()
            },
        ),
        (
            "mru way prediction",
            Shape {
                prediction: Some(WayPrediction::Mru),
                way_slow_hit: 2,
                ..two_way.clone()
            },
        ),
        (
            "multi-column way prediction",
            Shape {
                prediction: Some(WayPrediction::MultiColumn),
                way_slow_hit: 3,
                ..two_way.clone()
            },
        ),
        (
            "victim buffer",
            Shape {
                victim_entries: 4,
                victim_swap: 2,
                ..Shape::default()
            },
        ),
        (
            "victim buffer + write-allocate",
            Shape {
                victim_entries: 2,
                victim_swap: 3,
                write_allocate: true,
                ..Shape::default()
            },
        ),
        (
            "early continuation",
            Shape {
                block_log: 3,
                fetch_log: 3,
                fill: FillPolicy::EarlyContinuation,
                ..Shape::default()
            },
        ),
        (
            "load forwarding",
            Shape {
                block_log: 3,
                fetch_log: 3,
                fill: FillPolicy::LoadForward,
                ..Shape::default()
            },
        ),
        (
            "write-through",
            Shape {
                write_through: true,
                depth: 2,
                ..Shape::default()
            },
        ),
        (
            "write-allocate",
            Shape {
                write_allocate: true,
                ..Shape::default()
            },
        ),
        (
            "write-through + write-allocate",
            Shape {
                write_through: true,
                write_allocate: true,
                ..Shape::default()
            },
        ),
        (
            "sub-block fetch",
            Shape {
                block_log: 3,
                fetch_log: 1,
                ..Shape::default()
            },
        ),
    ];
    for (what, shape) in shapes {
        let s = Scenario {
            refs: refs.clone(),
            shape,
        };
        if let Err(e) = check_engine_matches_oracle(&s) {
            panic!("{what}: {e}");
        }
    }
}

/// Regression (found by the previous fuzzing setup): a store coalescing
/// into an aged write-buffer entry around a cross-pid ifetch exercised
/// the lazy drain reconstruction at delay 32.
#[test]
fn regression_coalesce_around_cross_pid_ifetch() {
    let p0 = Pid(0);
    let s = Scenario {
        refs: vec![
            MemRef::store(WordAddr::new(0), p0),
            MemRef::ifetch(WordAddr::new(4), p0),
            MemRef::load(WordAddr::new(4), p0),
            MemRef::ifetch(WordAddr::new(0), Pid(1)),
            MemRef::store(WordAddr::new(0), p0),
            MemRef::store(WordAddr::new(0), p0),
            MemRef::load(WordAddr::new(21), p0),
        ],
        shape: Shape {
            kb_log: 0,
            block_log: 2,
            fetch_log: 2,
            ct: 47,
            depth: 3,
            delay: 32,
            ..Shape::default()
        },
    };
    check_engine_matches_oracle(&s).expect("regression case must pass");
}
