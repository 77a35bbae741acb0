//! Property test: for *any* valid machine and any small trace, repricing
//! a stored event trace is bit-identical to direct simulation.
//!
//! Both sides price through the same replayer — direct simulation feeds it
//! each op as the behavioral pass produces it — so the property pins the
//! stored op stream and `replay_many`'s grouping of configs onto shared
//! machines. The timing model is checked by the cycle-stepping oracle
//! (`tests/reference_engine.rs`) and the golden results
//! (`golden_results.rs`).
//!
//! Runs on the hermetic testkit runner: failures shrink to a minimal
//! (config, trace) pair and print a replay seed; rerun a specific case
//! with `TESTKIT_SEED=<seed> cargo test -p cachetime --test two_phase_prop`.

use cachetime::{
    replay_many, simulate, simulate_two_phase, BehavioralSim, FillPolicy, LevelTwoConfig,
    Simulator, SystemConfig,
};
use cachetime_cache::{CacheConfig, VictimCacheConfig, WayPrediction, WriteAllocate, WritePolicy};
use cachetime_mem::{MemoryConfig, MemoryConfigBuilder};
use cachetime_mmu::TranslationConfig;
use cachetime_testkit::{check, prop_assert_eq, shrink, SplitMix64};
use cachetime_trace::Trace;
use cachetime_types::{Assoc, BlockWords, CacheSize, CycleTime, MemRef, Nanos, Pid, WordAddr};

fn gen_ref(rng: &mut SplitMix64) -> MemRef {
    let a = WordAddr::new(rng.gen_range(0u64..2048));
    let pid = Pid(rng.gen_range(0u16..3));
    match rng.gen_range(0u8..3) {
        0 => MemRef::ifetch(a, pid),
        1 => MemRef::load(a, pid),
        _ => MemRef::store(a, pid),
    }
}

fn gen_refs(rng: &mut SplitMix64) -> Vec<MemRef> {
    let n = rng.gen_range(1usize..300);
    (0..n).map(|_| gen_ref(rng)).collect()
}

/// A machine sampled across every axis that could split the two paths:
/// organization (sizes, blocks, associativity, unification, write
/// policies, translation) and timing (clock, issue width, fill policy,
/// memory buffering, mid levels).
fn try_gen_system(rng: &mut SplitMix64) -> Option<SystemConfig> {
    let mut l1b = CacheConfig::builder(CacheSize::from_kib(1 << rng.gen_range(1u32..4)).ok()?);
    l1b.block(BlockWords::new(1 << rng.gen_range(0u32..4)).ok()?)
        .assoc(Assoc::new(1 << rng.gen_range(0u32..3)).ok()?);
    if rng.gen_bool(0.3) {
        l1b.write_policy(WritePolicy::WriteThrough);
    }
    if rng.gen_bool(0.3) {
        l1b.write_allocate(WriteAllocate::Allocate);
    }
    // Organization features: a victim buffer and/or way prediction. The
    // builder rejects way prediction on direct-mapped samples; that
    // combination rejection-samples away like any other invalid draw.
    if rng.gen_bool(0.3) {
        l1b.victim_cache(VictimCacheConfig::new(1 << rng.gen_range(0u32..5)).ok()?);
    }
    if rng.gen_bool(0.3) {
        l1b.way_prediction(if rng.gen_bool(0.5) {
            WayPrediction::Mru
        } else {
            WayPrediction::MultiColumn
        });
    }
    let l1 = l1b.build().ok()?;
    let mut b = SystemConfig::builder();
    b.cycle_time(CycleTime::from_ns(rng.gen_range(5u32..81)).ok()?)
        .way_slow_hit_cycles(rng.gen_range(0u64..4))
        .victim_swap_cycles(rng.gen_range(0u64..4))
        .l1_both(l1)
        .unified(rng.gen_bool(0.25))
        .dual_issue(rng.gen_bool(0.5))
        .early_continuation(rng.gen_bool(0.5))
        .memory(
            MemoryConfig::builder()
                .wb_depth(rng.gen_range(0u32..6))
                .build()
                .ok()?,
        );
    if rng.gen_bool(0.3) {
        b.translation(TranslationConfig::default());
    }
    if rng.gen_bool(0.5) {
        let l2 = CacheConfig::builder(CacheSize::from_kib(64).ok()?)
            .block(BlockWords::new(16).ok()?)
            .build()
            .ok()?;
        b.l2(LevelTwoConfig::new(l2));
    }
    b.build().ok()
}

fn gen_system(rng: &mut SplitMix64) -> SystemConfig {
    loop {
        // Rejection-sample the rare invalid combination.
        if let Some(config) = try_gen_system(rng) {
            return config;
        }
    }
}

/// Record-then-replay equals direct simulation, bit for bit, including a
/// random warm-start boundary.
#[test]
fn two_phase_equals_direct() {
    check(
        "two_phase_equals_direct",
        |rng| ((gen_system(rng), rng.gen_range(0usize..40)), gen_refs(rng)),
        shrink::pair_vec,
        |((config, warm_start), refs)| {
            // Shrinking the trace may leave warm_start past the end; clamp
            // as a trace loader would.
            let trace = Trace::new("prop", refs.clone(), (*warm_start).min(refs.len()));
            let direct = Simulator::new(config).run(&trace);
            let two_phase = simulate_two_phase(config, &trace);
            prop_assert_eq!(two_phase, direct);
            Ok(())
        },
    );
}

/// A builder holding every field of `m`, to vary one of them.
fn memory_like(m: &MemoryConfig) -> MemoryConfigBuilder {
    let mut b = MemoryConfig::builder();
    b.read_op(m.read_op())
        .write_op(m.write_op())
        .recovery(m.recovery())
        .transfer(m.transfer())
        .addr_cycles(m.addr_cycles())
        .wb_depth(m.wb_depth())
        .wb_coalesce(m.wb_coalesce())
        .wb_drain_delay(m.wb_drain_delay())
        .read_priority(m.read_priority());
    b
}

/// Moves a nanosecond delay by a few ns either way, staying positive.
fn nudge(rng: &mut SplitMix64, ns: Nanos) -> Nanos {
    let d = rng.gen_range(1u64..25);
    Nanos(if rng.gen_bool(0.5) {
        ns.0 + d
    } else {
        ns.0.saturating_sub(d).max(1)
    })
}

/// A timing axis over one random organization, built so that
/// `replay_many` has merging decisions to get wrong. Every config after
/// the first derives from an earlier one by one move:
///
/// * a tie: a duplicate, or a nearby cycle time (one that often quantizes
///   every memory delay alike, as 40 and 44 ns do under the paper's
///   memory);
/// * a near-tie that must not merge: a different fill policy, issue
///   width, write-buffer depth, drain delay or memory ns value.
///
/// Organizations cover the features, L2/L3, the MMU and unified caches.
fn gen_axis(rng: &mut SplitMix64) -> Vec<SystemConfig> {
    let base = loop {
        let Some(mut config) = try_gen_system(rng) else {
            continue;
        };
        if config.l2().is_some() && rng.gen_bool(0.5) {
            let mut t = config.timing();
            let l3 = CacheConfig::builder(CacheSize::from_kib(256).unwrap())
                .block(BlockWords::new(16).unwrap())
                .build()
                .unwrap();
            t.l3 = Some(LevelTwoConfig::new(l3));
            config = SystemConfig::from_parts(&config.organization(), &t).unwrap();
        }
        break config;
    };
    let org = base.organization();
    let mut axis = vec![base];
    for _ in 0..rng.gen_range(1usize..12) {
        let from = axis[rng.gen_range(0..axis.len())];
        let mut t = from.timing();
        let m = t.memory;
        match rng.gen_range(0u8..9) {
            0 => {}
            1 => {
                let ns = t.cycle_time.ns() + rng.gen_range(1u32..9);
                t.cycle_time = CycleTime::from_ns(ns).unwrap();
            }
            2 => {
                let paper_axis = 20 + 4 * rng.gen_range(0u32..16);
                t.cycle_time = CycleTime::from_ns(paper_axis).unwrap();
            }
            3 => {
                t.fill_policy = match t.fill_policy {
                    FillPolicy::WaitWholeBlock => FillPolicy::EarlyContinuation,
                    FillPolicy::EarlyContinuation => FillPolicy::LoadForward,
                    FillPolicy::LoadForward => FillPolicy::WaitWholeBlock,
                }
            }
            4 => t.dual_issue = !t.dual_issue,
            5 => {
                t.memory = memory_like(&m)
                    .wb_depth((m.wb_depth() + 1) % 6)
                    .build()
                    .unwrap()
            }
            6 => {
                let delay = m.wb_drain_delay() + rng.gen_range(1u64..40);
                t.memory = memory_like(&m).wb_drain_delay(delay).build().unwrap();
            }
            7 => {
                let mut b = memory_like(&m);
                match rng.gen_range(0u8..3) {
                    0 => b.read_op(nudge(rng, m.read_op())),
                    1 => b.write_op(nudge(rng, m.write_op())),
                    _ => b.recovery(nudge(rng, m.recovery())),
                };
                t.memory = b.build().unwrap();
            }
            _ => t.way_slow_hit_cycles = rng.gen_range(0u64..4),
        }
        axis.push(SystemConfig::from_parts(&org, &t).unwrap());
    }
    axis
}

/// One walk prices a whole axis exactly as direct simulation prices each
/// point, `cycle_time` included, however its configs tie or nearly tie.
#[test]
fn replay_many_equals_simulate_on_axes_with_ties() {
    check(
        "replay_many_equals_simulate_on_axes_with_ties",
        |rng| ((gen_axis(rng), rng.gen_range(0usize..40)), gen_refs(rng)),
        shrink::pair_vec,
        |((axis, warm_start), refs)| {
            let trace = Trace::new("prop", refs.clone(), (*warm_start).min(refs.len()));
            let events = BehavioralSim::new(&axis[0].organization()).record(&trace);
            let many = replay_many(&events, axis).expect("one organization");
            prop_assert_eq!(many.len(), axis.len());
            for (k, (got, config)) in many.iter().zip(axis).enumerate() {
                prop_assert_eq!(got, &simulate(config, &trace), "axis[{}] = {}", k, config);
            }
            Ok(())
        },
    );
}
