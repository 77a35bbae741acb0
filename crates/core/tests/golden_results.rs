//! Golden results: every `SimResult` field of a fixed matrix of machines
//! with mid-level caches, pinned by digest.
//!
//! The cycle-stepping oracle (`tests/reference_engine.rs`) checks first-level
//! timing on memory-only machines. Everything below the first level — L2
//! and L3 arrays, their write buffers and ports, write-through and
//! write-allocate mid-levels, and how they combine with translation, a
//! unified L1 and the organization features — is pinned here instead: each
//! machine runs over two catalog traces at three cycle times, and the
//! digests below were taken from the engine as it stood when this test was
//! written. A change that moves any counter of any result fails this test.
//! An intentional change to the timing model must regenerate the digests;
//! the failure message prints the new table.

use cachetime::{simulate, FillPolicy, LevelTwoConfig, SimResult, SystemConfig};
use cachetime_cache::{
    CacheConfig, CacheStats, VictimCacheConfig, WayPrediction, WriteAllocate, WritePolicy,
};
use cachetime_mem::{MemStats, MemoryConfig};
use cachetime_mmu::{MmuStats, TranslationConfig};
use cachetime_trace::{catalog, Trace};
use cachetime_types::{Assoc, BlockWords, CacheSize, CycleTime, StableHasher};

/// The pinned digests, one per machine (over both traces and all three
/// cycle times).
const GOLDEN: [(&str, u64); 9] = [
    ("l2", 0x9486f2b598a575d6),
    ("l2+l3", 0xb47c61fd04da97bd),
    ("write-through l1 + l2, l3", 0x126e55ff5f05f3f2),
    ("write-allocate l2 + l3", 0x48d5f146cddd4725),
    ("l2 + mmu", 0xec45e768465fdd27),
    ("unified l1 + l2", 0x8a2bd7f2cf8ffe0b),
    ("single-issue l1 + l2", 0x7d704b2b92b83a95),
    ("featured 4-way l1 + l2", 0xd93af69b03143a6f),
    ("victim-buffered l1 + l2", 0xbbcbdd8f35643ec1),
];

const CYCLE_TIMES_NS: [u32; 3] = [20, 40, 68];

fn traces() -> Vec<Trace> {
    vec![
        catalog::savec(0.01).generate(),
        catalog::mu3(0.01).generate(),
    ]
}

fn cache(kib: u64, block_words: u32) -> cachetime_cache::CacheConfigBuilder {
    let mut b = CacheConfig::builder(CacheSize::from_kib(kib).unwrap());
    b.block(BlockWords::new(block_words).unwrap());
    b
}

fn level(
    config: CacheConfig,
    read_cycles: u64,
    write_cycles: u64,
    wb_depth: u32,
) -> LevelTwoConfig {
    LevelTwoConfig {
        cache: config,
        read_cycles,
        write_cycles,
        wb_depth,
    }
}

/// The machines, in `GOLDEN` order, at one cycle time.
fn machines(ct: CycleTime) -> Vec<SystemConfig> {
    let small = cache(2, 4).build().unwrap();
    let l2 = LevelTwoConfig::new(cache(64, 8).build().unwrap());
    let l3 = LevelTwoConfig::new(cache(512, 16).build().unwrap());
    let base = || {
        let mut b = SystemConfig::builder();
        b.cycle_time(ct).l1_both(small).l2(l2);
        b
    };

    let write_through_l1 = cache(2, 4)
        .write_policy(WritePolicy::WriteThrough)
        .build()
        .unwrap();
    let write_through_l2 = level(
        cache(16, 8)
            .write_policy(WritePolicy::WriteThrough)
            .build()
            .unwrap(),
        3,
        2,
        1,
    );
    let allocating_l2 = level(
        cache(16, 8)
            .write_allocate(WriteAllocate::Allocate)
            .build()
            .unwrap(),
        5,
        3,
        2,
    );
    let allocating_l3 = level(
        cache(256, 16)
            .write_allocate(WriteAllocate::Allocate)
            .build()
            .unwrap(),
        8,
        4,
        4,
    );
    let featured = cache(4, 4)
        .assoc(Assoc::new(4).unwrap())
        .way_prediction(WayPrediction::MultiColumn)
        .victim_cache(VictimCacheConfig::new(4).unwrap())
        .build()
        .unwrap();
    let victim_dm = cache(2, 8)
        .victim_cache(VictimCacheConfig::new(8).unwrap())
        .write_allocate(WriteAllocate::Allocate)
        .build()
        .unwrap();

    vec![
        base().build().unwrap(),
        base().l3(l3).build().unwrap(),
        base()
            .l1_both(write_through_l1)
            .l2(write_through_l2)
            .l3(l3)
            .build()
            .unwrap(),
        base().l2(allocating_l2).l3(allocating_l3).build().unwrap(),
        base()
            .translation(TranslationConfig::default())
            .build()
            .unwrap(),
        base().unified(true).build().unwrap(),
        base().dual_issue(false).build().unwrap(),
        base()
            .l1_both(featured)
            .way_slow_hit_cycles(2)
            .victim_swap_cycles(1)
            .fill_policy(FillPolicy::LoadForward)
            .build()
            .unwrap(),
        base()
            .l1_both(victim_dm)
            .victim_swap_cycles(3)
            .early_continuation(true)
            .memory(MemoryConfig::builder().wb_depth(1).build().unwrap())
            .build()
            .unwrap(),
    ]
}

fn hash_cache(h: &mut StableHasher, s: &CacheStats) {
    // Exhaustive on purpose: a new counter does not compile here until it
    // is part of the digest.
    let CacheStats {
        reads,
        read_misses,
        writes,
        write_misses,
        fills,
        fill_words,
        evictions,
        dirty_evictions,
        write_back_words,
        dirty_words_written_back,
        word_writes_downstream,
        victim_hits,
        way_first_hits,
        way_slow_hits,
        way_probe_rounds,
    } = *s;
    for v in [
        reads,
        read_misses,
        writes,
        write_misses,
        fills,
        fill_words,
        evictions,
        dirty_evictions,
        write_back_words,
        dirty_words_written_back,
        word_writes_downstream,
        victim_hits,
        way_first_hits,
        way_slow_hits,
        way_probe_rounds,
    ] {
        h.write_u64(v);
    }
}

fn hash_option<T>(h: &mut StableHasher, v: &Option<T>, f: impl FnOnce(&mut StableHasher, &T)) {
    match v {
        None => h.write_u64(0),
        Some(v) => {
            h.write_u64(1);
            f(h, v);
        }
    }
}

/// Feeds every field of `r` into `h`.
fn hash_result(h: &mut StableHasher, r: &SimResult) {
    let SimResult {
        cycle_time,
        cycles,
        refs,
        couplets,
        l1i,
        l1d,
        l2,
        l3,
        mem,
        mmu,
        latency,
        stall_cycles,
    } = r;
    h.write_u64(u64::from(cycle_time.ns()));
    h.write_u64(cycles.0);
    h.write_u64(*refs);
    h.write_u64(*couplets);
    hash_cache(h, l1i);
    hash_cache(h, l1d);
    hash_option(h, l2, hash_cache);
    hash_option(h, l3, hash_cache);
    let MemStats {
        reads,
        read_words,
        writes,
        write_words,
        read_match_stalls,
        full_stalls,
        coalesced_writes,
    } = *mem;
    for v in [
        reads,
        read_words,
        writes,
        write_words,
        read_match_stalls,
        full_stalls,
        coalesced_writes,
    ] {
        h.write_u64(v);
    }
    hash_option(h, mmu, |h, m| {
        let MmuStats { accesses, misses } = *m;
        h.write_u64(accesses);
        h.write_u64(misses);
    });
    for i in 0..16 {
        h.write_u64(latency.bucket(i));
    }
    h.write_u64(stall_cycles.0);
}

#[test]
fn mid_level_machines_reproduce_their_golden_results() {
    let traces = traces();
    let mut digests = vec![StableHasher::new(); GOLDEN.len()];
    for ct_ns in CYCLE_TIMES_NS {
        let configs = machines(CycleTime::from_ns(ct_ns).unwrap());
        assert_eq!(configs.len(), GOLDEN.len());
        for (h, config) in digests.iter_mut().zip(&configs) {
            for trace in &traces {
                let r = simulate(config, trace);
                assert!(r.l2.is_some(), "every golden machine has an L2");
                hash_result(h, &r);
            }
        }
    }
    let got: Vec<u64> = digests.iter().map(StableHasher::finish).collect();
    let mismatched: Vec<&str> = GOLDEN
        .iter()
        .zip(&got)
        .filter(|((_, want), got)| want != *got)
        .map(|((name, _), _)| *name)
        .collect();
    let table: String = GOLDEN
        .iter()
        .zip(&got)
        .map(|((name, _), got)| format!("    ({name:?}, 0x{got:016x}),\n"))
        .collect();
    assert!(
        mismatched.is_empty(),
        "results changed for {mismatched:?}; the digests now read:\n{table}"
    );
}
