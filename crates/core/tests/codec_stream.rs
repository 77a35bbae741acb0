//! The `EventTrace` codec across every organization feature and against
//! untrusted bytes.
//!
//! A trace's op stream leaves out every field its organization implies
//! (fetch start, fill size, victim size, walk cycles, write-through), so
//! each feature that shapes one of those fields must survive
//! `decode(encode(t))` and still replay exactly like `simulate`. And since
//! payloads come off disk and off the network, `decode` must turn any
//! bytes into either an error or a trace that replays without panicking.

use cachetime::codec::{self, CodecError};
use cachetime::{replay, simulate, BehavioralSim, EventTrace, SystemConfig};
use cachetime_cache::{CacheConfig, VictimCacheConfig, WayPrediction, WriteAllocate, WritePolicy};
use cachetime_mmu::TranslationConfig;
use cachetime_testkit::{check_config, prop_assert, prop_assert_eq, shrink, Config, SplitMix64};
use cachetime_trace::{catalog, Trace};
use cachetime_types::{
    AccessEvent, Assoc, BlockWords, CacheSize, CycleTime, EventOp, MemRef, RefEvent, WordAddr,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// Records the largest allocation request made on each thread, so a test
/// can bound what `decode` reserves.
struct LargestAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

/// Runs `f`; returns its result and the largest allocation it requested.
fn largest_alloc<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

fn l1(kib: u64) -> cachetime_cache::CacheConfigBuilder {
    CacheConfig::builder(CacheSize::from_kib(kib).unwrap())
}

fn system(b: &mut cachetime::SystemConfigBuilder) -> SystemConfig {
    b.build().unwrap()
}

/// `config`'s organization under another cycle time.
fn at(config: &SystemConfig, ct_ns: u32) -> SystemConfig {
    let timing = SystemConfig::builder()
        .cycle_time(CycleTime::from_ns(ct_ns).unwrap())
        .build()
        .unwrap()
        .timing();
    SystemConfig::from_parts(&config.organization(), &timing).unwrap()
}

fn shifted(trace: &Trace, by: u64) -> Trace {
    let refs = trace
        .refs()
        .iter()
        .map(|r| MemRef::new(WordAddr::new(r.addr.value() + by), r.kind, r.pid))
        .collect();
    Trace::new(trace.name(), refs, trace.warm_start())
}

fn halves(op: &EventOp) -> Vec<RefEvent> {
    match op {
        EventOp::Couplet { iref, dref } => iref.iter().chain(dref).copied().collect(),
        _ => Vec::new(),
    }
}

/// A feature, an organization that has it, the trace it is recorded on,
/// and how to see the feature in a recorded op.
struct Case {
    name: &'static str,
    config: SystemConfig,
    trace: Trace,
    shows: fn(&RefEvent) -> bool,
}

fn cases(scale: f64) -> Vec<Case> {
    let mu3 = catalog::mu3(scale).generate();
    let small = |b: &mut cachetime_cache::CacheConfigBuilder| b.build().unwrap();
    vec![
        Case {
            name: "sub-block fetch",
            config: system(
                SystemConfig::builder().l1_both(small(
                    l1(4)
                        .block(BlockWords::new(8).unwrap())
                        .fetch(BlockWords::new(2).unwrap()),
                )),
            ),
            trace: mu3.clone(),
            shows: |e| matches!(e.access, AccessEvent::ReadMiss { fill_words: 2, .. }),
        },
        Case {
            name: "write-through",
            config: system(
                SystemConfig::builder()
                    .l1_both(small(l1(4).write_policy(WritePolicy::WriteThrough))),
            ),
            trace: mu3.clone(),
            shows: |e| matches!(e.access, AccessEvent::WriteHit { through: true }),
        },
        Case {
            name: "write-allocate",
            config: system(
                SystemConfig::builder()
                    .l1_both(small(l1(4).write_allocate(WriteAllocate::Allocate))),
            ),
            trace: mu3.clone(),
            shows: |e| {
                matches!(
                    e.access,
                    AccessEvent::WriteMissAllocate {
                        victim: Some(_),
                        ..
                    }
                )
            },
        },
        Case {
            name: "victim buffer",
            config: system(SystemConfig::builder().l1_both(small(
                l1(2).victim_cache(VictimCacheConfig::new(4).unwrap()),
            ))),
            trace: mu3.clone(),
            shows: |e| matches!(e.access, AccessEvent::ReadVictimHit),
        },
        Case {
            name: "MRU way prediction",
            config: system(
                SystemConfig::builder().l1_both(small(
                    l1(4)
                        .assoc(Assoc::new(2).unwrap())
                        .way_prediction(WayPrediction::Mru),
                )),
            ),
            trace: mu3.clone(),
            shows: |e| matches!(e.access, AccessEvent::ReadSlowHit),
        },
        Case {
            name: "multi-column way prediction",
            config: system(
                SystemConfig::builder().l1_both(small(
                    l1(4)
                        .assoc(Assoc::new(4).unwrap())
                        .way_prediction(WayPrediction::MultiColumn),
                )),
            ),
            trace: mu3.clone(),
            shows: |e| matches!(e.access, AccessEvent::ReadSlowHit),
        },
        Case {
            name: "MMU walks",
            config: system(
                SystemConfig::builder()
                    .l1_both(small(l1(4).virtual_tags(false)))
                    .translation(TranslationConfig::default()),
            ),
            trace: mu3.clone(),
            shows: |e| e.walk_cycles == TranslationConfig::default().miss_penalty,
        },
        Case {
            // The L1i's geometry differs from the L1d's, so deriving an
            // instruction fetch's fields from the wrong cache shows.
            name: "unified L1",
            config: system(
                SystemConfig::builder()
                    .l1i(small(l1(8).block(BlockWords::new(2).unwrap())))
                    .l1d(small(
                        l1(4)
                            .block(BlockWords::new(8).unwrap())
                            .fetch(BlockWords::new(4).unwrap()),
                    ))
                    .unified(true),
            ),
            trace: mu3.clone(),
            shows: |e| matches!(e.access, AccessEvent::ReadMiss { fill_words: 4, victim: Some(v), .. } if v.words == 8),
        },
        Case {
            name: "addresses past 32 bits",
            config: system(SystemConfig::builder().l1_both(small(&mut l1(4)))),
            trace: shifted(&mu3, 1 << 40),
            shows: |e| matches!(e.access, AccessEvent::ReadMiss { victim: Some(v), .. } if v.addr.value() > 1 << 40),
        },
    ]
}

#[test]
fn every_feature_round_trips_and_replays_like_simulate() {
    for case in cases(0.01) {
        let events = BehavioralSim::new(&case.config.organization()).record(&case.trace);
        assert!(
            events
                .ops()
                .flat_map(|op| halves(&op))
                .any(|e| (case.shows)(&e)),
            "{}: the recording never exercises the feature",
            case.name
        );
        let back = codec::decode(&codec::encode(&events)).expect("own encoding decodes");
        assert_eq!(back, events, "{}", case.name);
        assert!(back.ops().eq(events.ops()), "{}", case.name);
        for ct_ns in [20u32, 56] {
            let config = at(&case.config, ct_ns);
            assert_eq!(
                replay(&back, &config).unwrap(),
                simulate(&config, &case.trace),
                "{} @ {ct_ns}ns",
                case.name
            );
        }
    }
}

#[test]
fn repeated_recordings_on_one_machine_are_independent() {
    let config = SystemConfig::paper_default().unwrap();
    let first = catalog::savec(0.005).generate();
    let second = catalog::mu3(0.005).generate();
    let mut sim = BehavioralSim::new(&config.organization());
    let a = sim.record(&first);
    let b = sim.record(&second);
    let a_again = sim.record(&first);
    assert_eq!(a, a_again);
    assert_eq!(
        b,
        BehavioralSim::new(&config.organization()).record(&second)
    );
}

#[test]
fn version_1_payloads_are_refused() {
    // A payload written by the version-1 codec, which encoded every op
    // field by field.
    let v1 = include_bytes!("data/payload_v1.bin");
    assert_eq!(v1[0], 1);
    assert_eq!(
        codec::decode(v1),
        Err(CodecError::Invalid("unsupported payload version"))
    );
}

/// Real payloads to mutate: one recording per feature case.
fn payloads() -> &'static Vec<Vec<u8>> {
    static POOL: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    POOL.get_or_init(|| {
        cases(0.003)
            .iter()
            .map(|c| codec::encode(&BehavioralSim::new(&c.config.organization()).record(&c.trace)))
            .collect()
    })
}

/// Bytes handed to `decode`.
#[derive(Debug, Clone)]
enum Input {
    /// Arbitrary bytes.
    Arbitrary(Vec<u8>),
    /// Real payload `ix` cut to its first `keep` bytes.
    Truncated { ix: usize, keep: usize },
    /// Real payload `ix` with bit `bit` flipped.
    Flipped { ix: usize, bit: usize },
    /// Real payload `ix`'s first `keep` bytes, then arbitrary ones: a
    /// valid header in front of a garbage op stream.
    Spliced {
        ix: usize,
        keep: usize,
        tail: Vec<u8>,
    },
}

impl Input {
    fn bytes(&self) -> Vec<u8> {
        let pool = payloads();
        match self {
            Input::Arbitrary(b) => b.clone(),
            Input::Truncated { ix, keep } => pool[*ix][..*keep].to_vec(),
            Input::Flipped { ix, bit } => {
                let mut b = pool[*ix].clone();
                b[bit / 8] ^= 1 << (bit % 8);
                b
            }
            Input::Spliced { ix, keep, tail } => {
                let mut b = pool[*ix][..*keep].to_vec();
                b.extend_from_slice(tail);
                b
            }
        }
    }
}

fn random_bytes(rng: &mut SplitMix64, max: usize) -> Vec<u8> {
    let mut b = vec![0u8; rng.gen_range(0..max)];
    rng.fill(&mut b);
    b
}

fn gen_input(rng: &mut SplitMix64) -> Input {
    let pool = payloads();
    let ix = rng.gen_range(0..pool.len());
    let len = pool[ix].len();
    match rng.gen_range(0u32..4) {
        0 => {
            let mut b = random_bytes(rng, 600);
            if let Some(first) = b.first_mut() {
                if rng.gen_bool(0.5) {
                    *first = codec::PAYLOAD_VERSION;
                }
            }
            Input::Arbitrary(b)
        }
        1 => Input::Truncated {
            ix,
            keep: rng.gen_range(0..len),
        },
        2 => Input::Flipped {
            ix,
            bit: rng.gen_range(0..len * 8),
        },
        _ => Input::Spliced {
            ix,
            keep: rng.gen_range(len.saturating_sub(64)..len),
            tail: random_bytes(rng, 64),
        },
    }
}

fn shrink_input(input: &Input) -> Vec<Input> {
    match input {
        Input::Arbitrary(b) => shrink::vec_linear(b)
            .into_iter()
            .map(Input::Arbitrary)
            .collect(),
        _ => Vec::new(),
    }
}

/// Decodes `bytes` and, when that succeeds, replays the trace at two
/// cycle times. Returns the decode result and the largest allocation
/// decode requested.
fn decode_and_replay(bytes: &[u8]) -> (Result<EventTrace, CodecError>, usize) {
    let (decoded, largest) = largest_alloc(|| codec::decode(bytes));
    if let Ok(trace) = &decoded {
        for ct_ns in [20u32, 80] {
            let timing = SystemConfig::builder()
                .cycle_time(CycleTime::from_ns(ct_ns).unwrap())
                .build()
                .unwrap()
                .timing();
            if let Ok(config) = SystemConfig::from_parts(trace.organization(), &timing) {
                replay(trace, &config).expect("the trace's own organization");
            }
        }
    }
    (decoded, largest)
}

#[test]
fn untrusted_bytes_never_panic_decode_or_replay() {
    let config = Config {
        cases: Config::default().cases * 256,
        ..Config::default()
    };
    check_config(
        &config,
        "untrusted_payload_bytes",
        gen_input,
        shrink_input,
        |input| {
            let bytes = input.bytes();
            let Ok((decoded, largest)) =
                catch_unwind(AssertUnwindSafe(|| decode_and_replay(&bytes)))
            else {
                return Err("decode or replay panicked".into());
            };
            match decoded {
                Ok(trace) => {
                    // Decode accepts only canonical bytes, so what it accepts
                    // re-encodes to itself.
                    prop_assert_eq!(codec::encode(&trace), bytes);
                    prop_assert!(
                        largest <= bytes.len(),
                        "reserved {largest} for {} bytes",
                        bytes.len()
                    );
                }
                // The text of a configuration error is the one allocation not
                // bounded by the input.
                Err(CodecError::Config(msg)) => {
                    prop_assert!(
                        largest <= bytes.len().max(2 * msg.len()),
                        "reserved {largest}"
                    );
                }
                Err(_) => {
                    prop_assert!(
                        largest <= bytes.len(),
                        "reserved {largest} for {} bytes",
                        bytes.len()
                    );
                }
            }
            Ok(())
        },
    );
}
