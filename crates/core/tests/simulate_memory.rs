//! Direct simulation streams: `Simulator::run_refs` holds no op stream, so
//! its peak heap does not grow with the length of the reference stream.
//! `ctsim --stream` relies on this to run any length of `din` file in
//! constant memory.
//!
//! A counting global allocator tracks the live heap bytes of this thread;
//! the binary holds this one test so nothing else allocates beside it.

use cachetime::{LevelTwoConfig, Simulator, SystemConfig};
use cachetime_cache::CacheConfig;
use cachetime_testkit::SplitMix64;
use cachetime_types::{CacheSize, MemRef, Pid, WordAddr};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the live heap bytes of each thread and their high-water mark.
struct PeakAlloc;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn grow(by: isize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + by);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Runs `f`; returns the most heap it held live above what was live when
/// it started.
fn peak_heap(f: impl FnOnce()) -> isize {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    f();
    PEAK.with(Cell::get) - base
}

/// `n` references, generated as they are consumed: fetches, loads and
/// stores over a working set a few times the L1, so misses, dirty
/// victims and write-buffer traffic recur all the way through.
fn refs(n: usize) -> impl Iterator<Item = MemRef> {
    let mut rng = SplitMix64::from_seed(0x5EED_0F_5F2E);
    (0..n).map(move |_| {
        let pid = Pid(rng.gen_range(0u16..2));
        match rng.gen_range(0u8..3) {
            0 => MemRef::ifetch(WordAddr::new(rng.gen_range(0u64..4096)), pid),
            1 => MemRef::load(WordAddr::new(rng.gen_range(0u64..16384)), pid),
            _ => MemRef::store(WordAddr::new(rng.gen_range(0u64..16384)), pid),
        }
    })
}

#[test]
fn run_refs_peak_heap_does_not_grow_with_the_stream() {
    let l1 = CacheConfig::builder(CacheSize::from_kib(4).unwrap())
        .build()
        .unwrap();
    let l2 = CacheConfig::builder(CacheSize::from_kib(32).unwrap())
        .build()
        .unwrap();
    let config = SystemConfig::builder()
        .l1_both(l1)
        .l2(LevelTwoConfig::new(l2))
        .build()
        .unwrap();
    let run = |n: usize| {
        peak_heap(|| {
            let r = Simulator::new(&config).run_refs(refs(n), n / 10);
            assert!(r.l1d.read_misses > 0 && r.mem.writes > 0, "{r:?}");
        })
    };
    // The first run registers the global metrics; measure after it.
    run(1000);
    let short = run(400_000);
    let long = run(4_000_000);
    assert!(
        long <= short,
        "peak heap grew with the stream: {short} B over 0.4M refs, {long} B over 4M"
    );
}
