//! Shared pieces of the `cachetime-bench` harness: the small trace set and
//! the model ablations `cachetime-bench ablation` prints.
//!
//! The ablations are *model* ablations, not speed ablations: each one
//! reports the execution-time impact of toggling one modeling decision
//! that DESIGN.md §10 calls out.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cachetime::{simulate, SystemConfig, SystemConfigBuilder};
use cachetime_cache::{CacheConfig, ReplacementPolicy};
use cachetime_experiments::runner::TraceSet;
use cachetime_mem::MemoryConfig;
use cachetime_types::{Assoc, CacheSize};
use std::sync::OnceLock;

/// The trace scale the ablations run at: small enough for tight iteration.
pub const BENCH_SCALE: f64 = 0.02;

/// A process-wide trace set (generation is deterministic, so sharing does
/// not couple measurements).
pub fn traces() -> &'static TraceSet {
    static TRACES: OnceLock<TraceSet> = OnceLock::new();
    TRACES.get_or_init(|| TraceSet::generate(BENCH_SCALE))
}

/// One model ablation: a baseline machine against a variant that toggles
/// one modeling decision, in mean execution time per reference.
#[derive(Debug, Clone, PartialEq)]
pub struct Ablation {
    /// What the variant changes.
    pub label: String,
    /// Mean ns/ref of the baseline machine.
    pub base_ns: f64,
    /// Mean ns/ref of the variant.
    pub variant_ns: f64,
}

impl std::fmt::Display for Ablation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {:.2} -> {:.2} ns/ref ({:+.1}%)",
            self.label,
            self.base_ns,
            self.variant_ns,
            100.0 * (self.variant_ns / self.base_ns - 1.0)
        )
    }
}

/// Mean ns/ref of a configuration over the first two traces of the set.
fn mean_time(config: &SystemConfig) -> f64 {
    let runs = &traces().traces()[..2];
    runs.iter()
        .map(|t| simulate(config, t).time_per_ref_ns())
        .sum::<f64>()
        / runs.len() as f64
}

/// The paper's default machine with 8 KB split caches, then `mutate`.
fn small_cache_config(mutate: impl FnOnce(&mut SystemConfigBuilder)) -> SystemConfig {
    let l1 = CacheConfig::builder(CacheSize::from_kib(8).expect("pow2"))
        .build()
        .expect("valid cache");
    let mut b = SystemConfig::builder();
    b.l1_both(l1);
    mutate(&mut b);
    b.build().expect("valid system")
}

/// The default memory, then `mutate`.
fn memory(mutate: impl FnOnce(&mut cachetime_mem::MemoryConfigBuilder)) -> MemoryConfig {
    let mut b = MemoryConfig::builder();
    mutate(&mut b);
    b.build().expect("valid memory")
}

/// An 8 KB 2-way split machine under `policy`.
fn two_way(policy: ReplacementPolicy) -> SystemConfig {
    let l1 = CacheConfig::builder(CacheSize::from_kib(8).expect("pow2"))
        .assoc(Assoc::new(2).expect("pow2"))
        .replacement(policy)
        .build()
        .expect("valid cache");
    SystemConfig::builder()
        .l1_both(l1)
        .build()
        .expect("valid system")
}

/// The seven model ablations: write-buffer depth, read priority, write
/// coalescing, replacement policy, unified vs split, single issue and
/// early continuation.
pub fn ablations() -> Vec<Ablation> {
    let row = |label: &str, base: f64, variant: &SystemConfig| Ablation {
        label: label.to_string(),
        base_ns: base,
        variant_ns: mean_time(variant),
    };
    let base = mean_time(&small_cache_config(|_| {}));
    let mut rows = Vec::new();
    for depth in [0u32, 1, 4, 16] {
        let config = small_cache_config(|b| {
            b.memory(memory(|m| {
                m.wb_depth(depth);
            }));
        });
        rows.push(row(&format!("wb depth {depth}"), base, &config));
    }
    let fifo = small_cache_config(|b| {
        b.memory(memory(|m| {
            m.read_priority(false);
        }));
    });
    rows.push(row("FIFO drain (no read priority)", base, &fifo));
    let no_coalesce = small_cache_config(|b| {
        b.memory(memory(|m| {
            m.wb_coalesce(false);
        }));
    });
    rows.push(row("no write coalescing", base, &no_coalesce));
    // The paper uses random replacement for its associativity study; LRU
    // is the common alternative.
    let random = mean_time(&two_way(ReplacementPolicy::Random));
    for (name, policy) in [
        ("LRU", ReplacementPolicy::Lru),
        ("FIFO", ReplacementPolicy::Fifo),
        ("tree-PLRU", ReplacementPolicy::TreePlru),
    ] {
        rows.push(row(&format!("{name} vs random"), random, &two_way(policy)));
    }
    // Same total storage: split 8+8 KB vs unified 16 KB. The couplet CPU
    // cannot dual-issue against a unified cache.
    let unified = SystemConfig::builder()
        .l1_both(
            CacheConfig::builder(CacheSize::from_kib(16).expect("pow2"))
                .build()
                .expect("valid cache"),
        )
        .unified(true)
        .build()
        .expect("valid system");
    rows.push(row("unified vs split (equal total)", base, &unified));
    let single = small_cache_config(|b| {
        b.dual_issue(false);
    });
    rows.push(row("single-issue CPU", base, &single));
    let early = small_cache_config(|b| {
        b.early_continuation(true);
    });
    rows.push(row("early continuation", base, &early));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_traces_are_generated_once() {
        let a = traces() as *const TraceSet;
        let b = traces() as *const TraceSet;
        assert_eq!(a, b);
        assert_eq!(traces().traces().len(), 8);
    }

    #[test]
    fn ablations_cover_the_seven_decisions() {
        let rows = ablations();
        assert_eq!(rows.len(), 12);
        for row in &rows {
            assert!(row.base_ns > 0.0 && row.variant_ns.is_finite(), "{row}");
        }
        // Depth 4 is the default buffer: the variant is the baseline.
        let default_depth = rows.iter().find(|r| r.label == "wb depth 4").unwrap();
        assert_eq!(default_depth.variant_ns, default_depth.base_ns);
    }

    #[test]
    fn ablation_rows_print_signed_deltas() {
        let row = Ablation {
            label: "single-issue CPU".into(),
            base_ns: 80.0,
            variant_ns: 100.0,
        };
        assert_eq!(
            row.to_string(),
            "single-issue CPU: 80.00 -> 100.00 ns/ref (+25.0%)"
        );
    }
}
