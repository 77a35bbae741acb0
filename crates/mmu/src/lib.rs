//! Virtual-to-physical translation substrate for `cachetime`.
//!
//! All the paper's headline simulations use *virtual* caches (the process
//! identifier travels in the tag), but its simulator "provides for"
//! translation: "virtual to physical translation can be placed anywhere in
//! the hierarchy". This crate supplies that substrate:
//!
//! * [`PageMap`] — a deterministic first-touch frame allocator: the first
//!   reference to a `(pid, virtual page)` pair claims the next physical
//!   frame, as a simple OS would;
//! * [`Tlb`] — a set-associative translation look-aside buffer with LRU
//!   replacement and a configurable miss penalty;
//! * [`Mmu`] — the pair, fronting the cache hierarchy.
//!
//! Placing translation before the cache turns the hierarchy *physical*:
//! distinct processes stop colliding on identical virtual addresses, which
//! is exactly the effect the paper invokes when explaining why large
//! virtual caches keep benefiting from associativity ("above that the
//! improvements increase because the caches are virtual").
//!
//! # Examples
//!
//! ```
//! use cachetime_mmu::{Mmu, TranslationConfig};
//! use cachetime_types::{Pid, WordAddr};
//!
//! let mut mmu = Mmu::new(TranslationConfig::default());
//! let (phys, hit) = mmu.translate(WordAddr::new(0x12345), Pid(1));
//! assert!(!hit, "first touch misses the TLB");
//! let (again, hit) = mmu.translate(WordAddr::new(0x12345), Pid(1));
//! assert!(hit);
//! assert_eq!(phys, again, "translation is stable");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cachetime_types::{ConfigError, Pid, StableHash, StableHasher, WordAddr};
use std::collections::HashMap;
use std::ops::AddAssign;

/// Largest accepted [`TranslationConfig::miss_penalty`]: far beyond any
/// real table walk, and small enough that no simulation's cycle count
/// can overflow adding walks up.
pub const MAX_MISS_PENALTY: u64 = u32::MAX as u64;

/// Configuration of the translation layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TranslationConfig {
    /// Page size in words (power of two; 1024 words = one 4 KB VAX-style
    /// page).
    pub page_words: u32,
    /// Total TLB entries (power of two).
    pub tlb_entries: u32,
    /// TLB associativity (power of two, ≤ entries).
    pub tlb_assoc: u32,
    /// Cycles added to a reference that misses the TLB (the table walk).
    pub miss_penalty: u64,
}

impl TranslationConfig {
    /// Validates the combination.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for non-power-of-two geometry, an
    /// associativity exceeding the entry count, or a miss penalty above
    /// [`MAX_MISS_PENALTY`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.miss_penalty > MAX_MISS_PENALTY {
            return Err(ConfigError::OutOfRange {
                what: "TLB miss penalty (cycles)",
                value: self.miss_penalty,
                min: 0,
                max: MAX_MISS_PENALTY,
            });
        }
        for (what, v) in [
            ("page size (words)", self.page_words),
            ("TLB entries", self.tlb_entries),
            ("TLB associativity", self.tlb_assoc),
        ] {
            if !v.is_power_of_two() {
                return Err(ConfigError::NotPowerOfTwo {
                    what,
                    value: v as u64,
                });
            }
        }
        if self.tlb_assoc > self.tlb_entries {
            return Err(ConfigError::Inconsistent {
                what: "TLB associativity exceeds entry count",
            });
        }
        Ok(())
    }
}

impl StableHash for TranslationConfig {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.page_words.stable_hash(h);
        self.tlb_entries.stable_hash(h);
        self.tlb_assoc.stable_hash(h);
        self.miss_penalty.stable_hash(h);
    }
}

impl Default for TranslationConfig {
    /// A VAX-flavoured default: 4 KB pages, 64-entry 2-way TLB, 20-cycle
    /// walks.
    fn default() -> Self {
        TranslationConfig {
            page_words: 1024,
            tlb_entries: 64,
            tlb_assoc: 2,
            miss_penalty: 20,
        }
    }
}

/// Deterministic first-touch page-frame allocator.
///
/// Physical frames are handed out in touch order, so translation depends
/// only on the reference stream — simulations stay reproducible.
#[derive(Debug, Clone, Default)]
pub struct PageMap {
    frames: HashMap<(u16, u64), u64>,
    next_frame: u64,
}

impl PageMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the physical frame of `(pid, vpn)`, allocating on first
    /// touch.
    pub fn frame(&mut self, pid: Pid, vpn: u64) -> u64 {
        match self.frames.entry((pid.0, vpn)) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let f = self.next_frame;
                self.next_frame += 1;
                *e.insert(f)
            }
        }
    }

    /// Number of frames allocated so far (the resident-set size in pages).
    pub fn allocated(&self) -> u64 {
        self.next_frame
    }
}

/// A set-associative TLB with exact-LRU replacement.
#[derive(Debug, Clone)]
pub struct Tlb {
    sets: u32,
    assoc: u32,
    /// `(valid, pid, vpn, stamp)` per way, row-major by set.
    entries: Vec<(bool, u16, u64, u64)>,
    clock: u64,
}

impl Tlb {
    /// Creates an empty TLB of `entries` total entries and `assoc` ways.
    pub fn new(entries: u32, assoc: u32) -> Self {
        Tlb {
            sets: entries / assoc,
            assoc,
            entries: vec![(false, 0, 0, 0); entries as usize],
            clock: 0,
        }
    }

    /// Probes (and on miss, installs) the translation for `(pid, vpn)`.
    /// Returns `true` on a hit.
    pub fn access(&mut self, pid: Pid, vpn: u64) -> bool {
        self.clock += 1;
        let set = (vpn % self.sets as u64) as u32;
        let base = (set * self.assoc) as usize;
        let ways = &mut self.entries[base..base + self.assoc as usize];
        if let Some(way) = ways
            .iter_mut()
            .find(|(v, p, e_vpn, _)| *v && *p == pid.0 && *e_vpn == vpn)
        {
            way.3 = self.clock;
            return true;
        }
        // Install over the invalid or least recently used way.
        let victim = ways
            .iter_mut()
            .min_by_key(|(v, _, _, stamp)| if *v { *stamp } else { 0 })
            .expect("assoc >= 1");
        *victim = (true, pid.0, vpn, self.clock);
        false
    }
}

/// TLB statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MmuStats {
    /// Translations performed.
    pub accesses: u64,
    /// TLB misses (table walks).
    pub misses: u64,
}

impl MmuStats {
    /// Miss ratio (0 when idle).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

impl AddAssign for MmuStats {
    fn add_assign(&mut self, rhs: MmuStats) {
        self.accesses += rhs.accesses;
        self.misses += rhs.misses;
    }
}

/// The translation unit: page map plus TLB.
#[derive(Debug, Clone)]
pub struct Mmu {
    config: TranslationConfig,
    map: PageMap,
    tlb: Tlb,
    stats: MmuStats,
}

impl Mmu {
    /// Creates an MMU with an empty page map and cold TLB.
    pub fn new(config: TranslationConfig) -> Self {
        Mmu {
            map: PageMap::new(),
            tlb: Tlb::new(config.tlb_entries, config.tlb_assoc),
            stats: MmuStats::default(),
            config,
        }
    }

    /// Returns the configuration.
    pub fn config(&self) -> &TranslationConfig {
        &self.config
    }

    /// Returns accumulated statistics.
    pub fn stats(&self) -> &MmuStats {
        &self.stats
    }

    /// Resets statistics (warm-start boundary); TLB and page map persist.
    pub fn reset_stats(&mut self) {
        self.stats = MmuStats::default();
    }

    /// Translates a virtual word address; returns the physical address and
    /// whether the TLB hit (a miss costs the configured walk penalty,
    /// charged by the caller).
    pub fn translate(&mut self, addr: WordAddr, pid: Pid) -> (WordAddr, bool) {
        let page_words = self.config.page_words as u64;
        let vpn = addr.value() / page_words;
        let offset = addr.value() % page_words;
        let hit = self.tlb.access(pid, vpn);
        self.stats.accesses += 1;
        if !hit {
            self.stats.misses += 1;
        }
        let frame = self.map.frame(pid, vpn);
        (WordAddr::new(frame * page_words + offset), hit)
    }

    /// The walk penalty in cycles.
    pub fn miss_penalty(&self) -> u64 {
        self.config.miss_penalty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        assert!(TranslationConfig::default().validate().is_ok());
        let bad = TranslationConfig {
            page_words: 1000,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = TranslationConfig {
            tlb_assoc: 128,
            tlb_entries: 64,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn miss_penalty_is_bounded() {
        let at_max = TranslationConfig {
            miss_penalty: MAX_MISS_PENALTY,
            ..Default::default()
        };
        assert!(at_max.validate().is_ok());
        let over = TranslationConfig {
            miss_penalty: MAX_MISS_PENALTY + 1,
            ..Default::default()
        };
        assert!(matches!(
            over.validate(),
            Err(ConfigError::OutOfRange { .. })
        ));
    }

    #[test]
    fn first_touch_allocation_is_sequential() {
        let mut map = PageMap::new();
        assert_eq!(map.frame(Pid(1), 100), 0);
        assert_eq!(map.frame(Pid(1), 200), 1);
        assert_eq!(map.frame(Pid(2), 100), 2, "per-process mapping");
        assert_eq!(map.frame(Pid(1), 100), 0, "stable on re-touch");
        assert_eq!(map.allocated(), 3);
    }

    #[test]
    fn translation_preserves_page_offset() {
        let mut mmu = Mmu::new(TranslationConfig::default());
        let (phys, _) = mmu.translate(WordAddr::new(5 * 1024 + 37), Pid(1));
        assert_eq!(phys.value() % 1024, 37);
    }

    #[test]
    fn same_virtual_page_different_processes_diverge() {
        let mut mmu = Mmu::new(TranslationConfig::default());
        let (a, _) = mmu.translate(WordAddr::new(0x4000), Pid(1));
        let (b, _) = mmu.translate(WordAddr::new(0x4000), Pid(2));
        assert_ne!(a, b, "physical caches must not alias across processes");
    }

    #[test]
    fn tlb_hits_within_working_set() {
        let mut mmu = Mmu::new(TranslationConfig::default());
        for vpn in 0..32u64 {
            mmu.translate(WordAddr::new(vpn * 1024), Pid(1));
        }
        let before = mmu.stats().misses;
        for _ in 0..10 {
            for vpn in 0..32u64 {
                let (_, hit) = mmu.translate(WordAddr::new(vpn * 1024), Pid(1));
                assert!(hit, "32 pages fit a 64-entry TLB");
            }
        }
        assert_eq!(mmu.stats().misses, before);
    }

    #[test]
    fn tlb_capacity_misses_beyond_entries() {
        let mut mmu = Mmu::new(TranslationConfig::default());
        // Cycle through 256 pages: far beyond 64 entries, LRU evicts all.
        for round in 0..3 {
            for vpn in 0..256u64 {
                let (_, hit) = mmu.translate(WordAddr::new(vpn * 1024), Pid(1));
                if round > 0 {
                    assert!(!hit, "cyclic sweep through 4x the TLB must miss");
                }
            }
        }
        assert!(mmu.stats().miss_ratio() > 0.9);
    }

    #[test]
    fn tlb_lru_within_set() {
        let mut tlb = Tlb::new(4, 2); // 2 sets x 2 ways
                                      // vpns 0,2,4 all map to set 0.
        assert!(!tlb.access(Pid(1), 0));
        assert!(!tlb.access(Pid(1), 2));
        assert!(tlb.access(Pid(1), 0), "still resident");
        assert!(!tlb.access(Pid(1), 4), "fills set 0, evicting vpn 2 (LRU)");
        assert!(!tlb.access(Pid(1), 2), "vpn 2 was the victim");
        assert!(tlb.access(Pid(1), 4), "vpn 4 survived");
    }

    #[test]
    fn stats_reset_keeps_translations() {
        let mut mmu = Mmu::new(TranslationConfig::default());
        let (a, _) = mmu.translate(WordAddr::new(0x4000), Pid(1));
        mmu.reset_stats();
        assert_eq!(mmu.stats().accesses, 0);
        let (b, hit) = mmu.translate(WordAddr::new(0x4000), Pid(1));
        assert_eq!(a, b);
        assert!(hit, "TLB state survives the reset");
    }
}
