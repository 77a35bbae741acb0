//! Cycle arithmetic for memory operations (the paper's Table 2).

use crate::config::MemoryConfig;
use cachetime_types::CycleTime;

/// The memory-operation cycle counts for one (memory, cycle-time) pairing.
///
/// Because the memory's nanosecond delays are fixed while the cache clock
/// varies, every duration quantizes to a cycle-time-dependent number of
/// cycles. This quantization is exactly the paper's Table 2 and the source
/// of its 56 ns anomaly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryTiming {
    cycles: MemoryCycles,
    cycle_time: CycleTime,
    transfer: TransferCycles,
}

/// Everything a [`MemoryTiming`] prices with, in cycles: the memory
/// configuration plus the three delays [`MemoryTiming::new`] quantizes.
///
/// The cycle time is deliberately absent. Two cycle times that quantize
/// every delay alike (40 and 44 ns under the paper's memory, or 60 through
/// 80 ns) yield equal `MemoryCycles` and time every memory operation
/// identically, so a caller can price them on one machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryCycles {
    config: MemoryConfig,
    latency_cycles: u64,
    write_op_cycles: u64,
    recovery_cycles: u64,
}

impl MemoryCycles {
    /// Quantizes `config`'s delays under `cycle_time` (rounding up).
    pub const fn new(config: &MemoryConfig, cycle_time: CycleTime) -> Self {
        MemoryCycles {
            config: *config,
            latency_cycles: cycle_time.cycles_for(config.read_op().0),
            write_op_cycles: cycle_time.cycles_for(config.write_op().0),
            recovery_cycles: cycle_time.cycles_for(config.recovery().0),
        }
    }
}

/// Division-free [`TransferRate::cycles_for_words`]: the backplane rate is
/// fixed when the timing is bound, and the quantization sits on the
/// hot path of every fill and drain, so reduce it to a shift or a multiply
/// up front (a hardware divide per call is measurable at replay rates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TransferCycles {
    /// `WordsPerCycle(2^shift)`: ceiling division by add-then-shift.
    Shift { add: u32, shift: u32 },
    /// `CyclesPerWord(c)`: a multiply.
    Mul { c: u32 },
    /// `WordsPerCycle(n)`, `n` not a power of two: general division.
    Div { n: u32 },
}

impl MemoryTiming {
    /// Binds a memory configuration to a cycle time.
    ///
    /// The cycle time enters the arithmetic only through [`MemoryCycles`];
    /// everything else below is a function of the configuration.
    pub fn new(config: &MemoryConfig, cycle_time: CycleTime) -> Self {
        let transfer = match config.transfer() {
            crate::TransferRate::WordsPerCycle(n) if n.is_power_of_two() => {
                TransferCycles::Shift {
                    add: n - 1,
                    shift: n.trailing_zeros(),
                }
            }
            crate::TransferRate::WordsPerCycle(n) => TransferCycles::Div { n },
            crate::TransferRate::CyclesPerWord(c) => TransferCycles::Mul { c },
        };
        MemoryTiming {
            cycles: MemoryCycles::new(config, cycle_time),
            cycle_time,
            transfer,
        }
    }

    /// Returns the underlying configuration.
    pub const fn config(&self) -> &MemoryConfig {
        &self.cycles.config
    }

    /// Returns the bound cycle time.
    pub const fn cycle_time(&self) -> CycleTime {
        self.cycle_time
    }

    /// The quantized DRAM read latency in cycles — `la` in the paper's
    /// `la × tr` memory-speed product (excludes the address cycle).
    pub const fn latency_cycles(&self) -> u64 {
        self.cycles.latency_cycles
    }

    /// The quantized write-operation time in cycles.
    pub const fn write_op_cycles(&self) -> u64 {
        self.cycles.write_op_cycles
    }

    /// The quantized recovery time in cycles (Table 2, "Recovery time").
    pub const fn recovery_cycles(&self) -> u64 {
        self.cycles.recovery_cycles
    }

    /// Cycles to transfer `words` words over the backplane.
    #[inline]
    pub const fn transfer_cycles(&self, words: u32) -> u64 {
        match self.transfer {
            TransferCycles::Shift { add, shift } => ((words + add) >> shift) as u64,
            TransferCycles::Mul { c } => words as u64 * c as u64,
            TransferCycles::Div { n } => words.div_ceil(n) as u64,
        }
    }

    /// Total cycles for a read of `words` words: address + latency +
    /// transfer (Table 2, "Read Time", with the default 4-word block).
    pub const fn read_time(&self, words: u32) -> u64 {
        self.config().addr_cycles() + self.latency_cycles() + self.transfer_cycles(words)
    }

    /// Total cycles a write of `words` words occupies the memory before
    /// recovery: address + transfer + write operation (Table 2, "Write
    /// Time").
    pub const fn write_time(&self, words: u32) -> u64 {
        self.config().addr_cycles() + self.transfer_cycles(words) + self.write_op_cycles()
    }

    /// Cycles a write occupies the *bus* (after which the cache proceeds
    /// while the memory completes the write internally).
    pub const fn write_bus_time(&self, words: u32) -> u64 {
        self.config().addr_cycles() + self.transfer_cycles(words)
    }

    /// The paper's memory-speed product `la × tr` (latency in cycles times
    /// transfer rate in words per cycle), which section 5 shows is the sole
    /// determinant of the optimal block size.
    pub fn memory_speed_product(&self) -> f64 {
        self.latency_cycles() as f64 * self.config().transfer().words_per_cycle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachetime_types::Nanos;

    /// The paper's Table 2, verbatim: cycle time (ns), read time, write
    /// time, recovery time — for the default memory (180/100/120 ns) and a
    /// 4-word block at one word per cycle.
    const TABLE_2: &[(u32, u64, u64, u64)] = &[
        (20, 14, 10, 6),
        (24, 13, 10, 5),
        (28, 12, 9, 5),
        (32, 11, 9, 4),
        (36, 10, 8, 4),
        (40, 10, 8, 3),
        (48, 9, 8, 3),
        (52, 9, 7, 3),
        (60, 8, 7, 2),
    ];

    #[test]
    fn reproduces_table_2_exactly() {
        let config = MemoryConfig::paper_default();
        for &(ct_ns, read, write, recovery) in TABLE_2 {
            let t = MemoryTiming::new(&config, CycleTime::from_ns(ct_ns).unwrap());
            assert_eq!(t.read_time(4), read, "read time at {ct_ns}ns");
            assert_eq!(t.write_time(4), write, "write time at {ct_ns}ns");
            assert_eq!(t.recovery_cycles(), recovery, "recovery at {ct_ns}ns");
        }
    }

    #[test]
    fn footnote_13_260ns_latency() {
        // "A 260ns latency makes for a 12 cycle read request for a block
        // size of 4 and a cycle time of 40ns."
        let config = MemoryConfig::builder().read_op(Nanos(260)).build().unwrap();
        let t = MemoryTiming::new(&config, CycleTime::from_ns(40).unwrap());
        assert_eq!(t.read_time(4), 12);
    }

    #[test]
    fn section5_latency_grid_in_cycles() {
        // 100..420ns at 40ns/cycle quantize to 3, 5, 7, 9, 11 cycles.
        let ct = CycleTime::from_ns(40).unwrap();
        for (ns, cycles) in [(100, 3), (180, 5), (260, 7), (340, 9), (420, 11)] {
            let config = MemoryConfig::builder().read_op(Nanos(ns)).build().unwrap();
            assert_eq!(MemoryTiming::new(&config, ct).latency_cycles(), cycles);
        }
    }

    #[test]
    fn miss_penalty_rises_as_cycle_time_falls() {
        // The hidden variable of section 6: 20ns -> 14 cycles, 80ns -> 8.
        let config = MemoryConfig::paper_default();
        let at = |ns| MemoryTiming::new(&config, CycleTime::from_ns(ns).unwrap()).read_time(4);
        assert_eq!(at(20), 14);
        assert_eq!(at(80), 8);
        let mut prev = u64::MAX;
        for ns in (20..=80).step_by(4) {
            let now = at(ns);
            assert!(now <= prev, "read cycles must not increase with cycle time");
            prev = now;
        }
    }

    #[test]
    fn equal_cycles_time_every_operation_alike() {
        // The cycle time reaches the arithmetic only through
        // `MemoryCycles`: two timings with equal cycles agree on every
        // duration, whatever their clocks.
        for transfer in [
            crate::TransferRate::WordsPerCycle(1),
            crate::TransferRate::WordsPerCycle(3),
            crate::TransferRate::CyclesPerWord(2),
        ] {
            let config = MemoryConfig::builder().transfer(transfer).build().unwrap();
            for a in 20..=80 {
                for b in a..=80 {
                    let ta = MemoryTiming::new(&config, CycleTime::from_ns(a).unwrap());
                    let tb = MemoryTiming::new(&config, CycleTime::from_ns(b).unwrap());
                    if ta.cycles != tb.cycles {
                        continue;
                    }
                    for words in [1, 4, 16] {
                        assert_eq!(ta.read_time(words), tb.read_time(words));
                        assert_eq!(ta.write_time(words), tb.write_time(words));
                        assert_eq!(ta.write_bus_time(words), tb.write_bus_time(words));
                        assert_eq!(ta.transfer_cycles(words), tb.transfer_cycles(words));
                    }
                    assert_eq!(ta.recovery_cycles(), tb.recovery_cycles());
                }
            }
        }
    }

    #[test]
    fn bus_time_excludes_write_op() {
        let config = MemoryConfig::paper_default();
        let t = MemoryTiming::new(&config, CycleTime::from_ns(40).unwrap());
        assert_eq!(t.write_bus_time(4), 5); // 1 addr + 4 transfer
        assert_eq!(t.write_time(4), t.write_bus_time(4) + t.write_op_cycles());
    }

    #[test]
    fn memory_speed_product() {
        let config = MemoryConfig::paper_default();
        let t = MemoryTiming::new(&config, CycleTime::from_ns(40).unwrap());
        assert_eq!(t.memory_speed_product(), 5.0); // la=5, tr=1
        let fast_bus = MemoryConfig::builder()
            .transfer(crate::TransferRate::WordsPerCycle(4))
            .build()
            .unwrap();
        let t = MemoryTiming::new(&fast_bus, CycleTime::from_ns(40).unwrap());
        assert_eq!(t.memory_speed_product(), 20.0);
    }
}
