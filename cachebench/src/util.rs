//! Shared measurement plumbing: quantiles, the host fingerprint, peak RSS,
//! the in-memory span recorder and the result report.

use cachetime::SimResult;
use cachetime_types::StableHasher;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The `q`-quantile of `values` (linear interpolation between closest
/// ranks, as `statistics.quantiles(..., method="inclusive")` does).
/// `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Microseconds in `d`, as a float.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Nanoseconds in `d`, as a float.
pub fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, properly laid-out `struct timespec` (64-bit
    // Linux) for the call, and both clock ids are valid for the calling
    // process, so the call only writes `ts`.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime on a CPU-time clock");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time this thread has used: what a computation costs the host, not
/// counting time the thread waited for a core.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time every thread of this process has used.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// A digest of the statistics every result carries. It covers a fixed list
/// of counters, so a later change that adds a field to `SimResult` leaves
/// the digests of two commits comparable.
pub fn digest_results<'a>(results: impl IntoIterator<Item = &'a SimResult>) -> u64 {
    let mut h = StableHasher::new();
    for r in results {
        h.write_u64(u64::from(r.cycle_time.ns()));
        h.write_u64(r.cycles.0);
        h.write_u64(r.refs);
        h.write_u64(r.couplets);
        h.write_u64(r.stall_cycles.0);
        for s in [&r.l1i, &r.l1d] {
            for v in [
                s.reads,
                s.read_misses,
                s.writes,
                s.write_misses,
                s.fills,
                s.fill_words,
                s.evictions,
                s.dirty_evictions,
                s.victim_hits,
                s.way_first_hits,
                s.way_slow_hits,
            ] {
                h.write_u64(v);
            }
        }
        for i in 0..16 {
            h.write_u64(r.latency.bucket(i));
        }
    }
    h.finish()
}

/// `VmHWM` (peak resident set) of process `pid` in MiB, or `NaN` when
/// `/proc` cannot tell.
pub fn rss_peak_mb(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The host a result was measured on. Raw numbers from two hosts are not
/// comparable; the calibration kernel's time is the yardstick for
/// normalizing them.
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub calib_ms: f64,
}

impl Host {
    pub fn fingerprint() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .unwrap_or_default()
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        let runs: Vec<f64> = (0..3)
            .map(|_| calibration_kernel().as_secs_f64() * 1e3)
            .collect();
        Host {
            nproc: cachetime::sweep::available_jobs(),
            cpu_model,
            calib_ms: median(&runs),
        }
    }
}

/// A fixed single-threaded kernel: 1M dependent random reads over a 16 MiB
/// table, mixed by SplitMix64. It exercises the integer pipeline and the
/// memory hierarchy the way record and replay do.
fn calibration_kernel() -> Duration {
    const WORDS: usize = 1 << 22;
    let mut rng = cachetime_testkit::SplitMix64::from_seed(0x00CA_11B8);
    let table: Vec<u32> = (0..WORDS).map(|_| rng.next_u64() as u32).collect();
    let started = Instant::now();
    let mut x = 0u64;
    let mut ix = 0usize;
    for _ in 0..WORDS / 4 {
        x = x
            .wrapping_add(u64::from(table[ix]))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ix = (x >> 42) as usize & (WORDS - 1);
    }
    std::hint::black_box(x);
    started.elapsed()
}

/// One span: a timed call into a layer, kept in memory until the run ends.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u64,
    /// The enclosing span's id, 0 for a root.
    pub parent: u64,
    /// The request (or sweep task) the span belongs to.
    pub req: u64,
}

static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// A span recorder relative to a shared epoch. Each thread owns one and the
/// run merges them at the end, so recording never takes a lock.
pub struct Tracer {
    pub epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// A fresh span id.
    pub fn id() -> u64 {
        NEXT_SPAN.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span from `start` to `end`.
    pub fn record(
        &mut self,
        layer: &'static str,
        start: Instant,
        end: Instant,
        id: u64,
        parent: u64,
        req: u64,
    ) {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            layer,
            start_ns: at(start),
            end_ns: at(end),
            id,
            parent,
            req,
        });
    }
}

/// Per-layer totals over a set of spans: `(count, total, self)` in
/// nanoseconds, where a span's self time is its duration minus the part
/// its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let e = out.entry(s.layer).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Writes spans as JSON lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let _ = writeln!(
            out,
            r#"{{"layer":"{}","start_ns":{},"end_ns":{},"id":{},"parent":{},"req":{}}}"#,
            s.layer, s.start_ns, s.end_ns, s.id, s.parent, s.req
        );
    }
    std::fs::write(path, out)
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value summarizes.
    pub samples: usize,
}

/// Everything one run reports: metrics, free-form detail lines, and the
/// operation tally behind `error_frac`.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub extra: Vec<Metric>,
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub check_failures: Vec<String>,
}

impl Report {
    /// Adds a metric that goes into the result line.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// Adds a metric that is printed and saved but not in the result line.
    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.extra.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// Counts operations: `attempted` in total, of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn correct(&self) -> bool {
        self.check_failures.is_empty() && self.failed == 0
    }

    /// Human-readable lines: every metric with its unit and sample count.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            let _ = writeln!(out, "{n}");
        }
        for (tag, list) in [("metric", &self.metrics), ("detail", &self.extra)] {
            for m in list {
                let _ = writeln!(
                    out,
                    "{tag} {:<32} {:>16.6} {:<6} (n={})",
                    m.name, m.value, m.unit, m.samples
                );
            }
        }
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "ops attempted={} failed={} error_frac={frac:.6}",
            self.attempted, self.failed
        );
        for f in &self.check_failures {
            let _ = writeln!(out, "CHECK FAILED: {f}");
        }
        out
    }

    /// The one-line JSON result.
    pub fn result_line(&self) -> String {
        let mut m = String::new();
        for (i, metric) in self.metrics.iter().enumerate() {
            if i > 0 {
                m.push_str(", ");
            }
            let value = if metric.value.is_finite() {
                metric.value
            } else {
                -1.0
            };
            let _ = write!(
                m,
                r#""{}": {{"value": {:?}, "unit": "{}"}}"#,
                metric.name, value, metric.unit
            );
        }
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{m}}}}}"#,
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }
}
