//! The `sweep` workload: the paper's speed–size grid priced in process
//! through the library, the way `repro` and `ctsim` users run it.
//!
//! Every pass prices 8 catalog traces × 11 sizes × 3 L1 organizations ×
//! 16 cycle times with the record-once/replay-many path under
//! `sweep::run`, then prices the same organizations once more with the
//! direct `simulate` engine at one cycle time. Host time goes to record
//! (`cache`/`mem` via `BehavioralSim::record`), replay (`core`) and the
//! sweep executor; none goes to HTTP, the store, disk or ingest.

use crate::layers::{self, LayerInputs};
use crate::util::{self, digest_results, median, quantile, Report, Tracer};
use crate::Args;
use cachetime::{replay_many, simulate, sweep, BehavioralSim, SimResult, SystemConfig};
use cachetime_cache::{CacheConfig, VictimCacheConfig, WayPrediction};
use cachetime_trace::{catalog, Trace, WorkloadSpec};
use cachetime_types::{Assoc, CacheSize, CycleTime};
use std::time::{Duration, Instant};

/// Trace scale of every workload: small enough for many passes per run,
/// large enough that the warm window is not trivial.
pub const SCALE: f64 = 0.05;

/// The paper's §3 per-cache size axis.
pub const SIZES_KIB: [u64; 11] = [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048];

/// The paper's cycle-time axis.
pub const CYCLE_TIMES_NS: [u32; 16] = [
    20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60, 64, 68, 72, 76, 80,
];

/// The cycle time the direct engine prices each organization at.
const DIRECT_CT_NS: u32 = 40;

/// Trace generations per run; `setup_s` is their median.
const SETUPS: usize = 7;

/// The three L1 organizations priced at every size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Org {
    /// Direct-mapped.
    Dm,
    /// 2-way set-associative.
    TwoWay,
    /// 2-way with an 8-entry victim buffer and MRU way prediction.
    TwoWayVictimMru,
}

impl Org {
    pub const ALL: [Org; 3] = [Org::Dm, Org::TwoWay, Org::TwoWayVictimMru];

    /// The split L1 of this organization at `size_kib` per cache.
    pub fn cache(self, size_kib: u64) -> CacheConfig {
        let mut b = CacheConfig::builder(CacheSize::from_kib(size_kib).expect("power of two"));
        if self != Org::Dm {
            b.assoc(Assoc::new(2).expect("power of two"));
        }
        if self == Org::TwoWayVictimMru {
            b.victim_cache(VictimCacheConfig::new(8).expect("in range"));
            b.way_prediction(WayPrediction::Mru);
        }
        b.build().expect("valid cache")
    }

    /// The `l1` object of a `/v1/simulate` request for this organization.
    pub fn json(self, size_kib: u64) -> String {
        match self {
            Org::Dm => format!(r#"{{"size_kib":{size_kib}}}"#),
            Org::TwoWay => format!(r#"{{"size_kib":{size_kib},"assoc":2}}"#),
            Org::TwoWayVictimMru => format!(
                r#"{{"size_kib":{size_kib},"assoc":2,"victim_entries":8,"way_prediction":"mru"}}"#
            ),
        }
    }
}

/// The full machine for one cell.
pub fn system(l1: CacheConfig, ct_ns: u32) -> SystemConfig {
    SystemConfig::builder()
        .cycle_time(CycleTime::from_ns(ct_ns).expect("nonzero"))
        .l1_both(l1)
        .build()
        .expect("valid system")
}

/// One organization × trace pairing: recorded once, replayed at every
/// cycle time.
#[derive(Debug, Clone, Copy)]
struct Task {
    org: Org,
    size_kib: u64,
    trace: usize,
}

fn tasks(n_traces: usize) -> Vec<Task> {
    let mut out = Vec::new();
    for org in Org::ALL {
        for size_kib in SIZES_KIB {
            for trace in 0..n_traces {
                out.push(Task {
                    org,
                    size_kib,
                    trace,
                });
            }
        }
    }
    out
}

/// What one two-phase task reports back.
struct TaskOut {
    results: Vec<SimResult>,
    record: Duration,
    replay: Duration,
    replay_cpu: Duration,
    refs: u64,
    ops: u64,
    couplets: u64,
    resident_bytes: usize,
    spans: Vec<util::Span>,
}

/// One two-phase pass over the grid.
struct Pass {
    wall: Duration,
    cpu: Duration,
    busy: Duration,
    jobs: usize,
    out: Vec<TaskOut>,
    task_times: Vec<Duration>,
}

impl Pass {
    fn results(&self) -> impl Iterator<Item = &SimResult> {
        self.out.iter().flat_map(|t| t.results.iter())
    }

    fn cells(&self) -> usize {
        self.out.iter().map(|t| t.results.len()).sum()
    }
}

fn two_phase_pass(tasks: &[Task], traces: &[Trace], jobs: usize, epoch: Option<Instant>) -> Pass {
    let cpu0 = util::process_cpu();
    let run = sweep::run(tasks, jobs, |ix, t| {
        let mut tracer = epoch.map(Tracer::new);
        let t0 = Instant::now();
        let l1 = t.org.cache(t.size_kib);
        let configs: Vec<SystemConfig> = CYCLE_TIMES_NS.iter().map(|&ct| system(l1, ct)).collect();
        let t1 = Instant::now();
        let events = BehavioralSim::new(&configs[0].organization()).record(&traces[t.trace]);
        let t2 = Instant::now();
        let c2 = util::thread_cpu();
        let results = replay_many(&events, &configs).expect("one organization");
        let t3 = Instant::now();
        let c3 = util::thread_cpu();
        if let Some(tr) = tracer.as_mut() {
            let task_id = Tracer::id();
            tr.record("sweep.task", t0, t3, task_id, 0, ix as u64);
            tr.record("record", t1, t2, Tracer::id(), task_id, ix as u64);
            tr.record("replay", t2, t3, Tracer::id(), task_id, ix as u64);
        }
        TaskOut {
            results,
            record: t2 - t1,
            replay: t3 - t2,
            replay_cpu: c3 - c2,
            refs: traces[t.trace].len() as u64,
            ops: events.ops().len() as u64,
            couplets: events.couplets(),
            resident_bytes: events.approx_bytes(),
            spans: tracer.map(|t| t.spans).unwrap_or_default(),
        }
    })
    .expect("no task panics");
    Pass {
        cpu: util::process_cpu() - cpu0,
        wall: run.wall_time,
        busy: run.busy_time(),
        jobs: run.jobs,
        task_times: run.task_times,
        out: run.results,
    }
}

/// The direct engine over every organization at one cycle time: returns
/// the results, the per-task times and the pass wall time.
fn direct_pass(
    tasks: &[Task],
    traces: &[Trace],
    jobs: usize,
    epoch: Option<Instant>,
) -> (Vec<SimResult>, Vec<Duration>, Duration, Vec<util::Span>) {
    let run = sweep::run(tasks, jobs, |ix, t| {
        let t0 = Instant::now();
        let c0 = util::thread_cpu();
        let r = simulate(
            &system(t.org.cache(t.size_kib), DIRECT_CT_NS),
            &traces[t.trace],
        );
        let t1 = Instant::now();
        let c1 = util::thread_cpu();
        let spans = epoch.map_or_else(Vec::new, |e| {
            let mut tr = Tracer::new(e);
            tr.record("simulate", t0, t1, Tracer::id(), 0, ix as u64);
            tr.spans
        });
        (r, c1 - c0, spans)
    })
    .expect("no task panics");
    let wall = run.wall_time;
    let mut results = Vec::new();
    let mut times = Vec::new();
    let mut spans = Vec::new();
    for (r, t, s) in run.results {
        results.push(r);
        times.push(t);
        spans.extend(s);
    }
    (results, times, wall, spans)
}

/// Generates every catalog trace: the sweep's set-up.
fn generate(specs: &[WorkloadSpec]) -> Vec<Trace> {
    specs.iter().map(WorkloadSpec::generate).collect()
}

pub fn run(args: &Args, report: &mut Report) {
    let specs = catalog::all(SCALE);
    let mut setups = Vec::new();
    let mut traces = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        traces = generate(&specs);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let refs_per_pass: u64 = traces.iter().map(|t| t.len() as u64).sum();
    let tasks = tasks(traces.len());
    let jobs = sweep::available_jobs();
    let ct_ix = CYCLE_TIMES_NS
        .iter()
        .position(|&c| c == DIRECT_CT_NS)
        .expect("on the axis");
    report.note(format!(
        "sweep: {} traces at scale {SCALE} ({refs_per_pass} refs), {} organizations x {} cycle times = {} cells per pass, {jobs} jobs",
        traces.len(),
        tasks.len(),
        CYCLE_TIMES_NS.len(),
        tasks.len() * CYCLE_TIMES_NS.len()
    ));

    // The untimed warm-up pass at one job is the reference every timed
    // pass must match bit for bit.
    let t0 = Instant::now();
    let reference = two_phase_pass(&tasks, &traces, 1, None);
    let reference_digest = digest_results(reference.results());
    report.detail("sweep.warmup_s", t0.elapsed().as_secs_f64(), "s", 1);
    report.ops(reference.cells() as u64, 0);

    let started = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut passes: Vec<(Pass, bool)> = Vec::new();
    let mut direct_walls = Vec::new();
    let mut direct_times: Vec<f64> = Vec::new();
    let mut direct_spans = Vec::new();
    let mut direct_digests = Vec::new();
    let mut failed = 0u64;
    while passes.len() < 2 || started.elapsed() < budget {
        // A traced run alternates untraced and traced passes, so both see
        // the same machine state and their difference is the overhead.
        let traced = args.trace && passes.len() % 2 == 1;
        let epoch = traced.then_some(args.epoch);
        let pass = two_phase_pass(&tasks, &traces, jobs, epoch);
        let mismatched = pass
            .out
            .iter()
            .zip(&reference.out)
            .flat_map(|(a, b)| a.results.iter().zip(&b.results))
            .filter(|(a, b)| a != b)
            .count() as u64;
        failed += mismatched;
        report.ops(pass.cells() as u64, mismatched);

        let (direct, times, wall, spans) = direct_pass(&tasks, &traces, jobs, epoch);
        let mismatched = direct
            .iter()
            .zip(&reference.out)
            .filter(|(d, t)| **d != t.results[ct_ix])
            .count() as u64;
        failed += mismatched;
        report.ops(direct.len() as u64, mismatched);
        direct_digests.push(digest_results(&direct));
        direct_walls.push(wall.as_secs_f64());
        direct_times.extend(times.iter().map(|t| util::us(*t)));
        direct_spans.extend(spans);
        passes.push((pass, traced));
    }
    let timed_s = started.elapsed().as_secs_f64();

    // Output checks: every pass equals the one-job reference, and the direct
    // engine equals the replayed cells at its cycle time.
    let subset_digest = digest_results(reference.out.iter().map(|t| &t.results[ct_ix]));
    report.note(format!(
        "sweep.digest jobs=1 {reference_digest:016x}; jobs={jobs} {}; direct subset {:016x} vs replayed subset {subset_digest:016x}",
        passes
            .iter()
            .map(|(p, _)| format!("{:016x}", digest_results(p.results())))
            .collect::<Vec<_>>()
            .join(","),
        direct_digests[0],
    ));
    report.check(failed == 0, || {
        format!("{failed} cells differ from the one-job reference")
    });
    report.check(direct_digests.iter().all(|&d| d == subset_digest), || {
        "direct simulate digest differs from the replayed subset".into()
    });

    // Throughput is wall time, so idle or blocked workers show; CPU per
    // cell is host CPU time. Together they separate CPU cost from
    // parallelism. Both pool the untraced passes rather than take a median
    // of them: on a shared host the speed switches between modes for
    // seconds at a time, and a median flips with the mode where a pooled
    // figure moves with the share of time spent in each.
    let untraced: Vec<&Pass> = passes.iter().filter(|(_, t)| !t).map(|(p, _)| p).collect();
    let cells: f64 = untraced.iter().map(|p| p.cells() as f64).sum();
    let wall_s: f64 = untraced.iter().map(|p| p.wall.as_secs_f64()).sum();
    let cpu_us: f64 = untraced.iter().map(|p| util::us(p.cpu)).sum();
    let cps: Vec<f64> = untraced
        .iter()
        .map(|p| p.cells() as f64 / p.wall.as_secs_f64())
        .collect();
    // Replay CPU time per cell (a warm ask) and direct simulate CPU time
    // per organization (a cold ask), pooled over the untraced passes.
    let warm: Vec<f64> = untraced
        .iter()
        .flat_map(|p| {
            p.out
                .iter()
                .map(|t| util::us(t.replay_cpu) / t.results.len() as f64)
        })
        .collect();
    let store_mb = reference
        .out
        .iter()
        .map(|t| t.resident_bytes)
        .sum::<usize>() as f64
        / (1 << 20) as f64;

    if !args.trace {
        report.metric("setup_s", median(&setups), "s", setups.len());
        report.metric(
            "rss_peak_mb",
            util::rss_peak_mb(std::process::id()),
            "MB",
            1,
        );
        report.metric("cells_per_s", cells / wall_s, "1/s", untraced.len());
        report.metric("cpu_us_per_cell", cpu_us / cells, "us", untraced.len());
        report.detail(
            "cold.p50_us",
            quantile(&direct_times, 0.5),
            "us",
            direct_times.len(),
        );
        report.metric("store_mb", store_mb, "MB", reference.out.len());
        report.detail("warm.p50_us", quantile(&warm, 0.5), "us", warm.len());
        report.detail("warm.p99_us", quantile(&warm, 0.99), "us", warm.len());
        report.detail(
            "cold.p90_us",
            quantile(&direct_times, 0.9),
            "us",
            direct_times.len(),
        );
    }
    let direct_refs: f64 = tasks.iter().map(|t| traces[t.trace].len() as f64).sum();
    report.detail(
        "simulate.refs_per_s",
        direct_refs / median(&direct_walls),
        "1/s",
        direct_walls.len(),
    );
    report.detail("sweep.timed_s", timed_s, "s", passes.len());
    report.note(format!("sweep cells per wall second, by pass: {cps:.1?}"));

    if args.trace {
        let traced: Vec<&Pass> = passes.iter().filter(|(_, t)| *t).map(|(p, _)| p).collect();
        // Tracing overhead: process CPU of the traced passes against the
        // untraced ones they alternate with.
        let cpu =
            |ps: &[&Pass]| median(&ps.iter().map(|p| p.cpu.as_secs_f64()).collect::<Vec<_>>());
        let overhead = (cpu(&traced) / cpu(&untraced) - 1.0, passes.len());
        let mut spans: Vec<util::Span> = traced
            .iter()
            .flat_map(|p| p.out.iter().flat_map(|t| t.spans.clone()))
            .collect();
        spans.extend(direct_spans);
        let exec = traced
            .iter()
            .map(|p| layers::ExecPass {
                wall: p.wall,
                busy: p.busy,
                jobs: p.jobs,
                task_times: p.task_times.clone(),
                tasks: p
                    .out
                    .iter()
                    .map(|t| layers::TaskTiming {
                        record: t.record,
                        replay: t.replay,
                        refs: t.refs,
                        ops: t.ops,
                        couplets: t.couplets,
                        cells: t.results.len(),
                    })
                    .collect(),
            })
            .collect();
        // The handler pass primes (records) every pairing it sees, so its
        // requests come from a sample of the pairings.
        let cells: Vec<String> = layers::sample(&tasks, 16, args.seed)
            .iter()
            .flat_map(|t| {
                let name = &specs[t.trace].name;
                CYCLE_TIMES_NS
                    .iter()
                    .map(move |&ct| simulate_body(name, &t.org.json(t.size_kib), ct, SCALE))
            })
            .collect();
        let inputs = LayerInputs {
            specs: specs.clone(),
            traces: traces.clone(),
            pairings: tasks
                .iter()
                .map(|t| (t.trace, t.org.cache(t.size_kib)))
                .collect(),
            request_bodies: cells,
            exec,
            overhead,
        };
        layers::run(args, &inputs, spans, report);
    }
}

/// The `/v1/simulate` body for one cell.
pub fn simulate_body(trace: &str, l1_json: &str, ct_ns: u32, scale: f64) -> String {
    format!(
        r#"{{"config":{{"cycle_time_ns":{ct_ns},"l1":{l1_json}}},"trace":{{"name":"{trace}","scale":{scale}}}}}"#
    )
}
