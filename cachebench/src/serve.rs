//! The `serve-warm` workload: seeded open-loop traffic against a separate
//! `ctserve` process.
//!
//! Set-up records two catalog traces × the 11 paper sizes into a data
//! directory and restarts the server on it. The timed phase sends
//! `/v1/simulate` requests, uniform over the (size, cycle time) grid, up a
//! fixed ladder of rates on one connection, then holds the server
//! saturated over `nproc` connections to measure the most answers per
//! second it gives. Every timed request is a store hit.

use crate::layers::{self, ExecPass, LayerInputs};
use crate::loadgen::{self, Done, Overload, Req, Shared};
use crate::server::Server;
use crate::sweep::{simulate_body, system, Org, CYCLE_TIMES_NS, SCALE, SIZES_KIB};
use crate::util::{self, median, quantile, Report, Span};
use crate::Args;
use cachetime::{simulate, sweep};
use cachetime_cache::CacheConfig;
use cachetime_serve::api;
use cachetime_testkit::SplitMix64;
use cachetime_trace::{catalog, Trace, WorkloadSpec};
use cachetime_types::Json;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A ladder step meets the latency limit when its median latency from due
/// is within this: ten times the unloaded median. The limit is on the
/// median, not the tail: on a shared VM the hypervisor takes cores away for
/// milliseconds at a time, which moves the windowed p99 at light load
/// between 3 and 30 ms from run to run, while a step past saturation has a
/// median of hundreds of milliseconds.
const LIMIT_US: f64 = 10_000.0;

/// Tail latency is the median over one-second windows of each window's
/// p99, so one host hiccup in a step moves one window, not the step. The
/// saturated phase's answers are counted per window of this length too.
const WINDOW: Duration = Duration::from_secs(1);

/// A step is abandoned once this much of its offered load is waiting for
/// answers: the server has fallen behind for good.
const ABANDON_AFTER_S: f64 = 0.25;

/// One step of the rate ladder: offered rate (requests per second) and its
/// share of the timed phase.
struct Step {
    rate: f64,
    share: f64,
}

/// The warm ladder, doubling from step to step into saturation (one
/// event-loop thread sustains about 1.5–2k/s on a 2-core host). Step
/// [`REF_STEP`] is the reference rate `warm.p50_us` and `warm.p99_us` are
/// measured at. The rest of the timed phase, [`SATURATED_SHARE`], is the
/// saturated phase.
const WARM_LADDER: [Step; 4] = [
    Step {
        rate: 200.0,
        share: 0.05,
    },
    Step {
        rate: 400.0,
        share: 0.25,
    },
    Step {
        rate: 800.0,
        share: 0.1,
    },
    Step {
        rate: 1600.0,
        share: 0.1,
    },
];

const REF_STEP: usize = 1;

/// Share of the timed phase that holds the server saturated.
const SATURATED_SHARE: f64 = 0.5;

/// Offered rate of the saturated phase, over all its connections: well
/// past twice what one event-loop thread sustains, so a server that
/// answers on more cores shows its gain. Requests past the window wait.
const SATURATED_RATE: f64 = 6400.0;

/// Responses each connection of the saturated phase keeps outstanding:
/// enough that the server never waits for the generator.
const SATURATED_WINDOW: usize = 32;

/// The first part of the saturated phase, left out of its throughput while
/// the windows fill.
const SATURATED_RAMP: Duration = Duration::from_millis(500);

/// One organization × catalog trace pairing.
#[derive(Clone)]
struct Pairing {
    trace: usize,
    l1: CacheConfig,
    l1_json: String,
}

/// Everything the workload keeps for its checks and layer pass.
struct Served {
    specs: Vec<WorkloadSpec>,
    pairings: Vec<Pairing>,
    schedule: Vec<Req>,
    /// `(pairing, cycle time)` of every simulate in `schedule`.
    cells: Vec<(usize, u32)>,
    done: Vec<Done>,
    spans: Vec<Span>,
}

/// Drives each lane's schedule over a connection of its own from one
/// shared start; lane 0 runs on this thread. Returns the outcomes of the
/// lanes one after the other, the spans (with `trace`), and the run's
/// shared state.
fn drive_lanes(
    server: &Server,
    lanes: &[Vec<Req>],
    trace: Option<Instant>,
) -> (Vec<Done>, Vec<Span>, Shared) {
    let addr = server.addr.as_str();
    let shared = Shared::new(server.pid);
    // Start a little ahead so every connection is open when the first
    // request falls due.
    let t0 = Instant::now() + Duration::from_millis(50);
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes[1..]
            .iter()
            .map(|s| {
                let shared = &shared;
                scope.spawn(move || loadgen::drive(addr, t0, s, shared, trace))
            })
            .collect();
        let mut all = vec![loadgen::drive(addr, t0, &lanes[0], &shared, trace)];
        all.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("generator thread")),
        );
        all
    });
    let mut done = Vec::new();
    let mut spans = Vec::new();
    for r in results {
        let (d, s) = r.expect("connect to ctserve");
        done.extend(d);
        spans.extend(s);
    }
    (done, spans, shared)
}

/// Latency from due in µs of each request in `ix` that was sent;
/// failures read as infinite.
fn latencies(schedule: &[Req], done: &[Done], ix: &[usize]) -> Vec<f64> {
    ix.iter()
        .filter(|&&i| done[i].sent.is_some())
        .map(|&i| match (done[i].status, done[i].done) {
            (200, Some(end)) => util::us(end.saturating_sub(schedule[i].due)),
            _ => f64::INFINITY,
        })
        .collect()
}

/// The most requests due but not yet answered at any moment among `ix`.
fn max_backlog(schedule: &[Req], done: &[Done], ix: &[usize]) -> usize {
    let mut events: Vec<(Duration, i64)> = Vec::new();
    for &i in ix {
        if done[i].sent.is_some() {
            events.push((schedule[i].due, 1));
            events.push((done[i].done.unwrap_or(Duration::MAX), -1));
        }
    }
    events.sort();
    let (mut cur, mut max) = (0i64, 0i64);
    for (_, d) in events {
        cur += d;
        max = max.max(cur);
    }
    max as usize
}

/// The median over [`WINDOW`]-long windows (by due time) of each
/// window's p99 latency, with the number of windows.
fn windowed_p99(schedule: &[Req], done: &[Done], ix: &[usize]) -> (f64, usize) {
    let mut windows: Vec<Vec<usize>> = Vec::new();
    let Some(&first) = ix.first() else {
        return (f64::NAN, 0);
    };
    for &i in ix {
        let w = (schedule[i]
            .due
            .saturating_sub(schedule[first].due)
            .as_secs_f64()
            / WINDOW.as_secs_f64()) as usize;
        if windows.len() <= w {
            windows.resize_with(w + 1, Vec::new);
        }
        windows[w].push(i);
    }
    let p99s: Vec<f64> = windows
        .iter()
        .map(|w| latencies(schedule, done, w))
        .filter(|l| l.len() >= 50)
        .map(|l| quantile(&l, 0.99))
        .collect();
    (median(&p99s), p99s.len())
}

/// Server CPU per answered simulate, in µs, and the share of the machine's
/// CPU the hypervisor took, between the first and last host samples that
/// fall inside `[from, to)` (answers counted over the same span).
fn server_cpu_per_answer(
    done: &[Done],
    shared: &Shared,
    from: Duration,
    to: Duration,
) -> (f64, f64) {
    let samples = shared.host.lock().expect("host samples").clone();
    let inside: Vec<&loadgen::HostSample> = samples
        .iter()
        .filter(|h| h.at >= from && h.at < to)
        .collect();
    let (Some(a), Some(b)) = (inside.first(), inside.last()) else {
        return (f64::NAN, f64::NAN);
    };
    let answers = done
        .iter()
        .filter(|d| d.status == 200 && d.done.is_some_and(|t| t >= a.at && t < b.at))
        .count();
    let ticks = (b.server_cpu - a.server_cpu) as f64;
    let steal = (b.steal - a.steal) as f64 / (b.total - a.total).max(1) as f64;
    (
        ticks / CLOCK_TICKS_PER_S * 1e6 / answers.max(1) as f64,
        steal,
    )
}

/// `/proc` CPU tick rate (`sysconf(_SC_CLK_TCK)` on Linux).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// One evaluated ladder step.
struct StepResult {
    rate: f64,
    sent: usize,
    p50: f64,
    p99: f64,
    achieved: f64,
    passed: bool,
    ran: bool,
}

fn evaluate_ladder(schedule: &[Req], done: &[Done], shared: &Shared) -> Vec<StepResult> {
    let abandoned = shared.abandoned_from.load(Ordering::Relaxed);
    WARM_LADDER
        .iter()
        .enumerate()
        .map(|(s, step)| {
            let ix: Vec<usize> = (0..schedule.len())
                .filter(|&i| schedule[i].step == s)
                .collect();
            let lat = latencies(schedule, done, &ix);
            let ran = s < abandoned || !lat.is_empty();
            // No growing backlog: the last tenth of the step is answered
            // within the limit as well.
            let tail = &lat[lat.len() - lat.len() / 10..];
            let ok: Vec<&usize> = ix.iter().filter(|&&i| done[i].status == 200).collect();
            let achieved = match (ok.first(), ok.iter().filter_map(|&&i| done[i].done).max()) {
                (Some(&&first), Some(last)) if ok.len() > 1 => {
                    ok.len() as f64 / last.saturating_sub(schedule[first].due).as_secs_f64()
                }
                _ => 0.0,
            };
            let (p99, _) = windowed_p99(schedule, done, &ix);
            StepResult {
                rate: step.rate,
                sent: lat.len(),
                p50: quantile(&lat, 0.5),
                p99,
                achieved,
                passed: s < abandoned
                    && !lat.is_empty()
                    && quantile(&lat, 0.5) <= LIMIT_US
                    && median(tail) <= LIMIT_US,
                ran,
            }
        })
        .collect()
}

/// Reports the ladder: each step as a note, the highest step that meets
/// the limit, and the rate at which the median reaches it.
fn report_ladder(steps: &[StepResult], report: &mut Report) {
    for (s, r) in steps.iter().enumerate() {
        report.note(format!(
            "ladder step {s}: offered {:>6.0}/s sent {:>6} p50_us {:>10.1} p99_us {:>10.1} achieved {:>8.1}/s {}",
            r.rate,
            r.sent,
            r.p50,
            r.p99,
            r.achieved,
            if !r.ran {
                "not run (a lower step failed)"
            } else if r.passed {
                "meets limit"
            } else {
                "misses limit"
            }
        ));
    }
    let max_rps = steps
        .iter()
        .filter(|r| r.passed)
        .map(|r| r.rate)
        .fold(0.0, f64::max);
    report.detail("warm.max_rps", max_rps, "1/s", steps.len());
    report.detail("warm.limit_rps", limit_rate(steps), "1/s", steps.len());
}

/// The rate at which median latency reaches the limit, interpolated log-log
/// between the highest step that meets it and the step above. Past
/// saturation a step's median is set by how long it runs before it is
/// abandoned more than by the server's speed, so this reads capacity
/// coarsely; the saturated phase measures it.
fn limit_rate(steps: &[StepResult]) -> f64 {
    let Some(b) = steps.iter().rposition(|r| r.passed) else {
        // Not even the lowest step meets the limit.
        return steps[0].rate * (LIMIT_US / steps[0].p50).min(1.0);
    };
    let lo = &steps[b];
    let Some(hi) = steps
        .get(b + 1)
        .filter(|h| h.p50.is_finite() && h.p50 > LIMIT_US && h.p50 > lo.p50)
    else {
        return lo.achieved;
    };
    let frac = (LIMIT_US / lo.p50).ln() / (hi.p50 / lo.p50).ln();
    lo.rate * (hi.rate / lo.rate).powf(frac.clamp(0.0, 1.0))
}

/// Answers per second while the server was held saturated, from
/// [`SATURATED_RAMP`] to the end of the phase, with the answers completed
/// in each [`WINDOW`] of it. The rate pools the whole span rather than
/// taking a median of windows: on a shared host the server's speed
/// switches between modes for seconds at a time, and a median flips with
/// the mode where the pooled rate moves with the share of time in each.
fn saturated_rate(done: &[Done], len: Duration) -> (f64, Vec<f64>) {
    let span = len.saturating_sub(SATURATED_RAMP);
    let mut counts = vec![0.0; (span.as_secs_f64() / WINDOW.as_secs_f64()).ceil() as usize];
    for t in done
        .iter()
        .filter(|d| d.status == 200)
        .filter_map(|d| d.done)
    {
        if let Some(since) = t.checked_sub(SATURATED_RAMP).filter(|&s| s < span) {
            counts[(since.as_secs_f64() / WINDOW.as_secs_f64()) as usize] += 1.0;
        }
    }
    (counts.iter().sum::<f64>() / span.as_secs_f64(), counts)
}

/// Builds the read ladder schedule: Poisson arrivals at each step's rate.
fn ladder_times(seconds: f64, rng: &mut SplitMix64) -> Vec<(Duration, usize)> {
    let mut out = Vec::new();
    let mut start = Duration::ZERO;
    for (s, step) in WARM_LADDER.iter().enumerate() {
        let len = Duration::from_secs_f64(seconds * step.share);
        out.extend(
            loadgen::poisson(rng, step.rate, start, len)
                .into_iter()
                .map(|t| (t, s)),
        );
        start += len;
    }
    out
}

/// A cold `/v1/simulate` through the control connection, timed.
fn cold_ask(server: &mut Server, body: &str, report: &mut Report) -> f64 {
    let t0 = Instant::now();
    let answer = server.post("/v1/simulate", body);
    let us = util::us(t0.elapsed());
    let ok = matches!(&answer, Ok((200, b)) if b.contains("\"cached\":false"));
    report.ops(1, u64::from(!ok));
    report.check(ok, || format!("cold ask failed: {answer:?}"));
    us
}

fn data_dir(args: &Args, tag: &str) -> PathBuf {
    let dir = args.work_dir.join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Compares the kept response bodies with in-process `simulate` of the
/// same cell, bit for bit.
fn check_bodies(served: &Served, sample: &[usize], report: &mut Report) {
    let mut traces: Vec<Option<Trace>> = vec![None; served.specs.len()];
    let mut bad = 0;
    for &i in sample {
        let (p, ct) = served.cells[i];
        let pairing = &served.pairings[p];
        let trace =
            traces[pairing.trace].get_or_insert_with(|| served.specs[pairing.trace].generate());
        let expected =
            api::sim_result_to_json(&simulate(&system(pairing.l1, ct), trace)).to_string();
        let Some(body) = served.done[i].body.as_deref() else {
            continue;
        };
        let got = body
            .find("\"result\":")
            .map(|at| &body[at + "\"result\":".len()..body.len() - 1]);
        if got != Some(expected.as_str()) {
            bad += 1;
        }
    }
    report.note(format!(
        "checked {} responses against in-process simulate: {bad} differ",
        sample.len()
    ));
    report.check(bad == 0, || {
        format!("{bad} responses differ from in-process simulate")
    });
}

/// Tallies the schedule's operations: attempted are the requests sent,
/// failed the ones without a 200.
fn tally(served: &Served, report: &mut Report) {
    let sent = served.done.iter().filter(|d| d.sent.is_some()).count() as u64;
    let failed: Vec<usize> = (0..served.done.len())
        .filter(|&i| served.done[i].sent.is_some() && served.done[i].status != 200)
        .collect();
    if let Some(&i) = failed.first() {
        report.note(format!(
            "first failed request: step {} status {} body {:?}",
            served.schedule[i].step, served.done[i].status, served.done[i].body
        ));
    }
    report.ops(sent, failed.len() as u64);
}

/// Generator health over the requests in `ix`: lateness and backlog.
fn report_generator(served: &Served, ix: &[usize], report: &mut Report) {
    let late: Vec<f64> = ix
        .iter()
        .filter_map(|&i| {
            served.done[i]
                .sent
                .map(|s| util::us(s.saturating_sub(served.schedule[i].due)))
        })
        .collect();
    report.detail("gen.late_us", median(&late), "us", late.len());
    report.detail("gen.late_p99_us", quantile(&late, 0.99), "us", late.len());
    report.detail(
        "gen.backlog",
        max_backlog(&served.schedule, &served.done, ix) as f64,
        "count",
        ix.len(),
    );
}

/// The server's own view: store and disk counters from `/v1/stats`.
fn report_stats(stats: &Json, report: &mut Report) {
    let s = |p: &str| Server::stat(stats, p);
    let lookups = s("store.lookups");
    report.detail(
        "store.hit_frac",
        s("store.hits") / lookups.max(1.0),
        "ratio",
        lookups as usize,
    );
    report.detail("store.misses", s("store.misses"), "count", 1);
    report.detail("store.evictions", s("store.evictions"), "count", 1);
    report.detail(
        "store.bytes_per_key",
        s("store.bytes") / s("store.entries").max(1.0),
        "B",
        s("store.entries") as usize,
    );
    report.detail("disk.loads", s("disk.loads"), "count", 1);
    report.detail("disk.spills", s("disk.spills"), "count", 1);
}

/// The per-layer pass of a traced run.
fn run_layers(
    args: &Args,
    served: Served,
    client_p50: f64,
    overhead: (f64, usize),
    report: &mut Report,
) {
    let traces: Vec<Trace> = served.specs.iter().map(WorkloadSpec::generate).collect();
    // The handler pass primes every pairing it sees: keep the requests of
    // the first 16 pairings the stream names.
    let mut seen: Vec<usize> = Vec::new();
    let mut bodies = Vec::new();
    for &(p, ct) in &served.cells {
        if !seen.contains(&p) {
            if seen.len() == 16 {
                continue;
            }
            seen.push(p);
        }
        let pr = &served.pairings[p];
        bodies.push(simulate_body(
            &served.specs[pr.trace].name,
            &pr.l1_json,
            ct,
            SCALE,
        ));
    }
    let inputs = LayerInputs {
        specs: served.specs.clone(),
        traces,
        pairings: served.pairings.iter().map(|p| (p.trace, p.l1)).collect(),
        request_bodies: bodies,
        exec: Vec::<ExecPass>::new(),
        overhead,
    };
    layers::run(args, &inputs, served.spans, report);
    let handle_us = report
        .metrics
        .iter()
        .find(|m| m.name == "app.handle_us")
        .map_or(f64::NAN, |m| m.value);
    report.detail("client.p50_us", client_p50, "us", 1);
    report.detail("serve.transport_us", client_p50 - handle_us, "us", 1);
}

/// The two catalog traces `serve-warm` serves.
const WARM_TRACES: [&str; 2] = ["mu3", "savec"];

/// Set-ups per run; `setup_s` is their median.
const WARM_SETUPS: usize = 5;

/// Kept responses compared with in-process `simulate`, at most.
const CHECKED: usize = 128;

/// The schedule of one phase: a request at each `(due, step)`, uniform
/// over `table`, with `overload` as its policy. Appends each request's
/// `(pairing, cycle time)` to `cells`.
fn phase(
    times: &[(Duration, usize)],
    table: &[Arc<Vec<u8>>],
    overload: impl Fn(usize) -> Overload,
    rng: &mut SplitMix64,
    cells: &mut Vec<(usize, u32)>,
) -> Vec<Req> {
    times
        .iter()
        .map(|&(due, step)| {
            let cell = (rng.next_u64() % table.len() as u64) as usize;
            cells.push((
                cell / CYCLE_TIMES_NS.len(),
                CYCLE_TIMES_NS[cell % CYCLE_TIMES_NS.len()],
            ));
            Req {
                due,
                bytes: Arc::clone(&table[cell]),
                step,
                overload: overload(step),
                keep_body: rng.next_u64().is_multiple_of(64),
            }
        })
        .collect()
}

pub fn run_warm(args: &Args, report: &mut Report) {
    let specs: Vec<WorkloadSpec> = WARM_TRACES
        .iter()
        .map(|n| catalog::by_name(n, SCALE).expect("catalog"))
        .collect();
    let pairings: Vec<Pairing> = (0..specs.len())
        .flat_map(|t| {
            SIZES_KIB.iter().map(move |&s| Pairing {
                trace: t,
                l1: Org::Dm.cache(s),
                l1_json: Org::Dm.json(s),
            })
        })
        .collect();

    // Set-up: record every pairing into a fresh data directory, stop, and
    // restart on it. Repeated; the last server serves the timed phase.
    let mut setups = Vec::new();
    let mut restarts = Vec::new();
    let mut cold = Vec::new();
    let mut server = None;
    for k in 0..WARM_SETUPS {
        let t0 = Instant::now();
        let dir = data_dir(args, &format!("warm{k}"));
        let flags = vec!["--data-dir".to_string(), dir.display().to_string()];
        let mut first =
            Server::spawn(&args.ctserve, &args.work_dir, &flags).expect("spawn ctserve");
        for p in &pairings {
            cold.push(cold_ask(
                &mut first,
                &simulate_body(&specs[p.trace].name, &p.l1_json, 40, SCALE),
                report,
            ));
        }
        first.shutdown();
        let r0 = Instant::now();
        let mut s = Server::spawn(&args.ctserve, &args.work_dir, &flags).expect("restart ctserve");
        restarts.push(r0.elapsed().as_secs_f64());
        setups.push(t0.elapsed().as_secs_f64());
        let recovered = s
            .get_json("/v1/stats")
            .map(|v| Server::stat(&v, "disk.recovered"));
        report.check(recovered == Ok(pairings.len() as f64), || {
            format!(
                "restart recovered {recovered:?} of {} segments",
                pairings.len()
            )
        });
        if k + 1 < WARM_SETUPS {
            s.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            server = Some((s, dir));
        }
    }
    let (mut server, dir) = server.expect("at least one set-up");

    // The timed phase: uniform over the 2 × 11 × 16 grid.
    let mut rng = SplitMix64::from_seed(args.seed);
    let table: Vec<Arc<Vec<u8>>> = pairings
        .iter()
        .flat_map(|p| {
            CYCLE_TIMES_NS.iter().map(|&ct| {
                Arc::new(layers::request_bytes(
                    "/v1/simulate",
                    &simulate_body(&specs[p.trace].name, &p.l1_json, ct, SCALE),
                ))
            })
        })
        .collect();
    let mut cells = Vec::new();
    let abandon = |rate: f64| Overload::Abandon((rate * ABANDON_AFTER_S) as usize + 16);
    let (schedule, done, spans, shared, saturated) = if args.trace {
        // The traced run: the reference rate for the whole phase, every
        // request kept as spans.
        let rate = WARM_LADDER[REF_STEP].rate;
        let span = Duration::from_secs_f64(args.seconds);
        let times: Vec<(Duration, usize)> = loadgen::poisson(&mut rng, rate, Duration::ZERO, span)
            .into_iter()
            .map(|t| (t, REF_STEP))
            .collect();
        let schedule = phase(&times, &table, |_| abandon(rate), &mut rng, &mut cells);
        let lanes = [schedule];
        let (done, spans, shared) = drive_lanes(&server, &lanes, Some(args.epoch));
        let [schedule] = lanes;
        (schedule, done, spans, shared, None)
    } else {
        let times = ladder_times(args.seconds, &mut rng);
        let ladder = phase(
            &times,
            &table,
            |s| abandon(WARM_LADDER[s].rate),
            &mut rng,
            &mut cells,
        );
        let lanes = [ladder];
        let (mut done, _, shared) = drive_lanes(&server, &lanes, None);
        let [mut schedule] = lanes;

        // The saturated phase: every connection keeps its window full.
        let len = Duration::from_secs_f64(args.seconds * SATURATED_SHARE);
        let conns = sweep::available_jobs();
        let mut lanes = Vec::new();
        for _ in 0..conns {
            let rate = SATURATED_RATE / conns as f64;
            let times: Vec<(Duration, usize)> =
                loadgen::poisson(&mut rng, rate, Duration::ZERO, len)
                    .into_iter()
                    .map(|t| (t, WARM_LADDER.len()))
                    .collect();
            let hold = |_| Overload::Hold {
                window: SATURATED_WINDOW,
                until: len,
            };
            lanes.push(phase(&times, &table, hold, &mut rng, &mut cells));
        }
        let (sat_done, _, sat_shared) = drive_lanes(&server, &lanes, None);
        let (sat_cpu, _) = server_cpu_per_answer(&sat_done, &sat_shared, SATURATED_RAMP, len);
        report.detail("warm.saturated_cpu_us", sat_cpu, "us", 1);
        report.note(format!(
            "saturated phase: {conns} connections x window {SATURATED_WINDOW}, {} answered",
            sat_done.iter().filter(|d| d.status == 200).count()
        ));
        let (rate, counts) = saturated_rate(&sat_done, len);
        report.note(format!("saturated answers per window: {counts:?}"));
        schedule.extend(lanes.into_iter().flatten());
        done.extend(sat_done);
        (
            schedule,
            done,
            Vec::new(),
            shared,
            Some((rate, counts.len())),
        )
    };
    let stats = server.get_json("/v1/stats");
    let rss = server.rss_peak_mb();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let served = Served {
        specs,
        pairings,
        schedule,
        cells,
        done,
        spans,
    };
    tally(&served, report);
    let kept: Vec<usize> = (0..served.done.len())
        .filter(|&i| served.done[i].body.is_some() && served.done[i].status == 200)
        .collect();
    check_bodies(&served, &layers::sample(&kept, CHECKED, args.seed), report);
    let cached = kept.iter().all(|&i| {
        served.done[i]
            .body
            .as_deref()
            .is_some_and(|b| b.contains("\"cached\":true"))
    });
    report.check(cached, || "a timed request was not a store hit".into());
    match &stats {
        Ok(v) => {
            report_stats(v, report);
            report.check(Server::stat(v, "store.misses") == 0.0, || {
                "the timed phase recorded".into()
            });
        }
        Err(e) => report.check(false, || format!("no /v1/stats: {e}")),
    }
    report.detail("restart_s", median(&restarts), "s", restarts.len());

    let ref_ix: Vec<usize> = (0..served.schedule.len())
        .filter(|&i| served.schedule[i].step == REF_STEP)
        .collect();
    let lat = latencies(&served.schedule, &served.done, &ref_ix);
    report_generator(&served, &ref_ix, report);
    let Some((saturated, windows)) = saturated else {
        // Tracing overhead: the generator's span recording per request,
        // against the time a request takes.
        let client_p50 = median(&lat);
        let span_us = shared.span_ns.load(Ordering::Relaxed) as f64 / 1e3;
        let overhead = (span_us / lat.len().max(1) as f64 / client_p50, lat.len());
        run_layers(args, served, client_p50, overhead, report);
        return;
    };
    let steps = evaluate_ladder(&served.schedule, &served.done, &shared);
    report_ladder(&steps, report);
    let (p99, p99_windows) = windowed_p99(&served.schedule, &served.done, &ref_ix);
    report.detail("warm.p99_windows", p99_windows as f64, "count", lat.len());
    report.detail(
        "warm.p99_unwindowed_us",
        quantile(&lat, 0.99),
        "us",
        lat.len(),
    );
    report.metric("setup_s", median(&setups), "s", setups.len());
    report.metric("rss_peak_mb", rss, "MB", 1);
    report.metric("cells_per_s", saturated, "1/s", windows);
    // Server CPU per answer over the reference step, whose host samples
    // and answers are the ladder's.
    let (first, last) = (
        served.schedule[ref_ix[0]].due,
        served.schedule[*ref_ix.last().expect("reference step")].due,
    );
    let ladder_len = ref_ix.last().map_or(0, |&i| i + 1);
    let (cpu, steal) = server_cpu_per_answer(&served.done[..ladder_len], &shared, first, last);
    report.metric("cpu_us_per_cell", cpu, "us", ref_ix.len());
    report.detail("host.steal_frac", steal, "ratio", ref_ix.len());
    report.detail("cold.p50_us", quantile(&cold, 0.5), "us", cold.len());
    report.detail("warm.p50_us", quantile(&lat, 0.5), "us", lat.len());
    report.detail("warm.p99_us", p99, "us", lat.len());
    report.detail("cold.p90_us", quantile(&cold, 0.9), "us", cold.len());
    report.metric(
        "store_mb",
        stats
            .as_ref()
            .map_or(f64::NAN, |v| Server::stat(v, "store.bytes"))
            / (1 << 20) as f64,
        "MB",
        served.pairings.len(),
    );
}
