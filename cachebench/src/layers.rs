//! The per-layer pass of a traced run.
//!
//! Every layer is timed around calls into its public functions, made from
//! this file on the workload's own inputs: its traces, its organization ×
//! trace pairings and its `/v1/simulate` request stream.
//! Nothing inside the program is instrumented. Each call is kept as a span,
//! the spans are written out when the run ends, and self time per layer is
//! reported from them.

use crate::util::{self, median, quantile, Report, Span, Tracer};
use crate::Args;
use cachetime::{
    codec, keyed, replay_many, simulate, sweep, BehavioralSim, EventTrace, SystemConfig,
};
use cachetime_cache::CacheConfig;
use cachetime_disk::{DiskConfig, SegmentStore};
use cachetime_serve::http::{parse_request, Parsed};
use cachetime_serve::store::{TraceStore, TryGet};
use cachetime_serve::{api, upload, App};
use cachetime_trace::import::{ImportIter, TraceFormat};
use cachetime_trace::{Trace, WorkloadSpec};
use cachetime_types::{json_object, Json};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::sweep::{system, Org, CYCLE_TIMES_NS};

/// Pairings recorded, replayed, encoded and stored per layer pass.
const PAIRINGS: usize = 8;

/// Requests pushed through the in-process handler.
const REQUESTS: usize = 400;

/// Timing of one two-phase task: record once, replay every cycle time.
#[derive(Debug, Clone, Copy)]
pub struct TaskTiming {
    pub record: Duration,
    pub replay: Duration,
    pub refs: u64,
    pub ops: u64,
    pub couplets: u64,
    pub cells: usize,
}

/// One pass of the sweep executor.
pub struct ExecPass {
    pub wall: Duration,
    pub busy: Duration,
    pub jobs: usize,
    pub task_times: Vec<Duration>,
    pub tasks: Vec<TaskTiming>,
}

/// A workload's inputs, as the layer pass needs them.
pub struct LayerInputs {
    /// Every catalog workload the run uses.
    pub specs: Vec<WorkloadSpec>,
    /// `specs`, generated.
    pub traces: Vec<Trace>,
    /// Organization × trace pairings (trace index, L1), in workload order.
    pub pairings: Vec<(usize, CacheConfig)>,
    /// `/v1/simulate` bodies in the order the workload sends them.
    pub request_bodies: Vec<String>,
    /// Executor passes the workload itself ran traced; empty means the
    /// layer pass runs its own over `pairings`.
    pub exec: Vec<ExecPass>,
    /// What tracing cost the workload's timed phase, as a share of it, and
    /// the number of samples that figure is taken over.
    pub overhead: (f64, usize),
}

/// Up to `n` items of `items`, drawn without replacement by `seed`, in
/// their original order.
pub fn sample<T: Clone>(items: &[T], n: usize, seed: u64) -> Vec<T> {
    if items.len() <= n {
        return items.to_vec();
    }
    let mut rng = cachetime_testkit::SplitMix64::from_seed(seed ^ 0x1A7E_55ED);
    let mut ix: Vec<usize> = (0..items.len()).collect();
    for i in 0..n {
        let j = i + (rng.next_u64() % (items.len() - i) as u64) as usize;
        ix.swap(i, j);
    }
    let mut chosen = ix[..n].to_vec();
    chosen.sort_unstable();
    chosen.into_iter().map(|i| items[i].clone()).collect()
}

/// The raw bytes of one request, framed exactly as the load generator
/// frames it.
pub fn request_bytes(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: cachebench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The raw bytes of a chunked din upload in `chunk`-byte chunks.
fn chunked_upload_bytes(query: &str, body: &[u8], chunk: usize) -> Vec<u8> {
    let mut out = format!(
        "POST /v1/traces?{query} HTTP/1.1\r\nHost: cachebench\r\nContent-Type: text/plain\r\nTransfer-Encoding: chunked\r\n\r\n"
    )
    .into_bytes();
    for part in body.chunks(chunk) {
        out.extend_from_slice(format!("{:x}\r\n", part.len()).as_bytes());
        out.extend_from_slice(part);
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"0\r\n\r\n");
    out
}

/// Renders `refs` of `trace` as din text.
fn din_text(trace: &Trace, refs: usize) -> Vec<u8> {
    let mut out = Vec::new();
    let n = refs.min(trace.len());
    cachetime_trace::io::write_din(&mut out, &trace.refs()[..n]).expect("writing to memory");
    out
}

/// Times `f` over `reps` calls in batches and returns nanoseconds per call
/// (median of the batches), for calls too short to time one by one.
fn batched_ns(reps: usize, mut f: impl FnMut(usize)) -> f64 {
    let batch = (reps / 8).max(1);
    let mut per_call = Vec::new();
    let mut i = 0;
    while i < reps {
        let t0 = Instant::now();
        for k in i..(i + batch).min(reps) {
            f(k);
        }
        per_call.push(util::ns(t0.elapsed()) / (batch.min(reps - i)) as f64);
        i += batch;
    }
    median(&per_call)
}

/// Runs the sweep executor over `pairings` the way the `sweep` workload
/// does: record once, replay every cycle time.
fn exec_pass(pairings: &[(usize, CacheConfig)], traces: &[Trace], tracer: &mut Tracer) -> ExecPass {
    let epoch = tracer.epoch;
    let run = sweep::run(pairings, 0, |ix, (trace, l1)| {
        let t0 = Instant::now();
        let configs: Vec<SystemConfig> = CYCLE_TIMES_NS.iter().map(|&ct| system(*l1, ct)).collect();
        let t1 = Instant::now();
        let events = BehavioralSim::new(&configs[0].organization()).record(&traces[*trace]);
        let t2 = Instant::now();
        let results = replay_many(&events, &configs).expect("one organization");
        let t3 = Instant::now();
        let mut tr = Tracer::new(epoch);
        let task_id = Tracer::id();
        tr.record("sweep.task", t0, t3, task_id, 0, ix as u64);
        tr.record("record", t1, t2, Tracer::id(), task_id, ix as u64);
        tr.record("replay", t2, t3, Tracer::id(), task_id, ix as u64);
        (
            TaskTiming {
                record: t2 - t1,
                replay: t3 - t2,
                refs: traces[*trace].len() as u64,
                ops: events.ops().len() as u64,
                couplets: events.couplets(),
                cells: results.len(),
            },
            tr.spans,
        )
    })
    .expect("no task panics");
    let mut tasks = Vec::new();
    for (t, spans) in run.results.iter().cloned() {
        tasks.push(t);
        tracer.spans.extend(spans);
    }
    ExecPass {
        wall: run.wall_time,
        busy: run.busy_time(),
        jobs: run.jobs,
        task_times: run.task_times.clone(),
        tasks,
    }
}

/// Reports the record, replay and executor layers from executor passes.
fn exec_metrics(passes: &[ExecPass], report: &mut Report) {
    let tasks: Vec<&TaskTiming> = passes.iter().flat_map(|p| &p.tasks).collect();
    let sum = |f: &dyn Fn(&TaskTiming) -> f64| tasks.iter().map(|t| f(t)).sum::<f64>();
    let refs = sum(&|t| t.refs as f64);
    let ops = sum(&|t| t.ops as f64);
    let cells = sum(&|t| t.cells as f64);
    let record_ns = sum(&|t| util::ns(t.record));
    let replay_ns = sum(&|t| util::ns(t.replay));
    report.metric("record.ns_per_ref", record_ns / refs, "ns", tasks.len());
    report.metric("record.ops_per_ref", ops / refs, "count", tasks.len());
    report.metric(
        "replay.ns_per_op",
        replay_ns / (ops * CYCLE_TIMES_NS.len() as f64),
        "ns",
        tasks.len(),
    );
    report.metric(
        "replay.us_per_cell",
        replay_ns / 1e3 / cells,
        "us",
        tasks.len(),
    );
    report.metric(
        "replay.ops_per_couplet",
        ops / sum(&|t| t.couplets as f64),
        "count",
        tasks.len(),
    );
    let busy: Vec<f64> = passes.iter().map(|p| p.busy.as_secs_f64()).collect();
    let eff: Vec<f64> = passes
        .iter()
        .map(|p| p.busy.as_secs_f64() / (p.wall.as_secs_f64() * p.jobs as f64))
        .collect();
    let task_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.task_times.iter().map(|t| t.as_secs_f64() * 1e3))
        .collect();
    report.metric("sweep.busy_s", median(&busy), "s", busy.len());
    report.metric("sweep.efficiency", median(&eff), "ratio", eff.len());
    report.metric(
        "sweep.task_p50_ms",
        quantile(&task_ms, 0.5),
        "ms",
        task_ms.len(),
    );
    report.metric(
        "sweep.task_max_ms",
        quantile(&task_ms, 1.0),
        "ms",
        task_ms.len(),
    );
    let wall: f64 = passes.iter().map(|p| p.wall.as_secs_f64()).sum();
    report.note(format!(
        "executor: record busy {:.3}s + replay busy {:.3}s over {wall:.3}s wall x {} jobs",
        record_ns / 1e9,
        replay_ns / 1e9,
        passes.first().map_or(0, |p| p.jobs)
    ));
}

/// Records `trace` under `l1` `reps` times; returns the median ns per
/// reference and the last recording.
fn record_probe(
    l1: CacheConfig,
    trace: &Trace,
    reps: usize,
    tracer: &mut Tracer,
) -> (f64, EventTrace) {
    let org = system(l1, 40).organization();
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let events = BehavioralSim::new(&org).record(trace);
        let t1 = Instant::now();
        tracer.record("record", t0, t1, Tracer::id(), 0, 0);
        times.push(util::ns(t1 - t0) / trace.len() as f64);
        last = Some(events);
    }
    (median(&times), last.expect("reps > 0"))
}

pub fn run(args: &Args, inp: &LayerInputs, mut spans: Vec<Span>, report: &mut Report) {
    let started = Instant::now();
    let mut tr = Tracer::new(args.epoch);

    // trace: generation of the workload's catalog traces.
    let mut gen_ns = 0.0;
    let mut gen_refs = 0.0;
    for spec in &inp.specs {
        let t0 = Instant::now();
        let t = spec.generate();
        let t1 = Instant::now();
        tr.record("trace.gen", t0, t1, Tracer::id(), 0, 0);
        gen_ns += util::ns(t1 - t0);
        gen_refs += t.len() as f64;
    }
    report.metric(
        "trace.gen_ns_per_ref",
        gen_ns / gen_refs,
        "ns",
        inp.specs.len(),
    );

    // record / replay / executor.
    let pairings = sample(&inp.pairings, 3 * PAIRINGS, args.seed);
    if inp.exec.is_empty() {
        let own = exec_pass(&pairings, &inp.traces, &mut tr);
        exec_metrics(std::slice::from_ref(&own), report);
    } else {
        exec_metrics(&inp.exec, report);
    }
    let first = &inp.traces[0];
    for (name, l1) in [
        ("record.dm-2k.ns_per_ref", Org::Dm.cache(2)),
        ("record.dm-2m.ns_per_ref", Org::Dm.cache(2048)),
        ("record.features.ns_per_ref", Org::TwoWayVictimMru.cache(16)),
    ] {
        let (ns, _) = record_probe(l1, first, 3, &mut tr);
        report.metric(name, ns, "ns", 3);
    }

    // The direct engine, and one recording per sampled pairing for the
    // codec, disk and store layers.
    let few = sample(&inp.pairings, PAIRINGS, args.seed);
    let mut sim_ns = 0.0;
    let mut sim_refs = 0.0;
    let mut recorded: Vec<(u64, Arc<EventTrace>)> = Vec::new();
    for (trace_ix, l1) in &few {
        let trace = &inp.traces[*trace_ix];
        let config = system(*l1, 40);
        let t0 = Instant::now();
        std::hint::black_box(simulate(&config, trace));
        let t1 = Instant::now();
        tr.record("simulate", t0, t1, Tracer::id(), 0, 0);
        sim_ns += util::ns(t1 - t0);
        sim_refs += trace.len() as f64;
        let org = config.organization();
        let key = keyed::trace_key(&org, &inp.specs[*trace_ix]);
        recorded.push((key, Arc::new(BehavioralSim::new(&org).record(trace))));
    }
    report.metric("simulate.ns_per_ref", sim_ns / sim_refs, "ns", few.len());

    // keyed: the content key of every sampled pairing.
    let orgs: Vec<_> = few
        .iter()
        .map(|(t, l1)| (system(*l1, 40).organization(), *t))
        .collect();
    let key_ns = batched_ns(orgs.len() * 2000, |k| {
        let (org, t) = &orgs[k % orgs.len()];
        std::hint::black_box(keyed::trace_key(org, &inp.specs[*t]));
    });
    report.metric("keyed.trace_key_ns", key_ns, "ns", orgs.len() * 2000);

    // codec: encode and decode each recording.
    let (mut enc_ns, mut dec_ns, mut bytes, mut ops, mut resident) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for (_, events) in &recorded {
        let t0 = Instant::now();
        let enc = codec::encode(events);
        let t1 = Instant::now();
        let dec = codec::decode(&enc).expect("own encoding decodes");
        let t2 = Instant::now();
        tr.record("codec.encode", t0, t1, Tracer::id(), 0, 0);
        tr.record("codec.decode", t1, t2, Tracer::id(), 0, 0);
        report.check(dec.ops().len() == events.ops().len(), || {
            "codec round trip lost ops".into()
        });
        enc_ns += util::ns(t1 - t0);
        dec_ns += util::ns(t2 - t1);
        bytes += enc.len() as f64;
        ops += events.ops().len() as f64;
        resident += events.approx_bytes() as f64;
    }
    report.metric("codec.encode_ns_per_op", enc_ns / ops, "ns", recorded.len());
    report.metric("codec.decode_ns_per_op", dec_ns / ops, "ns", recorded.len());
    report.metric("codec.bytes_per_op", bytes / ops, "B/op", recorded.len());
    report.metric(
        "trace.resident_bytes_per_op",
        resident / ops,
        "B/op",
        recorded.len(),
    );

    // disk: durable spill, load and a restart scan in a scratch directory.
    let dir = args
        .work_dir
        .join(format!("layers-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = DiskConfig {
        root: dir.clone(),
        budget_bytes: 0,
        quarantine_cap_bytes: 0,
    };
    let disk = SegmentStore::open(config.clone()).expect("open scratch segment store");
    let (mut store_us, mut load_us) = (Vec::new(), Vec::new());
    for (key, events) in &recorded {
        let t0 = Instant::now();
        disk.store(*key, events).expect("spill to scratch dir");
        let t1 = Instant::now();
        tr.record("disk.store", t0, t1, Tracer::id(), 0, *key);
        store_us.push(util::us(t1 - t0));
    }
    for (key, events) in &recorded {
        let t0 = Instant::now();
        let loaded = disk.load(*key);
        let t1 = Instant::now();
        tr.record("disk.load", t0, t1, Tracer::id(), 0, *key);
        report.check(
            loaded.is_some_and(|l| l.ops().len() == events.ops().len()),
            || "a spilled segment did not load back".into(),
        );
        load_us.push(util::us(t1 - t0));
    }
    drop(disk);
    let reopened = SegmentStore::open(config).expect("reopen scratch segment store");
    let t0 = Instant::now();
    let scan = reopened
        .scan(|_, t| drop(std::hint::black_box(t)))
        .expect("scan scratch dir");
    let t1 = Instant::now();
    tr.record("disk.scan", t0, t1, Tracer::id(), 0, 0);
    report.check(scan.recovered == recorded.len() as u64, || {
        format!(
            "restart scan recovered {} of {} segments",
            scan.recovered,
            recorded.len()
        )
    });
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
    report.metric("disk.store_us", median(&store_us), "us", store_us.len());
    report.metric("disk.load_us", median(&load_us), "us", load_us.len());
    report.metric(
        "disk.scan_ms_per_segment",
        (t1 - t0).as_secs_f64() * 1e3 / recorded.len() as f64,
        "ms",
        recorded.len(),
    );

    // store: non-blocking lookups of the request stream's keys in a store
    // holding the sampled recordings.
    let store = TraceStore::new(256 << 20);
    for (key, events) in &recorded {
        store.seed(*key, Arc::clone(events));
    }
    let keys: Vec<u64> = recorded.iter().map(|(k, _)| *k).collect();
    let get_ns = batched_ns(keys.len() * 2000, |k| {
        std::hint::black_box(matches!(
            store.try_get(keys[k % keys.len()]),
            TryGet::Ready(_)
        ));
    });
    report.metric("store.try_get_ns", get_ns, "ns", keys.len() * 2000);

    // upload / trace import / interval selection on a din rendering of the
    // first trace.
    let body = din_text(first, 50_000);
    let t0 = Instant::now();
    let (ingested, _, _, _) =
        upload::ingest(&body, Some(TraceFormat::Din), "bench", 0).expect("din body parses");
    let t1 = Instant::now();
    let imported = ImportIter::new(&body[..], TraceFormat::Din)
        .filter(Result::is_ok)
        .count();
    let t2 = Instant::now();
    let _ = upload::select_intervals(&ingested, None, upload::DEFAULT_PICKS);
    let t3 = Instant::now();
    tr.record("upload.ingest", t0, t1, Tracer::id(), 0, 0);
    tr.record("trace.import", t1, t2, Tracer::id(), 0, 0);
    tr.record("trace.interval", t2, t3, Tracer::id(), 0, 0);
    let n = ingested.len() as f64;
    report.check(imported == ingested.len(), || {
        "importer and ingest disagree on ref count".into()
    });
    report.metric(
        "upload.ingest_ns_per_ref",
        util::ns(t1 - t0) / n,
        "ns",
        ingested.len(),
    );
    report.metric(
        "trace.import_ns_per_ref",
        util::ns(t2 - t1) / n,
        "ns",
        ingested.len(),
    );
    report.metric(
        "trace.interval_ns_per_ref",
        util::ns(t3 - t2) / n,
        "ns",
        ingested.len(),
    );

    // http: head parsing of the request stream, and dechunking of the
    // upload as the server receives it.
    let bodies: Vec<&String> = inp.request_bodies.iter().take(REQUESTS).collect();
    let raw: Vec<Vec<u8>> = bodies
        .iter()
        .map(|b| request_bytes("/v1/simulate", b))
        .collect();
    let parse_ns = batched_ns(raw.len() * 4, |k| {
        let mut buf = raw[k % raw.len()].clone();
        std::hint::black_box(parse_request(&mut buf).expect("well-formed request"));
    });
    report.metric("http.parse_ns", parse_ns, "ns", raw.len() * 4);
    let mut chunked = chunked_upload_bytes("format=din", &body, 64 << 10);
    let Ok(Parsed::Chunked { mut decoder, .. }) = parse_request(&mut chunked) else {
        panic!("a chunked upload head frames as chunked");
    };
    let t0 = Instant::now();
    let done = decoder.feed(&mut chunked).expect("well-formed chunks");
    let t1 = Instant::now();
    tr.record("http.dechunk", t0, t1, Tracer::id(), 0, 0);
    report.check(done && decoder.body_len() == body.len(), || {
        "dechunked length differs".into()
    });
    report.metric(
        "http.dechunk_ns_per_byte",
        util::ns(t1 - t0) / body.len() as f64,
        "ns",
        body.len(),
    );

    // The handler in process: prime every pairing of the stream, then time
    // App::handle on each request and, separately, each step it takes.
    let app = App::new(256 << 20);
    let requests: Vec<cachetime_serve::Request> = raw
        .iter()
        .map(|r| match parse_request(&mut r.clone()) {
            Ok(Parsed::Request(req)) => req,
            _ => panic!("a request frames"),
        })
        .collect();
    for req in &requests {
        let resp = app.handle(req);
        report.check(resp.status == 200, || {
            format!("in-process handler answered {}", resp.status)
        });
    }
    let mut handle_us = Vec::new();
    let mut steps_us = Vec::new();
    let (mut json_ns, mut decode_ns, mut result_ns, mut render_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (i, req) in requests.iter().enumerate() {
        let req_id = i as u64;
        let h0 = Instant::now();
        let resp = app.handle(req);
        let h1 = Instant::now();
        std::hint::black_box(resp);
        let handle_id = Tracer::id();
        tr.record("app.handle", h0, h1, handle_id, 0, req_id);
        handle_us.push(util::us(h1 - h0));

        let s0 = Instant::now();
        let v =
            Json::parse(std::str::from_utf8(&req.body).expect("utf-8 body")).expect("valid json");
        let s1 = Instant::now();
        let config = api::system_config_from_json(v.get("config")).expect("valid config");
        let selector = api::trace_selector_from_json(v.get("trace")).expect("valid trace");
        let s2 = Instant::now();
        let api::TraceSelector::Catalog(spec) = selector else {
            panic!("the stream names catalog traces")
        };
        let key = keyed::trace_key(&config.organization(), &spec);
        let s3 = Instant::now();
        let TryGet::Ready(events) = app.store.try_get(key) else {
            panic!("primed pairing is resident")
        };
        let s4 = Instant::now();
        let result = cachetime::replay(&events, &config).expect("same organization");
        let s5 = Instant::now();
        let json = api::sim_result_to_json(&result);
        let s6 = Instant::now();
        // The response body the handler renders: the result under its key.
        let wrapped = json_object([
            ("key", Json::Str(api::key_hex(key))),
            ("cached", Json::Bool(true)),
            ("result", json),
        ]);
        std::hint::black_box(wrapped.to_string());
        let s7 = Instant::now();
        let parent = Tracer::id();
        tr.record("app.steps", s0, s7, parent, 0, req_id);
        for (layer, a, b) in [
            ("json.parse", s0, s1),
            ("api.decode", s1, s2),
            ("keyed.trace_key", s2, s3),
            ("store.try_get", s3, s4),
            ("replay", s4, s5),
            ("api.result", s5, s6),
            ("json.render", s6, s7),
        ] {
            tr.record(layer, a, b, Tracer::id(), parent, req_id);
        }
        steps_us.push(util::us(s7 - s0));
        json_ns.push(util::ns(s1 - s0));
        decode_ns.push(util::ns(s2 - s1));
        result_ns.push(util::ns(s6 - s5));
        render_ns.push(util::ns(s7 - s6));
    }
    let handle_p50 = median(&handle_us);
    report.metric("json.parse_ns", median(&json_ns), "ns", json_ns.len());
    report.metric("json.render_ns", median(&render_ns), "ns", render_ns.len());
    report.metric("api.decode_ns", median(&decode_ns), "ns", decode_ns.len());
    report.metric("api.result_ns", median(&result_ns), "ns", result_ns.len());
    report.metric("app.handle_us", handle_p50, "us", handle_us.len());
    report.metric(
        "serve.accounted_frac",
        median(&steps_us) / handle_p50,
        "ratio",
        steps_us.len(),
    );
    report.metric(
        "obs.trace_overhead_frac",
        inp.overhead.0,
        "ratio",
        inp.overhead.1,
    );
    report.detail("layers.pass_s", started.elapsed().as_secs_f64(), "s", 1);

    spans.extend(tr.spans);
    for (layer, (count, total, own)) in util::self_times(&spans) {
        report.note(format!(
            "layer {layer:<16} spans={count:<6} total_ms={:<12.3} self_ms={:.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        ));
    }
    let path = args
        .work_dir
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    match util::write_spans(&path, &spans) {
        Ok(()) => report.note(format!(
            "spans: {} written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => report.note(format!("spans: could not write {}: {e}", path.display())),
    }
}
