//! The open-loop load generator.
//!
//! A schedule is a list of requests, each due at a fixed offset from a
//! shared start. One connection is driven by one thread, which sends every
//! request when it falls due whatever the server is doing, pipelining on
//! the keep-alive connection (the server answers pipelined requests in
//! order), and reads responses as they arrive. Every request is timed from
//! when it was due, so a stall also counts against the requests it delays,
//! and the generator's own lateness is kept per request. The only
//! exceptions are the [`Overload`] policies: a ladder step is abandoned
//! once the server has fallen far behind, and a saturating phase holds
//! requests back to keep a bounded window outstanding.
//!
//! The thread sleeps in `ppoll(2)` until the socket is readable or the next
//! request is due, so it neither spins nor oversleeps by a timer tick.

use crate::util::{Span, Tracer};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a connection keeps reading after its last request fell due.
const DRAIN: Duration = Duration::from_secs(20);

/// What a connection does with a due request while the server is behind.
#[derive(Debug, Clone, Copy)]
pub enum Overload {
    /// Past this many outstanding responses the server has fallen behind
    /// for good: abandon the request's ladder step and every later one.
    Abandon(usize),
    /// Hold the request back while `window` responses are outstanding, so
    /// the server always has work queued but the backlog stays bounded;
    /// skip it, unsent, if it is still held at `until`.
    Hold { window: usize, until: Duration },
}

/// One scheduled request.
#[derive(Clone)]
pub struct Req {
    /// When it is due, from the shared start.
    pub due: Duration,
    /// The request, framed.
    pub bytes: Arc<Vec<u8>>,
    /// The phase of the run it belongs to (a ladder step).
    pub step: usize,
    pub overload: Overload,
    /// Keep the response body for the output checks.
    pub keep_body: bool,
}

/// The outcome of one scheduled request.
#[derive(Debug, Clone, Default)]
pub struct Done {
    /// When its first byte went out; `None` if it was skipped (its step
    /// abandoned, or held past its deadline): never sent, so never
    /// attempted.
    pub sent: Option<Duration>,
    /// When its response was complete; `None` if none came.
    pub done: Option<Duration>,
    /// HTTP status, 0 when there was no response.
    pub status: u16,
    pub body: Option<String>,
}

/// State shared by the connections of one run.
pub struct Shared {
    /// The lowest ladder step abandoned so far (`usize::MAX`: none).
    pub abandoned_from: AtomicUsize,
    /// Whether a connection has taken on sampling the host's CPU counters.
    sampler: std::sync::atomic::AtomicBool,
    /// The server under load.
    server_pid: u32,
    /// About once a second: time from start, the machine's steal ticks and
    /// all ticks (how much CPU the hypervisor took from this VM), and the
    /// server's CPU ticks.
    pub host: std::sync::Mutex<Vec<HostSample>>,
    /// Nanoseconds the connections spent recording spans.
    pub span_ns: AtomicU64,
}

/// One sample of the host's and the server's CPU counters.
#[derive(Debug, Clone, Copy)]
pub struct HostSample {
    pub at: Duration,
    pub steal: u64,
    pub total: u64,
    pub server_cpu: u64,
}

/// CPU ticks (user + system) process `pid` has used.
fn process_ticks(pid: u32) -> Option<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    Some(f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?)
}

/// The machine-wide `(steal, total)` CPU tick counters, if `/proc/stat`
/// has them.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect();
    (ticks.len() == 8).then(|| (ticks[7], ticks.iter().sum()))
}

impl Shared {
    pub fn new(server_pid: u32) -> Shared {
        Shared {
            abandoned_from: AtomicUsize::new(usize::MAX),
            sampler: std::sync::atomic::AtomicBool::new(false),
            server_pid,
            host: std::sync::Mutex::new(Vec::new()),
            span_ns: AtomicU64::new(0),
        }
    }

    /// Whether `req` will not be sent: its step is abandoned, or it is
    /// held past its deadline.
    fn skipped(&self, req: &Req, now: Duration) -> bool {
        match req.overload {
            Overload::Abandon(_) => req.step >= self.abandoned_from.load(Ordering::Relaxed),
            Overload::Hold { until, .. } => now >= until,
        }
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

/// Sleeps until `stream` is readable (or writable, if asked) or `timeout`
/// passes, to the nanosecond.
fn wait(stream: &TcpStream, writable: bool, timeout: Duration) {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN | if writable { POLLOUT } else { 0 },
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, properly laid-out `struct pollfd` and
    // `struct timespec` values (64-bit Linux: `long` is 64 bits) for the
    // whole call; nfds is 1; a null sigmask leaves the signal mask alone.
    // The result is ignored: a timeout, a wake-up and EINTR all mean
    // "look again", which the caller does.
    unsafe {
        ppoll(&mut fd, 1, &ts, std::ptr::null());
    }
}

/// A complete response framed at the front of a buffer: status, body and
/// its length on the wire.
type Framed<'a> = (u16, &'a [u8], usize);

/// The complete response at the front of `buf`, if one has arrived.
fn parse_response(buf: &[u8]) -> Result<Option<Framed<'_>>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 response head")?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or("malformed status line")?;
    let mut len = None;
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                len = Some(
                    v.trim()
                        .parse::<usize>()
                        .map_err(|_| "bad content-length")?,
                );
            } else if k.eq_ignore_ascii_case("transfer-encoding") {
                return Err("unexpected chunked response".into());
            }
        }
    }
    let len = len.ok_or("response without content-length")?;
    let total = head_end + 4 + len;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((status, &buf[head_end + 4..total], total)))
}

/// Drives `schedule` over one new connection to `addr`, starting at `t0`.
/// Returns one [`Done`] per request, in schedule order.
///
/// With `trace = Some(epoch)`, each answered request is also kept as spans
/// as it completes: the request from due to answer, split into the wait to
/// be sent and the exchange. The time spent recording them is added to
/// `shared.span_ns`.
pub fn drive(
    addr: &str,
    t0: Instant,
    schedule: &[Req],
    shared: &Shared,
    trace: Option<Instant>,
) -> std::io::Result<(Vec<Done>, Vec<Span>)> {
    let mut tracer = trace.map(Tracer::new);
    let mut span_cost = Duration::ZERO;
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    let mut out: Vec<Done> = vec![Done::default(); schedule.len()];
    let mut next = 0usize;
    let mut pending: Option<(Arc<Vec<u8>>, usize)> = None;
    let mut inflight: VecDeque<usize> = VecDeque::new();
    let mut inbuf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let last_due = schedule.last().map_or(Duration::ZERO, |r| r.due);
    let mut broken = false;
    let samples_host = !shared.sampler.swap(true, Ordering::Relaxed);
    let mut next_sample = Duration::ZERO;

    'run: loop {
        if samples_host && t0.elapsed() >= next_sample {
            if let (Some((steal, total)), Some(server_cpu)) =
                (cpu_ticks(), process_ticks(shared.server_pid))
            {
                let at = t0.elapsed();
                shared.host.lock().expect("host samples").push(HostSample {
                    at,
                    steal,
                    total,
                    server_cpu,
                });
            }
            next_sample += Duration::from_secs(1);
        }
        // Send everything that is due, one request at a time on the wire.
        let mut held = false;
        loop {
            if let Some((bytes, pos)) = pending.as_mut() {
                match stream.write(&bytes[*pos..]) {
                    Ok(n) => *pos += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => {
                        broken = true;
                        break 'run;
                    }
                }
                if *pos < bytes.len() {
                    continue;
                }
                pending = None;
            }
            let now = t0.elapsed();
            let Some(req) = schedule.get(next).filter(|r| r.due <= now) else {
                break;
            };
            if shared.skipped(req, now) {
                next += 1;
                continue;
            }
            match req.overload {
                Overload::Abandon(limit) if inflight.len() > limit => {
                    // The server is this far behind: the step has failed, so
                    // stop offering it (and every later step) load.
                    shared.abandoned_from.fetch_min(req.step, Ordering::Relaxed);
                    continue;
                }
                Overload::Hold { window, .. } if inflight.len() >= window => {
                    held = true;
                    break;
                }
                _ => {}
            }
            out[next].sent = Some(now);
            inflight.push_back(next);
            pending = Some((Arc::clone(&req.bytes), 0));
            next += 1;
        }

        // Read whatever has arrived.
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => {
                    broken = true;
                    break 'run;
                }
                Ok(n) => inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => {
                    broken = true;
                    break 'run;
                }
            }
        }
        let now = t0.elapsed();
        let mut consumed = 0;
        loop {
            match parse_response(&inbuf[consumed..]) {
                Ok(Some((status, body, len))) => {
                    let Some(ix) = inflight.pop_front() else {
                        broken = true;
                        break 'run;
                    };
                    let d = &mut out[ix];
                    d.done = Some(now);
                    d.status = status;
                    if let Some(tr) = tracer.as_mut() {
                        let c0 = Instant::now();
                        let req = &schedule[ix];
                        let sent = d.sent.unwrap_or(req.due).max(req.due);
                        let id = Tracer::id();
                        tr.record("client.request", t0 + req.due, t0 + now, id, 0, ix as u64);
                        tr.record(
                            "gen.wait",
                            t0 + req.due,
                            t0 + sent,
                            Tracer::id(),
                            id,
                            ix as u64,
                        );
                        tr.record(
                            "client.exchange",
                            t0 + sent,
                            t0 + now,
                            Tracer::id(),
                            id,
                            ix as u64,
                        );
                        span_cost += c0.elapsed();
                    }
                    if schedule[ix].keep_body || status != 200 {
                        d.body = Some(String::from_utf8_lossy(body).into_owned());
                    }
                    consumed += len;
                }
                Ok(None) => break,
                Err(_) => {
                    broken = true;
                    break 'run;
                }
            }
        }
        inbuf.drain(..consumed);

        let sent_all = next >= schedule.len() && pending.is_none();
        if sent_all && inflight.is_empty() {
            break;
        }
        if sent_all && now > last_due + DRAIN {
            break;
        }
        let timeout = match schedule.get(next) {
            _ if pending.is_some() => Duration::from_millis(5),
            // Wait for an answer to free the window.
            _ if held => Duration::from_millis(20),
            Some(r) if !shared.skipped(r, now) => r.due.saturating_sub(now),
            Some(_) => Duration::ZERO,
            None => Duration::from_millis(20),
        };
        if !timeout.is_zero() {
            wait(
                &stream,
                pending.is_some(),
                timeout.min(Duration::from_millis(20)),
            );
        }
    }
    // A broken connection fails every request still waiting on it and
    // every later one (status 0); a drain timeout fails the stragglers.
    if broken {
        for d in out.iter_mut().skip(next) {
            d.sent.get_or_insert(Duration::ZERO);
        }
    }
    shared
        .span_ns
        .fetch_add(span_cost.as_nanos() as u64, Ordering::Relaxed);
    Ok((out, tracer.map(|t| t.spans).unwrap_or_default()))
}

/// The schedule's Poisson arrivals at `rate` per second from `start` for
/// `len`: seeded exponential gaps.
pub fn poisson(
    rng: &mut cachetime_testkit::SplitMix64,
    rate: f64,
    start: Duration,
    len: Duration,
) -> Vec<Duration> {
    let mut out = Vec::new();
    let mut t = start.as_secs_f64();
    let end = (start + len).as_secs_f64();
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= end {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}
