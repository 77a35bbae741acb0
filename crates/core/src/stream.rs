//! The op stream: the one representation of an [`EventTrace`]'s events —
//! in memory, in a durable segment and on the wire.
//!
//! [`BehavioralSim`](crate::BehavioralSim) appends ops with [`OpWriter`];
//! replay and [`EventTrace::ops`] read them back through [`Ops`]; the
//! codec carries the bytes verbatim after its header and checks them once
//! with [`validate`]. A stream stores only what the recording cannot
//! derive. Everything else is a function of the organization ([`Shape`]):
//!
//! * `fetch_start` is the address rounded down to the fetch size, and
//!   `fill_words` is the fetch size;
//! * a victim's `words` is the block size;
//! * `walk_cycles` is 0 or the MMU's miss penalty;
//! * `through` is the L1 data cache's write policy.
//!
//! Layout, one op after another (integers little-endian):
//!
//! ```text
//! op byte    bits 0-1  tag: 0 hit run, 1 couplet, 2 warm boundary
//!   hit run  bits 2-6  the couplet classes present; one LEB128 count
//!                      (nonzero, at most u32::MAX) follows per set bit,
//!                      in class order
//!   couplet  bit 2     an instruction-fetch half follows
//!            bit 3     a data half follows (after the fetch half)
//! half       kind      bits 0-2 access kind, bit 3 TLB walk, bit 4
//!                      victim, bit 5 pid changed, bit 6 wide addresses
//!            pid       u16, only when it changed (the running pid
//!                      starts at 0)
//!            addr      u32, or u64 when wide
//!            victim    the victim's block number, u32 or u64 when wide;
//!                      only with the victim bit
//! ```
//!
//! Unused bits are zero and every field takes its shortest form, so a
//! sequence of ops has exactly one stream: [`validate`] rejects anything
//! [`OpWriter`] would not have written, and two traces are equal exactly
//! when their bytes are.
//!
//! [`EventTrace`]: crate::EventTrace
//! [`EventTrace::ops`]: crate::EventTrace::ops

use crate::codec::CodecError;
use crate::system::OrgConfig;
use cachetime_cache::{CacheConfig, WritePolicy};
use cachetime_types::{AccessEvent, CoupletClass, EventOp, Pid, RefEvent, VictimBlock, WordAddr};

const TAG_MASK: u8 = 0b11;
const TAG_HIT_RUN: u8 = 0;
const TAG_COUPLET: u8 = 1;
const TAG_WARM: u8 = 2;
const COUPLET_IFETCH: u8 = 1 << 2;
const COUPLET_DATA: u8 = 1 << 3;

const KIND_MASK: u8 = 0b111;
const HALF_WALK: u8 = 1 << 3;
const HALF_VICTIM: u8 = 1 << 4;
const HALF_PID: u8 = 1 << 5;
const HALF_WIDE: u8 = 1 << 6;

const READ_HIT: u8 = 0;
const READ_MISS: u8 = 1;
const WRITE_HIT: u8 = 2;
const WRITE_MISS_AROUND: u8 = 3;
const WRITE_MISS_ALLOCATE: u8 = 4;
const READ_SLOW_HIT: u8 = 5;
const READ_VICTIM_HIT: u8 = 6;
const WRITE_VICTIM_HIT: u8 = 7;

/// The geometry of one first-level cache, as the stream needs it.
#[derive(Debug, Clone, Copy)]
struct CacheShape {
    /// Words per fetch (a power of two).
    fetch: u32,
    /// log2 of the words per block.
    block_shift: u32,
}

impl CacheShape {
    fn of(config: &CacheConfig) -> Self {
        CacheShape {
            fetch: config.fetch().words(),
            block_shift: config.block().words().trailing_zeros(),
        }
    }
}

/// What an organization fixes about every event it records: the fields
/// the stream leaves out.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Shape {
    /// The cache instruction fetches probe: the L1i, or the L1d of a
    /// unified organization.
    ifetch: CacheShape,
    /// The L1d, which every load and store probes.
    data: CacheShape,
    /// Cycles of one TLB walk; 0 without an MMU.
    walk: u64,
    /// Whether stores also go downstream (a write-through L1d).
    through: bool,
}

impl Shape {
    pub(crate) fn of(org: &OrgConfig) -> Self {
        let ifetch = if org.is_split() { org.l1i() } else { org.l1d() };
        Shape {
            ifetch: CacheShape::of(ifetch),
            data: CacheShape::of(org.l1d()),
            walk: org.translation().map_or(0, |t| t.miss_penalty),
            through: org.l1d().write_policy() == WritePolicy::WriteThrough,
        }
    }
}

/// Appends ops to a stream.
#[derive(Debug)]
pub(crate) struct OpWriter {
    shape: Shape,
    bytes: Vec<u8>,
    ops: usize,
    pid: Pid,
}

impl OpWriter {
    pub(crate) fn new(shape: Shape, capacity: usize) -> Self {
        OpWriter {
            shape,
            bytes: Vec::with_capacity(capacity),
            ops: 0,
            pid: Pid(0),
        }
    }

    /// Ops written so far.
    pub(crate) fn len(&self) -> usize {
        self.ops
    }

    /// Appends one op. Every field the stream leaves out must be the one
    /// the organization implies; debug builds decode each op back and
    /// compare.
    pub(crate) fn push(&mut self, op: &EventOp) {
        let start = self.bytes.len();
        let pid = self.pid;
        match op {
            EventOp::HitRun { counts } => {
                let mut mask = 0u8;
                for (i, &n) in counts.iter().enumerate() {
                    if n != 0 {
                        mask |= 1 << i;
                    }
                }
                debug_assert!(mask != 0, "an empty hit run");
                self.bytes.push(TAG_HIT_RUN | mask << 2);
                for &n in counts.iter().filter(|&&n| n != 0) {
                    put_count(&mut self.bytes, n);
                }
            }
            EventOp::Couplet { iref, dref } => {
                let mut b = TAG_COUPLET;
                if iref.is_some() {
                    b |= COUPLET_IFETCH;
                }
                if dref.is_some() {
                    b |= COUPLET_DATA;
                }
                self.bytes.push(b);
                if let Some(e) = iref {
                    self.half(e, self.shape.ifetch);
                }
                if let Some(e) = dref {
                    self.half(e, self.shape.data);
                }
            }
            EventOp::WarmBoundary => self.bytes.push(TAG_WARM),
        }
        self.ops += 1;
        if cfg!(debug_assertions) {
            let mut r = OpReader {
                bytes: &self.bytes,
                pos: start,
                pid,
                shape: self.shape,
            };
            let back = r.op().map(|o| self.shape.event_op(o));
            assert_eq!(back.as_ref(), Ok(op), "the stream cannot derive this op");
            assert_eq!(r.pos, self.bytes.len());
        }
    }

    fn half(&mut self, e: &RefEvent, cache: CacheShape) {
        let (kind, victim) = match e.access {
            AccessEvent::ReadHit => (READ_HIT, None),
            AccessEvent::ReadMiss { victim, .. } => (READ_MISS, victim),
            AccessEvent::WriteHit { .. } => (WRITE_HIT, None),
            AccessEvent::WriteMissAround => (WRITE_MISS_AROUND, None),
            AccessEvent::WriteMissAllocate { victim, .. } => (WRITE_MISS_ALLOCATE, victim),
            AccessEvent::ReadSlowHit => (READ_SLOW_HIT, None),
            AccessEvent::ReadVictimHit => (READ_VICTIM_HIT, None),
            AccessEvent::WriteVictimHit { .. } => (WRITE_VICTIM_HIT, None),
        };
        let addr = e.addr.value();
        let victim = victim.map(|v| v.addr.value() >> cache.block_shift);
        let wide = addr > u32::MAX as u64 || victim.is_some_and(|v| v > u32::MAX as u64);
        let mut k = kind;
        if e.walk_cycles != 0 {
            k |= HALF_WALK;
        }
        if victim.is_some() {
            k |= HALF_VICTIM;
        }
        let pid_changed = e.pid != self.pid;
        if pid_changed {
            k |= HALF_PID;
        }
        if wide {
            k |= HALF_WIDE;
        }
        self.bytes.push(k);
        if pid_changed {
            self.bytes.extend_from_slice(&e.pid.0.to_le_bytes());
            self.pid = e.pid;
        }
        for v in std::iter::once(addr).chain(victim) {
            if wide {
                self.bytes.extend_from_slice(&v.to_le_bytes());
            } else {
                self.bytes.extend_from_slice(&(v as u32).to_le_bytes());
            }
        }
    }

    /// The finished stream, exactly sized, and its op count.
    pub(crate) fn finish(self) -> (Box<[u8]>, usize) {
        (self.bytes.into_boxed_slice(), self.ops)
    }
}

/// LEB128: seven bits per byte, low bits first, high bit = more follow.
fn put_count(out: &mut Vec<u8>, mut n: u32) {
    while n >= 0x80 {
        out.push(n as u8 | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
}

/// One couplet half as the stream holds it: only what the organization
/// cannot derive. [`Shape::event`] expands it to a [`RefEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Half {
    /// The access kind (`READ_HIT` ... `WRITE_VICTIM_HIT`).
    kind: u8,
    /// Whether a TLB walk preceded the access.
    walk: bool,
    pid: Pid,
    addr: u64,
    /// The victim's block number, if the fill displaced a dirty block.
    victim: Option<u64>,
}

/// One op as the stream holds it. [`Shape::event_op`] expands it to an
/// [`EventOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    /// Couplets of each class, as in [`EventOp::HitRun`].
    HitRun([u32; CoupletClass::COUNT]),
    /// The instruction-fetch and data halves.
    Couplet(Option<Half>, Option<Half>),
    /// The warm-start boundary.
    WarmBoundary,
}

/// The commonest recorded couplet — one half, no TLB walk, a read miss —
/// resolved once for every replayer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LoneReadMiss {
    pub(crate) pid: Pid,
    pub(crate) fetch_start: WordAddr,
    pub(crate) fill_words: u32,
    /// The dirty victim's first word and length.
    pub(crate) victim: Option<(WordAddr, u32)>,
    /// The missed word's offset from `fetch_start`.
    pub(crate) offset: u32,
}

impl Shape {
    /// Expands a half read from the stream; `ifetch` tells which cache it
    /// probed.
    pub(crate) fn event(&self, h: Half, ifetch: bool) -> RefEvent {
        let cache = if ifetch { self.ifetch } else { self.data };
        let fetch_start = WordAddr::new(h.addr & !(cache.fetch as u64 - 1));
        let fill_words = cache.fetch;
        let victim = h.victim.map(|b| VictimBlock {
            addr: WordAddr::new(b << cache.block_shift),
            words: 1 << cache.block_shift,
        });
        let through = self.through;
        let access = match h.kind {
            READ_HIT => AccessEvent::ReadHit,
            READ_MISS => AccessEvent::ReadMiss {
                fetch_start,
                fill_words,
                victim,
            },
            WRITE_HIT => AccessEvent::WriteHit { through },
            WRITE_MISS_AROUND => AccessEvent::WriteMissAround,
            WRITE_MISS_ALLOCATE => AccessEvent::WriteMissAllocate {
                fetch_start,
                fill_words,
                victim,
                through,
            },
            READ_SLOW_HIT => AccessEvent::ReadSlowHit,
            READ_VICTIM_HIT => AccessEvent::ReadVictimHit,
            _ => AccessEvent::WriteVictimHit { through },
        };
        RefEvent {
            addr: WordAddr::new(h.addr),
            pid: h.pid,
            walk_cycles: if h.walk { self.walk } else { 0 },
            access,
        }
    }

    /// Expands an op read from the stream.
    pub(crate) fn event_op(&self, op: Op) -> EventOp {
        match op {
            Op::HitRun(counts) => EventOp::HitRun { counts },
            Op::Couplet(i, d) => EventOp::Couplet {
                iref: i.map(|h| self.event(h, true)),
                dref: d.map(|h| self.event(h, false)),
            },
            Op::WarmBoundary => EventOp::WarmBoundary,
        }
    }

    /// The couplet `(i, d)` as a [`LoneReadMiss`], if it is one.
    #[inline]
    pub(crate) fn lone_read_miss(&self, i: Option<Half>, d: Option<Half>) -> Option<LoneReadMiss> {
        let (h, cache) = match (i, d) {
            (Some(h), None) => (h, self.ifetch),
            (None, Some(h)) => (h, self.data),
            _ => return None,
        };
        if h.kind != READ_MISS || h.walk {
            return None;
        }
        let fetch_start = h.addr & !(cache.fetch as u64 - 1);
        Some(LoneReadMiss {
            pid: h.pid,
            fetch_start: WordAddr::new(fetch_start),
            fill_words: cache.fetch,
            victim: h.victim.map(|b| {
                (
                    WordAddr::new(b << cache.block_shift),
                    1 << cache.block_shift,
                )
            }),
            offset: (h.addr - fetch_start) as u32,
        })
    }
}

/// Reads ops off a stream: [`op`](Self::op) checks every byte, for
/// untrusted input; [`next_valid`](Self::next_valid) is the fast path for
/// a stream already known to be valid.
#[derive(Debug, Clone)]
pub(crate) struct OpReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    pid: Pid,
    shape: Shape,
}

/// `N` bytes at `pos`, zero-filled past the end of `bytes`, so the fast
/// path can load a field before it knows whether the field is there.
#[inline(always)]
fn peek<const N: usize>(bytes: &[u8], pos: usize) -> [u8; N] {
    match bytes.get(pos..pos + N) {
        Some(s) => s.try_into().expect("N bytes"),
        None => {
            let mut out = [0u8; N];
            let tail = &bytes[pos.min(bytes.len())..];
            out[..tail.len()].copy_from_slice(tail);
            out
        }
    }
}

impl<'a> OpReader<'a> {
    /// A reader at the start of `bytes`, a stream recorded under `org`.
    pub(crate) fn new(bytes: &'a [u8], org: &OrgConfig) -> Self {
        OpReader {
            bytes,
            pos: 0,
            pid: Pid(0),
            shape: Shape::of(org),
        }
    }

    /// Decodes the next op of a stream known to be valid: one that
    /// [`OpWriter`] wrote or [`validate`] accepted.
    ///
    /// Replay spends much of its time here, so the common shapes decode
    /// without data-dependent branches: a hit run's one-byte counts are
    /// placed by mask arithmetic, and a half loads its address and
    /// possible victim before testing the victim flag. A hit run with a
    /// multi-byte count, which is rare, goes through [`op`](Self::op).
    #[inline]
    pub(crate) fn next_valid(&mut self) -> Op {
        let bytes = self.bytes;
        let b = bytes[self.pos];
        match b & TAG_MASK {
            TAG_HIT_RUN => {
                let mask = (b >> 2) as u32;
                let w = u64::from_le_bytes(peek(bytes, self.pos + 1));
                let len = mask.count_ones();
                if w & 0x0000_0080_8080_8080 & ((1u64 << (8 * len)) - 1) != 0 {
                    return self.op().expect("an EventTrace holds a valid op stream");
                }
                let mut counts = [0u32; CoupletClass::COUNT];
                let mut k = 0u32;
                for (i, c) in counts.iter_mut().enumerate() {
                    let present = (mask >> i) & 1;
                    *c = ((w >> (8 * k)) & 0x7f) as u32 * present;
                    k += present;
                }
                self.pos += 1 + k as usize;
                Op::HitRun(counts)
            }
            TAG_COUPLET => {
                self.pos += 1;
                let i = (b & COUPLET_IFETCH != 0).then(|| self.next_valid_half());
                let d = (b & COUPLET_DATA != 0).then(|| self.next_valid_half());
                Op::Couplet(i, d)
            }
            _ => {
                self.pos += 1;
                Op::WarmBoundary
            }
        }
    }

    #[inline]
    fn next_valid_half(&mut self) -> Half {
        let bytes = self.bytes;
        let k = bytes[self.pos];
        self.pos += 1;
        if k & HALF_PID != 0 {
            self.pid = Pid(u16::from_le_bytes(peek(bytes, self.pos)));
            self.pos += 2;
        }
        let has_victim = k & HALF_VICTIM != 0;
        let (addr, victim) = if k & HALF_WIDE == 0 {
            let w = u64::from_le_bytes(peek(bytes, self.pos));
            self.pos += if has_victim { 8 } else { 4 };
            (w & 0xffff_ffff, has_victim.then_some(w >> 32))
        } else {
            let addr = u64::from_le_bytes(peek(bytes, self.pos));
            let v = u64::from_le_bytes(peek(bytes, self.pos + 8));
            self.pos += if has_victim { 16 } else { 8 };
            (addr, has_victim.then_some(v))
        };
        Half {
            kind: k & KIND_MASK,
            walk: k & HALF_WALK != 0,
            pid: self.pid,
            addr,
            victim,
        }
    }

    fn byte(&mut self) -> Result<u8, CodecError> {
        let b = *self.bytes.get(self.pos).ok_or(CodecError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let s = self
            .bytes
            .get(self.pos..self.pos + N)
            .ok_or(CodecError::Truncated)?;
        self.pos += N;
        Ok(s.try_into().expect("N bytes"))
    }

    fn word(&mut self, wide: bool) -> Result<u64, CodecError> {
        Ok(if wide {
            u64::from_le_bytes(self.array()?)
        } else {
            u32::from_le_bytes(self.array()?) as u64
        })
    }

    fn count(&mut self) -> Result<u32, CodecError> {
        let mut n = 0u64;
        for i in 0..5 {
            let b = self.byte()?;
            n |= ((b & 0x7f) as u64) << (7 * i);
            if b & 0x80 == 0 {
                if b == 0 {
                    // Zero counts are left out, and a zero last byte is
                    // an overlong form.
                    return Err(CodecError::Invalid("hit-run count"));
                }
                return u32::try_from(n).map_err(|_| CodecError::Invalid("hit-run count"));
            }
        }
        Err(CodecError::Invalid("hit-run count"))
    }

    /// Decodes the next op, checking every byte.
    pub(crate) fn op(&mut self) -> Result<Op, CodecError> {
        let b = self.byte()?;
        match b & TAG_MASK {
            TAG_HIT_RUN => {
                let mask = b >> 2;
                if mask == 0 || mask >> CoupletClass::COUNT != 0 {
                    return Err(CodecError::Invalid("hit-run op byte"));
                }
                let mut counts = [0u32; CoupletClass::COUNT];
                for (i, c) in counts.iter_mut().enumerate() {
                    if mask & 1 << i != 0 {
                        *c = self.count()?;
                    }
                }
                Ok(Op::HitRun(counts))
            }
            TAG_COUPLET => {
                if b & !(TAG_MASK | COUPLET_IFETCH | COUPLET_DATA) != 0
                    || b & (COUPLET_IFETCH | COUPLET_DATA) == 0
                {
                    return Err(CodecError::Invalid("couplet op byte"));
                }
                let i = if b & COUPLET_IFETCH != 0 {
                    Some(self.half(true)?)
                } else {
                    None
                };
                let d = if b & COUPLET_DATA != 0 {
                    Some(self.half(false)?)
                } else {
                    None
                };
                Ok(Op::Couplet(i, d))
            }
            TAG_WARM if b == TAG_WARM => Ok(Op::WarmBoundary),
            _ => Err(CodecError::Invalid("op byte")),
        }
    }

    fn half(&mut self, ifetch: bool) -> Result<Half, CodecError> {
        let k = self.byte()?;
        let kind = k & KIND_MASK;
        if k & 0x80 != 0 {
            return Err(CodecError::Invalid("kind byte"));
        }
        if ifetch && !matches!(kind, READ_HIT | READ_MISS | READ_SLOW_HIT | READ_VICTIM_HIT) {
            return Err(CodecError::Invalid("store in the instruction-fetch half"));
        }
        if k & HALF_PID != 0 {
            let pid = Pid(u16::from_le_bytes(self.array()?));
            if pid == self.pid {
                return Err(CodecError::Invalid("pid flag without a change"));
            }
            self.pid = pid;
        }
        let wide = k & HALF_WIDE != 0;
        let addr = self.word(wide)?;
        let victim = if k & HALF_VICTIM != 0 {
            if !matches!(kind, READ_MISS | WRITE_MISS_ALLOCATE) {
                return Err(CodecError::Invalid(
                    "victim on an access that fills nothing",
                ));
            }
            let shift = if ifetch {
                self.shape.ifetch
            } else {
                self.shape.data
            }
            .block_shift;
            let block = self.word(wide)?;
            if block > u64::MAX >> shift {
                return Err(CodecError::Invalid("victim block number"));
            }
            Some(block)
        } else {
            None
        };
        if wide && addr <= u32::MAX as u64 && victim.is_none_or(|v| v <= u32::MAX as u64) {
            return Err(CodecError::Invalid("wide flag on narrow addresses"));
        }
        let walk = k & HALF_WALK != 0;
        if walk && self.shape.walk == 0 {
            return Err(CodecError::Invalid("walk flag without a walk"));
        }
        Ok(Half {
            kind,
            walk,
            pid: self.pid,
            addr,
            victim,
        })
    }
}

/// Checks that `bytes` opens with a stream of exactly `ops` ops under
/// `org`; returns its length in bytes. Allocates nothing.
///
/// # Errors
///
/// [`CodecError`] on truncation or on any byte [`OpWriter`] would not
/// have written.
pub(crate) fn validate(bytes: &[u8], org: &OrgConfig, ops: u64) -> Result<usize, CodecError> {
    let mut r = OpReader::new(bytes, org);
    for _ in 0..ops {
        r.op()?;
    }
    Ok(r.pos)
}

/// The ops of an [`EventTrace`](crate::EventTrace), decoded one at a time
/// from its stream. Returned by [`EventTrace::ops`](crate::EventTrace::ops).
#[derive(Debug, Clone)]
pub struct Ops<'a> {
    reader: OpReader<'a>,
    remaining: usize,
}

impl<'a> Ops<'a> {
    /// Iterates a stream of `ops` ops that [`OpWriter`] wrote or
    /// [`validate`] accepted under `org`.
    pub(crate) fn new(bytes: &'a [u8], ops: usize, org: &OrgConfig) -> Self {
        Ops {
            reader: OpReader::new(bytes, org),
            remaining: ops,
        }
    }
}

impl Iterator for Ops<'_> {
    type Item = EventOp;

    fn next(&mut self) -> Option<EventOp> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let op = self.reader.next_valid();
        Some(self.reader.shape.event_op(op))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Ops<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemConfig;

    fn org() -> OrgConfig {
        SystemConfig::paper_default().unwrap().organization()
    }

    #[test]
    fn counts_use_the_shortest_leb128_form() {
        for n in [1u32, 0x7f, 0x80, 0x3fff, 0x4000, u32::MAX] {
            let mut bytes = vec![TAG_HIT_RUN | 1 << 2];
            put_count(&mut bytes, n);
            let mut ops = Ops::new(&bytes, 1, &org());
            let mut counts = [0u32; CoupletClass::COUNT];
            counts[0] = n;
            assert_eq!(ops.next(), Some(EventOp::HitRun { counts }));
            assert_eq!(validate(&bytes, &org(), 1), Ok(bytes.len()));
        }
        // 1 written with a redundant continuation byte.
        assert!(validate(&[TAG_HIT_RUN | 1 << 2, 0x81, 0x00], &org(), 1).is_err());
        // 2^32 does not fit a count.
        assert!(validate(
            &[TAG_HIT_RUN | 1 << 2, 0x80, 0x80, 0x80, 0x80, 0x10],
            &org(),
            1
        )
        .is_err());
    }

    #[test]
    fn a_half_is_six_bytes_when_nothing_changes() {
        let shape = Shape::of(&org());
        let mut w = OpWriter::new(shape, 0);
        let miss = |addr: u64, pid: u16| RefEvent {
            addr: WordAddr::new(addr),
            pid: Pid(pid),
            walk_cycles: 0,
            access: AccessEvent::ReadMiss {
                fetch_start: WordAddr::new(addr & !3),
                fill_words: 4,
                victim: None,
            },
        };
        w.push(&EventOp::Couplet {
            iref: None,
            dref: Some(miss(0x1235, 7)),
        });
        let with_pid = w.bytes.len();
        w.push(&EventOp::Couplet {
            iref: None,
            dref: Some(miss(0x5678, 7)),
        });
        assert_eq!(with_pid, 1 + 1 + 2 + 4);
        assert_eq!(w.bytes.len() - with_pid, 1 + 1 + 4);
        let (bytes, n) = w.finish();
        assert_eq!(validate(&bytes, &org(), n as u64), Ok(bytes.len()));
    }

    #[test]
    fn the_fast_reader_agrees_with_the_checked_one() {
        use cachetime_trace::{catalog, Trace};
        use cachetime_types::MemRef;
        let mu3 = catalog::mu3(0.01).generate();
        // Addresses past 32 bits exercise the wide halves.
        let wide: Vec<MemRef> = mu3
            .refs()
            .iter()
            .map(|r| MemRef::new(WordAddr::new(r.addr.value() + (1 << 40)), r.kind, r.pid))
            .collect();
        let wide = Trace::new("wide", wide, mu3.warm_start());
        // One long hit run: a count of several LEB128 bytes.
        let a = WordAddr::new(0x40);
        let hits = Trace::new("hits", vec![MemRef::load(a, Pid(1)); 100_000], 0);
        let mmu = SystemConfig::builder()
            .translation(cachetime_mmu::TranslationConfig::default())
            .build()
            .unwrap();
        let mut long_counts = 0;
        for (org, trace) in [
            (org(), &mu3),
            (org(), &wide),
            (org(), &hits),
            (mmu.organization(), &mu3),
        ] {
            let events = crate::BehavioralSim::new(&org).record(trace);
            let mut fast = OpReader::new(events.op_bytes(), &org);
            let mut checked = fast.clone();
            for _ in 0..events.ops().len() {
                let op = fast.next_valid();
                assert_eq!(Ok(op), checked.op());
                assert_eq!(fast.pos, checked.pos);
                if let Op::HitRun(counts) = op {
                    long_counts += counts.iter().filter(|&&n| n >= 0x80).count();
                }
            }
            assert_eq!(fast.pos, events.op_bytes().len());
        }
        assert!(long_counts > 0, "no multi-byte count exercised");
    }

    #[test]
    fn non_canonical_halves_are_rejected() {
        // A data-half read miss at address 1 under pid 0, written wide.
        let wide = [
            TAG_COUPLET | COUPLET_DATA,
            READ_MISS | HALF_WIDE,
            1,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
        ];
        assert_eq!(
            validate(&wide, &org(), 1),
            Err(CodecError::Invalid("wide flag on narrow addresses"))
        );
        // A pid "change" to the running pid.
        let pid = [
            TAG_COUPLET | COUPLET_DATA,
            READ_HIT | HALF_PID,
            0,
            0,
            1,
            0,
            0,
            0,
        ];
        assert_eq!(
            validate(&pid, &org(), 1),
            Err(CodecError::Invalid("pid flag without a change"))
        );
        // A walk in an organization without an MMU.
        let walk = [TAG_COUPLET | COUPLET_DATA, READ_HIT | HALF_WALK, 1, 0, 0, 0];
        assert_eq!(
            validate(&walk, &org(), 1),
            Err(CodecError::Invalid("walk flag without a walk"))
        );
        // A store in the instruction-fetch half.
        let store = [TAG_COUPLET | COUPLET_IFETCH, WRITE_HIT, 1, 0, 0, 0];
        assert!(validate(&store, &org(), 1).is_err());
    }
}
