//! The bench-owned [`FrameIo`]: load generator on the receive side,
//! measuring sink on the transmit side.
//!
//! `Runtime::run` pulls input from `rx_batch` and pushes output into
//! `tx_batch` on the caller's thread, so one object sees both ends of the
//! program and can time the distance between them. Traffic crosses no
//! link: frames are copied from the working set into pooled buffers in
//! process memory, and transmitted frames are counted and dropped.
//!
//! Two load shapes:
//!
//! * **closed loop** ([`Pace::Closed`]) — a frame is released only while
//!   the bounded ingress pool has a free buffer, i.e. at most `window`
//!   input frames are inside the program; a slower program is offered
//!   less. Each call releases at most `batch / fan-out` frames so the
//!   collector, which drains one batch per call, keeps up with what the
//!   released frames can emit: with both limits neither ring can shed.
//! * **open loop** ([`Pace::Open`]) — every `period_ns` one symbol burst
//!   falls due on a wall-clock schedule that ignores progress, and every
//!   frame is stamped with its burst's due time; the sink measures
//!   `now − due` per output frame, so a stall is charged to every frame it
//!   delays (no coordinated omission). Due frames wait in the generator —
//!   as they would in a NIC's receive ring — while `window` input frames
//!   are inside the program, under the same two release limits as above:
//!   a stall of either thread becomes latency, never ring loss, which
//!   keeps the phase failure-free on a noisy host. At the paced rate the
//!   window is never reached, and the schedule alone decides.

use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::time::{Duration, Instant};

use rb_dataplane::io::{FrameIo, RawFrame, RxPoll};
use rb_dataplane::pool::BufferPool;

use crate::alloc::allocations;
use crate::stats::{LatencyHist, QuietCycle};
use crate::workload::{WorkingSet, SEQ_OFFSET};

/// When input frames are released.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// At most `window` frames in flight, at most `per_call` per poll.
    Closed {
        /// Ingress buffers (frames in flight).
        window: usize,
        /// Release cap per `rx_batch` call.
        per_call: usize,
    },
    /// One symbol burst falls due every `period_ns`, on a wall-clock
    /// schedule; due frames are released under the closed-loop limits.
    Open {
        /// Nanoseconds between burst due times.
        period_ns: u64,
        /// Ingress buffers (frames in flight).
        window: usize,
        /// Release cap per `rx_batch` call.
        per_call: usize,
    },
}

/// When the generator reports end of input.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many frames.
    Frames(u64),
    /// Once this much time has passed since [`Generator::start`].
    After(Duration),
}

/// What the sink does with transmitted frames (all of them count).
pub enum Sink {
    /// Count and drop.
    Discard,
    /// Record one hash per frame: the output multiset, for `verify`.
    Hashes(Vec<u64>),
    /// Record `now − at_ns` per frame, burst by burst.
    Latency(BurstLatency),
}

/// Latency samples of an open-loop run, kept two ways: every sample in one
/// histogram, and for each burst *position* of the cycle the median latency
/// of that burst's output frames, once per time the position came round.
///
/// At the paced rate the program is idle between bursts, so a burst's
/// latencies depend on that burst and the state of the host while it was
/// served, not on its predecessors; and the same position is the same
/// frames every time. That makes the burst the piece of the paced phase's
/// quiet cycle (`stats::QuietCycle`).
pub struct BurstLatency {
    period_ns: u64,
    /// Bursts due before this are warm-up: in the histogram, not in the
    /// per-position medians.
    warm_ns: u64,
    /// Due time of the burst being collected, and its latencies so far.
    due_ns: u64,
    burst: Vec<u64>,
    /// Median latency (ns) of each burst, by position in the cycle.
    pub medians: QuietCycle,
    /// Every latency sample.
    pub all: LatencyHist,
}

impl BurstLatency {
    /// For a schedule of one burst every `period_ns`, cycling through
    /// `positions` bursts; bursts due in the first `warm_ns` are warm-up.
    pub fn new(period_ns: u64, positions: usize, warm_ns: u64) -> BurstLatency {
        BurstLatency {
            period_ns: period_ns.max(1),
            warm_ns,
            due_ns: 0,
            burst: Vec::with_capacity(4096),
            medians: QuietCycle::new((0..positions.max(1)).map(|_| 1.0)),
            all: LatencyHist::new(),
        }
    }

    /// Add another run's samples (of the same schedule) to these.
    pub fn absorb(&mut self, other: &BurstLatency) {
        self.medians.absorb(&other.medians);
        self.all.merge(&other.all);
    }

    #[inline]
    fn record(&mut self, due_ns: u64, latency_ns: u64) {
        // The frames of a burst share a due time, and one worker emits
        // bursts in the order it was given them.
        if due_ns != self.due_ns {
            self.close_burst();
            self.due_ns = due_ns;
        }
        self.burst.push(latency_ns);
        self.all.record(latency_ns);
    }

    /// File the collected burst's median under its position. The last
    /// burst of a run is never closed: its frames may not all be out.
    fn close_burst(&mut self) {
        let n = self.burst.len();
        if n > 0 && self.due_ns >= self.warm_ns {
            let (below, mid, _) = self.burst.select_nth_unstable(n / 2);
            let upper = *mid as f64;
            let median = match below.iter().max() {
                Some(&lower) if n.is_multiple_of(2) => (lower as f64 + upper) / 2.0,
                _ => upper,
            };
            let position = (self.due_ns / self.period_ns) as usize % self.medians.len();
            self.medians.record(position, median);
        }
        self.burst.clear();
    }
}

/// Hash of one output frame (SipHash with fixed keys: stable per build).
pub fn frame_hash(bytes: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    h.write(bytes);
    h.finish()
}

/// Walks a working set in cycle order, stamping each stream's next eCPRI
/// sequence number. Shared by every driver of a working set (generator,
/// reference run, service-time loop) so they all feed identical bytes.
#[derive(Debug, Clone)]
pub struct Replayer {
    pos: usize,
    seq: Vec<u8>,
}

impl Replayer {
    /// Start at the first frame of the cycle with every stream at 0.
    pub fn new(ws: &WorkingSet) -> Replayer {
        Replayer { pos: 0, seq: vec![0; ws.streams] }
    }

    /// Index in the cycle of the frame the next call returns.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn advance(&mut self, ws: &WorkingSet) -> (usize, u8) {
        let idx = self.pos;
        let seq = &mut self.seq[ws.frames[idx].stream as usize];
        let stamp = *seq;
        *seq = seq.wrapping_add(1);
        self.pos = if idx + 1 == ws.frames.len() { 0 } else { idx + 1 };
        (idx, stamp)
    }

    /// Copy the next frame into `out` (cleared first), stamped; returns
    /// its index in the cycle. What the generator's `rx_batch` does.
    #[inline]
    pub fn next_into(&mut self, ws: &WorkingSet, out: &mut Vec<u8>) -> usize {
        let (idx, stamp) = self.advance(ws);
        out.clear();
        out.extend_from_slice(&ws.frames[idx].bytes);
        out[SEQ_OFFSET] = stamp;
        idx
    }

    /// Stamp the next frame where it lies and return its index: the
    /// single-threaded loops process frames straight from the working
    /// set, so no copy sits inside their timed region.
    #[inline]
    pub fn next_in_place(&mut self, ws: &mut WorkingSet) -> usize {
        let (idx, stamp) = self.advance(ws);
        ws.frames[idx].bytes[SEQ_OFFSET] = stamp;
        idx
    }
}

/// Progress of a closed-loop run at the moment the caller saw the
/// program finish a piece of the cycle (see [`Generator::with_pieces`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    /// Nanoseconds since [`Generator::start`].
    pub ns: u64,
    /// Input frames released to the program.
    pub released: u64,
    /// Input frames the program has finished with.
    pub completed: u64,
    /// Process-wide heap allocations so far (0 without the counting
    /// allocator).
    pub allocs: u64,
    /// How many piece ends have been passed since the start; piece ends
    /// are numbered on through the cycles.
    pub boundary: u64,
    /// Nanoseconds since the caller last looked: how late `ns` may be.
    /// `u64::MAX` when several pieces ended between two looks.
    pub gap_ns: u64,
}

/// Open-loop release state.
struct Schedule {
    period_ns: u64,
    /// Index of the next burst of the cycle to fall due.
    burst: usize,
    /// Due time of that burst.
    next_due_ns: u64,
    /// Frames of the burst being released that are still to go, and its
    /// due time.
    remaining: usize,
    due_ns: u64,
}

/// The generator and sink. See the module docs.
pub struct Generator<'a> {
    replay: Replayer,
    ws: &'a WorkingSet,
    pool: BufferPool,
    pace: Pace,
    schedule: Option<Schedule>,
    stop: Stop,
    epoch: Instant,
    eof: bool,
    /// Input frames released so far.
    pub released: u64,
    /// Output frames received by `tx_batch`/`tx` so far.
    pub transmitted: u64,
    /// Frames whose burst fell due but that were never released because
    /// the schedule overran its grace period (open loop only).
    pub never_offered: u64,
    /// One entry per piece of the cycle the program finished (closed loop
    /// only): per-piece time and allocation rate come from differences of
    /// consecutive entries.
    pub checkpoints: Vec<Checkpoint>,
    /// For every piece of the cycle, the index one past its last frame.
    piece_ends: Vec<usize>,
    /// The piece being completed, and the frames of the cycles before it.
    piece: usize,
    cycles_done: u64,
    boundary: u64,
    last_poll_ns: u64,
    /// Release time minus due time per released frame (open loop only).
    pub lateness: LatencyHist,
    /// The sink.
    pub sink: Sink,
}

/// How long past its planned end an open-loop phase may run to release
/// overdue bursts before the rest are written off as never offered.
const OVERRUN_GRACE: Duration = Duration::from_secs(2);

impl<'a> Generator<'a> {
    /// A generator over `ws`. The ingress pool is filled here, so the
    /// timed region starts with every buffer free and allocates none.
    pub fn new(ws: &'a WorkingSet, pace: Pace, stop: Stop, sink: Sink) -> Generator<'a> {
        let (Pace::Closed { window, .. } | Pace::Open { window, .. }) = pace;
        let slots = window.max(1);
        let pool = BufferPool::new(slots);
        let largest = ws.frames.iter().map(|f| f.bytes.len()).max().unwrap_or(0);
        let warm: Vec<_> = (0..slots)
            .map(|_| {
                let mut b = pool.take();
                b.vec_mut().reserve_exact(largest);
                b
            })
            .collect();
        drop(warm); // every buffer returns to the free list, grown
        let schedule = match pace {
            Pace::Open { period_ns, .. } => Some(Schedule {
                period_ns: period_ns.max(1),
                burst: 0,
                next_due_ns: 0,
                remaining: 0,
                due_ns: 0,
            }),
            Pace::Closed { .. } => None,
        };
        Generator {
            replay: Replayer::new(ws),
            ws,
            pool,
            pace,
            schedule,
            stop,
            epoch: Instant::now(),
            eof: false,
            released: 0,
            transmitted: 0,
            never_offered: 0,
            checkpoints: Vec::with_capacity(8_192),
            piece_ends: vec![ws.frames.len()],
            piece: 0,
            cycles_done: 0,
            boundary: 0,
            last_poll_ns: 0,
            lateness: LatencyHist::new(),
            sink,
        }
    }

    /// Record a checkpoint whenever the program has finished the frames up
    /// to one of `ends` (`WorkingSet::pieces`; by default the whole cycle
    /// is one piece).
    pub fn with_pieces(mut self, ends: Vec<usize>) -> Generator<'a> {
        assert_eq!(ends.last(), Some(&self.ws.frames.len()), "pieces cover the cycle");
        self.piece_ends = ends;
        self
    }

    /// Restart the clock: time 0 of the schedule and of `Stop::After`.
    /// Call immediately before handing the generator to `Runtime::run`.
    pub fn start(&mut self) {
        self.epoch = Instant::now();
        self.checkpoints.clear();
        self.checkpoints.push(Checkpoint {
            ns: 0,
            released: 0,
            completed: 0,
            allocs: allocations(),
            boundary: 0,
            gap_ns: 0,
        });
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn release(&mut self, at_ns: u64, out: &mut Vec<RawFrame>) {
        let mut buf = self.pool.take();
        self.replay.next_into(self.ws, buf.vec_mut());
        out.push(RawFrame { at_ns, bytes: buf });
        self.released += 1;
    }

    fn rx_closed(
        &mut self,
        out: &mut Vec<RawFrame>,
        max: usize,
        window: usize,
        per_call: usize,
    ) -> RxPoll {
        let now = self.now_ns();
        let free = self.pool.available();
        // A frame is complete when the worker has dropped it, which
        // returns its buffer: in flight = window − free.
        let in_flight = (window - free.min(window)) as u64;
        let completed = self.released - in_flight.min(self.released);
        let mut passed = 0;
        while completed >= self.cycles_done + self.piece_ends[self.piece] as u64 {
            passed += 1;
            self.piece += 1;
            if self.piece == self.piece_ends.len() {
                self.piece = 0;
                self.cycles_done += self.ws.frames.len() as u64;
            }
        }
        if passed > 0 {
            self.boundary += passed;
            self.checkpoints.push(Checkpoint {
                ns: now,
                released: self.released,
                completed,
                allocs: allocations(),
                boundary: self.boundary,
                gap_ns: if passed == 1 { now - self.last_poll_ns } else { u64::MAX },
            });
        }
        self.last_poll_ns = now;
        let budget = match self.stop {
            Stop::Frames(n) => n.saturating_sub(self.released),
            Stop::After(d) => {
                if now >= d.as_nanos() as u64 {
                    0
                } else {
                    u64::MAX
                }
            }
        };
        if budget == 0 {
            self.eof = true;
            return RxPoll::Eof;
        }
        let n = max.min(per_call).min(free).min(usize::try_from(budget).unwrap_or(usize::MAX));
        for _ in 0..n {
            self.release(now, out);
        }
        if n > 0 {
            RxPoll::Ready(n)
        } else {
            RxPoll::Idle
        }
    }

    fn rx_open(&mut self, out: &mut Vec<RawFrame>, max: usize, per_call: usize) -> RxPoll {
        let now = self.now_ns();
        let Stop::After(total) = self.stop else {
            panic!("an open-loop generator stops on time");
        };
        let end_ns = total.as_nanos() as u64;
        let s = self.schedule.as_mut().expect("open-loop state exists for Pace::Open");
        if s.remaining == 0 {
            if s.next_due_ns >= end_ns {
                self.eof = true;
                return RxPoll::Eof;
            }
            if now < s.next_due_ns {
                return RxPoll::Idle;
            }
            let start = if s.burst == 0 { 0 } else { self.ws.burst_ends[s.burst - 1] };
            debug_assert_eq!(start, self.replay.position());
            s.remaining = self.ws.burst_ends[s.burst] - start;
            s.due_ns = s.next_due_ns;
            s.next_due_ns += s.period_ns;
            s.burst = (s.burst + 1) % self.ws.burst_ends.len();
        }
        if now > end_ns + OVERRUN_GRACE.as_nanos() as u64 {
            // Hopelessly behind: write off everything still due.
            let bursts_left = (end_ns.saturating_sub(s.next_due_ns)).div_ceil(s.period_ns);
            let mean_burst = self.ws.frames.len() as u64 / self.ws.burst_ends.len() as u64;
            self.never_offered += s.remaining as u64 + bursts_left * mean_burst;
            self.eof = true;
            return RxPoll::Eof;
        }
        let n = max.min(per_call).min(s.remaining).min(self.pool.available());
        if n == 0 {
            return RxPoll::Idle; // window full: the due frames wait here
        }
        let due = s.due_ns;
        s.remaining -= n;
        let late = now.saturating_sub(due);
        for _ in 0..n {
            self.lateness.record(late);
            self.release(due, out);
        }
        RxPoll::Ready(n)
    }

    fn sink_one(&mut self, now_ns: u64, frame: &RawFrame) {
        match &mut self.sink {
            Sink::Discard => {}
            Sink::Hashes(h) => h.push(frame_hash(&frame.bytes)),
            Sink::Latency(w) => w.record(frame.at_ns, now_ns.saturating_sub(frame.at_ns)),
        }
    }
}

impl FrameIo for Generator<'_> {
    fn rx_batch(&mut self, out: &mut Vec<RawFrame>, max: usize) -> RxPoll {
        if self.eof {
            return RxPoll::Eof;
        }
        if max == 0 {
            // A status poll consumes nothing and cannot end the stream.
            return RxPoll::Idle;
        }
        match self.pace {
            Pace::Closed { window, per_call } => self.rx_closed(out, max, window, per_call.max(1)),
            Pace::Open { per_call, .. } => self.rx_open(out, max, per_call.max(1)),
        }
    }

    fn tx(&mut self, frame: RawFrame) -> bool {
        let now = if matches!(self.sink, Sink::Latency(_)) { self.now_ns() } else { 0 };
        self.sink_one(now, &frame);
        self.transmitted += 1;
        true
    }

    fn tx_batch(&mut self, frames: &mut Vec<RawFrame>) -> usize {
        // One clock read per batch: the hand-off time of all its frames.
        let now = if matches!(self.sink, Sink::Latency(_)) { self.now_ns() } else { 0 };
        let sent = frames.len();
        for f in frames.drain(..) {
            self.sink_one(now, &f);
        }
        self.transmitted += sent as u64;
        sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Kind, Size, Workload};

    fn closed(ws: &WorkingSet, frames: u64) -> Generator<'_> {
        Generator::new(
            ws,
            Pace::Closed { window: 8, per_call: 4 },
            Stop::Frames(frames),
            Sink::Discard,
        )
    }

    /// The `FrameIo` contract rules of `rb_dataplane::io`, against the
    /// closed-loop generator.
    #[test]
    fn closed_loop_obeys_the_frameio_contract() {
        let w = Workload::build(Kind::FwdSmall, 3, Size::Smoke);
        let mut g = closed(&w.ws, 10);
        g.start();
        let mut out = Vec::new();
        // max == 0 is a status poll: Idle, nothing consumed.
        assert_eq!(g.rx_batch(&mut out, 0), RxPoll::Idle);
        assert!(out.is_empty() && g.released == 0);
        // Ready(n) implies 0 < n <= max, and appends exactly n.
        assert_eq!(g.rx_batch(&mut out, 3), RxPoll::Ready(3));
        assert_eq!(out.len(), 3);
        // The per-call cap (4) and the window (8) both bound a poll.
        assert_eq!(g.rx_batch(&mut out, 32), RxPoll::Ready(4));
        assert_eq!(g.rx_batch(&mut out, 32), RxPoll::Ready(1));
        assert_eq!(out.len(), 8);
        // Window exhausted: Idle until a buffer comes back, never Ready(0).
        assert_eq!(g.rx_batch(&mut out, 32), RxPoll::Idle);
        // Frames already in `out` are never touched.
        let first = out[0].bytes.to_vec();
        out.truncate(1);
        assert_eq!(g.rx_batch(&mut out, 32), RxPoll::Ready(2), "10-frame budget: 8 + 2");
        assert_eq!(out[0].bytes.to_vec(), first);
        // Budget spent: Eof, and Eof is sticky (also for status polls).
        out.clear();
        assert_eq!(g.rx_batch(&mut out, 32), RxPoll::Eof);
        assert_eq!(g.rx_batch(&mut out, 32), RxPoll::Eof);
        assert_eq!(g.rx_batch(&mut out, 0), RxPoll::Eof);
        assert!(out.is_empty());
        assert_eq!(g.released, 10);
    }

    #[test]
    fn tx_batch_empties_the_vector_and_counts() {
        let w = Workload::build(Kind::FwdSmall, 3, Size::Smoke);
        let mut g = Generator::new(
            &w.ws,
            Pace::Closed { window: 8, per_call: 8 },
            Stop::Frames(8),
            Sink::Hashes(Vec::new()),
        );
        g.start();
        let mut frames = Vec::new();
        g.rx_batch(&mut frames, 8);
        let expect: Vec<u64> = frames.iter().map(|f| frame_hash(&f.bytes)).collect();
        assert_eq!(g.tx_batch(&mut frames), 8);
        assert!(frames.is_empty());
        assert!(g.tx(RawFrame { at_ns: 0, bytes: vec![1u8, 2, 3].into() }));
        assert_eq!(g.transmitted, 9);
        let Sink::Hashes(h) = &g.sink else { unreachable!() };
        assert_eq!(h[..8], expect[..]);
        // Dropping the frames returned their buffers: the window is free.
        assert_eq!(g.pool.available(), 8);
        assert_eq!(g.pool.grows(), 8, "only the up-front fill ever allocated");
    }

    #[test]
    fn replay_stamps_every_stream_seamlessly() {
        let w = Workload::build(Kind::DasUl, 3, Size::Smoke);
        let mut w = w;
        let mut r = Replayer::new(&w.ws);
        let mut last: Vec<Option<u8>> = vec![None; w.ws.streams];
        let mut buf = Vec::new();
        // Three cycles of 14 frames per stream cross the cycle seam
        // twice; run long enough to wrap the 8-bit counter too.
        for _ in 0..w.ws.frames.len() * 20 {
            // The copying and the in-place walk stamp alike.
            let mut twin = r.clone();
            let idx = r.next_into(&w.ws, &mut buf);
            assert_eq!(twin.next_in_place(&mut w.ws), idx);
            assert_eq!(w.ws.frames[idx].bytes, buf);
            let f = &w.ws.frames[idx];
            let seq = buf[SEQ_OFFSET];
            if let Some(prev) = last[f.stream as usize] {
                assert_eq!(seq, prev.wrapping_add(1));
            }
            last[f.stream as usize] = Some(seq);
        }
    }

    /// The contract again, for the paced generator, plus its schedule:
    /// whole bursts, stamped with their due times, one period apart.
    #[test]
    fn open_loop_releases_bursts_on_schedule() {
        let w = Workload::build(Kind::FwdSmall, 3, Size::Smoke);
        let period = Duration::from_millis(2);
        let mut g = Generator::new(
            &w.ws,
            Pace::Open { period_ns: period.as_nanos() as u64, window: 128, per_call: 8 },
            Stop::After(period * 5),
            Sink::Discard,
        );
        g.start();
        let mut out = Vec::new();
        assert_eq!(g.rx_batch(&mut out, 0), RxPoll::Idle, "status poll");
        let mut idle_polls = 0u64;
        loop {
            match g.rx_batch(&mut out, 5) {
                RxPoll::Ready(n) => assert!(n > 0 && n <= 5),
                RxPoll::Idle => idle_polls += 1,
                RxPoll::Eof => break,
            }
        }
        assert_eq!(g.rx_batch(&mut out, 5), RxPoll::Eof, "sticky");
        assert!(idle_polls > 0, "between bursts the source is idle, not exhausted");
        // Five periods, a 16-frame burst due at the start of each.
        assert_eq!(out.len(), 5 * 16);
        for (k, f) in out.iter().enumerate() {
            assert_eq!(f.at_ns, (k / 16) as u64 * period.as_nanos() as u64);
        }
        assert_eq!(g.never_offered, 0);
        assert_eq!(g.lateness.count(), 80);
    }

    #[test]
    fn open_loop_holds_due_frames_while_the_window_is_full() {
        let w = Workload::build(Kind::FwdSmall, 3, Size::Smoke);
        let mut g = Generator::new(
            &w.ws,
            Pace::Open { period_ns: 1_000_000, window: 8, per_call: 32 },
            Stop::After(Duration::from_millis(1)),
            Sink::Discard,
        );
        g.start();
        let mut out = Vec::new();
        // The 16-frame burst due at 0: the window admits 8.
        assert_eq!(g.rx_batch(&mut out, 32), RxPoll::Ready(8));
        assert_eq!(g.rx_batch(&mut out, 32), RxPoll::Idle, "due, but held back: not lost");
        out.truncate(5); // the program finishes with three frames
        assert_eq!(g.rx_batch(&mut out, 32), RxPoll::Ready(3));
        out.clear();
        assert_eq!(g.rx_batch(&mut out, 32), RxPoll::Ready(5), "the rest of the burst");
        assert!(out.iter().all(|f| f.at_ns == 0), "still stamped with the burst's due time");
        assert_eq!(g.rx_batch(&mut out, 32), RxPoll::Eof);
        assert_eq!((g.released, g.never_offered), (16, 0));
    }

    #[test]
    fn burst_medians_are_filed_by_position_in_the_cycle() {
        // Two positions, a burst every 100 ns; the first burst is warm-up.
        let mut l = BurstLatency::new(100, 2, 100);
        for (due, lat) in [(0, 999), (100, 10), (100, 30), (100, 20), (200, 7), (200, 9)] {
            l.record(due, lat);
        }
        l.record(300, 40); // closes the burst due at 200; stays open itself
        assert_eq!(l.all.count(), 7, "every sample is in the histogram");
        assert_eq!(l.medians.repetitions(), (1, 1));
        // Position 1 (due 100): median of 10, 20, 30. Position 0 (due 200):
        // mean of the two middle values.
        assert_eq!(l.medians.total(0.0), Some(20.0 + 8.0));
    }

    #[test]
    fn checkpoints_mark_the_end_of_every_piece() {
        let w = Workload::build(Kind::FwdSmall, 3, Size::Smoke);
        let cycle = w.ws.frames.len();
        let ends = w.ws.pieces(|frames, _| frames >= cycle / 3);
        assert!(ends.len() >= 2 && ends.last() == Some(&cycle));
        let mut g = Generator::new(
            &w.ws,
            Pace::Closed { window: 8, per_call: 8 },
            Stop::Frames(2 * cycle as u64 + 8),
            Sink::Discard,
        )
        .with_pieces(ends.clone());
        g.start();
        let mut out = Vec::new();
        // The "program" finishes every frame before the next poll.
        while g.rx_batch(&mut out, 8) != RxPoll::Eof {
            out.clear();
        }
        let cps = &g.checkpoints;
        assert_eq!(cps.len(), 1 + 2 * ends.len(), "start, then one per piece end, two cycles");
        for (k, c) in cps.iter().enumerate() {
            assert_eq!(c.boundary, k as u64);
            assert_ne!(c.gap_ns, u64::MAX, "one piece at a time");
        }
        // A checkpoint is taken at the first poll that sees the piece
        // done: within one poll's frames of its end.
        for (c, &end) in cps[1..].iter().zip(ends.iter().chain(&ends)) {
            let in_cycle =
                c.completed as usize - if c.boundary > ends.len() as u64 { cycle } else { 0 };
            assert!((end..end + 8).contains(&in_cycle), "{in_cycle} vs {end}");
        }
    }
}
