//! Frame I/O backends for the dataplane runtime.
//!
//! [`FrameIo`] is the narrow waist between the runtime and the outside
//! world: batched receive, batched transmit. Two in-process backends
//! live here — [`PcapReplay`] (drive a recorded capture through
//! middleboxes at full speed, the workhorse of benchmarks and
//! sim-equivalence tests) and [`Loopback`] (an in-process pair for
//! wiring runtimes together in tests) — and the live-NIC
//! `AF_PACKET` backend is in [`crate::afpacket`] behind the
//! `af_packet` feature. All of them implement the same batched
//! rx/tx contract (see the trait docs), so per-frame syscall and
//! descriptor costs amortize identically whether the frames come from a
//! capture, a peer, or a wire.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::queue::ArrayQueue;
use rb_core::telemetry::counters;
use rb_fronthaul::pcap::{PcapReader, PcapWriter};

use crate::pool::{BufferPool, PooledBuf};

/// One raw Ethernet frame with its capture/ingress timestamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawFrame {
    /// Nanoseconds since capture epoch (pcap timestamp, or the ingress
    /// clock of a live backend).
    pub at_ns: u64,
    /// The frame bytes, starting at the Ethernet header. Pooled: dropping
    /// the frame (successful tx, ring shed) recycles the payload buffer.
    pub bytes: PooledBuf,
}

/// Result of one receive poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxPoll {
    /// This many frames were appended to the caller's buffer.
    Ready(usize),
    /// Nothing available right now; more may arrive later.
    Idle,
    /// The source is exhausted; no further frames will ever arrive.
    Eof,
}

/// A dataplane packet interface: the runtime pulls batches in with
/// `rx_batch` and pushes processed frames out with `tx_batch`. Those two
/// are all a backend implements. Implementations must be cheap to poll —
/// the runtime calls `rx_batch` in a tight loop — and `tx_batch` is where
/// a medium amortizes per-frame cost (one `sendmmsg`, one sink dispatch)
/// over the batch.
///
/// # The batched rx/tx contract
///
/// Every backend (and every wrapper that forwards to one) must satisfy
/// these rules; `crates/dataplane/tests/frameio_conformance.rs` runs
/// them against all in-tree implementations:
///
/// * **`rx_batch(out, max)` appends at most `max` frames to `out`** and
///   never touches frames already in `out`.
/// * **`max == 0` is a pure status poll.** It appends nothing, consumes
///   nothing, and returns [`RxPoll::Eof`] only if the source is already
///   exhausted — never as a side effect of the empty budget. A
///   non-exhausted source returns [`RxPoll::Idle`] (or `Ready(0)` is
///   forbidden: `Ready(n)` implies `n > 0`).
/// * **`Eof` is sticky.** Once `rx_batch` has returned `Eof`, every
///   later call returns `Eof` and appends nothing. `Eof` means "no
///   frame will ever arrive again", not "none right now" — live
///   backends report it only after an explicit shutdown.
/// * **A partial batch is a normal batch.** `Ready(n)` with `n < max`
///   carries no meaning beyond "n frames were appended"; callers must
///   not treat it as end-of-stream or back off.
/// * **`tx_batch` consumes the whole vector.** On return, `frames` is
///   empty: every frame was either transmitted or dropped (and its
///   pooled payload recycled). The return value is how many were
///   transmitted; the caller accounts `offered - sent` as transmit
///   errors. Backends that cannot attribute failures to individual
///   frames (fan-out wrappers) may return an aggregate count, but it
///   must never exceed `frames.len()` as offered.
/// * **Order within a batch is preserved** by transmit paths (impairment
///   wrappers that deliberately reorder are the documented exception).
pub trait FrameIo: Send {
    /// Append up to `max` frames to `out`. See the trait docs for the
    /// full contract (`max == 0`, partial batches, sticky `Eof`).
    fn rx_batch(&mut self, out: &mut Vec<RawFrame>, max: usize) -> RxPoll;

    /// Transmit every frame in `frames`, leaving the vector empty, and
    /// return how many were sent successfully (sink error, full lane and
    /// peer gone are the failures; the runtime counts them).
    fn tx_batch(&mut self, frames: &mut Vec<RawFrame>) -> usize;

    /// Transmit one frame: a batch of one through [`FrameIo::tx_batch`],
    /// `false` if it could not be sent. A convenience for tests and
    /// harnesses that preload a peer; it allocates the one-element batch,
    /// so the runtime never calls it and no backend overrides it.
    fn tx(&mut self, frame: RawFrame) -> bool {
        self.tx_batch(&mut vec![frame]) == 1
    }
}

enum TxSink {
    /// Keep transmitted frames in memory (tests, equivalence checks).
    Memory(Vec<RawFrame>),
    /// Write them to a pcap stream.
    Writer(PcapWriter<BufWriter<File>>),
    /// Discard them, counting only.
    Discard(u64),
}

/// Replays a classic pcap capture as fast as the runtime can pull it, and
/// records whatever the middleboxes transmit.
pub struct PcapReplay<R: Read + Send> {
    src: PcapReader<R>,
    sink: TxSink,
    pool: BufferPool,
    read_errors: u64,
    exhausted: bool,
}

/// Spare ingress buffers a replay keeps; sized to cover every ring in a
/// many-worker runtime so steady state never allocates.
const REPLAY_POOL_SLOTS: usize = 8192;

/// A replay over an in-memory capture.
pub type MemReplay = PcapReplay<std::io::Cursor<Vec<u8>>>;

impl MemReplay {
    /// Replay a capture already in memory; transmitted frames are kept in
    /// memory for inspection via [`PcapReplay::take_tx`].
    pub fn from_bytes(capture: Vec<u8>) -> std::io::Result<MemReplay> {
        let src = PcapReader::new(std::io::Cursor::new(capture))?;
        Ok(PcapReplay {
            src,
            sink: TxSink::Memory(Vec::new()),
            pool: BufferPool::new(REPLAY_POOL_SLOTS),
            read_errors: 0,
            exhausted: false,
        })
    }
}

impl PcapReplay<BufReader<File>> {
    /// Replay a capture file. With `out` set, transmitted frames are
    /// written to that path as a pcap capture; without it they are
    /// discarded (pure throughput runs).
    pub fn open(path: &Path, out: Option<&Path>) -> std::io::Result<PcapReplay<BufReader<File>>> {
        let src = PcapReader::new(BufReader::new(File::open(path)?))?;
        let sink = match out {
            Some(p) => TxSink::Writer(PcapWriter::new(BufWriter::new(File::create(p)?))?),
            None => TxSink::Discard(0),
        };
        Ok(PcapReplay {
            src,
            sink,
            pool: BufferPool::new(REPLAY_POOL_SLOTS),
            read_errors: 0,
            exhausted: false,
        })
    }
}

impl<R: Read + Send> PcapReplay<R> {
    /// Times the ingress pool had to allocate because no recycled buffer
    /// was free.
    pub fn pool_grows(&self) -> u64 {
        self.pool.grows()
    }

    /// Frames transmitted so far (all sinks count).
    pub fn tx_frames(&self) -> u64 {
        match &self.sink {
            TxSink::Memory(v) => v.len() as u64,
            TxSink::Writer(w) => w.frames(),
            TxSink::Discard(n) => *n,
        }
    }

    /// Malformed records skipped while reading the capture.
    pub fn read_errors(&self) -> u64 {
        self.read_errors
    }

    /// Take the transmitted frames accumulated by a memory sink (empty
    /// for file/discard sinks).
    pub fn take_tx(&mut self) -> Vec<RawFrame> {
        match &mut self.sink {
            TxSink::Memory(v) => std::mem::take(v),
            _ => Vec::new(),
        }
    }

    /// Flush a file-backed sink. Memory/discard sinks are no-ops.
    pub fn finish(self) -> std::io::Result<()> {
        if let TxSink::Writer(w) = self.sink {
            w.finish()?;
        }
        Ok(())
    }
}

impl<R: Read + Send> FrameIo for PcapReplay<R> {
    fn rx_batch(&mut self, out: &mut Vec<RawFrame>, max: usize) -> RxPoll {
        if self.exhausted {
            return RxPoll::Eof;
        }
        let mut n = 0;
        while n < max {
            let mut buf = self.pool.take();
            match self.src.next_frame_into(buf.vec_mut()) {
                Ok(Some(at_ns)) => {
                    out.push(RawFrame { at_ns, bytes: buf });
                    n += 1;
                }
                Ok(None) => {
                    self.exhausted = true;
                    break;
                }
                Err(_) => {
                    // A damaged record poisons the rest of the stream
                    // (record framing is lost); stop here but keep what
                    // was already read.
                    self.read_errors += 1;
                    self.exhausted = true;
                    break;
                }
            }
        }
        if n > 0 {
            RxPoll::Ready(n)
        } else if self.exhausted {
            RxPoll::Eof
        } else {
            // `max == 0`: the read loop never ran, so nothing is known
            // about the source — a status poll on a live replay is Idle,
            // not Eof (the bug the conformance suite pins).
            RxPoll::Idle
        }
    }

    fn tx_batch(&mut self, frames: &mut Vec<RawFrame>) -> usize {
        // One sink dispatch per batch.
        match &mut self.sink {
            TxSink::Memory(v) => {
                let sent = frames.len();
                v.append(frames);
                sent
            }
            TxSink::Writer(w) => {
                let mut sent = 0usize;
                for f in frames.drain(..) {
                    if w.write_frame(f.at_ns, &f.bytes).is_ok() {
                        sent = sent.saturating_add(1);
                    }
                }
                sent
            }
            TxSink::Discard(n) => {
                let sent = frames.len();
                *n = n.saturating_add(counters::as_count(sent));
                frames.clear();
                sent
            }
        }
    }
}

struct LoopbackLane {
    q: ArrayQueue<RawFrame>,
    closed: AtomicBool,
    overflowed: AtomicU64,
}

impl LoopbackLane {
    fn new(capacity: usize) -> Arc<LoopbackLane> {
        Arc::new(LoopbackLane {
            q: ArrayQueue::new(capacity.max(1)),
            closed: AtomicBool::new(false),
            overflowed: AtomicU64::new(0),
        })
    }
}

/// One endpoint of an in-process cross-connected pair: what one side
/// transmits, the other receives. Dropping an endpoint signals EOF to its
/// peer once the lane drains.
pub struct Loopback {
    rx: Arc<LoopbackLane>,
    tx: Arc<LoopbackLane>,
}

impl Loopback {
    /// Create a connected pair with `capacity` frames of buffering per
    /// direction.
    pub fn pair(capacity: usize) -> (Loopback, Loopback) {
        let ab = LoopbackLane::new(capacity);
        let ba = LoopbackLane::new(capacity);
        (Loopback { rx: Arc::clone(&ba), tx: Arc::clone(&ab) }, Loopback { rx: ab, tx: ba })
    }

    /// Frames the peer failed to deliver to us because our lane was full.
    pub fn overflowed(&self) -> u64 {
        self.rx.overflowed.load(Ordering::Relaxed)
    }
}

impl Drop for Loopback {
    fn drop(&mut self) {
        self.tx.closed.store(true, Ordering::Release);
        self.rx.closed.store(true, Ordering::Release);
    }
}

impl FrameIo for Loopback {
    fn rx_batch(&mut self, out: &mut Vec<RawFrame>, max: usize) -> RxPoll {
        let mut n = 0;
        while n < max {
            match self.rx.q.pop() {
                Some(f) => {
                    out.push(f);
                    n += 1;
                }
                None => break,
            }
        }
        if n > 0 {
            RxPoll::Ready(n)
        } else if self.rx.closed.load(Ordering::Acquire) && self.rx.q.is_empty() {
            RxPoll::Eof
        } else {
            RxPoll::Idle
        }
    }

    fn tx_batch(&mut self, frames: &mut Vec<RawFrame>) -> usize {
        // One closed-flag Acquire load per batch, then straight pushes.
        if self.tx.closed.load(Ordering::Acquire) {
            frames.clear();
            return 0;
        }
        let mut sent = 0usize;
        let mut shed = 0u64;
        for f in frames.drain(..) {
            if self.tx.q.push(f).is_err() {
                // Peer is not draining: shed at the transmitter, never block.
                shed = shed.saturating_add(1);
            } else {
                sent = sent.saturating_add(1);
            }
        }
        if shed > 0 {
            self.tx.overflowed.fetch_add(shed, Ordering::Relaxed);
        }
        sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn capture(frames: &[(u64, Vec<u8>)]) -> Vec<u8> {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for (at, f) in frames {
            w.write_frame(*at, f).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn replay_pulls_batches_then_eof() {
        // Timestamps in whole µs: the pcap writer stores µs resolution.
        let cap =
            capture(&[(1_000, vec![1u8; 20]), (2_000, vec![2u8; 20]), (3_000, vec![3u8; 20])]);
        let mut io = MemReplay::from_bytes(cap).unwrap();
        let mut out = Vec::new();
        assert_eq!(io.rx_batch(&mut out, 2), RxPoll::Ready(2));
        assert_eq!(io.rx_batch(&mut out, 2), RxPoll::Ready(1));
        assert_eq!(io.rx_batch(&mut out, 2), RxPoll::Eof);
        assert_eq!(out.len(), 3);
        assert_eq!(out[2], RawFrame { at_ns: 3_000, bytes: vec![3u8; 20].into() });
    }

    #[test]
    fn replay_stops_at_damaged_record() {
        let mut cap = capture(&[(1, vec![1u8; 20])]);
        cap.truncate(cap.len() - 5); // cut into the frame data
        let mut io = MemReplay::from_bytes(cap).unwrap();
        let mut out = Vec::new();
        assert_eq!(io.rx_batch(&mut out, 8), RxPoll::Eof);
        assert_eq!(io.read_errors(), 1);
    }

    #[test]
    fn loopback_crosses_over() {
        let (mut a, mut b) = Loopback::pair(8);
        assert!(a.tx(RawFrame { at_ns: 1, bytes: vec![1].into() }));
        let mut out = Vec::new();
        assert_eq!(b.rx_batch(&mut out, 8), RxPoll::Ready(1));
        assert_eq!(out[0].bytes, vec![1]);
        assert_eq!(b.rx_batch(&mut out, 8), RxPoll::Idle);
        drop(a);
        assert_eq!(b.rx_batch(&mut out, 8), RxPoll::Eof);
    }

    #[test]
    fn replay_zero_budget_poll_is_idle_not_eof() {
        // Regression: a `max == 0` status poll used to report Eof on a
        // source that still had every frame left.
        let cap = capture(&[(1_000, vec![1u8; 20]), (2_000, vec![2u8; 20])]);
        let mut io = MemReplay::from_bytes(cap).unwrap();
        let mut out = Vec::new();
        assert_eq!(io.rx_batch(&mut out, 0), RxPoll::Idle);
        assert!(out.is_empty());
        // The poll consumed nothing: both frames are still there.
        assert_eq!(io.rx_batch(&mut out, 8), RxPoll::Ready(2));
        assert_eq!(io.rx_batch(&mut out, 8), RxPoll::Eof);
        // Post-Eof the zero-budget poll reports Eof, and Eof is sticky.
        assert_eq!(io.rx_batch(&mut out, 0), RxPoll::Eof);
        assert_eq!(io.rx_batch(&mut out, 8), RxPoll::Eof);
    }

    #[test]
    fn replay_tx_batch_drains_into_memory_sink() {
        let mut io = MemReplay::from_bytes(capture(&[])).unwrap();
        let mut frames: Vec<RawFrame> =
            (0..5u64).map(|k| RawFrame { at_ns: k, bytes: vec![k as u8; 16].into() }).collect();
        assert_eq!(io.tx_batch(&mut frames), 5);
        assert!(frames.is_empty(), "tx_batch consumes the whole vector");
        assert_eq!(io.tx_frames(), 5);
        let got = io.take_tx();
        assert_eq!(got.len(), 5);
        assert!(got.windows(2).all(|w| w[0].at_ns < w[1].at_ns), "order preserved");
        assert!(io.take_tx().is_empty(), "take_tx empties the sink");
    }

    #[test]
    fn replay_tx_batch_discard_counts() {
        // A file replay without an output path discards what it is sent.
        let path = std::env::temp_dir().join(format!("rb-io-discard-{}.pcap", std::process::id()));
        std::fs::write(&path, capture(&[])).unwrap();
        let mut io = PcapReplay::open(&path, None).unwrap();
        std::fs::remove_file(&path).unwrap();
        let mut frames: Vec<RawFrame> =
            (0..7u64).map(|k| RawFrame { at_ns: k, bytes: vec![1u8; 8].into() }).collect();
        assert_eq!(io.tx_batch(&mut frames), 7);
        assert_eq!(io.tx_frames(), 7);
    }

    #[test]
    fn loopback_tx_batch_partial_on_full_lane() {
        let (mut a, mut b) = Loopback::pair(3);
        let mut frames: Vec<RawFrame> =
            (0..5u64).map(|k| RawFrame { at_ns: k, bytes: vec![k as u8].into() }).collect();
        assert_eq!(a.tx_batch(&mut frames), 3, "lane holds 3, the rest shed");
        assert!(frames.is_empty());
        assert_eq!(b.overflowed(), 2);
        assert!(!a.tx(RawFrame { at_ns: 5, bytes: vec![5].into() }), "a batch of one sheds too");
        assert_eq!(b.overflowed(), 3);
        let mut out = Vec::new();
        assert_eq!(b.rx_batch(&mut out, 8), RxPoll::Ready(3));
        assert_eq!(out[0].bytes, vec![0]);
        assert_eq!(out[2].bytes, vec![2]);
    }

    #[test]
    fn loopback_tx_batch_to_closed_peer_sends_nothing() {
        let (mut a, b) = Loopback::pair(8);
        drop(b);
        let mut frames = vec![RawFrame { at_ns: 1, bytes: vec![1].into() }];
        assert_eq!(a.tx_batch(&mut frames), 0);
        assert!(frames.is_empty(), "frames are consumed (recycled), not leaked");
    }
}
