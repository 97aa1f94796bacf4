//! The traced run: per-layer attribution, measured from outside.
//!
//! The program has no clock reads of its own (ROADMAP item 1 adds them
//! later), so this module re-drives a workload's frames on the caller's
//! thread through a **hand-assembled copy of the worker path**, built only
//! from public functions, and puts a span around each call:
//!
//! ```text
//! rx_batch ─ flow_key ─ ring_in ─ process ──────────── collect ─ tx_batch
//!                                 ├ pool_copy  (inside, per emitted frame)
//!                                 ├ ring_out   (inside, per emitted frame)
//!                                 ├ parse      ┐ measured on a shadow
//!                                 ├ handler    │ instance fed the same
//!                                 └ serialize  ┘ frames, in a second pass
//! ```
//!
//! `pool_copy` and `ring_out` run inside `process` (they are the worker's
//! emit callback) and nest in time. `parse`, `handler` and `serialize` are
//! what `process` does internally; they cannot be timed inside it from
//! outside, so once the path pass has ended a shadow `MsgRecycler` +
//! middlebox + serialize buffer is fed the identical frame sequence, and
//! its spans are recorded as children of each frame's `process` span
//! (they follow it in time rather than nest in it). Running the shadow as
//! a pass of its own, not interleaved, keeps each instance's state as warm
//! as the real pipeline's is. What `process` does beyond the three — MAC
//! filter, sequence maps, rule cache, recycling — is `core.glue_ns`, by
//! subtraction.
//!
//! Spans stay in memory until the pass ends. A span's measured length
//! includes one clock read; every mean reported from spans is net of
//! `harness.clock_ns`.

use std::hint::black_box;
use std::time::Instant;

use rb_core::cache::{CacheKey, Plane, SymbolCache};
use rb_core::middlebox::{MbContext, Middlebox};
use rb_core::telemetry::TelemetrySender;
use rb_dataplane::dispatch::{flow_key, shard};
use rb_dataplane::io::{FrameIo, RawFrame, RxPoll};
use rb_dataplane::pool::BufferPool;
use rb_dataplane::ring::ring;
use rb_fronthaul::bfp;
use rb_fronthaul::iq::Prb;
use rb_fronthaul::msg::{Body, FhMessage, MsgRecycler};
use rb_fronthaul::Direction;
use rb_netsim::time::SimTime;

use crate::gen::{Generator, Pace, Replayer, Sink, Stop};
use crate::host;
use crate::phases::{pipeline, BATCH};
use crate::stats::{median, quiet_cost};
use crate::workload::{Workload, MAPPING, RING_CAPACITY};

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Which call (see the module diagram).
    pub name: &'static str,
    /// Start, nanoseconds since the pass began.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
    /// Index of the span that caused this one (`process` for its five
    /// children), `None` for the stages of the path itself.
    pub parent: Option<u32>,
    /// The input frame this work was for; batch calls (`rx_batch`,
    /// `collect`, `tx_batch`) carry the first frame of their batch.
    pub frame_id: u32,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The spans of one traced pass, in the order they ended — except
/// `process`, which is listed where it started, ahead of its children.
#[derive(Debug, Default)]
pub struct Trace {
    /// The spans; `Span::parent` indexes this vector.
    pub spans: Vec<Span>,
}

impl Trace {
    /// Write one JSON object per line:
    /// `{"id":7,"name":"parse","start_ns":…,"end_ns":…,"parent":4,"frame_id":0}`.
    pub fn write_jsonl(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"frame_id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.frame_id
            )?;
        }
        Ok(())
    }
}

/// What the traced run hands back.
pub struct Traced {
    /// The spans.
    pub trace: Trace,
    /// Per-layer metrics computed from them and from the layer loops.
    pub metrics: Vec<(&'static str, f64)>,
    /// Remarks for the report.
    pub notes: Vec<String>,
}

/// Records spans, or does nothing at all when disabled — the same path
/// function runs both ways, and the difference is the tracing overhead.
struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that is off until [`Recorder::enable`].
    fn with_capacity(capacity: usize) -> Recorder {
        Recorder { enabled: false, epoch: Instant::now(), spans: Vec::with_capacity(capacity) }
    }

    /// Start recording; time 0 is now.
    fn enable(&mut self) {
        self.enabled = true;
        self.epoch = Instant::now();
    }

    #[inline]
    fn now(&self) -> u64 {
        if self.enabled {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Close a span that started at `start_ns`.
    #[inline]
    fn span(&mut self, name: &'static str, start_ns: u64, parent: Option<u32>, frame_id: u32) {
        if self.enabled {
            let end_ns = self.epoch.elapsed().as_nanos() as u64;
            self.spans.push(Span { name, start_ns, end_ns, parent, frame_id });
        }
    }

    /// Open a span whose children will be recorded before it ends.
    #[inline]
    fn open(&mut self, name: &'static str, frame_id: u32) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent: None, frame_id });
        Some(idx)
    }

    #[inline]
    fn close(&mut self, idx: Option<u32>) {
        if let Some(i) = idx {
            self.spans[i as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }
}

/// What one pass over the assembled path measured.
struct Pass {
    spans: Vec<Span>,
    /// Wall nanoseconds of the measured frames.
    wall_ns: u64,
    /// `(class, frames emitted)` of every measured frame, by frame id.
    frames: Vec<(u8, u32)>,
}

/// Drive `warm + measured` frames through the hand-assembled worker
/// path, recording (if `record`) the last `measured`.
fn assembled_path<M: Middlebox>(
    wl: &Workload,
    make: &impl Fn(&Workload) -> M,
    warm: u64,
    measured: u64,
    record: bool,
) -> Pass {
    let cap = RING_CAPACITY;
    let (in_tx, in_rx) = ring::<RawFrame>(cap);
    let (out_tx, out_rx) = ring::<RawFrame>(cap);
    let egress = BufferPool::new(cap + BATCH);
    let mut gen = Generator::new(
        &wl.ws,
        Pace::Closed { window: wl.window(), per_call: BATCH },
        Stop::Frames(warm + measured),
        Sink::Discard,
    );
    let mut pipeline = pipeline(wl, make(wl));

    let mut rec = Recorder::with_capacity(if record { measured as usize * 12 } else { 0 });
    // Index of each measured frame's `process` span: the shadow pass's parent.
    let mut process_of: Vec<Option<u32>> = Vec::with_capacity(measured as usize);
    let mut frames: Vec<(u8, u32)> = Vec::with_capacity(measured as usize);
    let mut rx_buf: Vec<RawFrame> = Vec::with_capacity(BATCH);
    let mut one: Vec<RawFrame> = Vec::with_capacity(1);
    let mut tx_buf: Vec<RawFrame> = Vec::with_capacity(BATCH);
    let mut seen = 0u64;
    let mut cycle_pos = 0usize;
    let mut t_start = Instant::now();
    gen.start();
    loop {
        if seen == warm && frames.is_empty() {
            // Warm-up done (always at a batch boundary: see below).
            if record {
                rec.enable();
            }
            t_start = Instant::now();
        }
        let id0 = frames.len() as u32;
        rx_buf.clear();
        // Stop the warm-up batch exactly at the boundary.
        let max = if seen < warm { BATCH.min((warm - seen) as usize) } else { BATCH };
        let t = rec.now();
        let poll = gen.rx_batch(&mut rx_buf, max);
        match poll {
            RxPoll::Eof => break,
            // Single-threaded, every frame is dropped before the next
            // poll, so the window is never exhausted.
            RxPoll::Idle => unreachable!("closed-loop generator idle with an empty pipeline"),
            RxPoll::Ready(_) => rec.span("rx_batch", t, None, id0),
        }
        for f in rx_buf.drain(..) {
            let measuring = seen >= warm;
            seen += 1;
            let class = wl.ws.frames[cycle_pos].class;
            cycle_pos = if cycle_pos + 1 == wl.ws.frames.len() { 0 } else { cycle_pos + 1 };
            let id = frames.len() as u32;

            let t = rec.now();
            black_box(flow_key(&f.bytes).map_or(0, |k| shard(k, 1)));
            rec.span("flow_key", t, None, id);

            let t = rec.now();
            in_tx.push(f);
            one.clear();
            in_rx.pop_batch(&mut one, 1);
            rec.span("ring_in", t, None, id);
            let f = one.pop().expect("the frame just pushed");

            let at_ns = f.at_ns;
            let mut emitted = 0u32;
            let p = rec.open("process", id);
            pipeline.process(SimTime(at_ns), &f.bytes, &mut |bytes: &[u8]| {
                let t = rec.now();
                let mut out = egress.take();
                out.copy_from(bytes);
                rec.span("pool_copy", t, p, id);
                let t = rec.now();
                out_tx.push(RawFrame { at_ns, bytes: out });
                rec.span("ring_out", t, p, id);
                emitted += 1;
            });
            rec.close(p);

            if measuring {
                frames.push((class, emitted));
                process_of.push(p);
            }
            drop(f); // returns the ingress buffer, like the worker does
        }
        // The collector: drain the egress ring into the sink.
        loop {
            tx_buf.clear();
            let t = rec.now();
            let n = out_rx.pop_batch(&mut tx_buf, BATCH);
            if n == 0 {
                break;
            }
            rec.span("collect", t, None, id0);
            let t = rec.now();
            gen.tx_batch(&mut tx_buf);
            rec.span("tx_batch", t, None, id0);
        }
    }
    if record {
        shadow_pass(wl, make, warm, &process_of, &mut rec);
    }
    Pass { wall_ns: t_start.elapsed().as_nanos() as u64, spans: rec.spans, frames }
}

/// The second half of a traced pass: feed a shadow recycler, middlebox and
/// serialize buffer the frame sequence the path pass saw, timing the three
/// stages `process` is made of. Frame `k`'s spans name `process_of[k]` as
/// their parent; the `warm` frames before it are fed untimed, so the
/// shadow's state (symbol cache, per-stream maps) matches the pipeline's.
fn shadow_pass<M: Middlebox>(
    wl: &Workload,
    make: &impl Fn(&Workload) -> M,
    warm: u64,
    process_of: &[Option<u32>],
    rec: &mut Recorder,
) {
    let mut mb = make(wl);
    let mut cache = SymbolCache::new(4096);
    let telemetry = TelemetrySender::disconnected("shadow");
    let mut recycler = MsgRecycler::default();
    let mut emits: Vec<FhMessage> = Vec::new();
    let mut out: Vec<u8> = Vec::new();
    let mut charges = Vec::new();
    let mut replay = Replayer::new(&wl.ws);
    let mut frame: Vec<u8> = Vec::new();
    let was_enabled = rec.enabled;
    rec.enabled = false;
    for k in 0..warm + process_of.len() as u64 {
        let measuring = k >= warm;
        rec.enabled = was_enabled && measuring;
        let (id, parent) = if measuring {
            let id = (k - warm) as usize;
            (id as u32, process_of[id])
        } else {
            (0, None)
        };
        replay.next_into(&wl.ws, &mut frame);
        let t = rec.now();
        let parsed = recycler.parse(&frame, &MAPPING);
        rec.span("parse", t, parent, id);
        let Ok(msg) = parsed else { continue };
        emits.clear();
        let mut ctx = MbContext {
            now: SimTime(0),
            cache: &mut cache,
            telemetry: &telemetry,
            mapping: MAPPING,
            charges: std::mem::take(&mut charges),
        };
        let t = rec.now();
        mb.handle_into(&mut ctx, msg, &mut emits);
        rec.span("handler", t, parent, id);
        charges = ctx.charges;
        charges.clear();
        for m in emits.drain(..) {
            let t = rec.now();
            let _ = black_box(m.serialize_into(&MAPPING, &mut out));
            rec.span("serialize", t, parent, id);
            recycler.recycle(m);
        }
    }
    rec.enabled = was_enabled;
}

/// Segments a traced pass is cut into for its medians.
const SEGMENTS: usize = 10;

/// U-plane PRBs of up to `max_frames` frames of the working set.
fn sample_prbs(wl: &Workload, max_frames: usize) -> (Vec<Vec<u8>>, bfp::CompressionMethod) {
    let mut chunks = Vec::new();
    let mut method = bfp::CompressionMethod::BFP9;
    let mut taken = 0;
    for f in &wl.ws.frames {
        if taken == max_frames {
            break;
        }
        let Ok(msg) = FhMessage::parse(&f.bytes, &MAPPING) else { continue };
        let Body::UPlane(u) = &msg.body else { continue };
        taken += 1;
        for s in &u.sections {
            method = s.method;
            chunks.extend(s.payload.chunks_exact(s.method.prb_wire_bytes()).map(<[u8]>::to_vec));
        }
    }
    (chunks, method)
}

/// `fronthaul.bfp_{de,}compress_ns_per_prb`: the two kernels over the
/// workload's own PRBs, each timed in bulk (median of 9 passes).
fn bfp_ns_per_prb(wl: &Workload) -> (f64, f64) {
    let (chunks, method) = sample_prbs(wl, 32);
    if chunks.is_empty() {
        return (0.0, 0.0);
    }
    let mut prbs: Vec<Prb> = vec![Prb::ZERO; chunks.len()];
    let mut out = vec![0u8; method.prb_wire_bytes()];
    let (mut de, mut co) = (Vec::new(), Vec::new());
    for _ in 0..9 {
        let t0 = Instant::now();
        for (chunk, prb) in chunks.iter().zip(prbs.iter_mut()) {
            if let Ok((p, _, _)) = bfp::decompress_prb_wire(black_box(chunk), method) {
                *prb = p;
            }
        }
        de.push(t0.elapsed().as_nanos() as f64 / chunks.len() as f64);
        let t0 = Instant::now();
        for prb in &prbs {
            let _ = black_box(bfp::compress_prb_wire(black_box(prb), method, &mut out));
        }
        co.push(t0.elapsed().as_nanos() as f64 / prbs.len() as f64);
    }
    (median(&de), median(&co))
}

/// `core.cache_ns`: one `SymbolCache::insert` plus its share of the
/// `take` per uplink U-plane frame, keyed the way the DAS keys them.
fn cache_ns(wl: &Workload) -> f64 {
    let msgs: Vec<(CacheKey, FhMessage)> = wl
        .ws
        .frames
        .iter()
        .filter_map(|f| FhMessage::parse(&f.bytes, &MAPPING).ok())
        .filter_map(|m| {
            let u = m.as_uplane().filter(|u| u.direction == Direction::Uplink)?;
            let key = CacheKey {
                eaxc_raw: m.eaxc.pack(&MAPPING),
                direction: Direction::Uplink,
                plane: Plane::U,
                filter: u.filter_index,
                symbol: u.symbol,
            };
            Some((key, m))
        })
        .take(512)
        .collect();
    if msgs.is_empty() {
        return 0.0;
    }
    let mut passes = Vec::new();
    for _ in 0..9 {
        let mut cache = SymbolCache::new(4096);
        let batch = msgs.clone();
        let keys: Vec<CacheKey> = batch.iter().map(|(k, _)| *k).collect();
        let mut taken = Vec::with_capacity(batch.len());
        let t0 = Instant::now();
        for (k, m) in batch {
            cache.insert(k, m);
        }
        for k in &keys {
            taken.push(cache.take(k));
        }
        passes.push(t0.elapsed().as_nanos() as f64 / keys.len() as f64);
        drop(taken); // freeing the messages is the merge's cost, not the cache's
    }
    median(&passes)
}

/// The traced run of one workload: `frames` frames through the assembled
/// path untraced, then again traced, plus the layer loops.
pub fn run<M: Middlebox>(
    wl: &Workload,
    make: &impl Fn(&Workload) -> M,
    frames: u64,
    svc_mean_ns: f64,
) -> Traced {
    let warm = (wl.ws.frames.len() as u64).min(frames);
    let plain = assembled_path(wl, make, warm, frames, false);
    let traced = assembled_path(wl, make, warm, frames, true);
    let clock = host::clock_ns();
    let n = traced.frames.len().max(1);
    let spans = &traced.spans;

    // The pass is cut into SEGMENTS runs of consecutive frames and every
    // cost below is the quiet level over segments of the segment's mean
    // (ratios: the median): a descheduled thread inflates the one span it
    // hits a thousandfold, and spoils one segment instead of the result.
    let seg_of = |frame_id: u32| (frame_id as usize * SEGMENTS / n).min(SEGMENTS - 1);
    let mut seg_frames = [0.0f64; SEGMENTS];
    let mut seg_emitted = [0.0f64; SEGMENTS];
    for (id, &(_, e)) in traced.frames.iter().enumerate() {
        seg_frames[seg_of(id as u32)] += 1.0;
        seg_emitted[seg_of(id as u32)] += f64::from(e);
    }
    // Net nanoseconds (one clock read off per span) and span count, per
    // segment, of the spans `pick` selects.
    let sums = |pick: &dyn Fn(&Span) -> bool| -> [(f64, f64); SEGMENTS] {
        let mut acc = [(0.0, 0.0); SEGMENTS];
        for s in spans.iter().filter(|s| pick(s)) {
            let a = &mut acc[seg_of(s.frame_id)];
            a.0 += s.ns() as f64 - clock;
            a.1 += 1.0;
        }
        acc
    };
    let named = |name: &'static str| sums(&move |s: &Span| s.name == name);
    // Median over the segments that have a denominator of sum / denominator.
    let per = |acc: &[(f64, f64); SEGMENTS], denom: &dyn Fn(usize) -> f64| -> f64 {
        let means: Vec<f64> = (0..SEGMENTS)
            .filter(|&k| denom(k) > 0.0)
            .map(|k| (acc[k].0 / denom(k)).max(0.0))
            .collect();
        quiet_cost(&means)
    };
    let per_frame = |k: usize| seg_frames[k];
    let per_emit = |k: usize| seg_emitted[k];

    let (parse_acc, handler_acc, serialize_acc) =
        (named("parse"), named("handler"), named("serialize"));
    let parse = per(&parse_acc, &per_frame);
    let handler = per(&handler_acc, &per_frame);
    let serialize = per(&serialize_acc, &per_emit);
    let emits_per_frame = seg_emitted.iter().sum::<f64>() / n as f64;
    let mut metrics: Vec<(&'static str, f64)> = vec![
        ("fronthaul.parse_ns", parse),
        ("fronthaul.serialize_ns", serialize),
        ("apps.handler_ns", handler),
        ("core.glue_ns", svc_mean_ns - parse - handler - serialize * emits_per_frame),
        ("dataplane.rx_batch_ns", per(&named("rx_batch"), &per_frame)),
        ("dataplane.flow_key_ns", per(&named("flow_key"), &per_frame)),
        // One hop is a push and a pop; the egress hop is the same code.
        ("dataplane.ring_hop_ns", per(&named("ring_in"), &per_frame)),
        ("dataplane.tx_batch_ns", per(&named("tx_batch"), &per_emit)),
        ("dataplane.pool_copy_ns", per(&named("pool_copy"), &per_emit)),
    ];

    // Handler time by bucket; a bucket's mean is over its own spans.
    let names = wl.kind.bucket_names();
    for (b, name) in names.iter().enumerate() {
        let acc = sums(&|s: &Span| {
            s.name == "handler" && {
                let (class, e) = traced.frames[s.frame_id as usize];
                wl.kind.bucket(class, e as usize) == Some(b)
            }
        });
        metrics.push((*name, per(&acc, &|k| acc[k].1)));
    }
    // Buckets of the other workloads read 0 here: every run reports every
    // per-layer name.
    for other in crate::workload::Kind::ALL {
        for name in other.bucket_names().iter().filter(|n| !names.contains(n)) {
            metrics.push((*name, 0.0));
        }
    }

    // `process` self time per frame: the span minus the emit-callback
    // spans nested in it. Each of those cost one more clock read inside
    // `process` than its own length shows (the one that stamped its
    // start), which `sums` has not taken off.
    let process_acc = named("process");
    let inside_acc = sums(&|s: &Span| matches!(s.name, "pool_copy" | "ring_out"));
    let mut self_acc = [(0.0, 0.0); SEGMENTS];
    let mut stage_acc = [(0.0, 0.0); SEGMENTS];
    for k in 0..SEGMENTS {
        self_acc[k].0 = process_acc[k].0 - inside_acc[k].0 - 2.0 * clock * inside_acc[k].1;
        stage_acc[k].0 = parse_acc[k].0 + handler_acc[k].0 + serialize_acc[k].0;
    }
    let process_self = per(&self_acc, &per_frame);
    let ratios: Vec<f64> = (0..SEGMENTS)
        .filter(|&k| self_acc[k].0 > 0.0)
        .map(|k| stage_acc[k].0 / self_acc[k].0)
        .collect();
    metrics.push(("harness.stage_sum_ratio", median(&ratios)));
    metrics.push((
        "harness.trace_overhead_share",
        (traced.wall_ns as f64 - plain.wall_ns as f64) / plain.wall_ns.max(1) as f64,
    ));

    let (de, co) = bfp_ns_per_prb(wl);
    metrics.push(("fronthaul.bfp_decompress_ns_per_prb", de));
    metrics.push(("fronthaul.bfp_compress_ns_per_prb", co));
    metrics.push(("core.cache_ns", cache_ns(wl)));

    let notes = vec![format!(
        "trace: {} frames after {} of warm-up, {} spans; assembled path {:.0} ns/frame untraced, \
         {:.0} ns/frame traced with its shadow pass (single thread); process self time {:.0} \
         ns/frame vs svc_mean_ns {:.0}; quiet levels over {SEGMENTS} segments",
        traced.frames.len(),
        warm,
        spans.len(),
        plain.wall_ns as f64 / n as f64,
        traced.wall_ns as f64 / n as f64,
        process_self,
        svc_mean_ns,
    )];
    Traced { trace: Trace { spans: traced.spans }, metrics, notes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{self, Kind, Size};

    /// How many spans are called `name`.
    fn count(spans: &[Span], name: &str) -> u64 {
        spans.iter().filter(|s| s.name == name).count() as u64
    }

    #[test]
    fn spans_nest_and_account_for_every_frame() {
        let wl = Workload::build(Kind::DasUl, 5, Size::Smoke);
        let frames = 2 * wl.ws.frames.len() as u64;
        let pass = assembled_path(&wl, &|_| workload::das(), 16, frames, true);
        assert_eq!(pass.frames.len() as u64, frames);
        // One merge per four uplink frames, nothing during warm-up leaks in.
        let emitted: u32 = pass.frames.iter().map(|f| f.1).sum();
        assert_eq!(u64::from(emitted), frames / 4);
        for name in ["flow_key", "ring_in", "process", "parse", "handler"] {
            assert_eq!(count(&pass.spans, name), frames, "{name}");
        }
        for name in ["pool_copy", "ring_out", "serialize"] {
            assert_eq!(count(&pass.spans, name), u64::from(emitted), "{name}");
        }
        for s in &pass.spans {
            assert!(s.end_ns >= s.start_ns);
            if let Some(p) = s.parent {
                let parent = pass.spans[p as usize];
                assert_eq!(parent.name, "process");
                assert_eq!(parent.frame_id, s.frame_id);
                if matches!(s.name, "pool_copy" | "ring_out") {
                    assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
                } else {
                    assert!(s.start_ns >= parent.end_ns, "shadow children run after the call");
                }
            }
        }
        // The untraced pass records nothing and still does the work.
        let plain = assembled_path(&wl, &|_| workload::das(), 16, frames, false);
        assert!(plain.spans.is_empty());
        assert_eq!(plain.frames, pass.frames);
    }

    #[test]
    fn trace_file_is_one_json_object_per_line() {
        let wl = Workload::build(Kind::FwdSmall, 5, Size::Smoke);
        let pass = assembled_path(&wl, &|_| workload::passthrough(), 0, 64, true);
        let trace = Trace { spans: pass.spans };
        let mut file = Vec::new();
        trace.write_jsonl(&mut file).unwrap();
        let text = String::from_utf8(file).unwrap();
        assert_eq!(text.lines().count(), trace.spans.len());
        for (k, line) in text.lines().enumerate() {
            let v = crate::json::parse(line).unwrap();
            assert_eq!(v.get("id").and_then(|v| v.as_f64()), Some(k as f64));
            assert_eq!(v.get("name").and_then(|v| v.as_str()), Some(trace.spans[k].name));
        }
    }
}
