//! The Distributed Antenna System middlebox (paper §4.1, Figure 5a).
//!
//! One cell's signal is distributed across N RUs:
//!
//! * **Downlink** — every C-plane and U-plane packet from the DU is
//!   replicated to all DAS RUs (actions A1 + A2).
//! * **Uplink** — U-plane packets from the RUs are cached per
//!   (eAxC, symbol) (action A3); once all N RUs' packets for a symbol and
//!   antenna port have arrived, their IQ payloads are decompressed,
//!   summed element-wise per subcarrier, recompressed (action A4) and the
//!   merged packet is forwarded to the DU while the originals are dropped
//!   (action A1).
//!
//! Summing is interference-free because a single scheduler allocates
//! non-overlapping PRBs to all UEs under the DAS (paper §4.1).

use rb_core::actions;
use rb_core::cache::{CacheKey, Plane};
use rb_core::middlebox::{MbContext, Middlebox};
use rb_core::telemetry::counters;
use rb_fronthaul::ether::EthernetAddress;
use rb_fronthaul::msg::FhMessage;
use rb_fronthaul::timing::Numerology;
use rb_fronthaul::{Direction, Error, Result};
use rb_netsim::cost::{Work, XdpPlacement};

/// Default [`Das::with_merge_window`] horizon in symbols.
const DEFAULT_MERGE_WINDOW: u64 = 8;

/// Backward jump (in symbols) beyond which the clock is considered to
/// have wrapped the 256-frame hyperperiod rather than jittered.
const WRAP_GUARD: u64 = 64 * 14;

/// DAS middlebox configuration.
#[derive(Debug, Clone)]
pub struct DasConfig {
    /// The middlebox's own MAC (source of everything it emits).
    pub mb_mac: EthernetAddress,
    /// The DU being distributed.
    pub du_mac: EthernetAddress,
    /// The DAS radios.
    pub ru_macs: Vec<EthernetAddress>,
}

/// Aggregate DAS counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DasStats {
    /// Downlink packets replicated.
    pub dl_replicated: u64,
    /// Uplink packets cached.
    pub ul_cached: u64,
    /// Uplink merges performed.
    pub ul_merges: u64,
    /// Merges forced by the merge window with one or more RU streams
    /// missing (a subset of [`DasStats::ul_merges`]).
    pub ul_partial_merges: u64,
    /// Merges that failed (shape mismatch across RUs).
    pub merge_errors: u64,
    /// Packets from unknown sources, dropped.
    pub unknown_src: u64,
}

impl DasStats {
    /// Add `other`'s counters to `self`'s (several DAS instances summed
    /// into deployment totals).
    pub fn merge(&mut self, other: &DasStats) {
        // Exhaustive on purpose: a new counter that is not summed here is
        // a compile error, not a total that silently reads zero.
        let DasStats {
            dl_replicated,
            ul_cached,
            ul_merges,
            ul_partial_merges,
            merge_errors,
            unknown_src,
        } = *other;
        counters::bump_by(&mut self.dl_replicated, dl_replicated);
        counters::bump_by(&mut self.ul_cached, ul_cached);
        counters::bump_by(&mut self.ul_merges, ul_merges);
        counters::bump_by(&mut self.ul_partial_merges, ul_partial_merges);
        counters::bump_by(&mut self.merge_errors, merge_errors);
        counters::bump_by(&mut self.unknown_src, unknown_src);
    }
}

/// The DAS middlebox.
pub struct Das {
    name: String,
    cfg: DasConfig,
    /// Symbols a partially-populated uplink key may wait for its missing
    /// RUs before being merged as-is; `0` waits forever (the pre-chaos
    /// stall-on-loss behavior).
    merge_window: u64,
    /// Uplink keys still waiting for RUs: `(key, absolute symbol when
    /// first cached)`. Bounded by the merge window × active eAxC streams.
    pending: Vec<(CacheKey, u64)>,
    /// Counters.
    pub stats: DasStats,
}

impl Das {
    /// Build a DAS middlebox distributing `du` across `rus`.
    pub fn new(name: impl Into<String>, cfg: DasConfig) -> Das {
        assert!(!cfg.ru_macs.is_empty(), "DAS needs at least one RU");
        Das {
            name: name.into(),
            cfg,
            merge_window: DEFAULT_MERGE_WINDOW,
            pending: Vec::new(),
            stats: DasStats::default(),
        }
    }

    /// Change how many symbols an incomplete uplink key may wait for
    /// missing RU streams before a partial merge (`0` = wait forever).
    pub fn with_merge_window(mut self, symbols: u64) -> Das {
        self.merge_window = symbols;
        self
    }

    /// The configuration.
    pub fn config(&self) -> &DasConfig {
        &self.cfg
    }

    fn fan_out(&mut self, ctx: &mut MbContext<'_>, msg: FhMessage, out: &mut Vec<FhMessage>) {
        ctx.charge(Work::Replicate { copies: self.cfg.ru_macs.len() }, XdpPlacement::Userspace);
        counters::bump(&mut self.stats.dl_replicated);
        actions::replicate_into(msg, self.cfg.mb_mac, &self.cfg.ru_macs, out);
    }

    /// Merge the cached uplink packets (one per RU) for one key into a
    /// single packet towards the DU. The first cached packet becomes the
    /// output and the others are summed into it in cached order; nothing
    /// is emitted unless every packet is U-plane with the same sections.
    fn merge(&mut self, ctx: &mut MbContext<'_>, mut cached: Vec<FhMessage>) -> Option<FhMessage> {
        let streams = cached.len();
        let (out, rest) = cached.split_first_mut()?;
        let Ok(total_prbs) = sum_uplanes_into(out, rest) else {
            counters::bump(&mut self.stats.merge_errors);
            return None;
        };
        // A4 heavy path: decompress + sum + recompress across all RUs.
        ctx.charge(Work::MergeIq { prbs: total_prbs, streams }, XdpPlacement::Userspace);
        actions::redirect(out, self.cfg.mb_mac, self.cfg.du_mac);
        counters::bump(&mut self.stats.ul_merges);
        ctx.telemetry.count(ctx.now_ns(), "ul_merges", 1);
        Some(cached.swap_remove(0))
    }

    /// Merge every pending key of the current frame's eAxC stream whose
    /// wait exceeded the merge window, with however many RUs reported.
    ///
    /// Scoped to one stream on purpose: the dataplane shards by
    /// `(eAxC, direction)`, so a flush triggered by progress on a
    /// *different* stream would fire on a different worker (or never) and
    /// break the 1-vs-N-worker output equivalence the chaos suite proves.
    fn flush_overdue(
        &mut self,
        ctx: &mut MbContext<'_>,
        eaxc_raw: u16,
        now_abs: u64,
        out: &mut Vec<FhMessage>,
    ) {
        if self.merge_window == 0 {
            return;
        }
        let mut i = 0;
        while i < self.pending.len() {
            let (key, at_abs) = match self.pending.get(i) {
                Some(&(k, at)) => (k, at),
                None => break,
            };
            let overdue = now_abs > at_abs.saturating_add(self.merge_window)
                || now_abs.saturating_add(WRAP_GUARD) < at_abs;
            if key.eaxc_raw != eaxc_raw || !overdue {
                i = i.saturating_add(1);
                continue;
            }
            self.pending.swap_remove(i);
            let cached = ctx.cache.take(&key);
            if cached.is_empty() {
                continue; // evicted by cache pressure meanwhile
            }
            counters::bump(&mut self.stats.ul_partial_merges);
            ctx.telemetry.count(ctx.now_ns(), "das_partial_merge", 1);
            if let Some(m) = self.merge(ctx, cached) {
                actions::emit(out, m);
            }
        }
    }
}

/// Sum the sections of every message in `others` into the matching
/// sections of `dst`, in place. Every message must be U-plane with as many
/// sections as `dst` — a later RU carrying extra sections would otherwise
/// have their IQ silently dropped. Returns the PRBs merged.
fn sum_uplanes_into(dst: &mut FhMessage, others: &[FhMessage]) -> Result<usize> {
    let dst = dst.as_uplane_mut().ok_or(Error::ShapeMismatch)?;
    let n_sections = dst.sections.len();
    if !others.iter().all(|m| m.as_uplane().is_some_and(|u| u.sections.len() == n_sections)) {
        return Err(Error::ShapeMismatch);
    }
    let mut total_prbs = 0usize;
    for (s_idx, section) in dst.sections.iter_mut().enumerate() {
        actions::sum_sections_into(section, |k| others.get(k)?.as_uplane()?.sections.get(s_idx))?;
        total_prbs = total_prbs.saturating_add(usize::from(section.num_prb()));
    }
    Ok(total_prbs)
}

impl Middlebox for Das {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_cplane(&mut self, ctx: &mut MbContext<'_>, msg: FhMessage, out: &mut Vec<FhMessage>) {
        if msg.eth.src != self.cfg.du_mac {
            counters::bump(&mut self.stats.unknown_src);
            return;
        }
        // Both DL and UL C-plane originate at the DU and go to every RU.
        self.fan_out(ctx, msg, out);
    }

    fn on_uplane(&mut self, ctx: &mut MbContext<'_>, msg: FhMessage, out: &mut Vec<FhMessage>) {
        if msg.eth.src == self.cfg.du_mac {
            // Downlink IQ: replicate to all RUs.
            return self.fan_out(ctx, msg, out);
        }
        if !self.cfg.ru_macs.contains(&msg.eth.src) {
            counters::bump(&mut self.stats.unknown_src);
            return;
        }
        // Uplink IQ from one RU: cache until all RUs reported (A3).
        let Some(up) = msg.as_uplane() else {
            return;
        };
        let key = CacheKey {
            eaxc_raw: msg.eaxc.pack(&ctx.mapping),
            direction: Direction::Uplink,
            plane: Plane::U,
            filter: up.filter_index,
            symbol: up.symbol,
        };
        let now_abs = up.symbol.absolute_symbol(Numerology::Mu1);
        counters::bump(&mut self.stats.ul_cached);
        ctx.cache.insert(key, msg);
        // Older symbols of this stream that ran out of patience merge
        // first (partially), so one lost RU stalls a symbol for at most
        // the merge window instead of forever.
        self.flush_overdue(ctx, key.eaxc_raw, now_abs, out);
        if ctx.cache.count(&key) < self.cfg.ru_macs.len() {
            if self.merge_window > 0 && !self.pending.iter().any(|(k, _)| *k == key) {
                self.pending.push((key, now_abs));
            }
            ctx.charge(Work::Cache, XdpPlacement::Userspace);
            return;
        }
        self.pending.retain(|(k, _)| *k != key);
        let cached = ctx.cache.take(&key);
        if let Some(merged) = self.merge(ctx, cached) {
            actions::emit(out, merged);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_core::cache::SymbolCache;
    use rb_core::telemetry::{self, TelemetrySender};
    use rb_fronthaul::bfp::CompressionMethod;
    use rb_fronthaul::cplane::{CPlaneRepr, SectionFields};
    use rb_fronthaul::eaxc::{Eaxc, EaxcMapping};
    use rb_fronthaul::iq::{IqSample, Prb};
    use rb_fronthaul::msg::Body;
    use rb_fronthaul::timing::SymbolId;
    use rb_fronthaul::uplane::{UPlaneRepr, USection};
    use rb_netsim::time::SimTime;

    fn mac(last: u8) -> EthernetAddress {
        EthernetAddress::new(2, 0, 0, 0, 0, last)
    }

    fn das() -> Das {
        Das::new(
            "das-test",
            DasConfig { mb_mac: mac(10), du_mac: mac(1), ru_macs: vec![mac(21), mac(22), mac(23)] },
        )
    }

    fn ctx<'a>(cache: &'a mut SymbolCache, tel: &'a TelemetrySender) -> MbContext<'a> {
        MbContext {
            now: SimTime(0),
            cache,
            telemetry: tel,
            mapping: EaxcMapping::DEFAULT,
            charges: Vec::new(),
        }
    }

    fn dl_cplane(src: EthernetAddress, dst: EthernetAddress) -> FhMessage {
        FhMessage::new(
            src,
            dst,
            Eaxc::port(0),
            0,
            Body::CPlane(CPlaneRepr::single(
                Direction::Downlink,
                SymbolId::ZERO,
                CompressionMethod::BFP9,
                SectionFields::data(0, 0, 50, 14),
            )),
        )
    }

    fn ul_uplane(src: EthernetAddress, amp: i16, port: u8) -> FhMessage {
        let mut prb = Prb::ZERO;
        for (k, s) in prb.0.iter_mut().enumerate() {
            *s = IqSample::new(amp, -(amp / 2) + k as i16);
        }
        let section =
            USection::from_prbs(0, 0, &[prb; 4], CompressionMethod::NoCompression).unwrap();
        FhMessage::new(
            src,
            mac(10),
            Eaxc::port(port),
            0,
            Body::UPlane(UPlaneRepr::single(Direction::Uplink, SymbolId::ZERO, section)),
        )
    }

    #[test]
    fn downlink_is_replicated_to_all_rus() {
        let mut mb = das();
        let mut cache = SymbolCache::new(64);
        let tel = TelemetrySender::disconnected("t");
        let out = mb.handle(&mut ctx(&mut cache, &tel), dl_cplane(mac(1), mac(10)));
        assert_eq!(out.len(), 3);
        let dsts: Vec<_> = out.iter().map(|m| m.eth.dst).collect();
        assert_eq!(dsts, vec![mac(21), mac(22), mac(23)]);
        assert!(out.iter().all(|m| m.eth.src == mac(10)));
        assert_eq!(mb.stats.dl_replicated, 1);
    }

    #[test]
    fn das_stats_merge_sums_every_counter() {
        let a = DasStats {
            dl_replicated: 1,
            ul_cached: 2,
            ul_merges: 3,
            ul_partial_merges: 4,
            merge_errors: 5,
            unknown_src: 6,
        };
        let mut sum = a;
        sum.merge(&a);
        sum.merge(&DasStats::default());
        let want = DasStats {
            dl_replicated: 2,
            ul_cached: 4,
            ul_merges: 6,
            ul_partial_merges: 8,
            merge_errors: 10,
            unknown_src: 12,
        };
        assert_eq!(sum, want);
    }

    #[test]
    fn uplink_waits_for_all_rus_then_merges() {
        let mut mb = das();
        let mut cache = SymbolCache::new(64);
        let tel = TelemetrySender::disconnected("t");
        let a = mb.handle(&mut ctx(&mut cache, &tel), ul_uplane(mac(21), 100, 0));
        assert!(a.is_empty());
        let b = mb.handle(&mut ctx(&mut cache, &tel), ul_uplane(mac(22), 200, 0));
        assert!(b.is_empty());
        let c = mb.handle(&mut ctx(&mut cache, &tel), ul_uplane(mac(23), 300, 0));
        assert_eq!(c.len(), 1, "third RU triggers the merge");
        let merged = &c[0];
        assert_eq!(merged.eth.dst, mac(1));
        assert_eq!(merged.eth.src, mac(10));
        // 100 + 200 + 300 summed per subcarrier.
        let decoded = merged.as_uplane().unwrap().sections[0].decode().unwrap();
        assert_eq!(decoded[0].0 .0[0].i, 600);
        assert_eq!(mb.stats.ul_merges, 1);
        assert!(cache.is_empty(), "cache drained after merge");
    }

    #[test]
    fn different_ports_and_symbols_merge_independently() {
        let mut mb = das();
        let mut cache = SymbolCache::new(64);
        let tel = TelemetrySender::disconnected("t");
        // Port 0 from two RUs, port 1 from three RUs.
        mb.handle(&mut ctx(&mut cache, &tel), ul_uplane(mac(21), 100, 0));
        mb.handle(&mut ctx(&mut cache, &tel), ul_uplane(mac(22), 100, 0));
        mb.handle(&mut ctx(&mut cache, &tel), ul_uplane(mac(21), 10, 1));
        mb.handle(&mut ctx(&mut cache, &tel), ul_uplane(mac(22), 10, 1));
        let done = mb.handle(&mut ctx(&mut cache, &tel), ul_uplane(mac(23), 10, 1));
        assert_eq!(done.len(), 1, "port 1 completed");
        assert_eq!(done[0].eaxc.ru_port, 1);
        assert_eq!(cache.len(), 1, "port 0 still waiting");
    }

    #[test]
    fn merge_reports_heavy_work() {
        let mut mb = das();
        let mut cache = SymbolCache::new(64);
        let tel = TelemetrySender::disconnected("t");
        mb.handle(&mut ctx(&mut cache, &tel), ul_uplane(mac(21), 100, 0));
        mb.handle(&mut ctx(&mut cache, &tel), ul_uplane(mac(22), 100, 0));
        let mut c = ctx(&mut cache, &tel);
        mb.handle(&mut c, ul_uplane(mac(23), 100, 0));
        assert!(c
            .charges
            .iter()
            .any(|(w, p)| matches!(w, Work::MergeIq { streams: 3, .. })
                && *p == XdpPlacement::Userspace));
    }

    #[test]
    fn unknown_sources_are_dropped() {
        let mut mb = das();
        let mut cache = SymbolCache::new(64);
        let tel = TelemetrySender::disconnected("t");
        let out = mb.handle(&mut ctx(&mut cache, &tel), dl_cplane(mac(99), mac(10)));
        assert!(out.is_empty());
        let out = mb.handle(&mut ctx(&mut cache, &tel), ul_uplane(mac(99), 50, 0));
        assert!(out.is_empty());
        assert_eq!(mb.stats.unknown_src, 2);
    }

    #[test]
    fn merge_telemetry_flows() {
        let (tx, rx) = telemetry::channel("das-test");
        let mut mb = das();
        let mut cache = SymbolCache::new(64);
        mb.handle(&mut ctx(&mut cache, &tx), ul_uplane(mac(21), 1, 0));
        mb.handle(&mut ctx(&mut cache, &tx), ul_uplane(mac(22), 1, 0));
        mb.handle(&mut ctx(&mut cache, &tx), ul_uplane(mac(23), 1, 0));
        let events = rx.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(&*events[0].source, "das-test");
    }

    fn ul_uplane_sym(src: EthernetAddress, amp: i16, port: u8, symbol: u8) -> FhMessage {
        let mut msg = ul_uplane(src, amp, port);
        if let Some(up) = msg.as_uplane_mut() {
            up.symbol = SymbolId { frame: 0, subframe: 0, slot: 0, symbol };
        }
        msg
    }

    #[test]
    fn missing_ru_stream_partial_merges_after_window() {
        let mut mb = das().with_merge_window(4);
        let mut cache = SymbolCache::new(64);
        let tel = TelemetrySender::disconnected("t");
        // Symbol 0: only two of the three RUs report (mac(23) is dead).
        assert!(mb
            .handle(&mut ctx(&mut cache, &tel), ul_uplane_sym(mac(21), 100, 0, 0))
            .is_empty());
        assert!(mb
            .handle(&mut ctx(&mut cache, &tel), ul_uplane_sym(mac(22), 200, 0, 0))
            .is_empty());
        // Symbol 4 is still inside the window — no flush yet.
        assert!(mb.handle(&mut ctx(&mut cache, &tel), ul_uplane_sym(mac(21), 10, 0, 4)).is_empty());
        assert_eq!(mb.stats.ul_partial_merges, 0);
        // Symbol 5 pushes symbol 0 past the window: partial merge of the
        // two cached RUs, forwarded to the DU.
        let out = mb.handle(&mut ctx(&mut cache, &tel), ul_uplane_sym(mac(21), 10, 0, 5));
        assert_eq!(out.len(), 1, "overdue symbol 0 merges partially");
        assert_eq!(out[0].eth.dst, mac(1));
        let decoded = out[0].as_uplane().unwrap().sections[0].decode().unwrap();
        assert_eq!(decoded[0].0 .0[0].i, 300, "sum of the two surviving RUs");
        assert_eq!(mb.stats.ul_partial_merges, 1);
        assert_eq!(mb.stats.ul_merges, 1);
    }

    #[test]
    fn late_ru_completion_still_merges_fully_inside_window() {
        let mut mb = das().with_merge_window(4);
        let mut cache = SymbolCache::new(64);
        let tel = TelemetrySender::disconnected("t");
        mb.handle(&mut ctx(&mut cache, &tel), ul_uplane_sym(mac(21), 100, 0, 0));
        mb.handle(&mut ctx(&mut cache, &tel), ul_uplane_sym(mac(22), 100, 0, 0));
        // Third RU arrives late but inside the window: normal full merge.
        let out = mb.handle(&mut ctx(&mut cache, &tel), ul_uplane_sym(mac(23), 100, 0, 0));
        assert_eq!(out.len(), 1);
        assert_eq!(mb.stats.ul_partial_merges, 0);
        assert_eq!(mb.stats.ul_merges, 1);
        assert!(mb.pending.is_empty(), "completed key leaves the pending list");
    }

    #[test]
    fn flush_is_scoped_to_the_triggering_stream() {
        let mut mb = das().with_merge_window(2);
        let mut cache = SymbolCache::new(64);
        let tel = TelemetrySender::disconnected("t");
        // Port 0 symbol 0 is incomplete; progress on port 1 far past the
        // window must NOT flush it (different dataplane shard).
        mb.handle(&mut ctx(&mut cache, &tel), ul_uplane_sym(mac(21), 100, 0, 0));
        let out = mb.handle(&mut ctx(&mut cache, &tel), ul_uplane_sym(mac(21), 10, 1, 9));
        assert!(out.is_empty());
        assert_eq!(mb.stats.ul_partial_merges, 0, "cross-stream progress never flushes");
        // Progress on port 0 itself does.
        let out = mb.handle(&mut ctx(&mut cache, &tel), ul_uplane_sym(mac(21), 10, 0, 9));
        assert_eq!(out.len(), 1);
        assert_eq!(mb.stats.ul_partial_merges, 1);
    }

    #[test]
    fn zero_window_restores_wait_forever() {
        let mut mb = das().with_merge_window(0);
        let mut cache = SymbolCache::new(64);
        let tel = TelemetrySender::disconnected("t");
        mb.handle(&mut ctx(&mut cache, &tel), ul_uplane_sym(mac(21), 100, 0, 0));
        let out = mb.handle(&mut ctx(&mut cache, &tel), ul_uplane_sym(mac(21), 10, 0, 13));
        assert!(out.is_empty());
        assert_eq!(mb.stats.ul_partial_merges, 0);
        assert!(mb.pending.is_empty(), "window 0 tracks nothing");
    }

    #[test]
    fn shape_mismatch_counts_merge_error() {
        let mut mb = das();
        let mut cache = SymbolCache::new(64);
        let tel = TelemetrySender::disconnected("t");
        mb.handle(&mut ctx(&mut cache, &tel), ul_uplane(mac(21), 1, 0));
        mb.handle(&mut ctx(&mut cache, &tel), ul_uplane(mac(22), 1, 0));
        // Third RU reports a different PRB count.
        let mut odd = ul_uplane(mac(23), 1, 0);
        if let Some(up) = odd.as_uplane_mut() {
            let prbs = vec![Prb::ZERO; 2];
            up.sections =
                vec![USection::from_prbs(0, 0, &prbs, CompressionMethod::NoCompression).unwrap()];
        }
        let out = mb.handle(&mut ctx(&mut cache, &tel), odd);
        assert!(out.is_empty());
        assert_eq!(mb.stats.merge_errors, 1);
    }

    #[test]
    fn extra_sections_from_a_later_ru_count_merge_error() {
        // Regression: the merge walked the *first* RU's sections only, so
        // a later RU's extra section was dropped without a trace.
        let mut mb = das();
        let mut cache = SymbolCache::new(64);
        let tel = TelemetrySender::disconnected("t");
        mb.handle(&mut ctx(&mut cache, &tel), ul_uplane(mac(21), 1, 0));
        mb.handle(&mut ctx(&mut cache, &tel), ul_uplane(mac(22), 1, 0));
        let mut wider = ul_uplane(mac(23), 1, 0);
        if let Some(up) = wider.as_uplane_mut() {
            let extra =
                USection::from_prbs(1, 4, &[Prb::ZERO; 4], CompressionMethod::NoCompression);
            up.sections.push(extra.unwrap());
        }
        let out = mb.handle(&mut ctx(&mut cache, &tel), wider);
        assert!(out.is_empty(), "nothing is emitted rather than a truncated sum");
        assert_eq!(mb.stats.merge_errors, 1);
        assert_eq!(mb.stats.ul_merges, 0);
    }

    #[test]
    fn non_uplane_cache_entry_counts_merge_error() {
        // Regression: a cached message that is not U-plane made the merge
        // return without counting anything.
        let mut mb = das();
        let mut cache = SymbolCache::new(64);
        let tel = TelemetrySender::disconnected("t");
        let key = CacheKey {
            eaxc_raw: Eaxc::port(0).pack(&EaxcMapping::DEFAULT),
            direction: Direction::Uplink,
            plane: Plane::U,
            filter: 0,
            symbol: SymbolId::ZERO,
        };
        cache.insert(key, dl_cplane(mac(21), mac(10)));
        mb.handle(&mut ctx(&mut cache, &tel), ul_uplane(mac(22), 1, 0));
        let out = mb.handle(&mut ctx(&mut cache, &tel), ul_uplane(mac(23), 1, 0));
        assert!(out.is_empty());
        assert_eq!(mb.stats.merge_errors, 1);
        assert!(cache.is_empty(), "the bad key is drained, not retried forever");
    }
}
