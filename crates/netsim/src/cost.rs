//! Datapath cost models: DPDK vs XDP, CPU accounting and slot deadlines.
//!
//! The paper evaluates RANBooster middleboxes on two packet-processing
//! technologies (§5): DPDK (kernel bypass, poll-mode, a dedicated core per
//! middlebox, lowest per-packet cost) and XDP (in-kernel, interrupt-driven,
//! cheap for header-only actions, but heavyweight actions must cross to
//! userspace over an AF_XDP socket, paying a context switch).
//!
//! This module provides:
//!
//! * [`Work`] — the unit operations a middlebox performs per packet,
//!   expressed in terms of the paper's actions A1–A4;
//! * [`CostModel`] — per-operation processing-time model, calibrated to
//!   the paper's measurements (Figure 15b: forwarding/replication < 300 ns,
//!   IQ merge 4–6 µs growing with the number of RUs);
//! * [`CpuLedger`] — per-core busy-time accounting over a measurement
//!   window, yielding the CPU-utilization curves of Figure 16;
//! * [`SlotDeadline`] — the vRAN slot-processing budget check of §6.4.1
//!   (≈ 30 µs of middlebox headroom per slot before packets get dropped).

use crate::time::{SimDuration, SimTime};

/// The two packet-processing datapaths the paper implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Datapath {
    /// Kernel-bypass poll-mode driver: a dedicated core spins at 100 %.
    Dpdk,
    /// In-kernel eBPF at the NIC driver hook, with an optional AF_XDP
    /// userspace component for heavyweight actions.
    Xdp,
}

/// Where a middlebox's packet processing runs under XDP (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum XdpPlacement {
    /// Entirely in the kernel XDP program (header-only actions).
    Kernel,
    /// Forwarded to userspace over AF_XDP (caching / IQ modification).
    Userspace,
}

/// A unit of per-packet middlebox work, in terms of actions A1–A4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Work {
    /// A1 — header rewrite and forward (or drop).
    Forward,
    /// A2 — clone the packet to `copies` destinations (includes the
    /// forward of the original).
    Replicate {
        /// Number of transmitted copies.
        copies: usize,
    },
    /// A3 — stash the packet in the symbol cache.
    Cache,
    /// A4 (light) — inspect/rewrite O-RAN header fields or peek per-PRB
    /// compression parameters of `prbs` PRBs without touching mantissas.
    InspectHeaders {
        /// PRBs whose parameter bytes are scanned (0 for pure header work).
        prbs: usize,
    },
    /// A4 (heavy) — decompress, combine and recompress IQ samples of
    /// `prbs` PRBs across `streams` cached packets (the DAS uplink merge,
    /// or the RU-sharing misaligned copy with `streams = 1`).
    MergeIq {
        /// PRBs processed.
        prbs: usize,
        /// Number of source streams combined.
        streams: usize,
    },
}

/// Per-operation processing-time model for one datapath.
///
/// Defaults are calibrated against the paper's DPDK microbenchmarks
/// (Figure 15b) and the XDP overheads reported in §5/§6.4.2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Which datapath this model describes.
    pub datapath: Datapath,
    /// Fixed RX+TX I/O cost per packet.
    pub io_overhead_ns: u64,
    /// Header rewrite + forward (action A1).
    pub forward_ns: u64,
    /// Extra cost per replicated copy (action A2).
    pub per_copy_ns: u64,
    /// Stashing a packet in the cache (action A3).
    pub cache_ns: u64,
    /// Scanning one PRB's compression parameter (light A4).
    pub per_prb_peek_ns: u64,
    /// Fixed cost of a heavyweight A4 (set-up, allocation).
    pub merge_base_ns: u64,
    /// Per PRB-stream cost of decompress + sum + recompress (heavy A4).
    pub per_prb_stream_ns: u64,
    /// AF_XDP context switch paid by userspace-placed work (XDP only).
    pub context_switch_ns: u64,
}

impl CostModel {
    /// DPDK defaults: Figure 15b shape — DL C/U-plane < 300 ns, uplink
    /// merge 4–6 µs at 273 PRBs × 4–6 streams.
    pub fn dpdk() -> CostModel {
        CostModel {
            datapath: Datapath::Dpdk,
            io_overhead_ns: 80,
            forward_ns: 90,
            per_copy_ns: 45,
            cache_ns: 120,
            per_prb_peek_ns: 2,
            merge_base_ns: 500,
            per_prb_stream_ns: 5,
            context_switch_ns: 0,
        }
    }

    /// XDP defaults: higher per-packet cost (kernel stack involvement,
    /// jumbo-frame memory handling) and a context switch for userspace
    /// actions.
    pub fn xdp() -> CostModel {
        CostModel {
            datapath: Datapath::Xdp,
            io_overhead_ns: 450,
            forward_ns: 250,
            per_copy_ns: 220,
            cache_ns: 300,
            per_prb_peek_ns: 4,
            merge_base_ns: 900,
            per_prb_stream_ns: 5,
            context_switch_ns: 2_600,
        }
    }

    /// Processing time of one unit of work, excluding placement overhead.
    fn work_ns(&self, work: Work) -> u64 {
        match work {
            Work::Forward => self.forward_ns,
            Work::Replicate { copies } => self.forward_ns + self.per_copy_ns * copies as u64,
            Work::Cache => self.cache_ns,
            Work::InspectHeaders { prbs } => self.forward_ns + self.per_prb_peek_ns * prbs as u64,
            Work::MergeIq { prbs, streams } => {
                self.merge_base_ns + self.per_prb_stream_ns * (prbs * streams) as u64
            }
        }
    }

    /// Total per-packet processing time for `work` executing at
    /// `placement` (placement only matters for [`Datapath::Xdp`]).
    pub fn packet_cost(&self, work: Work, placement: XdpPlacement) -> SimDuration {
        let mut ns = self.io_overhead_ns + self.work_ns(work);
        if self.datapath == Datapath::Xdp && placement == XdpPlacement::Userspace {
            ns += self.context_switch_ns;
        }
        SimDuration::from_nanos(ns)
    }
}

/// Per-core busy-time ledger over a measurement window.
///
/// DPDK cores poll and therefore always report 100 % utilization; XDP
/// cores report actual busy time over the window (Figure 16).
#[derive(Debug, Clone)]
pub struct CpuLedger {
    datapath: Datapath,
    busy: Vec<u64>,
    window_start: SimTime,
}

impl CpuLedger {
    /// Create a ledger for `cores` cores running `datapath`.
    pub fn new(datapath: Datapath, cores: usize) -> CpuLedger {
        assert!(cores >= 1);
        CpuLedger { datapath, busy: vec![0; cores], window_start: SimTime::ZERO }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.busy.len()
    }

    /// Charge `d` of processing to `core`.
    pub fn charge(&mut self, core: usize, d: SimDuration) {
        self.busy[core] += d.as_nanos();
    }

    /// Charge to the least-loaded core (simple work stealing); returns the
    /// chosen core.
    pub fn charge_balanced(&mut self, d: SimDuration) -> usize {
        let core = self
            .busy
            .iter()
            .enumerate()
            .min_by_key(|(_, b)| **b)
            .map(|(k, _)| k)
            .expect("at least one core");
        self.charge(core, d);
        core
    }

    /// Busy time accumulated on a core this window.
    pub fn busy_time(&self, core: usize) -> SimDuration {
        SimDuration::from_nanos(self.busy[core])
    }

    /// Per-core utilization (0..=1) over the window ending at `now`.
    /// DPDK cores always report 1.0.
    pub fn utilization(&self, now: SimTime) -> Vec<f64> {
        let window = now.since(self.window_start).as_nanos().max(1) as f64;
        self.busy
            .iter()
            .map(|&b| match self.datapath {
                Datapath::Dpdk => 1.0,
                Datapath::Xdp => (b as f64 / window).min(1.0),
            })
            .collect()
    }

    /// Mean utilization across cores.
    pub fn mean_utilization(&self, now: SimTime) -> f64 {
        let u = self.utilization(now);
        u.iter().sum::<f64>() / u.len() as f64
    }

    /// Start a new measurement window at `now`.
    pub fn reset(&mut self, now: SimTime) {
        self.busy.iter_mut().for_each(|b| *b = 0);
        self.window_start = now;
    }
}

/// The vRAN slot-processing deadline of §6.4.1.
///
/// The DU's slot pipeline leaves roughly 30 µs of headroom for middlebox
/// processing; if the per-core middlebox work for one slot exceeds the
/// budget, fronthaul deadlines are violated and packets are dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotDeadline {
    /// Middlebox processing budget per slot, per core.
    pub budget: SimDuration,
}

impl Default for SlotDeadline {
    fn default() -> Self {
        SlotDeadline { budget: SimDuration::from_micros(30) }
    }
}

impl SlotDeadline {
    /// Check whether `total_work` for one slot, split across `cores`
    /// (parallelizing by antenna stream), meets the deadline.
    pub fn meets(&self, total_work: SimDuration, cores: usize) -> bool {
        assert!(cores >= 1);
        total_work.as_nanos().div_ceil(cores as u64) <= self.budget.as_nanos()
    }

    /// Minimum number of cores needed to meet the deadline.
    pub fn cores_needed(&self, total_work: SimDuration) -> usize {
        let b = self.budget.as_nanos().max(1);
        (total_work.as_nanos().div_ceil(b)).max(1) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dpdk_light_actions_are_sub_300ns() {
        let m = CostModel::dpdk();
        for work in [Work::Forward, Work::Replicate { copies: 2 }, Work::Cache] {
            let c = m.packet_cost(work, XdpPlacement::Kernel);
            assert!(c.as_nanos() < 300, "{work:?} cost {c}");
        }
    }

    #[test]
    fn dpdk_merge_matches_figure_15b_band() {
        let m = CostModel::dpdk();
        // 273-PRB (100 MHz) merge across 4 RUs: 4–6 µs band.
        let four = m.packet_cost(Work::MergeIq { prbs: 273, streams: 4 }, XdpPlacement::Kernel);
        assert!(four.as_micros_f64() >= 3.0 && four.as_micros_f64() <= 6.5, "{four}");
        // Fewer streams are cheaper (Fig 15b measures 2–4 RUs in-band).
        let two = m.packet_cost(Work::MergeIq { prbs: 273, streams: 2 }, XdpPlacement::Kernel);
        assert!(two < four);
        assert!(two.as_micros_f64() >= 2.0, "{two}");
    }

    #[test]
    fn xdp_userspace_pays_context_switch() {
        let m = CostModel::xdp();
        let kernel = m.packet_cost(Work::Forward, XdpPlacement::Kernel);
        let user = m.packet_cost(Work::Forward, XdpPlacement::Userspace);
        assert_eq!(
            user.as_nanos() - kernel.as_nanos(),
            m.context_switch_ns,
            "userspace adds exactly one context switch"
        );
        // DPDK ignores placement.
        let d = CostModel::dpdk();
        assert_eq!(
            d.packet_cost(Work::Cache, XdpPlacement::Kernel),
            d.packet_cost(Work::Cache, XdpPlacement::Userspace)
        );
    }

    #[test]
    fn xdp_is_costlier_than_dpdk_per_packet() {
        let d = CostModel::dpdk();
        let x = CostModel::xdp();
        for work in [Work::Forward, Work::Cache, Work::MergeIq { prbs: 106, streams: 4 }] {
            assert!(
                x.packet_cost(work, XdpPlacement::Kernel)
                    > d.packet_cost(work, XdpPlacement::Kernel)
            );
        }
    }

    #[test]
    fn ledger_dpdk_always_full() {
        let mut l = CpuLedger::new(Datapath::Dpdk, 2);
        l.charge(0, SimDuration::from_nanos(10));
        assert_eq!(l.utilization(SimTime(1_000_000)), vec![1.0, 1.0]);
    }

    #[test]
    fn ledger_xdp_tracks_busy_fraction() {
        let mut l = CpuLedger::new(Datapath::Xdp, 1);
        l.charge(0, SimDuration::from_micros(250));
        let u = l.utilization(SimTime(1_000_000));
        assert!((u[0] - 0.25).abs() < 1e-9);
        l.reset(SimTime(1_000_000));
        assert_eq!(l.utilization(SimTime(2_000_000)), vec![0.0]);
    }

    #[test]
    fn ledger_balances_across_cores() {
        let mut l = CpuLedger::new(Datapath::Xdp, 2);
        let c0 = l.charge_balanced(SimDuration::from_micros(10));
        let c1 = l.charge_balanced(SimDuration::from_micros(10));
        assert_ne!(c0, c1, "second charge goes to the idle core");
        assert_eq!(l.busy_time(0), l.busy_time(1));
    }

    #[test]
    fn utilization_saturates_at_one() {
        let mut l = CpuLedger::new(Datapath::Xdp, 1);
        l.charge(0, SimDuration::from_secs(10));
        assert_eq!(l.utilization(SimTime(1_000_000_000)), vec![1.0]);
    }

    #[test]
    fn deadline_section_641_reproduction() {
        // §6.4.1: four 4×4 100 MHz RUs → 12 cached packets + 4 merges
        // ≈ 26 µs, inside the 30 µs budget on one core; a fifth RU pushes
        // past the budget and needs a second core.
        let m = CostModel::dpdk();
        let deadline = SlotDeadline::default();
        let slot_work = |rus: usize| -> SimDuration {
            let cached = 3 * rus; // 3 U-plane packets per RU antenna stream
            let merges = 4; // one merge per virtual antenna port
            let mut total = SimDuration::ZERO;
            for _ in 0..cached {
                total += m.packet_cost(Work::Cache, XdpPlacement::Kernel);
            }
            for _ in 0..merges {
                total +=
                    m.packet_cost(Work::MergeIq { prbs: 273, streams: rus }, XdpPlacement::Kernel);
            }
            total
        };
        let four = slot_work(4);
        assert!(four.as_micros_f64() > 23.0 && four.as_micros_f64() < 30.0, "{four}");
        assert!(deadline.meets(four, 1));
        let five = slot_work(5);
        let six = slot_work(6);
        assert!(!deadline.meets(five, 1), "five RUs break one core: {five}");
        assert!(deadline.meets(five, 2) && deadline.meets(six, 2));
        assert_eq!(deadline.cores_needed(five), 2);
        assert_eq!(deadline.cores_needed(six), 2);
    }

    #[test]
    fn cores_needed_monotone() {
        let d = SlotDeadline::default();
        assert_eq!(d.cores_needed(SimDuration::from_micros(10)), 1);
        assert_eq!(d.cores_needed(SimDuration::from_micros(30)), 1);
        assert_eq!(d.cores_needed(SimDuration::from_micros(31)), 2);
        assert_eq!(d.cores_needed(SimDuration::from_micros(61)), 3);
    }
}
