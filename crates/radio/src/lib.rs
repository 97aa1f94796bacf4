//! # rb-radio — the RAN emulation substrate
//!
//! The paper evaluates RANBooster on a commercial testbed: Foxconn RUs,
//! three vendor DU stacks, twenty real UEs across five floors, and an
//! over-the-air radio channel. None of that is available here, so this
//! crate builds the closest synthetic equivalent that exercises the same
//! fronthaul code paths:
//!
//! * [`cell`] — cell configurations (bandwidth/PRBs, numerology, center
//!   frequency, MIMO layers, TDD pattern, SSB and PRACH placement);
//! * [`mcs`] — SINR → spectral-efficiency link adaptation, calibrated to
//!   the throughput anchors the paper measures (898/653/330/70/25 Mbps);
//! * [`channel`] — indoor path-loss model with floor penetration, and the
//!   channel parameters (thresholds, powers) shared by the fleet;
//! * [`medium`] — the shared "air interface": RUs deposit radiated
//!   spectrum, UEs hear SSBs/attach/feed back CQI, downlink allocations
//!   are credited against what was *actually radiated* (so a buggy
//!   middlebox directly shows up as lost throughput);
//! * [`du`] — a DU emulator: MAC scheduler, C-plane/U-plane generation,
//!   SSB and PRACH occasions, uplink decoding, scheduling logs;
//! * [`ru`] — an RU emulator: honours C-plane, radiates downlink,
//!   synthesizes uplink U-plane with energy-faithful BFP exponents.
//!
//! Everything the middleboxes see is spec-conformant `rb-fronthaul`
//! traffic; everything above the fronthaul is semi-analytic and
//! deterministic (discrete-event time; the only random draws are the IQ
//! templates, seeded from each RU's tag).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cell;
pub mod channel;
pub mod du;
pub mod iqgen;
pub mod mcs;
pub mod medium;
pub mod ru;
pub mod timebase;
