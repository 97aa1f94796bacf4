//! A3 — the symbol-keyed packet cache.
//!
//! Middleboxes cache packets "for a given symbol and antenna port" (paper
//! §4.1/§4.3) so they can later combine them with packets that arrive from
//! other sources. [`SymbolCache`] keys entries by (eAxC stream, direction,
//! plane, symbol); capacity is bounded and the oldest key is evicted when
//! full, so a crashed peer cannot grow the cache without bound.

use std::collections::{HashMap, VecDeque};

use rb_fronthaul::msg::FhMessage;
use rb_fronthaul::timing::SymbolId;
use rb_fronthaul::Direction;

/// Which plane a cached packet belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Plane {
    /// Control plane.
    C,
    /// User plane.
    U,
}

/// The cache key: one antenna stream at one symbol instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Raw 16-bit eAxC id.
    pub eaxc_raw: u16,
    /// Message direction.
    pub direction: Direction,
    /// Plane (C or U).
    pub plane: Plane,
    /// The `filterIndex` of the cached messages (0 = data, 1 = PRACH) —
    /// PRACH and data share symbols and ports, so it must disambiguate.
    pub filter: u8,
    /// The symbol instant.
    pub symbol: SymbolId,
}

/// The messages under one key, stamped with the insertion that created
/// the key.
#[derive(Debug)]
struct Entry {
    stamp: u64,
    msgs: Vec<FhMessage>,
}

/// Whether the queue entry `(stamp, key)` still names a cached key.
fn live(map: &HashMap<CacheKey, Entry>, stamp: u64, key: &CacheKey) -> bool {
    map.get(key).is_some_and(|e| e.stamp == stamp)
}

/// Stale queue entries tolerated on top of twice the live keys before the
/// queue is compacted.
const STALE_SLACK: usize = 16;

/// A bounded, insertion-ordered packet cache (action A3).
#[derive(Debug)]
pub struct SymbolCache {
    map: HashMap<CacheKey, Entry>,
    /// Keys in insertion order, each with the stamp of the insertion that
    /// queued it. An entry whose key has since been taken or purged — or
    /// taken and inserted again, under a newer stamp — is stale: eviction
    /// skips it and `insert` compacts the queue once stale entries
    /// outnumber live ones, so the queue stays O(live keys).
    order: VecDeque<(u64, CacheKey)>,
    /// Stamp of the most recent key-creating insertion.
    stamp: u64,
    max_keys: usize,
    /// Keys evicted because the cache was full.
    pub evictions: u64,
}

impl SymbolCache {
    /// A cache holding at most `max_keys` distinct (stream, symbol) keys.
    ///
    /// Sizing rule of thumb: `streams × symbols_in_flight`; a few thousand
    /// covers any of the paper's middleboxes.
    pub fn new(max_keys: usize) -> SymbolCache {
        assert!(max_keys >= 1);
        SymbolCache {
            map: HashMap::new(),
            order: VecDeque::new(),
            stamp: 0,
            max_keys,
            evictions: 0,
        }
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no keys are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Append a message under `key`, evicting the oldest key if full.
    pub fn insert(&mut self, key: CacheKey, msg: FhMessage) {
        if !self.map.contains_key(&key) {
            if self.map.len() >= self.max_keys {
                // Evict the oldest still-live key.
                while let Some((stamp, old)) = self.order.pop_front() {
                    if live(&self.map, stamp, &old) {
                        self.map.remove(&old);
                        crate::telemetry::counters::bump(&mut self.evictions);
                        break;
                    }
                }
            }
            if self.order.len() > self.map.len().saturating_mul(2).saturating_add(STALE_SLACK) {
                let map = &self.map;
                self.order.retain(|(stamp, k)| live(map, *stamp, k));
            }
            self.stamp = self.stamp.wrapping_add(1);
            self.order.push_back((self.stamp, key));
        }
        let stamp = self.stamp;
        self.map.entry(key).or_insert_with(|| Entry { stamp, msgs: Vec::new() }).msgs.push(msg);
    }

    /// Messages cached under `key` (empty slice if none).
    pub fn get(&self, key: &CacheKey) -> &[FhMessage] {
        self.map.get(key).map(|e| e.msgs.as_slice()).unwrap_or(&[])
    }

    /// Number of messages cached under `key`.
    pub fn count(&self, key: &CacheKey) -> usize {
        self.get(key).len()
    }

    /// Remove and return every message cached under `key`.
    pub fn take(&mut self, key: &CacheKey) -> Vec<FhMessage> {
        self.map.remove(key).map(|e| e.msgs).unwrap_or_default()
    }

    /// Iterate over the live keys (unspecified order).
    pub fn keys(&self) -> impl Iterator<Item = &CacheKey> {
        self.map.keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_fronthaul::bfp::CompressionMethod;
    use rb_fronthaul::cplane::{CPlaneRepr, SectionFields};
    use rb_fronthaul::eaxc::Eaxc;
    use rb_fronthaul::ether::EthernetAddress;
    use rb_fronthaul::msg::Body;
    use rb_fronthaul::timing::{Numerology, SymbolId};

    fn msg(port: u8) -> FhMessage {
        FhMessage::new(
            EthernetAddress::new(2, 0, 0, 0, 0, 1),
            EthernetAddress::new(2, 0, 0, 0, 0, 2),
            Eaxc::port(port),
            0,
            Body::CPlane(CPlaneRepr::single(
                Direction::Uplink,
                SymbolId::ZERO,
                CompressionMethod::BFP9,
                SectionFields::data(0, 0, 10, 1),
            )),
        )
    }

    fn key(port: u16, symbol: SymbolId) -> CacheKey {
        CacheKey {
            eaxc_raw: port,
            direction: Direction::Uplink,
            plane: Plane::U,
            filter: 0,
            symbol,
        }
    }

    #[test]
    fn insert_get_take() {
        let mut cache = SymbolCache::new(16);
        let k = key(3, SymbolId::ZERO);
        cache.insert(k, msg(3));
        cache.insert(k, msg(3));
        assert_eq!(cache.count(&k), 2);
        assert_eq!(cache.len(), 1);
        let taken = cache.take(&k);
        assert_eq!(taken.len(), 2);
        assert!(cache.is_empty());
        assert!(cache.get(&k).is_empty());
    }

    #[test]
    fn distinct_keys_are_separate() {
        let mut cache = SymbolCache::new(16);
        let s0 = SymbolId::ZERO;
        let s1 = s0.next(Numerology::Mu1);
        cache.insert(key(0, s0), msg(0));
        cache.insert(key(1, s0), msg(1));
        cache.insert(key(0, s1), msg(0));
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.count(&key(0, s0)), 1);
        assert_eq!(cache.count(&key(1, s1)), 0);
    }

    #[test]
    fn eviction_is_fifo_and_counted() {
        let mut cache = SymbolCache::new(2);
        let s = SymbolId::ZERO;
        cache.insert(key(0, s), msg(0));
        cache.insert(key(1, s), msg(1));
        cache.insert(key(2, s), msg(2)); // evicts key 0
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions, 1);
        assert_eq!(cache.count(&key(0, s)), 0);
        assert_eq!(cache.count(&key(1, s)), 1);
        assert_eq!(cache.count(&key(2, s)), 1);
    }

    #[test]
    fn eviction_skips_already_taken_keys() {
        let mut cache = SymbolCache::new(2);
        let s = SymbolId::ZERO;
        cache.insert(key(0, s), msg(0));
        cache.insert(key(1, s), msg(1));
        cache.take(&key(0, s));
        // Inserting a third key should evict the stale entry for key 0
        // from the order queue, not key 1.
        cache.insert(key(2, s), msg(2));
        assert_eq!(cache.count(&key(1, s)), 1);
        assert_eq!(cache.count(&key(2, s)), 1);
    }

    #[test]
    fn reinserted_key_is_the_newest_not_the_oldest() {
        // Regression: `take` left the key's queue entry behind, so once A
        // came back the stale front entry made a full cache evict A — the
        // newest key — instead of B.
        let mut cache = SymbolCache::new(2);
        let s = SymbolId::ZERO;
        let (a, b, c) = (key(0, s), key(1, s), key(2, s));
        cache.insert(a, msg(0));
        cache.take(&a);
        cache.insert(b, msg(1));
        cache.insert(a, msg(0));
        cache.insert(c, msg(2));
        assert_eq!(cache.evictions, 1);
        assert_eq!(cache.count(&b), 0, "B is the oldest live key");
        assert_eq!((cache.count(&a), cache.count(&c)), (1, 1));
    }

    #[test]
    fn bookkeeping_stays_bounded_under_insert_take_cycles() {
        // Regression: the DAS steady state (insert × N, take) grew the
        // order queue by one key per merged symbol, forever.
        let max_keys = 64;
        let mut cache = SymbolCache::new(max_keys);
        let pinned = key(99, SymbolId::ZERO); // a live key at the queue's front
        cache.insert(pinned, msg(0));
        let mut s = SymbolId::ZERO;
        for _ in 0..10 * max_keys {
            s = s.next(Numerology::Mu1);
            for _ru in 0..3 {
                cache.insert(key(0, s), msg(0));
            }
            assert_eq!(cache.take(&key(0, s)).len(), 3);
            assert!(cache.order.len() <= 2 * cache.len() + STALE_SLACK + 1, "queue leaks");
        }
        assert_eq!(cache.evictions, 0);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.count(&pinned), 1);
    }

    #[test]
    fn plane_and_direction_disambiguate() {
        let mut cache = SymbolCache::new(16);
        let base = key(0, SymbolId::ZERO);
        let cplane = CacheKey { plane: Plane::C, ..base };
        let downlink = CacheKey { direction: Direction::Downlink, ..base };
        let prach = CacheKey { filter: 1, ..base };
        cache.insert(base, msg(0));
        cache.insert(cplane, msg(0));
        cache.insert(downlink, msg(0));
        cache.insert(prach, msg(0));
        assert_eq!(cache.len(), 4);
    }
}
