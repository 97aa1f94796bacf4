//! The two map shapes behind every lookup the frame path makes per frame.
//!
//! * [`StreamMap`] holds per-stream state: the key is one stream id, a
//!   MAC and a raw eAxC packed into a `u64` ([`StreamKey`]), plus a
//!   direction tag. Use it for any map keyed by `(MAC, eAxC[, direction])`,
//!   by a MAC alone or by an eAxC alone that only ever gains keys: the
//!   pipeline's sequence state, the ARQ receiver's trackers, `SecMon`'s
//!   last sequence numbers and the city's routes. A lookup is one
//!   fold-multiply and a linear probe over slots that hold key and value
//!   together, so a hit usually reads one cache line.
//! * [`FrameMap`] is a std `HashMap` under [`FrameHasher`]. Use it where a
//!   map removes keys (`SymbolCache`, RU sharing's slot maps) or keys some
//!   other shape (symbols, tuples with more than a stream in them).
//!
//! std's default hasher, SipHash-1-3, costs tens of nanoseconds per lookup
//! on the short keys these maps use (a MAC, an eAxC id, a symbol).
//! [`FrameHasher`] folds each ≤ 8-byte word into its state with one
//! 64×64→128-bit multiply (low half XOR high half) and finishes with one
//! more fold. The keys come off the wire, so both shapes stay keyed: every
//! [`FrameState`], and so every map of either shape, draws its two 64-bit
//! keys from [`RandomState`], so no sender can precompute a collision for
//! another map, and each map keeps its own size bound.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

use rb_fronthaul::ether::EthernetAddress;
use rb_fronthaul::Direction;

/// A `HashMap` hashed by [`FrameHasher`] under keys of its own.
pub type FrameMap<K, V> = HashMap<K, V, FrameState>;

/// Builds [`FrameHasher`]s from two keys drawn once, when the map is made.
#[derive(Clone)]
pub struct FrameState {
    k0: u64,
    k1: u64,
}

impl Default for FrameState {
    fn default() -> FrameState {
        let keys = RandomState::new();
        FrameState { k0: keys.hash_one(0u8), k1: keys.hash_one(1u8) }
    }
}

impl BuildHasher for FrameState {
    type Hasher = FrameHasher;

    #[inline]
    fn build_hasher(&self) -> FrameHasher {
        FrameHasher { state: self.k0, k1: self.k1 }
    }
}

/// The low and high halves of `x × y`, XORed.
#[inline]
fn fold_mul(x: u64, y: u64) -> u64 {
    let m = u128::from(x).wrapping_mul(u128::from(y));
    let lo = u64::try_from(m & u128::from(u64::MAX)).unwrap_or_default();
    let hi = u64::try_from(m >> 64).unwrap_or_default();
    lo ^ hi
}

/// An odd constant with well-mixed bits (the digits of π).
const MUL: u64 = 0x243f_6a88_85a3_08d3;

/// One multiply per word written, one more to finish. std's integer
/// `write_*` hand their bytes to [`Hasher::write`], so each integer is one
/// word. Both methods are `#[inline]`: the maps are generic code in other
/// crates, and a call per word would cost more than the word.
pub struct FrameHasher {
    state: u64,
    k1: u64,
}

impl Hasher for FrameHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            if let Some(w) = word.get_mut(..chunk.len()) {
                w.copy_from_slice(chunk);
            }
            self.state = fold_mul(self.state ^ u64::from_le_bytes(word), MUL);
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        fold_mul(self.state, self.k1)
    }
}

/// One stream's key in a [`StreamMap`]: the 48-bit MAC and the 16-bit
/// raw eAxC id packed into one word, and a non-zero tag that tells the
/// directions of a directed stream apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamKey {
    id: u64,
    tag: u8,
}

/// The tag of a slot that holds no stream.
const EMPTY: u8 = 0;

impl StreamKey {
    /// The `(mac, eaxc_raw)` stream.
    #[inline]
    pub fn new(mac: EthernetAddress, eaxc_raw: u16) -> StreamKey {
        StreamKey { id: pack(mac, eaxc_raw), tag: 1 }
    }

    /// The `(mac, eaxc_raw)` stream in direction `dir`: downlink and
    /// uplink share an eAxC id but are independent streams.
    #[inline]
    pub fn directed(mac: EthernetAddress, eaxc_raw: u16, dir: Direction) -> StreamKey {
        let tag = match dir {
            Direction::Downlink => 2,
            Direction::Uplink => 3,
        };
        StreamKey { id: pack(mac, eaxc_raw), tag }
    }
}

/// `mac ‖ eaxc_raw`, big-endian: the MAC in the top 48 bits.
#[inline]
fn pack(mac: EthernetAddress, eaxc_raw: u16) -> u64 {
    let [a, b, c, d, e, f] = mac.0;
    let [x, y] = eaxc_raw.to_be_bytes();
    u64::from_be_bytes([a, b, c, d, e, f, x, y])
}

/// A slot: key and value side by side, so a hit reads one cache line. A
/// slot whose tag is [`EMPTY`] holds `V::default()`.
#[derive(Default)]
struct Slot<V> {
    id: u64,
    tag: u8,
    value: V,
}

/// Fewest slots of a table that holds anything.
const MIN_SLOTS: usize = 16;

/// Per-stream state under [`StreamKey`]s: an open-addressing table that
/// only grows (no key is ever removed), probed linearly from a keyed
/// one-multiply hash of the key, and kept at most half full. It allocates
/// nothing until the first insert; each map bounds its own length.
pub struct StreamMap<V> {
    slots: Vec<Slot<V>>,
    len: usize,
    // 64 − log2(slot count): shifts a hash down to a slot index.
    shift: u32,
    keys: FrameState,
}

impl<V: Default> Default for StreamMap<V> {
    fn default() -> StreamMap<V> {
        StreamMap { slots: Vec::new(), len: 0, shift: 64, keys: FrameState::default() }
    }
}

impl<V: Default> StreamMap<V> {
    /// Streams held.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no stream is held.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The state of `key`'s stream, if it has any.
    #[inline]
    pub fn find(&self, key: StreamKey) -> Option<&V> {
        match self.probe(key)? {
            Probe::Found(i) => self.slots.get(i).map(|s| &s.value),
            Probe::Vacant(_) => None,
        }
    }

    /// The state of `key`'s stream, mutably, if it has any.
    #[inline]
    pub fn find_mut(&mut self, key: StreamKey) -> Option<&mut V> {
        match self.probe(key)? {
            Probe::Found(i) => self.slots.get_mut(i).map(|s| &mut s.value),
            Probe::Vacant(_) => None,
        }
    }

    /// Set `key`'s state to `value`, returning the state it replaces.
    #[inline]
    pub fn insert(&mut self, key: StreamKey, value: V) -> Option<V> {
        if let Some(old) = self.find_mut(key) {
            return Some(std::mem::replace(old, value));
        }
        self.add(key, value);
        None
    }

    /// The state of `key`'s stream, made with `make` if it has none.
    /// `None` only if the table could not make room, which takes a
    /// table of more than `usize::MAX / 2` slots.
    #[inline]
    pub fn find_or_insert_with(
        &mut self,
        key: StreamKey,
        make: impl FnOnce() -> V,
    ) -> Option<&mut V> {
        let i = match self.probe(key) {
            Some(Probe::Found(i)) => i,
            _ => self.add(key, make())?,
        };
        self.slots.get_mut(i).map(|s| &mut s.value)
    }

    /// Every stream's state, in no particular order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().filter(|s| s.tag != EMPTY).map(|s| &s.value)
    }

    /// The slot `key` hashes to: one fold of the key word times itself,
    /// each side XORed with a key of the map's own, and the slot from the
    /// top bits. A key times a constant is linear in the key: a run of
    /// consecutive MACs lands on a lattice, and for some constants that
    /// lattice puts a flood on a third of the slots. The product of two
    /// keyed copies is not linear, and spreads a flood as a random function
    /// would. Each word shares its hash with one other, its XOR with both
    /// keys; without the keys a sender cannot name it, and it at most adds
    /// one key to a probe run. The tag goes into the word's top byte, which
    /// a MAC's first octet fills.
    #[inline]
    fn home(&self, key: StreamKey) -> usize {
        let word = key.id ^ u64::from(key.tag).rotate_right(8);
        let h = fold_mul(word ^ self.keys.k0, word ^ self.keys.k1);
        usize::try_from(h.wrapping_shr(self.shift)).unwrap_or_default()
    }

    /// Walk from `key`'s home slot to its own slot or the first empty one.
    /// `None` if the table has no slots.
    #[inline]
    fn probe(&self, key: StreamKey) -> Option<Probe> {
        let mask = self.slots.len().wrapping_sub(1);
        let mut i = self.home(key);
        for _ in 0..self.slots.len() {
            let slot = self.slots.get(i)?;
            if slot.tag == EMPTY {
                return Some(Probe::Vacant(i));
            }
            if slot.tag == key.tag && slot.id == key.id {
                return Some(Probe::Found(i));
            }
            i = i.wrapping_add(1) & mask;
        }
        None
    }

    /// Put a key that is not in the table into it and return its slot.
    /// If that would fill more than half the slots, first double them (to
    /// at least [`MIN_SLOTS`]) and re-place every stream.
    fn add(&mut self, key: StreamKey, value: V) -> Option<usize> {
        if self.slots.len() < self.len.saturating_add(1).saturating_mul(2) {
            let want = self.slots.len().checked_mul(2)?.max(MIN_SLOTS);
            let old = std::mem::take(&mut self.slots);
            self.slots.resize_with(want, Slot::default);
            self.shift = u64::BITS.saturating_sub(want.trailing_zeros());
            for slot in old.into_iter().filter(|s| s.tag != EMPTY) {
                let moved = StreamKey { id: slot.id, tag: slot.tag };
                if let Some(Probe::Vacant(i)) = self.probe(moved) {
                    if let Some(place) = self.slots.get_mut(i) {
                        *place = slot;
                    }
                }
            }
        }
        let Probe::Vacant(i) = self.probe(key)? else { return None };
        let slot = self.slots.get_mut(i)?;
        *slot = Slot { id: key.id, tag: key.tag, value };
        self.len = self.len.saturating_add(1);
        Some(i)
    }
}

/// Where a probe for a key stopped.
enum Probe {
    /// At the key's own slot.
    Found(usize),
    /// At the empty slot the key would take.
    Vacant(usize),
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_fronthaul::eaxc::{Eaxc, EaxcMapping};
    use rb_fronthaul::ether::EthernetAddress;
    use rb_fronthaul::Direction;

    #[test]
    fn each_state_hashes_a_key_its_own_way() {
        let key = (EthernetAddress::new(2, 0, 0, 0, 0, 1), 7u16, Direction::Uplink);
        let (a, b) = (FrameState::default(), FrameState::default());
        assert_eq!(a.hash_one(key), a.hash_one(key));
        assert_ne!(a.hash_one(key), b.hash_one(key));
    }

    #[test]
    fn a_source_mac_flood_spreads_over_buckets_and_control_bytes() {
        // The first 65 536 keys of the pipeline's rx-seq flood test: fresh
        // source MACs, one eAxC, one direction.
        let state = FrameState::default();
        let eaxc = Eaxc::port(0).pack(&EaxcMapping::DEFAULT);
        let mut low = vec![false; 1 << 16];
        let mut top = [false; 128];
        for k in 0u32..1 << 16 {
            let k = k.to_be_bytes();
            let mac = EthernetAddress::new(6, 0, k[0], k[1], k[2], k[3]);
            let h = state.hash_one((mac, eaxc, Direction::Downlink));
            low[(h & 0xffff) as usize] = true;
            top[(h >> 57) as usize] = true;
        }
        let distinct = low.iter().filter(|&&seen| seen).count();
        // A random function fills 1 − 1/e ≈ 63 % of the buckets.
        assert!(distinct * 10 >= 6 << 16, "{distinct} distinct low-16-bit values");
        assert!(top.iter().all(|&seen| seen), "every top-7-bit value");
    }

    /// The pipeline's rx-seq flood keys: fresh source MACs, one eAxC, one
    /// direction.
    fn flood_keys(n: u32) -> impl Iterator<Item = StreamKey> {
        let eaxc = Eaxc::port(0).pack(&EaxcMapping::DEFAULT);
        (0..n).map(move |k| {
            let k = k.to_be_bytes();
            let mac = EthernetAddress::new(6, 0, k[0], k[1], k[2], k[3]);
            StreamKey::directed(mac, eaxc, Direction::Downlink)
        })
    }

    /// Longest probe run the flood may leave: slots visited to find a key,
    /// its home slot included. Linear probing at load ½ has an expected
    /// successful search of 1.5 slots; over these 65 536 keys the longest
    /// read 21–29 in ten runs, each map with keys of its own.
    const FLOOD_PROBE_MAX: usize = 64;

    #[test]
    fn a_source_mac_flood_spreads_over_stream_map_slots() {
        let mut map = StreamMap::default();
        for (n, key) in flood_keys(1 << 16).enumerate() {
            assert_eq!(map.insert(key, n), None);
        }
        assert_eq!(map.len(), 1 << 16);
        assert_eq!(map.slots.len(), 1 << 17, "at most half full");
        let mask = map.slots.len() - 1;
        let mut low = vec![false; 1 << 16];
        let mut top = [false; 128];
        let mut longest = 0;
        for (n, key) in flood_keys(1 << 16).enumerate() {
            let home = map.home(key);
            low[home & 0xffff] = true;
            top[home >> 10] = true;
            let Some(Probe::Found(at)) = map.probe(key) else { panic!("key {n} lost") };
            assert_eq!(map.slots[at].value, n);
            longest = longest.max(at.wrapping_sub(home) & mask);
        }
        let distinct = low.iter().filter(|&&seen| seen).count();
        // A random function fills 1 − 1/e ≈ 63 % of the buckets.
        assert!(distinct * 10 >= 6 << 16, "{distinct} distinct low-16-bit home slots");
        assert!(top.iter().all(|&seen| seen), "every top-7-bit home slot");
        let longest = longest + 1;
        assert!(longest <= FLOOD_PROBE_MAX, "longest probe run {longest} slots");
    }

    #[test]
    fn frame_map_round_trips() {
        let mut map: FrameMap<(EthernetAddress, u16), u8> = FrameMap::default();
        for k in 0..=255u8 {
            map.insert((EthernetAddress::new(2, 0, 0, 0, 0, k), u16::from(k)), k);
        }
        assert_eq!(map.len(), 256);
        for k in 0..=255u8 {
            let key = (EthernetAddress::new(2, 0, 0, 0, 0, k), u16::from(k));
            assert_eq!(map.get(&key), Some(&k));
            assert_eq!(map.remove(&key), Some(k));
        }
        assert!(map.is_empty());
    }
}
