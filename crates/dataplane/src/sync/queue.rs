//! The bounded multi-producer multi-consumer queue under the rings and
//! the loopback backend: Dmitry Vyukov's bounded array queue.
//!
//! One stamp per slot says which lap may touch it next: a slot whose stamp
//! equals `tail` is empty and may be written, one whose stamp equals
//! `head + 1` holds a value and may be read. `head` and `tail` carry the
//! slot index below `one_lap` and the lap count at and above it, so a
//! stamp from last lap never matches this lap's index. Each push or pop
//! claims its slot with one CAS on `tail` or `head`, then hands the slot
//! on with one Release store of its stamp.
//!
//! This is the crate's one module of lock-free `unsafe`: a slot's value is
//! an `UnsafeCell<MaybeUninit<T>>`, written by the push that won its slot
//! and read by the pop that won it. Every index is a `get`, every counter
//! step a `wrapping_*`, so the hot-path lint grants exactly the two
//! `unsafe` blocks and the `SeqCst` operations of `push` and `pop`.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{self, AtomicUsize, Ordering};

/// Keeps head and tail on separate cache lines.
#[repr(align(128))]
struct CachePadded<T>(T);

struct Slot<T> {
    /// `tail` value at which this slot may be written, or `head + 1`
    /// value at which it may be read.
    stamp: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// A bounded multi-producer multi-consumer queue.
pub struct ArrayQueue<T> {
    head: CachePadded<AtomicUsize>,
    tail: CachePadded<AtomicUsize>,
    buffer: Box<[Slot<T>]>,
    /// A power of two above the capacity: `head`/`tail` hold the slot
    /// index below this bit and the lap count at and above it.
    one_lap: usize,
}

// SAFETY: values of `T` move between threads through the queue, which
// needs `T: Send`; the slots are only touched under the stamp protocol,
// so sharing the queue itself adds no requirement on `T`.
unsafe impl<T: Send> Send for ArrayQueue<T> {}
// SAFETY: as above.
unsafe impl<T: Send> Sync for ArrayQueue<T> {}

impl<T> ArrayQueue<T> {
    /// A queue holding at most `cap` elements.
    ///
    /// # Panics
    /// If `cap` is zero.
    pub fn new(cap: usize) -> ArrayQueue<T> {
        assert!(cap > 0, "capacity must be non-zero");
        let buffer: Box<[Slot<T>]> = (0..cap)
            .map(|i| Slot {
                stamp: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        ArrayQueue {
            head: CachePadded(AtomicUsize::new(0)),
            tail: CachePadded(AtomicUsize::new(0)),
            buffer,
            one_lap: cap.saturating_add(1).next_power_of_two(),
        }
    }

    /// Enqueue `value`.
    ///
    /// # Errors
    /// Hands `value` back if the queue is full.
    pub fn push(&self, value: T) -> Result<(), T> {
        let mask = self.one_lap.wrapping_sub(1);
        let mut spins = 0u32;
        let mut tail = self.tail.0.load(Ordering::Relaxed);
        loop {
            let index = tail & mask;
            let lap = tail & !mask;
            let new_tail = if index.wrapping_add(1) < self.buffer.len() {
                tail.wrapping_add(1)
            } else {
                lap.wrapping_add(self.one_lap)
            };
            // `index` is below the length: `tail` only ever takes the
            // values computed above.
            let Some(slot) = self.buffer.get(index) else { return Err(value) };
            let stamp = slot.stamp.load(Ordering::Acquire);
            if tail == stamp {
                match self.tail.0.compare_exchange_weak(
                    tail,
                    new_tail,
                    Ordering::SeqCst,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the stamp equalled `tail`, so the slot is
                        // empty, and winning the CAS on `tail` makes this
                        // thread its only writer until the stamp store
                        // below publishes it to readers.
                        unsafe { slot.value.get().write(MaybeUninit::new(value)) };
                        slot.stamp.store(tail.wrapping_add(1), Ordering::Release);
                        return Ok(());
                    }
                    Err(t) => {
                        tail = t;
                        backoff(&mut spins);
                    }
                }
            } else if stamp.wrapping_add(self.one_lap) == tail.wrapping_add(1) {
                // The slot still holds last lap's value: full, unless a pop
                // is in flight.
                atomic::fence(Ordering::SeqCst);
                let head = self.head.0.load(Ordering::Relaxed);
                if head.wrapping_add(self.one_lap) == tail {
                    return Err(value);
                }
                backoff(&mut spins);
                tail = self.tail.0.load(Ordering::Relaxed);
            } else {
                // Another push claimed the slot and has not stamped it yet.
                backoff(&mut spins);
                tail = self.tail.0.load(Ordering::Relaxed);
            }
        }
    }

    /// Dequeue the oldest element, or `None` if the queue is empty.
    pub fn pop(&self) -> Option<T> {
        let mask = self.one_lap.wrapping_sub(1);
        let mut spins = 0u32;
        let mut head = self.head.0.load(Ordering::Relaxed);
        loop {
            let index = head & mask;
            let lap = head & !mask;
            // `index` is below the length, as in `push`.
            let slot = self.buffer.get(index)?;
            let stamp = slot.stamp.load(Ordering::Acquire);
            if head.wrapping_add(1) == stamp {
                let new_head = if index.wrapping_add(1) < self.buffer.len() {
                    head.wrapping_add(1)
                } else {
                    lap.wrapping_add(self.one_lap)
                };
                match self.head.0.compare_exchange_weak(
                    head,
                    new_head,
                    Ordering::SeqCst,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the stamp equalled `head + 1`, which only
                        // a completed push stores (with Release, read above
                        // with Acquire), so the slot is initialised; winning
                        // the CAS on `head` makes this thread its only
                        // reader, and the stamp store below hands it to next
                        // lap's writer.
                        let value = unsafe { (*slot.value.get()).assume_init_read() };
                        slot.stamp.store(head.wrapping_add(self.one_lap), Ordering::Release);
                        return Some(value);
                    }
                    Err(h) => {
                        head = h;
                        backoff(&mut spins);
                    }
                }
            } else if stamp == head {
                // Nothing written this lap: empty, unless a push is in
                // flight.
                atomic::fence(Ordering::SeqCst);
                let tail = self.tail.0.load(Ordering::Relaxed);
                if tail == head {
                    return None;
                }
                backoff(&mut spins);
                head = self.head.0.load(Ordering::Relaxed);
            } else {
                backoff(&mut spins);
                head = self.head.0.load(Ordering::Relaxed);
            }
        }
    }

    /// True when nothing is queued: a snapshot, which other threads may
    /// move. Its callers read it after an Acquire load of a closed flag
    /// that the pushing side stores with Release after its last push, so
    /// every push and pop before the close is visible to these loads.
    pub fn is_empty(&self) -> bool {
        let head = self.head.0.load(Ordering::Acquire);
        let tail = self.tail.0.load(Ordering::Acquire);
        tail == head
    }
}

/// Spin briefly, then give the core away: a stalled peer holds the slot
/// we wait for.
fn backoff(spins: &mut u32) {
    if *spins < 6 {
        for _ in 0..1u32.wrapping_shl(*spins) {
            std::hint::spin_loop();
        }
    } else {
        std::thread::yield_now();
    }
    *spins = spins.saturating_add(1);
}

impl<T> Drop for ArrayQueue<T> {
    fn drop(&mut self) {
        while self.pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::ArrayQueue;
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::sync::Arc;
    use std::time::Duration;

    /// Values pushed by the threaded tests: Miri interprets every atomic
    /// step, so it runs a few hundred.
    const N: u64 = if cfg!(miri) { 300 } else { 200_000 };

    /// How long a test body may run. A broken stamp or lap step makes
    /// `push` or `pop` spin forever, so each body runs on a thread of its
    /// own and a hang fails here instead of stalling the suite. Natively
    /// the slowest body takes well under a second. Miri runs isolated, on
    /// a clock that advances with the instructions it interprets, and its
    /// bodies push 300 values, not 200 000.
    const DEADLINE: Duration = Duration::from_secs(if cfg!(miri) { 5 } else { 20 });

    /// Run `body` on a thread of its own and fail unless it finishes within
    /// [`DEADLINE`]; a panic in `body` is re-raised here.
    fn finishes_within_deadline(body: impl FnOnce() + Send + 'static) {
        let (done, finished) = mpsc::channel();
        let runner = std::thread::spawn(move || {
            body();
            // The receiver is gone only if the deadline already failed.
            let _ = done.send(());
        });
        match finished.recv_timeout(DEADLINE) {
            Ok(()) => runner.join().unwrap(),
            Err(RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(runner.join().unwrap_err())
            }
            Err(RecvTimeoutError::Timeout) => {
                panic!("the test body did not finish within {DEADLINE:?}: push or pop spins")
            }
        }
    }

    /// Push `v`, yielding while the queue is full.
    fn push_spin(q: &ArrayQueue<u64>, mut v: u64) {
        while let Err(back) = q.push(v) {
            v = back;
            std::thread::yield_now();
        }
    }

    #[test]
    fn fifo_full_and_empty() {
        finishes_within_deadline(fifo_full_and_empty_body);
    }

    fn fifo_full_and_empty_body() {
        let q = ArrayQueue::new(3);
        assert!(q.is_empty());
        for k in 0..3 {
            assert_eq!(q.push(k), Ok(()));
        }
        assert_eq!(q.push(9), Err(9));
        assert!(!q.is_empty());
        assert_eq!((q.pop(), q.pop(), q.pop(), q.pop()), (Some(0), Some(1), Some(2), None));
        // Several laps, so index wrap and lap arithmetic both run.
        for k in 0..50 {
            assert_eq!(q.push(k), Ok(()));
            assert!(!q.is_empty());
            assert_eq!(q.pop(), Some(k));
            assert!(q.is_empty());
        }
    }

    #[test]
    fn drops_what_is_left() {
        let marker = Arc::new(());
        let q = ArrayQueue::new(4);
        q.push(Arc::clone(&marker)).unwrap();
        q.push(Arc::clone(&marker)).unwrap();
        drop(q);
        assert_eq!(Arc::strong_count(&marker), 1);
    }

    #[test]
    fn two_threads_lose_and_duplicate_nothing() {
        finishes_within_deadline(two_threads_lose_and_duplicate_nothing_body);
    }

    fn two_threads_lose_and_duplicate_nothing_body() {
        let q = Arc::new(ArrayQueue::new(64));
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || (0..N).for_each(|k| push_spin(&q, k)))
        };
        let mut next = 0u64;
        while next < N {
            match q.pop() {
                Some(v) => {
                    assert_eq!(v, next, "single producer, single consumer: strict FIFO");
                    next += 1;
                }
                None => std::thread::yield_now(),
            }
        }
        producer.join().unwrap();
        assert!(q.is_empty());
    }

    /// The ring's shape: its producer sheds the oldest entry when the
    /// queue is full, so two threads pop while one pushes. Every value
    /// comes out exactly once, and each popper sees it in push order.
    #[test]
    fn a_shedding_pusher_and_a_popper_each_see_every_value_once_in_order() {
        finishes_within_deadline(a_shedding_pusher_and_a_popper_body);
    }

    fn a_shedding_pusher_and_a_popper_body() {
        let q = Arc::new(ArrayQueue::new(8));
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut shed = Vec::new();
                for k in 0..N {
                    let mut v = k;
                    while let Err(back) = q.push(v) {
                        v = back;
                        shed.extend(q.pop());
                    }
                }
                shed
            })
        };
        let mut popped = Vec::new();
        while !producer.is_finished() || !q.is_empty() {
            match q.pop() {
                Some(v) => popped.push(v),
                None => std::thread::yield_now(),
            }
        }
        let shed = producer.join().unwrap();
        popped.extend(std::iter::from_fn(|| q.pop()));
        for seen in [&shed, &popped] {
            assert!(seen.windows(2).all(|w| w[0] < w[1]), "each popper sees push order");
        }
        let mut all = [shed, popped].concat();
        all.sort_unstable();
        assert!(all.iter().copied().eq(0..N), "every value exactly once");
    }
}
