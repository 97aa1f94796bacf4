//! Offline stand-in for the two `crossbeam` items the measured workspace
//! uses: [`queue::ArrayQueue`] (rings and buffer pools — on the packet
//! path) and [`channel::bounded`] (telemetry — off it, the benchmark runs
//! with telemetry disconnected).
//!
//! `ArrayQueue` is the same algorithm as the published crate's (Vyukov's
//! bounded MPMC queue: one stamp per slot, head and tail carrying a lap
//! count above the index bits), so ring hops and pool recycles cost here
//! what they cost there. The channel is a mutex around a `VecDeque`; it
//! only has to exist.

pub mod queue {
    use std::cell::UnsafeCell;
    use std::fmt;
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
        /// A power of two above `capacity`: `head`/`tail` hold the slot
        /// index below this bit and the lap count at and above it.
        one_lap: usize,
    }

    // SAFETY: values of `T` move between threads through the queue, which
    // needs `T: Send`; the slots are only touched under the stamp protocol
    // below, so sharing the queue itself adds no requirement on `T`.
    unsafe impl<T: Send> Send for ArrayQueue<T> {}
    // SAFETY: as above.
    unsafe impl<T: Send> Sync for ArrayQueue<T> {}

    impl<T> ArrayQueue<T> {
        /// A queue holding at most `cap` elements. Panics if `cap == 0`.
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
                one_lap: (cap + 1).next_power_of_two(),
            }
        }

        /// Enqueue `value`, or hand it back if the queue is full.
        pub fn push(&self, value: T) -> Result<(), T> {
            let mut spins = 0u32;
            let mut tail = self.tail.0.load(Ordering::Relaxed);
            loop {
                let index = tail & (self.one_lap - 1);
                let lap = tail & !(self.one_lap - 1);
                let new_tail =
                    if index + 1 < self.buffer.len() { tail + 1 } else { lap.wrapping_add(self.one_lap) };
                let slot = &self.buffer[index];
                let stamp = slot.stamp.load(Ordering::Acquire);
                if tail == stamp {
                    match self.tail.0.compare_exchange_weak(
                        tail,
                        new_tail,
                        Ordering::SeqCst,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            // SAFETY: the stamp equalled `tail`, so the
                            // slot is empty, and winning the CAS on `tail`
                            // makes this thread its only writer until the
                            // stamp store below publishes it to readers.
                            unsafe { slot.value.get().write(MaybeUninit::new(value)) };
                            slot.stamp.store(tail + 1, Ordering::Release);
                            return Ok(());
                        }
                        Err(t) => {
                            tail = t;
                            backoff(&mut spins);
                        }
                    }
                } else if stamp.wrapping_add(self.one_lap) == tail + 1 {
                    // The slot still holds last lap's value: full, unless
                    // a pop is in flight.
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
            let mut spins = 0u32;
            let mut head = self.head.0.load(Ordering::Relaxed);
            loop {
                let index = head & (self.one_lap - 1);
                let lap = head & !(self.one_lap - 1);
                let slot = &self.buffer[index];
                let stamp = slot.stamp.load(Ordering::Acquire);
                if head + 1 == stamp {
                    let new_head = if index + 1 < self.buffer.len() {
                        head + 1
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
                            // SAFETY: the stamp equalled `head + 1`, which
                            // only a completed push stores, so the slot is
                            // initialised; winning the CAS on `head` makes
                            // this thread its only reader, and the stamp
                            // store below hands it to next lap's writer.
                            let value = unsafe { slot.value.get().read().assume_init() };
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

        /// The capacity the queue was built with.
        pub fn capacity(&self) -> usize {
            self.buffer.len()
        }

        /// Elements queued now (a snapshot; other threads may move it).
        pub fn len(&self) -> usize {
            loop {
                let tail = self.tail.0.load(Ordering::SeqCst);
                let head = self.head.0.load(Ordering::SeqCst);
                if self.tail.0.load(Ordering::SeqCst) != tail {
                    continue;
                }
                let hix = head & (self.one_lap - 1);
                let tix = tail & (self.one_lap - 1);
                return if hix < tix {
                    tix - hix
                } else if hix > tix {
                    self.buffer.len() - hix + tix
                } else if tail == head {
                    0
                } else {
                    self.buffer.len()
                };
            }
        }

        /// True when nothing is queued.
        pub fn is_empty(&self) -> bool {
            let head = self.head.0.load(Ordering::SeqCst);
            let tail = self.tail.0.load(Ordering::SeqCst);
            tail == head
        }

        /// True when `capacity` elements are queued.
        pub fn is_full(&self) -> bool {
            let tail = self.tail.0.load(Ordering::SeqCst);
            let head = self.head.0.load(Ordering::SeqCst);
            head.wrapping_add(self.one_lap) == tail
        }
    }

    /// Spin briefly, then give the core away: a stalled peer holds the
    /// slot we wait for.
    fn backoff(spins: &mut u32) {
        if *spins < 6 {
            for _ in 0..(1u32 << *spins) {
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

    impl<T> fmt::Debug for ArrayQueue<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.pad("ArrayQueue { .. }")
        }
    }

    #[cfg(test)]
    mod tests {
        use super::ArrayQueue;
        use std::sync::Arc;

        #[test]
        fn fifo_full_and_empty() {
            let q = ArrayQueue::new(3);
            assert!(q.is_empty());
            for k in 0..3 {
                assert_eq!(q.push(k), Ok(()));
            }
            assert!(q.is_full());
            assert_eq!(q.push(9), Err(9));
            assert_eq!(q.len(), 3);
            assert_eq!((q.pop(), q.pop(), q.pop(), q.pop()), (Some(0), Some(1), Some(2), None));
            // Several laps, so index wrap and lap arithmetic both run.
            for k in 0..50 {
                assert_eq!(q.push(k), Ok(()));
                assert_eq!(q.len(), 1);
                assert_eq!(q.pop(), Some(k));
            }
            assert_eq!(q.capacity(), 3);
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
            const N: u64 = 200_000;
            let q = Arc::new(ArrayQueue::new(64));
            let producer = {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for k in 0..N {
                        let mut v = k;
                        while let Err(back) = q.push(v) {
                            v = back;
                            std::thread::yield_now();
                        }
                    }
                })
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
    }
}

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Mutex, PoisonError};

    struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        cap: usize,
    }

    /// The sending half; cloning shares the channel.
    pub struct Sender<T>(Arc<Shared<T>>);
    /// The receiving half.
    pub struct Receiver<T>(Arc<Shared<T>>);

    /// `try_send` found the channel full; the message comes back.
    #[derive(Debug)]
    pub struct TrySendError<T>(pub T);
    /// `try_recv` found the channel empty.
    #[derive(Debug)]
    pub struct TryRecvError;

    /// A channel holding at most `cap` messages.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared { queue: Mutex::new(VecDeque::new()), cap });
        (Sender(Arc::clone(&shared)), Receiver(shared))
    }

    impl<T> Sender<T> {
        /// Enqueue without blocking.
        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            // A poisoned lock only means a peer panicked mid-push/pop of a
            // VecDeque, which leaves it valid.
            let mut q = self.0.queue.lock().unwrap_or_else(PoisonError::into_inner);
            if q.len() >= self.0.cap {
                return Err(TrySendError(msg));
            }
            q.push_back(msg);
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Dequeue without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut q = self.0.queue.lock().unwrap_or_else(PoisonError::into_inner);
            q.pop_front().ok_or(TryRecvError)
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            Sender(Arc::clone(&self.0))
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.pad("Sender { .. }")
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.pad("Receiver { .. }")
        }
    }
}
