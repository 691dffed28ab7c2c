//! A bounded MPMC work queue with a shutdown signal.
//!
//! The serving layer (`bcc-serve`) needs one ingredient the SPMD
//! [`Pool`](crate::Pool) deliberately does not provide: a
//! multi-producer multi-consumer channel where *independent* threads
//! pull work items at their own pace — each shard's writer draining
//! its edge updates, the migration coordinator draining cross-shard
//! inserts. [`MpmcQueue`] is that channel:
//!
//! * **Bounded.** [`push`](MpmcQueue::push) blocks while the queue is
//!   at capacity, which is exactly the backpressure a closed-loop
//!   driver wants; [`try_push`](MpmcQueue::try_push) refuses instead.
//! * **Shutdown as data.** [`close`](MpmcQueue::close) marks the queue
//!   closed and wakes every sleeper. Producers fail fast from then on;
//!   consumers first drain what was already queued, then observe the
//!   close ([`pop`](MpmcQueue::pop) returns `None`). A worker loop is
//!   simply `while let Some(job) = q.pop() { ... }` — no sentinel
//!   items, no poison values.
//! * **Timed waits.** [`pop_timeout`](MpmcQueue::pop_timeout) lets a
//!   batching consumer (the serve writer thread) wait *up to* its
//!   flush deadline and distinguish "nothing yet" from "closed".
//!
//! The implementation is a `Mutex<VecDeque>` with two condvars — the
//! textbook bounded buffer. For the serve workloads the critical
//! section is push/pop of one small item, so the lock hold time is
//! tens of nanoseconds; fairness and simplicity beat a lock-free ring
//! here, and the queue never touches the SPMD barrier machinery.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why a [`MpmcQueue::try_push`] refused an item. Carrying the item
/// back distinguishes "no room right now" (retry, shed, or block) from
/// "closed forever" (give up) — the serving layer's admission control
/// needs that distinction to hand producers a typed rejection instead
/// of a silent drop.
#[derive(Debug, PartialEq, Eq)]
pub enum TryPushError<T> {
    /// The queue is at capacity; the item comes back unqueued.
    Full(T),
    /// The queue is closed; no push will ever succeed again.
    Closed(T),
}

impl<T> TryPushError<T> {
    /// The refused item, whichever way it was refused.
    pub fn into_item(self) -> T {
        match self {
            TryPushError::Full(t) | TryPushError::Closed(t) => t,
        }
    }
}

/// Result of a [`MpmcQueue::pop_timeout`] call.
#[derive(Debug, PartialEq, Eq)]
pub enum PopResult<T> {
    /// An item was dequeued.
    Item(T),
    /// The timeout elapsed with the queue still open and empty.
    TimedOut,
    /// The queue is closed and fully drained; no item will ever come.
    Closed,
}

impl<T> PopResult<T> {
    /// The dequeued item, if any.
    pub fn item(self) -> Option<T> {
        match self {
            PopResult::Item(t) => Some(t),
            _ => None,
        }
    }
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer queue with close-to-shutdown
/// semantics (see the [module docs](self)).
pub struct MpmcQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl<T> MpmcQueue<T> {
    /// A queue holding at most `capacity` items (`capacity >= 1`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "queue capacity must be at least 1");
        MpmcQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity.min(1 << 16)),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    /// The capacity this queue was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().items.len()
    }

    /// True when nothing is queued (items may arrive right after).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True once [`close`](MpmcQueue::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().unwrap().closed
    }

    /// Enqueues `item`, blocking while the queue is full. Returns the
    /// item back as `Err` if the queue is (or becomes) closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut inner = self.inner.lock().unwrap();
        while !inner.closed && inner.items.len() >= self.capacity {
            inner = self.not_full.wait(inner).unwrap();
        }
        if inner.closed {
            return Err(item);
        }
        inner.items.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Enqueues `item` only if there is room right now; returns the
    /// item back inside a [`TryPushError`] saying *why* it was refused
    /// — full (transient) or closed (final).
    pub fn try_push(&self, item: T) -> Result<(), TryPushError<T>> {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return Err(TryPushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(TryPushError::Full(item));
        }
        inner.items.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues the oldest item, blocking while the queue is open and
    /// empty. Returns `None` only when the queue is closed *and*
    /// drained — items enqueued before the close are always delivered.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(item) = inner.items.pop_front() {
                drop(inner);
                self.not_full.notify_one();
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).unwrap();
        }
    }

    /// Like [`pop`](MpmcQueue::pop), but waits at most `timeout`.
    pub fn pop_timeout(&self, timeout: Duration) -> PopResult<T> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(item) = inner.items.pop_front() {
                drop(inner);
                self.not_full.notify_one();
                return PopResult::Item(item);
            }
            if inner.closed {
                return PopResult::Closed;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return PopResult::TimedOut;
            }
            let (guard, res) = self.not_empty.wait_timeout(inner, left).unwrap();
            inner = guard;
            if res.timed_out() && inner.items.is_empty() && !inner.closed {
                return PopResult::TimedOut;
            }
        }
    }

    /// Closes the queue and wakes every blocked producer and consumer.
    /// Already-queued items remain poppable; further pushes fail.
    /// Idempotent.
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_within_capacity() {
        let q = MpmcQueue::new(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert!(q.is_empty());
    }

    #[test]
    fn try_push_refuses_when_full() {
        let q = MpmcQueue::new(2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.try_push(3), Err(TryPushError::Full(3)));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_push(3), Ok(()));
    }

    #[test]
    fn try_push_distinguishes_full_from_closed() {
        let q = MpmcQueue::new(1);
        q.push(1).unwrap();
        assert_eq!(q.try_push(2), Err(TryPushError::Full(2)));
        q.close();
        assert_eq!(q.try_push(2), Err(TryPushError::Closed(2)));
        assert_eq!(TryPushError::Full(7).into_item(), 7);
        assert_eq!(TryPushError::Closed(8).into_item(), 8);
    }

    #[test]
    fn close_drains_then_signals() {
        let q = MpmcQueue::new(4);
        q.push(7).unwrap();
        q.close();
        assert!(q.is_closed());
        assert_eq!(q.push(8), Err(8));
        // The pre-close item is still delivered; then None forever.
        assert_eq!(q.pop(), Some(7));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), PopResult::Closed);
    }

    #[test]
    fn pop_timeout_times_out_when_open_and_empty() {
        let q: MpmcQueue<u32> = MpmcQueue::new(1);
        let t0 = Instant::now();
        assert_eq!(
            q.pop_timeout(Duration::from_millis(10)),
            PopResult::TimedOut
        );
        assert!(t0.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn close_wakes_blocked_consumers_and_producers() {
        let q = Arc::new(MpmcQueue::new(1));
        q.push(0u32).unwrap();
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                // Drain the one item, then block until close.
                let mut got = Vec::new();
                while let Some(x) = q.pop() {
                    got.push(x);
                }
                got
            })
        };
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                // Capacity 1 and maybe full: this either lands or is
                // refused at close; both terminate.
                q.push(1).is_ok()
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        let got = consumer.join().unwrap();
        let pushed = producer.join().unwrap();
        assert_eq!(got.len(), if pushed { 2 } else { 1 });
    }

    #[test]
    fn many_producers_many_consumers_deliver_exactly_once() {
        const PRODUCERS: usize = 3;
        const CONSUMERS: usize = 3;
        const PER: u64 = 500;
        let q = Arc::new(MpmcQueue::new(8));
        let mut handles = Vec::new();
        for p in 0..PRODUCERS as u64 {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..PER {
                    q.push(p * PER + i).unwrap();
                }
                0u64
            }));
        }
        let mut consumers = Vec::new();
        for _ in 0..CONSUMERS {
            let q = Arc::clone(&q);
            consumers.push(std::thread::spawn(move || {
                let mut sum = 0u64;
                let mut count = 0u64;
                while let Some(x) = q.pop() {
                    sum += x;
                    count += 1;
                }
                (sum, count)
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        q.close();
        let (mut sum, mut count) = (0u64, 0u64);
        for c in consumers {
            let (s, n) = c.join().unwrap();
            sum += s;
            count += n;
        }
        let total = PRODUCERS as u64 * PER;
        assert_eq!(count, total);
        assert_eq!(sum, total * (total - 1) / 2);
    }
}
