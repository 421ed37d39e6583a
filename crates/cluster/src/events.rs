//! A generic discrete-event queue: (time, insertion order, event), popped
//! in time order with FIFO tie-breaking so simulations are deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    time: f64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so the earliest time pops first;
        // among equal times, the earliest-scheduled event pops first.
        other
            .time
            .partial_cmp(&self.time)
            .expect("event times must not be NaN")
            .then(other.seq.cmp(&self.seq))
    }
}

/// Time-ordered event queue.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Schedule `event` at absolute time `time`.
    pub fn push(&mut self, time: f64, event: E) {
        assert!(time.is_finite(), "event time must be finite, got {time}");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Pop the earliest event, returning `(time, event)`.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, "c");
        q.push(1.0, "a");
        q.push(2.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        q.push(1.0, 1);
        q.push(1.0, 2);
        q.push(1.0, 3);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    /// A pushed event stays queued until it is popped.
    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(5.0, ());
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_time() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, ());
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = EventQueue::new();
        q.push(2.0, "b");
        assert_eq!(q.pop(), Some((2.0, "b")));
        q.push(1.0, "a");
        q.push(3.0, "c");
        assert_eq!(q.pop(), Some((1.0, "a")));
        q.push(0.5, "z"); // scheduling "in the past" is the caller's business
        assert_eq!(q.pop(), Some((0.5, "z")));
        assert_eq!(q.pop(), Some((3.0, "c")));
    }
}
