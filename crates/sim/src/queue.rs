//! Deterministic time-ordered event queue.

use crate::hash::FastHashMap;
use crate::time::Time;

/// Heap fan-out (children per node).
const ARITY: usize = 4;

/// A time-ordered priority queue of simulation events.
///
/// Events scheduled for the same instant are delivered in the order they
/// were pushed (stable FIFO tie-breaking), which makes simulations
/// deterministic regardless of heap internals.
///
/// # Layout
///
/// The queue is a bucket queue: a 4-ary min-heap over the *distinct*
/// pending timestamps, each owning a FIFO bucket of payloads. Simulated
/// hardware schedules many events at the same instant (same-cycle core
/// issues, simultaneous NoC arrivals), so the heap — the only
/// logarithmic part — sees one entry per instant rather than one per
/// event; same-instant pushes and pops are an append / a cursor bump on
/// the front bucket. Buckets recycle through a free-list and a
/// time→bucket map finds the append point, so steady-state churn
/// touches no allocator. FIFO order within a bucket *is* push order,
/// which makes delivery exactly `(time, push sequence)` ordered without
/// storing a sequence number per event.
///
/// The payload type `E` carries the event itself; it needs no ordering of
/// its own.
///
/// # Examples
///
/// ```
/// use emcc_sim::{EventQueue, Time};
///
/// #[derive(Debug, PartialEq)]
/// enum Ev { DramDone, NocArrive }
///
/// let mut q = EventQueue::new();
/// q.push(Time::from_ns(30), Ev::DramDone);
/// q.push(Time::from_ns(8), Ev::NocArrive);
/// let (t, ev) = q.pop().unwrap();
/// assert_eq!((t, ev), (Time::from_ns(8), Ev::NocArrive));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// 4-ary min-heap of `(distinct time, bucket index)`; `heap[0]` is
    /// the earliest pending instant.
    heap: Vec<(Time, u32)>,
    /// Pending instant → index of its bucket in `buckets`.
    index: FastHashMap<Time, u32>,
    /// Bucket slab; live entries are referenced by `heap`/`index`.
    buckets: Vec<Bucket<E>>,
    /// Recycled slab indices (LIFO keeps recently-touched buckets hot).
    free: Vec<u32>,
    /// Pending event count across all buckets.
    len: usize,
}

/// FIFO of same-instant payloads: a vector with a consume cursor, so a
/// drained bucket resets to its full capacity for reuse.
#[derive(Debug)]
struct Bucket<E> {
    items: Vec<E>,
    head: usize,
}

impl<E> Bucket<E> {
    fn new() -> Self {
        Bucket {
            items: Vec::new(),
            head: 0,
        }
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            index: FastHashMap::default(),
            buckets: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Creates an empty queue with pre-allocated capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: Vec::with_capacity(capacity),
            index: FastHashMap::default(),
            buckets: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            len: 0,
        }
    }

    /// Schedules `payload` for delivery at `time`.
    pub fn push(&mut self, time: Time, payload: E) {
        self.len += 1;
        match self.index.entry(time) {
            std::collections::hash_map::Entry::Occupied(e) => {
                self.buckets[*e.get() as usize].items.push(payload);
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                let b = match self.free.pop() {
                    Some(i) => i,
                    None => {
                        assert!(self.buckets.len() < u32::MAX as usize, "bucket slab full");
                        self.buckets.push(Bucket::new());
                        (self.buckets.len() - 1) as u32
                    }
                };
                self.buckets[b as usize].items.push(payload);
                e.insert(b);
                self.heap.push((time, b));
                let last = self.heap.len() - 1;
                Self::sift_up(&mut self.heap, last);
            }
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let &(time, b) = self.heap.first()?;
        self.len -= 1;
        let bucket = &mut self.buckets[b as usize];
        debug_assert!(bucket.head < bucket.items.len(), "live bucket is empty");
        let payload = unsafe {
            // SAFETY: `head < items.len()` is the bucket-liveness
            // invariant (asserted above): a bucket stays referenced by
            // the heap exactly while it holds unconsumed items, and the
            // drain below retires it the moment the cursor catches up.
            std::ptr::read(bucket.items.as_ptr().add(bucket.head))
        };
        bucket.head += 1;
        if bucket.head == bucket.items.len() {
            // SAFETY: every item below `head` has been moved out by the
            // cursor; forgetting them (not dropping) is exactly right.
            unsafe { bucket.items.set_len(0) };
            bucket.head = 0;
            self.free.push(b);
            self.index.remove(&time);
            self.heap.swap_remove(0);
            if !self.heap.is_empty() {
                Self::sift_down(&mut self.heap, 0);
            }
        }
        Some((time, payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Moves `heap[i]` toward the root until its parent is earlier.
    /// Hole technique: the moving entry is held in a register and
    /// written once, so each level is one copy instead of a swap.
    fn sift_up(heap: &mut [(Time, u32)], mut i: usize) {
        let entry = heap[i];
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if heap[parent].0 <= entry.0 {
                break;
            }
            heap[i] = heap[parent];
            i = parent;
        }
        heap[i] = entry;
    }

    /// Moves `heap[i]` toward the leaves until all children are later.
    fn sift_down(heap: &mut [(Time, u32)], mut i: usize) {
        let len = heap.len();
        let entry = heap[i];
        loop {
            let first = ARITY * i + 1;
            if first >= len {
                break;
            }
            let last = (first + ARITY).min(len);
            let mut child = first;
            let mut child_key = heap[first].0;
            for (c, &(k, _)) in heap[first + 1..last].iter().enumerate() {
                if k < child_key {
                    child = first + 1 + c;
                    child_key = k;
                }
            }
            if entry.0 <= child_key {
                break;
            }
            heap[i] = heap[child];
            i = child;
        }
        heap[i] = entry;
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Drop for EventQueue<E> {
    fn drop(&mut self) {
        // Consumed slots below each live bucket's cursor were moved out
        // by `pop`; dropping the vector as-is would double-drop them.
        for b in &mut self.buckets {
            // SAFETY: items in `head..len` are live and owned; items
            // below `head` were moved out. Drop exactly the live tail.
            unsafe {
                let live = std::ptr::slice_from_raw_parts_mut(
                    b.items.as_mut_ptr().add(b.head),
                    b.items.len() - b.head,
                );
                b.items.set_len(0);
                b.head = 0;
                std::ptr::drop_in_place(live);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(5), 'b');
        q.push(Time::from_ns(1), 'a');
        q.push(Time::from_ns(9), 'c');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Time::from_ns(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn len_counts_pending_events() {
        let mut q = EventQueue::with_capacity(4);
        assert!(q.is_empty());
        q.push(Time::ZERO, ());
        q.push(Time::ZERO, ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(10), 10);
        q.push(Time::from_ns(2), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        q.push(Time::from_ns(5), 5);
        q.push(Time::from_ns(1), 1);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 5);
        assert_eq!(q.pop().unwrap().1, 10);
    }

    #[test]
    fn buckets_are_recycled() {
        // Steady-state churn against a bounded pending count must not
        // grow the bucket slab past its high-water mark.
        let mut q = EventQueue::new();
        for i in 0..8 {
            q.push(Time::from_ns(i), i);
        }
        for round in 0..1_000u64 {
            q.push(Time::from_ns(100 + round), round);
            q.pop();
        }
        assert_eq!(q.len(), 8);
        assert!(
            q.buckets.len() <= 9,
            "bucket slab grew past its high-water mark: {} buckets",
            q.buckets.len()
        );
    }

    #[test]
    fn reinserting_a_popped_instant_starts_a_fresh_fifo() {
        // Same timestamp, drained and re-scheduled: the second round
        // must not see stale cursor state from the recycled bucket.
        let mut q = EventQueue::new();
        q.push(Time::from_ns(5), 1);
        q.push(Time::from_ns(5), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        q.push(Time::from_ns(5), 3);
        q.push(Time::from_ns(5), 4);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 4);
        assert!(q.pop().is_none());
    }

    #[test]
    fn partially_drained_bucket_keeps_fifo_after_more_pushes() {
        // Pushing into an instant that is already being consumed must
        // append after the unconsumed items.
        let mut q = EventQueue::new();
        q.push(Time::from_ns(5), 1);
        q.push(Time::from_ns(5), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(Time::from_ns(5), 3);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn drop_releases_pending_and_consumed_events() {
        // Owned payloads: a partially-drained bucket must drop only the
        // unconsumed tail (consumed items were moved out by pop).
        let mut q = EventQueue::new();
        q.push(Time::from_ns(1), String::from("a"));
        q.push(Time::from_ns(1), String::from("b"));
        q.push(Time::from_ns(1), String::from("c"));
        q.push(Time::from_ns(9), String::from("z"));
        assert_eq!(q.pop().unwrap().1, "a");
        drop(q); // Miri/leak-check would flag a double- or missed drop.
    }

    #[test]
    fn random_schedule_pops_in_push_order_per_instant() {
        // Deterministic pseudo-random schedule with heavy time collisions:
        // the pop sequence must be globally time-sorted and FIFO within
        // each instant (the exact contract the old BinaryHeap gave).
        let mut q = EventQueue::new();
        let mut x = 0x1234_5678u64;
        let mut expect: Vec<(u64, u64)> = Vec::new();
        for i in 0..10_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let t = x % 64; // dense collisions
            q.push(Time::from_ns(t), i);
            expect.push((t, i));
        }
        expect.sort_by_key(|&(t, i)| (t, i));
        for (t, i) in expect {
            let (pt, pi) = q.pop().unwrap();
            assert_eq!((pt, pi), (Time::from_ns(t), i));
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn interleaved_random_push_pop_matches_reference() {
        // Harder schedule than the all-push-then-pop case: interleave
        // pushes and pops so buckets recycle mid-run, and check against
        // a straightforward sorted reference.
        let mut q = EventQueue::new();
        let mut reference: Vec<(u64, u64)> = Vec::new(); // (time, seq)
        let mut popped: Vec<(u64, u64)> = Vec::new();
        let mut x = 0x9e37_79b9u64;
        let mut clock = 0u64; // pops only move forward in time
        for i in 0..50_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let t = clock + x % 16;
            q.push(Time::from_ns(t), i);
            reference.push((t, i));
            if !x.is_multiple_of(3) {
                if let Some((pt, pi)) = q.pop() {
                    clock = pt.as_ns_f64() as u64;
                    popped.push((clock, pi));
                }
            }
        }
        while let Some((pt, pi)) = q.pop() {
            popped.push((pt.as_ns_f64() as u64, pi));
        }
        reference.sort_by_key(|&(t, i)| (t, i));
        assert_eq!(popped, reference);
    }
}
