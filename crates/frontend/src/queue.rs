//! Bounded FIFO queues: FTQ, Alt-FTQ, decode and dispatch buffers all share
//! this shape.

use std::collections::VecDeque;

/// A bounded FIFO. Pushing into a full queue is rejected (backpressure),
/// which is exactly how the paper's frontend queues throttle upstream
/// stages.
#[derive(Clone, Debug)]
pub struct BoundedQueue<T> {
    q: VecDeque<T>,
    cap: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates an empty queue with room for `cap` items.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "queue capacity must be nonzero");
        BoundedQueue {
            q: VecDeque::with_capacity(cap),
            cap,
        }
    }

    /// Capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// `true` if empty.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// `true` if no more items fit.
    pub fn is_full(&self) -> bool {
        self.q.len() >= self.cap
    }

    /// Free slots.
    pub fn free(&self) -> usize {
        self.cap - self.q.len()
    }

    /// Pushes an item; returns it back if the queue is full.
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.is_full() {
            Err(item)
        } else {
            self.q.push_back(item);
            Ok(())
        }
    }

    /// Pops the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        self.q.pop_front()
    }

    /// The oldest item, if any.
    pub fn front(&self) -> Option<&T> {
        self.q.front()
    }

    /// Mutable access to the oldest item.
    pub fn front_mut(&mut self) -> Option<&mut T> {
        self.q.front_mut()
    }

    /// Drops everything (pipeline flush).
    pub fn clear(&mut self) {
        self.q.clear();
    }

    /// Iterates oldest → youngest.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.q.iter()
    }

    /// The `i`-th oldest item, if present.
    pub fn get(&self, i: usize) -> Option<&T> {
        self.q.get(i)
    }

    /// Mutable access to the `i`-th oldest item.
    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        self.q.get_mut(i)
    }
}

impl<T: sim_isa::Field + Default> BoundedQueue<T> {
    /// Checkpoint layout: the items, oldest first. A load that overflows
    /// the capacity panics ("`what` mismatch").
    pub fn sync_state(&mut self, io: &mut sim_isa::StateIo, what: &str) {
        io.v(&mut self.q);
        assert!(self.q.len() <= self.cap, "{what} mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut q = BoundedQueue::new(3);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn full_queue_rejects() {
        let mut q = BoundedQueue::new(2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert!(q.is_full());
        assert_eq!(q.push(3), Err(3));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn clear_empties() {
        let mut q = BoundedQueue::new(2);
        q.push('a').unwrap();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.free(), 2);
    }

    #[test]
    fn front_views() {
        let mut q = BoundedQueue::new(2);
        q.push(10).unwrap();
        assert_eq!(q.front(), Some(&10));
        *q.front_mut().unwrap() = 11;
        assert_eq!(q.pop(), Some(11));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_rejected() {
        let _: BoundedQueue<u8> = BoundedQueue::new(0);
    }
}
