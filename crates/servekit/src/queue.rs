//! Bounded admission queue with deterministic shed-oldest load shedding.
//!
//! Backpressure contract: [`AdmissionQueue::push`] never blocks and never
//! stalls the caller at the OS level. When the queue is full, the *oldest*
//! queued item is evicted and handed back to the caller, which owes it a
//! typed `Overloaded` reply — newest-wins admission keeps the queue's
//! contents fresh under sustained overload (the oldest request is the one
//! most likely past its deadline anyway).
//!
//! **Determinism.** Shedding is decided entirely in the admission path,
//! under one lock, purely from the queue occupancy at push time — workers
//! only ever pop. For a fixed arrival/drain interleaving the shed set is
//! therefore a pure function of the trace and the capacity, independent of
//! how many workers drain the queue; [`shed_plan`] is that function in
//! directly testable form, and the chaos suite asserts the live queue
//! matches it.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Outcome of a non-blocking admission attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum Admit<T> {
    /// Item queued; queue had room.
    Queued,
    /// Item queued, but the queue was full: the returned oldest item was
    /// shed and must receive an `Overloaded` reply.
    Shed(T),
    /// The queue is closed (shutting down); the item is handed back.
    Closed(T),
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC queue: non-blocking shed-oldest push, blocking pop.
pub struct AdmissionQueue<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> AdmissionQueue<T> {
    /// A queue admitting at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> AdmissionQueue<T> {
        AdmissionQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Admission capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy.
    pub fn depth(&self) -> usize {
        self.inner.lock().unwrap().items.len()
    }

    /// Admit `item` without blocking; see [`Admit`].
    pub fn push(&self, item: T) -> Admit<T> {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return Admit::Closed(item);
        }
        let shed = if inner.items.len() >= self.capacity {
            inner.items.pop_front()
        } else {
            None
        };
        inner.items.push_back(item);
        drop(inner);
        self.ready.notify_one();
        match shed {
            Some(old) => Admit::Shed(old),
            None => Admit::Queued,
        }
    }

    /// Pop the oldest item, blocking until one arrives. Returns `None`
    /// once the queue is closed *and* drained — pending items are still
    /// delivered after close, so every admitted request gets its reply.
    pub fn pop(&self) -> Option<T> {
        // Every item a barrier: the head comes back alone.
        let batch = self.pop_batch(1, |_| None)?;
        batch.into_iter().next()
    }

    /// Close the queue: future pushes return [`Admit::Closed`], poppers
    /// drain what remains and then see `None`.
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.ready.notify_all();
    }

    /// Pop a micro-batch: block for the first item, then coalesce the
    /// contiguous run of *coalescible* items behind it (those for which
    /// `weight_of` returns `Some(rows)`) while the summed weight stays
    /// within `max_weight`. A non-coalescible head (`None`) is returned
    /// alone; one encountered mid-queue ends the batch — batches are
    /// always contiguous queue prefixes, so FIFO order is preserved and
    /// the partition is decided entirely under the queue lock from the
    /// queue contents at drain time (see [`coalesce_plan`]). A pop never
    /// waits for more arrivals: once the first item is there, it takes
    /// what is queued.
    ///
    /// Returns `None` once the queue is closed and drained, like
    /// [`Self::pop`]. A batch is never empty.
    pub fn pop_batch<F>(&self, max_weight: usize, weight_of: F) -> Option<Vec<T>>
    where
        F: Fn(&T) -> Option<usize>,
    {
        let mut inner = self.inner.lock().unwrap();
        let first = loop {
            if let Some(item) = inner.items.pop_front() {
                break item;
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).unwrap();
        };
        let Some(first_weight) = weight_of(&first) else {
            return Some(vec![first]); // barrier request runs alone
        };
        let mut weight = first_weight.max(1);
        let mut batch = vec![first];
        if max_weight <= 1 {
            return Some(batch); // coalescing off: per-request drain
        }
        while let Some(front) = inner.items.front() {
            let Some(w) = weight_of(front) else {
                break; // barrier stops the batch
            };
            if weight + w.max(1) > max_weight {
                break;
            }
            weight += w.max(1);
            batch.push(inner.items.pop_front().expect("front observed"));
        }
        Some(batch)
    }
}

/// The reference model of micro-batch coalescing, the batching twin of
/// [`shed_plan`]: replay the *served* id sequence (in FIFO order, with
/// per-id row weights) and return the batch partition a single drainer
/// would form with `max_weight` from a pre-filled queue. Like shedding,
/// the partition is decided entirely under the queue lock from queue
/// contents, so for a fixed drain interleaving it is a pure function of
/// (trace, config); the conformance suite pins the live queue against
/// this model.
pub fn coalesce_plan(max_weight: usize, weights: &[usize]) -> Vec<Vec<u64>> {
    let mut batches: Vec<Vec<u64>> = Vec::new();
    let mut current: Vec<u64> = Vec::new();
    let mut weight = 0usize;
    for (id, &w) in weights.iter().enumerate() {
        let w = w.max(1);
        if !current.is_empty() && (max_weight <= 1 || weight + w > max_weight) {
            batches.push(std::mem::take(&mut current));
            weight = 0;
        }
        current.push(id as u64);
        weight += w;
    }
    if !current.is_empty() {
        batches.push(current);
    }
    batches
}

/// A counting permit gate for deterministic worker pacing: the virtual
/// clock of the serve-bench overload scenario. Workers acquire one permit
/// per queue drain *before* popping, so a trace player that alternates
/// "push `arrivals`, release `drains`" reproduces [`shed_plan`] exactly —
/// no wall-clock sleeps, no flaky shed rates on slow runners.
///
/// A gate starts **open** (unlimited permits, zero cost on the hot path);
/// [`WorkGate::close`] arms it. [`WorkGate::open`] releases every waiter,
/// which [`crate::Server::shutdown`] relies on to avoid wedging workers.
#[derive(Debug, Default)]
pub struct WorkGate {
    // None = open (unlimited); Some(n) = n permits outstanding.
    permits: Mutex<Option<u64>>,
    ready: Condvar,
}

impl WorkGate {
    /// A gate in the open (ungated) state.
    pub fn new() -> WorkGate {
        WorkGate::default()
    }

    /// A gate armed with zero permits: workers block until `release`.
    pub fn closed() -> WorkGate {
        WorkGate {
            permits: Mutex::new(Some(0)),
            ready: Condvar::new(),
        }
    }

    /// Arm the gate with zero permits.
    pub fn close(&self) {
        *self.permits.lock().unwrap() = Some(0);
    }

    /// Disarm: unlimited permits; wakes every waiter.
    pub fn open(&self) {
        *self.permits.lock().unwrap() = None;
        self.ready.notify_all();
    }

    /// Grant `n` permits.
    pub fn release(&self, n: u64) {
        let mut p = self.permits.lock().unwrap();
        if let Some(count) = p.as_mut() {
            *count += n;
            drop(p);
            self.ready.notify_all();
        }
    }

    /// Take one permit, blocking while the gate is armed and empty.
    pub fn acquire(&self) {
        let mut p = self.permits.lock().unwrap();
        loop {
            match p.as_mut() {
                None => return,
                Some(count) if *count > 0 => {
                    *count -= 1;
                    return;
                }
                Some(_) => p = self.ready.wait(p).unwrap(),
            }
        }
    }
}

/// One step of a synthetic overload trace: `arrivals` requests arrive
/// (ids assigned sequentially across the whole trace), then `drains`
/// requests are taken off the queue by workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStep {
    /// Requests arriving this step.
    pub arrivals: u64,
    /// Requests drained (served) this step.
    pub drains: u64,
}

/// The reference model of shed-oldest admission: replay `trace` against a
/// queue of `capacity` and return `(served_ids, shed_ids)` — both sorted
/// ascending. Because live shedding is decided solely at push time under
/// the admission lock, a real [`AdmissionQueue`] driven by the same
/// arrival/drain interleaving sheds exactly this id set, for any worker
/// count; the chaos tests pin that equivalence.
pub fn shed_plan(capacity: usize, trace: &[TraceStep]) -> (Vec<u64>, Vec<u64>) {
    let capacity = capacity.max(1);
    let mut queue: VecDeque<u64> = VecDeque::new();
    let mut served = Vec::new();
    let mut shed = Vec::new();
    let mut next_id = 0u64;
    for step in trace {
        for _ in 0..step.arrivals {
            if queue.len() >= capacity {
                shed.push(queue.pop_front().expect("capacity >= 1"));
            }
            queue.push_back(next_id);
            next_id += 1;
        }
        for _ in 0..step.drains {
            if let Some(id) = queue.pop_front() {
                served.push(id);
            }
        }
    }
    served.extend(queue); // shutdown drains the remainder
    served.sort_unstable();
    shed.sort_unstable();
    (served, shed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_fifo() {
        let q = AdmissionQueue::new(4);
        assert_eq!(q.push(1), Admit::Queued);
        assert_eq!(q.push(2), Admit::Queued);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn full_queue_sheds_oldest() {
        let q = AdmissionQueue::new(2);
        q.push(10);
        q.push(11);
        assert_eq!(q.push(12), Admit::Shed(10), "oldest goes first");
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop(), Some(11));
        assert_eq!(q.pop(), Some(12));
    }

    #[test]
    fn close_drains_then_ends() {
        let q = AdmissionQueue::new(4);
        q.push(1);
        q.close();
        assert_eq!(q.push(2), Admit::Closed(2));
        assert_eq!(q.pop(), Some(1), "pending item still delivered");
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_blocked_poppers() {
        let q = Arc::new(AdmissionQueue::<u32>::new(2));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let q = q.clone();
                std::thread::spawn(move || q.pop())
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        for h in handles {
            assert_eq!(h.join().unwrap(), None);
        }
    }

    #[test]
    fn shed_plan_partitions_ids() {
        // 2x overload: 8 arrive, 4 drain, per step.
        let trace = vec![
            TraceStep {
                arrivals: 8,
                drains: 4,
            };
            5
        ];
        let (served, shed) = shed_plan(4, &trace);
        assert_eq!(served.len() + shed.len(), 40, "every id accounted for");
        assert!(!shed.is_empty(), "2x overload must shed");
        let mut all: Vec<u64> = served.iter().chain(shed.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..40).collect::<Vec<_>>(), "no duplicates, no loss");
        // Pure function: same trace, same partition.
        assert_eq!(shed_plan(4, &trace), (served, shed));
    }

    #[test]
    fn pop_batch_coalesces_contiguous_weighted_prefix() {
        let q = AdmissionQueue::new(16);
        for w in [2usize, 3, 4, 5] {
            q.push(w);
        }
        // Budget 9 takes 2+3+4, leaves 5 for the next batch.
        let weigh = |w: &usize| Some(*w);
        let b = q.pop_batch(9, weigh).unwrap();
        assert_eq!(b, vec![2, 3, 4]);
        assert_eq!(q.pop_batch(9, weigh).unwrap(), vec![5]);
    }

    #[test]
    fn pop_batch_barrier_runs_alone_and_stops_batches() {
        // Weight None marks a barrier (swap/status style request).
        let q = AdmissionQueue::new(16);
        for v in [1i32, 2, -1, 3, -2, 4] {
            q.push(v);
        }
        let weigh = |v: &i32| (*v > 0).then_some(1usize);
        assert_eq!(q.pop_batch(100, weigh).unwrap(), vec![1, 2]);
        assert_eq!(q.pop_batch(100, weigh).unwrap(), vec![-1]);
        assert_eq!(q.pop_batch(100, weigh).unwrap(), vec![3]);
        assert_eq!(q.pop_batch(100, weigh).unwrap(), vec![-2]);
        assert_eq!(q.pop_batch(100, weigh).unwrap(), vec![4]);
    }

    #[test]
    fn pop_batch_budget_one_is_per_request() {
        let q = AdmissionQueue::new(16);
        q.push(7);
        q.push(8);
        let weigh = |_: &i32| Some(1usize);
        assert_eq!(q.pop_batch(1, weigh).unwrap(), vec![7]);
        assert_eq!(q.pop_batch(1, weigh).unwrap(), vec![8]);
    }

    #[test]
    fn pop_batch_none_after_close_and_drain() {
        let q = AdmissionQueue::new(4);
        q.push(1);
        q.close();
        let weigh = |_: &i32| Some(1usize);
        assert_eq!(q.pop_batch(8, weigh).unwrap(), vec![1]);
        assert_eq!(q.pop_batch(8, weigh), None);
    }

    #[test]
    fn coalesce_plan_partitions_all_ids_in_order() {
        let weights = [1usize, 1, 1, 4, 2, 2, 9, 1];
        let plan = coalesce_plan(4, &weights);
        assert_eq!(
            plan,
            vec![
                vec![0, 1, 2],
                vec![3],
                vec![4, 5],
                vec![6], // oversized request still forms its own batch
                vec![7],
            ]
        );
        let flat: Vec<u64> = plan.into_iter().flatten().collect();
        assert_eq!(flat, (0..8).collect::<Vec<_>>(), "FIFO preserved");
        // Budget 1 degenerates to per-request.
        assert_eq!(coalesce_plan(1, &weights).len(), weights.len());
    }

    #[test]
    fn work_gate_paces_acquires() {
        let g = Arc::new(WorkGate::closed());
        let g2 = g.clone();
        let h = std::thread::spawn(move || {
            g2.acquire();
            g2.acquire();
            77
        });
        g.release(2);
        assert_eq!(h.join().unwrap(), 77);
        // Open gate never blocks.
        g.open();
        g.acquire();
        g.acquire();
    }

    #[test]
    fn no_overload_sheds_nothing() {
        let trace = vec![
            TraceStep {
                arrivals: 2,
                drains: 2,
            };
            10
        ];
        let (served, shed) = shed_plan(4, &trace);
        assert_eq!(served.len(), 20);
        assert!(shed.is_empty());
    }
}
