//! Split-counter overflow re-encryption engine.
//!
//! When a minor counter overflows, the major counter is bumped and every
//! block the counter block covers must be re-encrypted: read, decrypted
//! with its old counter, re-encrypted with the new one, written back. The
//! paper's §V fixes the engine's limits: **at most two outstanding
//! overflows** (a write-back that would start a third causes the MC to
//! reject incoming LLC requests), and the background requests may occupy
//! **at most eight read/write-queue slots** at a time.

use std::collections::VecDeque;

use emcc_sim::LineAddr;

/// One pending overflow: re-encrypt `blocks` lines starting at `base`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverflowTask {
    /// First line of the covered region.
    pub base: LineAddr,
    /// Number of 64 B blocks to re-encrypt.
    pub blocks: u64,
    /// Tree level of the overflowed counter block (0 = data counters).
    pub level: u32,
}

/// A 64 B request the engine wants to enqueue at the DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverflowRequest {
    /// The line to access.
    pub line: LineAddr,
    /// Read (fetch old ciphertext) or write (store re-encrypted).
    pub is_write: bool,
    /// Tree level of the causing overflow.
    pub level: u32,
}

#[derive(Debug, Clone)]
struct ActiveTask {
    task: OverflowTask,
    issued: u64,    // total requests issued (2 per block: read + write)
    completed: u64, // total completions observed
}

impl ActiveTask {
    fn total_requests(&self) -> u64 {
        self.task.blocks * 2
    }
}

/// The background re-encryption engine.
///
/// # Examples
///
/// ```
/// use emcc_secmem::{OverflowEngine, OverflowTask};
/// use emcc_sim::LineAddr;
///
/// let mut e = OverflowEngine::new();
/// assert!(e.can_add());
/// e.add(OverflowTask { base: LineAddr::new(0), blocks: 4, level: 0 });
/// let r = e.next_request().unwrap();
/// assert!(!r.is_write); // reads the old ciphertext first
/// ```
#[derive(Debug, Clone)]
pub struct OverflowEngine {
    active: VecDeque<ActiveTask>,
    in_flight: u32,
    max_outstanding: usize,
    max_in_flight: u32,
    finished: u64,
}

impl OverflowEngine {
    /// Creates an engine with the paper's limits (2 outstanding, 8 slots).
    pub fn new() -> Self {
        OverflowEngine {
            active: VecDeque::new(),
            in_flight: 0,
            max_outstanding: 2,
            max_in_flight: 8,
            finished: 0,
        }
    }

    /// True if a new overflow can be accepted without blocking the MC
    /// (the only admission check; [`Self::add`] requires it).
    pub fn can_add(&self) -> bool {
        self.active.len() < self.max_outstanding
    }

    /// Registers a new overflow.
    ///
    /// # Panics
    ///
    /// Panics if [`Self::can_add`] is false.
    pub fn add(&mut self, task: OverflowTask) {
        assert!(self.can_add(), "overflow engine already holds two tasks");
        self.active.push_back(ActiveTask {
            task,
            issued: 0,
            completed: 0,
        });
    }

    /// Next background request to enqueue, or `None` if the 8-slot budget
    /// is exhausted or no work remains.
    ///
    /// Requests alternate read (even) / write (odd) per block, front task
    /// first.
    pub fn next_request(&mut self) -> Option<OverflowRequest> {
        if self.in_flight >= self.max_in_flight {
            return None;
        }
        let t = self
            .active
            .iter_mut()
            .find(|t| t.issued < t.total_requests())?;
        let block = t.issued / 2;
        let is_write = t.issued % 2 == 1;
        t.issued += 1;
        self.in_flight += 1;
        Some(OverflowRequest {
            line: t.task.base.offset(block),
            is_write,
            level: t.task.level,
        })
    }

    /// Records a DRAM completion of an overflow request.
    ///
    /// # Panics
    ///
    /// Panics if called with no request in flight.
    pub fn complete_one(&mut self) {
        assert!(self.in_flight > 0, "no overflow request in flight");
        self.in_flight -= 1;
        if let Some(front) = self.active.front_mut() {
            front.completed += 1;
            if front.completed >= front.total_requests() {
                self.active.pop_front();
                self.finished += 1;
            }
        }
    }

    /// Overflows currently outstanding.
    pub fn outstanding(&self) -> usize {
        self.active.len()
    }

    /// Requests currently occupying DRAM queue slots.
    pub fn in_flight(&self) -> u32 {
        self.in_flight
    }

    /// Total overflows fully re-encrypted.
    pub fn finished(&self) -> u64 {
        self.finished
    }
}

impl Default for OverflowEngine {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(base: u64, blocks: u64) -> OverflowTask {
        OverflowTask {
            base: LineAddr::new(base),
            blocks,
            level: 0,
        }
    }

    #[test]
    fn accepts_two_then_refuses_admission() {
        let mut e = OverflowEngine::new();
        e.add(task(0, 128));
        assert!(e.can_add());
        e.add(task(1000, 128));
        assert!(!e.can_add());
        assert_eq!(e.outstanding(), 2);
    }

    #[test]
    #[should_panic(expected = "two tasks")]
    fn add_past_admission_panics() {
        let mut e = OverflowEngine::new();
        e.add(task(0, 128));
        e.add(task(1000, 128));
        e.add(task(2000, 128));
    }

    #[test]
    fn read_then_write_per_block() {
        let mut e = OverflowEngine::new();
        e.add(task(10, 2));
        let r0 = e.next_request().unwrap();
        let r1 = e.next_request().unwrap();
        let r2 = e.next_request().unwrap();
        let r3 = e.next_request().unwrap();
        assert_eq!((r0.line.get(), r0.is_write), (10, false));
        assert_eq!((r1.line.get(), r1.is_write), (10, true));
        assert_eq!((r2.line.get(), r2.is_write), (11, false));
        assert_eq!((r3.line.get(), r3.is_write), (11, true));
        assert!(e.next_request().is_none(), "task exhausted");
    }

    #[test]
    fn eight_slot_budget_enforced() {
        let mut e = OverflowEngine::new();
        e.add(task(0, 128));
        for _ in 0..8 {
            assert!(e.next_request().is_some());
        }
        assert!(e.next_request().is_none(), "budget exhausted");
        e.complete_one();
        assert!(e.next_request().is_some(), "slot freed");
    }

    #[test]
    fn completion_drains_task_and_unblocks() {
        let mut e = OverflowEngine::new();
        e.add(task(0, 1));
        e.add(task(5, 1));
        assert!(!e.can_add());
        // Drain the first task: 2 requests, 2 completions.
        e.next_request().unwrap();
        e.next_request().unwrap();
        e.complete_one();
        e.complete_one();
        assert_eq!(e.finished(), 1);
        assert!(e.can_add(), "finished task frees an outstanding slot");
    }

    #[test]
    fn requests_span_second_task_after_first_issued() {
        let mut e = OverflowEngine::new();
        e.add(task(0, 1));
        e.add(task(100, 1));
        let mut lines = Vec::new();
        while let Some(r) = e.next_request() {
            lines.push(r.line.get());
        }
        assert_eq!(lines, vec![0, 0, 100, 100]);
    }

    #[test]
    #[should_panic]
    fn complete_without_inflight_panics() {
        let mut e = OverflowEngine::new();
        e.complete_one();
    }
}
