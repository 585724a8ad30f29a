//! Trace-driven core model with a ROB window and dependence stalls.
//!
//! Approximates a 4-wide, 192-entry-ROB out-of-order core: instructions
//! advance at `width` per cycle; loads occupy the window until their data
//! returns; a load marked `depends_on_prev` cannot issue before the
//! previous load completes (pointer chasing); the core stalls when the
//! window or the outstanding-miss budget fills. Stores retire immediately
//! through a store buffer.

use std::collections::VecDeque;

use emcc_sim::time::Frequency;
use emcc_sim::Time;
use emcc_workloads::{MemOp, TraceSource};

/// An outstanding load.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    inst_index: u64,
    done: bool,
}

/// Why the core cannot advance right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stall {
    /// Next op's issue point is in the future (instruction gap).
    UntilTime(Time),
    /// Blocked on an outstanding load (ROB full, MLP cap, or dependence);
    /// re-evaluate when any load completes.
    OnLoad,
    /// The op quota has been reached; the core is finished.
    Finished,
}

/// What the core wants the memory system to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreIssue {
    /// The memory operation to perform.
    pub op: MemOp,
    /// Token to pass back to [`CoreModel::complete_load`] when data
    /// returns (loads only).
    pub load_token: u64,
}

/// One simulated core.
pub struct CoreModel {
    source: Box<dyn TraceSource>,
    freq: Frequency,
    width: u64,
    rob_entries: u64,
    max_outstanding: usize,
    quota: u64,

    issued_ops: u64,
    inst_count: u64,
    next_issue_at: Time,
    pending: Option<MemOp>,
    in_flight: VecDeque<InFlight>,
    last_load_token: Option<u64>,
    last_load_done_at: Option<Time>,
    retired_insts: u64,
}

impl std::fmt::Debug for CoreModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreModel")
            .field("issued_ops", &self.issued_ops)
            .field("in_flight", &self.in_flight.len())
            .finish()
    }
}

impl CoreModel {
    /// Creates a core running `quota` memory operations from `source`.
    pub fn new(
        source: Box<dyn TraceSource>,
        freq: Frequency,
        width: u64,
        rob_entries: u64,
        max_outstanding: usize,
        quota: u64,
    ) -> Self {
        CoreModel {
            source,
            freq,
            width,
            rob_entries,
            max_outstanding,
            quota,
            issued_ops: 0,
            inst_count: 0,
            next_issue_at: Time::ZERO,
            pending: None,
            in_flight: VecDeque::new(),
            last_load_token: None,
            last_load_done_at: None,
            retired_insts: 0,
        }
    }

    /// True once the quota is reached and all loads drained.
    pub fn finished(&self) -> bool {
        self.issued_ops >= self.quota && self.in_flight.is_empty()
    }

    /// Instructions retired (trace gaps + memory ops issued).
    pub fn retired_insts(&self) -> u64 {
        self.retired_insts
    }

    /// Memory operations issued.
    pub fn issued_ops(&self) -> u64 {
        self.issued_ops
    }

    /// Attempts to issue the next memory operation at `now`.
    ///
    /// Returns either an operation to perform or the reason the core is
    /// stalled. The caller must:
    /// * perform the op (loads: call [`Self::complete_load`] when data is
    ///   ready, then retry `advance`),
    /// * on `UntilTime(t)`, retry at `t`,
    /// * on `OnLoad`, retry after the next `complete_load`.
    pub fn advance(&mut self, now: Time) -> Result<CoreIssue, Stall> {
        if self.issued_ops >= self.quota {
            return Err(Stall::Finished);
        }
        // Load the next op and account its instruction gap.
        let op = match self.pending {
            Some(op) => op,
            None => {
                let op = self.source.next_op();
                // Gap instructions retire at `width` per cycle.
                let gap_cycles = u64::from(op.gap).div_ceil(self.width);
                self.next_issue_at = self
                    .next_issue_at
                    .max(now)
                    .max(self.next_issue_at + self.freq.cycles(gap_cycles));
                self.inst_count += u64::from(op.gap) + 1;
                self.pending = Some(op);
                op
            }
        };

        if self.next_issue_at > now {
            return Err(Stall::UntilTime(self.next_issue_at));
        }

        // Window: cannot run further than rob_entries past the oldest
        // incomplete load.
        if let Some(oldest) = self.in_flight.front() {
            if !oldest.done && self.inst_count - oldest.inst_index >= self.rob_entries {
                return Err(Stall::OnLoad);
            }
        }
        // MLP cap.
        let live = self.in_flight.iter().filter(|l| !l.done).count();
        if !op.is_write && live >= self.max_outstanding {
            return Err(Stall::OnLoad);
        }
        // Dependence: a dependent load waits for the previous load.
        if op.depends_on_prev {
            match self.last_load_done_at {
                Some(t) if t <= now => {}
                Some(_) | None if self.last_load_token.is_none() => {}
                Some(t) => return Err(Stall::UntilTime(t)),
                None => return Err(Stall::OnLoad),
            }
        }

        // Issue.
        self.pending = None;
        self.issued_ops += 1;
        self.retired_insts = self.inst_count;
        let token = self.inst_count;
        if !op.is_write {
            self.in_flight.push_back(InFlight {
                inst_index: token,
                done: false,
            });
            self.last_load_token = Some(token);
            self.last_load_done_at = None;
        }
        Ok(CoreIssue {
            op,
            load_token: token,
        })
    }

    /// Marks a load complete at `now`; returns true if the core might now
    /// be able to advance (the caller should re-run [`Self::advance`]).
    pub fn complete_load(&mut self, token: u64, now: Time) -> bool {
        for l in &mut self.in_flight {
            if l.inst_index == token {
                l.done = true;
                break;
            }
        }
        if self.last_load_token == Some(token) {
            self.last_load_done_at = Some(now);
        }
        // Retire completed loads from the window head.
        while matches!(self.in_flight.front(), Some(l) if l.done) {
            self.in_flight.pop_front();
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emcc_sim::LineAddr;
    use emcc_workloads::Trace;

    fn core_with(ops: Vec<MemOp>, quota: u64, mlp: usize, rob: u64) -> CoreModel {
        CoreModel::new(
            Box::new(Trace::new("t", ops).cursor(0)),
            Frequency::from_ghz(3.2),
            4,
            rob,
            mlp,
            quota,
        )
    }

    #[test]
    fn issues_ops_in_order() {
        let ops = vec![
            MemOp::load(LineAddr::new(1), 0),
            MemOp::store(LineAddr::new(2), 0),
        ];
        let mut c = core_with(ops, 2, 8, 192);
        let a = c.advance(Time::ZERO).unwrap();
        assert_eq!(a.op.line.get(), 1);
        let b = c.advance(Time::ZERO).unwrap();
        assert!(b.op.is_write);
        assert!(matches!(c.advance(Time::ZERO), Err(Stall::Finished)));
    }

    #[test]
    fn gap_delays_issue() {
        let ops = vec![MemOp::load(LineAddr::new(1), 400)];
        let mut c = core_with(ops, 1, 8, 192);
        // 400 instructions at 4-wide, 3.2 GHz = 100 cycles = 31.25 ns.
        match c.advance(Time::ZERO) {
            Err(Stall::UntilTime(t)) => assert_eq!(t, Time::from_ps(31_250)),
            other => panic!("expected time stall, got {other:?}"),
        }
        assert!(c.advance(Time::from_ps(31_250)).is_ok());
    }

    #[test]
    fn mlp_cap_blocks() {
        let ops = vec![MemOp::load(LineAddr::new(1), 0); 4];
        let mut c = core_with(ops, 4, 2, 1_000_000);
        let t1 = c.advance(Time::ZERO).unwrap().load_token;
        let _t2 = c.advance(Time::ZERO).unwrap().load_token;
        assert!(matches!(c.advance(Time::ZERO), Err(Stall::OnLoad)));
        c.complete_load(t1, Time::from_ns(10));
        assert!(c.advance(Time::from_ns(10)).is_ok());
    }

    #[test]
    fn rob_window_blocks_distant_ops() {
        // Two loads separated by 300 instructions with a tiny ROB: the
        // second cannot issue until the first completes.
        let ops = vec![
            MemOp::load(LineAddr::new(1), 0),
            MemOp::load(LineAddr::new(2), 300),
        ];
        let mut c = core_with(ops, 2, 8, 192);
        let t1 = c.advance(Time::ZERO).unwrap().load_token;
        let t_gap = match c.advance(Time::ZERO) {
            Err(Stall::UntilTime(t)) => t,
            other => panic!("expected gap stall, got {other:?}"),
        };
        assert!(matches!(c.advance(t_gap), Err(Stall::OnLoad)));
        c.complete_load(t1, t_gap);
        assert!(c.advance(t_gap).is_ok());
    }

    #[test]
    fn dependent_load_waits_for_previous() {
        let ops = vec![
            MemOp::load(LineAddr::new(1), 0),
            MemOp::dependent_load(LineAddr::new(2), 0),
        ];
        let mut c = core_with(ops, 2, 8, 192);
        let t1 = c.advance(Time::ZERO).unwrap().load_token;
        assert!(matches!(c.advance(Time::ZERO), Err(Stall::OnLoad)));
        c.complete_load(t1, Time::from_ns(50));
        // Completed at 50 ns: cannot issue earlier.
        match c.advance(Time::from_ns(20)) {
            Err(Stall::UntilTime(t)) => assert_eq!(t, Time::from_ns(50)),
            other => panic!("expected until-time stall, got {other:?}"),
        }
        assert!(c.advance(Time::from_ns(50)).is_ok());
    }

    #[test]
    fn stores_do_not_occupy_window() {
        let ops = vec![MemOp::store(LineAddr::new(1), 0); 100];
        let mut c = core_with(ops, 100, 1, 8);
        let mut t = Time::ZERO;
        let mut issued = 0;
        for _ in 0..1000 {
            match c.advance(t) {
                Ok(_) => issued += 1,
                Err(Stall::UntilTime(nt)) => t = nt,
                Err(Stall::OnLoad) => panic!("stores must not block"),
                Err(Stall::Finished) => break,
            }
        }
        assert_eq!(issued, 100);
        assert!(c.finished());
    }

    use emcc_sim::Rng64;
    use proptest::prelude::*;

    /// A time drawn uniformly from `[lo, hi)`.
    fn time_in(rng: &mut Rng64, lo: Time, hi: Time) -> Time {
        lo + Time::from_ps(rng.below((hi - lo).as_ps()))
    }

    proptest! {
        /// The invariant `SecureSystem` keeps one pending wake per core
        /// on: once `advance` returns `UntilTime(t)`, any load completions
        /// at times before `t`, in any order, followed by `advance(now)`
        /// with `now < t`, find the same `UntilTime(t)`.
        #[test]
        fn until_time_stall_holds_until_its_time(
            ops in prop::collection::vec((0u64..64, 0u32..800, 0u8..8), 1..48usize),
            mlp in 1usize..=4,
            rob in 8u64..=256,
            seed in any::<u64>(),
        ) {
            let trace: Vec<MemOp> = ops
                .iter()
                .map(|&(line, gap, kind)| {
                    let line = LineAddr::new(line);
                    match kind {
                        0..=3 => MemOp::load(line, gap),
                        4 | 5 => MemOp::dependent_load(line, gap),
                        _ => MemOp::store(line, gap),
                    }
                })
                .collect();
            let mut c = core_with(trace, ops.len() as u64, mlp, rob);
            let mut rng = Rng64::new(seed);
            let mut outstanding: Vec<u64> = Vec::new();
            let mut now = Time::ZERO;
            loop {
                match c.advance(now) {
                    Ok(issue) => {
                        if !issue.op.is_write {
                            outstanding.push(issue.load_token);
                        }
                    }
                    Err(Stall::Finished) => break,
                    Err(Stall::OnLoad) => {
                        prop_assert!(!outstanding.is_empty(), "stalled on no load");
                        now += Time::from_ps(rng.below(50_000));
                        let i = rng.below(outstanding.len() as u64) as usize;
                        c.complete_load(outstanding.swap_remove(i), now);
                    }
                    Err(Stall::UntilTime(t)) => {
                        prop_assert!(t > now, "stall until {t} at {now}");
                        // Complete a random subset of the outstanding loads
                        // in random order at nondecreasing times before `t`,
                        // retrying in between.
                        let mut at = now;
                        for _ in 0..rng.below(outstanding.len() as u64 + 1) {
                            at = time_in(&mut rng, at, t);
                            let i = rng.below(outstanding.len() as u64) as usize;
                            c.complete_load(outstanding.swap_remove(i), at);
                            let retry = time_in(&mut rng, at, t);
                            prop_assert_eq!(c.advance(retry), Err(Stall::UntilTime(t)));
                            at = retry;
                        }
                        prop_assert_eq!(
                            c.advance(time_in(&mut rng, at, t)),
                            Err(Stall::UntilTime(t))
                        );
                        now = t;
                    }
                }
            }
        }
    }

    #[test]
    fn retired_instruction_count_includes_gaps() {
        let ops = vec![MemOp::load(LineAddr::new(1), 9)];
        let mut c = core_with(ops, 1, 8, 192);
        let mut t = Time::ZERO;
        loop {
            match c.advance(t) {
                Ok(_) => break,
                Err(Stall::UntilTime(nt)) => t = nt,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(c.retired_insts(), 10); // 9 gap + 1 memory op
    }
}
