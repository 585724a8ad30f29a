//! Per-channel FR-FCFS-capped scheduler with banks and write drain.

use std::collections::VecDeque;

use emcc_sim::{LineAddr, Time};

use crate::config::DramConfig;
use crate::mapping::AddressMapping;
use crate::request::{DramRequest, Pending, RequestClass, RequestId};
use crate::stats::DramStats;

/// A finished DRAM access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The caller token from the request.
    pub id: RequestId,
    /// Time the last data beat leaves the channel.
    pub done: Time,
    /// Whether the access was a write.
    pub is_write: bool,
    /// The request's traffic class.
    pub class: RequestClass,
    /// The accessed line.
    pub line: LineAddr,
    /// True if the access hit an open row buffer.
    pub row_hit: bool,
    /// When the request entered the channel queue (critical-path
    /// attribution: `issued - enqueued` is the scheduling delay).
    pub enqueued: Time,
    /// When the scheduler issued the request to a bank.
    pub issued: Time,
}

/// Result of running a channel's scheduler once.
#[derive(Debug, Clone, Default)]
pub struct PumpResult {
    /// The request this pump issued, with its completion time. A pump
    /// issues at most one request (one command per burst slot).
    pub completion: Option<Completion>,
    /// When the scheduler next needs to run, if work remains.
    pub next_wake: Option<Time>,
}

#[derive(Debug, Clone, Copy)]
struct BankState {
    open_row: Option<u64>,
    ready_at: Time,
    last_access: Time,
    hit_streak: u32,
}

impl Default for BankState {
    fn default() -> Self {
        BankState {
            open_row: None,
            ready_at: Time::ZERO,
            last_access: Time::ZERO,
            hit_streak: 0,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RowOutcome {
    Hit,
    Closed,
    Conflict,
}

/// One direction's scheduler queue and the requests waiting to enter it.
#[derive(Debug, Default)]
struct Queue {
    /// Requests the scheduler may pick, oldest first (at most
    /// `queue_capacity`).
    entries: Vec<Pending>,
    /// Arrivals that found `entries` full, oldest first; the head enters
    /// when an entry issues.
    waiting: VecDeque<Pending>,
}

impl Queue {
    fn admit(&mut self, pending: Pending, capacity: usize) {
        if self.entries.len() < capacity {
            self.entries.push(pending);
        } else {
            self.waiting.push_back(pending);
        }
    }

    /// Removes entry `idx` for issue; the oldest waiting request takes
    /// the freed entry.
    fn take(&mut self, idx: usize) -> Pending {
        let pending = self.entries.remove(idx);
        self.entries.extend(self.waiting.pop_front());
        pending
    }

    fn len(&self) -> usize {
        self.entries.len() + self.waiting.len()
    }
}

/// One DRAM channel: read/write queues, banks, the shared data bus.
#[derive(Debug)]
pub struct DramChannel {
    config: DramConfig,
    mapping: AddressMapping,
    read_q: Queue,
    write_q: Queue,
    banks: Vec<BankState>,
    rank_next_refresh: Vec<Time>,
    bus_free_at: Time,
    next_issue_at: Time,
    draining: bool,
    stats: DramStats,
}

impl DramChannel {
    /// Creates an idle channel.
    pub fn new(config: DramConfig) -> Self {
        let refi = config.t_refi;
        DramChannel {
            config,
            mapping: AddressMapping::new(config.channels),
            read_q: Queue::default(),
            write_q: Queue::default(),
            banks: vec![BankState::default(); config.banks()],
            rank_next_refresh: (0..config.ranks)
                .map(|r| refi * (r as u64 + 1) / config.ranks as u64)
                .collect(),
            bus_free_at: Time::ZERO,
            next_issue_at: Time::ZERO,
            draining: false,
            stats: DramStats::default(),
        }
    }

    /// Queues a request. One that finds its direction's queue full waits,
    /// in arrival order, and enters when an entry of that queue issues;
    /// its queuing delay counts from `now` either way.
    pub fn enqueue(&mut self, req: DramRequest, now: Time) {
        let loc = self.mapping.locate(req.line);
        let pending = Pending {
            req,
            enqueued_at: now,
            bank: loc.rank * self.config.banks_per_rank + loc.bank,
            row: loc.row,
        };
        let capacity = self.config.queue_capacity;
        self.queue_mut(req.is_write).admit(pending, capacity);
    }

    fn queue(&self, is_write: bool) -> &Queue {
        if is_write {
            &self.write_q
        } else {
            &self.read_q
        }
    }

    fn queue_mut(&mut self, is_write: bool) -> &mut Queue {
        if is_write {
            &mut self.write_q
        } else {
            &mut self.read_q
        }
    }

    /// Requests not yet issued, both directions, waiting ones included.
    pub fn queued(&self) -> usize {
        self.read_q.len() + self.write_q.len()
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Clears statistics without touching timing state.
    pub fn reset_stats(&mut self) {
        self.stats = DramStats::default();
    }

    fn apply_refresh(&mut self, now: Time) {
        for rank in 0..self.config.ranks {
            while self.rank_next_refresh[rank] <= now {
                let start = self.rank_next_refresh[rank];
                let end = start + self.config.t_rfc;
                let base = rank * self.config.banks_per_rank;
                for b in 0..self.config.banks_per_rank {
                    let bank = &mut self.banks[base + b];
                    bank.ready_at = bank.ready_at.max(end);
                    bank.open_row = None;
                }
                self.rank_next_refresh[rank] += self.config.t_refi;
            }
        }
    }

    fn row_outcome(&self, bank: &BankState, row: u64, at: Time) -> RowOutcome {
        match bank.open_row {
            None => RowOutcome::Closed,
            Some(open) => {
                if bank.last_access + self.config.row_timeout <= at {
                    // Timeout policy auto-precharged the row in the
                    // background; the next access pays activate only.
                    RowOutcome::Closed
                } else if open == row {
                    RowOutcome::Hit
                } else {
                    RowOutcome::Conflict
                }
            }
        }
    }

    /// Picks a request index from `q` per FR-FCFS-capped: among requests
    /// whose bank is ready at `now`, row hits win (unless the bank's hit
    /// streak exceeded the cap), ties broken by age. Returns the chosen
    /// index, or the earliest bank-ready time if none is ready.
    fn pick(&self, q: &[Pending], now: Time) -> Result<usize, Option<Time>> {
        let mut best: Option<(bool, usize)> = None; // (is_hit, idx)
        let mut earliest: Option<Time> = None;
        for (i, p) in q.iter().enumerate() {
            let bank = &self.banks[p.bank];
            if bank.ready_at > now {
                earliest = Some(match earliest {
                    None => bank.ready_at,
                    Some(e) => e.min(bank.ready_at),
                });
                continue;
            }
            let hit = self.row_outcome(bank, p.row, now) == RowOutcome::Hit
                && bank.hit_streak < self.config.frfcfs_cap;
            match best {
                None => best = Some((hit, i)),
                Some((best_hit, _)) => {
                    // Hits beat non-hits; within a class, age (queue
                    // order) wins, so never replace an equal class.
                    if hit && !best_hit {
                        best = Some((hit, i));
                    }
                }
            }
        }
        match best {
            Some((_, i)) => Ok(i),
            None => Err(earliest),
        }
    }

    fn issue(&mut self, pending: Pending, now: Time) -> Completion {
        let cfg = self.config;
        let bank_idx = pending.bank;
        let row = pending.row;
        let outcome = self.row_outcome(&self.banks[bank_idx], row, now);
        let access_latency = match outcome {
            RowOutcome::Hit => cfg.row_hit_latency(),
            RowOutcome::Closed => cfg.row_closed_latency(),
            RowOutcome::Conflict => cfg.row_conflict_latency(),
        };

        let data_ready = now + access_latency;
        let bus_start = (data_ready.saturating_sub(cfg.burst)).max(self.bus_free_at);
        let done = bus_start + cfg.burst;
        self.bus_free_at = done;

        let bank = &mut self.banks[bank_idx];
        bank.open_row = Some(row);
        bank.last_access = done;
        bank.ready_at = match outcome {
            RowOutcome::Hit => now + cfg.burst, // CAS-to-CAS pipelining
            RowOutcome::Closed => now + cfg.t_rcd,
            RowOutcome::Conflict => now + cfg.t_rp + cfg.t_rcd,
        };
        bank.hit_streak = match outcome {
            RowOutcome::Hit => bank.hit_streak + 1,
            _ => 0,
        };

        match outcome {
            RowOutcome::Hit => self.stats.row_hits += 1,
            RowOutcome::Closed => self.stats.row_opens += 1,
            RowOutcome::Conflict => self.stats.row_conflicts += 1,
        }
        let bucket = self
            .stats
            .bucket_mut(pending.req.class, pending.req.is_write);
        bucket.count += 1;
        bucket.queuing_ns.add_time(now - pending.enqueued_at);
        bucket.bus_busy += cfg.burst;

        Completion {
            id: pending.req.id,
            done,
            is_write: pending.req.is_write,
            class: pending.req.class,
            line: pending.req.line,
            row_hit: outcome == RowOutcome::Hit,
            enqueued: pending.enqueued_at,
            issued: now,
        }
    }

    /// Runs the scheduler at `now`: issues at most one request (command
    /// bandwidth is one per burst slot) and reports when to run next.
    pub fn pump(&mut self, now: Time) -> PumpResult {
        self.apply_refresh(now);
        let mut result = PumpResult::default();

        if self.next_issue_at > now {
            if self.queued() > 0 {
                result.next_wake = Some(self.next_issue_at);
            }
            return result;
        }

        // Write-drain hysteresis.
        let writes = self.write_q.entries.len();
        if writes >= self.config.write_high_watermark {
            self.draining = true;
        } else if writes <= self.config.write_low_watermark {
            self.draining = false;
        }

        // Pick the queue: drain mode forces writes; otherwise reads first,
        // opportunistically serving writes when no read exists. Outside
        // drain mode, when no bank of the primary queue is ready, a ready
        // request of the other queue issues instead so the channel never
        // idles with issuable work.
        let primary = self.draining || self.read_q.entries.is_empty();
        let choice = match self.pick(&self.queue(primary).entries, now) {
            Ok(idx) => Ok((primary, idx)),
            Err(earliest) if self.draining || self.queue(!primary).entries.is_empty() => {
                Err(earliest)
            }
            Err(earliest) => match self.pick(&self.queue(!primary).entries, now) {
                Ok(idx) => Ok((!primary, idx)),
                Err(other) => Err(earliest.into_iter().chain(other).min()),
            },
        };
        match choice {
            Ok((is_write, idx)) => {
                let pending = self.queue_mut(is_write).take(idx);
                result.completion = Some(self.issue(pending, now));
                self.next_issue_at = now + self.config.burst;
                if self.queued() > 0 {
                    result.next_wake = Some(self.next_issue_at);
                }
            }
            Err(wake) => result.next_wake = wake,
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chan() -> DramChannel {
        DramChannel::new(DramConfig::table_i(1))
    }

    fn rd(id: u64, line: u64) -> DramRequest {
        DramRequest::read(id, LineAddr::new(line), RequestClass::Data)
    }

    fn wr(id: u64, line: u64) -> DramRequest {
        DramRequest::write(id, LineAddr::new(line), RequestClass::Data)
    }

    #[test]
    fn single_read_completes_with_closed_row_latency() {
        let mut c = chan();
        c.enqueue(rd(1, 0), Time::ZERO);
        let done = c.pump(Time::ZERO).completion.expect("one issue");
        assert_eq!(done.done, Time::from_ns_f64(30.0));
        assert!(!done.row_hit);
    }

    #[test]
    fn row_hit_detected_within_timeout() {
        let mut c = chan();
        c.enqueue(rd(1, 0), Time::ZERO);
        c.pump(Time::ZERO);
        let t = Time::from_ns(100);
        c.enqueue(rd(2, 1), t);
        let r = c.pump(t);
        assert!(r.completion.unwrap().row_hit);
    }

    #[test]
    fn row_times_out_after_500ns() {
        let mut c = chan();
        c.enqueue(rd(1, 0), Time::ZERO);
        c.pump(Time::ZERO);
        let t = Time::from_ns(900); // beyond last_access + 500ns
        c.enqueue(rd(2, 1), t);
        let done = c.pump(t).completion.unwrap();
        assert!(!done.row_hit);
        // Closed, not conflict: timeout precharged in the background.
        assert_eq!(done.done - t, Time::from_ns_f64(30.0));
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let mut c = chan();
        c.enqueue(rd(1, 0), Time::ZERO);
        let r1 = c.pump(Time::ZERO);
        let t = r1.completion.unwrap().done + Time::from_ns(50);
        // Same bank, different row: +16 banks * 8 ranks * 128 col stride.
        let conflict_line = 128 * 16 * 8 * 16; // row bits change, XOR keeps bank
        let loc_a = AddressMapping::new(1).locate(LineAddr::new(0));
        let loc_b = AddressMapping::new(1).locate(LineAddr::new(conflict_line));
        assert_eq!((loc_a.rank, loc_a.bank), (loc_b.rank, loc_b.bank));
        assert_ne!(loc_a.row, loc_b.row);
        c.enqueue(rd(2, conflict_line), t);
        let r2 = c.pump(t);
        assert_eq!(r2.completion.unwrap().done - t, Time::from_ns_f64(43.75));
    }

    #[test]
    fn frfcfs_prefers_row_hits() {
        let mut c = chan();
        // Open row 0 of bank (0,0).
        c.enqueue(rd(1, 0), Time::ZERO);
        let r = c.pump(Time::ZERO);
        let t = r.completion.unwrap().done;
        // Old request to a conflicting row, young request hitting the
        // open row: the young hit should issue first.
        let conflict_line = 128 * 16 * 8 * 16;
        c.enqueue(rd(2, conflict_line), t);
        c.enqueue(rd(3, 1), t);
        let r = c.pump(t);
        assert_eq!(
            r.completion.unwrap().id,
            3,
            "row hit must bypass older conflict"
        );
    }

    #[test]
    fn frfcfs_cap_limits_bypassing() {
        let mut c = chan();
        c.enqueue(rd(0, 0), Time::ZERO);
        let mut t = c.pump(Time::ZERO).completion.unwrap().done;
        let conflict_line = 128 * 16 * 8 * 16;
        // The old conflicting request waits while hits stream past — but
        // only up to the cap (4).
        c.enqueue(rd(100, conflict_line), t);
        let mut served_before_old = 0;
        for i in 0..10 {
            c.enqueue(rd(i + 1, 1 + i), t);
        }
        for _ in 0..20 {
            let r = c.pump(t);
            if let Some(comp) = r.completion {
                if comp.id == 100 {
                    break;
                }
                served_before_old += 1;
                t = t.max(comp.done);
            }
            t = r.next_wake.unwrap_or(t + Time::from_ns(1));
        }
        assert!(
            served_before_old <= 4,
            "cap must bound bypassing, saw {served_before_old}"
        );
    }

    #[test]
    fn reads_prioritized_over_writes() {
        let mut c = chan();
        c.enqueue(wr(1, 1_000_000), Time::ZERO);
        c.enqueue(rd(2, 0), Time::ZERO);
        let r = c.pump(Time::ZERO);
        assert_eq!(r.completion.unwrap().id, 2);
    }

    #[test]
    fn write_drain_kicks_in_at_watermark() {
        let mut c = chan();
        let hw = c.config.write_high_watermark;
        for i in 0..hw {
            c.enqueue(wr(i as u64, (i as u64) * 200_000), Time::ZERO);
        }
        c.enqueue(rd(9999, 7), Time::ZERO);
        let r = c.pump(Time::ZERO);
        assert!(
            r.completion.unwrap().is_write,
            "drain mode must serve writes before reads"
        );
    }

    #[test]
    fn saturated_row_hits_reach_bus_bandwidth() {
        // 256 sequential lines in one row: throughput must approach one
        // burst (2.5 ns) per access, not one access latency (16 ns).
        let mut c = chan();
        for i in 0..128 {
            c.enqueue(rd(i, i), Time::ZERO);
        }
        let mut t = Time::ZERO;
        let mut last_done = Time::ZERO;
        let mut completed = 0;
        while completed < 128 {
            let r = c.pump(t);
            if let Some(comp) = &r.completion {
                completed += 1;
                last_done = last_done.max(comp.done);
            }
            match r.next_wake {
                Some(w) => t = w,
                None => break,
            }
        }
        assert_eq!(completed, 128);
        let per_access = last_done.as_ns_f64() / 128.0;
        assert!(
            per_access < 4.0,
            "per-access time {per_access:.2} ns exceeds pipelined bound"
        );
    }

    #[test]
    fn refresh_stalls_banks() {
        let mut c = chan();
        // First refresh of rank 0 is at tREFI/8 = 975 ns.
        let t = Time::from_ns(980);
        c.enqueue(rd(1, 0), t);
        let r = c.pump(t);
        // The bank is blocked until refresh completes (975 + 350 = 1325 ns).
        match r.completion {
            Some(comp) => assert!(comp.done >= Time::from_ns(1325)),
            None => assert!(r.next_wake.unwrap() >= Time::from_ns(1325)),
        }
    }

    #[test]
    fn queuing_delay_recorded() {
        let mut c = chan();
        c.enqueue(rd(1, 0), Time::ZERO);
        c.enqueue(rd(2, 1_000_000), Time::ZERO);
        let mut t = Time::ZERO;
        for _ in 0..10 {
            let r = c.pump(t);
            match r.next_wake {
                Some(w) => t = w,
                None => break,
            }
        }
        let b = c.stats().bucket(RequestClass::Data, false);
        assert_eq!(b.count, 2);
        // The second request waited at least one issue slot.
        assert!(b.queuing_ns.max().unwrap() > 0.0);
    }
}
