//! Memory-controller side of the system: the secure pipeline, counter
//! fetch + integrity verification, write-backs, overflow re-encryption and
//! DRAM glue.

use std::collections::hash_map::Entry;
use std::collections::VecDeque;

use emcc_cache::{BlockKind, SetAssocCache};
use emcc_counters::TreeGeometry;
use emcc_crypto::CryptoLatencies;
use emcc_dram::config::DRAM_TCK;
use emcc_dram::{Completion, Dram, DramRequest, FaultModel, RequestClass};
use emcc_secmem::{AesPool, CryptoPlacement, OverflowEngine, OverflowTask};
use emcc_sim::trace::{Component, Span};
use emcc_sim::{EventQueue, FastHashMap, LineAddr, Time};

use crate::config::{COUNTER_DECODE, MC_CACHE_LATENCY, XOR_AND_COMPARE};
use crate::report::{CtrSource, SimReport};
use crate::system::{DataTxn, Ev, SecureSystem, TxnId};

/// Re-fetches after a failed verification before the line is delivered
/// poisoned.
pub const MAX_RETRIES: u32 = 3;
/// Backoff before the first re-fetch, in DRAM clock ticks (64 tCK = 40 ns,
/// comparable to a DRAM row miss); each later re-fetch doubles it.
pub const RETRY_BASE_TICKS: u64 = 64;
/// Consecutive local-verify failures after which an EMCC L2 falls back to
/// MC-side verification for the rest of the run.
pub const L2_FALLBACK_THRESHOLD: u32 = 4;

/// The backoff before re-fetch number `attempts` (0-based), or `None` once
/// [`MAX_RETRIES`] re-fetches are spent.
fn retry_backoff(attempts: u32) -> Option<Time> {
    (attempts < MAX_RETRIES).then(|| DRAM_TCK * (RETRY_BASE_TICKS << attempts))
}

// The paper (§IV-D) specifies detection: a MAC mismatch raises an
// ECC-style machine-check interrupt. What follows is the timing model's
// fixed policy: a bounded re-fetch with exponential backoff in DRAM clock
// ticks, and an EMCC L2 that keeps failing its local verify falls back to
// MC-side verification.
impl SimReport {
    /// The one integrity-failure path (L2 verify, MC MAC compare, tree
    /// walk): accounts `n` failures detected `latency` after the bad read
    /// arrived and decides recovery. `Some(backoff)` means re-fetch after
    /// `backoff` (the caller counts the attempt); `None` means `attempts`
    /// retries spent the budget, so the failures stay unrecovered and the
    /// access proceeds with the poisoned data (machine-check semantics:
    /// the OS would contain it; cores never wedge).
    pub(crate) fn integrity_failure(
        &mut self,
        n: u64,
        latency: Time,
        attempts: u32,
    ) -> Option<Time> {
        self.faulty_reads += n;
        self.integrity_violations += n;
        for _ in 0..n {
            self.detection_latency_ns.add_time(latency);
        }
        let backoff = retry_backoff(attempts);
        if backoff.is_some() {
            self.integrity_retries += 1;
        } else {
            self.integrity_unrecovered += n;
        }
        backoff
    }
}

/// Who asked for a counter block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CtrOrigin {
    /// An EMCC L2 (parallel counter request).
    L2 { core: usize },
    /// The MC itself (baseline serial access).
    Mc,
    /// Internal: the LLC found the block and is replying to the MC.
    LlcHitReply,
}

/// What joins a counter resolution at the MC.
#[derive(Debug)]
pub(crate) enum CtrJoiner {
    /// A data read the MC decrypts.
    Read(TxnId),
    /// A write-back waiting to bump the counter.
    Writeback(LineAddr),
    /// An EMCC L2 whose parallel counter request missed the LLC, with the
    /// reads at the MC that the MC now decrypts for it (§IV-D).
    L2 { core: usize, reads: Vec<TxnId> },
}

/// What a DRAM completion corresponds to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DramTarget {
    /// A demand/prefetch data read for a transaction. `refetch` marks
    /// integrity-recovery re-reads (they serve no new LLC miss).
    DataRead { txn: TxnId, refetch: bool },
    /// A metadata node fetch feeding the counter transaction keyed by its
    /// level-0 block address.
    NodeFetch { ctr_block: LineAddr },
    /// A posted write (data or metadata); nothing waits on it.
    PostedWrite,
    /// Background overflow re-encryption traffic.
    Overflow,
}

/// An in-flight counter resolution at the MC.
#[derive(Debug, Default)]
pub(crate) struct CtrTxn {
    /// Data reads at the MC waiting for this counter.
    pub data_waiters: Vec<TxnId>,
    /// Write-backs waiting for this counter.
    pub wb_waiters: Vec<LineAddr>,
    /// EMCC cores to forward the verified block to.
    pub l2_reply: Vec<usize>,
    /// Insert the verified block into the LLC when ready.
    pub llc_reply: bool,
    /// Outstanding node fetches (the block itself + missing ancestors).
    pub pending_fetches: u32,
    /// Ancestor nodes fetched from DRAM. Each costs one MAC check at
    /// verification (as does the block itself), then enters the MC cache
    /// so later walks stop early.
    pub fetched_ancestors: Vec<LineAddr>,
    /// Where the level-0 block was found.
    pub source: Option<CtrSource>,
    /// DRAM fetches have been launched.
    pub dram_started: bool,
    /// Node fetches in the current walk that returned corrupted contents
    /// (each fails its own per-level MAC check at verification time).
    pub corrupt: u32,
    /// Tree re-walks performed after failed verifications.
    pub retries: u32,
}

impl CtrTxn {
    /// Starts this resolution's DRAM walk for level-0 block `block`: the
    /// block, then each ancestor up to the first one resident (verified)
    /// in the MC cache `meta`, which the walk touches so hot tree nodes
    /// stay cached. Returns the nodes to fetch, the block first.
    fn start_walk(
        &mut self,
        block: LineAddr,
        geometry: &TreeGeometry,
        meta: &mut SetAssocCache<BlockKind>,
    ) -> Vec<LineAddr> {
        let (level0, idx0) = geometry.node_of_addr(block);
        debug_assert_eq!(level0, 0);
        let mut nodes = vec![block];
        let mut cur = (0u32, idx0);
        while let Some((lvl, idx)) = geometry.parent_of(cur.0, cur.1) {
            let addr = geometry.node_addr(lvl, idx);
            if meta.touch(addr) {
                break;
            }
            nodes.push(addr);
            cur = (lvl, idx);
        }
        self.dram_started = true;
        self.pending_fetches = nodes.len() as u32;
        self.fetched_ancestors = nodes[1..].to_vec();
        self.source.get_or_insert(CtrSource::Dram);
        nodes
    }

    /// One node of the walk for `block` arrived from DRAM at `now`. Once
    /// all have, each fetched level is verified (one MAC AES per level,
    /// pipelined on the MC's read pool `aes`) and the counter decoded.
    /// Returns the event that follows, and when: `McCtrReady`, or a
    /// `CtrRefetch` once the backoff has passed if a node failed its
    /// check and the retry budget lasts.
    fn node_arrived(
        &mut self,
        block: LineAddr,
        now: Time,
        aes: &mut AesPool,
        report: &mut SimReport,
    ) -> Option<(Time, Ev)> {
        self.pending_fetches = self.pending_fetches.saturating_sub(1);
        if self.pending_fetches > 0 {
            return None;
        }
        let levels = self.fetched_ancestors.len() + 1;
        let corrupt = std::mem::take(&mut self.corrupt);
        let mut done = now;
        for _ in 0..levels {
            let (_, d) = aes.schedule(now);
            done = done.max(d);
        }
        let ready = done + COUNTER_DECODE;
        if corrupt > 0 {
            // Counter/tree detection: each corrupted node fails its own
            // per-level MAC check at verify time. Recovery invalidates the
            // cached copy and re-walks the tree after a bounded backoff.
            let detected_after = ready.saturating_sub(now);
            if let Some(backoff) =
                report.integrity_failure(u64::from(corrupt), detected_after, self.retries)
            {
                self.retries += 1;
                return Some((ready + backoff, Ev::CtrRefetch { block }));
            }
            // Retry budget exhausted: the walk proceeds with the
            // unverifiable counter.
        }
        Some((ready, Ev::McCtrReady { block }))
    }
}

/// MC state owned by the system.
pub(crate) struct McState {
    /// The MC's private metadata cache (Table I: 128 KB, 32-way): level-0
    /// counter blocks and tree nodes, tagged by kind. Recovery drops a
    /// block even when dirty: a failed verification means its contents
    /// cannot be trusted.
    pub meta: SetAssocCache<BlockKind>,
    /// Read-path AES: OTPs for MC-decrypted reads and counter-block
    /// verification. Write-path AES runs on [`Self::aes_wr`] — real MCs
    /// deprioritize write-back crypto so it never delays read OTPs.
    pub aes: AesPool,
    /// Write-path AES (encryption + MAC update for write-backs).
    pub aes_wr: AesPool,
    pub overflow: OverflowEngine,
    pub ctr_txns: FastHashMap<LineAddr, CtrTxn>,
    pub dram_targets: FastHashMap<u64, DramTarget>,
    pub next_dram_id: u64,
    pub dram: Dram,
    /// Reused buffer for the requests one DRAM pump issues (empty
    /// between pumps), so pumping never allocates.
    pub dram_issued: Vec<Completion>,
    pub deferred_wb: VecDeque<LineAddr>,
    /// Optional DRAM fault injector, consulted on every demand/metadata
    /// completion (`None` in fault-free runs — zero behavioral change).
    pub fault: Option<FaultModel>,
    /// The DRAM schedulers' pending `DramPump` wake, if any.
    pub dram_pump_at: Option<Time>,
}

impl McState {
    /// Write-backs received but not yet counted by a counter bump: those
    /// waiting for their counter block or for overflow admission.
    pub(crate) fn writebacks_pending(&self) -> u64 {
        let waiting: usize = self.ctr_txns.values().map(|c| c.wb_waiters.len()).sum();
        (waiting + self.deferred_wb.len()) as u64
    }

    /// Queues a DRAM request that serves `target` and runs the
    /// schedulers.
    pub(crate) fn enqueue_dram(
        &mut self,
        queue: &mut EventQueue<Ev>,
        now: Time,
        line: LineAddr,
        is_write: bool,
        class: RequestClass,
        target: DramTarget,
    ) {
        let id = self.next_dram_id;
        self.next_dram_id += 1;
        let req = if is_write {
            DramRequest::write(id, line, class)
        } else {
            DramRequest::read(id, line, class)
        };
        self.dram.enqueue(req, now);
        self.dram_targets.insert(id, target);
        self.pump_dram(queue, now);
    }

    /// Runs the DRAM schedulers at `now`; true if they issued a request.
    pub(crate) fn pump_dram(&mut self, queue: &mut EventQueue<Ev>, now: Time) -> bool {
        let next_wake = self.dram.pump(now, &mut self.dram_issued);
        let issued = !self.dram_issued.is_empty();
        for c in self.dram_issued.drain(..) {
            queue.push(c.done, Ev::DramDone(c));
        }
        if let Some(w) = next_wake {
            let need = match self.dram_pump_at {
                None => true,
                Some(t) => w < t,
            };
            if need {
                self.dram_pump_at = Some(w);
                queue.push(w, Ev::DramPump);
            }
        }
        issued
    }
}

impl DataTxn {
    /// Decides whether read `id`, at the MC, ships now: it needs its data
    /// from DRAM and, when the MC decrypts it, its finished OTP. Returns
    /// the ship time and whether the MC verified the line, with the ship
    /// recorded on the read and in `report`; `None` while the read waits,
    /// or when a failed check queued its `DataRefetch`.
    pub(crate) fn try_ship(
        &mut self,
        id: TxnId,
        placement: CryptoPlacement,
        crypto: &CryptoLatencies,
        now: Time,
        report: &mut SimReport,
        queue: &mut EventQueue<Ev>,
    ) -> Option<(Time, bool)> {
        if !self.at_mc {
            return None;
        }
        let data_at = self.mc_data_at?;
        // `crypt` is the serial crypto charged between data arrival and the
        // ship: the XOR + MAC compare for counter-mode schemes, or the
        // direct cipher's read latency for counter-free placements.
        let (ship_at, verified, crypt) = if !placement.encrypts {
            (data_at.max(now), true, None)
        } else if let Some(cipher) = placement.direct_cipher() {
            let lat = crypto.direct_read_latency(cipher);
            (data_at.max(now) + lat, true, Some((Component::Aes, lat)))
        } else if self.mc_decrypt {
            // `None`: the counter fetch is still in flight.
            let otp_done = self.mc_ctr_ready?;
            (
                data_at.max(otp_done).max(now) + XOR_AND_COMPARE,
                true,
                Some((Component::Verify, XOR_AND_COMPARE)),
            )
        } else {
            // EMCC: ship ciphertext + MAC⊕dot (the GF dot product is
            // parallel and fast — charge the same small constant).
            (
                data_at.max(now) + XOR_AND_COMPARE,
                false,
                Some((Component::Verify, XOR_AND_COMPARE)),
            )
        };

        // MC-side detection: corrupted data cannot pass the MAC compare
        // that gates a verified ship. Unverified EMCC ships carry the
        // corruption to the requesting L2, whose local verify catches it.
        if self.corrupt.is_some() && (verified || !placement.detects_tamper) {
            self.corrupt = None;
            if !placement.detects_tamper {
                // No verification exists (non-secure, or an encryption-only
                // cipher like BipBip that decrypts tampered ciphertext into
                // garbage); the corrupted line is consumed.
                report.faulty_reads += 1;
                report.silent_corruptions += 1;
            } else {
                let (comp, cost) = crypt.expect("tamper detection implies crypto cost");
                let detected_after = ship_at.saturating_sub(data_at);
                if let Some(backoff) = report.integrity_failure(1, detected_after, self.retries) {
                    self.retries += 1;
                    self.mc_data_at = None;
                    // The failed MAC compare (or direct-cipher check) is
                    // real work; the backoff gap after it shows up as
                    // unattributed time.
                    self.spans
                        .push(Span::new(comp, ship_at.saturating_sub(cost), ship_at));
                    queue.push(ship_at + backoff, Ev::DataRefetch { txn: id });
                    return None;
                }
                // Retry budget exhausted: the poisoned line is delivered.
            }
        }
        if verified && placement.encrypts {
            report.decrypted_at_mc += 1;
        }
        report
            .secure_access_latency_ns
            .add_time(ship_at.saturating_sub(self.t_mc_arrival));
        // Mark shipped so duplicate calls do nothing.
        self.mc_data_at = None;
        if let Some((comp, cost)) = crypt {
            // MAC compare (verified), MAC⊕dot generation (EMCC ship), or
            // the direct cipher's serial decrypt.
            self.spans
                .push(Span::new(comp, ship_at.saturating_sub(cost), ship_at));
        }
        self.t_shipped = Some(ship_at);
        if !verified {
            self.shipped_unverified = true;
        }
        Some((ship_at, verified))
    }
}

impl SecureSystem {
    // ----- DRAM plumbing ---------------------------------------------------

    pub(crate) fn dram_done(&mut self, c: Completion) {
        let Some(target) = self.mc.dram_targets.remove(&c.id) else {
            return;
        };
        // Fault model: writes repair soft faults in the written line;
        // demand and metadata reads may return corrupted contents.
        // Overflow re-encryption traffic bypasses the model — its reads
        // are re-verified by the re-encryption itself.
        let fault = match self.mc.fault.as_mut() {
            Some(fm) if c.is_write => {
                fm.on_write(c.line);
                None
            }
            Some(fm)
                if matches!(
                    target,
                    DramTarget::DataRead { .. } | DramTarget::NodeFetch { .. }
                ) =>
            {
                fm.on_read(c.line, c.class)
            }
            _ => None,
        };
        if let Some(ev) = fault {
            if ev.fresh {
                self.report.faults_injected[ev.class.index()] += 1;
            }
        }
        match target {
            DramTarget::DataRead {
                txn: txn_id,
                refetch,
            } => {
                self.report.dram_data_reads += 1;
                if refetch {
                    self.report.data_refetch_reads += 1;
                }
                match self.txns.get_mut(&txn_id) {
                    Some(txn) => {
                        txn.mc_data_at = Some(self.now);
                        txn.spans
                            .push(Span::new(Component::McQueue, c.enqueued, c.issued));
                        let row = if c.row_hit {
                            Component::DramRowHit
                        } else {
                            Component::DramRowMiss
                        };
                        txn.spans.push(Span::new(row, c.issued, self.now));
                        // Attach the corruption to the transaction; it is
                        // counted as a consumed faulty read at the point a
                        // verifier (or unverified delivery) observes it, so
                        // speculative reads whose data is discarded do not
                        // skew the detection-rate denominator.
                        if let Some(ev) = fault {
                            txn.corrupt = Some(ev.class);
                        }
                        let placement = self.cfg.scheme.placement();
                        let crypto = &self.cfg.crypto;
                        let (report, queue) = (&mut self.report, &mut self.queue);
                        if let Some(ship) =
                            txn.try_ship(txn_id, placement, crypto, self.now, report, queue)
                        {
                            let (core, line) = (txn.core, txn.line);
                            self.ship_data(txn_id, core, line, ship);
                        }
                    }
                    // The transaction already completed (the LLC served it
                    // under an XPT speculative read): wasted bandwidth.
                    None => {
                        if !refetch {
                            self.report.xpt_wasted_reads += 1;
                        }
                    }
                }
            }
            DramTarget::NodeFetch { ctr_block } => {
                if let Some(ctr) = self.mc.ctr_txns.get_mut(&ctr_block) {
                    ctr.corrupt += u32::from(fault.is_some());
                    let aes = &mut self.mc.aes;
                    if let Some((t, ev)) =
                        ctr.node_arrived(ctr_block, self.now, aes, &mut self.report)
                    {
                        self.queue.push(t, ev);
                    }
                }
            }
            DramTarget::PostedWrite => {}
            DramTarget::Overflow => {
                self.mc.overflow.complete_one();
                self.pump_overflow();
                if self.mc.overflow.can_add() {
                    while let Some(line) = self.mc.deferred_wb.pop_front() {
                        self.mc_writeback(line);
                        if !self.mc.overflow.can_add() {
                            break;
                        }
                    }
                }
            }
        }
        self.mc.pump_dram(&mut self.queue, self.now);
    }

    // ----- Data reads at the MC --------------------------------------------

    pub(crate) fn mc_data_req(&mut self, txn_id: TxnId, via_xpt: bool) {
        let Some(txn) = self.txns.get_mut(&txn_id) else {
            return;
        };
        let confirm = !(via_xpt || txn.at_mc);
        if confirm {
            txn.at_mc = true;
            txn.t_mc_arrival = self.now;
            txn.from_dram = true;
            // NoC leg: slice (where the miss was classified) to MC.
            let from = txn.t_slice_done.unwrap_or(self.now);
            txn.spans.push(Span::new(Component::Noc, from, self.now));
        }
        // The speculative XPT copy only starts the DRAM read early; the
        // secure pipeline acts on the confirmed miss (Intel XPT semantics:
        // the response still flows through the normal path).
        if !std::mem::replace(&mut txn.dram_issued, true) {
            let target = DramTarget::DataRead {
                txn: txn_id,
                refetch: false,
            };
            let (queue, now) = (&mut self.queue, self.now);
            self.mc
                .enqueue_dram(queue, now, txn.line, false, RequestClass::Data, target);
        }
        if !confirm {
            return;
        }
        if self.cfg.scheme.placement().uses_counters() && txn.mc_decrypt {
            // Baseline / offload path: find the counter for the read.
            let block = self.tree.geometry().counter_block_addr(txn.line);
            if !self.mc.meta.touch(block) {
                self.mc_fetch_counter(block, CtrJoiner::Read(txn_id));
                return;
            }
            let ready = self.now + MC_CACHE_LATENCY + COUNTER_DECODE;
            // Start the OTP AES as soon as the counter is decoded.
            let aes = self.mc.aes.schedule_span(ready);
            txn.mc_ctr_ready = Some(aes.end);
            txn.ctr_source = Some(CtrSource::Mc);
            // Metadata-cache lookup + counter decode, then the OTP AES.
            txn.spans
                .push(Span::new(Component::CtrFetch, self.now, ready));
            txn.spans.push(aes);
        }
        // Counter-free placements wait on data alone; direct ciphers pay
        // their latency at ship. EMCC non-offload reads: the L2 handles
        // the counter; the MC ships ciphertext + MAC⊕dot when data
        // arrives — unless a counter LLC miss later flips this to
        // `mc_decrypt`.
        let placement = self.cfg.scheme.placement();
        let (crypto, report, queue) = (&self.cfg.crypto, &mut self.report, &mut self.queue);
        if let Some(ship) = txn.try_ship(txn_id, placement, crypto, self.now, report, queue) {
            let (core, line) = (txn.core, txn.line);
            self.ship_data(txn_id, core, line, ship);
        }
    }

    /// Sends shipped read `txn`'s data from the MC at `ship_at` to its
    /// L2, through the line's slice (both legs carry data). Inclusive
    /// mode mirrors the fill into that slice first, marked unverified
    /// unless the MC `verified` the line.
    fn ship_data(
        &mut self,
        txn: TxnId,
        core: usize,
        line: LineAddr,
        (ship_at, verified): (Time, bool),
    ) {
        self.inclusive_fill(line, verified);
        let slice = self.slice_map.slice_of(line);
        let t = ship_at + self.noc.slice_mc(slice, true) + self.noc.l2_slice(core, slice, true);
        self.queue.push(t, Ev::L2Fill { txn, verified });
    }

    // ----- Counter fetch + verification -------------------------------------

    /// Joins `joiner` to the resolution of counter block `block`, opening
    /// one if none is in flight.
    ///
    /// A new resolution probes the LLC when the scheme caches counters
    /// there, unless its joiner is an L2 whose request already missed the
    /// LLC; otherwise it starts the tree walk. An L2 that joins a
    /// resolution whose walk has not started starts it too.
    pub(crate) fn mc_fetch_counter(&mut self, block: LineAddr, joiner: CtrJoiner) {
        let counters_in_llc = self.cfg.scheme.placement().counters_in_llc();
        let (exists, ctr) = match self.mc.ctr_txns.entry(block) {
            Entry::Occupied(e) => (true, e.into_mut()),
            Entry::Vacant(e) => (false, e.insert(CtrTxn::default())),
        };
        let from_l2 = matches!(joiner, CtrJoiner::L2 { .. });
        match joiner {
            CtrJoiner::Read(txn) => ctr.data_waiters.push(txn),
            CtrJoiner::Writeback(line) => ctr.wb_waiters.push(line),
            CtrJoiner::L2 { core, reads } => {
                ctr.data_waiters.extend(reads);
                if !ctr.l2_reply.contains(&core) {
                    ctr.l2_reply.push(core);
                }
                ctr.llc_reply = true;
            }
        }
        let walk = if exists {
            from_l2 && !ctr.dram_started
        } else if counters_in_llc && !from_l2 {
            ctr.llc_reply = true;
            self.report.mc_ctr_reqs_to_llc += 1;
            let slice = self.slice_map.slice_of(block);
            let t = self.now + self.noc.slice_mc(slice, false);
            self.queue.push(
                t,
                Ev::SliceCtrReq {
                    block,
                    origin: CtrOrigin::Mc,
                },
            );
            false
        } else {
            true
        };
        if walk {
            let nodes = ctr.start_walk(block, self.tree.geometry(), &mut self.mc.meta);
            self.fetch_ctr_nodes(block, nodes);
        }
    }

    /// Fetches the nodes of `block`'s counter walk from DRAM, the block
    /// itself first.
    fn fetch_ctr_nodes(&mut self, block: LineAddr, nodes: Vec<LineAddr>) {
        for (i, node) in nodes.into_iter().enumerate() {
            let class = if i == 0 {
                RequestClass::Counter
            } else {
                RequestClass::TreeNode
            };
            let target = DramTarget::NodeFetch { ctr_block: block };
            self.mc
                .enqueue_dram(&mut self.queue, self.now, node, false, class, target);
        }
    }

    // ----- Fault recovery ----------------------------------------------------

    /// Drops a counter block's LLC and EMCC L2 copies: `stale` after a
    /// write-back bumps the counter (the L2 drops Fig 23 counts), suspect
    /// after a failed verification.
    fn drop_ctr_copies(&mut self, block: LineAddr, stale: bool) {
        let placement = self.cfg.scheme.placement();
        if placement.l2_decrypts() {
            for core in 0..self.cfg.cores {
                self.evict_l2_ctr_line(core, block, stale);
            }
        }
        if placement.counters_in_llc() {
            let slice = self.slice_map.slice_of(block);
            self.slices[slice].invalidate(block);
        }
    }

    /// Recovery: re-fetch a data line whose verification failed. The
    /// covering counter block is invalidated everywhere first, so the
    /// retry re-walks (and re-verifies) the tree path from DRAM.
    pub(crate) fn data_refetch(&mut self, txn_id: TxnId) {
        let Some(txn) = self.txns.get_mut(&txn_id) else {
            return;
        };
        let line = txn.line;
        txn.corrupt = None;
        txn.mc_data_at = None;
        txn.mc_ctr_ready = None;
        txn.mc_decrypt = true;
        txn.shipped_unverified = false;
        txn.cipher_at = None;
        txn.aes_done = None;
        let block = self.tree.geometry().counter_block_addr(line);
        self.mc.meta.invalidate(block);
        self.drop_ctr_copies(block, false);
        let target = DramTarget::DataRead {
            txn: txn_id,
            refetch: true,
        };
        let (queue, now) = (&mut self.queue, self.now);
        self.mc
            .enqueue_dram(queue, now, line, false, RequestClass::Data, target);
        // Direct-cipher placements have no counter to re-resolve; the
        // refetched data alone re-enters `DataTxn::try_ship`. Otherwise the
        // counter, just dropped from the MC cache, joins a resolution.
        if self.cfg.scheme.placement().uses_counters() {
            self.mc_fetch_counter(block, CtrJoiner::Read(txn_id));
        }
    }

    /// Recovery: re-walk the integrity tree for a counter block whose
    /// verification failed (the resolution stays alive; its waiters are
    /// released by the eventual `McCtrReady`).
    pub(crate) fn ctr_refetch(&mut self, block: LineAddr) {
        let Some(ctr) = self.mc.ctr_txns.get_mut(&block) else {
            return;
        };
        self.mc.meta.invalidate(block);
        let nodes = ctr.start_walk(block, self.tree.geometry(), &mut self.mc.meta);
        self.drop_ctr_copies(block, false);
        self.fetch_ctr_nodes(block, nodes);
    }

    /// A counter request (or LLC reply) arrives at the MC.
    pub(crate) fn mc_ctr_req(&mut self, block: LineAddr, origin: CtrOrigin) {
        match origin {
            CtrOrigin::LlcHitReply => {
                // The LLC had the verified block.
                if let Some(ctr) = self.mc.ctr_txns.get_mut(&block) {
                    ctr.source = Some(CtrSource::Llc);
                    ctr.llc_reply = false; // already in LLC
                    self.queue
                        .push(self.now + COUNTER_DECODE, Ev::McCtrReady { block });
                }
            }
            CtrOrigin::Mc => {
                // Our own probe missed in LLC: fetch from DRAM.
                if let Some(ctr) = self.mc.ctr_txns.get_mut(&block) {
                    if !ctr.dram_started {
                        let nodes = ctr.start_walk(block, self.tree.geometry(), &mut self.mc.meta);
                        self.fetch_ctr_nodes(block, nodes);
                    }
                }
            }
            CtrOrigin::L2 { core } => {
                // An EMCC L2's parallel counter request missed in LLC.
                // Per §IV-D the MC takes over decryption for the linked
                // data accesses and will reply the verified counter to
                // both LLC and L2.
                // Borrowing the waiter list while mutating `txns` is fine
                // (disjoint fields) — no clone of the list per request.
                let mut reads: Vec<TxnId> = Vec::new();
                for &txn_id in self
                    .l2_ctr_waiters
                    .get(&(core, block))
                    .into_iter()
                    .flatten()
                {
                    let Some(txn) = self.txns.get_mut(&txn_id) else {
                        continue;
                    };
                    // Take over decryption only if the MC has not already
                    // shipped the ciphertext (fast-DRAM race: the L2 then
                    // finishes locally once the counter arrives).
                    if !txn.shipped_unverified {
                        txn.mc_decrypt = true;
                        txn.ctr_source = Some(CtrSource::Dram);
                    }
                    // Data transactions already at the MC join as waiters
                    // so their OTPs start the moment the counter verifies.
                    if txn.at_mc && txn.mc_decrypt {
                        reads.push(txn_id);
                    }
                }
                if self.mc.meta.touch(block) && !self.mc.ctr_txns.contains_key(&block) {
                    // Rare: the MC already holds it (inserted after the
                    // L2 looked). Reply directly.
                    let ready = self.now + MC_CACHE_LATENCY;
                    self.ctr_reply_to_l2(block, core, ready);
                    for txn_id in reads {
                        self.mc_ctr_ready_for_txn(txn_id, ready, None);
                    }
                    return;
                }
                self.mc_fetch_counter(block, CtrJoiner::L2 { core, reads });
            }
        }
    }

    /// The counter block is verified and usable.
    pub(crate) fn mc_ctr_ready(&mut self, block: LineAddr) {
        let Some(mut ctr) = self.mc.ctr_txns.remove(&block) else {
            return;
        };
        // Insert the block and its fetched ancestors into the MC's
        // metadata cache (all verified by now).
        self.meta_fill(block, BlockKind::Counter, false);
        for node in std::mem::take(&mut ctr.fetched_ancestors) {
            self.meta_fill(node, BlockKind::TreeNode, false);
        }
        // Reply to the LLC (the baseline's "second-level counter cache").
        if ctr.llc_reply {
            let slice = self.slice_map.slice_of(block);
            let victim = self.slices[slice].insert(
                block,
                false,
                crate::system::LlcMeta::verified(BlockKind::Counter),
            );
            self.handle_llc_eviction(victim);
        }
        // Reply to EMCC L2s.
        for core in std::mem::take(&mut ctr.l2_reply) {
            self.ctr_reply_to_l2(block, core, self.now);
        }
        // Resume MC-side data reads.
        let src = ctr.source.unwrap_or(CtrSource::Dram);
        for txn_id in ctr.data_waiters {
            self.mc_ctr_ready_for_txn(txn_id, self.now, Some(src));
        }
        // Resume write-backs.
        for line in ctr.wb_waiters {
            self.mc_do_writeback_with_counter(line);
        }
    }

    /// The counter of MC-decrypted read `txn_id` is ready at `ready`,
    /// found at `src` unless the read already recorded a source: decode
    /// it, run the OTP AES, and try to ship.
    fn mc_ctr_ready_for_txn(&mut self, txn_id: TxnId, ready: Time, src: Option<CtrSource>) {
        let Some(txn) = self.txns.get_mut(&txn_id) else {
            return;
        };
        if let Some(src) = src {
            txn.ctr_source.get_or_insert(src);
        }
        if !txn.mc_decrypt || txn.mc_ctr_ready.is_some() {
            return;
        }
        let decoded = ready + COUNTER_DECODE;
        let aes = self.mc.aes.schedule_span(decoded);
        txn.mc_ctr_ready = Some(aes.end);
        // The MC-side counter wait: from this read's arrival at the MC
        // (the walk may predate it) until the counter is decoded.
        let from = txn.t_mc_arrival.min(decoded);
        txn.spans
            .push(Span::new(Component::CtrFetch, from, decoded));
        txn.spans.push(aes);
        let placement = self.cfg.scheme.placement();
        let (crypto, report, queue) = (&self.cfg.crypto, &mut self.report, &mut self.queue);
        if let Some(ship) = txn.try_ship(txn_id, placement, crypto, self.now, report, queue) {
            let (core, line) = (txn.core, txn.line);
            self.ship_data(txn_id, core, line, ship);
        }
    }

    fn ctr_reply_to_l2(&mut self, block: LineAddr, core: usize, ship_at: Time) {
        let slice = self.slice_map.slice_of(block);
        let t = ship_at + self.noc.slice_mc(slice, true) + self.noc.l2_slice(core, slice, true);
        self.queue.push(t, Ev::L2CtrFill { core, block });
    }

    // ----- Write-backs -------------------------------------------------------

    /// Routes a write-back by placement: posted as is, through a direct
    /// cipher, or through the counter path.
    pub(crate) fn mc_writeback(&mut self, line: LineAddr) {
        let placement = self.cfg.scheme.placement();
        if !placement.encrypts {
            self.mc_write_issue(line);
            return;
        }
        if let Some(cipher) = placement.direct_cipher() {
            // Counter-free cipher: no counter bump, no tree walk, no
            // coherence invalidations — just the cipher's write latency
            // (zero for near-memory: the device encrypts off the bus)
            // before the posted write.
            let lat = self.cfg.crypto.direct_write_latency(cipher);
            if lat == Time::ZERO {
                self.mc_write_issue(line);
            } else {
                self.queue.push(self.now + lat, Ev::McWriteIssue { line });
            }
            return;
        }
        let block = self.tree.geometry().counter_block_addr(line);
        if self.mc.meta.touch(block) {
            self.mc_do_writeback_with_counter(line);
        } else {
            self.mc_fetch_counter(block, CtrJoiner::Writeback(line));
        }
    }

    /// Counter block is on hand: bump the counter, encrypt, write.
    pub(crate) fn mc_do_writeback_with_counter(&mut self, line: LineAddr) {
        // Overflow admission control (§V: at most two outstanding): a
        // write-back that would start a third stalls until one drains.
        if self.tree.would_overflow_data(line) && !self.mc.overflow.can_add() {
            self.report.overflow_stalls += 1;
            self.mc.deferred_wb.push_back(line);
            return;
        }
        let block = self.tree.geometry().counter_block_addr(line);
        let r = self.tree.increment_data(line);
        self.mc.meta.mark_dirty(block);
        // Coherence: the LLC and L2 copies are stale now (Fig 23).
        self.drop_ctr_copies(block, true);

        if r.overflow.is_some() {
            let coverage = self.cfg.counter_design.coverage();
            let cb_idx = self.tree.geometry().counter_block_of(line);
            self.mc.overflow.add(OverflowTask {
                base: LineAddr::new(cb_idx * coverage),
                blocks: coverage,
                level: 0,
            });
            self.pump_overflow();
        }

        // Encryption + MAC: a write needs 8 AES (4 OTP + 4 MAC words),
        // charged as two pipelined slots on the deprioritized write pool.
        let (_, d1) = self.mc.aes_wr.schedule(self.now);
        let (_, d2) = self.mc.aes_wr.schedule(self.now);
        let pad_ready = d1.max(d2);
        // The DRAM write is posted once the ciphertext is ready; enqueue
        // through a zero-payload event to respect the time.
        self.queue.push(pad_ready, Ev::McWriteIssue { line });
    }

    /// Posts a write-back's DRAM write.
    pub(crate) fn mc_write_issue(&mut self, line: LineAddr) {
        let (queue, now) = (&mut self.queue, self.now);
        let target = DramTarget::PostedWrite;
        self.mc
            .enqueue_dram(queue, now, line, true, RequestClass::Data, target);
    }

    /// Inserts a verified metadata block into the MC cache and writes back
    /// the dirty block it evicts, if any.
    fn meta_fill(&mut self, addr: LineAddr, kind: BlockKind, dirty: bool) {
        if let Some(victim) = self.mc.meta.insert(addr, dirty, kind) {
            if victim.dirty {
                self.meta_victim_writeback(victim.addr, victim.meta);
            }
        }
    }

    /// A dirty metadata block leaves the MC cache: write it to DRAM and
    /// bump its protecting counter (which may overflow at a higher level).
    pub(crate) fn meta_victim_writeback(&mut self, addr: LineAddr, kind: BlockKind) {
        let class = match kind {
            BlockKind::Counter => RequestClass::Counter,
            _ => RequestClass::TreeNode,
        };
        let target = DramTarget::PostedWrite;
        self.mc
            .enqueue_dram(&mut self.queue, self.now, addr, true, class, target);
        let (level, idx) = self.tree.geometry().node_of_addr(addr);
        let r = self.tree.increment_node(level, idx);
        // Mark/insert the parent dirty.
        if let Some((plvl, pidx)) = self.tree.geometry().parent_of(level, idx) {
            let paddr = self.tree.geometry().node_addr(plvl, pidx);
            if !self.mc.meta.mark_dirty(paddr) {
                self.meta_fill(paddr, BlockKind::TreeNode, true);
            }
        }
        if r.overflow.is_some() {
            // A level-(level+1) block overflowed: re-MAC its children
            // (the `level`-level nodes).
            let arity = self.cfg.counter_design.coverage();
            let first_child = (idx / arity) * arity;
            let max_idx = self.tree.geometry().blocks_at_level(level);
            let blocks = arity.min(max_idx - first_child);
            let base = self.tree.geometry().node_addr(level, first_child);
            if self.mc.overflow.can_add() {
                self.mc.overflow.add(OverflowTask {
                    base,
                    blocks,
                    level: level + 1,
                });
                self.pump_overflow();
            }
            // Else: dropped. The tree still counts the overflow, but its
            // re-encryption traffic never reaches DRAM.
        }
    }

    // ----- Overflow engine ----------------------------------------------------

    pub(crate) fn pump_overflow(&mut self) {
        while let Some(req) = self.mc.overflow.next_request() {
            let class = if req.level == 0 {
                RequestClass::OverflowL0
            } else {
                RequestClass::OverflowHigher
            };
            let (queue, now) = (&mut self.queue, self.now);
            let target = DramTarget::Overflow;
            self.mc
                .enqueue_dram(queue, now, req.line, req.is_write, class, target);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use emcc_secmem::SecurityScheme;

    #[test]
    fn retry_schedule_doubles_and_stops_after_three() {
        assert_eq!(retry_backoff(0), Some(Time::from_ns(40)));
        assert_eq!(retry_backoff(1), Some(Time::from_ns(80)));
        assert_eq!(retry_backoff(2), Some(Time::from_ns(160)));
        assert_eq!(retry_backoff(3), None);
    }

    /// A metadata block the MC cache evicts dirty is written back, which
    /// bumps its protecting counter; one evicted clean leaves silently.
    #[test]
    fn meta_fill_writes_back_only_dirty_victims() {
        let mut cfg = SystemConfig::table_i(SecurityScheme::McOnly);
        // One set of two ways.
        cfg.mc_cache_size = 128;
        cfg.mc_cache_ways = 2;
        let mut sys = SecureSystem::new(cfg);
        let [a, b, c, d] = [0, 1, 2, 3].map(|i| sys.tree.geometry().node_addr(0, i));
        sys.meta_fill(a, BlockKind::Counter, false);
        sys.meta_fill(b, BlockKind::Counter, true);
        sys.meta_fill(c, BlockKind::Counter, false); // evicts a, clean
        assert_eq!(sys.tree.node_counter(0, 0), 0);
        assert!(sys.mc.dram_targets.is_empty());
        sys.meta_fill(d, BlockKind::Counter, false); // evicts b, dirty
        assert_eq!(sys.tree.node_counter(0, 1), 1);
        assert_eq!(sys.mc.dram_targets.len(), 1);
    }
}
