//! Memory-controller side of the system: the secure pipeline, counter
//! fetch + integrity verification, write-backs, overflow re-encryption and
//! DRAM glue.

use std::collections::VecDeque;

use emcc_cache::{BlockKind, SetAssocCache};
use emcc_crypto::DataBlock;
use emcc_dram::{Completion, Dram, DramRequest, FaultModel, RequestClass};
use emcc_secmem::{AesPool, OverflowEngine, OverflowTask};
use emcc_sim::trace::{Component, Span};
use emcc_sim::{FastHashMap, LineAddr, Time};

use crate::config::MC_CACHE_LATENCY;
use crate::report::CtrSource;
use crate::system::{Ev, SecureSystem, TxnId};

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
}

impl SecureSystem {
    // ----- DRAM plumbing ---------------------------------------------------

    pub(crate) fn enqueue_dram(
        &mut self,
        line: LineAddr,
        is_write: bool,
        class: RequestClass,
        target: DramTarget,
    ) {
        let id = self.mc.next_dram_id;
        self.mc.next_dram_id += 1;
        let req = if is_write {
            DramRequest::write(id, line, class)
        } else {
            DramRequest::read(id, line, class)
        };
        self.mc.dram.enqueue(req, self.now);
        self.mc.dram_targets.insert(id, target);
        self.pump_dram();
    }

    /// Runs the DRAM schedulers now; true if they issued a request.
    pub(crate) fn pump_dram(&mut self) -> bool {
        let next_wake = self.mc.dram.pump(self.now, &mut self.mc.dram_issued);
        let issued = !self.mc.dram_issued.is_empty();
        for c in self.mc.dram_issued.drain(..) {
            self.queue.push(c.done, Ev::DramDone(c));
        }
        if let Some(w) = next_wake {
            let need = match self.dram_pump_at {
                None => true,
                Some(t) => w < t,
            };
            if need {
                self.dram_pump_at = Some(w);
                self.queue.push(w, Ev::DramPump);
            }
        }
        issued
    }

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
                    }
                    // The transaction already completed (the LLC served it
                    // under an XPT speculative read): wasted bandwidth.
                    None => {
                        if !refetch {
                            self.report.xpt_wasted_reads += 1;
                        }
                    }
                }
                self.try_ship_data(txn_id);
            }
            DramTarget::NodeFetch { ctr_block } => {
                if fault.is_some() {
                    if let Some(ctr) = self.mc.ctr_txns.get_mut(&ctr_block) {
                        ctr.corrupt += 1;
                    }
                }
                self.ctr_node_arrived(ctr_block);
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
        self.pump_dram();
    }

    // ----- Data reads at the MC --------------------------------------------

    pub(crate) fn mc_data_req(&mut self, txn_id: TxnId, via_xpt: bool) {
        // One borrow covers the reads AND the confirmed-miss bookkeeping
        // (`enqueue_dram` below needs whole-`self`, so the arrival
        // mutations happen first — nothing in between observes them).
        let (line, issue_read, confirm, mc_decrypt) = match self.txns.get_mut(&txn_id) {
            Some(txn) => {
                let confirm = !(via_xpt || txn.at_mc);
                if confirm {
                    txn.at_mc = true;
                    txn.t_mc_arrival = self.now;
                    txn.from_dram = true;
                    // NoC leg: slice (where the miss was classified) to MC.
                    let from = txn.t_slice_done.unwrap_or(self.now);
                    txn.spans.push(Span::new(Component::Noc, from, self.now));
                }
                let issue_read = !std::mem::replace(&mut txn.dram_issued, true);
                (txn.line, issue_read, confirm, txn.mc_decrypt)
            }
            None => return,
        };
        // The speculative XPT copy only starts the DRAM read early; the
        // secure pipeline acts on the confirmed miss (Intel XPT semantics:
        // the response still flows through the normal path).
        if issue_read {
            self.enqueue_dram(
                line,
                false,
                RequestClass::Data,
                DramTarget::DataRead {
                    txn: txn_id,
                    refetch: false,
                },
            );
        }
        if !confirm {
            return;
        }
        let placement = self.cfg.scheme.placement();
        if !placement.encrypts {
            self.try_ship_data(txn_id);
            return;
        }
        if mc_decrypt && placement.uses_counters() {
            self.mc_resolve_counter_for_read(txn_id);
        } else {
            // Direct-cipher placements have no counter stream: the read
            // waits on data alone and pays its cipher latency at ship.
            // EMCC non-offload reads: the L2 handles the counter; the MC
            // ships ciphertext + MAC⊕dot when data arrives — unless a
            // counter LLC miss later flips this to `mc_decrypt`.
            self.try_ship_data(txn_id);
        }
    }

    /// Baseline / offload path: find the counter for a data read.
    fn mc_resolve_counter_for_read(&mut self, txn_id: TxnId) {
        let line = self.txns[&txn_id].line;
        let block = self.ctr_block_of(line);
        let lookup_done = self.now + MC_CACHE_LATENCY;
        if self.mc.meta.touch(block) {
            let ready = lookup_done + self.cfg.crypto.counter_decode;
            // Start the OTP AES as soon as the counter is decoded.
            let aes = self.mc.aes.schedule_span(ready);
            let txn = self.txns.get_mut(&txn_id).expect("txn exists");
            txn.mc_ctr_ready = Some(aes.end);
            txn.ctr_source = Some(CtrSource::Mc);
            // Metadata-cache lookup + counter decode, then the OTP AES.
            txn.spans
                .push(Span::new(Component::CtrFetch, self.now, ready));
            txn.spans.push(aes);
            self.try_ship_data(txn_id);
        } else {
            self.mc_fetch_counter(block, CtrJoiner::Read(txn_id));
        }
    }

    /// The counter block covering a data line, as a metadata line address.
    pub(crate) fn ctr_block_of(&self, line: LineAddr) -> LineAddr {
        let idx = self.tree.geometry().counter_block_of(line);
        self.tree.geometry().node_addr(0, idx)
    }

    /// Attempts to respond to a data read: requires data from DRAM plus
    /// (for MC-decrypt transactions) the finished OTP.
    pub(crate) fn try_ship_data(&mut self, txn_id: TxnId) {
        let placement = self.cfg.scheme.placement();
        let xor = self.cfg.crypto.xor_and_compare;
        // Single borrow for the whole decision phase (this runs on every
        // MC data event, so repeated map walks were real wall-clock);
        // whole-`self` helpers below force one re-borrow at the end.
        let Some(txn) = self.txns.get_mut(&txn_id) else {
            return;
        };
        if !txn.at_mc {
            return;
        }
        let Some(data_at) = txn.mc_data_at else {
            return;
        };
        // `crypt` is the serial crypto charged between data arrival and the
        // ship: the XOR + MAC compare for counter-mode schemes, or the
        // direct cipher's read latency for counter-free placements.
        let (ship_at, verified, crypt) = if !placement.encrypts {
            (data_at.max(self.now), true, None)
        } else if let Some(cipher) = placement.direct_cipher() {
            let lat = self.cfg.crypto.direct_read_latency(cipher);
            (
                data_at.max(self.now) + lat,
                true,
                Some((Component::Aes, lat)),
            )
        } else if txn.mc_decrypt {
            match txn.mc_ctr_ready {
                Some(otp_done) => (
                    data_at.max(otp_done).max(self.now) + xor,
                    true,
                    Some((Component::Verify, xor)),
                ),
                None => return, // counter fetch still in flight
            }
        } else {
            // EMCC: ship ciphertext + MAC⊕dot (the GF dot product is
            // parallel and fast — charge the same small constant).
            (
                data_at.max(self.now) + xor,
                false,
                Some((Component::Verify, xor)),
            )
        };

        let core = txn.core;
        let line = txn.line;
        let t_arrival = txn.t_mc_arrival;
        // MC-side detection: corrupted data cannot pass the MAC compare
        // that gates a verified ship. Unverified EMCC ships carry the
        // corruption to the requesting L2, whose local verify catches it.
        if txn.corrupt.is_some() && (verified || !placement.detects_tamper) {
            txn.corrupt = None;
            if !placement.detects_tamper {
                // No verification exists (non-secure, or an encryption-only
                // cipher like BipBip that decrypts tampered ciphertext into
                // garbage); the corrupted line is consumed.
                self.report.faulty_reads += 1;
                self.report.silent_corruptions += 1;
            } else {
                let (comp, cost) = crypt.expect("tamper detection implies crypto cost");
                let retries = txn.retries;
                let detected_after = ship_at.saturating_sub(data_at);
                if let Some(backoff) = self.integrity_failure(1, detected_after, retries) {
                    let txn = self.txns.get_mut(&txn_id).expect("txn exists");
                    txn.retries += 1;
                    txn.mc_data_at = None;
                    // The failed MAC compare (or direct-cipher check) is
                    // real work; the backoff gap after it shows up as
                    // unattributed time.
                    txn.spans
                        .push(Span::new(comp, ship_at.saturating_sub(cost), ship_at));
                    self.queue
                        .push(ship_at + backoff, Ev::DataRefetch { txn: txn_id });
                    return;
                }
                // Retry budget exhausted: the poisoned line is delivered.
            }
        }
        if verified && placement.encrypts {
            self.report.decrypted_at_mc += 1;
        }
        self.report
            .secure_access_latency_ns
            .add_time(ship_at.saturating_sub(t_arrival));

        // Response route: MC → owning slice → L2 (both legs carry data).
        // Inclusive mode mirrors the fill into the slice it passes.
        self.inclusive_fill(line, verified);
        let slice = self.slice_of(line);
        let t = ship_at + self.noc_slice_mc(slice, true) + self.noc_l2_slice(core, slice, true);
        self.queue.push(
            t,
            Ev::L2Fill {
                txn: txn_id,
                verified,
            },
        );
        // Mark shipped so duplicate calls do nothing.
        let txn = self.txns.get_mut(&txn_id).expect("txn exists");
        txn.mc_data_at = None;
        if let Some((comp, cost)) = crypt {
            // MAC compare (verified), MAC⊕dot generation (EMCC ship), or
            // the direct cipher's serial decrypt.
            txn.spans
                .push(Span::new(comp, ship_at.saturating_sub(cost), ship_at));
        }
        txn.t_shipped = Some(ship_at);
        if !verified {
            txn.shipped_unverified = true;
        }
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
        let exists = self.mc.ctr_txns.contains_key(&block);
        let ctr = self.mc.ctr_txns.entry(block).or_default();
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
        if exists {
            if from_l2 && !ctr.dram_started {
                self.ctr_start_dram_fetch(block);
            }
        } else if counters_in_llc && !from_l2 {
            ctr.llc_reply = true;
            self.report.mc_ctr_reqs_to_llc += 1;
            let slice = self.slice_of(block);
            let t = self.now + self.noc_slice_mc(slice, false);
            self.queue.push(
                t,
                Ev::SliceCtrReq {
                    block,
                    origin: CtrOrigin::Mc,
                },
            );
        } else {
            self.ctr_start_dram_fetch(block);
        }
    }

    /// Fetches the block and its unverified ancestors from DRAM.
    pub(crate) fn ctr_start_dram_fetch(&mut self, block: LineAddr) {
        let (level0, idx0) = self.tree.geometry().node_of_addr(block);
        debug_assert_eq!(level0, 0);
        // Walk ancestors until one is resident (verified) in the MC cache;
        // walking *touches* the resident ancestor so hot tree nodes stay
        // cached.
        let mut nodes = vec![block];
        let mut cur = (0u32, idx0);
        while let Some((lvl, idx)) = self.tree.geometry().parent_of(cur.0, cur.1) {
            let addr = self.tree.geometry().node_addr(lvl, idx);
            if self.mc.meta.touch(addr) {
                break;
            }
            nodes.push(addr);
            cur = (lvl, idx);
        }
        let ctr = self.mc.ctr_txns.get_mut(&block).expect("ctr txn exists");
        ctr.dram_started = true;
        ctr.pending_fetches = nodes.len() as u32;
        ctr.fetched_ancestors = nodes[1..].to_vec();
        if ctr.source.is_none() {
            ctr.source = Some(CtrSource::Dram);
        }
        for (i, node) in nodes.into_iter().enumerate() {
            let class = if i == 0 {
                RequestClass::Counter
            } else {
                RequestClass::TreeNode
            };
            self.enqueue_dram(
                node,
                false,
                class,
                DramTarget::NodeFetch { ctr_block: block },
            );
        }
    }

    /// One metadata node arrived from DRAM.
    pub(crate) fn ctr_node_arrived(&mut self, ctr_block: LineAddr) {
        let Some(ctr) = self.mc.ctr_txns.get_mut(&ctr_block) else {
            return;
        };
        ctr.pending_fetches = ctr.pending_fetches.saturating_sub(1);
        if ctr.pending_fetches > 0 {
            return;
        }
        // All nodes here: verify each fetched level (one MAC AES per
        // level, pipelined on the MC pool) then decode the counter.
        let levels = ctr.fetched_ancestors.len() + 1;
        let corrupt = std::mem::take(&mut ctr.corrupt);
        let retries = ctr.retries;
        let mut done = self.now;
        for _ in 0..levels {
            let (_, d) = self.mc.aes.schedule(self.now);
            done = done.max(d);
        }
        let ready = done + self.cfg.crypto.counter_decode;
        if corrupt > 0 {
            // Counter/tree detection: each corrupted node fails its own
            // per-level MAC check at verify time. Recovery invalidates the
            // cached copy and re-walks the tree after a bounded backoff.
            let detected_after = ready.saturating_sub(self.now);
            if let Some(backoff) =
                self.integrity_failure(u64::from(corrupt), detected_after, retries)
            {
                let ctr = self
                    .mc
                    .ctr_txns
                    .get_mut(&ctr_block)
                    .expect("ctr txn exists");
                ctr.retries += 1;
                self.queue
                    .push(ready + backoff, Ev::CtrRefetch { block: ctr_block });
                return;
            }
            // Retry budget exhausted: the walk proceeds with the
            // unverifiable counter.
        }
        self.queue.push(ready, Ev::McCtrReady { block: ctr_block });
    }

    // ----- Fault recovery ----------------------------------------------------

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
        let retry = self.cfg.recovery.retry;
        let r = &mut self.report;
        r.faulty_reads += n;
        r.integrity_violations += n;
        for _ in 0..n {
            r.detection_latency_ns.add_time(latency);
        }
        if retry.should_retry(attempts) {
            r.integrity_retries += 1;
            Some(retry.backoff(attempts))
        } else {
            r.integrity_unrecovered += n;
            None
        }
    }

    /// Drops a counter block's LLC and EMCC L2 copies: stale after a
    /// write-back bumps the counter (Fig 23), suspect after a failed
    /// verification.
    fn drop_ctr_copies(&mut self, block: LineAddr) {
        let placement = self.cfg.scheme.placement();
        if placement.l2_decrypts() {
            for core in 0..self.cfg.cores {
                self.evict_l2_ctr_line(core, block, true);
            }
        }
        if placement.counters_in_llc() {
            let slice = self.slice_of(block);
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
        let block = self.ctr_block_of(line);
        self.mc.meta.invalidate(block);
        self.drop_ctr_copies(block);
        self.enqueue_dram(
            line,
            false,
            RequestClass::Data,
            DramTarget::DataRead {
                txn: txn_id,
                refetch: true,
            },
        );
        // Direct-cipher placements have no counter to re-resolve; the
        // refetched data alone re-enters `try_ship_data`.
        if self.cfg.scheme.placement().uses_counters() {
            self.mc_resolve_counter_for_read(txn_id);
        }
    }

    /// Recovery: re-walk the integrity tree for a counter block whose
    /// verification failed (the resolution stays alive; its waiters are
    /// released by the eventual `McCtrReady`).
    pub(crate) fn ctr_refetch(&mut self, block: LineAddr) {
        if !self.mc.ctr_txns.contains_key(&block) {
            return;
        }
        self.mc.meta.invalidate(block);
        self.drop_ctr_copies(block);
        self.ctr_start_dram_fetch(block);
    }

    /// A counter request (or LLC reply) arrives at the MC.
    pub(crate) fn mc_ctr_req(&mut self, block: LineAddr, origin: CtrOrigin) {
        match origin {
            CtrOrigin::LlcHitReply => {
                // The LLC had the verified block.
                if let Some(ctr) = self.mc.ctr_txns.get_mut(&block) {
                    ctr.source = Some(CtrSource::Llc);
                    ctr.llc_reply = false; // already in LLC
                    let decode = self.cfg.crypto.counter_decode;
                    self.queue.push(self.now + decode, Ev::McCtrReady { block });
                }
            }
            CtrOrigin::Mc => {
                // Our own probe missed in LLC: fetch from DRAM.
                if let Some(ctr) = self.mc.ctr_txns.get_mut(&block) {
                    if !ctr.dram_started {
                        self.ctr_start_dram_fetch(block);
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
                if let Some(waiters) = self.l2_ctr_waiters.get(&(core, block)) {
                    for txn_id in waiters {
                        if let Some(txn) = self.txns.get_mut(txn_id) {
                            // Take over decryption only if the MC has not
                            // already shipped the ciphertext (fast-DRAM race:
                            // the L2 then finishes locally once the counter
                            // arrives).
                            if !txn.shipped_unverified {
                                txn.mc_decrypt = true;
                                txn.ctr_source = Some(CtrSource::Dram);
                            }
                        }
                    }
                    // Data transactions already at the MC join as waiters so
                    // their OTPs start the moment the counter verifies.
                    reads.extend(
                        waiters
                            .iter()
                            .copied()
                            .filter(|t| self.txns.get(t).is_some_and(|x| x.at_mc && x.mc_decrypt)),
                    );
                }
                let exists = self.mc.ctr_txns.contains_key(&block);
                if self.mc.meta.touch(block) && !exists {
                    // Rare: the MC already holds it (inserted after the
                    // L2 looked). Reply directly.
                    let ready = self.now + MC_CACHE_LATENCY;
                    self.ctr_reply_to_l2(block, core, ready);
                    for txn_id in reads {
                        self.mc_ctr_ready_for_txn(txn_id, ready);
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
            let slice = self.slice_of(block);
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
            if let Some(txn) = self.txns.get_mut(&txn_id) {
                if txn.ctr_source.is_none() {
                    txn.ctr_source = Some(src);
                }
            }
            self.mc_ctr_ready_for_txn(txn_id, self.now);
        }
        // Resume write-backs.
        for line in ctr.wb_waiters {
            self.mc_do_writeback_with_counter(line);
        }
    }

    fn mc_ctr_ready_for_txn(&mut self, txn_id: TxnId, ready: Time) {
        let Some(txn) = self.txns.get_mut(&txn_id) else {
            return;
        };
        if !txn.mc_decrypt || txn.mc_ctr_ready.is_some() {
            return;
        }
        let decoded = ready + self.cfg.crypto.counter_decode;
        let aes = self.mc.aes.schedule_span(decoded);
        let txn = self.txns.get_mut(&txn_id).expect("txn exists");
        txn.mc_ctr_ready = Some(aes.end);
        // The MC-side counter wait: from this read's arrival at the MC
        // (the walk may predate it) until the counter is decoded.
        let from = txn.t_mc_arrival.min(decoded);
        txn.spans
            .push(Span::new(Component::CtrFetch, from, decoded));
        txn.spans.push(aes);
        self.try_ship_data(txn_id);
    }

    fn ctr_reply_to_l2(&mut self, block: LineAddr, core: usize, ship_at: Time) {
        let slice = self.slice_of(block);
        let t = ship_at + self.noc_slice_mc(slice, true) + self.noc_l2_slice(core, slice, true);
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
        let block = self.ctr_block_of(line);
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
        let block = self.ctr_block_of(line);
        if let Some(shadow) = self.shadow.as_mut() {
            // Differential oracle: mirror the write-back so both trees see
            // exactly one counter increment per write-back.
            shadow
                .write(line, DataBlock::from_words([line.get(); 8]))
                .expect("nothing tampers with the shadow memory");
        }
        let r = self.tree.increment_data(line);
        self.mc.meta.mark_dirty(block);
        // Coherence: the LLC and L2 copies are stale now (Fig 23).
        self.drop_ctr_copies(block);

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
        self.enqueue_dram(line, true, RequestClass::Data, DramTarget::PostedWrite);
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
        self.enqueue_dram(addr, true, class, DramTarget::PostedWrite);
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
            self.enqueue_dram(req.line, req.is_write, class, DramTarget::Overflow);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use emcc_secmem::SecurityScheme;

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
