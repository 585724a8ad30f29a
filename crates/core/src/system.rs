//! The event-driven full-system model.
//!
//! One [`SecureSystem`] owns every component and a single time-ordered
//! event queue. Handlers for the core/L1/L2/LLC side live here; the
//! memory-controller side (secure pipeline, counter fetch/verify,
//! write-backs, DRAM glue) lives in [`crate::mc`].

use std::collections::hash_map::Entry;

use emcc_cache::{BlockKind, CacheConfig, MshrFile, MshrOutcome, SetAssocCache};
use emcc_counters::IntegrityTree;
use emcc_dram::{Completion, FaultClass, FaultModel};
use emcc_noc::mesh::Node;
use emcc_noc::{NocLatency, SliceMap};
use emcc_secmem::engine::split_aes_bandwidth;
use emcc_secmem::{AesPool, FunctionalSecureMemory, OverflowEngine};
use emcc_sim::time::Frequency;
use emcc_sim::trace::{Attributor, Component, Span, TraceRecorder};
use emcc_sim::{EventQueue, FastHashMap, LineAddr, Time};
use emcc_workloads::TraceSource;

use crate::config::{
    SystemConfig, CORE_GHZ, COUNTER_DECODE, CTR_LOOKUP_DELAY, INTENSITY_THRESHOLD_PER_MILLE,
    INTENSITY_WINDOW, L1_LATENCY, L2_LATENCY, LLC_SRAM_LATENCY, MAX_OUTSTANDING_LOADS,
    OFFLOAD_THRESHOLD, ROB_ENTRIES, WIDTH, XOR_AND_COMPARE,
};
use crate::core_model::{CoreModel, Stall};
use crate::mc::{CtrOrigin, McState, L2_FALLBACK_THRESHOLD};
use crate::report::{CtrSource, SimReport};
use crate::xpt::XptPredictor;

/// Transaction identifier for in-flight data reads.
pub(crate) type TxnId = u64;

/// Key seed of the shadow memory. Keys decide only ciphertexts and MACs,
/// which the shadow check never compares, so every run uses one seed.
const SHADOW_KEY_SEED: u64 = 0xE3CC;

/// Simulation events.
#[derive(Debug)]
pub(crate) enum Ev {
    /// Re-evaluate a core's ability to issue.
    CoreAdvance(usize),
    /// A load completed; wake the core.
    LoadComplete { core: usize, token: u64 },
    /// A request arrives at the L2 (post L1 latency).
    L2Access {
        core: usize,
        line: LineAddr,
        is_write: bool,
        token: Option<u64>,
    },
    /// EMCC: the serial counter lookup in L2 runs (post data miss).
    L2CtrLookup { txn: TxnId },
    /// A data request arrives at an LLC slice.
    SliceDataReq { txn: TxnId },
    /// A victim line arrives at an LLC slice.
    SliceVictim {
        line: LineAddr,
        dirty: bool,
        kind: BlockKind,
    },
    /// A counter request arrives at an LLC slice.
    SliceCtrReq { block: LineAddr, origin: CtrOrigin },
    /// A data request arrives at the MC.
    McDataReq { txn: TxnId, via_xpt: bool },
    /// A counter request arrives at the MC.
    McCtrReq { block: LineAddr, origin: CtrOrigin },
    /// A dirty data line arrives at the MC for secure write-back.
    McWriteback { line: LineAddr },
    /// A write-back's ciphertext is ready; issue the DRAM write.
    McWriteIssue { line: LineAddr },
    /// A verified counter block is ready at the MC.
    McCtrReady { block: LineAddr },
    /// Data arrives at the requesting L2.
    L2Fill { txn: TxnId, verified: bool },
    /// A counter block arrives at an L2 (EMCC).
    L2CtrFill { core: usize, block: LineAddr },
    /// The delayed AES start check fires at an L2 (EMCC).
    L2AesStart { txn: TxnId },
    /// An EMCC transaction finishes local decrypt/verify.
    L2TxnFinish { txn: TxnId },
    /// Run the DRAM schedulers.
    DramPump,
    /// A DRAM access finished.
    DramDone(Completion),
    /// Recovery: re-fetch a data line after a failed integrity check.
    DataRefetch { txn: TxnId },
    /// Recovery: re-walk the tree for a counter block that failed verify.
    CtrRefetch { block: LineAddr },
}

impl Ev {
    /// This event's index in
    /// [`DispatchLedger::KINDS`](crate::report::DispatchLedger::KINDS).
    fn kind(&self) -> usize {
        match self {
            Ev::CoreAdvance(_) => 0,
            Ev::LoadComplete { .. } => 1,
            Ev::L2Access { .. } => 2,
            Ev::L2CtrLookup { .. } => 3,
            Ev::SliceDataReq { .. } => 4,
            Ev::SliceVictim { .. } => 5,
            Ev::SliceCtrReq { .. } => 6,
            Ev::McDataReq { .. } => 7,
            Ev::McCtrReq { .. } => 8,
            Ev::McWriteback { .. } => 9,
            Ev::McWriteIssue { .. } => 10,
            Ev::McCtrReady { .. } => 11,
            Ev::L2Fill { .. } => 12,
            Ev::L2CtrFill { .. } => 13,
            Ev::L2AesStart { .. } => 14,
            Ev::L2TxnFinish { .. } => 15,
            Ev::DramPump => 16,
            Ev::DramDone(_) => 17,
            Ev::DataRefetch { .. } => 18,
            Ev::CtrRefetch { .. } => 19,
        }
    }
}

/// Per-line L2 metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct L2Meta {
    pub kind: BlockKind,
    /// EMCC: whether a cached counter line served a DRAM-bound data miss.
    pub used: bool,
}

/// Per-line LLC metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LlcMeta {
    pub kind: BlockKind,
    /// Inclusive mode (§IV-F): the line holds raw DRAM ciphertext that no
    /// L2 has verified yet; reset when an L2 writes the line back.
    pub unverified: bool,
}

impl LlcMeta {
    pub(crate) fn verified(kind: BlockKind) -> Self {
        LlcMeta {
            kind,
            unverified: false,
        }
    }
}

/// An L2 MSHR waiter.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Waiter {
    pub token: Option<u64>,
    pub is_write: bool,
}

/// Per-core L2 state.
pub(crate) struct L2State {
    pub cache: SetAssocCache<L2Meta>,
    pub mshr: MshrFile<Waiter>,
    pub ctr_lines: u64,
    /// Counter lines in insertion order (O(1) budget eviction).
    pub ctr_fifo: std::collections::VecDeque<LineAddr>,
    pub aes: Option<AesPool>,
    /// AES slots committed by in-flight misses that have not scheduled
    /// yet (their start is deferred by the LLC-hit wait); the offload
    /// decision must count them or bursts overwhelm the pool.
    pub aes_reserved: u64,
    /// Stride prefetcher table, indexed by 4 KB region so interleaved
    /// streams train independently: (last line, last stride, confidence).
    pub stride: Vec<(u64, i64, u32)>,
    /// §IV-F dynamic disable: accesses and DRAM-served fills in the
    /// current sampling window, and whether EMCC is currently off.
    pub window_accesses: u64,
    pub window_dram_fills: u64,
    pub emcc_disabled: bool,
    /// Consecutive local verification failures (reset on a clean finish).
    pub verify_fail_streak: u32,
    /// Graceful degradation: local verification has failed repeatedly, so
    /// new misses are offloaded to MC-side verification (extends §IV-D
    /// adaptive offload to the fault domain).
    pub verify_degraded: bool,
}

impl L2State {
    /// Fig 11: marks this L2's copy of counter block `block`, if any,
    /// used.
    fn mark_ctr_used(&mut self, block: LineAddr) {
        if let Some(meta) = self.cache.get_mut(block) {
            meta.used = true;
        }
    }
}

/// Mesh hop counts of every NoC leg, precomputed: the mesh coordinates
/// never change, so a message's latency is a table lookup instead of
/// repeated grid arithmetic.
pub(crate) struct HopTable {
    slices: usize,
    /// Indexed `core * slices + slice`.
    l2_slice: Vec<u32>,
    slice_mc: Vec<u32>,
    l2_mc: Vec<u32>,
}

impl HopTable {
    fn new(cfg: &SystemConfig) -> Self {
        let hops = |tile: usize, to: Node| cfg.mesh.hops(Node::Core(tile), to);
        HopTable {
            slices: cfg.llc_slices,
            l2_slice: (0..cfg.cores)
                .flat_map(|c| (0..cfg.llc_slices).map(move |s| (c, s)))
                .map(|(c, s)| hops(cfg.core_position(c), Node::Core(cfg.slice_position(s))))
                .collect(),
            slice_mc: (0..cfg.llc_slices)
                .map(|s| hops(cfg.slice_position(s), Node::Mc(0)))
                .collect(),
            l2_mc: (0..cfg.cores)
                .map(|c| hops(cfg.core_position(c), Node::Mc(0)))
                .collect(),
        }
    }

    /// One way between core `core`'s L2 and LLC slice `slice`.
    pub(crate) fn l2_slice(&self, core: usize, slice: usize, payload: bool) -> Time {
        NocLatency::calibrated().one_way(self.l2_slice[core * self.slices + slice], payload)
    }

    /// One way between LLC slice `slice` and the MC.
    pub(crate) fn slice_mc(&self, slice: usize, payload: bool) -> Time {
        NocLatency::calibrated().one_way(self.slice_mc[slice], payload)
    }

    /// One way between core `core`'s L2 and the MC (the XPT leg).
    pub(crate) fn l2_mc(&self, core: usize, payload: bool) -> Time {
        NocLatency::calibrated().one_way(self.l2_mc[core], payload)
    }
}

/// An in-flight data read (demand or prefetch).
#[derive(Debug)]
pub(crate) struct DataTxn {
    pub core: usize,
    pub line: LineAddr,
    pub is_prefetch: bool,
    /// Time of the L2 miss (t=0 of Figs 10/13 timelines).
    pub t_miss: Time,
    /// The MC must decrypt (offload, counter missed LLC, or baseline).
    pub mc_decrypt: bool,
    /// EMCC: local AES completion time.
    pub aes_done: Option<Time>,
    /// Ciphertext arrival time at L2 (unverified fill waiting for AES).
    pub cipher_at: Option<Time>,
    /// The MC already shipped this read as unverified ciphertext — the L2
    /// *must* finish it locally, even if a later counter LLC-miss tried to
    /// flip responsibility to the MC (the fast-DRAM race).
    pub shipped_unverified: bool,
    /// Holds an unspent L2 AES reservation.
    pub aes_reserved: bool,
    /// The confirmed miss request reached the MC.
    pub at_mc: bool,
    /// The DRAM data read has been issued (possibly speculatively by XPT).
    pub dram_issued: bool,
    pub t_mc_arrival: Time,
    /// XPT forwarded this request early.
    pub xpt_forwarded: bool,
    /// MC-side: counter ready time (baseline / mc-decrypt paths).
    pub mc_ctr_ready: Option<Time>,
    /// MC-side: data arrived from DRAM at this time.
    pub mc_data_at: Option<Time>,
    /// Where this read's counter was found (recorded once, DRAM reads).
    pub ctr_source: Option<CtrSource>,
    /// Served from DRAM (vs LLC hit).
    pub from_dram: bool,
    /// The last DRAM response for this line was corrupted by the fault
    /// model; cleared when the corruption is detected (or consumed).
    pub corrupt: Option<FaultClass>,
    /// Integrity-failure re-fetches performed for this transaction.
    pub retries: u32,
    /// Attribution: access start (arrival at L2 for demand misses; the
    /// miss time itself for prefetches).
    pub t_start: Time,
    /// Attribution: work spans recorded along the access's lifetime,
    /// reduced by [`attribute`] at completion.
    pub spans: Vec<Span>,
    /// Attribution: LLC slice lookup completion (start of the next leg).
    pub t_slice_done: Option<Time>,
    /// Attribution: MC ship time of the in-flight data response (start of
    /// the response NoC legs; taken by the L2 fill).
    pub t_shipped: Option<Time>,
}

impl DataTxn {
    /// EMCC: the counter, found at `src`, becomes usable at this read's L2
    /// at `now`. Records `src` (unless a source is already recorded) and
    /// the counter fetch since the miss (the serial L2 lookup, or the
    /// parallel LLC/MC round trip), and returns when the L2's AES may
    /// start: not before the LLC-hit wait has passed.
    fn l2_ctr_usable(&mut self, src: CtrSource, now: Time, aes_start_wait: Time) -> Time {
        self.ctr_source.get_or_insert(src);
        self.spans
            .push(Span::new(Component::CtrFetch, self.t_miss, now));
        now.max(self.t_miss + aes_start_wait)
    }
}

/// The assembled system.
pub struct SecureSystem {
    pub(crate) cfg: SystemConfig,
    pub(crate) queue: EventQueue<Ev>,
    pub(crate) now: Time,
    pub(crate) cores: Vec<CoreModel>,
    pub(crate) l1: Vec<SetAssocCache<()>>,
    pub(crate) l2: Vec<L2State>,
    pub(crate) slices: Vec<SetAssocCache<LlcMeta>>,
    pub(crate) slice_map: SliceMap,
    pub(crate) mc: McState,
    pub(crate) tree: IntegrityTree,
    /// Differential oracle: a functional secure memory that mirrors every
    /// write-back, letting `finalize` diff per-line counter state against
    /// the timing model (enabled by `SystemConfig::shadow_check`).
    pub(crate) shadow: Option<FunctionalSecureMemory>,
    pub(crate) xpt: Vec<XptPredictor>,
    pub(crate) txns: FastHashMap<TxnId, DataTxn>,
    pub(crate) next_txn: TxnId,
    /// EMCC: txns waiting for a counter block to arrive at their L2.
    pub(crate) l2_ctr_waiters: FastHashMap<(usize, LineAddr), Vec<TxnId>>,
    /// Recycled span vectors: every completed transaction returns its
    /// spans here and every new one draws from here, so steady-state
    /// transaction turnover performs no span allocation.
    span_pool: Vec<Vec<Span>>,
    /// Recycled waiter vectors for `l2_ctr_waiters` (same idea).
    waiter_pool: Vec<Vec<TxnId>>,
    /// Reusable critical-path reduction scratch (one per system, reused
    /// for every completed access).
    attributor: Attributor,
    /// Reusable MSHR waiter drain buffer (one per system).
    mshr_scratch: Vec<Waiter>,
    /// NoC latency of every leg.
    pub(crate) noc: HopTable,
    pub(crate) report: SimReport,
    /// Each core's one pending `CoreAdvance` wake, if any. A core waiting
    /// out an instruction gap is woken once at the gap's end, however
    /// many of its loads complete meanwhile (see `core_advance`).
    advance_at: Vec<Option<Time>>,
    /// Per-access trace ring (disabled unless [`SecureSystem::run_traced`]
    /// is used; a disabled recorder costs one branch per completion).
    pub(crate) tracer: TraceRecorder,
    warmup_ops: u64,
    warmup_done: bool,
    measure_start: Time,
    insts_at_measure_start: u64,
}

impl std::fmt::Debug for SecureSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecureSystem")
            .field("now", &self.now)
            .field("txns_inflight", &self.txns.len())
            .finish()
    }
}

impl SecureSystem {
    /// Builds a system from a configuration.
    pub fn new(cfg: SystemConfig) -> Self {
        // AES units are provisioned for the memory system's peak access
        // rate (§V sizes 2.6 G AES/s from one DDR4-3200 channel's 400 M
        // accesses/s), so the pool scales with channel count.
        let channels = cfg.dram.channels as f64;
        let (mc_bw, l2_bw) = if cfg.scheme.placement().l2_decrypts() {
            split_aes_bandwidth(f64::from(cfg.emcc.aes_to_l2_pct) / 100.0, cfg.cores)
        } else {
            split_aes_bandwidth(0.0, cfg.cores)
        };
        let (mc_bw, l2_bw) = (mc_bw * channels, l2_bw * channels);
        let l2 = (0..cfg.cores)
            .map(|_| L2State {
                cache: SetAssocCache::new(CacheConfig::new(cfg.l2_size, cfg.l2_ways)),
                mshr: MshrFile::new(32),
                ctr_lines: 0,
                ctr_fifo: std::collections::VecDeque::new(),
                aes_reserved: 0,
                aes: (cfg.scheme.placement().l2_decrypts() && l2_bw > 0.0)
                    .then(|| AesPool::new(l2_bw, cfg.crypto.aes)),
                stride: vec![(0, 0, 0); 64],
                window_accesses: 0,
                window_dram_fills: 0,
                emcc_disabled: false,
                verify_fail_streak: 0,
                verify_degraded: false,
            })
            .collect();
        let slices = (0..cfg.llc_slices)
            .map(|_| SetAssocCache::new(CacheConfig::new(cfg.llc_slice_size, cfg.llc_ways)))
            .collect();
        let mc = McState {
            meta: SetAssocCache::new(CacheConfig::new(cfg.mc_cache_size, cfg.mc_cache_ways)),
            aes: AesPool::new(mc_bw.max(1.0), cfg.crypto.aes),
            aes_wr: AesPool::new(mc_bw.max(1.0), cfg.crypto.aes),
            overflow: OverflowEngine::new(),
            ctr_txns: FastHashMap::default(),
            dram_targets: FastHashMap::default(),
            next_dram_id: 1,
            dram: emcc_dram::Dram::new(cfg.dram),
            dram_issued: Vec::with_capacity(cfg.dram.channels),
            deferred_wb: std::collections::VecDeque::new(),
            fault: cfg.fault.map(FaultModel::new),
            dram_pump_at: None,
        };
        SecureSystem {
            l1: (0..cfg.cores)
                .map(|_| SetAssocCache::new(CacheConfig::new(cfg.l1_size, cfg.l1_ways)))
                .collect(),
            xpt: (0..cfg.cores).map(|_| XptPredictor::new(4096)).collect(),
            slice_map: SliceMap::new(cfg.llc_slices),
            tree: IntegrityTree::new(cfg.counter_design, cfg.data_lines),
            cores: Vec::new(),
            l2,
            slices,
            mc,
            shadow: cfg.shadow_check.then(|| {
                FunctionalSecureMemory::with_design(
                    SHADOW_KEY_SEED,
                    cfg.data_lines,
                    cfg.counter_design,
                )
            }),
            queue: EventQueue::with_capacity(1 << 16),
            now: Time::ZERO,
            txns: FastHashMap::default(),
            next_txn: 1,
            l2_ctr_waiters: FastHashMap::default(),
            span_pool: Vec::new(),
            waiter_pool: Vec::new(),
            attributor: Attributor::new(),
            mshr_scratch: Vec::new(),
            noc: HopTable::new(&cfg),
            report: SimReport::default(),
            advance_at: Vec::new(),
            tracer: TraceRecorder::disabled(),
            warmup_ops: 0,
            warmup_done: true,
            measure_start: Time::ZERO,
            insts_at_measure_start: 0,
            cfg,
        }
    }

    /// Runs `ops_per_core` memory operations from each source to
    /// completion and returns the report.
    ///
    /// # Panics
    ///
    /// Panics if `sources` does not supply one trace per configured core.
    pub fn run(self, sources: Vec<Box<dyn TraceSource>>, ops_per_core: u64) -> SimReport {
        self.run_with_warmup(sources, 0, ops_per_core)
    }

    /// Runs `warmup_ops` per core (warming caches, counters and
    /// predictors), resets all statistics, then measures `ops_per_core`
    /// more — mirroring the paper's §V warmup-then-measure methodology.
    ///
    /// # Panics
    ///
    /// Panics if `sources` does not supply one trace per configured core.
    pub fn run_with_warmup(
        mut self,
        sources: Vec<Box<dyn TraceSource>>,
        warmup_ops: u64,
        ops_per_core: u64,
    ) -> SimReport {
        self.run_loop(sources, warmup_ops, ops_per_core);
        self.finalize()
    }

    /// Like [`SecureSystem::run_with_warmup`], but records the last
    /// `trace_capacity` completed accesses (raw spans + critical path) and
    /// returns the recorder alongside the report, for Chrome-trace export.
    ///
    /// Timing is identical to an untraced run: recording only observes.
    ///
    /// # Panics
    ///
    /// Panics if `sources` does not supply one trace per configured core.
    pub fn run_traced(
        mut self,
        sources: Vec<Box<dyn TraceSource>>,
        warmup_ops: u64,
        ops_per_core: u64,
        trace_capacity: usize,
    ) -> (SimReport, TraceRecorder) {
        self.tracer = TraceRecorder::with_capacity(trace_capacity);
        self.run_loop(sources, warmup_ops, ops_per_core);
        let tracer = std::mem::take(&mut self.tracer);
        (self.finalize(), tracer)
    }

    fn run_loop(&mut self, sources: Vec<Box<dyn TraceSource>>, warmup_ops: u64, ops_per_core: u64) {
        assert_eq!(
            sources.len(),
            self.cfg.cores,
            "need one trace source per core"
        );
        self.warmup_ops = warmup_ops;
        self.warmup_done = warmup_ops == 0;
        self.report.scheme = self.cfg.scheme.to_string();
        for (i, src) in sources.into_iter().enumerate() {
            if i == 0 {
                self.report.benchmark = src.name().to_string();
            }
            self.cores.push(CoreModel::new(
                src,
                Frequency::from_ghz(CORE_GHZ),
                WIDTH,
                ROB_ENTRIES,
                MAX_OUTSTANDING_LOADS,
                warmup_ops + ops_per_core,
            ));
            self.queue.push(Time::ZERO, Ev::CoreAdvance(i));
            self.advance_at.push(Some(Time::ZERO));
        }

        let mut timed_out = false;
        // Core progress (issued-op counts, finished-ness) changes only
        // under the two core-facing events, so the end-of-run and
        // warmup checks run per core event instead of per event — and
        // finished-ness is monotone, so a per-core latch turns the
        // all-cores scan into a counter compare.
        let mut core_done = vec![false; self.cores.len()];
        let mut finished_cores = 0usize;
        while let Some((t, ev)) = self.queue.pop() {
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            if t > self.cfg.max_sim_time {
                timed_out = true;
                break;
            }
            let touched = match ev {
                Ev::CoreAdvance(c) => Some(c),
                Ev::LoadComplete { core, .. } => Some(core),
                _ => None,
            };
            self.dispatch(ev);
            if let Some(c) = touched {
                if !self.warmup_done && self.cores.iter().all(|c| c.issued_ops() >= self.warmup_ops)
                {
                    self.end_warmup();
                }
                if !core_done[c] && self.cores[c].finished() {
                    core_done[c] = true;
                    finished_cores += 1;
                    if finished_cores == self.cores.len() {
                        break;
                    }
                }
            }
        }
        // A drained queue with unfinished cores means a lost wake-up — a
        // simulator bug that must never pass silently as a "result".
        assert!(
            timed_out || self.cores.iter().all(|c| c.finished()),
            "event queue drained with {} unfinished core(s) at {} — lost wakeup",
            self.cores.iter().filter(|c| !c.finished()).count(),
            self.now
        );
        self.report.truncated = timed_out;
    }

    fn end_warmup(&mut self) {
        self.warmup_done = true;
        self.measure_start = self.now;
        self.insts_at_measure_start = self.cores.iter().map(|c| c.retired_insts()).sum();
        let benchmark = std::mem::take(&mut self.report.benchmark);
        let scheme = std::mem::take(&mut self.report.scheme);
        // Warm-up is host work too: the dispatch ledger spans the run.
        self.report = SimReport {
            benchmark,
            scheme,
            dispatches: self.report.dispatches,
            ..SimReport::default()
        };
        self.mc.dram.reset_stats();
    }

    fn finalize(mut self) -> SimReport {
        self.report.elapsed = self.now.saturating_sub(self.measure_start);
        self.report.instructions = self
            .cores
            .iter()
            .map(|c| c.retired_insts())
            .sum::<u64>()
            .saturating_sub(self.insts_at_measure_start);
        self.report.mem_ops = self
            .cores
            .iter()
            .map(|c| c.issued_ops())
            .sum::<u64>()
            .saturating_sub(self.warmup_ops * self.cfg.cores as u64);
        self.report.dram = self.mc.dram.stats();
        let of = self.tree.overflows_by_level();
        self.report.overflows_l0 = of.first().copied().unwrap_or(0);
        self.report.overflows_higher = of.iter().skip(1).sum();
        // Differential check: every written line's counter in the timing
        // model's tree must equal the functional oracle's (both saw the
        // same write-back sequence, one increment per write-back).
        if let Some(shadow) = &self.shadow {
            for (line, _) in shadow.stored_lines() {
                self.report.shadow_lines += 1;
                if shadow.tree().data_counter(line) != self.tree.data_counter(line) {
                    self.report.shadow_mismatches += 1;
                }
            }
        }
        // Exact cutoff accounting: classify the LLC data misses whose DRAM
        // read had not completed when the run ended, and completed reads
        // that served no counted miss. With these, the fuzz oracle holds
        //   llc_data_misses + data_refetch_reads + xpt_wasted_reads
        //     == dram_data_reads + inflight_at_cutoff + unissued_at_cutoff
        // as an equality for warmup-free runs (warmup resets the counters
        // mid-flight, so warmup runs only report the fields).
        for target in self.mc.dram_targets.values() {
            if let crate::mc::DramTarget::DataRead {
                txn,
                refetch: false,
            } = *target
            {
                if self.txns.get(&txn).is_some_and(|t| t.from_dram) {
                    self.report.dram_reads_inflight_at_cutoff += 1;
                }
            }
        }
        for txn in self.txns.values() {
            if txn.from_dram && !txn.dram_issued {
                // An LLC miss whose request had not reached the MC yet.
                self.report.unissued_misses_at_cutoff += 1;
            } else if !txn.from_dram && txn.mc_data_at.is_some() {
                // A speculative XPT read completed, but the LLC lookup had
                // not classified the access by cutoff — the read serves no
                // counted miss.
                self.report.xpt_wasted_reads += 1;
            }
        }
        // Counter lines still resident at simulation end are *not*
        // classified: the paper's Fig 11 counts lines "never used ...
        // between the time the counter is inserted into L2 and is evicted
        // from L2", which is undetermined for residents.
        self.report
    }

    fn dispatch(&mut self, ev: Ev) {
        self.report.dispatches.by_kind[ev.kind()] += 1;
        match ev {
            Ev::CoreAdvance(core) => {
                // The core's pending wake fires, unless a load completion
                // at this instant already advanced the core past it.
                if self.advance_at[core] == Some(self.now) {
                    self.advance_at[core] = None;
                }
                if !self.core_advance(core) {
                    self.report.dispatches.idle_core_advances += 1;
                }
            }
            Ev::LoadComplete { core, token } => {
                self.cores[core].complete_load(token, self.now);
                self.core_advance(core);
            }
            Ev::L2Access {
                core,
                line,
                is_write,
                token,
            } => self.l2_access(core, line, is_write, token),
            Ev::L2CtrLookup { txn } => self.l2_ctr_lookup(txn),
            Ev::SliceDataReq { txn } => self.slice_data_req(txn),
            Ev::SliceVictim { line, dirty, kind } => self.slice_victim(line, dirty, kind),
            Ev::SliceCtrReq { block, origin } => self.slice_ctr_req(block, origin),
            Ev::McDataReq { txn, via_xpt } => self.mc_data_req(txn, via_xpt),
            Ev::McCtrReq { block, origin } => self.mc_ctr_req(block, origin),
            Ev::McWriteback { line } => {
                // Counted on arrival: a write-back that overflow admission
                // defers replays through `mc_writeback` uncounted.
                self.report.writebacks += 1;
                self.mc_writeback(line);
            }
            Ev::McWriteIssue { line } => self.mc_write_issue(line),
            Ev::McCtrReady { block } => self.mc_ctr_ready(block),
            Ev::L2Fill { txn, verified } => self.l2_fill(txn, verified),
            Ev::L2CtrFill { core, block } => self.l2_ctr_fill(core, block),
            Ev::L2AesStart { txn } => self.l2_aes_start(txn),
            Ev::L2TxnFinish { txn } => self.l2_txn_finish(txn),
            Ev::DramPump => {
                self.mc.dram_pump_at = None;
                if !self.mc.pump_dram(&mut self.queue, self.now) {
                    self.report.dispatches.idle_dram_pumps += 1;
                }
            }
            Ev::DramDone(c) => self.dram_done(c),
            Ev::DataRefetch { txn } => self.data_refetch(txn),
            Ev::CtrRefetch { block } => self.ctr_refetch(block),
        }
    }

    // ----- Core + L1 ------------------------------------------------------

    /// Issues the core's operations until it stalls; true if it issued
    /// any.
    ///
    /// A stall until `t` wakes the core at `t` unless a wake for `t` is
    /// already pending. Dropping the repeat is exact: while that wake is
    /// pending the core's next op has its issue time at `t`, and only a
    /// load completion (followed by this call) touches the core, so each
    /// repeat would stall until the same `t`. At `t` the first wake in
    /// FIFO order advances the core and a later one finds it stalled
    /// again, so keeping the first push keeps every wake that does work
    /// in its place among the events of its instant.
    fn core_advance(&mut self, core: usize) -> bool {
        let mut issued = false;
        loop {
            match self.cores[core].advance(self.now) {
                Ok(issue) => {
                    self.l1_access(core, issue.op, issue.load_token);
                    issued = true;
                }
                Err(Stall::UntilTime(t)) => {
                    if self.advance_at[core] != Some(t) {
                        self.advance_at[core] = Some(t);
                        self.queue.push(t, Ev::CoreAdvance(core));
                    }
                    return issued;
                }
                Err(Stall::OnLoad | Stall::Finished) => return issued,
            }
        }
    }

    fn l1_access(&mut self, core: usize, op: emcc_workloads::MemOp, token: u64) {
        let hit = self.l1[core].touch(op.line);
        if hit {
            self.report.l1_hits += 1;
            if op.is_write {
                self.l1[core].mark_dirty(op.line);
            } else {
                self.queue
                    .push(self.now + L1_LATENCY, Ev::LoadComplete { core, token });
            }
            return;
        }
        // L1 miss: go to L2 after the L1 tag check.
        self.queue.push(
            self.now + L1_LATENCY,
            Ev::L2Access {
                core,
                line: op.line,
                is_write: op.is_write,
                token: (!op.is_write).then_some(token),
            },
        );
    }

    /// Fills a line into L1, sinking any dirty victim into L2.
    fn l1_fill(&mut self, core: usize, line: LineAddr, dirty: bool) {
        if let Some(victim) = self.l1[core].insert(line, dirty, ()) {
            if victim.dirty {
                // L1 victim write-back: non-inclusive, allocate in L2.
                let meta = L2Meta {
                    kind: BlockKind::Data,
                    used: false,
                };
                if self.l2[core].cache.contains(victim.addr) {
                    self.l2[core].cache.mark_dirty(victim.addr);
                } else if let Some(l2v) = self.l2[core].cache.insert(victim.addr, true, meta) {
                    self.l2_victim(core, l2v);
                }
            }
        }
    }

    // ----- L2 -------------------------------------------------------------

    fn l2_access(&mut self, core: usize, line: LineAddr, is_write: bool, token: Option<u64>) {
        self.report.l2_accesses += 1;
        self.sample_intensity(core);
        let t_done = self.now + L2_LATENCY;
        let hit = self.l2[core].cache.touch(line);
        if hit {
            self.report.l2_hits += 1;
            if is_write {
                self.l2[core].cache.mark_dirty(line);
            }
            self.l1_fill(core, line, false);
            if let Some(token) = token {
                self.queue.push(t_done, Ev::LoadComplete { core, token });
            }
            return;
        }

        // L2 miss.
        self.report.l2_data_misses += 1;
        self.train_prefetcher(core, line);
        let waiter = Waiter { token, is_write };
        match self.l2[core].mshr.allocate(line, waiter) {
            MshrOutcome::Merged => return,
            MshrOutcome::Full => {
                // Stall-free simplification: merge anyway by retrying
                // shortly (queues are generously sized; rare).
                self.queue.push(
                    t_done + Time::from_ns(2),
                    Ev::L2Access {
                        core,
                        line,
                        is_write,
                        token,
                    },
                );
                self.report.l2_data_misses -= 1;
                return;
            }
            MshrOutcome::Allocated => {}
        }
        self.start_data_txn(core, line, false, t_done);
    }

    /// Creates a data-read transaction and launches requests.
    pub(crate) fn start_data_txn(
        &mut self,
        core: usize,
        line: LineAddr,
        is_prefetch: bool,
        t_miss: Time,
    ) {
        let id = self.next_txn;
        self.next_txn += 1;

        // EMCC: adaptive offload decision, made at miss time from the
        // local AES queue (§IV-D). The effective queue includes slots
        // committed by earlier misses whose AES start is still deferred.
        let mut offload_bit = false;
        let mut reserved_aes = false;
        if self.cfg.scheme.placement().l2_decrypts() {
            if self.l2[core].emcc_disabled || self.l2[core].verify_degraded {
                // §IV-F: the application is not memory-intensive; keep
                // everything at the MC (no counter caching, no L2 AES).
                // The same path implements graceful degradation: an L2
                // whose local verification keeps failing hands all new
                // misses to MC-side verification.
                offload_bit = true;
            } else if let Some(pool) = &self.l2[core].aes {
                let effective =
                    pool.queue_delay(t_miss) + pool.interval() * self.l2[core].aes_reserved;
                if effective > OFFLOAD_THRESHOLD {
                    offload_bit = true;
                    self.report.offloaded_for_bandwidth += 1;
                } else {
                    self.l2[core].aes_reserved += 1;
                    reserved_aes = true;
                }
            } else {
                offload_bit = true;
            }
        }

        // XPT: predict LLC outcome; forward to MC in parallel on a
        // predicted miss.
        let xpt_forwarded = self.cfg.xpt_enabled && self.xpt[core].predict_miss(line);

        // Attribution window: demand misses start at L2 arrival (the tag
        // lookup is on the critical path); prefetches start at the miss.
        let t_start = if is_prefetch {
            t_miss
        } else {
            t_miss.saturating_sub(L2_LATENCY)
        };
        let mut spans = self.span_pool.pop().unwrap_or_default();
        if !is_prefetch {
            spans.push(Span::new(Component::L2Lookup, t_start, t_miss));
        }

        self.txns.insert(
            id,
            DataTxn {
                core,
                line,
                is_prefetch,
                t_miss,
                mc_decrypt: !self.cfg.scheme.placement().l2_decrypts() || offload_bit,
                aes_done: None,
                cipher_at: None,
                shipped_unverified: false,
                aes_reserved: reserved_aes,
                at_mc: false,
                dram_issued: false,
                t_mc_arrival: Time::ZERO,
                xpt_forwarded,
                mc_ctr_ready: None,
                mc_data_at: None,
                ctr_source: None,
                from_dram: false,
                corrupt: None,
                retries: 0,
                t_start,
                spans,
                t_slice_done: None,
                t_shipped: None,
            },
        );

        let slice = self.slice_map.slice_of(line);
        let t_slice = t_miss + self.noc.l2_slice(core, slice, false);
        self.queue.push(t_slice, Ev::SliceDataReq { txn: id });
        if xpt_forwarded {
            self.report.xpt_forwards += 1;
            let t_mc = t_miss + self.noc.l2_mc(core, false);
            self.queue.push(
                t_mc,
                Ev::McDataReq {
                    txn: id,
                    via_xpt: true,
                },
            );
        }
        // EMCC: serial counter lookup in L2 during spare cycles.
        if self.cfg.scheme.placement().l2_decrypts() && !offload_bit {
            self.queue
                .push(t_miss + CTR_LOOKUP_DELAY, Ev::L2CtrLookup { txn: id });
        }
    }

    /// EMCC: look the data's counter block up in the local L2.
    fn l2_ctr_lookup(&mut self, txn_id: TxnId) {
        let Some(txn) = self.txns.get_mut(&txn_id) else {
            return;
        };
        let core = txn.core;
        let block = self.tree.geometry().counter_block_addr(txn.line);

        if self.l2[core].cache.touch(block) {
            // Counter hit in L2.
            let wait = self.cfg.emcc.aes_start_wait;
            let start = txn.l2_ctr_usable(CtrSource::L2, self.now, wait);
            self.queue.push(start, Ev::L2AesStart { txn: txn_id });
        } else {
            // Counter miss in L2: speculatively request it from LLC, in
            // parallel with the outstanding data access.
            let waiters = match self.l2_ctr_waiters.entry((core, block)) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(self.waiter_pool.pop().unwrap_or_default())
                }
            };
            waiters.push(txn_id);
            if waiters.len() == 1 {
                self.report.l2_ctr_reqs_to_llc += 1;
                let slice = self.slice_map.slice_of(block);
                let t = self.now + self.noc.l2_slice(core, slice, false);
                self.queue.push(
                    t,
                    Ev::SliceCtrReq {
                        block,
                        origin: CtrOrigin::L2 { core },
                    },
                );
            }
        }
    }

    // ----- LLC slices -----------------------------------------------------

    fn slice_data_req(&mut self, txn_id: TxnId) {
        let Some(txn) = self.txns.get_mut(&txn_id) else {
            return;
        };
        let (line, core) = (txn.line, txn.core);
        let slice = self.slice_map.slice_of(line);
        let t_lookup = self.now + LLC_SRAM_LATENCY;
        // Inclusive mode: a hit on an *encrypted & unverified* line cannot
        // be served from the LLC; the paper fetches from an owning L2, but
        // our private-workload model has no second owner, so we re-fetch
        // through the MC (counted — it is rare).
        let unverified_hit =
            self.cfg.inclusive_llc && self.slices[slice].peek(line).is_some_and(|m| m.unverified);
        let hit = !unverified_hit && self.slices[slice].touch(line);
        self.xpt[core].train(line, !hit);
        if unverified_hit {
            self.report.llc_unverified_hits += 1;
        }
        // Request leg + slice SRAM lookup sit on every miss's path.
        txn.spans
            .push(Span::new(Component::Noc, txn.t_miss, self.now));
        txn.spans
            .push(Span::new(Component::LlcLookup, self.now, t_lookup));
        txn.t_slice_done = Some(t_lookup);
        if hit {
            self.report.llc_data_hits += 1;
            if txn.xpt_forwarded {
                self.report.xpt_wasted += 1;
            }
            // LLC data is plaintext (it was decrypted on its way into L2
            // originally); respond directly.
            let t = t_lookup + self.noc.l2_slice(core, slice, true);
            txn.spans.push(Span::new(Component::Noc, t_lookup, t));
            self.queue.push(
                t,
                Ev::L2Fill {
                    txn: txn_id,
                    verified: true,
                },
            );
        } else {
            self.report.llc_data_misses += 1;
            txn.from_dram = true;
            // The confirmed miss always travels to the MC: even under XPT
            // (which only started the DRAM read early), the MC's secure
            // pipeline acts on the confirmed request.
            let t = t_lookup + self.noc.slice_mc(slice, false);
            self.queue.push(
                t,
                Ev::McDataReq {
                    txn: txn_id,
                    via_xpt: false,
                },
            );
        }
    }

    fn slice_victim(&mut self, line: LineAddr, dirty: bool, kind: BlockKind) {
        let slice = self.slice_map.slice_of(line);
        if kind == BlockKind::Counter {
            // Counter lines in L2 are clean copies; dropping them costs
            // nothing (the LLC may still hold its own copy).
            return;
        }
        // An L2 write-back (clean or dirty) always carries verified
        // plaintext, so it clears any inclusive-mode unverified bit.
        let victim = self.slices[slice].insert(line, dirty, LlcMeta::verified(kind));
        self.handle_llc_eviction(victim);
    }

    /// Disposes of an evicted LLC line: dirty data goes to the MC; in
    /// inclusive mode, L1/L2 copies are back-invalidated (dirty L2 copies
    /// supersede the LLC's and write back instead).
    pub(crate) fn handle_llc_eviction(&mut self, victim: Option<emcc_cache::EvictedLine<LlcMeta>>) {
        let Some(victim) = victim else {
            return;
        };
        if victim.meta.kind != BlockKind::Data {
            return;
        }
        let mut newer_dirty_in_l2 = false;
        if self.cfg.inclusive_llc {
            for core in 0..self.cfg.cores {
                self.l1[core].invalidate(victim.addr);
                if let Some(ev) = self.l2[core].cache.invalidate(victim.addr) {
                    self.report.inclusive_back_invals += 1;
                    newer_dirty_in_l2 |= ev.dirty;
                }
            }
        }
        // Unverified lines mirror DRAM exactly; nothing to write back.
        let needs_wb = (victim.dirty || newer_dirty_in_l2) && !victim.meta.unverified;
        if needs_wb {
            let slice = self.slice_map.slice_of(victim.addr);
            let t = self.now + self.noc.slice_mc(slice, true);
            self.queue.push(t, Ev::McWriteback { line: victim.addr });
        }
    }

    /// Inclusive mode: mirror a DRAM fill into the LLC on the response
    /// path, marked unverified when the fill is EMCC ciphertext.
    pub(crate) fn inclusive_fill(&mut self, line: LineAddr, verified: bool) {
        if !self.cfg.inclusive_llc {
            return;
        }
        let slice = self.slice_map.slice_of(line);
        if !verified {
            self.report.llc_unverified_inserts += 1;
        }
        let meta = LlcMeta {
            kind: BlockKind::Data,
            unverified: !verified,
        };
        let victim = self.slices[slice].insert(line, false, meta);
        self.handle_llc_eviction(victim);
    }

    fn slice_ctr_req(&mut self, block: LineAddr, origin: CtrOrigin) {
        let slice = self.slice_map.slice_of(block);
        let t_lookup = self.now + LLC_SRAM_LATENCY;
        if self.slices[slice].touch(block) {
            match origin {
                CtrOrigin::L2 { core } => {
                    // 'L' + 'M' of Fig 13: data-array read then a payload-
                    // carrying response back to the L2.
                    let t = t_lookup + self.noc.l2_slice(core, slice, true);
                    self.queue.push(t, Ev::L2CtrFill { core, block });
                }
                CtrOrigin::Mc => {
                    let t = t_lookup + self.noc.slice_mc(slice, true);
                    self.queue.push(
                        t,
                        Ev::McCtrReq {
                            block,
                            origin: CtrOrigin::LlcHitReply,
                        },
                    );
                }
                CtrOrigin::LlcHitReply => unreachable!("reply origin never queries LLC"),
            }
        } else {
            // Miss: forward to MC (who will fetch + verify from DRAM).
            let t = t_lookup + self.noc.slice_mc(slice, false);
            self.queue.push(t, Ev::McCtrReq { block, origin });
        }
    }

    // ----- L2 fills and EMCC completion ------------------------------------

    fn l2_fill(&mut self, txn_id: TxnId, verified: bool) {
        let Entry::Occupied(mut entry) = self.txns.entry(txn_id) else {
            return;
        };
        let txn = entry.get_mut();
        // Response NoC legs from the MC ship (LLC-hit responses recorded
        // their leg at the slice).
        if let Some(shipped) = txn.t_shipped.take() {
            txn.spans.push(Span::new(Component::Noc, shipped, self.now));
        }
        if verified {
            let txn = entry.remove();
            self.complete_txn(txn, self.now);
            return;
        }
        // Unverified ciphertext under EMCC: finish locally once AES done.
        txn.cipher_at = Some(self.now);
        if let Some(aes_done) = txn.aes_done {
            let t = self.now.max(aes_done) + XOR_AND_COMPARE;
            self.queue.push(t, Ev::L2TxnFinish { txn: txn_id });
        }
        // Otherwise the AES completion (or counter arrival) path schedules
        // the finish.
    }

    fn l2_ctr_fill(&mut self, core: usize, block: LineAddr) {
        if self.l2[core].cache.contains(block) {
            // Duplicate fill (racing requests); just wake waiters.
            self.wake_ctr_waiters(core, block);
            return;
        }
        // Insert the counter block into L2 under the 32 KB budget. The
        // budget evicts in insertion order (FIFO over counter lines) —
        // an O(1) approximation of global-LRU.
        self.report.l2_ctr_insertions += 1;
        let budget = self.cfg.emcc.l2_counter_budget_lines;
        while self.l2[core].ctr_lines >= budget.max(1) {
            // The oldest entry may already be gone (invalidated / evicted).
            let Some(old) = self.l2[core].ctr_fifo.pop_front() else {
                break;
            };
            self.evict_l2_ctr_line(core, old, false);
        }
        let meta = L2Meta {
            kind: BlockKind::Counter,
            used: false,
        };
        if let Some(victim) = self.l2[core].cache.insert(block, false, meta) {
            self.l2_victim(core, victim);
        }
        self.l2[core].ctr_lines += 1;
        self.l2[core].ctr_fifo.push_back(block);
        self.report.l2_ctr_lines_peak = self.report.l2_ctr_lines_peak.max(self.l2[core].ctr_lines);
        self.wake_ctr_waiters(core, block);
    }

    /// Wakes transactions waiting on a counter block at an L2.
    fn wake_ctr_waiters(&mut self, core: usize, block: LineAddr) {
        let wait = self.cfg.emcc.aes_start_wait;
        let mut waiters = self
            .l2_ctr_waiters
            .remove(&(core, block))
            .unwrap_or_default();
        for txn_id in waiters.drain(..) {
            let Some(txn) = self.txns.get_mut(&txn_id) else {
                continue;
            };
            if txn.mc_decrypt && !txn.shipped_unverified {
                continue;
            }
            let start = txn.l2_ctr_usable(CtrSource::Llc, self.now, wait);
            self.queue.push(start, Ev::L2AesStart { txn: txn_id });
        }
        self.waiter_pool.push(waiters);
    }

    /// Starts a read's OTP AES at its L2. Each read gets at most one
    /// `L2AesStart`: its one counter lookup either hits or parks it in a
    /// waiter list that is drained once.
    fn l2_aes_start(&mut self, txn_id: TxnId) {
        let Some(txn) = self.txns.get_mut(&txn_id) else {
            return;
        };
        let l2 = &mut self.l2[txn.core];
        let Some(pool) = l2.aes.as_mut() else {
            return;
        };
        let decoded = self.now + COUNTER_DECODE;
        let qd = pool.queue_delay(decoded);
        let aes = pool.schedule_span(decoded);
        let done = aes.end;
        self.report.l2_aes_queue_ns.add_time(qd);
        if std::mem::take(&mut txn.aes_reserved) {
            l2.aes_reserved = l2.aes_reserved.saturating_sub(1);
        }
        txn.aes_done = Some(done);
        // Counter decode, then the (possibly queued) OTP AES.
        txn.spans
            .push(Span::new(Component::CtrFetch, self.now, decoded));
        txn.spans.push(aes);
        if let Some(cipher_at) = txn.cipher_at {
            let t = cipher_at.max(done) + XOR_AND_COMPARE;
            self.queue.push(t, Ev::L2TxnFinish { txn: txn_id });
        }
        // The counter's value is consumed now (AES only starts once an
        // LLC hit has been ruled out).
        l2.mark_ctr_used(self.tree.geometry().counter_block_addr(txn.line));
    }

    fn l2_txn_finish(&mut self, txn_id: TxnId) {
        let now = self.now;
        let Entry::Occupied(mut entry) = self.txns.entry(txn_id) else {
            return;
        };
        let txn = entry.get_mut();
        let l2 = &mut self.l2[txn.core];
        // Local XOR + MAC compare ends now, whether it passed or
        // detected corruption.
        txn.spans.push(Span::new(
            Component::Verify,
            now.saturating_sub(XOR_AND_COMPARE),
            now,
        ));
        if txn.corrupt.take().is_some() {
            // L2-side detection: the locally recomputed MAC half cannot
            // match corrupted ciphertext. Either retry via the MC-verified
            // path or, once the retry budget is spent, deliver the
            // poisoned line.
            l2.verify_fail_streak += 1;
            if !l2.verify_degraded && l2.verify_fail_streak >= L2_FALLBACK_THRESHOLD {
                l2.verify_degraded = true;
                self.report.verify_fallbacks += 1;
            }
            let detected_after = now.saturating_sub(txn.cipher_at.unwrap_or(now));
            if let Some(backoff) = self
                .report
                .integrity_failure(1, detected_after, txn.retries)
            {
                // Hand the retry to the MC-verified path so the refetched
                // line is checked end-to-end before it reaches this L2.
                txn.retries += 1;
                txn.mc_decrypt = true;
                txn.shipped_unverified = false;
                txn.cipher_at = None;
                txn.aes_done = None;
                self.queue
                    .push(now + backoff, Ev::DataRefetch { txn: txn_id });
                return;
            }
        } else {
            l2.verify_fail_streak = 0;
        }
        self.report.decrypted_at_l2 += 1;
        if let Some(cipher_at) = txn.cipher_at {
            self.report
                .l2_finish_wait_ns
                .add_time(now.saturating_sub(cipher_at));
        }
        // This event follows the AES start, so the counter was used.
        l2.mark_ctr_used(self.tree.geometry().counter_block_addr(txn.line));
        let txn = entry.remove();
        self.complete_txn(txn, now);
    }

    /// Final completion of `txn`, which the caller has removed from the
    /// in-flight map (completion IS removal — every other handler treats
    /// an absent transaction as done): fill caches, wake waiters, record
    /// stats.
    pub(crate) fn complete_txn(&mut self, txn: DataTxn, t: Time) {
        let (core, line, t_start) = (txn.core, txn.line, txn.t_start);
        // A speculative XPT read that completed for an access the LLC
        // served: wasted DRAM bandwidth, observed at completion.
        let xpt_read_wasted = !txn.from_dram && txn.mc_data_at.is_some();
        let mut spans = txn.spans;
        if txn.aes_reserved {
            self.l2[core].aes_reserved = self.l2[core].aes_reserved.saturating_sub(1);
        }

        // Critical-path attribution. Scheduled work can legitimately
        // outlive the access (eager AES whose data came back verified from
        // an LLC hit), so ends are truncated at completion; `attribute`
        // still flags starts outside the window and inverted spans.
        for s in &mut spans {
            s.end = s.end.min(t);
        }
        spans.retain(|s| s.start < t);
        let att = self.attributor.attribute(t_start, t, &spans);
        self.report.crit_path.add(&att.per_component());
        self.report.crit_total_ps += t.saturating_sub(t_start).as_ps();
        self.report.overlap_credit_ns.add_time(att.overlap);
        self.report.crit_violations += u64::from(att.violations);
        self.tracer
            .record(core as u32, line.get(), t_start, t, &spans, att);
        spans.clear();
        self.span_pool.push(spans);
        if xpt_read_wasted {
            self.report.xpt_wasted_reads += 1;
        }

        if txn.from_dram {
            self.l2[core].window_dram_fills += 1;
            if let Some(src) = txn.ctr_source {
                self.report.record_ctr_source(src);
            }
            // Completion is the last consumption point: a corruption no
            // verifier took off the fill is delivered unflagged.
            if txn.corrupt.is_some() {
                self.report.faulty_reads += 1;
                self.report.silent_corruptions += 1;
            }
        }
        if !txn.is_prefetch {
            self.report
                .l2_miss_latency_ns
                .add_time(t.saturating_sub(txn.t_miss));
        }

        // Fill L2; dirty if any waiter was a write (RFO).
        let mut waiters = std::mem::take(&mut self.mshr_scratch);
        self.l2[core].mshr.complete_into(line, &mut waiters);
        let dirty = waiters.iter().any(|w| w.is_write);
        let meta = L2Meta {
            kind: BlockKind::Data,
            used: false,
        };
        if let Some(victim) = self.l2[core].cache.insert(line, dirty, meta) {
            self.l2_victim(core, victim);
        }
        if !txn.is_prefetch {
            self.l1_fill(core, line, false);
        }
        for w in waiters.drain(..) {
            if let Some(token) = w.token {
                self.queue.push(t, Ev::LoadComplete { core, token });
            }
        }
        self.mshr_scratch = waiters;
    }

    /// Handles an L2 victim line: counters are dropped (with Fig 11
    /// accounting), data victims travel to the LLC.
    pub(crate) fn l2_victim(&mut self, core: usize, victim: emcc_cache::EvictedLine<L2Meta>) {
        match victim.meta.kind {
            BlockKind::Counter => self.retire_l2_ctr_line(core, victim.meta.used),
            _ => {
                let slice = self.slice_map.slice_of(victim.addr);
                let t = self.now + self.noc.l2_slice(core, slice, true);
                self.queue.push(
                    t,
                    Ev::SliceVictim {
                        line: victim.addr,
                        dirty: victim.dirty,
                        kind: victim.meta.kind,
                    },
                );
            }
        }
    }

    /// Invalidate-path eviction of an L2 counter line, if resident:
    /// `stale` when an MC counter update outdated it (Fig 23 counts
    /// those), otherwise a recovery drop or a budget replacement.
    pub(crate) fn evict_l2_ctr_line(&mut self, core: usize, block: LineAddr, stale: bool) {
        if let Some(ev) = self.l2[core].cache.invalidate(block) {
            if stale {
                self.report.l2_ctr_invalidations += 1;
            }
            self.retire_l2_ctr_line(core, ev.meta.used);
        }
    }

    /// Fig 11: a counter line leaves an L2, useful if a data miss consumed
    /// its value while it was resident.
    fn retire_l2_ctr_line(&mut self, core: usize, used: bool) {
        self.l2[core].ctr_lines = self.l2[core].ctr_lines.saturating_sub(1);
        if used {
            self.report.l2_ctr_useful += 1;
        } else {
            self.report.l2_ctr_useless += 1;
        }
    }

    /// §IV-F: periodically compare DRAM-served fills against L2 accesses
    /// and switch EMCC off for a non-memory-intensive window.
    fn sample_intensity(&mut self, core: usize) {
        if !self.cfg.scheme.placement().l2_decrypts() || !self.cfg.emcc.dynamic_disable {
            return;
        }
        let l2 = &mut self.l2[core];
        l2.window_accesses += 1;
        if l2.window_accesses >= INTENSITY_WINDOW {
            let per_mille = l2.window_dram_fills * 1000 / l2.window_accesses;
            l2.emcc_disabled = per_mille < INTENSITY_THRESHOLD_PER_MILLE;
            if l2.emcc_disabled {
                self.report.emcc_disabled_windows += 1;
            }
            l2.window_accesses = 0;
            l2.window_dram_fills = 0;
        }
    }

    // ----- Prefetcher -------------------------------------------------------

    fn train_prefetcher(&mut self, core: usize, line: LineAddr) {
        if self.cfg.l2_prefetch_degree == 0 {
            return;
        }
        // Index by 4 KB region so interleaved streams train separately
        // (high multiply bits: low bits of a multiplicative hash collide).
        let slot = ((line.get() >> 6).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize;
        let (last, last_stride, conf) = self.l2[core].stride[slot];
        let stride = line.get() as i64 - last as i64;
        if stride != 0 && stride == last_stride && stride.unsigned_abs() <= 8 {
            let conf = conf + 1;
            self.l2[core].stride[slot] = (line.get(), stride, conf);
            if conf >= 2 {
                for d in 1..=self.cfg.l2_prefetch_degree {
                    let target = line.get() as i64 + stride * i64::from(d);
                    if target < 0 {
                        continue;
                    }
                    let target = LineAddr::new(target as u64);
                    if self.l2[core].cache.contains(target)
                        || self.l2[core].mshr.is_outstanding(target)
                    {
                        continue;
                    }
                    if self.l2[core].mshr.allocate(
                        target,
                        Waiter {
                            token: None,
                            is_write: false,
                        },
                    ) == MshrOutcome::Allocated
                    {
                        self.report.prefetches += 1;
                        self.start_data_txn(core, target, true, self.now);
                    }
                }
            }
        } else {
            self.l2[core].stride[slot] = (line.get(), stride, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::DispatchLedger;
    use emcc_counters::CounterDesign;
    use emcc_dram::RequestClass;
    use emcc_secmem::SecurityScheme;

    /// A write-back that overflow admission defers counts once, when it
    /// arrives at the MC, and not again when it replays.
    #[test]
    fn deferred_writeback_counts_once() {
        let mut cfg = SystemConfig::table_i(SecurityScheme::McOnly);
        cfg.counter_design = CounterDesign::Sc64;
        let mut sys = SecureSystem::new(cfg);
        // Three lines under three counter blocks, each one write-back
        // short of a level-0 overflow: the third overflow must wait.
        let lines = [0, 64, 128].map(LineAddr::new);
        for line in lines {
            while !sys.tree.would_overflow_data(line) {
                sys.tree.increment_data(line);
            }
            let block = sys.tree.geometry().counter_block_addr(line);
            sys.mc.meta.insert(block, false, BlockKind::Counter);
        }
        for line in lines {
            sys.queue.push(Time::ZERO, Ev::McWriteback { line });
        }
        while let Some((t, ev)) = sys.queue.pop() {
            sys.now = t;
            sys.dispatch(ev);
        }
        assert_eq!(sys.report.overflow_stalls, 1);
        assert_eq!(sys.report.writebacks, 3);
    }

    /// A DRAM fill that completes with its corruption still attached was
    /// consumed without a verifier flagging it: one faulty, silent read.
    #[test]
    fn corruption_left_at_completion_counts_as_silent() {
        let mut sys = SecureSystem::new(SystemConfig::table_i(SecurityScheme::Emcc));
        let id = sys.next_txn;
        sys.start_data_txn(0, LineAddr::new(7), false, Time::ZERO);
        let mut txn = sys.txns.remove(&id).expect("txn started");
        txn.from_dram = true;
        txn.corrupt = Some(FaultClass::BitFlip);
        sys.complete_txn(txn, Time::from_ns(100));
        assert_eq!(sys.report.faulty_reads, 1);
        assert_eq!(sys.report.silent_corruptions, 1);
        assert_eq!(sys.report.integrity_violations, 0);
    }

    /// Fig 23 counts the L2 counter copies an MC counter update made
    /// stale, not the copies integrity recovery drops as suspect.
    #[test]
    fn recovery_drops_are_not_fig23_invalidations() {
        let mut sys = SecureSystem::new(SystemConfig::table_i(SecurityScheme::Emcc));
        let line = LineAddr::new(7);
        let block = sys.tree.geometry().counter_block_addr(line);
        let id = sys.next_txn;
        sys.start_data_txn(0, line, false, Time::ZERO);
        sys.mc.ctr_txns.insert(block, crate::mc::CtrTxn::default());
        for recovery in [Ev::CtrRefetch { block }, Ev::DataRefetch { txn: id }] {
            sys.l2_ctr_fill(0, block);
            sys.dispatch(recovery);
            assert!(!sys.l2[0].cache.contains(block), "recovery drops the copy");
        }
        assert_eq!(sys.report.l2_ctr_invalidations, 0);
        sys.l2_ctr_fill(0, block);
        sys.mc_do_writeback_with_counter(line);
        assert!(!sys.l2[0].cache.contains(block), "the write-back's bump");
        assert_eq!(sys.report.l2_ctr_invalidations, 1);
    }

    /// Every event keyed by a transaction or a counter block is a no-op
    /// once that read or resolution is gone: completion is removal.
    #[test]
    fn events_for_absent_transactions_do_nothing() {
        let (txn, block, t) = (7, LineAddr::new(7), Time::ZERO);
        let done = Completion {
            id: 7,
            done: t,
            is_write: false,
            class: RequestClass::Data,
            line: block,
            row_hit: false,
            enqueued: t,
            issued: t,
        };
        let events = [
            Ev::L2CtrLookup { txn },
            Ev::SliceDataReq { txn },
            Ev::McDataReq {
                txn,
                via_xpt: false,
            },
            Ev::L2Fill {
                txn,
                verified: false,
            },
            Ev::L2AesStart { txn },
            Ev::L2TxnFinish { txn },
            Ev::DataRefetch { txn },
            Ev::McCtrReady { block },
            Ev::CtrRefetch { block },
            Ev::DramDone(done),
            Ev::McCtrReq {
                block,
                origin: CtrOrigin::LlcHitReply,
            },
            Ev::McCtrReq {
                block,
                origin: CtrOrigin::Mc,
            },
        ];
        for ev in events {
            let mut sys = SecureSystem::new(SystemConfig::table_i(SecurityScheme::Emcc));
            let (name, before) = (format!("{ev:?}"), sys.report.canonical_json());
            sys.dispatch(ev);
            assert_eq!(sys.report.canonical_json(), before, "{name}");
            assert!(sys.queue.is_empty(), "{name} queued an event");
        }
    }

    #[test]
    fn ledger_kinds_name_every_event() {
        let (line, t) = (LineAddr::new(1), Time::ZERO);
        let origin = CtrOrigin::Mc;
        let events = [
            Ev::CoreAdvance(0),
            Ev::LoadComplete { core: 0, token: 0 },
            Ev::L2Access {
                core: 0,
                line,
                is_write: false,
                token: None,
            },
            Ev::L2CtrLookup { txn: 0 },
            Ev::SliceDataReq { txn: 0 },
            Ev::SliceVictim {
                line,
                dirty: false,
                kind: BlockKind::Data,
            },
            Ev::SliceCtrReq {
                block: line,
                origin,
            },
            Ev::McDataReq {
                txn: 0,
                via_xpt: false,
            },
            Ev::McCtrReq {
                block: line,
                origin,
            },
            Ev::McWriteback { line },
            Ev::McWriteIssue { line },
            Ev::McCtrReady { block: line },
            Ev::L2Fill {
                txn: 0,
                verified: false,
            },
            Ev::L2CtrFill {
                core: 0,
                block: line,
            },
            Ev::L2AesStart { txn: 0 },
            Ev::L2TxnFinish { txn: 0 },
            Ev::DramPump,
            Ev::DramDone(Completion {
                id: 0,
                done: t,
                is_write: false,
                class: RequestClass::Data,
                line,
                row_hit: false,
                enqueued: t,
                issued: t,
            }),
            Ev::DataRefetch { txn: 0 },
            Ev::CtrRefetch { block: line },
        ];
        assert_eq!(events.len(), DispatchLedger::KINDS.len());
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(ev.kind(), i);
            let name = format!("{ev:?}");
            let kind = DispatchLedger::KINDS[i];
            assert!(
                name.strip_prefix(kind)
                    .is_some_and(|rest| !rest.starts_with(char::is_alphanumeric)),
                "{name} is not named {kind}"
            );
        }
    }
}
