//! Simulation reports: every statistic the paper's figures need.

use emcc_dram::{DramStats, RequestClass};
use emcc_sim::stats::{ratio, Histogram, RunningMean};
use emcc_sim::trace::Component;
use emcc_sim::Time;

/// Per-component critical-path histograms over completed data reads.
///
/// Each completed access contributes one sample per component: the
/// critical nanoseconds [`attribute`](emcc_sim::trace::attribute) charged
/// to it (zero when the component was absent or fully hidden). The
/// per-component means are therefore a simulated Fig 5/10 latency
/// breakdown.
#[derive(Debug, Clone)]
pub struct CritPathStats {
    hists: [Histogram; Component::COUNT],
    /// Exact picosecond totals per component (histograms quantize).
    sum_ps: [u64; Component::COUNT],
}

impl Default for CritPathStats {
    fn default() -> Self {
        // 32 bins of 4 ns cover 0-128 ns, past the worst serial tree walk
        // of Fig 5; pathological tails land in the overflow bucket.
        CritPathStats {
            hists: std::array::from_fn(|_| Histogram::new(0.0, 4.0, 32)),
            sum_ps: [0; Component::COUNT],
        }
    }
}

impl CritPathStats {
    /// Records one access's per-component critical time.
    pub fn add(&mut self, per: &[Time; Component::COUNT]) {
        for (i, t) in per.iter().enumerate() {
            let ps = t.as_ps();
            if ps == 0 {
                self.hists[i].add_zero();
            } else {
                self.hists[i].add_time(*t);
                self.sum_ps[i] += ps;
            }
        }
    }

    /// Histogram of critical nanoseconds for one component.
    pub fn component(&self, comp: Component) -> &Histogram {
        &self.hists[comp.index()]
    }

    /// Exact critical picoseconds charged to one component.
    pub fn sum_ps(&self, comp: Component) -> u64 {
        self.sum_ps[comp.index()]
    }

    /// Exact critical picoseconds across all components. Equals
    /// [`SimReport::crit_total_ps`] by the tiling law — every instant of
    /// every attributed access is charged to exactly one component.
    pub fn total_sum_ps(&self) -> u64 {
        self.sum_ps.iter().sum()
    }

    /// Number of accesses recorded (count of any one histogram).
    pub fn accesses(&self) -> u64 {
        self.hists[0].total()
    }
}

/// Host work of one run, counted over the whole run with warm-up
/// included: event dispatches per kind, plus the `CoreAdvance` and
/// `DramPump` dispatches that issued nothing.
///
/// The counts depend only on the run's inputs, never on the host, so
/// tests pin them exactly. [`SimReport::canonical_json`] does not render
/// them: they measure the simulator, not the simulated machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchLedger {
    /// Dispatches per event kind, in [`DispatchLedger::KINDS`] order.
    pub by_kind: [u64; DispatchLedger::KINDS.len()],
    /// `CoreAdvance` dispatches that issued no memory operation.
    pub idle_core_advances: u64,
    /// `DramPump` dispatches that issued no DRAM request.
    pub idle_dram_pumps: u64,
}

impl DispatchLedger {
    /// The simulator's event kinds, in declaration order.
    pub const KINDS: [&'static str; 20] = [
        "CoreAdvance",
        "LoadComplete",
        "L2Access",
        "L2CtrLookup",
        "SliceDataReq",
        "SliceVictim",
        "SliceCtrReq",
        "McDataReq",
        "McCtrReq",
        "McWriteback",
        "McWriteIssue",
        "McCtrReady",
        "L2Fill",
        "L2CtrFill",
        "L2AesStart",
        "L2TxnFinish",
        "DramPump",
        "DramDone",
        "DataRefetch",
        "CtrRefetch",
    ];

    /// All dispatches.
    pub fn total(&self) -> u64 {
        self.by_kind.iter().sum()
    }

    /// Every count by name: the event kinds in [`Self::KINDS`] order,
    /// then `idle_core_advances` and `idle_dram_pumps`.
    pub fn entries(&self) -> impl Iterator<Item = (&'static str, u64)> {
        Self::KINDS.into_iter().zip(self.by_kind).chain([
            ("idle_core_advances", self.idle_core_advances),
            ("idle_dram_pumps", self.idle_dram_pumps),
        ])
    }

    /// Adds another run's counts to these.
    pub fn add(&mut self, other: &DispatchLedger) {
        for (a, b) in self.by_kind.iter_mut().zip(other.by_kind) {
            *a += b;
        }
        self.idle_core_advances += other.idle_core_advances;
        self.idle_dram_pumps += other.idle_dram_pumps;
    }
}

/// Where a data read's counter was found (Figs 6/7 categories, plus the
/// EMCC-only L2 category).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrSource {
    /// Hit in the L2 (EMCC only).
    L2,
    /// Hit in the MC's private metadata cache.
    Mc,
    /// Hit in the LLC.
    Llc,
    /// Missed everywhere; fetched from DRAM.
    Dram,
}

/// Statistics of one simulation run.
///
/// Counters are raw event counts; derived ratios are methods so reports
/// stay assembleable. All figure-facing quantities are documented with the
/// figure they feed.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// Benchmark label.
    pub benchmark: String,
    /// Scheme label.
    pub scheme: String,
    /// Total simulated time.
    pub elapsed: Time,
    /// Instructions retired across all cores.
    pub instructions: u64,
    /// Core memory operations executed (loads + stores).
    pub mem_ops: u64,
    /// Core loads that hit L1.
    pub l1_hits: u64,
    /// Core data accesses reaching L2.
    pub l2_accesses: u64,
    /// Data hits in L2.
    pub l2_hits: u64,
    /// Core-demand data misses in L2 (Fig 11/12 denominator).
    pub l2_data_misses: u64,
    /// Data hits in LLC.
    pub llc_data_hits: u64,
    /// Data misses in LLC (= DRAM data reads for demand traffic).
    pub llc_data_misses: u64,
    /// DRAM reads for demand + prefetch data.
    pub dram_data_reads: u64,
    /// Data write-backs received by the MC.
    pub writebacks: u64,
    /// L2 miss latency for demand loads: L2 miss → verified data at L2
    /// (Fig 17).
    pub l2_miss_latency_ns: RunningMean,
    /// Secure-memory access latency: request at MC → response leaves MC.
    pub secure_access_latency_ns: RunningMean,
    /// Counter sourcing for DRAM data reads: [L2, MC, LLC, DRAM]
    /// (Figs 6/7).
    pub ctr_source: [u64; 4],
    /// Counter requests sent from L2s to LLC (Fig 12 numerator, EMCC).
    pub l2_ctr_reqs_to_llc: u64,
    /// Counter requests sent from the MC to LLC (Fig 12, baseline).
    pub mc_ctr_reqs_to_llc: u64,
    /// Counter lines inserted into L2s (Fig 23 denominator).
    pub l2_ctr_insertions: u64,
    /// Counter lines invalidated in L2s by MC counter updates (Fig 23
    /// numerator); integrity recovery's drops are not counted.
    pub l2_ctr_invalidations: u64,
    /// Counter lines evicted/invalidated from L2 having never been used
    /// for a DRAM-served data miss (Fig 11 numerator).
    pub l2_ctr_useless: u64,
    /// Counter lines evicted/invalidated from L2 that were used.
    pub l2_ctr_useful: u64,
    /// DRAM data reads decrypted+verified at an L2 (Fig 19 numerator).
    pub decrypted_at_l2: u64,
    /// DRAM data reads decrypted+verified at the MC.
    pub decrypted_at_mc: u64,
    /// L2 misses that set the offload bit due to AES queue pressure.
    pub offloaded_for_bandwidth: u64,
    /// XPT: requests forwarded early to the MC.
    pub xpt_forwards: u64,
    /// XPT: forwarded requests that turned out to hit LLC (wasted DRAM
    /// bandwidth).
    pub xpt_wasted: u64,
    /// Level-0 counter overflows (rebases).
    pub overflows_l0: u64,
    /// Level-1+ (tree) overflows.
    pub overflows_higher: u64,
    /// Writebacks deferred because two overflows were outstanding.
    pub overflow_stalls: u64,
    /// Prefetches issued by the L2 stride prefetcher.
    pub prefetches: u64,
    /// EMCC: wait from ciphertext arrival at L2 to verified completion
    /// (exposed AES latency; ~0 when the overlap works).
    pub l2_finish_wait_ns: RunningMean,
    /// EMCC: AES queue delay observed at L2 AES start.
    pub l2_aes_queue_ns: RunningMean,
    /// EMCC: peak counter lines resident in any single L2 (budget check).
    pub l2_ctr_lines_peak: u64,
    /// §IV-F dynamic disable: sampling windows during which an L2 ran
    /// with EMCC turned off (0 unless `EmccConfig::dynamic_disable`).
    pub emcc_disabled_windows: u64,
    /// §IV-F inclusive mode: DRAM fills inserted into LLC still
    /// encrypted & unverified.
    pub llc_unverified_inserts: u64,
    /// §IV-F inclusive mode: LLC lookups that found only an unverified
    /// copy (re-fetched through the MC).
    pub llc_unverified_hits: u64,
    /// §IV-F inclusive mode: L1/L2 copies back-invalidated by LLC
    /// evictions.
    pub inclusive_back_invals: u64,
    /// DRAM-side statistics (queuing delay, per-class bus busy — Figs 15
    /// and 22).
    pub dram: DramStats,
    /// Fault campaigns: corrupted DRAM reads the pipeline consumed (fresh
    /// injections plus re-reads of still-corrupt lines), counted where a
    /// verifier flags them or, unflagged, where they are delivered
    /// (DESIGN §8).
    pub faulty_reads: u64,
    /// Fault campaigns: fresh fault injections by `FaultClass::index()`
    /// (bit-flip, MAC-corrupt, stuck-line, replay, transient-read).
    pub faults_injected: [u64; 5],
    /// Verification failures detected (MC-side or L2-side MAC / tree-walk
    /// mismatches). The ECC-style interrupt count of §IV-D.
    pub integrity_violations: u64,
    /// Re-fetch retries issued by the recovery policy.
    pub integrity_retries: u64,
    /// Fetches still failing verification after the retry budget —
    /// surfaced as machine-check events; the line is poisoned.
    pub integrity_unrecovered: u64,
    /// EMCC degradation events: L2s that fell back to MC-side
    /// verification after a failure streak.
    pub verify_fallbacks: u64,
    /// Corrupted reads consumed without any verification (NonSecure runs
    /// only; always 0 under a secure scheme).
    pub silent_corruptions: u64,
    /// Latency from corrupted data arriving on-chip to its detection by a
    /// failed verification, in nanoseconds.
    pub detection_latency_ns: Histogram,
    /// Critical-path attribution: per-component histograms of critical
    /// nanoseconds per completed data read (simulated Fig 5/10 breakdown).
    pub crit_path: CritPathStats,
    /// Exact end-to-end picoseconds summed over attributed accesses; the
    /// conservation law: equals `crit_path.total_sum_ps()`.
    pub crit_total_ps: u64,
    /// Critical-path attribution: recorded work hidden under other work
    /// per completed read, in nanoseconds — EMCC's overlap credit.
    pub overlap_credit_ns: RunningMean,
    /// Attribution conservation: work spans recorded outside their
    /// access window. The fuzz law demands 0.
    pub crit_violations: u64,
    /// DRAM data reads completed on behalf of integrity-recovery
    /// re-fetches (these serve no *new* LLC miss).
    pub data_refetch_reads: u64,
    /// Completed DRAM data reads whose transaction was served by an LLC
    /// hit instead — XPT mis-speculation observed at completion time
    /// (`xpt_wasted` counts the same event at LLC-lookup time).
    pub xpt_wasted_reads: u64,
    /// Exact cutoff accounting: DRAM data reads still queued or in
    /// flight at run end for transactions that counted an LLC miss.
    pub dram_reads_inflight_at_cutoff: u64,
    /// Exact cutoff accounting: LLC data misses whose DRAM read had not
    /// yet been enqueued at run end.
    pub unissued_misses_at_cutoff: u64,
    /// Shadow differential checker: written lines compared at the end of
    /// the run (0 when `shadow_check` is off).
    pub shadow_lines: u64,
    /// Shadow differential checker: lines whose timing-model counter state
    /// diverged from the functional model (must be 0).
    pub shadow_mismatches: u64,
    /// Host work: dispatches per event kind over the whole run, warm-up
    /// included (not rendered by [`Self::canonical_json`]).
    pub dispatches: DispatchLedger,
    /// The run reached `SystemConfig::max_sim_time` before every core
    /// finished, so its counts cover a cut-off run (not rendered by
    /// [`Self::canonical_json`]).
    pub truncated: bool,
}

impl SimReport {
    /// Instructions per nanosecond across all cores.
    pub fn ipc(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        // Report IPC per core-cycle at 3.2 GHz equivalents: instructions
        // per ns divided by 3.2 gives IPC per core aggregate.
        self.instructions as f64 / self.elapsed.as_ns_f64()
    }

    /// Figs 6/7: fraction of DRAM data reads whose counter hit in the MC
    /// metadata cache (L2 hits under EMCC count toward on-chip hits).
    pub fn ctr_mc_hit_frac(&self) -> f64 {
        let total = self.ctr_source.iter().sum::<u64>();
        ratio(self.ctr_source[1] + self.ctr_source[0], total)
    }

    /// Figs 6/7: fraction whose counter hit in the LLC.
    pub fn ctr_llc_hit_frac(&self) -> f64 {
        ratio(self.ctr_source[2], self.ctr_source.iter().sum())
    }

    /// Figs 6/7: fraction whose counter missed on-chip entirely.
    pub fn ctr_llc_miss_frac(&self) -> f64 {
        ratio(self.ctr_source[3], self.ctr_source.iter().sum())
    }

    /// Fig 11: useless counter accesses to LLC per L2 data miss.
    pub fn useless_ctr_frac(&self) -> f64 {
        ratio(self.l2_ctr_useless, self.l2_data_misses)
    }

    /// Fig 12: total counter accesses to LLC per L2 data miss.
    pub fn ctr_llc_access_frac(&self) -> f64 {
        ratio(
            self.l2_ctr_reqs_to_llc + self.mc_ctr_reqs_to_llc,
            self.l2_data_misses,
        )
    }

    /// Fig 19: fraction of DRAM data reads decrypted at L2.
    pub fn l2_decrypt_frac(&self) -> f64 {
        ratio(
            self.decrypted_at_l2,
            self.decrypted_at_l2 + self.decrypted_at_mc,
        )
    }

    /// Fig 23: counter invalidations per counter insertion in L2.
    pub fn ctr_invalidation_frac(&self) -> f64 {
        ratio(self.l2_ctr_invalidations, self.l2_ctr_insertions)
    }

    /// Fig 15-style bandwidth utilization for one traffic class: bus busy
    /// time over elapsed time (per channel, summed across channels the
    /// ratio is of aggregate peak).
    pub fn bandwidth_utilization(&self, class: RequestClass, channels: u64) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.dram.bus_busy_for(class).as_ns_f64() / (self.elapsed.as_ns_f64() * channels as f64)
    }

    /// Fault campaigns: fraction of corrupted reads that triggered a
    /// verification failure (1.0 = 100% detection; 0.0 when no faults).
    pub fn detection_rate(&self) -> f64 {
        ratio(self.integrity_violations, self.faulty_reads)
    }

    /// Records a counter sourcing event.
    pub fn record_ctr_source(&mut self, src: CtrSource) {
        let i = match src {
            CtrSource::L2 => 0,
            CtrSource::Mc => 1,
            CtrSource::Llc => 2,
            CtrSource::Dram => 3,
        };
        self.ctr_source[i] += 1;
    }

    /// Canonical JSON rendering of every field, for golden-report
    /// snapshots and determinism digests.
    ///
    /// The encoding is bit-stable: keys appear in declaration order,
    /// times are integral picoseconds, and floats use Rust's
    /// shortest-roundtrip `Display` (identical text for identical bits).
    /// Two runs are behaviourally identical iff their canonical JSON is
    /// byte-identical.
    pub fn canonical_json(&self) -> String {
        use std::fmt::{Display, Formatter, Result, Write};

        /// An optional float, `null` when absent.
        struct Opt(Option<f64>);
        impl Display for Opt {
            fn fmt(&self, f: &mut Formatter<'_>) -> Result {
                match self.0 {
                    Some(v) => v.fmt(f),
                    None => f.write_str("null"),
                }
            }
        }
        /// A running mean as an object.
        struct Mean<'a>(&'a RunningMean);
        impl Display for Mean<'_> {
            fn fmt(&self, f: &mut Formatter<'_>) -> Result {
                let m = self.0;
                write!(
                    f,
                    "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}}}",
                    m.count(),
                    m.sum(),
                    Opt(m.min()),
                    Opt(m.max())
                )
            }
        }
        /// A histogram's bin counts as an array.
        struct Bins<'a>(&'a Histogram);
        impl Display for Bins<'_> {
            fn fmt(&self, f: &mut Formatter<'_>) -> Result {
                f.write_str("[")?;
                for i in 0..self.0.num_bins() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    self.0.bin_count(i).fmt(f)?;
                }
                f.write_str("]")
            }
        }
        /// Writes one `  "key": value,` line, the key given in parts.
        fn field(out: &mut String, key: &[&str], value: impl Display) {
            out.push_str("  \"");
            for part in key {
                out.push_str(part);
            }
            let _ = writeln!(out, "\": {value},");
        }

        // Every value goes straight into one buffer: no per-field or
        // per-bin temporaries.
        let mut out = String::with_capacity(8 << 10);
        out.push_str("{\n");
        let o = &mut out;
        field(o, &["benchmark"], format_args!("{:?}", self.benchmark));
        field(o, &["scheme"], format_args!("{:?}", self.scheme));
        field(o, &["elapsed_ps"], self.elapsed.as_ps());
        field(o, &["instructions"], self.instructions);
        field(o, &["mem_ops"], self.mem_ops);
        field(o, &["l1_hits"], self.l1_hits);
        field(o, &["l2_accesses"], self.l2_accesses);
        field(o, &["l2_hits"], self.l2_hits);
        field(o, &["l2_data_misses"], self.l2_data_misses);
        field(o, &["llc_data_hits"], self.llc_data_hits);
        field(o, &["llc_data_misses"], self.llc_data_misses);
        field(o, &["dram_data_reads"], self.dram_data_reads);
        field(o, &["writebacks"], self.writebacks);
        field(o, &["l2_miss_latency_ns"], Mean(&self.l2_miss_latency_ns));
        field(
            o,
            &["secure_access_latency_ns"],
            Mean(&self.secure_access_latency_ns),
        );
        let src = self.ctr_source;
        field(
            o,
            &["ctr_source"],
            format_args!("[{}, {}, {}, {}]", src[0], src[1], src[2], src[3]),
        );
        field(o, &["l2_ctr_reqs_to_llc"], self.l2_ctr_reqs_to_llc);
        field(o, &["mc_ctr_reqs_to_llc"], self.mc_ctr_reqs_to_llc);
        field(o, &["l2_ctr_insertions"], self.l2_ctr_insertions);
        field(o, &["l2_ctr_invalidations"], self.l2_ctr_invalidations);
        field(o, &["l2_ctr_useless"], self.l2_ctr_useless);
        field(o, &["l2_ctr_useful"], self.l2_ctr_useful);
        field(o, &["decrypted_at_l2"], self.decrypted_at_l2);
        field(o, &["decrypted_at_mc"], self.decrypted_at_mc);
        field(
            o,
            &["offloaded_for_bandwidth"],
            self.offloaded_for_bandwidth,
        );
        field(o, &["xpt_forwards"], self.xpt_forwards);
        field(o, &["xpt_wasted"], self.xpt_wasted);
        field(o, &["overflows_l0"], self.overflows_l0);
        field(o, &["overflows_higher"], self.overflows_higher);
        field(o, &["overflow_stalls"], self.overflow_stalls);
        field(o, &["prefetches"], self.prefetches);
        field(o, &["l2_finish_wait_ns"], Mean(&self.l2_finish_wait_ns));
        field(o, &["l2_aes_queue_ns"], Mean(&self.l2_aes_queue_ns));
        field(o, &["l2_ctr_lines_peak"], self.l2_ctr_lines_peak);
        field(o, &["emcc_disabled_windows"], self.emcc_disabled_windows);
        field(o, &["llc_unverified_inserts"], self.llc_unverified_inserts);
        field(o, &["llc_unverified_hits"], self.llc_unverified_hits);
        field(o, &["inclusive_back_invals"], self.inclusive_back_invals);
        for (class, key) in [
            (RequestClass::Data, "dram_data"),
            (RequestClass::Counter, "dram_counter"),
            (RequestClass::TreeNode, "dram_treenode"),
            (RequestClass::OverflowL0, "dram_overflowl0"),
            (RequestClass::OverflowHigher, "dram_overflowhigher"),
        ] {
            field(o, &[key, "_count"], self.dram.count_for(class));
            field(
                o,
                &[key, "_bus_busy_ps"],
                self.dram.bus_busy_for(class).as_ps(),
            );
        }
        field(o, &["dram_row_hits"], self.dram.row_hits);
        field(o, &["dram_row_opens"], self.dram.row_opens);
        field(o, &["dram_row_conflicts"], self.dram.row_conflicts);
        field(o, &["faulty_reads"], self.faulty_reads);
        let fi = self.faults_injected;
        field(
            o,
            &["faults_injected"],
            format_args!("[{}, {}, {}, {}, {}]", fi[0], fi[1], fi[2], fi[3], fi[4]),
        );
        field(o, &["integrity_violations"], self.integrity_violations);
        field(o, &["integrity_retries"], self.integrity_retries);
        field(o, &["integrity_unrecovered"], self.integrity_unrecovered);
        field(o, &["verify_fallbacks"], self.verify_fallbacks);
        field(o, &["silent_corruptions"], self.silent_corruptions);
        let h = &self.detection_latency_ns;
        field(o, &["detection_latency_bins"], Bins(h));
        field(o, &["detection_latency_overflow"], h.overflow());
        field(o, &["detection_latency_mean"], h.mean());
        for comp in Component::ALL {
            let (h, label) = (self.crit_path.component(comp), comp.label());
            field(o, &["crit_", label, "_bins"], Bins(h));
            field(o, &["crit_", label, "_overflow"], h.overflow());
            field(o, &["crit_", label, "_mean"], h.mean());
            field(o, &["crit_", label, "_sum_ps"], self.crit_path.sum_ps(comp));
        }
        field(o, &["crit_total_ps"], self.crit_total_ps);
        field(o, &["overlap_credit_ns"], Mean(&self.overlap_credit_ns));
        field(o, &["crit_violations"], self.crit_violations);
        field(o, &["data_refetch_reads"], self.data_refetch_reads);
        field(o, &["xpt_wasted_reads"], self.xpt_wasted_reads);
        field(
            o,
            &["dram_reads_inflight_at_cutoff"],
            self.dram_reads_inflight_at_cutoff,
        );
        field(
            o,
            &["unissued_misses_at_cutoff"],
            self.unissued_misses_at_cutoff,
        );
        field(o, &["shadow_lines"], self.shadow_lines);
        field(o, &["shadow_mismatches"], self.shadow_mismatches);
        // Replace the trailing ",\n" with a clean close.
        out.truncate(out.len() - 2);
        out.push_str("\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_is_all_zero() {
        let r = SimReport::default();
        assert_eq!(r.ipc(), 0.0);
        assert_eq!(r.useless_ctr_frac(), 0.0);
    }

    #[test]
    fn ctr_fractions_partition() {
        let mut r = SimReport::default();
        for _ in 0..65 {
            r.record_ctr_source(CtrSource::Mc);
        }
        for _ in 0..15 {
            r.record_ctr_source(CtrSource::Llc);
        }
        for _ in 0..20 {
            r.record_ctr_source(CtrSource::Dram);
        }
        let total = r.ctr_mc_hit_frac() + r.ctr_llc_hit_frac() + r.ctr_llc_miss_frac();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((r.ctr_llc_miss_frac() - 0.20).abs() < 1e-12);
    }

    #[test]
    fn ipc_computation() {
        let r = SimReport {
            instructions: 3200,
            elapsed: Time::from_ns(1000),
            ..SimReport::default()
        };
        assert!((r.ipc() - 3.2).abs() < 1e-9);
    }

    #[test]
    fn canonical_json_is_stable_and_complete() {
        let mut r = SimReport {
            benchmark: "bfs \"x\"".into(),
            scheme: "emcc".into(),
            elapsed: Time::from_ns(12),
            mem_ops: 7,
            ..SimReport::default()
        };
        r.l2_miss_latency_ns.add(3.5);
        let a = r.canonical_json();
        let b = r.canonical_json();
        assert_eq!(a, b);
        assert!(a.contains("\"benchmark\": \"bfs \\\"x\\\"\""));
        assert!(a.contains("\"elapsed_ps\": 12000"));
        assert!(a.contains("\"mem_ops\": 7"));
        assert!(a.contains("\"sum\": 3.5"));
        assert!(a.contains("\"shadow_mismatches\": 0"));
        assert!(a.ends_with("}\n") && a.starts_with("{\n"));
        // Differing reports must differ textually.
        let mut r2 = r.clone();
        r2.mem_ops = 8;
        assert_ne!(a, r2.canonical_json());
    }

    #[test]
    fn derived_fracs() {
        let r = SimReport {
            l2_data_misses: 100,
            l2_ctr_useless: 3,
            l2_ctr_reqs_to_llc: 30,
            mc_ctr_reqs_to_llc: 5,
            decrypted_at_l2: 76,
            decrypted_at_mc: 24,
            l2_ctr_insertions: 100,
            l2_ctr_invalidations: 2,
            ..SimReport::default()
        };
        assert!((r.useless_ctr_frac() - 0.03).abs() < 1e-12);
        assert!((r.ctr_llc_access_frac() - 0.35).abs() < 1e-12);
        assert!((r.l2_decrypt_frac() - 0.76).abs() < 1e-12);
        assert!((r.ctr_invalidation_frac() - 0.02).abs() < 1e-12);
    }
}
