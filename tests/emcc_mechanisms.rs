//! Targeted tests of EMCC's individual mechanisms (§IV), each exercised
//! through the full system with a configuration that isolates it.

use emcc::prelude::*;
use emcc::workloads::kernels::GraphKernel;

fn run_cfg(bench: Benchmark, cfg: SystemConfig) -> SimReport {
    let sources = bench.build_scaled(21, cfg.cores, WorkloadScale::Test);
    SecureSystem::new(cfg).run_with_warmup(sources, 2_000, 6_000)
}

#[test]
fn l2_counter_budget_is_enforced() {
    // §V: "EMCC only caches 32KB worth of counters in L2".
    let mut cfg = SystemConfig::table_i(SecurityScheme::Emcc);
    cfg.emcc.l2_counter_budget_lines = 64; // 4 KB, to force churn
    let r = run_cfg(Benchmark::Canneal, cfg);
    assert!(
        r.l2_ctr_lines_peak <= 64,
        "budget violated: peak {} lines",
        r.l2_ctr_lines_peak
    );
    assert!(
        r.l2_ctr_insertions > 64,
        "churn expected with a tiny budget"
    );
}

#[test]
fn default_budget_is_32kb() {
    let r = run_cfg(
        Benchmark::Canneal,
        SystemConfig::table_i(SecurityScheme::Emcc),
    );
    assert!(r.l2_ctr_lines_peak <= 512);
}

#[test]
fn zero_l2_aes_means_full_offload() {
    // Moving 0% of AES units to L2 degenerates EMCC to MC-side crypto.
    let mut cfg = SystemConfig::table_i(SecurityScheme::Emcc);
    cfg.emcc.aes_to_l2_pct = 0;
    let r = run_cfg(Benchmark::Canneal, cfg);
    assert_eq!(r.decrypted_at_l2, 0, "no L2 AES bandwidth, no L2 decrypts");
    assert!(r.decrypted_at_mc > 0);
}

#[test]
fn more_l2_aes_fraction_decrypts_more_at_l2() {
    // Fig 19's monotonic trend.
    let frac_at = |pct: u32| {
        let mut cfg = SystemConfig::table_i(SecurityScheme::Emcc);
        cfg.emcc.aes_to_l2_pct = pct;
        run_cfg(Benchmark::Mcf, cfg).l2_decrypt_frac()
    };
    let lo = frac_at(20);
    let hi = frac_at(80);
    assert!(
        hi >= lo - 0.02,
        "more AES at L2 must not decrease L2 decrypt share ({lo:.2} -> {hi:.2})"
    );
}

#[test]
fn xpt_off_still_correct_and_slower_or_equal() {
    let bench = Benchmark::Graph(GraphKernel::Bfs);
    let mut off = SystemConfig::table_i(SecurityScheme::Emcc);
    off.xpt_enabled = false;
    let with_xpt = run_cfg(bench, SystemConfig::table_i(SecurityScheme::Emcc));
    let without = run_cfg(bench, off);
    assert_eq!(with_xpt.mem_ops, without.mem_ops);
    assert_eq!(without.xpt_forwards, 0);
    assert!(with_xpt.xpt_forwards > 0);
    // XPT accelerates LLC-miss-heavy workloads (small tolerance for noise).
    assert!(
        with_xpt.elapsed.as_ns_f64() <= without.elapsed.as_ns_f64() * 1.03,
        "XPT should help or be neutral: {} vs {}",
        with_xpt.elapsed,
        without.elapsed
    );
}

#[test]
fn prefetcher_off_changes_nothing_for_random_workloads() {
    // canneal has no strides; the prefetcher should stay quiet.
    let r = run_cfg(
        Benchmark::Canneal,
        SystemConfig::table_i(SecurityScheme::Emcc),
    );
    assert_eq!(
        r.prefetches, 0,
        "stride prefetcher must not fire on random access"
    );
}

#[test]
fn prefetcher_fires_on_streaming_workloads() {
    let r = run_cfg(
        Benchmark::Regular(8), // bwaves_s: heavy streaming
        SystemConfig::table_i(SecurityScheme::NonSecure),
    );
    assert!(
        r.prefetches > 0,
        "streams must trigger the stride prefetcher"
    );
}

#[test]
fn counter_design_changes_tree_shape_not_correctness() {
    for design in emcc::counters::CounterDesign::all() {
        let mut cfg = SystemConfig::table_i(SecurityScheme::CtrInLlc);
        cfg.counter_design = design;
        let r = run_cfg(Benchmark::Omnetpp, cfg);
        assert_eq!(r.mem_ops, 4 * 6_000, "{design} did not complete");
    }
}

#[test]
fn monolithic_counters_never_overflow() {
    let mut cfg = SystemConfig::table_i(SecurityScheme::CtrInLlc);
    cfg.counter_design = emcc::counters::CounterDesign::Monolithic;
    let r = run_cfg(Benchmark::Mcf, cfg);
    assert_eq!(r.overflows_l0, 0);
    assert_eq!(r.overflows_higher, 0);
}

#[test]
fn secure_access_latency_orders_by_scheme() {
    // MC-hit AES overlap means McOnly/CtrInLlc secure latency must exceed
    // the raw DRAM latency but stay bounded.
    let r = run_cfg(
        Benchmark::Omnetpp,
        SystemConfig::table_i(SecurityScheme::CtrInLlc),
    );
    let lat = r.secure_access_latency_ns.mean();
    assert!(lat > 16.0, "secure latency below DRAM row hit: {lat:.1}");
    assert!(lat < 500.0, "secure latency absurd: {lat:.1}");
}

#[test]
fn warmup_reduces_measured_counter_misses() {
    let bench = Benchmark::Omnetpp;
    let cfg = || SystemConfig::table_i(SecurityScheme::CtrInLlc);
    let sources = |seed| bench.build_scaled(seed, 4, WorkloadScale::Test);
    let cold = SecureSystem::new(cfg()).run_with_warmup(sources(3), 0, 6_000);
    let warm = SecureSystem::new(cfg()).run_with_warmup(sources(3), 6_000, 6_000);
    assert!(
        warm.ctr_llc_miss_frac() <= cold.ctr_llc_miss_frac() + 0.02,
        "warmup should not worsen counter misses: {:.3} vs {:.3}",
        warm.ctr_llc_miss_frac(),
        cold.ctr_llc_miss_frac()
    );
}

#[test]
fn dynamic_disable_turns_emcc_off_for_cache_friendly_phases() {
    // §IV-F: an L2-resident workload (blackscholes-like, high hot
    // fraction) should trip the intensity sampler and disable EMCC.
    let mut cfg = SystemConfig::table_i(SecurityScheme::Emcc);
    cfg.emcc.dynamic_disable = true;
    // A fully L2-resident loop: 4096 hot lines reused forever.
    let hot_ops: Vec<emcc::workloads::MemOp> = (0..4096u64)
        .map(|i| emcc::workloads::MemOp::load(emcc::sim::LineAddr::new(i), 5))
        .collect();
    let sources: Vec<Box<dyn emcc::workloads::TraceSource>> = (0..4)
        .map(|c| {
            Box::new(emcc::workloads::Trace::new("hotloop", hot_ops.clone()).cursor(c * 64))
                as Box<dyn emcc::workloads::TraceSource>
        })
        .collect();
    let friendly = SecureSystem::new(cfg.clone()).run_with_warmup(sources, 8_000, 12_000);
    assert!(
        friendly.emcc_disabled_windows > 0,
        "cache-resident loop should disable EMCC in some windows"
    );

    // A memory-bound workload must keep EMCC on.
    let bound = run_cfg(Benchmark::Canneal, cfg);
    assert_eq!(
        bound.emcc_disabled_windows, 0,
        "canneal is memory-bound; EMCC must stay enabled"
    );
    assert!(bound.decrypted_at_l2 > 0);
}

#[test]
fn dynamic_disable_off_by_default() {
    let r = run_cfg(
        Benchmark::Regular(9),
        SystemConfig::table_i(SecurityScheme::Emcc),
    );
    assert_eq!(r.emcc_disabled_windows, 0);
}

#[test]
fn inclusive_mode_terminates_and_tracks_unverified_lines() {
    // §IV-F inclusive extension: fills mirror into LLC marked unverified;
    // L2 write-backs clear the bit; evictions back-invalidate.
    let mut cfg = SystemConfig::table_i(SecurityScheme::Emcc);
    cfg.inclusive_llc = true;
    let r = run_cfg(Benchmark::Canneal, cfg);
    assert_eq!(r.mem_ops, 4 * 6_000, "inclusive mode must complete");
    assert!(
        r.llc_unverified_inserts > 0,
        "EMCC ciphertext fills must be mirrored as unverified"
    );
}

#[test]
fn inclusive_mode_back_invalidates_under_pressure() {
    let mut cfg = SystemConfig::table_i(SecurityScheme::NonSecure);
    cfg.inclusive_llc = true;
    // Tiny LLC so inclusion victims collide with live L2 lines.
    cfg.llc_slice_size = 16 * 1024;
    let r = run_cfg(Benchmark::Omnetpp, cfg);
    assert!(
        r.inclusive_back_invals > 0,
        "a small inclusive LLC must back-invalidate L2 copies"
    );
}

#[test]
fn non_inclusive_mode_never_back_invalidates() {
    let r = run_cfg(
        Benchmark::Omnetpp,
        SystemConfig::table_i(SecurityScheme::Emcc),
    );
    assert_eq!(r.inclusive_back_invals, 0);
    assert_eq!(r.llc_unverified_inserts, 0);
}

#[test]
fn inclusive_vs_noninclusive_same_work_different_hierarchy() {
    let bench = Benchmark::Graph(GraphKernel::PageRank);
    let mut inc = SystemConfig::table_i(SecurityScheme::Emcc);
    inc.inclusive_llc = true;
    let a = run_cfg(bench, inc);
    let b = run_cfg(bench, SystemConfig::table_i(SecurityScheme::Emcc));
    assert_eq!(a.mem_ops, b.mem_ops);
    // Both complete; inclusive duplicates capacity, so it should not be
    // wildly faster.
    assert!(a.elapsed.as_ns_f64() >= b.elapsed.as_ns_f64() * 0.8);
}
