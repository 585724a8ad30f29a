//! Cross-crate integration tests: the full system driven end-to-end,
//! checking the paper's qualitative claims hold in the assembled model.

use emcc::dram::RequestClass;
use emcc::prelude::*;
use emcc::workloads::kernels::GraphKernel;

fn params() -> (u64, u64) {
    (2_000, 6_000) // (warmup, measure) per core
}

fn run(bench: Benchmark, cfg: SystemConfig) -> SimReport {
    let (w, m) = params();
    let sources = bench.build_scaled(11, cfg.cores, WorkloadScale::Test);
    SecureSystem::new(cfg).run_with_warmup(sources, w, m)
}

#[test]
fn security_costs_performance_and_emcc_recovers_some() {
    // The paper's Fig 16 ordering on an irregular workload:
    // non-secure ≥ EMCC ≥ Morphable baseline.
    let ns = run(
        Benchmark::Canneal,
        SystemConfig::table_i(SecurityScheme::NonSecure),
    );
    let base = run(
        Benchmark::Canneal,
        SystemConfig::table_i(SecurityScheme::CtrInLlc),
    );
    let emcc = run(
        Benchmark::Canneal,
        SystemConfig::table_i(SecurityScheme::Emcc),
    );
    assert!(ns.elapsed < emcc.elapsed, "non-secure must be fastest");
    assert!(
        emcc.elapsed < base.elapsed,
        "EMCC ({}) must beat the baseline ({}) on canneal",
        emcc.elapsed,
        base.elapsed
    );
}

#[test]
fn caching_counters_in_llc_reduces_dram_counter_traffic() {
    // Fig 2's claim: the LLC absorbs counter traffic.
    let meta = |r: &SimReport| {
        r.dram.count_for(RequestClass::Counter) + r.dram.count_for(RequestClass::TreeNode)
    };
    let without = run(
        Benchmark::Canneal,
        SystemConfig::table_i(SecurityScheme::McOnly),
    );
    let with = run(
        Benchmark::Canneal,
        SystemConfig::table_i(SecurityScheme::CtrInLlc),
    );
    assert!(
        meta(&with) < meta(&without),
        "LLC caching must reduce counter DRAM traffic: {} vs {}",
        meta(&with),
        meta(&without)
    );
}

#[test]
fn bigger_llc_improves_counter_hits() {
    // Fig 7 vs Fig 6: more LLC, fewer counter LLC-misses.
    let small = run(
        Benchmark::Canneal,
        SystemConfig::table_i(SecurityScheme::CtrInLlc),
    );
    let big = run(
        Benchmark::Canneal,
        SystemConfig::table_i(SecurityScheme::CtrInLlc).with_llc_total(48 * 1024 * 1024),
    );
    assert!(
        big.ctr_llc_miss_frac() <= small.ctr_llc_miss_frac() + 0.02,
        "bigger LLC should not increase counter misses ({:.3} vs {:.3})",
        big.ctr_llc_miss_frac(),
        small.ctr_llc_miss_frac()
    );
}

#[test]
fn emcc_useless_counter_accesses_are_rare() {
    // Fig 11: caching counters in L2 filters useless accesses (paper 3.2%).
    // At Test scale canneal is maximally random, so counter reuse is far
    // below paper scale; the bound here only guards against the filter
    // breaking entirely (paper-scale calibration lives in EXPERIMENTS.md).
    let r = run(
        Benchmark::Canneal,
        SystemConfig::table_i(SecurityScheme::Emcc),
    );
    assert!(
        r.useless_ctr_frac() < 0.60,
        "useless counter fraction too high: {:.3}",
        r.useless_ctr_frac()
    );
}

#[test]
fn emcc_counter_requests_close_to_baseline() {
    // Fig 12: EMCC's total counter accesses to LLC stay near the serial
    // baseline's (paper: within ~4.2%).
    let base = run(
        Benchmark::Canneal,
        SystemConfig::table_i(SecurityScheme::CtrInLlc),
    );
    let emcc = run(
        Benchmark::Canneal,
        SystemConfig::table_i(SecurityScheme::Emcc),
    );
    let b = base.ctr_llc_access_frac();
    let e = emcc.ctr_llc_access_frac();
    assert!(
        e < b + 0.25,
        "EMCC counter-access inflation too large: {e:.3} vs baseline {b:.3}"
    );
}

#[test]
fn slower_aes_grows_emcc_benefit() {
    // Fig 18's trend on one benchmark.
    let benefit = |aes_ns: u64| {
        let base = run(
            Benchmark::Canneal,
            SystemConfig::table_i(SecurityScheme::CtrInLlc).with_aes_latency(Time::from_ns(aes_ns)),
        );
        let emcc = run(
            Benchmark::Canneal,
            SystemConfig::table_i(SecurityScheme::Emcc).with_aes_latency(Time::from_ns(aes_ns)),
        );
        base.elapsed.as_ns_f64() / emcc.elapsed.as_ns_f64()
    };
    let b14 = benefit(14);
    let b25 = benefit(25);
    assert!(
        b25 > b14 - 0.02,
        "benefit should not shrink with slower AES: {b25:.3} vs {b14:.3}"
    );
}

#[test]
fn eight_channels_cut_queuing_delay() {
    // Fig 22's core claim.
    let one = run(Benchmark::Mcf, SystemConfig::table_i(SecurityScheme::Emcc));
    let eight = run(
        Benchmark::Mcf,
        SystemConfig::table_i(SecurityScheme::Emcc).with_channels(8),
    );
    let q = |r: &SimReport| r.dram.bucket(RequestClass::Data, false).queuing_ns.mean();
    assert!(
        q(&eight) <= q(&one),
        "8 channels must not increase read queuing ({:.1} vs {:.1})",
        q(&eight),
        q(&one)
    );
    // Note: end-to-end runtime can go either way at tiny scale (channel
    // striping trades row locality for parallelism); Fig 21's speedup
    // claim holds for the bandwidth-bound paper-scale runs.
}

#[test]
fn sc64_overflows_more_than_morphable() {
    // SC-64's 64-block coverage means more counter-block churn; Morphable
    // was designed to reduce overflow + miss costs.
    let mut sc = SystemConfig::table_i(SecurityScheme::CtrInLlc);
    sc.counter_design = emcc::counters::CounterDesign::Sc64;
    let sc64 = run(Benchmark::Mcf, sc);
    let morph = run(
        Benchmark::Mcf,
        SystemConfig::table_i(SecurityScheme::CtrInLlc),
    );
    // Compare DRAM counter traffic: SC-64's halved coverage needs more
    // counter blocks for the same footprint.
    assert!(
        sc64.dram.count_for(RequestClass::Counter) >= morph.dram.count_for(RequestClass::Counter),
        "SC-64 should fetch at least as many counter blocks"
    );
}

#[test]
fn regular_workloads_barely_touch_counters_in_l2() {
    // Fig 24's point: EMCC is harmless for cache-friendly programs.
    let r = run(
        Benchmark::Regular(0),
        SystemConfig::table_i(SecurityScheme::Emcc),
    );
    assert!(
        r.useless_ctr_frac() < 0.10,
        "blackscholes useless counter fraction: {:.3}",
        r.useless_ctr_frac()
    );
}

#[test]
fn graph_kernels_run_under_all_schemes() {
    for scheme in SecurityScheme::all() {
        let r = run(
            Benchmark::Graph(GraphKernel::TriangleCount),
            SystemConfig::table_i(scheme),
        );
        assert!(r.mem_ops > 0 && !r.elapsed.is_zero(), "{scheme} failed");
    }
}

#[test]
fn reports_are_internally_consistent() {
    let r = run(
        Benchmark::Omnetpp,
        SystemConfig::table_i(SecurityScheme::Emcc),
    );
    // Counter-source fractions partition DRAM reads.
    let total = r.ctr_mc_hit_frac() + r.ctr_llc_hit_frac() + r.ctr_llc_miss_frac();
    assert!((total - 1.0).abs() < 1e-9 || r.ctr_source.iter().sum::<u64>() == 0);
    // Every DRAM data read is decrypted exactly once somewhere; a handful
    // may still be in flight when the last core retires.
    let decrypted = r.decrypted_at_l2 + r.decrypted_at_mc;
    assert!(
        r.dram_data_reads.abs_diff(decrypted) <= 32,
        "decryption accounting must cover DRAM data reads: {} vs {}",
        decrypted,
        r.dram_data_reads
    );
    // L2 hits + misses = L2 accesses for data.
    assert!(r.l2_hits <= r.l2_accesses);
}

#[test]
fn timing_counters_match_functional_model_for_every_design() {
    // Differential check: after a mixed read/write trace, the timing
    // model's per-line data counters must equal the counters an
    // order-accurate functional secure memory derives from the same
    // write-back sequence — for all three counter designs. The shadow
    // checker mirrors every MC write-back into a FunctionalSecureMemory
    // and diffs tree state at finalize.
    use emcc::counters::CounterDesign;

    for design in CounterDesign::all() {
        let mut cfg = SystemConfig::table_i(SecurityScheme::Emcc).with_shadow_check(true);
        cfg.counter_design = design;
        // Shrink the hierarchy so dirty lines actually reach DRAM.
        cfg.l2_size = 128 * 1024;
        cfg.llc_slice_size = 32 * 1024;
        let r = run(Benchmark::Mcf, cfg);
        assert!(r.shadow_lines > 0, "{design:?}: no write-backs mirrored");
        assert_eq!(
            r.shadow_mismatches, 0,
            "{design:?}: timing counters diverged from the functional model"
        );
    }
}

#[test]
fn full_dram_queue_delays_tree_walk_reads_instead_of_skipping_them() {
    // One cold load on one core: its counter misses everywhere, so the
    // MC walks the integrity tree to the root. A one-entry DRAM queue
    // must delay that walk's reads, not drop them (and then cache the
    // ancestors it never read as verified).
    use emcc::sim::LineAddr;
    use emcc::workloads::{MemOp, Trace};

    let reads = |scheme: SecurityScheme, queue_capacity: usize| {
        let mut cfg = SystemConfig::table_i(scheme);
        cfg.cores = 1;
        cfg.l2_prefetch_degree = 0;
        cfg.dram.queue_capacity = queue_capacity;
        let load = Trace::new("cold load", vec![MemOp::load(LineAddr::new(0x604), 0)]);
        let r = SecureSystem::new(cfg).run(vec![Box::new(load.cursor(0))], 1);
        [
            RequestClass::Counter,
            RequestClass::TreeNode,
            RequestClass::Data,
        ]
        .map(|class| r.dram.bucket(class, false).count)
    };
    for scheme in [
        SecurityScheme::McOnly,
        SecurityScheme::CtrInLlc,
        SecurityScheme::Emcc,
    ] {
        let table_i = reads(scheme, 256);
        assert_eq!(
            table_i,
            [1, 3, 1],
            "{scheme}: counter, tree-node, data reads"
        );
        assert_eq!(reads(scheme, 1), table_i, "{scheme}: one-entry queue");
    }
}
