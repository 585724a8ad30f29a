//! End-to-end fault-injection tests: every corrupted DRAM read that the
//! pipeline consumes must be detected by exactly one verifier (MC-side or
//! EMCC L2-side), recovery must be bounded, and the differential shadow
//! checker must agree with the timing model in fault-free runs.

use emcc_counters::TreeGeometry;
use emcc_dram::{FaultClass, FaultConfig};
use emcc_secmem::SecurityScheme;
use emcc_system::{SecureSystem, SimReport, SystemConfig};
use emcc_workloads::presets::WorkloadScale;
use emcc_workloads::Benchmark;

fn run_with(cfg: SystemConfig, bench: Benchmark, ops: u64) -> emcc_system::SimReport {
    let sources = bench.build_scaled(7, cfg.cores, WorkloadScale::Test);
    SecureSystem::new(cfg).run(sources, ops)
}

fn faulty_cfg(scheme: SecurityScheme, class: FaultClass, rate_ppm: u32) -> SystemConfig {
    SystemConfig::table_i(scheme).with_fault(FaultConfig::uniform(0xFA17, class, rate_ppm))
}

/// How many events of `kind` the run dispatched.
fn dispatched(r: &SimReport, kind: &str) -> u64 {
    r.dispatches
        .entries()
        .find(|&(k, _)| k == kind)
        .expect("a known event kind")
        .1
}

#[test]
fn mc_side_verification_detects_every_consumed_fault() {
    for class in [
        FaultClass::BitFlip,
        FaultClass::MacCorrupt,
        FaultClass::Replay,
    ] {
        let cfg = faulty_cfg(SecurityScheme::CtrInLlc, class, 50_000);
        let r = run_with(cfg, Benchmark::Canneal, 4_000);
        assert!(r.faulty_reads > 0, "{class}: no faults consumed");
        assert_eq!(
            r.integrity_violations, r.faulty_reads,
            "{class}: consumed faults must all be detected"
        );
        assert!((r.detection_rate() - 1.0).abs() < f64::EPSILON);
        assert_eq!(r.silent_corruptions, 0, "{class}: secure scheme leaked");
        assert!(r.detection_latency_ns.total() >= r.integrity_violations);
    }
}

#[test]
fn l2_side_verification_detects_every_consumed_fault() {
    let cfg = faulty_cfg(SecurityScheme::Emcc, FaultClass::BitFlip, 50_000);
    let r = run_with(cfg, Benchmark::Canneal, 4_000);
    assert!(r.faulty_reads > 0, "no faults consumed");
    assert_eq!(r.integrity_violations, r.faulty_reads);
    assert_eq!(r.silent_corruptions, 0);
}

#[test]
fn nonsecure_consumes_corruption_silently() {
    let cfg = faulty_cfg(SecurityScheme::NonSecure, FaultClass::BitFlip, 50_000);
    let r = run_with(cfg, Benchmark::Canneal, 4_000);
    assert!(r.silent_corruptions > 0, "faults must reach the consumer");
    assert_eq!(r.integrity_violations, 0, "nothing verifies in non-secure");
    assert_eq!(r.silent_corruptions, r.faulty_reads);
}

#[test]
fn metadata_faults_detected_at_tree_verification() {
    // One bit flip in the counter block of the first line canneal loads:
    // the MC's per-level MAC check during the tree walk must catch it, and
    // recovery re-walks the tree rather than re-fetching data.
    let cfg = SystemConfig::table_i(SecurityScheme::CtrInLlc);
    let mut sources = Benchmark::Canneal.build_scaled(7, cfg.cores, WorkloadScale::Test);
    let first_load = std::iter::repeat_with(|| sources[0].next_op())
        .find(|op| !op.is_write)
        .expect("canneal loads")
        .line;
    let g = TreeGeometry::new(cfg.counter_design, cfg.data_lines);
    let block = g.node_addr(0, g.counter_block_of(first_load));
    let cfg = cfg.with_fault(FaultConfig::planted_at(
        0xFA17,
        block,
        FaultClass::BitFlip,
        0,
    ));
    let r = run_with(cfg, Benchmark::Canneal, 4_000);
    assert!(r.faulty_reads > 0, "metadata faults must be consumed");
    assert_eq!(r.integrity_violations, r.faulty_reads);
    assert!(r.integrity_retries > 0, "tree re-walks expected");
    assert!(
        dispatched(&r, "CtrRefetch") > 0,
        "detected by the tree walk"
    );
    assert_eq!(dispatched(&r, "DataRefetch"), 0, "no data line was hit");
}

#[test]
fn detections_trigger_bounded_retries() {
    let cfg = faulty_cfg(SecurityScheme::CtrInLlc, FaultClass::TransientRead, 50_000);
    let r = run_with(cfg, Benchmark::Canneal, 4_000);
    assert!(r.integrity_violations > 0);
    assert!(
        r.integrity_retries > 0,
        "transient faults should be retried"
    );
    // A transient fault clears on re-read, so nearly all retries succeed;
    // the retry budget (3) makes lingering failures vanishingly rare.
    assert_eq!(r.integrity_unrecovered, 0, "transients must recover");
}

#[test]
fn repeated_l2_failures_fall_back_to_mc_verification() {
    // Enough flips that some L2 fails four local verifies in a row.
    let cfg = faulty_cfg(SecurityScheme::Emcc, FaultClass::BitFlip, 150_000);
    let r = run_with(cfg, Benchmark::Canneal, 4_000);
    assert!(r.integrity_violations > 0);
    assert!(
        r.verify_fallbacks > 0,
        "an L2 that fails local verification must degrade to MC-side"
    );
}

#[test]
fn shadow_checker_agrees_with_timing_model_counters() {
    for scheme in [
        SecurityScheme::McOnly,
        SecurityScheme::CtrInLlc,
        SecurityScheme::Emcc,
    ] {
        let mut cfg = SystemConfig::table_i(scheme).with_shadow_check(true);
        // Shrink the hierarchy so dirty lines reach DRAM within the run.
        cfg.l2_size = 128 * 1024;
        cfg.llc_slice_size = 32 * 1024;
        let r = run_with(cfg, Benchmark::Mcf, 6_000);
        assert!(r.shadow_lines > 0, "{scheme}: no write-backs mirrored");
        assert_eq!(r.shadow_mismatches, 0, "{scheme}: counter state diverged");
    }
}

#[test]
fn fault_free_runs_are_unchanged_by_recovery_plumbing() {
    // The fault hook must be a strict no-op when disabled: identical
    // timing with and without the shadow checker, and zero fault stats.
    let base = run_with(
        SystemConfig::table_i(SecurityScheme::Emcc),
        Benchmark::Omnetpp,
        2_000,
    );
    let shadowed = run_with(
        SystemConfig::table_i(SecurityScheme::Emcc).with_shadow_check(true),
        Benchmark::Omnetpp,
        2_000,
    );
    assert_eq!(base.elapsed, shadowed.elapsed);
    assert_eq!(base.dram_data_reads, shadowed.dram_data_reads);
    assert_eq!(base.faulty_reads, 0);
    assert_eq!(base.integrity_violations, 0);
    assert_eq!(base.faults_injected, [0; 5]);
}

#[test]
fn fault_runs_are_deterministic() {
    let a = run_with(
        faulty_cfg(SecurityScheme::Emcc, FaultClass::BitFlip, 30_000),
        Benchmark::Omnetpp,
        2_000,
    );
    let b = run_with(
        faulty_cfg(SecurityScheme::Emcc, FaultClass::BitFlip, 30_000),
        Benchmark::Omnetpp,
        2_000,
    );
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(a.integrity_violations, b.integrity_violations);
    assert_eq!(a.integrity_retries, b.integrity_retries);
    assert_eq!(a.faults_injected, b.faults_injected);
}
