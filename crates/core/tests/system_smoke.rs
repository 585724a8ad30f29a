//! End-to-end smoke and behavior tests for the full-system simulator.

use emcc_secmem::SecurityScheme;
use emcc_system::{SecureSystem, SystemConfig};
use emcc_workloads::kernels::GraphKernel;
use emcc_workloads::presets::WorkloadScale;
use emcc_workloads::Benchmark;

fn run(scheme: SecurityScheme, bench: Benchmark, ops: u64) -> emcc_system::SimReport {
    let cfg = SystemConfig::table_i(scheme);
    let sources = bench.build_scaled(7, cfg.cores, WorkloadScale::Test);
    SecureSystem::new(cfg).run(sources, ops)
}

#[test]
fn nonsecure_run_terminates_with_work_done() {
    let r = run(SecurityScheme::NonSecure, Benchmark::Canneal, 3_000);
    assert_eq!(r.mem_ops, 4 * 3_000);
    assert!(r.instructions > r.mem_ops);
    assert!(!r.elapsed.is_zero());
    assert!(r.ipc() > 0.0);
    assert!(r.dram_data_reads > 0, "canneal must reach DRAM");
}

#[test]
fn all_schemes_terminate_on_graph_workload() {
    let bench = Benchmark::Graph(GraphKernel::Bfs);
    for scheme in SecurityScheme::all() {
        let r = run(scheme, bench, 2_000);
        assert_eq!(r.mem_ops, 4 * 2_000, "{scheme} did not finish");
        assert!(!r.elapsed.is_zero());
    }
}

#[test]
fn secure_schemes_are_slower_than_nonsecure() {
    let bench = Benchmark::Canneal;
    let ns = run(SecurityScheme::NonSecure, bench, 4_000);
    let base = run(SecurityScheme::CtrInLlc, bench, 4_000);
    assert!(
        base.elapsed > ns.elapsed,
        "secure ({}) must be slower than non-secure ({})",
        base.elapsed,
        ns.elapsed
    );
}

#[test]
fn secure_runs_generate_counter_traffic() {
    let r = run(SecurityScheme::CtrInLlc, Benchmark::Canneal, 4_000);
    let ctr = r.dram.count_for(emcc_dram::RequestClass::Counter);
    assert!(ctr > 0, "counter DRAM traffic expected");
    let total: u64 = r.ctr_source.iter().sum();
    assert!(total > 0, "counter sourcing must be recorded");
}

#[test]
fn nonsecure_has_no_counter_traffic() {
    let r = run(SecurityScheme::NonSecure, Benchmark::Canneal, 4_000);
    assert_eq!(r.dram.count_for(emcc_dram::RequestClass::Counter), 0);
    assert_eq!(r.dram.count_for(emcc_dram::RequestClass::TreeNode), 0);
}

#[test]
fn emcc_decrypts_mostly_at_l2() {
    let r = run(SecurityScheme::Emcc, Benchmark::Canneal, 4_000);
    assert!(
        r.decrypted_at_l2 > 0,
        "EMCC must decrypt something at L2 (got {} at MC)",
        r.decrypted_at_mc
    );
    assert!(r.l2_ctr_insertions > 0, "counters must be cached in L2");
}

#[test]
fn emcc_outperforms_baseline_on_irregular_workload() {
    let bench = Benchmark::Canneal;
    let base = run(SecurityScheme::CtrInLlc, bench, 6_000);
    let emcc = run(SecurityScheme::Emcc, bench, 6_000);
    // The headline result, directionally: EMCC should not be slower.
    assert!(
        emcc.elapsed <= base.elapsed + base.elapsed / 20,
        "EMCC ({}) much slower than baseline ({})",
        emcc.elapsed,
        base.elapsed
    );
}

#[test]
fn mconly_fetches_counters_without_llc_requests() {
    let r = run(SecurityScheme::McOnly, Benchmark::Canneal, 3_000);
    assert_eq!(r.mc_ctr_reqs_to_llc, 0);
    assert_eq!(r.l2_ctr_reqs_to_llc, 0);
    assert!(r.dram.count_for(emcc_dram::RequestClass::Counter) > 0);
}

#[test]
fn baseline_counter_requests_go_through_llc() {
    let r = run(SecurityScheme::CtrInLlc, Benchmark::Canneal, 3_000);
    assert!(r.mc_ctr_reqs_to_llc > 0);
    assert_eq!(r.l2_ctr_reqs_to_llc, 0, "only EMCC issues L2 ctr reqs");
}

#[test]
fn emcc_l2_counter_budget_respected() {
    let r = run(SecurityScheme::Emcc, Benchmark::Canneal, 6_000);
    // Inserted many, but the budget bounds residency — checked indirectly:
    // inserted counters are eventually evicted/invalidated, so useless +
    // useful + invalidations accounts for insertions minus residents.
    assert!(r.l2_ctr_insertions >= r.l2_ctr_useless + r.l2_ctr_useful);
}

#[test]
fn direct_ciphers_have_no_counter_traffic() {
    // Counter-free placements must behave like non-secure on the metadata
    // side: zero counter/tree DRAM traffic, zero counter sourcing, zero
    // LLC counter probes — while still decrypting every DRAM read.
    for scheme in [
        SecurityScheme::BipBip,
        SecurityScheme::NearMem,
        SecurityScheme::InSram,
    ] {
        let r = run(scheme, Benchmark::Canneal, 4_000);
        assert_eq!(
            r.dram.count_for(emcc_dram::RequestClass::Counter),
            0,
            "{scheme}"
        );
        assert_eq!(
            r.dram.count_for(emcc_dram::RequestClass::TreeNode),
            0,
            "{scheme}"
        );
        assert_eq!(r.ctr_source.iter().sum::<u64>(), 0, "{scheme}");
        assert_eq!(r.mc_ctr_reqs_to_llc, 0, "{scheme}");
        assert_eq!(r.l2_ctr_insertions, 0, "{scheme}");
        assert!(r.decrypted_at_mc > 0, "{scheme} decrypted nothing");
        assert_eq!(r.decrypted_at_l2, 0, "{scheme}");
    }
}

#[test]
fn direct_cipher_cost_orders_with_latency() {
    // In-SRAM AES (14 ns serial both ways) must cost more than the 1 ns
    // BipBip pipeline cipher, and both must cost no less than non-secure
    // beyond scheduling noise.
    let bench = Benchmark::Canneal;
    let bipbip = run(SecurityScheme::BipBip, bench, 6_000);
    let insram = run(SecurityScheme::InSram, bench, 6_000);
    assert!(
        insram.elapsed > bipbip.elapsed,
        "in-SRAM ({}) should be slower than BipBip ({})",
        insram.elapsed,
        bipbip.elapsed
    );
    let ns = run(SecurityScheme::NonSecure, bench, 6_000);
    assert!(
        insram.elapsed > ns.elapsed,
        "in-SRAM ({}) should be slower than non-secure ({})",
        insram.elapsed,
        ns.elapsed
    );
}

#[test]
fn bipbip_consumes_faults_silently() {
    // Encryption-only: corrupted ciphertext decrypts to garbage with no
    // MAC to fail, exactly like the non-secure baseline's fault contract.
    let fault = emcc_dram::FaultConfig::uniform(0xFA17, emcc_dram::FaultClass::BitFlip, 50_000);
    let cfg = SystemConfig::table_i(SecurityScheme::BipBip).with_fault(fault);
    let sources = Benchmark::Canneal.build_scaled(7, cfg.cores, WorkloadScale::Test);
    let r = SecureSystem::new(cfg).run(sources, 4_000);
    assert!(r.faulty_reads > 0, "faults must be consumed");
    assert_eq!(r.integrity_violations, 0);
    assert_eq!(r.silent_corruptions, r.faulty_reads);
}

#[test]
fn detecting_direct_ciphers_flag_every_fault() {
    for scheme in [SecurityScheme::NearMem, SecurityScheme::InSram] {
        let fault = emcc_dram::FaultConfig::uniform(0xFA17, emcc_dram::FaultClass::BitFlip, 50_000);
        let cfg = SystemConfig::table_i(scheme).with_fault(fault);
        let sources = Benchmark::Canneal.build_scaled(7, cfg.cores, WorkloadScale::Test);
        let r = SecureSystem::new(cfg).run(sources, 4_000);
        assert!(r.faulty_reads > 0, "{scheme}: faults must be consumed");
        assert_eq!(r.silent_corruptions, 0, "{scheme}");
        assert_eq!(r.integrity_violations, r.faulty_reads, "{scheme}");
        assert!(r.integrity_retries > 0, "{scheme}: recovery must retry");
    }
}

#[test]
fn writes_eventually_reach_dram() {
    // Shrink the hierarchy so the Test-scale footprint evicts dirty lines
    // all the way to DRAM within a short run.
    let mut cfg = SystemConfig::table_i(SecurityScheme::CtrInLlc);
    cfg.l2_size = 128 * 1024;
    cfg.llc_slice_size = 32 * 1024;
    let sources = Benchmark::Mcf.build_scaled(7, cfg.cores, WorkloadScale::Test);
    let r = SecureSystem::new(cfg).run(sources, 6_000);
    assert!(r.writebacks > 0, "mcf writes must cause writebacks");
    let wr = r.dram.bucket(emcc_dram::RequestClass::Data, true).count;
    assert!(wr > 0, "DRAM data writes expected");
}

#[test]
fn attribution_conserves_latency_across_schemes() {
    use emcc_sim::trace::Component;
    for scheme in SecurityScheme::all() {
        let r = run(scheme, Benchmark::Canneal, 3_000);
        assert!(r.crit_path.accesses() > 0, "{scheme}: nothing attributed");
        assert_eq!(r.crit_violations, 0, "{scheme}: span outside its window");
        // Tiling law, exact in picoseconds: every attributed instant is
        // charged to exactly one component.
        assert_eq!(
            r.crit_path.total_sum_ps(),
            r.crit_total_ps,
            "{scheme}: attributed segments do not tile end-to-end latency"
        );
        // DRAM-served reads must charge some time to the memory system.
        if r.dram_data_reads > 0 {
            assert!(
                r.crit_path.sum_ps(Component::DramRowHit)
                    + r.crit_path.sum_ps(Component::DramRowMiss)
                    > 0,
                "{scheme}: no DRAM time on the critical path"
            );
        }
    }
}

#[test]
fn emcc_earns_overlap_credit() {
    // EMCC's point: counter fetch + AES run under the data fetch. The
    // recorder must see that hidden work as overlap credit.
    let r = run(SecurityScheme::Emcc, Benchmark::Canneal, 4_000);
    assert!(r.overlap_credit_ns.count() > 0);
    assert!(
        r.overlap_credit_ns.sum() > 0.0,
        "EMCC runs must hide work under the data fetch"
    );
}

#[test]
fn exact_cutoff_accounting_holds_without_warmup() {
    for scheme in SecurityScheme::all() {
        let r = run(scheme, Benchmark::Canneal, 3_000);
        assert_eq!(
            r.llc_data_misses + r.data_refetch_reads + r.xpt_wasted_reads,
            r.dram_data_reads + r.dram_reads_inflight_at_cutoff + r.unissued_misses_at_cutoff,
            "{scheme}: LLC-miss/DRAM-read ledger out of balance"
        );
    }
}

#[test]
fn two_entry_dram_queues_keep_every_ledger_exact() {
    // Two-entry DRAM queues make requests wait for an entry all the time;
    // the shrunk hierarchy of `writes_eventually_reach_dram` adds
    // write-backs. Waiting must delay requests, never lose them.
    use emcc_dram::{FaultClass, FaultConfig};
    let run = |scheme: SecurityScheme, fault: Option<FaultConfig>| {
        let mut cfg = SystemConfig::table_i(scheme);
        cfg.l2_size = 128 * 1024;
        cfg.llc_slice_size = 32 * 1024;
        cfg.dram.queue_capacity = 2;
        cfg.fault = fault;
        let sources = Benchmark::Mcf.build_scaled(7, cfg.cores, WorkloadScale::Test);
        SecureSystem::new(cfg).run(sources, 6_000)
    };
    for scheme in SecurityScheme::all() {
        let r = run(scheme, None);
        assert_eq!(
            r.llc_data_misses + r.data_refetch_reads + r.xpt_wasted_reads,
            r.dram_data_reads + r.dram_reads_inflight_at_cutoff + r.unissued_misses_at_cutoff,
            "{scheme}: LLC-miss/DRAM-read ledger out of balance"
        );
        assert_eq!(r.crit_violations, 0, "{scheme}: span outside its window");
        assert_eq!(r.crit_path.total_sum_ps(), r.crit_total_ps, "{scheme}");
        assert!(r.writebacks > 0, "{scheme}: no write-backs");
        let bumped = if scheme.placement().uses_counters() {
            r.writebacks
        } else {
            0
        };
        assert_eq!(
            r.ctr_increments + r.writebacks_pending_at_cutoff,
            bumped,
            "{scheme}: write-back ledger out of balance"
        );

        let flips = FaultConfig::uniform(0xFA17, FaultClass::BitFlip, 50_000);
        let r = run(scheme, Some(flips));
        assert!(r.faulty_reads > 0, "{scheme}: no faults consumed");
        if scheme.placement().detects_tamper {
            assert_eq!(r.integrity_violations, r.faulty_reads, "{scheme}");
            assert_eq!(r.silent_corruptions, 0, "{scheme}");
        } else {
            assert_eq!(r.silent_corruptions, r.faulty_reads, "{scheme}");
            assert_eq!(r.integrity_violations, 0, "{scheme}");
        }
    }
}

#[test]
fn traced_run_matches_untraced_and_exports_chrome_json() {
    let cfg = SystemConfig::table_i(SecurityScheme::Emcc);
    let sources = Benchmark::Canneal.build_scaled(7, cfg.cores, WorkloadScale::Test);
    let plain = SecureSystem::new(cfg).run(sources, 2_000);

    let cfg = SystemConfig::table_i(SecurityScheme::Emcc);
    let sources = Benchmark::Canneal.build_scaled(7, cfg.cores, WorkloadScale::Test);
    let (traced, rec) = SecureSystem::new(cfg).run_traced(sources, 0, 2_000, 256);

    // Recording only observes: reports must be byte-identical.
    assert_eq!(plain.canonical_json(), traced.canonical_json());
    assert!(!rec.is_empty());
    let json = rec.chrome_json();
    assert!(json.contains("\"ph\":\"X\""));
    assert!(json.contains("\"name\":\"thread_name\""));
}

#[test]
fn deterministic_across_runs() {
    let a = run(SecurityScheme::Emcc, Benchmark::Omnetpp, 2_000);
    let b = run(SecurityScheme::Emcc, Benchmark::Omnetpp, 2_000);
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(a.dram_data_reads, b.dram_data_reads);
    assert_eq!(a.l2_ctr_insertions, b.l2_ctr_insertions);
}

#[test]
fn reaching_max_sim_time_marks_the_report_truncated() {
    let r = run(SecurityScheme::Emcc, Benchmark::Canneal, 2_000);
    assert!(!r.truncated, "a run that finishes is not truncated");

    let mut cfg = SystemConfig::table_i(SecurityScheme::Emcc);
    cfg.max_sim_time = emcc_sim::Time::from_ns(500);
    let sources = Benchmark::Canneal.build_scaled(7, cfg.cores, WorkloadScale::Test);
    let cut = SecureSystem::new(cfg).run(sources, 2_000);
    assert!(cut.truncated, "a run cut at max_sim_time must say so");
    assert!(cut.mem_ops < 4 * 2_000, "the cut run finished its work");
    // Truncation is host-side bookkeeping: the canonical report does
    // not render it.
    assert!(!cut.canonical_json().contains("truncated"));
}
