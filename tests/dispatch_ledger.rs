//! The exact host-work ledger of two fixed runs.
//!
//! Dispatch counts depend only on a run's inputs, never on the host, so
//! they are pinned exactly: Test-scale DFS and canneal under EMCC,
//! workload seed 1, 1,000 operations per core. A change that moves any
//! count must re-bless the numbers here and state why in its change log.

use emcc::prelude::*;
use emcc::workloads::kernels::GraphKernel;

/// One `name count` line per ledger entry, total first.
fn ledger(bench: Benchmark) -> String {
    let cfg = SystemConfig::table_i(SecurityScheme::Emcc);
    let sources = bench.build_scaled(1, cfg.cores, WorkloadScale::Test);
    let d = SecureSystem::new(cfg).run(sources, 1_000).dispatches;
    std::iter::once(("total", d.total()))
        .chain(d.entries())
        .map(|(name, n)| format!("{name} {n}\n"))
        .collect()
}

#[test]
fn dfs_dispatch_ledger_is_pinned() {
    assert_eq!(
        ledger(Benchmark::Graph(GraphKernel::Dfs)),
        "\
total 20007
CoreAdvance 2992
LoadComplete 3530
L2Access 3369
L2CtrLookup 1102
SliceDataReq 1166
SliceVictim 0
SliceCtrReq 45
McDataReq 2332
McCtrReq 45
McWriteback 0
McWriteIssue 0
McCtrReady 39
L2Fill 1166
L2CtrFill 39
L2AesStart 1063
L2TxnFinish 1063
DramPump 839
DramDone 1217
DataRefetch 0
CtrRefetch 0
idle_core_advances 961
idle_dram_pumps 317
"
    );
}

#[test]
fn canneal_dispatch_ledger_is_pinned() {
    assert_eq!(
        ledger(Benchmark::Canneal),
        "\
total 47255
CoreAdvance 781
LoadComplete 3230
L2Access 3613
L2CtrLookup 3228
SliceDataReq 3228
SliceVictim 0
SliceCtrReq 2971
McDataReq 6456
McCtrReq 2948
McWriteback 0
McWriteIssue 0
McCtrReady 2948
L2Fill 3228
L2CtrFill 2971
L2AesStart 280
L2TxnFinish 280
DramPump 4719
DramDone 6374
DataRefetch 0
CtrRefetch 0
idle_core_advances 392
idle_dram_pumps 3532
"
    );
}
