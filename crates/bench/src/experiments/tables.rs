//! Every per-benchmark figure: one row function each over its suite,
//! which [`FigureData::per_bench`] runs once per benchmark before the
//! mean row. Each figure asks the harness only for the runs its own
//! table reads; runs shared with other figures come from the run-cache.

use emcc::counters::CounterDesign;
use emcc::dram::RequestClass;
use emcc::prelude::*;
use emcc::sim::stats::geomean;
use emcc::system::SystemConfig;

use crate::experiments::FigureData;
use crate::Harness;

/// Fig 18's AES latencies in nanoseconds.
const AES_POINTS: [u64; 3] = [14, 20, 25];
/// Fig 19's shares of AES units moved from the MC to the L2s, in percent.
const PERCENTS: [u32; 4] = [20, 40, 50, 80];
/// Fig 20's MC counter-cache sizes in KB.
const SIZES_KB: [u64; 3] = [128, 256, 512];
/// Figs 21 and 22's DRAM channel counts.
const CHANNELS: [usize; 2] = [1, 8];
/// The ablation's L2 counter budgets in KB.
const BUDGET_KB: [u64; 3] = [8, 32, 128];

/// How much faster `new` ran than `base`: `base / new − 1`.
fn speedup(base: &SimReport, new: &SimReport) -> f64 {
    base.elapsed.as_ns_f64() / new.elapsed.as_ns_f64() - 1.0
}

/// EMCC's speedup over Morphable on `bench` at each of `points`, both
/// configurations built by `at(scheme, point)`.
fn benefit<P: Copy>(
    h: &Harness,
    bench: Benchmark,
    points: &[P],
    at: impl Fn(SecurityScheme, P) -> SystemConfig,
) -> Vec<f64> {
    points
        .iter()
        .map(|&p| {
            let base = h.run(bench, at(SecurityScheme::CtrInLlc, p));
            speedup(base, h.run(bench, at(SecurityScheme::Emcc, p)))
        })
        .collect()
}

/// `scheme`'s Table I configuration, changed by `change`.
fn table_i_with(scheme: SecurityScheme, change: impl FnOnce(&mut SystemConfig)) -> SystemConfig {
    let mut cfg = SystemConfig::table_i(scheme);
    change(&mut cfg);
    cfg
}

/// Figure 2 (the paper's Pintool study): counter, tree and overflow DRAM
/// accesses over data accesses, read and write, without (MC-only) and
/// with counters cached in the LLC.
pub fn fig02(h: &Harness) -> FigureData {
    let cols = ["w/o-rd", "w/o-wr", "w-rd", "w-wr", "w/o-tot", "w-tot"];
    let note = "total overhead drops from 105% (w/o) to 59% (w/) on average";
    FigureData::new(
        "Figure 2: DRAM traffic overhead normalized to data traffic",
        cols,
        note,
    )
    .per_bench(Benchmark::irregular_suite(), |bench| {
        let (wor, wow) = overhead(h.run_scheme(bench, SecurityScheme::McOnly));
        let (wr, ww) = overhead(h.run_scheme(bench, SecurityScheme::CtrInLlc));
        vec![wor, wow, wr, ww, wor + wow, wr + ww]
    })
}

/// Metadata DRAM traffic over data traffic: (read, write).
fn overhead(r: &SimReport) -> (f64, f64) {
    let count = |class, write| r.dram.bucket(class, write).count;
    let data = (count(RequestClass::Data, false) + count(RequestClass::Data, true)).max(1) as f64;
    let meta = |write| {
        let classes = [
            RequestClass::Counter,
            RequestClass::TreeNode,
            RequestClass::OverflowL0,
            RequestClass::OverflowHigher,
        ];
        classes.map(|c| count(c, write)).iter().sum::<u64>() as f64 / data
    };
    (meta(false), meta(true))
}

/// Figure 6: where the counters of DRAM data reads were found, Table I
/// LLC (2 MB/core).
pub fn fig06(h: &Harness) -> FigureData {
    counter_split(
        h,
        SystemConfig::table_i(SecurityScheme::CtrInLlc),
        "Figure 6: counter hit/miss split for DRAM data reads (2 MB/core LLC)",
        "65% MC hit / 15% LLC hit / 19% LLC miss on average",
    )
}

/// Figure 7: Figure 6 with a 12 MB/core LLC (48 MB total).
pub fn fig07(h: &Harness) -> FigureData {
    counter_split(
        h,
        SystemConfig::table_i(SecurityScheme::CtrInLlc).with_llc_total(48 * 1024 * 1024),
        "Figure 7: counter hit/miss split for DRAM data reads (12 MB/core LLC)",
        "67% MC hit / 18% LLC hit / 14% LLC miss on average",
    )
}

/// MC hit / LLC hit / LLC miss, normalized to DRAM data reads.
fn counter_split(h: &Harness, cfg: SystemConfig, title: &str, note: &str) -> FigureData {
    let cols = ["MC-hit", "LLC-hit", "LLC-miss"];
    FigureData::new(title, cols, note).per_bench(Benchmark::irregular_suite(), |bench| {
        let r = h.run(bench, cfg.clone());
        vec![
            r.ctr_mc_hit_frac(),
            r.ctr_llc_hit_frac(),
            r.ctr_llc_miss_frac(),
        ]
    })
}

/// Figure 11: speculatively fetched counters that left the L2 before a
/// DRAM-served miss used them, per L2 data miss.
pub fn fig11(h: &Harness) -> FigureData {
    FigureData::new(
        "Figure 11: useless counter accesses to LLC under EMCC",
        ["useless"],
        "3.2% of L2 data misses on average",
    )
    .per_bench(Benchmark::irregular_suite(), |bench| {
        vec![h.run_scheme(bench, SecurityScheme::Emcc).useless_ctr_frac()]
    })
}

/// Figure 12: counter accesses to the LLC per L2 data miss, serial
/// baseline against EMCC.
pub fn fig12(h: &Harness) -> FigureData {
    FigureData::new(
        "Figure 12: total counter accesses to LLC per L2 data miss",
        ["baseline", "EMCC"],
        "EMCC 35.6% on average, only 4.2% above the serial baseline",
    )
    .per_bench(Benchmark::irregular_suite(), |bench| {
        let emcc = h.run_scheme(bench, SecurityScheme::Emcc);
        let base = h.run_scheme(bench, SecurityScheme::CtrInLlc);
        vec![base.ctr_llc_access_frac(), emcc.ctr_llc_access_frac()]
    })
}

/// Figure 15: bus occupancy by traffic class under Morphable, as a
/// fraction of one channel's peak bandwidth.
pub fn fig15(h: &Harness) -> FigureData {
    let cols = ["data", "counters", "ovf-L0", "ovf-L1+", "total"];
    let note = "mcf is the heaviest consumer; counters add a visible share";
    FigureData::new(
        "Figure 15: bandwidth utilization by class (Morphable)",
        cols,
        note,
    )
    .per_bench(Benchmark::irregular_suite(), |bench| {
        let r = h.run_scheme(bench, SecurityScheme::CtrInLlc);
        let util = |class| r.bandwidth_utilization(class, 1);
        let data = util(RequestClass::Data);
        let ctr = util(RequestClass::Counter) + util(RequestClass::TreeNode);
        let o0 = util(RequestClass::OverflowL0);
        let o1 = util(RequestClass::OverflowHigher);
        vec![data, ctr, o0, o1, data + ctr + o0 + o1]
    })
}

/// The SC-64 baseline: counters in the LLC, split-counter-64 design.
fn sc64() -> SystemConfig {
    table_i_with(SecurityScheme::CtrInLlc, |c| {
        c.counter_design = CounterDesign::Sc64;
    })
}

/// Figure 16: performance of SC-64, Morphable and EMCC normalized to
/// the non-secure system.
pub fn fig16(h: &Harness) -> FigureData {
    FigureData::new(
        "Figure 16: performance normalized to non-secure",
        ["SC-64", "Morphable", "EMCC"],
        "EMCC +7% over Morphable on average; canneal +12.5%",
    )
    .per_bench(Benchmark::irregular_suite(), |bench| {
        let ns = h
            .run_scheme(bench, SecurityScheme::NonSecure)
            .elapsed
            .as_ns_f64();
        let runs = [
            h.run(bench, sc64()),
            h.run_scheme(bench, SecurityScheme::CtrInLlc),
            h.run_scheme(bench, SecurityScheme::Emcc),
        ];
        runs.map(|r| ns / r.elapsed.as_ns_f64()).to_vec()
    })
}

/// The headline number: EMCC's mean speedup over Morphable.
pub fn headline(h: &Harness) -> f64 {
    let suite = Benchmark::irregular_suite();
    let sum: f64 = suite
        .iter()
        .map(|&bench| {
            let base = h.run_scheme(bench, SecurityScheme::CtrInLlc);
            speedup(base, h.run_scheme(bench, SecurityScheme::Emcc))
        })
        .sum();
    sum / suite.len() as f64
}

/// Figure 17: average L2 miss latency in ns.
pub fn fig17(h: &Harness) -> FigureData {
    FigureData::new(
        "Figure 17: average L2 miss latency (ns)",
        ["SC-64", "Morphable", "EMCC", "non-sec"],
        "EMCC ≈5 ns below Morphable on average",
    )
    .counts()
    .per_bench(Benchmark::irregular_suite(), |bench| {
        let runs = [
            h.run(bench, sc64()),
            h.run_scheme(bench, SecurityScheme::CtrInLlc),
            h.run_scheme(bench, SecurityScheme::Emcc),
            h.run_scheme(bench, SecurityScheme::NonSecure),
        ];
        runs.map(|r| r.l2_miss_latency_ns.mean()).to_vec()
    })
}

/// Figure 18: a slower AES lengthens the baseline's critical path but
/// hides behind EMCC's overlap, so the benefit grows.
pub fn fig18(h: &Harness) -> FigureData {
    FigureData::new(
        "Figure 18: EMCC benefit over Morphable vs AES latency",
        AES_POINTS.map(|ns| format!("{ns}ns AES")),
        "benefit grows with AES latency: ~7% at 14 ns → ~9% at 25 ns",
    )
    .per_bench(Benchmark::irregular_suite(), |bench| {
        benefit(h, bench, &AES_POINTS, |scheme, ns| {
            SystemConfig::table_i(scheme).with_aes_latency(Time::from_ns(ns))
        })
    })
}

/// Figure 19: DRAM data reads decrypted and verified at the L2s as the
/// AES units move from the MC; mcf's bandwidth spikes exhaust the L2
/// budget and the adaptive offload kicks in.
pub fn fig19(h: &Harness) -> FigureData {
    FigureData::new(
        "Figure 19: DRAM data reads decrypted at L2 vs AES split",
        PERCENTS.map(|pct| format!("{pct}%")),
        "76.3% on average at the 50% split; mcf ~50% (offload)",
    )
    .per_bench(Benchmark::irregular_suite(), |bench| {
        let split = |pct| table_i_with(SecurityScheme::Emcc, |c| c.emcc.aes_to_l2_pct = pct);
        PERCENTS
            .iter()
            .map(|&pct| h.run(bench, split(pct)).l2_decrypt_frac())
            .collect()
    })
}

/// Figure 20: bigger MC counter caches leave EMCC a little less to hide.
pub fn fig20(h: &Harness) -> FigureData {
    FigureData::new(
        "Figure 20: EMCC benefit vs MC counter-cache size",
        SIZES_KB.map(|kb| format!("{kb}KB")),
        "benefit shrinks by <1% as the cache grows 128→512 KB",
    )
    .per_bench(Benchmark::irregular_suite(), |bench| {
        benefit(h, bench, &SIZES_KB, |scheme, kb| {
            SystemConfig::table_i(scheme).with_mc_cache_size(kb * 1024)
        })
    })
}

/// `scheme`'s Table I configuration over `n` DRAM channels.
fn channels(scheme: SecurityScheme, n: usize) -> SystemConfig {
    SystemConfig::table_i(scheme).with_channels(n)
}

/// Figure 21: more bandwidth shortens data access, which exposes more
/// of the baseline's counter latency, so the benefit grows.
pub fn fig21(h: &Harness) -> FigureData {
    FigureData::new(
        "Figure 21: EMCC benefit under 1 vs 8 memory channels",
        ["1 channel", "8 channels"],
        "benefit increases under 8 channels",
    )
    .per_bench(Benchmark::irregular_suite(), |bench| {
        benefit(h, bench, &CHANNELS, channels)
    })
}

/// Figure 22: EMCC's DRAM queuing delay by access type, the geometric
/// mean over the benchmarks that issued that type.
pub fn fig22(h: &Harness) -> FigureData {
    let runs = CHANNELS.map(|n| {
        Benchmark::irregular_suite()
            .into_iter()
            .map(|bench| h.run(bench, channels(SecurityScheme::Emcc, n)))
            .collect::<Vec<_>>()
    });
    let mut fig = FigureData::new(
        "Figure 22: DRAM queuing delay under EMCC (ns, geomean)",
        ["1 channel", "8 channels"],
        "writes queue much longer than reads; 8 channels shrink both",
    )
    .counts();
    let kinds = [
        ("ctr read", RequestClass::Counter, false),
        ("data read", RequestClass::Data, false),
        ("ctr write", RequestClass::Counter, true),
        ("data write", RequestClass::Data, true),
    ];
    for (name, class, is_write) in kinds {
        let delay = |reports: &Vec<&SimReport>| {
            // Geomean needs positive samples; clamp at 0.1 ns.
            let samples: Vec<f64> = reports
                .iter()
                .map(|r| r.dram.bucket(class, is_write))
                .filter(|b| b.count > 0)
                .map(|b| b.queuing_ns.mean().max(0.1))
                .collect();
            geomean(&samples)
        };
        fig.rows.push(name.to_string());
        fig.values.push(runs.iter().map(delay).collect());
    }
    fig
}

/// Figure 23: counter blocks invalidated in the L2s by MC counter
/// updates, per counter insertion.
pub fn fig23(h: &Harness) -> FigureData {
    FigureData::new(
        "Figure 23: counter blocks invalidated in L2 per insertion",
        ["invalidated"],
        "1.7% of insertions on average",
    )
    .per_bench(Benchmark::irregular_suite(), |bench| {
        vec![h
            .run_scheme(bench, SecurityScheme::Emcc)
            .ctr_invalidation_frac()]
    })
}

/// Figure 24: Figure 11 for the fifteen regular SPEC/PARSEC benchmarks,
/// the check that speculative counter fetching stays harmless when it is
/// not needed.
pub fn fig24(h: &Harness) -> FigureData {
    FigureData::new(
        "Figure 24: useless counter accesses, regular SPEC/PARSEC",
        ["useless"],
        "1% of L2 data misses on average",
    )
    .per_bench(Benchmark::regular_suite(), |bench| {
        vec![h.run_scheme(bench, SecurityScheme::Emcc).useless_ctr_frac()]
    })
}

/// The placement race: every crypto placement (the paper's four design
/// points plus BipBip, near-memory and in-SRAM) under identical
/// workloads, normalized to non-secure, whose own column pins 100%.
///
/// It quantifies the paper's core claim that where memory cryptography
/// runs dominates its cost. A cheap in-pipeline cipher (BipBip) or
/// in-device crypto (near-mem) tracks the non-secure ceiling but gives up
/// tamper detection or trust in the DRAM device; full in-SRAM AES pays
/// its latency serially on every access; counter-based schemes sit in
/// between, with EMCC the fastest of them.
pub fn race(h: &Harness) -> FigureData {
    let schemes = SecurityScheme::all();
    FigureData::new(
        "Placement race: performance normalized to non-secure (all placements)",
        schemes.iter().map(|s| s.to_string()),
        "where crypto runs dominates its cost: in-pipeline/in-device \
         ciphers track the ceiling, in-SRAM AES pays serially, EMCC \
         leads the counter-based schemes",
    )
    .per_bench(Benchmark::irregular_suite(), |bench| {
        let ns = h
            .run_scheme(bench, SecurityScheme::NonSecure)
            .elapsed
            .as_ns_f64();
        schemes
            .iter()
            .map(|&s| ns / h.run_scheme(bench, s).elapsed.as_ns_f64())
            .collect()
    })
}

/// The ablations' benchmarks: a representative subset that keeps their
/// runtime manageable (canneal, mcf and BFS bracket the behaviours).
fn ablation_suite() -> Vec<Benchmark> {
    use emcc::workloads::kernels::GraphKernel;
    vec![
        Benchmark::Graph(GraphKernel::Bfs),
        Benchmark::Graph(GraphKernel::PageRank),
        Benchmark::Canneal,
        Benchmark::Mcf,
    ]
}

/// Ablation: §V fixes the L2 counter budget at 32 KB "so the benefits do
/// not simply come from caching more counters"; this sweeps 8/32/128 KB.
pub fn l2_budget(h: &Harness) -> FigureData {
    FigureData::new(
        "Ablation: EMCC benefit vs L2 counter budget",
        BUDGET_KB.map(|kb| format!("{kb}KB")),
        "32 KB captures most of the benefit (paper's §V choice)",
    )
    .per_bench(ablation_suite(), |bench| {
        let base = h.run_scheme(bench, SecurityScheme::CtrInLlc);
        let budget = |kb: u64| {
            table_i_with(SecurityScheme::Emcc, |c| {
                c.emcc.l2_counter_budget_lines = kb * 1024 / 64;
            })
        };
        BUDGET_KB
            .iter()
            .map(|&kb| speedup(base, h.run(bench, budget(kb))))
            .collect()
    })
}

/// Ablation: §IV-D delays the L2's AES by one LLC-hit latency so LLC hits
/// waste no AES bandwidth; this starts it at once instead (more useless
/// AES work, same or worse performance).
pub fn aes_wait(h: &Harness) -> FigureData {
    FigureData::new(
        "Ablation: AES start policy (immediate vs wait-LLC-hit)",
        ["perf Δ", "extra AES ops"],
        "waiting trades negligible latency for AES-bandwidth savings",
    )
    .per_bench(ablation_suite(), |bench| {
        let wait = h.run_scheme(bench, SecurityScheme::Emcc);
        let immediate = table_i_with(SecurityScheme::Emcc, |c| c.emcc.aes_start_wait = Time::ZERO);
        let imm = h.run(bench, immediate);
        let extra_aes = if wait.decrypted_at_l2 > 0 {
            imm.decrypted_at_l2 as f64 / wait.decrypted_at_l2 as f64 - 1.0
        } else {
            0.0
        };
        vec![speedup(wait, imm), extra_aes]
    })
}

/// Ablation: EMCC's benefit with LLC miss prediction (XPT) on and off
/// for both schemes.
pub fn xpt(h: &Harness) -> FigureData {
    FigureData::new(
        "Ablation: EMCC benefit with and without XPT",
        ["XPT on", "XPT off"],
        "XPT shortens data paths; EMCC helps in both regimes",
    )
    .per_bench(ablation_suite(), |bench| {
        benefit(h, bench, &[true, false], |scheme, on| {
            table_i_with(scheme, |c| c.xpt_enabled = on)
        })
    })
}

/// §IV-F's extensions against plain EMCC: the inclusive LLC and the
/// dynamic disable.
pub fn extensions(h: &Harness) -> FigureData {
    FigureData::new(
        "Extension: inclusive LLC and dynamic disable (vs plain EMCC)",
        ["inclusive Δ", "dyn-off Δ", "unverif/fill"],
        "§IV-F: optional, outside the paper's evaluation; Δ < 0 is slower than plain EMCC",
    )
    .per_bench(ablation_suite(), |bench| {
        let plain = h.run_scheme(bench, SecurityScheme::Emcc);
        let inc_cfg = table_i_with(SecurityScheme::Emcc, |c| c.inclusive_llc = true);
        let inclusive = h.run(bench, inc_cfg);
        let dyn_cfg = table_i_with(SecurityScheme::Emcc, |c| c.emcc.dynamic_disable = true);
        let dynamic = h.run(bench, dyn_cfg);
        let unverified_frac = if inclusive.dram_data_reads > 0 {
            inclusive.llc_unverified_inserts as f64 / inclusive.dram_data_reads as f64
        } else {
            0.0
        };
        vec![
            speedup(plain, inclusive),
            speedup(plain, dynamic),
            unverified_frac,
        ]
    })
}
