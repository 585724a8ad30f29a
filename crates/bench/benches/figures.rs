//! Criterion benches over the figure registry at Test scale — one bench
//! per entry, each planning, simulating and rendering the way `run_all`
//! does, so `cargo bench` exercises the entire reproduction pipeline
//! end-to-end with timing.

use criterion::{criterion_group, criterion_main, Criterion};

use emcc::prelude::*;
use emcc_bench::experiments;
use emcc_bench::{ExpParams, Harness};

fn tiny() -> ExpParams {
    ExpParams::for_scale(WorkloadScale::Test)
}

/// One full simulation (the unit of work behind every figure).
fn bench_single_sim(c: &mut Criterion) {
    let p = tiny();
    let mut g = c.benchmark_group("sim");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_secs(1));
    g.measurement_time(std::time::Duration::from_secs(8));
    g.bench_function("canneal_emcc_test_scale", |b| {
        b.iter(|| p.run_scheme(Benchmark::Canneal, SecurityScheme::Emcc))
    });
    g.bench_function("canneal_morphable_test_scale", |b| {
        b.iter(|| p.run_scheme(Benchmark::Canneal, SecurityScheme::CtrInLlc))
    });
    g.finish();
}

fn bench_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_secs(1));
    g.measurement_time(std::time::Duration::from_secs(10));
    for entry in experiments::REGISTRY {
        g.bench_function(entry.id, |b| {
            b.iter(|| {
                // A cold single-worker harness per iteration, so the
                // run-cache can't falsify the timings.
                let h = Harness::with_jobs(tiny(), 1);
                h.execute(&experiments::plan(tiny(), [entry]));
                (entry.render)(&h)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_single_sim, bench_figures);
criterion_main!(benches);
