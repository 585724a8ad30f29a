//! Reproduce the paper's Figure 3: the distribution of LLC hit latency on
//! a 28-core mesh, rendered as an ASCII histogram.
//!
//! ```sh
//! cargo run --example noc_latency
//! ```

use emcc::noc::latency::llc_hit_histogram;

fn main() {
    let h = llc_hit_histogram();

    println!("LLC hit latency distribution (Fig 3), 6x5 mesh, 28 cores\n");
    for i in 0..h.num_bins() {
        let frac = h.bin_fraction(i);
        if frac == 0.0 {
            continue;
        }
        let bar = "#".repeat((frac * 250.0).round() as usize);
        println!(
            "{:>3.0} ns | {:<50} {:>5.1}%",
            h.bin_lower(i),
            bar,
            frac * 100.0
        );
    }
    println!(
        "\nmean {:.1} ns (paper: 23 ns), p50 {:.1} ns, p95 {:.1} ns",
        h.mean(),
        h.percentile(50.0).expect("non-empty"),
        h.percentile(95.0).expect("non-empty"),
    );
    println!(
        "some hits take >10 ns longer than others — the distributed-LLC effect\n\
         that makes counter accesses in LLC expensive (the paper's motivation)."
    );
}
