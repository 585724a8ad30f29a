//! Figures 5, 8, 10, 13 and 14: the secure-memory-access timelines,
//! each one simulated load (`emcc::system::timeline`).

use std::collections::HashMap;
use std::fmt::Write as _;

use emcc::system::timeline::{noc_geometry, CtrAt, SCENARIOS};

/// Renders every scenario's critical path and the headline deltas.
pub fn render_all() -> String {
    let mut out = String::from("== Figures 5/8/10/13/14: secure-memory-access timelines ==\n");
    out.push_str(
        "One simulated load per scenario (1-core Table I system, prefetcher off),\n\
         timed from its arrival at the L2; each row is a critical-path segment.\n",
    );
    out.push_str(&noc_geometry());
    out.push('\n');
    let mut total = HashMap::new();
    for sc in &SCENARIOS {
        let ctr = match sc.ctr {
            CtrAt::McCache => "in the MC cache",
            CtrAt::Llc => "in the LLC",
            CtrAt::Nowhere => "only in DRAM",
        };
        let row = if sc.row_open { "open" } else { "closed" };
        let xpt = if sc.xpt { "on" } else { "off" };
        let _ = writeln!(
            out,
            "\n{}: {}, counter {ctr}, row {row}, XPT {xpt}",
            sc.figure, sc.scheme
        );
        let t = sc.simulate();
        for s in &t.critical {
            let _ = writeln!(
                out,
                "  [{:>6.2} → {:>6.2} ns] {}",
                (s.start - t.t0).as_ns_f64(),
                (s.end - t.t0).as_ns_f64(),
                s.comp.label()
            );
        }
        let ns = (t.t_end - t.t0).as_ns_f64();
        let _ = writeln!(out, "  total: {ns:.2} ns");
        total.insert(sc.figure, ns);
    }
    let _ = write!(
        out,
        "\nFig 5 delta (LLC counter caching under a counter miss): {:.2} ns (paper: 19 ns)\n\
         Fig 8 delta (LLC ctr hit vs MC ctr hit): {:.2} ns (paper: ~8 ns)\n\
         Fig 13 delta (EMCC vs baseline, ctr hit in LLC): {:.2} ns\n\
         Fig 14 delta (EMCC vs baseline, XPT + row miss): {:.2} ns (paper: 22 ns)\n",
        total["Fig 5 (lower)"] - total["Fig 5 (upper)"],
        total["Fig 8 (lower)"] - total["Fig 8 (upper)"],
        total["Fig 13b"] - total["Fig 13a"],
        total["Fig 14b"] - total["Fig 14a"],
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn render_mentions_all_figures() {
        let s = super::render_all();
        for fig in ["Fig 5", "Fig 8", "Fig 10a", "Fig 13a", "Fig 14a"] {
            assert!(s.contains(fig), "missing {fig}");
        }
    }
}
