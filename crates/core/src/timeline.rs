//! Directed secure-memory-access timelines (Figures 5, 8, 10, 13, 14).
//!
//! The paper argues for EMCC with latency-composition timelines. Each
//! [`TimelineScenario`] reproduces one of them as a single simulated
//! load: a 1-core Table I [`SecureSystem`] with the prefetcher off, whose
//! counter block and DRAM row for the measured line are placed
//! beforehand, runs the load through [`SecureSystem::run_traced`]. The
//! recorded critical path comes from the same mesh, slice map, DDR4
//! timing and secure pipeline as every figure run, so there is one
//! latency model, not two.

use emcc_cache::BlockKind;
use emcc_dram::RequestClass;
use emcc_noc::mesh::Node;
use emcc_secmem::SecurityScheme;
use emcc_sim::trace::AccessTrace;
use emcc_sim::LineAddr;
use emcc_workloads::{MemOp, Trace};

use crate::config::SystemConfig;
use crate::mc::DramTarget;
use crate::report::SimReport;
use crate::system::{LlcMeta, SecureSystem};

/// Where the measured line's counter block sits before the load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrAt {
    /// The MC's metadata cache.
    McCache,
    /// Its LLC slice.
    Llc,
    /// Nowhere on chip: the counter comes from DRAM.
    Nowhere,
}

/// One of the paper's timelines as a directed access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineScenario {
    /// The paper figure, e.g. `"Fig 13a"`.
    pub figure: &'static str,
    /// The design point the load runs under.
    pub scheme: SecurityScheme,
    /// XPT forwards the L2 miss to the MC alongside the LLC lookup.
    pub xpt: bool,
    /// Where the counter block sits.
    pub ctr: CtrAt,
    /// The line's DRAM row is open, so its read is a row-buffer hit.
    pub row_open: bool,
}

const fn scenario(
    figure: &'static str,
    scheme: SecurityScheme,
    xpt: bool,
    ctr: CtrAt,
    row_open: bool,
) -> TimelineScenario {
    TimelineScenario {
        figure,
        scheme,
        xpt,
        ctr,
        row_open,
    }
}

/// The nine scenarios, in figure order.
pub const SCENARIOS: [TimelineScenario; 9] = {
    use CtrAt::*;
    use SecurityScheme::*;
    [
        scenario("Fig 5 (upper)", McOnly, false, Nowhere, false),
        scenario("Fig 5 (lower)", CtrInLlc, false, Nowhere, false),
        scenario("Fig 8 (upper)", CtrInLlc, false, McCache, false),
        scenario("Fig 8 (lower)", CtrInLlc, false, Llc, false),
        scenario("Fig 10a", Emcc, false, Nowhere, false),
        scenario("Fig 13a", Emcc, false, Llc, true),
        scenario("Fig 13b", CtrInLlc, false, Llc, true),
        scenario("Fig 14a", Emcc, true, Llc, false),
        scenario("Fig 14b", CtrInLlc, true, Llc, false),
    ]
};

/// The measured line: the first whose slice and whose counter block's
/// slice both sit at the mean L2→slice distance (4 hops), in different
/// DRAM banks so a counter fetch never waits on the data's row.
const LINE: LineAddr = LineAddr::new(0x604);

/// Non-memory instructions before the load: 100 ns at 4-wide 3.2 GHz,
/// so a row-opening read has finished before the load issues.
const GAP: u32 = 1280;

impl TimelineScenario {
    /// Table I with one core, the prefetcher off and XPT as given.
    fn config(&self) -> SystemConfig {
        let mut cfg = SystemConfig::table_i(self.scheme);
        cfg.cores = 1;
        cfg.l2_prefetch_degree = 0;
        cfg.xpt_enabled = self.xpt;
        cfg
    }

    /// Runs the measured load and returns its recorded trace.
    pub fn simulate(&self) -> AccessTrace {
        self.run().1
    }

    fn run(&self) -> (SimReport, AccessTrace) {
        let mut sys = SecureSystem::new(self.config());
        let block = sys.ctr_block_of(LINE);
        // Every tree ancestor is verified on chip, so a counter miss
        // costs one DRAM read.
        let geo = sys.tree.geometry();
        let mut node = geo.node_of_addr(block);
        while let Some((level, idx)) = geo.parent_of(node.0, node.1) {
            sys.mc
                .meta
                .insert(geo.node_addr(level, idx), false, BlockKind::TreeNode);
            node = (level, idx);
        }
        match self.ctr {
            CtrAt::McCache => {
                sys.mc.meta.insert(block, false, BlockKind::Counter);
            }
            CtrAt::Llc => {
                let slice = sys.slice_of(block);
                let meta = LlcMeta::verified(BlockKind::Counter);
                sys.slices[slice].insert(block, false, meta);
            }
            CtrAt::Nowhere => {}
        }
        if self.row_open {
            // A read nothing waits on leaves the row open for the load.
            sys.enqueue_dram(LINE, false, RequestClass::Data, DramTarget::PostedWrite);
        }
        let load = Trace::new(self.figure, vec![MemOp::load(LINE, GAP)]).cursor(0);
        let (report, tracer) = sys.run_traced(vec![Box::new(load)], 0, 1, 1);
        let trace = tracer.traces().next().expect("the load completed").clone();
        (report, trace)
    }
}

/// Names the measured line and its counter block, the LLC slice of each
/// and the hop count of every NoC leg the scenarios travel.
pub fn noc_geometry() -> String {
    let sys = SecureSystem::new(SCENARIOS[0].config());
    let cfg = &sys.cfg;
    let (l2, mc) = (Node::Core(cfg.core_position(0)), Node::Mc(0));
    let legs = |line: LineAddr| {
        let slice = sys.slice_of(line);
        let at = Node::Core(cfg.slice_position(slice));
        format!(
            "{:#x} in LLC slice {slice} (L2→slice {} hops, slice→MC {} hops)",
            line.get(),
            cfg.mesh.hops(l2, at),
            cfg.mesh.hops(at, mc)
        )
    };
    format!(
        "Measured line {};\nits counter block {};\nL2→MC (the XPT leg) {} hop(s).",
        legs(LINE),
        legs(sys.ctr_block_of(LINE)),
        cfg.mesh.hops(l2, mc)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::CtrSource;
    use emcc_dram::AddressMapping;
    use emcc_sim::trace::{Component, Span};
    use emcc_sim::Time;

    fn by_figure(figure: &str) -> TimelineScenario {
        *SCENARIOS
            .iter()
            .find(|s| s.figure == figure)
            .expect("known figure")
    }

    fn total(figure: &str) -> Time {
        let t = by_figure(figure).simulate();
        t.t_end - t.t0
    }

    fn critical(figure: &str, comp: Component) -> Time {
        let t = by_figure(figure).simulate();
        t.critical
            .iter()
            .filter(|s| s.comp == comp)
            .map(Span::duration)
            .sum()
    }

    /// The run's own report shows the state the scenario names, and its
    /// critical path explains the whole access.
    fn assert_placement_held(sc: &TimelineScenario) {
        let (r, _) = sc.run();
        let fig = sc.figure;
        let mut want = SimReport::default();
        want.record_ctr_source(match sc.ctr {
            CtrAt::McCache => CtrSource::Mc,
            CtrAt::Llc => CtrSource::Llc,
            CtrAt::Nowhere => CtrSource::Dram,
        });
        assert_eq!(r.ctr_source, want.ctr_source, "{fig}: counter source");
        let ctr_reads = r.dram.count_for(RequestClass::Counter);
        assert_eq!(ctr_reads, u64::from(sc.ctr == CtrAt::Nowhere), "{fig}");
        assert_eq!(r.dram.count_for(RequestClass::TreeNode), 0, "{fig}");
        assert_eq!(r.dram.row_hits, u64::from(sc.row_open), "{fig}: row hit");
        assert_eq!(r.dram.row_conflicts, 0, "{fig}: row conflict");
        assert_eq!(r.xpt_forwards, u64::from(sc.xpt), "{fig}: XPT");
        assert_eq!(r.crit_path.accesses(), 1, "{fig}: one measured load");
        assert_eq!(r.crit_violations, 0, "{fig}: span outside the access");
        assert_eq!(r.crit_path.sum_ps(Component::Other), 0, "{fig}: gap");
    }

    macro_rules! placement_tests {
        ($($name:ident: $figure:literal,)*) => {$(
            #[test]
            fn $name() {
                assert_placement_held(&by_figure($figure));
            }
        )*};
    }

    placement_tests! {
        fig05_upper_placement_held: "Fig 5 (upper)",
        fig05_lower_placement_held: "Fig 5 (lower)",
        fig08_upper_placement_held: "Fig 8 (upper)",
        fig08_lower_placement_held: "Fig 8 (lower)",
        fig10a_placement_held: "Fig 10a",
        fig13a_placement_held: "Fig 13a",
        fig13b_placement_held: "Fig 13b",
        fig14a_placement_held: "Fig 14a",
        fig14b_placement_held: "Fig 14b",
    }

    #[test]
    fn fig5_llc_counter_caching_slows_a_counter_miss() {
        assert!(total("Fig 5 (lower)") > total("Fig 5 (upper)"));
    }

    #[test]
    fn fig8_llc_counter_hit_is_slower_than_an_mc_hit_that_hides_aes() {
        assert!(total("Fig 8 (lower)") > total("Fig 8 (upper)"));
        assert_eq!(critical("Fig 8 (upper)", Component::Aes), Time::ZERO);
    }

    #[test]
    fn fig10_emcc_beats_the_baseline_on_a_counter_llc_miss() {
        // The same access under CtrInLlc is the Fig 5 (lower) run.
        assert!(total("Fig 10a") < total("Fig 5 (lower)"));
    }

    #[test]
    fn fig13_fig14_emcc_beats_the_baseline() {
        assert!(total("Fig 13a") < total("Fig 13b"));
        assert!(total("Fig 14a") < total("Fig 14b"));
    }

    #[test]
    fn fig13a_aes_finishes_before_the_data_reaches_the_l2() {
        let t = by_figure("Fig 13a").simulate();
        let end = |comp| {
            let spans = t.spans.iter().filter(|s| s.comp == comp);
            spans.map(|s| s.end).max().expect("span recorded")
        };
        assert!(end(Component::Aes) < end(Component::Noc));
    }

    /// The paper's claim as stated; the simulator does not meet it. The
    /// L2's AES ends 12 ns before the data reaches the L2, but the
    /// attribution sweep charges each instant to the covering span that
    /// ends last, and the AES outlasts the DRAM read and the MC's MAC
    /// step while the response leg has not started yet: 10.2 ns of AES
    /// show as critical. The test passes once the sweep follows
    /// dependences.
    #[test]
    fn fig13a_has_zero_critical_aes() {
        let aes = critical("Fig 13a", Component::Aes);
        assert_eq!(aes, Time::ZERO, "Fig 13a: critical AES");
    }

    #[test]
    fn measured_line_is_the_first_at_the_mean_slice_distance() {
        let sys = SecureSystem::new(SCENARIOS[0].config());
        let cfg = &sys.cfg;
        let l2 = Node::Core(cfg.core_position(0));
        let hops = |s: usize| cfg.mesh.hops(l2, Node::Core(cfg.slice_position(s)));
        let sum: u32 = (0..cfg.llc_slices).map(hops).sum();
        let mean = (f64::from(sum) / cfg.llc_slices as f64).round() as u32;
        assert_eq!(mean, 4);
        let map = AddressMapping::new(cfg.dram.channels);
        let fits = |line: LineAddr| {
            let block = sys.ctr_block_of(line);
            let (d, c) = (map.locate(line), map.locate(block));
            hops(sys.slice_of(line)) == mean
                && hops(sys.slice_of(block)) == mean
                && (d.rank, d.bank) != (c.rank, c.bank)
        };
        let first = (0..).map(LineAddr::new).find(|&l| fits(l));
        assert_eq!(first, Some(LINE));
    }
}
