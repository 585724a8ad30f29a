//! Per-access critical-path attribution and span tracing.
//!
//! The paper's argument is a latency-composition one: EMCC wins because
//! the counter fetch no longer sits serially on the L2-miss critical path
//! (Figs 5/8/10). This module makes that composition observable. Timing
//! models record the *work intervals* an access caused as [`Span`]s —
//! L2 lookup, NoC hops, LLC slice, MC queueing, DRAM row-hit/miss,
//! counter fetch, AES, verify — possibly overlapping in time, and
//! [`attribute`] reduces them to a *critical path*: a gap-free sequence
//! of segments tiling the access's lifetime, where every instant is
//! charged to the component the access was actually blocked on. Work
//! hidden under other work becomes **overlap credit** — the quantity EMCC
//! claims when its eager counter fetch runs in parallel with the data
//! fetch.
//!
//! The same reduction serves three users:
//!
//! * `emcc_system::SecureSystem` runs it over every completed access and
//!   aggregates per-component histograms into the report,
//! * `emcc_system::timeline` returns it for one simulated load per
//!   Fig 5/8/10/13/14 scenario, and `run_all` prints those paths,
//! * the fuzzer's conservation law checks the segments of every access
//!   tile its end-to-end latency with no span out of bounds.
//!
//! [`TraceRecorder`] keeps the most recent attributed accesses in a ring
//! buffer (zero-cost when disabled) for export as Chrome-trace JSON
//! loadable in `chrome://tracing` or Perfetto.

use std::collections::VecDeque;
use std::fmt::Write as _;

use crate::time::Time;

/// The pipeline component an interval of an access's lifetime is charged to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Component {
    /// L2/MSHR lookup before the miss is declared.
    L2Lookup,
    /// NoC hops (request, slice-to-MC, and response legs).
    Noc,
    /// LLC slice SRAM lookup.
    LlcLookup,
    /// Memory-controller scheduling queue (enqueue until DRAM issue).
    McQueue,
    /// DRAM array access that hit the open row.
    DramRowHit,
    /// DRAM array access that needed activation (closed row or conflict).
    DramRowMiss,
    /// Counter availability wait: cache lookups, tree walk, decode.
    CtrFetch,
    /// AES work (OTP generation or MAC) the access waited on.
    Aes,
    /// Ciphertext XOR + MAC compare at the consumption point.
    Verify,
    /// Time not covered by any recorded span (backoff, retry waits).
    Other,
}

impl Component {
    /// All components, in report/export order.
    pub const ALL: [Component; 10] = [
        Component::L2Lookup,
        Component::Noc,
        Component::LlcLookup,
        Component::McQueue,
        Component::DramRowHit,
        Component::DramRowMiss,
        Component::CtrFetch,
        Component::Aes,
        Component::Verify,
        Component::Other,
    ];

    /// Number of components (array-index domain).
    pub const COUNT: usize = Self::ALL.len();

    /// Dense index into [`Component::ALL`].
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case label used in reports and trace exports.
    pub fn label(self) -> &'static str {
        match self {
            Component::L2Lookup => "l2_lookup",
            Component::Noc => "noc",
            Component::LlcLookup => "llc_lookup",
            Component::McQueue => "mc_queue",
            Component::DramRowHit => "dram_row_hit",
            Component::DramRowMiss => "dram_row_miss",
            Component::CtrFetch => "ctr_fetch",
            Component::Aes => "aes",
            Component::Verify => "verify",
            Component::Other => "other",
        }
    }
}

/// A half-open work interval `[start, end)` charged to one component.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub comp: Component,
    pub start: Time,
    pub end: Time,
}

impl Span {
    /// Convenience constructor.
    #[inline]
    pub fn new(comp: Component, start: Time, end: Time) -> Self {
        Span { comp, start, end }
    }

    /// Interval length (zero for inverted spans).
    #[inline]
    pub fn duration(&self) -> Time {
        self.end.saturating_sub(self.start)
    }
}

/// Result of reducing a span set to a critical path over `[t0, t_end)`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Attribution {
    /// Contiguous critical segments tiling `[t0, t_end)` exactly.
    pub segments: Vec<Span>,
    /// Recorded work hidden under other work (sum of span durations minus
    /// the measure of their union): the overlap credit.
    pub overlap: Time,
    /// Spans that violated the access window (start before `t0`, end after
    /// `t_end`, or inverted). They are clamped into the window, but a
    /// nonzero count means a milestone was mis-recorded.
    pub violations: u32,
}

impl Attribution {
    /// Total critical time per component, indexed by [`Component::index`].
    pub fn per_component(&self) -> [Time; Component::COUNT] {
        let mut out = [Time::ZERO; Component::COUNT];
        for seg in &self.segments {
            out[seg.comp.index()] += seg.duration();
        }
        out
    }

    /// Sum of all critical segments (equals `t_end - t0` by construction).
    pub fn total(&self) -> Time {
        self.segments.iter().map(Span::duration).sum()
    }

    /// End of the last critical segment (equals `t_end` by construction,
    /// or `t0` for an empty window).
    pub fn end(&self) -> Option<Time> {
        self.segments.last().map(|s| s.end)
    }
}

/// Reduces possibly-overlapping work spans to the critical path of an
/// access that started at `t0` and completed at `t_end`.
///
/// At every instant the access is charged to the *blocking* span: among
/// the spans covering that instant, the one that ends last (the join it
/// is actually waiting on), with ties broken by recording order. Instants
/// covered by no span become [`Component::Other`]. The resulting segments
/// are contiguous and tile `[t0, t_end)` exactly, so
/// `sum(segments) == t_end - t0` always holds; the per-access fuzz law
/// additionally demands `violations == 0`, i.e. every recorded span lies
/// inside the access window.
///
/// # Examples
///
/// ```
/// use emcc_sim::trace::{attribute, Component, Span};
/// use emcc_sim::Time;
///
/// let ns = Time::from_ns;
/// // Fig 5, no counter caching: DRAM data fetch (30 ns) in parallel with
/// // a serial counter fetch (33 ns), then 14 ns AES and 1 ns verify.
/// let spans = [
///     Span::new(Component::DramRowMiss, ns(0), ns(30)),
///     Span::new(Component::CtrFetch, ns(0), ns(33)),
///     Span::new(Component::Aes, ns(33), ns(47)),
///     Span::new(Component::Verify, ns(47), ns(48)),
/// ];
/// let att = attribute(Time::ZERO, ns(48), &spans);
/// let per = att.per_component();
/// assert_eq!(per[Component::CtrFetch.index()], ns(33)); // data fetch hidden
/// assert_eq!(per[Component::DramRowMiss.index()], Time::ZERO);
/// assert_eq!(att.overlap, ns(30)); // the fully-overlapped data fetch
/// assert_eq!(att.total(), ns(48));
/// ```
pub fn attribute(t0: Time, t_end: Time, spans: &[Span]) -> Attribution {
    let mut scratch = Attributor::new();
    scratch.attribute(t0, t_end, spans);
    scratch.att
}

/// Reusable [`attribute`] engine: owns the clamp buffer and the output
/// [`Attribution`], so a caller reducing millions of accesses (the
/// run-loop does one per completed transaction) performs no allocation
/// in steady state — the buffers reach their high-water mark within the
/// first few accesses and are reused from then on.
#[derive(Clone, Debug, Default)]
pub struct Attributor {
    /// In-window copies of the input spans (clamp + union scratch).
    clamped: Vec<Span>,
    /// Indices into `clamped` sorted by span start (sweep schedule).
    order: Vec<u32>,
    /// Indices of spans covering the current sweep point.
    active: Vec<u32>,
    /// Output of the most recent [`Attributor::attribute`] call.
    att: Attribution,
}

impl Attributor {
    /// An engine with empty scratch buffers.
    pub fn new() -> Self {
        Attributor::default()
    }

    /// [`attribute`] into the reusable output buffer.
    ///
    /// Identical reduction, identical result — the free function is the
    /// convenience form for one-shot callers and delegates here.
    pub fn attribute(&mut self, t0: Time, t_end: Time, spans: &[Span]) -> &Attribution {
        let att = &mut self.att;
        att.segments.clear();
        att.overlap = Time::ZERO;
        att.violations = 0;
        if t_end <= t0 {
            att.violations = u32::from(t_end < t0);
            return att;
        }

        // Clamp out-of-window spans, counting each violation once.
        let clamped = &mut self.clamped;
        clamped.clear();
        for s in spans {
            let bad = s.start > s.end || s.start < t0 || s.end > t_end;
            att.violations += u32::from(bad);
            let start = s.start.max(t0).min(t_end);
            let end = s.end.max(start).min(t_end);
            if end > start {
                clamped.push(Span::new(s.comp, start, end));
            }
        }

        // Sweep: charge every instant to the latest-ending active span.
        // Event-driven: spans are admitted into the active set in start
        // order, so each segment boundary rescans only the handful of
        // covering spans instead of the whole input (the run-loop calls
        // this once per completed access, so the O(segments × spans)
        // restart-from-scratch scan was real wall-clock). Ties between
        // equal-ending spans resolve to the earliest input index —
        // exactly the order the rescan formulation produced.
        let order = &mut self.order;
        order.clear();
        order.extend(0..clamped.len() as u32);
        order.sort_unstable_by_key(|&i| clamped[i as usize].start);
        let active = &mut self.active;
        active.clear();
        let mut next = 0usize;
        let mut t = t0;
        while t < t_end {
            while next < order.len() && clamped[order[next] as usize].start <= t {
                active.push(order[next]);
                next += 1;
            }
            active.retain(|&i| clamped[i as usize].end > t);
            let mut chosen: Option<u32> = None;
            for &i in active.iter() {
                match chosen {
                    None => chosen = Some(i),
                    Some(c) => {
                        let (e, ce) = (clamped[i as usize].end, clamped[c as usize].end);
                        if e > ce || (e == ce && i < c) {
                            chosen = Some(i);
                        }
                    }
                }
            }
            let (comp, seg_end) = match chosen {
                // The critical span runs until it ends or a later-ending span
                // begins (the join moves to the new blocker).
                Some(c) => {
                    let c_end = clamped[c as usize].end;
                    let mut switch = c_end;
                    for &j in &order[next..] {
                        let s = &clamped[j as usize];
                        if s.start >= switch {
                            break;
                        }
                        if s.end > c_end {
                            switch = s.start;
                            break;
                        }
                    }
                    (clamped[c as usize].comp, switch)
                }
                // Nothing active: unattributed time until the next span.
                None => {
                    let ns = order
                        .get(next)
                        .map_or(t_end, |&j| clamped[j as usize].start);
                    (Component::Other, ns)
                }
            };
            debug_assert!(seg_end > t, "sweep must make progress");
            match att.segments.last_mut() {
                Some(prev) if prev.comp == comp && prev.end == t => prev.end = seg_end,
                _ => att.segments.push(Span::new(comp, t, seg_end)),
            }
            t = seg_end;
        }

        // Overlap credit = recorded work minus the measure of its union.
        let worked: Time = clamped.iter().map(Span::duration).sum();
        att.overlap = worked.saturating_sub(union_measure(clamped, order));
        att
    }

    /// The result of the most recent reduction.
    pub fn last(&self) -> &Attribution {
        &self.att
    }
}

/// Measure of the union of a span set, visited via `order` (indices
/// sorted by span start — the sweep's schedule, reused so the union
/// needs no sort of its own; equal starts may appear in any order, which
/// cannot change the measure).
fn union_measure(spans: &[Span], order: &[u32]) -> Time {
    let mut covered = Time::ZERO;
    let mut edge = Time::ZERO;
    for &i in order {
        let s = &spans[i as usize];
        let lo = s.start.max(edge);
        if s.end > lo {
            covered += s.end - lo;
            edge = s.end;
        }
    }
    covered
}

/// One fully-attributed access, as kept by the [`TraceRecorder`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccessTrace {
    /// Monotone per-recorder sequence number.
    pub seq: u64,
    /// Issuing core.
    pub core: u32,
    /// Cache-line address of the access.
    pub line: u64,
    /// Access start (arrival at L2) and completion.
    pub t0: Time,
    pub t_end: Time,
    /// Raw recorded work spans.
    pub spans: Vec<Span>,
    /// Critical-path segments from [`attribute`].
    pub critical: Vec<Span>,
    /// Overlap credit from [`attribute`].
    pub overlap: Time,
}

/// Ring buffer of the most recently completed accesses.
///
/// A disabled recorder ([`TraceRecorder::disabled`]) never allocates and
/// makes [`TraceRecorder::record`] a branch-and-return, so timing models
/// can call it unconditionally.
#[derive(Clone, Debug, Default)]
pub struct TraceRecorder {
    enabled: bool,
    capacity: usize,
    ring: VecDeque<AccessTrace>,
    seq: u64,
    dropped: u64,
}

impl TraceRecorder {
    /// A recorder that keeps the last `capacity` accesses.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceRecorder {
            enabled: capacity > 0,
            capacity,
            ring: VecDeque::new(),
            seq: 0,
            dropped: 0,
        }
    }

    /// A recorder that records nothing.
    pub fn disabled() -> Self {
        TraceRecorder::default()
    }

    /// Stores one attributed access, evicting the oldest at capacity.
    pub fn record(
        &mut self,
        core: u32,
        line: u64,
        t0: Time,
        t_end: Time,
        spans: &[Span],
        att: &Attribution,
    ) {
        if !self.enabled {
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(AccessTrace {
            seq: self.seq,
            core,
            line,
            t0,
            t_end,
            spans: spans.to_vec(),
            critical: att.segments.clone(),
            overlap: att.overlap,
        });
        self.seq += 1;
    }

    /// Recorded accesses, oldest first.
    pub fn traces(&self) -> impl Iterator<Item = &AccessTrace> {
        self.ring.iter()
    }

    /// Number of recorded accesses currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing has been recorded (or recording is disabled).
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Accesses evicted from the ring since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Serializes the ring as Chrome-trace JSON (the "JSON Array Format"
    /// with `ph:"X"` duration events), loadable in `chrome://tracing` and
    /// Perfetto.
    ///
    /// Two tracks per core: `tid 0` holds the critical-path segments,
    /// `tid 1` the raw (possibly overlapping) work spans. Timestamps are
    /// microseconds with picosecond precision (`%.6f`), so the output is
    /// byte-deterministic for a deterministic simulation.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        let mut first = true;
        let mut cores: Vec<u32> = self.ring.iter().map(|t| t.core).collect();
        cores.sort_unstable();
        cores.dedup();
        for core in cores {
            for (tid, name) in [(0u32, "critical path"), (1, "work spans")] {
                emit_event(&mut out, &mut first, &{
                    let mut e = String::new();
                    let _ = write!(
                        e,
                        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{core},\"tid\":{tid},\
                         \"args\":{{\"name\":\"{name}\"}}}}"
                    );
                    e
                });
            }
        }
        for t in &self.ring {
            for (tid, spans) in [(0u32, &t.critical), (1, &t.spans)] {
                for s in spans {
                    emit_event(&mut out, &mut first, &{
                        let mut e = String::new();
                        let _ = write!(
                            e,
                            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\
                             \"ts\":{:.6},\"dur\":{:.6},\"pid\":{},\"tid\":{tid},\
                             \"args\":{{\"access\":{},\"line\":{}}}}}",
                            s.comp.label(),
                            if tid == 0 { "critical" } else { "span" },
                            s.start.as_ps() as f64 / 1e6,
                            s.duration().as_ps() as f64 / 1e6,
                            t.core,
                            t.seq,
                            t.line,
                        );
                        e
                    });
                }
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

fn emit_event(out: &mut String, first: &mut bool, event: &str) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    out.push_str(event);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> Time {
        Time::from_ns(n)
    }

    #[test]
    fn serial_spans_tile_exactly() {
        let spans = [
            Span::new(Component::L2Lookup, ns(0), ns(4)),
            Span::new(Component::Noc, ns(4), ns(11)),
            Span::new(Component::LlcLookup, ns(11), ns(15)),
            Span::new(Component::Noc, ns(15), ns(23)),
        ];
        let att = attribute(ns(0), ns(23), &spans);
        assert_eq!(att.violations, 0);
        assert_eq!(att.overlap, Time::ZERO);
        assert_eq!(att.total(), ns(23));
        assert_eq!(att.end(), Some(ns(23)));
        // Adjacent same-component segments merge.
        assert_eq!(att.segments.len(), 4);
        let per = att.per_component();
        assert_eq!(per[Component::Noc.index()], ns(15));
    }

    #[test]
    fn parallel_blocker_wins_and_overlap_credited() {
        // Data fetch [0,30) hidden under a longer counter fetch [0,33).
        let spans = [
            Span::new(Component::DramRowMiss, ns(0), ns(30)),
            Span::new(Component::CtrFetch, ns(0), ns(33)),
        ];
        let att = attribute(ns(0), ns(33), &spans);
        assert_eq!(
            att.segments,
            vec![Span::new(Component::CtrFetch, ns(0), ns(33))]
        );
        assert_eq!(att.overlap, ns(30));
    }

    #[test]
    fn later_longer_span_takes_over() {
        // A span that starts later but ends later becomes the blocker at
        // its start: [0,10) dram vs [4,20) ctr.
        let spans = [
            Span::new(Component::DramRowHit, ns(0), ns(10)),
            Span::new(Component::CtrFetch, ns(4), ns(20)),
        ];
        let att = attribute(ns(0), ns(20), &spans);
        assert_eq!(
            att.segments,
            vec![
                Span::new(Component::DramRowHit, ns(0), ns(4)),
                Span::new(Component::CtrFetch, ns(4), ns(20)),
            ]
        );
        // 10-4 = 6 ns of the dram span ran hidden.
        assert_eq!(att.overlap, ns(6));
    }

    #[test]
    fn gaps_become_other() {
        let spans = [
            Span::new(Component::Noc, ns(0), ns(5)),
            Span::new(Component::Noc, ns(9), ns(12)),
        ];
        let att = attribute(ns(0), ns(14), &spans);
        assert_eq!(
            att.segments,
            vec![
                Span::new(Component::Noc, ns(0), ns(5)),
                Span::new(Component::Other, ns(5), ns(9)),
                Span::new(Component::Noc, ns(9), ns(12)),
                Span::new(Component::Other, ns(12), ns(14)),
            ]
        );
        assert_eq!(att.total(), ns(14));
        assert_eq!(att.violations, 0);
    }

    #[test]
    fn out_of_window_spans_are_clamped_and_flagged() {
        let spans = [
            Span::new(Component::Aes, ns(0), ns(30)), // past t_end
            Span::new(Component::Noc, ns(5), ns(3)),  // inverted
        ];
        let att = attribute(ns(0), ns(20), &spans);
        assert_eq!(att.violations, 2);
        assert_eq!(att.total(), ns(20));
        assert_eq!(att.end(), Some(ns(20)));
    }

    #[test]
    fn empty_window_is_empty() {
        let att = attribute(ns(5), ns(5), &[]);
        assert!(att.segments.is_empty());
        assert_eq!(att.total(), Time::ZERO);
        assert_eq!(att.violations, 0);
    }

    #[test]
    fn recorder_ring_evicts_oldest() {
        let mut r = TraceRecorder::with_capacity(2);
        let att = attribute(ns(0), ns(1), &[]);
        for i in 0..3u64 {
            r.record(0, i, ns(0), ns(1), &[], &att);
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 1);
        let lines: Vec<u64> = r.traces().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2]);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = TraceRecorder::disabled();
        let att = attribute(ns(0), ns(1), &[]);
        r.record(0, 1, ns(0), ns(1), &[], &att);
        assert!(r.is_empty());
    }

    #[test]
    fn chrome_json_shape() {
        let mut r = TraceRecorder::with_capacity(4);
        let spans = [Span::new(Component::DramRowMiss, ns(0), ns(30))];
        let att = attribute(ns(0), ns(31), &spans);
        r.record(3, 0xABC, ns(0), ns(31), &spans, &att);
        let json = r.chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"));
        assert!(json.ends_with("\n]}\n"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"dram_row_miss\""));
        assert!(json.contains("\"pid\":3"));
        // 30 ns = 0.03 us, with fixed ps precision.
        assert!(json.contains("\"dur\":0.030000"));
        // Braces balance (cheap well-formedness check; CI runs a real
        // JSON parser over the exported file).
        let open = json.matches(['{', '[']).count();
        let close = json.matches(['}', ']']).count();
        assert_eq!(open, close);
    }
}
