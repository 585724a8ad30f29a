//! Per-class DRAM statistics: queuing delay and bus occupancy.

use emcc_sim::stats::RunningMean;
use emcc_sim::Time;

use crate::request::RequestClass;

/// Statistics for one (class, direction) bucket.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BucketStats {
    /// Completed requests.
    pub count: u64,
    /// Queuing delay in ns: enqueue → first DRAM command (the paper's
    /// Figure 22 definition).
    pub queuing_ns: RunningMean,
    /// Data-bus busy time attributable to this bucket.
    pub bus_busy: Time,
}

impl BucketStats {
    fn merge(&mut self, other: &BucketStats) {
        self.count += other.count;
        self.queuing_ns.merge(&other.queuing_ns);
        self.bus_busy += other.bus_busy;
    }
}

/// Aggregated DRAM statistics, indexed by [`RequestClass`] and direction.
///
/// # Examples
///
/// ```
/// use emcc_dram::{DramStats, RequestClass};
///
/// let s = DramStats::default();
/// assert_eq!(s.bucket(RequestClass::Data, false).count, 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DramStats {
    buckets: [[BucketStats; 2]; 5],
    /// Row-buffer hits among completed accesses.
    pub row_hits: u64,
    /// Row activations (closed-row accesses).
    pub row_opens: u64,
    /// Row conflicts (precharge + activate).
    pub row_conflicts: u64,
}

impl DramStats {
    /// The bucket for a class and direction (`is_write`).
    pub fn bucket(&self, class: RequestClass, is_write: bool) -> &BucketStats {
        &self.buckets[class.index()][usize::from(is_write)]
    }

    pub(crate) fn bucket_mut(&mut self, class: RequestClass, is_write: bool) -> &mut BucketStats {
        &mut self.buckets[class.index()][usize::from(is_write)]
    }

    /// Total completed requests across buckets.
    pub fn total_requests(&self) -> u64 {
        self.buckets.iter().flatten().map(|b| b.count).sum()
    }

    /// Bus busy time for one class (both directions).
    pub fn bus_busy_for(&self, class: RequestClass) -> Time {
        self.buckets[class.index()].iter().map(|b| b.bus_busy).sum()
    }

    /// Completed request count for one class (both directions).
    pub fn count_for(&self, class: RequestClass) -> u64 {
        self.buckets[class.index()].iter().map(|b| b.count).sum()
    }

    /// Merges another stats block (used to aggregate channels).
    pub fn merge(&mut self, other: &DramStats) {
        for (mine, theirs) in self
            .buckets
            .iter_mut()
            .flatten()
            .zip(other.buckets.iter().flatten())
        {
            mine.merge(theirs);
        }
        self.row_hits += other.row_hits;
        self.row_opens += other.row_opens;
        self.row_conflicts += other.row_conflicts;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_start_empty() {
        let s = DramStats::default();
        assert_eq!(s.total_requests(), 0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = DramStats::default();
        a.bucket_mut(RequestClass::Data, false).count = 3;
        a.bucket_mut(RequestClass::Data, false).bus_busy = Time::from_ns(10);
        let mut b = DramStats::default();
        b.bucket_mut(RequestClass::Data, false).count = 4;
        b.bucket_mut(RequestClass::Counter, true).count = 1;
        b.row_hits = 2;
        a.merge(&b);
        assert_eq!(a.bucket(RequestClass::Data, false).count, 7);
        assert_eq!(a.bucket(RequestClass::Counter, true).count, 1);
        assert_eq!(a.total_requests(), 8);
        assert_eq!(a.row_hits, 2);
        assert_eq!(a.bus_busy_for(RequestClass::Data), Time::from_ns(10));
    }

    #[test]
    fn count_for_sums_directions() {
        let mut s = DramStats::default();
        s.bucket_mut(RequestClass::Counter, false).count = 2;
        s.bucket_mut(RequestClass::Counter, true).count = 5;
        assert_eq!(s.count_for(RequestClass::Counter), 7);
    }
}
