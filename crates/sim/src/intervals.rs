//! Sets of disjoint time intervals, used for overlap accounting.
//!
//! The paper's Figure 8 reports the proportion of *non-overlapped*
//! communication time — communication during which the GPU's compute engine
//! sits idle. [`IntervalSet`] supports exactly the operations needed to
//! measure that: insertion with merging, union, intersection, and difference.

use crate::SimTime;

/// A set of disjoint, sorted, half-open intervals `[start, end)` of
/// simulated time.
///
/// # Examples
///
/// ```
/// use mobius_sim::{IntervalSet, SimTime};
///
/// let mut s = IntervalSet::new();
/// s.insert(SimTime::from_secs(0), SimTime::from_secs(2));
/// s.insert(SimTime::from_secs(1), SimTime::from_secs(3)); // merges
/// assert_eq!(s.measure(), SimTime::from_secs(3));
/// assert_eq!(s.spans().len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntervalSet {
    // Invariant: sorted by start, non-overlapping, non-touching, start < end.
    spans: Vec<(SimTime, SimTime)>,
}

impl IntervalSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `[start, end)`, merging with any overlapping or touching
    /// spans. Empty or inverted intervals are ignored.
    pub fn insert(&mut self, start: SimTime, end: SimTime) {
        if end <= start {
            return;
        }
        // Recordings arrive nearly in time order: a span starting inside or
        // after the last one touches no other.
        if let Some(last) = self.spans.last_mut() {
            if start > last.1 {
                self.spans.push((start, end));
                return;
            }
            if start >= last.0 {
                last.1 = last.1.max(end);
                return;
            }
        }
        // Find insertion window: all spans overlapping or touching [start, end).
        let lo = self.spans.partition_point(|&(_, e)| e < start);
        let hi = self.spans.partition_point(|&(s, _)| s <= end);
        if lo == hi {
            self.spans.insert(lo, (start, end));
            return;
        }
        let new_start = self.spans[lo].0.min(start);
        let new_end = self.spans[hi - 1].1.max(end);
        self.spans.splice(lo..hi, [(new_start, new_end)]);
    }

    /// Total measure (sum of span lengths).
    pub fn measure(&self) -> SimTime {
        self.spans.iter().map(|&(s, e)| e - s).sum()
    }

    /// The disjoint spans, sorted.
    pub fn spans(&self) -> &[(SimTime, SimTime)] {
        &self.spans
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Earliest covered instant, if any.
    pub fn start(&self) -> Option<SimTime> {
        self.spans.first().map(|&(s, _)| s)
    }

    /// Latest covered instant, if any.
    pub fn end(&self) -> Option<SimTime> {
        self.spans.last().map(|&(_, e)| e)
    }

    /// Set union.
    pub fn union(&self, other: &IntervalSet) -> IntervalSet {
        let mut out = self.clone();
        for &(s, e) in &other.spans {
            out.insert(s, e);
        }
        out
    }

    /// Set intersection.
    pub fn intersect(&self, other: &IntervalSet) -> IntervalSet {
        let mut out = IntervalSet::new();
        let (mut i, mut j) = (0, 0);
        while i < self.spans.len() && j < other.spans.len() {
            let (a_s, a_e) = self.spans[i];
            let (b_s, b_e) = other.spans[j];
            let s = a_s.max(b_s);
            let e = a_e.min(b_e);
            if s < e {
                out.spans.push((s, e));
            }
            if a_e <= b_e {
                i += 1;
            } else {
                j += 1;
            }
        }
        out
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &IntervalSet) -> IntervalSet {
        let mut out = IntervalSet::new();
        let mut j = 0;
        for &(s, e) in &self.spans {
            let mut cur = s;
            while j < other.spans.len() && other.spans[j].1 <= cur {
                j += 1;
            }
            let mut k = j;
            while k < other.spans.len() && other.spans[k].0 < e {
                let (b_s, b_e) = other.spans[k];
                if b_s > cur {
                    out.spans.push((cur, b_s.min(e)));
                }
                cur = cur.max(b_e);
                if cur >= e {
                    break;
                }
                k += 1;
            }
            if cur < e {
                out.spans.push((cur, e));
            }
        }
        out
    }
}

impl FromIterator<(SimTime, SimTime)> for IntervalSet {
    fn from_iter<I: IntoIterator<Item = (SimTime, SimTime)>>(iter: I) -> Self {
        let mut s = IntervalSet::new();
        for (a, b) in iter {
            s.insert(a, b);
        }
        s
    }
}

impl Extend<(SimTime, SimTime)> for IntervalSet {
    fn extend<I: IntoIterator<Item = (SimTime, SimTime)>>(&mut self, iter: I) {
        for (a, b) in iter {
            self.insert(a, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: u64) -> SimTime {
        SimTime::from_secs(x)
    }

    fn set(spans: &[(u64, u64)]) -> IntervalSet {
        spans.iter().map(|&(a, b)| (s(a), s(b))).collect()
    }

    /// The index of the first span that breaks the structural invariant
    /// (each span non-empty; spans sorted, disjoint and non-touching),
    /// checked independently of `insert`'s merging.
    fn first_malformed(set: &IntervalSet) -> Option<usize> {
        let mut prev_end: Option<SimTime> = None;
        for (i, &(start, end)) in set.spans.iter().enumerate() {
            if start >= end || prev_end.is_some_and(|pe| start <= pe) {
                return Some(i);
            }
            prev_end = Some(end);
        }
        None
    }

    #[test]
    fn malformed_interval_sets_are_caught() {
        let raw = |spans: &[(u64, u64)]| IntervalSet {
            spans: spans.iter().map(|&(a, b)| (s(a), s(b))).collect(),
        };
        assert_eq!(first_malformed(&raw(&[(0, 1), (2, 3)])), None);
        assert_eq!(first_malformed(&raw(&[(1, 1)])), Some(0), "empty span");
        assert_eq!(
            first_malformed(&raw(&[(0, 1), (1, 2)])),
            Some(1),
            "touching"
        );
        assert_eq!(
            first_malformed(&raw(&[(5, 6), (0, 1)])),
            Some(1),
            "unsorted"
        );
    }

    #[test]
    fn insert_preserves_invariants_under_strict_check() {
        let t = SimTime::from_millis;
        let mut v = IntervalSet::new();
        for (a, b) in [(0, 10), (20, 30), (5, 25), (40, 40), (50, 45), (29, 41)] {
            v.insert(t(a), t(b));
            assert_eq!(first_malformed(&v), None, "after inserting [{a}, {b})");
        }
    }

    #[test]
    fn insert_merges_overlapping() {
        let v = set(&[(0, 2), (1, 3), (5, 6)]);
        assert_eq!(v.spans(), &[(s(0), s(3)), (s(5), s(6))]);
        assert_eq!(v.measure(), s(4));
    }

    #[test]
    fn insert_merges_touching() {
        let v = set(&[(0, 1), (1, 2)]);
        assert_eq!(v.spans(), &[(s(0), s(2))]);
    }

    #[test]
    fn insert_out_of_order() {
        let v = set(&[(8, 9), (0, 1), (4, 5)]);
        assert_eq!(v.spans(), &[(s(0), s(1)), (s(4), s(5)), (s(8), s(9))]);
    }

    #[test]
    fn empty_interval_ignored() {
        let v = set(&[(3, 3), (5, 4)]);
        assert!(v.is_empty());
    }

    #[test]
    fn insert_bridging_many() {
        let v = set(&[(0, 1), (2, 3), (4, 5), (1, 4)]);
        assert_eq!(v.spans(), &[(s(0), s(5))]);
    }

    #[test]
    fn intersection() {
        let a = set(&[(0, 5), (10, 15)]);
        let b = set(&[(3, 12)]);
        assert_eq!(a.intersect(&b), set(&[(3, 5), (10, 12)]));
    }

    #[test]
    fn difference_carves_holes() {
        let a = set(&[(0, 10)]);
        let b = set(&[(2, 3), (5, 7)]);
        assert_eq!(a.difference(&b), set(&[(0, 2), (3, 5), (7, 10)]));
    }

    #[test]
    fn difference_with_disjoint_is_identity() {
        let a = set(&[(0, 1)]);
        let b = set(&[(5, 6)]);
        assert_eq!(a.difference(&b), a);
    }

    #[test]
    fn difference_total() {
        let a = set(&[(2, 4)]);
        let b = set(&[(0, 10)]);
        assert!(a.difference(&b).is_empty());
    }

    #[test]
    fn union_measure_inclusion_exclusion() {
        let a = set(&[(0, 5)]);
        let b = set(&[(3, 8)]);
        let u = a.union(&b);
        let i = a.intersect(&b);
        assert_eq!(
            u.measure() + i.measure(),
            a.measure() + b.measure(),
            "|A∪B| + |A∩B| = |A| + |B|"
        );
    }

    #[test]
    fn start_end() {
        let a = set(&[(2, 3), (7, 9)]);
        assert_eq!(a.start(), Some(s(2)));
        assert_eq!(a.end(), Some(s(9)));
    }
}
