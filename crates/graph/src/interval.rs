//! Inclusive query time intervals `[τ_b, τ_e]`.

use crate::types::Timestamp;
use std::fmt;

/// An inclusive time interval `[begin, end]` (`τ_b ≤ τ_e`).
///
/// The *span* of the interval is `θ = τ_e − τ_b + 1`, which bounds the length
/// of any strict temporal path inside the interval (Remark 1 in the paper).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimeInterval {
    begin: Timestamp,
    end: Timestamp,
}

impl TimeInterval {
    /// Creates the interval `[begin, end]`.
    ///
    /// # Panics
    ///
    /// Panics if `begin > end`.
    #[inline]
    pub fn new(begin: Timestamp, end: Timestamp) -> Self {
        assert!(begin <= end, "invalid interval: begin={begin} > end={end}");
        Self { begin, end }
    }

    /// Creates the interval `[begin, end]`, returning `None` if `begin > end`.
    #[inline]
    pub fn try_new(begin: Timestamp, end: Timestamp) -> Option<Self> {
        (begin <= end).then_some(Self { begin, end })
    }

    /// Interval covering a single timestamp.
    #[inline]
    pub fn point(t: Timestamp) -> Self {
        Self { begin: t, end: t }
    }

    /// Left endpoint `τ_b`.
    #[inline]
    pub const fn begin(&self) -> Timestamp {
        self.begin
    }

    /// Right endpoint `τ_e`.
    #[inline]
    pub const fn end(&self) -> Timestamp {
        self.end
    }

    /// Span `θ = τ_e − τ_b + 1`, saturating at `i64::MAX`.
    ///
    /// Saturation matters: extreme windows such as `[i64::MIN, i64::MAX]`
    /// are representable, and `end − begin + 1` on them overflows — a panic
    /// in debug builds and a *negative* span in release builds, which would
    /// silently invert every span comparison built on it.
    #[inline]
    pub const fn span(&self) -> i64 {
        self.end.saturating_sub(self.begin).saturating_add(1)
    }

    /// Returns `true` if `t ∈ [τ_b, τ_e]`.
    #[inline]
    pub const fn contains(&self, t: Timestamp) -> bool {
        self.begin <= t && t <= self.end
    }

    /// Returns `true` if `other` is fully contained in `self`.
    #[inline]
    pub const fn contains_interval(&self, other: &TimeInterval) -> bool {
        self.begin <= other.begin && other.end <= self.end
    }

    /// Intersection of two intervals, if non-empty.
    #[inline]
    pub fn intersect(&self, other: &TimeInterval) -> Option<TimeInterval> {
        TimeInterval::try_new(self.begin.max(other.begin), self.end.min(other.end))
    }

    /// Returns `true` if the two intervals share at least one timestamp.
    #[inline]
    pub fn overlaps(&self, other: &TimeInterval) -> bool {
        self.begin.max(other.begin) <= self.end.min(other.end)
    }

    /// Returns `true` if the *union* of the two intervals is itself a
    /// single interval over the integer timestamp domain: they overlap or
    /// are adjacent (`[0, 5]` and `[6, 12]` cover every timestamp of
    /// `[0, 12]`).
    #[inline]
    pub fn union_is_interval(&self, other: &TimeInterval) -> bool {
        self.begin.max(other.begin) <= self.end.min(other.end).saturating_add(1)
    }

    /// The smallest interval containing both: `[min begin, max end]`.
    ///
    /// This is the interval hull of the pair; when
    /// [`TimeInterval::union_is_interval`] holds it equals the exact union.
    #[inline]
    pub fn hull(&self, other: &TimeInterval) -> TimeInterval {
        TimeInterval { begin: self.begin.min(other.begin), end: self.end.max(other.end) }
    }

    /// The interval `[τ_b, upper]`; used for prefix windows such as the
    /// `[τ_b, τ_i]` windows of forward time-stream common vertices.
    #[inline]
    pub fn with_end(&self, upper: Timestamp) -> Option<TimeInterval> {
        TimeInterval::try_new(self.begin, upper.min(self.end))
    }

    /// The interval `[lower, τ_e]`; used for suffix windows such as the
    /// `[τ_j, τ_e]` windows of backward time-stream common vertices.
    #[inline]
    pub fn with_begin(&self, lower: Timestamp) -> Option<TimeInterval> {
        TimeInterval::try_new(lower.max(self.begin), self.end)
    }
}

impl fmt::Debug for TimeInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.begin, self.end)
    }
}

impl fmt::Display for TimeInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.begin, self.end)
    }
}

impl From<(Timestamp, Timestamp)> for TimeInterval {
    fn from((b, e): (Timestamp, Timestamp)) -> Self {
        Self::new(b, e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_and_contains() {
        let w = TimeInterval::new(2, 7);
        assert_eq!(w.span(), 6);
        assert!(w.contains(2));
        assert!(w.contains(7));
        assert!(!w.contains(1));
        assert!(!w.contains(8));
    }

    #[test]
    fn point_interval() {
        let w = TimeInterval::point(5);
        assert_eq!(w.span(), 1);
        assert!(w.contains(5));
        assert!(!w.contains(4));
    }

    #[test]
    #[should_panic(expected = "invalid interval")]
    fn invalid_interval_panics() {
        let _ = TimeInterval::new(8, 2);
    }

    #[test]
    fn try_new_rejects_empty() {
        assert!(TimeInterval::try_new(3, 2).is_none());
        assert!(TimeInterval::try_new(3, 3).is_some());
    }

    #[test]
    fn intersect_and_containment() {
        let a = TimeInterval::new(2, 10);
        let b = TimeInterval::new(5, 20);
        assert_eq!(a.intersect(&b), Some(TimeInterval::new(5, 10)));
        assert_eq!(b.intersect(&a), Some(TimeInterval::new(5, 10)));
        let c = TimeInterval::new(11, 12);
        assert_eq!(a.intersect(&c), None);
        assert!(a.contains_interval(&TimeInterval::new(3, 9)));
        assert!(!a.contains_interval(&b));
    }

    #[test]
    fn span_saturates_on_extreme_windows() {
        // `end − begin + 1` overflows on all three of these; the saturating
        // form must return `i64::MAX` instead of panicking or wrapping.
        assert_eq!(TimeInterval::new(i64::MIN, i64::MAX).span(), i64::MAX);
        assert_eq!(TimeInterval::new(i64::MIN, 0).span(), i64::MAX);
        assert_eq!(TimeInterval::new(0, i64::MAX).span(), i64::MAX);
        assert_eq!(TimeInterval::new(i64::MIN, i64::MIN).span(), 1);
        assert_eq!(TimeInterval::new(i64::MAX, i64::MAX).span(), 1);
    }

    #[test]
    fn overlap_adjacency_and_hull() {
        let a = TimeInterval::new(0, 5);
        let b = TimeInterval::new(3, 8);
        let c = TimeInterval::new(6, 12);
        let d = TimeInterval::new(8, 9);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c), "adjacent is not overlapping");
        assert!(a.union_is_interval(&b));
        assert!(a.union_is_interval(&c), "adjacent unions are contiguous");
        assert!(c.union_is_interval(&a), "contiguity is symmetric");
        assert!(!a.union_is_interval(&d), "a gap breaks the union");
        assert_eq!(a.hull(&c), TimeInterval::new(0, 12));
        assert_eq!(b.hull(&a), TimeInterval::new(0, 8));
        assert_eq!(a.hull(&a), a);
        // Saturating adjacency check at the top of the domain.
        let top = TimeInterval::new(i64::MAX - 1, i64::MAX);
        assert!(top.union_is_interval(&TimeInterval::new(i64::MAX, i64::MAX)));
    }

    #[test]
    fn prefix_suffix_windows() {
        let w = TimeInterval::new(2, 7);
        assert_eq!(w.with_end(5), Some(TimeInterval::new(2, 5)));
        assert_eq!(w.with_end(9), Some(TimeInterval::new(2, 7)));
        assert_eq!(w.with_end(1), None);
        assert_eq!(w.with_begin(4), Some(TimeInterval::new(4, 7)));
        assert_eq!(w.with_begin(0), Some(TimeInterval::new(2, 7)));
        assert_eq!(w.with_begin(8), None);
    }
}
