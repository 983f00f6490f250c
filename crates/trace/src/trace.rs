use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::{Series, SignalId, TraceError};

/// A multi-signal recording of one run: the unit the offline assertion
/// checker consumes.
///
/// Signals are created lazily on first [`Trace::record`]. Iteration order is
/// stable (sorted by signal name) so reports and CSV exports are
/// reproducible.
///
/// # Example
///
/// ```
/// use adassure_trace::Trace;
///
/// let mut trace = Trace::new();
/// trace.record("speed", 0.0, 4.0);
/// trace.record("speed", 0.1, 4.2);
/// trace.record("steer_cmd", 0.0, 0.01);
/// assert_eq!(trace.signal_count(), 2);
/// assert_eq!(trace.series_by_name("speed").unwrap().len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    series: BTreeMap<SignalId, Series>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Records one sample of `signal` at time `time`.
    ///
    /// Non-finite samples and non-monotonic timestamps are silently dropped;
    /// use [`Trace::try_record`] when the caller wants to observe those
    /// conditions. Dropping (rather than panicking) is deliberate: a trace
    /// recorder embedded in a control loop must never take the loop down.
    pub fn record(&mut self, signal: impl Into<SignalId>, time: f64, value: f64) {
        let _ = self.try_record(signal, time, value);
    }

    /// Records one sample, reporting invariant violations.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::NonMonotonicTime`] or
    /// [`TraceError::NonFiniteSample`] as produced by [`Series::push`].
    pub fn try_record(
        &mut self,
        signal: impl Into<SignalId>,
        time: f64,
        value: f64,
    ) -> Result<(), TraceError> {
        let id = signal.into();
        self.series
            .entry(id.clone())
            .or_insert_with(|| Series::new(id))
            .push(time, value)
    }

    /// Number of distinct signals.
    pub fn signal_count(&self) -> usize {
        self.series.len()
    }

    /// Whether the trace holds no signals.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// The series recorded for `signal`, if present.
    pub fn series(&self, signal: &SignalId) -> Option<&Series> {
        self.series.get(signal)
    }

    /// The series recorded for a signal name, if present.
    pub fn series_by_name(&self, name: &str) -> Option<&Series> {
        self.series.get(name)
    }

    /// The series recorded for `signal`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::UnknownSignal`] if absent.
    pub fn require(&self, name: &str) -> Result<&Series, TraceError> {
        self.series_by_name(name)
            .ok_or_else(|| TraceError::UnknownSignal(name.to_owned()))
    }

    /// Inserts (or replaces) a whole series.
    pub fn insert_series(&mut self, series: Series) {
        self.series.insert(series.id().clone(), series);
    }

    /// Iterates over all series, sorted by signal name.
    pub fn iter(&self) -> impl Iterator<Item = &Series> {
        self.series.values()
    }

    /// All signal ids, sorted by name.
    pub fn signals(&self) -> impl Iterator<Item = &SignalId> {
        self.series.keys()
    }

    /// Overall time span `(start, end)` across all series, if any samples
    /// exist.
    pub fn span(&self) -> Option<(f64, f64)> {
        let mut acc: Option<(f64, f64)> = None;
        for s in self.series.values() {
            if let Some((a, b)) = s.span() {
                acc = Some(match acc {
                    None => (a, b),
                    Some((lo, hi)) => (lo.min(a), hi.max(b)),
                });
            }
        }
        acc
    }

    /// Duration of the trace (s); zero when empty.
    pub fn duration(&self) -> f64 {
        self.span().map_or(0.0, |(a, b)| b - a)
    }

    /// Whether all non-empty series share identical timestamp grids.
    ///
    /// Traces recorded by the simulation engine are aligned by construction;
    /// this check guards the aligned fast paths (CSV export, row views).
    pub fn is_aligned(&self) -> bool {
        let mut grids = self
            .series
            .values()
            .filter(|s| !s.is_empty())
            .map(|s| s.samples());
        let Some(reference) = grids.next() else {
            return true;
        };
        grids.all(|g| {
            g.len() == reference.len() && g.iter().zip(reference).all(|(a, b)| a.time == b.time)
        })
    }

    /// Restricts every series to `start <= t <= end`.
    pub fn slice_time(&self, start: f64, end: f64) -> Trace {
        Trace {
            series: self
                .series
                .iter()
                .map(|(id, s)| (id.clone(), s.slice_time(start, end)))
                .collect(),
        }
    }

    /// Total number of samples across all series.
    pub fn sample_count(&self) -> usize {
        self.series.values().map(Series::len).sum()
    }

    /// Releases the spare capacity every series grew while recording.
    pub fn shrink_to_fit(&mut self) {
        self.series.values_mut().for_each(Series::shrink_to_fit);
    }
}

impl FromIterator<Series> for Trace {
    fn from_iter<I: IntoIterator<Item = Series>>(iter: I) -> Self {
        let mut trace = Trace::new();
        for s in iter {
            trace.insert_series(s);
        }
        trace
    }
}

impl Extend<Series> for Trace {
    fn extend<I: IntoIterator<Item = Series>>(&mut self, iter: I) {
        for s in iter {
            self.insert_series(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aligned_trace() -> Trace {
        let mut t = Trace::new();
        for i in 0..5 {
            let time = f64::from(i) * 0.1;
            t.record("a", time, f64::from(i));
            t.record("b", time, f64::from(i) * 2.0);
        }
        t
    }

    #[test]
    fn record_creates_signals_lazily() {
        let t = aligned_trace();
        assert_eq!(t.signal_count(), 2);
        assert_eq!(t.sample_count(), 10);
    }

    #[test]
    fn record_drops_bad_samples_silently() {
        let mut t = Trace::new();
        t.record("a", 0.0, 1.0);
        t.record("a", 0.0, 2.0); // duplicate time: dropped
        t.record("a", f64::NAN, 2.0); // non-finite: dropped
        assert_eq!(t.series_by_name("a").unwrap().len(), 1);
        assert!(t.try_record("a", 0.0, 9.0).is_err());
    }

    #[test]
    fn require_reports_unknown_signal() {
        let t = aligned_trace();
        assert!(t.require("a").is_ok());
        assert!(matches!(
            t.require("zzz"),
            Err(TraceError::UnknownSignal(name)) if name == "zzz"
        ));
    }

    #[test]
    fn span_and_duration_cover_all_series() {
        let mut t = aligned_trace();
        t.record("late", 1.0, 0.0);
        let (a, b) = t.span().unwrap();
        assert_eq!(a, 0.0);
        assert_eq!(b, 1.0);
        assert!((t.duration() - 1.0).abs() < 1e-12);
        assert_eq!(Trace::new().duration(), 0.0);
    }

    #[test]
    fn alignment_detection() {
        let mut t = aligned_trace();
        assert!(t.is_aligned());
        t.record("c", 0.05, 1.0);
        assert!(!t.is_aligned());
        assert!(Trace::new().is_aligned());
    }

    #[test]
    fn slice_time_restricts_all_series() {
        let t = aligned_trace();
        let sliced = t.slice_time(0.15, 0.35);
        assert_eq!(sliced.series_by_name("a").unwrap().len(), 2);
        assert_eq!(sliced.series_by_name("b").unwrap().len(), 2);
    }

    #[test]
    fn from_iterator_collects_series() {
        let s1 = Series::from_samples("x", [(0.0, 1.0)]).unwrap();
        let s2 = Series::from_samples("y", [(0.0, 2.0)]).unwrap();
        let t: Trace = [s1, s2].into_iter().collect();
        assert_eq!(t.signal_count(), 2);
    }

    #[test]
    fn signals_iterate_sorted() {
        let mut t = Trace::new();
        t.record("zeta", 0.0, 0.0);
        t.record("alpha", 0.0, 0.0);
        let names: Vec<_> = t.signals().map(SignalId::as_str).collect();
        assert_eq!(names, ["alpha", "zeta"]);
    }
}
