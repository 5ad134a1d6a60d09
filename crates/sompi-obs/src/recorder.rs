//! The [`Recorder`] trait and its in-process implementations.
//!
//! Instrumented code never constructs an [`Event`] unless the active
//! recorder wants it: every emission site goes through [`emit`], which
//! takes a closure and only invokes it when the recorder's level admits
//! the event. With [`NullRecorder`] the whole path is a branch on a
//! constant — no allocation, no formatting, no locking.

use crate::event::{Event, TraceLevel};
use std::collections::VecDeque;
use std::sync::Mutex;

/// A sink for pipeline [`Event`]s.
///
/// Implementations must be `Sync` because Monte-Carlo workers and server
/// workers may share one recorder. `record` takes `&self`; interior mutability is
/// the implementor's concern.
pub trait Recorder: Sync {
    /// Maximum [`TraceLevel`] this recorder wants. Emission sites skip
    /// event construction entirely for levels above this.
    fn level(&self) -> TraceLevel;

    /// Accept one event. Only called with events whose
    /// [`Event::level`] is at or below [`Recorder::level`].
    fn record(&self, event: Event);

    /// Whether events at `level` would be recorded.
    fn enabled(&self, level: TraceLevel) -> bool {
        level <= self.level() && level != TraceLevel::Off
    }
}

/// Construct and record an event only if `recorder` wants `level`.
///
/// The closure runs lazily, so the [`NullRecorder`] path costs one enum
/// comparison and nothing else:
///
/// ```
/// use sompi_obs::{emit, Event, NullRecorder, RingRecorder, TraceLevel};
///
/// let ring = RingRecorder::new(TraceLevel::Summary, 16);
/// emit(&ring, TraceLevel::Summary, || Event::GroupFailed {
///     group: "g0".into(),
///     at_hours: 1.0,
///     saved_fraction: 0.0,
/// });
/// emit(&NullRecorder, TraceLevel::Summary, || unreachable!("never built"));
/// assert_eq!(ring.len(), 1);
/// ```
pub fn emit(recorder: &dyn Recorder, level: TraceLevel, event: impl FnOnce() -> Event) {
    if recorder.enabled(level) {
        recorder.record(event());
    }
}

/// The no-op recorder: level [`TraceLevel::Off`], drops everything.
///
/// This is what the un-instrumented public APIs (`optimize()`, `run()`,
/// ...) pass internally, so the hot paths stay allocation-free — a
/// property `crates/sompi-core/tests/alloc_guard.rs` asserts.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn level(&self) -> TraceLevel {
        TraceLevel::Off
    }

    fn record(&self, _event: Event) {}
}

/// In-memory bounded recorder: keeps the most recent `capacity` events.
///
/// Useful in tests (golden traces) and for post-hoc inspection without
/// touching the filesystem.
///
/// ```
/// use sompi_obs::{Event, Recorder, RingRecorder, TraceLevel};
///
/// let ring = RingRecorder::new(TraceLevel::Detail, 2);
/// for i in 0..3 {
///     ring.record(Event::CheckpointTaken {
///         group: "g0".into(),
///         at_hours: i as f64,
///         count: i,
///         saved_fraction: 0.1 * i as f64,
///     });
/// }
/// // Capacity 2: the first event was evicted.
/// assert_eq!(ring.len(), 2);
/// assert!(matches!(
///     ring.events()[0],
///     Event::CheckpointTaken { at_hours, .. } if at_hours == 1.0
/// ));
/// ```
#[derive(Debug)]
pub struct RingRecorder {
    level: TraceLevel,
    capacity: usize,
    buf: Mutex<VecDeque<Event>>,
}

impl RingRecorder {
    /// A ring accepting events up to `level`, retaining the last
    /// `capacity` of them.
    pub fn new(level: TraceLevel, capacity: usize) -> Self {
        RingRecorder {
            level,
            capacity: capacity.max(1),
            buf: Mutex::new(VecDeque::with_capacity(capacity.clamp(1, 1024))),
        }
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.buf.lock().unwrap().iter().cloned().collect()
    }

    /// Drain the retained events, oldest first, leaving the ring empty.
    pub fn take(&self) -> Vec<Event> {
        self.buf.lock().unwrap().drain(..).collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.lock().unwrap().len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Recorder for RingRecorder {
    fn level(&self) -> TraceLevel {
        self.level
    }

    fn record(&self, event: Event) {
        let mut buf = self.buf.lock().unwrap();
        if buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_hours: f64) -> Event {
        Event::GroupFailed {
            group: "g0".to_string(),
            at_hours,
            saved_fraction: 0.0,
        }
    }

    #[test]
    fn null_recorder_never_constructs_events() {
        let mut built = false;
        emit(&NullRecorder, TraceLevel::Summary, || {
            built = true;
            ev(0.0)
        });
        assert!(!built);
        assert!(!NullRecorder.enabled(TraceLevel::Summary));
        assert!(!NullRecorder.enabled(TraceLevel::Off));
    }

    #[test]
    fn level_gating_filters_detail_events() {
        let ring = RingRecorder::new(TraceLevel::Summary, 8);
        emit(&ring, TraceLevel::Summary, || ev(1.0));
        let mut detail_built = false;
        emit(&ring, TraceLevel::Detail, || {
            detail_built = true;
            ev(2.0)
        });
        assert!(!detail_built);
        assert_eq!(ring.len(), 1);
    }

    #[test]
    fn ring_evicts_oldest_beyond_capacity() {
        let ring = RingRecorder::new(TraceLevel::Detail, 3);
        for i in 0..5 {
            ring.record(ev(i as f64));
        }
        let hours: Vec<f64> = ring
            .events()
            .iter()
            .map(|e| match e {
                Event::GroupFailed { at_hours, .. } => *at_hours,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(hours, vec![2.0, 3.0, 4.0]);
        assert_eq!(ring.take().len(), 3);
        assert!(ring.is_empty());
    }

    #[test]
    fn off_level_ring_records_nothing_via_emit() {
        let ring = RingRecorder::new(TraceLevel::Off, 8);
        emit(&ring, TraceLevel::Summary, || ev(1.0));
        emit(&ring, TraceLevel::Detail, || ev(2.0));
        assert!(ring.is_empty());
    }
}
