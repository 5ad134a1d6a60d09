//! JSONL (newline-delimited JSON) trace sink and parser.
//!
//! One [`Event`] per line, serialized in serde's external enum
//! representation: `{"PlanSelected":{"source":"spot",...}}`. The format
//! is append-friendly, greppable, and documented with a worked example in
//! `docs/OBSERVABILITY.md`.

use crate::event::{Event, TraceLevel};
use crate::recorder::Recorder;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A [`Recorder`] that appends one JSON line per event to a writer.
///
/// Writes are serialized through a mutex (worker threads may share the
/// recorder); I/O errors do not panic or abort the run — they increment a
/// counter readable via [`JsonlRecorder::write_errors`], because tracing
/// must never take down the computation it observes.
pub struct JsonlRecorder {
    level: TraceLevel,
    out: Mutex<BufWriter<Box<dyn Write + Send>>>,
    write_errors: AtomicU64,
}

impl JsonlRecorder {
    /// Create (truncate) `path` and record events up to `level` into it.
    pub fn create(path: &Path, level: TraceLevel) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self::to_writer(Box::new(file), level))
    }

    /// Record into an arbitrary writer (tests use `Vec<u8>` via a
    /// wrapper; the CLI uses a file).
    pub fn to_writer(out: Box<dyn Write + Send>, level: TraceLevel) -> Self {
        JsonlRecorder {
            level,
            out: Mutex::new(BufWriter::new(out)),
            write_errors: AtomicU64::new(0),
        }
    }

    /// Flush buffered lines to the underlying writer.
    pub fn flush(&self) -> io::Result<()> {
        self.out.lock().unwrap().flush()
    }

    /// Number of events lost to I/O errors so far.
    pub fn write_errors(&self) -> u64 {
        self.write_errors.load(Ordering::Relaxed)
    }
}

impl Drop for JsonlRecorder {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

impl Recorder for JsonlRecorder {
    fn level(&self) -> TraceLevel {
        self.level
    }

    fn record(&self, event: Event) {
        let line = match serde_json::to_string(&event) {
            Ok(line) => line,
            Err(_) => {
                self.write_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        let mut out = self.out.lock().unwrap();
        if writeln!(out, "{line}").is_err() {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Parse a JSONL trace back into events.
///
/// Blank lines are skipped; a malformed line fails the whole parse with
/// its 1-based line number, so schema drift surfaces loudly instead of
/// silently truncating a report.
///
/// ```
/// use sompi_obs::{parse_jsonl, Event};
///
/// let text = concat!(
///     "{\"GroupFailed\":{\"group\":\"g0\",\"at_hours\":4.0,\"saved_fraction\":0.5}}\n",
///     "\n",
///     "{\"RunCompleted\":{\"finisher\":\"on-demand\",\"total_cost\":9.0,\
///       \"spot_cost\":4.0,\"od_cost\":5.0,\"wall_hours\":12.0,\
///       \"met_deadline\":true,\"groups_failed\":1,\"windows\":null,\
///       \"plan_changes\":null}}\n",
/// );
/// let events = parse_jsonl(text).unwrap();
/// assert_eq!(events.len(), 2);
/// assert_eq!(events[1].kind(), "RunCompleted");
/// assert!(parse_jsonl("not json").is_err());
/// ```
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let event: Event =
            serde_json::from_str(line).map_err(|e| format!("line {}: {e} in `{line}`", i + 1))?;
        events.push(event);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::emit;
    use std::sync::{Arc, Mutex as StdMutex};

    /// Shared-buffer writer so the test can read back what the recorder
    /// wrote without touching the filesystem.
    #[derive(Clone)]
    struct SharedBuf(Arc<StdMutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn sample_events() -> Vec<Event> {
        vec![
            Event::OnDemandFallback {
                at_hours: 10.0,
                remaining_fraction: 0.5,
                od_hours: 6.0,
                od_cost: 3.0,
                reason: "all-groups-failed".to_string(),
            },
            Event::CheckpointTaken {
                group: "g1".to_string(),
                at_hours: 8.0,
                count: 4,
                saved_fraction: 0.5,
            },
        ]
    }

    #[test]
    fn recorder_writes_parseable_lines() {
        let buf = SharedBuf(Arc::new(StdMutex::new(Vec::new())));
        let rec = JsonlRecorder::to_writer(Box::new(buf.clone()), TraceLevel::Detail);
        for e in sample_events() {
            rec.record(e);
        }
        rec.flush().unwrap();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 2);
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(back, sample_events());
        assert_eq!(rec.write_errors(), 0);
    }

    #[test]
    fn level_gates_what_reaches_the_file() {
        let buf = SharedBuf(Arc::new(StdMutex::new(Vec::new())));
        let rec = JsonlRecorder::to_writer(Box::new(buf.clone()), TraceLevel::Summary);
        for e in sample_events() {
            let level = e.level();
            emit(&rec, level, || e);
        }
        rec.flush().unwrap();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let back = parse_jsonl(&text).unwrap();
        // CheckpointTaken is Detail; only the Summary fallback lands.
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].kind(), "OnDemandFallback");
    }

    #[test]
    fn parse_reports_line_numbers() {
        let good = serde_json::to_string(&sample_events()[0]).unwrap();
        let text = format!("{good}\n{{broken\n");
        let err = parse_jsonl(&text).unwrap_err();
        assert!(err.starts_with("line 2:"), "unexpected error: {err}");
    }

    #[test]
    fn retired_event_types_fail_with_their_line_number() {
        // Well-formed lines naming a variant this build no longer has
        // (an event type removed since the trace was recorded).
        let good = serde_json::to_string(&sample_events()[0]).unwrap();
        for retired in [
            r#"{"RetiredEvent":{"jobs":2}}"#,
            r#"{"BucketTableReused":{"group":"g2","digest":7,"reused":5,"rebuilt":1}}"#,
        ] {
            let text = format!("{good}\n\n{retired}\n");
            let err = parse_jsonl(&text).unwrap_err();
            assert!(err.starts_with("line 3:"), "unexpected error: {err}");
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("sompi-obs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        {
            let rec = JsonlRecorder::create(&path, TraceLevel::Detail).unwrap();
            for e in sample_events() {
                rec.record(e);
            }
        } // Drop flushes.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(parse_jsonl(&text).unwrap(), sample_events());
        std::fs::remove_dir_all(&dir).ok();
    }
}
