//! Importing real spot price history.
//!
//! AWS `describe-spot-price-history` emits *irregular* price-change events
//! (timestamp, instance type, zone, price). The estimation pipeline wants
//! uniformly sampled [`SpotTrace`]s, so this module parses the two common
//! interchange formats (the CLI's tab/space table and CSV exports) and
//! resamples the event stream with last-observation-carried-forward —
//! exactly how the spot price works: a published price holds until the
//! next change.
//!
//! With this, every experiment in the repository can run against genuine
//! AWS history instead of the synthetic generator: build a
//! [`SpotMarket`](crate::market::SpotMarket)
//! by inserting imported traces.

use crate::trace::SpotTrace;
use crate::{Hours, Usd};
use std::collections::BTreeMap;

/// One spot price-change event.
#[derive(Debug, Clone, PartialEq)]
pub struct PriceEvent {
    /// Seconds since an arbitrary epoch (only differences matter).
    pub timestamp_s: f64,
    /// AWS instance type name, e.g. `"m1.medium"`.
    pub instance_type: String,
    /// Availability zone string, e.g. `"us-east-1a"`.
    pub zone: String,
    /// Price, USD/hour.
    pub price: Usd,
}

/// Errors from feed parsing.
#[derive(Debug, Clone, PartialEq)]
pub enum FeedError {
    /// A line had fewer than the four required columns.
    MissingColumns {
        /// 1-based line number.
        line: usize,
    },
    /// A numeric field failed to parse.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// The offending field.
        field: String,
    },
    /// A price that is negative or not finite.
    BadPrice {
        /// 1-based line number ([`parse_feed`]) or event position
        /// ([`resample`]).
        line: usize,
        /// The offending price, USD/hour.
        price: Usd,
    },
    /// A timestamp that is not finite.
    BadTimestamp {
        /// 1-based line number ([`parse_feed`]) or event position
        /// ([`resample`]).
        line: usize,
        /// The offending timestamp, seconds.
        timestamp_s: f64,
    },
    /// No events at all.
    Empty,
    /// A resampling step that is not positive and finite.
    BadStep {
        /// The offending step, hours.
        step_hours: f64,
    },
    /// The events span more than [`MAX_RESAMPLED_SAMPLES`] steps.
    TooManySamples {
        /// Hours from the first to the last event.
        span_hours: f64,
        /// The resampling step, hours.
        step_hours: f64,
    },
}

/// The most samples [`resample`] builds for one trace: 2^22, which is 40
/// years at five-minute steps and 32 MiB of prices. Events spanning more
/// steps are rejected before any allocation.
pub const MAX_RESAMPLED_SAMPLES: usize = 1 << 22;

impl std::fmt::Display for FeedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FeedError::MissingColumns { line } => {
                write!(f, "line {line}: expected `timestamp type zone price`")
            }
            FeedError::BadNumber { line, field } => {
                write!(f, "line {line}: cannot parse number from {field:?}")
            }
            FeedError::BadPrice { line, price } => {
                write!(f, "line {line}: price {price} must be finite and non-negative")
            }
            FeedError::BadTimestamp { line, timestamp_s } => {
                write!(f, "line {line}: timestamp {timestamp_s} must be finite")
            }
            FeedError::Empty => write!(f, "feed contained no events"),
            FeedError::BadStep { step_hours } => {
                write!(f, "resampling step {step_hours} h must be positive and finite")
            }
            FeedError::TooManySamples {
                span_hours,
                step_hours,
            } => write!(
                f,
                "events span {span_hours:.3e} h: more than {MAX_RESAMPLED_SAMPLES} steps of {step_hours} h"
            ),
        }
    }
}

impl std::error::Error for FeedError {}

/// Reject an event whose price is negative or not finite, or whose
/// timestamp is not finite; `line` locates it in the error.
fn check_event(e: &PriceEvent, line: usize) -> Result<(), FeedError> {
    if !e.timestamp_s.is_finite() {
        return Err(FeedError::BadTimestamp {
            line,
            timestamp_s: e.timestamp_s,
        });
    }
    if !(e.price.is_finite() && e.price >= 0.0) {
        return Err(FeedError::BadPrice {
            line,
            price: e.price,
        });
    }
    Ok(())
}

/// Parse a whitespace- or comma-separated feed with columns
/// `timestamp_seconds instance_type zone price`. Lines starting with `#`
/// and blank lines are skipped. Events may arrive in any order. A price
/// that is negative or not finite, or a timestamp that is not finite, is
/// an error that names its line.
pub fn parse_feed(input: &str) -> Result<Vec<PriceEvent>, FeedError> {
    let mut events = Vec::new();
    for (idx, raw) in input.lines().enumerate() {
        let line = idx + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let cols: Vec<&str> = trimmed
            .split(|c: char| c == ',' || c.is_whitespace())
            .filter(|s| !s.is_empty())
            .collect();
        if cols.len() < 4 {
            return Err(FeedError::MissingColumns { line });
        }
        let timestamp_s: f64 = cols[0].parse().map_err(|_| FeedError::BadNumber {
            line,
            field: cols[0].into(),
        })?;
        let price: f64 =
            cols[3]
                .trim_start_matches('$')
                .parse()
                .map_err(|_| FeedError::BadNumber {
                    line,
                    field: cols[3].into(),
                })?;
        let event = PriceEvent {
            timestamp_s,
            instance_type: cols[1].to_string(),
            zone: cols[2].to_string(),
            price,
        };
        check_event(&event, line)?;
        events.push(event);
    }
    if events.is_empty() {
        return Err(FeedError::Empty);
    }
    Ok(events)
}

/// Resample one (type, zone)'s events into a uniform [`SpotTrace`] with
/// last-observation-carried-forward semantics.
///
/// Errors on an empty event list ([`FeedError::Empty`]), a step that is
/// not positive and finite ([`FeedError::BadStep`]), an event that
/// [`parse_feed`] would reject ([`FeedError::BadPrice`],
/// [`FeedError::BadTimestamp`], located by its 1-based position in
/// `events`), or events spanning more than [`MAX_RESAMPLED_SAMPLES`] steps
/// ([`FeedError::TooManySamples`], checked before the trace is
/// allocated). Events before the first
/// sample seed the initial price; the trace spans from the earliest to
/// the latest event timestamp.
pub fn resample(events: &[PriceEvent], step_hours: Hours) -> Result<SpotTrace, FeedError> {
    if !step_hours.is_finite() || step_hours <= 0.0 {
        return Err(FeedError::BadStep { step_hours });
    }
    if events.is_empty() {
        return Err(FeedError::Empty);
    }
    for (i, e) in events.iter().enumerate() {
        check_event(e, i + 1)?;
    }
    let mut sorted: Vec<&PriceEvent> = events.iter().collect();
    sorted.sort_by(|a, b| a.timestamp_s.total_cmp(&b.timestamp_s));
    let t0 = sorted[0].timestamp_s;
    let t1 = sorted[sorted.len() - 1].timestamp_s;
    let span_hours = (t1 - t0) / 3600.0;
    // Finite timestamps can still be 1e300 s apart, and a step can be
    // tiny: the count is checked as a float, before it sizes anything.
    let steps = (span_hours.max(step_hours) / step_hours).ceil();
    if steps > MAX_RESAMPLED_SAMPLES as f64 {
        return Err(FeedError::TooManySamples {
            span_hours,
            step_hours,
        });
    }
    let n = steps as usize;

    let mut prices = Vec::with_capacity(n);
    let mut cursor = 0usize;
    let mut current = sorted[0].price;
    for i in 0..n {
        let sample_time = t0 + i as f64 * step_hours * 3600.0;
        while cursor < sorted.len() && sorted[cursor].timestamp_s <= sample_time {
            current = sorted[cursor].price;
            cursor += 1;
        }
        prices.push(current);
    }
    Ok(SpotTrace::new(step_hours, prices))
}

/// Split a mixed feed into per-(type, zone) traces. The first group, in
/// (type, zone) order, that [`resample`] rejects fails the whole feed.
pub fn traces_by_group(
    events: &[PriceEvent],
    step_hours: Hours,
) -> Result<BTreeMap<(String, String), SpotTrace>, FeedError> {
    let mut buckets: BTreeMap<(String, String), Vec<PriceEvent>> = BTreeMap::new();
    for e in events {
        buckets
            .entry((e.instance_type.clone(), e.zone.clone()))
            .or_default()
            .push(e.clone());
    }
    buckets
        .into_iter()
        .map(|(k, v)| resample(&v, step_hours).map(|t| (k, t)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const FEED: &str = "\
# ts          type       zone        price
0             m1.medium  us-east-1a  0.010
3600          m1.medium  us-east-1a  0.020
10800         m1.medium  us-east-1a  0.005
0             m1.small   us-east-1a  0.004
7200          m1.small   us-east-1a  0.008
";

    #[test]
    fn parses_table_format() {
        let events = parse_feed(FEED).unwrap();
        assert_eq!(events.len(), 5);
        assert_eq!(events[0].instance_type, "m1.medium");
        assert_eq!(events[0].price, 0.010);
    }

    #[test]
    fn parses_csv_and_dollar_signs() {
        let events = parse_feed("0,c3.xlarge,us-east-1b,$0.042\n").unwrap();
        assert_eq!(events[0].price, 0.042);
        assert_eq!(events[0].zone, "us-east-1b");
    }

    #[test]
    fn rejects_malformed_lines() {
        assert_eq!(
            parse_feed("0 m1.small us-east-1a"),
            Err(FeedError::MissingColumns { line: 1 })
        );
        assert!(matches!(
            parse_feed("zero m1.small us-east-1a 0.1"),
            Err(FeedError::BadNumber { line: 1, .. })
        ));
        assert_eq!(parse_feed("# only a comment\n"), Err(FeedError::Empty));
    }

    #[test]
    fn rejects_bad_prices_and_timestamps_naming_the_line() {
        let ok = "0 m1.small us-east-1a 0.01\n";
        assert_eq!(
            parse_feed(&format!("{ok}3600 m1.small us-east-1a -0.5\n")),
            Err(FeedError::BadPrice {
                line: 2,
                price: -0.5
            })
        );
        assert!(matches!(
            parse_feed(&format!("{ok}# note\n3600 m1.small us-east-1a inf\n")),
            Err(FeedError::BadPrice { line: 3, price }) if price == f64::INFINITY
        ));
        assert!(matches!(
            parse_feed(&format!("{ok}NaN m1.small us-east-1a 0.02\n")),
            Err(FeedError::BadPrice { .. } | FeedError::BadTimestamp { line: 2, .. })
        ));
        assert_eq!(
            parse_feed(&format!("{ok}-inf m1.small us-east-1a 0.02\n")),
            Err(FeedError::BadTimestamp {
                line: 2,
                timestamp_s: f64::NEG_INFINITY
            })
        );
        let err = parse_feed("0 m1.small us-east-1a -0.5").unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 1: price -0.5 must be finite and non-negative"
        );
        // A zero price is a (free) price.
        assert!(parse_feed("0 m1.small us-east-1a 0").is_ok());
    }

    #[test]
    fn resample_rejects_spans_past_the_cap_before_allocating() {
        let event = |timestamp_s: f64| PriceEvent {
            timestamp_s,
            instance_type: "m1.small".into(),
            zone: "us-east-1a".into(),
            price: 0.01,
        };
        // A finite but absurd timestamp: 1e300 s of one-hour steps.
        let absurd =
            parse_feed("0 m1.small us-east-1a 0.01\n1e300 m1.small us-east-1a 0.02\n").unwrap();
        assert!(matches!(
            resample(&absurd, 1.0),
            Err(FeedError::TooManySamples { step_hours, .. }) if step_hours == 1.0
        ));
        assert!(matches!(
            traces_by_group(&absurd, 1.0),
            Err(FeedError::TooManySamples { .. })
        ));
        // One step past the cap is rejected; the check never allocates.
        let over = [
            event(0.0),
            event((MAX_RESAMPLED_SAMPLES as f64 + 1.0) * 3600.0),
        ];
        assert!(matches!(
            resample(&over, 1.0),
            Err(FeedError::TooManySamples { .. })
        ));
        // So is a tiny step over a short span, and the widest finite span.
        let short = [event(0.0), event(3600.0)];
        assert!(matches!(
            resample(&short, 1e-300),
            Err(FeedError::TooManySamples { .. })
        ));
        let widest = [event(-f64::MAX), event(f64::MAX)];
        assert!(matches!(
            resample(&widest, 1.0),
            Err(FeedError::TooManySamples { .. })
        ));
        assert!(matches!(
            resample(&short, f64::INFINITY),
            Err(FeedError::BadStep { .. })
        ));
        // Hand-built events get the parser's checks, located by position.
        let mut negative = event(7200.0);
        negative.price = -0.5;
        assert_eq!(
            resample(&[event(0.0), negative], 1.0),
            Err(FeedError::BadPrice {
                line: 2,
                price: -0.5
            })
        );
    }

    #[test]
    fn resample_carries_last_observation_forward() {
        let events = parse_feed(FEED).unwrap();
        let groups = traces_by_group(&events, 1.0).unwrap();
        let t = &groups[&("m1.medium".to_string(), "us-east-1a".to_string())];
        // Events at 0 h ($0.010), 1 h ($0.020), 3 h ($0.005); span 3 h.
        assert_eq!(t.price_at(0.0), 0.010);
        assert_eq!(t.price_at(0.9), 0.010);
        assert_eq!(t.price_at(1.0), 0.020);
        assert_eq!(t.price_at(2.5), 0.020);
    }

    #[test]
    fn resample_handles_unsorted_events() {
        let mut events = parse_feed(FEED).unwrap();
        events.reverse();
        let t = resample(
            &events
                .iter()
                .filter(|e| e.instance_type == "m1.medium")
                .cloned()
                .collect::<Vec<_>>(),
            0.5,
        )
        .unwrap();
        assert_eq!(t.price_at(0.0), 0.010);
        assert_eq!(t.price_at(1.2), 0.020);
    }

    #[test]
    fn groups_are_split_correctly() {
        let events = parse_feed(FEED).unwrap();
        let groups = traces_by_group(&events, 1.0).unwrap();
        assert_eq!(groups.len(), 2);
        assert!(groups.contains_key(&("m1.small".to_string(), "us-east-1a".to_string())));
    }

    #[test]
    fn imported_trace_feeds_the_estimator() {
        // The whole point: a real feed slots straight into estimation.
        let events = parse_feed(FEED).unwrap();
        let groups = traces_by_group(&events, 0.25).unwrap();
        let t = &groups[&("m1.medium".to_string(), "us-east-1a".to_string())];
        let est = crate::failure::FailureEstimator::from_window(t.window(0.0, f64::INFINITY));
        let f = est.failure_rate_exact(0.015, 2);
        // Bidding $0.015 must fail when the price hits $0.020.
        assert!(f.prob_fail() > 0.0);
    }

    #[test]
    fn resample_rejects_bad_inputs_without_panicking() {
        let events = parse_feed(FEED).unwrap();
        assert_eq!(resample(&[], 1.0), Err(FeedError::Empty));
        assert_eq!(
            resample(&events, 0.0),
            Err(FeedError::BadStep { step_hours: 0.0 })
        );
        assert_eq!(
            resample(&events, -1.0),
            Err(FeedError::BadStep { step_hours: -1.0 })
        );
        assert!(resample(&events, f64::NAN).is_err());
    }

    #[test]
    fn single_event_yields_minimal_trace() {
        let t = resample(
            &[PriceEvent {
                timestamp_s: 50.0,
                instance_type: "x".into(),
                zone: "z".into(),
                price: 0.3,
            }],
            1.0,
        )
        .unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.price_at(0.0), 0.3);
    }
}
