//! Shared construction helpers for CLI commands: markets (synthetic or
//! from a feed file) driven by flags. Application and problem
//! construction lives in `sompi-server::service`, shared with the
//! planner daemon.

use crate::args::{ArgError, Args};
use ec2_market::instance::InstanceCatalog;
use ec2_market::market::{CircleGroupId, SpotMarket};
use ec2_market::tracegen::{MarketProfile, TraceGenerator};
use ec2_market::zone::AvailabilityZone;

/// Command errors: argument problems or domain failures.
#[derive(Debug)]
pub enum CliError {
    /// Argument parsing/validation failed.
    Arg(ArgError),
    /// Anything else, already formatted.
    Other(String),
}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Arg(e)
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Arg(e) => write!(f, "{e}"),
            CliError::Other(s) => write!(f, "{s}"),
        }
    }
}

/// Build a market from flags: either `--feed <file>` (AWS price history)
/// or a synthetic one from `--seed` / `--hours`.
pub fn market_from(args: &Args) -> Result<SpotMarket, CliError> {
    let step = args.f64_or("step", 1.0 / 12.0)?;
    if let Some(path) = args.get("feed") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Other(format!("cannot read {path}: {e}")))?;
        let events =
            ec2_market::feed::parse_feed(&text).map_err(|e| CliError::Other(e.to_string()))?;
        let catalog = InstanceCatalog::paper_2014();
        let mut market = SpotMarket::new(catalog.clone());
        let traces = ec2_market::feed::traces_by_group(&events, step)
            .map_err(|e| CliError::Other(e.to_string()))?;
        for ((ty_name, zone_name), trace) in traces {
            let Some(ty) = catalog.by_name(&ty_name) else {
                return Err(CliError::Other(format!(
                    "feed references unknown instance type {ty_name:?}"
                )));
            };
            let zone = parse_zone(&zone_name)?;
            market.insert(CircleGroupId::new(ty, zone), trace);
        }
        if market.is_empty() {
            return Err(CliError::Other("feed produced no traces".into()));
        }
        Ok(market)
    } else {
        let seed = args.u64_or("seed", 42)?;
        let hours = args.f64_or("hours", 336.0)?;
        let catalog = InstanceCatalog::paper_2014();
        let profile = MarketProfile::paper_2014(&catalog);
        Ok(SpotMarket::generate(
            catalog,
            &TraceGenerator::new(profile, seed),
            hours,
            step,
        ))
    }
}

fn parse_zone(name: &str) -> Result<AvailabilityZone, CliError> {
    match name {
        "us-east-1a" => Ok(AvailabilityZone::UsEast1a),
        "us-east-1b" => Ok(AvailabilityZone::UsEast1b),
        "us-east-1c" => Ok(AvailabilityZone::UsEast1c),
        other => other
            .strip_prefix("us-east-1x")
            .and_then(|n| n.parse().ok())
            .map(AvailabilityZone::Other)
            .ok_or_else(|| CliError::Other(format!("unknown availability zone {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Args {
        Args::parse(&s.iter().map(|x| x.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn synthetic_market_by_default() {
        let m = market_from(&args(&["--hours", "72", "--seed", "5"])).unwrap();
        assert_eq!(m.len(), 15);
        assert!((m.horizon() - 72.0).abs() < 1.0);
    }

    #[test]
    fn feed_market_from_file() {
        let dir = std::env::temp_dir().join("sompi-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("feed.txt");
        std::fs::write(
            &path,
            "0 m1.small us-east-1a 0.01\n7200 m1.small us-east-1a 0.02\n",
        )
        .unwrap();
        let m = market_from(&args(&["--feed", path.to_str().unwrap()])).unwrap();
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn feed_with_bad_values_errors_without_panicking() {
        let dir = std::env::temp_dir().join("sompi-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        for (name, feed, want) in [
            (
                "negative.txt",
                "0 m1.small us-east-1a 0.01\n3600 m1.small us-east-1a -0.5\n",
                "line 2: price -0.5",
            ),
            (
                "far.txt",
                "0 m1.small us-east-1a 0.01\n1e300 m1.small us-east-1a 0.02\n",
                "steps of",
            ),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, feed).unwrap();
            let err = market_from(&args(&["--feed", path.to_str().unwrap()])).unwrap_err();
            assert!(err.to_string().contains(want), "{name}: {err}");
        }
    }

    #[test]
    fn feed_with_unknown_type_errors() {
        let dir = std::env::temp_dir().join("sompi-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.txt");
        std::fs::write(&path, "0 z9.mega us-east-1a 0.01\n").unwrap();
        assert!(market_from(&args(&["--feed", path.to_str().unwrap()])).is_err());
    }
}
