//! Golden-report determinism for the policy tournament.
//!
//! The tournament's JSON is a pure function of its config: the
//! committed fixture pins the exact bytes, and the thread-sweep test
//! pins the stronger invariant that the optimizer thread count never
//! changes a single one of them. If a legitimate model
//! change moves the numbers, regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p sompi-bench --test tournament_golden`.

use sompi_obs::NullRecorder;
use sompi_server::proto::PlanRequest;
use sompi_server::tournament::{run_tournament, TournamentConfig};

const GOLDEN: &str = include_str!("fixtures/tournament_golden.json");

fn golden_config(threads: u32) -> TournamentConfig {
    TournamentConfig {
        policies: vec![
            "ondemand".into(),
            "no-ft".into(),
            "ckpt-only".into(),
            "app-centric".into(),
            "deadline-hedge".into(),
            "sompi".into(),
        ],
        market_seeds: vec![21],
        market_hours: 150.0,
        market_step_hours: 1.0 / 12.0,
        fault_specs: vec![None, Some("storm=0.02x0.5".into())],
        fault_seed: 42,
        replicas: 4,
        mc_seed: 1,
        plan: PlanRequest {
            repeats: 50,
            kappa: 1,
            bid_levels: 2,
            threads,
            ..Default::default()
        },
    }
}

#[test]
fn tournament_report_matches_committed_golden_fixture() {
    let report = run_tournament(&golden_config(1), &NullRecorder, None).expect("tournament runs");
    let json = report.to_json();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/tournament_golden.json"
        );
        std::fs::write(path, format!("{json}\n")).expect("fixture is writable");
        return;
    }
    assert_eq!(
        format!("{json}\n"),
        GOLDEN,
        "tournament JSON drifted from the committed fixture \
         (UPDATE_GOLDEN=1 regenerates if the change is intentional)"
    );
}

#[test]
fn tournament_json_is_identical_across_thread_counts() {
    let single = run_tournament(&golden_config(1), &NullRecorder, None)
        .expect("single-thread tournament runs")
        .to_json();
    let parallel = run_tournament(&golden_config(4), &NullRecorder, None)
        .expect("four-thread tournament runs")
        .to_json();
    assert_eq!(single, parallel, "thread count leaked into the report");
}
