//! Golden reports for the planning pipeline end to end.
//!
//! `service::plan` answers for the seven benchmark applications at two
//! replication caps and two deadlines, each against its own seeded
//! 48 h view of a drifting stress market, plus one adaptive
//! `service::replay`. Every number in these reports passes through the
//! history view (`S_i(P)`, `f_i(P, t)`, the launch delay), the
//! assessment, the search and the model evaluation, so the committed
//! fixture pins all of them to the byte. If a legitimate model change
//! moves the numbers, regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p sompi-bench --test plan_golden`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use sompi_bench::setup::stress_market;
use sompi_obs::NullRecorder;
use sompi_server::proto::{PlanRequest, ReplayRequest};
use sompi_server::service::{self, PlanReport, ReplayReport};

const GOLDEN: &str = include_str!("fixtures/plan_golden.json");

const MARKET_SEED: u64 = 5;
const MARKET_HOURS: f64 = 300.0;
const APPS: [&str; 7] = ["BT", "SP", "LU", "FT", "CG", "MG", "LAMMPS"];
const KAPPAS: [u32; 2] = [1, 4];
const DEADLINES: [f64; 2] = [1.2, 2.0];

#[derive(Serialize)]
struct Golden {
    plans: Vec<PlanReport>,
    adaptive: ReplayReport,
}

/// The plan requests in design order, each with a seeded view start
/// anywhere its history fits in the market.
fn plan_requests() -> Vec<PlanRequest> {
    let mut rng = StdRng::seed_from_u64(0x901d);
    let view_max = MARKET_HOURS - 2.0 * PlanRequest::default().history_hours;
    let mut out = Vec::new();
    for app in APPS {
        for kappa in KAPPAS {
            for deadline_factor in DEADLINES {
                out.push(PlanRequest {
                    app: app.into(),
                    kappa,
                    deadline_factor,
                    threads: 1,
                    view_start_hours: rng.gen_range(0.0..view_max),
                    ..Default::default()
                });
            }
        }
    }
    out
}

fn golden_json() -> String {
    let market = stress_market(MARKET_SEED, MARKET_HOURS);
    let plans = plan_requests()
        .iter()
        .map(|req| service::plan(&market, req, &NullRecorder, None).expect("plan succeeds"))
        .collect();
    let adaptive = service::replay(
        &market,
        &ReplayRequest {
            plan: PlanRequest {
                repeats: 2000,
                deadline_factor: 1.5,
                threads: 1,
                ..Default::default()
            },
            replicas: 2,
            mc_seed: 3,
            adaptive: true,
            window_hours: 2.0,
            ..Default::default()
        },
        &NullRecorder,
    )
    .expect("adaptive replay succeeds");
    serde_json::to_string_pretty(&Golden { plans, adaptive }).expect("reports serialize")
}

#[test]
fn plan_reports_match_committed_golden_fixture() {
    let json = golden_json();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/plan_golden.json"
        );
        std::fs::write(path, format!("{json}\n")).expect("fixture is writable");
        return;
    }
    assert_eq!(
        format!("{json}\n"),
        GOLDEN,
        "plan reports drifted from the committed fixture \
         (UPDATE_GOLDEN=1 regenerates if the change is intentional)"
    );
}
