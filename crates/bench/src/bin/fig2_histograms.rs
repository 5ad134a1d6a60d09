//! Figure 2 — spot price histograms of m1.medium in us-east-1a over four
//! consecutive days, demonstrating the short-horizon stability of the
//! price *distribution* that the whole estimation pipeline relies on.

use ec2_market::histogram::PriceHistogram;
use ec2_market::market::CircleGroupId;
use ec2_market::zone::AvailabilityZone;
use sompi_bench::{paper_market, Table};

fn main() {
    let market = paper_market(20140802, 96.0);
    let ty = market.catalog().by_name("m1.medium").unwrap();
    let trace = market
        .trace(CircleGroupId::new(ty, AvailabilityZone::UsEast1a))
        .unwrap();

    let hi = trace.max_price() * 1.01;
    let bins = 16;
    let days: Vec<PriceHistogram> = (0..4)
        .map(|d| PriceHistogram::from_window(trace.window(d as f64 * 24.0, 24.0), 0.0, hi, bins))
        .collect();

    println!("Figure 2: m1.medium us-east-1a price histograms, 4 consecutive days\n");
    let mut t = Table::new(["bin center ($)", "day 1", "day 2", "day 3", "day 4"]);
    let series: Vec<Vec<(f64, f64)>> = days.iter().map(|h| h.series()).collect();
    #[allow(clippy::needless_range_loop)] // four parallel series share the index
    for b in 0..bins {
        t.row([
            format!("{:.4}", series[0][b].0),
            format!("{:.3}", series[0][b].1),
            format!("{:.3}", series[1][b].1),
            format!("{:.3}", series[2][b].1),
            format!("{:.3}", series[3][b].1),
        ]);
    }
    t.print();

    println!("\nTotal-variation distance between consecutive days (0 = identical):");
    let mut stable = true;
    for d in 0..3 {
        let tv = days[d].total_variation(&days[d + 1]);
        println!("  day {} vs day {}: {:.3}", d + 1, d + 2, tv);
        stable &= tv < 0.35;
    }
    println!("\nDistribution stable across days (all TV < 0.35): {stable}");
    println!(
        "(The paper uses this stability to justify estimating failure rates from recent history.)"
    );
}
