//! `sompi` — plan and evaluate cost-optimized MPI executions on (simulated
//! or imported) EC2 spot markets.
//!
//! ```text
//! sompi plan   [--app BT --class B --procs 128 --deadline 1.5 ...]
//! sompi replay [... --replicas 200 --timeline]     (alias: sompi run)
//! sompi sweep  [... --from 1.05 --to 2.0 --points 6]
//! sompi tournament [--policies ondemand,no-ft,ckpt-only,app-centric,deadline-hedge,sompi ...]
//! sompi trace  [--feed history.txt | --seed 42 --hours 336] [--calibrate]
//! sompi trace summarize run.jsonl
//! sompi serve  [--addr 127.0.0.1:7077 --workers 2 --queue-cap 32 ...]
//! sompi client [--addr 127.0.0.1:7077 --burst N --replay ...]
//! ```

use sompi_cli::args::Args;
use sompi_cli::commands;
use sompi_cli::serve;

const USAGE: &str = "\
sompi — monetary cost optimization for MPI applications on EC2 spot markets

USAGE:
    sompi <COMMAND> [FLAGS]

COMMANDS:
    plan      optimize bids/checkpoints/fallback for one application
    replay    plan, then Monte-Carlo replay against the market (alias: run)
    sweep     cost vs deadline-factor sweep
    tournament  head-to-head policy arena over markets x fault plans
    trace     summarize market traces (optionally --calibrate)
    trace summarize FILE    render a recorded .jsonl execution trace
    serve     run the planner daemon (see docs/SERVER.md for the protocol)
    client    send one request (or --burst N) to a running server

COMMON FLAGS:
    --app BT|SP|LU|FT|IS|BTIO|CG|MG|EP|LAMMPS   (default BT)
    --class S|W|A|B|C          NPB class (default B)
    --procs N                  MPI processes (default 128)
    --repeats N                back-to-back runs (default 200)
    --deadline F               deadline as multiple of Baseline Time (default 1.5)
    --strategy NAME            planning policy: sompi, on-demand, marathe,
                               marathe-opt, spot-inf, spot-avg, no-rp, no-ck,
                               no-ft, ckpt-only, app-centric, deadline-hedge
    --kappa K --levels L --slack S      optimizer knobs (default 4, 12, 0.2);
                               each plan search runs on the calling thread
    --adaptive                 replay the windowed Algorithm-1 loop instead of
                               a single frozen plan; each re-plan runs the
                               same search as `plan` (replay only)
    --window H                 adaptive re-optimization window T_m, hours
                               (default 15)
    --timeline                 also print the run report of the one replay
                               that --trace-out records (from hour history+1),
                               as `trace summarize` renders a detail trace
                               (replay only)
    --seed N --hours H --step H         synthetic market shape
    --feed FILE                import AWS spot price history instead
    --history H                planning history window, hours (default 48)
    --replicas N --mc-seed N   Monte-Carlo controls
    --faults SPEC              inject deterministic faults during replay, e.g.
                               storm=0.05x0.5,ckpt-fail=0.1,feed-gap=0.2
    --fault-seed N             fault-injection seed (default 42)
    --json                     machine-readable output (plan, replay, client)
    --trace-out FILE           write a JSONL event trace (plan, replay, serve)
    --trace-level off|summary|detail    trace verbosity (default summary)

TOURNAMENT FLAGS (tournament):
    --policies a,b,c           roster to compete (default ondemand,no-ft,
                               ckpt-only,app-centric,deadline-hedge,sompi)
    --seeds 21,22,...          one synthetic market per seed (default 21)
    --fault-grid \"none;SPEC\"   fault plans to sweep, `;`-separated; `none`
                               is the fault-free case (default none)
    --smoke                    seconds-fast CI configuration (small problem,
                               3 replicas, 120 h market)

SERVER FLAGS (serve):
    --addr HOST:PORT           listen address (default 127.0.0.1:7077; port 0
                               picks an ephemeral port)
    --workers N --queue-cap N --cache-cap N
                               worker pool, admission queue and plan-cache
                               sizing
    --pause-ms MS              artificial per-request delay (load drills)
    --max-requests N           exit cleanly after N accepted connections

CLIENT FLAGS (client):
    --addr HOST:PORT           server to talk to (default 127.0.0.1:7077)
    --tenant NAME              tenant label for multi-tenant accounting
    --burst N                  fire N identical requests from N threads
    --ping                     liveness/version probe instead of a plan
    --replay                   send a replay request instead of a plan
";

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = raw.first().map(String::as_str) else {
        eprint!("{USAGE}");
        std::process::exit(2);
    };
    let args = Args::parse(&raw[1..]);
    let mut stdout = std::io::stdout().lock();
    let result = match command {
        "plan" => commands::cmd_plan(&args, &mut stdout),
        "replay" | "run" => commands::cmd_replay(&args, &mut stdout),
        "sweep" => commands::cmd_sweep(&args, &mut stdout),
        "tournament" => commands::cmd_tournament(&args, &mut stdout),
        "trace" => commands::cmd_trace(&args, &mut stdout),
        "serve" => serve::cmd_serve(&args, &mut stdout),
        "client" => serve::cmd_client(&args, &mut stdout),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            return;
        }
        other => {
            eprintln!("unknown command {other:?}\n");
            eprint!("{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
