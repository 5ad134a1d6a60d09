//! Host-speed calibration.
//!
//! On a shared host the same round can take 40% longer one minute than the
//! next: the set-up time of one seed, a fixed amount of work, moved from
//! 0.128 s to 0.073 s within three minutes on the 2-vCPU machine this
//! benchmark was defined on. That drift would swamp any regression bound.
//! So a run also times a fixed computation owned by this file just before
//! each round — sorting, prefix sums, binary searches, allocation and a
//! random gather over a few MiB, the kinds of work the pipeline does — and
//! reports the round's times at reference speed: scaled by
//! [`REFERENCE_SECS`] over the computation's median time before that round.
//! A change to the system cannot change the computation, so it still shows
//! in full; a slower host slows both, and the slowdown cancels. Raw times
//! stay in the detail line.

use std::time::Instant;

/// The kernel's time on the reference machine (2 vCPUs at 2.0 GHz) in a
/// quiet period. Reported times read "as if the host ran at this speed".
pub const REFERENCE_SECS: f64 = 0.014;

/// Kernel repetitions before each round; the round's factor uses their
/// median.
pub const REPS_PER_ROUND: usize = 5;

/// xorshift64*: a generator owned by this file, so no dependency update can
/// change the kernel's work.
fn next(state: &mut u64) -> u64 {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

fn unit(state: &mut u64) -> f64 {
    (next(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Run one copy of the fixed kernel on each of `threads` threads at once
/// and return the wall seconds until all have finished. A workload that
/// keeps every core busy (parallel Monte-Carlo replay, the server) waits
/// for its slowest thread, so it is calibrated with as many copies as
/// cores; a single-threaded one with one.
pub fn kernel_secs(threads: usize) -> f64 {
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 1..threads {
            s.spawn(kernel);
        }
        kernel();
    });
    t.elapsed().as_secs_f64()
}

fn kernel() {
    const N: usize = 1 << 15;
    const GATHER: usize = 1 << 20;
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let table: Vec<u32> = (0..GATHER).map(|_| next(&mut state) as u32).collect();
    let mut acc = 0.0f64;
    for _ in 0..4 {
        let mut v: Vec<f64> = (0..N).map(|_| unit(&mut state)).collect();
        v.sort_unstable_by(f64::total_cmp);
        let prefix: Vec<f64> = v
            .iter()
            .scan(0.0, |s, x| {
                *s += x;
                Some(*s)
            })
            .collect();
        for _ in 0..N {
            let x = unit(&mut state);
            let i = v.partition_point(|&y| y < x);
            acc += prefix[i.min(N - 1)];
        }
        let mut j = next(&mut state) as usize;
        for _ in 0..N * 4 {
            j = (j ^ table[j % GATHER] as usize).wrapping_mul(0x9E37_79B1) % GATHER;
            acc += f64::from(table[j] & 0xff);
        }
    }
    std::hint::black_box(acc);
}
