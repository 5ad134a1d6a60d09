//! Memory guard for the trace index.
//!
//! `TraceIndex` is a trace's run table (one `usize` per maximal run of one
//! price) plus a max tree and a min tree of 2·`next_power_of_two(R)` run
//! prices each, so building it for R runs allocates
//! 8·R + 32·`next_power_of_two(R)` bytes and nothing else. On a
//! stress-shaped trace of 28,800 samples that is about 40 KB; a tree over
//! every sample would hold 1 MiB. A byte-counting global allocator makes
//! the bound testable.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ec2_market::trace::SpotTrace;

struct CountingAlloc;

thread_local! {
    /// Bytes this thread allocated while counting, or `None` when it is
    /// not counting. Per thread: the tests run side by side, and the test
    /// harness's own thread allocates while a test runs (it waits for the
    /// result); none of those bytes are the index's.
    static BYTES: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count(bytes: usize) {
    let _ = BYTES.try_with(|b| b.set(b.get().map(|n| n + bytes as u64)));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Run `f` with byte counting on for the calling thread; return its
/// result and the bytes it allocated. The index builds on the calling
/// thread, so every byte it allocates is counted.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    BYTES.with(|b| b.set(Some(0)));
    let out = f();
    (out, BYTES.with(|b| b.take()).unwrap_or(0))
}

/// 100 days of 5-minute samples, the length of the benchmark's traces.
const SAMPLES: usize = 28_800;

/// Bytes of the run table and the two run trees for `runs` runs.
fn bound(runs: usize) -> u64 {
    (std::mem::size_of::<usize>() * runs + 32 * runs.next_power_of_two()) as u64
}

/// Build `trace`'s index with byte counting on; check the count against
/// the index's own heap figure and return it with the run count.
fn build_counted(trace: &SpotTrace) -> (u64, usize) {
    let (heap, bytes) = counted(|| trace.index().heap_bytes());
    assert_eq!(heap as u64, bytes);
    assert_eq!(trace.index().len(), trace.len());
    (bytes, trace.index().runs())
}

#[test]
fn stress_shaped_index_allocates_run_trees_and_run_table() {
    // Plateaus of 1–60 samples, about 31 on average, as on the
    // benchmark's stress market; neighbouring runs alternate between two
    // price sets, so every run boundary is a price change.
    let mut prices = Vec::with_capacity(SAMPLES);
    let mut r = 0usize;
    while prices.len() < SAMPLES {
        let len = (1 + r * 37 % 60).min(SAMPLES - prices.len());
        let price = 0.01 + (r % 2) as f64 * 0.1 + (r * 13 % 7) as f64 * 1e-3;
        prices.extend(std::iter::repeat_n(price, len));
        r += 1;
    }
    let trace = SpotTrace::new(1.0 / 12.0, prices);
    let (bytes, runs) = build_counted(&trace);
    assert_eq!(runs, r);
    assert!((900..1_000).contains(&runs), "{runs} runs");
    assert!(
        bytes <= bound(runs),
        "indexing {runs} runs allocated {bytes} bytes, over the {}-byte bound",
        bound(runs)
    );
    // About 40 KB, against the 1 MiB of a tree over every sample.
    assert!(bytes < 48 << 10, "{bytes} bytes");
}

#[test]
fn index_build_allocates_linear_memory() {
    // The worst case: no two neighbouring samples are equal, so every
    // sample is a run. No benchmark market has this shape.
    let trace = SpotTrace::new(
        1.0 / 12.0,
        (0..SAMPLES)
            .map(|i| 0.01 + (i * 7919 % 1000) as f64 * 1e-4)
            .collect(),
    );
    let (bytes, runs) = build_counted(&trace);
    assert_eq!(runs, SAMPLES);
    let run_table = (std::mem::size_of::<usize>() * SAMPLES) as u64;
    assert_eq!(bound(runs), (1 << 20) + run_table);
    assert!(
        bytes <= (1 << 20) + run_table,
        "indexing {SAMPLES} one-sample runs allocated {bytes} bytes, over 1 MiB plus the run table"
    );
}
