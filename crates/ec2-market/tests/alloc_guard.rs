//! Memory guard for the trace index.
//!
//! `TraceIndex` is a max tree and a min tree of 2·`next_power_of_two(n)`
//! prices each, so building it for `n` samples allocates
//! 32·`next_power_of_two(n)` bytes and nothing else. A structure that
//! grows as O(n log n), such as a sparse table, needs about ten times that
//! on a 28,800-sample trace. A byte-counting global allocator makes the
//! bound testable.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use ec2_market::index::TraceIndex;
use ec2_market::trace::SpotTrace;

struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Run `f` with byte counting on; return its result and the bytes
/// allocated. This file holds one test, so nothing else allocates
/// concurrently while the counter runs.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    BYTES.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (out, BYTES.load(Ordering::SeqCst))
}

#[test]
fn index_build_allocates_linear_memory() {
    // 100 days of 5-minute samples, the length of the benchmark's traces.
    let n: usize = 28_800;
    let trace = SpotTrace::new(
        1.0 / 12.0,
        (0..n)
            .map(|i| 0.01 + (i * 7919 % 1000) as f64 * 1e-4)
            .collect(),
    );
    let (ix, bytes) = counted(|| TraceIndex::build(&trace));
    let bound = 32 * n.next_power_of_two() as u64;
    assert_eq!(bound, 1 << 20);
    assert!(
        bytes <= bound,
        "indexing {n} samples allocated {bytes} bytes, over the {bound}-byte bound"
    );
    assert_eq!(ix.heap_bytes() as u64, bytes);
    assert_eq!(ix.len(), n);
}
