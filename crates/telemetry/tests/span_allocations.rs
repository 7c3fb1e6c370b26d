//! A span costs its clock reads, an id and one lock: no heap traffic.
//! This test binary alone runs under a counting global allocator; counts
//! are per thread, so the harness's other threads cannot move them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use eco_telemetry::{Recorder, Telemetry, TraceContext, WallClock};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters are const-initialised thread-locals without destructors, so
// touching them never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`, via `alloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// (allocations, frees) this thread has made so far.
fn heap_calls() -> (u64, u64) {
    (ALLOCS.with(Cell::get), FREES.with(Cell::get))
}

const CAPACITY: usize = 1024;

/// One span the way the submit path opens them: under a propagated
/// context, with literal, unsigned, signed and float attributes.
fn typed_span(tel: &Telemetry, ctx: TraceContext) {
    let mut span = tel.span_under(ctx, "client", "attempt");
    span.attr("verb", "predict");
    span.attr("attempt", 1u64);
    span.attr("delta", -3i64);
    span.attr("ratio", 0.5);
    span.finish();
}

#[test]
fn a_span_allocates_nothing_once_the_ring_is_warm() {
    let tel = Telemetry::with_parts(Arc::new(WallClock::new()), Arc::new(Recorder::new(CAPACITY)));
    let root = tel.root_span("slurm", "sbatch");
    let ctx = root.context();
    // past the capacity: every slot filled once, the ring now overwrites
    for _ in 0..2 * CAPACITY {
        typed_span(&tel, ctx);
    }

    let before = heap_calls();
    for _ in 0..10_000 {
        typed_span(&tel, ctx);
    }
    let after = heap_calls();
    assert_eq!((after.0 - before.0, after.1 - before.1), (0, 0), "10 000 spans: (allocations, frees)");

    // an owned value costs exactly its own allocation
    let before = heap_calls();
    let mut span = tel.span_under(ctx, "slurm", "submit");
    span.attr("name", format!("hpcg_[{}]", 7));
    span.finish();
    let after = heap_calls();
    assert_eq!(after.0 - before.0, 1, "a Cow::Owned attribute allocates once");
    assert_eq!(tel.recorder().appended(), 2 * CAPACITY as u64 + 10_000 + 1, "every span was kept");
    drop(root);
}
