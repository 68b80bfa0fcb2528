//! An allocation budget for the batch simulator: items are shared trees, so
//! a `run_simulation` may allocate far less often than it emits elements.
//! One test in a binary of its own — the counting allocator is process-wide
//! and a neighbouring test would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use data_stream_sharing::core::Strategy;
use data_stream_sharing::network::SimConfig;
use dss_rass::Scenario;
use dss_xml::Node;

struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// statistics that publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            CALLS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            CALLS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations per output element one warm scenario-2 simulation may make
/// (0.14 measured: one child block per element Π, ρ and Φ build, short text
/// inside the node). The shared tree with an `Arc<str>` per leaf and an
/// `Arc<Vec>` per element needed 0.28; the owned tree before it 1.97 (a
/// `String` and a `Vec` per element, once per copy).
const BUDGET_PER_ELEMENT: f64 = 0.2;

/// Bytes one warm scenario-2 simulation may allocate (24.4 MB measured: a
/// node is 40 bytes, but a leaf has no heap string, and a flow's output
/// arrives as whole buffers; 26.0 MB when it grew one push at a time,
/// 23.6 MB with 32-byte nodes and a string per leaf).
const BUDGET_MB: f64 = 30.0;

#[test]
fn scenario2_simulation_stays_within_its_allocation_budget() {
    let outcome = Scenario::scenario2(42).run(Strategy::StreamSharing, false);
    assert!(outcome.errored.is_empty(), "{:?}", outcome.errored);
    // Warm: name table, thread-local state, and the reference result.
    let before = outcome.simulate(SimConfig::default());

    ON.store(true, Ordering::SeqCst);
    let counted = outcome.simulate(SimConfig::default());
    ON.store(false, Ordering::SeqCst);
    let (calls, bytes) = (CALLS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));

    assert_eq!(counted.flow_outputs, before.flow_outputs);
    assert_eq!(
        counted.metrics.total_edge_bytes(),
        before.metrics.total_edge_bytes()
    );
    assert_eq!(counted.metrics.total_work(), before.metrics.total_work());

    let items: usize = counted.flow_outputs.iter().map(Vec::len).sum();
    let elements: usize = counted
        .flow_outputs
        .iter()
        .flatten()
        .map(Node::element_count)
        .sum();
    let per_element = calls as f64 / elements as f64;
    println!(
        "alloc_budget: {calls} allocations ({:.1} MB) for {items} output items / \
         {elements} elements = {per_element:.3} per element",
        bytes as f64 / 1e6
    );
    assert!(
        per_element <= BUDGET_PER_ELEMENT,
        "{calls} allocations for {elements} output elements is {per_element:.3} per element, \
         budget {BUDGET_PER_ELEMENT}"
    );
    let mb = bytes as f64 / 1e6;
    assert!(
        mb <= BUDGET_MB,
        "{mb:.1} MB allocated, budget {BUDGET_MB} MB"
    );
}
