//! Reading a number that is not there allocates nothing: `Node::decimal`
//! and `Path::decimal` are what operators call per item, and an absent,
//! empty or non-numeric element is an ordinary item to them, not an error
//! to describe. One test in a binary of its own — the counting allocator
//! is process-wide and a neighbouring test would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use dss_xml::{Decimal, Node, Path};

struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations(read: impl FnOnce()) -> u64 {
    let before = CALLS.load(Ordering::SeqCst);
    ON.store(true, Ordering::SeqCst);
    read();
    ON.store(false, Ordering::SeqCst);
    CALLS.load(Ordering::SeqCst) - before
}

#[test]
fn a_missing_or_unreadable_number_costs_no_allocation() {
    let item = Node::elem(
        "photon",
        vec![
            Node::elem("coord", vec![Node::leaf("ra", "bright")]),
            Node::empty("en"),
            Node::leaf("phc", ""),
            Node::leaf("wide", "12345678901234567890123"),
            Node::leaf("det_time", " 1017.5 "),
        ],
    );
    let path = |s: &str| s.parse::<Path>().unwrap();
    let misses = [
        path("nope"),
        path("coord/cel/ra"),
        path("coord"),
        path("coord/ra"),
        path("en"),
        path("phc"),
        path("wide"),
    ];
    let hit = path("det_time");

    // The erroring reads describe the miss, which allocates: the counter
    // counts.
    assert!(allocations(|| assert!(misses[0].decimal_value(&item).is_err())) > 0);

    let calls = allocations(|| {
        for p in &misses {
            assert_eq!(p.decimal(&item), None, "{p}");
        }
        assert_eq!(item.decimal(), None);
        // A hit — through the general parser here, it is padded — costs
        // none either.
        assert_eq!(hit.decimal(&item), Some(Decimal::new(10175, 1)));
    });
    assert_eq!(calls, 0, "reading numbers allocated {calls} times");
}
