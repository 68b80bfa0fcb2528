//! Building a short leaf allocates nothing: its text, borrowed or a number
//! formatted on the spot, is copied into the node itself. Generators,
//! decoders and operators build every value leaf this way. One test in a
//! binary of its own — the counting allocator is process-wide and a
//! neighbouring test would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use dss_xml::{Decimal, Node, Symbol};

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

fn allocations(build: impl FnOnce()) -> u64 {
    let before = CALLS.load(Ordering::SeqCst);
    ON.store(true, Ordering::SeqCst);
    build();
    ON.store(false, Ordering::SeqCst);
    CALLS.load(Ordering::SeqCst) - before
}

#[test]
fn a_short_leaf_costs_no_allocation() {
    // Interning a name for the first time allocates; that is not the
    // leaf's cost.
    let [ra, en, t, phc] = ["ra", "en", "t", "phc"].map(Symbol::intern);
    let owned = String::from("130.7");
    let inline_limit = "1234567890123456789012"; // 22 bytes
    let too_long = "12345678901234567890123"; // 23 bytes

    let calls = allocations(|| {
        black_box(Node::leaf(ra, "130.7"));
        black_box(Node::leaf(ra, &owned));
        black_box(Node::leaf(t, inline_limit));
        black_box(Node::leaf(t, "é€<&>"));
        black_box(Node::decimal_leaf(en, Decimal::new(14, 1)));
        // 20 bytes: "-123456789.012345678".
        black_box(Node::decimal_leaf(
            en,
            Decimal::new(-123_456_789_012_345_678, 9),
        ));
        black_box(Node::display_leaf(phc, u64::MAX));
        let mut n = Node::empty(t);
        n.set_text("57");
        n.append_text(".5");
        n.set_text(&owned);
        black_box(n);
    });
    assert_eq!(calls, 0, "short leaves allocated {calls} times");

    // Past the inline room the text is shared: one allocation for it.
    assert_eq!(allocations(|| drop(black_box(Node::leaf(t, too_long)))), 1);
    let mut n = Node::empty(t);
    assert_eq!(allocations(|| n.set_text(too_long)), 1);
}
