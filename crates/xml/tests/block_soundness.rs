//! The child block frees exactly what it allocates: random trees are built,
//! cloned across threads, edited through copy-on-write and dropped, and
//! afterwards every allocation has its deallocation and the live bytes are
//! back where they started. A double free, a leak or a block freed with the
//! wrong size shows here. One test in a binary of its own — the counting
//! allocator is process-wide and a neighbouring test would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::thread;

use dss_xml::tree::MAX_DEPTH;
use dss_xml::writer::{node_to_string, serialized_size};
use dss_xml::{Node, Symbol};
use rand::prelude::*;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static DEALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// statistics that publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn counters() -> (u64, u64, i64) {
    (
        ALLOCS.load(Ordering::SeqCst),
        DEALLOCS.load(Ordering::SeqCst),
        LIVE_BYTES.load(Ordering::SeqCst),
    )
}

const NAMES: [&str; 3] = ["a", "b", "c"];
const TEXTS: [&str; 4] = ["", "1.5", "<&>", "a text long enough to be shared"];

fn random_tree(rng: &mut StdRng, depth: usize) -> Node {
    let name = NAMES[rng.gen_range(0..NAMES.len())];
    let text = TEXTS[rng.gen_range(0..TEXTS.len())];
    if depth == 0 || rng.gen_bool(0.3) {
        return match rng.gen_range(0..3) {
            0 => Node::empty(name),
            1 => Node::leaf(name, text),
            _ => Node::display_leaf(name, rng.gen_range(0u64..u64::MAX)),
        };
    }
    let kids: Vec<Node> = (0..rng.gen_range(0..5))
        .map(|_| random_tree(rng, depth - 1))
        .collect();
    match rng.gen_range(0..3) {
        0 => Node::elem(name, kids),
        1 => Node::new(name, Some(text), kids.iter().cloned()),
        _ => {
            let mut n = Node::empty(name);
            for kid in kids {
                n.push_child(kid);
            }
            n
        }
    }
}

/// One copy-on-write edit somewhere down a random path.
fn edit(rng: &mut StdRng, root: &mut Node) {
    let mut node = root;
    while !node.children().is_empty() && rng.gen_bool(0.6) {
        let i = rng.gen_range(0..node.children().len());
        node = &mut node.children_mut()[i];
    }
    match rng.gen_range(0..5) {
        0 => node.push_child(Node::leaf("new", TEXTS[3])),
        1 => node.set_text(TEXTS[rng.gen_range(0..TEXTS.len())]),
        2 => node.append_text(TEXTS[3]),
        3 => node.truncate_children(rng.gen_range(0..3)),
        _ => {
            node.children_mut();
        }
    }
}

#[test]
fn blocks_free_exactly_what_they_allocate() {
    // What the process keeps once and for all: interned names and the
    // first spawned thread's bookkeeping.
    for name in NAMES.into_iter().chain(["new", "d"]) {
        Symbol::intern(name);
    }
    thread::spawn(|| {}).join().unwrap();
    let (allocs, deallocs, live) = counters();

    let mut rng = StdRng::seed_from_u64(0x5eed);
    for round in 0..300u64 {
        let original = random_tree(&mut rng, 4);
        let text = node_to_string(&original);
        // Two threads edit their clones of the shared tree and drop them;
        // this thread edits a third.
        let workers: Vec<_> = (0..2u64)
            .map(|i| {
                let mut mine = original.clone();
                let mut rng = StdRng::seed_from_u64(round * 7 + i);
                thread::spawn(move || {
                    for _ in 0..4 {
                        edit(&mut rng, &mut mine);
                    }
                    assert_eq!(serialized_size(&mine), node_to_string(&mine).len());
                })
            })
            .collect();
        let mut mine = original.clone();
        for _ in 0..4 {
            edit(&mut rng, &mut mine);
        }
        for worker in workers {
            worker.join().unwrap();
        }
        assert_eq!(node_to_string(&original), text);
        drop((original, mine));
    }

    // The deepest tree a parser accepts, its last handle dropped on a
    // second thread.
    let mut chain = Node::leaf("d", TEXTS[3]);
    for _ in 1..MAX_DEPTH {
        chain = Node::new("d", None, [chain]);
    }
    let shared = chain.clone();
    thread::spawn(move || drop(chain)).join().unwrap();
    drop(shared);

    let (allocs_after, deallocs_after, live_after) = counters();
    assert!(allocs_after > allocs, "the test allocated nothing");
    assert_eq!(
        allocs_after - allocs,
        deallocs_after - deallocs,
        "allocations and deallocations differ"
    );
    assert_eq!(live_after, live, "live bytes did not return to their start");
}
