//! How a [`Node`] holds its text and its children: the one place in the
//! tree that needs `unsafe`.
//!
//! * [`Text`]: up to [`INLINE_TEXT`] bytes live inside the node, so building
//!   one allocates nothing and cloning one is a plain copy. Longer text is a
//!   shared `Arc<str>`.
//! * [`Block`]: an element's children in one reference-counted allocation,
//!   a header `{count, len}` followed by the nodes, reached through one thin
//!   pointer. An element without children has no block.

use std::alloc::{self, Layout};
use std::fmt;
use std::marker::PhantomData;
use std::mem;
use std::ptr::{self, NonNull};
use std::slice;
use std::sync::atomic::{self, AtomicUsize, Ordering};
use std::sync::Arc;

use super::Node;

/// Longest text kept inside the node. 22 bytes plus its length and the
/// variant tag fill the 24 bytes the shared form needs anyway.
const INLINE_TEXT: usize = 22;

/// A node's text: absent, inline, or shared.
#[derive(Clone)]
pub(super) enum Text {
    None,
    Inline(Inline),
    Shared(Arc<str>),
}

/// Text kept inside the node. Its fields are private to this module, which
/// is what keeps `bytes[..len]` UTF-8: only whole `&str`s are copied in.
#[derive(Clone, Copy)]
pub(super) struct Inline {
    len: u8,
    bytes: [u8; INLINE_TEXT],
}

impl Text {
    /// `s`, inline when it fits.
    pub(super) fn new(s: &str) -> Text {
        if s.len() <= INLINE_TEXT {
            let mut bytes = [0; INLINE_TEXT];
            bytes[..s.len()].copy_from_slice(s.as_bytes());
            Text::Inline(Inline {
                len: s.len() as u8,
                bytes,
            })
        } else {
            Text::Shared(Arc::from(s))
        }
    }

    /// `value` formatted straight into the node: nothing is allocated
    /// unless the text outgrows the inline room.
    pub(super) fn display(value: impl fmt::Display) -> Text {
        let mut w = Writer::default();
        fmt::write(&mut w, format_args!("{value}"))
            .expect("a Display implementation returned an error unexpectedly");
        w.finish()
    }

    /// `self` followed by `more`.
    pub(super) fn append(&mut self, more: &str) {
        let Some(current) = self.as_str() else {
            *self = Text::new(more);
            return;
        };
        let mut w = Writer::default();
        fmt::Write::write_str(&mut w, current).expect("writing to memory cannot fail");
        fmt::Write::write_str(&mut w, more).expect("writing to memory cannot fail");
        *self = w.finish();
    }

    pub(super) fn as_str(&self) -> Option<&str> {
        match self {
            Text::None => None,
            Text::Inline(Inline { len, bytes }) => Some(inline_str(bytes, usize::from(*len))),
            Text::Shared(s) => Some(s),
        }
    }
}

/// The text `bytes[..len]` of an [`Inline`] or a [`Writer`].
fn inline_str(bytes: &[u8; INLINE_TEXT], len: usize) -> &str {
    // SAFETY: both holders only ever copy whole `&str`s into
    // `bytes[..len]`, back to back, so the prefix is valid UTF-8.
    unsafe { std::str::from_utf8_unchecked(&bytes[..len]) }
}

/// Inline room that spills into a `String` once the text outgrows it.
#[derive(Default)]
struct Writer {
    len: usize,
    bytes: [u8; INLINE_TEXT],
    spill: Option<String>,
}

impl fmt::Write for Writer {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        match &mut self.spill {
            Some(spill) => spill.push_str(s),
            None if self.len + s.len() <= INLINE_TEXT => {
                self.bytes[self.len..self.len + s.len()].copy_from_slice(s.as_bytes());
                self.len += s.len();
            }
            None => {
                let mut spill = String::with_capacity(self.len + s.len());
                spill.push_str(inline_str(&self.bytes, self.len));
                spill.push_str(s);
                self.spill = Some(spill);
            }
        }
        Ok(())
    }
}

impl Writer {
    fn finish(self) -> Text {
        match self.spill {
            Some(s) => Text::Shared(Arc::from(s)),
            None => Text::Inline(Inline {
                len: self.len as u8,
                bytes: self.bytes,
            }),
        }
    }
}

#[repr(C)]
struct Header {
    /// Handles to this block; it is freed when the last one drops.
    count: AtomicUsize,
    /// Nodes that follow the header, never zero.
    len: usize,
}

/// Where the first node starts: right after the header, aligned for a node.
const NODES: usize = mem::size_of::<Header>().next_multiple_of(mem::align_of::<Node>());

/// A shared, immutable run of child nodes: `Arc<[Node]>` behind a thin
/// pointer, with the length in the allocation instead of in the handle.
pub(super) struct Block {
    header: NonNull<Header>,
    nodes: PhantomData<Node>,
}

// SAFETY: a block is shared like `Arc<[Node]>`: its count is atomic, its
// nodes are only read through `&` while more than one handle exists, and
// `Node` itself is `Send + Sync`.
unsafe impl Send for Block {}
// SAFETY: as for `Send`.
unsafe impl Sync for Block {}

impl Block {
    fn layout(len: usize) -> Layout {
        let (layout, offset) = Layout::new::<Header>()
            .extend(Layout::array::<Node>(len).expect("child list too large"))
            .expect("child list too large");
        debug_assert_eq!(offset, NODES);
        layout.pad_to_align()
    }

    /// A block of the first `len` nodes `nodes` yields; `None` when `len`
    /// is zero.
    ///
    /// # Panics
    /// If `nodes` yields fewer than `len` nodes (what it did yield is
    /// dropped, nothing leaks).
    pub(super) fn build(len: usize, nodes: impl Iterator<Item = Node>) -> Option<Block> {
        if len == 0 {
            return None;
        }
        let layout = Block::layout(len);
        // SAFETY: the layout is not zero-sized (it holds the header).
        let raw = unsafe { alloc::alloc(layout) };
        let Some(header) = NonNull::new(raw.cast::<Header>()) else {
            alloc::handle_alloc_error(layout)
        };
        // SAFETY: a fresh allocation of `layout`, which starts with a
        // `Header`.
        unsafe {
            header.as_ptr().write(Header {
                count: AtomicUsize::new(1),
                len,
            })
        };
        let mut filling = Filling {
            header,
            layout,
            written: 0,
        };
        for node in nodes.take(len) {
            // SAFETY: `written < len`, so the slot lies inside the
            // allocation, and it is not initialised yet.
            unsafe { first(header).add(filling.written).write(node) };
            filling.written += 1;
        }
        assert_eq!(
            filling.written, len,
            "a child iterator yielded fewer nodes than it announced"
        );
        mem::forget(filling);
        Some(Block {
            header,
            nodes: PhantomData,
        })
    }

    fn header(&self) -> &Header {
        // SAFETY: the header lives as long as any handle does.
        unsafe { self.header.as_ref() }
    }

    pub(super) fn as_slice(&self) -> &[Node] {
        // SAFETY: a finished block holds `len` initialised nodes and lives
        // as long as `self`; while it may be shared they are only read.
        unsafe { slice::from_raw_parts(first(self.header), self.header().len) }
    }

    /// The nodes, writable: copies them into a block of `self`'s own first
    /// if another handle shares this one.
    pub(super) fn make_mut(&mut self) -> &mut [Node] {
        let len = self.header().len;
        // `Acquire` pairs with the `Release` of the handles that dropped,
        // so their reads are over before these nodes are written.
        if self.header().count.load(Ordering::Acquire) != 1 {
            *self =
                Block::build(len, self.as_slice().iter().cloned()).expect("a block is never empty");
        }
        // SAFETY: the count is one, so `self` is the only handle and,
        // through `&mut self`, nothing else reads these nodes meanwhile.
        unsafe { slice::from_raw_parts_mut(first(self.header), len) }
    }

    pub(super) fn ptr_eq(a: &Block, b: &Block) -> bool {
        a.header == b.header
    }
}

/// The first node of the block `header` starts.
fn first(header: NonNull<Header>) -> *mut Node {
    // SAFETY: every block is allocated with room for its nodes at `NODES`.
    unsafe { header.as_ptr().cast::<u8>().add(NODES).cast::<Node>() }
}

impl Clone for Block {
    fn clone(&self) -> Block {
        // `Relaxed`, as for `Arc`: a new handle comes from an existing one,
        // which already orders it after the block was written.
        let old = self.header().count.fetch_add(1, Ordering::Relaxed);
        if old > isize::MAX as usize {
            std::process::abort();
        }
        Block {
            header: self.header,
            nodes: PhantomData,
        }
    }
}

impl Drop for Block {
    fn drop(&mut self) {
        if self.header().count.fetch_sub(1, Ordering::Release) != 1 {
            return;
        }
        atomic::fence(Ordering::Acquire);
        let len = self.header().len;
        // SAFETY: the count reached zero, so this was the last handle and
        // the fence orders every other handle's reads before the drop; the
        // nodes are initialised and the allocation has `layout(len)`.
        unsafe {
            ptr::drop_in_place(ptr::slice_from_raw_parts_mut(first(self.header), len));
            alloc::dealloc(self.header.as_ptr().cast(), Block::layout(len));
        }
    }
}

/// A block being filled: on an unwind out of the child iterator, drops the
/// nodes written so far and frees the allocation.
struct Filling {
    header: NonNull<Header>,
    layout: Layout,
    written: usize,
}

impl Drop for Filling {
    fn drop(&mut self) {
        // SAFETY: exactly the first `written` slots were initialised, and
        // the allocation was made with `layout` and never handed out.
        unsafe {
            ptr::drop_in_place(ptr::slice_from_raw_parts_mut(
                first(self.header),
                self.written,
            ));
            alloc::dealloc(self.header.as_ptr().cast(), self.layout);
        }
    }
}
