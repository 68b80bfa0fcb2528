//! Interned element names.
//!
//! Every element/attribute name in the engine is a [`Symbol`]: a `u32` index
//! into a process-wide [`NameTable`]. Stream items repeat a tiny vocabulary
//! of names (`photon`, `coord`, `ra`, …) millions of times, so interning
//! turns per-node `String` allocation + byte-wise comparison into a copy of
//! four bytes and an integer compare on the hot path.
//!
//! Interned strings are leaked to obtain `&'static str` resolution without
//! lifetime plumbing. The leak is bounded by the number of *distinct* names
//! ever seen (element vocabularies are small and schema-bound), not by
//! stream length.

use std::collections::HashMap;
use std::fmt;
use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::{OnceLock, RwLock};

/// An interned name: cheap to copy, O(1) to compare and hash.
///
/// Equality is consistent with string equality: two symbols are equal iff
/// they intern the same name. Ordering is *lexicographic* over the resolved
/// names (not interning order), so `BTreeMap<Path, _>` keys sort the way
/// string paths would.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

/// The shared intern table mapping names to [`Symbol`]s.
///
/// A process has exactly one (behind [`NameTable::global`]); it is only ever
/// appended to.
#[derive(Debug, Default)]
pub struct NameTable {
    ids: HashMap<&'static str, Symbol>,
    names: Vec<&'static str>,
}

/// Lock-free resolve table shadowing [`NameTable::names`].
///
/// [`Symbol::as_str`] sits on the serialization hot path (two to three calls
/// per node), so resolution must not take the interner's `RwLock`. Names are
/// published into an append-only chunked array: chunk `c` holds
/// `2^(CHUNK0_BITS + c)` slots, chunks are allocated lazily, and a slot is
/// written exactly once — under the interner's write lock, *before* the
/// symbol value escapes `insert` — then released with a `Release` store.
/// Readers need only two `Acquire` loads and never block writers.
const CHUNK0_BITS: u32 = 6;
/// Chunk 26 ends at slot index `u32::MAX`, covering every possible symbol.
const NUM_CHUNKS: usize = 27;

/// A slot holds a pointer to a leaked `&'static str` cell (the str itself is
/// a fat pointer, so it cannot live in one atomic directly).
type Slot = AtomicPtr<&'static str>;

static RESOLVE_CHUNKS: [AtomicPtr<Slot>; NUM_CHUNKS] =
    [const { AtomicPtr::new(ptr::null_mut()) }; NUM_CHUNKS];

/// Maps a symbol index to its (chunk, offset) position.
fn locate(index: u32) -> (usize, usize) {
    let k = u64::from(index) + (1u64 << CHUNK0_BITS);
    let chunk = (k.ilog2() - CHUNK0_BITS) as usize;
    let offset = (k - (1u64 << (chunk as u32 + CHUNK0_BITS))) as usize;
    (chunk, offset)
}

/// Publishes `name` for lock-free resolution. Caller must hold the interner
/// write lock (single writer ⇒ chunk allocation cannot race).
fn publish(sym: Symbol, name: &'static str) {
    let (chunk_idx, offset) = locate(sym.0);
    let mut chunk = RESOLVE_CHUNKS[chunk_idx].load(Ordering::Acquire);
    if chunk.is_null() {
        let cap = 1usize << (CHUNK0_BITS as usize + chunk_idx);
        let fresh: Box<[Slot]> = (0..cap).map(|_| AtomicPtr::new(ptr::null_mut())).collect();
        chunk = Box::leak(fresh).as_mut_ptr();
        RESOLVE_CHUNKS[chunk_idx].store(chunk, Ordering::Release);
    }
    let cell: &'static mut &'static str = Box::leak(Box::new(name));
    // SAFETY: `offset` is within the chunk's capacity by construction of
    // `locate`, and the chunk allocation above is leaked (never freed).
    unsafe { (*chunk.add(offset)).store(cell, Ordering::Release) };
}

/// Lock-free resolve. Returns `None` only if the slot has not been published
/// (callers fall back to the locked table, which cannot miss for a symbol
/// that was handed out by `insert`).
fn resolve_fast(sym: Symbol) -> Option<&'static str> {
    let (chunk_idx, offset) = locate(sym.0);
    let chunk = RESOLVE_CHUNKS[chunk_idx].load(Ordering::Acquire);
    if chunk.is_null() {
        return None;
    }
    // SAFETY: non-null chunks are leaked allocations of the full capacity
    // for `chunk_idx`, and `locate` keeps `offset` within that capacity.
    let cell = unsafe { (*chunk.add(offset)).load(Ordering::Acquire) };
    if cell.is_null() {
        return None;
    }
    // SAFETY: non-null cells are leaked `&'static str` boxes, written once.
    Some(unsafe { *cell })
}

impl NameTable {
    fn global() -> &'static RwLock<NameTable> {
        static TABLE: OnceLock<RwLock<NameTable>> = OnceLock::new();
        TABLE.get_or_init(|| RwLock::new(NameTable::default()))
    }

    fn resolve(&self, sym: Symbol) -> &'static str {
        self.names[sym.0 as usize]
    }

    fn lookup(&self, name: &str) -> Option<Symbol> {
        self.ids.get(name).copied()
    }

    fn insert(&mut self, name: &str) -> Symbol {
        if let Some(sym) = self.lookup(name) {
            return sym;
        }
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let sym = Symbol(u32::try_from(self.names.len()).expect("interner overflow"));
        self.names.push(leaked);
        self.ids.insert(leaked, sym);
        publish(sym, leaked);
        sym
    }

    /// Number of distinct names interned so far (diagnostics).
    pub fn len() -> usize {
        NameTable::global()
            .read()
            .expect("name table poisoned")
            .names
            .len()
    }
}

impl Symbol {
    /// Interns `name`, returning its symbol (inserting it if new).
    pub fn intern(name: &str) -> Symbol {
        let table = NameTable::global();
        if let Some(sym) = table.read().expect("name table poisoned").lookup(name) {
            return sym;
        }
        table.write().expect("name table poisoned").insert(name)
    }

    /// Looks up `name` without interning. `None` means no node anywhere can
    /// carry this name — used by lookups like [`crate::tree::Node::child`]
    /// so probing for absent names does not grow the table.
    pub fn get(name: &str) -> Option<Symbol> {
        NameTable::global()
            .read()
            .expect("name table poisoned")
            .lookup(name)
    }

    /// Resolves the symbol to its name. Lock-free: two `Acquire` loads on
    /// the fast path, falling back to the locked table only if the slot is
    /// not yet visible to this thread.
    pub fn as_str(self) -> &'static str {
        resolve_fast(self).unwrap_or_else(|| {
            NameTable::global()
                .read()
                .expect("name table poisoned")
                .resolve(self)
        })
    }

    /// The raw table index (diagnostics / serialization).
    pub fn index(self) -> u32 {
        self.0
    }
}

impl From<&str> for Symbol {
    fn from(name: &str) -> Symbol {
        Symbol::intern(name)
    }
}

impl From<&String> for Symbol {
    fn from(name: &String) -> Symbol {
        Symbol::intern(name)
    }
}

impl From<String> for Symbol {
    fn from(name: String) -> Symbol {
        Symbol::intern(&name)
    }
}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Symbol) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Symbol) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("photon");
        let b = Symbol::intern("photon");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "photon");
    }

    #[test]
    fn distinct_names_get_distinct_symbols() {
        assert_ne!(Symbol::intern("ra"), Symbol::intern("dec"));
    }

    #[test]
    fn get_does_not_intern() {
        // Probed twice: the first probe left nothing behind. (The table's
        // length proves nothing — tests running beside this one intern.)
        assert_eq!(Symbol::get("definitely-not-a-name-7193"), None);
        assert_eq!(Symbol::get("definitely-not-a-name-7193"), None);
        let sym = Symbol::intern("en");
        assert_eq!(Symbol::get("en"), Some(sym));
    }

    #[test]
    fn ordering_is_lexicographic() {
        // Intern out of alphabetical order on purpose.
        let z = Symbol::intern("zzz-order-test");
        let a = Symbol::intern("aaa-order-test");
        assert!(a < z);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn compares_with_str() {
        let s = Symbol::intern("coord");
        assert_eq!(s, *"coord");
        assert_eq!(s, "coord");
        assert_ne!(s, "cel");
    }

    #[test]
    fn resolve_survives_chunk_boundaries() {
        // Intern enough distinct names to spill past the first resolve
        // chunk (64 slots) into later, lazily-allocated ones, and check
        // every one still resolves lock-free to the right string.
        let names: Vec<String> = (0..300).map(|i| format!("chunk-test-{i}")).collect();
        let syms: Vec<Symbol> = names.iter().map(|n| Symbol::intern(n)).collect();
        for (name, sym) in names.iter().zip(&syms) {
            assert_eq!(sym.as_str(), name);
            assert_eq!(resolve_fast(*sym), Some(sym.as_str()));
        }
    }

    #[test]
    fn display_and_debug() {
        let s = Symbol::intern("phc");
        assert_eq!(s.to_string(), "phc");
        assert_eq!(format!("{s:?}"), "Symbol(\"phc\")");
    }
}
