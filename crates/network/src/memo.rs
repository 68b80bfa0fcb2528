//! Remembered answers kept beside the data they are derived from.

use std::sync::{Mutex, MutexGuard};

/// A table of derived facts — [`crate::Topology`]'s routes, the
/// [`crate::Catalog`]'s `judge` verdicts — that its owner fills through
/// `&self`. Behind a lock, so the owner stays `Sync`; a `clone()` of the
/// owner starts with an empty table and re-derives what it needs, so no
/// copy ever carries facts it did not compute itself.
#[derive(Default)]
pub(crate) struct Memo<T>(Mutex<T>);

impl<T> Memo<T> {
    /// The table, for a lookup or an insert. Callers compute nothing while
    /// they hold it, so a panic elsewhere cannot poison it.
    pub(crate) fn lock(&self) -> MutexGuard<'_, T> {
        self.0
            .lock()
            .expect("nothing panics while a memo is locked")
    }

    /// The table of an exclusively borrowed owner: no lock needed.
    pub(crate) fn get_mut(&mut self) -> &mut T {
        self.0
            .get_mut()
            .expect("nothing panics while a memo is locked")
    }
}

impl<T: Default> Clone for Memo<T> {
    fn clone(&self) -> Self {
        Memo::default()
    }
}
