//! String interning.
//!
//! Predicate names, constant symbols, and variable names are interned to
//! `u32` ids so that atoms and tuples compare and hash cheaply during
//! fixpoint evaluation. The table uses interior mutability so that callers
//! holding a shared `&Program` (e.g. while loading EDB facts) can still
//! intern new constants. The interior mutability is an `RwLock` (not a
//! `RefCell`) so a `Program` is `Sync`; evaluation itself only reads.

use std::collections::HashMap;
use std::fmt;
use std::sync::RwLock;

/// An interned string.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub u32);

#[derive(Default, Debug)]
struct Inner {
    names: Vec<Box<str>>,
    ids: HashMap<Box<str>, Sym>,
}

/// An interning table mapping strings to [`Sym`] and back.
#[derive(Default, Debug)]
pub struct SymbolTable {
    inner: RwLock<Inner>,
}

impl SymbolTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `name`, returning its id (existing or fresh).
    pub fn intern(&self, name: &str) -> Sym {
        if let Some(&sym) = self.inner.read().unwrap().ids.get(name) {
            return sym;
        }
        let mut inner = self.inner.write().unwrap();
        // Re-check under the write lock: another interner may have won the
        // race between our read and write acquisitions.
        if let Some(&sym) = inner.ids.get(name) {
            return sym;
        }
        let sym = Sym(inner.names.len() as u32);
        let boxed: Box<str> = name.into();
        inner.names.push(boxed.clone());
        inner.ids.insert(boxed, sym);
        sym
    }

    /// Look up an already-interned string.
    pub fn lookup(&self, name: &str) -> Option<Sym> {
        self.inner.read().unwrap().ids.get(name).copied()
    }

    /// The string for `sym` (owned; the table cannot hand out references
    /// across the lock boundary).
    pub fn name(&self, sym: Sym) -> String {
        self.inner.read().unwrap().names[sym.0 as usize].to_string()
    }

    /// Apply `f` to the interned string without cloning.
    pub fn with_name<R>(&self, sym: Sym, f: impl FnOnce(&str) -> R) -> R {
        f(&self.inner.read().unwrap().names[sym.0 as usize])
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.inner.read().unwrap().names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let t = SymbolTable::new();
        let a1 = t.intern("arc");
        let a2 = t.intern("arc");
        assert_eq!(a1, a2);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn distinct_names_get_distinct_syms() {
        let t = SymbolTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        assert_ne!(a, b);
        assert_eq!(t.name(a), "a");
        assert_eq!(t.name(b), "b");
    }

    #[test]
    fn lookup_does_not_intern() {
        let t = SymbolTable::new();
        assert_eq!(t.lookup("ghost"), None);
        assert_eq!(t.len(), 0);
        let g = t.intern("ghost");
        assert_eq!(t.lookup("ghost"), Some(g));
    }

    #[test]
    fn with_name_avoids_clone() {
        let t = SymbolTable::new();
        let s = t.intern("hello");
        assert_eq!(t.with_name(s, |n| n.len()), 5);
    }
}
