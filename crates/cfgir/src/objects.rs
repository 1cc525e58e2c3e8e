//! Abstract memory objects and read/write sets.
//!
//! Every load and store in the CFG carries an [`ObjectSet`] — the set of
//! memory objects the access may touch (the paper's "read/write sets", also
//! called tags or M-lists, §3.3). Token edges are inserted between two
//! accesses only when their sets overlap and at least one writes.

use crate::types::Type;
use std::fmt;

/// Identifier of a memory object within a [`crate::Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjId(pub u32);

impl ObjId {
    /// The distinguished *unknown* object: a pointer about which nothing is
    /// known may point to it, and it overlaps everything.
    pub const UNKNOWN: ObjId = ObjId(0);
}

impl fmt::Display for ObjId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj{}", self.0)
    }
}

/// What kind of storage an object is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectKind {
    /// The catch-all object aliasing everything.
    Unknown,
    /// A global variable or array.
    Global,
    /// A function-local array or address-taken local (statically allocated;
    /// the pipeline inlines all calls so each local has one instance).
    Local,
    /// Read-only data (string literals, `const` globals) — accesses need no
    /// serialization at all (§4.2).
    Immutable,
    /// The unknown target of a pointer parameter: everything reached through
    /// parameter `p` of function `f`. Two such objects may be declared
    /// non-overlapping by `#pragma independent` (§7.1).
    ParamPtr,
}

/// Largest memory image, in bytes, a module may declare. The simulator
/// lays out and allocates every object up front, so a front end rejects a
/// declaration that would pass this cap rather than let allocation abort.
pub const MAX_IMAGE_BYTES: u64 = 1 << 28;

/// Byte size of `len` elements of `elem`, or `None` if it overflows `u64`.
pub fn array_bytes(elem: &Type, len: u64) -> Option<u64> {
    elem.size_bytes().checked_mul(len)
}

/// A named region of memory with a fixed element type and element count.
#[derive(Debug, Clone)]
pub struct MemObject {
    /// Source-level name (diagnostics only).
    pub name: String,
    /// Element type.
    pub elem: Type,
    /// Number of elements.
    pub len: u64,
    /// Total size in bytes.
    pub size_bytes: u64,
    /// Storage kind.
    pub kind: ObjectKind,
    /// Initial element values (zero-filled when absent).
    pub init: Vec<i64>,
}

impl MemObject {
    /// The reserved unknown object.
    pub fn unknown() -> Self {
        MemObject {
            name: "<unknown>".into(),
            elem: Type::uint(8),
            len: 0,
            size_bytes: 0,
            kind: ObjectKind::Unknown,
            init: Vec::new(),
        }
    }

    /// A global array of `len` elements of type `elem`.
    ///
    /// # Panics
    ///
    /// If the array's byte size overflows `u64` (front ends check
    /// [`array_bytes`] first).
    pub fn global(name: impl Into<String>, elem: Type, len: u64) -> Self {
        let size = array_bytes(&elem, len).expect("object byte size overflows u64");
        MemObject {
            name: name.into(),
            elem,
            len,
            size_bytes: size,
            kind: ObjectKind::Global,
            init: Vec::new(),
        }
    }

    /// A function-local array.
    pub fn local(name: impl Into<String>, elem: Type, len: u64) -> Self {
        MemObject { kind: ObjectKind::Local, ..MemObject::global(name, elem, len) }
    }

    /// The pointee pseudo-object of pointer parameter `param` of `func`.
    pub fn param_ptr(func: &str, param: &str, pointee: Type) -> Self {
        MemObject {
            name: format!("{func}::{param}"),
            elem: pointee,
            len: 0,
            size_bytes: 0,
            kind: ObjectKind::ParamPtr,
            init: Vec::new(),
        }
    }

    /// An immutable (const / string literal) object with initial contents.
    pub fn immutable(name: impl Into<String>, elem: Type, init: Vec<i64>) -> Self {
        let len = init.len() as u64;
        let size = array_bytes(&elem, len).expect("object byte size overflows u64");
        MemObject {
            name: name.into(),
            elem,
            len,
            size_bytes: size,
            kind: ObjectKind::Immutable,
            init,
        }
    }

    /// With initial values (lengths shorter than `len` are zero-extended).
    pub fn with_init(mut self, init: Vec<i64>) -> Self {
        self.init = init;
        self
    }

    /// Is this the unknown pseudo-object?
    pub fn is_unknown(&self) -> bool {
        self.kind == ObjectKind::Unknown
    }

    /// Is this object immutable?
    pub fn is_immutable(&self) -> bool {
        self.kind == ObjectKind::Immutable
    }
}

impl fmt::Display for MemObject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}[{}] ({:?}, {} bytes)",
            self.elem, self.name, self.len, self.kind, self.size_bytes
        )
    }
}

/// A may-access set of memory objects.
///
/// `Top` means "may access anything" (and in particular overlaps every other
/// nonempty set, including another `Top`). The explicit variant keeps a small
/// sorted, deduplicated id list.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ObjectSet {
    /// May touch any object at all.
    Top,
    /// May touch exactly these objects.
    Ids(Vec<ObjId>),
}

impl ObjectSet {
    /// The empty set (accesses nothing — only for provably dead code).
    pub fn empty() -> Self {
        ObjectSet::Ids(Vec::new())
    }

    /// A singleton set.
    pub fn only(id: ObjId) -> Self {
        if id == ObjId::UNKNOWN {
            ObjectSet::Top
        } else {
            ObjectSet::Ids(vec![id])
        }
    }

    /// Builds a set from ids; the unknown id forces `Top`.
    pub fn from_ids<I: IntoIterator<Item = ObjId>>(ids: I) -> Self {
        let mut v: Vec<ObjId> = Vec::new();
        for id in ids {
            if id == ObjId::UNKNOWN {
                return ObjectSet::Top;
            }
            v.push(id);
        }
        v.sort_unstable();
        v.dedup();
        ObjectSet::Ids(v)
    }

    /// Is this the universal set?
    pub fn is_top(&self) -> bool {
        matches!(self, ObjectSet::Top)
    }

    /// Is this the empty set?
    pub fn is_empty(&self) -> bool {
        matches!(self, ObjectSet::Ids(v) if v.is_empty())
    }

    /// Do the two sets share any object?
    pub fn overlaps(&self, other: &ObjectSet) -> bool {
        match (self, other) {
            (ObjectSet::Ids(a), _) if a.is_empty() => false,
            (_, ObjectSet::Ids(b)) if b.is_empty() => false,
            (ObjectSet::Top, _) | (_, ObjectSet::Top) => true,
            (ObjectSet::Ids(a), ObjectSet::Ids(b)) => {
                // Both sorted: linear merge intersection test.
                let (mut i, mut j) = (0, 0);
                while i < a.len() && j < b.len() {
                    match a[i].cmp(&b[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => return true,
                    }
                }
                false
            }
        }
    }

    /// Set union.
    pub fn union(&self, other: &ObjectSet) -> ObjectSet {
        match (self, other) {
            (ObjectSet::Top, _) | (_, ObjectSet::Top) => ObjectSet::Top,
            (ObjectSet::Ids(a), ObjectSet::Ids(b)) => {
                let mut v = a.clone();
                v.extend_from_slice(b);
                v.sort_unstable();
                v.dedup();
                ObjectSet::Ids(v)
            }
        }
    }

    /// Is this set contained in `other`?
    pub fn subset_of(&self, other: &ObjectSet) -> bool {
        match (self, other) {
            (_, ObjectSet::Top) => true,
            (ObjectSet::Top, ObjectSet::Ids(_)) => false,
            (ObjectSet::Ids(a), ObjectSet::Ids(b)) => a.iter().all(|x| b.contains(x)),
        }
    }

    /// Iterates over the explicit ids (`None` for `Top`).
    pub fn ids(&self) -> Option<&[ObjId]> {
        match self {
            ObjectSet::Top => None,
            ObjectSet::Ids(v) => Some(v),
        }
    }

    /// If the set names exactly one object, returns it.
    pub fn singleton(&self) -> Option<ObjId> {
        match self {
            ObjectSet::Ids(v) if v.len() == 1 => Some(v[0]),
            _ => None,
        }
    }
}

impl fmt::Display for ObjectSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectSet::Top => f.write_str("{*}"),
            ObjectSet::Ids(v) => {
                f.write_str("{")?;
                for (i, id) in v.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{id}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_rules() {
        let a = ObjectSet::from_ids([ObjId(1), ObjId(2)]);
        let b = ObjectSet::from_ids([ObjId(2), ObjId(3)]);
        let c = ObjectSet::from_ids([ObjId(4)]);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(a.overlaps(&ObjectSet::Top));
        assert!(!ObjectSet::empty().overlaps(&ObjectSet::Top));
        assert!(!ObjectSet::Top.overlaps(&ObjectSet::empty()));
        assert!(ObjectSet::Top.overlaps(&ObjectSet::Top));
    }

    #[test]
    fn unknown_id_promotes_to_top() {
        assert!(ObjectSet::only(ObjId::UNKNOWN).is_top());
        assert!(ObjectSet::from_ids([ObjId(1), ObjId::UNKNOWN]).is_top());
    }

    #[test]
    fn union_and_subset() {
        let a = ObjectSet::from_ids([ObjId(1)]);
        let b = ObjectSet::from_ids([ObjId(2)]);
        let u = a.union(&b);
        assert!(a.subset_of(&u));
        assert!(b.subset_of(&u));
        assert!(u.subset_of(&ObjectSet::Top));
        assert!(!ObjectSet::Top.subset_of(&u));
        assert_eq!(u, ObjectSet::from_ids([ObjId(2), ObjId(1)]));
    }

    #[test]
    fn singleton_extraction() {
        assert_eq!(ObjectSet::only(ObjId(3)).singleton(), Some(ObjId(3)));
        assert_eq!(ObjectSet::Top.singleton(), None);
        assert_eq!(ObjectSet::empty().singleton(), None);
    }

    #[test]
    fn object_constructors() {
        let g = MemObject::global("a", Type::int(32), 16);
        assert_eq!(g.size_bytes, 64);
        assert_eq!(g.kind, ObjectKind::Global);
        let c = MemObject::immutable("s", Type::uint(8), vec![104, 105, 0]);
        assert!(c.is_immutable());
        assert_eq!(c.size_bytes, 3);
        assert!(MemObject::unknown().is_unknown());
    }
}
