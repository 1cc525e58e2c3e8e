//! The alias oracle: may two memory objects overlap?
//!
//! Read/write sets ([`crate::ObjectSet`]) name abstract objects; whether two
//! *different* objects can denote overlapping storage is a semantic question
//! answered here. Distinct globals/locals never overlap; a pointer
//! parameter's pseudo-object overlaps anything it could legally point to,
//! unless a `#pragma independent` annotation rules a specific pair out
//! (§7.1). Immutable objects never participate in a dependence because they
//! are never written (§4.2).

use crate::objects::{ObjId, ObjectKind, ObjectSet};
use crate::{Module, PragmaIndependent};
use fxmap::HashSet;

/// Answers may-alias queries about the objects of one module, with the
/// module's pragma annotations folded in.
#[derive(Debug)]
pub struct AliasOracle<'m> {
    module: &'m Module,
    /// Pairs of ParamPtr object ids declared independent.
    independent: HashSet<(ObjId, ObjId)>,
}

impl<'m> AliasOracle<'m> {
    /// Builds the oracle, resolving each pragma's pointer names to the
    /// ParamPtr objects of the named function. Pragmas naming unknown
    /// functions or parameters are ignored (they guarantee nothing).
    pub fn new(module: &'m Module) -> Self {
        let mut independent = HashSet::default();
        for PragmaIndependent { function, ptrs } in &module.pragmas {
            let a = find_param_obj(module, function, &ptrs.0);
            let b = find_param_obj(module, function, &ptrs.1);
            if let (Some(a), Some(b)) = (a, b) {
                independent.insert((a.min(b), a.max(b)));
            }
        }
        AliasOracle { module, independent }
    }

    /// May objects `a` and `b` denote overlapping storage?
    pub fn may_alias(&self, a: ObjId, b: ObjId) -> bool {
        let (oa, ob) = (&self.module.objects[a.0 as usize], &self.module.objects[b.0 as usize]);
        // Immutable data is never written; no dependence can involve it.
        if oa.kind == ObjectKind::Immutable || ob.kind == ObjectKind::Immutable {
            return false;
        }
        if a == b {
            return true;
        }
        use ObjectKind::*;
        match (oa.kind, ob.kind) {
            (Unknown, _) | (_, Unknown) => true,
            // Distinct named storage never overlaps.
            (Global, Global) | (Global, Local) | (Local, Global) | (Local, Local) => false,
            // A pointer parameter may point anywhere, except where a pragma
            // says otherwise.
            (ParamPtr, ParamPtr) => !self.independent.contains(&(a.min(b), a.max(b))),
            (ParamPtr, _) | (_, ParamPtr) => true,
            (Immutable, _) | (_, Immutable) => false,
        }
    }

    /// May the two access sets touch common storage?
    pub fn sets_overlap(&self, x: &ObjectSet, y: &ObjectSet) -> bool {
        match (x, y) {
            (ObjectSet::Ids(a), _) if a.is_empty() => false,
            (_, ObjectSet::Ids(b)) if b.is_empty() => false,
            (ObjectSet::Top, other) | (other, ObjectSet::Top) => {
                // Top overlaps anything writable; a set of only-immutable
                // objects still cannot be involved in a dependence.
                match other.ids() {
                    Some(ids) => ids
                        .iter()
                        .any(|&o| self.module.objects[o.0 as usize].kind != ObjectKind::Immutable),
                    None => true,
                }
            }
            (ObjectSet::Ids(a), ObjectSet::Ids(b)) => {
                a.iter().any(|&x| b.iter().any(|&y| self.may_alias(x, y)))
            }
        }
    }

    /// Is every object in the set immutable (so the access needs no token at
    /// all, §4.2)?
    pub fn all_immutable(&self, s: &ObjectSet) -> bool {
        match s.ids() {
            Some(ids) => {
                !ids.is_empty()
                    && ids
                        .iter()
                        .all(|&o| self.module.objects[o.0 as usize].kind == ObjectKind::Immutable)
            }
            None => false,
        }
    }

    /// The module this oracle reads.
    pub fn module(&self) -> &Module {
        self.module
    }
}

fn find_param_obj(module: &Module, function: &str, param: &str) -> Option<ObjId> {
    let f = module.function(function)?;
    for (i, &r) in f.params.iter().enumerate() {
        if f.reg_name[r.0 as usize].as_deref() == Some(param) {
            return f.param_objs[i];
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::Function;
    use crate::objects::MemObject;
    use crate::types::Type;

    fn module_with_params() -> Module {
        let mut m = Module::new();
        let ga = m.add_object(MemObject::global("a", Type::int(32), 8));
        let gb = m.add_object(MemObject::global("b", Type::int(32), 8));
        let imm = m.add_object(MemObject::immutable("s", Type::uint(8), vec![1, 2]));
        let pp = m.add_object(MemObject::param_ptr("f", "p", Type::int(32)));
        let pq = m.add_object(MemObject::param_ptr("f", "q", Type::int(32)));
        let mut f = Function::new("f", Type::Void);
        f.add_ptr_param(Type::ptr(Type::int(32)), "p", pp);
        f.add_ptr_param(Type::ptr(Type::int(32)), "q", pq);
        m.functions.push(f);
        let _ = (ga, gb, imm);
        m
    }

    #[test]
    fn distinct_globals_never_alias() {
        let m = module_with_params();
        let o = AliasOracle::new(&m);
        assert!(!o.may_alias(ObjId(1), ObjId(2)));
        assert!(o.may_alias(ObjId(1), ObjId(1)));
    }

    #[test]
    fn immutable_objects_never_alias() {
        let m = module_with_params();
        let o = AliasOracle::new(&m);
        assert!(!o.may_alias(ObjId(3), ObjId(3)));
        assert!(!o.may_alias(ObjId(3), ObjId(1)));
        assert!(o.all_immutable(&ObjectSet::only(ObjId(3))));
        assert!(!o.all_immutable(&ObjectSet::only(ObjId(1))));
        assert!(!o.all_immutable(&ObjectSet::Top));
    }

    #[test]
    fn params_alias_by_default() {
        let m = module_with_params();
        let o = AliasOracle::new(&m);
        assert!(o.may_alias(ObjId(4), ObjId(5)));
        assert!(o.may_alias(ObjId(4), ObjId(1))); // param vs global
    }

    #[test]
    fn pragma_makes_params_independent() {
        let mut m = module_with_params();
        m.pragmas.push(PragmaIndependent { function: "f".into(), ptrs: ("p".into(), "q".into()) });
        let o = AliasOracle::new(&m);
        assert!(!o.may_alias(ObjId(4), ObjId(5)));
        // Still aliases globals.
        assert!(o.may_alias(ObjId(4), ObjId(1)));
    }

    #[test]
    fn pragma_with_unknown_names_is_ignored() {
        let mut m = module_with_params();
        m.pragmas
            .push(PragmaIndependent { function: "f".into(), ptrs: ("p".into(), "nosuch".into()) });
        let o = AliasOracle::new(&m);
        assert!(o.may_alias(ObjId(4), ObjId(5)));
    }

    #[test]
    fn set_overlap_uses_alias_relation() {
        let mut m = module_with_params();
        m.pragmas.push(PragmaIndependent { function: "f".into(), ptrs: ("p".into(), "q".into()) });
        let o = AliasOracle::new(&m);
        let sp = ObjectSet::only(ObjId(4));
        let sq = ObjectSet::only(ObjId(5));
        assert!(!o.sets_overlap(&sp, &sq));
        let sa = ObjectSet::only(ObjId(1));
        assert!(o.sets_overlap(&sp, &sa));
        assert!(o.sets_overlap(&ObjectSet::Top, &sa));
        // Top vs a purely-immutable set is still no dependence.
        let simm = ObjectSet::only(ObjId(3));
        assert!(!o.sets_overlap(&ObjectSet::Top, &simm));
        assert!(!o.sets_overlap(&ObjectSet::empty(), &ObjectSet::Top));
    }
}
