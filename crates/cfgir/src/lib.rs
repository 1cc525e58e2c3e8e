//! Three-address control-flow-graph IR for the CASH spatial compiler.
//!
//! This crate is the substrate between the `minic` frontend and the Pegasus
//! dataflow representation. It provides:
//!
//! - a conventional CFG of basic blocks over virtual registers
//!   ([`Function`], [`Block`], [`Instr`]);
//! - abstract *memory objects* and read/write sets ([`ObjectSet`]) attached to
//!   every load and store, the raw material for the paper's token-insertion
//!   algorithm (§3.3);
//! - dominator / post-dominator trees ([`dom`]);
//! - natural-loop discovery ([`loops`]);
//! - hyperblock formation ([`hyperblock`]) — the single-entry acyclic regions
//!   that CASH predicates into straight-line code (§3.1);
//! - procedure inlining ([`inline`]) — spatial computation instantiates each
//!   operation in hardware, so the compile pipeline flattens the call tree.
//!
//! The CFG deliberately stays close to what any textbook compiler produces;
//! everything interesting about Pegasus (predication, muxes, etas, tokens)
//! happens in the `pegasus` crate on top of this one.

pub mod alias;
pub mod dom;
pub mod func;
pub mod hyperblock;
pub mod inline;
pub mod liveness;
pub mod loops;
pub mod objects;
pub mod pointsto;
pub mod types;
pub mod validate;

pub use alias::AliasOracle;
pub use func::{Block, BlockId, Function, Instr, Reg, Terminator};
pub use hyperblock::{HyperblockId, Hyperblocks};
pub use loops::{Loop, LoopForest};
pub use objects::{MemObject, ObjId, ObjectKind, ObjectSet};
pub use types::{BinOp, Type, UnOp};

use fxmap::HashMap;
use std::fmt;

/// A whole translation unit: global memory objects plus functions.
#[derive(Debug, Clone, Default)]
pub struct Module {
    /// Memory objects (global arrays/scalars, address-taken locals). Index 0
    /// is reserved for the *unknown* object (see [`ObjectSet`]).
    pub objects: Vec<MemObject>,
    /// All functions, keyed by name for call resolution.
    pub functions: Vec<Function>,
    /// Declared-independent pointer pairs from `#pragma independent p q`,
    /// recorded per function as pairs of parameter indices.
    pub pragmas: Vec<PragmaIndependent>,
}

/// A `#pragma independent p q` annotation: within `function`, the pointers
/// named by the two parameter indices never alias (§7.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PragmaIndependent {
    /// Function the pragma appears in.
    pub function: String,
    /// Names of the two pointer variables declared independent.
    pub ptrs: (String, String),
}

impl Module {
    /// Creates an empty module with the reserved *unknown* object installed.
    pub fn new() -> Self {
        Module { objects: vec![MemObject::unknown()], functions: Vec::new(), pragmas: Vec::new() }
    }

    /// Registers a memory object and returns its id.
    pub fn add_object(&mut self, obj: MemObject) -> ObjId {
        let id = ObjId(self.objects.len() as u32);
        self.objects.push(obj);
        id
    }

    /// Looks up a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Looks up a function by name, mutably.
    pub fn function_mut(&mut self, name: &str) -> Option<&mut Function> {
        self.functions.iter_mut().find(|f| f.name == name)
    }

    /// Index of each function by name (for call resolution).
    pub fn function_indices(&self) -> HashMap<String, usize> {
        self.functions.iter().enumerate().map(|(i, f)| (f.name.clone(), i)).collect()
    }

    /// Total bytes of statically allocated memory (sum of object sizes,
    /// excluding the unknown pseudo-object).
    pub fn static_bytes(&self) -> u64 {
        self.objects.iter().skip(1).map(|o| o.size_bytes).sum()
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, o) in self.objects.iter().enumerate() {
            writeln!(f, "object #{i}: {o}")?;
        }
        for func in &self.functions {
            writeln!(f, "{func}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Type;

    #[test]
    fn module_reserves_unknown_object() {
        let m = Module::new();
        assert_eq!(m.objects.len(), 1);
        assert!(m.objects[0].is_unknown());
    }

    #[test]
    fn add_object_assigns_sequential_ids() {
        let mut m = Module::new();
        let a = m.add_object(MemObject::global("a", Type::int(32), 10));
        let b = m.add_object(MemObject::global("b", Type::int(32), 10));
        assert_eq!(a.0 + 1, b.0);
        assert_eq!(m.static_bytes(), 80);
    }
}
