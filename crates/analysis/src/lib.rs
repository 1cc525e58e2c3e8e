//! Memory analyses for the CASH spatial compiler.
//!
//! Three engines back the optimization passes:
//!
//! - [`affine`] — symbolic address expressions (`&a + 4·i + 12`), the
//!   paper's "symbolic computation" disambiguator (§4.3 heuristic 1);
//! - [`loopinfo`] — token-ring discovery, induction variables (§4.3
//!   heuristic 2, §6.2), and iteration-crossing conflict classification —
//!   the dependence-distance analysis behind loop decoupling (§6.3);
//! - [`pred`] — predicates as BDDs for the boolean reasoning of the
//!   redundancy eliminations (§5).
//!
//! [`disjoint`] combines them into the one §4.3 disambiguation query the
//! optimizer and the lint share.
//!
//! Pointer-analysis read/write sets (§4.3 heuristic 3) live in
//! [`cfgir::alias`], shared with graph construction.

pub mod affine;
pub mod disjoint;
pub mod loopinfo;
pub mod pred;

pub use affine::{affine_of, always_equal, may_overlap, Affine};
pub use disjoint::{provably_disjoint, AddrForms, Disambiguation};
pub use loopinfo::{
    find_activation, find_ivs, find_token_ring, iteration_conflict, Conflict, IndVars, IvSubst,
    TokenRing,
};
pub use pred::PredicateMap;
