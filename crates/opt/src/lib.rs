//! The CASH optimization passes over Pegasus graphs.
//!
//! One module per transformation of the paper:
//!
//! | module | paper | what it does |
//! |---|---|---|
//! | [`scalar`] | §7.1 | constant folding, algebraic identities, CSE |
//! | [`dead_mem`] | §4.1 | removes false-predicate and unused memory ops |
//! | [`token_removal`] | §4.2–4.3 | immutable loads; dissolves provably unnecessary token edges (symbolic addresses, induction variables, read/write sets) |
//! | [`merge_ops`] | §5.1 | merges equivalent loads/stores (PRE/CSE/hoisting) |
//! | [`store_store`] | §5.2 | store-before-store (dead store) removal |
//! | [`load_store`] | §5.3 | load-after-store forwarding |
//! | [`loop_invariant`] | §5.4 | loop-invariant load motion |
//! | [`pipeline`] | §6 | read-only/monotone loop pipelining and loop decoupling with token generators |
//! | [`manager`] | — | pass ordering, optimization levels, per-pass statistics |
//!
//! All passes keep the token graph transitively reduced (§3.4) and leave
//! the graph verifiable ([`pegasus::verify`]).

pub mod dead_mem;
pub mod load_store;
pub mod loop_invariant;
pub mod manager;
pub mod merge_ops;
pub mod pipeline;
pub mod scalar;
pub mod store_store;
pub mod token_removal;
pub mod util;

#[cfg(test)]
mod testutil;

pub use analysis::Disambiguation;
pub use manager::{lint_config, optimize, OptConfig, OptLevel, OptReport, PassStat};
