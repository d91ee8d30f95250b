//! # genfv-sat — a from-scratch CDCL SAT solver
//!
//! This crate implements the complete boolean-satisfiability engine that the
//! rest of the `genfv` stack (bit-blaster, bounded model checker, k-induction
//! engine) is built on. It is a conflict-driven clause-learning (CDCL) solver
//! in the MiniSat lineage:
//!
//! * a flat clause arena ([`clause::ClauseDb`]): each clause is an
//!   inline header (length, flags, LBD, activity) followed by its
//!   literals in one `Vec`, compacted at decision level 0 once deleted
//!   clauses hold a fifth of it, so dead learnt clauses neither stay
//!   resident nor get copied into clones,
//! * two-watched-literal propagation over per-literal values, with
//!   binary clauses watched implicitly (the watcher's blocker is the
//!   other literal, so deciding them never reads the arena),
//! * first-UIP conflict analysis with clause minimisation,
//! * exponential VSIDS activity with on-the-fly rescaling and a fast
//!   default decay (0.85, tuned for many short incremental queries; see
//!   [`SolverConfig`]),
//! * phase saving (always on),
//! * Luby-sequence or geometric restarts,
//! * glue-(LBD-)based learnt-clause database reduction,
//! * incremental solving under assumptions with final-conflict
//!   (unsat-core-over-assumptions) extraction,
//! * activation-literal helpers ([`ActivationGroup`]) for guarding and
//!   retracting hypotheses on a long-lived solver without losing learnt
//!   clauses — the substrate of the model checker's incremental proof
//!   sessions,
//! * cube splitting for cube-and-conquer ([`cube::split`]: exhaustive
//!   sign cubes over lookahead-scored high-activity variables), and
//! * a persistent, relocatable learnt-clause pool ([`ClausePool`]) that
//!   carries low-LBD glue across solvers, queries, and sessions.
//!
//! The public entry point is [`Solver`]. Variables are created with
//! [`Solver::new_var`], clauses added with [`Solver::add_clause`], and
//! satisfiability queried with [`Solver::solve`] or
//! [`Solver::solve_with_assumptions`].
//!
//! ```
//! use genfv_sat::{Solver, Lit};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! // (a ∨ b) ∧ (¬a ∨ b) — forces b
//! s.add_clause([Lit::pos(a), Lit::pos(b)]);
//! s.add_clause([Lit::neg(a), Lit::pos(b)]);
//! assert!(s.solve().is_sat());
//! assert_eq!(s.value(Lit::pos(b)), Some(true));
//! ```
//!
//! A DIMACS CNF parser is provided in [`dimacs`] for tests and tooling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assume;
pub mod clause;
pub mod cube;
pub mod dimacs;
pub mod lit;
pub mod pool;
pub mod solver;
pub mod tseitin;

pub use assume::ActivationGroup;
pub use clause::{ClauseBlock, ClauseRef};
pub use lit::{Lit, Var};
pub use pool::{BaseTag, ClausePool, PoolConfig, PoolStats, StepTables};
pub use solver::{QueryEffort, RestartPolicy, SolveResult, Solver, SolverConfig, SolverStats};
pub use tseitin::CnfBuilder;
