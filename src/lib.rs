//! # jitbull-repro — workspace facade
//!
//! Re-exports all crates of the JITBULL (DSN 2024) reproduction so that the
//! workspace-level examples and integration tests can reach every subsystem
//! through one dependency. See `README.md` for the repository tour and
//! `DESIGN.md` for the system inventory.

#![forbid(unsafe_code)]

pub use jitbull;
pub use jitbull_frontend as frontend;
pub use jitbull_fuzzer as fuzzer;
pub use jitbull_jit as jit;
pub use jitbull_lir as lir;
pub use jitbull_mir as mir;
pub use jitbull_vdc as vdc;
pub use jitbull_vm as vm;
pub use jitbull_workloads as workloads;
