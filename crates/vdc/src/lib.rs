//! # jitbull-vdc — vulnerability demonstrator codes
//!
//! The minijs proof-of-concept exploits for the eight CVEs modeled by
//! `jitbull-jit`, playing the role of the public PoCs the paper collected
//! (CVE-2019-9791 \[tunz\], CVE-2019-9810 \[xuechiyaobai\],
//! CVE-2019-11707 \[vigneshsrao\], CVE-2019-17026 \[lsw29475 / maxpl0it\])
//! and the four it re-implemented from Bugzilla descriptions for the
//! scalability study.
//!
//! Each [`Vdc`] is a complete script that:
//!
//! 1. warms its trigger function past the optimizing-JIT threshold with
//!    benign inputs,
//! 2. lets the buggy pass mis-compile it,
//! 3. drives the mis-compiled code to corrupt the simulated heap, and
//! 4. ends in the CVE's public outcome — an engine **crash** (wild memory
//!    access) or **payload execution** (a hijacked call into sprayed
//!    "shellcode").
//!
//! [`variants`] implements the paper's §VI-B-b four variant-generation
//! approaches (rename, minify, reorder+decoys, sub-function split), and
//! [`validate`] runs a script against a configurable engine to classify
//! the outcome.

#![forbid(unsafe_code)]

pub mod catalog;
pub mod dna;
pub mod validate;
pub mod variants;

pub use catalog::{all_vdcs, alternate_implementation, vdc, ExploitKind, Vdc};
pub use dna::{build_database, extract_dna, extract_program_dna, extract_program_dna_with};
pub use jitbull_jit::CveId;
pub use validate::{run_vdc, VdcOutcome};
pub use variants::{generate, VariantKind};
