//! # jitbull-fuzzer — fuzzer-to-database integration
//!
//! The paper's threat model (§IV-A) explicitly allows demonstrator codes
//! to come from machines instead of humans:
//!
//! > "VDCs do not need to originate from human experts; one way to use
//! > JITBULL is to feed the output of JIT fuzzers directly to its
//! > database. In this way, as soon as a crashing code example is
//! > detected, JITBULL will be able to automatically prevent similar
//! > exploit codes from running."
//!
//! This crate closes that loop end to end on the simulated substrate:
//!
//! 1. [`gen`] — a seeded generator of JIT-stressing minijs programs
//!    (hot functions, array-length manipulation, pops/pushes, masked and
//!    offset indexes, warm-up-then-outlier call patterns);
//! 2. [`harness`] — a campaign runner that executes each program on a
//!    vulnerable engine and collects the crashing/compromising finds;
//! 3. [`harness::auto_install`] — DNA extraction of every function of a
//!    find and installation into a [`jitbull::DnaDatabase`], after which
//!    re-running the find (or a renamed variant of it) is neutralized.
//!
//! Everything is deterministic per seed, so campaigns are reproducible.

#![forbid(unsafe_code)]

pub mod gen;
pub mod harness;
pub mod minimize;

pub use gen::{generate, GenConfig};
pub use harness::{auto_install, install_until_neutralized, run_campaign, CampaignReport, Find};
pub use minimize::{minimize, MinimizeError};
