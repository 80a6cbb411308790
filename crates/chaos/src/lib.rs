//! # jitbull-chaos — deterministic fault injection + self-healing
//!
//! JITBULL's premise is graceful degradation: when a function's JIT DNA
//! looks dangerous, fall back per-function instead of killing the JIT
//! globally. This crate extends that philosophy from *detection* to
//! *failure*: it provokes engine failures deterministically and supplies
//! the recovery primitives the rest of the stack uses to heal from them.
//!
//! Two halves:
//!
//! * **Provocation** — [`FaultInjector`]: a seeded, zero-overhead-when-
//!   disabled fault source threaded through the JIT pipeline, the
//!   comparator, the VDC loader, and the pool workers. Fault plans are
//!   either scripted ("the 3rd DB load fails with an I/O error") or
//!   rate-based ("0.5% of pass executions stall"), and both are a pure
//!   function of `(seed, site, occurrence index)` — thread interleaving
//!   cannot change which occurrences fault.
//! * **Recovery** — [`CircuitBreaker`] (sliding-window trip, half-open
//!   probe, cooldown), [`Quarantine`] (strike list pinning repeatedly
//!   panicking functions to no-go), and [`retry`] (exponential backoff
//!   with seeded jitter for DB reloads).
//!
//! The crate deliberately depends only on `jitbull-prng`: the engine,
//! comparator, and pool all depend on *it*, so it must sit at the bottom
//! of the workspace graph.
//!
//! # Examples
//!
//! ```
//! use jitbull_chaos::{FaultInjector, FaultKind, FaultPlan, FaultSite};
//!
//! // Script the second and third pipeline-pass executions to panic.
//! let plan = FaultPlan::new(42).script(FaultSite::PassRun, FaultKind::PassPanic, 1, 2);
//! let inj = FaultInjector::from_plan(plan);
//! assert_eq!(inj.fire(FaultSite::PassRun), None);
//! assert_eq!(inj.fire(FaultSite::PassRun), Some(FaultKind::PassPanic));
//! assert_eq!(inj.fire(FaultSite::PassRun), Some(FaultKind::PassPanic));
//! assert_eq!(inj.fire(FaultSite::PassRun), None);
//!
//! // Disabled injectors cost one pointer test per site.
//! let off = FaultInjector::disabled();
//! assert_eq!(off.fire(FaultSite::DbLoad), None);
//! ```

#![forbid(unsafe_code)]

mod breaker;
mod injector;
mod quarantine;
pub mod retry;

pub use breaker::{BreakerConfig, BreakerStats, CircuitBreaker, Permit, Transition};
pub use injector::{
    ChaosTally, FaultInjector, FaultKind, FaultPlan, FaultRule, FaultSite, Trigger,
};
pub use quarantine::Quarantine;
pub use retry::{RetryPolicy, RetryReport};
