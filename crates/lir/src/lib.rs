//! # jitbull-lir — the low-level IR backend
//!
//! Steps ⑤–⑦ of the paper's Figure 1: the optimized MIR (`MIR'`) is
//! lowered to a **LIR** ("low-level intermediate representation …
//! focuses on binary code generation"), the LIR undergoes its own
//! backend passes, and the result is what the optimizing tier actually
//! executes.
//!
//! The backend performs the real compiler work a native JIT would:
//!
//! * [`mod@lower`] — **out-of-SSA translation**: phis become parallel move
//!   groups on the incoming edges (critical edges were split by the MIR
//!   pipeline), sequentialized with cycle breaking through a scratch
//!   register;
//! * [`regalloc`] — **linear-scan register allocation** over liveness
//!   intervals computed by backward dataflow, with spill slots when the
//!   16 simulated machine registers run out;
//! * [`passes`] — LIR-level cleanups (redundant-move elimination, jump
//!   threading through empty blocks);
//! * [`exec`] — decoding to the executable form ([`IonCode`]: flat
//!   instruction array, frame-slot operands, ready constants) and its
//!   executor, which keeps frames on the runtime's value stack and the
//!   same raw-vs-guarded memory semantics as the MIR, so removed
//!   `boundscheck`/`unbox` guards stay exploitable end to end.
//!
//! JITBULL itself never sees LIR — the paper instruments the MIR
//! optimization passes only (§V: "specifically within the optimization
//! passes for MIR code") — but the engine's optimizing tier runs the
//! LIR produced here, completing the compilation pipeline.

#![forbid(unsafe_code)]

pub mod exec;
pub mod lir;
pub mod lower;
pub mod passes;
pub mod regalloc;

pub use exec::{run, IonCode};
pub use lir::{GuardRefs, LBlockId, LFunction, LInstr, LOp, Loc, VReg};
pub use lower::lower;
pub use regalloc::{allocate, Allocation};

use jitbull_mir::MirFunction;

/// Runs the backend up to register allocation (lower → LIR passes →
/// register allocation → move elimination), returning inspectable LIR.
pub fn lower_and_allocate(mir: &MirFunction) -> LFunction {
    let mut f = lower(mir);
    passes::thread_jumps(&mut f);
    let allocation = allocate(&f);
    regalloc::apply(&mut f, &allocation);
    // Move elimination is location-aware, so it runs post-allocation.
    passes::eliminate_redundant_moves(&mut f);
    f
}

/// Compiles optimized MIR all the way to executable code: the
/// register-allocated LIR of [`lower_and_allocate`], decoded once.
pub fn compile(mir: &MirFunction) -> IonCode {
    IonCode::decode(&lower_and_allocate(mir))
}
