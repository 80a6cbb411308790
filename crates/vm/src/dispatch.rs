//! Call dispatch abstraction.
//!
//! Every function call in the VM is routed through a [`Dispatcher`], so a
//! JIT engine (the `jitbull-jit` crate) can interpose tier selection —
//! interpret, run baseline code, or run optimized MIR — without the
//! interpreter knowing about tiers at all. [`InterpDispatcher`] is the
//! no-JIT baseline that always interprets.

use crate::bytecode::{FuncId, Module};
use crate::error::VmError;
use crate::interp;
use crate::runtime::{Runtime, INTERP_COST};
use crate::value::Value;

/// Routes a function invocation to an execution tier.
pub trait Dispatcher {
    /// Invokes `func` with the given receiver, returning its result. The
    /// arguments are the top `argc` values of [`Runtime::stack`], which
    /// the call removes whatever its outcome, so no call allocates an
    /// argument list.
    ///
    /// # Errors
    ///
    /// Propagates any [`VmError`] raised during execution.
    fn call(
        &mut self,
        rt: &mut Runtime,
        module: &Module,
        func: FuncId,
        this: Value,
        argc: usize,
    ) -> Result<Value, VmError>;
}

/// The interpreter-only dispatcher (models a browser with the JIT engine
/// fully disabled — the paper's *NoJIT* configuration).
#[derive(Debug, Clone, Copy, Default)]
pub struct InterpDispatcher;

impl InterpDispatcher {
    /// Creates the dispatcher.
    pub fn new() -> Self {
        InterpDispatcher
    }
}

impl Dispatcher for InterpDispatcher {
    fn call(
        &mut self,
        rt: &mut Runtime,
        module: &Module,
        func: FuncId,
        this: Value,
        argc: usize,
    ) -> Result<Value, VmError> {
        interp::run_function(rt, module, func, this, argc, self, INTERP_COST)
    }
}
