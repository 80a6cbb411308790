//! Executor tests: frames on the runtime's value stack survive errors
//! raised in nested optimized frames, deep and re-entrant recursion, and
//! per-invocation guard flags.
//!
//! Most tests run every function of a small program as optimized code
//! (the real pass pipeline, then `jitbull_lir::compile`), so every frame
//! involved is an optimized frame.

use std::rc::Rc;

use jitbull_frontend::parse_program;
use jitbull_jit::engine::{Engine, EngineConfig};
use jitbull_jit::{optimize, OptimizeOptions, VulnConfig};
use jitbull_lir::lir::{GuardRefs, LBlock, LBlockId, LFunction, LInstr, LOp, VReg};
use jitbull_lir::{allocate, compile, regalloc, IonCode};
use jitbull_mir::{build_mir, MOpcode};
use jitbull_vm::{
    compile_program, Dispatcher, ExploitStatus, FuncId, Module, Runtime, Value, VmError,
};

/// Runs every function as optimized code.
struct IonOnly {
    code: Vec<Rc<IonCode>>,
}

impl IonOnly {
    fn new(module: &Module) -> Self {
        let code = (0..module.functions.len())
            .map(|i| {
                let mir = build_mir(module, FuncId(i as u32)).expect("mir builds");
                let optimized = optimize(mir, &VulnConfig::none(), &OptimizeOptions::default());
                Rc::new(compile(&optimized.mir))
            })
            .collect();
        IonOnly { code }
    }
}

impl Dispatcher for IonOnly {
    fn call(
        &mut self,
        rt: &mut Runtime,
        module: &Module,
        func: FuncId,
        this: Value,
        argc: usize,
    ) -> Result<Value, VmError> {
        let code = Rc::clone(&self.code[func.0 as usize]);
        jitbull_lir::run(&code, rt, module, this, argc, self)
    }
}

/// Runs `code` as an entry call with `args` pushed onto the value stack.
fn run_with(
    code: &IonCode,
    rt: &mut Runtime,
    module: &Module,
    args: &[Value],
    dispatcher: &mut dyn Dispatcher,
) -> Result<Value, VmError> {
    rt.stack.extend_from_slice(args);
    jitbull_lir::run(code, rt, module, Value::Undefined, args.len(), dispatcher)
}

/// A program compiled to optimized code, with a prepared runtime.
struct Program {
    module: Module,
    rt: Runtime,
    ion: IonOnly,
}

impl Program {
    fn new(source: &str, fuel: u64) -> Self {
        let module = compile_program(&parse_program(source).expect("parses")).expect("compiles");
        let mut rt = Runtime::with_fuel(fuel);
        rt.prepare(&module);
        let ion = IonOnly::new(&module);
        Program { module, rt, ion }
    }

    fn call(&mut self, name: &str, args: &[Value]) -> Result<Value, VmError> {
        let fid = self.module.function_id(name).expect("function exists");
        let code = Rc::clone(&self.ion.code[fid.0 as usize]);
        run_with(&code, &mut self.rt, &self.module, args, &mut self.ion)
    }
}

fn num(v: &Value) -> f64 {
    match v {
        Value::Number(n) => *n,
        other => panic!("expected a number, got {other:?}"),
    }
}

fn sentinel_stack(rt: &mut Runtime) {
    rt.stack.push(Value::str("caller slot"));
}

/// Runs `test` on a thread with room for `Runtime::MAX_DEPTH` nested
/// optimized frames on the native stack. An optimized build needs about
/// 1.75 MB for them (x86-64), so it gets a spawned thread's default
/// 2 MiB; an unoptimized build needs about 26 KB a frame.
fn with_deep_stack(test: impl FnOnce() + Send + 'static) {
    let stack = if cfg!(debug_assertions) {
        64 << 20
    } else {
        2 << 20
    };
    std::thread::Builder::new()
        .stack_size(stack)
        .spawn(test)
        .expect("spawns")
        .join()
        .expect("test thread passes");
}

fn assert_sentinel_only(rt: &Runtime) {
    assert_eq!(rt.stack.len(), 1, "stack not back at its pre-call depth");
    assert!(matches!(&rt.stack[0], Value::Str(s) if &**s == "caller slot"));
}

const NESTED_HIJACK: &str = "
    function inner(f, x) { return f(x); }
    function outer(f, x) { return inner(f, x) + 1; }
    function down(n) { if (n == 0) { return 0; } return down(n - 1) + 1; }
";

#[test]
fn crash_in_a_nested_frame_leaves_the_stack_at_its_pre_call_depth() {
    with_deep_stack(|| {
        let mut p = Program::new(NESTED_HIJACK, 1_000_000);
        sentinel_stack(&mut p.rt);
        let err = p
            .call("outer", &[Value::Number(5.0), Value::Number(1.0)])
            .unwrap_err();
        assert!(
            matches!(err, VmError::Crash(ref m) if m.contains("hijacked")),
            "{err:?}"
        );
        assert!(matches!(p.rt.status, ExploitStatus::Crashed(_)));
        assert_sentinel_only(&p.rt);
        // The call depth unwound too: the full depth is still available.
        let depth = f64::from(Runtime::MAX_DEPTH - 1);
        let v = p
            .call("down", &[Value::Number(depth)])
            .expect("recursion fits");
        assert_eq!(num(&v), depth);
        assert_sentinel_only(&p.rt);
    });
}

#[test]
fn out_of_fuel_in_a_nested_frame_leaves_the_stack_at_its_pre_call_depth() {
    let source = "
        function spin(n) { var t = 0; for (var i = 0; i < n; i++) { t = t + i; } return t; }
        function outer(n) { return spin(n) + 1; }
    ";
    let mut p = Program::new(source, 1_000);
    sentinel_stack(&mut p.rt);
    let err = p.call("outer", &[Value::Number(1e6)]).unwrap_err();
    assert_eq!(err, VmError::OutOfFuel);
    assert_eq!(p.rt.ops(), 1_000, "every unit of fuel was charged once");
    assert_eq!(p.rt.fuel(), 0);
    assert_sentinel_only(&p.rt);
}

#[test]
fn engine_reruns_after_nested_errors_match_a_fresh_engine() {
    let source = "
        function inner(f, x) { return f(x); }
        function outer(f, x) { return inner(f, x) + 1; }
        function id(x) { return x; }
        var t = 0;
        for (var i = 0; i < 400; i++) { t = outer(id, i); }
        print(t);
        outer(7, 1);
        print(\"unreachable\");
    ";
    let observe = |engine: &mut Engine| {
        engine
            .run_source_with(source)
            .map(|o| (o.outcome.printed, o.outcome.status))
    };
    let fresh = observe(&mut Engine::new(EngineConfig::fast_test())).expect("runs");
    assert_eq!(fresh.0, vec!["400"]);
    assert_eq!(
        fresh.1,
        ExploitStatus::Crashed("control flow hijacked to 7".into())
    );
    let mut reused = Engine::new(EngineConfig::fast_test());
    for _ in 0..3 {
        assert_eq!(observe(&mut reused).expect("runs"), fresh);
    }
    // Same for a run cut short by fuel inside the hot, optimized loop.
    let starved = EngineConfig {
        fuel: 2_000,
        ..EngineConfig::fast_test()
    };
    assert_eq!(
        observe(&mut Engine::new(starved.clone())),
        Err(VmError::OutOfFuel)
    );
    let mut reused = Engine::new(starved);
    for _ in 0..3 {
        assert_eq!(observe(&mut reused), Err(VmError::OutOfFuel));
    }
}

#[test]
fn optimized_recursion_reaches_max_depth_and_fails_cleanly_beyond() {
    with_deep_stack(|| {
        let mut p = Program::new(NESTED_HIJACK, u64::MAX);
        sentinel_stack(&mut p.rt);
        let depth = f64::from(Runtime::MAX_DEPTH - 1);
        let v = p.call("down", &[Value::Number(depth)]).expect("fits");
        assert_eq!(num(&v), depth);
        let err = p.call("down", &[Value::Number(depth + 1.0)]).unwrap_err();
        assert!(
            matches!(err, VmError::Type(ref m) if m.contains("depth")),
            "{err:?}"
        );
        assert_sentinel_only(&p.rt);
    });
}

#[test]
fn reentrant_frames_do_not_alias() {
    let source = "
        function fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
        function tree(n) {
          if (n == 0) { return 1; }
          var a = tree(n - 1);
          var b = tree(n - 1) * 3;
          return a + b + n;
        }
    ";
    fn tree(n: u32) -> f64 {
        if n == 0 {
            1.0
        } else {
            tree(n - 1) + tree(n - 1) * 3.0 + f64::from(n)
        }
    }
    let mut p = Program::new(source, u64::MAX);
    let v = p.call("fib", &[Value::Number(20.0)]).expect("runs");
    assert_eq!(num(&v), 6765.0);
    let v = p.call("tree", &[Value::Number(10.0)]).expect("runs");
    assert_eq!(num(&v), tree(10));
    assert!(p.rt.stack.is_empty());
}

/// ```text
/// L0: v0 = parameter0; v1 = parameter1; v2 = parameter2; br v2 ? L1 : L2
/// L1: v3 = initializedlength v0; v4 = boundscheck v1 v3; jmp L2
/// L2: v5 = loadelement v0 v1   (vouched for by v4's flag); ret v5
/// ```
///
/// The load consults the `boundscheck` flag whether or not the check ran
/// in this invocation, so a flag left over from an earlier invocation
/// would change which path it takes.
fn optionally_checked_load() -> IonCode {
    let op = |op: MOpcode, dst: u32, args: &[u32]| {
        LInstr::new(
            LOp::Op(op),
            Some(VReg(dst)),
            args.iter().map(|a| VReg(*a)).collect(),
        )
    };
    let mut load = op(MOpcode::LoadElement, 5, &[0, 1]);
    load.guards = GuardRefs {
        bounds: Some(VReg(4)),
        unbox: None,
    };
    let mut f = LFunction {
        name: "optionally_checked_load".into(),
        blocks: vec![
            LBlock {
                instrs: vec![
                    op(MOpcode::Parameter(0), 0, &[]),
                    op(MOpcode::Parameter(1), 1, &[]),
                    op(MOpcode::Parameter(2), 2, &[]),
                    LInstr::new(
                        LOp::Branch {
                            then_block: LBlockId(1),
                            else_block: LBlockId(2),
                        },
                        None,
                        vec![VReg(2)],
                    ),
                ],
            },
            LBlock {
                instrs: vec![
                    op(MOpcode::InitializedLength, 3, &[0]),
                    op(MOpcode::BoundsCheck, 4, &[1, 3]),
                    LInstr::new(LOp::Jump(LBlockId(2)), None, vec![]),
                ],
            },
            LBlock {
                instrs: vec![load, LInstr::new(LOp::Return, None, vec![VReg(5)])],
            },
        ],
        n_vregs: 6,
        locs: Vec::new(),
        spill_slots: 0,
    };
    assert_eq!(f.validate(), Ok(()));
    let allocation = allocate(&f);
    regalloc::apply(&mut f, &allocation);
    IonCode::decode(&f)
}

#[test]
fn a_failed_bounds_check_does_not_leak_into_the_next_invocation() {
    let code = optionally_checked_load();
    let module = compile_program(&parse_program("").expect("parses")).expect("compiles");
    let mut rt = Runtime::new();
    rt.prepare(&module);
    // Four cells of storage, but a length header of 2: index 3 is out of
    // bounds for a checked access, yet its cell still holds 40.
    let arr = rt
        .heap
        .alloc_array_from([10.0, 20.0, 30.0, 40.0].map(Value::Number).to_vec());
    rt.heap.set_length(arr, 2);
    let mut ion = IonOnly { code: Vec::new() };
    let mut load = |rt: &mut Runtime, idx: f64, check: bool| {
        let args = [Value::Array(arr), Value::Number(idx), Value::Bool(check)];
        run_with(&code, rt, &module, &args, &mut ion).expect("runs")
    };
    // The check runs and fails: the load falls back to the checked path.
    assert!(matches!(load(&mut rt, 3.0, true), Value::Undefined));
    // The check does not run: no failed verdict in this invocation, so
    // the load is raw — and reads past the length header.
    assert_eq!(num(&load(&mut rt, 3.0, false)), 40.0);
    // And failing again is again per invocation.
    assert!(matches!(load(&mut rt, 3.0, true), Value::Undefined));
    assert_eq!(num(&load(&mut rt, 1.0, true)), 20.0);
    assert!(rt.stack.is_empty());
}
