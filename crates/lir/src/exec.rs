//! The optimizing tier's executable form and its executor.
//!
//! [`IonCode::decode`] turns register-allocated LIR into one flat
//! instruction array, once, at compile time:
//!
//! * every operand, destination and guard flag is a **frame-slot index**
//!   (registers first, then spill slots, then one flag slot per guard
//!   some memory access consults), so execution never consults `locs`;
//! * blocks become **offsets** into the array (only blocks reachable from
//!   the entry are laid out, each ending in its terminator);
//! * constants become ready [`Value`]s and `MOpcode` operators become
//!   dedicated instructions whose Number×Number cases are computed inline
//!   with results equal to `eval_binop`/`eval_unop`;
//! * a few adjacent pairs that hot code is made of are **fused** into one
//!   decoded instruction: a comparison and the branch on it, a
//!   `boundscheck` and the element access it vouches for, an
//!   `unbox:array` and the length read of its result, and the phi moves
//!   at the end of a block together with its jump.
//!
//! Fusion saves dispatches, not charges: a decoded instruction charges
//! `consume_op(ION_COST)` on [`Runtime::meter`] (the counters
//! [`Runtime::consume_op`] uses) once for each LIR instruction it stands
//! for, each time just before doing that instruction's work, and
//! returns at once when the charge fails. Moves, jumps, branches and
//! returns are charged like any other instruction. Ops, cycles and the
//! instruction at which `OutOfFuel` stops are therefore those of the
//! LIR itself.
//!
//! Frames live on the runtime's value stack ([`Runtime::stack`]): an
//! invocation appends its slots at entry and truncates back to its base
//! on every exit, so calls allocate no frame once the stack has grown,
//! and errors raised in nested frames leave the stack at its pre-call
//! depth. While a frame executes straight-line code the executor holds
//! the stack itself and hands it back to the runtime around calls.
//!
//! Memory semantics are the guarded/raw split of the MIR: an element
//! access whose `boundscheck` and `unbox:array` flags passed (or whose
//! guards were removed) touches the heap cell directly, so a wrongly
//! removed guard stays exploitable; a failed flag falls back to the
//! checked accessor; a Number base whose `unbox` was removed is used as
//! a raw address (type confusion).

use std::rc::Rc;

use jitbull_frontend::ast::{BinOp, UnOp};
use jitbull_mir::{CmpOp, ConstVal, MOpcode, TypeHint};
use jitbull_vm::bytecode::{IntrinsicMethod, MathFn, Module};
use jitbull_vm::interp::{
    eval_binop, eval_intrinsic, eval_math, eval_unop, get_elem, get_prop, invoke_value, set_elem,
    set_length, set_prop,
};
use jitbull_vm::runtime::{Runtime, ION_COST};
use jitbull_vm::value::ArrId;
use jitbull_vm::{Dispatcher, Heap, Value, VmError};

use crate::lir::{LBlockId, LFunction, LInstr, LOp, Loc, VReg};

/// "No guard": the access has no flag to consult.
const NONE: u32 = u32::MAX;

/// A decoded instruction. Slot operands index the invocation's frame;
/// `to`/`then_to`/`else_to` index [`IonCode`]'s instruction array.
#[derive(Debug, Clone, Copy)]
enum Ins {
    Move {
        dst: u32,
        src: u32,
    },
    Jump {
        to: u32,
    },
    /// `n` moves (`operands[at..]` holds `dst, src` pairs), then a jump.
    MovesJump {
        at: u32,
        n: u32,
        to: u32,
    },
    Branch {
        cond: u32,
        then_to: u32,
        else_to: u32,
    },
    Return {
        src: u32,
    },
    Param {
        dst: u32,
        k: u32,
    },
    This {
        dst: u32,
    },
    Const {
        dst: u32,
        k: u32,
    },
    Number {
        dst: u32,
        n: f64,
    },
    // Arithmetic and bitwise operators, one variant each so that dispatch
    // alone selects the operation. Comparisons, which hot code mostly
    // branches on (see `CmpBranch`), share `Cmp`.
    Add {
        dst: u32,
        a: u32,
        b: u32,
    },
    Sub {
        dst: u32,
        a: u32,
        b: u32,
    },
    Mul {
        dst: u32,
        a: u32,
        b: u32,
    },
    Div {
        dst: u32,
        a: u32,
        b: u32,
    },
    Mod {
        dst: u32,
        a: u32,
        b: u32,
    },
    Cmp {
        cmp: CmpOp,
        dst: u32,
        a: u32,
        b: u32,
    },
    BitAnd {
        dst: u32,
        a: u32,
        b: u32,
    },
    BitOr {
        dst: u32,
        a: u32,
        b: u32,
    },
    BitXor {
        dst: u32,
        a: u32,
        b: u32,
    },
    Shl {
        dst: u32,
        a: u32,
        b: u32,
    },
    Shr {
        dst: u32,
        a: u32,
        b: u32,
    },
    Ushr {
        dst: u32,
        a: u32,
        b: u32,
    },
    /// A comparison into `dst`, then a branch on it.
    CmpBranch {
        cmp: CmpOp,
        dst: u32,
        a: u32,
        b: u32,
        then_to: u32,
        else_to: u32,
    },
    Un {
        op: UnOp,
        dst: u32,
        a: u32,
    },
    BoundsCheck {
        dst: u32,
        flag: u32,
        idx: u32,
        len: u32,
    },
    TypeCheck {
        dst: u32,
        flag: u32,
        src: u32,
        hint: TypeHint,
    },
    Length {
        dst: u32,
        base: u32,
        unbox: u32,
    },
    /// `unbox:array` into `udst`, then the length of `udst` into `dst`.
    UnboxLength {
        udst: u32,
        flag: u32,
        src: u32,
        dst: u32,
        unbox: u32,
    },
    SetLength {
        dst: u32,
        base: u32,
        v: u32,
    },
    LoadElement {
        dst: u32,
        base: u32,
        idx: u32,
        bounds: u32,
        unbox: u32,
    },
    StoreElement {
        dst: u32,
        base: u32,
        idx: u32,
        v: u32,
        bounds: u32,
        unbox: u32,
    },
    /// `boundscheck idx len` into `bdst` (flag `flag`), then a load
    /// indexed by `bdst` and vouched for by `flag`.
    CheckedLoad {
        bdst: u32,
        flag: u32,
        idx: u32,
        len: u32,
        dst: u32,
        base: u32,
        unbox: u32,
    },
    /// As [`Ins::CheckedLoad`], for a store of `v`.
    CheckedStore {
        bdst: u32,
        flag: u32,
        idx: u32,
        len: u32,
        dst: u32,
        base: u32,
        v: u32,
        unbox: u32,
    },
    LoadProp {
        dst: u32,
        base: u32,
        name: u32,
    },
    StoreProp {
        dst: u32,
        base: u32,
        v: u32,
        name: u32,
    },
    LoadGlobal {
        dst: u32,
        slot: u32,
    },
    StoreGlobal {
        dst: u32,
        src: u32,
        slot: u32,
    },
    /// `operands[at]` is the callee, the next `argc` are the arguments.
    Call {
        dst: u32,
        at: u32,
        argc: u32,
    },
    /// `operands[at]` is the receiver, then the callee, then `argc`
    /// arguments.
    CallMethod {
        dst: u32,
        at: u32,
        argc: u32,
    },
    New {
        dst: u32,
        at: u32,
        argc: u32,
    },
    NewArray {
        dst: u32,
        at: u32,
        n: u32,
    },
    NewArrayN {
        dst: u32,
        n: u32,
    },
    NewObject {
        dst: u32,
    },
    Print {
        dst: u32,
        src: u32,
    },
    Math {
        dst: u32,
        f: MathFn,
        at: u32,
        n: u32,
    },
    /// `operands[at]` is the receiver, the next `n` the arguments.
    Intrinsic {
        dst: u32,
        m: IntrinsicMethod,
        at: u32,
        n: u32,
    },
    FromCharCode {
        dst: u32,
        src: u32,
    },
}

/// Optimized code in executable form (see the module docs).
#[derive(Debug, Clone)]
pub struct IonCode {
    ins: Vec<Ins>,
    consts: Vec<Value>,
    names: Vec<Rc<str>>,
    /// Operand lists of calls, array literals, intrinsics and move runs.
    operands: Vec<u32>,
    frame_size: u32,
}

impl IonCode {
    /// Decodes register-allocated LIR.
    ///
    /// # Panics
    ///
    /// Panics if the function was not register-allocated (`locs` empty),
    /// or if a block reachable from the entry lacks a terminator.
    pub fn decode(f: &LFunction) -> IonCode {
        assert_eq!(
            f.locs.len(),
            f.n_vregs as usize,
            "LIR function must be register-allocated before decoding"
        );
        let mut reachable = vec![false; f.blocks.len()];
        let mut work = vec![LBlockId(0)];
        while let Some(b) = work.pop() {
            if !std::mem::replace(&mut reachable[b.0 as usize], true) {
                work.extend(f.blocks[b.0 as usize].successors());
            }
        }
        let blocks: Vec<usize> = (0..f.blocks.len()).filter(|b| reachable[*b]).collect();
        // Frame layout: registers, spill slots, guard flags.
        let regs = f
            .locs
            .iter()
            .filter_map(|l| match l {
                Loc::Reg(r) => Some(u32::from(*r) + 1),
                Loc::Spill(_) => None,
            })
            .max()
            .unwrap_or(0);
        let mut flag_of = vec![NONE; f.n_vregs as usize];
        let mut size = regs + u32::from(f.spill_slots);
        for i in blocks.iter().flat_map(|b| &f.blocks[*b].instrs) {
            for g in [i.guards.bounds, i.guards.unbox].into_iter().flatten() {
                if flag_of[g.0 as usize] == NONE {
                    flag_of[g.0 as usize] = size;
                    size += 1;
                }
            }
        }
        let mut d = Decoder {
            f,
            regs,
            flag_of,
            code: IonCode {
                ins: Vec::new(),
                consts: Vec::new(),
                names: Vec::new(),
                operands: Vec::new(),
                frame_size: size,
            },
        };
        // Decode block by block with block ids as jump targets, then
        // patch the targets to instruction offsets.
        let mut offset = vec![NONE; f.blocks.len()];
        for &b in &blocks {
            let instrs = &f.blocks[b].instrs;
            assert!(
                instrs.last().is_some_and(|t| t.op.is_terminator()),
                "L{b} of `{}` lacks a terminator",
                f.name
            );
            offset[b] = d.code.ins.len() as u32;
            d.block(instrs);
        }
        for ins in &mut d.code.ins {
            match ins {
                Ins::Jump { to } | Ins::MovesJump { to, .. } => *to = offset[*to as usize],
                Ins::Branch {
                    then_to, else_to, ..
                }
                | Ins::CmpBranch {
                    then_to, else_to, ..
                } => {
                    *then_to = offset[*then_to as usize];
                    *else_to = offset[*else_to as usize];
                }
                _ => {}
            }
        }
        d.code
    }

    /// Decoded instructions (fused pairs count once).
    pub fn len(&self) -> usize {
        self.ins.len()
    }

    /// Whether there are no instructions (never true for decoded code).
    pub fn is_empty(&self) -> bool {
        self.ins.is_empty()
    }
}

struct Decoder<'a> {
    f: &'a LFunction,
    regs: u32,
    flag_of: Vec<u32>,
    code: IonCode,
}

impl Decoder<'_> {
    fn slot(&self, v: VReg) -> u32 {
        match self.f.locs[v.0 as usize] {
            Loc::Reg(r) => u32::from(r),
            Loc::Spill(s) => self.regs + u32::from(s),
        }
    }

    fn flag(&self, g: Option<VReg>) -> u32 {
        g.map_or(NONE, |v| self.flag_of[v.0 as usize])
    }

    /// Appends the slots of `args` to the operand table, returning where
    /// they start.
    fn operands(&mut self, args: &[VReg]) -> u32 {
        let at = self.code.operands.len() as u32;
        for a in args {
            let s = self.slot(*a);
            self.code.operands.push(s);
        }
        at
    }

    /// Decodes one block, fusing the pairs named in the module docs.
    fn block(&mut self, instrs: &[LInstr]) {
        let mut k = 0;
        while k < instrs.len() {
            // Phi moves followed by the block's jump.
            let moves = instrs[k..]
                .iter()
                .take_while(|m| matches!(m.op, LOp::Move))
                .count();
            if let Some(LOp::Jump(t)) = instrs.get(k + moves).map(|j| &j.op) {
                if moves > 0 {
                    let at = self.code.operands.len() as u32;
                    for m in &instrs[k..k + moves] {
                        let dst = self.slot(m.dst.expect("move has dst"));
                        let src = self.slot(m.args[0]);
                        self.code.operands.extend([dst, src]);
                    }
                    self.code.ins.push(Ins::MovesJump {
                        at,
                        n: moves as u32,
                        to: t.0,
                    });
                    k += moves + 1;
                    continue;
                }
            }
            let fused = instrs
                .get(k + 1)
                .and_then(|next| self.fuse(&instrs[k], next));
            let step = if fused.is_some() { 2 } else { 1 };
            let ins = fused.unwrap_or_else(|| self.instr(&instrs[k]));
            self.code.ins.push(ins);
            k += step;
        }
    }

    /// The fused form of `i` followed by `n`, if they form one of the
    /// fusable pairs.
    fn fuse(&self, i: &LInstr, n: &LInstr) -> Option<Ins> {
        let d = i.dst?;
        let dst = self.slot(d);
        let arg = |i: &LInstr, k: usize| self.slot(i.args[k]);
        match (&i.op, &n.op) {
            (
                LOp::Op(MOpcode::Compare(c)),
                LOp::Branch {
                    then_block,
                    else_block,
                },
            ) if n.args[0] == d => Some(Ins::CmpBranch {
                cmp: *c,
                dst,
                a: arg(i, 0),
                b: arg(i, 1),
                then_to: then_block.0,
                else_to: else_block.0,
            }),
            (
                LOp::Op(MOpcode::BoundsCheck),
                LOp::Op(op @ (MOpcode::LoadElement | MOpcode::StoreElement)),
            ) if n.args[1] == d && n.guards.bounds == Some(d) => {
                let (flag, idx, len) = (self.flag(Some(d)), arg(i, 0), arg(i, 1));
                let ndst = self.slot(n.dst.expect("access has dst"));
                let (base, unbox) = (arg(n, 0), self.flag(n.guards.unbox));
                Some(if matches!(op, MOpcode::LoadElement) {
                    Ins::CheckedLoad {
                        bdst: dst,
                        flag,
                        idx,
                        len,
                        dst: ndst,
                        base,
                        unbox,
                    }
                } else {
                    Ins::CheckedStore {
                        bdst: dst,
                        flag,
                        idx,
                        len,
                        dst: ndst,
                        base,
                        v: arg(n, 2),
                        unbox,
                    }
                })
            }
            (
                LOp::Op(MOpcode::Unbox(TypeHint::Array)),
                LOp::Op(MOpcode::InitializedLength | MOpcode::ArrayLength),
            ) if n.args[0] == d => Some(Ins::UnboxLength {
                udst: dst,
                flag: self.flag(Some(d)),
                src: arg(i, 0),
                dst: self.slot(n.dst.expect("length has dst")),
                unbox: self.flag(n.guards.unbox),
            }),
            _ => None,
        }
    }

    fn instr(&mut self, i: &LInstr) -> Ins {
        let arg = |k: usize| self.slot(i.args[k]);
        let dst = || self.slot(i.dst.expect("operation has a destination"));
        let op = match &i.op {
            LOp::Move => {
                return Ins::Move {
                    dst: dst(),
                    src: arg(0),
                }
            }
            LOp::Jump(t) => return Ins::Jump { to: t.0 },
            LOp::Branch {
                then_block,
                else_block,
            } => {
                return Ins::Branch {
                    cond: arg(0),
                    then_to: then_block.0,
                    else_to: else_block.0,
                }
            }
            LOp::Return => return Ins::Return { src: arg(0) },
            LOp::Op(op) => op,
        };
        let dst = dst();
        macro_rules! bin {
            ($v:ident) => {
                Ins::$v {
                    dst,
                    a: arg(0),
                    b: arg(1),
                }
            };
        }
        let un = |op: UnOp| Ins::Un { op, dst, a: arg(0) };
        let n = i.args.len() as u32;
        match op {
            MOpcode::Parameter(k) => Ins::Param {
                dst,
                k: u32::from(*k),
            },
            MOpcode::This => Ins::This { dst },
            MOpcode::Constant(ConstVal::Number(n)) => Ins::Number { dst, n: *n },
            MOpcode::Constant(c) => {
                let k = self.code.consts.len() as u32;
                self.code.consts.push(const_value(c));
                Ins::Const { dst, k }
            }
            MOpcode::Add => bin!(Add),
            MOpcode::Sub => bin!(Sub),
            MOpcode::Mul => bin!(Mul),
            MOpcode::Div => bin!(Div),
            MOpcode::Mod => bin!(Mod),
            MOpcode::Compare(cmp) => Ins::Cmp {
                cmp: *cmp,
                dst,
                a: arg(0),
                b: arg(1),
            },
            MOpcode::BitAnd => bin!(BitAnd),
            MOpcode::BitOr => bin!(BitOr),
            MOpcode::BitXor => bin!(BitXor),
            MOpcode::Lsh => bin!(Shl),
            MOpcode::Rsh => bin!(Shr),
            MOpcode::Ursh => bin!(Ushr),
            MOpcode::BitNot => un(UnOp::BitNot),
            MOpcode::Neg => un(UnOp::Neg),
            MOpcode::Not => un(UnOp::Not),
            MOpcode::ToNumber => un(UnOp::Plus),
            MOpcode::TypeOf => un(UnOp::Typeof),
            MOpcode::Call(_) => Ins::Call {
                dst,
                at: self.operands(&i.args),
                argc: n - 1,
            },
            MOpcode::CallMethod(_) => Ins::CallMethod {
                dst,
                at: self.operands(&i.args),
                argc: n - 2,
            },
            MOpcode::New(_) => Ins::New {
                dst,
                at: self.operands(&i.args),
                argc: n - 1,
            },
            MOpcode::NewArray(_) => Ins::NewArray {
                dst,
                at: self.operands(&i.args),
                n,
            },
            MOpcode::NewArrayN => Ins::NewArrayN { dst, n: arg(0) },
            MOpcode::NewObject => Ins::NewObject { dst },
            MOpcode::BoundsCheck => Ins::BoundsCheck {
                dst,
                flag: self.flag(i.dst),
                idx: arg(0),
                len: arg(1),
            },
            MOpcode::TypeGuard(hint) | MOpcode::Unbox(hint) => Ins::TypeCheck {
                dst,
                flag: self.flag(i.dst),
                src: arg(0),
                hint: *hint,
            },
            MOpcode::InitializedLength | MOpcode::ArrayLength => Ins::Length {
                dst,
                base: arg(0),
                unbox: self.flag(i.guards.unbox),
            },
            MOpcode::SetArrayLength => Ins::SetLength {
                dst,
                base: arg(0),
                v: arg(1),
            },
            MOpcode::LoadElement => Ins::LoadElement {
                dst,
                base: arg(0),
                idx: arg(1),
                bounds: self.flag(i.guards.bounds),
                unbox: self.flag(i.guards.unbox),
            },
            MOpcode::StoreElement => Ins::StoreElement {
                dst,
                base: arg(0),
                idx: arg(1),
                v: arg(2),
                bounds: self.flag(i.guards.bounds),
                unbox: self.flag(i.guards.unbox),
            },
            MOpcode::LoadProperty(name) => Ins::LoadProp {
                dst,
                base: arg(0),
                name: self.name(name),
            },
            MOpcode::StoreProperty(name) => Ins::StoreProp {
                dst,
                base: arg(0),
                v: arg(1),
                name: self.name(name),
            },
            MOpcode::LoadGlobal(slot) => Ins::LoadGlobal {
                dst,
                slot: u32::from(*slot),
            },
            MOpcode::StoreGlobal(slot) => Ins::StoreGlobal {
                dst,
                src: arg(0),
                slot: u32::from(*slot),
            },
            MOpcode::Print => Ins::Print { dst, src: arg(0) },
            MOpcode::MathFunction(f) => Ins::Math {
                dst,
                f: *f,
                at: self.operands(&i.args),
                n,
            },
            MOpcode::Intrinsic(m, _) => Ins::Intrinsic {
                dst,
                m: *m,
                at: self.operands(&i.args),
                n: n - 1,
            },
            MOpcode::FromCharCode => Ins::FromCharCode { dst, src: arg(0) },
            MOpcode::Goto(_) | MOpcode::Test { .. } | MOpcode::Return | MOpcode::Phi => {
                unreachable!("control flow lowered to LIR terminators")
            }
        }
    }

    fn name(&mut self, name: &Rc<str>) -> u32 {
        self.code.names.push(Rc::clone(name));
        self.code.names.len() as u32 - 1
    }
}

fn const_value(c: &ConstVal) -> Value {
    match c {
        ConstVal::Number(n) => Value::Number(*n),
        ConstVal::Str(s) => Value::Str(s.clone()),
        ConstVal::Bool(b) => Value::Bool(*b),
        ConstVal::Undefined => Value::Undefined,
        ConstVal::Null => Value::Null,
        ConstVal::Func(f) => Value::Function(*f),
    }
}

/// Executes one invocation of decoded optimized code. The arguments are
/// the top `argc` values of the value stack; they become the bottom of
/// the invocation's frame and are removed with it, so a call allocates
/// nothing once the stack has grown.
///
/// # Errors
///
/// Propagates [`VmError`]s, including crashes from wild raw accesses.
/// Whatever the outcome, the value stack is back at its depth before
/// the arguments were pushed.
pub fn run(
    code: &IonCode,
    rt: &mut Runtime,
    module: &Module,
    this: Value,
    argc: usize,
    dispatcher: &mut dyn Dispatcher,
) -> Result<Value, VmError> {
    let args_at = rt.stack.len() - argc;
    let result = match rt.enter_call() {
        Ok(()) => {
            rt.stack
                .resize(args_at + argc + code.frame_size as usize, Value::Undefined);
            let cx = Cx {
                code,
                module,
                this: &this,
                args_at,
                argc,
            };
            let result = cx.execute(rt, dispatcher);
            rt.exit_call();
            result
        }
        Err(e) => Err(e),
    };
    rt.stack.truncate(args_at);
    result
}

fn wild(rt: &mut Runtime, msg: String) -> VmError {
    rt.note_crash(&msg);
    VmError::Crash(msg)
}

fn crash_noted(rt: &mut Runtime, e: VmError) -> VmError {
    if let VmError::Crash(msg) = &e {
        rt.note_crash(msg);
    }
    e
}

/// Whether guard flag slot `flag` recorded a failed check. Flag slots
/// start `Undefined` ("not failed") in every frame and only ever hold
/// `Bool`s written by the guard itself.
#[inline(always)]
fn failed(f: &[Value], flag: u32) -> bool {
    flag != NONE && matches!(f[flag as usize], Value::Bool(false))
}

/// An array index the raw path may use directly: a non-negative,
/// finite integer.
#[inline(always)]
fn raw_index(i: f64) -> bool {
    i >= 0.0 && i.fract() == 0.0 && i.is_finite()
}

#[inline(always)]
fn to_i32(n: f64) -> i32 {
    if n.is_finite() {
        n as i64 as i32
    } else {
        0
    }
}

/// A comparison of two Numbers (equal to [`eval_binop`] on them).
#[inline(always)]
fn compare(cmp: CmpOp, x: f64, y: f64) -> bool {
    match cmp {
        CmpOp::Lt => x < y,
        CmpOp::Le => x <= y,
        CmpOp::Gt => x > y,
        CmpOp::Ge => x >= y,
        CmpOp::Eq | CmpOp::StrictEq => x == y,
        CmpOp::Ne | CmpOp::StrictNe => x != y,
    }
}

fn cmp_binop(cmp: CmpOp) -> BinOp {
    match cmp {
        CmpOp::Eq => BinOp::Eq,
        CmpOp::Ne => BinOp::Ne,
        CmpOp::StrictEq => BinOp::StrictEq,
        CmpOp::StrictNe => BinOp::StrictNe,
        CmpOp::Lt => BinOp::Lt,
        CmpOp::Le => BinOp::Le,
        CmpOp::Gt => BinOp::Gt,
        CmpOp::Ge => BinOp::Ge,
    }
}

#[inline(always)]
fn truthy(v: &Value) -> bool {
    match v {
        Value::Bool(b) => *b,
        v => v.truthy(),
    }
}

// Slot writes. A slot that already holds a value of the written kind is
// updated in place, payload only: building a whole `Value` and storing
// it wide right after its parts were stored narrow stalls store
// forwarding, which costs more than the operation itself.

#[inline(always)]
fn set_num(slot: &mut Value, n: f64) {
    match slot {
        Value::Number(x) => *x = n,
        slot => *slot = Value::Number(n),
    }
}

#[inline(always)]
fn set_bool(slot: &mut Value, b: bool) {
    match slot {
        Value::Bool(x) => *x = b,
        slot => *slot = Value::Bool(b),
    }
}

/// `v.clone()`, read by parts.
#[inline(always)]
fn copy(v: &Value) -> Value {
    match v {
        Value::Number(n) => Value::Number(*n),
        Value::Bool(b) => Value::Bool(*b),
        v => v.clone(),
    }
}

/// `*slot = v.clone()`.
#[inline(always)]
fn put(slot: &mut Value, v: &Value) {
    match v {
        Value::Number(n) => set_num(slot, *n),
        Value::Bool(b) => set_bool(slot, *b),
        v => *slot = v.clone(),
    }
}

/// `*slot = v`.
#[inline(always)]
fn put_owned(slot: &mut Value, v: Value) {
    match v {
        Value::Number(n) => set_num(slot, n),
        Value::Bool(b) => set_bool(slot, b),
        v => *slot = v,
    }
}

/// `f[dst] = f[src]`.
#[inline(always)]
fn mov(f: &mut [Value], dst: u32, src: u32) {
    match f[src as usize] {
        Value::Number(n) => set_num(&mut f[dst as usize], n),
        Value::Bool(b) => set_bool(&mut f[dst as usize], b),
        ref v => f[dst as usize] = v.clone(),
    }
}

#[inline(always)]
fn unary(op: UnOp, a: &Value) -> Value {
    match (op, a) {
        (UnOp::Neg, Value::Number(n)) => Value::Number(-n),
        (UnOp::Plus, Value::Number(n)) => Value::Number(*n),
        (UnOp::Not, Value::Bool(b)) => Value::Bool(!b),
        _ => eval_unop(op, a),
    }
}

/// `boundscheck idx len` into `dst`, recording the verdict in `flag`.
#[inline(always)]
fn bounds_check(f: &mut [Value], dst: u32, flag: u32, idx: u32, len: u32) {
    let idx = f[idx as usize].to_number();
    let len = f[len as usize].to_number();
    if flag != NONE {
        let ok = idx >= 0.0 && idx.fract() == 0.0 && idx < len && idx.is_finite();
        set_bool(&mut f[flag as usize], ok);
    }
    set_num(&mut f[dst as usize], idx);
}

/// `typeguard`/`unbox` of `src` into `dst`, recording the verdict in
/// `flag`.
#[inline(always)]
fn type_check(f: &mut [Value], dst: u32, flag: u32, src: u32, hint: TypeHint) {
    if flag != NONE {
        let v = &f[src as usize];
        let ok = match hint {
            TypeHint::Number => matches!(v, Value::Number(_)),
            TypeHint::Int32 => matches!(v, Value::Number(n) if n.fract() == 0.0),
            TypeHint::Bool => matches!(v, Value::Bool(_)),
            TypeHint::Str => matches!(v, Value::Str(_)),
            TypeHint::Array => matches!(v, Value::Array(_)),
            TypeHint::Object => matches!(v, Value::Object(_)),
        };
        set_bool(&mut f[flag as usize], ok);
    }
    mov(f, dst, src);
}

// Fast paths of the memory operations, on the heap alone. Each returns
// `Ok(false)` when the operands need the slow path (which takes the
// whole runtime), and a crash for the caller to note.

/// `initializedlength`/`arraylength` of an array base.
#[inline(always)]
fn length_fast(heap: &Heap, f: &mut [Value], dst: u32, base: u32) -> bool {
    match f[base as usize] {
        Value::Array(arr) => {
            set_num(&mut f[dst as usize], heap.length(arr) as f64);
            true
        }
        _ => false,
    }
}

/// `loadelement` through a raw access vouched for by passed (or
/// removed) guards.
#[inline(always)]
fn load_fast(
    heap: &Heap,
    f: &mut [Value],
    dst: u32,
    base: u32,
    idx: u32,
    guards: (u32, u32),
) -> Result<bool, VmError> {
    if let (Value::Array(arr), Value::Number(i)) = (&f[base as usize], &f[idx as usize]) {
        if raw_index(*i) && !failed(f, guards.0) && !failed(f, guards.1) {
            let cell = heap.raw_cell(heap.elem_addr(*arr, *i as usize))?;
            put(&mut f[dst as usize], cell);
            return Ok(true);
        }
    }
    Ok(false)
}

/// `storeelement` through a raw access vouched for by passed (or
/// removed) guards; the result `v` goes to `dst`.
#[inline(always)]
fn store_fast(
    heap: &mut Heap,
    f: &mut [Value],
    dst: u32,
    (base, idx, v): (u32, u32, u32),
    guards: (u32, u32),
) -> Result<bool, VmError> {
    if let (Value::Array(arr), Value::Number(i)) = (&f[base as usize], &f[idx as usize]) {
        if raw_index(*i) && !failed(f, guards.0) && !failed(f, guards.1) {
            put(
                heap.raw_cell_mut(heap.elem_addr(*arr, *i as usize))?,
                &f[v as usize],
            );
            mov(f, dst, v);
            return Ok(true);
        }
    }
    Ok(false)
}

/// What one invocation's instructions read besides the frame.
struct Cx<'a> {
    code: &'a IonCode,
    module: &'a Module,
    this: &'a Value,
    /// Where the invocation's arguments start on the value stack; its
    /// frame slots follow them, up to the top of the stack.
    args_at: usize,
    argc: usize,
}

impl Cx<'_> {
    /// Runs the invocation whose arguments and frame end the value stack.
    fn execute(&self, rt: &mut Runtime, dispatcher: &mut dyn Dispatcher) -> Result<Value, VmError> {
        let code = self.code;
        let ops = &code.operands[..];
        let (args_at, argc, end) = (self.args_at, self.argc, rt.stack.len());
        let base = args_at + argc;
        // The arguments and the frame, borrowed from the stack. Work
        // that needs the whole runtime (calls, property and intrinsic
        // helpers, slow paths) ends the borrow and takes it again after.
        let (mut args, mut f) = rt.stack[args_at..end].split_at_mut(argc);
        let mut pc = 0usize;
        macro_rules! reborrow {
            () => {
                (args, f) = rt.stack[args_at..end].split_at_mut(argc)
            };
        }
        // Evaluates `$e`, which uses the whole runtime, then takes the
        // frame again.
        macro_rules! with_rt {
            ($e:expr) => {{
                let r = $e;
                reborrow!();
                r?
            }};
        }
        // Charges one LIR instruction.
        macro_rules! charge {
            () => {
                rt.meter.consume_op(ION_COST)?
            };
        }
        // Notes a crash from a fast path and returns it.
        macro_rules! fast {
            ($e:expr) => {
                match $e {
                    Ok(done) => done,
                    Err(e) => return Err(crash_noted(rt, e)),
                }
            };
        }
        // A binary operator: `$num` on two Numbers, `eval_binop`
        // otherwise.
        macro_rules! bin {
            ($dst:expr, $a:expr, $b:expr, $op:expr, $set:ident, |$x:ident, $y:ident| $num:expr) => {{
                match (&f[$a as usize], &f[$b as usize]) {
                    (Value::Number($x), Value::Number($y)) => {
                        let ($x, $y) = (*$x, *$y);
                        $set(&mut f[$dst as usize], $num);
                    }
                    (x, y) => f[$dst as usize] = eval_binop($op, x, y),
                }
            }};
        }
        // Calls `$callee` with the arguments in frame slots `$slots`,
        // passed on the value stack.
        macro_rules! call {
            ($callee:expr, $this:expr, $slots:expr) => {{
                let slots: &[u32] = $slots;
                for s in slots {
                    let v = copy(&rt.stack[base + *s as usize]);
                    rt.stack.push(v);
                }
                with_rt!(invoke_value(
                    rt,
                    self.module,
                    $callee,
                    $this,
                    slots.len(),
                    dispatcher
                ))
            }};
        }
        // An element load on the slow path.
        macro_rules! load_slow {
            ($dst:expr, $base:expr, $idx:expr, $bounds:expr, $unbox:expr) => {{
                let (b, i) = (f[$base as usize].clone(), f[$idx as usize].clone());
                let guards_failed = failed(f, $bounds) || failed(f, $unbox);
                let v = with_rt!(element_load(rt, &b, &i, guards_failed, $unbox == NONE));
                f[$dst as usize] = v;
            }};
        }
        // An element store on the slow path.
        macro_rules! store_slow {
            ($dst:expr, $base:expr, $idx:expr, $v:expr, $bounds:expr, $unbox:expr) => {{
                let (b, i) = (f[$base as usize].clone(), f[$idx as usize].clone());
                let v = f[$v as usize].clone();
                let guards_failed = failed(f, $bounds) || failed(f, $unbox);
                with_rt!(element_store(
                    rt,
                    &b,
                    &i,
                    v.clone(),
                    guards_failed,
                    $unbox == NONE
                ));
                f[$dst as usize] = v;
            }};
        }
        macro_rules! length {
            ($dst:expr, $base:expr, $unbox:expr) => {{
                if !length_fast(&rt.heap, f, $dst, $base) {
                    let b = f[$base as usize].clone();
                    let v = with_rt!(length_slow(rt, &b, $unbox));
                    f[$dst as usize] = v;
                }
            }};
        }
        loop {
            charge!();
            let ins = &code.ins[pc];
            pc += 1;
            match *ins {
                Ins::Move { dst, src } => mov(f, dst, src),
                Ins::Jump { to } => pc = to as usize,
                Ins::MovesJump { at, n, to } => {
                    let pairs = &ops[at as usize..(at + 2 * n) as usize];
                    for (k, pair) in pairs.chunks_exact(2).enumerate() {
                        if k > 0 {
                            charge!();
                        }
                        mov(f, pair[0], pair[1]);
                    }
                    charge!();
                    pc = to as usize;
                }
                Ins::Branch {
                    cond,
                    then_to,
                    else_to,
                } => {
                    pc = if truthy(&f[cond as usize]) {
                        then_to
                    } else {
                        else_to
                    } as usize;
                }
                Ins::Return { src } => {
                    return Ok(match f[src as usize] {
                        Value::Number(n) => Value::Number(n),
                        ref mut v => std::mem::take(v),
                    })
                }
                Ins::Param { dst, k } => match args.get(k as usize) {
                    Some(v) => put(&mut f[dst as usize], v),
                    None => f[dst as usize] = Value::Undefined,
                },
                Ins::This { dst } => put(&mut f[dst as usize], self.this),
                Ins::Const { dst, k } => put(&mut f[dst as usize], &code.consts[k as usize]),
                Ins::Number { dst, n } => set_num(&mut f[dst as usize], n),
                Ins::Add { dst, a, b } => bin!(dst, a, b, BinOp::Add, set_num, |x, y| x + y),
                Ins::Sub { dst, a, b } => bin!(dst, a, b, BinOp::Sub, set_num, |x, y| x - y),
                Ins::Mul { dst, a, b } => bin!(dst, a, b, BinOp::Mul, set_num, |x, y| x * y),
                Ins::Div { dst, a, b } => bin!(dst, a, b, BinOp::Div, set_num, |x, y| x / y),
                Ins::Mod { dst, a, b } => bin!(dst, a, b, BinOp::Mod, set_num, |x, y| x % y),
                Ins::Cmp { cmp, dst, a, b } => match (&f[a as usize], &f[b as usize]) {
                    (Value::Number(x), Value::Number(y)) => {
                        let v = compare(cmp, *x, *y);
                        set_bool(&mut f[dst as usize], v);
                    }
                    (x, y) => f[dst as usize] = eval_binop(cmp_binop(cmp), x, y),
                },
                Ins::BitAnd { dst, a, b } => bin!(dst, a, b, BinOp::BitAnd, set_num, |x, y| {
                    (to_i32(x) & to_i32(y)) as f64
                }),
                Ins::BitOr { dst, a, b } => bin!(dst, a, b, BinOp::BitOr, set_num, |x, y| {
                    (to_i32(x) | to_i32(y)) as f64
                }),
                Ins::BitXor { dst, a, b } => bin!(dst, a, b, BinOp::BitXor, set_num, |x, y| {
                    (to_i32(x) ^ to_i32(y)) as f64
                }),
                Ins::Shl { dst, a, b } => bin!(dst, a, b, BinOp::Shl, set_num, |x, y| {
                    (to_i32(x) << (to_i32(y) as u32 & 31)) as f64
                }),
                Ins::Shr { dst, a, b } => bin!(dst, a, b, BinOp::Shr, set_num, |x, y| {
                    (to_i32(x) >> (to_i32(y) as u32 & 31)) as f64
                }),
                Ins::Ushr { dst, a, b } => bin!(dst, a, b, BinOp::Ushr, set_num, |x, y| {
                    (to_i32(x) as u32 >> (to_i32(y) as u32 & 31)) as f64
                }),
                Ins::CmpBranch {
                    cmp,
                    dst,
                    a,
                    b,
                    then_to,
                    else_to,
                } => {
                    let taken = match (&f[a as usize], &f[b as usize]) {
                        (Value::Number(x), Value::Number(y)) => compare(cmp, *x, *y),
                        (x, y) => truthy(&eval_binop(cmp_binop(cmp), x, y)),
                    };
                    set_bool(&mut f[dst as usize], taken);
                    charge!();
                    pc = if taken { then_to } else { else_to } as usize;
                }
                Ins::Un { op, dst, a } => {
                    let v = unary(op, &f[a as usize]);
                    put_owned(&mut f[dst as usize], v);
                }
                Ins::BoundsCheck {
                    dst,
                    flag,
                    idx,
                    len,
                } => bounds_check(f, dst, flag, idx, len),
                Ins::TypeCheck {
                    dst,
                    flag,
                    src,
                    hint,
                } => type_check(f, dst, flag, src, hint),
                Ins::Length { dst, base, unbox } => length!(dst, base, unbox),
                Ins::UnboxLength {
                    udst,
                    flag,
                    src,
                    dst,
                    unbox,
                } => {
                    type_check(f, udst, flag, src, TypeHint::Array);
                    charge!();
                    length!(dst, udst, unbox);
                }
                Ins::SetLength { dst, base, v } => {
                    let (b, v) = (f[base as usize].clone(), f[v as usize].clone());
                    with_rt!(set_length(rt, &b, &v));
                    f[dst as usize] = v;
                }
                Ins::LoadElement {
                    dst,
                    base,
                    idx,
                    bounds,
                    unbox,
                } => {
                    if !fast!(load_fast(&rt.heap, f, dst, base, idx, (bounds, unbox))) {
                        load_slow!(dst, base, idx, bounds, unbox);
                    }
                }
                Ins::StoreElement {
                    dst,
                    base,
                    idx,
                    v,
                    bounds,
                    unbox,
                } => {
                    let operands = (base, idx, v);
                    if !fast!(store_fast(&mut rt.heap, f, dst, operands, (bounds, unbox))) {
                        store_slow!(dst, base, idx, v, bounds, unbox);
                    }
                }
                Ins::CheckedLoad {
                    bdst,
                    flag,
                    idx,
                    len,
                    dst,
                    base,
                    unbox,
                } => {
                    bounds_check(f, bdst, flag, idx, len);
                    charge!();
                    if !fast!(load_fast(&rt.heap, f, dst, base, bdst, (flag, unbox))) {
                        load_slow!(dst, base, bdst, flag, unbox);
                    }
                }
                Ins::CheckedStore {
                    bdst,
                    flag,
                    idx,
                    len,
                    dst,
                    base,
                    v,
                    unbox,
                } => {
                    bounds_check(f, bdst, flag, idx, len);
                    charge!();
                    let operands = (base, bdst, v);
                    if !fast!(store_fast(&mut rt.heap, f, dst, operands, (flag, unbox))) {
                        store_slow!(dst, base, bdst, v, flag, unbox);
                    }
                }
                Ins::LoadProp { dst, base, name } => {
                    let b = f[base as usize].clone();
                    let v = with_rt!(get_prop(rt, &b, &code.names[name as usize]));
                    put_owned(&mut f[dst as usize], v);
                }
                Ins::StoreProp { dst, base, v, name } => {
                    let (b, v) = (f[base as usize].clone(), f[v as usize].clone());
                    let name = Rc::clone(&code.names[name as usize]);
                    with_rt!(set_prop(rt, &b, name, v.clone()));
                    f[dst as usize] = v;
                }
                Ins::LoadGlobal { dst, slot } => {
                    put(&mut f[dst as usize], &rt.globals[slot as usize])
                }
                Ins::StoreGlobal { dst, src, slot } => {
                    put(&mut rt.globals[slot as usize], &f[src as usize]);
                    mov(f, dst, src);
                }
                Ins::Call { dst, at, argc } => {
                    let at = at as usize;
                    let callee = f[ops[at] as usize].clone();
                    let v = call!(
                        callee,
                        Value::Undefined,
                        &ops[at + 1..at + 1 + argc as usize]
                    );
                    put_owned(&mut f[dst as usize], v);
                }
                Ins::CallMethod { dst, at, argc } => {
                    let at = at as usize;
                    let recv = f[ops[at] as usize].clone();
                    let callee = f[ops[at + 1] as usize].clone();
                    let v = call!(callee, recv, &ops[at + 2..at + 2 + argc as usize]);
                    put_owned(&mut f[dst as usize], v);
                }
                Ins::New { dst, at, argc } => {
                    let at = at as usize;
                    let callee = f[ops[at] as usize].clone();
                    let obj = Value::Object(rt.alloc_object());
                    call!(callee, obj.clone(), &ops[at + 1..at + 1 + argc as usize]);
                    f[dst as usize] = obj;
                }
                Ins::NewArray { dst, at, n } => {
                    let at = at as usize;
                    let items = gather(f, &ops[at..at + n as usize]);
                    f[dst as usize] = Value::Array(rt.heap.alloc_array_from(items));
                }
                Ins::NewArrayN { dst, n } => {
                    let n = f[n as usize].to_number();
                    let n = if n.is_finite() && n >= 0.0 {
                        n as usize
                    } else {
                        0
                    };
                    f[dst as usize] = Value::Array(rt.heap.alloc_array(n, n, Value::Undefined));
                }
                Ins::NewObject { dst } => {
                    let obj = rt.alloc_object();
                    reborrow!();
                    f[dst as usize] = Value::Object(obj);
                }
                Ins::Print { dst, src } => {
                    let line = f[src as usize].to_string();
                    rt.printed.push(line);
                    f[dst as usize] = Value::Undefined;
                }
                Ins::Math { dst, f: mf, at, n } => {
                    let at = at as usize;
                    let v = match n {
                        1 => {
                            let a = [f[ops[at] as usize].clone()];
                            eval_math(rt, mf, &a)
                        }
                        2 => {
                            let a = [f[ops[at] as usize].clone(), f[ops[at + 1] as usize].clone()];
                            eval_math(rt, mf, &a)
                        }
                        _ => {
                            let a = gather(f, &ops[at..at + n as usize]);
                            eval_math(rt, mf, &a)
                        }
                    };
                    reborrow!();
                    set_num(&mut f[dst as usize], v.to_number());
                }
                Ins::Intrinsic { dst, m, at, n } => {
                    let at = at as usize;
                    let recv = f[ops[at] as usize].clone();
                    let call_args = gather(f, &ops[at + 1..at + 1 + n as usize]);
                    let v = with_rt!(eval_intrinsic(rt, m, &recv, &call_args));
                    put_owned(&mut f[dst as usize], v);
                }
                Ins::FromCharCode { dst, src } => {
                    let n = f[src as usize].to_number();
                    let c = char::from_u32(n as u32).unwrap_or('\u{FFFD}');
                    f[dst as usize] = Value::str(c.to_string());
                }
            }
        }
    }
}

fn gather(f: &[Value], slots: &[u32]) -> Vec<Value> {
    slots.iter().map(|s| f[*s as usize].clone()).collect()
}

/// `initializedlength`/`arraylength` on a non-array base. With its
/// `unbox` removed, a Number base is taken for an array pointer and its
/// header cell is read raw.
fn length_slow(rt: &mut Runtime, base: &Value, unbox: u32) -> Result<Value, VmError> {
    Ok(match base {
        Value::Str(s) => Value::Number(s.chars().count() as f64),
        Value::Object(o) => rt.object(*o).get("length"),
        Value::Number(k) if unbox == NONE => {
            if *k >= 0.0 && k.is_finite() {
                let v = rt
                    .heap
                    .raw_read(*k as usize)
                    .map_err(|e| crash_noted(rt, e))?;
                Value::Number(v.to_number())
            } else {
                return Err(wild(rt, format!("wild length read at {k}")));
            }
        }
        _ => Value::Number(0.0),
    })
}

/// Element read off the fast path: failed guards take the checked
/// accessor; a Number base whose `unbox` was removed is a confused
/// pointer read raw.
fn element_load(
    rt: &mut Runtime,
    base: &Value,
    idx: &Value,
    guards_failed: bool,
    no_unbox: bool,
) -> Result<Value, VmError> {
    match base {
        Value::Array(arr) => {
            if guards_failed {
                return get_elem(rt, base, idx);
            }
            raw_read(rt, *arr, idx.to_number())
        }
        Value::Number(k) if no_unbox => {
            let addr = *k + 2.0 + idx.to_number();
            if addr >= 0.0 && addr.is_finite() {
                rt.heap
                    .raw_read(addr as usize)
                    .map_err(|e| crash_noted(rt, e))
            } else {
                Err(wild(rt, format!("wild read through confused pointer {k}")))
            }
        }
        _ => get_elem(rt, base, idx),
    }
}

/// Element write off the fast path (see [`element_load`]).
fn element_store(
    rt: &mut Runtime,
    base: &Value,
    idx: &Value,
    value: Value,
    guards_failed: bool,
    no_unbox: bool,
) -> Result<(), VmError> {
    match base {
        Value::Array(arr) => {
            if guards_failed {
                return set_elem(rt, base, idx, value);
            }
            raw_write(rt, *arr, idx.to_number(), value)
        }
        Value::Number(k) if no_unbox => {
            let addr = *k + 2.0 + idx.to_number();
            if addr >= 0.0 && addr.is_finite() {
                rt.heap
                    .raw_write(addr as usize, value)
                    .map_err(|e| crash_noted(rt, e))
            } else {
                Err(wild(rt, format!("wild write through confused pointer {k}")))
            }
        }
        _ => set_elem(rt, base, idx, value),
    }
}

fn raw_read(rt: &mut Runtime, arr: ArrId, idx: f64) -> Result<Value, VmError> {
    if !raw_index(idx) {
        return rt.heap.get_elem(arr, idx);
    }
    let addr = rt.heap.elem_addr(arr, idx as usize);
    rt.heap.raw_read(addr).map_err(|e| crash_noted(rt, e))
}

fn raw_write(rt: &mut Runtime, arr: ArrId, idx: f64, value: Value) -> Result<(), VmError> {
    if !raw_index(idx) {
        return rt.heap.set_elem(arr, idx, value);
    }
    let addr = rt.heap.elem_addr(arr, idx as usize);
    rt.heap
        .raw_write(addr, value)
        .map_err(|e| crash_noted(rt, e))
}
