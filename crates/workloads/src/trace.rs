//! Trace construction helpers.

use psb_common::Addr;
use psb_cpu::{BranchInfo, BranchKind, DynInst, Op, Reg};
use std::io;

/// Builds a correct-path dynamic instruction trace while enforcing the
/// program-order invariant the pipeline's fetch stage relies on: after a
/// non-branch (or a not-taken branch) at `pc`, the next instruction is at
/// `pc + 4`; after a taken branch, it is at the branch target.
///
/// Generators describe control flow with explicit code addresses (as a
/// compiler would lay out basic blocks); the builder checks consistency
/// at every emission, so a malformed generator fails fast instead of
/// producing an impossible fetch stream.
///
/// # Example
///
/// ```
/// use psb_common::Addr;
/// use psb_workloads::TraceBuilder;
///
/// let mut b = TraceBuilder::new(Addr::new(0x1000));
/// b.alu(1, None, None);
/// b.jump(Addr::new(0x1000)); // loop back
/// b.alu(2, Some(1), None);
/// let trace = b.finish();
/// assert_eq!(trace.len(), 3);
/// assert_eq!(trace[2].pc, Addr::new(0x1000));
/// ```
#[derive(Clone, Debug)]
pub struct TraceBuilder {
    insts: Vec<DynInst>,
    pc: Addr,
    call_stack: Vec<Addr>,
}

impl TraceBuilder {
    /// Starts a trace whose first instruction is at `entry`.
    pub fn new(entry: Addr) -> Self {
        TraceBuilder { insts: Vec::new(), pc: entry, call_stack: Vec::new() }
    }

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The address the next instruction will be emitted at.
    pub fn pc(&self) -> Addr {
        self.pc
    }

    /// Asserts the builder is positioned at `pc` — use at basic-block
    /// heads to catch layout mistakes.
    ///
    /// # Panics
    ///
    /// Panics if the current position differs.
    pub fn expect_pc(&self, pc: Addr) {
        assert_eq!(self.pc, pc, "control-flow layout error: at {} but expected {}", self.pc, pc);
    }

    fn push(&mut self, inst: DynInst) {
        debug_assert_eq!(inst.pc, self.pc);
        self.pc = inst.next_pc();
        self.insts.push(inst);
    }

    /// Emits an integer ALU op.
    pub fn alu(&mut self, dst: u8, src1: Option<u8>, src2: Option<u8>) {
        self.push(DynInst::alu(self.pc, Reg::new(dst), src1.map(Reg::new), src2.map(Reg::new)));
    }

    /// Emits an arbitrary non-memory, non-branch operation (e.g. FP).
    pub fn op(&mut self, op: Op, dst: u8, src1: Option<u8>, src2: Option<u8>) {
        assert!(!op.is_mem() && op != Op::Branch, "use the dedicated emitters for {op:?}");
        self.push(DynInst {
            pc: self.pc,
            op,
            dst: Some(Reg::new(dst)),
            src1: src1.map(Reg::new),
            src2: src2.map(Reg::new),
            mem_addr: None,
            mem_size: 0,
            branch: None,
        });
    }

    /// Emits an 8-byte load into `dst`, address-generated from `base`.
    pub fn load(&mut self, dst: u8, base: Option<u8>, addr: Addr) {
        self.push(DynInst::load(self.pc, Reg::new(dst), base.map(Reg::new), addr, 8));
    }

    /// Emits an 8-byte store of `data`, address-generated from `base`.
    pub fn store(&mut self, data: Option<u8>, base: Option<u8>, addr: Addr) {
        self.push(DynInst::store(self.pc, data.map(Reg::new), base.map(Reg::new), addr, 8));
    }

    /// Emits a conditional branch to `target`, depending on `src`.
    pub fn cond(&mut self, src: Option<u8>, taken: bool, target: Addr) {
        self.push(DynInst::branch(
            self.pc,
            src.map(Reg::new),
            BranchInfo { kind: BranchKind::Conditional, taken, target },
        ));
    }

    /// Emits an unconditional direct jump to `target`.
    pub fn jump(&mut self, target: Addr) {
        self.push(DynInst::branch(
            self.pc,
            None,
            BranchInfo { kind: BranchKind::Jump, taken: true, target },
        ));
    }

    /// Emits an indirect jump through a register to `target` (predicted
    /// via the BTB, so target changes cost mispredictions).
    pub fn indirect(&mut self, src: Option<u8>, target: Addr) {
        self.push(DynInst::branch(
            self.pc,
            src.map(Reg::new),
            BranchInfo { kind: BranchKind::Indirect, taken: true, target },
        ));
    }

    /// Emits a direct call to `target`, recording the return address.
    pub fn call(&mut self, target: Addr) {
        self.call_stack.push(self.pc.offset(4));
        self.push(DynInst::branch(
            self.pc,
            None,
            BranchInfo { kind: BranchKind::Call, taken: true, target },
        ));
    }

    /// Emits a return to the most recent call site.
    ///
    /// # Panics
    ///
    /// Panics if there is no pending call.
    pub fn ret(&mut self) {
        let target = self.call_stack.pop().expect("return without a pending call");
        self.push(DynInst::branch(
            self.pc,
            None,
            BranchInfo { kind: BranchKind::Return, taken: true, target },
        ));
    }

    /// Finishes the trace.
    pub fn finish(self) -> Vec<DynInst> {
        self.insts
    }
}

/// Checks two invariants over a full trace:
///
/// * program order, as [`DynInst`] documents it: each instruction sits
///   at its predecessor's [`DynInst::next_pc`], `pc + 4` or the target
///   of a taken branch;
/// * natural alignment: each memory op's address is a multiple of its
///   size, as the Alpha's loads and stores must be. An aligned access of
///   at most 8 bytes never crosses a cache block of any size the
///   simulator builds, and the simulator serves an access from one block.
///
/// Every generator's output is checked with this in tests, and `psbsim
/// --load` checks every PSBT archive it reads.
///
/// # Errors
///
/// Returns `InvalidData` naming the first instruction that does not
/// follow its predecessor or is not aligned.
pub fn validate_trace(trace: &[DynInst]) -> io::Result<()> {
    let invalid = |message| Err(io::Error::new(io::ErrorKind::InvalidData, message));
    let mut follows: Option<Addr> = None;
    for (i, inst) in trace.iter().enumerate() {
        if let Some(expected) = follows.filter(|&pc| pc != inst.pc) {
            return invalid(format!(
                "instruction {i}: pc {} does not follow instruction {} (expected {expected})",
                inst.pc,
                i - 1
            ));
        }
        let size = u64::from(inst.mem_size);
        if let Some(addr) = inst.mem_addr.filter(|a| size != 0 && a.raw() % size != 0) {
            return invalid(format!(
                "instruction {i}: {size}-byte access at {addr} is not aligned to its size"
            ));
        }
        follows = Some(inst.next_pc());
    }
    Ok(())
}

/// Summary statistics of a trace's instruction mix.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct TraceMix {
    /// Total instructions.
    pub total: usize,
    /// Loads.
    pub loads: usize,
    /// Stores.
    pub stores: usize,
    /// Branches.
    pub branches: usize,
    /// Floating-point operations.
    pub fp: usize,
}

impl TraceMix {
    /// Computes the mix of `trace`.
    pub fn of(trace: &[DynInst]) -> Self {
        let mut mix = TraceMix { total: trace.len(), ..Default::default() };
        for i in trace {
            match i.op {
                Op::Load => mix.loads += 1,
                Op::Store => mix.stores += 1,
                Op::Branch => mix.branches += 1,
                Op::FpAdd | Op::FpMult | Op::FpDiv => mix.fp += 1,
                _ => {}
            }
        }
        mix
    }

    /// Load fraction of the trace.
    pub fn load_fraction(&self) -> f64 {
        self.loads as f64 / self.total.max(1) as f64
    }

    /// Store fraction of the trace.
    pub fn store_fraction(&self) -> f64 {
        self.stores as f64 / self.total.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line_pcs_advance_by_four() {
        let mut b = TraceBuilder::new(Addr::new(0x100));
        b.alu(1, None, None);
        b.load(2, Some(1), Addr::new(0x9000));
        b.store(Some(2), None, Addr::new(0x9008));
        let t = b.finish();
        assert_eq!(t[0].pc, Addr::new(0x100));
        assert_eq!(t[1].pc, Addr::new(0x104));
        assert_eq!(t[2].pc, Addr::new(0x108));
        validate_trace(&t).unwrap();
    }

    #[test]
    fn taken_branches_redirect() {
        let mut b = TraceBuilder::new(Addr::new(0x100));
        b.cond(None, true, Addr::new(0x200));
        b.alu(1, None, None); // must be at 0x200
        let t = b.finish();
        assert_eq!(t[1].pc, Addr::new(0x200));
        validate_trace(&t).unwrap();
    }

    #[test]
    fn not_taken_branches_fall_through() {
        let mut b = TraceBuilder::new(Addr::new(0x100));
        b.cond(None, false, Addr::new(0x200));
        b.alu(1, None, None);
        let t = b.finish();
        assert_eq!(t[1].pc, Addr::new(0x104));
    }

    #[test]
    fn calls_and_returns_pair_up() {
        let mut b = TraceBuilder::new(Addr::new(0x100));
        b.call(Addr::new(0x800));
        b.alu(1, None, None); // in callee at 0x800
        b.ret(); // back to 0x104
        b.alu(2, None, None);
        let t = b.finish();
        assert_eq!(t[1].pc, Addr::new(0x800));
        assert_eq!(t[3].pc, Addr::new(0x104));
        validate_trace(&t).unwrap();
    }

    #[test]
    fn nested_calls_unwind_in_order() {
        let mut b = TraceBuilder::new(Addr::new(0x100));
        b.call(Addr::new(0x800));
        b.call(Addr::new(0x900));
        b.ret(); // to 0x804
        b.ret(); // to 0x104
        b.alu(1, None, None);
        let t = b.finish();
        assert_eq!(t[2].branch.unwrap().target, Addr::new(0x804));
        assert_eq!(t[3].branch.unwrap().target, Addr::new(0x104));
    }

    #[test]
    #[should_panic(expected = "return without a pending call")]
    fn unbalanced_return_panics() {
        let mut b = TraceBuilder::new(Addr::new(0x100));
        b.ret();
    }

    #[test]
    #[should_panic(expected = "layout error")]
    fn expect_pc_catches_layout_bugs() {
        let mut b = TraceBuilder::new(Addr::new(0x100));
        b.alu(1, None, None);
        b.expect_pc(Addr::new(0x200));
    }

    #[test]
    fn violation_finder_flags_broken_traces() {
        let mut b = TraceBuilder::new(Addr::new(0x100));
        b.alu(1, None, None);
        b.alu(2, None, None);
        let mut t = b.finish();
        t[1].pc = Addr::new(0x9999); // corrupt
        let err = validate_trace(&t).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().starts_with("instruction 1: "), "{err}");
    }

    #[test]
    fn memory_ops_must_be_naturally_aligned() {
        let mut b = TraceBuilder::new(Addr::new(0x100));
        b.load(1, None, Addr::new(0x9000));
        b.store(Some(1), None, Addr::new(0x9008));
        let mut t = b.finish();
        validate_trace(&t).unwrap();
        for (addr, size) in [(0x9004, 8), (0x9006, 4), (0x9003, 2)] {
            t[1].mem_addr = Some(Addr::new(addr));
            t[1].mem_size = size;
            let err = validate_trace(&t).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().starts_with("instruction 1: "), "{err}");
            assert!(err.to_string().contains("not aligned"), "{err}");
        }
        for (addr, size) in [(0x9004, 4), (0x9006, 2), (0x9003, 1)] {
            t[1].mem_addr = Some(Addr::new(addr));
            t[1].mem_size = size;
            validate_trace(&t).unwrap();
        }
    }

    #[test]
    fn mix_counts() {
        let mut b = TraceBuilder::new(Addr::new(0x100));
        b.alu(1, None, None);
        b.load(2, None, Addr::new(0x9000));
        b.store(None, None, Addr::new(0x9008));
        b.op(psb_cpu::Op::FpAdd, 3, None, None);
        b.jump(Addr::new(0x100));
        let mix = TraceMix::of(&b.finish());
        assert_eq!(mix.total, 5);
        assert_eq!(mix.loads, 1);
        assert_eq!(mix.stores, 1);
        assert_eq!(mix.branches, 1);
        assert_eq!(mix.fp, 1);
        assert_eq!(mix.load_fraction(), 0.2);
    }
}
