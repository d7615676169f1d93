//! Helpers shared by the differential test binaries: a tool that
//! digests the memory-access callback stream, and a runner that also
//! digests the final architectural state.

use grindcore::tool::{instrument_mem_accesses, BlockMeta, Tool};
use grindcore::{ExecMode, RunResult, Tid, Vm, VmConfig, VmCore};
use std::cell::Cell;
use std::rc::Rc;
use vex_ir::IrBlock;

/// FNV-1a fold, same shape as the VM's scheduler digest.
fn fold(digest: u64, v: u64) -> u64 {
    let mut d = if digest == 0 { 0xcbf2_9ce4_8422_2325 } else { digest };
    for b in v.to_le_bytes() {
        d = (d ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    d
}

/// A tool that digests every memory-access callback in order: two runs
/// with equal digests saw the same accesses by the same threads at the
/// same pcs, in the same order.
struct StreamHashTool {
    digest: Rc<Cell<u64>>,
}

impl Tool for StreamHashTool {
    fn name(&self) -> &'static str {
        "streamhash"
    }

    fn instrument(&mut self, block: IrBlock, _meta: &BlockMeta) -> IrBlock {
        instrument_mem_accesses(block)
    }

    fn mem_access(
        &mut self,
        _core: &mut VmCore,
        tid: Tid,
        addr: u64,
        size: u64,
        write: bool,
        pc: u64,
    ) {
        let mut d = self.digest.get();
        for v in [tid as u64, addr, size, write as u64, pc] {
            d = fold(d, v);
        }
        self.digest.set(d);
    }
}

/// Run a module under the stream-hash tool with guest `args`; returns the run outcome,
/// the access-stream digest, and a digest of the final architectural
/// state (registers + pc + status of every thread).
pub fn stream_run(m: &tga::module::Module, cfg: VmConfig, args: &[&str]) -> (RunResult, u64, u64) {
    let digest = Rc::new(Cell::new(0u64));
    let tool = StreamHashTool { digest: digest.clone() };
    let mut vm = Vm::new(m.clone(), Box::new(tool), cfg);
    let r = vm.run(ExecMode::Dbi, args);
    let mut arch = 0u64;
    for t in &vm.core.threads {
        arch = fold(arch, t.pc);
        arch = fold(arch, matches!(t.status, grindcore::ThreadStatus::Exited) as u64);
        for &reg in &t.regs {
            arch = fold(arch, reg);
        }
    }
    (r, digest.get(), arch)
}
