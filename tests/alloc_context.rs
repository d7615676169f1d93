//! Allocation contexts are captured at a fixed depth
//! ([`grindcore::NUM_CALLERS`] frames, Valgrind's `--num-callers`
//! default), not as a copy of the whole guest call stack. The guest
//! runtime runs queued tasks nested inside `__kmp_taskwait` on the
//! waiting thread's stack, so task-parallel guests grow stacks whose
//! depth follows the task count; these tests pin both the memory bound
//! and that the report still names the user's allocation site.

use grindcore::{VmConfig, NUM_CALLERS};
use taskgrind::{check_module, TaskgrindConfig, TaskgrindResult};

fn run(name: &str, src: &str, args: &[&str], nthreads: u64) -> TaskgrindResult {
    let m = guest_rt::build_single(name, src).expect("compiles");
    let cfg =
        TaskgrindConfig { vm: VmConfig { nthreads, ..Default::default() }, ..Default::default() };
    let r = check_module(&m, args, &cfg);
    assert!(r.run.ok(), "{name}: {:?}", r.run.error);
    r
}

#[test]
fn bots_fib_allocation_contexts_stay_bounded() {
    // ~2,400 task descriptors allocated at stack depths in the hundreds
    // to thousands: whole-stack contexts made this ~30 MB of tool state.
    let r = run("fib.c", tg_drb::bots::FIB_MC, &["14"], 2);
    assert_eq!(r.run.stdout_str(), "fib(14) = 377\n");
    assert!(r.blocks.len() > 2000, "{} blocks", r.blocks.len());
    let deepest = r.blocks.iter().map(|b| b.alloc_stack.len()).max().unwrap();
    assert!(deepest <= NUM_CALLERS, "a {deepest}-frame allocation context");
    assert!(r.tool_bytes < 2_000_000, "taskgrind.tool_bytes = {}", r.tool_bytes);
}

/// Each `chain` level defers one child task and waits for it, so the
/// waiting thread runs the child nested inside `__kmp_taskwait`; the
/// block is allocated by user code at the bottom of that nest (71 frames
/// deep on one thread, 85 on two), and the two tasks that write it race.
const DEEP_ALLOC: &str = r#"void tg_set_deferrable(long v);
void chain(int depth) {
    if (depth == 0) {
        int *blk = (int*) malloc(2 * sizeof(int));
        #pragma omp task shared(blk)
        blk[0] = 1;
        #pragma omp task shared(blk)
        blk[0] = 2;
        #pragma omp taskwait
        return;
    }
    #pragma omp task firstprivate(depth)
    chain(depth - 1);
    #pragma omp taskwait
}
int main(void) {
    tg_set_deferrable(1);
    #pragma omp parallel
    {
        #pragma omp single
        chain(16);
    }
    return 0;
}
"#;

#[test]
fn deep_task_nesting_reports_the_user_allocation_site() {
    let line = DEEP_ALLOC.lines().position(|l| l.contains("malloc")).unwrap() + 1;
    for nthreads in [1, 2] {
        let r = run("deep.c", DEEP_ALLOC, &[], nthreads);
        let text = r.render_all();
        assert!(text.contains(&format!("\nfrom deep.c:{line}\n")), "t{nthreads}: {text}");
        // The block's context really was cut: the stack ran deeper
        // than the capture.
        let base = r.reports.iter().find_map(|rep| rep.block.as_ref()).expect("a heap report").0;
        let blk = r.blocks.iter().find(|b| b.base == base).unwrap();
        assert_eq!(blk.alloc_stack.len(), NUM_CALLERS, "t{nthreads}");
    }
}
