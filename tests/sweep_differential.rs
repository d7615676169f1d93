//! Differential tests for the analysis pipeline's hot-path rewrites:
//! the sweep-based candidate generator and bulk access ingestion. The
//! oracle is the paper's all-pairs Algorithm 1 (`analysis::run`) plus
//! `report::summarize`, run on the graph of a product run with bulk
//! ingestion off (one interval-tree insert per access). Every product
//! configuration must match it in every verdict-bearing output:
//! candidate list, raw-range and suppression counters, and the rendered
//! report text, across the Table I corpus and mini-LULESH, under both
//! dispatch engines (`--no-chaining` included), at 1 and 4 analysis
//! threads.
//!
//! `pairs_checked` / `unordered_pairs` are deliberately NOT compared:
//! they are work metrics of the pair generator (the sweep's whole point
//! is to check fewer pairs), not verdicts.

use std::sync::Arc;
use taskgrind::analysis::{self, AnalysisOutput};
use taskgrind::reach::Reachability;
use taskgrind::tool::RecordOptions;
use taskgrind::{check_module, report, TaskgrindConfig, TaskgrindResult};
use tg_drb::corpus::{corpus, Suite};
use tg_lulesh::harness::LuleshParams;
use tg_lulesh::LULESH_MC;

/// One product configuration under test.
#[derive(Clone, Copy)]
struct Engine {
    label: &'static str,
    bulk: bool,
    threads: usize,
}

const ENGINES: &[Engine] = &[
    Engine { label: "bulk t1", bulk: true, threads: 1 },
    Engine { label: "bulk t4", bulk: true, threads: 4 },
    Engine { label: "per-access t1", bulk: false, threads: 1 },
    Engine { label: "per-access t4", bulk: false, threads: 4 },
];

fn run(
    m: &tga::module::Module,
    args: &[&str],
    nt: u64,
    chaining: bool,
    e: Engine,
) -> TaskgrindResult {
    let cfg = TaskgrindConfig {
        vm: grindcore::VmConfig { nthreads: nt, chaining, ..Default::default() },
        record: RecordOptions { bulk_ingest: e.bulk, ..Default::default() },
        analysis_threads: e.threads,
        ..Default::default()
    };
    check_module(m, args, &cfg)
}

/// The all-pairs oracle's verdicts on one recorded run.
struct Oracle {
    analysis: AnalysisOutput,
    report: String,
    accesses_recorded: u64,
}

/// Record `m` with bulk ingestion off, then re-analyze the recorded
/// graph with the all-pairs reference and render its reports.
fn oracle(m: &tga::module::Module, args: &[&str], nt: u64, chaining: bool) -> Oracle {
    let e = Engine { label: "oracle", bulk: false, threads: 1 };
    let r = run(m, args, nt, chaining, e);
    let reach = Reachability::compute(&r.graph);
    let out = analysis::run(&r.graph, &reach, &Default::default());
    let reports = report::summarize(
        &r.graph,
        &Arc::new(m.clone()),
        &r.blocks,
        &out.candidates,
        &RecordOptions::default().ignore_list,
    );
    let report = reports.iter().map(report::render_taskgrind).collect::<Vec<_>>().join("\n");
    Oracle { analysis: out, report, accesses_recorded: r.accesses_recorded }
}

/// Everything verdict-bearing must match the oracle bit for bit.
fn assert_matches(o: &Oracle, r: &TaskgrindResult, ctx: &str) {
    let (a, b) = (&o.analysis, &r.analysis);
    assert_eq!(a.candidates, b.candidates, "{ctx}: candidates");
    assert_eq!(a.raw_ranges, b.raw_ranges, "{ctx}: raw_ranges");
    assert_eq!(a.suppressed_locks, b.suppressed_locks, "{ctx}: locks");
    assert_eq!(a.suppressed_mutex, b.suppressed_mutex, "{ctx}: mutex");
    assert_eq!(a.suppressed_tls, b.suppressed_tls, "{ctx}: tls");
    assert_eq!(a.suppressed_stack, b.suppressed_stack, "{ctx}: stack");
    assert_eq!(a.suppressed_static, b.suppressed_static, "{ctx}: static");
    assert_eq!(o.accesses_recorded, r.accesses_recorded, "{ctx}: accesses recorded");
    assert_eq!(o.report, r.render_all(), "{ctx}: report text");
    assert_summary_shape(r, ctx);
}

/// The registry-rendered summary block has one `== analysis:` line and
/// four `==` lines total.
fn assert_summary_shape(r: &TaskgrindResult, ctx: &str) {
    let mut reg = tg_obs::Registry::new();
    taskgrind::metrics::publish(r, &mut reg);
    let s = taskgrind::metrics::render_summary(&reg);
    assert_eq!(s.matches("== analysis:").count(), 1, "{ctx}: analysis line\n{s}");
    assert_eq!(s.matches("== ").count(), 4, "{ctx}: summary line count\n{s}");
}

/// Sweep and bulk ingestion preserve every Table I verdict and counter,
/// chaining on and off.
#[test]
fn sweep_and_bulk_preserve_table1_verdicts() {
    let mut any_candidates = false;
    for p in corpus() {
        let Ok(m) = guest_rt::build_single(p.name, p.source) else {
            continue; // ncs entries stay ncs either way
        };
        let threads: &[u64] = match p.suite {
            Suite::Drb => &[4],
            Suite::Tmb => &[1, 4],
        };
        for &nt in threads {
            for chaining in [true, false] {
                let reference = oracle(&m, &[], nt, chaining);
                any_candidates |= !reference.analysis.candidates.is_empty();
                for &e in ENGINES {
                    let opt = run(&m, &[], nt, chaining, e);
                    let ctx =
                        format!("{} ({nt} threads, chaining={chaining}) under {}", p.name, e.label);
                    assert_matches(&reference, &opt, &ctx);
                }
            }
        }
    }
    assert!(any_candidates, "the corpus must exercise non-empty candidate sets");
}

/// Same contract on mini-LULESH — the many-segment workload the sweep
/// exists for, with deep interval sets feeding bulk ingestion.
#[test]
fn sweep_and_bulk_preserve_lulesh_output() {
    let m = guest_rt::build_single("lulesh.c", LULESH_MC).expect("compiles");
    let params =
        LuleshParams { s: 4, tel: 2, tnl: 2, iters: 2, progress: false, racy: false, threads: 2 };
    let args: Vec<String> = params.args();
    let args: Vec<&str> = args.iter().map(|s| s.as_str()).collect();
    for chaining in [true, false] {
        let reference = oracle(&m, &args, params.threads, chaining);
        assert!(
            reference.analysis.raw_ranges > 0 || reference.analysis.pairs_checked > 0,
            "mini-LULESH must exercise the analysis"
        );
        for &e in ENGINES {
            let opt = run(&m, &args, params.threads, chaining, e);
            let ctx = format!("lulesh (chaining={chaining}) under {}", e.label);
            assert_matches(&reference, &opt, &ctx);
        }
    }
}

/// Run with the static concurrency pass (guard-mask tagging + the
/// StaticProof sweep layer) toggled.
fn run_concurrency(
    m: &tga::module::Module,
    args: &[&str],
    nt: u64,
    chaining: bool,
    concurrency: bool,
) -> TaskgrindResult {
    let cfg = TaskgrindConfig {
        vm: grindcore::VmConfig { nthreads: nt, chaining, ..Default::default() },
        record: RecordOptions { static_concurrency: concurrency, ..Default::default() },
        suppress: taskgrind::analysis::SuppressOptions {
            static_proof: concurrency,
            ..Default::default()
        },
        analysis_threads: 2,
        ..Default::default()
    };
    check_module(m, args, &cfg)
}

/// Everything verdict-bearing must match between two product runs.
fn assert_identical(a: &TaskgrindResult, b: &TaskgrindResult, ctx: &str) {
    let o = Oracle {
        analysis: a.analysis.clone(),
        report: a.render_all(),
        accesses_recorded: a.accesses_recorded,
    };
    assert_matches(&o, b, ctx);
    assert_summary_shape(a, ctx);
}

/// The static concurrency pass must be *verdict-invisible*: a sound
/// static guard proof only tags accesses that run under a dynamic
/// critical section, so the locks layer claims every such pair first
/// and all Table I verdicts, counters, and report text stay
/// bit-identical with the pass on and off — under both dispatch
/// engines.
#[test]
fn static_concurrency_is_verdict_invisible_on_table1() {
    for p in corpus() {
        let Ok(m) = guest_rt::build_single(p.name, p.source) else {
            continue;
        };
        for chaining in [true, false] {
            let on = run_concurrency(&m, &[], 4, chaining, true);
            let off = run_concurrency(&m, &[], 4, chaining, false);
            let ctx = format!("{} (chaining={chaining}) concurrency on vs off", p.name);
            assert_identical(&on, &off, &ctx);
            assert_eq!(
                on.analysis.suppressed_static, 0,
                "{ctx}: dynamic lock tracking must subsume every static proof"
            );
        }
    }
}

/// Same on mini-LULESH.
#[test]
fn static_concurrency_is_verdict_invisible_on_lulesh() {
    let m = guest_rt::build_single("lulesh.c", LULESH_MC).expect("compiles");
    let params =
        LuleshParams { s: 4, tel: 2, tnl: 2, iters: 1, progress: false, racy: false, threads: 2 };
    let args: Vec<String> = params.args();
    let args: Vec<&str> = args.iter().map(|s| s.as_str()).collect();
    for chaining in [true, false] {
        let on = run_concurrency(&m, &args, params.threads, chaining, true);
        let off = run_concurrency(&m, &args, params.threads, chaining, false);
        let ctx = format!("lulesh (chaining={chaining})");
        assert_identical(&on, &off, &ctx);
        // the toggle gates only tagging, never pruning: the
        // instrumented-site counts stay identical too
        assert_eq!(on.sites_pruned, off.sites_pruned, "{ctx}: sites pruned");
        assert_eq!(on.sites_instrumented, off.sites_instrumented, "{ctx}: sites kept");
    }
}

mod random_graphs {
    //! Property test: the sweep is verdict-identical to the all-pairs
    //! oracle on *random task graphs with random sync placement* —
    //! parallel regions, barriers, taskgroups and critical sections on
    //! two threads — driving the [`taskgrind::graph::GraphBuilder`]
    //! event API directly (no guest program).

    use proptest::prelude::*;
    use taskgrind::analysis::{self, SuppressOptions};
    use taskgrind::graph::{GraphBuilder, ThreadMeta};
    use taskgrind::reach::Reachability;

    /// One random event. Free-threaded ops run on thread 0 (the only
    /// thread with a root context, as in the real runtimes — worker
    /// threads only execute inside task contexts); explicit tasks run
    /// on thread 1, implicit tasks alternate threads.
    #[derive(Clone, Debug)]
    enum Op {
        Spawn,
        RunTask { write: bool, addr: u8 },
        Access { write: bool, addr: u8 },
        Taskwait,
        Critical { addr: u8 },
        TaskgroupScope,
        Region { team: u8 },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            Just(Op::Spawn),
            (any::<bool>(), 0u8..32).prop_map(|(write, addr)| Op::RunTask { write, addr }),
            (any::<bool>(), 0u8..32).prop_map(|(write, addr)| Op::Access { write, addr }),
            Just(Op::Taskwait),
            (0u8..4).prop_map(|addr| Op::Critical { addr }),
            Just(Op::TaskgroupScope),
            (2u8..4).prop_map(|team| Op::Region { team }),
        ]
    }

    fn meta(tid: u8) -> ThreadMeta {
        ThreadMeta {
            tid: tid as usize,
            sp: 0x7000_0000,
            stack_low: 0x6000_0000,
            stack_high: 0x7000_0100,
            tls_base: 0x100 + tid as u64 * 0x1000,
            tls_size: 64,
            tls_gen: tid as u64,
        }
    }

    /// Replay the op list into a builder. Heap addresses are far from
    /// the fake stack/TLS windows so suppression layers stay exercised
    /// but not total.
    fn replay(b: &mut GraphBuilder, ops: &[Op]) {
        let mut pending: Vec<u64> = Vec::new();
        for op in ops {
            match op {
                Op::Spawn => {
                    let m = meta(0);
                    let t = b.task_create(&m, 0, 0x100);
                    b.task_spawn(&m, t);
                    pending.push(t);
                }
                Op::RunTask { write, addr } => {
                    // run the oldest pending task on thread 1
                    if !pending.is_empty() {
                        let t = pending.remove(0);
                        let m = meta(1);
                        b.task_begin(&m, t);
                        b.record_access(&m, 0x9000 + *addr as u64 * 8, 8, *write);
                        b.task_end(&m, t);
                    }
                }
                Op::Access { write, addr } => {
                    b.record_access(&meta(0), 0x9000 + *addr as u64 * 8, 8, *write);
                }
                Op::Taskwait => {
                    b.taskwait(&meta(0));
                }
                Op::Critical { addr } => {
                    let m = meta(0);
                    b.critical_enter(&m, 0x40 + *addr as u64);
                    b.record_access(&m, 0x9000 + *addr as u64 * 8, 8, true);
                    b.critical_exit(&m, 0x40 + *addr as u64);
                }
                Op::TaskgroupScope => {
                    let m = meta(0);
                    b.taskgroup_begin(&m);
                    let t = b.task_create(&m, 0, 0x200);
                    b.task_spawn(&m, t);
                    b.task_begin(&m, t);
                    b.record_access(&m, 0x9100, 8, true);
                    b.task_end(&m, t);
                    b.taskgroup_end(&m);
                }
                Op::Region { team } => {
                    let m0 = meta(0);
                    let rid = b.parallel_begin(&m0, *team as u64);
                    for i in 0..*team {
                        let mt = meta(i % 2);
                        b.implicit_task_begin(&mt, rid, i as u64);
                        b.record_access(&mt, 0x9200 + i as u64 * 8, 8, true);
                        b.barrier(&mt, rid);
                        b.record_access(&mt, 0x9200 + i as u64 * 8, 8, false);
                        b.implicit_task_end(&mt, rid, i as u64);
                    }
                    b.parallel_end(&m0, rid);
                }
            }
        }
        // leave no task unrun
        for t in pending {
            let m = meta(1);
            b.task_begin(&m, t);
            b.record_access(&m, 0x9300, 8, true);
            b.task_end(&m, t);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Sweep == all-pairs on random event streams, at 1 and 4
        /// analysis threads.
        #[test]
        fn sweep_matches_all_pairs_on_random_event_streams(
            ops in prop::collection::vec(op_strategy(), 1..40),
        ) {
            let mut b = GraphBuilder::new();
            replay(&mut b, &ops);
            let g = b.finalize();
            let reach = Reachability::compute(&g);
            let opts = SuppressOptions::default();
            let all_pairs = analysis::run(&g, &reach, &opts);
            for threads in [1, 4] {
                let sweep = analysis::run_sweep(&g, &reach, &opts, threads);
                prop_assert_eq!(&all_pairs.candidates, &sweep.candidates);
                prop_assert_eq!(all_pairs.raw_ranges, sweep.raw_ranges);
                prop_assert_eq!(all_pairs.suppressed_locks, sweep.suppressed_locks);
                prop_assert_eq!(all_pairs.suppressed_mutex, sweep.suppressed_mutex);
                prop_assert_eq!(all_pairs.suppressed_tls, sweep.suppressed_tls);
                prop_assert_eq!(all_pairs.suppressed_stack, sweep.suppressed_stack);
            }
        }
    }
}
