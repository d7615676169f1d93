//! One-shot workloads: each job is a fresh `Session::run`, which is what
//! one `tgrind` invocation does.

use crate::jobs::{Job, Plan};
use crate::layers::{self, Sample};
use crate::stats::{ms, peak_rss_mb, secs};
use crate::tally::{Counts, Done, Tally};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use tg_engine::Session;

/// When a measuring loop stops: after the pass in which `seconds` ran
/// out, or after `max_jobs` jobs, whichever comes first.
#[derive(Clone, Copy)]
pub struct Limit {
    pub seconds: f64,
    pub max_jobs: usize,
}

impl Limit {
    pub fn done(&self, start: Instant, jobs: usize, pass_end: bool) -> bool {
        jobs >= self.max_jobs || (pass_end && secs(start) >= self.seconds)
    }
}

/// Run one cold job and time it from request to verdict.
pub fn run_job(job: &Job) -> Result<Done, String> {
    let req = job.request();
    let t = Instant::now();
    let r = catch_unwind(AssertUnwindSafe(|| Session::new().run(&req)));
    let wall = ms(t);
    let o = match r {
        Err(_) => return Err("engine panicked".into()),
        Ok(Err(e)) => return Err(format!("engine error: {e}")),
        Ok(Ok(o)) => o,
    };
    Ok(Done {
        ms: wall,
        counts: Counts {
            instrs: o.registry.u64("vm.instrs"),
            translations: Some(o.registry.u64("vm.translations")),
            accesses: o.registry.u64("filter.accesses_recorded"),
            segments: o.registry.u64("taskgrind.segments"),
        },
        stdout: o.stdout,
        deadlock: o.deadlock,
        n_reports: o.n_reports,
    })
}

/// `tgbench --memory-job <workload> <seed> <index>`: run the program of
/// job `index` of the workload's pass in this fresh process, under the
/// default schedule, and print the process's peak RSS.
pub fn memory_job(workload: &str, seed: u64, index: usize) -> Result<f64, String> {
    let plan = crate::jobs::plan(workload, seed, false)?;
    let mut job = plan.pass.get(index).ok_or("no such job")?.clone();
    let defaults = tg_engine::RunRequest::default();
    job.seed = defaults.seed;
    job.random_sched = defaults.random_sched;
    run_job(&job)?;
    Ok(peak_rss_mb())
}

/// Peak RSS of each distinct program (and arguments) of the pass, each
/// run in a fresh process under the default schedule, as one `tgrind`
/// invocation runs it. A long-lived process keeps the allocator's state
/// from job to job, and the scheduler seed moves where vectors double,
/// so neither would give a figure that repeats.
pub fn memory_pass(workload: &str, seed: u64, plan: &Plan, tally: &mut Tally, max_jobs: usize) {
    let exe = std::env::current_exe().unwrap_or_else(|_| "tgbench".into());
    let mut seen = std::collections::HashSet::new();
    for (i, job) in plan.pass.iter().enumerate().take(max_jobs) {
        if !seen.insert((job.program.clone(), job.args.clone())) {
            continue;
        }
        let out = std::process::Command::new(&exe)
            .args(["--memory-job", workload, &seed.to_string(), &i.to_string()])
            .stdin(std::process::Stdio::null())
            .output();
        let peak = match out {
            Ok(o) if o.status.success() => {
                String::from_utf8_lossy(&o.stdout).trim().parse::<f64>().ok()
            }
            _ => None,
        };
        match peak {
            Some(mb) => {
                println!(
                    "peak_rss program={} args=[{}] = {mb} MB",
                    job.program,
                    job.args.join(" ")
                );
                tally.peak_mb.push(mb);
            }
            None => {
                tally.attempted += 1;
                tally.fail(job, "memory job failed");
            }
        }
    }
}

/// Layer samples summed over the traced jobs, with the untraced time of
/// the same jobs.
#[derive(Default)]
pub struct Totals {
    pub sum: Sample,
    pub jobs: usize,
    pub untraced_ms: f64,
}

/// Check a traced job against the oracle and against its untraced run.
fn check_traced(
    tally: &mut Tally,
    job: &Job,
    s: &Sample,
    untraced_reports: usize,
) -> Result<(), String> {
    job.check(&s.stdout, s.deadlock)?;
    tally.check_counts(
        job,
        Counts {
            instrs: s.instrs as u64,
            translations: Some(s.translations as u64),
            accesses: s.accesses as u64,
            segments: s.segments as u64,
        },
    )?;
    if s.n_reports != untraced_reports {
        return Err(format!(
            "traced job found {} report(s), untraced {untraced_reports}",
            s.n_reports
        ));
    }
    Ok(())
}

/// Draw jobs from `plan` until `limit`; returns the measured wall time.
/// With `totals`, every job is also re-done layer by layer.
pub fn run(
    plan: &mut Plan,
    tally: &mut Tally,
    limit: Limit,
    mut totals: Option<&mut Totals>,
) -> f64 {
    let start = Instant::now();
    let mut jobs = 0;
    loop {
        let (job, pass_end) = plan.next_job();
        let job = job.clone();
        let done = run_job(&job);
        jobs += 1;
        let untraced = done.as_ref().map(|d| (d.ms, d.n_reports)).ok();
        tally.record(&job, done);
        if let (Some(t), Some((untraced_ms, reports))) = (totals.as_deref_mut(), untraced) {
            tally.attempted += 1;
            match layers::trace_job(&job) {
                Ok(s) => match check_traced(tally, &job, &s, reports) {
                    Ok(()) => {
                        t.sum.add(&s);
                        t.jobs += 1;
                        t.untraced_ms += untraced_ms;
                    }
                    Err(e) => tally.fail(&job, &format!("traced: {e}")),
                },
                Err(e) => tally.fail(&job, &format!("traced: {e}")),
            }
        }
        if limit.done(start, jobs, pass_end) {
            return secs(start);
        }
    }
}
