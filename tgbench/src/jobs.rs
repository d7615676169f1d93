//! Workload inputs and their oracles.
//!
//! A workload seed picks scheduler (or guest) seeds and job order; the
//! programs and their sizes are fixed per workload, so medians compare
//! across seeds. Every oracle is computed without grindcore's DBI path:
//! fib and n-queens in Rust, everything else from an `ExecMode::Fast`
//! run of the same module, and verdicts from each program's ground truth.

use crate::stats::{fnv64, Rng};
use grindcore::{ExecMode, SchedPolicy, Vm, VmConfig};
use std::collections::HashMap;
use tg_drb::bots::{FIB_MC, NQUEENS_MC, SPARSELU_MC};
use tg_engine::{EngineConfig, Program, RunRequest};
use tg_lulesh::harness::LuleshParams;
use tg_lulesh::LULESH_MC;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["lulesh", "tasks", "drb-corpus", "serve"];

/// What a job's guest stdout must look like.
#[derive(Clone, Debug, PartialEq)]
pub enum Expect {
    /// Exactly this text.
    Stdout(String),
    /// One line holding a thread number below the given team size: the
    /// program prints which thread ran a task, which the schedule picks.
    ThreadId(u64),
    /// A racy program whose output depends on the schedule: only
    /// completion (no fault, no deadlock) is checked.
    Completes,
}

/// One analysis job: a program, its arguments and its schedule.
#[derive(Clone, Debug)]
pub struct Job {
    /// Program name as reported on failure (`lulesh`, `bots-fib`, a
    /// corpus entry's name).
    pub program: String,
    /// Source display name handed to the compiler.
    pub file: String,
    pub source: &'static str,
    pub args: Vec<String>,
    pub threads: u64,
    pub seed: u64,
    pub random_sched: bool,
    pub confirm: bool,
    /// Ground truth: the program contains a determinacy race.
    pub racy: bool,
    pub expect: Expect,
}

impl Job {
    fn new(program: &str, source: &'static str, args: Vec<String>, threads: u64) -> Job {
        Job {
            program: program.to_string(),
            file: format!("{program}.c"),
            source,
            args,
            threads,
            seed: 42,
            random_sched: false,
            confirm: false,
            racy: false,
            expect: Expect::Completes,
        }
    }

    /// Identity of the job for the determinism check: two runs with the
    /// same key must execute identically.
    pub fn key(&self) -> String {
        format!(
            "{} [{}] t{} s{} {}",
            self.program,
            self.args.join(" "),
            self.threads,
            self.seed,
            if self.random_sched { "random" } else { "rr" }
        )
    }

    pub fn guest_args(&self) -> Vec<&str> {
        self.args.iter().map(|s| s.as_str()).collect()
    }

    /// The VM configuration `Session::run` builds for this job.
    pub fn vm_config(&self, eng: &EngineConfig) -> VmConfig {
        VmConfig {
            nthreads: self.threads,
            seed: self.seed,
            sched: if self.random_sched { SchedPolicy::Random } else { SchedPolicy::RoundRobin },
            chaining: eng.chaining,
            compile_threads: eng.compile_threads,
            self_profile: eng.self_profile,
            ..Default::default()
        }
    }

    /// The one-shot request: what a `tgrind` invocation of this job runs.
    pub fn request(&self) -> RunRequest {
        RunRequest {
            program: Program::Source { name: self.file.clone(), text: self.source.to_string() },
            threads: self.threads,
            seed: self.seed,
            random_sched: self.random_sched,
            confirm_races: self.confirm,
            guest_args: self.args.clone(),
            ..Default::default()
        }
    }

    /// Check guest stdout and completion against the oracle.
    pub fn check(&self, stdout: &str, deadlock: bool) -> Result<(), String> {
        if deadlock {
            return Err("unexpected deadlock".into());
        }
        match &self.expect {
            Expect::Stdout(want) if stdout != want => {
                Err(format!("stdout {:?} differs from oracle {:?}", clip(stdout), clip(want)))
            }
            Expect::ThreadId(n) => match stdout.trim_end().parse::<u64>() {
                Ok(t) if t < *n && stdout.ends_with('\n') && stdout.lines().count() == 1 => Ok(()),
                _ => Err(format!("stdout {:?} is not one thread number below {n}", clip(stdout))),
            },
            _ => Ok(()),
        }
    }

    /// The verdict matches the ground truth.
    pub fn verdict_ok(&self, n_reports: usize) -> bool {
        (n_reports > 0) == self.racy
    }
}

fn clip(s: &str) -> String {
    s.chars().take(80).collect()
}

/// A workload's input: one pass of jobs and whether each pass is
/// reshuffled. Jobs are drawn pass after pass until time runs out.
pub struct Plan {
    pub pass: Vec<Job>,
    shuffle: bool,
    rng: Rng,
    order: Vec<usize>,
    pos: usize,
}

impl Plan {
    /// A plan that runs `pass` in order.
    pub fn of(pass: Vec<Job>) -> Plan {
        Plan { pass, shuffle: false, rng: Rng::new(0), order: Vec::new(), pos: 0 }
    }

    /// The next job, and whether it completes a pass.
    pub fn next_job(&mut self) -> (&Job, bool) {
        if self.pos == self.order.len() {
            self.order = (0..self.pass.len()).collect();
            if self.shuffle {
                self.rng.shuffle(&mut self.order);
            }
            self.pos = 0;
        }
        let j = self.order[self.pos];
        self.pos += 1;
        (&self.pass[j], self.pos == self.order.len())
    }

    /// Digest of the first `passes` passes of generated input (program
    /// text, arguments, schedule, order and oracle), for the check that
    /// the same seed generates byte-identical inputs.
    pub fn digest(mut self, passes: usize) -> u64 {
        let mut h = 0;
        for _ in 0..passes * self.pass.len() {
            let (job, _) = self.next_job();
            h = fnv64(h, job.key().as_bytes());
            h = fnv64(h, job.source.as_bytes());
            h = fnv64(h, format!("{:?}|{}|{}", job.expect, job.racy, job.confirm).as_bytes());
        }
        h
    }
}

/// Fast-mode oracle runs, shared across jobs with the same module, args
/// and schedule.
struct Oracles {
    modules: HashMap<String, tga::module::Module>,
    stdout: HashMap<String, String>,
}

impl Oracles {
    fn new() -> Oracles {
        Oracles { modules: HashMap::new(), stdout: HashMap::new() }
    }

    /// Guest stdout of `job` run natively (`ExecMode::Fast`, no tool).
    fn fast_stdout(&mut self, job: &Job) -> Result<String, String> {
        if let Some(s) = self.stdout.get(&job.key()) {
            return Ok(s.clone());
        }
        if !self.modules.contains_key(&job.file) {
            let m = guest_rt::build_single(&job.file, job.source)
                .map_err(|e| format!("{}: {e}", job.program))?;
            self.modules.insert(job.file.clone(), m);
        }
        let m = self.modules[&job.file].clone();
        let r =
            Vm::new(m, Box::new(grindcore::tool::NulTool), job.vm_config(&EngineConfig::default()))
                .run(ExecMode::Fast, &job.guest_args());
        if !r.ok() {
            return Err(format!(
                "{}: oracle run failed: {:?} deadlock={}",
                job.program, r.error, r.deadlock
            ));
        }
        let out = r.stdout_str();
        self.stdout.insert(job.key(), out.clone());
        Ok(out)
    }
}

/// fib(n), the BOTS recursion.
pub fn fib(n: u64) -> u64 {
    let (mut a, mut b) = (0u64, 1u64);
    for _ in 0..n {
        (a, b) = (b, a + b);
    }
    a
}

/// Number of n-queens placements.
pub fn nqueens(n: usize) -> u64 {
    fn go(cols: &mut Vec<usize>, n: usize) -> u64 {
        if cols.len() == n {
            return 1;
        }
        let row = cols.len();
        let mut count = 0;
        for c in 0..n {
            let safe = cols.iter().enumerate().all(|(r, &q)| q != c && q.abs_diff(c) != row - r);
            if safe {
                cols.push(c);
                count += go(cols, n);
                cols.pop();
            }
        }
        count
    }
    go(&mut Vec::new(), n)
}

const FIB_N: u64 = 16;
const NQUEENS_N: usize = 8;
const SPARSELU_NB: u64 = 8;
const LULESH_SERVE_S: u64 = 4;

/// The racy-corpus program that prints the number of whichever thread
/// ran its task: race-free, but its output is the schedule's choice.
const THREAD_ID_PROGRAM: &str = "128-tasking-threadprivate2-orig";

fn lulesh_job(s: u64, racy: bool, seed: u64) -> Job {
    let params = LuleshParams { s, racy, threads: 2, ..Default::default() };
    let mut job = Job::new("lulesh", LULESH_MC, params.args(), 2);
    job.seed = seed;
    job.random_sched = true;
    job.racy = racy;
    job
}

fn corpus_job(p: &tg_drb::BenchProgram, seed: u64, confirm: bool) -> Job {
    let mut job = Job::new(p.name, p.source, Vec::new(), 4);
    job.seed = seed;
    job.confirm = confirm;
    job.racy = p.racy;
    job
}

fn corpus_expect(job: &mut Job, oracles: &mut Oracles) -> Result<(), String> {
    job.expect = if job.racy {
        Expect::Completes
    } else if job.program == THREAD_ID_PROGRAM {
        Expect::ThreadId(job.threads)
    } else {
        Expect::Stdout(oracles.fast_stdout(job)?)
    };
    Ok(())
}

fn full_corpus() -> Vec<tg_drb::BenchProgram> {
    let mut all = tg_drb::corpus();
    all.extend(tg_drb::extra_corpus());
    all
}

/// Generate the inputs of `workload` for `seed`. With `oracles` false
/// the expectations stay `Completes` (used only to digest the inputs
/// cheaply); otherwise every oracle is computed.
pub fn plan(workload: &str, seed: u64, oracles: bool) -> Result<Plan, String> {
    let mut rng = Rng::new(seed);
    let mut orc = Oracles::new();
    let (pass, shuffle) = match workload {
        "lulesh" => {
            // Table II shape, clean and -racy alternating, two scheduler
            // seeds per run.
            let seeds = [rng.range(1, 1 << 20), rng.range(1, 1 << 20)];
            let mut pass = Vec::new();
            for s in seeds {
                for racy in [false, true] {
                    let mut job = lulesh_job(16, racy, s);
                    if oracles {
                        job.expect = Expect::Stdout(orc.fast_stdout(&job)?);
                    }
                    pass.push(job);
                }
            }
            (pass, false)
        }
        "tasks" => {
            let seeds = [rng.range(1, 1 << 20), rng.range(1, 1 << 20)];
            let mut pass = Vec::new();
            for s in seeds {
                let mut jobs = [
                    Job::new("bots-fib", FIB_MC, vec![FIB_N.to_string()], 2),
                    Job::new("bots-nqueens", NQUEENS_MC, vec![NQUEENS_N.to_string()], 2),
                    Job::new(
                        "bots-sparselu",
                        SPARSELU_MC,
                        vec!["-nb".into(), SPARSELU_NB.to_string()],
                        2,
                    ),
                ];
                for job in jobs.iter_mut() {
                    job.seed = s;
                    job.random_sched = true;
                }
                jobs[0].expect = Expect::Stdout(format!("fib({FIB_N}) = {}\n", fib(FIB_N)));
                jobs[1].expect =
                    Expect::Stdout(format!("queens({NQUEENS_N}) = {}\n", nqueens(NQUEENS_N)));
                if oracles {
                    jobs[2].expect = Expect::Stdout(orc.fast_stdout(&jobs[2])?);
                }
                pass.extend(jobs);
            }
            (pass, true)
        }
        "drb-corpus" => {
            let guest_seed = rng.range(1, 1 << 20);
            let mut pass = Vec::new();
            for p in full_corpus() {
                let mut job = corpus_job(&p, guest_seed, true);
                if oracles {
                    corpus_expect(&mut job, &mut orc)?;
                }
                pass.push(job);
            }
            (pass, true)
        }
        "serve" => {
            let guest_seed = rng.range(1, 1 << 20);
            let mut pass = Vec::new();
            for p in full_corpus() {
                let mut job = corpus_job(&p, guest_seed, false);
                if oracles {
                    corpus_expect(&mut job, &mut orc)?;
                }
                pass.push(job);
            }
            for racy in [false, true] {
                let mut job = lulesh_job(LULESH_SERVE_S, racy, guest_seed);
                if oracles {
                    job.expect = Expect::Stdout(orc.fast_stdout(&job)?);
                }
                pass.push(job);
            }
            (pass, true)
        }
        other => return Err(format!("unknown workload `{other}`")),
    };
    Ok(Plan { pass, shuffle, rng, order: Vec::new(), pos: 0 })
}

/// The generated inputs are byte-identical for the same seed and differ
/// for another seed.
pub fn check_inputs_seeded(workload: &str, seed: u64) -> Result<(), String> {
    let a = plan(workload, seed, false)?.digest(3);
    let b = plan(workload, seed, false)?.digest(3);
    let c = plan(workload, seed.wrapping_add(1), false)?.digest(3);
    if a != b {
        return Err(format!("{workload}: inputs differ between two generations at seed {seed}"));
    }
    if a == c {
        return Err(format!("{workload}: seeds {seed} and {} generate identical inputs", seed + 1));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rust_oracles() {
        assert_eq!(fib(17), 1597);
        assert_eq!(fib(18), 2584);
        assert_eq!(nqueens(6), 4);
        assert_eq!(nqueens(8), 92);
    }

    #[test]
    fn inputs_are_seeded() {
        for w in WORKLOADS {
            check_inputs_seeded(w, 7).unwrap();
        }
    }
}
