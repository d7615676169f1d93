//! Job accounting: oracle and determinism checks, failure lines, and the
//! end-to-end metrics.

use crate::jobs::Job;
use crate::stats::{median, percentile, sorted, tail};
use std::collections::HashMap;

/// Counts that must repeat exactly when a job is re-run at the same
/// seed. `translations` is `None` where a shared code cache legitimately
/// changes it between runs (serve).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Counts {
    pub instrs: u64,
    pub translations: Option<u64>,
    pub accesses: u64,
    pub segments: u64,
}

/// What a completed job reported.
pub struct Done {
    pub ms: f64,
    pub counts: Counts,
    pub stdout: String,
    pub deadlock: bool,
    pub n_reports: usize,
}

/// Every job of one run.
pub struct Tally {
    pub workload: String,
    pub seed: u64,
    pub job_ms: Vec<f64>,
    pub peak_mb: Vec<f64>,
    pub instrs: u64,
    pub attempted: u64,
    pub failed: u64,
    pub verdict_misses: u64,
    seen: HashMap<String, Counts>,
}

impl Tally {
    pub fn new(workload: &str, seed: u64) -> Tally {
        Tally {
            workload: workload.to_string(),
            seed,
            job_ms: Vec::new(),
            peak_mb: Vec::new(),
            instrs: 0,
            attempted: 0,
            failed: 0,
            verdict_misses: 0,
            seen: HashMap::new(),
        }
    }

    /// Print a failing job so a non-zero error rate can be traced.
    pub fn fail(&mut self, job: &Job, why: &str) {
        self.failed += 1;
        println!(
            "FAIL workload={} program={} job_seed={} workload_seed={} args=[{}]: {why}",
            self.workload,
            job.program,
            job.seed,
            self.seed,
            job.args.join(" ")
        );
    }

    /// The counts of a job at this seed match any earlier run of it.
    pub fn check_counts(&mut self, job: &Job, c: Counts) -> Result<(), String> {
        let key = job.key();
        match self.seen.get(&key) {
            None => {
                self.seen.insert(key, c);
                Ok(())
            }
            Some(prev) => {
                let same_translations = match (prev.translations, c.translations) {
                    (Some(a), Some(b)) => a == b,
                    _ => true,
                };
                if prev.instrs == c.instrs
                    && same_translations
                    && prev.accesses == c.accesses
                    && prev.segments == c.segments
                {
                    Ok(())
                } else {
                    Err(format!("not deterministic: {prev:?} then {c:?}"))
                }
            }
        }
    }

    /// Account one job attempt.
    pub fn record(&mut self, job: &Job, outcome: Result<Done, String>) {
        self.attempted += 1;
        let d = match outcome {
            Ok(d) => d,
            Err(e) => return self.fail(job, &e),
        };
        self.job_ms.push(d.ms);
        self.instrs += d.counts.instrs;
        if let Err(e) = job.check(&d.stdout, d.deadlock) {
            return self.fail(job, &e);
        }
        if let Err(e) = self.check_counts(job, d.counts) {
            return self.fail(job, &e);
        }
        if !job.verdict_ok(d.n_reports) {
            self.verdict_misses += 1;
            println!(
                "VERDICT-MISS workload={} program={} job_seed={} workload_seed={}: {} report(s), ground truth {}",
                self.workload,
                job.program,
                job.seed,
                self.seed,
                d.n_reports,
                if job.racy { "racy" } else { "race-free" }
            );
        }
    }

    /// The end-to-end metrics (without `setup_s`), `wall_s` being the
    /// measured wall time. Also prints the error and verdict-miss rates
    /// and the tail percentile used.
    pub fn end_to_end(&self, wall_s: f64) -> Vec<(&'static str, f64)> {
        let attempted = self.attempted.max(1) as f64;
        let completed = (self.attempted - self.failed) as f64;
        let (tail_ms, pct) = tail(&self.job_ms);
        let error_rate = self.failed as f64 / attempted;
        let miss_rate = self.verdict_misses as f64 / attempted;
        println!(
            "jobs: {} attempted, {} failed, {} verdict misses; error_rate = {error_rate} ratio, verdict_miss_rate = {miss_rate} ratio; job_tail_ms is p{pct} of {} job times",
            self.attempted,
            self.failed,
            self.verdict_misses,
            self.job_ms.len()
        );
        if !self.job_ms.is_empty() {
            let s = sorted(&self.job_ms);
            let p: Vec<String> = [10.0, 50.0, 90.0, 95.0, 99.0, 100.0]
                .map(|p| format!("p{p} {}", percentile(&s, p)))
                .into();
            println!("job_ms: {}", p.join(" "));
        }
        let total_ms: f64 = self.job_ms.iter().sum();
        vec![
            ("job_p50_ms", median(&self.job_ms)),
            ("job_tail_ms", tail_ms),
            ("jobs_per_s", completed / wall_s.max(1e-9)),
            ("guest_ns_per_instr", total_ms * 1e6 / (self.instrs.max(1) as f64)),
            ("job_peak_mb", self.peak_mb.iter().cloned().fold(0.0, f64::max)),
            ("job_ok_rate", completed / attempted),
            ("verdict_hit_rate", 1.0 - miss_rate),
        ]
    }
}
