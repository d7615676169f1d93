//! The serve workload: one in-process `tg_engine::serve::Server` with a
//! shared code cache, driven by two closed-loop clients over its Unix
//! socket.

use crate::jobs::{Job, Plan};
use crate::oneshot::Limit;
use crate::stats::{ms, peak_rss_mb, reset_peak_rss, secs};
use crate::tally::{Counts, Done, Tally};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;
use tg_engine::serve::{Client, ServeOptions, Server};
use tg_engine::EngineConfig;
use tg_obs::json::{escape, parse, JsonValue};

/// Closed-loop clients (one connection each, at most the host's two
/// cores' worth of load).
pub const CLIENTS: usize = 2;
/// Daemon analysis workers: one, so the second client's job waits in the
/// admission queue and the clients' own threads keep a core to
/// themselves.
pub const WORKERS: usize = 1;

/// Scratch space for daemons, inside the working directory.
pub const TMP_ROOT: &str = ".tgbench_tmp";

/// A running daemon and the directory holding its socket and cache.
/// Dropping it stops the daemon (its workers join) and removes the
/// directory, also when a run unwinds.
pub struct Daemon {
    server: Option<Server>,
    dir: PathBuf,
}

impl Daemon {
    /// Start a daemon whose jobs share a code cache under a fresh
    /// directory. Paths are relative, which keeps the socket path short.
    pub fn start(tag: &str) -> Result<Daemon, String> {
        let dir = Path::new(TMP_ROOT).join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let engine = EngineConfig {
            code_cache: Some(dir.join("cache").to_string_lossy().into_owned()),
            ..EngineConfig::default()
        };
        let opts = ServeOptions { workers: WORKERS, queue_cap: 8, engine };
        let server = Server::start(&dir.join("serve.sock"), opts)
            .map_err(|e| format!("serve start: {e}"))?;
        Ok(Daemon { server: Some(server), dir })
    }

    pub fn socket(&self) -> &Path {
        self.server.as_ref().expect("daemon is running until dropped").socket()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.stop();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        let _ = std::fs::remove_dir(TMP_ROOT);
    }
}

/// One serve job as the client saw it.
pub struct ServeDone {
    pub done: Done,
    /// Submit to the `loaded` status (admission, queueing, module load).
    pub loaded_ms: f64,
    pub memoized: bool,
    pub translations: f64,
    pub cache_hits: f64,
    pub cache_misses: f64,
    pub cache_load_ms: f64,
    pub recording_ms: f64,
    pub analysis_ms: f64,
}

fn request_line(job: &Job) -> String {
    let args: Vec<String> = job.args.iter().map(|a| format!("\"{}\"", escape(a))).collect();
    format!(
        "{{\"op\":\"run\",\"source\":{{\"name\":\"{}\",\"text\":\"{}\"}},\"threads\":{},\"seed\":{},\"random_sched\":{},\"confirm_races\":{},\"guest_args\":[{}]}}",
        escape(&job.file),
        escape(job.source),
        job.threads,
        job.seed,
        job.random_sched,
        job.confirm,
        args.join(",")
    )
}

fn num(v: &JsonValue, key: &str) -> f64 {
    v.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0)
}

/// Submit one job and wait for its result line.
fn submit(socket: &Path, job: &Job) -> Result<ServeDone, String> {
    let line = request_line(job);
    let t = Instant::now();
    let mut client = Client::connect(socket).map_err(|e| format!("connect: {e}"))?;
    client.send(&line).map_err(|e| format!("send: {e}"))?;
    let (mut loaded_ms, mut memoized) = (0.0, false);
    while let Some(l) = client.recv().map_err(|e| format!("recv: {e}"))? {
        let v = parse(&l).map_err(|e| format!("bad reply line: {e}"))?;
        match v.get("type").and_then(JsonValue::as_str) {
            Some("status") if v.get("state").and_then(JsonValue::as_str) == Some("loaded") => {
                loaded_ms = ms(t);
                memoized = matches!(v.get("memoized"), Some(JsonValue::Bool(true)));
            }
            Some("error") => {
                let reason = v.get("reason").and_then(JsonValue::as_str).unwrap_or("?");
                let msg = v.get("message").and_then(JsonValue::as_str).unwrap_or("");
                return Err(format!("serve error {reason}: {msg}"));
            }
            Some("result") => {
                let wall = ms(t);
                let m = v.get("metrics").ok_or("result without metrics")?;
                return Ok(ServeDone {
                    done: Done {
                        ms: wall,
                        counts: Counts {
                            instrs: num(m, "vm.instrs") as u64,
                            translations: None,
                            accesses: num(m, "filter.accesses_recorded") as u64,
                            segments: num(m, "taskgrind.segments") as u64,
                        },
                        stdout: v.get("stdout").and_then(JsonValue::as_str).unwrap_or("").into(),
                        deadlock: matches!(v.get("deadlock"), Some(JsonValue::Bool(true))),
                        n_reports: num(&v, "reports") as usize,
                    },
                    loaded_ms,
                    memoized,
                    translations: num(m, "vm.translations"),
                    cache_hits: num(m, "cache.hits"),
                    cache_misses: num(m, "cache.misses"),
                    cache_load_ms: num(m, "cache.load_ms"),
                    recording_ms: num(m, "taskgrind.recording_secs") * 1e3,
                    analysis_ms: num(m, "taskgrind.analysis_secs") * 1e3,
                });
            }
            _ => {}
        }
    }
    Err("connection closed without a result".into())
}

/// Registry-derived layer figures of the serve jobs.
#[derive(Default)]
pub struct ServeLayers {
    pub jobs: f64,
    pub job_ms: f64,
    pub queue_wait_ms: f64,
    pub memo_hits: f64,
    pub cache_hits: f64,
    pub cache_misses: f64,
    pub cache_load_ms: f64,
    pub recording_ms: f64,
    pub analysis_ms: f64,
    pub warm_translations: f64,
    pub cold_translations: f64,
    cold_by_program: HashMap<String, f64>,
}

impl ServeLayers {
    fn add(&mut self, job: &Job, d: &ServeDone) {
        self.jobs += 1.0;
        self.job_ms += d.done.ms;
        self.queue_wait_ms += d.loaded_ms;
        self.cache_hits += d.cache_hits;
        self.cache_misses += d.cache_misses;
        self.cache_load_ms += d.cache_load_ms;
        self.recording_ms += d.recording_ms;
        self.analysis_ms += d.analysis_ms;
        if d.memoized {
            self.memo_hits += 1.0;
            if let Some(cold) = self.cold_by_program.get(&job.file) {
                self.warm_translations += d.translations;
                self.cold_translations += cold;
            }
        } else {
            self.cold_by_program.entry(job.file.clone()).or_insert(d.translations);
        }
    }
}

struct Feeder {
    plan: Plan,
    start: Instant,
    taken: usize,
    stop: bool,
}

/// Run the closed loop until `limit`; returns the measured wall time.
/// Completed jobs are accounted in completion order.
pub fn run(
    plan: Plan,
    socket: &Path,
    tally: &mut Tally,
    limit: Limit,
    mut layers: Option<&mut ServeLayers>,
) -> f64 {
    let feeder = Mutex::new(Feeder { plan, start: Instant::now(), taken: 0, stop: false });
    let results: Mutex<Vec<(Job, Result<ServeDone, String>)>> = Mutex::new(Vec::new());
    reset_peak_rss();
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let job = {
                    let mut f = feeder.lock().expect("a client thread panicked");
                    if f.stop {
                        break;
                    }
                    let (job, pass_end) = f.plan.next_job();
                    let job = job.clone();
                    f.taken += 1;
                    if limit.done(f.start, f.taken, pass_end) {
                        f.stop = true;
                    }
                    job
                };
                let r = submit(socket, &job);
                results.lock().expect("a client thread panicked").push((job, r));
            });
        }
    });
    let wall = secs(start);
    let peak_mb = peak_rss_mb();
    for (job, r) in results.into_inner().expect("a client thread panicked") {
        if let (Some(l), Ok(d)) = (layers.as_deref_mut(), &r) {
            l.add(&job, d);
        }
        let outcome = r.map(|d| d.done);
        tally.record(&job, outcome);
        tally.peak_mb.push(peak_mb);
    }
    wall
}
