//! tgbench — the repository benchmark.
//!
//! ```text
//! tgbench --workload <lulesh|tasks|drb-corpus|serve> --seed <n> --seconds <s> --trace <0|1>
//! tgbench --smoke
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` re-does every
//! job layer by layer and prints the per-layer metrics and the layer
//! ledger. The last line of stdout is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`.
//! `--smoke` runs one job per workload, both ways, and checks that every
//! metric is printed with its unit and that every oracle passes.
//! `--memory-job <workload> <seed> <index>` is how a run measures
//! `job_peak_mb`: it re-invokes itself to run one job in a fresh process.

mod jobs;
mod layers;
mod oneshot;
mod serve;
mod stats;
mod tally;

use jobs::{Plan, WORKLOADS};
use oneshot::{Limit, Totals};
use serve::{Daemon, ServeLayers};
use stats::{host_cores, median, secs, source_rev};
use std::time::Instant;
use tally::Tally;

/// End-to-end metrics, in output order, with their units.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("guest_ns_per_instr", "ns"),
    ("job_peak_mb", "MB"),
    ("job_ok_rate", "ratio"),
    ("verdict_hit_rate", "ratio"),
];

/// Per-layer metrics of the traced run, in output order, with units.
const PER_LAYER: [(&str, &str); 26] = [
    ("minicc.build_ms", "ms"),
    ("minicc.text_bytes", "bytes"),
    ("tga_analysis.facts_ms", "ms"),
    ("tga_analysis.pruned_ratio", "ratio"),
    ("grindcore.translate_us_per_block", "us"),
    ("grindcore.translations", "count"),
    ("grindcore.nul_ns_per_instr", "ns"),
    ("grindcore.chain_hit_ratio", "ratio"),
    ("grindcore.instrs", "count"),
    ("taskgrind.record_ms", "ms"),
    ("taskgrind.tool_ns_per_access", "ns"),
    ("taskgrind.accesses", "count"),
    ("taskgrind.segments", "count"),
    ("taskgrind.analysis_ms", "ms"),
    ("taskgrind.unordered_ratio", "ratio"),
    ("taskgrind.report_ms", "ms"),
    ("taskgrind.confirm_ms", "ms"),
    ("taskgrind.confirm_replays", "count"),
    ("tg_cache.hit_ratio", "ratio"),
    ("tg_cache.load_ms", "ms"),
    ("tg_engine.queue_wait_ms", "ms"),
    ("tg_engine.memo_hit_ratio", "ratio"),
    ("tg_engine.compile_skip", "ratio"),
    ("unaccounted_ratio", "ratio"),
    ("trace_overhead_ratio", "ratio"),
    ("job_path_ms", "ms"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: tgbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       tgbench --smoke",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Opts {
    let mut o =
        Opts { workload: String::new(), seed: 1, seconds: 10.0, trace: false, smoke: false };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => o.workload = val(),
            "--seed" => o.seed = val().parse().unwrap_or_else(|_| usage()),
            "--seconds" => o.seconds = val().parse().unwrap_or_else(|_| usage()),
            "--trace" => o.trace = val() == "1",
            "--smoke" => o.smoke = true,
            _ => usage(),
        }
    }
    if !o.smoke && !WORKLOADS.contains(&o.workload.as_str()) {
        usage();
    }
    o
}

/// The outcome of one benchmark run.
struct Output {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
}

/// Generate inputs and oracles and (for serve) start the daemon,
/// `repeats` times; returns the last set-up and the median set-up time.
fn set_up(
    workload: &str,
    seed: u64,
    repeats: usize,
    first_job_only: bool,
) -> Result<(Plan, Option<Daemon>, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for i in 0..repeats {
        // the previous set-up's daemon stops here, before the next starts
        drop(last.take());
        let t = Instant::now();
        let mut plan = jobs::plan(workload, seed, true)?;
        if first_job_only {
            plan.pass.truncate(1);
        }
        let daemon =
            if workload == "serve" { Some(Daemon::start(&format!("setup{i}"))?) } else { None };
        times.push(secs(t));
        last = Some((plan, daemon));
    }
    let (plan, daemon) = last.expect("at least one set-up");
    Ok((plan, daemon, median(&times)))
}

fn run_workload(
    workload: &str,
    seed: u64,
    limit: Limit,
    trace: bool,
    repeats: usize,
) -> Result<Output, String> {
    jobs::check_inputs_seeded(workload, seed)?;
    let first_job_only = limit.max_jobs < usize::MAX;
    let (mut plan, daemon, setup_s) = set_up(workload, seed, repeats, first_job_only)?;
    let mut tally = Tally::new(workload, seed);
    let mut metrics = Vec::new();
    if workload == "serve" {
        let daemon = daemon.expect("serve set-up starts a daemon");
        if !trace {
            let wall = serve::run(plan, daemon.socket(), &mut tally, limit, None);
            drop(daemon);
            metrics.push(("setup_s", setup_s));
            metrics.extend(tally.end_to_end(wall));
        } else {
            // a third each: untraced daemon, registry-traced daemon, and
            // the cold path re-done layer by layer over one pass
            let third = Limit { seconds: limit.seconds / 3.0, ..limit };
            let decompose = plan.pass.clone();
            serve::run(plan, daemon.socket(), &mut tally, third, None);
            drop(daemon);
            let untraced_mean = stats::mean(&tally.job_ms);
            let daemon = Daemon::start("traced")?;
            let plan = jobs::plan(workload, seed, true)?;
            let mut sl = ServeLayers::default();
            serve::run(plan, daemon.socket(), &mut tally, third, Some(&mut sl));
            drop(daemon);
            let mut totals = Totals::default();
            let mut one_pass = Plan::of(decompose);
            let n = one_pass.pass.len();
            oneshot::run(
                &mut one_pass,
                &mut tally,
                Limit { seconds: 0.0, max_jobs: n.min(limit.max_jobs) },
                Some(&mut totals),
            );
            metrics = layer_metrics(&totals, Some((&sl, untraced_mean)));
            print_ledger(workload, &totals, Some(&sl));
        }
    } else if !trace {
        oneshot::memory_pass(workload, seed, &plan, &mut tally, limit.max_jobs);
        let wall = oneshot::run(&mut plan, &mut tally, limit, None);
        metrics.push(("setup_s", setup_s));
        metrics.extend(tally.end_to_end(wall));
    } else {
        let mut totals = Totals::default();
        oneshot::run(&mut plan, &mut tally, limit, Some(&mut totals));
        metrics = layer_metrics(&totals, None);
        print_ledger(workload, &totals, None);
    }
    Ok(Output { attempted: tally.attempted, failed: tally.failed, metrics })
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Per-layer metrics from the traced jobs (and, for serve, from the
/// daemon's per-job registries). Layers a workload bypasses read 0.
fn layer_metrics(t: &Totals, serve: Option<(&ServeLayers, f64)>) -> Vec<(&'static str, f64)> {
    let s = &t.sum;
    let n = t.jobs.max(1) as f64;
    let mut m = vec![
        ("minicc.build_ms", s.build_ms / n),
        ("minicc.text_bytes", s.text_bytes / n),
        ("tga_analysis.facts_ms", s.facts_ms / n),
        ("tga_analysis.pruned_ratio", ratio(s.sites_pruned, s.sites_pruned + s.sites_kept)),
        ("grindcore.translate_us_per_block", ratio(s.translate_ms * 1e3, s.translate_blocks)),
        ("grindcore.translations", s.translations / n),
        ("grindcore.nul_ns_per_instr", ratio(s.nul_ms * 1e6, s.nul_instrs)),
        ("grindcore.chain_hit_ratio", ratio(s.chain_hits, s.chain_hits + s.probes)),
        ("grindcore.instrs", s.instrs / n),
        ("taskgrind.record_ms", s.record_ms / n),
        ("taskgrind.tool_ns_per_access", ratio((s.record_ms - s.nul_ms) * 1e6, s.accesses)),
        ("taskgrind.accesses", s.accesses / n),
        ("taskgrind.segments", s.segments / n),
        ("taskgrind.analysis_ms", s.analysis_ms / n),
        ("taskgrind.unordered_ratio", ratio(s.unordered, s.pairs)),
        ("taskgrind.report_ms", s.report_ms / n),
        ("taskgrind.confirm_ms", s.confirm_ms / n),
        ("taskgrind.confirm_replays", s.replays / n),
    ];
    match serve {
        None => {
            m.extend([
                ("tg_cache.hit_ratio", 0.0),
                ("tg_cache.load_ms", 0.0),
                ("tg_engine.queue_wait_ms", 0.0),
                ("tg_engine.memo_hit_ratio", 0.0),
                ("tg_engine.compile_skip", 0.0),
                ("unaccounted_ratio", 1.0 - ratio(s.job_path_ms(), t.untraced_ms)),
                ("trace_overhead_ratio", ratio(s.traced_ms, t.untraced_ms)),
                ("job_path_ms", s.job_path_ms() / n),
            ]);
        }
        Some((l, untraced_mean)) => {
            let jobs = l.jobs.max(1.0);
            let path = l.queue_wait_ms + l.recording_ms + l.analysis_ms;
            m.extend([
                ("tg_cache.hit_ratio", ratio(l.cache_hits, l.cache_hits + l.cache_misses)),
                ("tg_cache.load_ms", l.cache_load_ms / jobs),
                ("tg_engine.queue_wait_ms", l.queue_wait_ms / jobs),
                ("tg_engine.memo_hit_ratio", l.memo_hits / jobs),
                ("tg_engine.compile_skip", 1.0 - ratio(l.warm_translations, l.cold_translations)),
                ("unaccounted_ratio", 1.0 - ratio(path, l.job_ms)),
                ("trace_overhead_ratio", ratio(l.job_ms / jobs, untraced_mean)),
                ("job_path_ms", path / jobs),
            ]);
        }
    }
    m
}

/// The layer-share table: each layer's self time per job and its share
/// of the mean untraced job.
fn print_ledger(workload: &str, t: &Totals, serve: Option<&ServeLayers>) {
    let s = &t.sum;
    let n = t.jobs.max(1) as f64;
    println!(
        "layer ledger, workload {workload} ({} traced jobs; ms per job, share of untraced job):",
        t.jobs
    );
    let row = |name: &str, total_ms: f64, base_ms: f64| {
        println!(
            "  {name:<34} {:>10.3} ms  {:>6.1}%",
            total_ms / n,
            100.0 * ratio(total_ms, base_ms)
        );
    };
    let translate = ratio(s.translate_ms, s.translate_blocks) * s.translations;
    row("minicc (guest build)", s.build_ms, t.untraced_ms);
    row("tga_analysis (static facts)", s.facts_ms, t.untraced_ms);
    row("grindcore translate", translate, t.untraced_ms);
    row("grindcore dispatch+execute", (s.nul_ms - translate).max(0.0), t.untraced_ms);
    row("taskgrind tool callbacks", (s.record_ms - s.nul_ms).max(0.0), t.untraced_ms);
    row("taskgrind analysis", s.analysis_ms, t.untraced_ms);
    row("taskgrind report", s.report_ms, t.untraced_ms);
    row("taskgrind confirm replay", s.confirm_ms, t.untraced_ms);
    row("unaccounted", (t.untraced_ms - s.job_path_ms()).max(0.0), t.untraced_ms);
    row("job (untraced)", t.untraced_ms, t.untraced_ms);
    if let Some(l) = serve {
        let jobs = l.jobs.max(1.0);
        println!("serve job path ({} jobs; ms per job, share of job):", l.jobs);
        let row = |name: &str, v: f64| {
            println!("  {name:<34} {:>10.3} ms  {:>6.1}%", v / jobs, 100.0 * ratio(v, l.job_ms));
        };
        row("tg_engine admission + module load", l.queue_wait_ms);
        row("recording (registry)", l.recording_ms);
        row("analysis + report (registry)", l.analysis_ms);
        row("unaccounted", (l.job_ms - l.queue_wait_ms - l.recording_ms - l.analysis_ms).max(0.0));
        row("job", l.job_ms);
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The unit `units` declares for metric `name`.
fn unit<'a>(units: &[(&str, &'a str)], name: &str) -> &'a str {
    units.iter().find(|(n, _)| *n == name).map_or("", |(_, u)| u)
}

fn result_json(correct: bool, o: &Output, units: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, v)| {
            format!("\"{name}\":{{\"value\":{},\"unit\":\"{}\"}}", json_num(*v), unit(units, name))
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.attempted,
        o.failed,
        metrics.join(",")
    )
}

fn print_metrics(o: &Output, units: &[(&str, &str)]) {
    for (name, v) in &o.metrics {
        println!("{name} = {v} {}", unit(units, name));
    }
}

/// The metrics emitted must be exactly the declared table, in order.
fn check_names(o: &Output, units: &[(&str, &str)]) -> Result<(), String> {
    let got: Vec<&str> = o.metrics.iter().map(|(n, _)| *n).collect();
    let want: Vec<&str> = units.iter().map(|(n, _)| *n).collect();
    if got != want {
        return Err(format!("metrics {got:?} differ from declared {want:?}"));
    }
    Ok(())
}

/// Names and units declared in `BENCHMARK.json` (when run from the
/// repository root) must match the tables above.
fn check_benchmark_json() -> Result<(), String> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else { return Ok(()) };
    let doc = tg_obs::json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    for (key, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
        let list =
            doc.get(key).and_then(|v| v.as_array()).ok_or(format!("BENCHMARK.json: no {key}"))?;
        let declared: Vec<(String, String)> = list
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
                (s("name"), s("unit"))
            })
            .collect();
        let ours: Vec<(String, String)> =
            table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        if declared != ours {
            return Err(format!("BENCHMARK.json {key} {declared:?} differ from {ours:?}"));
        }
    }
    let workloads =
        doc.get("workloads").and_then(|v| v.as_array()).ok_or("BENCHMARK.json: no workloads")?;
    let names: Vec<&str> = workloads.iter().filter_map(|w| w.get("name")?.as_str()).collect();
    if names != WORKLOADS {
        return Err(format!("BENCHMARK.json workloads {names:?} differ from {WORKLOADS:?}"));
    }
    Ok(())
}

/// One job per workload, untraced and traced; every metric printed with
/// its unit, every oracle passing.
fn smoke(seed: u64) -> i32 {
    let mut errors = Vec::new();
    if let Err(e) = check_benchmark_json() {
        errors.push(e);
    }
    for w in WORKLOADS {
        for (trace, units) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            // two runs of the same job exercise the determinism check
            let limit = Limit { seconds: 0.0, max_jobs: if trace { 1 } else { 2 } };
            match run_workload(w, seed, limit, trace, 1) {
                Ok(o) => {
                    print_metrics(&o, units);
                    println!("{}", result_json(o.failed == 0, &o, units));
                    if let Err(e) = check_names(&o, units) {
                        errors.push(format!("{w} trace={trace}: {e}"));
                    }
                    if o.failed > 0 || o.attempted == 0 {
                        errors.push(format!(
                            "{w} trace={trace}: {} of {} jobs failed",
                            o.failed, o.attempted
                        ));
                    }
                }
                Err(e) => errors.push(format!("{w} trace={trace}: {e}")),
            }
        }
    }
    if errors.is_empty() {
        println!(
            "smoke ok: {} workloads, every metric printed with its unit, every oracle passed",
            WORKLOADS.len()
        );
        0
    } else {
        for e in &errors {
            println!("smoke FAILED: {e}");
        }
        1
    }
}

/// Measure the engine as shipped, whatever the caller's environment
/// sets: every engine knob has a `TG_*` environment override.
fn clear_engine_env() {
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("TG_") {
            std::env::remove_var(k);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() == 5 && args[1] == "--memory-job" {
        clear_engine_env();
        let run = args[3].parse().ok().zip(args[4].parse().ok());
        match run
            .ok_or("bad arguments".to_string())
            .and_then(|(seed, i)| oneshot::memory_job(&args[2], seed, i))
        {
            Ok(mb) => println!("{mb}"),
            Err(e) => {
                eprintln!("tgbench: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let o = parse_args();
    clear_engine_env();
    if o.smoke {
        std::process::exit(smoke(o.seed));
    }
    println!(
        "# tgbench workload={} seed={} seconds={} trace={} host_cores={} rev={}",
        o.workload,
        o.seed,
        o.seconds,
        o.trace as u8,
        host_cores(),
        source_rev()
    );
    let units: &[(&str, &str)] = if o.trace { &PER_LAYER } else { &END_TO_END };
    let limit = Limit { seconds: o.seconds, max_jobs: usize::MAX };
    match run_workload(&o.workload, o.seed, limit, o.trace, SETUP_REPEATS) {
        Ok(out) => {
            let correct = out.failed == 0;
            print_metrics(&out, units);
            println!("{}", result_json(correct, &out, units));
        }
        Err(e) => {
            eprintln!("tgbench: {e}");
            std::process::exit(1);
        }
    }
}
