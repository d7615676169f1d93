//! Command-line options for `tgrind`.
//!
//! This module only *parses*; resolution (precedence **explicit flag >
//! environment variable > default**) lives in
//! [`tg_engine::config::EngineConfig::resolve`], which consumes the
//! [`ConfigOverrides`] the parser fills in place ([`Opts::engine`]).
//! The engine's knob declaration [`FLAGS`] and table renderer are
//! re-exported here so the README rot-proofing test keeps its import
//! path.

pub use tg_engine::config::{render_flag_table, ConfigOverrides, EngineConfig, FlagSpec, FLAGS};

/// Parsed command-line options (see `tgrind --help`).
pub struct Opts {
    pub lint: bool,
    pub warm: bool,
    /// `tgrind serve`: run the persistent analysis daemon.
    pub serve: bool,
    /// `tgrind submit`: send one job to a running daemon.
    pub submit: bool,
    /// `--socket=PATH` for serve/submit.
    pub socket: Option<String>,
    /// `--serve-workers=N` concurrent analysis workers (serve).
    pub serve_workers: usize,
    /// `--serve-queue=N` bounded admission-queue capacity (serve).
    pub serve_queue: usize,
    pub tool: String,
    pub threads: u64,
    pub seed: u64,
    pub random: bool,
    pub no_ignore: bool,
    pub keep_free: bool,
    pub lint_json: Option<String>,
    pub cache_blocks: Option<usize>,
    pub no_suppress: bool,
    pub analysis_threads: usize,
    /// `--confirm-races`: replay surviving candidates under adversarial
    /// schedules and annotate reports with confirmed/unconfirmed verdicts.
    pub confirm_races: bool,
    /// `--confirm-budget=N` replay attempts per candidate pair.
    pub confirm_budget: usize,
    pub suppressions: Option<String>,
    pub dot: Option<String>,
    pub disasm: bool,
    pub program: String,
    pub guest_args: Vec<String>,
    /// The engine knobs, parsed straight into the override set
    /// [`EngineConfig::resolve`] consumes.
    pub engine: ConfigOverrides,
}

/// Flags the one-shot CLI accepts but `tgrind submit` cannot forward to
/// a daemon: tracing/metrics destinations and `fuse` are daemon-global
/// (the serve whitelist rejects them per-job), and suppression/DOT
/// output are client-side file surfaces. Returns the offending flag
/// names so `submit` can reject the invocation with a structured
/// `bad_request` echo instead of silently changing run semantics.
pub fn unforwardable_flags(o: &Opts, eng: &EngineConfig) -> Vec<&'static str> {
    let mut bad = Vec::new();
    for (flag, set) in [
        ("--trace-out", eng.trace_out.is_some()),
        ("--metrics-json", eng.metrics_json.is_some()),
        ("--no-fuse", !eng.fuse),
        ("--suppressions", o.suppressions.is_some()),
        ("--dot", o.dot.is_some()),
    ] {
        if set {
            bad.push(flag);
        }
    }
    bad
}

/// Parse a numeric flag value.
fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad value `{v}` for {flag}"))
}

/// Parse a `--*-threads=N` flag value and resolve the 0=auto
/// convention.
fn thread_count(flag: &str, v: &str) -> Result<usize, String> {
    Ok(taskgrind::analysis::resolve_threads(num(flag, v)?))
}

/// Print the usage banner and exit with status 2.
pub fn usage() -> ! {
    eprintln!("usage: tgrind [--tool=taskgrind|archer|tasksan|romp|none] [--threads=N] [--seed=N]");
    eprintln!(
        "              [--random-sched] [--no-ignore-list] [--keep-free] [--no-static-filter]"
    );
    eprintln!("              [--no-static-concurrency]");
    eprintln!("              [--no-chaining] [--cache-blocks=N] [--no-suppress]");
    eprintln!("              [--analysis-threads=N] [--compile-threads=N]");
    eprintln!("              [--no-bulk] [--no-fuse]");
    eprintln!("              [--confirm-races] [--confirm-budget=N]");
    eprintln!("              [--code-cache=DIR] [--no-code-cache]");
    eprintln!("              [--trace-out=FILE] [--metrics-json=FILE] [--self-profile]");
    eprintln!("              [--dot=FILE] [--disasm]");
    eprintln!("              <program.c> [-- args...]");
    eprintln!("       tgrind lint [--lint-json=FILE] <program.c>");
    eprintln!("       tgrind warm --code-cache=DIR <program.c>   (precompile the whole CFG)");
    eprintln!("       tgrind serve --socket=PATH [--serve-workers=N] [--serve-queue=N]");
    eprintln!("                    (persistent analysis daemon; line-delimited JSON protocol)");
    eprintln!("       tgrind submit --socket=PATH [run options] <program.c> [-- args...]");
    eprintln!("       env: TG_NO_BULK, TG_NO_FUSE, TG_COMPILE_THREADS, TG_CODE_CACHE,");
    eprintln!("            TG_TRACE_OUT, TG_METRICS_JSON, TG_SELF_PROFILE");
    eprintln!("            (flags win over env)");
    std::process::exit(2)
}

/// Parse the process arguments (without the program name); on a usage
/// error print it with the banner and exit with status 2.
pub fn parse_args(args: impl Iterator<Item = String>) -> Opts {
    try_parse_args(args).unwrap_or_else(|e| {
        if !e.is_empty() {
            eprintln!("{e}");
        }
        usage()
    })
}

/// Parse the process arguments (without the program name). `Err`
/// carries the usage error (possibly empty when only the banner
/// applies).
pub fn try_parse_args(args: impl Iterator<Item = String>) -> Result<Opts, String> {
    let mut o = Opts {
        lint: false,
        warm: false,
        serve: false,
        submit: false,
        socket: None,
        serve_workers: 2,
        serve_queue: 8,
        tool: "taskgrind".into(),
        threads: 1,
        seed: 42,
        random: false,
        no_ignore: false,
        keep_free: false,
        lint_json: None,
        cache_blocks: None,
        no_suppress: false,
        analysis_threads: 0,
        confirm_races: false,
        confirm_budget: 16,
        suppressions: None,
        dot: None,
        disasm: false,
        program: String::new(),
        guest_args: Vec::new(),
        engine: ConfigOverrides::default(),
    };
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        let e = &mut o.engine;
        if a == "--" {
            o.guest_args.extend(args.by_ref());
            break;
        } else if let Some(v) = a.strip_prefix("--tool=") {
            o.tool = v.to_string();
        } else if let Some(v) = a.strip_prefix("--threads=") {
            o.threads = num("--threads", v)?;
        } else if let Some(v) = a.strip_prefix("--seed=") {
            o.seed = num("--seed", v)?;
        } else if a == "--random-sched" {
            o.random = true;
        } else if a == "--no-ignore-list" {
            o.no_ignore = true;
        } else if a == "--keep-free" {
            o.keep_free = true;
        } else if a == "--no-static-filter" {
            e.no_static_filter = true;
        } else if a == "--no-static-concurrency" {
            e.no_static_concurrency = true;
        } else if let Some(v) = a.strip_prefix("--lint-json=") {
            o.lint_json = Some(v.to_string());
        } else if a == "--no-chaining" {
            e.no_chaining = true;
        } else if let Some(v) = a.strip_prefix("--cache-blocks=") {
            o.cache_blocks = Some(num("--cache-blocks", v)?);
        } else if a == "--no-suppress" {
            o.no_suppress = true;
        } else if let Some(v) =
            a.strip_prefix("--analysis-threads=").or_else(|| a.strip_prefix("--parallel-analysis="))
        {
            o.analysis_threads = thread_count("--analysis-threads", v)?;
        } else if let Some(v) = a.strip_prefix("--compile-threads=") {
            e.compile_threads = Some(thread_count("--compile-threads", v)?);
        } else if a == "--no-bulk" {
            e.no_bulk = true;
        } else if a == "--no-fuse" {
            e.no_fuse = true;
        } else if a == "--confirm-races" {
            o.confirm_races = true;
        } else if let Some(v) = a.strip_prefix("--confirm-budget=") {
            o.confirm_budget = num("--confirm-budget", v)?;
        } else if let Some(v) = a.strip_prefix("--code-cache=") {
            e.code_cache = Some(v.to_string());
        } else if a == "--no-code-cache" {
            e.no_code_cache = true;
        } else if let Some(v) = a.strip_prefix("--suppressions=") {
            o.suppressions = Some(v.to_string());
        } else if let Some(v) = a.strip_prefix("--trace-out=") {
            e.trace_out = Some(v.to_string());
        } else if let Some(v) = a.strip_prefix("--metrics-json=") {
            e.metrics_json = Some(v.to_string());
        } else if a == "--self-profile" {
            e.self_profile = true;
        } else if let Some(v) = a.strip_prefix("--socket=") {
            o.socket = Some(v.to_string());
        } else if let Some(v) = a.strip_prefix("--serve-workers=") {
            o.serve_workers = num("--serve-workers", v)?;
        } else if let Some(v) = a.strip_prefix("--serve-queue=") {
            o.serve_queue = num("--serve-queue", v)?;
        } else if let Some(v) = a.strip_prefix("--dot=") {
            o.dot = Some(v.to_string());
        } else if a == "--disasm" {
            o.disasm = true;
        } else if a.starts_with("--") {
            return Err(format!("unknown option {a}"));
        } else if a == "lint" && !o.lint && !o.warm && !o.serve && !o.submit && o.program.is_empty()
        {
            o.lint = true;
        } else if a == "warm" && !o.warm && !o.lint && !o.serve && !o.submit && o.program.is_empty()
        {
            o.warm = true;
        } else if a == "serve"
            && !o.warm
            && !o.lint
            && !o.serve
            && !o.submit
            && o.program.is_empty()
        {
            o.serve = true;
        } else if a == "submit"
            && !o.warm
            && !o.lint
            && !o.serve
            && !o.submit
            && o.program.is_empty()
        {
            o.submit = true;
        } else if o.program.is_empty() {
            o.program = a;
        } else {
            return Err(String::new());
        }
    }
    if o.program.is_empty() && !o.serve {
        return Err(String::new());
    }
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Opts {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    fn resolve(args: &[&str]) -> EngineConfig {
        EngineConfig::resolve(&opts(args).engine)
    }

    #[test]
    fn declared_flags_match_engine_config_knobs() {
        let eng = resolve(&["p.c"]);
        let declared: Vec<&str> = FLAGS.iter().map(|f| f.knob).collect();
        let described: Vec<&str> = eng.describe().iter().map(|(k, _)| *k).collect();
        assert_eq!(
            declared, described,
            "FLAGS and EngineConfig::describe must list the same knobs in the same order"
        );
    }

    #[test]
    fn observability_flags_parse_and_resolve() {
        let eng = resolve(&[
            "--trace-out=/tmp/t.json",
            "--metrics-json=/tmp/m.json",
            "--self-profile",
            "p.c",
        ]);
        assert_eq!(eng.trace_out.as_deref(), Some("/tmp/t.json"));
        assert_eq!(eng.metrics_json.as_deref(), Some("/tmp/m.json"));
        assert!(eng.self_profile);
        let eng = resolve(&["p.c"]);
        assert!(eng.trace_out.is_none() || std::env::var_os("TG_TRACE_OUT").is_some());
        assert!(!eng.self_profile || std::env::var_os("TG_SELF_PROFILE").is_some());
    }

    #[test]
    fn code_cache_flags_parse_and_resolve() {
        let eng = resolve(&["--code-cache=/tmp/tgc", "p.c"]);
        assert_eq!(eng.code_cache.as_deref(), Some("/tmp/tgc"));
        // --no-code-cache wins over the directory flag and the env var.
        let eng = resolve(&["--code-cache=/tmp/tgc", "--no-code-cache", "p.c"]);
        assert!(eng.code_cache.is_none());
        let o = opts(&["warm", "p.c"]);
        assert!(o.warm);
        assert_eq!(o.program, "p.c");
    }

    #[test]
    fn serve_flags_parse() {
        let o = opts(&["serve", "--socket=/tmp/tg.sock", "--serve-workers=4", "--serve-queue=2"]);
        assert!(o.serve);
        assert_eq!(o.socket.as_deref(), Some("/tmp/tg.sock"));
        assert_eq!(o.serve_workers, 4);
        assert_eq!(o.serve_queue, 2);
        assert!(o.program.is_empty(), "serve needs no program argument");
        let o = opts(&["submit", "--socket=/tmp/tg.sock", "--threads=2", "p.c"]);
        assert!(o.submit);
        assert_eq!(o.program, "p.c");
        assert_eq!(o.threads, 2);
    }

    #[test]
    fn fingerprint_tracks_translation_knobs_only() {
        let base = resolve(&["p.c"]);
        let fp = base.translation_fingerprint(&[]);
        let nofuse = resolve(&["--no-fuse", "p.c"]);
        assert_ne!(fp, nofuse.translation_fingerprint(&[]), "fuse must be keyed");
        let noconc = resolve(&["--no-static-concurrency", "p.c"]);
        assert_ne!(fp, noconc.translation_fingerprint(&[]), "static_concurrency must be keyed");
        let nobulk = resolve(&["--no-bulk", "p.c"]);
        assert_eq!(
            fp,
            nobulk.translation_fingerprint(&[]),
            "recording-side knobs must not invalidate cached code"
        );
        let pooled = resolve(&["--compile-threads=4", "p.c"]);
        assert_eq!(
            fp,
            pooled.translation_fingerprint(&[]),
            "warm worker count must not invalidate cached code (output is identical)"
        );
        assert_ne!(fp, base.translation_fingerprint(&["tool=archer".into()]));
        assert_ne!(
            base.translation_fingerprint(&["ab".into()]),
            base.translation_fingerprint(&["a".into(), "b".into()]),
            "extra parts must be delimited"
        );
    }

    #[test]
    fn compile_threads_parse_and_resolve() {
        // Flag absent: 0 (one warm worker), regardless of core count.
        let eng = resolve(&["p.c"]);
        assert!(
            eng.compile_threads == 0 || std::env::var_os("TG_COMPILE_THREADS").is_some(),
            "no flag, no env: no extra warm workers"
        );
        // Explicit count passes through.
        let eng = resolve(&["--compile-threads=4", "p.c"]);
        assert_eq!(eng.compile_threads, 4);
        // Explicit 0 means auto: one worker per available core.
        let eng = resolve(&["--compile-threads=0", "p.c"]);
        let auto = taskgrind::analysis::resolve_threads(0);
        assert_eq!(eng.compile_threads, auto);
        assert!(eng.compile_threads >= 1);
        // The shared helper backs --analysis-threads too.
        let o = opts(&["--analysis-threads=0", "p.c"]);
        assert_eq!(o.analysis_threads, auto);
        let o = opts(&["--analysis-threads=3", "p.c"]);
        assert_eq!(o.analysis_threads, 3);
    }

    #[test]
    fn malformed_and_removed_flags_are_usage_errors() {
        let parse = |args: &[&str]| try_parse_args(args.iter().map(|s| s.to_string()));
        for bad in [
            &["--threads=x", "p.c"][..],
            &["--compile-threads=-1", "p.c"],
            &["--bogus", "p.c"],
            &["p.c", "q.c"],
            &[],
            // knobs of analysis engines that no longer exist
            &["--streaming", "p.c"],
            &["--no-streaming", "p.c"],
            &["--no-sweep", "p.c"],
            &["--max-live-segments=4", "p.c"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be a usage error");
        }
        assert!(parse(&["--no-bulk", "p.c"]).is_ok());
    }

    #[test]
    fn confirm_flags_parse() {
        let o = opts(&["p.c"]);
        assert!(!o.confirm_races, "confirmation replay is opt-in");
        assert_eq!(o.confirm_budget, 16);
        let o = opts(&["--confirm-races", "--confirm-budget=3", "p.c"]);
        assert!(o.confirm_races);
        assert_eq!(o.confirm_budget, 3);
    }

    #[test]
    fn unforwardable_submit_flags_are_detected() {
        let o = opts(&["submit", "--socket=/tmp/s", "p.c"]);
        let eng = EngineConfig::resolve(&o.engine);
        assert!(unforwardable_flags(&o, &eng).is_empty());
        let o = opts(&["submit", "--socket=/tmp/s", "--dot=g.dot", "--no-fuse", "p.c"]);
        let eng = EngineConfig::resolve(&o.engine);
        let bad = unforwardable_flags(&o, &eng);
        assert!(bad.contains(&"--dot") && bad.contains(&"--no-fuse"), "{bad:?}");
        // Confirmation flags, by contrast, forward fine.
        let o = opts(&["submit", "--socket=/tmp/s", "--confirm-races", "p.c"]);
        let eng = EngineConfig::resolve(&o.engine);
        assert!(unforwardable_flags(&o, &eng).is_empty());
    }

    #[test]
    fn flag_table_renders_every_declared_knob() {
        let table = render_flag_table();
        for f in FLAGS {
            assert!(table.contains(f.knob), "table missing knob {}", f.knob);
            assert!(table.contains(f.flag), "table missing flag {}", f.flag);
        }
    }
}
