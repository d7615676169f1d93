//! The traced run: one job re-done step by step through each layer's
//! public entry point, timed from here. No span is added inside the
//! program; the steps mirror what `Session::run` does for a taskgrind
//! job with the as-shipped engine configuration.

use crate::jobs::Job;
use crate::stats::ms;
use grindcore::tool::BlockMeta;
use grindcore::{ExecMode, Tool, Vm};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;
use taskgrind::analysis::{self, SuppressOptions};
use taskgrind::reach::Reachability;
use taskgrind::report;
use taskgrind::suppressions::Suppressions;
use taskgrind::tool::{default_ignore_list, RecordOptions, TaskgrindTool};
use taskgrind::{confirm, TaskgrindConfig};
use tg_engine::EngineConfig;
use vex_ir::IrBlock;

/// Per-layer measurements of one traced job.
#[derive(Clone, Debug, Default)]
pub struct Sample {
    pub build_ms: f64,
    pub text_bytes: f64,
    pub facts_ms: f64,
    pub sites_pruned: f64,
    pub sites_kept: f64,
    /// lift + iropt + instrument + flat compile over every executed
    /// block start.
    pub translate_ms: f64,
    pub translate_blocks: f64,
    pub nul_ms: f64,
    pub nul_instrs: f64,
    pub record_ms: f64,
    pub instrs: f64,
    pub translations: f64,
    pub chain_hits: f64,
    pub probes: f64,
    pub accesses: f64,
    pub segments: f64,
    pub analysis_ms: f64,
    pub unordered: f64,
    pub pairs: f64,
    pub report_ms: f64,
    pub confirm_ms: f64,
    pub replays: f64,
    /// Wall time of the whole traced job, measurement-only steps (the
    /// nulgrind run and the translation replay) included.
    pub traced_ms: f64,
    pub stdout: String,
    pub deadlock: bool,
    pub n_reports: usize,
}

impl Sample {
    /// Time on the job path of one `Session::run`: build, facts, record,
    /// analysis, report and confirm (translation and dispatch are inside
    /// recording).
    pub fn job_path_ms(&self) -> f64 {
        self.build_ms
            + self.facts_ms
            + self.record_ms
            + self.analysis_ms
            + self.report_ms
            + self.confirm_ms
    }

    pub fn add(&mut self, o: &Sample) {
        self.build_ms += o.build_ms;
        self.text_bytes += o.text_bytes;
        self.facts_ms += o.facts_ms;
        self.sites_pruned += o.sites_pruned;
        self.sites_kept += o.sites_kept;
        self.translate_ms += o.translate_ms;
        self.translate_blocks += o.translate_blocks;
        self.nul_ms += o.nul_ms;
        self.nul_instrs += o.nul_instrs;
        self.record_ms += o.record_ms;
        self.instrs += o.instrs;
        self.translations += o.translations;
        self.chain_hits += o.chain_hits;
        self.probes += o.probes;
        self.accesses += o.accesses;
        self.segments += o.segments;
        self.analysis_ms += o.analysis_ms;
        self.unordered += o.unordered;
        self.pairs += o.pairs;
        self.report_ms += o.report_ms;
        self.confirm_ms += o.confirm_ms;
        self.replays += o.replays;
        self.traced_ms += o.traced_ms;
    }
}

/// nulgrind that also logs the start of every block it is asked to
/// instrument (once per translation, as Valgrind's cost model has it).
struct BlockLog(Rc<RefCell<Vec<u64>>>);

impl Tool for BlockLog {
    fn name(&self) -> &'static str {
        "nulgrind"
    }

    fn instrument(&mut self, block: IrBlock, meta: &BlockMeta) -> IrBlock {
        self.0.borrow_mut().push(meta.base);
        block
    }
}

/// The recording options `Session::run` derives for a taskgrind job.
fn record_options(eng: &EngineConfig) -> RecordOptions {
    RecordOptions {
        ignore_list: default_ignore_list(),
        replace_allocator: true,
        static_filter: eng.static_filter,
        static_concurrency: eng.static_concurrency,
        bulk_ingest: eng.bulk,
        ..Default::default()
    }
}

/// Run `job` layer by layer.
pub fn trace_job(job: &Job) -> Result<Sample, String> {
    let eng = EngineConfig::default();
    let args = job.guest_args();
    let vm = job.vm_config(&eng);
    let mut s = Sample::default();
    let all = Instant::now();

    // minicc (+ the embedded guest runtime)
    let file = minicc::SourceFile::new(job.file.clone(), job.source.to_string());
    let t = Instant::now();
    let module =
        guest_rt::build_program(std::slice::from_ref(&file)).map_err(|e| format!("build: {e}"))?;
    s.build_ms = ms(t);
    s.text_bytes = module.code.len() as f64 * tga::INST_SIZE as f64;

    // tga-analysis
    let t = Instant::now();
    let opts = tga_analysis::AnalyzeOpts { concurrency: eng.static_concurrency };
    let facts = Arc::new(tga_analysis::analyze_with(&module, &opts));
    s.facts_ms = ms(t);
    let mut record = record_options(&eng);
    if record.static_filter {
        record.static_facts = Some(facts);
    }

    // grindcore alone: dispatch + execute under nulgrind
    let starts = Rc::new(RefCell::new(Vec::new()));
    let t = Instant::now();
    let nul = Vm::new(module.clone(), Box::new(BlockLog(starts.clone())), vm.clone())
        .run(ExecMode::Dbi, &args);
    s.nul_ms = ms(t);
    s.nul_instrs = nul.metrics.instrs as f64;

    // grindcore translation of every executed block start, instrumented
    // by taskgrind as the recording VM does it
    let starts = starts.borrow().clone();
    let mut tool = TaskgrindTool::new(record.clone());
    let t = Instant::now();
    for &pc in &starts {
        let block = grindcore::lift::lift_superblock(&module, pc)
            .map_err(|e| format!("lift {pc:#x}: {e}"))?;
        let block = if vm.optimize_ir { grindcore::opt::optimize(block) } else { block };
        let meta = BlockMeta { base: pc, fn_symbol: module.find_func(pc).map(|f| f.name.clone()) };
        let block = tool.instrument(block, &meta);
        std::hint::black_box(grindcore::flat::compile(&block));
    }
    s.translate_ms = ms(t);
    s.translate_blocks = starts.len() as f64;
    drop(tool);

    // taskgrind recording
    let tool = TaskgrindTool::new(record.clone());
    let state = tool.state();
    let mut rvm = Vm::new(module.clone(), Box::new(tool), vm.clone());
    let t = Instant::now();
    let run = rvm.run(ExecMode::Dbi, &args);
    s.record_ms = ms(t);
    drop(rvm);
    s.instrs = run.metrics.instrs as f64;
    s.translations = run.metrics.translations as f64;
    s.chain_hits = run.metrics.dispatch.chain_hits as f64;
    s.probes = run.metrics.dispatch.probes as f64;
    s.stdout = run.stdout_str();
    s.deadlock = run.deadlock;
    if let Some(e) = &run.error {
        return Err(format!("guest fault: {e}"));
    }
    let mut rec =
        Rc::try_unwrap(state).map_err(|_| "recording state still shared".to_string())?.into_inner();
    s.accesses = rec.accesses_recorded as f64;
    s.sites_pruned = rec.sites_pruned as f64;
    s.sites_kept = rec.sites_instrumented as f64;
    rec.blocks.sort_by_key(|b| b.base);
    let module_arc = rec.module.take().unwrap_or_else(|| Arc::new(module.clone()));

    // taskgrind analysis: finalize, reachability, sweep
    let suppress = SuppressOptions { static_proof: eng.static_concurrency, ..Default::default() };
    let t = Instant::now();
    let builder = std::mem::take(&mut rec.builder);
    let (graph, _) = builder.finalize_with_stats();
    let reach = Reachability::compute(&graph);
    let out = analysis::run_sweep(&graph, &reach, &suppress, 0);
    s.analysis_ms = ms(t);
    s.segments = graph.n_nodes() as f64;
    s.unordered = out.unordered_pairs as f64;
    s.pairs = out.pairs_checked as f64;

    // taskgrind report
    let t = Instant::now();
    let reports =
        report::summarize(&graph, &module_arc, &rec.blocks, &out.candidates, &record.ignore_list);
    let (mut reports, _) = Suppressions::default().apply(reports);
    let text: Vec<String> = reports.iter().map(report::render_taskgrind).collect();
    std::hint::black_box(text.join("\n"));
    s.report_ms = ms(t);
    s.n_reports = reports.len();

    // confirmation replay
    if job.confirm {
        let cfg = TaskgrindConfig { vm, record, suppress, confirm: true, ..Default::default() };
        let t = Instant::now();
        let (verdicts, stats) =
            confirm::confirm_candidates(&module, &args, &cfg, &graph, &out.candidates);
        report::attach_verdicts(
            &mut reports,
            &graph,
            &module_arc,
            &rec.blocks,
            &out.candidates,
            &verdicts,
        );
        s.confirm_ms = ms(t);
        s.replays = stats.replays as f64;
    }
    s.traced_ms = ms(all);
    Ok(s)
}
