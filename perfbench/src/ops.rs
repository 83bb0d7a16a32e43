//! The five workloads and the one operation each repeats.
//!
//! Every operation builds a fresh runtime (`Runtime::run` runs once per
//! runtime), times the calls into each layer's public functions, and checks
//! the result. Checks never panic: a failed check marks the operation
//! failed and says why.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use consequence::{ConsequenceRuntime, Options};
use dmt_api::{
    Breakdown, CommonConfig, CostModel, Counters, Fnv1a, PerturbHandle, RunReport, Runtime,
    RuntimeMemExt, TraceHandle, TraceSink, WitnessHandle,
};
use dmt_baselines::{make_runtime, RuntimeKind};
use dmt_trace::{DiskSink, Trace, TraceMeta};
use dmt_workloads::server::ServerSpec;
use dmt_workloads::{workload_by_name, Params, Workload};

use crate::stamp::{token_times, StampSink, TokenTimes};
use crate::stats::thread_cpu_ns;

/// Thread-table size every runtime is built with.
const MAX_THREADS: usize = 64;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `dmt_server`, untraced: token handoff.
    KvServe,
    /// `lu_ncb`, untraced: byte merging in the parallel barrier commit.
    LuMerge,
    /// `water_nsquared`, untraced: coarsened locking, settle-pool merges.
    WaterNsq,
    /// `dmt_server` recorded to disk and reopened: the trace write path.
    KvRecord,
    /// A `dmt_server` recording replayed: the trace read path.
    KvReplay,
}

impl Kind {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 5] = [
        Kind::KvServe,
        Kind::LuMerge,
        Kind::WaterNsq,
        Kind::KvRecord,
        Kind::KvReplay,
    ];

    /// The workload's benchmark name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::KvServe => "kv_serve",
            Kind::LuMerge => "lu_merge",
            Kind::WaterNsq => "water_nsq",
            Kind::KvRecord => "kv_record",
            Kind::KvReplay => "kv_replay",
        }
    }

    /// The registry program the workload runs.
    fn program(self) -> &'static str {
        match self {
            Kind::LuMerge => "lu_ncb",
            Kind::WaterNsq => "water_nsquared",
            Kind::KvServe | Kind::KvRecord | Kind::KvReplay => "dmt_server",
        }
    }

    fn is_server(self) -> bool {
        self.program() == "dmt_server"
    }
}

/// Which runtime the plain workloads run under. Only the default,
/// Consequence-IC with every optimization, is the benchmark; the others
/// give the README's reference figures.
#[derive(Clone, Debug)]
pub enum Variant {
    /// Consequence with the given options.
    Consequence(Options),
    /// A baseline runtime (pthreads or DThreads).
    Baseline(RuntimeKind),
}

/// A fault planted on purpose, to show that a check bites.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inject {
    /// Flip one bit of one word of the expected `dmt_server` store.
    StoreWord,
    /// Flip one byte in the middle of every recorded container.
    ContainerByte,
}

/// Named layer spans of one operation, in nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Spans {
    /// `Workload::prepare`.
    pub prepare: u64,
    /// `Prepared::validate`.
    pub validate: u64,
    /// `ConsequenceRuntime::new` / `new_replaying` (or a baseline's `new`).
    pub new: u64,
    /// `Runtime::run`.
    pub run: u64,
    /// `DiskSink::create_durable`.
    pub create: u64,
    /// `DiskSink::finish`.
    pub finish: u64,
    /// `Trace::open`.
    pub open: u64,
    /// `ReplayMonitor::finish`.
    pub check: u64,
}

impl Spans {
    /// Every span with its layer name, in call order; zero where the
    /// workload does not call the function.
    pub fn named(&self) -> [(&'static str, u64); 8] {
        [
            ("dmt-trace.create", self.create),
            ("consequence.new", self.new),
            ("dmt-workloads.prepare", self.prepare),
            ("consequence.run", self.run),
            ("dmt-workloads.validate", self.validate),
            ("dmt-trace.finish", self.finish),
            ("dmt-trace.open", self.open),
            ("consequence.replay_check", self.check),
        ]
    }
}

/// What one operation measured.
#[derive(Clone, Debug, Default)]
pub struct OpResult {
    /// Why the operation failed its checks; empty when it passed.
    pub failures: Vec<String>,
    /// Set-up outside the timed span, runtime construction + prepare, as
    /// CPU time of the calling thread.
    pub setup_cpu_ns: u64,
    /// The timed span.
    pub wall_ns: u64,
    /// Layer spans.
    pub spans: Spans,
    /// Runtime counters.
    pub counters: Counters,
    /// Virtual-time breakdown.
    pub breakdown: Breakdown,
    /// `RunReport::virtual_cycles`.
    pub virtual_cycles: u64,
    /// `RunReport::peak_pages`.
    pub peak_pages: usize,
    /// The container written (`kv_record`) or replayed (`kv_replay`):
    /// schedule events, bytes on disk, durable flushes while recording.
    pub container: Option<(u64, u64, u64)>,
    /// Traced run: token and barrier timings.
    pub token: Option<TokenTimes>,
}

impl OpResult {
    fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(why());
        }
    }

    fn take_report(&mut self, r: &RunReport) {
        self.counters = r.counters;
        self.breakdown = r.breakdown;
        self.virtual_cycles = r.virtual_cycles;
        self.peak_pages = r.peak_pages;
        self.check(r.fault.is_none(), || format!("run fault: {:?}", r.fault));
        self.check(r.panics.is_empty(), || format!("panics: {:?}", r.panics));
        self.check(!r.degraded, || "run degraded".to_string());
    }
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Digests every op must reproduce, taken from the first op.
#[derive(Clone, Copy, Debug, Default)]
struct Reference {
    commit_log: Option<u64>,
    container: Option<u64>,
}

/// One workload, ready to run operations.
pub struct Bench {
    kind: Kind,
    program: Box<dyn Workload>,
    params: Params,
    variant: Variant,
    traced: bool,
    inject: Option<Inject>,
    /// `dmt_server`: the sequential fold of the request stream
    /// (`ServerSpec::expected_store`), which `--inject store-word` corrupts.
    expected_store: Vec<u64>,
    /// Where containers are written.
    dir: PathBuf,
    /// `kv_replay`: the recording every op replays.
    replay_src: Option<PathBuf>,
    reference: Reference,
}

impl Bench {
    /// Prepares `kind` with the given inputs. `kv_replay` records its
    /// source run here, outside the timed loop.
    pub fn new(
        kind: Kind,
        params: Params,
        variant: Variant,
        traced: bool,
        inject: Option<Inject>,
        dir: PathBuf,
    ) -> Result<Bench, String> {
        let program =
            workload_by_name(kind.program()).ok_or_else(|| format!("no {}", kind.program()))?;
        if !matches!(variant, Variant::Consequence(_))
            && matches!(kind, Kind::KvRecord | Kind::KvReplay)
        {
            return Err(format!("{} needs a Consequence runtime", kind.name()));
        }
        let mut expected_store = if kind.is_server() {
            ServerSpec::of(&params).expected_store()
        } else {
            Vec::new()
        };
        if inject == Some(Inject::StoreWord) {
            match expected_store.first_mut() {
                Some(w) => *w ^= 1,
                None => return Err("store-word applies to the dmt_server workloads".into()),
            }
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let mut b = Bench {
            kind,
            program,
            params,
            variant,
            traced,
            inject,
            expected_store,
            dir,
            replay_src: None,
            reference: Reference::default(),
        };
        if kind == Kind::KvReplay {
            let src = b.dir.join("replay-source.dmtrace");
            let r = b.record(&src, false);
            if !r.failures.is_empty() {
                return Err(format!("recording the replay source: {:?}", r.failures));
            }
            if inject == Some(Inject::ContainerByte) {
                flip_middle_byte(&src)?;
            }
            b.replay_src = Some(src);
        }
        Ok(b)
    }

    /// Runs one operation and checks it.
    pub fn op(&mut self) -> OpResult {
        match self.kind {
            Kind::KvServe | Kind::LuMerge | Kind::WaterNsq => self.plain(),
            Kind::KvRecord => {
                let path = self.dir.join("record.dmtrace");
                let mut r = self.record(&path, self.traced);
                if r.failures.is_empty() {
                    self.same_container(&path, &mut r);
                }
                r
            }
            Kind::KvReplay => self.replay(),
        }
    }

    fn config(&self, trace: TraceHandle) -> CommonConfig {
        CommonConfig {
            heap_pages: self.program.heap_pages(&self.params),
            max_threads: MAX_THREADS,
            cost: CostModel::default(),
            track_lrc: false,
            gc_budget: 4,
            trace,
            perturb: PerturbHandle::off(),
            witness: WitnessHandle::off(),
        }
    }

    fn options(&self) -> Options {
        match &self.variant {
            Variant::Consequence(o) => o.clone(),
            Variant::Baseline(_) => Options::consequence_ic(),
        }
    }

    /// `kv_serve`, `lu_merge`, `water_nsq`: construct, prepare, run,
    /// validate.
    fn plain(&mut self) -> OpResult {
        let mut r = OpResult::default();
        let sink = self
            .traced
            .then(|| Arc::new(StampSink::new(None, MAX_THREADS)));
        let handle = sink
            .as_ref()
            .map_or_else(TraceHandle::off, |s| TraceHandle::to(Arc::clone(s) as _));
        let cfg = self.config(handle);
        let opts = self.options();
        let cpu = thread_cpu_ns();
        let t = Instant::now();
        let mut rt: Box<dyn Runtime> = match self.variant {
            Variant::Consequence(_) => Box::new(ConsequenceRuntime::new(cfg, opts)),
            Variant::Baseline(k) => make_runtime(k, cfg),
        };
        r.spans.new = ns(t);
        let t = Instant::now();
        let prepared = self.program.prepare(rt.as_mut(), &self.params);
        r.spans.prepare = ns(t);
        r.setup_cpu_ns = thread_cpu_ns() - cpu;
        let t = Instant::now();
        let report = rt.run(prepared.job);
        r.spans.run = ns(t);
        let t = Instant::now();
        let v = (prepared.validate)(rt.as_ref());
        r.spans.validate = ns(t);
        r.wall_ns = r.spans.run;
        r.take_report(&report);
        r.check(v.matches_reference, || {
            "output differs from the sequential reference".into()
        });
        self.check_store(rt.as_ref(), &mut r);
        if rt.is_deterministic() {
            self.same_commit_log(report.commit_log_hash, &mut r);
        }
        if let Some(s) = sink {
            r.token = Some(token_times(&s.take()));
        }
        r
    }

    /// One `dmt_server` run recorded to `path`: create_durable, construct,
    /// prepare, run, validate, finish, open. The timed span is
    /// create_durable → Trace::open less set-up and validation.
    fn record(&mut self, path: &Path, traced: bool) -> OpResult {
        let mut r = OpResult::default();
        let opts = self.options();
        let ident = self.ident(&opts);
        let t = Instant::now();
        let disk = match DiskSink::create_durable(path, &ident, opts.trace_flush_pages) {
            Ok(d) => Arc::new(d),
            Err(e) => {
                r.failures.push(format!("create {}: {e}", path.display()));
                return r;
            }
        };
        r.spans.create = ns(t);
        let sink =
            traced.then(|| Arc::new(StampSink::new(Some(Arc::clone(&disk) as _), MAX_THREADS)));
        let handle = match &sink {
            Some(s) => TraceHandle::to(Arc::clone(s) as _),
            None => TraceHandle::to(Arc::clone(&disk) as _),
        };
        let cfg = self.config(handle);
        let cpu = thread_cpu_ns();
        let t = Instant::now();
        let mut rt = ConsequenceRuntime::new(cfg, opts);
        r.spans.new = ns(t);
        let t = Instant::now();
        let prepared = self.program.prepare(&mut rt, &self.params);
        r.spans.prepare = ns(t);
        r.setup_cpu_ns = thread_cpu_ns() - cpu;
        let t = Instant::now();
        let report = rt.run(prepared.job);
        r.spans.run = ns(t);
        let t = Instant::now();
        let v = (prepared.validate)(&rt);
        r.spans.validate = ns(t);
        r.take_report(&report);
        r.check(v.matches_reference, || {
            "output differs from the sequential reference".into()
        });
        self.check_store(&rt, &mut r);
        self.same_commit_log(report.commit_log_hash, &mut r);
        let t = Instant::now();
        let sealed = disk.finish(TraceMeta {
            commit_log_hash: report.commit_log_hash,
            output_hash: v.output_hash,
            ..ident
        });
        r.spans.finish = ns(t);
        let flushes = disk.durable_flushes();
        let meta = match sealed {
            Ok(m) => m,
            Err(e) => {
                r.failures.push(format!("finish: {e}"));
                return r;
            }
        };
        if self.inject == Some(Inject::ContainerByte) && self.kind == Kind::KvRecord {
            if let Err(e) = flip_middle_byte(path) {
                r.failures.push(e);
            }
        }
        let t = Instant::now();
        let opened = Trace::open(path);
        r.spans.open = ns(t);
        r.wall_ns = r.spans.create + r.spans.run + r.spans.finish + r.spans.open;
        match opened {
            Ok(tr) => {
                r.check(tr.meta == meta, || "reopened META differs".into());
                r.check(tr.meta.schedule_hash == report.schedule_hash, || {
                    "container schedule hash differs from the run's".into()
                });
            }
            Err(e) => r.failures.push(format!("reopen: {e}")),
        }
        let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
        r.container = Some((meta.event_count, bytes, flushes));
        if let Some(s) = sink {
            r.token = Some(token_times(&s.take()));
        }
        r
    }

    /// One replay of the source recording: open, new_replaying, prepare,
    /// run, validate, ReplayMonitor::finish. The timed span is
    /// Trace::open → ReplayMonitor::finish less set-up and validation.
    fn replay(&mut self) -> OpResult {
        let mut r = OpResult::default();
        let Some(path) = self.replay_src.clone() else {
            r.failures.push("no replay source".into());
            return r;
        };
        let t = Instant::now();
        let opened = Trace::open(&path);
        r.spans.open = ns(t);
        let trace = match opened {
            Ok(tr) => tr,
            Err(e) => {
                r.failures.push(format!("open {}: {e}", path.display()));
                return r;
            }
        };
        let cpu = thread_cpu_ns();
        let t = Instant::now();
        let (mut rt, monitor) = match ConsequenceRuntime::new_replaying(&trace) {
            Ok(x) => x,
            Err(e) => {
                r.failures.push(format!("new_replaying: {e}"));
                return r;
            }
        };
        r.spans.new = ns(t);
        let t = Instant::now();
        let prepared = self.program.prepare(&mut rt, &self.params);
        r.spans.prepare = ns(t);
        r.setup_cpu_ns = thread_cpu_ns() - cpu;
        let t = Instant::now();
        let mut report = rt.run(prepared.job);
        r.spans.run = ns(t);
        let t = Instant::now();
        let v = (prepared.validate)(&rt);
        r.spans.validate = ns(t);
        let t = Instant::now();
        let outcome = monitor.finish(&mut report);
        r.spans.check = ns(t);
        r.wall_ns = r.spans.open + r.spans.run + r.spans.check;
        r.take_report(&report);
        r.check(v.matches_reference, || {
            "output differs from the sequential reference".into()
        });
        self.check_store(&rt, &mut r);
        r.check(outcome.matches(), || {
            format!(
                "replay diverged: events {}/{}, hash {:#x}/{:#x}, checkpoints {}/{}, {:?}",
                outcome.replayed_events,
                outcome.recorded_events,
                outcome.replayed_hash,
                outcome.recorded_hash,
                outcome.checkpoints_passed,
                outcome.checkpoints_total,
                outcome.divergence
            )
        });
        r.check(v.output_hash == trace.meta.output_hash, || {
            "replayed output hash differs from the recording".into()
        });
        r.check(report.commit_log_hash == trace.meta.commit_log_hash, || {
            "replayed commit-log hash differs from the recording".into()
        });
        let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        r.container = Some((trace.meta.event_count, bytes, 0));
        r
    }

    /// The write-ahead identity of a `dmt_server` recording.
    fn ident(&self, opts: &Options) -> TraceMeta {
        let p = &self.params;
        TraceMeta {
            runtime: "consequence-ic".to_string(),
            workload: self.kind.program().to_string(),
            threads: p.threads as u64,
            scale: u64::from(p.scale),
            input_seed: p.seed,
            heap_pages: self.program.heap_pages(p) as u64,
            max_threads: MAX_THREADS as u64,
            options_fingerprint: opts.fingerprint(),
            perturb_seed: 0,
            perturb_plan: 0,
            event_count: 0,
            schedule_hash: 0,
            commit_log_hash: 0,
            output_hash: 0,
            checkpoint_interval: 0,
            panic_site: 0,
            panic_victim: 0,
            panic_nth: 0,
        }
    }

    /// `dmt_server`: the final store must equal the sequential fold of the
    /// request stream. `DomainServer` lays the store out first, at heap
    /// address 0, one u64 per key.
    fn check_store(&self, rt: &dyn Runtime, r: &mut OpResult) {
        if self.expected_store.is_empty() {
            return;
        }
        let mut got = vec![0u64; self.expected_store.len()];
        rt.final_u64_slice(0, &mut got);
        let bad = got
            .iter()
            .zip(&self.expected_store)
            .position(|(g, e)| g != e);
        r.check(bad.is_none(), || {
            format!("store differs from the sequential fold at key {bad:?}")
        });
    }

    fn same_commit_log(&mut self, h: u64, r: &mut OpResult) {
        let want = *self.reference.commit_log.get_or_insert(h);
        r.check(h == want, || {
            format!("commit-log hash {h:#x} differs from the first op's {want:#x}")
        });
    }

    fn same_container(&mut self, path: &Path, r: &mut OpResult) {
        let digest = match std::fs::read(path) {
            Ok(bytes) => {
                let mut h = Fnv1a::new();
                h.update(&bytes);
                h.digest()
            }
            Err(e) => {
                r.failures.push(format!("read {}: {e}", path.display()));
                return;
            }
        };
        let want = *self.reference.container.get_or_insert(digest);
        r.check(digest == want, || {
            "container bytes differ from the first op's".into()
        });
    }
}

fn flip_middle_byte(path: &Path) -> Result<(), String> {
    let mut bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(path, bytes).map_err(|e| format!("write {}: {e}", path.display()))
}
