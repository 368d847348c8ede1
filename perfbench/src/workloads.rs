//! The three workloads, their set-up, load loops and metric assembly.
//!
//! * `paper-auto` — the paper's Section 5 bed in process
//!   (`ConstraintDb::in_memory`), ALL and EXIST with arbitrary slopes under
//!   `Strategy::Auto`, one closed-loop caller.
//! * `wire-restricted` — a file-backed server (2 workers) and one
//!   closed-loop client sending typed `Query` frames with slopes from S.
//! * `wire-rw` — the same server; one SQL reader with arbitrary slopes and
//!   one durable writer (insert/delete alternating on the dual-indexed
//!   relation `w`) run at the same time, on two connections.
//!
//! Only `wire-rw` loads `w` and writes; the other two are read-only.
//! `BENCHMARK.json` runs `paper-auto` and `wire-rw`; `wire-restricted`, whose
//! 0.4 ms reads follow the host's vCPU wake-ups, is run by hand.

use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cdb_core::db::{ConstraintDb, Snapshot};
use cdb_core::{CdbError, DbConfig, MethodKind, QueryResult, SqlMode, Strategy};
use cdb_geometry::tuple::GeneralizedTuple;
use cdb_net::proto::{encode_response, WireQueryResult, WireSqlOutcome};
use cdb_net::server::{Server, ServerConfig};
use cdb_net::{Client, Response};

use crate::inputs::{self, Query, Relations, SlopeDraw, WriteOp, WriterModel};
use crate::report::{cpu_ticks, host_context, peak_rss_mb, Report, Samples, Windows};
use crate::trace::{Replayed, ReplicaRelation, Tracer};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// In-process Section 5 bed under `Strategy::Auto`.
    PaperAuto,
    /// Typed wire reads with slopes from S.
    WireRestricted,
    /// Wire SQL reads beside a durable writer.
    WireRw,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperAuto,
        Workload::WireRestricted,
        Workload::WireRw,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperAuto => "paper-auto",
            Workload::WireRestricted => "wire-restricted",
            Workload::WireRw => "wire-rw",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn served(self) -> bool {
        self != Workload::PaperAuto
    }

    /// `true` for the one workload with a writer.
    pub fn writes(self) -> bool {
        self == Workload::WireRw
    }
}

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Scale.
    pub sizes: inputs::Sizes,
    /// Scratch directory for database files; the run removes its files
    /// before returning.
    pub work_dir: PathBuf,
    /// Where traced runs write their spans.
    pub out_dir: PathBuf,
}

/// Windows the writer's run is measured in; write timings report the
/// median over them.
const WINDOWS: usize = 10;
/// Unmeasured warm-up before the measured seconds, as a share of them.
const WARMUP_SHARE: f64 = 0.04;
/// Server workers: one per benchmark connection.
const WORKERS: usize = 2;
/// The flush policy every served workload runs under (server defaults).
const FLUSH_POLICY: &str = "WAL armed; one fsync per writer-lane batch (group commit); \
                            snapshot published per batch; checkpoint every 64 mutations";

/// Runs one workload and returns its report.
pub fn run(opts: &Options) -> Report {
    let mut report = Report::default();
    host_context(&mut report);
    report.note("workload", opts.workload.name());
    report.note("seed", opts.seed);
    report.note("seconds", opts.seconds);
    report.note("trace", opts.trace);
    let s = &opts.sizes;
    let writer = if opts.workload.writes() {
        format!(", w={} live tuples", s.w_live)
    } else {
        String::new()
    };
    report.note(
        "parameters",
        format!(
            "N={} k={} small objects, {} queries (half ALL, half EXIST), selectivity {}-{}{writer}, \
             page 1024 B, {} set-ups",
            s.n,
            inputs::K,
            s.queries,
            inputs::SELECTIVITY.0,
            inputs::SELECTIVITY.1,
            s.setup_reps
        ),
    );
    report.note(
        "load",
        match opts.workload {
            Workload::PaperAuto => "one in-process closed-loop reader",
            Workload::WireRestricted => "one closed-loop connection sending typed Query frames",
            Workload::WireRw => "closed loop, 2 connections at once: SQL reader + durable writer",
        },
    );
    report.note(
        "flush_policy",
        match opts.workload {
            Workload::PaperAuto => "none (in-memory engine, begin_wal returns false)",
            Workload::WireRestricted => "server defaults; the workload does not write",
            Workload::WireRw => FLUSH_POLICY,
        },
    );
    let _ = std::fs::create_dir_all(&opts.work_dir);
    let mut run = Run {
        opts,
        report,
        tally: Tally::default(),
    };
    let ticks0 = cpu_ticks();
    if let Err(e) = run.execute() {
        run.tally.wrong.push(e);
    }
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks0, cpu_ticks()) {
        let frac = s1.saturating_sub(s0) as f64 / t1.saturating_sub(t0).max(1) as f64;
        run.report.note("host_steal_frac", format!("{frac:.3}"));
    }
    let Run {
        mut report, tally, ..
    } = run;
    report.attempted = tally.attempted.max(1);
    report.failed = tally.failed;
    report.correct = tally.wrong.is_empty();
    report.errors = tally.wrong;
    report
}

/// Operation counts and correctness failures.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    wrong: Vec<String>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong.extend(other.wrong);
    }
}

struct Run<'a> {
    opts: &'a Options,
    report: Report,
    tally: Tally,
}

/// The engine a workload talks to.
enum Target {
    Local(Box<ConstraintDb>),
    Served(Served),
}

/// A running server and the benchmark's connections to it.
struct Served {
    /// Live pages of the loaded, checkpointed file before serving.
    live_pages: u64,
    handle: JoinHandle<Result<ConstraintDb, CdbError>>,
    reader: Client,
    /// The writer's connection, on the workload that writes.
    writer: Option<Client>,
    path: PathBuf,
}

impl Served {
    /// Graceful shutdown over the reader connection; returns the engine.
    fn stop(self) -> Result<ConstraintDb, String> {
        let Served {
            handle,
            mut reader,
            writer,
            ..
        } = self;
        drop(writer);
        reader.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        drop(reader);
        handle
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server: {e}"))
    }
}

fn remove_db(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(cdb_storage::wal_path(path));
}

/// Creates `r` (and `w`, when the workload writes), loads them and builds
/// their dual indexes.
fn load(db: &mut ConstraintDb, rel: &Relations, writer: bool) -> Result<(), CdbError> {
    let relations = [("r", &rel.r), ("w", &rel.w)];
    for (name, tuples) in relations.into_iter().take(if writer { 2 } else { 1 }) {
        db.create_relation(name, 2)?;
        for t in tuples {
            db.insert(name, t.clone())?;
        }
        db.build_dual_index(name, inputs::slope_set())?;
    }
    Ok(())
}

/// What a write acknowledged.
enum Ack {
    Inserted(u32),
    Deleted(GeneralizedTuple),
}

/// One logged mutation with its acknowledgement, for the traced replay.
enum Logged {
    Insert(GeneralizedTuple, u32),
    Delete(u32),
}

/// Applies the writer's next step over the wire, checks the ack against
/// the model and times it.
fn write_step(
    model: &mut WriterModel,
    client: &mut Client,
    tally: &mut Tally,
    log: Option<&mut Vec<Logged>>,
) -> Option<f64> {
    let op = model.next_op();
    tally.attempted += 1;
    let t0 = Instant::now();
    let ack = match &op {
        WriteOp::Insert(t) => client.insert("w", t.clone()).map(Ack::Inserted),
        WriteOp::Delete(id) => client.delete("w", *id).map(Ack::Deleted),
    };
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let checked = match (op, ack) {
        (WriteOp::Insert(t), Ok(Ack::Inserted(id))) => {
            if let Some(log) = log {
                log.push(Logged::Insert(t.clone(), id));
            }
            model.inserted(id, t)
        }
        (WriteOp::Delete(id), Ok(Ack::Deleted(t))) => {
            if let Some(log) = log {
                log.push(Logged::Delete(id));
            }
            model.deleted(id, &t)
        }
        (_, Ok(_)) => Err("write acknowledged as the wrong kind".into()),
        (_, Err(_)) => {
            // A refused or failed write never happened: the model keeps
            // its state, and the failure counts against the run.
            tally.failed += 1;
            return None;
        }
    };
    if let Err(e) = checked {
        tally.wrong.push(e);
    }
    Some(ms)
}

/// One read's answer ids and the page accesses charged for it.
type ReadResult = Result<(Vec<u32>, u64), String>;

/// What a closed-loop reader talks to.
trait Reader {
    /// One read of `q`, as the workload issues it.
    fn read(&mut self, q: &Query) -> ReadResult;

    /// One round trip that does no work; `None` without a wire.
    fn ping(&mut self) -> Option<bool> {
        None
    }
}

/// The in-process engine, queried under `Strategy::Auto`.
struct Local<'a>(&'a ConstraintDb);

impl Reader for Local<'_> {
    fn read(&mut self, q: &Query) -> ReadResult {
        let r = self
            .0
            .query("r", q.sel.clone())
            .map_err(|e| e.to_string())?;
        Ok((r.ids().to_vec(), r.stats.total_accesses()))
    }
}

/// A wire connection sending typed `Query` frames or SQL text.
struct Wire<'a> {
    client: &'a mut Client,
    sql: bool,
}

impl Reader for Wire<'_> {
    fn read(&mut self, q: &Query) -> ReadResult {
        if self.sql {
            let out = self
                .client
                .sql(&q.sql, SqlMode::Execute)
                .map_err(|e| e.to_string())?;
            let mut ids: Vec<u32> = out.rows.iter().map(|r| r.ids[0]).collect();
            ids.sort_unstable();
            Ok((ids, out.stats.total_accesses()))
        } else {
            let r = self
                .client
                .query("r", q.sel.clone(), Strategy::Auto)
                .map_err(|e| e.to_string())?;
            Ok((r.ids().to_vec(), r.stats.total_accesses()))
        }
    }

    fn ping(&mut self) -> Option<bool> {
        Some(self.client.ping().is_ok())
    }
}

/// Checks one answer; a wrong answer is a correctness failure.
fn check_answer(tally: &mut Tally, q: &Query, got: &[u32]) {
    if got != q.expected.as_slice() {
        tally.wrong.push(format!(
            "wrong answer: {} ids, oracle {} ({})",
            got.len(),
            q.expected.len(),
            q.sql
        ));
    }
}

/// Reads and writes of one load phase.
#[derive(Default)]
struct Phase {
    /// Untraced read latencies (ms), per query of the battery.
    reads: Vec<Samples>,
    /// Seconds the measured read loop ran.
    read_secs: f64,
    traced_reads: Samples,
    read_pages: Samples,
    writes: Windows,
    traced_writes: Samples,
    pings_us: Samples,
}

impl Phase {
    /// Records an untraced read of query `qi`.
    fn read(&mut self, qi: usize, ms: f64) {
        if self.reads.len() <= qi {
            self.reads.resize_with(qi + 1, Samples::default);
        }
        self.reads[qi].push(ms);
    }

    /// Every untraced read latency in one set.
    fn pooled_reads(&self) -> Samples {
        let mut out = Samples::default();
        for &v in self.reads.iter().flat_map(Samples::values) {
            out.push(v);
        }
        out
    }
}

/// Per-layer accumulators of the traced run.
#[derive(Default)]
struct Layers {
    decomposed: u64,
    seqscan: u64,
    refined: u64,
    kept: u64,
    index_pages: u64,
    heap_pages: u64,
    index_candidates: u64,
    accepted_by_key: u64,
    est_log_sum: f64,
    est_n: u64,
    sql_parse_us: Samples,
    response_bytes: Samples,
    inproc_ms: Vec<f64>,
    apply_us: Samples,
    pages_per_write: Samples,
    sync_us: Samples,
    wal_bytes: Samples,
    publish_us: Samples,
    checkpoint_ms: Samples,
    writes_per_publish: f64,
}

impl Run<'_> {
    fn execute(&mut self) -> Result<(), String> {
        let opts = self.opts;
        let sizes = opts.sizes;
        // Set-up, several times; the median is `setup_s`, the last one
        // serves the run.
        let mut setup_secs = Samples::default();
        let mut kept = None;
        for rep in 0..sizes.setup_reps.max(1) {
            let last = rep + 1 == sizes.setup_reps.max(1);
            let (secs, rel, target) = self.setup(rep, last && opts.trace)?;
            setup_secs.push(secs);
            if last {
                kept = Some((rel, target));
            } else {
                teardown(target)?;
            }
        }
        let (rel, target) = kept.expect("at least one set-up");
        let draw = match opts.workload {
            Workload::WireRestricted => SlopeDraw::FromSet,
            _ => SlopeDraw::Arbitrary,
        };
        let queries = inputs::queries(&rel.r, &sizes, draw, opts.seed);
        let mut tracer = Tracer::new(Instant::now());
        let mut layers = Layers::default();
        let mut log = Vec::new();

        // The Figure 10 space measure, on the freshly loaded database.
        let live_pages = match &target {
            Target::Local(db) => db.live_pages() as u64,
            Target::Served(served) => served.live_pages,
        };
        let bytes_per_user_byte = (live_pages * DbConfig::paper_1999().page_size as u64) as f64
            / (inputs::user_bytes(&rel.r) + inputs::user_bytes(&rel.w)) as f64;
        let (phase, local) = match target {
            Target::Local(db) => {
                let phase = read_loop(
                    &mut Local(&db),
                    &queries,
                    opts,
                    &mut self.tally,
                    &mut tracer,
                );
                (phase, Some(db))
            }
            Target::Served(served) => {
                let phase =
                    self.serve(served, &rel, &queries, &mut tracer, &mut layers, &mut log)?;
                (phase, None)
            }
        };

        if !opts.trace {
            self.end_to_end(&setup_secs, &phase, bytes_per_user_byte);
            return Ok(());
        }
        let replica = ReplicaRelation::build(&rel.r, DbConfig::paper_1999().page_size);
        match local {
            Some(db) => self.decompose(&db, None, &queries, &mut tracer, &mut layers, &replica)?,
            None => {
                let copy = opts.work_dir.join("copy.db");
                let outcome = ConstraintDb::open(&copy)
                    .map_err(|e| format!("open copy: {e}"))
                    .and_then(|mut db| {
                        let snap = db.snapshot().map_err(|e| format!("snapshot: {e}"))?;
                        self.decompose(
                            &db,
                            Some(&snap),
                            &queries,
                            &mut tracer,
                            &mut layers,
                            &replica,
                        )?;
                        drop(snap);
                        self.replay_writes(&mut db, &log, &mut tracer, &mut layers)
                    });
                remove_db(&copy);
                outcome?;
            }
        }
        self.per_layer(&phase, &tracer, &layers);
        let spans = opts.out_dir.join(format!(
            "spans-{}-seed{}.jsonl",
            opts.workload.name(),
            opts.seed
        ));
        tracer
            .write_jsonl(&spans, &self.report.context_json())
            .map_err(|e| format!("writing spans: {e}"))?;
        self.report.note("spans", spans.display());
        Ok(())
    }

    /// One timed set-up: generate, create, bulk load, build indexes and,
    /// for served workloads, checkpoint, bind, start and connect.
    /// `copy` also leaves an untimed copy of the checkpointed file for the
    /// traced run's in-process comparisons.
    fn setup(&self, rep: usize, copy: bool) -> Result<(f64, Relations, Target), String> {
        let opts = self.opts;
        let writer = opts.workload.writes();
        let t0 = Instant::now();
        let rel = inputs::relations(opts.seed, &opts.sizes, writer);
        if !opts.workload.served() {
            let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
            load(&mut db, &rel, writer).map_err(|e| format!("load: {e}"))?;
            return Ok((t0.elapsed().as_secs_f64(), rel, Target::Local(Box::new(db))));
        }
        let path = opts.work_dir.join(format!("setup-{rep}.db"));
        remove_db(&path);
        let mut db = ConstraintDb::create(&path, DbConfig::paper_1999())
            .map_err(|e| format!("create: {e}"))?;
        load(&mut db, &rel, writer).map_err(|e| format!("load: {e}"))?;
        db.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
        let live_pages = db.live_pages() as u64;
        let mut secs = t0.elapsed().as_secs_f64();
        if copy {
            let dst = opts.work_dir.join("copy.db");
            remove_db(&dst);
            std::fs::copy(&path, &dst).map_err(|e| format!("copy: {e}"))?;
        }
        let t1 = Instant::now();
        let config = ServerConfig {
            workers: WORKERS,
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", db, config).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        let mut reader = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let writer = if writer {
            Some(Client::connect(addr).map_err(|e| format!("connect: {e}"))?)
        } else {
            None
        };
        reader.ping().map_err(|e| format!("ping: {e}"))?;
        secs += t1.elapsed().as_secs_f64();
        Ok((
            secs,
            rel,
            Target::Served(Served {
                live_pages,
                handle,
                reader,
                writer,
                path,
            }),
        ))
    }

    /// A served workload's load phase, up to stopping the server. On
    /// `wire-rw` it also checks `w` against the writer's model, and traced
    /// runs log the acked writes into `log` for the in-process replay.
    fn serve(
        &mut self,
        mut served: Served,
        rel: &Relations,
        queries: &[Query],
        tracer: &mut Tracer,
        layers: &mut Layers,
        log: &mut Vec<Logged>,
    ) -> Result<Phase, String> {
        let opts = self.opts;
        let path = served.path.clone();
        if !opts.workload.writes() {
            let mut wire = Wire {
                client: &mut served.reader,
                sql: false,
            };
            let phase = read_loop(&mut wire, queries, opts, &mut self.tally, tracer);
            served.stop()?;
            remove_db(&path);
            return Ok(phase);
        }
        let mut model = WriterModel::new(&rel.w, &rel.pool, opts.seed);
        let before = served.reader.stats().map_err(|e| format!("stats: {e}"))?;
        let (phase, tally) = concurrent_phase(
            opts,
            &mut served,
            queries,
            &mut model,
            tracer,
            opts.trace.then_some(log),
        );
        self.tally.merge(tally);
        let after = served.reader.stats().map_err(|e| format!("stats: {e}"))?;
        let published = after
            .db
            .epochs
            .current_epoch
            .saturating_sub(before.db.epochs.current_epoch);
        layers.writes_per_publish = if published == 0 {
            0.0
        } else {
            model.acked() as f64 / published as f64
        };
        let db = served.stop()?;
        remove_db(&path);
        let stored = db.scan_relation("w").map_err(|e| format!("scan w: {e}"))?;
        if let Err(e) = model.check(&stored) {
            self.tally.wrong.push(e);
        }
        Ok(phase)
    }
}

/// The measured closed-loop reader: an unmeasured warm-up, then the
/// battery in order until the run's seconds are spent. Traced runs pair
/// every untraced read with a span-wrapped read of the same query (order
/// alternating) and, on a wire, time a ping every eighth pair.
fn read_loop(
    reader: &mut dyn Reader,
    queries: &[Query],
    opts: &Options,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Phase {
    let mut phase = Phase::default();
    let warm = Instant::now() + share(opts.seconds, WARMUP_SHARE);
    let mut i = 0usize;
    while Instant::now() < warm {
        let q = &queries[i % queries.len()];
        i += 1;
        tally.attempted += 1;
        match reader.read(q) {
            Ok((ids, _)) => check_answer(tally, q, &ids),
            Err(_) => tally.failed += 1,
        }
    }
    let run = share(opts.seconds, 1.0);
    let start = Instant::now();
    let mut request = 0u64;
    while start.elapsed() < run {
        let qi = i % queries.len();
        i += 1;
        read_pair(
            reader,
            &queries[qi],
            qi,
            opts.trace,
            tally,
            tracer,
            &mut phase,
            &mut request,
        );
    }
    phase.read_secs = start.elapsed().as_secs_f64();
    phase
}

/// One measured read and, in traced runs, a second, span-wrapped read of
/// the same query.
#[allow(clippy::too_many_arguments)]
fn read_pair(
    reader: &mut dyn Reader,
    q: &Query,
    qi: usize,
    trace: bool,
    tally: &mut Tally,
    tracer: &mut Tracer,
    phase: &mut Phase,
    request: &mut u64,
) {
    let untraced = |reader: &mut dyn Reader, tally: &mut Tally, phase: &mut Phase| {
        tally.attempted += 1;
        let t0 = Instant::now();
        match reader.read(q) {
            Ok((ids, pages)) => {
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                check_answer(tally, q, &ids);
                phase.read(qi, ms);
                phase.read_pages.push(pages as f64);
            }
            Err(_) => tally.failed += 1,
        }
    };
    if !trace {
        untraced(reader, tally, phase);
        return;
    }
    let mut traced = |reader: &mut dyn Reader, tally: &mut Tally, phase: &mut Phase, request| {
        tally.attempted += 1;
        let s0 = tracer.now();
        let got = reader.read(q);
        let s1 = tracer.now();
        tracer.record("read", s0, s1, None, request);
        match got {
            Ok((ids, _)) => {
                check_answer(tally, q, &ids);
                phase.traced_reads.push((s1 - s0) as f64 / 1e6);
            }
            Err(_) => tally.failed += 1,
        }
    };
    *request += 1;
    if (*request).is_multiple_of(2) {
        untraced(reader, tally, phase);
        traced(reader, tally, phase, *request);
    } else {
        traced(reader, tally, phase, *request);
        untraced(reader, tally, phase);
    }
    if (*request).is_multiple_of(8) {
        let s0 = tracer.now();
        if let Some(ok) = reader.ping() {
            let s1 = tracer.now();
            tracer.record("ping", s0, s1, None, *request);
            if ok {
                phase.pings_us.push((s1 - s0) as f64 / 1e3);
            }
        }
    }
}

/// `wire-rw`: the SQL reader and the durable writer at the same time,
/// each on its own connection and thread. Writes are timed per tenth of
/// the run.
fn concurrent_phase(
    opts: &Options,
    served: &mut Served,
    queries: &[Query],
    model: &mut WriterModel,
    tracer: &mut Tracer,
    log: Option<&mut Vec<Logged>>,
) -> (Phase, Tally) {
    let trace = opts.trace;
    let warm = share(opts.seconds, WARMUP_SHARE);
    let run = share(opts.seconds, 1.0);
    let width = run / WINDOWS as u32;
    let window = |start: Instant| {
        ((start.elapsed().as_secs_f64() / width.as_secs_f64()) as usize).min(WINDOWS - 1)
    };
    let Served { reader, writer, .. } = served;
    let writer = writer
        .as_mut()
        .expect("the writing workload connects a writer");
    let ((mut phase, mut tally), (wtally, wphase, wt)) = std::thread::scope(|scope| {
        let mut wt = tracer.fork();
        let w = scope.spawn(move || {
            let mut tally = Tally::default();
            let mut phase = Phase::default();
            let mut log = log;
            let t = Instant::now();
            while t.elapsed() < warm {
                write_step(model, writer, &mut tally, log.as_deref_mut());
            }
            let start = Instant::now();
            let mut request = 1u64 << 40;
            while start.elapsed() < run {
                let w = window(start);
                while phase.writes.windows() <= w {
                    phase.writes.open();
                }
                write_pair(
                    writer,
                    model,
                    trace,
                    &mut tally,
                    &mut wt,
                    &mut phase,
                    &mut request,
                    log.as_deref_mut(),
                );
            }
            phase
                .writes
                .close_uniform(width.as_secs_f64(), start.elapsed().as_secs_f64());
            (tally, phase, wt)
        });
        let mut tally = Tally::default();
        let mut wire = Wire {
            client: reader,
            sql: true,
        };
        let phase = read_loop(&mut wire, queries, opts, &mut tally, tracer);
        let w = w.join().expect("writer thread");
        ((phase, tally), w)
    });
    tracer.absorb(wt);
    tally.merge(wtally);
    phase.writes = wphase.writes;
    phase.traced_writes = wphase.traced_writes;
    (phase, tally)
}

/// One measured write, and in traced runs a second, span-wrapped write
/// (order alternating, so traced and untraced writes are inserts and
/// deletes alike).
#[allow(clippy::too_many_arguments)]
fn write_pair(
    writer: &mut Client,
    model: &mut WriterModel,
    trace: bool,
    tally: &mut Tally,
    tracer: &mut Tracer,
    phase: &mut Phase,
    request: &mut u64,
    mut log: Option<&mut Vec<Logged>>,
) {
    let untraced = |writer: &mut Client,
                    model: &mut WriterModel,
                    tally: &mut Tally,
                    phase: &mut Phase,
                    log: Option<&mut Vec<Logged>>| {
        if let Some(ms) = write_step(model, writer, tally, log) {
            phase.writes.push(ms);
        }
    };
    if !trace {
        untraced(writer, model, tally, phase, log);
        return;
    }
    *request += 1;
    let traced_first = (*request).is_multiple_of(2);
    if !traced_first {
        untraced(writer, model, tally, phase, log.as_deref_mut());
    }
    let s0 = tracer.now();
    let ms = write_step(model, writer, tally, log.as_deref_mut());
    let s1 = tracer.now();
    tracer.record("write", s0, s1, None, *request);
    if ms.is_some() {
        phase.traced_writes.push((s1 - s0) as f64 / 1e6);
    }
    if traced_first {
        untraced(writer, model, tally, phase, log);
    }
}

/// The decomposed in-process read: `plan` span around the planner, then
/// the instrumented replay of the chosen method, under one
/// `decomposed_read` root span. Returns the planned method and the replay.
fn traced_read(
    db: &ConstraintDb,
    replica: &ReplicaRelation,
    q: &Query,
    tracer: &mut Tracer,
    request: u64,
) -> Result<(MethodKind, Replayed), String> {
    let s0 = tracer.now();
    let root = tracer.record("decomposed_read", s0, s0, None, request);
    let plan = db.plan_query("r", &q.sel).map_err(|e| e.to_string())?;
    let s1 = tracer.now();
    tracer.record("plan", s0, s1, Some(root), request);
    let replayed = replica
        .replay(tracer, root, request, &q.sel, plan.method)
        .map_err(|e| e.to_string())?;
    tracer.close(root, tracer.now());
    Ok((plan.method, replayed))
}

/// The fidelity check of one traced read against the engine's result for
/// the same selection (re-run with the traced read's method should the
/// planner have changed its mind in between), then the per-layer counts.
fn account(
    db: &ConstraintDb,
    q: &Query,
    engine: &QueryResult,
    method: MethodKind,
    replayed: &Replayed,
    layers: &mut Layers,
) -> Result<(), String> {
    let reference = if engine.stats.method == Some(method) {
        engine.clone()
    } else {
        let strategy = method.strategy().unwrap_or(Strategy::Scan);
        db.query_with("r", q.sel.clone(), strategy)
            .map_err(|e| e.to_string())?
    };
    replayed
        .matches(&reference)
        .map_err(|e| format!("fidelity check failed on {}: {e}", q.sql))?;
    layers.decomposed += 1;
    if method == MethodKind::SeqScan {
        layers.seqscan += 1;
    } else {
        layers.index_candidates += replayed.result.stats.candidates;
        layers.accepted_by_key += replayed.result.stats.accepted_by_key;
    }
    layers.refined += replayed.refined;
    layers.kept += replayed.kept;
    layers.index_pages += replayed.result.stats.index_io.accesses();
    layers.heap_pages += replayed.result.stats.heap_io.accesses();
    if let Some(est) = engine.stats.estimate {
        let actual = engine.stats.total_accesses();
        if actual > 0 && est.total() > 0.0 {
            layers.est_log_sum += (est.total() / actual as f64).ln();
            layers.est_n += 1;
        }
    }
    Ok(())
}

/// A share of the run's measured seconds.
fn share(seconds: f64, f: f64) -> Duration {
    Duration::from_secs_f64(seconds * f)
}

fn teardown(target: Target) -> Result<(), String> {
    match target {
        Target::Local(db) => drop(db),
        Target::Served(served) => {
            let path = served.path.clone();
            drop(served.stop()?);
            remove_db(&path);
        }
    }
    Ok(())
}

impl Run<'_> {
    /// The traced run's in-process decomposition, once per query of the
    /// battery, on `db`: the workload's own engine for `paper-auto`, a copy
    /// of the checkpointed file for served workloads. Each query gets the
    /// engine's result and the traced plan + replay, checked against it
    /// (the fidelity check). Served workloads pass a snapshot of the copy,
    /// the read path the server answers from; on it they also get the
    /// in-process latency of the read as the workload issues it (typed
    /// query or SQL text), the encoded response size and, for SQL, the
    /// parse time.
    fn decompose(
        &mut self,
        db: &ConstraintDb,
        served: Option<&Snapshot>,
        queries: &[Query],
        tracer: &mut Tracer,
        layers: &mut Layers,
        replica: &ReplicaRelation,
    ) -> Result<(), String> {
        let sql = self.opts.workload == Workload::WireRw;
        let mut request = 1u64 << 50;
        for q in queries {
            request += 1;
            let res = db
                .query("r", q.sel.clone())
                .map_err(|e| format!("in-process read: {e}"))?;
            check_answer(&mut self.tally, q, res.ids());
            self.tally.attempted += 1;
            let (method, replayed) = traced_read(db, replica, q, tracer, request)?;
            account(db, q, &res, method, &replayed, layers)?;
            let Some(snap) = served else {
                continue;
            };
            // The base of the net overhead, warmed once.
            let response = if sql {
                let read = || snap.sql(&q.sql, SqlMode::Execute);
                let _ = read();
                let t0 = Instant::now();
                let out = read().map_err(|e| format!("in-process sql: {e}"))?;
                layers.inproc_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                Response::Sql(WireSqlOutcome::from(&out))
            } else {
                let _ = snap.query("r", q.sel.clone());
                let t0 = Instant::now();
                let again = snap
                    .query("r", q.sel.clone())
                    .map_err(|e| format!("in-process read: {e}"))?;
                layers.inproc_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                Response::Query(WireQueryResult::from(&again))
            };
            layers
                .response_bytes
                .push(encode_response(request, 0, &Ok(response)).len() as f64);
            if sql {
                let s0 = tracer.now();
                let parsed = cdb_core::sql::parse(&q.sql).map_err(|e| e.to_string())?;
                let plan =
                    cdb_core::logical::lower(&parsed, |_| Ok(2)).map_err(|e| e.to_string())?;
                let _ = std::hint::black_box(cdb_core::logical::rewrite(plan));
                let s1 = tracer.now();
                tracer.record("sql.parse", s0, s1, None, request);
                layers.sql_parse_us.push((s1 - s0) as f64 / 1e3);
            }
        }
        Ok(())
    }

    /// The writer's logged mutations (the first `replay_writes`) replayed
    /// on the file copy with the WAL armed, through the writer lane's
    /// steps in its order: apply, fsync, checkpoint when due, publish.
    fn replay_writes(
        &self,
        db: &mut ConstraintDb,
        log: &[Logged],
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> Result<(), String> {
        if log.is_empty() {
            return Ok(());
        }
        db.begin_wal().map_err(|e| format!("begin_wal: {e}"))?;
        let wal = db.wal_file_path();
        let wal_len = || {
            wal.as_ref()
                .and_then(|p| std::fs::metadata(p).ok())
                .map_or(0, |m| m.len())
        };
        let mut since_checkpoint = 0u64;
        let mut request = 1u64 << 55;
        for op in log.iter().take(self.opts.sizes.replay_writes) {
            request += 1;
            let len0 = wal_len();
            let io0 = db.io_stats();
            let s0 = tracer.now();
            let root = tracer.record("lane_write", s0, s0, None, request);
            let applied = match op {
                Logged::Insert(t, id) => db.insert("w", t.clone()).map(|got| got == *id),
                Logged::Delete(id) => db.delete("w", *id).map(|_| true),
            }
            .map_err(|e| format!("replayed write: {e}"))?;
            if !applied {
                return Err("replayed insert was assigned another id than the server's".into());
            }
            let s1 = tracer.now();
            let io = db.io_stats().since(&io0);
            tracer.record("apply", s0, s1, Some(root), request);
            db.wal_sync().map_err(|e| format!("wal_sync: {e}"))?;
            let s2 = tracer.now();
            tracer.record("wal_sync", s1, s2, Some(root), request);
            layers.wal_bytes.push(wal_len().saturating_sub(len0) as f64);
            since_checkpoint += 1;
            let mut s3 = s2;
            if since_checkpoint >= 64 {
                db.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
                s3 = tracer.now();
                tracer.record("checkpoint", s2, s3, Some(root), request);
                layers.checkpoint_ms.push((s3 - s2) as f64 / 1e6);
                since_checkpoint = 0;
            }
            let snap = db.snapshot().map_err(|e| format!("snapshot: {e}"))?;
            let s4 = tracer.now();
            drop(snap);
            tracer.record("publish", s3, s4, Some(root), request);
            tracer.close(root, s4);
            layers.apply_us.push((s1 - s0) as f64 / 1e3);
            layers.pages_per_write.push(io.accesses() as f64);
            layers.sync_us.push((s2 - s1) as f64 / 1e3);
            layers.publish_us.push((s4 - s3) as f64 / 1e3);
        }
        Ok(())
    }

    /// The end-to-end metrics of an untraced run.
    fn end_to_end(&mut self, setup: &Samples, phase: &Phase, bytes_per_user_byte: f64) {
        let r = &mut self.report;
        r.put_timing("setup_s", "s", setup.median(), setup.len());
        let reads = phase.pooled_reads();
        r.put_timing("read_p75_ms", "ms", reads.quantile(0.75), reads.len());
        r.put("pages_per_read", "count", phase.read_pages.mean());
        r.put("bytes_per_user_byte", "ratio", bytes_per_user_byte);
        let t = &self.tally;
        let failed = t.failed as f64 / t.attempted.max(1) as f64;
        r.put("success_rate", "ratio", 1.0 - failed);
        r.put("peak_rss_mb", "MB", peak_rss_mb());
        // On a shared 2-vCPU host the refinement-heavy reads are bimodal:
        // about 23 ms while the vCPU runs at full speed and about 40 ms
        // while a neighbour contends for its core, and the mix changes from
        // run to run. The median jumps between the modes with the mix
        // (29-40 ms over ten runs of the same code on paper-auto), and the
        // 95th percentile and the rate follow writer stalls on wire-rw. Over
        // ten runs the 75th percentile's quartiles stayed within 9 % of its
        // median on both, so it carries the bound and the others are printed
        // without one.
        r.show("read_p50_ms", "ms", reads.median(), Some(reads.len()));
        r.show("read_p95_ms", "ms", reads.quantile(0.95), Some(reads.len()));
        let qps = if phase.read_secs > 0.0 {
            reads.len() as f64 / phase.read_secs
        } else {
            0.0
        };
        r.show("read_qps", "1/s", qps, None);
        if self.opts.workload.writes() {
            // Durable write latency and rate follow the host's fsync and
            // steal regimes (the median moved 40 % and the tail 2x between
            // runs minutes apart on a shared VM), so they are printed
            // without a bound.
            let writes = phase.writes.count();
            r.show(
                "write_p50_ms",
                "ms",
                phase.writes.quantile(0.5),
                Some(writes),
            );
            r.show(
                "write_p99_ms",
                "ms",
                phase.writes.quantile(0.99),
                Some(writes),
            );
            r.show("write_ops_s", "1/s", phase.writes.rate(), None);
            r.note("write_samples", writes);
            r.note("write_windows", WINDOWS);
        }
        // The error rate is 0 on a healthy run, and a bounded metric may
        // not read 0.
        r.show("error_rate", "ratio", failed, None);
        r.note("read_samples", reads.len());
        r.note("read_seconds", format!("{:.3}", phase.read_secs));
        r.note("setup_samples", setup.len());
    }

    /// The per-layer metrics of a traced run.
    fn per_layer(&mut self, phase: &Phase, tracer: &Tracer, layers: &Layers) {
        let selfs = tracer.self_times();
        let n = layers.decomposed.max(1) as f64;
        let self_ms = |name: &str| *selfs.get(name).unwrap_or(&0) as f64 / 1e6;
        let per = |x: u64| x as f64 / n;
        let r = &mut self.report;
        r.put_timing(
            "refine.ms_per_read",
            "ms",
            self_ms("refine") / n,
            layers.decomposed as usize,
        );
        r.put_timing(
            "refine.ns_per_candidate",
            "ns",
            if layers.refined == 0 {
                0.0
            } else {
                self_ms("refine") * 1e6 / layers.refined as f64
            },
            layers.decomposed as usize,
        );
        r.put(
            "refine.useful_frac",
            "ratio",
            if layers.refined == 0 {
                0.0
            } else {
                layers.kept as f64 / layers.refined as f64
            },
        );
        r.put_timing(
            "decode.ms_per_read",
            "ms",
            self_ms("decode") / n,
            layers.decomposed as usize,
        );
        r.put_timing(
            "heap.ms_per_read",
            "ms",
            self_ms("heap") / n,
            layers.decomposed as usize,
        );
        r.put("heap.pages_per_read", "count", per(layers.heap_pages));
        r.put_timing(
            "index.ms_per_read",
            "ms",
            self_ms("index") / n,
            layers.decomposed as usize,
        );
        r.put("index.pages_per_read", "count", per(layers.index_pages));
        r.put(
            "index.candidates_per_read",
            "count",
            per(layers.index_candidates),
        );
        r.put(
            "index.accepted_by_key_frac",
            "ratio",
            if layers.index_candidates == 0 {
                0.0
            } else {
                layers.accepted_by_key as f64 / layers.index_candidates as f64
            },
        );
        r.put_timing(
            "plan.us_per_read",
            "us",
            self_ms("plan") * 1e3 / n,
            layers.decomposed as usize,
        );
        r.put("plan.seqscan_frac", "ratio", per(layers.seqscan));
        r.put(
            "plan.est_pages_ratio",
            "ratio",
            if layers.est_n == 0 {
                0.0
            } else {
                (layers.est_log_sum / layers.est_n as f64).exp()
            },
        );
        r.put_timing(
            "sql.parse_us",
            "us",
            layers.sql_parse_us.mean(),
            layers.sql_parse_us.len(),
        );
        r.put_timing(
            "net.ping_us",
            "us",
            phase.pings_us.median(),
            phase.pings_us.len(),
        );
        // Wire latency minus in-process latency of the same query on the
        // same data, averaged over the untraced wire reads.
        let (mut diff, mut wire_reads) = (0.0, 0usize);
        if !layers.inproc_ms.is_empty() {
            for (qi, s) in phase.reads.iter().enumerate() {
                diff += s
                    .values()
                    .iter()
                    .map(|ms| ms - layers.inproc_ms[qi])
                    .sum::<f64>();
                wire_reads += s.len();
            }
        }
        let overhead = if wire_reads == 0 {
            0.0
        } else {
            diff / wire_reads as f64
        };
        r.put_timing("net.overhead_ms_per_read", "ms", overhead, wire_reads);
        r.put(
            "proto.response_bytes_per_read",
            "bytes",
            layers.response_bytes.mean(),
        );
        r.put_timing(
            "write.apply_us",
            "us",
            layers.apply_us.mean(),
            layers.apply_us.len(),
        );
        r.put(
            "write.pages_per_write",
            "count",
            layers.pages_per_write.mean(),
        );
        r.put_timing(
            "wal.sync_us",
            "us",
            layers.sync_us.mean(),
            layers.sync_us.len(),
        );
        r.put("wal.bytes_per_write", "bytes", layers.wal_bytes.mean());
        r.put_timing(
            "publish.us",
            "us",
            layers.publish_us.mean(),
            layers.publish_us.len(),
        );
        r.put_timing(
            "checkpoint.ms",
            "ms",
            layers.checkpoint_ms.mean(),
            layers.checkpoint_ms.len(),
        );
        r.put(
            "lane.writes_per_publish",
            "ratio",
            layers.writes_per_publish,
        );
        // Tracing overhead: the span-wrapped reads (writes) against the
        // untraced ones of the same run, which issue the same calls.
        let (reads, writes) = (phase.pooled_reads(), phase.writes.pooled());
        let read_over = phase.traced_reads.median() - reads.median();
        r.put_timing(
            "trace.read_overhead_ms",
            "ms",
            read_over,
            phase.traced_reads.len(),
        );
        r.put(
            "trace.read_overhead_frac",
            "ratio",
            if reads.is_empty() {
                0.0
            } else {
                read_over / reads.median()
            },
        );
        let write_over = phase.traced_writes.median() - writes.median();
        r.put_timing(
            "trace.write_overhead_ms",
            "ms",
            write_over,
            phase.traced_writes.len(),
        );
        // Share of the decomposed reads' latency the layer self times
        // account for.
        let root_ms: f64 = tracer.durations_ms("decomposed_read").iter().sum();
        let layers_ms: f64 = ["plan", "index", "heap", "decode", "refine"]
            .iter()
            .map(|k| self_ms(k))
            .sum();
        r.put(
            "trace.self_time_coverage",
            "ratio",
            if root_ms > 0.0 {
                layers_ms / root_ms
            } else {
                0.0
            },
        );
        r.note("decomposed_reads", layers.decomposed);
        r.note("traced_read_p50_ms", phase.traced_reads.median());
        r.note("untraced_read_p50_ms", reads.median());
        if self.opts.workload.writes() {
            r.note("traced_write_p50_ms", phase.traced_writes.median());
            r.note("untraced_write_p50_ms", writes.median());
        }
    }
}
