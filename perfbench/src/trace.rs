//! In-memory spans and the instrumented replay of one read.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer; nothing inside the program is instrumented. A dual-index read is
//! replayed over a private copy of the relation (same heap layout, same
//! [`DualIndex`], on a [`MemPager`]) through a [`TupleSource`] that times
//! itself, which splits `DualIndex::execute` into index, heap, decode and
//! refine. A read the planner sends to a sequential scan is split into
//! `HeapFile::scan`, decode and the exact predicates.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use cdb_core::index::TupleSource;
use cdb_core::{CdbError, DualIndex, MethodKind, QueryResult, Selection, SelectionKind};
use cdb_geometry::predicates;
use cdb_geometry::tuple::GeneralizedTuple;
use cdb_storage::{HeapFile, MemPager, PageReader, RecordId, TrackedReader};

/// One timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer or call name (`read`, `plan`, `index`, `heap`, ...).
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start: u64,
    /// End, ns since the tracer's origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (read or write) the span belongs to.
    pub request: u64,
}

/// A span buffer for one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty buffer measuring from `origin`; buffers of several threads
    /// share an origin so their spans line up.
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Appends a span and returns its index (the handle children name as
    /// their parent).
    pub fn record(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// An empty buffer for another thread, sharing this one's origin.
    pub fn fork(&self) -> Self {
        Tracer::new(self.origin)
    }

    /// Sets the end of a span opened with `start == end`.
    pub fn close(&mut self, span: usize, end: u64) {
        self.spans[span].end = end;
    }

    /// Moves another thread's spans in, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time per span name, in ns: each span's duration minus the
    /// part covered by its children (children of one span never overlap
    /// here, so the covered part is the sum of their durations).
    pub fn self_times(&self) -> HashMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end - s.start;
            }
        }
        let mut out: HashMap<&'static str, u64> = HashMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_default() += (s.end - s.start).saturating_sub(covered);
        }
        out
    }

    /// Durations (ms) of every span with this name, in order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e6)
            .collect()
    }

    /// Writes one JSON object per span, after a header line naming the run.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "{header}")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start, s.end, s.request
            )?;
        }
        f.flush()
    }
}

/// A private copy of relation `r`: the same records in the same heap
/// layout and the same dual index, over an in-memory pager.
pub struct ReplicaRelation {
    pager: MemPager,
    heap: HeapFile,
    slots: Vec<RecordId>,
    by_record: HashMap<RecordId, u32>,
    index: DualIndex,
}

impl ReplicaRelation {
    /// Inserts `tuples` (id = position) and bulk-builds the dual index
    /// over the decoded heap records, exactly as the engine does.
    pub fn build(tuples: &[GeneralizedTuple], page_size: usize) -> Self {
        let mut pager = MemPager::new(page_size);
        let mut heap = HeapFile::new(&mut pager);
        let mut slots = Vec::with_capacity(tuples.len());
        for t in tuples {
            slots.push(heap.insert(&mut pager, &t.encode()).expect("memory pager"));
        }
        let by_record: HashMap<RecordId, u32> = slots
            .iter()
            .enumerate()
            .map(|(i, &rid)| (rid, i as u32))
            .collect();
        let decoded: Vec<(u32, GeneralizedTuple)> = heap
            .scan(&pager)
            .expect("memory pager")
            .into_iter()
            .map(|(rid, bytes)| {
                (
                    by_record[&rid],
                    GeneralizedTuple::decode(&bytes).expect("just encoded"),
                )
            })
            .collect();
        let index = DualIndex::build(&mut pager, crate::inputs::slope_set(), &decoded)
            .expect("memory pager");
        ReplicaRelation {
            pager,
            heap,
            slots,
            by_record,
            index,
        }
    }

    /// Replays one read with the access method the engine chose, recording
    /// `plan`-free child spans of `root` (index/heap/decode/refine).
    pub fn replay(
        &self,
        tracer: &mut Tracer,
        root: usize,
        request: u64,
        sel: &Selection,
        method: MethodKind,
    ) -> Result<Replayed, CdbError> {
        match method.strategy() {
            Some(strategy) if method != MethodKind::SeqScan => {
                let src = TimingSource {
                    heap: &self.heap,
                    slots: &self.slots,
                    origin: tracer.origin,
                    calls: RefCell::new(Vec::new()),
                    fetched: Cell::new(0),
                };
                let start = tracer.now();
                let r = self.index.execute(&self.pager, sel, strategy, &src)?;
                let end = tracer.now();
                let calls = src.calls.into_inner();
                let first = calls.first().map_or(end, |c| c.0);
                let returned = calls.last().map_or(end, |c| c.2);
                tracer.record("index", start, first, Some(root), request);
                for (t0, t1, t2) in calls {
                    tracer.record("heap", t0, t1, Some(root), request);
                    tracer.record("decode", t1, t2, Some(root), request);
                }
                tracer.record("refine", returned, end, Some(root), request);
                let refined = src.fetched.get();
                Ok(Replayed {
                    refined,
                    kept: refined - r.stats.false_hits,
                    result: r,
                })
            }
            _ => self.replay_scan(tracer, root, request, sel),
        }
    }

    /// The sequential-scan plan: heap scan, decode, exact predicates.
    fn replay_scan(
        &self,
        tracer: &mut Tracer,
        root: usize,
        request: u64,
        sel: &Selection,
    ) -> Result<Replayed, CdbError> {
        let tracked = TrackedReader::new(&self.pager);
        let t0 = tracer.now();
        let records = self.heap.scan(&tracked)?;
        let t1 = tracer.now();
        // Consuming the records frees each one as it is decoded, and the
        // decoded tuples are dropped inside the predicate span: the same
        // places the engine's scan frees them.
        let mut tuples = Vec::with_capacity(records.len());
        for (rid, bytes) in records {
            let id = self.by_record[&rid];
            tuples.push((
                id,
                GeneralizedTuple::decode(&bytes).ok_or(CdbError::CorruptRecord(id))?,
            ));
        }
        let t2 = tracer.now();
        let candidates = tuples.len();
        let ids: Vec<u32> = tuples
            .iter()
            .filter(|(_, t)| match sel.kind {
                SelectionKind::All => predicates::all(&sel.halfplane, t),
                SelectionKind::Exist => predicates::exist(&sel.halfplane, t),
            })
            .map(|(id, _)| *id)
            .collect();
        drop(tuples);
        let t3 = tracer.now();
        tracer.record("index", t0, t0, Some(root), request);
        tracer.record("heap", t0, t1, Some(root), request);
        tracer.record("decode", t1, t2, Some(root), request);
        tracer.record("refine", t2, t3, Some(root), request);
        let stats = cdb_core::QueryStats {
            candidates: candidates as u64,
            false_hits: (candidates - ids.len()) as u64,
            heap_io: tracked.stats(),
            ..Default::default()
        };
        Ok(Replayed {
            refined: candidates as u64,
            kept: ids.len() as u64,
            result: QueryResult::new(ids, stats),
        })
    }
}

/// What one replayed read did.
pub struct Replayed {
    /// Candidates that went through exact refinement.
    pub refined: u64,
    /// Refined candidates that satisfied the selection.
    pub kept: u64,
    /// The replay's answer and page accesses.
    pub result: QueryResult,
}

impl Replayed {
    /// The fidelity check: the replay must return the engine's ids and
    /// charge the engine's index and heap accesses.
    pub fn matches(&self, engine: &QueryResult) -> Result<(), String> {
        if self.result.ids() != engine.ids() {
            return Err(format!(
                "replay returned {} ids, the engine {}",
                self.result.len(),
                engine.len()
            ));
        }
        let (mine, theirs) = (&self.result.stats, &engine.stats);
        if mine.index_io != theirs.index_io || mine.heap_io != theirs.heap_io {
            return Err(format!(
                "replay charged index {:?} / heap {:?}, the engine index {:?} / heap {:?}",
                mine.index_io, mine.heap_io, theirs.index_io, theirs.heap_io
            ));
        }
        Ok(())
    }
}

/// The refinement tuple source of the replay: fetches candidates page-
/// batched from the heap, like the engine's, and notes for each call when
/// it started, when the heap read ended and when the decode ended.
struct TimingSource<'a> {
    heap: &'a HeapFile,
    slots: &'a [RecordId],
    origin: Instant,
    calls: RefCell<Vec<(u64, u64, u64)>>,
    fetched: Cell<u64>,
}

impl TimingSource<'_> {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

impl TupleSource for TimingSource<'_> {
    fn fetch_batch(
        &self,
        pager: &dyn PageReader,
        ids: &[u32],
    ) -> Result<Vec<GeneralizedTuple>, CdbError> {
        let t0 = self.now();
        let rids: Vec<RecordId> = ids
            .iter()
            .map(|&id| {
                self.slots
                    .get(id as usize)
                    .copied()
                    .ok_or(CdbError::NoSuchTuple(id))
            })
            .collect::<Result<_, _>>()?;
        let records = self.heap.get_many(pager, &rids)?;
        let t1 = self.now();
        let tuples = records
            .into_iter()
            .zip(ids)
            .map(|(bytes, &id)| {
                let bytes = bytes.ok_or(CdbError::NoSuchTuple(id))?;
                GeneralizedTuple::decode(&bytes).ok_or(CdbError::CorruptRecord(id))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let t2 = self.now();
        self.calls.borrow_mut().push((t0, t1, t2));
        self.fetched.set(self.fetched.get() + ids.len() as u64);
        Ok(tuples)
    }
}
