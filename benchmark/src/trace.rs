//! Outside-in host-time tracing.
//!
//! The harness cuts the stack only where the program already has a public
//! seam: a [`Timed`] wrapper implements the seam's trait, forwards every
//! method to the real implementation and brackets the call with a host
//! stopwatch. Nothing under `crates/` knows it is being timed.
//!
//! A [`Tracer`] aggregates count / total / self time per [`Seam`] and keeps
//! the first [`RAW_SPAN_CAP`] raw spans for a Chrome trace. Self time is a
//! span's duration minus the part its child spans cover.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use requiem_block::StorageBackend;
use requiem_db::backend::{BackendStats, PageRead, ReadShim};
use requiem_db::wal::Lsn;
use requiem_db::{CommandTag, PageId, PersistenceBackend, WalBackend, WalForce, WalStats};
use requiem_pcm::WearSnapshot;
use requiem_sim::time::SimTime;
use requiem_sim::{Cause, IoCompletion, IoRequest, IoStatus, Probe};

/// Raw spans kept for the Chrome trace (the run's first few thousand
/// operations; later spans only feed the aggregates).
pub const RAW_SPAN_CAP: usize = 100_000;

/// Where a span was cut. The prefix before the dot is the layer the time
/// is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Seam {
    /// Root on `oltp_*`: the `run_concurrent` / `ShardedDb::run` call.
    DbRun,
    /// Root on `ssd_*`: the harness's closed loop over `IoStack`
    /// (`submit_batch` / `next_completion_time` / `poll_completions`).
    BlockLoop,
    /// `StorageBackend::submit` on the device under the block stack.
    SsdSubmit,
    BackendPageWrite,
    BackendStealWrite,
    BackendPageRead,
    BackendPageBatch,
    BackendFreePage,
    BackendSubmitReads,
    BackendPoll,
    BackendNextReadDone,
    BackendReadsInFlight,
    BackendSetReadWindow,
    WalAppend,
    WalForce,
    WalTruncate,
    WalRecoverScan,
}

const SEAM_NAMES: [&str; 17] = [
    "db.run",
    "block.closed_loop",
    "ssd.submit",
    "backend.page_write",
    "backend.steal_write",
    "backend.page_read",
    "backend.page_batch",
    "backend.free_page",
    "backend.submit_reads",
    "backend.poll",
    "backend.next_read_done",
    "backend.reads_in_flight",
    "backend.set_read_window",
    "wal.append",
    "wal.force",
    "wal.truncate",
    "wal.recover_scan",
];

impl Seam {
    /// Span name; the prefix before the dot names the layer.
    pub fn name(self) -> &'static str {
        SEAM_NAMES[self as usize]
    }
}

/// Per-seam aggregate, in host nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SeamStat {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// One raw span. `parent` indexes the raw span vector; `id` is the command
/// tag on `ssd_*` and the page id on db backend calls (0 when neither).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub seam: Seam,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub id: u64,
}

struct Open {
    seam: Seam,
    start_ns: u64,
    child_ns: u64,
    raw: Option<u32>,
}

/// In-memory span collector shared by every wrapper of one run.
pub struct Tracer {
    on: Cell<bool>,
    epoch: Instant,
    state: RefCell<State>,
}

struct State {
    open: Vec<Open>,
    stats: [SeamStat; SEAM_NAMES.len()],
    raw: Vec<Span>,
}

impl Tracer {
    /// A tracer that records nothing until [`Tracer::set_enabled`].
    pub fn new() -> Rc<Self> {
        Rc::new(Tracer {
            on: Cell::new(false),
            epoch: Instant::now(),
            state: RefCell::new(State {
                open: Vec::with_capacity(8),
                stats: [SeamStat::default(); SEAM_NAMES.len()],
                raw: Vec::new(),
            }),
        })
    }

    /// Set-up and checks run through the same wrappers as the timed
    /// region; only the timed region is traced.
    pub fn set_enabled(&self, on: bool) {
        self.on.set(on);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span cut at `seam`.
    #[inline]
    pub fn span<R>(&self, seam: Seam, id: u64, f: impl FnOnce() -> R) -> R {
        if !self.on.get() {
            return f();
        }
        self.enter(seam, id);
        let r = f();
        self.exit();
        r
    }

    fn enter(&self, seam: Seam, id: u64) {
        let mut st = self.state.borrow_mut();
        let st = &mut *st;
        let slot = (st.raw.len() < RAW_SPAN_CAP).then(|| {
            st.raw.push(Span {
                seam,
                start_ns: 0,
                end_ns: 0,
                parent: st.open.last().and_then(|p| p.raw),
                id,
            });
            (st.raw.len() - 1) as u32
        });
        // the clock is read last on entry and first on exit, so the
        // collector's own bookkeeping lands in the parent's self time
        let start_ns = self.now_ns();
        st.open.push(Open {
            seam,
            start_ns,
            child_ns: 0,
            raw: slot,
        });
    }

    fn exit(&self) {
        let end_ns = self.now_ns();
        let mut st = self.state.borrow_mut();
        let Some(span) = st.open.pop() else { return };
        let dur = end_ns.saturating_sub(span.start_ns);
        if let Some(parent) = st.open.last_mut() {
            parent.child_ns += dur;
        }
        let s = &mut st.stats[span.seam as usize];
        s.count += 1;
        s.total_ns += dur;
        s.self_ns += dur.saturating_sub(span.child_ns);
        if let Some(i) = span.raw {
            st.raw[i as usize].start_ns = span.start_ns;
            st.raw[i as usize].end_ns = end_ns;
        }
    }

    /// Aggregate of one seam.
    pub fn stat(&self, seam: Seam) -> SeamStat {
        self.state.borrow().stats[seam as usize]
    }

    /// Sum of the aggregates of every seam whose name starts with
    /// `layer.` (e.g. `"backend"`).
    pub fn layer(&self, layer: &str) -> SeamStat {
        let st = self.state.borrow();
        let mut sum = SeamStat::default();
        for (name, s) in SEAM_NAMES.iter().zip(st.stats.iter()) {
            if name.split('.').next() == Some(layer) {
                sum.count += s.count;
                sum.total_ns += s.total_ns;
                sum.self_ns += s.self_ns;
            }
        }
        sum
    }

    /// Per-seam aggregates as a JSON array (seams never entered omitted).
    fn stats_json(&self) -> String {
        let st = self.state.borrow();
        let rows: Vec<String> = SEAM_NAMES
            .iter()
            .zip(st.stats.iter())
            .filter(|(_, s)| s.count > 0)
            .map(|(name, s)| {
                format!(
                    "{{\"name\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                    s.count, s.total_ns, s.self_ns
                )
            })
            .collect();
        format!("[{}]", rows.join(","))
    }

    /// The raw spans as Chrome trace events (`chrome://tracing`, Perfetto),
    /// with the per-seam aggregates of the whole rep beside them.
    pub fn chrome_trace_json(&self) -> String {
        let raw = &self.state.borrow().raw;
        let mut out = String::with_capacity(raw.len() * 120 + 32);
        out.push_str("{\"traceEvents\":[");
        for (i, s) in raw.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, i64::from);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"id\":{}}}}}",
                s.seam.name(),
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.id
            );
        }
        let _ = writeln!(out, "],\"seams\":{}}}", self.stats_json());
        out
    }
}

/// [`Tracer::span`] when a tracer is attached, a plain call otherwise: for
/// the root spans the harness cuts around its own calls into the top layer.
#[inline]
pub fn cut<R>(tr: Option<&Tracer>, seam: Seam, id: u64, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(t) => t.span(seam, id, f),
        None => f(),
    }
}

/// A seam implementation wrapped in host stopwatches. Implements
/// [`PersistenceBackend`] (the db ↔ storage-manager seam) and
/// [`StorageBackend`] (the block ↔ device seam).
pub struct Timed<B> {
    inner: B,
    tr: Rc<Tracer>,
}

impl<B> Timed<B> {
    pub fn new(inner: B, tr: &Rc<Tracer>) -> Self {
        Timed {
            inner,
            tr: Rc::clone(tr),
        }
    }
}

/// Reach the program's own type under an optional [`Timed`] wrapper, so
/// one generic run function can read the same public stats either way.
pub trait Peel {
    type Inner;
    fn peel(&self) -> &Self::Inner;
}

impl<B> Peel for Timed<B> {
    type Inner = B;
    fn peel(&self) -> &B {
        &self.inner
    }
}

macro_rules! peel_identity {
    ($($t:ty),*) => {$(
        impl Peel for $t {
            type Inner = $t;
            fn peel(&self) -> &$t {
                self
            }
        }
    )*};
}
peel_identity!(
    requiem_ssd::Ssd,
    requiem_db::BlockStackBackend,
    requiem_db::CoopLogBackend
);

// Every trait method is forwarded — the defaulted ones too. The real
// backends override the batched read path; a wrapper that fell back to the
// trait's default `submit_reads`/`poll` would silently run the serialized
// shim and change the simulation (tests/fingerprints.rs guards this).
impl<B: PersistenceBackend> PersistenceBackend for Timed<B> {
    fn make_wal(&mut self) -> Box<dyn WalBackend> {
        Box::new(TimedWal {
            inner: self.inner.make_wal(),
            tr: Rc::clone(&self.tr),
        })
    }

    fn page_write(&mut self, now: SimTime, page: PageId) -> SimTime {
        let inner = &mut self.inner;
        self.tr.span(Seam::BackendPageWrite, page.0, || {
            inner.page_write(now, page)
        })
    }

    fn steal_write(&mut self, now: SimTime, page: PageId) -> SimTime {
        let inner = &mut self.inner;
        self.tr.span(Seam::BackendStealWrite, page.0, || {
            inner.steal_write(now, page)
        })
    }

    fn page_read(&mut self, now: SimTime, page: PageId) -> (SimTime, IoStatus) {
        let inner = &mut self.inner;
        self.tr
            .span(Seam::BackendPageRead, page.0, || inner.page_read(now, page))
    }

    fn page_batch(&mut self, now: SimTime, pages: &[PageId]) -> SimTime {
        let inner = &mut self.inner;
        let id = pages.first().map_or(0, |p| p.0);
        self.tr
            .span(Seam::BackendPageBatch, id, || inner.page_batch(now, pages))
    }

    fn free_page(&mut self, now: SimTime, page: PageId) {
        let inner = &mut self.inner;
        self.tr
            .span(Seam::BackendFreePage, page.0, || inner.free_page(now, page))
    }

    fn stats(&self) -> &BackendStats {
        self.inner.stats()
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn attach_probe(&mut self, probe: Probe) {
        self.inner.attach_probe(probe)
    }

    fn relax_submit_order(&mut self) {
        self.inner.relax_submit_order()
    }

    fn read_shim(&mut self) -> Option<&mut ReadShim> {
        self.inner.read_shim()
    }

    fn submit_reads(&mut self, now: SimTime, pages: &[PageId]) -> Vec<CommandTag> {
        let inner = &mut self.inner;
        let id = pages.first().map_or(0, |p| p.0);
        self.tr.span(Seam::BackendSubmitReads, id, || {
            inner.submit_reads(now, pages)
        })
    }

    fn poll(&mut self, now: SimTime) -> Vec<PageRead> {
        let inner = &mut self.inner;
        self.tr.span(Seam::BackendPoll, 0, || inner.poll(now))
    }

    fn next_read_done(&mut self) -> Option<SimTime> {
        let inner = &mut self.inner;
        self.tr
            .span(Seam::BackendNextReadDone, 0, || inner.next_read_done())
    }

    fn reads_in_flight(&mut self) -> usize {
        let inner = &mut self.inner;
        self.tr
            .span(Seam::BackendReadsInFlight, 0, || inner.reads_in_flight())
    }

    fn set_read_window(&mut self, depth: usize) {
        let inner = &mut self.inner;
        self.tr.span(Seam::BackendSetReadWindow, 0, || {
            inner.set_read_window(depth)
        })
    }
}

impl<B: StorageBackend> StorageBackend for Timed<B> {
    fn submit(&mut self, now: SimTime, req: IoRequest) -> IoCompletion {
        let inner = &mut self.inner;
        self.tr
            .span(Seam::SsdSubmit, req.tag.0, || inner.submit(now, req))
    }

    fn capacity_pages(&self) -> u64 {
        self.inner.capacity_pages()
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn attach_probe(&mut self, probe: Probe) {
        self.inner.attach_probe(probe)
    }

    fn self_reporting(&self) -> bool {
        self.inner.self_reporting()
    }
}

/// The box [`PersistenceBackend::make_wal`] hands the engine, wrapped.
struct TimedWal {
    inner: Box<dyn WalBackend>,
    tr: Rc<Tracer>,
}

impl WalBackend for TimedWal {
    fn append(&mut self, lsn: Lsn, bytes: u32) {
        let inner = &mut self.inner;
        self.tr
            .span(Seam::WalAppend, lsn.0, || inner.append(lsn, bytes))
    }

    fn force(&mut self, now: SimTime, to: Lsn) -> WalForce {
        let inner = &mut self.inner;
        self.tr.span(Seam::WalForce, to.0, || inner.force(now, to))
    }

    fn truncate(&mut self, now: SimTime, up_to_byte: u64) {
        let inner = &mut self.inner;
        self.tr.span(Seam::WalTruncate, up_to_byte, || {
            inner.truncate(now, up_to_byte)
        })
    }

    fn recover_scan(&mut self, now: SimTime, offset: u64, bytes: u32) -> (SimTime, IoStatus) {
        let inner = &mut self.inner;
        self.tr.span(Seam::WalRecoverScan, offset, || {
            inner.recover_scan(now, offset, bytes)
        })
    }

    fn stats(&self) -> &WalStats {
        self.inner.stats()
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn force_cause(&self) -> Cause {
        self.inner.force_cause()
    }

    fn wear(&self) -> Option<WearSnapshot> {
        self.inner.wear()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children_and_raw_spans_link_to_parents() {
        let tr = Tracer::new();
        tr.set_enabled(true);
        tr.span(Seam::DbRun, 0, || {
            tr.span(Seam::BackendPoll, 7, || std::hint::black_box(0));
            tr.span(Seam::WalForce, 9, || std::hint::black_box(0));
        });
        let (run, backend, wal) = (tr.stat(Seam::DbRun), tr.layer("backend"), tr.layer("wal"));
        assert_eq!((run.count, backend.count, wal.count), (1, 1, 1));
        assert_eq!(
            run.self_ns + backend.total_ns + wal.total_ns,
            run.total_ns,
            "siblings tile their parent"
        );
        assert_eq!(
            backend.self_ns, backend.total_ns,
            "leaves are all self time"
        );
        let raw = &tr.state.borrow().raw;
        assert_eq!(raw.len(), 3);
        assert_eq!(
            (raw[0].parent, raw[1].parent, raw[2].parent),
            (None, Some(0), Some(0))
        );
        assert_eq!((raw[1].id, raw[2].id), (7, 9));
        assert!(raw[0].start_ns <= raw[1].start_ns && raw[2].end_ns <= raw[0].end_ns);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tr = Tracer::new();
        assert_eq!(tr.span(Seam::SsdSubmit, 1, || 42), 42);
        assert_eq!(tr.stat(Seam::SsdSubmit).count, 0);
        assert!(tr.chrome_trace_json().starts_with("{\"traceEvents\":[],"));
    }
}
