//! Cross-layer observability bus.
//!
//! Every layer of the simulated stack (flash timing, SSD controller,
//! block layer, storage manager) can emit [`SpanEvent`]s into a shared
//! [`Probe`]: *this command spent `[start, end)` in layer L for cause C
//! on resource R*. One bus per experiment replaces per-layer ad-hoc
//! metric structs with a single composable view: any host command can be
//! decomposed into per-layer latency (queueing vs. channel transfer vs.
//! cell read vs. GC stall vs. buffer hit), and aggregate per-layer
//! totals fall out of the same stream.
//!
//! ## Span model
//!
//! * A **command** is opened by the outermost layer that accepts a host
//!   operation ([`Probe::open_command`]) and closed with its completion
//!   time. If a lower layer also calls `open_command` while a command is
//!   open (e.g. `Ssd::read` under the block layer), it joins the open
//!   command instead of nesting — so one host op maps to one command id
//!   no matter where the stack was entered.
//! * Spans emitted while a command is open are attributed to it and MUST
//!   tile the command's `[submit, done)` interval without overlap: each
//!   span is *exclusive* time on the critical path. The sum of a
//!   command's span durations therefore equals its end-to-end latency —
//!   tested property, not convention.
//! * Work that runs on device time but off the command's critical path
//!   (GC relocations, buffer flushes after a buffered-write completion,
//!   discarded translation traffic) is emitted inside a *background*
//!   scope ([`Probe::background`]) and recorded with `cmd: None`.
//!   Its cost reaches host commands only indirectly — as queueing delay
//!   on shared resources — which the resource layer attributes via
//!   occupant tags ([`crate::resource::Occupant`]) and surfaces here as
//!   `GcStall` / `WearStall` / `MergeStall` spans on the stalled command.
//!
//! The bus always maintains aggregate per-`(layer, cause)` statistics;
//! retaining the raw event list is opt-in ([`Probe::recording`]), and
//! [`Probe::aggregated`] drops closed command records as well, so
//! million-op experiments run in memory bounded by what is in flight.

use crate::resource::Occupant;
use crate::time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// The stack layer a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// Application / experiment harness.
    App,
    /// Storage manager (key-value / database engine).
    Db,
    /// Write-ahead log inside the storage manager.
    Wal,
    /// OS block layer (submission, queueing, completion).
    Block,
    /// SSD controller firmware (fixed overheads, mapping decisions).
    Controller,
    /// FTL mapping traffic (DFTL translation reads/writes, rebuild scans).
    Mapping,
    /// Controller write buffer.
    Buffer,
    /// Flash channel (command/address cycles, data transfers).
    Channel,
    /// Flash cell operations (tR / tPROG / tBERS) and waits for chips.
    Flash,
    /// Host interface link (SATA/NVMe transfer).
    HostLink,
}

impl Layer {
    /// Stable lowercase name (JSON keys, reports).
    pub fn as_str(self) -> &'static str {
        match self {
            Layer::App => "app",
            Layer::Db => "db",
            Layer::Wal => "wal",
            Layer::Block => "block",
            Layer::Controller => "controller",
            Layer::Mapping => "mapping",
            Layer::Buffer => "buffer",
            Layer::Channel => "channel",
            Layer::Flash => "flash",
            Layer::HostLink => "host_link",
        }
    }
}

/// Why the time elapsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Cause {
    /// Fixed processing overhead (controller firmware, CPU submit path).
    Overhead,
    /// Command/address cycles on a channel.
    Command,
    /// Waiting for a resource occupied by other host traffic.
    Queue,
    /// Waiting for a resource occupied by garbage collection.
    GcStall,
    /// Waiting for a resource occupied by wear leveling.
    WearStall,
    /// Waiting for a resource occupied by an FTL merge.
    MergeStall,
    /// Waiting for a resource occupied by mapping-translation traffic.
    TranslationStall,
    /// Waiting for a resource occupied by error recovery (another
    /// command's retry ladder, parity rebuild, or salvage).
    RecoveryStall,
    /// Error-recovery work on the command's own critical path: retry
    /// re-reads, ECC escalation, parity-rebuild reads.
    Recovery,
    /// Data movement on a bus (channel or host link).
    Transfer,
    /// Flash cell read (tR).
    CellRead,
    /// Flash cell program (tPROG).
    CellProgram,
    /// Flash block erase (tBERS).
    CellErase,
    /// Served out of the write buffer (zero-duration marker).
    BufferHit,
    /// Waiting for write-buffer space (buffer-full stall).
    BufferStall,
    /// Mapping translation traffic (DFTL page reads/writes, boot scan).
    Translation,
    /// Byte-granular persist to PCM on the memory bus: line writes plus
    /// the persist barrier (the paper's §3 synchronous-persistence path,
    /// distinct from `Transfer` which is a block-device bus).
    PcmPersist,
}

impl Cause {
    /// Stable lowercase name (JSON keys, reports).
    pub fn as_str(self) -> &'static str {
        match self {
            Cause::Overhead => "overhead",
            Cause::Command => "command",
            Cause::Queue => "queue",
            Cause::GcStall => "gc_stall",
            Cause::WearStall => "wear_stall",
            Cause::MergeStall => "merge_stall",
            Cause::TranslationStall => "translation_stall",
            Cause::RecoveryStall => "recovery_stall",
            Cause::Recovery => "recovery",
            Cause::Transfer => "transfer",
            Cause::CellRead => "cell_read",
            Cause::CellProgram => "cell_program",
            Cause::CellErase => "cell_erase",
            Cause::BufferHit => "buffer_hit",
            Cause::BufferStall => "buffer_stall",
            Cause::Translation => "translation",
            Cause::PcmPersist => "pcm_persist",
        }
    }

    /// The stall cause charged to a command that waited behind a
    /// resource occupied by `occ`.
    pub fn from_occupant(occ: Occupant) -> Cause {
        match occ {
            Occupant::Host => Cause::Queue,
            Occupant::Gc => Cause::GcStall,
            Occupant::Wear => Cause::WearStall,
            Occupant::Merge => Cause::MergeStall,
            Occupant::Translation => Cause::TranslationStall,
            Occupant::Recovery => Cause::RecoveryStall,
        }
    }
}

/// One attributed interval of simulated time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Command this span is on the critical path of (`None` = background).
    pub cmd: Option<u64>,
    /// Stack layer.
    pub layer: Layer,
    /// Why the time elapsed.
    pub cause: Cause,
    /// Resource involved, when one is (`"chip3"`, `"chan0"`, …).
    pub resource: Option<String>,
    /// Span start (virtual time).
    pub start: SimTime,
    /// Span end (virtual time).
    pub end: SimTime,
}

impl SpanEvent {
    /// Span duration.
    pub fn duration(&self) -> SimDuration {
        self.end.since(self.start)
    }
}

/// Record of one opened command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandRecord {
    /// Command id (unique per bus).
    pub id: u64,
    /// Command kind (`"read"`, `"write"`, `"trim"`, …).
    pub kind: &'static str,
    /// Submission instant.
    pub submit: SimTime,
    /// Completion instant (`None` while open).
    pub done: Option<SimTime>,
    /// Number of spans attributed to this command so far. Maintained
    /// even when raw events are not retained, so queue-pair engines can
    /// report span counts per [`crate::cmd::IoCompletion`] cheaply.
    pub spans: u32,
}

/// Aggregate statistics for one `(layer, cause)` bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of spans.
    pub count: u64,
    /// Total attributed time.
    pub total: SimDuration,
}

/// Per-`(layer, cause)` aggregate view over everything the bus saw.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProbeSummary {
    /// Aggregates keyed by `(layer, cause)`.
    pub by_layer_cause: BTreeMap<(Layer, Cause), SpanStat>,
    /// Commands completed, by kind.
    pub commands: BTreeMap<&'static str, u64>,
    /// Non-`Ok` completion statuses observed, by status name (see
    /// [`crate::fault::IoStatus::as_str`]). Clean completions are not
    /// counted, so a zero-fault run leaves this empty — and the JSON
    /// summary byte-identical to a fault-oblivious build.
    pub statuses: BTreeMap<&'static str, u64>,
}

impl ProbeSummary {
    /// Total attributed time for `cause` across all layers.
    pub fn cause_total(&self, cause: Cause) -> SimDuration {
        self.by_layer_cause
            .iter()
            .filter(|((_, c), _)| *c == cause)
            .map(|(_, s)| s.total)
            .fold(SimDuration::ZERO, |a, b| a + b)
    }

    /// Serialize as a JSON object (hand-rolled; no serializer dependency):
    /// `{"commands": {...}, "spans": [{"layer": .., "cause": ..,
    /// "count": .., "total_ns": ..}, ...]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"commands\":{");
        let mut first = true;
        for (kind, n) in &self.commands {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{kind}\":{n}"));
        }
        out.push('}');
        if !self.statuses.is_empty() {
            out.push_str(",\"statuses\":{");
            let mut first = true;
            for (status, n) in &self.statuses {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!("\"{status}\":{n}"));
            }
            out.push('}');
        }
        out.push_str(",\"spans\":[");
        let mut first = true;
        for ((layer, cause), stat) in &self.by_layer_cause {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"layer\":\"{}\",\"cause\":\"{}\",\"count\":{},\"total_ns\":{}}}",
                layer.as_str(),
                cause.as_str(),
                stat.count,
                stat.total.as_nanos()
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Aggregate statistics for one `(layer, cause, resource)` bucket, as
/// reported by [`Probe::resource_summary`] in aggregated mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceStat {
    /// Stack layer.
    pub layer: Layer,
    /// Why the time elapsed.
    pub cause: Cause,
    /// Resource name (`"chip3"`, `"chan0"`, …).
    pub resource: String,
    /// Number of spans.
    pub count: u64,
    /// Total attributed time.
    pub total: SimDuration,
}

/// What a bus keeps besides its [`ProbeSummary`]; each enabled
/// [`Probe`] constructor sets one.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Every command record and every span event ([`Probe::recording`]).
    #[default]
    Recording,
    /// The open command records only — memory stays O(in-flight), not
    /// O(commands) — and spans folded into per-resource totals
    /// ([`Probe::aggregated`]).
    Aggregated,
}

#[derive(Debug, Default)]
struct ProbeBus {
    mode: Mode,
    events: Vec<SpanEvent>,
    commands: Vec<CommandRecord>,
    /// Command id → position in `commands`, for O(log n) attribution
    /// instead of the reverse linear scans the bus used to do per span.
    index: BTreeMap<u64, usize>,
    open: Option<u64>,
    /// Position of the open command in `commands`; valid iff `open` is
    /// `Some` (cached so the per-span hot path does no lookup at all).
    open_idx: usize,
    next_cmd: u64,
    background_depth: u32,
    summary: ProbeSummary,
    /// Interned resource names (aggregated mode); id = first-seen order.
    res_names: Vec<String>,
    res_ids: BTreeMap<String, u32>,
    by_resource: BTreeMap<(Layer, Cause, u32), SpanStat>,
}

impl ProbeBus {
    fn intern(&mut self, resource: &str) -> u32 {
        if let Some(&id) = self.res_ids.get(resource) {
            return id;
        }
        let id = self.res_names.len() as u32;
        self.res_names.push(resource.to_string());
        self.res_ids.insert(resource.to_string(), id);
        id
    }

    /// Emit one span (shared by [`Probe::span`] and [`SpanBatch::span`],
    /// which differ only in how the `RefCell` borrow is amortized).
    fn push_span(
        &mut self,
        layer: Layer,
        cause: Cause,
        resource: &str,
        start: SimTime,
        end: SimTime,
    ) {
        debug_assert!(end >= start, "span ends before it starts");
        let cmd = if self.background_depth > 0 {
            None
        } else {
            self.open
        };
        let stat = self
            .summary
            .by_layer_cause
            .entry((layer, cause))
            .or_default();
        stat.count += 1;
        stat.total += end.since(start);
        if cmd.is_some() {
            self.commands[self.open_idx].spans += 1;
        }
        if self.mode == Mode::Aggregated && !resource.is_empty() {
            let rid = self.intern(resource);
            let stat = self.by_resource.entry((layer, cause, rid)).or_default();
            stat.count += 1;
            stat.total += end.since(start);
        }
        if self.mode == Mode::Recording {
            let resource = if resource.is_empty() {
                None
            } else {
                Some(resource.to_string())
            };
            self.events.push(SpanEvent {
                cmd,
                layer,
                cause,
                resource,
                start,
                end,
            });
        }
    }

    fn push_wait_spans(
        &mut self,
        layer: Layer,
        resource: &str,
        from: SimTime,
        to: SimTime,
        blame: &[(Occupant, SimDuration)],
    ) {
        if to <= from {
            return;
        }
        let mut cursor = from;
        for &(occ, dur) in blame {
            if dur == SimDuration::ZERO {
                continue;
            }
            let end = cursor + dur;
            self.push_span(layer, Cause::from_occupant(occ), resource, cursor, end);
            cursor = end;
        }
        debug_assert_eq!(cursor, to, "blame does not tile the wait interval");
    }

    fn close_command(&mut self, id: u64, done: SimTime) {
        if let Some(&pos) = self.index.get(&id) {
            let kind = self.commands[pos].kind;
            *self.summary.commands.entry(kind).or_insert(0) += 1;
            if self.mode == Mode::Aggregated {
                // swap-remove keeps close O(1); fix the moved record's
                // index entry (and the open cache, should it be open).
                self.commands.swap_remove(pos);
                self.index.remove(&id);
                if pos < self.commands.len() {
                    let moved = self.commands[pos].id;
                    self.index.insert(moved, pos);
                    if self.open == Some(moved) {
                        self.open_idx = pos;
                    }
                }
            } else {
                self.commands[pos].done = Some(done);
            }
        }
        self.open = None;
    }

    /// Remove an aborted (never-closed) record, preserving record order.
    /// Aborts are error-path-only, so the O(n) index shift is fine.
    fn abort_command(&mut self, id: u64) {
        if self.open == Some(id) {
            self.open = None;
        }
        let Some(&pos) = self.index.get(&id) else {
            return;
        };
        if self.commands[pos].done.is_some() {
            return;
        }
        self.commands.remove(pos);
        self.index.remove(&id);
        for p in self.index.values_mut() {
            if *p > pos {
                *p -= 1;
            }
        }
        if let Some(open) = self.open {
            if let Some(&op) = self.index.get(&open) {
                self.open_idx = op;
            }
        }
    }
}

/// Scope handle returned by [`Probe::open_command`]; close it with the
/// completion time. A scope that *joined* an already-open command (or a
/// disabled probe) closes as a no-op.
///
/// Every scope must end in [`close`](Self::close),
/// [`detach`](Self::detach) or [`abort`](Self::abort), on every path, the
/// probe on or off: in debug builds a scope dropped any other way panics
/// (unless the thread is already unwinding), so a `?` or an early return
/// past a live scope fails the first test that takes it. Release builds
/// keep a backstop: dropping an owned scope aborts the command — the
/// unfinished record is discarded and the bus reopens for the next one.
#[must_use = "close the command scope with its completion time"]
pub struct CommandScope {
    bus: Option<Rc<RefCell<ProbeBus>>>,
    id: u64,
    owned: bool,
}

impl CommandScope {
    /// The command id (0 when the probe is disabled).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Detach the scope from the bus, leaving the command **open** for
    /// later [`Probe::resume`]. Returns the command id.
    ///
    /// This is the out-of-order-completion hook: a queue-pair engine
    /// opens a command at submission, detaches it so other commands can
    /// use the bus, and resumes it when the completion is reaped to emit
    /// the completion-path spans and close. A joined (non-owned) or
    /// disabled scope detaches as a no-op and returns its id.
    pub fn detach(mut self) -> u64 {
        let owned = self.owned;
        if let (Some(bus), true) = (self.bus.take(), owned) {
            let mut b = bus.borrow_mut();
            debug_assert_eq!(b.open, Some(self.id), "detach of a non-open command");
            b.open = None;
        }
        let id = self.id;
        std::mem::forget(self);
        id
    }

    /// Abort the command: discard the unfinished record and reopen the
    /// bus. Error paths say so (`scope.abort(); return Err(e);`): a scope
    /// merely dropped there is a leak, which debug builds panic on.
    pub fn abort(mut self) {
        self.abort_owned();
        std::mem::forget(self);
    }

    /// Close the command at `done`.
    #[inline]
    pub fn close(mut self, done: SimTime) {
        let owned = self.owned;
        if let (Some(bus), true) = (self.bus.take(), owned) {
            bus.borrow_mut().close_command(self.id, done);
        }
        std::mem::forget(self);
    }

    fn abort_owned(&mut self) {
        if let (Some(bus), true) = (self.bus.take(), self.owned) {
            bus.borrow_mut().abort_command(self.id);
        }
    }
}

/// Only a scope that was neither closed, detached nor aborted drops: the
/// three consume it without running this.
impl Drop for CommandScope {
    #[inline]
    fn drop(&mut self) {
        self.abort_owned();
        debug_assert!(
            std::thread::panicking(),
            "command scope {} dropped without close, detach or abort",
            self.id
        );
    }
}

/// RAII guard for a background scope (see [`Probe::background`]).
pub struct BackgroundGuard {
    probe: Probe,
}

impl Drop for BackgroundGuard {
    #[inline]
    fn drop(&mut self) {
        self.probe.exit_background();
    }
}

/// Cheaply clonable handle to a shared observability bus. A default
/// (`Probe::disabled`) handle is a no-op with no allocation behind it,
/// so instrumented hot paths cost one branch when tracing is off.
#[derive(Debug, Clone, Default)]
pub struct Probe {
    bus: Option<Rc<RefCell<ProbeBus>>>,
}

impl Probe {
    /// A disabled probe: every emission is a no-op.
    pub fn disabled() -> Self {
        Probe { bus: None }
    }

    /// An enabled probe that retains every command record and every
    /// [`SpanEvent`] (for span-level tests and traces; memory grows with
    /// event count).
    pub fn recording() -> Self {
        Probe::with_mode(Mode::Recording)
    }

    /// An enabled probe for long-horizon runs: spans fold into
    /// per-`(layer, cause, resource)` accumulators ([`Probe::resource_summary`])
    /// and closed command records are dropped after counting, so memory
    /// stays O(in-flight commands + distinct resources) instead of
    /// O(events). The [`ProbeSummary`] is maintained identically to the
    /// recording mode — same totals, same JSON — on the same event stream.
    pub fn aggregated() -> Self {
        Probe::with_mode(Mode::Aggregated)
    }

    fn with_mode(mode: Mode) -> Self {
        let bus = ProbeBus {
            mode,
            ..ProbeBus::default()
        };
        Probe {
            bus: Some(Rc::new(RefCell::new(bus))),
        }
    }

    /// Whether the probe is attached to a bus.
    pub fn is_enabled(&self) -> bool {
        self.bus.is_some()
    }

    /// Open (or join) a command submitted at `submit`. `#[inline]`, like
    /// every entry point below that a disabled probe answers with a null
    /// check: the per-command paths of the devices and the block stack
    /// call them on every command, from other crates.
    #[inline]
    pub fn open_command(&self, kind: &'static str, submit: SimTime) -> CommandScope {
        match &self.bus {
            Some(bus) => Self::open_on(bus, kind, submit),
            None => CommandScope {
                bus: None,
                id: 0,
                owned: false,
            },
        }
    }

    fn open_on(bus: &Rc<RefCell<ProbeBus>>, kind: &'static str, submit: SimTime) -> CommandScope {
        let mut b = bus.borrow_mut();
        if let Some(open) = b.open {
            // join: inner layer of an already-open command
            return CommandScope {
                bus: Some(bus.clone()),
                id: open,
                owned: false,
            };
        }
        b.next_cmd += 1;
        let id = b.next_cmd;
        b.open = Some(id);
        let pos = b.commands.len();
        b.open_idx = pos;
        b.index.insert(id, pos);
        b.commands.push(CommandRecord {
            id,
            kind,
            submit,
            done: None,
            spans: 0,
        });
        CommandScope {
            bus: Some(bus.clone()),
            id,
            owned: true,
        }
    }

    /// Reattach a command previously [`CommandScope::detach`]ed. The
    /// returned scope owns the command again: spans emitted while it is
    /// open are attributed to it, and it must be closed (or re-detached)
    /// like any other scope. Resuming id 0 (disabled-probe sentinel)
    /// yields a no-op scope.
    ///
    /// # Panics
    /// Debug-asserts that no other command is currently open.
    pub fn resume(&self, id: u64) -> CommandScope {
        let Some(bus) = &self.bus else {
            return CommandScope {
                bus: None,
                id: 0,
                owned: false,
            };
        };
        if id == 0 {
            return CommandScope {
                bus: None,
                id: 0,
                owned: false,
            };
        }
        let mut b = bus.borrow_mut();
        debug_assert!(b.open.is_none(), "resume while another command is open");
        let Some(&pos) = b.index.get(&id) else {
            debug_assert!(false, "resume of unknown or already-closed command {id}");
            return CommandScope {
                bus: None,
                id: 0,
                owned: false,
            };
        };
        debug_assert!(
            b.commands[pos].done.is_none(),
            "resume of already-closed command {id}"
        );
        b.open = Some(id);
        b.open_idx = pos;
        CommandScope {
            bus: Some(bus.clone()),
            id,
            owned: true,
        }
    }

    /// Number of spans attributed to command `id` so far (0 for an
    /// unknown id or a disabled probe). Works without event retention.
    #[inline]
    pub fn command_span_count(&self, id: u64) -> u32 {
        self.bus
            .as_ref()
            .and_then(|b| {
                let b = b.borrow();
                b.index.get(&id).map(|&pos| b.commands[pos].spans)
            })
            .unwrap_or(0)
    }

    /// Emit one span. Attributed to the open command unless the bus is
    /// inside a background scope (or no command is open). Zero-duration
    /// spans are legal (markers such as [`Cause::BufferHit`]).
    #[inline]
    pub fn span(&self, layer: Layer, cause: Cause, resource: &str, start: SimTime, end: SimTime) {
        if let Some(bus) = &self.bus {
            bus.borrow_mut()
                .push_span(layer, cause, resource, start, end);
        }
    }

    /// Emit a wait interval `[from, to)` decomposed into per-occupant
    /// stall spans (see [`crate::resource::Resource::blame_into`]). Sub-span
    /// boundaries are synthetic but durations are exact.
    #[inline]
    pub fn wait_spans(
        &self,
        layer: Layer,
        resource: &str,
        from: SimTime,
        to: SimTime,
        blame: &[(Occupant, SimDuration)],
    ) {
        if let Some(bus) = &self.bus {
            bus.borrow_mut()
                .push_wait_spans(layer, resource, from, to, blame);
        }
    }

    /// Borrow the bus once for a run of span emissions. One flash
    /// operation emits three to five spans (channel command, stall
    /// decomposition, cell op, transfers); batching them through a single
    /// guard replaces that many `RefCell` round-trips with one.
    ///
    /// Returns `None` when the probe is disabled — callers keep their
    /// existing `is_enabled()` fast path. The guard must be dropped
    /// before any other probe call (scope open/close, `summary()`), or
    /// the bus `RefCell` will panic; keep batches straight-line.
    /// `#[inline]` so that a disabled probe costs callers in other crates
    /// a null check, not a call per emission.
    #[inline]
    pub fn batch(&self) -> Option<SpanBatch<'_>> {
        self.bus.as_ref().map(|b| SpanBatch {
            bus: b.borrow_mut(),
        })
    }

    /// Count a non-`Ok` completion status in the summary (see
    /// [`ProbeSummary::statuses`]). Callers pass
    /// [`crate::fault::IoStatus::as_str`]; `"ok"` is ignored so clean
    /// runs leave the summary untouched.
    #[inline]
    pub fn note_status(&self, status: &'static str) {
        if status == "ok" {
            return;
        }
        if let Some(b) = &self.bus {
            *b.borrow_mut().summary.statuses.entry(status).or_insert(0) += 1;
        }
    }

    /// Enter a background scope: spans emitted until the matching
    /// [`Probe::exit_background`] carry `cmd: None`. Private: the
    /// [`Probe::background`] guard is the only pairing, so an early
    /// return cannot leave the bus in background mode.
    #[inline]
    fn enter_background(&self) {
        if let Some(b) = &self.bus {
            b.borrow_mut().background_depth += 1;
        }
    }

    /// Enter a background scope released when the returned guard drops.
    #[inline]
    pub fn background(&self) -> BackgroundGuard {
        self.enter_background();
        BackgroundGuard {
            probe: self.clone(),
        }
    }

    /// Leave the innermost background scope.
    #[inline]
    fn exit_background(&self) {
        if let Some(b) = &self.bus {
            let mut b = b.borrow_mut();
            debug_assert!(b.background_depth > 0, "unbalanced exit_background");
            b.background_depth = b.background_depth.saturating_sub(1);
        }
    }

    /// Snapshot of the aggregate per-`(layer, cause)` view.
    pub fn summary(&self) -> ProbeSummary {
        self.bus
            .as_ref()
            .map(|b| b.borrow().summary.clone())
            .unwrap_or_default()
    }

    /// All retained events (empty unless built with [`Probe::recording`]).
    /// Clones the whole list; prefer [`Probe::events_ref`] for read-only
    /// walks.
    pub fn events(&self) -> Vec<SpanEvent> {
        self.bus
            .as_ref()
            .map(|b| b.borrow().events.clone())
            .unwrap_or_default()
    }

    /// All command records (in aggregated mode, the in-flight ones only).
    /// Clones the whole list; prefer [`Probe::commands_ref`] for
    /// read-only walks.
    pub fn commands(&self) -> Vec<CommandRecord> {
        self.bus
            .as_ref()
            .map(|b| b.borrow().commands.clone())
            .unwrap_or_default()
    }

    /// Borrow the retained events without cloning. The guard keeps the
    /// bus borrowed: drop it before emitting any span or opening a
    /// command, or the bus `RefCell` will panic.
    pub fn events_ref(&self) -> EventsRef<'_> {
        EventsRef {
            inner: self.bus.as_ref().map(|b| b.borrow()),
        }
    }

    /// Borrow the command records without cloning (same borrow caveat as
    /// [`Probe::events_ref`]).
    pub fn commands_ref(&self) -> CommandsRef<'_> {
        CommandsRef {
            inner: self.bus.as_ref().map(|b| b.borrow()),
        }
    }

    /// Per-`(layer, cause, resource)` totals, sorted by layer, cause,
    /// then resource name. Populated only in [`Probe::aggregated`] mode;
    /// empty otherwise (recording mode keeps the raw events instead —
    /// fold them yourself if you need this view there).
    pub fn resource_summary(&self) -> Vec<ResourceStat> {
        let Some(bus) = &self.bus else {
            return Vec::new();
        };
        let b = bus.borrow();
        let mut v: Vec<ResourceStat> = b
            .by_resource
            .iter()
            .map(|(&(layer, cause, rid), stat)| ResourceStat {
                layer,
                cause,
                resource: b.res_names[rid as usize].clone(),
                count: stat.count,
                total: stat.total,
            })
            .collect();
        v.sort_by(|a, b| (a.layer, a.cause, &a.resource).cmp(&(b.layer, b.cause, &b.resource)));
        v
    }

    /// Retained events on the critical path of command `id`, in
    /// chronological order.
    pub fn command_spans(&self, id: u64) -> Vec<SpanEvent> {
        let mut v: Vec<SpanEvent> = self
            .events_ref()
            .iter()
            .filter(|e| e.cmd == Some(id))
            .cloned()
            .collect();
        v.sort_by_key(|e| (e.start, e.end));
        v
    }
}

/// Borrowed view of the retained events (see [`Probe::events_ref`]).
/// Derefs to `[SpanEvent]`; empty for a disabled probe.
pub struct EventsRef<'a> {
    inner: Option<std::cell::Ref<'a, ProbeBus>>,
}

impl std::ops::Deref for EventsRef<'_> {
    type Target = [SpanEvent];
    fn deref(&self) -> &[SpanEvent] {
        self.inner.as_ref().map_or(&[], |b| b.events.as_slice())
    }
}

/// Borrowed view of the command records (see [`Probe::commands_ref`]).
/// Derefs to `[CommandRecord]`; empty for a disabled probe.
pub struct CommandsRef<'a> {
    inner: Option<std::cell::Ref<'a, ProbeBus>>,
}

impl std::ops::Deref for CommandsRef<'_> {
    type Target = [CommandRecord];
    fn deref(&self) -> &[CommandRecord] {
        self.inner.as_ref().map_or(&[], |b| b.commands.as_slice())
    }
}

/// Single-borrow span emission guard (see [`Probe::batch`]). Emits
/// exactly what the equivalent sequence of [`Probe::span`] /
/// [`Probe::wait_spans`] calls would — same events, same summary — while
/// holding the bus borrow once across the run.
pub struct SpanBatch<'a> {
    bus: std::cell::RefMut<'a, ProbeBus>,
}

impl SpanBatch<'_> {
    /// Emit one span (see [`Probe::span`]).
    pub fn span(
        &mut self,
        layer: Layer,
        cause: Cause,
        resource: &str,
        start: SimTime,
        end: SimTime,
    ) {
        self.bus.push_span(layer, cause, resource, start, end);
    }

    /// Emit a decomposed wait interval (see [`Probe::wait_spans`]).
    pub fn wait_spans(
        &mut self,
        layer: Layer,
        resource: &str,
        from: SimTime,
        to: SimTime,
        blame: &[(Occupant, SimDuration)],
    ) {
        self.bus.push_wait_spans(layer, resource, from, to, blame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::MICROSECOND;

    #[test]
    fn disabled_probe_is_inert() {
        let p = Probe::disabled();
        assert!(!p.is_enabled());
        let scope = p.open_command("read", SimTime::ZERO);
        p.span(
            Layer::Flash,
            Cause::CellRead,
            "chip0",
            SimTime::ZERO,
            SimTime::from_micros(50),
        );
        scope.close(SimTime::from_micros(50));
        assert!(p.events().is_empty());
        assert!(p.summary().by_layer_cause.is_empty());
    }

    #[test]
    fn spans_attribute_to_open_command() {
        let p = Probe::recording();
        let scope = p.open_command("read", SimTime::ZERO);
        let id = scope.id();
        p.span(
            Layer::Flash,
            Cause::CellRead,
            "chip0",
            SimTime::ZERO,
            SimTime::from_micros(50),
        );
        scope.close(SimTime::from_micros(50));
        let spans = p.command_spans(id);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].duration(), MICROSECOND * 50);
        assert_eq!(p.summary().commands.get("read"), Some(&1));
    }

    #[test]
    fn nested_open_joins_outer_command() {
        let p = Probe::recording();
        let outer = p.open_command("write", SimTime::ZERO);
        let inner = p.open_command("ssd_write", SimTime::ZERO);
        assert_eq!(inner.id(), outer.id());
        p.span(
            Layer::Flash,
            Cause::CellProgram,
            "chip1",
            SimTime::ZERO,
            SimTime::from_micros(200),
        );
        inner.close(SimTime::from_micros(200));
        // inner close must not close the outer command
        p.span(
            Layer::Block,
            Cause::Overhead,
            "",
            SimTime::from_micros(200),
            SimTime::from_micros(201),
        );
        let id = outer.id();
        outer.close(SimTime::from_micros(201));
        assert_eq!(p.command_spans(id).len(), 2);
        assert_eq!(p.summary().commands.len(), 1);
    }

    #[test]
    fn background_spans_are_unattributed() {
        let p = Probe::recording();
        let scope = p.open_command("write", SimTime::ZERO);
        p.enter_background();
        p.span(
            Layer::Flash,
            Cause::CellErase,
            "chip0",
            SimTime::ZERO,
            SimTime::from_micros(2000),
        );
        p.exit_background();
        let id = scope.id();
        scope.close(SimTime::from_micros(10));
        assert!(p.command_spans(id).is_empty());
        // ...but still aggregated
        assert_eq!(
            p.summary().cause_total(Cause::CellErase),
            MICROSECOND * 2000
        );
    }

    #[test]
    fn wait_spans_tile_interval() {
        let p = Probe::recording();
        let scope = p.open_command("read", SimTime::ZERO);
        let blame = [
            (Occupant::Gc, MICROSECOND * 3),
            (Occupant::Host, MICROSECOND * 2),
        ];
        p.wait_spans(
            Layer::Flash,
            "chip0",
            SimTime::ZERO,
            SimTime::from_micros(5),
            &blame,
        );
        let id = scope.id();
        scope.close(SimTime::from_micros(5));
        let spans = p.command_spans(id);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].cause, Cause::GcStall);
        assert_eq!(spans[1].cause, Cause::Queue);
        let total: SimDuration = spans
            .iter()
            .map(SpanEvent::duration)
            .fold(SimDuration::ZERO, |a, b| a + b);
        assert_eq!(total, MICROSECOND * 5);
    }

    /// The drop aborts the command in every build; debug builds also
    /// panic at it.
    #[test]
    fn dropped_scope_aborts_command() {
        let p = Probe::recording();
        let dropped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _scope = p.open_command("write", SimTime::ZERO);
            // error path: scope dropped without close
        }));
        let message = dropped
            .as_ref()
            .err()
            .and_then(|e| e.downcast_ref::<String>());
        assert_eq!(
            message.is_some_and(|m| m.contains("dropped without close")),
            cfg!(debug_assertions),
            "{message:?}"
        );
        assert!(p.commands().is_empty());
        // the bus is reusable afterwards
        let scope = p.open_command("read", SimTime::ZERO);
        assert!(scope.id() > 0);
        scope.close(SimTime::from_micros(1));
        assert_eq!(p.summary().commands.get("read"), Some(&1));
    }

    #[test]
    fn background_guard_restores_depth() {
        let p = Probe::recording();
        let scope = p.open_command("write", SimTime::ZERO);
        {
            let _bg = p.background();
            p.span(
                Layer::Flash,
                Cause::CellProgram,
                "chip0",
                SimTime::ZERO,
                SimTime::from_micros(1),
            );
        }
        p.span(
            Layer::Controller,
            Cause::Overhead,
            "",
            SimTime::from_micros(1),
            SimTime::from_micros(2),
        );
        let id = scope.id();
        scope.close(SimTime::from_micros(2));
        // only the post-guard span is attributed
        assert_eq!(p.command_spans(id).len(), 1);
    }

    #[test]
    fn detach_resume_interleaves_commands() {
        let p = Probe::recording();
        // Command A: submit-path span, then detach.
        let a = p.open_command("read", SimTime::ZERO);
        let a_id = a.id();
        p.span(
            Layer::Block,
            Cause::Overhead,
            "",
            SimTime::ZERO,
            SimTime::from_micros(1),
        );
        let a_id2 = a.detach();
        assert_eq!(a_id, a_id2);
        // Command B runs while A is in flight.
        let b = p.open_command("write", SimTime::ZERO);
        let b_id = b.id();
        assert_ne!(a_id, b_id);
        p.span(
            Layer::Flash,
            Cause::CellProgram,
            "chip0",
            SimTime::from_micros(1),
            SimTime::from_micros(3),
        );
        let b_id2 = b.detach();
        assert_eq!(b_id, b_id2);
        // B completes first (out of submission order).
        let b = p.resume(b_id);
        p.span(
            Layer::Block,
            Cause::Overhead,
            "irq",
            SimTime::from_micros(3),
            SimTime::from_micros(4),
        );
        b.close(SimTime::from_micros(4));
        // Then A.
        let a = p.resume(a_id);
        p.span(
            Layer::Flash,
            Cause::CellRead,
            "chip1",
            SimTime::from_micros(1),
            SimTime::from_micros(6),
        );
        a.close(SimTime::from_micros(6));
        assert_eq!(p.command_span_count(a_id), 2);
        assert_eq!(p.command_span_count(b_id), 2);
        assert_eq!(p.command_spans(a_id).len(), 2);
        assert_eq!(p.command_spans(b_id).len(), 2);
        assert_eq!(p.summary().commands.get("read"), Some(&1));
        assert_eq!(p.summary().commands.get("write"), Some(&1));
    }

    #[test]
    fn detach_resume_noop_when_disabled() {
        let p = Probe::disabled();
        let s = p.open_command("read", SimTime::ZERO);
        let id = s.detach();
        assert_eq!(id, 0);
        let s = p.resume(id);
        s.close(SimTime::from_micros(1));
        assert_eq!(p.command_span_count(0), 0);
    }

    #[test]
    fn aggregated_mode_matches_recording_summary() {
        let mk = |p: &Probe| {
            let scope = p.open_command("read", SimTime::ZERO);
            p.span(
                Layer::Flash,
                Cause::CellRead,
                "chip0",
                SimTime::ZERO,
                SimTime::from_micros(50),
            );
            p.span(
                Layer::Channel,
                Cause::Transfer,
                "chan0",
                SimTime::from_micros(50),
                SimTime::from_micros(60),
            );
            scope.close(SimTime::from_micros(60));
            let bg = p.background();
            p.span(
                Layer::Flash,
                Cause::CellErase,
                "chip0",
                SimTime::from_micros(60),
                SimTime::from_micros(2060),
            );
            drop(bg);
        };
        let rec = Probe::recording();
        let agg = Probe::aggregated();
        mk(&rec);
        mk(&agg);
        assert_eq!(rec.summary(), agg.summary());
        assert_eq!(rec.summary().to_json(), agg.summary().to_json());
        // aggregated mode drops the closed record but keeps the count
        assert!(agg.commands().is_empty());
        assert_eq!(agg.summary().commands.get("read"), Some(&1));
    }

    #[test]
    fn aggregated_resource_totals() {
        let p = Probe::aggregated();
        let scope = p.open_command("read", SimTime::ZERO);
        p.span(
            Layer::Flash,
            Cause::CellRead,
            "chip1",
            SimTime::ZERO,
            SimTime::from_micros(50),
        );
        p.span(
            Layer::Flash,
            Cause::CellRead,
            "chip0",
            SimTime::from_micros(50),
            SimTime::from_micros(80),
        );
        p.span(
            Layer::Flash,
            Cause::CellRead,
            "chip1",
            SimTime::from_micros(80),
            SimTime::from_micros(90),
        );
        scope.close(SimTime::from_micros(90));
        let rs = p.resource_summary();
        assert_eq!(rs.len(), 2);
        // sorted by (layer, cause, resource name), not first-seen order
        assert_eq!(rs[0].resource, "chip0");
        assert_eq!(rs[0].count, 1);
        assert_eq!(rs[0].total, MICROSECOND * 30);
        assert_eq!(rs[1].resource, "chip1");
        assert_eq!(rs[1].count, 2);
        assert_eq!(rs[1].total, MICROSECOND * 60);
        // recording mode leaves it empty
        assert!(Probe::recording().resource_summary().is_empty());
    }

    #[test]
    fn batch_emits_like_individual_calls() {
        let a = Probe::recording();
        let b = Probe::recording();
        let blame = [
            (Occupant::Gc, MICROSECOND * 3),
            (Occupant::Host, MICROSECOND * 2),
        ];
        let sa = a.open_command("read", SimTime::ZERO);
        a.span(
            Layer::Channel,
            Cause::Command,
            "chan0",
            SimTime::ZERO,
            SimTime::from_micros(1),
        );
        a.wait_spans(
            Layer::Flash,
            "chip0",
            SimTime::from_micros(1),
            SimTime::from_micros(6),
            &blame,
        );
        sa.close(SimTime::from_micros(6));
        let sb = b.open_command("read", SimTime::ZERO);
        {
            let mut batch = b.batch().expect("enabled probe");
            batch.span(
                Layer::Channel,
                Cause::Command,
                "chan0",
                SimTime::ZERO,
                SimTime::from_micros(1),
            );
            batch.wait_spans(
                Layer::Flash,
                "chip0",
                SimTime::from_micros(1),
                SimTime::from_micros(6),
                &blame,
            );
        }
        sb.close(SimTime::from_micros(6));
        assert_eq!(a.events(), b.events());
        assert_eq!(a.summary(), b.summary());
        assert!(Probe::disabled().batch().is_none());
    }

    #[test]
    fn borrowed_accessors_match_clones() {
        let p = Probe::recording();
        let scope = p.open_command("write", SimTime::ZERO);
        p.span(
            Layer::Flash,
            Cause::CellProgram,
            "chip0",
            SimTime::ZERO,
            SimTime::from_micros(200),
        );
        scope.close(SimTime::from_micros(200));
        assert_eq!(&*p.events_ref(), p.events().as_slice());
        assert_eq!(&*p.commands_ref(), p.commands().as_slice());
        let d = Probe::disabled();
        assert!(d.events_ref().is_empty());
        assert!(d.commands_ref().is_empty());
    }

    #[test]
    fn aggregated_detach_resume_still_tracks() {
        let p = Probe::aggregated();
        let a = p.open_command("read", SimTime::ZERO);
        let a_id = a.detach();
        let b = p.open_command("write", SimTime::ZERO);
        p.span(
            Layer::Flash,
            Cause::CellProgram,
            "chip0",
            SimTime::ZERO,
            SimTime::from_micros(2),
        );
        b.close(SimTime::from_micros(2));
        // closing B swap-removed its record; A must still resume cleanly
        let a = p.resume(a_id);
        p.span(
            Layer::Flash,
            Cause::CellRead,
            "chip1",
            SimTime::from_micros(2),
            SimTime::from_micros(5),
        );
        a.close(SimTime::from_micros(5));
        assert_eq!(p.summary().commands.get("read"), Some(&1));
        assert_eq!(p.summary().commands.get("write"), Some(&1));
        assert!(p.commands().is_empty());
    }

    #[test]
    fn summary_json_shape() {
        let p = Probe::aggregated();
        let scope = p.open_command("read", SimTime::ZERO);
        p.span(
            Layer::Channel,
            Cause::Transfer,
            "chan0",
            SimTime::ZERO,
            SimTime::from_micros(100),
        );
        scope.close(SimTime::from_micros(100));
        let json = p.summary().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"commands\":{\"read\":1}"));
        assert!(json.contains("\"layer\":\"channel\""));
        assert!(json.contains("\"cause\":\"transfer\""));
        assert!(json.contains("\"total_ns\":100000"));
    }
}
