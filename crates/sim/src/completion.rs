//! The queue pair: the one front door every device model is driven
//! through at queue depth.
//!
//! [`QueuePair`] owns what a queue pair is whatever sits behind it — the
//! SSD, the nameless device, a core of the block stack:
//!
//! * the [`InflightWindow`] — the NVMe-style device-side window that
//!   admits at most `depth` commands at once. Submission queues are
//!   fetched in order (admission instants are monotone), completion is
//!   where reordering happens. The window also enforces the same-key
//!   hazard: a command on a key (an LBA, a nameless tag) with an in-flight
//!   predecessor is not admitted until the predecessor's completion
//!   instant;
//! * the completion queue — a min-heap keyed on `(done, seq)` that reaps
//!   completions in *device* order (earliest finish first) while a
//!   monotonically increasing sequence number breaks ties in submission
//!   order. Together with the hazard this guarantees same-key commands
//!   complete in submission order;
//! * the tag counter, and refusals: a command the device or the host
//!   refuses is a completion like any other, at the instant it was
//!   refused.
//!
//! The device itself is a closure: [`QueuePair::submit`] hands it the
//! command's tag and admit instant and queues the completion it returns.
//! Everything here is pure bookkeeping over [`SimTime`] instants — no
//! wall-clock, no randomness — so the engine stays deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::cmd::CommandId;
use crate::probe::{Cause, Layer, Probe};
use crate::time::SimTime;

/// One entry in a [`CompletionHeap`]: a payload keyed by completion
/// instant with a submission-order sequence number as tie-break.
#[derive(Debug, Clone)]
struct Entry<T> {
    done: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.done == other.done && self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse to get a min-heap on
        // (done, seq). Equal `done` pops in submission order.
        (other.done, other.seq).cmp(&(self.done, self.seq))
    }
}

/// Min-heap of pending completions ordered by `(done, seq)`.
///
/// `seq` is assigned internally at [`push`](CompletionHeap::push) time,
/// so two completions with the same `done` instant pop in the order
/// they were pushed — which is submission order. That tie-break is
/// load-bearing: it is half of the same-key ordering guarantee (the
/// other half is [`InflightWindow::admit`]'s hazard guard).
#[derive(Debug, Clone)]
struct CompletionHeap<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
}

impl<T> CompletionHeap<T> {
    fn new() -> Self {
        CompletionHeap {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Queue a completion that will be ready at `done`.
    fn push(&mut self, done: SimTime, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { done, seq, payload });
    }

    /// Pop the earliest completion regardless of "now".
    fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|e| (e.done, e.payload))
    }

    /// Pop the earliest completion if it is ready at `now`.
    fn pop_ready(&mut self, now: SimTime) -> Option<(SimTime, T)> {
        if self.peek_done().is_some_and(|d| d <= now) {
            self.pop()
        } else {
            None
        }
    }

    /// Completion instant of the earliest pending entry.
    fn peek_done(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.done)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Device-side in-flight window: admits at most `depth` commands at
/// once, in submission order, with a per-key write/write-read hazard
/// guard.
///
/// Protocol per command: call [`admit`](InflightWindow::admit) to get
/// the instant the device starts the command, dispatch the device
/// model at that instant to learn `done`, then call
/// [`commit`](InflightWindow::commit) with the key and `done`.
#[derive(Debug, Clone)]
pub struct InflightWindow {
    depth: usize,
    /// `(done, key)` of every in-flight command, unordered. An admit
    /// leaves fewer than `depth` entries and a commit adds one, so the
    /// bound is structural and every scan below is O(depth).
    inflight: Vec<(SimTime, u64)>,
    /// Admission instants are monotone: SQs are fetched in order.
    last_admit: SimTime,
}

impl InflightWindow {
    /// A window admitting up to `depth` commands (min 1).
    pub fn new(depth: usize) -> Self {
        InflightWindow {
            depth: depth.max(1),
            inflight: Vec::new(),
            last_admit: SimTime::ZERO,
        }
    }

    /// Compute the admission instant for a command on `key` that
    /// arrives at the submission queue at `now`.
    ///
    /// The instant is the earliest `t >= max(now, previous admit)` at
    /// which (a) fewer than `depth` commands are still in flight and
    /// (b) no earlier command on the same key is still in flight.
    #[inline]
    pub fn admit(&mut self, now: SimTime, key: u64) -> SimTime {
        // SQ fetch order: never admit before a previously admitted
        // command (keeps device-side submit instants monotone).
        let mut t = now.max(self.last_admit);
        // Retire commands already done by `t`.
        self.inflight.retain(|&(done, _)| done > t);
        // Window full: wait for the earliest in-flight completion.
        while self.inflight.len() >= self.depth {
            let earliest = (0..self.inflight.len())
                .min_by_key(|&i| self.inflight[i].0)
                .expect("non-empty at depth");
            t = t.max(self.inflight.swap_remove(earliest).0);
        }
        // Same-key hazard: wait out the in-flight predecessor. There is
        // at most one — its own successor waited here and retired it.
        if let Some(&(busy, _)) = self.inflight.iter().find(|e| e.1 == key && e.0 > t) {
            t = busy;
            // The predecessor finishing may retire more commands.
            self.inflight.retain(|&(done, _)| done > t);
        }
        t
    }

    /// Record a dispatched command: `key` is busy until `done`.
    ///
    /// Must be called after [`admit`](InflightWindow::admit) with the
    /// completion instant the device model returned for the admitted
    /// command.
    #[inline]
    pub fn commit(&mut self, admit: SimTime, key: u64, done: SimTime) {
        debug_assert!(done >= admit, "completion precedes admission");
        self.inflight.push((done, key));
        self.last_admit = admit;
    }
}

/// A submission/completion queue pair over completions of type `C`.
///
/// The pair holds no reference to the device: each
/// [`submit`](QueuePair::submit) passes the device in as a closure, so
/// one device can sit behind several pairs (per-core SQs) without
/// aliasing trouble. At depth 1 the window is empty at every arrival of
/// a closed loop, `admit == now`, and every instant — and therefore
/// every byte of probe output — is the serialized device path's.
#[derive(Debug)]
pub struct QueuePair<C> {
    window: InflightWindow,
    cq: CompletionHeap<C>,
    next_tag: u64,
}

impl<C: Copy> QueuePair<C> {
    /// A queue pair whose window admits up to `depth` commands at once
    /// (min 1).
    pub fn new(depth: usize) -> Self {
        QueuePair {
            window: InflightWindow::new(depth),
            cq: CompletionHeap::new(),
            next_tag: 0,
        }
    }

    /// Re-size the window between runs, while nothing is in flight on
    /// the device; queued completions and the tag counter are kept.
    pub fn resize(&mut self, depth: usize) {
        self.window = InflightWindow::new(depth);
    }

    /// Completions waiting to be reaped.
    pub fn pending(&self) -> usize {
        self.cq.len()
    }

    /// Completion instant of the earliest waiting completion.
    pub fn next_done(&self) -> Option<SimTime> {
        self.cq.peek_done()
    }

    /// `tag`, or the next tag of this pair's counter when `tag` is
    /// unassigned.
    pub fn assign_tag(&mut self, tag: CommandId) -> CommandId {
        if tag.is_unassigned() {
            self.next_tag += 1;
            CommandId(self.next_tag)
        } else {
            tag
        }
    }

    /// Submit one command on hazard key `key` arriving at `now`. The
    /// window admits it; the wait `[now, admit)` is the submission-queue
    /// residency, charged to `probe`'s open command as a `Queue` span on
    /// `"sq"` so spans keep tiling latency when completions reorder.
    /// `dispatch` runs the device at the admit instant and returns the
    /// completion instant and entry; a refusal is an entry like any
    /// other, at the instant the device refused. Returns a copy of the
    /// queued entry — the device model has already run, the host sees
    /// the completion when it reaps it.
    ///
    /// Arrival instants must be non-decreasing across calls — the SQ is
    /// a queue, not a time machine.
    pub fn submit(
        &mut self,
        probe: &Probe,
        now: SimTime,
        tag: CommandId,
        key: u64,
        dispatch: impl FnOnce(CommandId, SimTime) -> (SimTime, C),
    ) -> C {
        let tag = self.assign_tag(tag);
        let admit = self.window.admit(now, key);
        if admit > now {
            probe.span(Layer::Block, Cause::Queue, "sq", now, admit);
        }
        let (done, c) = dispatch(tag, admit);
        self.window.commit(admit, key, done);
        self.cq.push(done, c);
        c
    }

    /// Complete a command the host refused before it reached the device:
    /// its entry `make(tag)` is reaped at `at`, and the window never
    /// sees it. Returns a copy of the entry.
    pub fn refuse(&mut self, at: SimTime, tag: CommandId, make: impl FnOnce(CommandId) -> C) -> C {
        let c = make(self.assign_tag(tag));
        self.cq.push(at, c);
        c
    }

    /// Reap every completion ready at `now`, earliest-done first (ties
    /// in submission order): each is popped as the caller takes it, into
    /// no list.
    pub fn ready(&mut self, now: SimTime) -> impl Iterator<Item = C> + '_ {
        std::iter::from_fn(move || self.cq.pop_ready(now)).map(|(_, c)| c)
    }

    /// Pop the earliest completion regardless of the clock (closed-loop
    /// drivers advance time *to* the completion they pop).
    pub fn pop(&mut self) -> Option<C> {
        self.cq.pop().map(|(_, c)| c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BTreeMap;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn heap_orders_by_done_then_seq() {
        let mut h = CompletionHeap::new();
        h.push(t(30), "c");
        h.push(t(10), "a1");
        h.push(t(10), "a2");
        h.push(t(20), "b");
        assert_eq!(h.len(), 4);
        assert_eq!(h.peek_done(), Some(t(10)));
        assert_eq!(h.pop(), Some((t(10), "a1")));
        assert_eq!(h.pop(), Some((t(10), "a2")));
        assert_eq!(h.pop(), Some((t(20), "b")));
        assert_eq!(h.pop(), Some((t(30), "c")));
        assert_eq!(h.pop(), None);
        assert_eq!(h.len(), 0);
    }

    #[test]
    fn heap_pop_ready_respects_now() {
        let mut h = CompletionHeap::new();
        h.push(t(10), 1u32);
        h.push(t(20), 2u32);
        assert_eq!(h.pop_ready(t(5)), None);
        assert_eq!(h.pop_ready(t(10)), Some((t(10), 1)));
        assert_eq!(h.pop_ready(t(10)), None);
        assert_eq!(h.pop_ready(t(100)), Some((t(20), 2)));
        assert_eq!(h.pop_ready(t(100)), None);
    }

    #[test]
    fn window_admits_up_to_depth_then_blocks() {
        let mut w = InflightWindow::new(2);
        let a0 = w.admit(t(0), 0);
        assert_eq!(a0, t(0));
        w.commit(a0, 0, t(100));
        let a1 = w.admit(t(0), 1);
        assert_eq!(a1, t(0));
        w.commit(a1, 1, t(50));
        // Window full: third command waits for the earliest done (50).
        let a2 = w.admit(t(0), 2);
        assert_eq!(a2, t(50));
        w.commit(a2, 2, t(120));
        // Fourth waits for the next earliest (100).
        let a3 = w.admit(t(0), 3);
        assert_eq!(a3, t(100));
    }

    #[test]
    fn window_admissions_are_monotone() {
        let mut w = InflightWindow::new(4);
        let a0 = w.admit(t(10), 0);
        w.commit(a0, 0, t(30));
        // A command "arriving" earlier still admits no earlier than a0.
        let a1 = w.admit(t(5), 1);
        assert_eq!(a1, t(10));
    }

    #[test]
    fn window_same_lba_hazard_serializes() {
        let mut w = InflightWindow::new(8);
        let a0 = w.admit(t(0), 7);
        w.commit(a0, 7, t(200));
        // Same LBA: admitted only once the predecessor is done.
        let a1 = w.admit(t(0), 7);
        assert_eq!(a1, t(200));
        w.commit(a1, 7, t(260));
        // Different LBA unaffected by the hazard (window has room).
        let a2 = w.admit(t(0), 8);
        assert_eq!(a2, t(200)); // monotone after a1, not hazard-blocked
    }

    #[test]
    fn window_retires_done_commands() {
        let mut w = InflightWindow::new(1);
        let a0 = w.admit(t(0), 0);
        w.commit(a0, 0, t(10));
        assert_eq!(w.inflight.len(), 1);
        // At t=20 the first command has retired: no wait.
        let a1 = w.admit(t(20), 1);
        assert_eq!(a1, t(20));
        assert_eq!(w.inflight.len(), 0);
    }

    #[test]
    fn window_stays_bounded_by_depth() {
        let mut w = InflightWindow::new(2);
        for i in 0..1000u64 {
            let a = w.admit(t(i), i);
            w.commit(a, i, a + SimDuration::from_micros(50));
            assert!(w.inflight.len() <= w.depth);
        }
    }

    /// The window the flat `Vec` replaced, kept as the reference it is
    /// held identical to: a min-heap of completion instants beside a
    /// per-LBA map of the last in-flight completion, the map swept by a
    /// `retain` whenever it outgrows four times the depth.
    struct HeapMapWindow {
        depth: usize,
        inflight: BinaryHeap<Reverse<SimTime>>,
        last_admit: SimTime,
        lba_busy: BTreeMap<u64, SimTime>,
    }

    impl HeapMapWindow {
        fn new(depth: usize) -> Self {
            HeapMapWindow {
                depth: depth.max(1),
                inflight: BinaryHeap::new(),
                last_admit: SimTime::ZERO,
                lba_busy: BTreeMap::new(),
            }
        }

        fn in_flight(&self) -> usize {
            self.inflight.len()
        }

        fn earliest_done(&self) -> Option<SimTime> {
            self.inflight.peek().map(|Reverse(t)| *t)
        }

        fn admit(&mut self, now: SimTime, lba: u64) -> SimTime {
            let mut t = if now > self.last_admit {
                now
            } else {
                self.last_admit
            };
            while self.inflight.peek().is_some_and(|Reverse(d)| *d <= t) {
                self.inflight.pop();
            }
            while self.inflight.len() >= self.depth {
                let Reverse(d) = self.inflight.pop().expect("non-empty at depth");
                if d > t {
                    t = d;
                }
            }
            if let Some(&busy) = self.lba_busy.get(&lba) {
                if busy > t {
                    t = busy;
                    while self.inflight.peek().is_some_and(|Reverse(d)| *d <= t) {
                        self.inflight.pop();
                    }
                }
            }
            if self.lba_busy.len() > 4 * self.depth {
                self.lba_busy.retain(|_, d| *d > t);
            }
            t
        }

        fn commit(&mut self, admit: SimTime, lba: u64, done: SimTime) {
            self.inflight.push(Reverse(done));
            self.lba_busy.insert(lba, done);
            self.last_admit = admit;
        }
    }

    /// The flat window's observables the reference is held to.
    fn in_flight(w: &InflightWindow) -> usize {
        w.inflight.len()
    }

    fn earliest_done(w: &InflightWindow) -> Option<SimTime> {
        w.inflight.iter().map(|&(done, _)| done).min()
    }

    const DEPTHS: [usize; 3] = [1, 2, 16];

    /// `((arrival step, rewind), (lba, service))`: a zero `rewind` moves
    /// `now` backwards by the step. Nested pairs because the vendored
    /// proptest has no 4-tuple strategy.
    type Cmd = ((u64, u8), (u64, u64));

    /// Drive both windows through `cmds` and hold every observable equal
    /// after every admit and every commit.
    fn assert_matches_heap_map(depth: usize, cmds: &[Cmd]) {
        let mut flat = InflightWindow::new(depth);
        let mut reference = HeapMapWindow::new(depth);
        let mut now = 0u64;
        for (i, &((step, rewind), (lba, service))) in cmds.iter().enumerate() {
            now = if rewind == 0 {
                now.saturating_sub(step)
            } else {
                now + step
            };
            let a = flat.admit(t(now), lba);
            assert_eq!(a, reference.admit(t(now), lba), "admit {i}, depth {depth}");
            assert_eq!(in_flight(&flat), reference.in_flight(), "after admit {i}");
            assert_eq!(earliest_done(&flat), reference.earliest_done());
            assert!(in_flight(&flat) < depth, "admit {i} left no room");
            let done = a + SimDuration::from_micros(service);
            flat.commit(a, lba, done);
            reference.commit(a, lba, done);
            assert_eq!(in_flight(&flat), reference.in_flight(), "after commit {i}");
            assert_eq!(earliest_done(&flat), reference.earliest_done());
        }
    }

    #[test]
    fn window_same_lba_chain_matches_the_heap_and_map() {
        // five commands to one LBA among strangers, with zero-length
        // services, equal completion instants and one rewind
        for depth in DEPTHS {
            assert_matches_heap_map(
                depth,
                &[
                    ((0, 1), (7, 40)),
                    ((0, 1), (7, 0)),
                    ((0, 1), (3, 40)),
                    ((5, 1), (7, 40)),
                    ((0, 1), (7, 40)),
                    ((0, 1), (9, 80)),
                    ((10, 0), (7, 10)),
                    ((300, 1), (3, 10)),
                ],
            );
        }
    }

    proptest! {
        /// Six LBAs (same-LBA chains of three and more are the norm) and
        /// services several arrival steps long (a window that stays
        /// full), with one arrival in five moving `now` backwards.
        #[test]
        fn window_matches_the_heap_and_map_it_replaced(
            depth in 0..DEPTHS.len(),
            cmds in proptest::collection::vec(
                ((0..30u64, 0..5u8), (0..6u64, 0..200u64)),
                1..300,
            ),
        ) {
            assert_matches_heap_map(DEPTHS[depth], &cmds);
        }

        /// Many LBAs and arrivals slower than services: the window
        /// drains, and the reference's `retain` sweep runs.
        #[test]
        fn draining_window_matches_the_heap_and_map(
            depth in 0..DEPTHS.len(),
            cmds in proptest::collection::vec(
                ((0..120u64, 1..2u8), (0..4096u64, 0..100u64)),
                1..300,
            ),
        ) {
            assert_matches_heap_map(DEPTHS[depth], &cmds);
        }
    }
}
