//! Law: a QD-1 run does not depend on the depth limit.
//!
//! One proptest drives each instantiation of the generic queue pair — the
//! bare `Ssd`, the nameless device under the cooperating-logs manager,
//! and the block stack's batch path — through the same seeded stream of
//! reads and writes, keeping one command outstanding at a time, on a pair
//! of depth 1 and on one of depth d ∈ {2, 8, 64}. With nothing else in
//! flight the window is empty at every arrival, so the completion
//! instants, the statuses and the probe's span count per command must be
//! identical; the two devices must also replay their serialized
//! references (`Ssd::io`, `CoopLogBackend::page_read`) exactly.

use proptest::prelude::*;
use requiem::block::{IoStack, StackConfig};
use requiem::db::backend::PersistenceBackend;
use requiem::db::{CoopLogBackend, PageId};
use requiem::iface::NamelessConfig;
use requiem::sim::time::SimTime;
use requiem::sim::{IoStatus, Probe};
use requiem::ssd::{IoRequest, QueuePair, Ssd, SsdConfig};

/// What a run shows: each command's completion instant and status, in
/// order, and each probe command's span count.
type Run = (Vec<(SimTime, IoStatus)>, Vec<u32>);

const PAGES: u64 = 64;
const DEPTHS: [usize; 3] = [2, 8, 64];

/// `(write?, page)`, about one in three a write.
fn ops() -> impl Strategy<Value = Vec<(u8, u64)>> {
    proptest::collection::vec((0..3u8, 0..PAGES), 1..120)
}

/// 2 x 2 LUNs with a four-slot write buffer: reads hit RAM and flash.
fn ssd_cfg() -> SsdConfig {
    let mut cfg = SsdConfig::modern();
    cfg.shape.channels = 2;
    cfg.shape.chips_per_channel = 2;
    cfg.buffer.capacity_pages = 4;
    cfg
}

fn request(&(kind, page): &(u8, u64)) -> IoRequest {
    if kind == 0 {
        IoRequest::write(page)
    } else {
        IoRequest::read(page)
    }
}

fn spans(probe: &Probe) -> Vec<u32> {
    probe.commands_ref().iter().map(|r| r.spans).collect()
}

/// The bare SSD on a pair of depth `depth`, or through `Ssd::io`.
fn ssd(depth: Option<usize>, ops: &[(u8, u64)]) -> Run {
    let mut ssd = Ssd::new(ssd_cfg());
    let probe = Probe::recording();
    ssd.attach_probe(probe.clone());
    let mut qp = QueuePair::new(depth.unwrap_or(1));
    let mut now = SimTime::ZERO;
    let mut out = Vec::new();
    for op in ops {
        let c = match depth {
            Some(_) => {
                ssd.enqueue(&mut qp, now, request(op));
                qp.pop().expect("one command in flight")
            }
            None => ssd.io(now, request(op)).expect("served"),
        };
        now = c.done;
        out.push((c.done, c.status));
    }
    (out, spans(&probe))
}

/// The nameless device under the cooperating-logs manager: writes are
/// its synchronous page writes, reads ride its pair of depth `depth` or
/// go through `page_read`. A page never written is refused by the host.
fn nameless(depth: Option<usize>, ops: &[(u8, u64)]) -> Run {
    let mut b = CoopLogBackend::new(NamelessConfig::from(&ssd_cfg()), PAGES, 16);
    let probe = Probe::recording();
    b.attach_probe(probe.clone());
    b.set_read_window(depth.unwrap_or(1));
    let mut now = SimTime::ZERO;
    let mut out = Vec::new();
    for &(kind, page) in ops {
        let page = PageId(page);
        let (done, status) = match (kind, depth) {
            (0, _) => (b.page_write(now, page), IoStatus::Ok),
            (_, Some(_)) => {
                b.submit_reads(now, &[page]);
                let next = b.next_read_done().expect("one read in flight");
                let [r] = b.poll(next)[..] else {
                    panic!("one read completes")
                };
                (r.done, r.status)
            }
            (_, None) => b.page_read(now, page),
        };
        now = done;
        out.push((done, status));
    }
    (out, spans(&probe))
}

/// The block stack's batch path, one-command batches on core 0.
fn stack(depth: usize, ops: &[(u8, u64)]) -> Run {
    let mut st = IoStack::new(StackConfig::blk_mq(1), Ssd::new(ssd_cfg()));
    let probe = Probe::recording();
    st.attach_probe(probe.clone());
    st.set_inflight_window(depth);
    let mut now = SimTime::ZERO;
    let mut out = Vec::new();
    for op in ops {
        st.submit_batch(now, 0, &[request(op)]);
        let next = st.next_completion_time(0).expect("one command in flight");
        let [c] = st.poll_completions(next, 0)[..] else {
            panic!("one command completes")
        };
        now = c.done;
        out.push((c.done, c.status));
    }
    (out, spans(&probe))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn a_qd1_run_does_not_depend_on_the_depth_limit(d in 0..DEPTHS.len(), ops in ops()) {
        let d = DEPTHS[d];
        let reference = ssd(None, &ops);
        prop_assert_eq!(&ssd(Some(1), &ops), &reference, "ssd at depth 1 vs Ssd::io");
        prop_assert_eq!(&ssd(Some(d), &ops), &reference, "ssd at depth {}", d);

        let reference = nameless(None, &ops);
        prop_assert_eq!(&nameless(Some(1), &ops), &reference, "nameless at depth 1 vs page_read");
        prop_assert_eq!(&nameless(Some(d), &ops), &reference, "nameless at depth {}", d);

        prop_assert_eq!(stack(d, &ops), stack(1, &ops), "block stack at depth {}", d);
    }
}
