//! The observability bus across the software/device boundary: one probe
//! attached at the top of the I/O stack joins the block layer's CPU-path
//! spans with the SSD controller's internal spans under a single command
//! id — the decomposition the block device interface denies.

use requiem_block::{CompletionMode, IoRequest, IoStack, NullDevice, StackCompletion, StackConfig};
use requiem_sim::time::{SimDuration, SimTime};
use requiem_sim::{Cause, Layer, Probe, SpanEvent};
use requiem_ssd::{Ssd, SsdConfig};

fn assert_tiles(probe: &Probe, id: u64) -> Vec<SpanEvent> {
    let cmds = probe.commands_ref();
    let rec = cmds.iter().find(|c| c.id == id).expect("command recorded");
    let done = rec.done.expect("command closed");
    let spans = probe.command_spans(id);
    let mut cursor = rec.submit;
    for s in &spans {
        assert_eq!(
            s.start, cursor,
            "gap/overlap before {:?}/{:?} in cmd {id}",
            s.layer, s.cause
        );
        cursor = s.end;
    }
    assert_eq!(cursor, done, "spans do not reach completion");
    spans
}

#[test]
fn stack_and_ssd_spans_join_into_one_command() {
    let mut stack = IoStack::new(StackConfig::blk_mq(1), Ssd::new(SsdConfig::modern()));
    let probe = Probe::recording();
    stack.attach_probe(probe.clone());

    let w = stack.submit(SimTime::ZERO, 0, IoRequest::write(42));
    let r = stack.submit(w.done, 0, IoRequest::read(42));

    let cmds = probe.commands_ref();
    assert_eq!(cmds.len(), 2, "one command per submit, joined not nested");
    assert_eq!(cmds[0].kind, "write");
    assert_eq!(cmds[1].kind, "read");
    assert_eq!(cmds[0].done, Some(w.done));
    assert_eq!(cmds[1].done, Some(r.done));

    for (id, c) in [(cmds[0].id, &w), (cmds[1].id, &r)] {
        let spans = assert_tiles(&probe, id);
        let total: SimDuration = spans
            .iter()
            .map(SpanEvent::duration)
            .fold(SimDuration::ZERO, |a, b| a + b);
        assert_eq!(total, c.latency, "span sum != stack end-to-end latency");
        // both software (Block) and device (Controller/…) layers present
        assert!(spans.iter().any(|s| s.layer == Layer::Block));
        assert!(spans.iter().any(|s| s.layer == Layer::Controller));
    }
}

#[test]
fn opaque_backend_collapses_device_time_into_one_span() {
    // a device that does not self-report gets exactly one opaque span for
    // its whole service interval — the block-interface view of the world
    let dev = NullDevice {
        latency: SimDuration::from_micros(50),
        pages: 1024,
    };
    let mut stack = IoStack::new(StackConfig::blk_mq(1), dev);
    let probe = Probe::recording();
    stack.attach_probe(probe.clone());
    let c = stack.submit(SimTime::ZERO, 0, IoRequest::read(5));
    let cmds = probe.commands_ref();
    assert_eq!(cmds.len(), 1);
    let spans = assert_tiles(&probe, cmds[0].id);
    let total: SimDuration = spans
        .iter()
        .map(SpanEvent::duration)
        .fold(SimDuration::ZERO, |a, b| a + b);
    assert_eq!(total, c.latency);
    let opaque: Vec<&SpanEvent> = spans
        .iter()
        .filter(|s| s.layer == Layer::Block && s.cause == Cause::Transfer)
        .collect();
    assert_eq!(opaque.len(), 1, "exactly one opaque device span");
    assert_eq!(opaque[0].duration(), SimDuration::from_micros(50));
    assert_eq!(opaque[0].resource.as_deref(), Some("null-device"));
}

/// One core of the multi-queue stack with polling completions.
fn polling() -> StackConfig {
    StackConfig {
        completion: CompletionMode::Polling,
        ..StackConfig::blk_mq(1)
    }
}

#[test]
fn polling_and_interrupt_spans_both_tile() {
    for cfg in [StackConfig::blk_mq(1), polling()] {
        let mut stack = IoStack::new(cfg, Ssd::new(SsdConfig::modern()));
        let probe = Probe::recording();
        stack.attach_probe(probe.clone());
        let w = stack.submit(SimTime::ZERO, 0, IoRequest::write(1));
        let cmds = probe.commands_ref();
        let spans = assert_tiles(&probe, cmds[0].id);
        let total: SimDuration = spans
            .iter()
            .map(SpanEvent::duration)
            .fold(SimDuration::ZERO, |a, b| a + b);
        assert_eq!(total, w.latency);
    }
}

#[test]
fn batch_path_spans_tile_per_command_out_of_order() {
    // The queue-pair path: 8 writes batched at once, completions reaped
    // out of submission order — every command's spans must still tile
    // its [submit, done) exactly, covering SQ wait, device interval, CQ
    // wait, and the completion slice.
    for cfg in [StackConfig::blk_mq(1), polling()] {
        let mut stack = IoStack::new(cfg, Ssd::new(SsdConfig::modern()));
        let probe = Probe::recording();
        stack.attach_probe(probe.clone());
        stack.set_inflight_window(4);
        let reqs: Vec<IoRequest> = (0..8u64).map(IoRequest::write).collect();
        stack.submit_batch(SimTime::ZERO, 0, &reqs);
        let mut comps: Vec<StackCompletion> = Vec::new();
        while let Some(t) = stack.next_completion_time(0) {
            comps.extend(stack.poll_completions(t, 0).iter());
        }
        assert_eq!(comps.len(), reqs.len());
        let cmds = probe.commands_ref();
        assert_eq!(cmds.len(), reqs.len(), "one probe command per request");
        for c in cmds.iter() {
            let spans = assert_tiles(&probe, c.id);
            let done = c.done.expect("closed");
            let total: SimDuration = spans
                .iter()
                .map(SpanEvent::duration)
                .fold(SimDuration::ZERO, |a, b| a + b);
            assert_eq!(total, done.since(c.submit), "span sum != latency");
            // the device layers joined the same command id
            assert!(spans.iter().any(|s| s.layer == Layer::Block));
            assert!(spans.iter().any(|s| s.layer == Layer::Controller));
        }
        // the stack's reported latencies agree with the probe records
        for comp in &comps {
            let rec = cmds
                .iter()
                .find(|c| c.done == Some(comp.done))
                .expect("matching record");
            assert_eq!(comp.latency, comp.done.since(rec.submit));
        }
    }
}
