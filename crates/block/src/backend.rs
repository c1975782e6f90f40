//! The storage-backend abstraction under the block layer.
//!
//! The whole point of the block device interface is that the stack above
//! it cannot tell a disk from an SSD from a PCM array. [`StorageBackend`]
//! captures that with a *typed* command vocabulary: the host hands the
//! device an [`IoRequest`] (operation, address, traffic class, tag) and
//! gets an [`IoCompletion`] back (tag echoed, completion instant, probe
//! span count). The request carries its identity with it, so the block
//! layer above can keep many commands in flight and reap their
//! completions out of submission order — the queue-pair model — while a
//! serialized caller simply reads `completion.done` and chains, exactly
//! like the old positional `submit(now, op, lba) -> SimTime` API did.
//! Experiment E9 exploits the shared abstraction to show how the *same*
//! software overhead is invisible on a disk and dominant on fast
//! devices; E11 drives it at queue depth to expose Figure 1's
//! read/write asymmetry.

use requiem_pcm::PcmSsd;
use requiem_sim::time::SimTime;
use requiem_sim::Probe;
use requiem_ssd::Ssd;

use crate::disk::Disk;

pub use requiem_sim::cmd::{CommandId, IoClass, IoCompletion, IoRequest};
pub use requiem_sim::IoStatus;

/// Operation kind at the block level.
///
/// This is the shared [`IoOp`](requiem_sim::cmd::IoOp) vocabulary from
/// `requiem-sim`; the alias keeps the block layer's historical
/// `BackendOp` name alive for call sites and tests.
pub use requiem_sim::cmd::IoOp as BackendOp;

/// Anything that can serve page-granular I/O with virtual-time completions.
pub trait StorageBackend {
    /// Submit one typed command at `now`; returns its completion.
    ///
    /// The completion echoes the request's `tag`/`op`/`lba`, records
    /// `submitted = now`, and reports how many probe spans were
    /// attributed to the command (0 for devices without internal
    /// structure). Submission instants must be non-decreasing.
    fn submit(&mut self, now: SimTime, req: IoRequest) -> IoCompletion;

    /// Addressable pages/sectors.
    fn capacity_pages(&self) -> u64;

    /// Short human-readable device name.
    fn label(&self) -> &'static str;

    /// Attach a cross-layer [`Probe`] so the device decomposes its part
    /// of each command into spans. Devices without internal structure
    /// (disks, null devices) ignore it: their whole service time is one
    /// opaque interval, which is exactly the paper's complaint.
    fn attach_probe(&mut self, probe: Probe) {
        let _ = probe;
    }

    /// Whether this device emits its own probe spans for the interval it
    /// services. When `false`, the block layer above covers the device
    /// interval with a single opaque span — the block-interface view.
    fn self_reporting(&self) -> bool {
        false
    }
}

/// Build the completion for a device that serves the whole command as
/// one opaque interval (no internal probe spans). Opaque devices have no
/// fault model, so the status is always [`IoStatus::Ok`].
fn opaque_completion(req: IoRequest, submitted: SimTime, done: SimTime) -> IoCompletion {
    IoCompletion {
        tag: req.tag,
        op: req.op,
        lba: req.lba,
        submitted,
        done,
        spans: 0,
        status: IoStatus::Ok,
    }
}

impl StorageBackend for Disk {
    fn submit(&mut self, now: SimTime, req: IoRequest) -> IoCompletion {
        let done = match req.op {
            // reads and writes cost the same mechanically
            BackendOp::Read | BackendOp::Write => self.serve(now, req.lba),
            // disks have no trim: the command is a metadata no-op
            BackendOp::Trim => now,
        };
        opaque_completion(req, now, done)
    }

    fn capacity_pages(&self) -> u64 {
        self.config().sectors
    }

    fn label(&self) -> &'static str {
        "hdd-7200"
    }
}

impl StorageBackend for Ssd {
    fn submit(&mut self, now: SimTime, req: IoRequest) -> IoCompletion {
        // An `SsdError` (worn-out device, protocol violation) surfaces as
        // a `Rejected` completion instead of tearing the stack down: the
        // layer above decides whether to retry, re-route, or fail the
        // transaction — the whole point of the typed status channel.
        match self.io(now, req) {
            Ok(c) => c,
            Err(_) => IoCompletion::rejected(req, now, now),
        }
    }

    fn capacity_pages(&self) -> u64 {
        self.capacity().exported_pages
    }

    fn label(&self) -> &'static str {
        "flash-ssd"
    }

    fn attach_probe(&mut self, probe: Probe) {
        Ssd::attach_probe(self, probe);
    }

    fn self_reporting(&self) -> bool {
        self.probe().is_enabled()
    }
}

impl StorageBackend for PcmSsd {
    fn submit(&mut self, now: SimTime, req: IoRequest) -> IoCompletion {
        let done = match req.op {
            BackendOp::Read => self.read_page(now, req.lba).done,
            BackendOp::Write => self.write_page(now, req.lba).done,
            // PCM overwrites in place: nothing to unmap.
            BackendOp::Trim => now,
        };
        opaque_completion(req, now, done)
    }

    fn capacity_pages(&self) -> u64 {
        self.total_pages()
    }

    fn label(&self) -> &'static str {
        "pcm-array"
    }
}

/// An idealized device: fixed latency, unlimited internal parallelism.
/// Useful for isolating *software* bottlenecks (E9's queue-contention
/// measurements) from device behaviour.
#[derive(Debug, Clone)]
pub struct NullDevice {
    /// Fixed service latency.
    pub latency: requiem_sim::time::SimDuration,
    /// Addressable pages.
    pub pages: u64,
}

impl StorageBackend for NullDevice {
    fn submit(&mut self, now: SimTime, req: IoRequest) -> IoCompletion {
        assert!(req.lba < self.pages, "lba out of range");
        opaque_completion(req, now, now + self.latency)
    }

    fn capacity_pages(&self) -> u64 {
        self.pages
    }

    fn label(&self) -> &'static str {
        "null-device"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskConfig;
    use requiem_pcm::ssd::PcmSsdConfig;
    use requiem_ssd::SsdConfig;

    #[test]
    fn disk_backend_serves() {
        let mut d = Disk::new(DiskConfig::hdd_7200());
        let c = d.submit(SimTime::ZERO, IoRequest::read(10));
        assert!(c.done > SimTime::ZERO);
        assert_eq!(c.op, BackendOp::Read);
        assert_eq!(c.lba, 10);
        assert_eq!(c.spans, 0);
        assert_eq!(d.capacity_pages(), 1 << 20);
        assert_eq!(d.label(), "hdd-7200");
    }

    #[test]
    fn ssd_backend_serves() {
        let mut s = Ssd::new(SsdConfig::modern());
        let w = s.submit(SimTime::ZERO, IoRequest::write(3));
        let r = s.submit(w.done, IoRequest::read(3));
        assert!(r.done > w.done);
        assert_eq!(s.label(), "flash-ssd");
    }

    #[test]
    fn pcm_backend_serves() {
        let mut p = PcmSsd::new(PcmSsdConfig::small());
        let w = p.submit(SimTime::ZERO, IoRequest::write(1));
        let r = p.submit(w.done, IoRequest::read(1));
        assert!(r.done > w.done);
        // trim is a metadata no-op on PCM
        let t = p.submit(r.done, IoRequest::trim(1));
        assert_eq!(t.done, r.done);
        assert_eq!(p.label(), "pcm-array");
        assert!(p.capacity_pages() > 0);
    }

    #[test]
    fn completions_echo_request_tags() {
        let mut n = NullDevice {
            latency: requiem_sim::time::SimDuration::from_micros(5),
            pages: 64,
        };
        let c = n.submit(SimTime::ZERO, IoRequest::write(7).tag(CommandId(42)));
        assert_eq!(c.tag, CommandId(42));
        assert_eq!(c.submitted, SimTime::ZERO);
        assert_eq!(c.latency(), requiem_sim::time::SimDuration::from_micros(5));
    }

    #[test]
    fn same_interface_different_latency_classes() {
        // the abstraction hides a 100x latency difference — §2's complaint
        let mut d = Disk::new(DiskConfig::hdd_7200());
        let mut s = Ssd::new(SsdConfig::modern());
        // random-ish single reads on each
        let t_disk = {
            d.submit(SimTime::ZERO, IoRequest::read(500_000));
            let a = d.submit(d.drain_time(), IoRequest::read(12_345)).done;
            let b = d.submit(a, IoRequest::read(900_000)).done;
            b.since(a)
        };
        let t_ssd = {
            let w = s.submit(SimTime::ZERO, IoRequest::write(0)).done;
            let a = s.submit(w, IoRequest::read(0)).done;
            a.since(w)
        };
        assert!(t_disk.as_nanos() > 20 * t_ssd.as_nanos());
    }
}
