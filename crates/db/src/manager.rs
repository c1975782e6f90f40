//! The pluggable storage-manager layer: one trait over the block-backed
//! heap manager and the cooperating-logs manager, in the vocabulary the
//! engine's reporting needs.
//!
//! [`PersistenceBackend`] is the *traffic* contract — forces, writes,
//! reads, batches. [`StorageManager`] is the *identity* contract layered
//! on top: each manager names its handle type (what the host stores per
//! page), exposes where a page currently lives, and accounts for the
//! placement work the device did on its behalf. The type parameter makes
//! the difference between the designs a compile-time fact:
//!
//! * the block manager's handle is an [`Lpn`] — a name the host chose,
//!   fixed for the page's lifetime, with a hidden FTL indirection
//!   underneath (and `relocations_patched() == 0` forever, because the
//!   block interface has no way to tell the host anything moved);
//! * the cooperating-logs manager's handle is a [`PhysName`] — a name
//!   the *device* chose, patched in RAM whenever a
//!   [`Migrated`](requiem_iface::Upcall::Migrated) upcall reports that
//!   garbage collection moved the page.
//!
//! E14 drives the same OLTP trace through both implementations and
//! compares exactly the numbers this trait exports: end-to-end write
//! amplification and the collector's copy traffic.

use requiem_iface::nameless::PhysName;
use requiem_ssd::Lpn;

use crate::backend::{LegacyBackend, PersistenceBackend};
use crate::coop::CoopLogBackend;
use crate::page::PageId;

/// A persistence backend that can say what it stores per page and what
/// the device's collector did underneath it.
pub trait StorageManager: PersistenceBackend {
    /// What the host stores to find a page again: a host-chosen LBA on
    /// the block interface, a device-chosen [`PhysName`] on the nameless
    /// one.
    type Handle: Copy + std::fmt::Debug + PartialEq;

    /// Where `page` currently lives, if it has ever been written.
    fn handle_of(&self, page: PageId) -> Option<Self::Handle>;

    /// Migration upcalls applied to the page table. Structurally zero
    /// for block managers: the interface cannot express one.
    fn relocations_patched(&self) -> u64;

    /// Flash page programs the device performed for this manager's
    /// traffic (host writes *and* every hidden copy).
    fn device_programs(&self) -> u64;

    /// Write commands the device accepted from this manager.
    fn device_host_writes(&self) -> u64;

    /// Garbage-collection invocations inside the device.
    fn device_gc_runs(&self) -> u64;

    /// Pages the device's garbage collector relocated — the double-GC
    /// tax when a log-structured manager runs on a log-structured FTL.
    fn device_gc_moved(&self) -> u64;
}

impl StorageManager for LegacyBackend {
    type Handle = Lpn;

    fn handle_of(&self, page: PageId) -> Option<Self::Handle> {
        // the block manager's mapping is static arithmetic: the handle
        // exists whether or not the page was ever written, which is the
        // memory abstraction in one line
        Some(Lpn(self.data_base() + page.0))
    }

    fn relocations_patched(&self) -> u64 {
        0
    }

    fn device_programs(&self) -> u64 {
        self.ssd().metrics().flash_programs.total()
    }

    fn device_host_writes(&self) -> u64 {
        self.ssd().metrics().host_writes
    }

    fn device_gc_runs(&self) -> u64 {
        self.ssd().metrics().gc_runs
    }

    fn device_gc_moved(&self) -> u64 {
        self.ssd().metrics().gc_pages_moved
    }
}

impl StorageManager for CoopLogBackend {
    type Handle = PhysName;

    fn handle_of(&self, page: PageId) -> Option<Self::Handle> {
        self.table().lookup(page.0)
    }

    fn relocations_patched(&self) -> u64 {
        CoopLogBackend::relocations_patched(self)
    }

    fn device_programs(&self) -> u64 {
        self.dev().metrics().flash_programs.total()
    }

    fn device_host_writes(&self) -> u64 {
        self.dev().metrics().host_writes
    }

    fn device_gc_runs(&self) -> u64 {
        self.dev().metrics().gc_runs
    }

    fn device_gc_moved(&self) -> u64 {
        self.dev().metrics().gc_pages_moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use requiem_iface::nameless::NamelessConfig;
    use requiem_sim::time::SimTime;
    use requiem_ssd::SsdConfig;

    fn cfg() -> SsdConfig {
        let mut cfg = SsdConfig::modern();
        cfg.shape.channels = 1;
        cfg.shape.chips_per_channel = 2;
        cfg
    }

    /// The generic code path E14 uses: anything that is a StorageManager
    /// can be asked where a page lives and what placement work happened.
    fn describe<M: StorageManager>(m: &M, page: PageId) -> (bool, u64) {
        (m.handle_of(page).is_some(), m.relocations_patched())
    }

    #[test]
    fn block_manager_handles_are_static_and_silent() {
        let mut m = LegacyBackend::new(cfg(), 64, 16);
        let (bound_before_write, _) = describe(&m, PageId(3));
        assert!(
            bound_before_write,
            "an LBA exists before any write: the memory abstraction"
        );
        let t = m.page_write(SimTime::ZERO, PageId(3));
        assert!(t > SimTime::ZERO);
        assert_eq!(
            m.relocations_patched(),
            0,
            "the block interface cannot report a relocation"
        );
    }

    #[test]
    fn coop_manager_handles_exist_only_after_write() {
        let mut m = CoopLogBackend::new(NamelessConfig::from(&cfg()), 64, 16);
        let (bound_before_write, _) = describe(&m, PageId(3));
        assert!(
            !bound_before_write,
            "no name until the device chooses one: the communication abstraction"
        );
        let t = m.page_write(SimTime::ZERO, PageId(3));
        assert!(t > SimTime::ZERO);
        let (bound_after_write, _) = describe(&m, PageId(3));
        assert!(bound_after_write);
        assert!(m.device_programs() >= 1);
    }
}
