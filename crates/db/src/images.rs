//! The page images the engine holds outside the buffer pool: what is
//! durable on the device, and what is on its way there.
//!
//! The devices model timing and layout; the engine models the bytes. A
//! page has one image, the durable one, which stores only the records
//! written to it: a page never written since `load` owns no bytes. A write
//! not in it yet is a redo entry naming an after-image in its log record:
//! in a dirty buffer frame until a steal applies it to the durable image,
//! or a checkpoint moves it to the in-flight list until its write lands
//! (DESIGN §2.7).

use requiem_sim::time::SimTime;

use crate::page::{PageId, PageImage, PageVec, Redo};
use crate::wal::{ImageRef, Wal};

/// Durable page images and the redo of writes in flight, per page of a
/// densely numbered database.
#[derive(Debug)]
pub(crate) struct PageImages {
    /// The image durable on the device.
    durable: PageVec<PageImage>,
    /// The writes in flight, one entry per slot written: (completion
    /// instant, page, page LSN the write leaves, slot, after-image). They
    /// complete in submission order: what lands is a prefix.
    in_flight: Vec<(SimTime, PageId, u64, u16, Option<ImageRef>)>,
}

impl PageImages {
    /// A `pages`-page database, every page durable as formatted.
    pub(crate) fn new(pages: u64) -> Self {
        PageImages {
            durable: PageVec::new(pages, PageImage::formatted()),
            in_flight: Vec::new(),
        }
    }

    /// The durable image of `pid`.
    pub(crate) fn durable(&self, pid: PageId) -> &PageImage {
        &self.durable[pid]
    }

    /// The durable image of `pid`, for a steal's write-back or recovery
    /// to redo into. Writes of a page land in order, so none of `pid` is
    /// in flight.
    pub(crate) fn durable_mut(&mut self, pid: PageId) -> &mut PageImage {
        debug_assert!(
            self.in_flight.iter().all(|w| w.1 != pid),
            "{pid:?} in flight"
        );
        &mut self.durable[pid]
    }

    /// The durable image of `pid`, formatted afresh: media-failure redo
    /// rebuilds the page into it.
    pub(crate) fn reformat(&mut self, pid: PageId) -> &mut PageImage {
        let image = &mut self.durable[pid];
        *image = PageImage::formatted();
        image
    }

    /// The newest write of `(pid, slot)` not yet in the durable image: in
    /// `pending` (a resident frame's redo), else in flight. `None` when
    /// the durable record is the newest.
    fn logged(&self, pending: Option<&Redo>, pid: PageId, slot: u16) -> Option<Option<ImageRef>> {
        let mut in_flight = self.in_flight.iter().rev();
        pending
            .and_then(|r| r.slot(slot))
            .or_else(|| in_flight.find(|w| (w.1, w.3) == (pid, slot)).map(|w| w.4))
    }

    /// The record a reader of `(pid, slot)` sees through `pending`. `None`
    /// for a deleted or absent slot.
    pub(crate) fn record<'a>(
        &'a self,
        pending: Option<&Redo>,
        pid: PageId,
        slot: u16,
        wal: &'a Wal,
    ) -> Option<&'a [u8]> {
        match self.logged(pending, pid, slot) {
            Some(after) => after.map(|a| wal.after(a)),
            None => self.durable(pid).get(slot),
        }
    }

    /// Roll `slot` of `pid` back to `before` wherever it shows `owned`'s
    /// write: first in `frame` (the resident page's redo, got as a write
    /// access), then in the durable image and in each write in flight.
    /// True when the frame's record was restored.
    pub(crate) fn roll_back(
        &mut self,
        frame: Option<&mut Redo>,
        pid: PageId,
        slot: u16,
        before: Option<ImageRef>,
        wal: &Wal,
        owned: impl Fn(Option<&[u8]>) -> bool,
    ) -> bool {
        let restored = frame.is_some_and(|frame| {
            let hit = owned(self.record(Some(frame), pid, slot, wal));
            if hit {
                frame.push(slot, before);
            }
            hit
        });
        let image = &mut self.durable[pid];
        if owned(image.get(slot)) {
            image.redo(slot, before.map(|b| wal.after(b)), image.lsn());
        }
        for w in &mut self.in_flight {
            if (w.1, w.3) == (pid, slot) && owned(w.4.map(|a| wal.after(a))) {
                w.4 = before;
            }
        }
        restored
    }

    /// A write of `redo` to `pid` was submitted and completes at `done`.
    pub(crate) fn write(&mut self, done: SimTime, pid: PageId, redo: &Redo) {
        debug_assert!(
            self.in_flight.last().map_or(true, |w| w.0 <= done),
            "writes complete in submission order"
        );
        let (lsn, writes) = (redo.lsn, redo.writes.iter());
        self.in_flight
            .extend(writes.map(|&(slot, after)| (done, pid, lsn, slot, after)));
    }

    /// Land every write whose completion is at or before `now`, in
    /// submission order: each applies its redo to its page's durable
    /// image.
    pub(crate) fn settle(&mut self, now: SimTime, wal: &Wal) {
        let landed = self.in_flight.partition_point(|w| w.0 <= now);
        for (_, pid, lsn, slot, after) in self.in_flight.drain(..landed) {
            let image = &mut self.durable[pid];
            image.redo(slot, after.map(|a| wal.after(a)), lsn.max(image.lsn()));
        }
    }

    /// Simulated crash at `now`: writes that had completed are durable,
    /// the rest are lost (torn batches are prevented by the backend's
    /// journal / atomic write).
    pub(crate) fn crash(&mut self, now: SimTime, wal: &Wal) {
        self.settle(now, wal);
        self.in_flight.clear();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::page::RECORD_SIZE;
    use crate::wal::tests::logged;
    use requiem_sim::time::SimDuration;

    /// The bytes a reader of `pid` sees through `pending`: the durable
    /// image with every write in flight and then `pending` applied.
    pub(crate) fn newest(
        images: &PageImages,
        pending: Option<&Redo>,
        pid: PageId,
        wal: &Wal,
    ) -> PageImage {
        let mut page = images.durable(pid).clone();
        for &(_, p, lsn, slot, after) in &images.in_flight {
            if p == pid {
                page.redo(slot, after.map(|a| wal.after(a)), lsn.max(page.lsn()));
            }
        }
        if let Some(redo) = pending {
            redo.apply(&mut page, wal);
        }
        page
    }

    fn at(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    /// A record whose first 8 bytes are `tag`.
    fn tagged(tag: u64) -> [u8; RECORD_SIZE] {
        let mut r = [0; RECORD_SIZE];
        r[..8].copy_from_slice(&tag.to_le_bytes());
        r
    }

    /// A redo list writing `tag` into `slot`, at page LSN `lsn`.
    fn redo(wal: &mut Wal, slot: u16, tag: u64, lsn: u64) -> Redo {
        let mut r = Redo::default();
        r.push(slot, Some(logged(wal, &tagged(tag))));
        r.lsn = lsn;
        r
    }

    fn owner(record: Option<&[u8]>) -> Option<u64> {
        record.map(|r| u64::from_le_bytes(r[..8].try_into().unwrap()))
    }

    #[test]
    fn a_page_never_written_reads_as_the_formatted_image_and_owns_no_bytes() {
        let mut images = PageImages::new(4);
        let wal = Wal::new();
        let owns_nothing = |images: &PageImages, p| {
            let image = images.durable(PageId(p));
            image.records_owned() == 0 && image == &PageImage::formatted()
        };
        assert_eq!(owner(images.record(None, PageId(2), 0, &wal)), Some(0));
        let aborted = |r: Option<&[u8]>| owner(r) == Some(7);
        assert!(!images.roll_back(None, PageId(2), 0, None, &wal, aborted));
        assert!(
            owns_nothing(&images, 2),
            "a rollback finds no write of its own"
        );
        images.durable_mut(PageId(2)).redo(1, Some(&tagged(5)), 9);
        assert_eq!(images.durable(PageId(2)).lsn(), 9);
        assert_eq!(owner(images.durable(PageId(2)).get(1)), Some(5));
        assert!((0..4).filter(|&p| p != 2).all(|p| owns_nothing(&images, p)));
        images.reformat(PageId(2));
        assert!(owns_nothing(&images, 2));
    }

    #[test]
    fn newest_is_the_latest_write_in_flight_and_landing_keeps_it() {
        let mut images = PageImages::new(4);
        let mut wal = Wal::new();
        let p = PageId(1);
        let (first, second) = (redo(&mut wal, 0, 1, 10), redo(&mut wal, 0, 2, 20));
        images.write(at(10), p, &first);
        images.write(at(20), p, &second);
        images.write(at(20), PageId(3), &redo(&mut wal, 2, 3, 20));
        assert_eq!(owner(images.record(None, p, 0, &wal)), Some(2));
        assert_eq!(owner(images.record(Some(&first), p, 0, &wal)), Some(1));
        assert_eq!(owner(images.record(None, p, 1, &wal)), Some(0));
        assert_eq!(images.durable(p), &PageImage::formatted());

        images.settle(at(10), &wal);
        assert_eq!(
            (owner(images.durable(p).get(0)), images.durable(p).lsn()),
            (Some(1), 10)
        );
        assert_eq!(owner(images.record(None, p, 0, &wal)), Some(2));
        images.settle(at(20), &wal);
        assert_eq!(
            (owner(images.durable(p).get(0)), images.durable(p).lsn()),
            (Some(2), 20)
        );
        assert_eq!(owner(images.durable(PageId(3)).get(2)), Some(3));
        assert!(images.in_flight.is_empty());
    }

    #[test]
    fn a_rollback_patches_the_durable_image_and_the_write_in_flight_that_shows_it() {
        let mut images = PageImages::new(4);
        let mut wal = Wal::new();
        let p = PageId(0);
        images.durable_mut(p).redo(0, Some(&tagged(7)), 3);
        images.write(at(10), p, &redo(&mut wal, 1, 7, 10));
        images.write(at(20), p, &redo(&mut wal, 1, 8, 20));
        let zero = Some(logged(&mut wal, &tagged(0)));
        let aborted = |r: Option<&[u8]>| owner(r) == Some(7);
        let mut frame = redo(&mut wal, 2, 9, 30);
        assert!(images.roll_back(Some(&mut frame), p, 0, zero, &wal, aborted));
        assert_eq!(frame.slot(0), Some(zero), "restored in the frame");
        assert!(
            !images.roll_back(Some(&mut frame), p, 1, zero, &wal, aborted),
            "the frame shows the newer write in flight"
        );
        assert_eq!(owner(images.durable(p).get(0)), Some(0));
        assert_eq!(images.durable(p).lsn(), 3, "a rollback logs nothing");
        assert_eq!(owner(images.record(None, p, 1, &wal)), Some(8));
        images.settle(at(10), &wal);
        assert_eq!(owner(images.durable(p).get(1)), Some(0));
    }

    #[test]
    fn a_crash_loses_the_writes_that_had_not_completed() {
        let mut images = PageImages::new(4);
        let mut wal = Wal::new();
        images.write(at(10), PageId(0), &redo(&mut wal, 0, 1, 10));
        images.write(at(30), PageId(1), &redo(&mut wal, 0, 2, 30));
        images.crash(at(20), &wal);
        assert_eq!(owner(images.record(None, PageId(0), 0, &wal)), Some(1));
        assert_eq!(owner(images.record(None, PageId(1), 0, &wal)), Some(0));
    }
}
