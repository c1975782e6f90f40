//! The page images the engine holds outside the buffer pool: what is
//! durable on the device, and what is on its way there.
//!
//! The devices model timing and layout; the engine models the bytes. Every
//! image has one owner. A dirty buffer frame owns its page's bytes; a
//! steal or a checkpoint *moves* them here, first (a checkpoint batch)
//! into the in-flight list, then into the durable set once the write's
//! completion instant has passed. A page nobody has dirtied since has no
//! bytes anywhere else: a clean frame, a device read and
//! `Database::visible_owner` all read [`PageImages::newest`].

use requiem_sim::time::SimTime;

use crate::page::{PageId, PageVec, SlottedPage};

/// Durable and in-flight page images, per page of a densely numbered
/// database.
#[derive(Debug)]
pub(crate) struct PageImages {
    /// What `load` writes and what a page never written since reads as:
    /// every fixed slot present and zeroed. The one copy of it.
    formatted: SlottedPage,
    /// The image durable on the device; `None` = still the formatted one.
    durable: PageVec<Option<SlottedPage>>,
    /// Writes in flight, in submission order: (completion instant, page,
    /// image). Promoted to `durable` once the clock passes the completion.
    in_flight: Vec<(SimTime, PageId, SlottedPage)>,
    /// The list [`PageImages::settle`] walks while it refills `in_flight`
    /// (the two trade places, so neither is regrown).
    settling: Vec<(SimTime, PageId, SlottedPage)>,
}

impl PageImages {
    /// A `pages`-page database, every page durable as `formatted`.
    pub(crate) fn new(pages: u64, formatted: SlottedPage) -> Self {
        PageImages {
            formatted,
            durable: PageVec::new(pages, None),
            in_flight: Vec::new(),
            settling: Vec::new(),
        }
    }

    /// The formatted image (media-failure redo starts from a copy).
    pub(crate) fn formatted(&self) -> &SlottedPage {
        &self.formatted
    }

    /// The durable image of `pid`.
    pub(crate) fn durable(&self, pid: PageId) -> &SlottedPage {
        self.durable[pid].as_ref().unwrap_or(&self.formatted)
    }

    /// The durable image of `pid`, for recovery to redo into: a page still
    /// formatted gets bytes of its own first.
    pub(crate) fn durable_mut(&mut self, pid: PageId) -> &mut SlottedPage {
        self.durable[pid].get_or_insert_with(|| self.formatted.clone())
    }

    /// The newest image of `pid`: its latest write in flight, else the
    /// durable one. What a device read returns, and — because nothing
    /// changes a page's newest image while a clean frame holds the page
    /// (DESIGN §2.7) — what a frame that has not been written shows.
    pub(crate) fn newest(&self, pid: PageId) -> &SlottedPage {
        self.in_flight
            .iter()
            .rev()
            .find(|(_, p, _)| *p == pid)
            .map_or_else(|| self.durable(pid), |(_, _, image)| image)
    }

    /// Every image of `pid` held here, durable then in flight, for a
    /// rollback to patch. A page still formatted yields none: the
    /// formatted image carries nobody's write.
    pub(crate) fn of_mut(&mut self, pid: PageId) -> impl Iterator<Item = &mut SlottedPage> {
        self.durable[pid].iter_mut().chain(
            self.in_flight
                .iter_mut()
                .filter(move |(_, p, _)| *p == pid)
                .map(|(_, _, image)| image),
        )
    }

    /// `image` is durable as of now (a steal write-back, a media-failure
    /// rebuild). Returns the image it replaced, unless that was the
    /// formatted one.
    pub(crate) fn set_durable(&mut self, pid: PageId, image: SlottedPage) -> Option<SlottedPage> {
        self.durable[pid].replace(image)
    }

    /// A write of `image` was submitted and completes at `done`.
    pub(crate) fn write(&mut self, done: SimTime, pid: PageId, image: SlottedPage) {
        self.in_flight.push((done, pid, image));
    }

    /// Land every write whose completion is at or before `now`, in
    /// submission order (the later of two landed writes of one page wins).
    /// The images they replace go to `retire`.
    pub(crate) fn settle(&mut self, now: SimTime, mut retire: impl FnMut(SlottedPage)) {
        std::mem::swap(&mut self.in_flight, &mut self.settling);
        for (done, pid, image) in self.settling.drain(..) {
            if done > now {
                self.in_flight.push((done, pid, image));
            } else if let Some(replaced) = self.durable[pid].replace(image) {
                retire(replaced);
            }
        }
    }

    /// Simulated crash at `now`: writes that had completed are durable,
    /// the rest are lost (torn batches are prevented by the backend's
    /// journal / atomic write).
    pub(crate) fn crash(&mut self, now: SimTime, retire: impl FnMut(SlottedPage)) {
        self.settle(now, retire);
        self.in_flight.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use requiem_sim::time::SimDuration;

    fn page_with(tag: &[u8]) -> SlottedPage {
        let mut p = SlottedPage::new();
        p.insert(tag).unwrap();
        p
    }

    fn at(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn a_page_never_written_reads_as_the_formatted_image_and_owns_no_bytes() {
        let mut images = PageImages::new(4, page_with(b"formatted"));
        assert_eq!(images.newest(PageId(2)).get(0), Some(&b"formatted"[..]));
        assert_eq!(images.of_mut(PageId(2)).count(), 0);
        images.durable_mut(PageId(2)).set_lsn(9);
        assert_eq!(images.durable(PageId(2)).lsn(), 9);
        assert_eq!(images.formatted().lsn(), 0, "redo wrote a copy");
        assert_eq!(images.durable(PageId(1)).lsn(), 0);
    }

    #[test]
    fn newest_is_the_latest_write_in_flight_and_landing_keeps_it() {
        let mut images = PageImages::new(4, page_with(b"formatted"));
        let p = PageId(1);
        assert_eq!(images.set_durable(p, page_with(b"stolen")), None);
        images.write(at(10), p, page_with(b"first"));
        images.write(at(20), p, page_with(b"second"));
        assert_eq!(images.newest(p).get(0), Some(&b"second"[..]));
        assert_eq!(images.durable(p).get(0), Some(&b"stolen"[..]));
        assert_eq!(images.of_mut(p).count(), 3);

        let mut retired = Vec::new();
        images.settle(at(10), |old| retired.push(old));
        assert_eq!(images.durable(p).get(0), Some(&b"first"[..]));
        assert_eq!(images.newest(p).get(0), Some(&b"second"[..]));
        images.settle(at(20), |old| retired.push(old));
        assert_eq!(images.newest(p).get(0), Some(&b"second"[..]));
        assert_eq!(images.of_mut(p).count(), 1, "both writes landed");
        let retired: Vec<_> = retired.iter().map(|old| old.get(0).unwrap()).collect();
        assert_eq!(retired, [&b"stolen"[..], &b"first"[..]]);
    }

    #[test]
    fn a_crash_loses_the_writes_that_had_not_completed() {
        let mut images = PageImages::new(4, page_with(b"formatted"));
        images.write(at(10), PageId(0), page_with(b"landed"));
        images.write(at(30), PageId(1), page_with(b"lost"));
        images.crash(at(20), drop);
        assert_eq!(images.newest(PageId(0)).get(0), Some(&b"landed"[..]));
        assert_eq!(images.newest(PageId(1)).get(0), Some(&b"formatted"[..]));
    }
}
