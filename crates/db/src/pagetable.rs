//! The host-side name table of the cooperating-logs manager — generic
//! over the device's handle type.
//!
//! §3 of the paper: with nameless writes *"the host stores names instead
//! of maintaining a redundant logical map"*. This table IS that stored
//! name set: one handle per live tag, patched in place when the device's
//! garbage collector migrates a page and sends a
//! [`Migrated`](requiem_iface::Upcall::Migrated) upcall.
//! [`CoopLogBackend`](crate::coop::CoopLogBackend) keeps two, both over
//! [`PhysName`](requiem_iface::PhysName)s: data pages by page id, WAL
//! segments by absolute segment index.
//!
//! Both tag spaces are dense and start at zero, so the table is an array
//! indexed by tag: a lookup or a bind is one bounds check and one load,
//! where the executor pays for it once per page read and once per page
//! write. The array grows to the largest tag ever bound and never
//! shrinks. For data pages that is the database; for the segment table it
//! is one slot (an `Option<H>`) per log segment ever written, live or
//! truncated — the log's length in segments, not its window.
//!
//! Patches are **old-value guarded**: a migration names the location it
//! moved *from*, and the patch applies only if the table still points
//! there. This makes upcall application idempotent and safe under the
//! one legal race — the host rebinding a tag (new write) while a
//! migration message for the *previous* version is still in flight. The
//! guarded miss is counted, never dropped silently.

/// Host-side tag → handle table with old-value-guarded migration patching.
#[derive(Debug, Clone)]
pub struct PageTable<H> {
    /// `slots[tag]`: the handle `tag` is bound to.
    slots: Vec<Option<H>>,
    /// Bound tags.
    live: usize,
    patched: u64,
    unmatched: u64,
}

impl<H> Default for PageTable<H> {
    fn default() -> Self {
        PageTable {
            slots: Vec::new(),
            live: 0,
            patched: 0,
            unmatched: 0,
        }
    }
}

/// `tag`'s index in the table.
///
/// # Panics
/// Panics on a tag of 2³² or more: no dense tag space gets there, and a
/// log tag whose `LOG_TAG_BASE` was not stripped must not size the table.
fn slot_of(tag: u64) -> usize {
    assert!(
        tag < 1 << 32,
        "tag {tag:#x} is not a dense table index (a log tag still carrying LOG_TAG_BASE?)"
    );
    tag as usize
}

impl<H: Copy + PartialEq> PageTable<H> {
    /// New, empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind `tag` to `handle`; returns the previous binding (the caller
    /// owns freeing the superseded version).
    pub fn bind(&mut self, tag: u64, handle: H) -> Option<H> {
        let i = slot_of(tag);
        if i >= self.slots.len() {
            self.slots.resize(i + 1, None);
        }
        let previous = self.slots[i].replace(handle);
        self.live += usize::from(previous.is_none());
        previous
    }

    /// Current handle of `tag`.
    pub fn lookup(&self, tag: u64) -> Option<H> {
        self.slots.get(slot_of(tag)).copied().flatten()
    }

    /// Remove `tag`'s binding; returns it (the caller owns the free).
    pub fn unbind(&mut self, tag: u64) -> Option<H> {
        let previous = self.slots.get_mut(slot_of(tag))?.take();
        self.live -= usize::from(previous.is_some());
        previous
    }

    /// Apply one migration: if `tag` is bound to exactly `old`, rebind it
    /// to `new` and return `true`. A guarded miss (tag unbound, or bound
    /// elsewhere because the host already superseded that version) is
    /// counted and returns `false` — the message was about a version this
    /// table no longer points at.
    pub fn patch(&mut self, tag: u64, old: H, new: H) -> bool {
        match self.slots.get_mut(slot_of(tag)) {
            Some(Some(h)) if *h == old => {
                *h = new;
                self.patched += 1;
                true
            }
            _ => {
                self.unmatched += 1;
                false
            }
        }
    }

    /// Live bindings.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no tag is bound.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Migrations applied (table pointed at the old location).
    pub fn patched(&self) -> u64 {
        self.patched
    }

    /// Migrations that missed the guard (version already superseded).
    pub fn unmatched(&self) -> u64 {
        self.unmatched
    }

    /// Iterate live `(tag, handle)` bindings in tag order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, H)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(tag, h)| h.map(|h| (tag as u64, h)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn bind_lookup_unbind_roundtrip() {
        let mut t: PageTable<u32> = PageTable::new();
        assert_eq!(t.bind(7, 100), None);
        assert_eq!(t.lookup(7), Some(100));
        assert_eq!(t.bind(7, 200), Some(100), "rebind returns superseded");
        assert_eq!(t.unbind(7), Some(200));
        assert!(t.is_empty());
    }

    #[test]
    fn patch_is_old_value_guarded() {
        let mut t: PageTable<u32> = PageTable::new();
        t.bind(1, 10);
        assert!(t.patch(1, 10, 11), "matching old applies");
        assert_eq!(t.lookup(1), Some(11));
        assert!(!t.patch(1, 10, 12), "stale migration must not apply");
        assert_eq!(t.lookup(1), Some(11), "binding unchanged by stale patch");
        assert!(!t.patch(2, 0, 1), "unbound tag is a guarded miss");
        assert_eq!((t.patched(), t.unmatched()), (1, 2));
    }

    #[test]
    fn patch_chains_compose() {
        // two migrations of the same version, delivered in order, both
        // apply; replayed out of order, the second is refused
        let mut t: PageTable<u32> = PageTable::new();
        t.bind(3, 10);
        assert!(t.patch(3, 10, 20));
        assert!(t.patch(3, 20, 30));
        assert!(!t.patch(3, 10, 20), "replay of the first hop is refused");
        assert_eq!(t.lookup(3), Some(30));
    }

    #[test]
    #[should_panic(expected = "not a dense table index")]
    fn a_log_tag_with_its_base_left_on_is_refused_not_allocated() {
        let mut t: PageTable<u32> = PageTable::new();
        t.bind((1 << 48) + 3, 7);
    }

    /// The table as it was before it was an array — a `BTreeMap` from tag
    /// to handle — kept as the reference the array is checked against.
    #[derive(Default)]
    struct TreeTable {
        map: BTreeMap<u64, u32>,
        patched: u64,
        unmatched: u64,
    }

    impl TreeTable {
        fn patch(&mut self, tag: u64, old: u32, new: u32) -> bool {
            match self.map.get_mut(&tag) {
                Some(h) if *h == old => {
                    *h = new;
                    self.patched += 1;
                    true
                }
                _ => {
                    self.unmatched += 1;
                    false
                }
            }
        }
    }

    /// Drive both tables through `ops` = `(op, tag pick, handle)` and
    /// compare every return value and, after every step, everything
    /// observable. With `window` the tags are a 16-wide window that slides
    /// up one tag per bind and never comes back — the segment table's
    /// shape; without, the 64 tags of a small database.
    fn assert_matches_tree_table(window: bool, ops: &[(u8, u64, u32)]) {
        let mut table: PageTable<u32> = PageTable::new();
        let mut tree = TreeTable::default();
        let mut base = 0u64;
        for (step, &(op, pick, handle)) in ops.iter().enumerate() {
            let tag = if window { base + pick % 16 } else { pick % 64 };
            match op {
                0..=3 => {
                    assert_eq!(
                        table.bind(tag, handle),
                        tree.map.insert(tag, handle),
                        "step {step}"
                    );
                    base += u64::from(window);
                }
                4..=5 => assert_eq!(table.unbind(tag), tree.map.remove(&tag), "step {step}"),
                6..=9 => {
                    // the binding as it is (applies), a value it does not
                    // have (stale), or whatever an unbound tag is given
                    let old = match tree.map.get(&tag) {
                        Some(&bound) if op < 9 => bound,
                        _ => handle.wrapping_add(1),
                    };
                    assert_eq!(
                        table.patch(tag, old, handle),
                        tree.patch(tag, old, handle),
                        "step {step}"
                    );
                }
                _ => {}
            }
            assert_eq!(
                table.lookup(tag),
                tree.map.get(&tag).copied(),
                "step {step}"
            );
            assert_eq!(table.len(), tree.map.len(), "step {step}");
            assert_eq!(table.is_empty(), tree.map.is_empty(), "step {step}");
            assert_eq!(
                (table.patched(), table.unmatched()),
                (tree.patched, tree.unmatched),
                "step {step}"
            );
            assert!(
                table.iter().eq(tree.map.iter().map(|(&t, &h)| (t, h))),
                "step {step}: iteration differs"
            );
        }
    }

    proptest! {
        #[test]
        fn indexed_table_matches_the_tree_table_it_replaced(
            window in 0..2u8,
            ops in proptest::collection::vec((0..11u8, 0..64u64, 0..8u32), 1..300),
        ) {
            assert_matches_tree_table(window == 1, &ops);
        }
    }
}
