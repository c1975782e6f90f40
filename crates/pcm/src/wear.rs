//! Start-Gap wear leveling.
//!
//! PCM supports in-place updates, so no FTL mapping is needed for
//! correctness — but hot lines would wear out early without leveling.
//! Start-Gap (Qureshi et al., MICRO 2009) is the canonical scheme: keep one
//! spare line (the *gap*); every `gap_interval` writes, move the gap one
//! slot (copying the displaced line into the old gap). Over time every
//! logical line slowly rotates through every physical slot, spreading wear,
//! with O(1) state: the algebraic map needs only `start` and `gap`.
//!
//! This is a deliberately different mechanism from a flash FTL: it
//! demonstrates the paper's §2.4 point that PCM devices still embed
//! management logic, just lighter-weight.

/// Start-Gap remapper over `n` logical lines (using `n + 1` physical slots).
#[derive(Debug, Clone)]
pub struct StartGap {
    /// Number of logical lines.
    n: u64,
    /// Physical slot currently holding logical line 0 ("start").
    start: u64,
    /// Physical slot currently unused (the gap).
    gap: u64,
    /// Writes since the last gap move.
    writes_since_move: u64,
    /// Gap moves every this many writes.
    gap_interval: u64,
    /// Total gap moves performed (each costs one line copy).
    moves: u64,
}

impl StartGap {
    /// Create a remapper for `n` logical lines, rotating the gap every
    /// `gap_interval` writes (the literature uses 100).
    ///
    /// # Panics
    /// Panics if `n == 0` or `gap_interval == 0`.
    pub fn new(n: u64, gap_interval: u64) -> Self {
        assert!(n > 0, "need at least one line");
        assert!(gap_interval > 0, "gap interval must be positive");
        StartGap {
            n,
            start: 0,
            gap: n, // gap starts at the spare slot at the end
            writes_since_move: 0,
            gap_interval,
            moves: 0,
        }
    }

    /// Number of logical lines.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Always false (n > 0 enforced at construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Physical slot for a logical line (Qureshi et al.'s formulation):
    /// `pa = (la + start) mod n`, then skip over the gap slot.
    pub fn map(&self, logical: u64) -> u64 {
        debug_assert!(logical < self.n, "logical line out of range");
        let pa = (logical + self.start) % self.n;
        if pa >= self.gap {
            pa + 1
        } else {
            pa
        }
    }

    /// Record one write. Returns `Some((from_slot, to_slot))` when the gap
    /// moves and the caller must copy the displaced line's data from
    /// `from_slot` to `to_slot`.
    pub fn on_write(&mut self) -> Option<(u64, u64)> {
        self.writes_since_move += 1;
        if self.writes_since_move < self.gap_interval {
            return None;
        }
        self.writes_since_move = 0;
        self.moves += 1;
        let copy;
        if self.gap == 0 {
            // wrap: the line in the last slot moves into slot 0, the gap
            // jumps to the top, and the whole array has rotated one step
            copy = (self.n, 0);
            self.gap = self.n;
            self.start = (self.start + 1) % self.n;
        } else {
            // move the line just below the gap up into the gap
            copy = (self.gap - 1, self.gap);
            self.gap -= 1;
        }
        Some(copy)
    }

    /// Total gap moves so far (each is one extra line write of overhead).
    pub fn moves(&self) -> u64 {
        self.moves
    }

    /// Write-overhead ratio of the scheme: extra writes per user write
    /// (`1 / gap_interval` asymptotically).
    pub fn overhead_ratio(&self) -> f64 {
        1.0 / self.gap_interval as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn initial_map_is_identity() {
        let sg = StartGap::new(8, 100);
        for i in 0..8 {
            assert_eq!(sg.map(i), i);
        }
    }

    #[test]
    fn map_is_injective_after_any_number_of_moves() {
        let mut sg = StartGap::new(16, 1); // move gap on every write
        for step in 0..200 {
            let mut seen = BTreeSet::new();
            for i in 0..16 {
                let p = sg.map(i);
                assert!(p < 17, "slot out of range");
                assert_ne!(p, sg.gap, "mapped into the gap at step {step}");
                assert!(seen.insert(p), "collision at step {step}");
            }
            sg.on_write();
        }
    }

    #[test]
    fn gap_move_returns_copy_instruction() {
        let mut sg = StartGap::new(4, 2);
        assert_eq!(sg.on_write(), None);
        let mv = sg.on_write().expect("second write moves gap");
        // gap was at slot 4; line in slot 3 moves into 4
        assert_eq!(mv, (3, 4));
        assert_eq!(sg.moves(), 1);
    }

    #[test]
    fn lines_rotate_over_time() {
        // after n+1 gap rotations every line has moved one slot
        let n = 8u64;
        let mut sg = StartGap::new(n, 1);
        let before: Vec<u64> = (0..n).map(|i| sg.map(i)).collect();
        for _ in 0..(n + 1) {
            sg.on_write();
        }
        let after: Vec<u64> = (0..n).map(|i| sg.map(i)).collect();
        assert_ne!(before, after, "rotation should change the mapping");
        // every logical line still maps somewhere unique
        let set: BTreeSet<_> = after.iter().collect();
        assert_eq!(set.len(), n as usize);
    }

    #[test]
    fn wear_spreads_across_slots() {
        // hammer a single logical line; with gap moving every write the
        // physical slot it lands on must change over time
        let mut sg = StartGap::new(8, 1);
        let mut slots = BTreeSet::new();
        for _ in 0..100 {
            slots.insert(sg.map(0));
            sg.on_write();
        }
        assert!(slots.len() >= 8, "hot line only hit {} slots", slots.len());
    }

    #[test]
    fn overhead_ratio_matches_interval() {
        let sg = StartGap::new(8, 100);
        assert!((sg.overhead_ratio() - 0.01).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "need at least one line")]
    fn zero_lines_rejected() {
        StartGap::new(0, 100);
    }
}
