//! Deterministic round-robin core clock for multi-shard stepping.
//!
//! A sharded executor has N independent event loops (one per core)
//! sharing one device. To keep the simulation bit-reproducible the
//! coordinator must interleave their steps in a fixed, seed-free
//! order: always the shard with the **earliest** pending event, and —
//! when several shards are ready at the same instant — round-robin
//! starting just after the shard granted last. The clock holds no
//! times itself; callers pass each shard's next-event candidate and
//! get back which shard to step.
//!
//! Determinism note: selection depends only on the candidate
//! list and the clock's own grant history — no wall clock, no hash
//! iteration, no randomness.

use crate::time::SimTime;

/// Round-robin tie-breaking selector over per-shard event times.
#[derive(Debug, Clone)]
pub struct CoreClock {
    /// Number of cores/shards being interleaved.
    n: usize,
    /// Index granted by the previous [`CoreClock::pick`] call.
    last: usize,
}

impl CoreClock {
    /// A clock over `n` cores (`n >= 1`). The first tie at time zero
    /// resolves to core 0.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "core clock needs at least one core");
        CoreClock {
            n: n.max(1),
            last: n - 1,
        }
    }

    /// Number of cores the clock interleaves.
    pub fn cores(&self) -> usize {
        self.n
    }

    /// Choose the next shard to step: the earliest candidate time, ties
    /// broken round-robin (first candidate strictly after the
    /// previously granted index, cyclically). Returns `None` when no
    /// shard has a pending event.
    pub fn pick(&mut self, candidates: &[Option<SimTime>]) -> Option<(usize, SimTime)> {
        debug_assert_eq!(
            candidates.len(),
            self.n,
            "candidate list must cover every core"
        );
        let earliest = candidates.iter().flatten().min().copied()?;
        // scan cyclically starting just after the last grant so equal
        // times rotate fairly instead of starving high indices
        for off in 1..=self.n {
            let i = (self.last + off) % self.n;
            if candidates.get(i).copied().flatten() == Some(earliest) {
                self.last = i;
                return Some((i, earliest));
            }
        }
        None // unreachable: `earliest` came from the list
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> Option<SimTime> {
        Some(SimTime::ZERO + crate::time::SimDuration::from_nanos(ns))
    }

    #[test]
    fn picks_earliest_event() {
        let mut c = CoreClock::new(3);
        assert_eq!(c.pick(&[t(30), t(10), t(20)]).map(|(i, _)| i), Some(1));
        assert_eq!(c.pick(&[t(30), None, t(20)]).map(|(i, _)| i), Some(2));
        assert_eq!(c.pick(&[t(30), None, None]).map(|(i, _)| i), Some(0));
        assert_eq!(c.pick(&[None, None, None]), None);
    }

    #[test]
    fn ties_rotate_round_robin() {
        let mut c = CoreClock::new(4);
        let all = [t(5), t(5), t(5), t(5)];
        let order: Vec<usize> = (0..8)
            .filter_map(|_| c.pick(&all).map(|(i, _)| i))
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 0, 1, 2, 3], "fair rotation");
    }

    #[test]
    fn tie_break_starts_after_last_grant() {
        let mut c = CoreClock::new(3);
        assert_eq!(c.pick(&[t(9), t(9), t(1)]).map(|(i, _)| i), Some(2));
        // 0 and 1 tie at 9; after granting 2 the rotation prefers 0
        assert_eq!(c.pick(&[t(9), t(9), None]).map(|(i, _)| i), Some(0));
        assert_eq!(c.pick(&[t(9), t(9), None]).map(|(i, _)| i), Some(1));
    }

    #[test]
    fn replay_is_deterministic() {
        let script = [
            [t(3), t(1), t(1), None],
            [t(3), t(2), t(2), t(2)],
            [t(3), t(3), t(3), t(3)],
            [None, t(4), None, t(4)],
        ];
        let run = |mut c: CoreClock| -> Vec<Option<usize>> {
            script
                .iter()
                .map(|cand| c.pick(cand).map(|(i, _)| i))
                .collect()
        };
        assert_eq!(run(CoreClock::new(4)), run(CoreClock::new(4)));
    }
}
