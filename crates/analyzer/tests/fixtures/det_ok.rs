// Fixture: deterministic twin of det_bad.rs — typed sim time.
// Never compiled — lint test data only.
use requiem_sim::time::SimTime;

pub struct Tracker {
    started: SimTime,
}

impl Tracker {
    pub fn stamp(&self) -> SimTime {
        self.started
    }
}
