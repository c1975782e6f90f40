// Fixture: DET02 (ambient authority).
// Never compiled — lint test data only.
use std::time::Instant;

pub struct Tracker {
    started: Instant,
}

impl Tracker {
    pub fn stamp() -> Instant {
        Instant::now()
    }
}
