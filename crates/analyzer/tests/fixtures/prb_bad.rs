// Fixture: PRB02 (unclosed span).
// Never compiled — lint test data only.
pub fn trace(probe: &Probe, t0: SimTime) {
    let _bg = probe.background();
    let _scope = probe.open_command(0, t0);
    // span never closed or detached
}
