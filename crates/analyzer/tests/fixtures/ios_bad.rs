// IOS02 fixture: status-carrying results discarded, or bound and
// forgotten. (A result dropped in statement position is rustc's:
// `#[must_use]` under `unused_must_use = "deny"`.)
pub enum IoStatus {
    Ok,
}

pub struct WalForce {
    pub done: u64,
    pub status: IoStatus,
}

pub struct Dev;

impl Dev {
    pub fn force(&mut self, t: u64) -> WalForce {
        WalForce {
            done: t,
            status: IoStatus::Ok,
        }
    }
}

pub fn discard_binding(d: &mut Dev, t: u64) {
    // IOS02: bound to `_`
    let _ = d.force(t);
}

pub fn status_never_consumed(d: &mut Dev, t: u64) -> u64 {
    // IOS02: WalForce bound, `.done` used, `.status` never consumed
    let f = d.force(t);
    f.done
}

pub fn done_projection(d: &mut Dev, t: u64) -> u64 {
    // IOS02: `.done` projection throws the status away on the spot
    let end = d.force(t).done;
    end
}
