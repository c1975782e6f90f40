// IOS02 clean twin: every status-carrying result reaches a
// consumer — matched, routed to a sink, or folded through an assignment.
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

pub fn worse_status(a: IoStatus, _b: IoStatus) -> IoStatus {
    a
}

pub fn note_status(_s: IoStatus) {}

pub fn status_routed(d: &mut Dev, t: u64) -> u64 {
    let f = d.force(t);
    note_status(f.status);
    f.done
}

pub fn status_folded_by_assignment(d: &mut Dev, t: u64) -> u64 {
    // the trailing fallible call feeds an assignment target — consumed
    let f = d.force(t);
    let mut st = IoStatus::Ok;
    st = worse_status(st, f.status);
    note_status(st);
    f.done
}

pub fn status_matched(d: &mut Dev, t: u64) -> u64 {
    let f = d.force(t);
    match f.status {
        IoStatus::Ok => f.done,
    }
}
