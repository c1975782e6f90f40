// DEAD01 clean twin of `dead_accessor_bad.rs`: an integration test that
// calls the accessor, once as a method and once through its path, so it
// is live.
use requiem_db::coop::CoopLogBackend;

#[test]
fn a_lost_name_is_counted() {
    let retries: fn(&CoopLogBackend) -> u64 = CoopLogBackend::read_retries;
    let b = CoopLogBackend::default();
    assert_eq!(b.read_retries(), retries(&b));
}
