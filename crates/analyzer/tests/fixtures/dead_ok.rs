// DEAD01 clean twin of `dead_bad.rs`: a file outside `crates/flash/src/`
// that names every item, so none of them is dead. Linted once as an
// integration test and once as a reference-only root.
use requiem_flash::lun::{lines_per_block, Lun, SPARE_BLOCKS, WEAR_LIMIT};

#[test]
fn wear_budget() {
    let lun = Lun::default();
    assert!(lun.mean_erase_count() < f64::from(WEAR_LIMIT));
    assert!(SPARE_BLOCKS < lines_per_block());
}
