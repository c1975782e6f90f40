//! Quickstart: a guided tour of the whole stack in ~80 lines.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use requiem::db::engine::{Database, DbConfig};
use requiem::db::{BlockStackBackend, ExecConfig, TxnInput};
use requiem::pcm::{PcmDimm, PcmTiming};
use requiem::sim::time::SimTime;
use requiem::ssd::{Lpn, Ssd, SsdConfig};

fn main() {
    // ----- 1. a flash SSD behind the classic block interface -----------
    let mut ssd = Ssd::new(SsdConfig::modern());
    let w = ssd.write(SimTime::ZERO, Lpn(42)).expect("write");
    let r = ssd.read(w.done, Lpn(42)).expect("read");
    println!(
        "flash SSD:  write {} (buffered), read {}",
        w.latency, r.latency
    );

    // hammer it a bit and look at what the interface hides
    let mut t = r.done;
    for i in 0..4096u64 {
        t = ssd.write(t, Lpn(i % 1024)).expect("write").done;
    }
    let m = ssd.metrics();
    println!(
        "            after 4k overwrites: WA={:.2}, gc_runs={}, buffer hits={}",
        m.write_amplification(),
        m.gc_runs,
        m.buffer_read_hits
    );

    // ----- 2. PCM on the memory bus: the synchronous path --------------
    let mut dimm = PcmDimm::new(1 << 20, PcmTiming::gen1(), 100);
    let durable = dimm.persist(SimTime::ZERO, 0, b"commit record for txn 7");
    println!(
        "PCM DIMM:   a commit record persists in {} (vs ~600µs for a flash program)",
        durable.since(SimTime::ZERO)
    );

    // ----- 3. the database engine on the paper's vision backend --------
    let cfg = DbConfig {
        buffer_frames: 128,
        data_pages: 512,
        checkpoint_every: 0,
        ..DbConfig::default()
    };
    let mut flash_cfg = SsdConfig::modern();
    flash_cfg.buffer.capacity_pages = 0;
    let backend = BlockStackBackend::vision(flash_cfg, cfg.data_pages, 1 << 22);
    let mut db = Database::new(cfg, backend);
    db.load();

    // run a few transactions, one in flight at a time: (page, slot,
    // dirty) accesses, then a commit that forces the log
    let txns: Vec<TxnInput> = (0..100u64)
        .map(|i| TxnInput {
            accesses: vec![(i % 50, 0, true), (i % 200, 1, false)],
            log_bytes: 256,
        })
        .collect();
    db.run_concurrent(&txns, &ExecConfig::serialized());
    println!(
        "database:   100 txns committed; commit force p50 = {} (PCM log), txn p50 = {}",
        requiem::sim::time::SimDuration::from_nanos(db.commit_latency().p50()),
        requiem::sim::time::SimDuration::from_nanos(db.txn_latency().p50()),
    );

    // crash and recover — committed work survives
    db.crash();
    let replayed = db.recover();
    println!(
        "recovery:   replayed {replayed} log records; txn 1's mark is {}",
        if db.visible_owner(1, 0) != 0 {
            "intact"
        } else {
            "LOST (bug!)"
        }
    );

    println!("\nNext: `cargo run --release -p requiem-bench --bin exp1_figure1` regenerates the paper's Figure 1.");
}
