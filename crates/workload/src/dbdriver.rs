//! OLTP transactions as executor inputs.
//!
//! [`crate::driver`] pushes raw page I/O into an [`requiem_ssd::Ssd`];
//! one layer up, [`requiem_db::Database::run_concurrent`] keeps N
//! transactions in flight over the batched read path and the shared
//! group commit. This module maps the TPC-B-flavoured mix
//! ([`crate::oltp`]) onto that executor's inputs. Transaction
//! *concurrency* is the database's queue depth — the §2.1 argument
//! ("SSDs require a high level of parallelism") restated at the
//! storage-manager interface.
//!
//! Everything is pre-generated before the run so the device timeline is
//! a pure function of `(seed, config)` — the determinism CI job diffs
//! experiment output byte-for-byte.

use requiem_db::{TxnInput, SLOTS_PER_PAGE};

use crate::oltp::{OltpGen, Txn};

/// Map one generated transaction onto the engine's access triples. The
/// record slot is derived from the page id (`page % SLOTS_PER_PAGE`, the
/// engine's own slot count) — the same convention the synergy experiment
/// (E7) uses, so workloads are comparable across the serialized and
/// completion-driven paths.
pub fn txn_to_input(txn: &Txn) -> TxnInput {
    TxnInput {
        accesses: txn
            .accesses
            .iter()
            .map(|a| (a.page, (a.page % u64::from(SLOTS_PER_PAGE)) as u16, a.dirty))
            .collect(),
        log_bytes: txn.log_bytes,
    }
}

/// Pre-generate `count` transactions as executor inputs.
pub fn oltp_inputs(gen: &mut OltpGen, count: u64) -> Vec<TxnInput> {
    (0..count).map(|_| txn_to_input(&gen.next_txn())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oltp::OltpConfig;
    use requiem_block::StackConfig;
    use requiem_db::{BlockStackBackend, Database, DbConfig, ExecConfig};
    use requiem_ssd::SsdConfig;

    fn small_db() -> Database<BlockStackBackend> {
        let cfg = DbConfig {
            data_pages: 256,
            buffer_frames: 64,
            ..DbConfig::default()
        };
        let mut ssd_cfg = SsdConfig::modern();
        ssd_cfg.buffer.capacity_pages = 0;
        let mut db = Database::new(
            cfg,
            BlockStackBackend::new(StackConfig::bare(1), ssd_cfg, 256, 64),
        );
        db.load();
        db
    }

    fn oltp() -> OltpGen {
        OltpGen::new(
            OltpConfig {
                data_pages: 256,
                ..OltpConfig::default()
            },
            13,
        )
    }

    #[test]
    fn inputs_are_deterministic_and_well_formed() {
        let a = oltp_inputs(&mut oltp(), 50);
        let b = oltp_inputs(&mut oltp(), 50);
        assert_eq!(a, b, "same seed, same inputs");
        assert!(a.iter().all(|t| t
            .accesses
            .iter()
            .all(|&(p, s, _)| p < 256 && s < SLOTS_PER_PAGE)));
    }

    #[test]
    fn closed_loop_runs_the_mix_to_completion() {
        let mut db = small_db();
        let report = db.run_concurrent(
            &oltp_inputs(&mut oltp(), 40),
            &ExecConfig {
                concurrency: 4,
                ..ExecConfig::serialized()
            },
        );
        assert_eq!(report.txns, 40);
        assert_eq!(db.stats().commits, 40);
        assert!(report.tps > 0.0);
        assert_eq!(
            report.read_only_latency.count() + report.update_latency.count(),
            40,
            "every txn lands in exactly one class histogram"
        );
    }

    #[test]
    fn closed_loop_qd1_matches_serialized_execute() {
        let inputs = oltp_inputs(&mut oltp(), 40);
        let mut serial = small_db();
        for t in &inputs {
            serial.execute(&t.accesses, t.log_bytes).expect("committed");
        }
        let mut conc = small_db();
        conc.run_concurrent(&inputs, &ExecConfig::serialized());
        assert_eq!(conc.now(), serial.now(), "QD-1 identity through the driver");
        assert_eq!(conc.txn_latency(), serial.txn_latency());
    }
}
