//! A key-value store over nameless writes — the communication abstraction
//! used in anger.
//!
//! The paper's ref \[14\] (SILT) is a flash key-value store whose design is
//! dominated by one constraint: the host index must be tiny, yet every
//! get must cost ≈1 flash read. With the block interface, SILT builds its
//! own log over LBAs and the FTL builds *another* log underneath, each
//! with its own cleaning and its own mapping RAM.
//!
//! [`NamelessKv`] shows what the §3 interface buys: the store's in-memory
//! index maps `key → physical name` directly — **one** level of
//! indirection, **zero** FTL mapping RAM, one shared cleaner (the
//! device's GC, which reports migrations through upcalls). Puts are
//! device-placed appends; gets are exactly one flash read; deletes are
//! exact frees (no trim ambiguity).

use std::collections::BTreeMap;

use requiem_iface::comm::Upcall;
use requiem_iface::nameless::{NamelessCompletion, NamelessError, NamelessSsd, PhysName};
use requiem_sim::time::{SimDuration, SimTime};
use requiem_sim::Histogram;

/// Statistics of a [`NamelessKv`].
#[derive(Debug, Default, Clone)]
pub struct KvStats {
    /// Puts served.
    pub puts: u64,
    /// Gets served (hit or miss).
    pub gets: u64,
    /// Gets that found the key.
    pub hits: u64,
    /// Deletes served.
    pub deletes: u64,
    /// Index updates applied from device migration upcalls.
    pub migrations_applied: u64,
}

/// A page-granular KV store on a [`NamelessSsd`].
///
/// Keys are `u64`; each value occupies one device page (SILT-style stores
/// pack multiple values per page — a layout concern orthogonal to the
/// interface being demonstrated).
pub struct NamelessKv {
    dev: NamelessSsd,
    index: BTreeMap<u64, PhysName>,
    now: SimTime,
    stats: KvStats,
    get_latency: Histogram,
}

impl std::fmt::Debug for NamelessKv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NamelessKv")
            .field("keys", &self.index.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl NamelessKv {
    /// Wrap a nameless device.
    pub fn new(dev: NamelessSsd) -> Self {
        NamelessKv {
            dev,
            index: BTreeMap::new(),
            now: SimTime::ZERO,
            stats: KvStats::default(),
            get_latency: Histogram::new(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Statistics.
    pub fn stats(&self) -> &KvStats {
        &self.stats
    }

    /// Get-latency distribution.
    pub fn get_latency(&self) -> &Histogram {
        &self.get_latency
    }

    /// The wrapped device (metrics inspection).
    pub fn device(&self) -> &NamelessSsd {
        &self.dev
    }

    /// Host-side index memory: 8 B key + name per entry — the *only*
    /// mapping state in the whole system.
    pub fn index_bytes(&self) -> u64 {
        (self.index.len() * (8 + std::mem::size_of::<PhysName>())) as u64
    }

    /// Apply pending device migration upcalls to the index. Called
    /// internally before every operation; public for explicit draining.
    pub fn sync_upcalls(&mut self) {
        for u in self.dev.upcalls().drain() {
            if let Upcall::Migrated { tag, old, new, .. } = u {
                // update only if the index still points at the old name
                // (the key may have been overwritten or deleted since)
                if self.index.get(&tag) == Some(&old) {
                    self.index.insert(tag, new);
                    self.stats.migrations_applied += 1;
                }
            }
        }
    }

    /// Insert or overwrite a key. The device chooses the location.
    pub fn put(&mut self, key: u64) -> Result<NamelessCompletion, NamelessError> {
        self.sync_upcalls();
        self.stats.puts += 1;
        // free the previous version first (exact, not a trim hint)
        if let Some(old) = self.index.get(&key).copied() {
            let t = self.dev.free(self.now, old, key)?;
            self.now = self.now.max(t);
        }
        let w = self.dev.write(self.now, key)?;
        self.now = self.now.max(w.done);
        self.index.insert(key, w.name);
        Ok(w)
    }

    /// Look up a key: exactly one flash read on a hit.
    pub fn get(&mut self, key: u64) -> Result<Option<SimDuration>, NamelessError> {
        self.sync_upcalls();
        self.stats.gets += 1;
        let Some(name) = self.index.get(&key).copied() else {
            return Ok(None);
        };
        let (done, lat, status) = self.dev.read(self.now, name, key)?;
        self.now = self.now.max(done);
        // a parity-rebuilt page was re-homed by the device; the Migrated
        // upcall is applied before the next operation via sync_upcalls()
        debug_assert!(status.is_success(), "kv get hit unrecoverable media");
        self.stats.hits += 1;
        self.get_latency.record_duration(lat);
        Ok(Some(lat))
    }

    /// Delete a key (exact free on the device).
    pub fn delete(&mut self, key: u64) -> Result<bool, NamelessError> {
        self.sync_upcalls();
        self.stats.deletes += 1;
        let Some(name) = self.index.remove(&key) else {
            return Ok(false);
        };
        let t = self.dev.free(self.now, name, key)?;
        self.now = self.now.max(t);
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use requiem_iface::nameless::NamelessConfig;
    use requiem_ssd::SsdConfig;

    fn store() -> NamelessKv {
        let mut base = SsdConfig::modern();
        base.shape.channels = 2;
        base.shape.chips_per_channel = 2;
        NamelessKv::new(NamelessSsd::new(NamelessConfig::from(&base)))
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let mut kv = store();
        kv.put(7).unwrap();
        assert_eq!(kv.len(), 1);
        assert!(kv.get(7).unwrap().is_some());
        assert!(kv.get(8).unwrap().is_none());
        assert!(kv.delete(7).unwrap());
        assert!(!kv.delete(7).unwrap());
        assert!(kv.get(7).unwrap().is_none());
        assert!(kv.is_empty());
        assert_eq!(kv.stats().puts, 1);
        assert_eq!(kv.stats().gets, 3);
        assert_eq!(kv.stats().hits, 1);
    }

    #[test]
    fn overwrite_frees_the_old_version() {
        let mut kv = store();
        kv.put(1).unwrap();
        kv.put(1).unwrap();
        assert_eq!(kv.len(), 1);
        assert!(kv.get(1).unwrap().is_some());
        // device saw 2 writes and 1 free
        assert_eq!(kv.device().metrics().host_writes, 2);
        assert_eq!(kv.device().metrics().host_trims, 1);
    }

    #[test]
    fn gets_cost_exactly_one_flash_read() {
        let mut kv = store();
        for k in 0..64u64 {
            kv.put(k).unwrap();
        }
        let before = kv.device().metrics().flash_reads.host;
        for k in 0..64u64 {
            kv.get(k).unwrap();
        }
        let after = kv.device().metrics().flash_reads.host;
        assert_eq!(after - before, 64, "one flash read per get — the SILT goal");
    }

    #[test]
    fn survives_gc_churn_with_migrations() {
        let mut kv = store();
        let raw = 4 * kv.device().config().flash.geometry.total_pages();
        let keys = raw * 7 / 10;
        for k in 0..keys {
            kv.put(k).unwrap();
        }
        // churn random keys for two drive-fills: GC must migrate live data
        let mut x = 5u64;
        for _ in 0..2 * keys {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            kv.put(x % keys).unwrap();
        }
        assert!(kv.device().metrics().gc_runs > 0, "churn must trigger GC");
        assert!(
            kv.stats().migrations_applied > 0,
            "GC must have migrated live keys"
        );
        // every key still readable at its (possibly migrated) name
        for k in 0..keys {
            assert!(kv.get(k).unwrap().is_some(), "key {k} lost");
        }
    }

    #[test]
    fn index_is_the_only_mapping_state() {
        let mut kv = store();
        for k in 0..100u64 {
            kv.put(k).unwrap();
        }
        assert!(kv.index_bytes() > 0);
        assert_eq!(kv.device().mapping_table_bytes(), 0);
    }
}
