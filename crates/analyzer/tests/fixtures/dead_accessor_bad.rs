// DEAD01 fixture, linted as `crates/db/src/coop.rs`: a `pub` accessor
// named like the counter it returns, called by nothing but this file's
// #[cfg(test)] module. The field's declaration, its struct-literal key,
// its `+=` and the accessor's own read all spell the name, and none of
// them can name a fn. `new` and `read` are `pub(crate)`, rustc's to check.
pub struct CoopLogBackend {
    read_retries: u64,
}

impl CoopLogBackend {
    pub(crate) fn new() -> Self {
        CoopLogBackend { read_retries: 0 }
    }

    pub(crate) fn read(&mut self, lost: bool) {
        if lost {
            self.read_retries += 1;
        }
    }

    /// Reads retried after the device lost a name.
    pub fn read_retries(&self) -> u64 {
        self.read_retries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_lost_name_is_retried() {
        let mut b = CoopLogBackend::new();
        b.read(true);
        assert_eq!(b.read_retries(), 1);
    }
}
