//! The device→host message vocabulary of the communication abstraction.
//!
//! §3: *"the database system is no longer the master and secondary
//! storage a slave (they are communicating peers)"*. Concretely, the
//! device initiates messages the block interface has no way to express:
//! a migrated page's new name, a block retired for wear.

use requiem_sim::time::SimTime;
use std::collections::VecDeque;

use crate::nameless::PhysName;

/// A message from the device to the host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Upcall {
    /// Garbage collection moved a page; the host must update its pointer.
    Migrated {
        /// The host tag supplied at write time (e.g. a database page id).
        tag: u64,
        /// The page's previous name.
        old: PhysName,
        /// The page's new name.
        new: PhysName,
        /// When the migration happened.
        at: SimTime,
    },
    /// A block was retired for wear; capacity shrank.
    BlockRetired {
        /// When it happened.
        at: SimTime,
    },
}

/// A FIFO of pending upcalls, drained by the host.
#[derive(Debug, Default)]
pub struct UpcallQueue {
    q: VecDeque<Upcall>,
    delivered: u64,
}

impl UpcallQueue {
    /// New, empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Device side: enqueue a message.
    pub fn push(&mut self, u: Upcall) {
        self.q.push_back(u);
    }

    /// Host side: drain everything pending.
    pub fn drain(&mut self) -> Vec<Upcall> {
        self.delivered += self.q.len() as u64;
        self.q.drain(..).collect()
    }

    /// Peek at pending messages without delivering them.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &Upcall> {
        self.q.iter()
    }

    /// Messages waiting.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// True if nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Total messages delivered to the host so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use requiem_flash::PageAddr;
    use requiem_ssd::LunId;

    fn name(lun: u32, block: u32, page: u32) -> PhysName {
        PhysName {
            lun: LunId(lun),
            addr: PageAddr {
                plane: 0,
                block,
                page,
            },
        }
    }

    #[test]
    fn fifo_order_preserved() {
        let mut q = UpcallQueue::new();
        q.push(Upcall::BlockRetired {
            at: SimTime::from_nanos(1),
        });
        q.push(Upcall::BlockRetired {
            at: SimTime::from_nanos(2),
        });
        assert_eq!(q.len(), 2);
        assert_eq!(
            q.drain(),
            [1, 2].map(|n| Upcall::BlockRetired {
                at: SimTime::from_nanos(n)
            })
        );
        assert!(q.is_empty());
        assert_eq!(q.delivered(), 2);
    }

    #[test]
    fn drain_empties_and_counts() {
        let mut q = UpcallQueue::new();
        for i in 0..5 {
            q.push(Upcall::Migrated {
                tag: i,
                old: name(0, 0, i as u32),
                new: name(1, 0, i as u32),
                at: SimTime::from_nanos(i),
            });
        }
        let all = q.drain();
        assert_eq!(all.len(), 5);
        assert!(q.is_empty());
        assert_eq!(q.delivered(), 5);
    }
}
