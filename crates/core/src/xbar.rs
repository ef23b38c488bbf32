//! Crossbar units.
//!
//! "Crossbar units are analogous to the first-level logic layer present in
//! an HMC device. They simulate the queuing mechanisms present in the
//! crossbar unit between device links and device vault controllers.
//! Crossbar units contain the request and response queues for the
//! respective device that are accessible from the host" (paper §IV.A).

use hmc_types::LinkId;

use crate::queue::{PacketQueue, QueueEntry, RoutedQueue};

/// The crossbar logic stage attached to one link: a request queue (host →
/// vaults) and a response queue (vaults → host).
#[derive(Debug)]
pub struct Crossbar {
    /// The link this crossbar unit serves.
    pub link: LinkId,
    /// Request (inbound) queue.
    pub rqst: RoutedQueue,
    /// Response (outbound) queue.
    pub rsp: PacketQueue,
}

impl Crossbar {
    /// Create the crossbar stage for `link` with `depth` slots per
    /// direction (the paper's tests use 128 bidirectional slots, §VI.A).
    pub fn new(link: LinkId, depth: usize) -> Self {
        Crossbar {
            link,
            rqst: RoutedQueue::new(depth),
            rsp: PacketQueue::new(depth),
        }
    }

    /// Drop all queued packets (device reset).
    pub fn clear(&mut self) {
        self.rqst.clear();
        self.rsp.clear();
    }

    /// Total packets resident in both directions.
    pub fn occupancy(&self) -> usize {
        self.rqst.len() + self.rsp.len()
    }

    /// True when every queued response is already parked in a position
    /// the response walk will not move it from — per the caller's
    /// `parked` predicate (typically "deliverable to the host attached to
    /// this link, waiting on a host `recv`"). An empty queue is trivially
    /// parked. The fast-forward horizon uses this to prove the response
    /// direction of a crossbar dead.
    pub fn rsp_all_parked(&self, parked: impl Fn(&QueueEntry) -> bool) -> bool {
        self.rsp.iter().all(parked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::QueueEntry;
    use hmc_types::{BlockSize, Command, Packet};

    fn entry(tag: u16) -> QueueEntry {
        let p = Packet::request(Command::Rd(BlockSize::B16), 0, 0, tag, 0, &[]).unwrap();
        QueueEntry::new(p, 1, 0, 0)
    }

    #[test]
    fn both_directions_have_the_configured_depth() {
        let x = Crossbar::new(2, 128);
        assert_eq!(x.link, 2);
        assert_eq!(x.rqst.depth(), 128);
        assert_eq!(x.rsp.depth(), 128);
    }

    #[test]
    fn directions_are_independent() {
        let mut x = Crossbar::new(0, 2);
        x.rqst.push(entry(0)).unwrap();
        x.rqst.push(entry(1)).unwrap();
        assert!(x.rqst.is_full());
        assert!(x.rsp.is_empty(), "request traffic must not occupy response slots");
        assert_eq!(x.occupancy(), 2);
    }

    #[test]
    fn parked_predicate_covers_every_response() {
        let mut x = Crossbar::new(0, 4);
        assert!(x.rsp_all_parked(|_| false), "empty queue is parked");
        x.rsp.push(entry(0)).unwrap();
        x.rsp.push(entry(1)).unwrap();
        assert!(x.rsp_all_parked(|e| e.packet.tag() < 2));
        assert!(!x.rsp_all_parked(|e| e.packet.tag() < 1));
    }

    #[test]
    fn clear_empties_both_directions() {
        let mut x = Crossbar::new(0, 4);
        x.rqst.push(entry(0)).unwrap();
        x.rsp.push(entry(1)).unwrap();
        x.clear();
        assert_eq!(x.occupancy(), 0);
    }
}
