//! Crossbar units.
//!
//! "Crossbar units are analogous to the first-level logic layer present in
//! an HMC device. They simulate the queuing mechanisms present in the
//! crossbar unit between device links and device vault controllers.
//! Crossbar units contain the request and response queues for the
//! respective device that are accessible from the host" (paper §IV.A).

use hmc_types::{CubeId, LinkId};

use crate::queue::{PacketQueue, QueueEntry};

/// The crossbar logic stage attached to one link: a request queue (host →
/// vaults) and a response queue (vaults → host).
///
/// The response queue keeps a count of its *movers*: the entries that are
/// not deliverable where they sit, because the host at the far end of the
/// link is not the one they are for. Only a mover can make stage 5's
/// forward walk move or report anything, so a count of zero lets the walk
/// skip the queue and lets the fast-forward horizon call it inert
/// (`HmcSim::forward_xbar_responses`, `HmcSim::xbar_rsp_gate`: one
/// predicate for the step and the jump). The queue is reached only
/// through methods that keep the count, and `Crossbar::set_host`
/// recounts it whenever the link's far end changes.
#[derive(Debug)]
pub struct Crossbar {
    /// The link this crossbar unit serves.
    pub link: LinkId,
    /// Request (inbound) queue; each slot's word is its route class.
    pub rqst: PacketQueue<u64>,
    /// Response (outbound) queue.
    rsp: PacketQueue,
    /// The host at the far end of the link; `None` for a chained or
    /// unconnected link.
    host: Option<CubeId>,
    /// Entries of `rsp` not deliverable where they sit.
    movers: usize,
    /// The last walk over `rqst` moved nothing and held no NoC-riding
    /// class, so the next one asks the crossbar gate before it walks. A
    /// hint only: either value gives the same result.
    pub(crate) idle_walk: bool,
}

impl Crossbar {
    /// Create the crossbar stage for `link` with `depth` slots per
    /// direction (the paper's tests use 128 bidirectional slots, §VI.A).
    pub fn new(link: LinkId, depth: usize) -> Self {
        Crossbar {
            link,
            rqst: PacketQueue::new(depth),
            rsp: PacketQueue::new(depth),
            host: None,
            movers: 0,
            idle_walk: false,
        }
    }

    /// The response queue.
    pub fn rsp(&self) -> &PacketQueue {
        &self.rsp
    }

    /// The host at the far end of the link, if one is attached.
    pub(crate) fn host(&self) -> Option<CubeId> {
        self.host
    }

    /// Response entries not deliverable where they sit: the ones stage 5
    /// may still move.
    pub(crate) fn movers(&self) -> usize {
        self.movers
    }

    /// True when `e` waits here for its host's `recv`: the host attached
    /// to this link is the one it is for.
    #[inline]
    pub(crate) fn parked(&self, e: &QueueEntry) -> bool {
        self.host == Some(e.dest_cube)
    }

    /// Record the host at the far end of the link and recount the movers
    /// against it.
    pub(crate) fn set_host(&mut self, host: Option<CubeId>) {
        self.host = host;
        self.movers = self.rsp.iter().filter(|e| !self.parked(e)).count();
    }

    /// Enqueue a response at the tail; returns it back on overflow.
    pub(crate) fn push_rsp(&mut self, entry: QueueEntry) -> Result<(), QueueEntry> {
        let mover = !self.parked(&entry);
        self.rsp.push(entry)?;
        self.movers += mover as usize;
        Ok(())
    }

    /// Remove response `idx` (0 = head), preserving the order of the rest.
    pub(crate) fn remove_rsp(&mut self, idx: usize) -> Option<QueueEntry> {
        let entry = self.rsp.remove(idx)?;
        self.movers -= !self.parked(&entry) as usize;
        Some(entry)
    }

    /// Dequeue the head response.
    pub(crate) fn pop_rsp(&mut self) -> Option<QueueEntry> {
        let entry = self.rsp.pop()?;
        self.movers -= !self.parked(&entry) as usize;
        Some(entry)
    }

    /// Drop all queued packets (device reset).
    pub fn clear(&mut self) {
        self.rqst.clear();
        self.rsp.clear();
        self.movers = 0;
        self.idle_walk = false;
    }

    /// Total packets resident in both directions.
    pub fn occupancy(&self) -> usize {
        self.rqst.len() + self.rsp.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::QueueEntry;
    use hmc_types::{BlockSize, Command, Packet};

    fn entry(tag: u16) -> QueueEntry {
        entry_for(tag, 0)
    }

    fn entry_for(tag: u16, dest: CubeId) -> QueueEntry {
        let p = Packet::request(Command::Rd(BlockSize::B16), 0, 0, tag, 0, &[]).unwrap();
        QueueEntry::new(p, 1, dest, 0)
    }

    #[test]
    fn both_directions_have_the_configured_depth() {
        let x = Crossbar::new(2, 128);
        assert_eq!(x.link, 2);
        assert_eq!(x.rqst.depth(), 128);
        assert_eq!(x.rsp().depth(), 128);
    }

    #[test]
    fn directions_are_independent() {
        let mut x = Crossbar::new(0, 2);
        x.rqst.push(entry(0)).unwrap();
        x.rqst.push(entry(1)).unwrap();
        assert!(x.rqst.is_full());
        assert!(
            x.rsp().is_empty(),
            "request traffic must not occupy response slots"
        );
        assert_eq!(x.occupancy(), 2);
    }

    #[test]
    fn movers_are_the_responses_for_another_host() {
        let mut x = Crossbar::new(0, 4);
        assert_eq!(x.movers(), 0, "an empty queue moves nothing");
        x.push_rsp(entry_for(0, 5)).unwrap();
        x.push_rsp(entry_for(1, 6)).unwrap();
        assert_eq!(x.movers(), 2, "no host attached: everything moves on");
        x.set_host(Some(5));
        assert_eq!(x.movers(), 1);
        x.push_rsp(entry_for(2, 5)).unwrap();
        assert_eq!(x.movers(), 1, "a response for this link's host is parked");
        assert_eq!(x.remove_rsp(1).unwrap().packet.tag(), 1);
        assert_eq!(x.movers(), 0);
        x.set_host(None);
        assert_eq!(x.movers(), 2);
        assert_eq!(x.pop_rsp().unwrap().packet.tag(), 0);
        assert_eq!(x.movers(), 1);
        for tag in 3..6 {
            x.push_rsp(entry_for(tag, 5)).unwrap();
        }
        assert!(x.push_rsp(entry_for(9, 5)).is_err());
        assert_eq!(x.movers(), 4, "a refused push counts nothing");
    }

    #[test]
    fn clear_empties_both_directions() {
        let mut x = Crossbar::new(0, 4);
        x.rqst.push(entry(0)).unwrap();
        x.push_rsp(entry(1)).unwrap();
        x.clear();
        assert_eq!(x.occupancy(), 0);
        assert_eq!(x.movers(), 0);
    }
}
