//! Deterministic trace-event staging.
//!
//! The clock engine walks each vault once per cycle, running its stage 3
//! and stage 4 back to back, but a trace (paper §IV.E — part of the
//! experiment output) lists a cycle's events in sub-cycle order: every
//! vault's stage-3 conflicts before any vault's stage-4 completions.
//! The engine therefore stages each kind into its own [`EventStage`]
//! and flushes the two in that order once the walk is done. The buffer
//! is reusable — `flush_into`/`clear` retain capacity — so steady-state
//! clocking performs no per-cycle heap allocation.

use hmc_types::Cycle;

use crate::event::TraceEvent;
use crate::sink::Tracer;

/// A reusable, ordered buffer of trace events awaiting emission.
#[derive(Debug, Default)]
pub struct EventStage {
    events: Vec<TraceEvent>,
}

impl EventStage {
    /// An empty stage.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty stage with room for `n` events before reallocating.
    pub fn with_capacity(n: usize) -> Self {
        EventStage {
            events: Vec::with_capacity(n),
        }
    }

    /// Append an event, preserving staging order.
    #[inline]
    pub fn stage(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// Number of staged events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The staged events, in staging order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Drop staged events without emitting them (capacity retained).
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Emit every staged event through `tracer` at `cycle`, in staging
    /// order, then clear the buffer (capacity retained).
    pub fn flush_into(&mut self, tracer: &mut Tracer, cycle: Cycle) {
        for ev in self.events.drain(..) {
            tracer.emit(cycle, ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{CountingSink, SharedSink, Verbosity};
    use crate::EventKind;

    fn conflict(tag: u16) -> TraceEvent {
        TraceEvent::BankConflict {
            cube: 0,
            vault: 1,
            bank: 2,
            addr: 0x40,
            tag,
        }
    }

    #[test]
    fn stages_and_flushes_in_order() {
        let shared = SharedSink::new(crate::sink::VecSink::default());
        let mut t = Tracer::new(Verbosity::Stalls, Box::new(shared.clone()));
        let mut stage = EventStage::new();
        stage.stage(conflict(1));
        stage.stage(conflict(2));
        assert_eq!(stage.len(), 2);
        stage.flush_into(&mut t, 7);
        assert!(stage.is_empty());
        let records = &shared.0.lock().records;
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].cycle, 7);
        match records[0].event {
            TraceEvent::BankConflict { tag, .. } => assert_eq!(tag, 1),
            _ => panic!("wrong event"),
        }
        match records[1].event {
            TraceEvent::BankConflict { tag, .. } => assert_eq!(tag, 2),
            _ => panic!("wrong event"),
        }
    }

    #[test]
    fn flush_respects_the_verbosity_filter() {
        let shared = SharedSink::new(CountingSink::default());
        let mut t = Tracer::new(Verbosity::Off, Box::new(shared.clone()));
        let mut stage = EventStage::new();
        stage.stage(conflict(1));
        stage.flush_into(&mut t, 0);
        assert!(stage.is_empty(), "flush clears even when filtered");
        assert_eq!(shared.0.lock().counters.get(EventKind::BankConflict), 0);
    }

    #[test]
    fn clear_retains_capacity() {
        let mut stage = EventStage::with_capacity(16);
        for tag in 0..10 {
            stage.stage(conflict(tag));
        }
        let cap = stage.events.capacity();
        stage.clear();
        assert!(stage.is_empty());
        assert_eq!(stage.events.capacity(), cap);
    }
}
