//! Spellings kept for the frozen `benchmark/` crate.
//!
//! The executive's future-event list is the `(time, seq)` binary heap in
//! [`crate::event`], and nothing in this workspace selects a calendar any
//! more: the time wheels and the self-tuning backend were removed once
//! arrivals stopped being parked in the calendar and its population fell
//! to O(processors). `benchmark/` still names `Calendar`, `CalendarKind`
//! and `Calendar::from_kind`; they exist only for that crate and go in
//! the next benchmark PR.

use crate::event::EventQueue;

/// The one future-event list there is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CalendarKind {
    /// The `(time, seq)` binary min-heap, [`EventQueue`].
    #[default]
    BinaryHeap,
}

/// [`EventQueue`] under the name `benchmark/` uses.
pub type Calendar<E> = EventQueue<E>;

impl<E> EventQueue<E> {
    /// [`EventQueue::new`]; `kind` has one value.
    pub fn from_kind(kind: CalendarKind) -> EventQueue<E> {
        match kind {
            CalendarKind::BinaryHeap => EventQueue::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn calendar_kind_round_trip() {
        assert_eq!(CalendarKind::default(), CalendarKind::BinaryHeap);
        let mut cal: Calendar<u32> = Calendar::from_kind(CalendarKind::BinaryHeap);
        for (t, e) in [(5u64, 1u32), (2, 2), (5, 3), (9_999_999, 4)] {
            cal.schedule(SimTime(t), e);
        }
        let order: Vec<u32> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![2, 1, 3, 4]);
        assert_eq!(cal.scheduled_total(), 4);
    }
}
