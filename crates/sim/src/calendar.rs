//! Spellings kept for the frozen `benchmark/` crate.
//!
//! The executive's future-event list is [`crate::event::EventQueue`] — a
//! sorted tier of the earliest events with a `(time, seq)` binary heap
//! behind it — and nothing in this workspace selects a calendar: the
//! time wheels and the self-tuning backend were removed once arrivals
//! stopped being parked in the calendar and its population fell to
//! O(processors), and the sorted tier is what that population then asked
//! for. `benchmark/` still names `Calendar`, `CalendarKind::BinaryHeap`
//! and `Calendar::from_kind`; they are frozen spellings for the one
//! calendar, whatever it is made of, and go in the next benchmark PR.

use crate::event::EventQueue;

/// The one future-event list there is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CalendarKind {
    /// [`EventQueue`]. The name is from when that was a bare binary
    /// heap; it selects nothing.
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
