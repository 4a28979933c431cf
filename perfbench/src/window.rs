//! The measured window of a closed loop.
//!
//! Scheduling is in rounds: every completion of one round arrives in one
//! burst of frames. The window therefore moves in whole rounds. It opens
//! at the end of the round that completes the warm-up wave (the first
//! `in_flight` completions, by which time every worker arena and code
//! path is warm) and closes at the end of the first round with a
//! completion at least `seconds` after the opening. Completions of the
//! opening round are not counted and those of the closing round all are,
//! so a throughput computed as completions ÷ window length has no
//! partial-round error at either edge. The caller can hold the window
//! open past its length (the closed loops do until every distinct spec has
//! finished once, so the run's prediction quality covers the whole plan),
//! but never past three lengths.

use std::time::{Duration, Instant};

/// Window state of one closed loop.
#[derive(Debug, Clone)]
pub struct Window {
    warmup_left: usize,
    length: Duration,
    opening: Option<Instant>,
    start: Option<Instant>,
    end: Option<Instant>,
    closed: bool,
}

impl Window {
    /// A window that opens after `warmup` completions and lasts at least
    /// `seconds`.
    pub fn new(warmup: usize, seconds: f64) -> Self {
        Self {
            warmup_left: warmup.max(1),
            length: Duration::from_secs_f64(seconds.max(0.0)),
            opening: None,
            start: None,
            end: None,
            closed: false,
        }
    }

    /// Books one completion (a `done` frame or a failed session) seen at
    /// `at`; returns whether it falls inside the window.
    pub fn on_done(&mut self, at: Instant) -> bool {
        let Some(start) = self.start else {
            self.warmup_left = self.warmup_left.saturating_sub(1);
            if self.warmup_left == 0 && self.opening.is_none() {
                self.opening = Some(at);
            }
            return false;
        };
        if self.closed {
            return false;
        }
        if self.end.is_none() && at.saturating_duration_since(start) >= self.length {
            self.end = Some(at);
        }
        true
    }

    /// Marks the end of a round: opens the window, or closes it when a
    /// completion of this round passed the length and `may_close` holds.
    /// Otherwise the window stays open, but never past three lengths.
    pub fn end_round(&mut self, may_close: bool) {
        if let Some(at) = self.opening.take() {
            self.start = Some(at);
        }
        if let Some(end) = self.end {
            let overdue = self
                .start
                .is_some_and(|s| end.saturating_duration_since(s) >= self.length * 3);
            if may_close || overdue {
                self.closed = true;
            } else {
                self.end = None;
            }
        }
    }

    /// Whether a non-completion sample seen now belongs to the window.
    pub fn is_open(&self) -> bool {
        self.start.is_some() && !self.closed
    }

    /// True once the closing round ended.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// `(start, end)` once closed.
    pub fn bounds(&self) -> Option<(Instant, Instant)> {
        self.start.zip(self.end).filter(|_| self.closed)
    }

    /// Window length in seconds once closed.
    pub fn seconds(&self) -> Option<f64> {
        self.bounds()
            .map(|(s, e)| e.saturating_duration_since(s).as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moves_in_whole_rounds() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut w = Window::new(2, 0.1);
        assert!(!w.on_done(at(10)));
        w.end_round(true);
        assert!(!w.is_open());
        assert!(
            !w.on_done(at(20)),
            "the completion ending warm-up is not counted"
        );
        assert!(!w.on_done(at(20)), "nor is the rest of its round");
        w.end_round(true);
        assert!(w.is_open());
        assert!(w.on_done(at(50)));
        w.end_round(true);
        assert!(w.on_done(at(130)), "the closing completion is counted");
        assert!(w.on_done(at(131)), "and so is the rest of its round");
        assert!(!w.is_closed());
        w.end_round(false);
        assert!(!w.is_closed(), "held open");
        assert!(w.on_done(at(150)));
        w.end_round(true);
        assert!(w.is_closed());

        let mut held = Window::new(1, 0.1);
        held.on_done(at(0));
        held.end_round(false);
        held.on_done(at(200));
        held.end_round(false);
        assert!(!held.is_closed(), "held at two lengths");
        held.on_done(at(300));
        held.end_round(false);
        assert!(held.is_closed(), "never held past three lengths");
        assert!(!w.on_done(at(140)));
        let secs = w.seconds().unwrap();
        assert!((secs - 0.13).abs() < 1e-9, "{secs}");
    }
}
