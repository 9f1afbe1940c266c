//! The open-loop load generator: a seeded Poisson schedule and a pacer
//! that sends each request when it is due, whatever happened to the
//! requests before it.
//!
//! Latency is timed from the *due* instant, not from the send, so a
//! generator that falls behind (a descheduled thread, a blocked write)
//! shows up as latency of every request it delayed instead of silently
//! thinning the load (no coordinated omission). How late the generator
//! ran is reported separately as `loadgen.lag_p99_ms`.

use crate::util::Rng;
use std::time::{Duration, Instant};

/// What one scheduled request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `POST /v1/classify`.
    Classify,
    /// `GET /metrics`.
    Scrape,
}

/// One request of an open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Offset from the phase start at which the request is due.
    pub due: Duration,
    pub kind: Kind,
    /// Index into the workload's clip pool.
    pub clip: usize,
    /// Whether the request carries a deadline header.
    pub deadline: bool,
}

/// The traffic mix of a schedule.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Share of requests that are `/metrics` scrapes.
    pub scrape_share: f64,
    /// Share of classify requests that carry a deadline.
    pub deadline_share: f64,
    /// Size of the clip pool requests draw from.
    pub clips: usize,
}

/// A Poisson schedule of `rate` requests per second over `span`, a pure
/// function of `seed`.
pub fn poisson(seed: u64, rate: f64, span: Duration, mix: Mix) -> Vec<Arrival> {
    let mut rng = Rng::new(seed);
    let mut arrivals = Vec::with_capacity((rate * span.as_secs_f64() * 1.1) as usize + 16);
    let mut due = rng.exp_gap(rate);
    while due < span {
        let kind = if rng.unit() < mix.scrape_share {
            Kind::Scrape
        } else {
            Kind::Classify
        };
        arrivals.push(Arrival {
            due,
            kind,
            clip: rng.below(mix.clips),
            deadline: kind == Kind::Classify && rng.unit() < mix.deadline_share,
        });
        due += rng.exp_gap(rate);
    }
    arrivals
}

/// Sleeps until `at` (returns at once when it has passed).
pub fn wait_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// Calls `send(i)` for every arrival at its due instant (offsets from
/// `start`) without ever waiting for an answer, and returns the instant
/// each send began. A slow `send` delays the sends after it; they go out
/// late, back to back, and their latency is still timed from `due`.
pub fn drive(start: Instant, arrivals: &[Arrival], mut send: impl FnMut(usize)) -> Vec<Instant> {
    let mut sent = Vec::with_capacity(arrivals.len());
    for (i, arrival) in arrivals.iter().enumerate() {
        wait_until(start + arrival.due);
        sent.push(Instant::now());
        send(i);
    }
    sent
}

#[cfg(test)]
mod tests {
    use super::*;

    /// How late each send began relative to its due instant, in ms.
    fn lags_ms(start: Instant, arrivals: &[Arrival], sent: &[Instant]) -> Vec<f64> {
        arrivals
            .iter()
            .zip(sent)
            .map(|(a, s)| s.saturating_duration_since(start + a.due).as_secs_f64() * 1e3)
            .collect()
    }

    const MIX: Mix = Mix {
        scrape_share: 0.02,
        deadline_share: 1.0 / 3.0,
        clips: 16,
    };

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = poisson(42, 5000.0, Duration::from_secs(1), MIX);
        let b = poisson(42, 5000.0, Duration::from_secs(1), MIX);
        let c = poisson(43, 5000.0, Duration::from_secs(1), MIX);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Rate and mix come out as asked, within sampling noise.
        assert!((4700..5300).contains(&a.len()), "{} arrivals", a.len());
        let scrapes = a.iter().filter(|r| r.kind == Kind::Scrape).count();
        assert!((50..170).contains(&scrapes), "{scrapes} scrapes");
        let deadlines = a.iter().filter(|r| r.deadline).count() as f64 / a.len() as f64;
        assert!(
            (0.28..0.38).contains(&deadlines),
            "deadline share {deadlines}"
        );
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
    }

    /// An instant service answers each request the moment it is sent, so
    /// the due-time latency is pure generator lateness. A generator stall
    /// must show up as latency of the requests due during the stall.
    #[test]
    fn a_generator_stall_raises_the_latency_of_the_requests_after_it() {
        let arrivals = poisson(7, 2000.0, Duration::from_millis(300), MIX);
        let stall_at = arrivals.len() / 2;
        let stall = Duration::from_millis(40);
        let start = Instant::now();
        let sent = drive(start, &arrivals, |i| {
            if i == stall_at {
                std::thread::sleep(stall);
            }
        });
        let latency = lags_ms(start, &arrivals, &sent);
        let stall_end = sent[stall_at] + stall;
        let mut delayed = 0;
        for (i, a) in arrivals.iter().enumerate().skip(stall_at + 1) {
            let due = start + a.due;
            if due + Duration::from_millis(1) < stall_end {
                // Due during the stall: latency covers the rest of it.
                let owed = (stall_end - due).as_secs_f64() * 1e3;
                assert!(
                    latency[i] >= owed - 0.5,
                    "request {i}: {} < {owed}",
                    latency[i]
                );
                delayed += 1;
            }
        }
        assert!(
            delayed >= 20,
            "only {delayed} requests fell inside the stall"
        );
        // Before the stall the generator kept up.
        let mut before: Vec<f64> = latency[..stall_at].to_vec();
        assert!(crate::util::median(&mut before) < 5.0);
    }
}
