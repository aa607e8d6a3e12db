//! Checksums and backoff: the two pieces of transport self-healing that
//! both serving tiers share.
//!
//! - [`crc32`] guards every frame body on the wire (and the journal and
//!   snapshot containers through [`resources::crc32`]),
//! - [`BackoffPolicy`] spaces a reconnecting client's retries: seeded
//!   exponential backoff plus jitter, bounded by attempts and by a total
//!   wall-clock budget. The socket viewer
//!   ([`crate::server::RemoteViewer`]) draws its retries from the
//!   sequential stream; the modeled broker ([`crate::broker`]) draws each
//!   client's from the pure per-client stream, so a DES replay is
//!   bit-for-bit.

use std::time::Duration;

/// IEEE 802.3 CRC-32 (the zlib/PNG polynomial).
///
/// Delegates to the canonical implementation in [`resources::crc32`] —
/// the same checksum guards the wire protocol's frames, the write-ahead
/// journal's records, and the snapshot containers, so a single table
/// serves them all.
pub fn crc32(data: &[u8]) -> u32 {
    resources::crc32(data)
}

/// Seeded exponential backoff with jitter.
///
/// Delay for attempt `k` (0-based) is `base · 2^k`, capped at `cap`, then
/// scaled by a uniform jitter in `[0.5, 1.0]` so a fleet of senders
/// recovering from the same outage does not reconnect in lockstep.
/// Deterministic per seed, so tests can assert exact schedules.
#[derive(Debug, Clone)]
pub struct BackoffPolicy {
    base: Duration,
    cap: Duration,
    max_attempts: u32,
    /// Total wall-clock retry budget: once the *sum* of delays handed out
    /// reaches this, [`checked_delay`](Self::checked_delay) refuses
    /// further retries. `None` = attempts-only bound (the historical
    /// behavior).
    max_total_delay: Option<Duration>,
    /// Sum of every delay handed out so far (saturating).
    spent: Duration,
    seed: u64,
    rng: crate::fault::SplitMix64,
}

impl BackoffPolicy {
    /// Default policy: 50 ms base, 2 s cap, 8 attempts.
    pub fn new(seed: u64) -> Self {
        BackoffPolicy {
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
            max_attempts: 8,
            max_total_delay: None,
            spent: Duration::ZERO,
            seed,
            rng: crate::fault::SplitMix64::new(seed),
        }
    }

    /// Builder: base delay.
    pub fn with_base(mut self, base: Duration) -> Self {
        self.base = base;
        self
    }

    /// Builder: delay cap.
    pub fn with_cap(mut self, cap: Duration) -> Self {
        self.cap = cap;
        self
    }

    /// Builder: attempts before giving up.
    pub fn with_max_attempts(mut self, n: u32) -> Self {
        assert!(n > 0, "at least one attempt");
        self.max_attempts = n;
        self
    }

    /// Builder: total retry wall-clock budget. A policy with a large
    /// `max_attempts` but a capped per-retry delay can still spin against
    /// a permanently dead receiver for `attempts × cap`; the wall budget
    /// bounds the *sum* of sleeps instead, so exhaustion arrives in
    /// bounded time regardless of the attempt count.
    pub fn with_max_total_delay(mut self, budget: Duration) -> Self {
        self.max_total_delay = Some(budget);
        self
    }

    /// Attempts before giving up.
    pub fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    /// The total retry wall-clock budget, if one is set.
    pub fn max_total_delay(&self) -> Option<Duration> {
        self.max_total_delay
    }

    /// Total delay handed out so far (saturating sum over
    /// [`delay`](Self::delay) and [`checked_delay`](Self::checked_delay)).
    pub fn total_delay_spent(&self) -> Duration {
        self.spent
    }

    /// Jittered delay before retry number `attempt` (0-based), drawn
    /// from the sequential RNG stream without touching `spent`.
    fn raw_delay(&mut self, attempt: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.cap);
        exp.mul_f64(0.5 + 0.5 * self.rng.unit_f64())
    }

    /// Jittered delay before retry number `attempt` (0-based).
    pub fn delay(&mut self, attempt: u32) -> Duration {
        let d = self.raw_delay(attempt);
        self.spent = self.spent.saturating_add(d);
        d
    }

    /// [`delay`](Self::delay) under the wall-clock budget: `None` once
    /// the budget is exhausted (the caller must stop retrying), otherwise
    /// the jittered delay clamped so the cumulative sleep never exceeds
    /// the budget. Without a budget this never refuses.
    ///
    /// Saturates rather than overflows: a budget of [`Duration::MAX`]
    /// never exhausts, and absurd attempt counts keep the per-retry delay
    /// capped exactly as [`delay`](Self::delay) does.
    pub fn checked_delay(&mut self, attempt: u32) -> Option<Duration> {
        let Some(budget) = self.max_total_delay else {
            return Some(self.delay(attempt));
        };
        let remaining = budget.checked_sub(self.spent)?;
        if remaining.is_zero() {
            return None;
        }
        // Charge only the clamped grant: the caller sleeps the clamped
        // value, so `spent` must track real wall time or the budget
        // exhausts early and `total_delay_spent` over-reports.
        let d = self.raw_delay(attempt).min(remaining);
        self.spent = self.spent.saturating_add(d);
        Some(d)
    }

    /// Deterministic per-client jittered delay for retry number `attempt`
    /// (0-based), *without* consuming the policy's shared RNG stream.
    ///
    /// A fleet of clients recovering from the same outage must not
    /// reconnect in lockstep, and under a DES clock the schedule must be
    /// replayable: the jitter here is a pure function of
    /// `(policy seed, client_id, attempt)`, so the same client draws the
    /// same delay on every replay while distinct clients spread across
    /// `[0.5, 1.0]×` the exponential — even when every one of them asks
    /// at the same virtual instant. [`delay`](Self::delay) is untouched
    /// (its sequential stream keeps its exact historical schedules).
    pub fn client_delay(&self, client_id: u64, attempt: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.cap);
        let mut rng = crate::fault::SplitMix64::new(
            self.seed ^ client_id.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ ((attempt as u64) << 32),
        );
        exp.mul_f64(0.5 + 0.5 * rng.unit_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xe8b7_be43);
        assert_ne!(crc32(b"frame"), crc32(b"framf"), "one-bit difference");
    }

    #[test]
    fn backoff_grows_and_caps() {
        let mut p = BackoffPolicy::new(1)
            .with_base(Duration::from_millis(100))
            .with_cap(Duration::from_millis(800));
        let d: Vec<Duration> = (0..6).map(|k| p.delay(k)).collect();
        for (k, d) in d.iter().enumerate() {
            // Jitter keeps each delay within [0.5, 1.0]× the exponential.
            let nominal = Duration::from_millis((100u64 << k).min(800));
            assert!(*d <= nominal, "attempt {k}: {d:?} > {nominal:?}");
            assert!(*d >= nominal / 2, "attempt {k}: {d:?} < half nominal");
        }
        assert!(d[5] <= Duration::from_millis(800), "cap respected");
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let delays = |seed| {
            let mut p = BackoffPolicy::new(seed);
            (0..5).map(|k| p.delay(k)).collect::<Vec<_>>()
        };
        assert_eq!(delays(9), delays(9));
        assert_ne!(delays(9), delays(10));
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn zero_attempts_rejected() {
        BackoffPolicy::new(0).with_max_attempts(0);
    }

    #[test]
    fn backoff_survives_absurd_attempt_counts() {
        // A long outage can push the attempt counter far past the point
        // where `base << attempt` would overflow. The delay must stay
        // finite and capped, never panic or wrap to something tiny.
        let cap = Duration::from_secs(2);
        let mut p = BackoffPolicy::new(7).with_cap(cap);
        for attempt in [17, 20, 31, 32, 63, 64, 1_000, 1_000_000, u32::MAX] {
            let d = p.delay(attempt);
            assert!(d <= cap, "attempt {attempt}: {d:?} exceeds the cap");
            assert!(
                d >= cap / 2,
                "attempt {attempt}: {d:?} collapsed below half the cap — overflow wrap?"
            );
        }
        // Also with a base large enough that the shift itself saturates
        // (powers of two so the jitter multiply is exact in f64).
        let mut big = BackoffPolicy::new(8)
            .with_base(Duration::from_secs(1 << 40))
            .with_cap(Duration::from_secs(1 << 41));
        let d = big.delay(u32::MAX);
        assert!(d <= Duration::from_secs(1 << 41), "saturating, capped");
    }

    #[test]
    fn retry_wall_budget_exhausts_in_bounded_time() {
        // 1000 attempts × 2 s cap would spin for ~half an hour against a
        // dead receiver; the wall budget bounds the total sleep instead.
        let budget = Duration::from_millis(400);
        let mut p = BackoffPolicy::new(3)
            .with_base(Duration::from_millis(100))
            .with_cap(Duration::from_millis(200))
            .with_max_attempts(1000)
            .with_max_total_delay(budget);
        let mut total = Duration::ZERO;
        let mut attempts = 0u32;
        while let Some(d) = p.checked_delay(attempts) {
            total += d;
            attempts += 1;
            assert!(attempts < 100, "budget never exhausted");
        }
        assert!(
            total <= budget,
            "slept {total:?} past the {budget:?} budget"
        );
        assert!(attempts >= 2, "a 400 ms budget affords at least two waits");
        assert!(attempts < 1000, "exhausted long before the attempt bound");
    }

    #[test]
    fn retry_budget_overflow_and_saturation_edges() {
        // Duration::MAX budget: the saturating spent-counter must never
        // wrap into a spurious exhaustion, even with enormous delays.
        let mut p = BackoffPolicy::new(11)
            .with_base(Duration::from_secs(1 << 40))
            .with_cap(Duration::from_secs(1 << 41))
            .with_max_total_delay(Duration::MAX);
        for attempt in [0, 31, 64, u32::MAX] {
            let d = p.checked_delay(attempt).expect("MAX budget never refuses");
            assert!(d <= Duration::from_secs(1 << 41));
        }
        // Zero budget: refused immediately, nothing slept.
        let mut z = BackoffPolicy::new(11).with_max_total_delay(Duration::ZERO);
        assert_eq!(z.checked_delay(0), None);
        assert_eq!(z.total_delay_spent(), Duration::ZERO);
        // No budget: checked_delay behaves exactly like delay (same RNG
        // stream) and never refuses.
        let mut a = BackoffPolicy::new(13);
        let mut b = BackoffPolicy::new(13);
        for k in 0..6 {
            assert_eq!(a.checked_delay(k), Some(b.delay(k)));
        }
        // The final grant is clamped so the cumulative sleep never
        // exceeds the budget, then the next call refuses.
        let budget = Duration::from_millis(150);
        let mut c = BackoffPolicy::new(17)
            .with_base(Duration::from_millis(100))
            .with_cap(Duration::from_millis(100))
            .with_max_total_delay(budget);
        let mut total = Duration::ZERO;
        while let Some(d) = c.checked_delay(0) {
            total += d;
        }
        assert!(total <= budget);
        assert_eq!(
            c.total_delay_spent(),
            total,
            "spent must track the clamped grants actually slept"
        );
    }

    #[test]
    fn client_delay_is_pure_and_replayable() {
        let p = BackoffPolicy::new(99);
        // Same (seed, client, attempt) → same delay, and asking does not
        // disturb the policy (it takes &self), so interleaving order is
        // irrelevant — the DES replay property.
        assert_eq!(p.client_delay(7, 3), p.client_delay(7, 3));
        let fresh = BackoffPolicy::new(99);
        assert_eq!(p.client_delay(7, 3), fresh.client_delay(7, 3));
        // Different seeds draw different jitter.
        assert_ne!(
            BackoffPolicy::new(1).client_delay(7, 3),
            BackoffPolicy::new(2).client_delay(7, 3)
        );
    }

    #[test]
    fn client_delay_spreads_a_fleet() {
        // 1000 clients retrying the same attempt at the same virtual
        // instant must not cluster: delays stay in the jitter band and
        // take many distinct values.
        let p = BackoffPolicy::new(5)
            .with_base(Duration::from_millis(100))
            .with_cap(Duration::from_secs(60));
        let nominal = Duration::from_millis(400); // attempt 2 → base·4
        let delays: Vec<Duration> = (0..1000).map(|c| p.client_delay(c, 2)).collect();
        let mut distinct = delays.clone();
        distinct.sort();
        distinct.dedup();
        assert!(
            distinct.len() > 900,
            "only {} distinct delays",
            distinct.len()
        );
        for d in &delays {
            assert!(
                *d <= nominal && *d >= nominal / 2,
                "{d:?} outside jitter band"
            );
        }
    }

    #[test]
    fn client_delay_survives_absurd_attempt_counts() {
        // Mirrors `backoff_survives_absurd_attempt_counts` for the pure
        // per-client path: the shift saturates and the cap holds.
        let cap = Duration::from_secs(2);
        let p = BackoffPolicy::new(7).with_cap(cap);
        for attempt in [17, 31, 32, 64, 1_000_000, u32::MAX] {
            let d = p.client_delay(123, attempt);
            assert!(d <= cap, "attempt {attempt}: {d:?} exceeds the cap");
            assert!(d >= cap / 2, "attempt {attempt}: {d:?} below half the cap");
        }
    }
}
