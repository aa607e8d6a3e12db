//! Summary metrics over run outcomes — the numbers the paper quotes in
//! its abstract and §V ("about 30% higher simulation rate", "25–50%
//! lesser storage space", "higher and more consistent rate of
//! visualization").

use crate::orchestrator::RunOutcome;

/// Head-to-head comparison of the two algorithms on one site.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Site label.
    pub site_label: &'static str,
    /// Simulation-rate advantage of optimization over greedy, percent
    /// (positive = optimization faster).
    pub sim_rate_gain_pct: f64,
    /// Storage saving of optimization over greedy, percent of the greedy
    /// peak usage (positive = optimization used less).
    pub storage_saving_pct: f64,
    /// Visualization progress (simulated minutes rendered) at *half* the
    /// common horizon, optimization minus greedy. Mid-run is the regime
    /// the paper's Figure 7 emphasises — the greedy heuristic's transfer
    /// queue is deepest then; by the end of a completed run it may have
    /// drained its backlog.
    pub viz_progress_gain_min: f64,
    /// Coefficient of variation (σ/μ) of the output interval across the
    /// run, per algorithm — the "consistent quality-of-service" measure
    /// (greedy, optimization). Relative spread, because the two methods
    /// operate around very different mean intervals.
    pub oi_variation: (f64, f64),
    /// Whether each run completed (greedy, optimization).
    pub completed: (bool, bool),
}

/// Peak storage used, percent of capacity.
pub fn peak_storage_used_pct(out: &RunOutcome) -> f64 {
    100.0 - out.min_free_disk_pct
}

/// Percentile of a sample by nearest-rank (p in [0, 100]), e.g. the p99
/// frame staleness a broker load sweep reports. NaNs are ignored; an
/// empty (or all-NaN) sample yields 0.
pub fn percentile(values: impl Iterator<Item = f64>, p: f64) -> f64 {
    let mut vals: Vec<f64> = values.collect();
    percentile_in_place(&mut vals, p)
}

/// [`percentile`] of a buffer the caller can spare: selects inside
/// `vals` (reordering it) instead of collecting a copy, which is what a
/// per-tick caller with 10^5 samples in a scratch buffer wants.
pub(crate) fn percentile_in_place(vals: &mut [f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    // Compact the non-NaN values to the front.
    let mut n = 0;
    for i in 0..vals.len() {
        if !vals[i].is_nan() {
            vals.swap(n, i);
            n += 1;
        }
    }
    let vals = &mut vals[..n];
    if vals.is_empty() {
        return 0.0;
    }
    // Nearest-rank: smallest value with at least p% of the sample at or
    // below it.
    let rank = ((p / 100.0 * vals.len() as f64).ceil() as usize).clamp(1, vals.len());
    let (_, v, _) = vals.select_nth_unstable_by(rank - 1, |a, b| a.total_cmp(b));
    *v
}

/// Standard deviation of a series' values (population).
pub fn series_stddev(values: impl Iterator<Item = f64>) -> f64 {
    let vals: Vec<f64> = values.collect();
    if vals.is_empty() {
        return 0.0;
    }
    let mean = vals.iter().sum::<f64>() / vals.len() as f64;
    (vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64).sqrt()
}

/// Visualization progress (simulated minutes of the newest rendered
/// frame) at wall-clock second `t`.
pub fn viz_progress_at(out: &RunOutcome, wall_secs: f64) -> f64 {
    out.series
        .get("viz_progress")
        .and_then(|s| s.value_at(wall_secs))
        .unwrap_or(0.0)
}

/// Simulated minutes reached at wall-clock second `t`.
pub fn sim_progress_at(out: &RunOutcome, wall_secs: f64) -> f64 {
    out.series
        .get("sim_progress")
        .and_then(|s| s.value_at(wall_secs))
        .unwrap_or(0.0)
}

/// Compare a greedy run and an optimization run of the same mission/site.
///
/// # Panics
/// If the runs come from different sites.
pub fn compare(greedy: &RunOutcome, optimization: &RunOutcome) -> Comparison {
    assert_eq!(
        greedy.site_label, optimization.site_label,
        "comparison must be same-site"
    );
    // Simulation rate over the common wall horizon (the earlier end).
    let horizon = greedy.wall_hours.min(optimization.wall_hours) * 3600.0;
    let g_sim = sim_progress_at(greedy, horizon);
    let o_sim = sim_progress_at(optimization, horizon);
    let sim_rate_gain_pct = if g_sim > 0.0 {
        100.0 * (o_sim - g_sim) / g_sim
    } else {
        f64::INFINITY
    };

    let g_peak = peak_storage_used_pct(greedy);
    let o_peak = peak_storage_used_pct(optimization);
    let storage_saving_pct = if g_peak > 0.0 {
        100.0 * (g_peak - o_peak) / g_peak
    } else {
        0.0
    };

    let oi_cv = |out: &RunOutcome| {
        out.series
            .get("output_interval")
            .map(|s| {
                let vals: Vec<f64> = s.points.iter().map(|&(_, v)| v).collect();
                if vals.is_empty() {
                    return 0.0;
                }
                let mean = vals.iter().sum::<f64>() / vals.len() as f64;
                if mean <= 0.0 {
                    return 0.0;
                }
                series_stddev(vals.into_iter()) / mean
            })
            .unwrap_or(0.0)
    };

    Comparison {
        site_label: greedy.site_label,
        sim_rate_gain_pct,
        storage_saving_pct,
        viz_progress_gain_min: viz_progress_at(optimization, horizon / 2.0)
            - viz_progress_at(greedy, horizon / 2.0),
        oi_variation: (oi_cv(greedy), oi_cv(optimization)),
        completed: (greedy.completed, optimization.completed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::AlgorithmKind;
    use crate::orchestrator::Orchestrator;
    use cyclone::{Mission, Site};

    #[test]
    fn percentile_nearest_rank() {
        assert_eq!(percentile([].into_iter(), 99.0), 0.0);
        assert_eq!(percentile([f64::NAN].into_iter(), 50.0), 0.0);
        assert_eq!(percentile([7.0].into_iter(), 0.0), 7.0);
        let sample = (1..=100).map(|v| v as f64);
        assert_eq!(percentile(sample.clone(), 50.0), 50.0);
        assert_eq!(percentile(sample.clone(), 99.0), 99.0);
        assert_eq!(percentile(sample.clone(), 100.0), 100.0);
        // Order independence.
        assert_eq!(percentile([3.0, 1.0, 2.0].into_iter(), 50.0), 2.0);
    }

    #[test]
    fn percentile_in_place_agrees_with_percentile() {
        let mut rng = crate::fault::SplitMix64::new(0x9e99);
        for case in 0..200 {
            // Few distinct values, so duplicates straddle the rank; NaNs
            // anywhere, including everywhere.
            let len = (rng.next_u64() % 40) as usize;
            let sample: Vec<f64> = (0..len)
                .map(|_| {
                    if case % 10 == 9 || rng.unit_f64() < 0.125 {
                        f64::NAN
                    } else {
                        (rng.next_u64() % 12) as f64 * 0.5 - 1.0
                    }
                })
                .collect();
            let mut sorted: Vec<f64> = sample.iter().copied().filter(|v| !v.is_nan()).collect();
            sorted.sort_by(f64::total_cmp);
            for p in [0.0, 1.0, 50.0, 99.0, 100.0, rng.unit_f64() * 100.0] {
                let want = match sorted.len() {
                    0 => 0.0,
                    n => sorted[((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1],
                };
                let mut scratch = sample.clone();
                assert_eq!(percentile_in_place(&mut scratch, p), want);
                assert_eq!(percentile(sample.iter().copied(), p), want);
                // The buffer is reordered, never rewritten.
                let mut after: Vec<u64> = scratch.iter().map(|v| v.to_bits()).collect();
                let mut before: Vec<u64> = sample.iter().map(|v| v.to_bits()).collect();
                after.sort_unstable();
                before.sort_unstable();
                assert_eq!(after, before);
            }
        }
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_rejects_bad_p() {
        percentile([1.0].into_iter(), 101.0);
    }

    #[test]
    fn stddev_basics() {
        assert_eq!(series_stddev([].into_iter()), 0.0);
        assert_eq!(series_stddev([5.0, 5.0, 5.0].into_iter()), 0.0);
        let sd = series_stddev([1.0, 3.0].into_iter());
        assert!((sd - 1.0).abs() < 1e-12);
    }

    #[test]
    fn comparison_on_a_short_mission() {
        let mission = Mission::aila().with_duration_hours(3.0);
        let g = Orchestrator::new(
            Site::inter_department(),
            mission.clone(),
            AlgorithmKind::GreedyThreshold,
        )
        .run();
        let o = Orchestrator::new(
            Site::inter_department(),
            mission,
            AlgorithmKind::Optimization,
        )
        .run();
        let c = compare(&g, &o);
        assert_eq!(c.site_label, "inter-department");
        assert!(c.completed.0 && c.completed.1);
        assert!(peak_storage_used_pct(&g) >= 0.0);
        assert!(c.sim_rate_gain_pct.is_finite());
    }

    #[test]
    #[should_panic(expected = "same-site")]
    fn cross_site_comparison_rejected() {
        let mission = Mission::aila().with_duration_hours(1.0);
        let g = Orchestrator::new(
            Site::inter_department(),
            mission.clone(),
            AlgorithmKind::GreedyThreshold,
        )
        .run();
        let o =
            Orchestrator::new(Site::intra_country(), mission, AlgorithmKind::Optimization).run();
        compare(&g, &o);
    }
}
