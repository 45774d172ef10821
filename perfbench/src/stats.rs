//! Statistics helpers: every timing is reported as a median plus the
//! highest tail percentile the sample count supports, with that count;
//! p99 is refused below [`P99_MIN_SAMPLES`]; ratios carry their base;
//! the end-to-end figures come from a run's fastest chunks.

use std::fmt;

/// Fewest samples a p99 is reported from: below this, ten samples beyond
/// the 99th percentile cannot exist and the "p99" would be a max.
pub const P99_MIN_SAMPLES: usize = 1_000;

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The tail percentiles tried, highest first.
const TAILS: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// 1-based nearest rank of percentile `p` among `n` samples (the
/// epsilon keeps `99.9% of 10 000` at rank 9 990 despite rounding).
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice (`p` in `0..=100`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// Number of samples strictly beyond the nearest-rank percentile `p`.
fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// A summarized sample of one quantity.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub count: usize,
    /// Median (nearest rank).
    pub median: f64,
    /// The highest percentile of [`TAILS`] with at least
    /// [`TAIL_MIN_BEYOND`] samples beyond it, and its value; `None` when
    /// even the median has fewer than that beyond it.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarize `values` (any order). `None` for an empty sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail = TAILS
            .iter()
            .find(|&&p| beyond(n, p) >= TAIL_MIN_BEYOND)
            .map(|&p| (p, percentile(&sorted, p)));
        Some(Summary { count: n, median: percentile(&sorted, 50.0), tail })
    }
}

/// The 99th percentile of `values`, refused (`None`) below
/// [`P99_MIN_SAMPLES`] samples.
pub fn p99(values: &[f64]) -> Option<f64> {
    if values.len() < P99_MIN_SAMPLES {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(percentile(&sorted, 99.0))
}

/// Share of a run's chunks its end-to-end figures are taken from: the
/// best tenth. The host these runs share slows them by up to 40% for
/// seconds to minutes at a time, so any figure over a whole run (a total,
/// or the median chunk, which reads whichever speed held most of the
/// run) spreads from run to run by as much. Most runs have some chunks
/// where the host ran at full speed, and those are what the program
/// itself costs. A cost that falls on only a few chunks is left
/// out with the slow host; chunks of like work (whole churn cycles, whole
/// passes over a trip set) keep every steady cost in every chunk.
pub const BEST_SHARE: f64 = 0.1;

/// Fewest chunks a figure is taken from, so that it never rests on one
/// chunk's luck: a run cut into fewer than [`BEST_MIN`] / [`BEST_SHARE`]
/// chunks keeps this many.
pub const BEST_MIN: usize = 3;

/// Indices of the best [`BEST_SHARE`] of chunks (at least [`BEST_MIN`],
/// or all of them when there are fewer), lowest `cost` first. NaN costs
/// sort last.
pub fn best_chunks(costs: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&a, &b| costs[a].total_cmp(&costs[b]));
    order.truncate(((costs.len() as f64 * BEST_SHARE).ceil() as usize).max(BEST_MIN));
    order
}

/// The rate of a run's fastest chunks, from `(work, seconds)` per chunk:
/// the [`best_chunks`] by seconds per unit of work, their work over their
/// time. Returns the rate and the chunks it was taken from; `None` when
/// no chunk did work in measurable time.
pub fn best_rate(chunks: &[(f64, f64)]) -> Option<(f64, Vec<usize>)> {
    let cost: Vec<f64> = chunks
        .iter()
        .map(|&(work, secs)| if work > 0.0 && secs > 0.0 { secs / work } else { f64::NAN })
        .collect();
    let best: Vec<usize> = best_chunks(&cost).into_iter().filter(|&i| !cost[i].is_nan()).collect();
    if best.is_empty() {
        return None;
    }
    let (work, secs) =
        best.iter().fold((0.0, 0.0), |(w, s), &i| (w + chunks[i].0, s + chunks[i].1));
    Some((work / secs, best))
}

/// A ratio that keeps its numerator and base, so a reader can tell a
/// 2× win from a 2× shrink of the base.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ratio {
    /// Numerator.
    pub value: f64,
    /// Denominator.
    pub base: f64,
}

impl Ratio {
    /// `value ÷ base` (NaN for a zero base, which [`fmt::Display`] shows).
    pub fn get(&self) -> f64 {
        self.value / self.base
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} ({:.6} / base {:.6})", self.get(), self.value, self.base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_is_the_nearest_rank() {
        let s = Summary::of(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!(s.median, 3.0);
        assert_eq!(s.count, 3);
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn tail_has_ten_samples_beyond_it() {
        // 100 samples: p90 leaves exactly 10 beyond, p99 only 1.
        let s = Summary::of(&ramp(100)).unwrap();
        assert_eq!(s.tail, Some((90.0, 90.0)));
        // 1 000 samples: p99 leaves 10 beyond, p99.9 only 1.
        let s = Summary::of(&ramp(1_000)).unwrap();
        assert_eq!(s.tail, Some((99.0, 990.0)));
        // 10 000 samples: p99.9 leaves 10 beyond.
        let s = Summary::of(&ramp(10_000)).unwrap();
        assert_eq!(s.tail, Some((99.9, 9_990.0)));
        // 15 samples: nothing above the median has 10 beyond it.
        assert_eq!(Summary::of(&ramp(15)).unwrap().tail, None);
        assert_eq!(Summary::of(&ramp(20)).unwrap().tail, Some((50.0, 10.0)));
    }

    #[test]
    fn p99_is_refused_below_a_thousand_samples() {
        assert_eq!(p99(&ramp(999)), None);
        assert_eq!(p99(&ramp(1_000)), Some(990.0));
    }

    #[test]
    fn best_chunks_are_the_cheapest_tenth() {
        // 35 chunks: the best tenth rounds up to 4.
        let costs: Vec<f64> = (0..35).map(|i| ((i * 8) % 35) as f64).collect();
        assert_eq!(best_chunks(&costs), [0, 22, 9, 31]);
        // Fewer than thirty chunks still give three; NaN never beats a
        // number; fewer than three give what there is.
        assert_eq!(best_chunks(&[4.0, f64::NAN, 2.0, 1.0, 3.0]), [3, 2, 4]);
        assert_eq!(best_chunks(&[f64::NAN, 1.0]), [1, 0]);
        assert_eq!(best_chunks(&[]), Vec::<usize>::new());
    }

    #[test]
    fn best_rate_is_the_fastest_chunks_work_over_their_time() {
        // Forty chunks at 10/s on a slow host, four faster: the rate is
        // those four's together, 100 units in 4 s.
        let mut chunks = vec![(10.0, 1.0); 40];
        for (i, work) in [(4, 30.0), (9, 20.0), (30, 25.0), (31, 25.0)] {
            chunks[i] = (work, 1.0);
        }
        let (rate, from) = best_rate(&chunks).unwrap();
        assert_eq!((rate, from), (25.0, vec![4, 30, 31, 9]));
        // A chunk that did no work, or took no time, is never chosen.
        assert_eq!(best_rate(&[(3.0, 0.0), (0.0, 1.0), (2.0, 1.0)]).unwrap().1, [2]);
        assert_eq!(best_rate(&[(3.0, 0.0)]), None);
    }

    #[test]
    fn ratios_print_their_base() {
        let r = Ratio { value: 3.0, base: 1.5 };
        assert_eq!(r.get(), 2.0);
        assert_eq!(r.to_string(), "2.0000 (3.000000 / base 1.500000)");
    }
}
