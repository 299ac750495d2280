//! Exact latency recording: every sample is kept as a nanosecond count
//! in a preallocated vector, sorted once after the window. This is what
//! lets p50 and p99 resolve to the sample instead of to a power-of-two
//! bucket of `dlog_obs::LatencyHistogram`.

/// Per-thread sample buffer; `push` never allocates below `capacity`.
#[derive(Debug, Default)]
pub struct Recorder {
    samples: Vec<u64>,
}

impl Recorder {
    pub fn with_capacity(capacity: usize) -> Recorder {
        Recorder {
            samples: Vec::with_capacity(capacity),
        }
    }

    #[inline]
    pub fn push(&mut self, nanos: u64) {
        self.samples.push(nanos);
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// The samples pushed so far, in push order.
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }

    /// Forget the samples and keep the allocation for the next phase.
    pub fn clear(&mut self) {
        self.samples.clear();
    }

    /// Hand the window's samples over and keep the allocation for the
    /// next window.
    pub fn drain_into(&mut self, out: &mut Vec<u64>) {
        out.extend_from_slice(&self.samples);
        self.samples.clear();
    }
}

/// Nearest rank of quantile `q` among `n` samples; the epsilon keeps
/// `0.99 * 1000` from rounding up to rank 991.
fn rank_of(q: f64, n: usize) -> usize {
    (q * n as f64 - 1e-9).ceil().max(1.0) as usize
}

/// Sorted samples of one window, merged over all client threads.
#[derive(Clone, Debug, Default)]
pub struct Sorted(Vec<u64>);

impl Sorted {
    pub fn new(mut samples: Vec<u64>) -> Sorted {
        samples.sort_unstable();
        Sorted(samples)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.0.iter().copied()
    }

    /// Nearest-rank percentile, `q` in (0, 1]; 0 on an empty window.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.0.is_empty() {
            return 0;
        }
        let rank = rank_of(q, self.0.len());
        self.0[rank.clamp(1, self.0.len()) - 1]
    }

    /// The highest of the usual percentiles that still has at least ten
    /// samples beyond it, as `(q, value)`; `None` below twenty samples
    /// (where even the median has fewer than ten beyond it).
    pub fn highest_supported(&self) -> Option<(f64, u64)> {
        const LADDER: [f64; 6] = [0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999];
        let n = self.0.len() as f64;
        LADDER
            .iter()
            .rev()
            .find(|&&q| n - rank_of(q, self.0.len()) as f64 >= 10.0)
            .map(|&q| (q, self.percentile(q)))
    }
}

/// The share of a metric's windows, counted from the good end, that
/// decides the value the untraced pass reports (see [`calm`]).
pub const CALM_SHARE: f64 = 0.25;

/// The value a metric reports, with the median / min / max / count of
/// its per-window values beside it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    /// What goes into the result line: the median, or for a timing of
    /// the untraced pass the calm level of [`calm`].
    pub value: f64,
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The level the best [`CALM_SHARE`] of the windows reach: the
/// nearest-rank quantile counted from the good end. A neighbour on the
/// shared host can only take cycles away, so a window is slowed by it
/// or it is not, never sped up; the median over windows moves with how
/// many of them the neighbour hit, while this level stays where the
/// program itself puts it as long as a quarter of the windows ran
/// undisturbed. Windows are long enough (thousands of commits) to hold
/// every periodic cost of the program, so what a change adds to every
/// window still shows.
pub fn calm(values: &[f64], higher_is_better: bool) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    if higher_is_better {
        v.reverse();
    }
    let rank = (CALM_SHARE * v.len() as f64 - 1e-9).ceil().max(1.0) as usize;
    v.get(rank - 1).copied().unwrap_or(0.0)
}

pub fn summarize(values: &[f64]) -> Summary {
    Summary {
        value: median(values),
        median: median(values),
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        n: values.len(),
    }
}

/// [`summarize`], reporting the calm level instead of the median.
pub fn summarize_calm(values: &[f64], higher_is_better: bool) -> Summary {
    Summary {
        value: calm(values, higher_is_better),
        ..summarize(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_samples() {
        let s = Sorted::new((1..=1000u64).rev().collect());
        assert_eq!(s.percentile(0.5), 500);
        assert_eq!(s.percentile(0.99), 990);
        assert_eq!(s.percentile(1.0), 1000);
        // 1234 and 1235 land in one power-of-two bucket; here they differ.
        let s = Sorted::new(vec![1234, 1235, 1236]);
        assert_eq!(s.percentile(0.5), 1235);
        assert_eq!(Sorted::default().percentile(0.5), 0);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        let of = |n: u64| {
            Sorted::new((0..n).collect())
                .highest_supported()
                .map(|p| p.0)
        };
        assert_eq!(of(19), None);
        assert_eq!(of(20), Some(0.5));
        assert_eq!(of(99), Some(0.5));
        assert_eq!(of(100), Some(0.9));
        assert_eq!(of(1000), Some(0.99));
        assert_eq!(of(10_000), Some(0.999));
        assert_eq!(of(9_999), Some(0.99));
    }

    #[test]
    fn recorder_keeps_its_allocation_across_windows() {
        let mut r = Recorder::with_capacity(64);
        let cap = r.samples.capacity();
        let mut merged = Vec::new();
        for w in 0..3u64 {
            for i in 0..64 {
                r.push(w * 100 + i);
            }
            r.drain_into(&mut merged);
            assert_eq!(r.samples.capacity(), cap);
        }
        assert_eq!(merged.len(), 192);
    }

    #[test]
    fn median_and_summary() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = summarize(&[5.0, 1.0, 9.0]);
        assert_eq!(
            (s.value, s.median, s.min, s.max, s.n),
            (5.0, 5.0, 1.0, 9.0, 3)
        );
    }

    #[test]
    fn calm_level_counts_from_the_good_end() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        // A quarter of twenty windows is five: the fifth best.
        assert_eq!(calm(&v, false), 5.0);
        assert_eq!(calm(&v, true), 16.0);
        assert_eq!(calm(&[7.0], true), 7.0);
        assert_eq!(calm(&[3.0, 9.0], false), 3.0);
        assert_eq!(calm(&[], false), 0.0);
        // Slowing most of the windows does not move it.
        let mut hit = v.clone();
        hit.iter_mut().skip(5).for_each(|x| *x *= 10.0);
        assert_eq!(calm(&hit, false), 5.0);
        let s = summarize_calm(&v, true);
        assert_eq!((s.value, s.median), (16.0, 10.5));
    }
}
