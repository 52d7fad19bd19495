//! Order statistics shared by the metric reducers and `agree`.

/// Linear-interpolation quantile (`q` in 0..=1) of unsorted samples;
/// `f64::INFINITY` counts as a sample (a failed study is an infinitely
/// late one). Empty input yields NaN.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        1 => v[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            if lo == hi || v[lo] == v[hi] {
                v[lo]
            } else {
                v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
            }
        }
    }
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn minimum(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Σ over items of `stat` of each item's times across passes, where
/// `rows[pass][item]` is one item's time in one pass. With [`median`] or
/// [`minimum`] as `stat`, the passes a burst of contention slows drop
/// out of every item's statistic.
pub fn sum_over_items(rows: &[Vec<f64>], stat: impl Fn(&[f64]) -> f64) -> f64 {
    let items = rows.iter().map(Vec::len).max().unwrap_or(0);
    (0..items)
        .map(|i| {
            let column: Vec<f64> = rows.iter().filter_map(|r| r.get(i).copied()).collect();
            stat(&column)
        })
        .sum()
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` computes them (the default "exclusive" method), so `agree`
/// reports the same spread the acceptance check does. Needs at least
/// two samples; with one, both quartiles are that sample.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len() as i64;
    if ld < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = ld + 1;
    let at = |i: i64| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        (v[(j - 1) as usize] * (4.0 - delta) + v[j as usize] * delta) / 4.0
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn quantile_interpolates_and_orders_infinity_last() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[1.0, f64::INFINITY], 1.0), f64::INFINITY);
        assert_eq!(quantile(&[5.0], 0.95), 5.0);
    }

    #[test]
    fn sum_over_items_ignores_one_slow_pass() {
        let passes = [vec![2.0, 10.0], vec![1.0, 20.0], vec![9.0, 90.0]];
        assert_eq!(sum_over_items(&passes, median), 22.0);
        assert_eq!(sum_over_items(&passes, minimum), 11.0);
        assert_eq!(sum_over_items(&[], minimum), 0.0);
    }
}
