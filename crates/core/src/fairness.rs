//! Fairness measurement helpers.
//!
//! The paper's fairness measure between equal-priority nodes *i* and *j*
//! over an interval is `|αᵢ − αⱼ|`, where α is the achieved share of the
//! contested resource — throughput for RF, channel occupancy time for TF
//! (§2.1). For more than two nodes we report the worst pair, i.e.
//! `max α − min α`.

use airtime_sim::SimDuration;

/// Worst-case pairwise allocation gap `max αᵢ − min αⱼ` (the paper's
/// fairness measure generalised to n nodes). Zero means perfectly fair;
/// empty input yields zero.
pub fn throughput_gap(alloc: &[f64]) -> f64 {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &a in alloc {
        min = min.min(a);
        max = max.max(a);
    }
    if alloc.is_empty() {
        0.0
    } else {
        max - min
    }
}

/// Normalises per-client occupancy durations into fractions of their
/// sum — the paper's T(i) under the saturation assumption Σ T(i) = 1.
/// All-zero input yields all-zero shares.
pub fn airtime_shares(occupancy: &[SimDuration]) -> Vec<f64> {
    let total: f64 = occupancy.iter().map(|d| d.as_secs_f64()).sum();
    if total <= 0.0 {
        return vec![0.0; occupancy.len()];
    }
    occupancy.iter().map(|d| d.as_secs_f64() / total).collect()
}

/// Reference max-min fair allocation (water-filling).
///
/// Distributes `capacity` among entities with the given `demands`: no
/// entity gets more than its demand, the smallest allocation is as large
/// as possible, then the second smallest, and so on (§4.3's constraint,
/// after Bertsekas & Gallager). Used as ground truth when testing TBR's
/// ADJUSTRATEEVENT convergence.
///
/// # Panics
///
/// Panics if `capacity` is negative or any demand is negative.
pub fn max_min_allocation(capacity: f64, demands: &[f64]) -> Vec<f64> {
    assert!(capacity >= 0.0, "capacity must be non-negative");
    assert!(
        demands.iter().all(|&d| d >= 0.0),
        "demands must be non-negative"
    );
    let n = demands.len();
    let mut alloc = vec![0.0; n];
    let mut remaining = capacity;
    let mut unsated: Vec<usize> = (0..n).collect();
    loop {
        unsated.retain(|&i| alloc[i] < demands[i]);
        if unsated.is_empty() || remaining <= 1e-15 {
            break;
        }
        let share = remaining / unsated.len() as f64;
        let mut consumed = 0.0;
        for &i in &unsated {
            let want = demands[i] - alloc[i];
            let give = want.min(share);
            alloc[i] += give;
            consumed += give;
        }
        remaining -= consumed;
        if consumed <= 1e-15 {
            break;
        }
    }
    alloc
}

/// Weighted max-min fair *throughput* allocation over a multi-rate
/// airtime budget (water-filling over per-station achievable rates).
///
/// Station *i* can move at most `rates[i]` bit/s when it holds the
/// channel, wants at most `demands[i]` bit/s, and carries QoS weight
/// `weights[i]`. One unit of shared airtime is distributed so that the
/// normalised throughputs `xᵢ/wᵢ` are max-min fair subject to the
/// airtime constraint `Σ xᵢ/rᵢ ≤ 1` and the demand caps `xᵢ ≤ dᵢ`:
/// there is a water level τ with `xᵢ = min(dᵢ, wᵢ·τ)` and either the
/// airtime budget is exhausted or every demand is met.
///
/// With all rates equal to `r` and unit weights this reduces to
/// [`max_min_allocation`]`(r, demands)` — the single-rate wired case —
/// which the tests assert. In a multi-rate cell the airtime constraint
/// is what makes equalised throughput expensive: a slow station's bits
/// drain the shared budget `1/rᵢ` times faster (the §2.3 anomaly, here
/// in closed form).
///
/// # Panics
///
/// Panics on negative demands, non-positive rates, or non-positive
/// weights. Empty input yields an empty allocation.
pub fn waterfill_airtime(demands: &[f64], rates: &[f64], weights: &[f64]) -> Vec<f64> {
    let mut alloc = Vec::new();
    waterfill_airtime_into(&mut alloc, &mut Vec::new(), demands, rates, weights);
    alloc
}

/// [`waterfill_airtime`] into caller-owned buffers: the allocation
/// replaces the contents of `alloc`, and `saturated` is scratch. A
/// caller that keeps both across calls allocates nothing once they
/// have grown to the client count.
///
/// # Panics
///
/// As [`waterfill_airtime`].
pub fn waterfill_airtime_into(
    alloc: &mut Vec<f64>,
    saturated: &mut Vec<bool>,
    demands: &[f64],
    rates: &[f64],
    weights: &[f64],
) {
    assert_eq!(demands.len(), rates.len());
    assert_eq!(demands.len(), weights.len());
    assert!(
        demands.iter().all(|&d| d >= 0.0),
        "demands must be non-negative"
    );
    assert!(rates.iter().all(|&r| r > 0.0), "rates must be positive");
    assert!(weights.iter().all(|&w| w > 0.0), "weights must be positive");
    let n = demands.len();
    alloc.clear();
    alloc.resize(n, 0.0);
    saturated.clear();
    saturated.resize(n, false);
    let mut budget = 1.0f64; // airtime fraction still unassigned
    for _ in 0..=n {
        // Raise the water level for the unsaturated set; a station whose
        // demand sits below the level saturates (gets its demand) and
        // frees budget for another pass.
        let denom: f64 = (0..n)
            .filter(|&i| !saturated[i])
            .map(|i| weights[i] / rates[i])
            .sum();
        if denom <= 0.0 || budget <= 1e-15 {
            break;
        }
        let tau = budget / denom;
        let mut newly_saturated = false;
        for i in 0..n {
            if !saturated[i] && demands[i] < weights[i] * tau {
                alloc[i] = demands[i];
                budget -= demands[i] / rates[i];
                saturated[i] = true;
                newly_saturated = true;
            }
        }
        if !newly_saturated {
            for i in 0..n {
                if !saturated[i] {
                    alloc[i] = weights[i] * tau;
                }
            }
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_cases() {
        assert_eq!(throughput_gap(&[]), 0.0);
        assert_eq!(throughput_gap(&[5.0]), 0.0);
        assert_eq!(throughput_gap(&[1.0, 1.0, 1.0]), 0.0);
        assert!((throughput_gap(&[0.2, 0.5, 0.3]) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn shares_normalise() {
        let occ = [SimDuration::from_millis(100), SimDuration::from_millis(300)];
        let s = airtime_shares(&occ);
        assert!((s[0] - 0.25).abs() < 1e-12);
        assert!((s[1] - 0.75).abs() < 1e-12);
        assert_eq!(airtime_shares(&[SimDuration::ZERO; 3]), vec![0.0; 3]);
    }

    #[test]
    fn max_min_all_demands_met_when_capacity_suffices() {
        let a = max_min_allocation(10.0, &[1.0, 2.0, 3.0]);
        assert_eq!(a, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn max_min_equal_split_when_all_greedy() {
        let a = max_min_allocation(1.0, &[10.0, 10.0, 10.0, 10.0]);
        for x in a {
            assert!((x - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn max_min_redistributes_unused_share() {
        // The paper's §4.3 example: 3 uplink TCP flows, one can only use
        // 1/5 of the channel; the other two get 2/5 each.
        let a = max_min_allocation(1.0, &[0.2, 10.0, 10.0]);
        assert!((a[0] - 0.2).abs() < 1e-12);
        assert!((a[1] - 0.4).abs() < 1e-12);
        assert!((a[2] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn max_min_multi_level_waterfill() {
        let a = max_min_allocation(10.0, &[1.0, 3.0, 100.0]);
        assert!((a[0] - 1.0).abs() < 1e-12);
        assert!((a[1] - 3.0).abs() < 1e-12);
        assert!((a[2] - 6.0).abs() < 1e-12);
    }

    #[test]
    fn max_min_zero_capacity() {
        assert_eq!(max_min_allocation(0.0, &[1.0, 2.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn waterfill_reduces_to_max_min_when_rates_equal() {
        // Single-rate cell: waterfilling one unit of airtime at rate r
        // is exactly the wired max-min allocation of capacity r.
        let demands = [1.0e6, 3.0e6, 100.0e6];
        let r = 10.0e6;
        let a = waterfill_airtime(&demands, &[r; 3], &[1.0; 3]);
        let b = max_min_allocation(r, &demands);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-3, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn waterfill_equalises_throughput_for_greedy_multirate() {
        // Two saturated stations at 11 and 1 Mbit/s: max-min equalises
        // throughput (Leith et al.), x = 1/(1/11 + 1/1) Mbit/s each.
        let a = waterfill_airtime(&[1e9, 1e9], &[11e6, 1e6], &[1.0, 1.0]);
        let expect = 1.0 / (1.0 / 11e6 + 1.0 / 1e6);
        assert!((a[0] - expect).abs() < 1.0, "{a:?}");
        assert!((a[1] - expect).abs() < 1.0, "{a:?}");
    }

    #[test]
    fn waterfill_caps_at_demand_and_redistributes() {
        // A station wanting only 0.5 Mbit/s frees airtime for the rest.
        let a = waterfill_airtime(&[0.5e6, 1e9], &[11e6, 11e6], &[1.0, 1.0]);
        assert!((a[0] - 0.5e6).abs() < 1.0, "{a:?}");
        // Remaining airtime: 1 - 0.5/11; all to station 1 at 11 Mbit/s.
        let expect = (1.0 - 0.5 / 11.0) * 11e6;
        assert!((a[1] - expect).abs() < 1.0, "{a:?}");
    }

    #[test]
    fn waterfill_honours_weights() {
        // Weight 2 vs 1, equal rates, both greedy: 2:1 throughput split.
        let a = waterfill_airtime(&[1e9, 1e9], &[11e6, 11e6], &[2.0, 1.0]);
        assert!((a[0] / a[1] - 2.0).abs() < 1e-9, "{a:?}");
    }

    #[test]
    fn waterfill_airtime_budget_is_conserved() {
        let demands = [2e6, 5e6, 1e9, 0.0];
        let rates = [11e6, 5.5e6, 2e6, 1e6];
        let a = waterfill_airtime(&demands, &rates, &[1.0; 4]);
        let airtime: f64 = a.iter().zip(rates.iter()).map(|(x, r)| x / r).sum();
        assert!(airtime <= 1.0 + 1e-9, "airtime {airtime}");
        for (x, d) in a.iter().zip(demands.iter()) {
            assert!(*x <= d + 1e-9);
        }
    }

    #[test]
    fn waterfill_into_reused_buffers_matches_a_fresh_call() {
        // Buffers left over from a larger, fully saturated call must not
        // leak into a smaller one.
        let (mut alloc, mut saturated) = (Vec::new(), Vec::new());
        let rates = [11e6, 5.5e6, 2e6, 1e6, 1e6];
        waterfill_airtime_into(&mut alloc, &mut saturated, &[0.0; 5], &rates, &[1.0; 5]);
        let demands = [2e6, 1e9, 1e9];
        let weights = [1.0, 2.0, 1.0];
        waterfill_airtime_into(&mut alloc, &mut saturated, &demands, &rates[..3], &weights);
        let fresh = waterfill_airtime(&demands, &rates[..3], &weights);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&alloc), bits(&fresh));
    }

    #[test]
    fn max_min_smallest_allocation_is_maximal() {
        // Property: in a max-min allocation, no transfer from a larger
        // allocation can raise the minimum unmet one.
        let demands = [0.3, 0.8, 0.1, 2.0, 0.6];
        let a = max_min_allocation(1.0, &demands);
        let total: f64 = a.iter().sum();
        assert!(total <= 1.0 + 1e-9);
        for i in 0..a.len() {
            assert!(a[i] <= demands[i] + 1e-12);
        }
        // Unsatisfied entities all sit at the same (maximal) level.
        let unsat: Vec<f64> = (0..a.len())
            .filter(|&i| a[i] < demands[i] - 1e-9)
            .map(|i| a[i])
            .collect();
        for w in unsat.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-9, "unsat levels differ: {unsat:?}");
        }
    }
}
