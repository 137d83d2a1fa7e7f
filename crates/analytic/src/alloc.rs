//! Saturated-bus bandwidth allocation: weighted max-min water-filling
//! and the static-priority waterfall.
//!
//! Under saturation the arbiter alone decides who gets the bus. Each
//! protocol divides some resource — cycles, grants, or words — in
//! proportion to weights among backlogged masters, while masters whose
//! demand is met drop out of the competition and return their surplus.
//! That is exactly weighted max-min fairness, computed here by
//! progressive filling.

use crate::model::{EPS, MAX_MASTERS};

/// Divides `capacity` bus cycles among masters demanding
/// `units[i]` resource units per cycle at `cost[i]` cycles per unit,
/// weighted max-min fair with the given weights. Writes each master's
/// granted units into `alloc`.
///
/// The water level θ rises uniformly: master `i` holds `θ · weight[i]`
/// units until its demand is met, at which point it caps and the rest
/// keep filling. Terminates in at most `n` rounds.
///
/// # Panics
///
/// Panics if slice lengths differ or exceed [`MAX_MASTERS`].
pub fn weighted_water_fill(
    units: &[f64],
    cost: &[f64],
    weight: &[f64],
    capacity: f64,
    alloc: &mut [f64],
) {
    let n = units.len();
    assert!(n <= MAX_MASTERS, "at most {MAX_MASTERS} masters");
    assert!(cost.len() == n && weight.len() == n && alloc.len() == n, "slice lengths must match");
    let mut ratio = [0.0; MAX_MASTERS];
    let mut wcost = [0.0; MAX_MASTERS];
    for i in 0..n {
        ratio[i] = units[i] / weight[i];
        wcost[i] = weight[i] * cost[i];
    }
    water_fill(units, weight, &ratio[..n], &wcost[..n], capacity, alloc);
}

/// [`weighted_water_fill`] on precomputed per-master ratios: master
/// `i` saturates at level `ratio[i] = units[i] / weight[i]` and costs
/// `wcost[i] = weight[i] · cost[i]` cycles per unit of level. The
/// design-space search tabulates both per ticket count, so a scanned
/// point divides only once, when capacity runs out.
pub(crate) fn water_fill(
    units: &[f64],
    weight: &[f64],
    ratio: &[f64],
    wcost: &[f64],
    capacity: f64,
    alloc: &mut [f64],
) {
    let n = units.len();
    alloc.fill(0.0);
    let mut active: u32 = 0;
    for i in 0..n {
        if units[i] > EPS && weight[i] > EPS {
            active |= 1 << i;
        }
    }
    let mut level = 0.0f64;
    let mut cap = capacity;
    while active != 0 && cap > EPS {
        // Weighted cycle cost of raising the level by dθ, and the next
        // level at which some master's demand saturates.
        let mut level_cost = 0.0;
        let mut next_level = f64::INFINITY;
        let mut bits = active;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            level_cost += wcost[i];
            next_level = next_level.min(ratio[i]);
        }
        if level_cost <= EPS {
            break;
        }
        let need = (next_level - level) * level_cost;
        if need >= cap {
            // Capacity runs out before the next demand saturates: every
            // remaining master stays backlogged at the final level.
            level += cap / level_cost;
            let mut bits = active;
            while bits != 0 {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                alloc[i] = level * weight[i];
            }
            return;
        }
        cap -= need;
        level = next_level;
        let mut bits = active;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if ratio[i] <= level + EPS {
                alloc[i] = units[i];
                active &= !(1 << i);
            } else {
                alloc[i] = level * weight[i];
            }
        }
    }
}

/// Strict-priority allocation of `capacity` bus cycles: masters are
/// served in descending weight order (ties broken by lower index, the
/// simulator's `StaticPriorityArbiter` convention), each taking
/// `min(demand, remaining)`. Demands and allocations are in cycles.
///
/// # Panics
///
/// Panics if slice lengths differ or exceed [`MAX_MASTERS`].
pub fn priority_fill(demand: &[f64], weight: &[f64], capacity: f64, alloc: &mut [f64]) {
    let n = demand.len();
    assert!(n <= MAX_MASTERS, "at most {MAX_MASTERS} masters");
    assert!(weight.len() == n && alloc.len() == n, "slice lengths must match");
    alloc.fill(0.0);
    let mut rem = capacity;
    for &i in &priority_order(weight)[..n] {
        let take = demand[i].min(rem).max(0.0);
        alloc[i] = take;
        rem -= take;
    }
}

/// The static-priority service order: master indices by descending
/// weight, ties broken by lower index. Both the waterfall and Cobham's
/// waiting times follow it, so a static-priority prediction depends on
/// the weights only through this order.
pub(crate) fn priority_order(weight: &[f64]) -> [usize; MAX_MASTERS] {
    let n = weight.len();
    let mut order = [0usize; MAX_MASTERS];
    for (i, slot) in order.iter_mut().take(n).enumerate() {
        *slot = i;
    }
    order[..n].sort_by(|&a, &b| {
        weight[b].partial_cmp(&weight[a]).expect("finite weights").then(a.cmp(&b))
    });
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn under_capacity_everyone_gets_their_demand() {
        let units = [0.2, 0.3, 0.1];
        let cost = [1.0, 1.0, 1.0];
        let weight = [1.0, 1.0, 1.0];
        let mut alloc = [0.0; 3];
        weighted_water_fill(&units, &cost, &weight, 1.0, &mut alloc);
        assert_eq!(alloc, units);
    }

    #[test]
    fn over_capacity_divides_by_weight() {
        let units = [10.0, 10.0, 10.0, 10.0];
        let cost = [1.0, 1.0, 1.0, 1.0];
        let weight = [1.0, 2.0, 3.0, 4.0];
        let mut alloc = [0.0; 4];
        weighted_water_fill(&units, &cost, &weight, 1.0, &mut alloc);
        for (i, a) in alloc.iter().enumerate() {
            assert!((a - (i + 1) as f64 / 10.0).abs() < 1e-12, "alloc {alloc:?}");
        }
    }

    #[test]
    fn satisfied_masters_return_their_surplus() {
        // Master 0 only wants 0.05 of its 0.25 fair share; the other
        // three split the surplus 1:1:1 → (1 - 0.05) / 3 each.
        let units = [0.05, 9.0, 9.0, 9.0];
        let cost = [1.0; 4];
        let weight = [1.0; 4];
        let mut alloc = [0.0; 4];
        weighted_water_fill(&units, &cost, &weight, 1.0, &mut alloc);
        assert!((alloc[0] - 0.05).abs() < 1e-12);
        for a in &alloc[1..] {
            assert!((a - 0.95 / 3.0).abs() < 1e-12, "alloc {alloc:?}");
        }
    }

    #[test]
    fn costs_shrink_unit_allocations() {
        // Equal weights but master 1's units cost twice the cycles:
        // equal unit rates ν with ν(1 + 2) = 1 → ν = 1/3.
        let units = [9.0, 9.0];
        let cost = [1.0, 2.0];
        let weight = [1.0, 1.0];
        let mut alloc = [0.0; 2];
        weighted_water_fill(&units, &cost, &weight, 1.0, &mut alloc);
        assert!((alloc[0] - 1.0 / 3.0).abs() < 1e-12, "alloc {alloc:?}");
        assert!((alloc[1] - 1.0 / 3.0).abs() < 1e-12, "alloc {alloc:?}");
    }

    #[test]
    fn conservation_always_holds() {
        let units = [0.4, 0.9, 0.2, 1.5];
        let cost = [1.0, 2.0, 0.5, 1.0];
        let weight = [1.0, 3.0, 2.0, 4.0];
        let mut alloc = [0.0; 4];
        weighted_water_fill(&units, &cost, &weight, 1.0, &mut alloc);
        let spent: f64 = alloc.iter().zip(&cost).map(|(a, c)| a * c).sum();
        assert!(spent <= 1.0 + 1e-9, "over-allocated: {spent}");
        for (a, u) in alloc.iter().zip(&units) {
            assert!(*a <= u + 1e-9, "allocated beyond demand");
        }
    }

    #[test]
    fn waterfall_serves_high_weight_first() {
        let demand = [0.5, 0.5, 0.5];
        let weight = [1.0, 3.0, 2.0];
        let mut alloc = [0.0; 3];
        priority_fill(&demand, &weight, 1.0, &mut alloc);
        assert_eq!(alloc[1], 0.5, "top priority fully served");
        assert_eq!(alloc[2], 0.5, "second priority takes the rest");
        assert_eq!(alloc[0], 0.0, "lowest priority starves");
    }

    #[test]
    fn waterfall_ties_break_by_lower_index() {
        let demand = [0.8, 0.8];
        let weight = [1.0, 1.0];
        let mut alloc = [0.0; 2];
        priority_fill(&demand, &weight, 1.0, &mut alloc);
        assert_eq!(alloc[0], 0.8);
        assert!((alloc[1] - 0.2).abs() < 1e-12);
    }
}
