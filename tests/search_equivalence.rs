//! Differential test of the analytic design-space search against a
//! reference scan.
//!
//! The reference is the plain exhaustive scan: it evaluates every
//! point of the space, and its short list recomputes the shape
//! signature of every entry on every comparison. `analytic::search`
//! skips work its report never reads — it caches each entry's
//! signature, rejects points below a full list's worst margin before
//! shaping them, and evaluates one point per weight-blind cell — so
//! the two must produce the same report, with every float equal bit
//! for bit, over seeded random small spaces.
//!
//! A cell is weight-blind when its protocol is round-robin, or when
//! it is a lottery or deficit-RR cell whose summed cycle demand is at
//! most `1 − BLIND_HEADROOM`. The reference decides that from
//! `MasterModel::demand` on its own, and some cases are built with
//! their summed demand right at that threshold.
//!
//! `search` scores the water-fill protocols from per-ticket tables and
//! computes only the metrics the targets read, and it evaluates a
//! static-priority cell once per priority order. The reference
//! evaluates every point in full, and counts a static-priority cell's
//! evaluations as the distinct service orders (masters sorted by
//! descending weight, ties by lower index) it sees among its points.

use analytic::{
    search, Candidate, MasterModel, Prediction, Protocol, Scratch, SearchSpace, SlaTarget,
    SystemModel, TargetKind, TrafficInput, MAX_MASTERS,
};
use lotterybus_repro::socsim::BusConfig;
use lotterybus_repro::traffic::SizeDist;
use std::collections::HashSet;

/// Seeded random spaces to compare.
const CASES: u64 = 240;

/// The capacity a lottery or deficit-RR cell must leave unused to be
/// weight-blind.
const BLIND_HEADROOM: f64 = 1e-6;

/// splitmix64: a tiny seeded generator, so the cases are reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    /// Uniform in `[lo, hi)`.
    fn unit(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.range(0, items.len() as u64 - 1) as usize]
    }
}

fn random_case(rng: &mut Rng) -> (SearchSpace, Vec<SlaTarget>, usize) {
    let n = rng.range(1, 5) as usize;
    let traffic = (0..n)
        .map(|_| {
            let size = match rng.range(0, 2) {
                0 => SizeDist::fixed(rng.range(1, 32) as u32),
                1 => SizeDist::uniform(1, rng.range(2, 24) as u32),
                _ => SizeDist::bimodal(2, rng.range(8, 40) as u32, rng.unit(0.05, 0.5)),
            };
            let words = size.mean();
            TrafficInput {
                // Per-master word load between idle and well past
                // saturation, so feasibility varies case to case.
                lambda: rng.unit(0.0, 0.7) / words,
                size,
                stall: if rng.range(0, 1) == 0 { None } else { Some(rng.range(0, 4) as u32) },
            }
        })
        .collect();
    let mut space = SearchSpace::new(rng.pick(&Protocol::ALL), BusConfig::default(), traffic);
    space.tdma_block = rng.range(1, 8) as u32;
    space.drr_quantum = rng.range(1, 16) as u32;
    space.max_tickets = rng.range(1, 7) as u32;
    // Repeated bursts or scales are legal and repeat a cell.
    space.bursts = (0..rng.range(1, 2)).map(|_| rng.pick(&[4, 8, 16, 32])).collect();
    space.load_scales = (0..rng.range(1, 2)).map(|_| rng.pick(&[0.5, 0.8, 1.0, 1.3])).collect();
    if rng.range(0, 3) == 0 {
        space.load_scales.push(space.load_scales[0]);
    }
    // Put the first cell's summed demand within ±1e-5 of the
    // weight-blind threshold, on either side of it.
    if rng.range(0, 3) == 0 {
        let demand: f64 = cell_masters(&space, space.bursts[0], space.load_scales[0])
            .iter()
            .map(MasterModel::demand)
            .sum();
        if demand > 0.0 {
            let target = 1.0 - BLIND_HEADROOM + rng.unit(-1e-5, 1e-5);
            for t in &mut space.traffic {
                t.lambda *= target / demand;
            }
        }
    }
    let targets = (0..rng.range(1, 3))
        .map(|_| SlaTarget {
            master: rng.range(0, n as u64 - 1) as usize,
            kind: match rng.range(0, 3) {
                0 => TargetKind::MinShare(rng.unit(0.01, 0.5)),
                1 => TargetKind::MaxShare(rng.unit(0.1, 0.9)),
                2 => TargetKind::MaxCyclesPerWord(rng.unit(1.0, 30.0)),
                _ => TargetKind::MaxP99(rng.unit(10.0, 2000.0)),
            },
        })
        .collect();
    (space, targets, rng.pick(&[0, 1, 2, 3, 8]))
}

/// The masters of one (burst, load-scale) cell, weights all 1.
fn cell_masters(space: &SearchSpace, burst: u32, scale: f64) -> Vec<MasterModel> {
    let bus = BusConfig { max_burst: burst, ..space.bus };
    space
        .traffic
        .iter()
        .map(|t| {
            let m = MasterModel::new(
                t.lambda,
                t.size,
                1,
                t.stall.unwrap_or_else(|| bus.per_grant_overhead()),
                burst,
            );
            MasterModel { lambda: m.lambda * scale, ..m }
        })
        .collect()
}

/// The reference scan's result.
struct Reference {
    scanned: u64,
    feasible: u64,
    candidates: Vec<Candidate>,
    /// Evaluations the scan needs: one per weight-blind cell, one per
    /// distinct priority order in a static-priority cell, every point
    /// elsewhere.
    evaluated: u64,
    /// Static-priority cells where several points share an order.
    repeated_order_cells: u64,
    /// Weight-blind cells that are not round-robin.
    blind_weighted_cells: u64,
    /// Lottery and deficit-RR cells whose summed demand lies within
    /// 1e-5 of the threshold: `[blind, not blind]`.
    near_threshold: [u64; 2],
}

/// The reference scan: every point evaluated, every offer shaped
/// against every short-listed entry.
fn reference_search(space: &SearchSpace, targets: &[SlaTarget], top: usize) -> Reference {
    let n = space.traffic.len();
    let mut scratch = Scratch::new();
    let mut scanned = 0u64;
    let mut feasible = 0u64;
    let mut evaluated = 0u64;
    let mut blind_weighted_cells = 0u64;
    let mut near_threshold = [0u64; 2];
    let mut repeated_order_cells = 0u64;
    let mut shortlist: Vec<Candidate> = Vec::new();
    let cell_points = u64::from(space.max_tickets).pow(n as u32);

    for &burst in &space.bursts {
        for &scale in &space.load_scales {
            let masters = cell_masters(space, burst, scale);
            let demand: f64 = masters.iter().map(MasterModel::demand).sum();
            let threshold = 1.0 - BLIND_HEADROOM;
            let blind = match space.protocol {
                Protocol::RoundRobin => true,
                Protocol::LotteryStatic
                | Protocol::LotteryDynamic
                | Protocol::DeficitRoundRobin => {
                    blind_weighted_cells += u64::from(demand <= threshold);
                    if (demand - threshold).abs() <= 1e-5 {
                        near_threshold[usize::from(demand > threshold)] += 1;
                    }
                    demand <= threshold
                }
                Protocol::Tdma2Level | Protocol::StaticPriority => false,
            };
            let priority = space.protocol == Protocol::StaticPriority;
            if !priority {
                evaluated += if blind { 1 } else { cell_points };
            }
            let mut orders: HashSet<Vec<usize>> = HashSet::new();
            let mut model = SystemModel::new(space.protocol, masters)
                .with_tdma_block(space.tdma_block)
                .with_drr_quantum(space.drr_quantum);
            model.max_burst = burst;
            let mut weights = [1u32; MAX_MASTERS];
            let mut all_ones = None;
            loop {
                for (m, &w) in model.masters.iter_mut().zip(&weights[..n]) {
                    m.weight = w;
                }
                model.evaluate(&mut scratch);
                if priority {
                    let mut order: Vec<usize> = (0..n).collect();
                    order.sort_by_key(|&i| (std::cmp::Reverse(weights[i]), i));
                    orders.insert(order);
                }
                // A weight-blind cell predicts every point bit for bit
                // like its all-ones point.
                if blind {
                    let preds = prediction_bits(&scratch.preds[..n]);
                    let first = all_ones.get_or_insert_with(|| preds.clone());
                    assert_eq!(&preds, first, "weights {:?} in a blind cell", &weights[..n]);
                }
                let margin = targets
                    .iter()
                    .map(|t| t.slack(&scratch.preds[t.master]))
                    .fold(f64::INFINITY, f64::min);
                scanned += 1;
                if margin >= 0.0 {
                    feasible += 1;
                    let ctx = ShapeCtx {
                        protocol: space.protocol,
                        drr_quantum: space.drr_quantum,
                        burst,
                    };
                    offer(
                        &mut shortlist,
                        top,
                        ctx,
                        &weights[..n],
                        scale,
                        margin,
                        &scratch.preds[..n],
                    );
                }
                let mut digit = 0;
                while digit < n {
                    weights[digit] += 1;
                    if weights[digit] <= space.max_tickets {
                        break;
                    }
                    weights[digit] = 1;
                    digit += 1;
                }
                if digit == n {
                    break;
                }
            }
            if priority {
                evaluated += orders.len() as u64;
                repeated_order_cells += u64::from((orders.len() as u64) < cell_points);
            }
        }
    }

    shortlist.sort_by(|a, b| b.margin.partial_cmp(&a.margin).expect("finite margins"));
    Reference {
        scanned,
        feasible,
        candidates: shortlist,
        evaluated,
        repeated_order_cells,
        blind_weighted_cells,
        near_threshold,
    }
}

#[derive(Clone, Copy)]
struct ShapeCtx {
    protocol: Protocol,
    drr_quantum: u32,
    burst: u32,
}

fn shape(ctx: ShapeCtx, weights: &[u32], out: &mut [u32; MAX_MASTERS]) {
    let n = weights.len();
    match ctx.protocol {
        Protocol::Tdma2Level => out[..n].copy_from_slice(weights),
        Protocol::RoundRobin => out[..n].fill(1),
        Protocol::StaticPriority => {
            for i in 0..n {
                out[i] = weights.iter().filter(|&&w| w < weights[i]).count() as u32;
            }
        }
        _ => {
            let eff = |w: u32| match ctx.protocol {
                Protocol::DeficitRoundRobin => {
                    w.saturating_mul(ctx.drr_quantum.max(1)).min(ctx.burst.max(1))
                }
                _ => w,
            };
            let g = weights.iter().fold(0u32, |g, &w| gcd(g, eff(w))).max(1);
            for i in 0..n {
                out[i] = eff(weights[i]) / g;
            }
        }
    }
}

fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn offer(
    shortlist: &mut Vec<Candidate>,
    top: usize,
    ctx: ShapeCtx,
    weights: &[u32],
    load_scale: f64,
    margin: f64,
    preds: &[Prediction],
) {
    if top == 0 {
        return;
    }
    let mut sig = [0u32; MAX_MASTERS];
    shape(ctx, weights, &mut sig);
    let mut other = [0u32; MAX_MASTERS];
    if let Some(existing) = shortlist.iter_mut().find(|c| {
        shape(ctx, &c.weights, &mut other);
        c.burst == ctx.burst
            && c.load_scale == load_scale
            && other[..weights.len()] == sig[..weights.len()]
    }) {
        let sum: u32 = weights.iter().sum();
        let existing_sum: u32 = existing.weights.iter().sum();
        if margin > existing.margin + f64::EPSILON
            || (margin >= existing.margin - f64::EPSILON && sum < existing_sum)
        {
            existing.weights.copy_from_slice(weights);
            existing.margin = margin;
            existing.predicted.copy_from_slice(preds);
        }
        return;
    }
    if shortlist.len() >= top {
        let (worst_idx, worst) = shortlist
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.margin.partial_cmp(&b.1.margin).expect("finite"))
            .expect("non-empty");
        if margin <= worst.margin {
            return;
        }
        shortlist.swap_remove(worst_idx);
    }
    shortlist.push(Candidate {
        weights: weights.to_vec(),
        burst: ctx.burst,
        load_scale,
        margin,
        predicted: preds.to_vec(),
    });
}

/// A prediction with every float as its bit pattern.
type PredictionBits = (u64, u64, bool, Option<u64>, Option<u64>);

/// A candidate with every float as its bit pattern, so `-0.0 != 0.0`
/// and NaN payloads count.
type CandidateBits = (Vec<u32>, u32, u64, u64, Vec<PredictionBits>);

fn prediction_bits(preds: &[Prediction]) -> Vec<PredictionBits> {
    preds
        .iter()
        .map(|p| {
            (
                p.share.to_bits(),
                p.demand.to_bits(),
                p.stable,
                p.cycles_per_word.map(f64::to_bits),
                p.p99_latency.map(f64::to_bits),
            )
        })
        .collect()
}

fn bits(candidates: &[Candidate]) -> Vec<CandidateBits> {
    candidates
        .iter()
        .map(|c| {
            let predicted = prediction_bits(&c.predicted);
            (c.weights.clone(), c.burst, c.load_scale.to_bits(), c.margin.to_bits(), predicted)
        })
        .collect()
}

#[test]
fn search_matches_the_reference_scan_on_random_spaces() {
    let mut rng = Rng(0x5EA2_C4E0);
    let mut shortlisted = 0;
    let mut blind_weighted_cells = 0;
    let mut listing = 0;
    let mut near_threshold = [0u64; 2];
    let mut repeated_order_cells = 0;
    // Cases whose targets are all shares, and cases with a latency
    // target.
    let mut target_sets = [0u64; 2];
    for case in 0..CASES {
        let (space, targets, top) = random_case(&mut rng);
        let report = search(&space, &targets, top).expect("random spaces are valid");
        let reference = reference_search(&space, &targets, top);
        let context = || format!("case {case}: {space:?} targets {targets:?} top {top}");
        assert_eq!(report.scanned, reference.scanned, "{}", context());
        assert_eq!(report.feasible, reference.feasible, "{}", context());
        assert_eq!(bits(&report.candidates), bits(&reference.candidates), "{}", context());
        assert_eq!(report.evaluated, reference.evaluated, "{}", context());
        shortlisted += reference.candidates.len();
        listing += usize::from(top > 0);
        blind_weighted_cells += reference.blind_weighted_cells;
        repeated_order_cells += reference.repeated_order_cells;
        let latency = targets
            .iter()
            .any(|t| matches!(t.kind, TargetKind::MaxCyclesPerWord(_) | TargetKind::MaxP99(_)));
        target_sets[usize::from(latency)] += 1;
        for (total, cells) in near_threshold.iter_mut().zip(reference.near_threshold) {
            *total += cells;
        }
    }
    // The cases must exercise the short list, not just empty scans,
    // and the weight-blind collapse beyond round-robin, on both sides
    // of its threshold.
    assert!(
        shortlisted > listing,
        "only {shortlisted} candidates over {listing} cases with top > 0"
    );
    assert!(
        blind_weighted_cells >= 20,
        "only {blind_weighted_cells} weight-blind lottery/DRR cells"
    );
    assert!(
        near_threshold.iter().all(|&cells| cells >= 5),
        "lottery/DRR cells within 1e-5 of the threshold (blind, not blind): {near_threshold:?}"
    );
    // Both target-driven paths, and static-priority cells whose tied
    // weights make points share an order.
    assert!(
        target_sets.iter().all(|&cases| cases >= 40),
        "cases with share-only targets and with a latency target: {target_sets:?}"
    );
    assert!(
        repeated_order_cells >= 20,
        "only {repeated_order_cells} static-priority cells with repeated orders"
    );
}
