//! Differential test of the analytic design-space search against a
//! reference scan.
//!
//! The reference is the plain exhaustive scan: it evaluates every
//! point of the space, and its short list recomputes the shape
//! signature of every entry on every comparison. `analytic::search`
//! skips work its report never reads — it caches each entry's
//! signature, rejects points below a full list's worst margin before
//! shaping them, and evaluates one point per cell for weight-blind
//! protocols — so the two must produce the same report, with every
//! float equal bit for bit, over seeded random small spaces.

use analytic::{
    search, Candidate, MasterModel, Prediction, Protocol, Scratch, SearchSpace, SlaTarget,
    SystemModel, TargetKind, TrafficInput, MAX_MASTERS,
};
use lotterybus_repro::socsim::BusConfig;
use lotterybus_repro::traffic::SizeDist;

/// Seeded random spaces to compare.
const CASES: u64 = 240;

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
    (space, targets, rng.pick(&[1, 2, 3, 8]))
}

/// The reference scan's result: `(scanned, feasible, candidates)`.
type Reference = (u64, u64, Vec<Candidate>);

/// The reference scan: every point evaluated, every offer shaped
/// against every short-listed entry.
fn reference_search(space: &SearchSpace, targets: &[SlaTarget], top: usize) -> Reference {
    let n = space.traffic.len();
    let mut scratch = Scratch::new();
    let mut scanned = 0u64;
    let mut feasible = 0u64;
    let mut shortlist: Vec<Candidate> = Vec::new();

    for &burst in &space.bursts {
        let bus = BusConfig { max_burst: burst, ..space.bus };
        let base: Vec<MasterModel> = space
            .traffic
            .iter()
            .map(|t| {
                MasterModel::new(
                    t.lambda,
                    t.size,
                    1,
                    t.stall.unwrap_or_else(|| bus.per_grant_overhead()),
                    burst,
                )
            })
            .collect();
        for &scale in &space.load_scales {
            let masters: Vec<MasterModel> =
                base.iter().map(|m| MasterModel { lambda: m.lambda * scale, ..*m }).collect();
            let mut model = SystemModel::new(space.protocol, masters)
                .with_tdma_block(space.tdma_block)
                .with_drr_quantum(space.drr_quantum);
            model.max_burst = burst;
            let mut weights = [1u32; MAX_MASTERS];
            loop {
                for (m, &w) in model.masters.iter_mut().zip(&weights[..n]) {
                    m.weight = w;
                }
                model.evaluate(&mut scratch);
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
        }
    }

    shortlist.sort_by(|a, b| b.margin.partial_cmp(&a.margin).expect("finite margins"));
    (scanned, feasible, shortlist)
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

fn bits(candidates: &[Candidate]) -> Vec<CandidateBits> {
    candidates
        .iter()
        .map(|c| {
            let predicted = c
                .predicted
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
                .collect();
            (c.weights.clone(), c.burst, c.load_scale.to_bits(), c.margin.to_bits(), predicted)
        })
        .collect()
}

#[test]
fn search_matches_the_reference_scan_on_random_spaces() {
    let mut rng = Rng(0x5EA2_C4E0);
    let mut shortlisted = 0;
    for case in 0..CASES {
        let (space, targets, top) = random_case(&mut rng);
        let report = search(&space, &targets, top).expect("random spaces are valid");
        let (scanned, feasible, candidates) = reference_search(&space, &targets, top);
        let context = || format!("case {case}: {space:?} targets {targets:?} top {top}");
        assert_eq!(report.scanned, scanned, "{}", context());
        assert_eq!(report.feasible, feasible, "{}", context());
        assert_eq!(bits(&report.candidates), bits(&candidates), "{}", context());
        let cells = (space.bursts.len() * space.load_scales.len()) as u64;
        let evaluated = if space.protocol == Protocol::RoundRobin { cells } else { scanned };
        assert_eq!(report.evaluated, evaluated, "{}", context());
        shortlisted += candidates.len();
    }
    // The cases must exercise the short list, not just empty scans.
    assert!(shortlisted > CASES as usize, "only {shortlisted} candidates over {CASES} cases");
}
