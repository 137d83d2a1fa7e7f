//! The traced run: every per-layer metric, for every workload.
//!
//! Three parts, all digest-checked:
//!
//! 1. Each workload's passes, untraced and traced in alternation, with a
//!    span around every call from the benchmark into a layer's public
//!    function. The spans give per-experiment times, the tracing
//!    overhead and the share of each pass the layer spans cover.
//! 2. Each workload's inputs under every other engine. A variant whose
//!    digest differs from the reference is recorded as `inexact` and
//!    not timed.
//! 3. Microprobes of single layers — arbitration decisions, source
//!    polls, per-cycle stepping, idle skipping, observers, fleet build
//!    and run — each sized to a window of at least 50 ms and repeated
//!    five times in an order shuffled by the seed.

use crate::digest;
use crate::measure::{check, guarded, guarded_pass, SetupSampler, SETUP_ROUNDS};
use crate::probe::{self, run_probes, Probe, PROBE_REPEATS};
use crate::stats::median;
use crate::tracer::Tracer;
use crate::workloads::{
    self, dma_lanes, lane_builder, lane_system, search_calls, search_digest, seed_offset, Engine,
    Inputs, Lane, Workload, DEFAULT_SEED, DMA_CYCLES, SUITE_EXPERIMENTS, WARMUP_CYCLES,
};
use arbiters::ArbiterKind;
use experiments::common::{low_utilization_specs, protocol_arbiter};
use experiments::hotpath::{hot_arbiter, HOT_PROTOCOLS};
use experiments::json::Json;
use scenario::{PlanOutcome, Scenario};
use socsim::{
    Arbiter, BusConfig, Cycle, Fleet, Kernel, MasterId, RequestMap, SystemBuilder, TrafficSource,
};
use std::hint::black_box;
use std::time::{Duration, Instant};
use traffic_gen::classes::saturating_specs;
use traffic_gen::{GeneratorSpec, SizeDist, SourceKind};

/// Lanes in a lowered decision pack.
const SOA_SLOTS: usize = 8;

/// Cycles per unit of the per-cycle system probes.
const STEP_CHUNK: u64 = 1_000;

/// Cycles per unit of the fleet lane-cycle probe.
const FLEET_CHUNK: u64 = 10_000;

/// The analytic protocol models `search` reports, by metric suffix.
const SCAN_MODELS: [(&str, &str); 4] = [
    ("LotteryStatic", "lottery-static"),
    ("StaticPriority", "static-priority"),
    ("Tdma2Level", "tdma-2level"),
    ("RoundRobin", "round-robin"),
];

/// The three traffic-source probes: arrival process and spec.
fn poll_specs() -> [(&'static str, GeneratorSpec); 3] {
    let size = SizeDist::fixed(8);
    [
        ("bernoulli", GeneratorSpec::poisson(0.05, size)),
        ("periodic", GeneratorSpec::periodic(40, 0, size)),
        ("onoff", GeneratorSpec::bursty(2, 6, 4, 50, 150, 0, size)),
    ]
}

/// Every per-layer metric the traced run reports, with its unit, in
/// report order. `BENCHMARK.json` lists exactly these.
pub fn metric_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit| names.push((name, unit));
    for (name, unit) in [
        ("scenario.parse_s", "s"),
        ("scenario.run_s", "s"),
        ("scenario.ns_per_cycle", "ns"),
        ("scenario.fault_run_s", "s"),
        ("scenario.plan_s", "s"),
        ("scenario.fleet_eligible_frac", "ratio"),
        ("socsim.plan.cycle_s", "s"),
        ("socsim.plan.fast_s", "s"),
        ("socsim.plan.fleet_s", "s"),
        ("socsim.suite.cycle_s", "s"),
        ("socsim.suite.fast_s", "s"),
        ("socsim.step_ns", "ns"),
        ("socsim.skip_ns", "ns"),
        ("socsim.metrics_overhead_frac", "ratio"),
        ("socsim.profile_overhead_frac", "ratio"),
        ("socsim.fleet_build_s", "s"),
        ("socsim.fleet_ns_per_lane_cycle", "ns"),
        ("socsim.fleet_tenure_lanes_s", "s"),
        ("socsim.fleet_tdma_lanes_s", "s"),
        ("socsim.fleet_lowered_frac", "ratio"),
        ("socsim.fleet_kernels", "count"),
        ("socsim.dma_scalar.cycle_ns", "ns"),
        ("socsim.dma_scalar.fast_ns", "ns"),
        ("socsim.fleet_vs_fast_x", "x"),
        ("socsim.fleet_vs_cycle_x", "x"),
    ] {
        add(name.to_owned(), unit);
    }
    for (kind, _) in poll_specs() {
        add(format!("traffic-gen.poll_ns.{kind}"), "ns");
    }
    for p in HOT_PROTOCOLS {
        add(format!("arbiters.decide_ns.{p}"), "ns");
    }
    for p in HOT_PROTOCOLS {
        add(format!("arbiters.soa_decide_ns.{p}"), "ns");
    }
    for label in SUITE_EXPERIMENTS {
        add(format!("experiments.{label}_s"), "s");
    }
    add("analytic.scan_s".to_owned(), "s");
    for (_, suffix) in SCAN_MODELS {
        add(format!("analytic.scan_s.{suffix}"), "s");
    }
    add("analytic.points_per_s".to_owned(), "1/s");
    add("analytic.feasible_frac".to_owned(), "ratio");
    add("lotterybus-cli.confirm_s".to_owned(), "s");
    add("lotterybus-cli.confirmed_frac".to_owned(), "ratio");
    for w in Workload::ALL {
        add(format!("trace.overhead_frac.{}", w.name()), "ratio");
    }
    for w in Workload::ALL {
        add(format!("trace.coverage_frac.{}", w.name()), "ratio");
    }
    add("host.runqueue_wait_frac".to_owned(), "ratio");
    names
}

/// What one engine variant of a workload did.
#[derive(Debug, Clone, PartialEq)]
pub struct Variant {
    /// The workload.
    pub workload: Workload,
    /// The engine it ran under.
    pub engine: Engine,
    /// `timed`, `inexact` or `failed`.
    pub status: &'static str,
    /// The variant's digest, when it finished.
    pub digest: Option<u64>,
    /// Pass times, when timed.
    pub seconds: Vec<f64>,
}

/// A traced run's results.
#[derive(Debug)]
pub struct SweepReport {
    /// The input seed.
    pub seed: u64,
    /// `(name, value, unit)`, in [`metric_names`] order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Each workload's spans.
    pub traces: Vec<(Workload, Tracer)>,
    /// Every engine variant run.
    pub variants: Vec<Variant>,
    /// Ladder rungs and counters this run cannot measure, with why.
    pub not_measured: Vec<(&'static str, String)>,
    /// Passes and checks attempted.
    pub attempted: u64,
    /// Passes and checks that failed.
    pub failed: u64,
}

impl SweepReport {
    /// Whether every pass, variant and check held.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The whole report: metrics, spans with self times, the layers'
    /// total self time per workload, variants and the not-measured list.
    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().fold(Json::obj(), |o, (name, value, unit)| {
            o.field(name, Json::obj().field("value", *value).field("unit", *unit))
        });
        let workloads = self.traces.iter().fold(Json::obj(), |o, (w, tracer)| {
            let mut layers: Vec<(String, f64)> = Vec::new();
            for (id, span) in tracer.spans().iter().enumerate() {
                if span.layer() == "lbbench" {
                    continue;
                }
                match layers.iter_mut().find(|(l, _)| l == span.layer()) {
                    Some((_, total)) => *total += tracer.self_time(id),
                    None => layers.push((span.layer().to_owned(), tracer.self_time(id))),
                }
            }
            let self_s = layers.into_iter().fold(Json::obj(), |o, (l, s)| o.field(&l, s));
            o.field(w.name(), Json::obj().field("self_s", self_s).field("spans", tracer.to_json()))
        });
        let variants = self
            .variants
            .iter()
            .map(|v| {
                Json::obj()
                    .field("workload", v.workload.name())
                    .field("engine", v.engine.name())
                    .field("status", v.status)
                    .field("digest", v.digest.map(digest::hex))
                    .field("seconds", v.seconds.clone())
            })
            .collect();
        let not_measured = self
            .not_measured
            .iter()
            .map(|(name, why)| Json::obj().field("name", *name).field("reason", why.as_str()))
            .collect();
        Json::obj()
            .field("seed", self.seed)
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("metrics", metrics)
            .field("variants", Json::Arr(variants))
            .field("not_measured", Json::Arr(not_measured))
            .field("workloads", workloads)
    }
}

struct Sweep {
    report: SweepReport,
    /// The seed every probe's own inputs derive from.
    probe_seed: u64,
}

/// Runs the traced sweep at `seed`, starting with workload `first`.
pub fn run(seed: u64, first: Workload) -> Result<SweepReport, String> {
    let wait0 = probe::runqueue_wait_ns();
    let start = Instant::now();
    let mut sw = Sweep {
        report: SweepReport {
            seed,
            metrics: Vec::new(),
            traces: Vec::new(),
            variants: Vec::new(),
            not_measured: not_measured(),
            attempted: 0,
            failed: 0,
        },
        probe_seed: DEFAULT_SEED ^ seed_offset(seed),
    };
    let order = std::iter::once(first).chain(Workload::ALL.into_iter().filter(|&w| w != first));
    for w in order {
        sw.workload(w)?;
    }
    sw.layer_probes()?;
    let waited = match (wait0, probe::runqueue_wait_ns()) {
        (Some(a), Some(b)) => b.saturating_sub(a) as f64 * 1e-9,
        _ => 0.0,
    };
    sw.metric("host.runqueue_wait_frac", waited / start.elapsed().as_secs_f64());

    // Report in the documented order, and count a metric this run could
    // not produce (an exact-by-design variant that was not exact) as a
    // failure.
    let mut report = sw.report;
    let mut ordered = Vec::new();
    for (name, unit) in metric_names() {
        match report.metrics.iter().find(|(n, _, _)| *n == name) {
            Some(&(_, value, _)) => ordered.push((name, value, unit)),
            None => {
                eprintln!("trace: metric {name} was not produced");
                report.failed += 1;
            }
        }
    }
    report.metrics = ordered;
    Ok(report)
}

/// The ladder rungs and counters the benchmark cannot reach through
/// public functions, and the parallel speedup this single-threaded
/// benchmark does not claim.
fn not_measured() -> Vec<(&'static str, String)> {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        (
            "socsim.ladder.lowering_off",
            "Fleet::build always lowers arbitration into SoA kernels; no public switch turns \
             lowering off"
                .to_owned(),
        ),
        (
            "socsim.ladder.fused_loop_off",
            "Fleet::run picks the fused multi-tenure loop internally; no public switch turns \
             it off"
                .to_owned(),
        ),
        (
            "socsim.move_counters",
            "socsim exposes no counts of stepped, idle-skipped, tenure-batched, fused or \
             wheel-batched cycles"
                .to_owned(),
        ),
        (
            "socsim.batch_refusal_counters",
            "socsim exposes no counts of why a tenure batch was refused".to_owned(),
        ),
        (
            "host.parallel_speedup",
            format!(
                "every workload runs with jobs = 1 on a host with available_parallelism = \
                 {cpus}; no parallel speedup is claimed"
            ),
        ),
        (
            "paper-suite.fleet",
            "the suite has no fleet switch: under the cycle kernel its sweeps already run as \
             fleet packs, so the cycle pass is the fleet path"
                .to_owned(),
        ),
        (
            "design-search.fleet",
            "search confirms its short-list as one fleet under the cycle kernel, so the cycle \
             pass is the fleet path"
                .to_owned(),
        ),
    ]
}

impl Sweep {
    fn metric(&mut self, name: &str, value: f64) {
        self.report.metrics.push((name.to_owned(), value, ""));
    }

    /// Counts one check; returns whether it held.
    fn tally(&mut self, ok: bool) -> bool {
        self.report.attempted += 1;
        self.report.failed += u64::from(!ok);
        ok
    }

    /// Times `f`, checks its digest against `reference`, and returns the
    /// time when it matched.
    fn attempt(
        &mut self,
        label: &str,
        reference: &mut Option<u64>,
        f: impl FnOnce() -> Result<u64, String>,
    ) -> Option<f64> {
        let start = Instant::now();
        let outcome = f();
        let took = start.elapsed().as_secs_f64();
        self.tally(check(&outcome, reference, label)).then_some(took)
    }

    fn workload(&mut self, w: Workload) -> Result<(), String> {
        let (sampler, inputs) = SetupSampler::new(w, self.report.seed)?;
        let engine = w.default_engine();
        let mut reference =
            if self.report.seed == DEFAULT_SEED { workloads::golden(w) } else { None };
        let reps = match w {
            Workload::ScenarioLibrary | Workload::DmaSweep => PROBE_REPEATS,
            Workload::PaperSuite | Workload::DesignSearch => 1,
        };

        let mut tracer = Tracer::on();
        let (mut untraced, mut traced, mut roots) = (Vec::new(), Vec::new(), Vec::new());
        let mut search_results = None;
        for rep in 0..reps {
            let label = w.name();
            let mut off = Tracer::off();
            if let Some(t) =
                self.attempt(label, &mut reference, || guarded_pass(&inputs, engine, &mut off))
            {
                untraced.push(t);
            }
            tracer.set_pass(rep as u32);
            let root = tracer.enter(&format!("lbbench::{label}"));
            let took = match &inputs {
                // The traced search pass keeps its outputs for the
                // confirmation ratio.
                Inputs::Search(paths) => self.attempt(label, &mut reference, || {
                    guarded(|| {
                        let results = search_calls(paths, &[], &mut tracer);
                        let d = search_digest(&results);
                        search_results = Some(results);
                        d
                    })
                }),
                _ => self
                    .attempt(label, &mut reference, || guarded_pass(&inputs, engine, &mut tracer)),
            };
            tracer.exit(root);
            if let Some(t) = took {
                traced.push(t);
                roots.push(root);
            }
        }
        let pass_s = median(&untraced);
        self.metric(&format!("trace.overhead_frac.{}", w.name()), median(&traced) / pass_s - 1.0);
        let coverage: Vec<f64> = roots.iter().map(|&r| tracer.coverage(r)).collect();
        self.metric(&format!("trace.coverage_frac.{}", w.name()), median(&coverage));

        let variants = self.variants(w, &inputs, reference);
        let variant_s = |e: Engine| {
            variants
                .iter()
                .find(|v| v.engine == e && v.status == "timed")
                .map(|v| median(&v.seconds))
        };
        let fast = variant_s(Engine::Kernel(Kernel::Fast));

        match &inputs {
            Inputs::Library(lib) => {
                let rounds: Vec<f64> =
                    (0..SETUP_ROUNDS).map(|_| sampler.round()).collect::<Result<_, _>>()?;
                self.metric("scenario.parse_s", median(&rounds));
                self.metric("socsim.plan.cycle_s", pass_s);
                if let Some(t) = fast {
                    self.metric("socsim.plan.fast_s", t);
                }
                if let Some(t) = variant_s(Engine::Fleet) {
                    self.metric("socsim.plan.fleet_s", t);
                }
                self.scenario_runs(lib, pass_s, &mut tracer, reps as u32)?;
            }
            Inputs::Suite { .. } => {
                self.metric("socsim.suite.cycle_s", pass_s);
                if let Some(t) = fast {
                    self.metric("socsim.suite.fast_s", t);
                }
                for label in SUITE_EXPERIMENTS {
                    let name = format!("experiments::{label}");
                    let times: Vec<f64> = tracer
                        .spans()
                        .iter()
                        .filter(|s| s.name == name)
                        .map(|s| s.duration())
                        .collect();
                    self.metric(&format!("experiments.{label}_s"), median(&times));
                }
            }
            Inputs::Search(paths) => {
                let scan_s = self.scan(paths, &mut tracer, reps as u32)?;
                self.metric("lotterybus-cli.confirm_s", pass_s - scan_s);
                let (mut confirmed, mut simulated) = (0.0, 0.0);
                for (out, _) in search_results.iter().flatten().flatten() {
                    let doc = crate::json::parse(out)?;
                    let count = |k| crate::json::get(&doc, k).and_then(crate::json::as_f64);
                    confirmed += count("confirmed").unwrap_or(0.0);
                    simulated += count("simulated").unwrap_or(0.0);
                }
                self.metric("lotterybus-cli.confirmed_frac", confirmed / simulated);
            }
            Inputs::Dma(_) => {}
        }
        self.report.variants.extend(variants);
        self.report.traces.push((w, tracer));
        Ok(())
    }

    /// Runs `inputs` under every engine but the default. Exact variants
    /// are timed (five times on the library, whose pass is short).
    fn variants(&mut self, w: Workload, inputs: &Inputs, reference: Option<u64>) -> Vec<Variant> {
        let reps = if w == Workload::ScenarioLibrary { PROBE_REPEATS } else { 1 };
        let mut out = Vec::new();
        for engine in w.engines().into_iter().filter(|&e| e != w.default_engine()) {
            let mut seconds = Vec::new();
            let mut digest = None;
            let mut status = "timed";
            for _ in 0..reps {
                let start = Instant::now();
                let outcome = guarded_pass(inputs, engine, &mut Tracer::off());
                let took = start.elapsed().as_secs_f64();
                match outcome {
                    Ok(d) => {
                        digest = Some(d);
                        if Some(d) != reference {
                            status = "inexact";
                            break;
                        }
                        seconds.push(took);
                    }
                    Err(msg) => {
                        eprintln!("{} under {}: {msg}", w.name(), engine.name());
                        status = "failed";
                        break;
                    }
                }
            }
            let ok = status == "timed" || (status == "inexact" && !engine.must_be_exact());
            if !ok {
                eprintln!("{} under {}: {status}", w.name(), engine.name());
            }
            self.tally(ok);
            if status != "timed" {
                seconds.clear();
            }
            out.push(Variant { workload: w, engine, status, digest, seconds });
        }
        out
    }

    /// Times `run_scenario` on every scenario the plan ran, and derives
    /// the plan's own overhead from the library pass time.
    fn scenario_runs(
        &mut self,
        lib: &[Scenario],
        pass_s: f64,
        tracer: &mut Tracer,
        first_pass: u32,
    ) -> Result<(), String> {
        let plan = scenario::run_plan(lib, Kernel::Cycle, 1)?;
        let ran: Vec<(&Scenario, &scenario::Outcome)> = plan
            .entries
            .iter()
            .filter_map(|(name, outcome)| match outcome {
                PlanOutcome::Ran(o) => lib.iter().find(|sc| &sc.name == name).map(|sc| (sc, o)),
                PlanOutcome::Skipped { .. } => None,
            })
            .collect();
        let (mut totals, mut fault_totals) = (Vec::new(), Vec::new());
        for rep in 0..PROBE_REPEATS as u32 {
            tracer.set_pass(first_pass + rep);
            let root = tracer.enter("lbbench::scenario-runs");
            let (mut total, mut fault) = (0.0, 0.0);
            for &(sc, expected) in &ran {
                let id = tracer.enter("scenario::run_scenario");
                let outcome = guarded(|| scenario::run_scenario(sc, Kernel::Cycle));
                tracer.exit(id);
                let took = tracer.spans()[id].duration();
                let same = matches!(&outcome, Ok(Ok(o)) if o == expected);
                if !self.tally(same) {
                    eprintln!("run_scenario({}) differs from its plan outcome", sc.name);
                }
                total += took;
                if sc.has_fault_machinery() {
                    fault += took;
                }
            }
            tracer.exit(root);
            totals.push(total);
            fault_totals.push(fault);
        }
        let run_s = median(&totals);
        let cycles: u64 = ran.iter().map(|(sc, _)| sc.total_cycles()).sum();
        let eligible = lib.iter().filter(|sc| scenario::fleet_eligible(sc)).count();
        self.metric("scenario.run_s", run_s);
        self.metric("scenario.ns_per_cycle", run_s / cycles as f64 * 1e9);
        self.metric("scenario.fault_run_s", median(&fault_totals));
        self.metric("scenario.plan_s", pass_s - run_s);
        self.metric("scenario.fleet_eligible_frac", eligible as f64 / lib.len() as f64);
        Ok(())
    }

    /// The analytic scan alone: `search --confirm 0` on every scenario.
    /// Returns the summed scan time.
    fn scan(
        &mut self,
        paths: &[std::path::PathBuf],
        tracer: &mut Tracer,
        pass: u32,
    ) -> Result<f64, String> {
        tracer.set_pass(pass);
        let root = tracer.enter("lbbench::scan");
        let results = guarded(|| search_calls(paths, &["--confirm", "0"], tracer));
        tracer.exit(root);
        let results = results?;
        let times: Vec<f64> = tracer
            .spans()
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(|s| s.duration())
            .collect();
        let mut per_model = [0.0; SCAN_MODELS.len()];
        let (mut points, mut feasible) = (0.0, 0.0);
        for (result, took) in results.iter().zip(&times) {
            let parsed =
                result.as_ref().map_err(|e| e.message().to_owned()).and_then(|(out, _)| {
                    let doc = crate::json::parse(out)?;
                    let field = |k| crate::json::get(&doc, k).cloned();
                    Ok((field("protocol_model"), field("points"), field("feasible")))
                });
            let (model, p, f) = match parsed {
                Ok((Some(model), Some(p), Some(f))) => (model, p, f),
                other => {
                    eprintln!("search --confirm 0 failed: {other:?}");
                    self.tally(false);
                    continue;
                }
            };
            self.tally(true);
            let model = crate::json::as_str(&model).unwrap_or_default();
            if let Some(k) = SCAN_MODELS.iter().position(|(m, _)| *m == model) {
                per_model[k] += took;
            }
            points += crate::json::as_f64(&p).unwrap_or(0.0);
            feasible += crate::json::as_f64(&f).unwrap_or(0.0);
        }
        let scan_s: f64 = times.iter().sum();
        self.metric("analytic.scan_s", scan_s);
        for ((_, suffix), s) in SCAN_MODELS.iter().zip(per_model) {
            self.metric(&format!("analytic.scan_s.{suffix}"), s);
        }
        self.metric("analytic.points_per_s", points / scan_s);
        self.metric("analytic.feasible_frac", feasible / points);
        Ok(scan_s)
    }

    /// The single-layer microprobes.
    fn layer_probes(&mut self) -> Result<(), String> {
        let seed = self.probe_seed;
        let mut probes: Vec<Probe<'static>> = Vec::new();

        for p in HOT_PROTOCOLS {
            let mut arbiter = hot_arbiter(p, seed);
            let requests = saturated_requests(4);
            let mut cycle = 0u64;
            let name = format!("arbiters.decide_ns.{p}");
            probes.push(Probe::new(name, 1e9, move |iters| {
                let start = Instant::now();
                for _ in 0..iters {
                    cycle += 1;
                    black_box(arbiter.arbitrate(black_box(&requests), Cycle::new(cycle)));
                }
                start.elapsed()
            }));

            let pack: Vec<ArbiterKind> =
                (0..SOA_SLOTS as u64).map(|slot| hot_arbiter(p, seed.wrapping_add(slot))).collect();
            let peers: Vec<&ArbiterKind> = pack.iter().collect();
            let mut kernel = <ArbiterKind as Arbiter>::lower_group(&peers)
                .ok_or(format!("{p} does not lower into an SoA kernel"))?;
            let requests = saturated_requests(4);
            let mut cycle = 0u64;
            let name = format!("arbiters.soa_decide_ns.{p}");
            probes.push(Probe::new(name, 1e9 / SOA_SLOTS as f64, move |iters| {
                let start = Instant::now();
                for _ in 0..iters {
                    cycle += 1;
                    let now = Cycle::new(cycle);
                    for slot in 0..SOA_SLOTS {
                        black_box(kernel.arbitrate_slot(slot, black_box(&requests), now));
                    }
                }
                start.elapsed()
            }));
        }

        for (kind, spec) in poll_specs() {
            let mut source = spec.build_kind(seed);
            let mut now = 0u64;
            let name = format!("traffic-gen.poll_ns.{kind}");
            probes.push(Probe::new(name, 1e9, move |iters| {
                let start = Instant::now();
                for _ in 0..iters {
                    now += 1;
                    black_box(source.poll(Cycle::new(now)));
                }
                start.elapsed()
            }));
        }

        let saturated = saturating_specs(4);
        let per_cycle = 1e9 / STEP_CHUNK as f64;
        for (name, specs, kernel, metrics, profiling) in [
            ("socsim.step_ns", &saturated, Kernel::Cycle, None, false),
            ("socsim.metrics_on_ns", &saturated, Kernel::Cycle, Some(1_000), false),
            ("socsim.profile_on_ns", &saturated, Kernel::Cycle, None, true),
            ("socsim.skip_ns", &low_utilization_specs(4), Kernel::Fast, None, false),
        ] {
            let mut system = scalar_system(specs, seed, kernel, metrics, profiling);
            probes.push(Probe::new(name, per_cycle, move |iters| time_run(&mut system, iters)));
        }

        let lanes = dma_lanes(seed_offset(self.report.seed));
        let fleet_of = |set: Vec<Lane>| {
            let mut fleet = Fleet::build(set.iter().map(lane_builder).collect())
                .expect("DMA lanes are a valid fleet");
            fleet.warm_up(WARMUP_CYCLES);
            fleet
        };
        let mut all = fleet_of(lanes.clone());
        self.metric("socsim.fleet_lowered_frac", all.lowered_lanes() as f64 / all.len() as f64);
        self.metric("socsim.fleet_kernels", all.kernel_count() as f64);
        let lane_count = all.len() as f64;
        let build_lanes = lanes.clone();
        probes.push(Probe::new("socsim.fleet_build_s", 1.0, move |iters| {
            let mut took = Duration::ZERO;
            for _ in 0..iters {
                let builders = build_lanes.iter().map(lane_builder).collect();
                let start = Instant::now();
                let fleet = Fleet::build(builders);
                took += start.elapsed();
                drop(black_box(fleet));
            }
            took
        }));
        probes.push(Probe::new(
            "socsim.fleet_ns_per_lane_cycle",
            1e9 / (FLEET_CHUNK as f64 * lane_count),
            move |iters| {
                let start = Instant::now();
                all.run(iters * FLEET_CHUNK);
                start.elapsed()
            },
        ));
        let (tdma, tenure): (Vec<Lane>, Vec<Lane>) =
            lanes.iter().partition(|lane| lane.protocol == "tdma");
        for (name, set) in
            [("socsim.fleet_tenure_lanes_s", tenure), ("socsim.fleet_tdma_lanes_s", tdma)]
        {
            let mut fleet = fleet_of(set);
            probes.push(Probe::new(name, 1.0, move |iters| {
                let start = Instant::now();
                fleet.run(iters * DMA_CYCLES);
                start.elapsed()
            }));
        }
        for (name, kernel) in [
            ("socsim.dma_scalar.cycle_ns", Kernel::Cycle),
            ("socsim.dma_scalar.fast_ns", Kernel::Fast),
        ] {
            let mut systems: Vec<_> = lanes
                .iter()
                .map(|lane| {
                    let mut system = lane_system(lane, kernel);
                    system.warm_up(WARMUP_CYCLES);
                    system
                })
                .collect();
            probes.push(Probe::new(name, per_cycle / lane_count, move |iters| {
                let start = Instant::now();
                for system in &mut systems {
                    system.run(iters * STEP_CHUNK);
                }
                start.elapsed()
            }));
        }

        run_probes(&mut probes, seed);
        let value =
            |name: &str| probes.iter().find(|p| p.name == name).expect("probe exists").value();
        // The metrics-on and profiled systems only feed the overhead
        // ratios below.
        let listed = metric_names();
        for p in &probes {
            if listed.iter().any(|(n, _)| *n == p.name) {
                self.metric(&p.name, p.value());
            }
        }
        let step = value("socsim.step_ns");
        self.metric("socsim.metrics_overhead_frac", value("socsim.metrics_on_ns") / step - 1.0);
        self.metric("socsim.profile_overhead_frac", value("socsim.profile_on_ns") / step - 1.0);
        let fleet = value("socsim.fleet_ns_per_lane_cycle");
        self.metric("socsim.fleet_vs_fast_x", value("socsim.dma_scalar.fast_ns") / fleet);
        self.metric("socsim.fleet_vs_cycle_x", value("socsim.dma_scalar.cycle_ns") / fleet);
        Ok(())
    }
}

/// Advances `system` by `iters` chunks and returns the time taken.
fn time_run(system: &mut socsim::System<ArbiterKind, SourceKind>, iters: u64) -> Duration {
    let start = Instant::now();
    system.run(iters * STEP_CHUNK);
    start.elapsed()
}

/// Every master pending with a deep backlog: the worst case for a
/// decision.
fn saturated_requests(masters: usize) -> RequestMap {
    let mut map = RequestMap::new(masters);
    for i in 0..masters {
        map.set_pending(MasterId::new(i), 64);
    }
    map
}

/// A four-master system as the experiments build one, behind the static
/// lottery of the comparison lineup, warmed up.
fn scalar_system(
    specs: &[GeneratorSpec],
    seed: u64,
    kernel: Kernel,
    metrics_window: Option<u64>,
    profiling: bool,
) -> socsim::System<ArbiterKind, SourceKind> {
    let mut builder = SystemBuilder::new(BusConfig::default()).kernel(kernel).profiling(profiling);
    for (i, spec) in specs.iter().enumerate() {
        builder = builder.master(
            format!("C{}", i + 1),
            spec.build_kind(seed.wrapping_add(i as u64 * 0x9E37_79B9)),
        );
    }
    if let Some(window) = metrics_window {
        builder = builder.metrics_window(window);
    }
    let mut system =
        builder.arbiter(protocol_arbiter(4, seed)).build().expect("probe system is valid");
    system.warm_up(WARMUP_CYCLES);
    system
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let names = metric_names();
        for (i, (name, unit)) in names.iter().enumerate() {
            assert!(name.len() <= 64 && !unit.is_empty(), "{name}");
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
            assert!(names[i + 1..].iter().all(|(n, _)| n != name), "{name} repeats");
        }
        assert_eq!(names.len(), 72);
    }
}
