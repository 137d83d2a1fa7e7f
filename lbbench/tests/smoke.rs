//! One pass each of `scenario-library` and `dma-sweep` at the default
//! seed, through the library API, against the committed goldens; and
//! `BENCHMARK.json` against the metrics the benchmark reports.

use lbbench::tracer::Tracer;
use lbbench::workloads::{golden, pass, setup, Workload, DEFAULT_SEED};

fn golden_pass(w: Workload) {
    let inputs = setup(w, DEFAULT_SEED).expect("inputs build");
    let digest = pass(&inputs, w.default_engine(), &mut Tracer::off());
    assert_eq!(Some(digest), golden(w), "{} digest at the default seed", w.name());
}

#[test]
fn scenario_library_matches_its_golden() {
    golden_pass(Workload::ScenarioLibrary);
}

#[test]
fn dma_sweep_matches_its_golden() {
    golden_pass(Workload::DmaSweep);
}

#[test]
fn another_seed_changes_the_inputs_deterministically() {
    let w = Workload::ScenarioLibrary;
    let run = || pass(&setup(w, 7).expect("inputs build"), w.default_engine(), &mut Tracer::off());
    let first = run();
    assert_eq!(first, run(), "same seed, same digest");
    assert_ne!(Some(first), golden(w), "seed 7 reseeds the library");
}

#[test]
fn benchmark_json_lists_every_reported_metric() {
    use lbbench::json::{as_arr, as_str, get, parse};
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid");
    let names = |key| -> Vec<(String, String)> {
        as_arr(get(&doc, key).expect(key))
            .expect("a list")
            .iter()
            .map(|m| {
                let field = |k| get(m, k).and_then(as_str).expect(k).to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let per_layer: Vec<(String, String)> = lbbench::sweep::metric_names()
        .into_iter()
        .map(|(name, unit)| (name, unit.to_owned()))
        .collect();
    assert_eq!(names("per_layer"), per_layer);
    let e2e = lbbench::measure::E2E_METRICS.map(|(name, unit)| (name.to_owned(), unit.to_owned()));
    assert_eq!(names("end_to_end"), e2e);
    let workloads: Vec<String> = as_arr(get(&doc, "workloads").expect("workloads"))
        .expect("a list")
        .iter()
        .map(|w| get(w, "name").and_then(as_str).expect("name").to_owned())
        .collect();
    assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_owned()));
}
