//! `lbbench compare`: per-(workload, metric) verdicts between two run
//! sets, against the regression bounds fixed in `BENCHMARK.json`.

use crate::json::{as_arr, as_f64, as_obj, as_str, get};
use crate::stats::Summary;
use experiments::json::Json;
use std::fmt::Write as _;

/// One end-to-end metric's regression bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether smaller values are better.
    pub lower_is_better: bool,
    /// Share of the base median by which the metric may worsen.
    pub bound: f64,
}

/// Reads the `end_to_end` bounds of a `BENCHMARK.json` document.
pub fn bounds(benchmark: &Json) -> Result<Vec<Bound>, String> {
    let metrics = get(benchmark, "end_to_end").and_then(as_arr).ok_or("no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let text = |k| get(m, k).and_then(as_str).map(str::to_owned);
            Ok(Bound {
                name: text("name").ok_or("end_to_end entry without a name")?,
                unit: text("unit").unwrap_or_default(),
                lower_is_better: text("better").as_deref() != Some("higher"),
                bound: get(m, "bound")
                    .and_then(as_f64)
                    .ok_or("end_to_end entry without a bound")?,
            })
        })
        .collect()
}

/// A comparison outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved beyond the bound, or every new run beats every base run.
    Better,
    /// Within the bound.
    Unchanged,
    /// Worse by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    /// Lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict for one metric: unresolved when either side's IQR, as a
/// share of its median, is wider than `bound` — unless every new run
/// reads better than every base run — otherwise worse or better when the
/// medians differ by more than `bound`.
pub fn verdict(base: &Summary, new: &Summary, bound: f64, lower_is_better: bool) -> Verdict {
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (new.median - base.median) / base.median.abs();
    let separated = if lower_is_better { new.max < base.min } else { new.min > base.max };
    if base.iqr_share().max(new.iqr_share()) > bound {
        if separated {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// One row of the comparison table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Unit.
    pub unit: String,
    /// Base side.
    pub base: Summary,
    /// New side.
    pub new: Summary,
    /// The metric's bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
    /// With `--pairs`: pairs the new side won, out of all pairs.
    pub pairs: Option<(usize, usize)>,
}

/// The workload names of a run file, in file order.
fn workload_names(run: &Json) -> Vec<String> {
    get(run, "workloads")
        .and_then(as_obj)
        .map_or(Vec::new(), |ws| ws.iter().map(|(name, _)| name.clone()).collect())
}

/// The child processes of `workload` in a run file.
fn children<'a>(run: &'a Json, workload: &str) -> &'a [Json] {
    get(run, "workloads")
        .and_then(|ws| get(ws, workload))
        .and_then(|w| get(w, "children"))
        .and_then(as_arr)
        .unwrap_or_default()
}

/// The value of `metric` in each child of `workload` in a run file.
fn child_values(run: &Json, workload: &str, metric: &str) -> Vec<f64> {
    children(run, workload)
        .iter()
        .filter_map(|c| get(c, "metrics").and_then(|m| get(m, metric)).and_then(as_f64))
        .collect()
}

/// The share of `workload`'s passes that failed, over all children.
fn failed_frac(run: &Json, workload: &str) -> f64 {
    let total = |key| {
        children(run, workload).iter().filter_map(|c| get(c, key).and_then(as_f64)).sum::<f64>()
    };
    let attempted = total("attempted");
    if attempted > 0.0 {
        total("failed") / attempted
    } else {
        1.0
    }
}

/// Compares two run files, one row per (workload, bounded metric), plus
/// a `failed_frac` row per workload whose bound is any increase.
pub fn compare(base: &Json, new: &Json, bounds: &[Bound]) -> Vec<Row> {
    let mut rows = Vec::new();
    for w in workload_names(base) {
        for b in bounds {
            let (Some(bs), Some(ns)) = (
                Summary::of(&child_values(base, &w, &b.name)),
                Summary::of(&child_values(new, &w, &b.name)),
            ) else {
                continue;
            };
            rows.push(Row {
                workload: w.clone(),
                metric: b.name.clone(),
                unit: b.unit.clone(),
                base: bs,
                new: ns,
                bound: b.bound,
                verdict: verdict(&bs, &ns, b.bound, b.lower_is_better),
                pairs: None,
            });
        }
        rows.push(failed_row(&w, &[failed_frac(base, &w)], &[failed_frac(new, &w)]));
    }
    rows
}

fn failed_row(workload: &str, base: &[f64], new: &[f64]) -> Row {
    let (b, n) = (base.iter().sum::<f64>(), new.iter().sum::<f64>());
    let verdict = if n > b {
        Verdict::Worse
    } else if n < b {
        Verdict::Better
    } else {
        Verdict::Unchanged
    };
    Row {
        workload: workload.to_owned(),
        metric: "failed_frac".to_owned(),
        unit: "ratio".to_owned(),
        base: Summary::of(base).expect("one value per side"),
        new: Summary::of(new).expect("one value per side"),
        bound: 0.0,
        verdict,
        pairs: None,
    }
}

/// Compares alternating pairs of run files (`(base, new)` per pair) by
/// the rule for claiming a gain: the new side must win at least nine
/// tenths of the pairs (ties count for neither) and the medians must
/// differ by more than the base side's own interquartile range. The
/// mirror rule marks a loss; otherwise the bound rule decides on the
/// per-pair medians.
pub fn compare_pairs(pairs: &[(Json, Json)], bounds: &[Bound]) -> Vec<Row> {
    let Some((first, _)) = pairs.first() else { return Vec::new() };
    let mut rows = Vec::new();
    for w in workload_names(first) {
        for b in bounds {
            let side = |run: &Json| Summary::of(&child_values(run, &w, &b.name)).map(|s| s.median);
            let values: Vec<(f64, f64)> =
                pairs.iter().filter_map(|(base, new)| Some((side(base)?, side(new)?))).collect();
            let base_v: Vec<f64> = values.iter().map(|v| v.0).collect();
            let new_v: Vec<f64> = values.iter().map(|v| v.1).collect();
            let (Some(bs), Some(ns)) = (Summary::of(&base_v), Summary::of(&new_v)) else {
                continue;
            };
            let sign = if b.lower_is_better { 1.0 } else { -1.0 };
            let wins = values.iter().filter(|(x, y)| sign * (y - x) < 0.0).count();
            let losses = values.iter().filter(|(x, y)| sign * (y - x) > 0.0).count();
            let gain = sign * (bs.median - ns.median);
            let spread = bs.q3 - bs.q1;
            let n = values.len();
            let verdict = if wins * 10 >= n * 9 && gain > spread {
                Verdict::Better
            } else if losses * 10 >= n * 9 && -gain > spread {
                Verdict::Worse
            } else {
                match verdict(&bs, &ns, b.bound, b.lower_is_better) {
                    // A gain is only claimed by the pairs rule.
                    Verdict::Better => Verdict::Unchanged,
                    other => other,
                }
            };
            rows.push(Row {
                workload: w.clone(),
                metric: b.name.clone(),
                unit: b.unit.clone(),
                base: bs,
                new: ns,
                bound: b.bound,
                verdict,
                pairs: Some((wins, n)),
            });
        }
        let base_f: Vec<f64> = pairs.iter().map(|(base, _)| failed_frac(base, &w)).collect();
        let new_f: Vec<f64> = pairs.iter().map(|(_, new)| failed_frac(new, &w)).collect();
        rows.push(failed_row(&w, &base_f, &new_f));
    }
    rows
}

/// The rows as an aligned text table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<17} {:<12} {:>24} {:>24} {:>7} {:>6}  verdict\n",
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "change", "bound"
    );
    for r in rows {
        let side = |s: &Summary| format!("{:.4e} [{:.3e}, {:.3e}]", s.median, s.q1, s.q3);
        let change = if r.base.median != 0.0 {
            format!("{:+.1}%", (r.new.median / r.base.median - 1.0) * 100.0)
        } else {
            "-".to_owned()
        };
        let _ = write!(
            out,
            "{:<17} {:<12} {:>24} {:>24} {:>7} {:>5.0}%  {}",
            r.workload,
            r.metric,
            side(&r.base),
            side(&r.new),
            change,
            r.bound * 100.0,
            r.verdict.label()
        );
        if let Some((won, n)) = r.pairs {
            let _ = write!(out, " ({won}/{n} pairs won)");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(values: &[f64]) -> Summary {
        Summary::of(values).expect("non-empty")
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = summary(&[1.00, 1.01, 0.99, 1.00]);
        assert_eq!(
            verdict(&base, &summary(&[1.02, 1.03, 1.01, 1.02]), 0.1, true),
            Verdict::Unchanged
        );
        assert_eq!(verdict(&base, &summary(&[1.20, 1.21, 1.19, 1.20]), 0.1, true), Verdict::Worse);
        assert_eq!(verdict(&base, &summary(&[0.80, 0.81, 0.79, 0.80]), 0.1, true), Verdict::Better);
        assert_eq!(verdict(&base, &summary(&[0.80, 0.81, 0.79, 0.80]), 0.1, false), Verdict::Worse);
        let noisy = summary(&[0.7, 1.3, 1.0, 1.4]);
        assert_eq!(verdict(&base, &noisy, 0.1, true), Verdict::Unresolved);
        let wide_but_all_better = summary(&[0.5, 0.9, 0.7, 0.95]);
        assert_eq!(verdict(&base, &wide_but_all_better, 0.1, true), Verdict::Better);
    }

    fn run_file(pass_s: &[f64], failed: u64) -> Json {
        let children: Vec<Json> = pass_s
            .iter()
            .map(|&p| {
                Json::obj()
                    .field("metrics", Json::obj().field("pass_s", p))
                    .field("attempted", 10u64)
                    .field("failed", failed)
            })
            .collect();
        Json::obj().field(
            "workloads",
            Json::obj().field("w", Json::obj().field("children", Json::Arr(children))),
        )
    }

    fn pass_bound() -> Vec<Bound> {
        let doc = crate::json::parse(
            r#"{"end_to_end": [{"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.1}]}"#,
        )
        .expect("valid");
        bounds(&doc).expect("bounds")
    }

    #[test]
    fn run_files_compare_per_metric_and_count_failures() {
        let rows = compare(
            &run_file(&[1.0, 1.0, 1.01, 0.99], 0),
            &run_file(&[1.3, 1.3, 1.31, 1.29], 1),
            &pass_bound(),
        );
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].metric.as_str(), rows[0].verdict), ("pass_s", Verdict::Worse));
        assert_eq!((rows[1].metric.as_str(), rows[1].verdict), ("failed_frac", Verdict::Worse));
        assert!(render(&rows).contains("worse"));
    }

    #[test]
    fn pairs_rule_needs_nine_in_ten_wins_and_a_gap_beyond_the_spread() {
        let pair = |b: f64, n: f64| (run_file(&[b], 0), run_file(&[n], 0));
        let all_won: Vec<_> = (0..10).map(|i| pair(1.0 + 0.001 * i as f64, 0.95)).collect();
        let rows = compare_pairs(&all_won, &pass_bound());
        assert_eq!((rows[0].verdict, rows[0].pairs), (Verdict::Better, Some((10, 10))));
        let mut mixed: Vec<_> = (0..8).map(|_| pair(1.0, 0.95)).collect();
        mixed.extend((0..2).map(|_| pair(1.0, 1.05)));
        assert_eq!(compare_pairs(&mixed, &pass_bound())[0].verdict, Verdict::Unchanged);
    }
}
