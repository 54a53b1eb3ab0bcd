//! `mvbench --compare A.json B.json`: one verdict per (workload,
//! end-to-end metric), judged against the bounds in `BENCHMARK.json`.

use std::fmt;

use mv_prof::json::Value;

use crate::stats::Summary;
use crate::suite::{Better, Stat, END_TO_END};

/// A metric's regression bound: the share of A's value by which B's may
/// be worse, but never less than `floor` in the metric's own unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub better: Better,
    pub stat: Stat,
    pub bound: f64,
    pub floor: f64,
}

impl Bound {
    /// The change in `s`'s value this bound tolerates.
    fn tolerance(&self, s: &Summary) -> f64 {
        (self.bound * s.value(self.stat).abs()).max(self.floor)
    }
}

/// Reads the `end_to_end` bounds of a `BENCHMARK.json` document.
pub fn bounds(doc: &Value) -> Result<Vec<Bound>, String> {
    let metrics = doc
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("an end_to_end metric lacks {k}"));
            let name = field("name")?.as_str().ok_or("name is not a string")?;
            let better = match field("better")?.as_str() {
                Some("higher") => Better::Higher,
                Some("lower") => Better::Lower,
                _ => return Err(format!("{name}: better is neither higher nor lower")),
            };
            let bound = field("bound")?
                .as_f64()
                .ok_or(format!("{name}: bound is not a number"))?;
            let e = END_TO_END
                .iter()
                .find(|e| e.name == name)
                .ok_or(format!("{name}: mvbench does not report this metric"))?;
            Ok(Bound {
                name: name.to_string(),
                better,
                stat: e.stat,
                bound,
                floor: e.floor,
            })
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Judges B's value against A's. A spread wider than the tolerance on
/// either side leaves the metric unresolved, unless every run of B beats
/// every run of A.
///
/// The spread is the interquartile range of the repeats over the square
/// root of their number: near the standard error of their median, so a
/// value from 20 repeats is not held to the scatter of single ones. A
/// burst of interference that slows a third of a run's repeats widens the
/// range without moving what the run reports.
pub fn verdict(a: &Summary, b: &Summary, m: &Bound) -> Verdict {
    let (va, vb) = (a.value(m.stat), b.value(m.stat));
    let gain = match m.better {
        Better::Higher => vb - va,
        Better::Lower => va - vb,
    };
    let fold = |runs: &[f64], f: fn(f64, f64) -> f64| runs.iter().copied().reduce(f);
    let b_beats_all = match m.better {
        Better::Higher => fold(&b.runs, f64::min) > fold(&a.runs, f64::max),
        Better::Lower => fold(&b.runs, f64::max) < fold(&a.runs, f64::min),
    };
    let noisy = |s: &Summary| (s.q3 - s.q1) / (s.runs.len() as f64).sqrt() > m.tolerance(s);
    let tolerance = m.tolerance(a);
    if noisy(a) || noisy(b) || tolerance == 0.0 {
        if b_beats_all {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if gain < -tolerance {
        Verdict::Worse
    } else if gain > tolerance {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// One compared (workload, metric) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub verdict: Verdict,
    pub a: f64,
    pub b: f64,
    pub bound: f64,
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let change = if self.a == 0.0 {
            0.0
        } else {
            100.0 * (self.b - self.a) / self.a
        };
        write!(
            f,
            "{} {} {} (A {} B {} change {change:+.2}% bound {:.2}%)",
            self.workload,
            self.metric,
            self.verdict,
            self.a,
            self.b,
            100.0 * self.bound
        )
    }
}

/// The repeats of `metric` in a run file's `workload` record.
fn summary(record: &Value, metric: &str, better: Better) -> Option<Summary> {
    let runs: Option<Vec<f64>> = record
        .get("end_to_end")?
        .get(metric)?
        .get("runs")?
        .as_arr()?
        .iter()
        .map(Value::as_f64)
        .collect();
    runs.filter(|r| !r.is_empty())
        .map(|r| Summary::of(&r, better))
}

fn records(doc: &Value) -> Result<&[Value], String> {
    doc.get("workloads")
        .and_then(Value::as_arr)
        .ok_or_else(|| "run file has no workloads list".to_string())
}

/// Compares two run files (as written by `mvbench --all`) workload by
/// workload. A pair missing from either file is unresolved.
pub fn compare(a: &Value, b: &Value, bounds: &[Bound]) -> Result<Vec<Row>, String> {
    let name = |r: &Value| {
        r.get("workload")
            .and_then(Value::as_str)
            .map(str::to_string)
    };
    let b_records = records(b)?;
    let mut rows = Vec::new();
    for ra in records(a)? {
        let workload = name(ra).ok_or("a workload record has no name")?;
        let rb = b_records
            .iter()
            .find(|r| name(r).as_deref() == Some(workload.as_str()));
        for m in bounds {
            let sa = summary(ra, &m.name, m.better);
            let sb = rb.and_then(|rb| summary(rb, &m.name, m.better));
            let (verdict, a, b) = match (&sa, &sb) {
                (Some(sa), Some(sb)) => (verdict(sa, sb, m), sa.value(m.stat), sb.value(m.stat)),
                _ => (
                    Verdict::Unresolved,
                    sa.map_or(0.0, |s| s.value(m.stat)),
                    0.0,
                ),
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name.clone(),
                verdict,
                a,
                b,
                bound: m.bound,
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_prof::json::parse;

    fn s(runs: &[f64], better: Better) -> Summary {
        Summary::of(runs, better)
    }

    fn bound(better: Better, bound: f64, floor: f64) -> Bound {
        Bound {
            name: "m".to_string(),
            better,
            stat: Stat::Median,
            bound,
            floor,
        }
    }

    #[test]
    fn verdicts_follow_bound_and_direction() {
        let m = bound(Better::Higher, 0.08, 0.0);
        let a = s(&[100.0, 101.0, 99.0, 100.5, 99.5], Better::Higher);
        let same = s(&[98.0, 99.0, 97.5, 98.5, 98.2], Better::Higher);
        let slower = s(&[85.0, 86.0, 84.0, 85.5, 84.5], Better::Higher);
        let faster = s(&[120.0, 121.0, 119.0, 120.5, 119.5], Better::Higher);
        assert_eq!(verdict(&a, &same, &m), Verdict::Same);
        assert_eq!(verdict(&a, &slower, &m), Verdict::Worse);
        assert_eq!(verdict(&a, &faster, &m), Verdict::Better);
        // For a lower-is-better metric the same numbers flip.
        let m = bound(Better::Lower, 0.08, 0.0);
        let a = s(&[100.0, 101.0, 99.0, 100.5, 99.5], Better::Lower);
        let more = s(&[120.0, 121.0, 119.0, 120.5, 119.5], Better::Lower);
        assert_eq!(verdict(&a, &more, &m), Verdict::Worse);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_b_wins_every_run() {
        let m = bound(Better::Higher, 0.08, 0.0);
        let a = s(&[80.0, 100.0, 120.0, 90.0, 110.0], Better::Higher);
        let noisy = s(&[70.0, 95.0, 125.0, 85.0, 105.0], Better::Higher);
        assert_eq!(verdict(&a, &noisy, &m), Verdict::Unresolved);
        let clear = s(&[130.0, 150.0, 170.0, 140.0, 160.0], Better::Higher);
        assert_eq!(verdict(&a, &clear, &m), Verdict::Better);
        // A burst that slows a third of 15 repeats leaves the run resolved.
        let m = Bound {
            stat: Stat::Best,
            ..bound(Better::Higher, 0.25, 0.0)
        };
        let burst: Vec<f64> = (0..15)
            .map(|i| {
                if i < 5 {
                    65.0
                } else {
                    100.0 + f64::from(i) / 10.0
                }
            })
            .collect();
        let burst = s(&burst, Better::Higher);
        assert!(burst.q3 - burst.q1 > 0.25 * burst.best);
        assert_eq!(verdict(&burst, &burst, &m), Verdict::Same);
    }

    #[test]
    fn floor_absorbs_changes_too_small_to_count() {
        // Microsecond builds: doubled, but far under 2 ms.
        let a = s(&[2.4e-6, 2.5e-6, 4.0e-6, 2.4e-6, 2.6e-6], Better::Lower);
        let b = s(&[5.0e-6, 4.8e-6, 9.0e-6, 5.1e-6, 4.9e-6], Better::Lower);
        assert_eq!(
            verdict(&a, &b, &bound(Better::Lower, 0.25, 0.0)),
            Verdict::Worse
        );
        let m = bound(Better::Lower, 0.25, 0.002);
        assert_eq!(verdict(&a, &b, &m), Verdict::Same);
        // Above the floor the relative bound rules again.
        let a = s(&[0.100, 0.101, 0.099], Better::Lower);
        let b = s(&[0.140, 0.141, 0.139], Better::Lower);
        assert_eq!(verdict(&a, &b, &m), Verdict::Worse);
    }

    fn record(workload: &str, rate: &[f64], setup: &[f64]) -> String {
        let list = |v: &[f64]| v.iter().map(f64::to_string).collect::<Vec<_>>().join(",");
        format!(
            "{{\"workload\":\"{workload}\",\"end_to_end\":{{\
             \"accesses_per_s\":{{\"runs\":[{}]}},\"setup_s\":{{\"runs\":[{}]}}}}}}",
            list(rate),
            list(setup)
        )
    }

    #[test]
    fn run_files_compare_pair_by_pair() {
        let bench = parse(
            r#"{"end_to_end":[
                {"name":"accesses_per_s","unit":"acc/s","better":"higher","bound":0.08},
                {"name":"setup_s","unit":"s","better":"lower","bound":0.25}]}"#,
        )
        .expect("bounds parse");
        let bounds = bounds(&bench).expect("bounds");
        let a = format!(
            "{{\"workloads\":[{},{}]}}",
            record("walk2d", &[4.0e6, 4.1e6, 4.05e6], &[0.010, 0.011, 0.010]),
            record("walk3d", &[2.0e6, 2.0e6, 2.0e6], &[0.12, 0.12, 0.12])
        );
        let b = format!(
            "{{\"workloads\":[{}]}}",
            record("walk2d", &[3.0e6, 3.1e6, 3.05e6], &[0.010, 0.010, 0.011])
        );
        let rows = compare(&parse(&a).expect("A"), &parse(&b).expect("B"), &bounds).expect("rows");
        let got: Vec<(&str, &str, Verdict)> = rows
            .iter()
            .map(|r| (r.workload.as_str(), r.metric.as_str(), r.verdict))
            .collect();
        assert_eq!(
            got,
            [
                ("walk2d", "accesses_per_s", Verdict::Worse),
                ("walk2d", "setup_s", Verdict::Same),
                ("walk3d", "accesses_per_s", Verdict::Unresolved),
                ("walk3d", "setup_s", Verdict::Unresolved),
            ]
        );
        assert!(rows[0]
            .to_string()
            .starts_with("walk2d accesses_per_s worse"));
    }

    #[test]
    fn malformed_bounds_are_rejected() {
        for bad in [
            r#"{"end_to_end":[{"name":"setup_s","better":"up","bound":0.1}]}"#,
            r#"{"end_to_end":[{"name":"setup_s","better":"lower"}]}"#,
            r#"{"end_to_end":[{"name":"x","better":"lower","bound":0.1}]}"#,
        ] {
            assert!(bounds(&parse(bad).expect("json")).is_err(), "{bad}");
        }
        assert!(bounds(&parse("{}").expect("json")).is_err());
    }
}
