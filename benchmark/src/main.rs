//! mvbench: the simulator's end-to-end benchmark.
//!
//! ```text
//! mvbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out PREFIX]
//! mvbench --all [--smoke] [--seed N] [--seconds S] [--out FILE]
//! mvbench --compare A.json B.json
//! ```
//!
//! `--workload` measures one workload in this process and prints every
//! metric as `workload metric value unit (median q1 q3 worst n)`, then one
//! JSON line: `correct`, `attempted`, `failed`, and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics of the traced run (`--trace 1`).
//! It writes the full record to `PREFIX.json` and, when traced, the spans
//! and ledger to `PREFIX.trace.jsonl` (default prefix
//! `benchmark/out/<workload>`).
//!
//! `--all` runs every workload traced, one child process each, and merges
//! their records into one run file (default `benchmark/out/run.json`).
//! `--compare` judges run file B against run file A. Any failed run, and
//! any `worse` verdict, exits 1.

mod compare;
mod json;
mod measure;
mod spans;
mod stats;
mod suite;
mod traced;

use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode};

use measure::{Plan, Report};
use suite::{END_TO_END, PER_LAYER, WORKLOADS};

const USAGE: &str = "usage: mvbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
                     [--smoke] [--out PREFIX]\n       mvbench --all [--smoke] [--seed N] \
                     [--seconds S] [--out FILE]\n       mvbench --compare A.json B.json";

/// Parsed command line.
#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    all: bool,
    compare: Option<(String, String)>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: bool,
    smoke: bool,
    out: Option<String>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--all" => a.all = true,
            "--compare" => a.compare = Some((value()?, value()?)),
            "--seed" => a.seed = Some(number(value()?)?),
            "--seconds" => a.seconds = Some(number(value()?)?),
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let modes = [a.workload.is_some(), a.all, a.compare.is_some()];
    if modes.iter().filter(|&&m| m).count() != 1 {
        return Err("choose exactly one of --workload, --all and --compare".to_string());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mvbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if let Some((a, b)) = &args.compare {
        compare_files(a, b)
    } else if args.all {
        run_all(&args)
    } else {
        run_one(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("mvbench: {e}");
            ExitCode::from(2)
        }
    }
}

const DEFAULT_SEED: u64 = 42;
const DEFAULT_SECONDS: u64 = 10;

fn plan(args: &Args) -> Plan {
    if args.smoke {
        Plan {
            seconds: 0.0,
            min_repeats: 2,
            setup_slice_s: 0.0,
            trace: args.trace,
            sample_bound: false,
        }
    } else {
        Plan {
            seconds: args.seconds.unwrap_or(DEFAULT_SECONDS) as f64,
            min_repeats: 5,
            setup_slice_s: 0.05,
            trace: args.trace,
            sample_bound: true,
        }
    }
}

/// Measures one workload; true when every run passed its checks.
fn run_one(args: &Args) -> Result<bool, String> {
    let name = args.workload.as_deref().unwrap_or_default();
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let w = suite::workload(name, seed, args.smoke)
        .ok_or_else(|| format!("unknown workload {name} (one of {})", WORKLOADS.join(", ")))?;
    let rep = measure::run(&w, &plan(args));
    let prefix = args
        .out
        .clone()
        .unwrap_or_else(|| format!("benchmark/out/{name}"));
    write(&format!("{prefix}.json"), &record(&rep, args.smoke))?;
    if let Some(trace) = &rep.trace_jsonl {
        let mut text = trace.clone();
        text.push_str(&ledger_jsonl(&rep));
        write(&format!("{prefix}.trace.jsonl"), &text)?;
    }
    print!("{}", human(&rep));
    for f in &rep.failures {
        eprintln!("mvbench: {} failed: {f}", rep.workload);
    }
    println!("{}", result_line(&rep, args.trace));
    Ok(rep.failures.is_empty())
}

/// Writes `text` to `path`, creating its directory if needed.
fn write(path: &str, text: &str) -> Result<(), String> {
    if let Some(dir) = Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))
}

/// Every metric as `workload metric value unit (median q1 q3 worst n)`.
fn human(rep: &Report) -> String {
    let mut out = String::new();
    for (m, s) in END_TO_END.iter().zip(&rep.end_to_end) {
        let _ = writeln!(
            out,
            "{} {} {} {} (median {} q1 {} q3 {} worst {} n {})",
            rep.workload,
            m.name,
            s.value(m.stat),
            m.unit,
            s.median,
            s.q1,
            s.q3,
            s.worst,
            s.runs.len()
        );
    }
    for ((name, unit), v) in PER_LAYER.iter().zip(&rep.per_layer) {
        let _ = writeln!(
            out,
            "{} {name} {v} {unit} (median {v} q1 {v} q3 {v} worst {v} n 1)",
            rep.workload
        );
    }
    out
}

/// The last line of a `--workload` run.
fn result_line(rep: &Report, trace: bool) -> String {
    let metrics: Vec<String> = if trace {
        PER_LAYER
            .iter()
            .zip(&rep.per_layer)
            .map(|((n, u), v)| metric_json(n, *v, u))
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(&rep.end_to_end)
            .map(|(m, s)| metric_json(m.name, s.value(m.stat), m.unit))
            .collect()
    };
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        rep.failures.is_empty(),
        rep.attempted,
        rep.failed(),
        metrics.join(",")
    )
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!(
        "{}:{{\"value\":{},\"unit\":{}}}",
        json::string(name),
        json::num(value),
        json::string(unit)
    )
}

/// The full record of one workload run, as `--all` merges and
/// `--compare` reads it.
fn record(rep: &Report, smoke: bool) -> String {
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| json::num(*x))
            .collect::<Vec<_>>()
            .join(",")
    };
    let strings = |v: &[String]| {
        v.iter()
            .map(|s| json::string(s))
            .collect::<Vec<_>>()
            .join(",")
    };
    let e2e: Vec<String> = END_TO_END
        .iter()
        .zip(&rep.end_to_end)
        .map(|(m, s)| {
            format!(
                "{}:{{\"unit\":{},\"better\":\"{}\",\"value\":{},\"median\":{},\"q1\":{},\
                 \"q3\":{},\"best\":{},\"worst\":{},\"n\":{},\"runs\":[{}]}}",
                json::string(m.name),
                json::string(m.unit),
                m.better.label(),
                json::num(s.value(m.stat)),
                json::num(s.median),
                json::num(s.q1),
                json::num(s.q3),
                json::num(s.best),
                json::num(s.worst),
                s.runs.len(),
                list(&s.runs)
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .zip(&rep.per_layer)
        .map(|((n, u), v)| metric_json(n, *v, u))
        .collect();
    let ledger = rep.ledger.as_ref().map_or("null".to_string(), |l| {
        format!(
            "{{\"traced_wall_s\":{},\"untraced_wall_s\":{},\"predicted_s\":{},\"residual_pct\":{}}}",
            json::num(l.traced_wall_s),
            json::num(l.untraced_wall_s),
            json::num(l.predicted_s()),
            json::num(l.residual_pct())
        )
    });
    format!(
        "{{\"workload\":{},\"seed\":{},\"smoke\":{smoke},\"jobs\":{},\"cells\":[{}],\
         \"attempted\":{},\"failed\":{},\"failures\":[{}],\"digest\":{},\
         \"end_to_end\":{{{}}},\"per_layer\":{{{}}},\"ledger\":{ledger}}}",
        json::string(rep.workload),
        rep.seed,
        rep.jobs,
        strings(&rep.cells),
        rep.attempted,
        rep.failed(),
        strings(&rep.failures),
        json::string(&rep.digest),
        e2e.join(","),
        layers.join(",")
    )
}

/// The ledger as trace-file lines: one per term, then the totals. A term's
/// share is of the untraced wall, so the shares add up to 100 less the
/// residual.
fn ledger_jsonl(rep: &Report) -> String {
    let Some(l) = &rep.ledger else {
        return String::new();
    };
    let mut out = String::new();
    for t in &l.terms {
        let _ = writeln!(
            out,
            "{{\"type\":\"ledger_term\",\"name\":{},\"count\":{},\"ns_per_op\":{},\"share_pct\":{}}}",
            json::string(t.name),
            t.count,
            json::num(t.ns_per_op),
            json::num(100.0 * t.count as f64 * t.ns_per_op / 1e9 / l.untraced_wall_s)
        );
    }
    let _ = writeln!(
        out,
        "{{\"type\":\"ledger\",\"traced_wall_s\":{},\"untraced_wall_s\":{},\"predicted_s\":{},\
         \"residual_pct\":{}}}",
        json::num(l.traced_wall_s),
        json::num(l.untraced_wall_s),
        json::num(l.predicted_s()),
        json::num(l.residual_pct())
    );
    out
}

/// Runs every workload traced, one child process each, and merges the
/// records into one run file.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating mvbench: {e}"))?;
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| "benchmark/out/run.json".to_string());
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let loadavg = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let mut records = Vec::new();
    let (mut attempted, mut failed, mut ok) = (0u64, 0u64, true);
    for name in WORKLOADS {
        let prefix = format!("benchmark/out/{name}");
        let path = format!("{prefix}.json");
        // A child that dies before writing must not leave an older record
        // to be merged in its place.
        let _ = std::fs::remove_file(&path);
        let mut cmd = Command::new(&exe);
        cmd.args([
            "--workload",
            name,
            "--seed",
            &seed.to_string(),
            "--trace",
            "1",
        ]);
        cmd.args(["--out", &prefix]);
        if let Some(s) = args.seconds {
            cmd.args(["--seconds", &s.to_string()]);
        }
        if args.smoke {
            cmd.arg("--smoke");
        }
        let status = cmd.status().map_err(|e| format!("running {name}: {e}"))?;
        ok &= status.success();
        let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
        let doc = mv_prof::json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        attempted += doc.get("attempted").and_then(|v| v.as_u64()).unwrap_or(0);
        failed += doc.get("failed").and_then(|v| v.as_u64()).unwrap_or(1);
        records.push(text);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let merged = format!(
        "{{\"bench\":\"mvbench\",\"rev\":{},\"nproc\":{nproc},\"loadavg_start\":{},\"seed\":{seed},\
         \"smoke\":{},\"seconds\":{},\"attempted\":{attempted},\"failed\":{failed},\
         \"workloads\":[\n{}\n]}}\n",
        json::string(&git_rev()),
        json::string(loadavg.trim()),
        args.smoke,
        args.seconds.unwrap_or(DEFAULT_SECONDS),
        records.join(",\n")
    );
    write(&out, &merged)?;
    println!("mvbench: wrote {out}: {attempted} runs attempted, {failed} failed");
    Ok(ok && failed == 0)
}

/// The commit checked out, read from `.git/HEAD` (`unknown` outside a
/// git checkout).
fn git_rev() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(refname)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == refname).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Prints one verdict per (workload, end-to-end metric); false on any
/// `worse`.
fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<mv_prof::json::Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        mv_prof::json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let bounds = compare::bounds(&load("BENCHMARK.json")?)?;
    let rows = compare::compare(&load(a)?, &load(b)?, &bounds)?;
    for row in &rows {
        println!("{row}");
    }
    Ok(rows.iter().all(|r| r.verdict != compare::Verdict::Worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(str::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn command_line_takes_the_benchmark_contract() {
        let a = args("--workload walk2d --seed 7 --seconds 10 --trace 1").expect("parses");
        assert_eq!(a.workload.as_deref(), Some("walk2d"));
        assert_eq!((a.seed, a.seconds, a.trace), (Some(7), Some(10), true));
        assert!(args("--workload walk2d --trace 2").is_err());
        assert!(args("--workload walk2d --bogus").is_err());
        assert!(args("--seed 1").is_err(), "a mode is required");
        assert!(args("--all --compare a b").is_err(), "one mode only");
        assert_eq!(
            args("--compare a.json b.json").expect("parses").compare,
            Some(("a.json".to_string(), "b.json".to_string()))
        );
    }
}
