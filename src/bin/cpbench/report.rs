// cpsim-lint: profile(harness): benchmark reporting; summarizes, writes and compares results
//! Metrics, their summaries, the result files, and `compare`.

use serde_json::Value;

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value.
    pub value: f64,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: &str, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.to_string(),
            unit,
            value,
        }
    }
}

/// Every sample of one metric on one workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    /// Workload (or probe) name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Unit.
    pub unit: String,
    /// Samples in the order they were taken.
    pub samples: Vec<f64>,
}

/// Median, first and third quartile of `samples`, with the quartiles
/// interpolated as Python's `statistics.quantiles(n=4)` does.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut d = samples.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    match n {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (d[0], d[0], d[0]),
        _ => {
            let median = if n % 2 == 1 {
                d[n / 2]
            } else {
                (d[n / 2 - 1] + d[n / 2]) / 2.0
            };
            let q = |i: usize| {
                let m = n + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
            };
            (median, q(1), q(3))
        }
    }
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples).0
}

/// One line per series: `workload metric median q1 q3 n unit`.
pub fn render_lines(series: &[Series]) -> String {
    let mut out = String::new();
    for s in series {
        let (m, q1, q3) = quartiles(&s.samples);
        out.push_str(&format!(
            "{:<13} {:<34} {:>14.6} {:>14.6} {:>14.6} {:>3} {}\n",
            s.workload,
            s.metric,
            m,
            q1,
            q3,
            s.samples.len(),
            s.unit
        ));
    }
    out
}

/// The result object the benchmark prints as its last line.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            let v = Value::Obj(vec![
                ("value".into(), Value::F64(m.value)),
                ("unit".into(), Value::Str(m.unit.into())),
            ]);
            (m.name.clone(), v)
        })
        .collect();
    let v = Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(attempted)),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), Value::Obj(metrics)),
    ]);
    serde_json::to_string(&v).expect("infallible")
}

/// The raw-samples file of a full run.
pub fn samples_json(seed: u64, nproc: usize, series: &[Series]) -> String {
    let series = series
        .iter()
        .map(|s| {
            Value::Obj(vec![
                ("workload".into(), Value::Str(s.workload.clone())),
                ("metric".into(), Value::Str(s.metric.clone())),
                ("unit".into(), Value::Str(s.unit.clone())),
                (
                    "samples".into(),
                    Value::Arr(s.samples.iter().map(|&x| Value::F64(x)).collect()),
                ),
            ])
        })
        .collect();
    let v = Value::Obj(vec![
        ("seed".into(), Value::U64(seed)),
        ("nproc".into(), Value::U64(nproc as u64)),
        ("calib_ref_s".into(), Value::F64(crate::calib::CALIB_REF_S)),
        ("series".into(), Value::Arr(series)),
    ]);
    serde_json::to_string(&v).expect("infallible")
}

/// Reads the series back from a raw-samples file.
pub fn parse_samples(text: &str) -> Result<Vec<Series>, String> {
    let v: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let arr = v
        .get("series")
        .and_then(Value::as_arr)
        .ok_or("no `series` array")?;
    arr.iter()
        .map(|s| {
            let text = |k: &str| {
                s.get(k)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or(format!("series entry without `{k}`"))
            };
            let samples = s
                .get("samples")
                .and_then(Value::as_arr)
                .ok_or("series entry without `samples`")?
                .iter()
                .map(|x| match x {
                    Value::F64(f) => Ok(*f),
                    Value::U64(u) => Ok(*u as f64),
                    _ => Err("non-numeric sample".to_string()),
                })
                .collect::<Result<Vec<f64>, String>>()?;
            Ok(Series {
                workload: text("workload")?,
                metric: text("metric")?,
                unit: text("unit")?,
                samples,
            })
        })
        .collect()
}

/// The `BENCHMARK.json` this benchmark was built with.
pub const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

/// An end-to-end metric's regression rule from `BENCHMARK.json`.
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Share of the base median by which the metric may worsen.
    pub bound: f64,
}

/// What `BENCHMARK.json` declares.
pub struct Declared {
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics and their bounds.
    pub bounds: Vec<Bound>,
    /// Per-layer metric names.
    pub per_layer: Vec<String>,
}

/// Reads the names and bounds declared in `BENCHMARK.json`.
pub fn declared() -> Result<Declared, String> {
    let v: Value = serde_json::from_str(BENCHMARK_JSON).map_err(|e| e.to_string())?;
    let names = |key: &str| -> Result<Vec<&Value>, String> {
        Ok(v.get(key)
            .and_then(Value::as_arr)
            .ok_or(format!("BENCHMARK.json has no `{key}` array"))?
            .iter()
            .collect())
    };
    let name = |e: &Value| -> Result<String, String> {
        e.get("name")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or("entry without `name`".to_string())
    };
    let workloads = names("workloads")?
        .into_iter()
        .map(name)
        .collect::<Result<_, _>>()?;
    let bounds = names("end_to_end")?
        .into_iter()
        .map(|e| {
            Ok(Bound {
                name: name(e)?,
                lower_is_better: e.get("better").and_then(Value::as_str) == Some("lower"),
                bound: match e.get("bound") {
                    Some(Value::F64(b)) => *b,
                    _ => return Err("end_to_end entry without a numeric `bound`".to_string()),
                },
            })
        })
        .collect::<Result<_, String>>()?;
    let per_layer = names("per_layer")?
        .into_iter()
        .map(name)
        .collect::<Result<_, _>>()?;
    Ok(Declared {
        workloads,
        bounds,
        per_layer,
    })
}

/// The verdict on one metric of one workload.
pub fn verdict(base: &[f64], new: &[f64], bound: &Bound) -> &'static str {
    let (bm, bq1, bq3) = quartiles(base);
    let nm = median(new);
    let worse = if bound.lower_is_better {
        nm > bm * (1.0 + bound.bound)
    } else {
        nm < bm * (1.0 - bound.bound)
    };
    if (bq3 - bq1) / bm > bound.bound {
        "unresolved"
    } else if worse {
        "regressed"
    } else {
        "ok"
    }
}

/// Compares two raw-samples files. Returns the table and whether any
/// bounded metric regressed.
pub fn compare(base: &[Series], new: &[Series], bounds: &[Bound]) -> (String, bool) {
    let mut out = format!(
        "{:<13} {:<34} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>7}  verdict\n",
        "workload", "metric", "base", "base q1", "base q3", "new", "new q1", "new q3", "ratio"
    );
    let mut regressed = false;
    for b in base {
        let Some(n) = new
            .iter()
            .find(|n| n.workload == b.workload && n.metric == b.metric)
        else {
            continue;
        };
        let (bm, bq1, bq3) = quartiles(&b.samples);
        let (nm, nq1, nq3) = quartiles(&n.samples);
        let v = match bounds.iter().find(|x| x.name == b.metric) {
            Some(bound) => verdict(&b.samples, &n.samples, bound),
            None => "-",
        };
        regressed |= v == "regressed";
        out.push_str(&format!(
            "{:<13} {:<34} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>7.3}  {v}\n",
            b.workload,
            b.metric,
            bm,
            bq1,
            bq3,
            nm,
            nq1,
            nq3,
            nm / bm
        ));
    }
    (out, regressed)
}
