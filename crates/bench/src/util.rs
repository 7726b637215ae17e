//! Harness utilities: configuration, timing, table and CSV output.

use std::time::Instant;

/// Experiment configuration, overridable via environment variables.
#[derive(Debug, Clone)]
pub struct Config {
    /// log2 of the microbenchmark array size executed on this host
    /// (`CRYSTAL_MICRO_LOG2N`, default 22). Simulated/modeled results are
    /// reported at the paper's 2^28 regardless.
    pub micro_log2n: u32,
    /// Fact-table sampling for the paper-scale simulation runs
    /// (`CRYSTAL_FACT_SCALE`, default 0.02 of SF-20's 120M rows).
    pub fact_scale: f64,
    /// Worker threads (`CRYSTAL_THREADS`, default all cores).
    pub threads: usize,
    /// Timing repetitions (`CRYSTAL_REPS`, default 3).
    pub reps: usize,
}

/// A `CRYSTAL_*` environment variable that is set to something its knob
/// cannot parse, or to a value no experiment can run with. Unset is not an
/// error (the default applies); set but invalid is — `CRYSTAL_THREADS=two`
/// silently running on every core measures a different experiment than the
/// one asked for, and `CRYSTAL_FACT_SCALE=0` is a division by zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvError {
    /// The variable's name.
    pub name: String,
    /// The offending value.
    pub value: String,
}

impl std::fmt::Display for EnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}={:?} is not a valid value", self.name, self.value)
    }
}

impl std::error::Error for EnvError {}

/// The value of the knob called `name`: `default` when `raw` (the
/// variable's text, if set) is `None`, its parse otherwise.
pub fn parse_var<T: std::str::FromStr>(
    name: &str,
    raw: Option<&str>,
    default: T,
) -> Result<T, EnvError> {
    raw.map_or(Ok(default), |v| {
        v.parse().map_err(|_| EnvError {
            name: name.into(),
            value: v.into(),
        })
    })
}

/// [`parse_var`] over the process environment.
pub fn env_var<T: std::str::FromStr>(name: &str, default: T) -> Result<T, EnvError> {
    parse_var(name, std::env::var(name).ok().as_deref(), default)
}

impl Config {
    pub fn from_env() -> Result<Self, EnvError> {
        Self::from_vars(|name| std::env::var(name).ok())
    }

    /// The configuration `var` (a variable's text, if set) describes; a
    /// value that parses but that no experiment can run with is an error
    /// like one that does not.
    pub fn from_vars(var: impl Fn(&str) -> Option<String>) -> Result<Self, EnvError> {
        fn knob<T: std::str::FromStr>(
            var: &impl Fn(&str) -> Option<String>,
            name: &str,
            default: T,
            runs: impl Fn(&T) -> bool,
        ) -> Result<T, EnvError> {
            let raw = var(name);
            let value = parse_var(name, raw.as_deref(), default)?;
            runs(&value).then_some(value).ok_or_else(|| EnvError {
                name: name.into(),
                value: raw.unwrap_or_default(),
            })
        }
        let cores = crystal_cpu::exec::default_threads();
        Ok(Config {
            micro_log2n: knob(&var, "CRYSTAL_MICRO_LOG2N", 22, |n| (10..=30).contains(n))?,
            // The divisor of every paper-scale extrapolation.
            fact_scale: knob(&var, "CRYSTAL_FACT_SCALE", 0.02, |s| *s > 0.0 && *s <= 1.0)?,
            threads: knob(&var, "CRYSTAL_THREADS", cores, |&t| t >= 1)?,
            reps: knob(&var, "CRYSTAL_REPS", 3, |&r| r >= 1)?,
        })
    }

    /// Host-executed microbenchmark size.
    pub fn micro_n(&self) -> usize {
        1usize << self.micro_log2n
    }

    /// The paper's microbenchmark size (2^28 4-byte entries; see
    /// EXPERIMENTS.md on the 2^29-vs-2^28 discrepancy in the paper text).
    pub const PAPER_LOG2N: u32 = 28;

    pub fn paper_n(&self) -> usize {
        1usize << Self::PAPER_LOG2N
    }

    /// Multiplier from host-run sizes to paper sizes.
    pub fn scale_to_paper(&self) -> f64 {
        self.paper_n() as f64 / self.micro_n() as f64
    }
}

/// Median wall-clock seconds of `reps` runs of `f`.
pub fn time_median<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

/// A printed table that also lands in `results/<name>.csv`.
pub struct Report {
    name: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    pub fn new(name: &str, headers: &[&str]) -> Self {
        Report {
            name: name.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "ragged report row");
        self.rows.push(cells);
    }

    /// Prints the aligned table and writes the CSV.
    pub fn finish(self) {
        self.print();
        self.save();
    }

    /// Prints the aligned table to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        println!("\n== {} ==", self.name);
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (w, cell) in widths.iter().zip(cells) {
                s.push_str(&format!("{cell:>w$}  ", w = w));
            }
            println!("{}", s.trim_end());
        };
        line(&self.headers);
        for row in &self.rows {
            line(row);
        }
    }

    /// Writes `results/<name>.csv` under the current directory.
    pub fn save(&self) {
        let path = format!("results/{}.csv", self.name);
        let written =
            std::fs::create_dir_all("results").and_then(|()| std::fs::write(path, self.csv()));
        if let Err(e) = written {
            eprintln!("warning: could not write results CSV: {e}");
        }
    }

    /// The table as RFC 4180 CSV: a cell holding a comma, a quote or a line
    /// break is quoted, its quotes doubled.
    fn csv(&self) -> String {
        let mut out = String::new();
        for row in std::iter::once(&self.headers).chain(&self.rows) {
            let cells = row.iter().map(|cell| {
                if cell.contains([',', '"', '\n', '\r']) {
                    format!("\"{}\"", cell.replace('"', "\"\""))
                } else {
                    cell.clone()
                }
            });
            out.push_str(&cells.collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Milliseconds with 2 decimals.
pub fn ms(secs: f64) -> String {
    format!("{:.2}", secs * 1e3)
}

/// Section 3.1's cold comparison for `q` over a one-segment table: the PCIe
/// transfer of its columns as stored against the host's scan of them,
/// `(coprocessor_secs, host_secs)`.
pub fn transfer_vs_host_scan(
    table: &crystal_ssb::FactTable<'_>,
    q: &crystal_ssb::StarQuery,
    cpu: &crystal_hardware::CpuSpec,
    pcie: &crystal_hardware::PcieSpec,
) -> (f64, f64) {
    let c = table.segments()[0].cost(&q.fact_columns());
    crystal_models::ssb::compressed_coprocessor_bounds(c.packed_bytes, c.packed_values, cpu, pcie)
}

/// Scales a simulated kernel time from host-run size to paper size: the
/// resource-bound part grows linearly with the data, the fixed launch
/// overhead does not.
pub fn scale_kernel(r: &crystal_gpu_sim::KernelReport, scale: f64) -> f64 {
    r.time.bottleneck_secs() * scale + r.time.launch
}

/// Scales a multi-kernel operator.
pub fn scale_kernels(rs: &[crystal_gpu_sim::KernelReport], scale: f64) -> f64 {
    rs.iter().map(|r| scale_kernel(r, scale)).sum()
}

/// A ratio with 1 decimal.
pub fn ratio(r: f64) -> String {
    format!("{r:.1}x")
}

/// Times two forms of a computation *interleaved*: one baseline run
/// immediately followed by one candidate run per repetition, so a noisy
/// neighbor or frequency excursion hits both sides of a pair about
/// equally. `run(false)` is the baseline, `run(true)` the candidate.
/// Returns `(median baseline secs, median candidate secs, median of
/// per-pair ratios)` — the ratio median is computed over pairs, not over
/// the two medians, which is what makes it robust to bursty
/// interference. Used by `reproduce microbench` for scalar-vs-chunked
/// kernels and by `reproduce calibration` for the wall-clock
/// observation section.
pub fn paired(reps: usize, mut run: impl FnMut(bool)) -> (f64, f64, f64) {
    let mut once = |candidate: bool| {
        let t = std::time::Instant::now();
        run(candidate);
        t.elapsed().as_secs_f64()
    };
    let mut bs = Vec::with_capacity(reps);
    let mut cs = Vec::with_capacity(reps);
    let mut rs = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let tb = once(false);
        let tc = once(true);
        bs.push(tb);
        cs.push(tc);
        rs.push(tb / tc);
    }
    let med = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.total_cmp(b));
        v[v.len() / 2]
    };
    (med(&mut bs), med(&mut cs), med(&mut rs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_are_sane() {
        let c = Config::from_env().unwrap();
        assert!(c.micro_log2n >= 16 && c.micro_log2n <= 30);
        assert!(c.threads >= 1);
        assert!(c.scale_to_paper() >= 1.0);
    }

    /// Unset keeps the default, a valid value wins, an invalid one is an
    /// error naming the variable and the value — never the default.
    #[test]
    fn knobs_parse_or_fail_loudly() {
        assert_eq!(parse_var("CRYSTAL_THREADS", None, 8usize), Ok(8));
        assert_eq!(parse_var("CRYSTAL_THREADS", Some("2"), 8usize), Ok(2));
        assert_eq!(parse_var("CRYSTAL_FACT_SCALE", Some("0.5"), 0.02), Ok(0.5));
        for bad in ["two", "", "-1", "2.5"] {
            let err = parse_var("CRYSTAL_THREADS", Some(bad), 8usize).unwrap_err();
            assert_eq!(
                (err.name.as_str(), err.value.as_str()),
                ("CRYSTAL_THREADS", bad)
            );
            let shown = err.to_string();
            assert!(
                shown.contains("CRYSTAL_THREADS") && shown.contains(bad),
                "{shown}"
            );
        }
    }

    /// A value that parses but that nothing can run with is the same
    /// error; the edges of each range still load.
    #[test]
    fn knobs_reject_values_that_cannot_run() {
        let with = |name: &'static str, value: &'static str| {
            Config::from_vars(|var| (var == name).then(|| value.to_string()))
        };
        for (name, value) in [
            ("CRYSTAL_THREADS", "0"),
            ("CRYSTAL_REPS", "0"),
            ("CRYSTAL_FACT_SCALE", "0"),
            ("CRYSTAL_FACT_SCALE", "-0.5"),
            ("CRYSTAL_FACT_SCALE", "1.5"),
            ("CRYSTAL_FACT_SCALE", "NaN"),
            ("CRYSTAL_FACT_SCALE", "inf"),
            ("CRYSTAL_MICRO_LOG2N", "9"),
            ("CRYSTAL_MICRO_LOG2N", "31"),
            ("CRYSTAL_MICRO_LOG2N", "two"),
        ] {
            let err = with(name, value).unwrap_err();
            assert_eq!((err.name.as_str(), err.value.as_str()), (name, value));
        }
        assert_eq!(with("CRYSTAL_FACT_SCALE", "1").unwrap().fact_scale, 1.0);
        assert_eq!(with("CRYSTAL_MICRO_LOG2N", "10").unwrap().micro_log2n, 10);
        assert_eq!(with("CRYSTAL_MICRO_LOG2N", "30").unwrap().micro_log2n, 30);
        assert_eq!(with("CRYSTAL_THREADS", "1").unwrap().threads, 1);
    }

    /// Cells with a comma, a quote or a line break are quoted (RFC 4180).
    #[test]
    fn csv_quotes_the_cells_that_need_it() {
        let mut report = Report::new("t", &["claim", "band"]);
        report.row(vec!["evicts, byte-identical".into(), "[0.05, 0.6]".into()]);
        report.row(vec!["a \"quoted\" word".into(), "plain".into()]);
        assert_eq!(
            report.csv(),
            "claim,band\n\"evicts, byte-identical\",\"[0.05, 0.6]\"\n\"a \"\"quoted\"\" word\",plain\n"
        );
    }

    #[test]
    fn median_of_reps() {
        let mut calls = 0;
        let t = time_median(3, || calls += 1);
        assert_eq!(calls, 3);
        assert!(t >= 0.0);
    }

    #[test]
    fn formatting() {
        assert_eq!(ms(0.00123), "1.23");
        assert_eq!(ratio(16.234), "16.2x");
    }
}
