//! The benchmark's declarations — workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics — and the printing of results
//! against them. `BENCHMARK.json` at the repository root is exactly
//! [`render_benchmark_json`]; a unit test holds the two together, so the
//! tables below are the single place a name, unit or bound is written.

use std::collections::BTreeMap;

/// `(name, why)` of each workload. README.md has a paragraph on each.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "host_scan",
        "q1.x over 12M rows: selection and unpack kernels stream memory; no dimension build, so a probe/build/aggregate change must not move it",
    ),
    (
        "host_join",
        "q2.1-q4.3 over 2.4M rows: per-call dimension build, 3-4 dependent probes into out-of-L2 tables; a selection-kernel change must not move it",
    ),
    (
        "device_sim",
        "five queries through warm device sessions: host time is the simulator's own, simulated time repeats exactly",
    ),
    (
        "serve_mixed",
        "4 tenants x 6 queries in Zipf(1.2) proportions, served once with the cache fitting and once sharded and starved: scheduler, placement, eviction, resumable jobs",
    ),
    (
        "ingest",
        "generate, pack, encode and partition 1.2M rows: the write side of storage that read workloads pay only in set-up",
    ),
];

pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "crates/bench/src/bin/e2e/Cargo.toml",
    "--",
];
pub const PATHS: [&str; 1] = ["crates/bench/src/bin/e2e"];
pub const RUN_SECONDS: u32 = 12;

/// Host-engine queries of `host_scan` and of `host_join`.
pub const SCAN_QUERIES: [&str; 3] = ["q1.1", "q1.2", "q1.3"];
pub const JOIN_QUERIES: [&str; 4] = ["q2.1", "q3.1", "q4.1", "q4.3"];
/// Queries `device_sim` runs through the simulated device.
pub const DEVICE_QUERIES: [&str; 5] = ["q1.1", "q2.1", "q3.1", "q4.1", "q4.3"];
/// Queries whose resumable host job `serve_mixed` steps at the server quantum.
pub const STEP_QUERIES: [&str; 2] = ["q1.1", "q4.1"];
pub const ENCODINGS: [&str; 2] = ["plain", "packed"];
pub const DIMS: [&str; 4] = ["date", "part", "supplier", "customer"];
pub const HALVES: [&str; 2] = ["fits", "starved"];

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

/// One declared metric. `bound` is set for end-to-end metrics only: the
/// share of the parent's median by which the metric may get worse.
#[derive(Debug, Clone, PartialEq)]
pub struct Decl {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

/// End-to-end metrics: printed by every workload, measured with tracing
/// off. The bounds are at least three times the spread measured over ten
/// seeds per workload (README.md reports the measurements).
pub fn end_to_end() -> Vec<Decl> {
    let e = |name: &str, unit, better, bound| Decl {
        name: name.to_string(),
        unit,
        better,
        bound: Some(bound),
    };
    vec![
        e("setup_s", "s", Better::Lower, 0.25),
        e("pass_ms_p10", "ms", Better::Lower, 0.25),
        e("mrows_per_s", "Mrows/s", Better::Higher, 0.25),
        e("peak_rss_mb", "MB", Better::Lower, 0.1),
    ]
}

/// Per-layer metrics: printed by every workload's traced run; a workload
/// that does not exercise a metric prints 0 for it.
pub fn per_layer() -> Vec<Decl> {
    use Better::{Higher, Lower};
    let mut out = Vec::new();
    let mut add = |name: String, unit, better| {
        out.push(Decl {
            name,
            unit,
            better,
            bound: None,
        })
    };
    add("host.read_gbps".into(), "GB/s", Higher);
    for q in SCAN_QUERIES.iter().chain(&JOIN_QUERIES) {
        for enc in ENCODINGS {
            add(format!("ssb.exec_ms.{q}.{enc}"), "ms", Lower);
            add(format!("ssb.roofline_frac.{q}.{enc}"), "ratio", Higher);
        }
    }
    for q in JOIN_QUERIES {
        add(format!("ssb.dim_build_ms.{q}"), "ms", Lower);
    }
    for enc in ENCODINGS {
        add(format!("core.sel_between_mrows_s.{enc}"), "Mrows/s", Higher);
        for dim in DIMS {
            add(
                format!("core.sel_probe_mrows_s.{dim}.{enc}"),
                "Mrows/s",
                Higher,
            );
        }
    }
    add("storage.unpack_mvals_s".into(), "Mvals/s", Higher);
    add("storage.pack_mvals_s".into(), "Mvals/s", Higher);
    add("storage.stored_bytes_per_plain_byte".into(), "ratio", Lower);
    for stage in ["generate", "encode", "partition"] {
        add(format!("ssb.{stage}_ms"), "ms", Lower);
    }
    add("cpu-engine.scale_nproc".into(), "ratio", Higher);
    add("cpu-engine.morsel_claim_ns".into(), "ns", Lower);
    for q in DEVICE_QUERIES {
        for enc in ENCODINGS {
            add(format!("ssb.gpu_exec_wall_ms.{q}.{enc}"), "ms", Lower);
            add(format!("gpu-sim.sim_kernel_us.{q}.{enc}"), "us", Lower);
        }
    }
    add("gpu-sim.launches".into(), "count", Lower);
    add("gpu-sim.hbm_read_mb".into(), "MB", Lower);
    add("gpu-sim.hbm_write_mb".into(), "MB", Lower);
    add("gpu-sim.l2_hit_ratio".into(), "ratio", Higher);
    add("gpu-sim.sim_dma_ms".into(), "ms", Lower);
    add("gpu-sim.wall_ns_per_tile".into(), "ns", Lower);
    add("gpu-sim.wall_per_sim_ratio".into(), "ratio", Lower);
    add("runtime.col_hit_ratio".into(), "ratio", Higher);
    add("runtime.ht_hit_ratio".into(), "ratio", Higher);
    add("runtime.uploaded_mb".into(), "MB", Lower);
    add("runtime.evictions".into(), "count", Lower);
    for half in HALVES {
        add(format!("runtime.evictions.{half}"), "count", Lower);
    }
    add("runtime.build_sim_ms".into(), "ms", Lower);
    add("runtime.column_cold_us".into(), "us", Lower);
    add("runtime.column_warm_us".into(), "us", Lower);
    add("models.choose_placement_us".into(), "us", Lower);
    add("models.resid_cold".into(), "ratio", Lower);
    add("models.resid_warm".into(), "ratio", Lower);
    for half in HALVES {
        add(format!("server.serve_ms.{half}"), "ms", Lower);
        add(format!("server.overhead_frac.{half}"), "ratio", Lower);
        add(format!("server.device_frac.{half}"), "ratio", Higher);
    }
    add("server.sim_host_busy_frac".into(), "ratio", Higher);
    add("server.sim_device_busy_frac".into(), "ratio", Higher);
    add("server.sim_lat_p50_ms".into(), "ms", Lower);
    for q in STEP_QUERIES {
        add(format!("ssb.job_step_ms.{q}"), "ms", Lower);
    }
    add("sim_pass_ms".into(), "ms", Lower);
    add("sim_cold_ms".into(), "ms", Lower);
    add("sim_hbm_mb".into(), "MB", Lower);
    add("sim_qps".into(), "1/s", Higher);
    add("sim_lat_p99_ms".into(), "ms", Lower);
    add("harness.pass_ms_p50".into(), "ms", Lower);
    add("harness.pass_ms_p90".into(), "ms", Lower);
    add("harness.samples".into(), "count", Higher);
    add("harness.trace_overhead_frac".into(), "ratio", Lower);
    add("harness.failed_frac".into(), "ratio", Lower);
    out
}

fn charset_ok(s: &str, extra: &str, max_len: usize) -> bool {
    !s.is_empty()
        && s.len() <= max_len
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

/// A workload or metric name: starts with a letter or digit, at most 64
/// of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    charset_ok(name, "_.-", 64) && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

pub fn valid_unit(unit: &str) -> bool {
    charset_ok(unit, "_/%.-", 16)
}

/// Checks the declarations against the limits `BENCHMARK.json` must keep:
/// name and unit character sets, 2..=8 workloads, 1..=16 end-to-end and
/// 1..=128 per-layer metrics, every name used once, bounds in (0, 0.25],
/// `setup_s` declared in seconds.
pub fn check_declarations(e2e: &[Decl], layers: &[Decl]) -> Result<(), String> {
    if !(2..=8).contains(&WORKLOADS.len()) {
        return Err(format!("{} workloads", WORKLOADS.len()));
    }
    if !(1..=16).contains(&e2e.len()) || !(1..=128).contains(&layers.len()) {
        return Err(format!(
            "{} end-to-end / {} per-layer metrics",
            e2e.len(),
            layers.len()
        ));
    }
    let mut seen = std::collections::BTreeSet::new();
    for (name, why) in WORKLOADS {
        if !valid_name(name) || why.len() > 200 || why.contains(['\n', '"', '\\']) {
            return Err(format!("workload {name}: bad name or why"));
        }
        if !seen.insert(name.to_string()) {
            return Err(format!("{name} declared twice"));
        }
    }
    for d in e2e.iter().chain(layers) {
        if !valid_name(&d.name) || !valid_unit(d.unit) {
            return Err(format!("{} [{}]: bad name or unit", d.name, d.unit));
        }
        if !seen.insert(d.name.clone()) {
            return Err(format!("{} declared twice", d.name));
        }
    }
    for d in e2e {
        match d.bound {
            Some(b) if b > 0.0 && b <= 0.25 => {}
            other => return Err(format!("{}: bound {other:?}", d.name)),
        }
    }
    if layers.iter().any(|d| d.bound.is_some()) {
        return Err("a per-layer metric has a bound".into());
    }
    let setup = e2e.iter().find(|d| d.name == "setup_s");
    if !setup.is_some_and(|d| d.unit == "s" && d.better == Better::Lower) {
        return Err("setup_s must be declared in s, lower".into());
    }
    Ok(())
}

fn json_strings(items: &[&str]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
    format!("[{}]", quoted.join(", "))
}

fn json_decl(d: &Decl) -> String {
    let better = match d.better {
        Better::Lower => "lower",
        Better::Higher => "higher",
    };
    let bound = d
        .bound
        .map_or(String::new(), |b| format!(", \"bound\": {b}"));
    format!(
        "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"{bound}}}",
        d.name, d.unit
    )
}

/// The text of `BENCHMARK.json`.
pub fn render_benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let e2e: Vec<String> = end_to_end().iter().map(json_decl).collect();
    let layers: Vec<String> = per_layer().iter().map(json_decl).collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        json_strings(&COMMAND),
        json_strings(&PATHS),
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n"),
    )
}

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "{name} = {value} is not a number");
        let previous = self.0.insert(name.to_string(), value);
        assert!(previous.is_none(), "{name} measured twice");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The result line: every metric of `decls` exactly once, by name, with
/// its unit. A declared metric the workload did not exercise reads 0
/// when `fill_zero` (per-layer metrics); otherwise, and for a measured
/// name that is not declared, this is an error.
pub fn render_result(
    attempted: u64,
    failed: u64,
    decls: &[Decl],
    values: &Values,
    fill_zero: bool,
) -> Result<String, String> {
    if let Some(stray) = values
        .0
        .keys()
        .find(|k| !decls.iter().any(|d| &d.name == *k))
    {
        return Err(format!("{stray} is measured but not declared"));
    }
    let mut metrics = Vec::with_capacity(decls.len());
    for d in decls {
        let value = match values.get(&d.name) {
            Some(v) => v,
            None if fill_zero => 0.0,
            None => return Err(format!("{} is declared but not measured", d.name)),
        };
        metrics.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            d.name, d.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declarations_keep_the_limits() {
        check_declarations(&end_to_end(), &per_layer()).unwrap();
    }

    #[test]
    fn committed_benchmark_json_is_the_rendered_one() {
        let committed = include_str!("../../../../../../BENCHMARK.json");
        assert_eq!(committed, render_benchmark_json());
    }

    #[test]
    fn names_and_units_are_validated() {
        for good in [
            "setup_s",
            "ssb.exec_ms.q1.1.plain",
            "cpu-engine.scale_nproc",
            "9a",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".lead",
            "-lead",
            "has space",
            "slash/name",
            "é",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("Mrows/s") && valid_unit("1/s") && valid_unit("%"));
        assert!(!valid_unit("") && !valid_unit("rows per second") && !valid_unit("µs"));
    }

    #[test]
    fn duplicate_and_unbounded_declarations_are_rejected() {
        let mut e2e = end_to_end();
        let layers = per_layer();
        e2e[1].bound = Some(0.3);
        assert!(check_declarations(&e2e, &layers).is_err());
        e2e[1].bound = None;
        assert!(check_declarations(&e2e, &layers).is_err());
        let mut e2e = end_to_end();
        e2e.push(e2e[1].clone());
        assert!(check_declarations(&e2e, &layers).is_err());
        let mut layers = per_layer();
        layers.push(end_to_end()[0].clone());
        assert!(check_declarations(&end_to_end(), &layers).is_err());
    }

    #[test]
    fn result_prints_every_declared_name_once_and_nothing_else() {
        let decls = per_layer();
        let mut values = Values::default();
        values.set("host.read_gbps", 12.5);
        let line = render_result(10, 0, &decls, &values, true).unwrap();
        for d in &decls {
            assert_eq!(
                line.matches(&format!("\"{}\":", d.name)).count(),
                1,
                "{}",
                d.name
            );
        }
        assert_eq!(line.matches("\"value\":").count(), decls.len());
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        assert!(line.contains("\"host.read_gbps\": {\"value\": 12.5, \"unit\": \"GB/s\"}"));

        values.set("not.declared", 1.0);
        assert!(render_result(10, 0, &decls, &values, true).is_err());

        // End-to-end metrics may not be left out.
        let e2e = end_to_end();
        let mut partial = Values::default();
        partial.set("setup_s", 1.0);
        assert!(render_result(1, 0, &e2e, &partial, false).is_err());
        assert!(render_result(1, 1, &e2e, &Values::default(), true)
            .unwrap()
            .starts_with("{\"correct\": false"));
    }
}
