//! Rundown-bench JSON comparison: the CI perf gate.
//!
//! Reads two `BENCH_rundown.json` files (a baseline — the previous CI
//! run's artifact or the checked-in copy — and the current measurement),
//! matches scenarios by name, and reports the per-scenario wall-time
//! ratio as a Markdown table (rendered into `$GITHUB_STEP_SUMMARY` by
//! the workflow). A ratio above the threshold on any scenario present in
//! both files is a **regression** and fails the gate.
//!
//! The parser is a deliberately small scanner for the format
//! [`crate::rundown::to_json`] emits (the repo vendors no serde): it
//! pairs each `"name"` with the following `"wall_ms"` inside the
//! `scenarios` array, reads the `service_scaling` sweep rows the same way
//! (named `service_scaling/<scenario>/shards=<k>`: the open-system rows
//! are where a per-event cost that grows with the stream shows first),
//! and also captures the top-level `"host"` so the table can flag
//! cross-host comparisons, which are informational only.

/// One scenario measurement extracted from a rundown JSON file.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedRun {
    /// Host fingerprint recorded in the file (absent in pre-v2 files).
    pub host: Option<String>,
    /// `(scenario name, wall_ms)` in file order: the `service_scaling`
    /// rows, then the headline scenarios.
    pub scenarios: Vec<(String, f64)>,
}

/// Extract the string value following `key` on a JSON line like
/// `  "key": "value",`.
fn string_value(line: &str) -> Option<String> {
    let (_, rest) = line.split_once(':')?;
    let rest = rest.trim().trim_end_matches(',');
    let rest = rest.strip_prefix('"')?.strip_suffix('"')?;
    Some(rest.to_string())
}

/// Extract the numeric value following `key` on a JSON line like
/// `  "key": 12.5,` (returns `None` for `null`).
fn number_value(line: &str) -> Option<f64> {
    let (_, rest) = line.split_once(':')?;
    rest.trim().trim_end_matches(',').parse().ok()
}

/// Parse a rundown JSON document (format of [`crate::rundown::to_json`]).
pub fn parse_rundown(json: &str) -> ParsedRun {
    #[derive(PartialEq)]
    enum Section {
        Other,
        Service,
        Scenarios,
    }
    let mut host = None;
    let mut scenarios = Vec::new();
    let mut section = Section::Other;
    let mut pending_name: Option<String> = None;
    for line in json.lines() {
        let t = line.trim_start();
        if t.starts_with("\"service_scaling\":") {
            section = Section::Service;
        } else if t.starts_with("\"scenarios\"") {
            section = Section::Scenarios;
        } else if t.starts_with(']') {
            section = Section::Other;
        } else if section == Section::Other {
            if t.starts_with("\"host\"") {
                host = string_value(t);
            }
        } else if t.starts_with("\"name\"") || t.starts_with("\"scenario\"") {
            pending_name = string_value(t);
        } else if section == Section::Service && t.starts_with("\"shards\"") {
            if let (Some(name), Some(k)) = (pending_name.as_mut(), number_value(t)) {
                *name = format!("service_scaling/{name}/shards={k}");
            }
        } else if t.starts_with("\"wall_ms\"") {
            if let (Some(name), Some(ms)) = (pending_name.take(), number_value(t)) {
                scenarios.push((name, ms));
            }
        }
    }
    ParsedRun { host, scenarios }
}

/// One row of the gate's comparison table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Scenario name.
    pub name: String,
    /// Baseline wall time, ms (`None`: scenario is new).
    pub baseline_ms: Option<f64>,
    /// Current wall time, ms (`None`: scenario was removed).
    pub current_ms: Option<f64>,
}

impl Row {
    /// current / baseline, when both sides exist.
    pub fn ratio(&self) -> Option<f64> {
        match (self.baseline_ms, self.current_ms) {
            (Some(b), Some(c)) if b > 0.0 => Some(c / b),
            _ => None,
        }
    }
}

/// Match baseline and current scenarios by name (current file order,
/// then baseline-only leftovers).
pub fn compare(baseline: &ParsedRun, current: &ParsedRun) -> Vec<Row> {
    let mut rows: Vec<Row> = current
        .scenarios
        .iter()
        .map(|(name, c)| Row {
            name: name.clone(),
            baseline_ms: baseline
                .scenarios
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, b)| b),
            current_ms: Some(*c),
        })
        .collect();
    for (name, b) in &baseline.scenarios {
        if !current.scenarios.iter().any(|(n, _)| n == name) {
            rows.push(Row {
                name: name.clone(),
                baseline_ms: Some(*b),
                current_ms: None,
            });
        }
    }
    rows
}

/// Rows whose wall time regressed beyond `threshold` (a ratio: `1.25`
/// = fail when current is more than 25 % slower than baseline).
pub fn regressions(rows: &[Row], threshold: f64) -> Vec<&Row> {
    rows.iter()
        .filter(|r| r.ratio().is_some_and(|x| x > threshold))
        .collect()
}

fn fmt_ms(v: Option<f64>) -> String {
    v.map_or_else(|| "—".to_string(), |x| format!("{x:.3}"))
}

/// True when the two runs cannot be confirmed to come from the same host
/// class: differing fingerprints, or a file (e.g. a pre-fingerprint-era
/// artifact) that records none. Unknown provenance is treated as
/// cross-host — a lenient gate during a format transition or runner-class
/// rotation beats a spurious red CI.
pub fn host_mismatch(baseline: &ParsedRun, current: &ParsedRun) -> bool {
    match (&baseline.host, &current.host) {
        (Some(b), Some(c)) => b != c,
        _ => true,
    }
}

/// Exit disposition of the perf gate, mapped to distinct process exit
/// codes so the workflow can tell "regressed" from "could not compare"
/// without scraping output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateOutcome {
    /// A comparable baseline existed and nothing regressed (or the
    /// baseline was cross-host: informational only).
    Pass,
    /// At least one scenario regressed beyond the threshold against a
    /// same-host baseline.
    Regressed,
    /// The baseline file is missing, unreadable, or contains no
    /// scenarios — the gate cannot compare. This must be loud (its own
    /// exit code and step-summary note), not a silent pass: a gate that
    /// quietly skips itself protects nothing.
    NoBaseline,
}

impl GateOutcome {
    /// Process exit code: 0 = pass, 1 = regressed, 3 = no usable
    /// baseline. (2 stays reserved for usage/IO errors.)
    pub fn exit_code(self) -> u8 {
        match self {
            GateOutcome::Pass => 0,
            GateOutcome::Regressed => 1,
            GateOutcome::NoBaseline => 3,
        }
    }
}

/// Run the whole gate decision: `baseline` is `None` when the baseline
/// file could not be read at all. Returns the outcome plus the Markdown
/// report destined for the step summary.
pub fn gate(
    baseline: Option<&ParsedRun>,
    current: &ParsedRun,
    threshold: f64,
) -> (GateOutcome, String) {
    let usable = baseline.filter(|b| !b.scenarios.is_empty());
    let Some(baseline) = usable else {
        let why = match baseline {
            None => "the baseline file is missing or unreadable",
            Some(_) => "the baseline file contains no scenarios (corrupt or wrong format)",
        };
        let report = format!(
            "## Rundown perf gate\n\n**NO BASELINE** — {why}; \
             the perf gate could not compare this run against anything. \
             Current measurements were recorded and uploaded as the next \
             baseline.\n"
        );
        return (GateOutcome::NoBaseline, report);
    };
    let rows = compare(baseline, current);
    let report = markdown_report(baseline, current, &rows, threshold);
    let outcome = if !regressions(&rows, threshold).is_empty() && !host_mismatch(baseline, current)
    {
        GateOutcome::Regressed
    } else {
        GateOutcome::Pass
    };
    (outcome, report)
}

/// Render the comparison as a Markdown document: verdict, host caveat
/// when fingerprints differ, and the per-scenario table.
pub fn markdown_report(
    baseline: &ParsedRun,
    current: &ParsedRun,
    rows: &[Row],
    threshold: f64,
) -> String {
    let mut out = String::new();
    let bad = regressions(rows, threshold);
    let cross_host = host_mismatch(baseline, current);
    out.push_str("## Rundown perf gate\n\n");
    if bad.is_empty() {
        out.push_str(&format!(
            "**PASS** — no scenario regressed beyond {:.0} % (threshold ratio {threshold}).\n\n",
            (threshold - 1.0) * 100.0
        ));
    } else if cross_host {
        // the gate won't fail on a foreign baseline, so don't say FAIL
        out.push_str(&format!(
            "**INFORMATIONAL** — {} scenario(s) exceed the {:.0} % threshold, but the \
             baseline is from a different host class, so the gate does not fail.\n\n",
            bad.len(),
            (threshold - 1.0) * 100.0
        ));
    } else {
        out.push_str(&format!(
            "**FAIL** — {} scenario(s) regressed beyond {:.0} %.\n\n",
            bad.len(),
            (threshold - 1.0) * 100.0
        ));
    }
    if cross_host {
        let b = baseline.host.as_deref().unwrap_or("unrecorded");
        let c = current.host.as_deref().unwrap_or("unrecorded");
        out.push_str(&format!(
            "> ⚠ cross-host comparison (baseline `{b}`, current `{c}`): \
             ratios are indicative only.\n\n"
        ));
    }
    // A baseline scenario the current run never measured is a hole in
    // the gate's coverage, not a pass: say so loudly (non-fatal — a
    // rename or deliberate removal is legitimate, but it must be a
    // visible decision, not a silent one).
    let missing: Vec<&str> = rows
        .iter()
        .filter(|r| r.current_ms.is_none())
        .map(|r| r.name.as_str())
        .collect();
    if !missing.is_empty() {
        out.push_str(&format!(
            "> ⚠ **MISSING SCENARIOS** — {} baseline scenario(s) were not measured in \
             this run: {}. The gate cannot see regressions in scenarios it does not \
             measure; if the removal or rename was intentional, the next baseline \
             refresh clears this warning.\n\n",
            missing.len(),
            missing
                .iter()
                .map(|n| format!("`{n}`"))
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    // The symmetric hole: a scenario the current run measured that the
    // baseline never did has no ratio, so the gate silently ignores it
    // until the baseline is refreshed. Also non-fatal, also loud.
    let fresh: Vec<&str> = rows
        .iter()
        .filter(|r| r.baseline_ms.is_none())
        .map(|r| r.name.as_str())
        .collect();
    if !fresh.is_empty() {
        out.push_str(&format!(
            "> ⚠ **NEW SCENARIOS** — {} scenario(s) in this run have no baseline \
             entry: {}. They are reported without a ratio and cannot gate until \
             the next baseline refresh records them.\n\n",
            fresh.len(),
            fresh
                .iter()
                .map(|n| format!("`{n}`"))
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    out.push_str("| scenario | baseline ms | current ms | ratio | verdict |\n");
    out.push_str("|---|---:|---:|---:|---|\n");
    for r in rows {
        let (ratio, verdict) = match r.ratio() {
            Some(x) if x > threshold => (format!("{x:.3}"), "❌ regressed"),
            Some(x) if x < 1.0 / threshold => (format!("{x:.3}"), "🚀 improved"),
            Some(x) => (format!("{x:.3}"), "✓ ok"),
            None if r.baseline_ms.is_none() => ("—".to_string(), "new scenario"),
            None => ("—".to_string(), "removed"),
        };
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} |\n",
            r.name,
            fmt_ms(r.baseline_ms),
            fmt_ms(r.current_ms),
            ratio,
            verdict
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(host: &str, pairs: &[(&str, f64)]) -> String {
        let mut s = String::from("{\n  \"schema\": \"pax-bench-rundown/v1\",\n");
        s.push_str(&format!("  \"host\": \"{host}\",\n  \"scenarios\": [\n"));
        for (n, ms) in pairs {
            s.push_str(&format!(
                "    {{\n      \"name\": \"{n}\",\n      \"events\": 5,\n      \
                 \"wall_ms\": {ms},\n      \"speedup_vs_baseline\": null\n    }},\n"
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// One headline scenario as the rundown harness measures it.
    fn headline() -> crate::rundown::RundownMeasurement {
        crate::rundown::RundownMeasurement {
            name: "identity_1e4_t1".into(),
            shape: "identity",
            granules: 16,
            task_size: 1,
            events: 10,
            tasks: 5,
            makespan: 100,
            wall_ms: 4.25,
            events_per_sec: 1000.0,
        }
    }

    #[test]
    fn parses_names_hosts_and_wall_ms() {
        let p = parse_rundown(&sample("h1/2cpu/x", &[("a", 1.5), ("b", 2.0)]));
        assert_eq!(p.host.as_deref(), Some("h1/2cpu/x"));
        assert_eq!(
            p.scenarios,
            vec![("a".to_string(), 1.5), ("b".to_string(), 2.0)]
        );
    }

    #[test]
    fn parses_checked_in_format_without_host() {
        // pre-v2 files had no host field
        let json = "{\n  \"schema\": \"x\",\n  \"scenarios\": [\n    {\n      \
                    \"name\": \"s\",\n      \"wall_ms\": 7.500,\n    }\n  ]\n}\n";
        let p = parse_rundown(json);
        assert_eq!(p.host, None);
        assert_eq!(p.scenarios, vec![("s".to_string(), 7.5)]);
    }

    #[test]
    fn flags_only_regressions_beyond_threshold() {
        let base = parse_rundown(&sample("h", &[("a", 10.0), ("b", 10.0), ("c", 10.0)]));
        let cur = parse_rundown(&sample("h", &[("a", 12.4), ("b", 12.6), ("c", 3.0)]));
        let rows = compare(&base, &cur);
        let bad = regressions(&rows, 1.25);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].name, "b");
    }

    #[test]
    fn new_and_removed_scenarios_never_fail_the_gate() {
        let base = parse_rundown(&sample("h", &[("gone", 10.0), ("kept", 5.0)]));
        let cur = parse_rundown(&sample("h", &[("kept", 5.5), ("fresh", 99.0)]));
        let rows = compare(&base, &cur);
        assert!(regressions(&rows, 1.25).is_empty());
        let report = markdown_report(&base, &cur, &rows, 1.25);
        assert!(report.contains("new scenario"));
        assert!(report.contains("removed"));
        assert!(report.contains("**PASS**"));
    }

    #[test]
    fn missing_baseline_scenarios_warn_loudly_but_do_not_fail() {
        // A scenario present in the baseline but absent from the current
        // run used to slip through as a quiet table row; it must be a
        // loud step-summary warning while staying non-fatal.
        let base = parse_rundown(&sample(
            "h/1cpu/x",
            &[("kept", 10.0), ("gone_a", 5.0), ("gone_b", 7.0)],
        ));
        let cur = parse_rundown(&sample("h/1cpu/x", &[("kept", 10.2)]));
        let (outcome, report) = gate(Some(&base), &cur, 1.25);
        assert_eq!(
            outcome,
            GateOutcome::Pass,
            "missing scenarios are non-fatal"
        );
        assert!(report.contains("**MISSING SCENARIOS**"), "{report}");
        assert!(report.contains("2 baseline scenario(s)"), "{report}");
        assert!(
            report.contains("`gone_a`") && report.contains("`gone_b`"),
            "{report}"
        );
        // a run measuring everything emits no such warning
        let full = parse_rundown(&sample(
            "h/1cpu/x",
            &[("kept", 10.0), ("gone_a", 5.0), ("gone_b", 7.0)],
        ));
        let (_, clean) = gate(Some(&base), &full, 1.25);
        assert!(!clean.contains("MISSING SCENARIOS"), "{clean}");
    }

    #[test]
    fn new_scenarios_warn_loudly_but_do_not_fail() {
        // The mirror image: a scenario measured now but absent from the
        // baseline has no ratio and must be called out, not buried in an
        // `n/a` table row — while staying non-fatal.
        let base = parse_rundown(&sample("h/1cpu/x", &[("kept", 10.0)]));
        let cur = parse_rundown(&sample(
            "h/1cpu/x",
            &[("kept", 10.2), ("fresh_a", 3.0), ("fresh_b", 4.0)],
        ));
        let (outcome, report) = gate(Some(&base), &cur, 1.25);
        assert_eq!(outcome, GateOutcome::Pass, "new scenarios are non-fatal");
        assert!(report.contains("**NEW SCENARIOS**"), "{report}");
        assert!(report.contains("2 scenario(s)"), "{report}");
        assert!(
            report.contains("`fresh_a`") && report.contains("`fresh_b`"),
            "{report}"
        );
        // a fully-recorded baseline emits no such warning
        let full = parse_rundown(&sample(
            "h/1cpu/x",
            &[("kept", 10.0), ("fresh_a", 3.0), ("fresh_b", 4.0)],
        ));
        let (_, clean) = gate(Some(&full), &cur, 1.25);
        assert!(!clean.contains("NEW SCENARIOS"), "{clean}");
    }

    #[test]
    fn cross_host_comparison_is_called_out() {
        let base = parse_rundown(&sample("host-a/1cpu/x", &[("a", 10.0)]));
        let cur = parse_rundown(&sample("host-b/8cpu/y", &[("a", 20.0)]));
        let rows = compare(&base, &cur);
        let report = markdown_report(&base, &cur, &rows, 1.25);
        assert!(report.contains("cross-host comparison"));
        // the gate never fails on a foreign baseline, so the headline
        // must not claim failure
        assert!(report.contains("**INFORMATIONAL**"));
        assert!(!report.contains("**FAIL**"));
    }

    #[test]
    fn unknown_host_provenance_is_treated_as_cross_host() {
        // pre-fingerprint-era artifact: no "host" field at all
        let old = parse_rundown(
            "{\n  \"schema\": \"x\",\n  \"scenarios\": [\n    {\n      \
             \"name\": \"a\",\n      \"wall_ms\": 10.0,\n    }\n  ]\n}\n",
        );
        let cur = parse_rundown(&sample("h/1cpu/x", &[("a", 20.0)]));
        assert!(host_mismatch(&old, &cur));
        let rows = compare(&old, &cur);
        let report = markdown_report(&old, &cur, &rows, 1.25);
        assert!(report.contains("**INFORMATIONAL**"), "{report}");
        assert!(report.contains("`unrecorded`"), "{report}");
        // matching fingerprints keep the gate strict
        let same = parse_rundown(&sample("h/1cpu/x", &[("a", 10.0)]));
        assert!(!host_mismatch(&same, &cur));
    }

    #[test]
    fn gate_missing_baseline_is_a_distinct_loud_outcome() {
        let cur = parse_rundown(&sample("h/1cpu/x", &[("a", 10.0)]));
        // unreadable baseline file
        let (outcome, report) = gate(None, &cur, 1.25);
        assert_eq!(outcome, GateOutcome::NoBaseline);
        assert_eq!(outcome.exit_code(), 3);
        assert!(report.contains("**NO BASELINE**"), "{report}");
        assert!(report.contains("missing or unreadable"), "{report}");
        // readable but corrupt: parses to zero scenarios
        let corrupt = parse_rundown("{ \"scenarios\": [ garbage\n");
        let (outcome, report) = gate(Some(&corrupt), &cur, 1.25);
        assert_eq!(outcome, GateOutcome::NoBaseline);
        assert!(report.contains("no scenarios"), "{report}");
    }

    #[test]
    fn gate_pass_and_regressed_exit_codes() {
        let base = parse_rundown(&sample("h/1cpu/x", &[("a", 10.0), ("b", 10.0)]));
        let ok = parse_rundown(&sample("h/1cpu/x", &[("a", 10.5), ("b", 9.0)]));
        let (outcome, report) = gate(Some(&base), &ok, 1.25);
        assert_eq!(outcome, GateOutcome::Pass);
        assert_eq!(outcome.exit_code(), 0);
        assert!(report.contains("**PASS**"));
        let bad = parse_rundown(&sample("h/1cpu/x", &[("a", 20.0), ("b", 9.0)]));
        let (outcome, report) = gate(Some(&base), &bad, 1.25);
        assert_eq!(outcome, GateOutcome::Regressed);
        assert_eq!(outcome.exit_code(), 1);
        assert!(report.contains("**FAIL**"));
        // cross-host regressions stay informational (exit 0)
        let foreign = parse_rundown(&sample("other/8cpu/y", &[("a", 50.0)]));
        let (outcome, report) = gate(Some(&base), &foreign, 1.25);
        assert_eq!(outcome, GateOutcome::Pass);
        assert!(report.contains("**INFORMATIONAL**"));
    }

    #[test]
    fn real_emitter_output_round_trips() {
        // the gate must understand whatever rundown::to_json writes
        let m = headline();
        let p = parse_rundown(&crate::rundown::to_json_full(
            &[m],
            &[],
            &[],
            &[],
            &[],
            &[],
            "ci-runner/4cpu/x86_64",
        ));
        assert_eq!(p.host.as_deref(), Some("ci-runner/4cpu/x86_64"));
        assert_eq!(p.scenarios, vec![("identity_1e4_t1".to_string(), 4.25)]);
    }

    #[test]
    fn service_scaling_rows_are_gated_by_scenario_and_shard_count() {
        let headline = headline();
        let service = |shards: usize, wall_ms: f64| crate::rundown::ServiceScalingMeasurement {
            scenario: "service_hot_8g".into(),
            mean_gap: 200,
            shards,
            groups: 8,
            jobs: 100,
            completed: 100,
            rejected: 0,
            latency_p50: 7,
            latency_p99: 9,
            jobs_per_ktick: 1.0,
            instances_peak: 4,
            events: 1000,
            makespan: 500,
            wall_ms,
            events_per_sec: 1.0,
        };
        let emit = |rows: &[crate::rundown::ServiceScalingMeasurement]| {
            let json = crate::rundown::to_json_full(
                std::slice::from_ref(&headline),
                &[],
                &[],
                &[],
                rows,
                &[],
                "ci-runner/4cpu/x86_64",
            );
            parse_rundown(&json)
        };
        let base = emit(&[service(1, 40.0), service(2, 50.0)]);
        assert_eq!(
            base.scenarios,
            vec![
                ("service_scaling/service_hot_8g/shards=1".to_string(), 40.0),
                ("service_scaling/service_hot_8g/shards=2".to_string(), 50.0),
                ("identity_1e4_t1".to_string(), 4.25),
            ]
        );
        // a service row that slows down fails the gate on its own
        let slow = emit(&[service(1, 40.0), service(2, 70.0)]);
        let (outcome, report) = gate(Some(&base), &slow, 1.25);
        assert_eq!(outcome, GateOutcome::Regressed);
        assert!(
            report
                .contains("| service_scaling/service_hot_8g/shards=2 | 50.000 | 70.000 | 1.400 |"),
            "{report}"
        );
    }
}
