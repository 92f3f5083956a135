//! `golden.json`: the simulated results each workload must reproduce
//! exactly for the seeds it records.

use crate::json::Json;
use crate::workloads::Signature;
use std::path::Path;

/// The simulated, exact metrics of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimMetrics {
    pub utilization: f64,
    pub makespan_ticks: u64,
    pub latency_p99_ticks: u64,
    pub jobs_per_ktick: f64,
    pub overlap_gain: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    pub workload: String,
    pub seed: u64,
    pub quick: bool,
    pub signature: Signature,
    pub sim: SimMetrics,
}

/// Seeds `golden.json` records; any other seed is checked by driver
/// agreement alone.
pub const GOLDEN_SEEDS: [u64; 2] = [7, 11];

const SCHEMA: &str = "pax-benchmark-golden/v1";

fn size_name(quick: bool) -> &'static str {
    if quick {
        "quick"
    } else {
        "full"
    }
}

pub fn to_json(entries: &[Entry]) -> Json {
    let entries = entries.iter().map(|e| {
        Json::obj([
            ("workload", Json::str(&*e.workload)),
            ("seed", Json::Int(e.seed)),
            ("size", Json::str(size_name(e.quick))),
            ("events", Json::Int(e.signature.events)),
            ("makespan_ticks", Json::Int(e.sim.makespan_ticks)),
            ("utilization", Json::Num(e.sim.utilization)),
            ("latency_p99_ticks", Json::Int(e.sim.latency_p99_ticks)),
            ("jobs_per_ktick", Json::Num(e.sim.jobs_per_ktick)),
            ("overlap_gain", Json::Num(e.sim.overlap_gain)),
            // A 64-bit hash does not fit a JSON number exactly.
            (
                "fingerprint",
                Json::Str(format!("{:016x}", e.signature.fingerprint)),
            ),
        ])
    });
    Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("entries", Json::Arr(entries.collect())),
    ])
}

pub fn from_json(doc: &Json) -> Result<Vec<Entry>, String> {
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("golden file is not {SCHEMA}"));
    }
    let Some(Json::Arr(items)) = doc.get("entries") else {
        return Err("golden file has no entries array".into());
    };
    items.iter().map(entry_from_json).collect()
}

fn entry_from_json(item: &Json) -> Result<Entry, String> {
    let field = |key: &str| {
        item.get(key)
            .ok_or_else(|| format!("golden entry lacks '{key}'"))
    };
    let int = |key: &str| {
        let v = field(key)?.as_u64();
        v.ok_or_else(|| format!("golden '{key}' is not a whole number"))
    };
    let real = |key: &str| {
        let v = field(key)?.as_f64();
        v.ok_or_else(|| format!("golden '{key}' is not a number"))
    };
    let text = |key: &str| {
        let v = field(key)?.as_str();
        v.ok_or_else(|| format!("golden '{key}' is not a string"))
    };
    let makespan_ticks = int("makespan_ticks")?;
    Ok(Entry {
        workload: text("workload")?.to_string(),
        seed: int("seed")?,
        quick: match text("size")? {
            "quick" => true,
            "full" => false,
            other => return Err(format!("golden size '{other}' is neither quick nor full")),
        },
        signature: Signature {
            events: int("events")?,
            makespan: makespan_ticks,
            fingerprint: u64::from_str_radix(text("fingerprint")?, 16)
                .map_err(|_| "golden fingerprint is not hexadecimal".to_string())?,
        },
        sim: SimMetrics {
            utilization: real("utilization")?,
            makespan_ticks,
            latency_p99_ticks: int("latency_p99_ticks")?,
            jobs_per_ktick: real("jobs_per_ktick")?,
            overlap_gain: real("overlap_gain")?,
        },
    })
}

pub fn load(path: &Path) -> Result<Vec<Entry>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    from_json(&Json::parse(&text)?)
}

pub fn save(path: &Path, entries: &[Entry]) -> Result<(), String> {
    std::fs::write(path, to_json(entries).to_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))
}

pub fn find<'a>(entries: &'a [Entry], workload: &str, seed: u64, quick: bool) -> Option<&'a Entry> {
    entries
        .iter()
        .find(|e| e.workload == workload && e.seed == seed && e.quick == quick)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_survive_the_file_format_exactly() {
        let entry = Entry {
            workload: "batch_casper".into(),
            seed: 11,
            quick: true,
            signature: Signature {
                events: 170_123,
                makespan: 1_234_567,
                fingerprint: 0xFEDC_BA98_7654_3210,
            },
            sim: SimMetrics {
                utilization: 0.915_234_567_891,
                makespan_ticks: 1_234_567,
                latency_p99_ticks: 1_234_567,
                jobs_per_ktick: 1_000.0 / 1_234_567.0,
                overlap_gain: 1.064_5,
            },
        };
        let text = to_json(std::slice::from_ref(&entry)).to_pretty();
        let back = from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, std::slice::from_ref(&entry));
        assert_eq!(find(&back, "batch_casper", 11, true), Some(&entry));
        assert_eq!(find(&back, "batch_casper", 11, false), None);
        assert_eq!(find(&back, "batch_casper", 7, true), None);
    }

    #[test]
    fn a_foreign_or_damaged_file_is_refused() {
        assert!(from_json(&Json::obj([("schema", Json::str("other"))])).is_err());
        let no_entries = Json::obj([("schema", Json::str(SCHEMA))]);
        assert!(from_json(&no_entries).is_err());
        let bad = Json::obj([
            ("schema", Json::str(SCHEMA)),
            (
                "entries",
                Json::Arr(vec![Json::obj([("workload", Json::Int(1))])]),
            ),
        ]);
        assert!(from_json(&bad).is_err());
    }
}
