//! # ehdl-bench — the experiment harness
//!
//! One binary per table/figure of the paper plus the simulator's
//! throughput and overhead benches, the [`perf`] harness those benches
//! share, and [`micro`] wall-clock microbenches for the hot kernels
//! (`cargo bench` — self-contained, no external harness). The paper
//! binaries print the same rows/series the paper reports, with the
//! paper's numbers alongside for comparison; the benches record their
//! entry of `BENCH_fleet.json` (see [`record_bench_entry`]).
//!
//! | Binary | Regenerates or measures |
//! |---|---|
//! | `table1_bcm_compression` | Table I |
//! | `table2_models` | Table II |
//! | `fig7a_continuous` | Figure 7(a) |
//! | `fig7b_intermittent` | Figure 7(b) |
//! | `fig7c_energy` | Figure 7(c) |
//! | `fig8_fc_blocksize` | Figure 8(a,b) |
//! | `checkpoint_overhead` | §IV-A.5 |
//! | `fig6_rollback_demo` | Figure 6 (mechanism) |
//! | `ablations` | the cost of each ACE/FLEX design choice |
//! | `monitor_sensitivity` | FLEX under a swept voltage-monitor warn threshold |
//! | `perf_grid` | plan speedup and probe, fault and integrity overhead on one grid |
//! | `dark_solver` | analytic dark-phase fast-forward vs 1 ms stepping |
//! | `fleet_sweep` | scenario-matrix sweep scaling and streaming digests |
//! | `fleet_shard` | sharded-sweep scaling and crash recovery |
//! | `gateway_sweep` | a thousand-device networked fleet and its gateway SLOs |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod micro;
pub mod perf;

use ehdl::datasets::Dataset;
use ehdl::nn::{Model, Tensor};
use ehdl_fleet::Json;

/// Prints a separator header for a report section.
pub fn section(title: &str) {
    println!("\n==== {title} ====");
}

/// Formats a reproduced-vs-paper factor pair.
pub fn vs_paper(label: &str, measured: f64, paper: f64) -> String {
    format!("{label}: measured {measured:.2}x (paper {paper:.1}x)")
}

/// Training pairs from a dataset.
pub fn pairs_of(data: &Dataset) -> Vec<(Tensor, usize)> {
    data.samples()
        .iter()
        .map(|s| (s.input.clone(), s.label))
        .collect()
}

/// The three Table II models with their synthetic datasets and the
/// paper's reported accuracies.
pub fn workloads(n: usize, seed: u64) -> Vec<(Model, Dataset, f64)> {
    vec![
        (ehdl::nn::zoo::mnist(), ehdl::datasets::mnist(n, seed), 0.99),
        (ehdl::nn::zoo::har(), ehdl::datasets::har(n, seed), 0.89),
        (ehdl::nn::zoo::okg(), ehdl::datasets::okg(n, seed), 0.82),
    ]
}

/// `--quick` flag helper for CI-friendly runs.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// The machine-readable bench file the bench binaries record into,
/// relative to the directory they run from (the repo root).
pub const BENCH_FILE: &str = "BENCH_fleet.json";

/// Records `fields` (each value one JSON token, e.g. `"0.5"`,
/// `"[1, 2]"` or `"\"text\""`) as the `name` entry of [`BENCH_FILE`],
/// led by the `git_rev` (short `HEAD`, marked `-dirty` when the tree
/// differs from it) and `nproc` it was measured on, and says where it
/// went. An entry with `quick` set to `true` is a CI smoke on a
/// shrunken grid, so it is never written: a quick run must not replace
/// the full-grid numbers.
pub fn record_bench_entry<K: AsRef<str>>(name: &str, fields: &[(K, String)]) {
    let members: Result<Members, _> = fields
        .iter()
        .map(|(k, v)| Json::parse(v).map(|v| (k.as_ref().to_string(), v)))
        .collect();
    let Ok(members) = members else {
        eprintln!("the {name} entry has a non-JSON value; {BENCH_FILE} is left unchanged");
        return;
    };
    if members.contains(&("quick".to_string(), Json::Bool(true))) {
        println!("quick run: the {name} entry of {BENCH_FILE} is left unchanged");
        return;
    }
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let members = stamp_entry(members, &git_rev(), nproc);
    match upsert_bench_json(BENCH_FILE, name, members) {
        Ok(()) => println!("wrote the {name} entry of {BENCH_FILE}"),
        Err(e) => eprintln!("could not write {BENCH_FILE}: {e}"),
    }
}

/// One bench-file entry: an object's members in document order.
type Members = Vec<(String, Json)>;

/// `members` led by `git_rev` and `nproc`, replacing any earlier
/// values of those two keys.
fn stamp_entry(mut members: Members, git_rev: &str, nproc: usize) -> Members {
    members.retain(|(k, _)| k != "git_rev" && k != "nproc");
    let stamp = [
        ("git_rev".to_string(), Json::Str(git_rev.to_string())),
        ("nproc".to_string(), Json::Num(nproc.to_string())),
    ];
    stamp.into_iter().chain(members).collect()
}

/// The short revision of `HEAD`, suffixed `-dirty` when a tracked file
/// other than [`BENCH_FILE`] differs from it (a bench run rewrites that
/// file itself), or `"unknown"` when git cannot tell.
fn git_rev() -> String {
    let git = |args: &[&str]| {
        let out = std::process::Command::new("git").args(args).output().ok()?;
        let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
        out.status.success().then_some(text)
    };
    let code = format!(":(top,exclude){BENCH_FILE}");
    match (
        git(&["rev-parse", "--short=7", "HEAD"]),
        git(&["status", "--porcelain", "-uno", "--", &code]),
    ) {
        (Some(rev), Some(changes)) if changes.is_empty() => rev,
        (Some(rev), _) => format!("{rev}-dirty"),
        (None, _) => "unknown".to_string(),
    }
}

/// Inserts or replaces one named entry in a machine-readable bench file
/// shaped `{"name": { ... }, ...}`, so independent bench binaries can
/// each own an entry without clobbering the others. Existing entries are
/// kept in order, and a file that is not such an object of objects is
/// started fresh.
fn upsert_bench_json(path: &str, name: &str, entry: Members) -> std::io::Result<()> {
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let mut entries = parse_bench_entries(&existing);
    match entries.iter_mut().find(|(k, _)| k == name) {
        Some((_, v)) => *v = entry,
        None => entries.push((name.to_string(), entry)),
    }
    std::fs::write(path, render_bench_entries(&entries))
}

/// The top-level `"name": { ... }` entries of a bench file, or nothing
/// when the file is not a JSON object whose members are all objects
/// (including the legacy single-object layout).
fn parse_bench_entries(text: &str) -> Vec<(String, Members)> {
    let Ok(Json::Obj(entries)) = Json::parse(text.trim()) else {
        return Vec::new();
    };
    entries
        .into_iter()
        .map(|(name, entry)| match entry {
            Json::Obj(members) => Some((name, members)),
            _ => None,
        })
        .collect::<Option<_>>()
        .unwrap_or_default()
}

/// Writes entries as `{"name": {member per line}, ...}` with every
/// member value inline.
fn render_bench_entries(entries: &[(String, Members)]) -> String {
    let mut out = String::from("{\n");
    for (i, (name, members)) in entries.iter().enumerate() {
        out.push_str(&format!("  {}: {{", quoted(name)));
        for (j, (k, v)) in members.iter().enumerate() {
            out.push_str(if j == 0 { "\n" } else { ",\n" });
            out.push_str(&format!("    {}: {}", quoted(k), inline(v)));
        }
        if !members.is_empty() {
            out.push_str("\n  ");
        }
        out.push('}');
        out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    out
}

/// One JSON value on one line; numbers keep their original token.
fn inline(v: &Json) -> String {
    let join = |items: Vec<String>| items.join(", ");
    match v {
        Json::Null => "null".to_string(),
        Json::Bool(b) => b.to_string(),
        Json::Num(raw) => raw.clone(),
        Json::Str(s) => quoted(s),
        Json::Arr(items) => format!("[{}]", join(items.iter().map(inline).collect())),
        Json::Obj(members) => format!(
            "{{{}}}",
            join(
                members
                    .iter()
                    .map(|(k, v)| format!("{}: {}", quoted(k), inline(v)))
                    .collect()
            )
        ),
    }
}

fn quoted(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_cover_three_tasks() {
        let w = workloads(6, 1);
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].1.classes(), 10);
        assert_eq!(w[1].1.classes(), 6);
        assert_eq!(w[2].1.classes(), 12);
    }

    #[test]
    fn vs_paper_formats() {
        let s = vs_paper("speedup", 3.9, 4.0);
        assert!(s.contains("3.90x") && s.contains("4.0x"));
    }

    #[test]
    fn pairs_match_dataset_len() {
        let d = ehdl::datasets::har(10, 2);
        assert_eq!(pairs_of(&d).len(), 10);
    }

    #[test]
    fn bench_entries_round_trip() {
        let text = "{\n  \"a\": {\n    \"x\": 1\n  },\n  \"b\": {\"y\": 2.5}\n}\n";
        let entries = parse_bench_entries(text);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].0, "a");
        assert_eq!(
            entries[1].1,
            vec![("y".to_string(), Json::Num("2.5".into()))]
        );
        // Legacy flat layouts (non-object values) start fresh.
        assert!(parse_bench_entries("{\n  \"bench\": \"exec_plan\"\n}").is_empty());
        assert!(parse_bench_entries("not json").is_empty());
    }

    #[test]
    fn rendering_a_bench_file_is_canonical() {
        // The committed layout re-renders byte for byte, number tokens
        // and inline arrays included; braces inside strings (which the
        // old brace counter would have miscounted) survive.
        let text = concat!(
            "{\n",
            "  \"gateway_sweep\": {\n",
            "    \"quick\": false,\n",
            "    \"sweep_seconds\": 1.725539,\n",
            "    \"workers\": [1, 2, 4],\n",
            "    \"note\": \"a } in \\\"text\\\" {\",\n",
            "    \"digest_checksum\": \"d1c4e357fc063337\"\n",
            "  },\n",
            "  \"empty\": {}\n",
            "}\n"
        );
        let entries = parse_bench_entries(text);
        assert_eq!(entries.len(), 2);
        assert_eq!(render_bench_entries(&entries), text);
    }

    #[test]
    fn the_committed_bench_file_is_canonical() {
        // Recording one entry must not reformat the others.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../", "BENCH_fleet.json");
        let text = std::fs::read_to_string(path).unwrap();
        let entries = parse_bench_entries(&text);
        assert!(!entries.is_empty());
        assert_eq!(render_bench_entries(&entries), text);
    }

    #[test]
    fn stamping_leads_with_rev_and_core_count() {
        let num = |n: &str| Json::Num(n.into());
        let members = vec![
            ("quick".to_string(), Json::Bool(false)),
            ("nproc".to_string(), num("64")),
            ("x".to_string(), num("1")),
            ("git_rev".to_string(), Json::Str("old".into())),
        ];
        assert_eq!(
            stamp_entry(members, "abc1234", 2),
            vec![
                ("git_rev".to_string(), Json::Str("abc1234".into())),
                ("nproc".to_string(), num("2")),
                ("quick".to_string(), Json::Bool(false)),
                ("x".to_string(), num("1")),
            ]
        );
    }

    #[test]
    fn upsert_replaces_and_appends() {
        let path = std::env::temp_dir().join("ehdl_bench_upsert_test.json");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);
        let v = |n: &str| vec![("v".to_string(), Json::Num(n.into()))];
        upsert_bench_json(path, "first", v("1")).unwrap();
        upsert_bench_json(path, "second", v("2")).unwrap();
        upsert_bench_json(path, "first", v("3")).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        assert_eq!(
            text,
            "{\n  \"first\": {\n    \"v\": 3\n  },\n  \"second\": {\n    \"v\": 2\n  }\n}\n"
        );
        std::fs::remove_file(path).unwrap();
    }
}
