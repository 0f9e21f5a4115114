//! The workload and metric names the runner prints must be exactly the ones
//! `BENCHMARK.json` declares, in the same order and with the same units.

use std::process::Command;

/// The `(name, unit)` objects of one top-level array of `BENCHMARK.json`
/// (`unit` is empty for workloads). The file's objects are flat, so a
/// brace-delimited scan is enough.
fn section(json: &str, key: &str) -> Vec<(String, String)> {
    let start =
        json.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no {key} in BENCHMARK.json"));
    let open = start + json[start..].find('[').expect("array opens");
    let close = open + json[open..].find(']').expect("array closes");
    let field = |obj: &str, name: &str| -> String {
        let Some(at) = obj.find(&format!("\"{name}\"")) else { return String::new() };
        let rest = &obj[at + name.len() + 2..];
        let q = rest.find('"').expect("value opens") + 1;
        let end = q + rest[q..].find('"').expect("value closes");
        rest[q..end].to_string()
    };
    json[open + 1..close]
        .split('}')
        .filter(|obj| obj.contains('{'))
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

#[test]
fn printed_names_match_benchmark_json() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench")).arg("--list").output().unwrap();
    assert!(out.status.success());
    let listed = String::from_utf8(out.stdout).unwrap();

    let workloads: Vec<String> = listed
        .lines()
        .find_map(|l| l.strip_prefix("workloads: "))
        .expect("workloads line")
        .split(' ')
        .map(str::to_string)
        .collect();
    let declared: Vec<String> = section(&json, "workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, declared);

    for kind in ["end_to_end", "per_layer"] {
        let printed: Vec<(String, String)> = listed
            .lines()
            .filter_map(|l| l.strip_prefix(&format!("{kind} ")))
            .map(|l| {
                let (name, unit) = l.split_once(' ').expect("name and unit");
                (name.to_string(), unit.to_string())
            })
            .collect();
        assert_eq!(printed, section(&json, kind), "{kind} metrics differ from BENCHMARK.json");
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let bench = env!("CARGO_BIN_EXE_perfbench");
    for args in [&["--workload", "nope", "--seed", "1"][..], &["--seed", "1"], &["--workload"]] {
        let out = Command::new(bench).args(args).output().unwrap();
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} must print no result");
    }
}
