//! Tiny-scale checks of the benchmark itself: every metric named in
//! `BENCHMARK.json` is emitted with its unit, and the committed-digest
//! check can fail.

use esp_check::json::Json;
use esp_perfbench::checks::digest_table;
use esp_perfbench::{run, RunSpec, Workload};

/// Large enough for the estimated modes to sample rather than fall
/// back to exact simulation.
const SCALE: u64 = 100_000;

fn spec(workload: Workload, trace: bool) -> RunSpec {
    RunSpec { workload, seed: 3, seconds: 0.0, trace, scale: SCALE, digests: None }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(Json::as_arr)
        .expect("section is an array")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn workloads_match_benchmark_json() {
    let names: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name").to_string())
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names, ours);
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = declared(section);
        for w in Workload::ALL {
            let r = run(&spec(w, trace));
            assert!(r.failures.is_empty(), "{} trace={trace}: {:?}", w.name(), r.failures);
            assert!(r.attempted > 0);
            let got: Vec<(String, String)> =
                r.metrics.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect();
            assert_eq!(got, want, "{} trace={trace}", w.name());
            for m in &r.metrics {
                assert!(m.value.is_finite(), "{} {}: {}", w.name(), m.name, m.value);
            }
            if !trace {
                assert!(r.metrics.iter().all(|m| m.value > 0.0), "{}: {:?}", w.name(), r.metrics);
            } else {
                assert!(!r.tracer.spans().is_empty());
            }
        }
    }
}

#[test]
fn a_perturbed_digest_is_exactly_one_failed_cell() {
    let scale = 20_000;
    let seed = 5;
    let table = digest_table(scale, seed);
    let clean = RunSpec {
        workload: Workload::ExactMatrix,
        seed,
        seconds: 0.0,
        trace: false,
        scale,
        digests: Some(table.clone()),
    };
    assert!(run(&clean).failures.is_empty());

    let mut perturbed = table;
    let key = esp_bench::ConfigKey::EspNl;
    let d = perturbed.get("gmaps", key).expect("gmaps/EspNl digest");
    perturbed.insert("gmaps", key, d ^ 1);
    let r = run(&RunSpec { digests: Some(perturbed), ..clean });
    assert_eq!(r.failures.len(), 1, "{:?}", r.failures);
    assert!(r.failures[0].contains("gmaps/EspNl"), "{}", r.failures[0]);
}
