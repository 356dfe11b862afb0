//! The frozen workload settings from `spec.json`.

use sb_metrics::{parse_json_value, JsonValue};
use std::sync::OnceLock;

pub struct ServeSpec {
    pub queue_cap: usize,
    pub cache_cap: usize,
    pub min_nominal_ops: usize,
    pub saturation_ops: usize,
    pub saturation_slices: usize,
    pub window_per_core: usize,
}

pub struct Workload {
    pub graphs: Vec<String>,
    /// Generated instances (graph seeds) of each stand-in.
    pub instances: usize,
    pub scale: f64,
    pub nominal_rps: f64,
    pub min_passes: usize,
    pub fresh_seed_every: usize,
    pub want_solution_every: usize,
    pub mutate_problems: Vec<(String, String)>,
    pub streams: usize,
    pub batch_cycle: Vec<usize>,
    pub rebase_log_edits: usize,
}

pub struct Spec {
    pub holdout_seed: u64,
    pub setup_reps: usize,
    pub problems: Vec<(String, String)>,
    pub archs: Vec<String>,
    pub serve: ServeSpec,
    pub cold: Workload,
    pub solve: Workload,
    pub mutate: Workload,
}

fn num(v: &JsonValue, key: &str) -> f64 {
    v.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0)
}

fn strs(v: &JsonValue, key: &str) -> Vec<String> {
    v.get(key)
        .and_then(JsonValue::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|s| s.as_str().map(String::from))
        .collect()
}

fn nums(v: &JsonValue, key: &str) -> Vec<f64> {
    v.get(key)
        .and_then(JsonValue::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(JsonValue::as_f64)
        .collect()
}

fn pairs(v: &JsonValue, key: &str) -> Vec<(String, String)> {
    v.get(key)
        .and_then(JsonValue::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|p| {
            let p = p.as_arr()?;
            Some((
                p.first()?.as_str()?.to_string(),
                p.get(1)?.as_str()?.to_string(),
            ))
        })
        .collect()
}

fn workload(doc: &JsonValue, name: &str) -> Workload {
    let w = doc
        .get("workloads")
        .and_then(|ws| ws.get(name))
        .unwrap_or_else(|| panic!("spec.json has no workload {name}"));
    Workload {
        graphs: strs(w, "graphs"),
        instances: num(w, "instances") as usize,
        scale: num(w, "scale"),
        nominal_rps: num(w, "nominal_rps"),
        min_passes: num(w, "min_passes") as usize,
        fresh_seed_every: num(w, "fresh_seed_every") as usize,
        want_solution_every: num(w, "want_solution_every") as usize,
        mutate_problems: pairs(w, "mutate_problems"),
        streams: num(w, "streams") as usize,
        batch_cycle: nums(w, "batch_cycle")
            .into_iter()
            .map(|x| x as usize)
            .collect(),
        rebase_log_edits: num(w, "rebase_log_edits") as usize,
    }
}

fn load() -> Spec {
    let doc = parse_json_value(include_str!("../spec.json")).expect("spec.json is valid JSON");
    let s = doc.get("serve").expect("spec.json has a serve block");
    Spec {
        holdout_seed: num(&doc, "holdout_seed") as u64,
        setup_reps: (num(&doc, "setup_reps") as usize).max(1),
        problems: pairs(&doc, "problems"),
        archs: strs(&doc, "archs"),
        serve: ServeSpec {
            queue_cap: num(s, "queue_cap") as usize,
            cache_cap: num(s, "cache_cap") as usize,
            min_nominal_ops: num(s, "min_nominal_ops") as usize,
            saturation_ops: num(s, "saturation_ops") as usize,
            saturation_slices: (num(s, "saturation_slices") as usize).max(1),
            window_per_core: num(s, "window_per_core") as usize,
        },
        cold: workload(&doc, "cold-solve"),
        solve: workload(&doc, "serve-solve"),
        mutate: workload(&doc, "serve-mutate"),
    }
}

/// The compiled-in settings.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(load)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_is_complete() {
        let s = spec();
        assert_eq!(s.problems.len(), 6);
        assert_eq!(s.archs, ["cpu", "gpu"]);
        assert_eq!(s.cold.graphs.len(), 4);
        assert_eq!(s.solve.graphs, s.cold.graphs);
        assert!(s.solve.nominal_rps > 0.0 && s.mutate.nominal_rps > 0.0);
        assert!(s.serve.min_nominal_ops >= 1000 && s.serve.saturation_ops > 0);
        assert!(s.serve.window_per_core > 0);
        assert_eq!(s.mutate.mutate_problems.len(), 3);
        assert!(s.mutate.batch_cycle.contains(&100));
        assert_ne!(s.holdout_seed, 0);
    }
}
