//! The runner reproduces the committed baseline's cell set: run under
//! the configuration recorded in `results/BENCH_baseline.json`'s header
//! (one trial), every baseline entry key comes back — no more, no
//! fewer — and every field a baseline entry carries is still present,
//! so the committed baselines stay valid gates.

use bcc_bench::grid::{entry_key, run_grid, CellSet, GridConfig};
use bcc_bench::json::{self, Json};
use std::collections::BTreeMap;

#[test]
fn baseline_configuration_yields_the_same_cells_and_fields() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_baseline.json"
    );
    let baseline = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let header = |k: &str| baseline.get(k).unwrap_or_else(|| panic!("header {k}"));
    let list = |k: &str| header(k).as_arr().unwrap().iter();
    let cfg = GridConfig {
        n: header("n").as_u64().unwrap() as u32,
        threads: list("threads")
            .map(|p| p.as_u64().unwrap() as usize)
            .collect(),
        trials: 1,
        seed: header("seed").as_u64().unwrap(),
        smoke: header("smoke") == &Json::Bool(true),
        workspace: header("workspace").as_str().unwrap().parse().unwrap(),
        input: None,
    };
    let doc = run_grid(&cfg, &CellSet::ALL, |_| {});

    let by_key = |d: &Json| -> BTreeMap<String, Json> {
        let entries = d.get("entries").and_then(Json::as_arr).unwrap();
        let map: BTreeMap<_, _> = entries
            .iter()
            .map(|e| (entry_key(e).unwrap(), e.clone()))
            .collect();
        assert_eq!(map.len(), entries.len(), "duplicate entry keys");
        map
    };
    let (base, cand) = (by_key(&baseline), by_key(&doc));
    let missing: Vec<&String> = base.keys().filter(|k| !cand.contains_key(*k)).collect();
    let extra: Vec<&String> = cand.keys().filter(|k| !base.contains_key(*k)).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "missing {missing:?}, extra {extra:?}"
    );
    for (key, b) in &base {
        for (field, _) in b.as_obj().unwrap() {
            assert!(cand[key].get(field).is_some(), "{key} lost field {field}");
        }
    }
}
