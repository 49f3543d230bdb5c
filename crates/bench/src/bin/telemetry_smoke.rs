//! Telemetry smoke test (run by CI).
//!
//! Runs one scatter reduction under every strategy — dense, maps,
//! atomic, the three block flavors and keeper — prints every `RunReport`
//! as JSON, then re-parses each document with `bench::json` and asserts
//! the pipeline end to end:
//!
//! * the JSON parses and carries all four report sections,
//! * counter totals show the applies actually issued,
//! * per-phase wall times are present and the region time is nonzero,
//! * the reduction result itself is correct.
//!
//! Exits nonzero on any violation, so a strategy that silently stops
//! reporting (or a `to_json` drift the reader can't handle) fails the
//! build rather than producing empty dashboards.

use bench::json::{parse, Json};
use spray::{reduce_dyn, Strategy, Sum};

#[global_allocator]
static ALLOC: memtrack::CountingAlloc = memtrack::CountingAlloc;

fn check(doc: &Json, strategy: Strategy, expected_applies: f64) {
    let label = strategy.label();
    let name = doc
        .get("strategy")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{label}: report lacks a strategy name"));
    assert!(!name.is_empty(), "{label}: empty strategy name");

    let totals = doc
        .get("counters")
        .and_then(|c| c.get("totals"))
        .unwrap_or_else(|| panic!("{label}: report lacks counter totals"));
    let applies = totals.get("applies").and_then(Json::as_num).unwrap();
    assert_eq!(
        applies, expected_applies,
        "{label}: applies {applies} != updates issued {expected_applies}"
    );

    let per_thread = doc
        .get("counters")
        .and_then(|c| c.get("per_thread"))
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{label}: report lacks per-thread counters"));
    assert!(!per_thread.is_empty(), "{label}: no per-thread slots");

    let phases = doc
        .get("phases")
        .unwrap_or_else(|| panic!("{label}: report lacks phases"));
    for key in [
        "loop_secs",
        "barrier_secs",
        "epilogue_secs",
        "finish_secs",
        "region_secs",
    ] {
        let v = phases
            .get(key)
            .and_then(Json::as_num)
            .unwrap_or_else(|| panic!("{label}: phases lack {key}"));
        assert!(v >= 0.0, "{label}: negative {key}");
    }
    let region = phases.get("region_secs").and_then(Json::as_num).unwrap();
    assert!(region > 0.0, "{label}: zero region time");

    assert!(
        doc.get("memory_overhead").and_then(Json::as_num).is_some(),
        "{label}: report lacks memory_overhead"
    );

    let planned = doc
        .get("planned_regions")
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("{label}: report lacks planned_regions"));
    assert!(planned >= 0.0, "{label}: negative planned_regions");
}

fn main() {
    let threads = 4;
    let pool = ompsim::ThreadPool::new(threads);
    let n = 10_000usize;
    let updates = 100_000usize;

    let strategies = Strategy::all(64);

    let mut ok = 0;
    for &strategy in &strategies {
        let mut out = vec![0i64; n];
        let report = reduce_dyn::<i64, Sum>(
            strategy,
            &pool,
            &mut out,
            0..updates,
            ompsim::Schedule::default(),
            &|v, i| v.apply((i * 7919) % n, 1),
        );
        assert_eq!(
            out.iter().sum::<i64>(),
            updates as i64,
            "{}: wrong reduction result",
            strategy.label()
        );

        let text = report.to_json();
        println!("{text}");
        let doc = parse(&text)
            .unwrap_or_else(|e| panic!("{}: report does not parse: {e}", strategy.label()));
        check(&doc, strategy, updates as f64);
        ok += 1;
    }
    eprintln!(
        "telemetry_smoke: {ok}/{} strategies reported and parsed",
        strategies.len()
    );

    // Planned-region pipeline: a recording region then a replay through
    // the same executor must report the replay in `planned_regions`, and
    // the fields must survive the JSON round trip.
    let mut ex = spray::RegionExecutor::<i64, Sum>::new(Strategy::BlockCas { block_size: 64 });
    struct ScatterKernel {
        n: usize,
    }
    impl spray::Kernel<i64> for ScatterKernel {
        fn item<V: spray::ReducerView<i64>>(&self, view: &mut V, i: usize) {
            view.apply((i * 7919) % self.n, 1);
        }
    }
    let k = ScatterKernel { n };
    let mut replay = None;
    for _ in 0..2 {
        let mut out = vec![0i64; n];
        let report = ex.run_planned(
            0,
            &pool,
            &mut out,
            0..updates,
            ompsim::Schedule::default(),
            &k,
        );
        assert_eq!(
            out.iter().sum::<i64>(),
            updates as i64,
            "planned: wrong result"
        );
        replay = Some(report);
    }
    let replay = replay.unwrap();
    assert_eq!(replay.planned_regions, 1, "replay not counted as planned");
    assert!(ex.plan_build_secs() > 0.0, "plan build time not recorded");
    let doc = parse(&replay.to_json()).expect("planned report does not parse");
    assert_eq!(
        doc.get("planned_regions").and_then(Json::as_num),
        Some(1.0),
        "planned_regions lost in JSON round trip"
    );
    eprintln!("telemetry_smoke: planned-region fields round-trip");
}
