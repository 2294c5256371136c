//! Control-loop benchmark of the SMN controller.
//!
//! `smn-ctlbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! builds its inputs from the seed, sets up three times, then runs whole
//! rounds of the workload's operations until `--seconds` have been
//! measured, checks every output against a computation of its own, and
//! prints one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the end-to-end ones, measured with
//! the controller's observability off; with `--trace 1` each layer's
//! public function is called in turn and timed from here.

mod check;
mod inputs;
mod plan;
mod stats;
mod stream;

use smn_core::stream::StreamState;
use smn_telemetry::time::{Ts, HOUR};

use inputs::{StreamInputs, World, HALF_DAY_EPOCHS, TICKS_PER_HOUR};
use stats::{median, ten_beyond_tail, time_ms, Layers};

/// Set-ups per run (at least); `setup_s` is their median.
const SETUPS: usize = 3;

/// Upper limit on set-ups per run.
const MAX_SETUPS: usize = 200;

/// Ticks between reconciliations in the stream workloads.
const RECONCILE_EVERY: usize = 6;

/// Five-minute epochs of history before a restart (the restart workload's
/// checkpoint size).
const RESTART_HISTORY_EPOCHS: usize = 96;

/// Ticks streamed after each restore; a reconciliation follows every
/// second one.
const RESTART_TICKS: usize = 4;

/// Per-layer metrics of a traced run, with units.
const PER_LAYER: &[(&str, &str)] = &[
    ("setup.topology_ms", "ms"),
    ("setup.traffic_ms", "ms"),
    ("setup.bootstrap_ms", "ms"),
    ("datalake.ingest_ms", "ms"),
    ("datalake.records", "count"),
    ("stream.time_apply_ms", "ms"),
    ("stream.time_dirty_cells", "count"),
    ("stream.time_rows", "count"),
    ("stream.adaptive_apply_ms", "ms"),
    ("stream.adaptive_dirty_pairs", "count"),
    ("stream.adaptive_recomputed_rows", "count"),
    ("stream.adaptive_samples_resummarized", "count"),
    ("stream.adaptive_rows", "count"),
    ("stream.adaptive_class_flips", "count"),
    ("stream.volatile_pairs", "count"),
    ("depgraph.cdg_apply_ms", "ms"),
    ("depgraph.cdg_new_edges", "count"),
    ("depgraph.cdg_rebuild_ms", "ms"),
    ("reconcile.copy_ms", "ms"),
    ("reconcile.lake_records", "count"),
    ("bwlogs.time_batch_ms", "ms"),
    ("bwlogs.adaptive_batch_ms", "ms"),
    ("bwlogs.encode_ms", "ms"),
    ("stream.coarse_log_read_ms", "ms"),
    ("te.paths_ms", "ms"),
    ("te.gk_ms", "ms"),
    ("te.gk_iterations", "count"),
    ("te.columns", "count"),
    ("te.commodities", "count"),
    ("serde.encode_ms", "ms"),
    ("serde.parse_ms", "ms"),
    ("serde.decode_ms", "ms"),
    ("serde.bytes", "bytes"),
    ("trace.layer_sum_ms", "ms"),
    ("trace.untraced_op_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload.clone_from(&value),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// What a run measured and found.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    /// Why operations failed.
    failures: Vec<String>,
    /// Outputs the checks rejected.
    errors: Vec<String>,
    /// Wall time of the workload's unit operation: a tick, a plan, or a
    /// restore.
    op_ms: Vec<f64>,
    /// Wall time of each whole round (every timed operation in it).
    round_ms: Vec<f64>,
    setup_s: Vec<f64>,
    layers: Layers,
    /// Workload-specific figures, printed before the result line.
    notes: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Count one operation and keep its failure, if any.
    fn op<T, E: std::fmt::Display>(&mut self, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.failures.push(e.to_string());
                None
            }
        }
    }

    fn check(&mut self, what: &str, r: check::Check) {
        if let Err(e) = r {
            self.errors.push(format!("{what}: {e}"));
        }
    }
}

/// Run `setup` at least [`SETUPS`] times, and more while the set-ups
/// together take under a second (cheap set-ups are noisy), keeping the
/// last result; each duration lands in `report.setup_s`.
fn set_up<T>(report: &mut Report, mut setup: impl FnMut(&mut Layers) -> T) -> T {
    let mut kept = None;
    while report.setup_s.len() < SETUPS
        || (report.setup_s.iter().sum::<f64>() < 1.0 && report.setup_s.len() < MAX_SETUPS)
    {
        drop(kept.take());
        let (v, ms) = time_ms(|| setup(&mut report.layers));
        report.layers.commit();
        report.setup_s.push(ms / 1000.0);
        kept = Some(v);
    }
    kept.expect("at least one set-up")
}

/// Rounds run while measured time is below `seconds`; at least one.
fn keep_going(report: &Report, seconds: f64) -> bool {
    report.round_ms.iter().sum::<f64>() < seconds * 1000.0
}

struct StreamSetup {
    world: World,
    regions: smn_topology::graph::Contraction<
        smn_topology::layer3::SuperNode,
        smn_topology::layer3::SuperLink,
    >,
    inp: StreamInputs,
    base: StreamState,
}

fn stream_setup(
    layers: &mut Layers,
    small: bool,
    end: Ts,
    epochs: usize,
    ticks: usize,
) -> StreamSetup {
    let world = World::new(small);
    layers.push("setup.topology_ms", world.topology_ms);
    let (inp, traffic_ms) = time_ms(|| StreamInputs::new(&world.model, end, epochs, ticks));
    layers.push("setup.traffic_ms", world.traffic_ms + traffic_ms);
    let base = layers.time("setup.bootstrap_ms", || stream::bootstrap(&inp));
    let regions = world.planetary.wan.contract_by_region();
    StreamSetup { world, regions, inp, base }
}

/// `stream_steady` / `stream_regime_shift`: rounds of one hour of ticks
/// from the same bootstrapped state, a reconciliation every
/// [`RECONCILE_EVERY`] ticks, and a region plan of the closed hour read
/// off the uniform coarse log.
fn stream_workload(args: &Args, history_end: Ts) -> Report {
    let mut rep = Report::default();
    let s =
        set_up(&mut rep, |l| stream_setup(l, false, history_end, HALF_DAY_EPOCHS, TICKS_PER_HOUR));
    let hour = Ts(history_end.0 / HOUR * HOUR);
    let (mut reconcile_ms, mut plan_ms, mut routed) = (vec![], vec![], vec![]);
    let mut last = None;
    while rep.round_ms.is_empty() || keep_going(&rep, args.seconds) {
        last = None;
        let mut ctl = stream::controller(&s.inp.fine, &s.inp.history);
        let mut state = s.base.clone();
        let mut twin = args.trace.then(|| stream::Traced::new(&s.base, &s.inp.history));
        let mut round = 0.0;
        let mut ok = true;
        for (i, td) in s.inp.ticks.iter().enumerate() {
            let churn = s.inp.churn[i].as_ref();
            let (r, ms) = time_ms(|| ctl.stream_tick(&mut state, td, churn));
            ok = ok && rep.op(r).is_some();
            if let Some(twin) = twin.as_mut() {
                let sum = twin.tick(&mut rep.layers, td, churn);
                if let Some(sum) = rep.op(sum) {
                    rep.layers.push("trace.layer_sum_ms", sum);
                    rep.layers.push("trace.untraced_op_ms", ms);
                }
                rep.layers.commit();
            }
            rep.op_ms.push(ms);
            round += ms;
            if (i + 1) % RECONCILE_EVERY == 0 {
                let (r, ms) = time_ms(|| ctl.stream_reconcile(&mut state));
                ok = ok && rep.op(r).is_some();
                if let Some(twin) = twin.as_mut() {
                    let enc = twin.reconcile(&mut rep.layers);
                    rep.layers.commit();
                    if let Some(enc) = rep.op(enc) {
                        if enc != stream::encodings(&state) {
                            rep.errors.push(format!(
                                "traced state differs from the session after tick {}",
                                td.tick
                            ));
                        }
                    }
                }
                reconcile_ms.push(ms);
                round += ms;
            }
        }
        let (p, ms) = time_ms(|| {
            let rows = state.time_log().coarse_log();
            plan::region_plan(&s.regions, &plan::hour_demand(&rows, hour))
        });
        rep.attempted += 1;
        if let Some(twin) = twin.as_ref() {
            let rows = twin.coarse_log(&mut rep.layers);
            let traced = plan::traced_plan(
                &mut rep.layers,
                None,
                &s.regions,
                &plan::hour_demand(&rows, hour),
            );
            rep.layers.commit();
            if traced.routed_gbps().to_bits() != p.routed_gbps().to_bits() {
                rep.errors.push("traced plan differs from the session's".to_string());
            }
        }
        plan_ms.push(ms);
        routed.push(p.routed_gbps());
        round += ms;
        rep.round_ms.push(round);
        if !ok {
            break;
        }
        last = Some((ctl, state, p));
    }
    if let Some((ctl, state, p)) = &last {
        rep.check("session", stream::check_session(ctl, state, &s.inp, s.inp.ticks.len()));
        rep.check("plan", p.check(&s.world.planetary.wan, &s.regions, None));
        if routed.iter().any(|r| r.to_bits() != routed[0].to_bits()) {
            rep.errors.push(format!("identical rounds routed differently: {routed:?}"));
        }
    }
    let records: usize = s.inp.ticks.iter().map(|t| t.records.len()).sum();
    let rounds = rep.round_ms.len() as f64;
    rep.notes.push(("pairs", s.world.model.pairs().len() as f64, "count"));
    rep.notes.push(("tick_p50_ms", median(&rep.op_ms), "ms"));
    if let Some((pct, v)) = ten_beyond_tail(&rep.op_ms) {
        rep.notes.push(("tick_tail_pct", pct, "%"));
        rep.notes.push(("tick_tail_ms", v, "ms"));
    }
    rep.notes.push(("reconcile_ms", median(&reconcile_ms), "ms"));
    rep.notes.push((
        "records_per_s",
        records as f64 * rounds / (rep.round_ms.iter().sum::<f64>() / 1000.0),
        "1/s",
    ));
    rep.notes.push(("plan_p50_ms", median(&plan_ms), "ms"));
    rep.notes.push(("routed_gbps", routed.iter().sum(), "Gbps"));
    rep
}

/// `te_plan`: rounds of the E2 TE step at each of [`inputs::plan_hours`].
fn te_workload(args: &Args) -> Report {
    let mut rep = Report::default();
    let (world, regions, demands) = set_up(&mut rep, |l| {
        let world = World::new(false);
        l.push("setup.topology_ms", world.topology_ms);
        let (demands, ms) = time_ms(|| {
            inputs::plan_hours(args.seed).map(|ts| inputs::plan_demand(&world.model, ts))
        });
        l.push("setup.traffic_ms", world.traffic_ms + ms);
        let regions = world.planetary.wan.contract_by_region();
        (world, regions, demands)
    });
    let wan = &world.planetary.wan;
    let mut routed: Vec<Vec<u64>> = Vec::new();
    let mut last = Vec::new();
    while routed.is_empty() || keep_going(&rep, args.seconds) {
        let mut round = 0.0;
        last.clear();
        for demand in &demands {
            let (p, ms) = time_ms(|| plan::e2_plan(wan, &regions, demand));
            rep.attempted += 1;
            if args.trace {
                let traced = plan::traced_plan(&mut rep.layers, Some(wan), &regions, demand);
                let sum = rep.layers.open_sum(&["te.paths_ms", "te.gk_ms"]);
                rep.layers.push("trace.layer_sum_ms", sum);
                rep.layers.push("trace.untraced_op_ms", ms);
                rep.layers.commit();
                if traced.routed_gbps().to_bits() != p.routed_gbps().to_bits() {
                    rep.errors.push("traced plan differs from the untraced one".to_string());
                }
            }
            rep.op_ms.push(ms);
            round += ms;
            last.push(p);
        }
        routed.push(last.iter().map(|p| p.routed_gbps().to_bits()).collect());
        rep.round_ms.push(round);
    }
    for (p, demand) in last.iter().zip(&demands) {
        rep.check("plan", p.check(wan, &regions, Some(demand)));
    }
    if routed.iter().any(|r| r != &routed[0]) {
        rep.errors.push("identical rounds routed differently".to_string());
    }
    let gbps: f64 = routed.iter().flatten().map(|&b| f64::from_bits(b)).sum();
    rep.notes.push(("plan_p50_ms", median(&rep.op_ms), "ms"));
    if let Some((pct, v)) = ten_beyond_tail(&rep.op_ms) {
        rep.notes.push(("plan_tail_pct", pct, "%"));
        rep.notes.push(("plan_tail_ms", v, "ms"));
    }
    rep.notes.push(("routed_gbps", gbps, "Gbps"));
    rep.notes.push((
        "offered_gbps_per_round",
        demands.iter().map(|d| d.total_gbps()).sum(),
        "Gbps",
    ));
    rep
}

/// `restart`: rounds of checkpoint, restore, [`RESTART_TICKS`] ticks and a
/// reconciliation after every second one, each from the same session.
fn restart_workload(args: &Args) -> Report {
    let mut rep = Report::default();
    let end = inputs::steady_history_end(args.seed);
    let s = set_up(&mut rep, |l| stream_setup(l, true, end, RESTART_HISTORY_EPOCHS, RESTART_TICKS));
    let (mut checkpoint_ms, mut reconcile_ms, mut bytes) = (vec![], vec![], 0);
    let mut hashes: Vec<Vec<String>> = Vec::new();
    let mut last = None;
    while rep.round_ms.is_empty() || keep_going(&rep, args.seconds) {
        last = None;
        let mut ctl = stream::controller(&s.inp.fine, &s.inp.history);
        let (json, ck_ms) = time_ms(|| serde_json::to_string(&s.base));
        let Some(json) = rep.op(json) else { break };
        let (restored, rs_ms) = time_ms(|| serde_json::from_str::<StreamState>(&json));
        let Some(mut state) = rep.op(restored) else { break };
        if args.trace {
            let (_, enc) = time_ms(|| serde_json::to_string(&s.base));
            rep.layers.push("serde.encode_ms", enc);
            rep.layers.push("serde.bytes", json.len() as f64);
            let value = rep.layers.time("serde.parse_ms", || serde_json::parse_value(&json));
            let decoded = value.map_err(|e| e.to_string()).and_then(|v| {
                rep.layers
                    .time("serde.decode_ms", || <StreamState as serde::Deserialize>::from_value(&v))
                    .map_err(|e| e.to_string())
            });
            let sum = rep.layers.open_sum(&["serde.parse_ms", "serde.decode_ms"]);
            rep.layers.push("trace.layer_sum_ms", sum);
            rep.layers.push("trace.untraced_op_ms", rs_ms);
            rep.layers.commit();
            if let Some(d) = rep.op(decoded) {
                rep.check("traced restore", check::checkpoint(&json, &d));
            }
        }
        if hashes.is_empty() {
            rep.check("checkpoint", check::checkpoint(&json, &state));
        }
        bytes = json.len();
        drop(json);
        checkpoint_ms.push(ck_ms);
        rep.op_ms.push(rs_ms);
        let mut round = ck_ms + rs_ms;
        let mut twin = args.trace.then(|| stream::Traced::new(&state, &s.inp.history));
        let mut round_hashes = Vec::new();
        let mut ok = true;
        for (i, td) in s.inp.ticks.iter().enumerate() {
            let churn = s.inp.churn[i].as_ref();
            let (r, ms) = time_ms(|| ctl.stream_tick(&mut state, td, churn));
            ok = ok && rep.op(r).is_some();
            round += ms;
            if let Some(twin) = twin.as_mut() {
                let r = twin.tick(&mut rep.layers, td, churn);
                rep.op(r);
                rep.layers.commit();
            }
            if (i + 1) % 2 == 0 {
                let (r, ms) = time_ms(|| ctl.stream_reconcile(&mut state));
                if let Some(o) = rep.op(r) {
                    round_hashes.push(o.hash);
                } else {
                    ok = false;
                }
                if let Some(twin) = twin.as_mut() {
                    let enc = twin.reconcile(&mut rep.layers);
                    rep.layers.commit();
                    if rep.op(enc).is_some_and(|enc| enc != stream::encodings(&state)) {
                        rep.errors
                            .push("traced state differs from the restored session".to_string());
                    }
                }
                reconcile_ms.push(ms);
                round += ms;
            }
        }
        rep.round_ms.push(round);
        hashes.push(round_hashes);
        if !ok {
            break;
        }
        last = Some((ctl, state));
    }
    if let Some((ctl, state)) = &last {
        rep.check("session", stream::check_session(ctl, state, &s.inp, RESTART_TICKS));
        // The uninterrupted session: the same ticks on the live state.
        let mut ctl = stream::controller(&s.inp.fine, &s.inp.history);
        let mut live = s.base.clone();
        let mut want = Vec::new();
        for (i, td) in s.inp.ticks.iter().enumerate() {
            let r = ctl.stream_tick(&mut live, td, s.inp.churn[i].as_ref()).map(|_| ());
            rep.check("uninterrupted tick", r.map_err(|e| e.to_string()));
            if (i + 1) % 2 == 0 {
                match ctl.stream_reconcile(&mut live) {
                    Ok(_) => want.push(live.fingerprint()),
                    Err(e) => rep.errors.push(format!("uninterrupted reconcile: {e}")),
                }
            }
        }
        for h in &hashes {
            rep.check("fingerprints", check::fingerprints(h, &want));
        }
    }
    rep.notes.push(("pairs", s.world.model.pairs().len() as f64, "count"));
    rep.notes.push(("checkpoint_ms", median(&checkpoint_ms), "ms"));
    rep.notes.push(("restore_ms", median(&rep.op_ms), "ms"));
    rep.notes.push(("checkpoint_mb", bytes as f64 / 1e6, "MB"));
    rep.notes.push(("reconcile_ms", median(&reconcile_ms), "ms"));
    rep
}

/// The process's resident-set high-water mark in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("smn-ctlbench: {e}");
            std::process::exit(2);
        }
    };
    let mut rep = match args.workload.as_str() {
        "stream_steady" => stream_workload(&args, inputs::steady_history_end(args.seed)),
        "stream_regime_shift" => stream_workload(&args, inputs::regime_history_end(args.seed)),
        "te_plan" => te_workload(&args),
        "restart" => restart_workload(&args),
        other => {
            eprintln!("smn-ctlbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let mut metrics = Vec::new();
    let mut metric = |name: &str, value: f64, unit: &str| {
        metrics.push((
            name.to_string(),
            serde_json::Value::Map(vec![
                ("value".to_string(), serde_json::Value::F64(value)),
                ("unit".to_string(), serde_json::Value::Str(unit.to_string())),
            ]),
        ));
    };
    if args.trace {
        let sum = rep.layers.median("trace.layer_sum_ms");
        let untraced = rep.layers.median("trace.untraced_op_ms");
        rep.layers.push("trace.overhead_pct", 100.0 * (sum - untraced) / untraced);
        rep.layers.commit();
        for &(name, unit) in PER_LAYER {
            metric(name, rep.layers.median(name), unit);
        }
    } else {
        metric("op_p50_ms", median(&rep.op_ms), "ms");
        metric("round_ms", median(&rep.round_ms), "ms");
        metric("peak_rss_mb", peak_rss_mb(), "MB");
        metric("setup_s", median(&rep.setup_s), "s");
    }
    println!(
        "workload {} seed {} rounds {} ops {} setups {}",
        args.workload,
        args.seed,
        rep.round_ms.len(),
        rep.op_ms.len(),
        rep.setup_s.len()
    );
    for (name, value, unit) in &rep.notes {
        println!("figure {name} {value} {unit}");
    }
    for e in &rep.failures {
        println!("failed {e}");
    }
    for e in &rep.errors {
        println!("incorrect {e}");
    }
    let result = serde_json::Value::Map(vec![
        ("correct".to_string(), serde_json::Value::Bool(rep.errors.is_empty())),
        ("attempted".to_string(), serde_json::Value::U64(rep.attempted)),
        ("failed".to_string(), serde_json::Value::U64(rep.failed)),
        ("metrics".to_string(), serde_json::Value::Map(metrics)),
    ]);
    println!("{}", serde_json::to_string(&result).expect("the result serializes"));
}
