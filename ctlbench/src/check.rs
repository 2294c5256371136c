//! Output checks, each against a computation of the benchmark's own: none
//! of them calls the code path whose output it judges.

use std::collections::{BTreeMap, BTreeSet};

use smn_core::bwlogs::{AdaptiveCoarsener, CoarseBwRecord};
use smn_core::stream::StreamState;
use smn_depgraph::coarse::CoarseDepGraph;
use smn_depgraph::delta::GraphDelta;
use smn_depgraph::fine::FineDepGraph;
use smn_te::demand::DemandMatrix;
use smn_te::mcf::TeSolution;
use smn_telemetry::record::BandwidthRecord;
use smn_topology::graph::{DiGraph, Edge, EdgeId, Path};

/// Why an output was rejected.
pub type Check = Result<(), String>;

fn close(a: f64, b: f64, rel: f64) -> bool {
    a == b || (a - b).abs() <= rel * a.abs().max(b.abs())
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// 95th percentile by linear interpolation between the two nearest ranks
/// of the ascending samples (rank `0.95 * (n - 1)`).
fn p95(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = 0.95 * (s.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    let frac = rank - lo as f64;
    s[lo] * (1.0 - frac) + s[hi] * frac
}

/// Samples per (window index, src, dst), in arrival order.
fn cells(records: &[BandwidthRecord], window: u64) -> BTreeMap<(u64, u32, u32), Vec<f64>> {
    let mut out: BTreeMap<(u64, u32, u32), Vec<f64>> = BTreeMap::new();
    for r in records {
        out.entry((r.ts.0 / window, r.src, r.dst)).or_default().push(r.gbps);
    }
    out
}

/// The uniform coarse log holds one row per (pair, window) cell of the raw
/// records, whose mean and p95 match a recomputation within 1e-12.
pub fn uniform_log(rows: &[CoarseBwRecord], records: &[BandwidthRecord], window: u64) -> Check {
    let cells = cells(records, window);
    if rows.len() != cells.len() {
        return Err(format!("uniform log has {} rows for {} cells", rows.len(), cells.len()));
    }
    let mut seen = BTreeSet::new();
    for row in rows {
        let key = (row.window_start.0 / window, row.src, row.dst);
        let Some(vals) = cells.get(&key).filter(|_| seen.insert(key)) else {
            return Err(format!("uniform row {key:?} is not a distinct input cell"));
        };
        if row.window_secs != window || row.window_start.0 % window != 0 {
            return Err(format!("uniform row {key:?} has window {}s", row.window_secs));
        }
        let want = [mean(vals), p95(vals)];
        if row.values.len() != 2 || !row.values.iter().zip(want).all(|(&a, b)| close(a, b, 1e-12)) {
            return Err(format!("uniform row {key:?}: {:?}, recomputed {want:?}", row.values));
        }
    }
    Ok(())
}

/// Pairs whose population coefficient of variation lies within this of the
/// threshold may fall either way under rounding, so their class is not
/// judged.
const CV_EXEMPT: f64 = 1e-9;

/// The adaptive log's volatile set equals a population-CV classification
/// of the raw records, and each pair's rows sit on its class's window with
/// means that match a recomputation within 1e-12.
pub fn adaptive_log(
    rows: &[CoarseBwRecord],
    volatile: &[(u32, u32)],
    records: &[BandwidthRecord],
    cfg: &AdaptiveCoarsener,
) -> Check {
    let mut by_pair: BTreeMap<(u32, u32), Vec<&BandwidthRecord>> = BTreeMap::new();
    for r in records {
        by_pair.entry((r.src, r.dst)).or_default().push(r);
    }
    let reported: BTreeSet<(u32, u32)> = volatile.iter().copied().collect();
    let mut rows_by_pair: BTreeMap<(u32, u32), Vec<&CoarseBwRecord>> = BTreeMap::new();
    for row in rows {
        rows_by_pair.entry((row.src, row.dst)).or_default().push(row);
    }
    if rows_by_pair.len() != by_pair.len() {
        return Err(format!(
            "adaptive log covers {} of {} pairs",
            rows_by_pair.len(),
            by_pair.len()
        ));
    }
    for (pair, samples) in &by_pair {
        let vals: Vec<f64> = samples.iter().map(|r| r.gbps).collect();
        let m = mean(&vals);
        let std = (vals.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / vals.len() as f64).sqrt();
        let cv = if m > 0.0 { std / m } else { 0.0 };
        let is_volatile = reported.contains(pair);
        if (cv - cfg.cv_threshold).abs() > CV_EXEMPT && is_volatile != (cv > cfg.cv_threshold) {
            return Err(format!("pair {pair:?} has CV {cv}, reported volatile={is_volatile}"));
        }
        let window = if is_volatile { cfg.volatile_window } else { cfg.stable_window };
        let mut windows: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for r in samples {
            windows.entry(r.ts.0 / window).or_default().push(r.gbps);
        }
        let got = rows_by_pair.get(pair).map_or(&[][..], Vec::as_slice);
        if got.len() != windows.len() {
            return Err(format!("pair {pair:?}: {} rows for {} windows", got.len(), windows.len()));
        }
        for row in got {
            let w = windows.get(&(row.window_start.0 / window));
            let ok = row.window_secs == window
                && w.is_some_and(|w| row.values.len() == 1 && close(row.values[0], mean(w), 1e-12));
            if !ok {
                return Err(format!("pair {pair:?}: row {row:?} off its {window}s class window"));
            }
        }
    }
    Ok(())
}

/// The lake holds exactly the generated records, in arrival order.
pub fn lake(lake: &[BandwidthRecord], generated: &[BandwidthRecord]) -> Check {
    if lake.len() != generated.len() {
        return Err(format!("lake holds {} records, {} generated", lake.len(), generated.len()));
    }
    match lake.iter().zip(generated).position(|(a, b)| a != b) {
        Some(i) => Err(format!("lake record {i} is {:?}, generated {:?}", lake[i], generated[i])),
        None => Ok(()),
    }
}

/// The CDG holds the base CDG's teams with their component counts grown by
/// exactly the churned components, and a team edge for every churned
/// dependency.
pub fn cdg_growth(
    cdg: &CoarseDepGraph,
    base_fine: &FineDepGraph,
    base: &CoarseDepGraph,
    churn: &[&GraphDelta],
) -> Check {
    let mut want: BTreeMap<String, usize> =
        base.graph.nodes().map(|(_, t)| (t.name.clone(), t.component_count)).collect();
    let mut team_of: BTreeMap<String, String> =
        base_fine.graph.nodes().map(|(_, c)| (c.name.clone(), c.team.clone())).collect();
    for d in churn {
        for c in &d.add_components {
            *want.entry(c.team.clone()).or_default() += 1;
            team_of.insert(c.name.clone(), c.team.clone());
        }
    }
    let got: BTreeMap<String, usize> =
        cdg.graph.nodes().map(|(_, t)| (t.name.clone(), t.component_count)).collect();
    if got != want {
        return Err(format!("CDG team sizes {got:?}, expected {want:?}"));
    }
    let edges: BTreeSet<(String, String)> = cdg
        .graph
        .edges()
        .map(|(_, e)| (cdg.team(e.src).name.clone(), cdg.team(e.dst).name.clone()))
        .collect();
    for d in churn.iter().flat_map(|d| &d.add_dependencies) {
        let (Some(s), Some(t)) = (team_of.get(&d.src), team_of.get(&d.dst)) else {
            return Err(format!("churned dependency {} -> {} names no component", d.src, d.dst));
        };
        if s != t && !edges.contains(&(s.clone(), t.clone())) {
            return Err(format!("CDG lacks the team edge {s} -> {t} of a churned dependency"));
        }
    }
    Ok(())
}

/// A TE solution is feasible (no link or demand over capacity, 1e-9
/// slack), every flow runs its commodity's source to its destination over
/// adjacent links, `routed_gbps` is the sum of flows and at most the offer,
/// and it routes at least `(1 - eps)^3` of a feasible routing built here:
/// each commodity on its first candidate path, all scaled by one factor
/// until no link exceeds capacity.
pub fn te_plan<N, E>(
    sol: &TeSolution,
    g: &DiGraph<N, E>,
    capacity: impl Fn(EdgeId, &Edge<E>) -> f64,
    demand: &DemandMatrix,
    paths: &[Vec<Path>],
    eps: f64,
) -> Check {
    let slack = |cap: f64| cap + 1e-9 * cap.max(1.0);
    let mut load = vec![0.0f64; g.edge_count()];
    let mut per_commodity = vec![0.0f64; demand.len()];
    for f in &sol.flows {
        let Some(c) = demand.commodities.get(f.commodity) else {
            return Err(format!("flow names commodity {} of {}", f.commodity, demand.len()));
        };
        let p = &f.path;
        let ends = p.nodes.first() == Some(&c.src) && p.nodes.last() == Some(&c.dst);
        let adjacent = p.nodes.len() == p.edges.len() + 1
            && p.edges.iter().enumerate().all(|(i, &e)| {
                let edge = g.edge(e);
                edge.src == p.nodes[i] && edge.dst == p.nodes[i + 1]
            });
        if !ends || !adjacent {
            return Err(format!("flow of commodity {} does not run src to dst", f.commodity));
        }
        if f.gbps.is_nan() || f.gbps <= 0.0 {
            return Err(format!("flow of commodity {} carries {} Gbps", f.commodity, f.gbps));
        }
        per_commodity[f.commodity] += f.gbps;
        for &e in &p.edges {
            load[e.index()] += f.gbps;
        }
    }
    for (eid, e) in g.edges() {
        let cap = capacity(eid, e);
        if load[eid.index()] > slack(cap) {
            return Err(format!("link {eid:?} carries {} Gbps over {cap}", load[eid.index()]));
        }
    }
    for (i, c) in demand.commodities.iter().enumerate() {
        if per_commodity[i] > slack(c.demand_gbps) {
            return Err(format!(
                "commodity {i} gets {} of {} Gbps",
                per_commodity[i], c.demand_gbps
            ));
        }
    }
    let sum: f64 = per_commodity.iter().sum();
    if !close(sol.routed_gbps, sum, 1e-9) {
        return Err(format!("routed_gbps {} but flows sum to {sum}", sol.routed_gbps));
    }
    let offered = demand.total_gbps();
    if sol.routed_gbps > slack(offered) {
        return Err(format!("routed {} Gbps of {offered} offered", sol.routed_gbps));
    }
    let mut base_load = vec![0.0f64; g.edge_count()];
    let mut base_total = 0.0;
    for (c, ps) in demand.commodities.iter().zip(paths) {
        if let Some(p) = ps.first() {
            base_total += c.demand_gbps;
            for &e in &p.edges {
                base_load[e.index()] += c.demand_gbps;
            }
        }
    }
    let scale = g
        .edges()
        .filter(|(eid, _)| base_load[eid.index()] > 0.0)
        .map(|(eid, e)| capacity(eid, e) / base_load[eid.index()])
        .fold(1.0f64, f64::min);
    let floor = (1.0 - eps).powi(3) * scale * base_total;
    if sol.routed_gbps < floor * (1.0 - 1e-9) {
        return Err(format!(
            "routed {} Gbps, below (1-eps)^3 of the feasible {}",
            sol.routed_gbps,
            scale * base_total
        ));
    }
    Ok(())
}

/// A restored checkpoint re-serializes to the exact bytes it was restored
/// from.
pub fn checkpoint(original: &str, restored: &StreamState) -> Check {
    let again = serde_json::to_string(restored).map_err(|e| e.to_string())?;
    if again == original {
        return Ok(());
    }
    let at = again.bytes().zip(original.bytes()).position(|(a, b)| a != b);
    Err(format!(
        "restored state re-serializes to {} bytes (checkpoint {}), first difference at {at:?}",
        again.len(),
        original.len()
    ))
}

/// Reconciliation fingerprints after a restart equal the uninterrupted
/// session's, one for one.
pub fn fingerprints(restarted: &[String], uninterrupted: &[String]) -> Check {
    if restarted == uninterrupted {
        Ok(())
    } else {
        Err(format!("restarted fingerprints {restarted:?}, uninterrupted {uninterrupted:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smn_core::coarsen::Coarsening;
    use smn_core::controller::{ControllerConfig, SmnController};
    use smn_core::stream::StreamConfig;
    use smn_te::mcf::{max_multicommodity_flow, path_sets, TeConfig};
    use smn_telemetry::delta::TelemetryDelta;
    use smn_telemetry::series::Statistic;
    use smn_telemetry::time::{Ts, DAY, EPOCH_SECS, HOUR};
    use smn_topology::gen::{generate_planetary, PlanetaryConfig};
    use smn_topology::NodeId;

    use crate::inputs::StreamInputs;

    /// Two days of three pairs: one flat, one alternating (volatile), one
    /// ramping.
    fn log() -> Vec<BandwidthRecord> {
        let mut out = Vec::new();
        for e in 0..576u64 {
            let ts = Ts(e * EPOCH_SECS);
            out.push(BandwidthRecord { ts, src: 0, dst: 1, gbps: 100.0 + (e % 5) as f64 });
            let alt = if e % 2 == 0 { 10.0 } else { 500.0 };
            out.push(BandwidthRecord { ts, src: 0, dst: 2, gbps: alt });
            out.push(BandwidthRecord { ts, src: 3, dst: 1, gbps: 40.0 + (e % 7) as f64 });
        }
        out
    }

    #[test]
    fn uniform_check_accepts_the_coarsener_and_rejects_a_perturbed_row() {
        let log = log();
        let c = smn_core::bwlogs::TimeCoarsener::new(HOUR, vec![Statistic::Mean, Statistic::P95]);
        let mut rows = c.coarsen(&log);
        uniform_log(&rows, &log, HOUR).unwrap();
        rows[7].values[1] *= 1.0 + 1e-10;
        assert!(uniform_log(&rows, &log, HOUR).unwrap_err().contains("recomputed"));
        rows.pop();
        assert!(uniform_log(&rows, &log, HOUR).is_err());
    }

    fn adaptive() -> AdaptiveCoarsener {
        AdaptiveCoarsener {
            cv_threshold: 0.35,
            stable_window: DAY,
            volatile_window: HOUR,
            stats: vec![Statistic::Mean],
        }
    }

    #[test]
    fn adaptive_check_accepts_the_coarsener_and_rejects_wrong_class_or_row() {
        let log = log();
        let a = adaptive();
        let rows = a.coarsen(&log);
        let volatile = a.volatile_pairs(&log);
        assert_eq!(volatile, vec![(0, 2)]);
        adaptive_log(&rows, &volatile, &log, &a).unwrap();
        assert!(adaptive_log(&rows, &[], &log, &a).is_err(), "a volatile pair reported stable");
        let mut bad = rows.clone();
        bad[0].values[0] += 1e-6;
        assert!(adaptive_log(&bad, &volatile, &log, &a).is_err());
    }

    #[test]
    fn lake_check_rejects_a_changed_record() {
        let log = log();
        lake(&log, &log).unwrap();
        let mut bad = log.clone();
        bad[5].gbps += 1.0;
        assert!(lake(&bad, &log).is_err());
        assert!(lake(&log[1..], &log).is_err());
    }

    #[test]
    fn cdg_check_requires_exactly_the_churned_components() {
        let world = crate::inputs::World::new(true);
        let inp = StreamInputs::new(&world.model, Ts::from_days(1), 4, 6);
        let base = CoarseDepGraph::from_fine(&inp.fine);
        let churn: Vec<&GraphDelta> = inp.churn.iter().flatten().collect();
        assert_eq!(churn.len(), 2);
        let mut fine = inp.fine.clone();
        let mut cdg = base.clone();
        for d in &churn {
            d.apply_to_fine(&mut fine).unwrap();
            cdg.apply_delta(&fine, d).unwrap();
        }
        cdg_growth(&cdg, &inp.fine, &base, &churn).unwrap();
        assert!(cdg_growth(&base, &inp.fine, &base, &churn).is_err(), "churn missing");
        assert!(cdg_growth(&cdg, &inp.fine, &base, &churn[..1]).is_err(), "extra component");
    }

    #[test]
    fn te_check_accepts_the_solver_and_rejects_a_flow_over_capacity() {
        let p = generate_planetary(&PlanetaryConfig::small(5));
        let cap = |_: EdgeId, e: &Edge<smn_topology::layer3::LinkAttrs>| e.payload.capacity_gbps;
        let demand = DemandMatrix::from_triples(
            (0..12u32).map(|i| (NodeId(i), NodeId(23 - i), 150.0 + f64::from(i) * 40.0)),
        );
        let cfg = TeConfig { k_paths: 3, epsilon: 0.15, ..TeConfig::default() };
        let sol = max_multicommodity_flow(&p.wan.graph, cap, &demand, &cfg);
        let paths = path_sets(&p.wan.graph, &cap, &demand, cfg.k_paths);
        te_plan(&sol, &p.wan.graph, cap, &demand, &paths, cfg.epsilon).unwrap();

        let mut over = sol.clone();
        let f = &mut over.flows[0];
        let link_cap = p.wan.graph.edge(f.path.edges[0]).payload.capacity_gbps;
        over.routed_gbps += link_cap;
        f.gbps += link_cap;
        assert!(te_plan(&over, &p.wan.graph, cap, &demand, &paths, cfg.epsilon).is_err());

        let mut short = sol.clone();
        short.routed_gbps *= 1e-3;
        for f in &mut short.flows {
            f.gbps *= 1e-3;
        }
        let err = te_plan(&short, &p.wan.graph, cap, &demand, &paths, cfg.epsilon).unwrap_err();
        assert!(err.contains("below"), "{err}");
    }

    #[test]
    fn fingerprint_check_compares_one_for_one() {
        let a = vec!["00ff".to_string(), "0100".to_string()];
        fingerprints(&a, &a).unwrap();
        assert!(fingerprints(&a[..1], &a).is_err());
        assert!(fingerprints(&[a[1].clone(), a[0].clone()], &a).is_err());
    }

    #[test]
    fn checkpoint_check_rejects_a_changed_byte() {
        let world = crate::inputs::World::new(true);
        let inp = StreamInputs::new(&world.model, Ts::from_days(1), 6, 3);
        let mut ctl =
            SmnController::new(CoarseDepGraph::from_fine(&inp.fine), ControllerConfig::default());
        let cfg = StreamConfig { reconcile_every: 0, ..StreamConfig::default() };
        let mut state = StreamState::new(cfg, inp.fine.clone());
        ctl.stream_tick(&mut state, &TelemetryDelta::new(0, inp.history.clone()), None).unwrap();
        let json = serde_json::to_string(&state).unwrap();
        let restored: StreamState = serde_json::from_str(&json).unwrap();
        checkpoint(&json, &restored).unwrap();

        // Change one digit of a sample value.
        let at = json.find("\"gbps\":").unwrap() + 8;
        let mut bytes = json.clone().into_bytes();
        bytes[at] = if bytes[at] == b'1' { b'2' } else { b'1' };
        let corrupted = String::from_utf8(bytes).unwrap();
        let restored: StreamState = serde_json::from_str(&corrupted).unwrap();
        assert!(checkpoint(&json, &restored).is_err());
    }
}
