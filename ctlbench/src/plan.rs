//! TE plans: region-level Garg–Könemann on contracted demand, and (for the
//! E2 step) the fine problem restricted to coarse-conformant paths.

use smn_core::bwlogs::CoarseBwRecord;
use smn_te::demand::DemandMatrix;
use smn_te::mcf::{
    max_multicommodity_flow, max_multicommodity_flow_with_paths, path_sets, TeConfig, TeSolution,
};
use smn_te::restrict::coarse_restricted_paths;
use smn_telemetry::time::Ts;
use smn_topology::graph::{Contraction, DiGraph, Edge, EdgeId, Path};
use smn_topology::layer3::{LinkAttrs, SuperLink, SuperNode, Wan};
use smn_topology::NodeId;

use crate::check;
use crate::stats::Layers;

/// Solver settings of every plan (the E2 experiment's).
pub fn te_config() -> TeConfig {
    TeConfig { k_paths: 3, epsilon: 0.15, ..TeConfig::default() }
}

/// Share of the hourly mean demand a stream plan offers the region WAN.
const STREAM_PLAN_SCALE: f64 = 0.05;

pub fn fine_cap(_: EdgeId, e: &Edge<LinkAttrs>) -> f64 {
    if e.payload.up {
        e.payload.capacity_gbps
    } else {
        0.0
    }
}

pub fn region_cap(_: EdgeId, e: &Edge<SuperLink>) -> f64 {
    e.payload.capacity_gbps
}

/// What one plan produced, kept for the output checks.
pub struct PlanOut {
    pub region_demand: DemandMatrix,
    pub region: TeSolution,
    /// The restricted fine solve and its path sets (E2 plans only).
    pub restricted: Option<(TeSolution, Vec<Vec<Path>>)>,
}

impl PlanOut {
    pub fn routed_gbps(&self) -> f64 {
        self.region.routed_gbps + self.restricted.as_ref().map_or(0.0, |(s, _)| s.routed_gbps)
    }

    /// Both solves pass [`check::te_plan`].
    pub fn check(
        &self,
        wan: &Wan,
        regions: &Contraction<SuperNode, SuperLink>,
        demand: Option<&DemandMatrix>,
    ) -> check::Check {
        let cfg = te_config();
        let paths = path_sets(&regions.graph, &region_cap, &self.region_demand, cfg.k_paths);
        check::te_plan(
            &self.region,
            &regions.graph,
            region_cap,
            &self.region_demand,
            &paths,
            cfg.epsilon,
        )?;
        if let (Some((sol, paths)), Some(demand)) = (&self.restricted, demand) {
            check::te_plan(sol, &wan.graph, fine_cap, demand, paths, cfg.epsilon)?;
        }
        Ok(())
    }
}

/// Demand of the closed hour starting at `hour` read off a uniform coarse
/// log (first statistic: the mean).
pub fn hour_demand(rows: &[CoarseBwRecord], hour: Ts) -> DemandMatrix {
    DemandMatrix::from_triples(
        rows.iter()
            .filter(|r| r.window_start == hour)
            .map(|r| (NodeId(r.src), NodeId(r.dst), r.values[0] * STREAM_PLAN_SCALE)),
    )
}

/// Region TE through the solver's single entry point.
pub fn region_plan(regions: &Contraction<SuperNode, SuperLink>, demand: &DemandMatrix) -> PlanOut {
    let region_demand = demand.contract(&regions.node_map);
    let region = max_multicommodity_flow(&regions.graph, region_cap, &region_demand, &te_config());
    PlanOut { region_demand, region, restricted: None }
}

/// The E2 TE step: region plan, then the fine problem over
/// coarse-conformant paths.
pub fn e2_plan(
    wan: &Wan,
    regions: &Contraction<SuperNode, SuperLink>,
    demand: &DemandMatrix,
) -> PlanOut {
    let mut out = region_plan(regions, demand);
    let paths = restricted_paths(wan, regions, demand);
    let sol =
        max_multicommodity_flow_with_paths(&wan.graph, fine_cap, demand, &paths, &te_config());
    out.restricted = Some((sol, paths));
    out
}

fn restricted_paths(
    wan: &Wan,
    regions: &Contraction<SuperNode, SuperLink>,
    demand: &DemandMatrix,
) -> Vec<Vec<Path>> {
    let k = te_config().k_paths;
    demand
        .commodities
        .iter()
        .map(|c| coarse_restricted_paths(wan, regions, c.src, c.dst, k))
        .collect()
}

/// Solve over given path sets, recording the layer's time and work.
fn traced_solve<N, E>(
    layers: &mut Layers,
    g: &DiGraph<N, E>,
    cap: impl Fn(EdgeId, &Edge<E>) -> f64,
    demand: &DemandMatrix,
    paths: &[Vec<Path>],
) -> TeSolution {
    let sol = layers.time("te.gk_ms", || {
        max_multicommodity_flow_with_paths(g, cap, demand, paths, &te_config())
    });
    layers.push("te.gk_iterations", sol.iterations as f64);
    layers.push("te.columns", paths.iter().map(Vec::len).sum::<usize>() as f64);
    layers.push("te.commodities", demand.len() as f64);
    sol
}

/// [`region_plan`] (and with `wan`, [`e2_plan`]) one layer call at a time:
/// path computation and the packing solve timed apart.
pub fn traced_plan(
    layers: &mut Layers,
    wan: Option<&Wan>,
    regions: &Contraction<SuperNode, SuperLink>,
    demand: &DemandMatrix,
) -> PlanOut {
    let k = te_config().k_paths;
    let region_demand = demand.contract(&regions.node_map);
    let paths =
        layers.time("te.paths_ms", || path_sets(&regions.graph, &region_cap, &region_demand, k));
    let region = traced_solve(layers, &regions.graph, region_cap, &region_demand, &paths);
    let restricted = wan.map(|wan| {
        let paths = layers.time("te.paths_ms", || restricted_paths(wan, regions, demand));
        (traced_solve(layers, &wan.graph, fine_cap, demand, &paths), paths)
    });
    PlanOut { region_demand, region, restricted }
}
