//! Seed-fixed inputs, all generated before any timed operation: the WAN,
//! the traffic model, the telemetry history and streamed ticks, the
//! fine-graph churn, and the TE demand snapshots.

use smn_depgraph::delta::GraphDelta;
use smn_depgraph::fine::{Component, DependencyKind, FineDepGraph, Layer};
use smn_incident::RedditDeployment;
use smn_te::demand::DemandMatrix;
use smn_telemetry::delta::TelemetryDelta;
use smn_telemetry::record::BandwidthRecord;
use smn_telemetry::time::{Ts, DAY, EPOCH_SECS, HOUR};
use smn_telemetry::traffic::{TrafficConfig, TrafficModel};
use smn_topology::gen::{generate_planetary, Planetary, PlanetaryConfig};

use crate::stats::time_ms;

/// Five-minute epochs in an hour: the ticks of one round of a stream
/// workload, after which the closed hour is planned.
pub const TICKS_PER_HOUR: usize = 12;

/// The deployment: the WAN and its traffic model. Both are fixed, so every
/// seed streams the same pairs with the same hot/volatile make-up; the
/// seed picks the day and hours a workload runs at.
pub struct World {
    pub planetary: Planetary,
    pub model: TrafficModel,
    pub topology_ms: f64,
    pub traffic_ms: f64,
}

impl World {
    /// The 300-DC WAN (`small`: 24 DCs) and the default traffic model.
    pub fn new(small: bool) -> World {
        let (planetary, topology_ms) = time_ms(|| {
            let cfg = if small { PlanetaryConfig::small(7) } else { PlanetaryConfig::default() };
            generate_planetary(&cfg)
        });
        let (model, traffic_ms) =
            time_ms(|| TrafficModel::new(&planetary.wan, TrafficConfig::default()));
        World { planetary, model, topology_ms, traffic_ms }
    }
}

/// The telemetry of a stream session: a history bulk-loaded as tick 0, then
/// the round's ticks with their fine-graph churn.
pub struct StreamInputs {
    pub history: Vec<BandwidthRecord>,
    pub ticks: Vec<TelemetryDelta>,
    pub churn: Vec<Option<GraphDelta>>,
    /// The fine dependency graph before any churn.
    pub fine: FineDepGraph,
}

impl StreamInputs {
    /// `history_epochs` epochs ending at `history_end`, then `ticks`
    /// one-epoch deltas numbered from 1.
    pub fn new(
        model: &TrafficModel,
        history_end: Ts,
        history_epochs: usize,
        ticks: usize,
    ) -> StreamInputs {
        let start = Ts(history_end.0 - history_epochs as u64 * EPOCH_SECS);
        let history = model.generate(start, history_epochs);
        let tail = model.generate(history_end, ticks);
        let ticks = TelemetryDelta::split_epochs(&tail, 1);
        let fine = RedditDeployment::build().fine;
        let teams = fine.teams();
        let names: Vec<String> = fine.graph.nodes().map(|(_, c)| c.name.clone()).collect();
        let churn = ticks.iter().map(|t| churn(t.tick, &teams, &names)).collect();
        StreamInputs { history, ticks, churn, fine }
    }
}

/// Fine-graph churn as `smn stream` makes it: every third tick a new
/// service comes up in a rotating team, called by a rotating pre-existing
/// component.
fn churn(tick: u64, teams: &[String], names: &[String]) -> Option<GraphDelta> {
    if tick % 3 != 2 {
        return None;
    }
    let mut d = GraphDelta::new(tick);
    let name = format!("svc-tick-{tick}");
    let team = &teams[(tick as usize / 3) % teams.len()];
    d.push_component(Component {
        name: name.clone(),
        service: name.clone(),
        team: team.clone(),
        layer: Layer::Application,
    });
    d.push_dependency(names[tick as usize % names.len()].clone(), name, DependencyKind::Call);
    Some(d)
}

/// Weekdays of the first traffic regime (`TrafficConfig::regime_days` =
/// 10; days 5 and 6 of each week are the weekend).
const REGIME0_WEEKDAYS: [u64; 8] = [0, 1, 2, 3, 4, 7, 8, 9];

/// Regime boundaries (multiples of `regime_days`, where every volatile
/// pair's regime level changes) whose day and previous day are weekdays,
/// so the weekend dip does not add to the shift.
const REGIME_BOUNDARIES: [u64; 5] = [10, 30, 50, 60, 80];

/// Half a day of five-minute epochs.
pub const HALF_DAY_EPOCHS: usize = 144;

/// The day a seed's steady stream, restart session and plans run on.
pub fn day(seed: u64) -> u64 {
    REGIME0_WEEKDAYS[(seed % 8) as usize]
}

/// End of the steady workloads' history: noon of the seed's day, so the
/// history and the streamed hour lie in one traffic regime.
pub fn steady_history_end(seed: u64) -> Ts {
    Ts::from_days(day(seed)) + DAY / 2
}

/// End of the regime-shift workload's history: a regime boundary.
pub fn regime_history_end(seed: u64) -> Ts {
    Ts::from_days(REGIME_BOUNDARIES[(seed % 5) as usize])
}

/// Hours one round of `te_plan` plans: four, six hours apart from an
/// offset the seed picks, so every round covers the diurnal cycle.
pub fn plan_hours(seed: u64) -> [Ts; 4] {
    let first = Ts::from_days(day(seed)) + (seed / 8 % 6) * HOUR;
    [first, first + 6 * HOUR, first + 12 * HOUR, first + 18 * HOUR]
}

/// Commodities kept per plan (the E2 experiment's top 400).
pub const TOP_COMMODITIES: usize = 400;

/// The E2 demand snapshot at `ts`: the top commodities scaled to an
/// operating point near capacity.
pub fn plan_demand(model: &TrafficModel, ts: Ts) -> DemandMatrix {
    let mut triples = model.demand_matrix(ts);
    triples.sort_by(|a, b| b.2.total_cmp(&a.2).then((a.0, a.1).cmp(&(b.0, b.1))));
    triples.truncate(TOP_COMMODITIES);
    DemandMatrix::from_triples(triples.into_iter().map(|(s, d, g)| (s, d, g * 0.03)))
}
