//! Stream sessions: the controller's own loop (`stream_tick`,
//! `stream_reconcile`), and a traced twin that calls each layer's public
//! function in turn on state of its own.

use std::collections::BTreeSet;

use smn_core::bwlogs::encode_coarse_log;
use smn_core::coarsen::Coarsening;
use smn_core::controller::{ControllerConfig, SmnController};
use smn_core::stream::{IncrementalAdaptiveLog, IncrementalCoarseLog, StreamConfig, StreamState};
use smn_datalake::ingest::ingest_bandwidth;
use smn_datalake::Clds;
use smn_depgraph::coarse::CoarseDepGraph;
use smn_depgraph::delta::GraphDelta;
use smn_depgraph::fine::FineDepGraph;
use smn_telemetry::delta::TelemetryDelta;
use smn_telemetry::record::BandwidthRecord;

use crate::check;
use crate::inputs::StreamInputs;
use crate::stats::Layers;

/// The session configuration: the default coarseners, with reconciliation
/// called by the benchmark so that it is timed apart from the ticks.
pub fn config() -> StreamConfig {
    StreamConfig { reconcile_every: 0, ..StreamConfig::default() }
}

/// A controller whose lake holds `history`.
pub fn controller(fine: &FineDepGraph, history: &[BandwidthRecord]) -> SmnController {
    let ctl = SmnController::new(CoarseDepGraph::from_fine(fine), ControllerConfig::default());
    ingest_bandwidth(ctl.clds(), history);
    ctl
}

/// The session state after the history is streamed in as tick 0.
pub fn bootstrap(inp: &StreamInputs) -> StreamState {
    let mut ctl = controller(&inp.fine, &[]);
    let mut state = StreamState::new(config(), inp.fine.clone());
    ctl.stream_tick(&mut state, &TelemetryDelta::new(0, inp.history.clone()), None)
        .unwrap_or_else(|e| panic!("bootstrap tick failed: {e}"));
    state
}

/// The uniform, adaptive, lake and CDG checks on a session that streamed
/// `ticks` of `inp` on top of its history.
pub fn check_session(
    ctl: &SmnController,
    state: &StreamState,
    inp: &StreamInputs,
    ticks: usize,
) -> check::Check {
    let mut records = inp.history.clone();
    for t in &inp.ticks[..ticks] {
        records.extend_from_slice(&t.records);
    }
    check::lake(ctl.clds().bandwidth.read().all(), &records)?;
    check::uniform_log(&state.time_log().coarse_log(), &records, state.config.window_secs)?;
    let adaptive = state.adaptive_log();
    check::adaptive_log(
        &adaptive.coarse_log(),
        &adaptive.volatile_pairs(),
        &records,
        &state.config.adaptive,
    )?;
    let churn: Vec<&GraphDelta> = inp.churn[..ticks].iter().flatten().collect();
    check::cdg_growth(&state.cdg, &inp.fine, &CoarseDepGraph::from_fine(&inp.fine), &churn)
}

/// Byte encodings of a session's three incremental artifacts.
pub type Encodings = (Vec<u8>, Vec<u8>, Vec<u8>);

pub fn encodings(state: &StreamState) -> Encodings {
    (
        state.time_log().encode().as_slice().to_vec(),
        state.adaptive_log().encode().as_slice().to_vec(),
        state.cdg.canonical_bytes(),
    )
}

/// The traced twin of a session: its own lake, incremental logs, fine
/// graph and CDG, driven one layer call at a time.
pub struct Traced {
    cfg: StreamConfig,
    clds: Clds,
    time: IncrementalCoarseLog,
    adaptive: IncrementalAdaptiveLog,
    fine: FineDepGraph,
    cdg: CoarseDepGraph,
    /// Samples per pair so far, to count the samples a tick re-summarizes.
    samples: std::collections::BTreeMap<(u32, u32), usize>,
}

impl Traced {
    /// A twin of `state`, whose lake holds `history`.
    pub fn new(state: &StreamState, history: &[BandwidthRecord]) -> Traced {
        let clds = Clds::new();
        ingest_bandwidth(&clds, history);
        let mut samples = std::collections::BTreeMap::new();
        for r in history {
            *samples.entry((r.src, r.dst)).or_default() += 1;
        }
        Traced {
            cfg: state.config.clone(),
            clds,
            time: state.time_log().clone(),
            adaptive: state.adaptive_log().clone(),
            fine: state.fine.clone(),
            cdg: state.cdg.clone(),
            samples,
        }
    }

    /// One tick, layer by layer. Returns the summed layer time.
    pub fn tick(
        &mut self,
        layers: &mut Layers,
        td: &TelemetryDelta,
        churn: Option<&GraphDelta>,
    ) -> Result<f64, String> {
        let (ingest, ingest_ms) =
            crate::stats::time_ms(|| ingest_bandwidth(&self.clds, &td.records));
        layers.push("datalake.ingest_ms", ingest_ms);
        layers.push("datalake.records", ingest.ingested as f64);

        let time_c = self.cfg.time_coarsener();
        let (t, time_ms) = crate::stats::time_ms(|| time_c.apply_delta(&mut self.time, td));
        let t = t.map_err(|e| e.to_string())?;
        layers.push("stream.time_apply_ms", time_ms);
        layers.push("stream.time_dirty_cells", t.dirty_cells as f64);
        layers.push("stream.time_rows", t.total_rows as f64);

        let before: BTreeSet<(u32, u32)> = self.adaptive.volatile_pairs().into_iter().collect();
        let touched = td.pairs();
        let mut resummarized = 0usize;
        for r in &td.records {
            *self.samples.entry((r.src, r.dst)).or_default() += 1;
        }
        for p in &touched {
            resummarized += self.samples.get(p).copied().unwrap_or(0);
        }
        let (a, adaptive_ms) =
            crate::stats::time_ms(|| self.cfg.adaptive.apply_delta(&mut self.adaptive, td));
        let a = a.map_err(|e| e.to_string())?;
        let after: BTreeSet<(u32, u32)> = self.adaptive.volatile_pairs().into_iter().collect();
        layers.push("stream.adaptive_apply_ms", adaptive_ms);
        layers.push("stream.adaptive_dirty_pairs", a.dirty_cells as f64);
        layers.push("stream.adaptive_recomputed_rows", a.recomputed_rows as f64);
        layers.push("stream.adaptive_samples_resummarized", resummarized as f64);
        layers.push("stream.adaptive_rows", a.total_rows as f64);
        layers.push(
            "stream.adaptive_class_flips",
            before.symmetric_difference(&after).count() as f64,
        );
        layers.push("stream.volatile_pairs", after.len() as f64);

        let mut cdg_ms = 0.0;
        if let Some(g) = churn.filter(|g| !g.is_empty()) {
            let (r, ms) = crate::stats::time_ms(|| {
                g.apply_to_fine(&mut self.fine)?;
                self.cdg.apply_delta(&self.fine, g)
            });
            cdg_ms = ms;
            layers.push("depgraph.cdg_apply_ms", ms);
            layers.push("depgraph.cdg_new_edges", r.map_err(|e| e.to_string())?.new_edges as f64);
        }
        Ok(ingest_ms + time_ms + adaptive_ms + cdg_ms)
    }

    /// A reconciliation, layer by layer: the batch oracles over the lake
    /// and a CDG rebuild, each compared with this twin's incremental
    /// artifacts. Returns this twin's encodings for the cross-check with
    /// the untraced session.
    pub fn reconcile(&mut self, layers: &mut Layers) -> Result<Encodings, String> {
        let full = layers.time("reconcile.copy_ms", || self.clds.bandwidth.read().all().to_vec());
        layers.push("reconcile.lake_records", full.len() as f64);
        let time_c = self.cfg.time_coarsener();
        let batch_time = layers.time("bwlogs.time_batch_ms", || time_c.coarsen(&full));
        let batch_adaptive =
            layers.time("bwlogs.adaptive_batch_ms", || self.cfg.adaptive.coarsen(&full));
        let (inc_time, inc_adaptive, batch_time, batch_adaptive) =
            layers.time("bwlogs.encode_ms", || {
                (
                    self.time.encode(),
                    self.adaptive.encode(),
                    encode_coarse_log(&batch_time),
                    encode_coarse_log(&batch_adaptive),
                )
            });
        let batch_cdg =
            layers.time("depgraph.cdg_rebuild_ms", || CoarseDepGraph::from_fine(&self.fine));
        let inc_cdg = self.cdg.canonical_bytes();
        if inc_time != batch_time
            || inc_adaptive != batch_adaptive
            || inc_cdg != batch_cdg.canonical_bytes()
        {
            return Err("traced incremental state differs from the batch oracles".to_string());
        }
        Ok((inc_time.as_slice().to_vec(), inc_adaptive.as_slice().to_vec(), inc_cdg))
    }

    /// The uniform coarse log, read back.
    pub fn coarse_log(&self, layers: &mut Layers) -> Vec<smn_core::bwlogs::CoarseBwRecord> {
        layers.time("stream.coarse_log_read_ms", || self.time.coarse_log())
    }
}
