//! Set-up and the measurement loop shared by every workload.

use crate::calib::Calibrator;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{Outcome, Run};
use grm_datagen::{generate, pokec_config_scaled};
use grm_graph::{io, SocialGraph};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Repetitions of each traced-run probe (calls made only to time one
/// layer in isolation, outside the measured cycles).
pub const PROBES: usize = 3;

pub struct Fixture {
    pub graph: SocialGraph,
    pub path: PathBuf,
}

/// Generate the Pokec-like fixture at `scale` from the run's seed, write
/// it and load it back, [`SETUP_REPS`] times; `after_load` runs inside
/// each timed set-up and may add to it. Returns the last loaded graph.
pub fn set_up(
    run: &Run,
    tracer: &mut Tracer,
    out: &mut Outcome,
    scale: f64,
    mut after_load: impl FnMut(&Path, &mut Tracer) -> Result<(), String>,
) -> Result<Fixture, String> {
    let cfg = pokec_config_scaled(scale).with_seed(run.seed);
    let path = run.work.join("fixture.grm");
    let mut graph = None;
    let mut cal = Calibrator::new();
    for _ in 0..SETUP_REPS {
        tracer.next_op();
        let (loaded, wall, adjusted) = cal.measure(|| {
            tracer
                .time("setup", |t| -> Result<SocialGraph, String> {
                    let made = t.time("datagen.generate", |_| generate(&cfg)).0;
                    let made = made.map_err(|e| format!("generate: {e}"))?;
                    let saved = t.time("io.save_graph", |_| io::save_graph(&made, &path)).0;
                    saved.map_err(|e| format!("save {}: {e}", path.display()))?;
                    let loaded = t.time("io.load_graph", |_| io::load_graph(&path)).0;
                    let loaded = loaded.map_err(|e| format!("load {}: {e}", path.display()))?;
                    if (loaded.node_count(), loaded.edge_count())
                        != (made.node_count(), made.edge_count())
                    {
                        return Err("the loaded fixture differs from the generated one".to_string());
                    }
                    drop(made);
                    after_load(&path, t)?;
                    Ok(loaded)
                })
                .0
        });
        graph = Some(loaded?);
        out.sample("setup_s", adjusted);
        out.sample("setup_wall_s", wall);
    }
    out.samples
        .entry("calib_s")
        .or_default()
        .extend(cal.samples);
    let graph = graph.expect("at least one set-up ran");
    out.metrics
        .insert("setup_s", median(&out.samples["setup_s"]));
    out.nodes = graph.node_count();
    out.edges = graph.edge_count();
    Ok(Fixture { graph, path })
}

/// Per-layer metrics of the set-up spans.
pub fn setup_layers(tracer: &Tracer, out: &mut Outcome, fx: &Fixture) {
    let load = median(&tracer.values("io.load_graph", true));
    let bytes = std::fs::metadata(&fx.path).map_or(0, |m| m.len());
    let m = &mut out.metrics;
    m.insert(
        "datagen.generate_s",
        median(&tracer.values("datagen.generate", true)),
    );
    m.insert("io.write_s", median(&tracer.values("io.save_graph", true)));
    m.insert("io.load_s", load);
    m.insert(
        "io.bytes_per_s",
        if load > 0.0 { bytes as f64 / load } else { 0.0 },
    );
}

/// One warm-up cycle, then cycles until `run.seconds` have passed (at
/// least one). `cycle_s` is the median host-adjusted untraced cycle
/// ([`crate::calib`]). In a traced run every other cycle is traced, and
/// `trace.overhead_frac` compares the two medians.
pub fn cycles(
    run: &Run,
    tracer: &mut Tracer,
    out: &mut Outcome,
    mut cycle: impl FnMut(&mut Tracer, &mut Outcome) -> Result<(), String>,
) -> Result<(), String> {
    tracer.set_on(false);
    let before = out.samples.clone();
    cycle(tracer, out)?;
    out.samples = before;
    let mut cal = Calibrator::new();
    let start = Instant::now();
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let mut i = 0;
    while i == 0 || start.elapsed().as_secs_f64() < run.seconds {
        let on = run.trace && i % 2 == 0;
        tracer.set_on(on);
        tracer.next_op();
        let (done, wall, adjusted) = cal.measure(|| tracer.time("cycle", |t| cycle(t, out)).0);
        done?;
        if on { &mut traced } else { &mut untraced }.push(adjusted);
        out.sample("cycle_wall_s", wall);
        i += 1;
    }
    tracer.set_on(run.trace);
    out.samples
        .entry("calib_s")
        .or_default()
        .extend(cal.samples);
    let base = median(&untraced);
    if !traced.is_empty() && base > 0.0 {
        out.metrics
            .insert("trace.overhead_frac", median(&traced) / base - 1.0);
    }
    out.metrics
        .insert("cycle_s", if run.trace { median(&traced) } else { base });
    out.samples
        .insert("cycle_s", if run.trace { traced } else { untraced });
    Ok(())
}
