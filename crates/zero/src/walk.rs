//! The slot walk the three ZeRO simulators share.
//!
//! A ZeRO step walks `2L` layer slots: slots `0..L` run the layers forward,
//! slots `L..2L` run them backward in reverse order. Each unit (a GPU, or
//! the lockstep group of servers) computes a slot once the slot's blocking
//! loads have landed. The moment a compute starts, the unit launches the
//! next slot's loads (ZeRO's prefetch), and when it ends the simulator
//! starts the slot's non-blocking flows. What a load, a compute and a
//! landed flow mean is each simulator's own ([`Slots`]).

use mobius_obs::Obs;
use mobius_profiler::LayerProfile;
use mobius_sim::{Engine, FlowNetwork, FlowRecord, SimTime, Step, TraceRecorder};

use crate::ZeroError;

/// The layer slot `slot` runs, and whether it runs it backward.
pub(crate) fn slot_layer(slot: usize, layers: usize) -> (usize, bool) {
    if slot < layers {
        (slot, false)
    } else {
        (2 * layers - 1 - slot, true)
    }
}

/// A trace recorder for the flows of `net`; with `obs`, both report to it.
pub(crate) fn trace_for<T>(net: &mut FlowNetwork<T>, obs: Option<&Obs>) -> TraceRecorder {
    let mut trace = TraceRecorder::new();
    if let Some(obs) = obs {
        trace.set_obs(obs.clone());
        trace.set_link_labels(net.link_labels());
        net.set_obs(obs.clone());
    }
    trace
}

/// What a simulator adds to the walk.
pub(crate) trait Slots {
    /// The tag each of its flows carries.
    type Tag;

    /// The network its flows run on.
    fn net(&mut self) -> &mut FlowNetwork<Self::Tag>;

    /// Starts the loads `unit` needs before it computes `slot`, and returns
    /// how many must land first, counting chain legs that launch later.
    fn load(&mut self, unit: usize, slot: usize) -> usize;

    /// `unit` computed `slot` over `started..now`: records the compute and
    /// starts the flows that follow it.
    fn computed(&mut self, unit: usize, slot: usize, started: SimTime, now: SimTime);

    /// Records a landed flow, and returns the unit it was a load of, if any.
    fn landed(&mut self, rec: &FlowRecord, tag: Self::Tag) -> Option<usize>;
}

/// One unit's progress through its slots.
#[derive(Debug, Default)]
struct Unit {
    /// The slot it computes next, or is computing.
    slot: usize,
    /// Loads still in flight: the next slot's while it computes.
    outstanding: usize,
    /// When its running compute started.
    computing: Option<SimTime>,
}

/// Walks `units` units through the `2L` slots of `layers` on `sim` and
/// returns the instant the last flow or compute ended. With `obs`, the
/// engine counts its schedules and pops.
pub(crate) fn walk<S: Slots>(
    sim: &mut S,
    layers: &[LayerProfile],
    units: usize,
    obs: Option<&Obs>,
) -> Result<SimTime, ZeroError> {
    let mut engine = Engine::new();
    if let Some(obs) = obs {
        engine.set_obs(obs.clone());
    }
    let mut units: Vec<Unit> = (0..units)
        .map(|u| Unit {
            outstanding: if layers.is_empty() { 0 } else { sim.load(u, 0) },
            ..Unit::default()
        })
        .collect();
    pump(sim, &mut engine, &mut units, layers);
    while let Some(step) = mobius_sim::step(sim.net(), &mut engine)? {
        match step {
            Step::Flow(_, rec, tag) => {
                if let Some(u) = sim.landed(&rec, tag) {
                    units[u].outstanding -= 1;
                }
            }
            Step::Event(now, u) => {
                let unit = &mut units[u];
                let started = unit.computing.take().expect("no compute running");
                sim.computed(u, unit.slot, started, now);
                unit.slot += 1;
            }
        }
        pump(sim, &mut engine, &mut units, layers);
    }
    debug_assert!(
        units.iter().all(|u| u.slot == 2 * layers.len()),
        "a unit did not finish its step"
    );
    Ok(engine.now())
}

/// Visits the units in index order. Each idle unit whose slot's loads have
/// landed starts that slot's compute, then the next slot's loads.
fn pump<S: Slots>(
    sim: &mut S,
    engine: &mut Engine<usize>,
    units: &mut [Unit],
    layers: &[LayerProfile],
) {
    let slots = 2 * layers.len();
    for (u, unit) in units.iter_mut().enumerate() {
        if unit.computing.is_some() || unit.slot == slots || unit.outstanding > 0 {
            continue;
        }
        let (layer, backward) = slot_layer(unit.slot, layers.len());
        let l = &layers[layer];
        unit.computing = Some(engine.now());
        engine.schedule_after(if backward { l.bwd } else { l.fwd }, u);
        if unit.slot + 1 < slots {
            unit.outstanding = sim.load(u, unit.slot + 1);
        }
    }
}
