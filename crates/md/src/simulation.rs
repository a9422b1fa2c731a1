//! MD driver: ties a calculator to the integrator and records a
//! trajectory log (the workload of the paper's Table II).

use crate::field::ForceField;
use crate::integrator::{langevin_kick, velocity_verlet_step, MdState};
use fc_crystal::Structure;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Thermostat selection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Ensemble {
    /// Microcanonical (pure velocity Verlet).
    Nve,
    /// Langevin NVT at a target temperature with friction γ (1/fs).
    Nvt {
        /// Target temperature (K).
        t_kelvin: f64,
        /// Friction coefficient (1/fs).
        gamma: f64,
    },
}

/// MD run configuration.
#[derive(Clone, Copy, Debug)]
pub struct MdConfig {
    /// Timestep (fs).
    pub dt_fs: f64,
    /// Number of steps.
    pub steps: usize,
    /// Ensemble / thermostat.
    pub ensemble: Ensemble,
    /// Initial temperature for velocity initialisation (K).
    pub init_t_kelvin: f64,
    /// RNG seed.
    pub seed: u64,
    /// Record a frame every `log_every` steps.
    pub log_every: usize,
}

impl Default for MdConfig {
    fn default() -> Self {
        MdConfig {
            dt_fs: 1.0,
            steps: 20,
            ensemble: Ensemble::Nve,
            init_t_kelvin: 300.0,
            seed: 0,
            log_every: 1,
        }
    }
}

/// One recorded trajectory frame.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Step index.
    pub step: usize,
    /// Potential energy (eV).
    pub potential: f64,
    /// Kinetic energy (eV).
    pub kinetic: f64,
    /// Instantaneous temperature (K).
    pub temperature: f64,
    /// Max force component magnitude (eV/Å).
    pub max_force: f64,
}

/// A finished MD run.
#[derive(Clone, Debug)]
pub struct Trajectory {
    /// Recorded frames.
    pub frames: Vec<Frame>,
    /// Final structure.
    pub final_structure: Structure,
    /// Mean wall time of one MD step (seconds) — the Table II metric.
    pub mean_step_time: f64,
}

impl Trajectory {
    /// Total energy of frame `i` (potential + kinetic).
    pub fn total_energy(&self, i: usize) -> f64 {
        self.frames[i].potential + self.frames[i].kinetic
    }
}

/// Run MD with any force field (a model calculator or the exact oracle).
pub fn run_md<F: ForceField + ?Sized>(calc: &F, initial: &Structure, cfg: &MdConfig) -> Trajectory {
    let mut structure = initial.clone();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut state = if cfg.init_t_kelvin > 0.0 {
        MdState::thermal(&structure, cfg.init_t_kelvin, &mut rng)
    } else {
        MdState::at_rest(&structure)
    };

    let first = calc.compute(&structure);
    let mut forces = first.forces;
    let mut potential = first.energy;
    let mut frames = Vec::new();
    let mut step_time_acc = 0.0;

    for step in 0..cfg.steps {
        if step % cfg.log_every == 0 {
            frames.push(make_frame(step, potential, &state, &forces));
            // Timeline markers for the flight recorder: logged frames as
            // instants, the potential as a counter series.
            fc_telemetry::trace::instant("md_frame");
            fc_telemetry::trace::counter("md.potential_ev", potential);
        }
        let t0 = Instant::now();
        let _step_span = fc_telemetry::span("md_step");
        if let Ensemble::Nvt { t_kelvin, gamma } = cfg.ensemble {
            let _thermo_span = fc_telemetry::span("thermostat");
            langevin_kick(&mut state, t_kelvin, gamma, cfg.dt_fs, &mut rng);
        }
        let mut new_potential = potential;
        {
            let _int_span = fc_telemetry::span("integrate");
            forces = velocity_verlet_step(&mut structure, &mut state, &forces, cfg.dt_fs, |s| {
                let _force_span = fc_telemetry::span("force_eval");
                let r = calc.compute(s);
                new_potential = r.energy;
                r.forces
            });
        }
        potential = new_potential;
        drop(_step_span);
        step_time_acc += t0.elapsed().as_secs_f64();
    }
    frames.push(make_frame(cfg.steps, potential, &state, &forces));

    Trajectory {
        frames,
        final_structure: structure,
        mean_step_time: step_time_acc / cfg.steps.max(1) as f64,
    }
}

fn make_frame(step: usize, potential: f64, state: &MdState, forces: &[[f64; 3]]) -> Frame {
    Frame {
        step,
        potential,
        kinetic: state.kinetic_energy(),
        temperature: state.temperature(),
        max_force: forces.iter().flatten().fold(0.0f64, |m, &f| m.max(f.abs())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calculator::Calculator;
    use crate::field::OracleField;
    use fc_core::{Chgnet, ModelConfig, OptLevel};
    use fc_crystal::{Element, Lattice};
    use fc_tensor::ParamStore;

    /// Held by the tests that flip the process-global telemetry and tracing
    /// switches, so one cannot switch recording off while the other records.
    static RECORDING_SWITCHES: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn setup() -> (Chgnet, ParamStore, Structure) {
        let mut store = ParamStore::new();
        let model = Chgnet::new(ModelConfig::tiny(OptLevel::Decoupled), &mut store, 9);
        let s = Structure::new(
            Lattice::cubic(3.6),
            vec![Element::new(3), Element::new(8)],
            vec![[0.0; 3], [0.5, 0.5, 0.5]],
        );
        (model, store, s)
    }

    #[test]
    fn md_runs_and_logs() {
        let (model, store, s) = setup();
        let calc = Calculator::new(&model, &store);
        let traj = run_md(&calc, &s, &MdConfig { steps: 5, ..Default::default() });
        assert_eq!(traj.frames.len(), 6);
        assert!(traj.mean_step_time > 0.0);
        assert!(traj.frames.iter().all(|f| f.potential.is_finite()));
        assert_eq!(traj.final_structure.n_atoms(), 2);
    }

    #[test]
    fn nvt_keeps_temperature_bounded() {
        let (model, store, s) = setup();
        let calc = Calculator::new(&model, &store);
        let traj = run_md(
            &calc,
            &s,
            &MdConfig {
                steps: 10,
                dt_fs: 0.5,
                ensemble: Ensemble::Nvt { t_kelvin: 300.0, gamma: 0.1 },
                ..Default::default()
            },
        );
        for f in &traj.frames {
            assert!(f.temperature.is_finite() && f.temperature < 50_000.0);
        }
    }

    #[test]
    fn nve_conserves_energy_on_exact_forces() {
        // Velocity Verlet + the oracle's analytic forces: total energy
        // drift over 60 fs must be small relative to the kinetic scale.
        let s = Structure::new(
            Lattice::cubic(4.2),
            vec![Element::new(3), Element::new(8)],
            vec![[0.02, 0.0, 0.0], [0.5, 0.5, 0.5]],
        );
        let traj = run_md(
            &OracleField,
            &s,
            &MdConfig { steps: 120, dt_fs: 0.5, init_t_kelvin: 300.0, ..Default::default() },
        );
        let e0 = traj.total_energy(0);
        let e_last = traj.total_energy(traj.frames.len() - 1);
        let ke_scale = traj.frames[0].kinetic.abs().max(1e-3);
        assert!(
            (e_last - e0).abs() < 0.2 * ke_scale,
            "NVE drift {e0} -> {e_last} (KE scale {ke_scale})"
        );
    }

    #[test]
    fn md_telemetry_spans_nest() {
        let _switches = RECORDING_SWITCHES.lock().unwrap_or_else(|e| e.into_inner());
        let (model, store, s) = setup();
        let calc = Calculator::new(&model, &store);
        fc_telemetry::reset();
        fc_telemetry::set_enabled(true);
        let _ = run_md(
            &calc,
            &s,
            &MdConfig {
                steps: 3,
                ensemble: Ensemble::Nvt { t_kelvin: 300.0, gamma: 0.1 },
                ..Default::default()
            },
        );
        let snap = fc_telemetry::snapshot();
        fc_telemetry::set_enabled(false);
        for path in
            ["md_step", "md_step/thermostat", "md_step/integrate", "md_step/integrate/force_eval"]
        {
            assert!(snap.spans.contains_key(path), "missing span {path}");
        }
        assert!(snap.spans["md_step"].count >= 3);
        // Verlet evaluates forces once per step.
        assert!(snap.spans["md_step/integrate/force_eval"].count >= 3);
    }

    #[test]
    fn md_trace_records_frame_markers() {
        use fc_telemetry::trace;
        let _switches = RECORDING_SWITCHES.lock().unwrap_or_else(|e| e.into_inner());
        let (model, store, s) = setup();
        let calc = Calculator::new(&model, &store);
        fc_telemetry::set_enabled(true);
        trace::set_tracing(true);
        let _ = run_md(&calc, &s, &MdConfig { steps: 4, log_every: 2, ..Default::default() });
        // Concurrent tests may record too; keep this thread's buffer only.
        let mut snap = trace::snapshot();
        snap.threads.retain(|t| t.thread_name.contains("md_trace_records"));
        trace::set_tracing(false);
        fc_telemetry::set_enabled(false);
        let events: Vec<_> = snap.threads.iter().flat_map(|t| &t.events).collect();
        let instants =
            events.iter().filter(|e| e.name == "md_frame" && e.kind == trace::EventKind::Instant);
        assert_eq!(instants.count(), 2, "one instant per logged frame");
        assert!(
            events
                .iter()
                .any(|e| e.name == "md.potential_ev"
                    && matches!(e.kind, trace::EventKind::Counter(_))),
            "potential counter series missing"
        );
        assert!(
            events.iter().any(|e| e.name == "md_step" && e.kind == trace::EventKind::Begin),
            "md_step spans should land on the timeline"
        );
    }
}
