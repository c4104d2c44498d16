//! Simulation configuration.

use crate::engine::MAX_COPIES_PER_TASK;
use mapreduce_support::json::{FromJson, JsonError, JsonValue, ToJson};

/// Model of machine-level straggling applied on top of the workload-level
/// variance already encoded in the trace.
///
/// The paper attributes stragglers to "partially/intermittently failing
/// machines or localized resource bottlenecks" but then folds the effect into
/// the task-workload distribution. [`StragglerModel::MachineSlowdown`] lets
/// experiments re-introduce an explicit machine-level effect (useful for the
/// straggler-mitigation example and for stress tests); the default is
/// [`StragglerModel::None`] which matches the paper's model exactly.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum StragglerModel {
    /// No machine-level slowdown: a copy's duration equals its sampled
    /// workload divided by machine speed.
    #[default]
    None,
    /// Each launched copy independently lands on a "struggling" machine with
    /// probability `probability`; its duration is multiplied by `factor`.
    MachineSlowdown {
        /// Probability that any individual copy is slowed down.
        probability: f64,
        /// Multiplicative slowdown factor (> 1).
        factor: f64,
    },
}

impl StragglerModel {
    /// Validates the model parameters.
    ///
    /// # Panics
    /// Panics if the probability is outside `[0, 1]` or the factor is < 1.
    pub fn validate(&self) {
        if let StragglerModel::MachineSlowdown {
            probability,
            factor,
        } = *self
        {
            assert!(
                (0.0..=1.0).contains(&probability),
                "slowdown probability must be in [0, 1], got {probability}"
            );
            assert!(factor >= 1.0, "slowdown factor must be >= 1, got {factor}");
        }
    }
}

impl ToJson for StragglerModel {
    fn to_json(&self) -> JsonValue {
        match *self {
            StragglerModel::None => JsonValue::String("None".to_string()),
            StragglerModel::MachineSlowdown {
                probability,
                factor,
            } => JsonValue::object([(
                "MachineSlowdown",
                JsonValue::object([
                    ("probability", probability.to_json()),
                    ("factor", factor.to_json()),
                ]),
            )]),
        }
    }
}

/// One group of machines sharing identical fault dynamics.
///
/// A class is either a **crash** class (`slowdown: None`) — machines
/// alternate between exponentially distributed up epochs (mean
/// `mean_up_slots`, the MTBF) and down epochs (mean `mean_down_slots`, the
/// MTTR); going down kills every resident copy and removes the machine from
/// the schedulable pool — or a **brown-out** class (`slowdown: Some(f)`) —
/// machines stay schedulable but copies *launched* during a degraded epoch
/// run `f`× slower. Classes cover machine indices consecutively from 0, so a
/// 100k-machine plan is O(classes) in memory, not O(machines).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultClass {
    /// Number of machines covered by this class.
    pub machines: usize,
    /// Mean length (slots) of a healthy epoch — the MTBF.
    pub mean_up_slots: f64,
    /// Mean length (slots) of a failed/degraded epoch — the MTTR.
    pub mean_down_slots: f64,
    /// `None` for a crash class; `Some(factor >= 1)` for a brown-out class
    /// whose degraded epochs multiply launched-copy durations by `factor`.
    pub slowdown: Option<f64>,
}

impl FaultClass {
    /// A crash class: machines fail outright and come back empty.
    pub fn crashes(machines: usize, mean_up_slots: f64, mean_down_slots: f64) -> Self {
        FaultClass {
            machines,
            mean_up_slots,
            mean_down_slots,
            slowdown: None,
        }
    }

    /// A brown-out class: machines keep running but copies launched during a
    /// degraded epoch take `slowdown`× longer.
    pub fn brownouts(
        machines: usize,
        mean_up_slots: f64,
        mean_down_slots: f64,
        slowdown: f64,
    ) -> Self {
        FaultClass {
            machines,
            mean_up_slots,
            mean_down_slots,
            slowdown: Some(slowdown),
        }
    }

    /// Validates one class in isolation.
    ///
    /// # Errors
    /// Returns a human-readable description of the first problem found.
    pub fn check(&self) -> Result<(), String> {
        if self.machines == 0 {
            return Err("fault class must cover at least one machine".to_string());
        }
        if !(self.mean_up_slots.is_finite() && self.mean_up_slots > 0.0) {
            return Err(format!(
                "fault class mean_up_slots must be finite and positive, got {}",
                self.mean_up_slots
            ));
        }
        if !(self.mean_down_slots.is_finite() && self.mean_down_slots > 0.0) {
            return Err(format!(
                "fault class mean_down_slots must be finite and positive, got {}",
                self.mean_down_slots
            ));
        }
        if let Some(factor) = self.slowdown {
            if !(factor.is_finite() && factor >= 1.0) {
                return Err(format!(
                    "fault class slowdown must be finite and >= 1, got {factor}"
                ));
            }
        }
        Ok(())
    }
}

impl ToJson for FaultClass {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("machines", self.machines.to_json()),
            ("mean_up_slots", self.mean_up_slots.to_json()),
            ("mean_down_slots", self.mean_down_slots.to_json()),
            ("slowdown", self.slowdown.to_json()),
        ])
    }
}

impl FromJson for FaultClass {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(FaultClass {
            machines: usize::from_json(value.field("machines")?)?,
            mean_up_slots: f64::from_json(value.field("mean_up_slots")?)?,
            mean_down_slots: f64::from_json(value.field("mean_down_slots")?)?,
            slowdown: match value.get("slowdown") {
                Some(v) => Option::from_json(v)?,
                None => None,
            },
        })
    }
}

/// Deterministic machine-dynamics plan: which machines fail (or brown out),
/// how often, and for how long.
///
/// Epoch lengths are sampled from a dedicated RNG stream derived from the
/// simulation seed, so a plan is a pure function of `(plan, seed)` and two
/// runs with the same config are bit-identical. The **empty plan is free**:
/// the engine builds no machine-residency state for it and produces the
/// bit-identical trajectory of a run without fault injection (pinned by the
/// golden-suite proptests).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Machine classes, covering machine indices consecutively from 0.
    /// Machines beyond the covered prefix never fail.
    pub classes: Vec<FaultClass>,
}

impl FaultPlan {
    /// The empty plan: no machine ever fails.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Builds a plan from classes.
    pub fn new(classes: Vec<FaultClass>) -> Self {
        FaultPlan { classes }
    }

    /// Whether the plan injects no faults at all.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Total number of machines covered by the plan's classes.
    pub fn covered_machines(&self) -> usize {
        self.classes.iter().map(|c| c.machines).sum()
    }

    /// Validates the plan against a cluster size.
    ///
    /// # Errors
    /// Returns a human-readable description of the first problem found:
    /// an invalid class, or classes covering more machines than exist.
    pub fn check(&self, num_machines: usize) -> Result<(), String> {
        for class in &self.classes {
            class.check()?;
        }
        let covered = self.covered_machines();
        if covered > num_machines {
            return Err(format!(
                "fault plan covers {covered} machines but the cluster has {num_machines}"
            ));
        }
        Ok(())
    }

    /// Panicking form of [`FaultPlan::check`] for builder-style use.
    ///
    /// # Panics
    /// Panics if the plan is invalid for `num_machines` machines.
    pub fn validate(&self, num_machines: usize) {
        if let Err(message) = self.check(num_machines) {
            panic!("{message}");
        }
    }
}

impl ToJson for FaultPlan {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([("classes", self.classes.to_json())])
    }
}

impl FromJson for FaultPlan {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(FaultPlan {
            classes: Vec::from_json(value.field("classes")?)?,
        })
    }
}

/// Configuration of a single simulation run.
///
/// ```
/// use mapreduce_sim::{SimConfig, StragglerModel};
/// let cfg = SimConfig::new(1000)
///     .with_seed(7)
///     .with_machine_speed(1.2)
///     .with_straggler_model(StragglerModel::MachineSlowdown { probability: 0.05, factor: 4.0 });
/// assert_eq!(cfg.num_machines, 1000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of machines `M` in the cluster.
    pub num_machines: usize,
    /// RNG seed used for clone-workload resampling and straggler injection.
    pub seed: u64,
    /// Machine speed `s`; the paper's resource-augmentation analysis gives the
    /// algorithm machines of speed `1 + ε`. A task copy with workload `p`
    /// needs `ceil(p / speed)` slots.
    pub machine_speed: f64,
    /// Hard horizon on the simulated time, as a safety net against scheduler
    /// bugs. `None` means unbounded.
    pub max_slots: Option<u64>,
    /// Machine-level straggler injection model.
    pub straggler: StragglerModel,
    /// Width exponent of the engine's calendar event queue: the ring holds
    /// `2^event_ring_bits` slot-granular buckets; events further out go to
    /// the overflow heap. A pure performance knob — any width produces the
    /// bit-identical trajectory — so it is not part of the cache key: the
    /// serialised config carries a constant in its place, and configs that
    /// differ only in this width share one cell fingerprint. See
    /// [`crate::events::EventQueue`].
    pub event_ring_bits: u8,
    /// Machine crash/recovery and brown-out dynamics. The default (empty)
    /// plan injects nothing and is bit-identical to a run without fault
    /// injection; it is serialised **only when non-empty**, so existing
    /// experiment-cache fingerprints are unaffected by the knob's existence.
    pub fault_plan: FaultPlan,
}

impl SimConfig {
    /// Creates a configuration with the given number of machines and sensible
    /// defaults everywhere else.
    ///
    /// # Panics
    /// Panics if `num_machines` is zero.
    pub fn new(num_machines: usize) -> Self {
        assert!(num_machines > 0, "cluster must have at least one machine");
        SimConfig {
            num_machines,
            seed: 0,
            machine_speed: 1.0,
            max_slots: None,
            straggler: StragglerModel::None,
            event_ring_bits: crate::events::DEFAULT_RING_BITS,
            fault_plan: FaultPlan::none(),
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the machine speed (resource augmentation).
    ///
    /// # Panics
    /// Panics if the speed is not strictly positive.
    pub fn with_machine_speed(mut self, speed: f64) -> Self {
        assert!(speed > 0.0, "machine speed must be positive, got {speed}");
        self.machine_speed = speed;
        self
    }

    /// Sets the simulation horizon.
    pub fn with_max_slots(mut self, max_slots: u64) -> Self {
        self.max_slots = Some(max_slots);
        self
    }

    /// Sets the straggler-injection model.
    ///
    /// # Panics
    /// Panics if the model parameters are invalid.
    pub fn with_straggler_model(mut self, model: StragglerModel) -> Self {
        model.validate();
        self.straggler = model;
        self
    }

    /// Sets the machine-dynamics fault plan.
    ///
    /// # Panics
    /// Panics if the plan is invalid for this cluster size.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        plan.validate(self.num_machines);
        self.fault_plan = plan;
        self
    }

    /// Sets the calendar-queue ring width exponent (`2^bits` buckets).
    ///
    /// # Panics
    /// Panics unless `4 <= bits <= 20`.
    pub fn with_event_ring_bits(mut self, bits: u8) -> Self {
        assert!(
            (4..=20).contains(&bits),
            "event ring bits must be in 4..=20, got {bits}"
        );
        self.event_ring_bits = bits;
        self
    }
}

impl ToJson for SimConfig {
    fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            ("num_machines", self.num_machines.to_json()),
            ("seed", self.seed.to_json()),
            ("machine_speed", self.machine_speed.to_json()),
            ("max_slots", self.max_slots.to_json()),
            ("straggler", self.straggler.to_json()),
            // Removed knobs, now engine constants (clones always resample;
            // the copy cap is `MAX_COPIES_PER_TASK`) or gone (the global
            // wakeup), and the ring width, which never changes an outcome.
            // Their constant values keep every persisted cache fingerprint
            // valid.
            ("resample_clone_workloads", true.to_json()),
            ("max_copies_per_task", MAX_COPIES_PER_TASK.to_json()),
            ("periodic_wakeup", JsonValue::Null),
            ("event_ring_bits", 11u64.to_json()),
        ];
        // The empty plan is the semantic default and bit-identical to runs
        // predating fault injection: emitting it only when non-empty keeps
        // every previously persisted cache fingerprint valid.
        if !self.fault_plan.is_empty() {
            fields.push(("fault_plan", self.fault_plan.to_json()));
        }
        JsonValue::object(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sensible() {
        let cfg = SimConfig::new(12);
        assert_eq!(cfg.num_machines, 12);
        assert_eq!(cfg.machine_speed, 1.0);
        assert_eq!(cfg.straggler, StragglerModel::None);
        assert!(cfg.max_slots.is_none());
    }

    #[test]
    fn builder_setters() {
        let cfg = SimConfig::new(5)
            .with_seed(9)
            .with_machine_speed(1.6)
            .with_max_slots(1000);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.machine_speed, 1.6);
        assert_eq!(cfg.max_slots, Some(1000));
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn zero_machines_rejected() {
        SimConfig::new(0);
    }

    #[test]
    #[should_panic(expected = "speed must be positive")]
    fn zero_speed_rejected() {
        SimConfig::new(1).with_machine_speed(0.0);
    }

    #[test]
    #[should_panic(expected = "probability must be in")]
    fn bad_straggler_probability_rejected() {
        SimConfig::new(1).with_straggler_model(StragglerModel::MachineSlowdown {
            probability: 1.5,
            factor: 2.0,
        });
    }

    #[test]
    #[should_panic(expected = "factor must be >= 1")]
    fn bad_straggler_factor_rejected() {
        SimConfig::new(1).with_straggler_model(StragglerModel::MachineSlowdown {
            probability: 0.5,
            factor: 0.5,
        });
    }

    #[test]
    fn event_ring_bits_knob() {
        assert_eq!(
            SimConfig::new(1).event_ring_bits,
            crate::events::DEFAULT_RING_BITS
        );
        assert_eq!(SimConfig::new(1).with_event_ring_bits(8).event_ring_bits, 8);
        assert!(std::panic::catch_unwind(|| SimConfig::new(1).with_event_ring_bits(3)).is_err());
    }

    #[test]
    fn json_roundtrip() {
        // The compact document is what `cell_fingerprint` hashes, so any
        // byte that moves here invalidates every persisted cache entry; it
        // must also come back unchanged through the JSON parser.
        let slowed = SimConfig::new(3)
            .with_seed(1)
            .with_max_slots(7)
            .with_straggler_model(StragglerModel::MachineSlowdown {
                probability: 0.1,
                factor: 2.0,
            });
        let pinned = [
            (
                SimConfig::new(3).with_seed(1),
                "{\"event_ring_bits\":11,\"machine_speed\":1,\"max_copies_per_task\":64,\
                 \"max_slots\":null,\"num_machines\":3,\"periodic_wakeup\":null,\
                 \"resample_clone_workloads\":true,\"seed\":1,\"straggler\":\"None\"}",
            ),
            (
                slowed,
                "{\"event_ring_bits\":11,\"machine_speed\":1,\"max_copies_per_task\":64,\
                 \"max_slots\":7,\"num_machines\":3,\"periodic_wakeup\":null,\
                 \"resample_clone_workloads\":true,\"seed\":1,\
                 \"straggler\":{\"MachineSlowdown\":{\"factor\":2,\"probability\":0.1}}}",
            ),
        ];
        for (cfg, document) in pinned {
            assert_eq!(cfg.to_json().to_compact_string(), document);
            let reparsed = JsonValue::parse(document).unwrap();
            assert_eq!(reparsed.to_compact_string(), document);
        }
    }

    #[test]
    fn fault_plan_json_roundtrip_and_empty_plan_is_fingerprint_neutral() {
        // The empty plan must serialise to exactly the pre-fault-injection
        // document: existing persisted cache fingerprints stay valid.
        let plain = SimConfig::new(4).to_json();
        assert!(plain.get("fault_plan").is_none());

        let plan = FaultPlan::new(vec![
            FaultClass::crashes(2, 500.0, 40.0),
            FaultClass::brownouts(1, 300.0, 100.0, 2.5),
        ]);
        assert_eq!(plan.covered_machines(), 3);
        let cfg = SimConfig::new(4).with_seed(9).with_fault_plan(plan.clone());
        let json = JsonValue::parse(&cfg.to_json().to_compact_string()).unwrap();
        let back = FaultPlan::from_json(json.get("fault_plan").unwrap()).unwrap();
        assert_eq!(back, plan);
        // And a non-empty plan changes the canonical document.
        assert_ne!(
            json.to_compact_string(),
            SimConfig::new(4).with_seed(9).to_json().to_compact_string()
        );
    }

    #[test]
    fn fault_plan_validation() {
        assert!(FaultPlan::none().check(0).is_ok());
        let over = FaultPlan::new(vec![FaultClass::crashes(5, 100.0, 10.0)]);
        assert!(over.check(4).is_err());
        assert!(over.check(5).is_ok());
        assert!(FaultClass::crashes(0, 100.0, 10.0).check().is_err());
        assert!(FaultClass::crashes(1, 0.0, 10.0).check().is_err());
        assert!(FaultClass::crashes(1, 100.0, f64::NAN).check().is_err());
        assert!(FaultClass::brownouts(1, 100.0, 10.0, 0.5).check().is_err());
        assert!(FaultClass::brownouts(1, 100.0, 10.0, 1.0).check().is_ok());
        assert!(std::panic::catch_unwind(|| {
            SimConfig::new(2)
                .with_fault_plan(FaultPlan::new(vec![FaultClass::crashes(3, 100.0, 10.0)]))
        })
        .is_err());
    }
}
