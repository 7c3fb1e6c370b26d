//! The simulated node: couples the power and thermal models to a clock and
//! an energy meter. `eco-slurm-sim`'s `slurmd` drives one of these per
//! compute node; Chronus observes it through the IPMI simulator.

use crate::clock::{SimClock, SimDuration, SimTime};
use crate::cpu::CpuSpec;
use crate::power::{CpuLoad, PowerModel, PowerModelParams};
use crate::thermal::{ThermalModel, ThermalParams};
use serde::{Deserialize, Serialize};

/// Accumulated true (noise-free) energy since node start.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyTotals {
    /// DC-side system energy in joules.
    pub system_j: f64,
    /// CPU package energy in joules.
    pub cpu_j: f64,
    /// AC-side (wall) energy in joules.
    pub wall_j: f64,
}

/// A point-in-time ground-truth telemetry snapshot of the node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Telemetry {
    /// Simulated instant of the snapshot.
    pub time: SimTime,
    /// DC-side system power (W).
    pub system_power_w: f64,
    /// CPU package power (W).
    pub cpu_power_w: f64,
    /// CPU package temperature (°C).
    pub cpu_temp_c: f64,
    /// AC-side wall power (W).
    pub wall_power_w: f64,
}

/// The simulated compute node.
#[derive(Debug, Clone)]
pub struct SimNode {
    spec: CpuSpec,
    ram_gb: u32,
    power: PowerModel,
    thermal: ThermalModel,
    clock: SimClock,
    load: CpuLoad,
    energy: EnergyTotals,
    /// Name of the node class this node was instantiated from; empty for
    /// nodes built directly from parts (the pre-class construction path).
    class: String,
}

/// Maximum integration sub-step: power is treated as constant within it and
/// the thermal ODE is solved exactly, so accuracy is limited only by how
/// fast the *load* changes between `advance` calls.
const MAX_STEP: SimDuration = SimDuration(1000);

impl SimNode {
    /// Builds a node with explicit model parameters.
    pub fn new(spec: CpuSpec, ram_gb: u32, power: PowerModelParams, thermal: ThermalParams) -> Self {
        let power_model = PowerModel::new(&spec, power);
        let load = CpuLoad::idle(&spec);
        SimNode {
            spec,
            ram_gb,
            power: power_model,
            thermal: ThermalModel::new(thermal),
            clock: SimClock::new(),
            load,
            energy: EnergyTotals::default(),
            class: String::new(),
        }
    }

    /// Stamps the node with the class it was instantiated from.
    pub fn with_class(mut self, class: &str) -> Self {
        self.class = class.to_string();
        self
    }

    /// The node class name; empty when the node was built directly from
    /// parts rather than from a [`crate::class::NodeClass`].
    pub fn class_name(&self) -> &str {
        &self.class
    }

    /// The paper's evaluation node: Lenovo ThinkSystem SR650, AMD EPYC
    /// 7502P, 256 GB RAM.
    pub fn sr650() -> Self {
        SimNode::new(CpuSpec::epyc_7502p(), 256, PowerModelParams::sr650_epyc7502p(), ThermalParams::sr650())
    }

    /// The node's CPU specification.
    pub fn spec(&self) -> &CpuSpec {
        &self.spec
    }

    /// Installed RAM in GB.
    pub fn ram_gb(&self) -> u32 {
        self.ram_gb
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// The load currently applied.
    pub fn load(&self) -> &CpuLoad {
        &self.load
    }

    /// Applies a new electrical load (job start/finish, phase change).
    pub fn set_load(&mut self, load: CpuLoad) {
        self.load = load;
    }

    /// Convenience: drop back to idle.
    pub fn set_idle(&mut self) {
        self.load = CpuLoad::idle(&self.spec);
    }

    /// Advances simulated time by `dt`, integrating energy and temperature
    /// under the current load. Uses bounded sub-steps so the fan-power
    /// feedback (power depends on temperature) stays accurate.
    pub fn advance(&mut self, dt: SimDuration) {
        let mut remaining = dt.as_millis();
        while remaining > 0 {
            let step = SimDuration(remaining.min(MAX_STEP.as_millis()));
            let secs = step.as_secs_f64();
            let cpu_w = self.power.cpu_power(&self.load);
            let sys_w = self.power.system_power(&self.load, self.thermal.temperature());
            let wall_w = sys_w / self.power.params().psu_efficiency;
            self.energy.cpu_j += cpu_w * secs;
            self.energy.system_j += sys_w * secs;
            self.energy.wall_j += wall_w * secs;
            self.thermal.step(step, cpu_w);
            self.clock.advance(step);
            remaining -= step.as_millis();
        }
    }

    /// Lets the package temperature settle to steady state for the current
    /// load without advancing time (useful to start experiments "warm").
    pub fn settle_thermals(&mut self) {
        let cpu_w = self.power.cpu_power(&self.load);
        self.thermal.settle(cpu_w);
    }

    /// Ground-truth telemetry right now.
    pub fn telemetry(&self) -> Telemetry {
        let cpu_power_w = self.power.cpu_power(&self.load);
        let cpu_temp_c = self.thermal.temperature();
        let system_power_w = self.power.system_power(&self.load, cpu_temp_c);
        Telemetry {
            time: self.now(),
            system_power_w,
            cpu_power_w,
            cpu_temp_c,
            wall_power_w: system_power_w / self.power.params().psu_efficiency,
        }
    }

    /// CPU package temperature right now (°C): `telemetry().cpu_temp_c`
    /// without the two power-model evaluations a snapshot makes.
    pub fn cpu_temp_c(&self) -> f64 {
        self.thermal.temperature()
    }

    /// Accumulated true energy totals since node start.
    pub fn energy(&self) -> EnergyTotals {
        self.energy
    }

    /// The power model (read access for analytical code paths).
    pub fn power_model(&self) -> &PowerModel {
        &self.power
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuConfig;

    #[test]
    fn idle_node_accumulates_idle_energy() {
        let mut node = SimNode::sr650();
        node.advance(SimDuration::from_secs(100));
        let e = node.energy();
        // idle: uncore 40 + 32*0.15 = 44.8 W cpu; sys = cpu + 88 + fan(≈0)
        assert!((e.cpu_j - 4480.0).abs() < 50.0, "cpu_j {}", e.cpu_j);
        assert!(e.system_j > e.cpu_j);
        assert!(e.wall_j > e.system_j);
    }

    #[test]
    fn busy_node_paper_standard_energy_rate() {
        // Warm steady state at the standard config should burn ~216.6 W sys.
        let mut node = SimNode::sr650();
        node.set_load(CpuLoad::busy(CpuConfig::new(32, 2_500_000, 1)));
        node.settle_thermals();
        let before = node.energy();
        node.advance(SimDuration::from_secs(100));
        let joules = node.energy().system_j - before.system_j;
        assert!((joules / 100.0 - 216.6).abs() < 3.0, "avg sys W {}", joules / 100.0);
    }

    #[test]
    fn advance_moves_clock_exactly() {
        let mut node = SimNode::sr650();
        node.advance(SimDuration(12_345));
        assert_eq!(node.now(), SimTime(12_345));
    }

    #[test]
    fn temperature_rises_under_load_falls_after() {
        let mut node = SimNode::sr650();
        let t0 = node.telemetry().cpu_temp_c;
        node.set_load(CpuLoad::busy(CpuConfig::new(32, 2_500_000, 1)));
        node.advance(SimDuration::from_mins(5));
        let hot = node.telemetry().cpu_temp_c;
        assert!(hot > t0 + 20.0, "should heat up: {t0} -> {hot}");
        node.set_idle();
        node.advance(SimDuration::from_mins(10));
        let cooled = node.telemetry().cpu_temp_c;
        assert!(cooled < hot - 15.0, "should cool down: {hot} -> {cooled}");
    }

    /// The scheduler prices nodes through `cpu_temp_c()`; it must read
    /// what a full snapshot reads, bit for bit, in every thermal phase.
    #[test]
    fn cpu_temp_c_is_the_snapshot_temperature_idle_heating_and_cooling() {
        let mut node = SimNode::sr650();
        let same = |node: &SimNode| node.cpu_temp_c().to_bits() == node.telemetry().cpu_temp_c.to_bits();
        assert!(same(&node), "idle");
        node.set_load(CpuLoad::busy(CpuConfig::new(32, 2_500_000, 1)));
        let mut last = node.cpu_temp_c();
        for _ in 0..5 {
            node.advance(SimDuration::from_secs(30));
            assert!(same(&node) && node.cpu_temp_c() > last, "heating: {last} -> {}", node.cpu_temp_c());
            last = node.cpu_temp_c();
        }
        node.set_idle();
        for _ in 0..5 {
            node.advance(SimDuration::from_secs(30));
            assert!(same(&node) && node.cpu_temp_c() < last, "cooling: {last} -> {}", node.cpu_temp_c());
            last = node.cpu_temp_c();
        }
    }

    #[test]
    fn telemetry_consistent_with_energy_integral() {
        let mut node = SimNode::sr650();
        node.set_load(CpuLoad::busy(CpuConfig::new(16, 2_200_000, 2)));
        node.settle_thermals();
        let p = node.telemetry().system_power_w;
        let before = node.energy().system_j;
        node.advance(SimDuration::from_secs(10));
        let joules = node.energy().system_j - before;
        assert!((joules - p * 10.0).abs() < 1.0, "integral {joules} vs {p}*10");
    }

    #[test]
    fn settle_thermals_does_not_advance_time() {
        let mut node = SimNode::sr650();
        node.set_load(CpuLoad::busy(CpuConfig::new(32, 2_500_000, 1)));
        node.settle_thermals();
        assert_eq!(node.now(), SimTime::ZERO);
        assert!(node.telemetry().cpu_temp_c > 60.0);
    }

    #[test]
    fn wall_power_exceeds_system_power() {
        let node = SimNode::sr650();
        let t = node.telemetry();
        assert!(t.wall_power_w > t.system_power_w);
    }

    #[test]
    fn spec_accessors() {
        let node = SimNode::sr650();
        assert_eq!(node.ram_gb(), 256);
        assert_eq!(node.spec().cores, 32);
    }
}
