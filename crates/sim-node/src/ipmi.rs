//! IPMI/BMC sensor simulation.
//!
//! The paper samples node power through the Baseboard Management
//! Controller's IPMI interface (`ipmitool sdr list`, §3.1.2 step 2 and
//! §5.1). Real BMC sensors quantise to whole watts / degrees, update on
//! their own cadence, and carry a little measurement noise; this module
//! models all three so Chronus's energy integration sees realistic data.

use crate::clock::SimTime;
use crate::node::SimNode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One IPMI sensor reading set, as Chronus samples it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IpmiReading {
    /// Instant of the reading.
    pub time: SimTime,
    /// `Total_Power` sensor: DC-side system power, whole watts.
    pub total_power_w: u32,
    /// `CPU_Power` sensor: package power, whole watts.
    pub cpu_power_w: u32,
    /// `CPU_Temp` sensor: package temperature, whole °C.
    pub cpu_temp_c: u32,
}

/// Noise characteristics of the BMC's analog front end.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BmcNoise {
    /// Uniform half-width of power-sensor noise (W).
    pub power_jitter_w: f64,
    /// Uniform half-width of temperature-sensor noise (°C).
    pub temp_jitter_c: f64,
    /// Multiplicative gain error of the power rail sensing (1.0 = perfect).
    pub power_gain: f64,
}

impl Default for BmcNoise {
    fn default() -> Self {
        // Small jitter; gain 1.0 because our calibration already defines
        // IPMI as the DC-side reference (the wattmeter differs via PSU loss).
        BmcNoise { power_jitter_w: 1.5, temp_jitter_c: 0.5, power_gain: 1.0 }
    }
}

/// The simulated BMC. Owns its RNG so repeated reads are deterministic for
/// a given seed and read sequence.
#[derive(Debug, Clone)]
pub struct Bmc {
    noise: BmcNoise,
    rng: StdRng,
}

impl Bmc {
    /// Builds a BMC with default noise and the given seed.
    pub fn new(seed: u64) -> Self {
        Bmc { noise: BmcNoise::default(), rng: StdRng::seed_from_u64(seed) }
    }

    /// Builds a BMC with explicit noise characteristics.
    pub fn with_noise(seed: u64, noise: BmcNoise) -> Self {
        Bmc { noise, rng: StdRng::seed_from_u64(seed) }
    }

    /// Reads the sensors of a node (the equivalent of one
    /// `ipmitool sdr list` poll).
    pub fn read(&mut self, node: &SimNode) -> IpmiReading {
        let t = node.telemetry();
        let jp = self.noise.power_jitter_w;
        let jt = self.noise.temp_jitter_c;
        let total = t.system_power_w * self.noise.power_gain + self.jitter(jp);
        let cpu = t.cpu_power_w * self.noise.power_gain + self.jitter(jp * 0.7);
        let temp = t.cpu_temp_c + self.jitter(jt);
        IpmiReading {
            time: t.time,
            total_power_w: total.round().max(0.0) as u32,
            cpu_power_w: cpu.round().max(0.0) as u32,
            cpu_temp_c: temp.round().max(0.0) as u32,
        }
    }

    fn jitter(&mut self, half_width: f64) -> f64 {
        if half_width == 0.0 {
            0.0
        } else {
            self.rng.gen_range(-half_width..=half_width)
        }
    }

    /// Renders the reading the way `ipmitool sdr list | grep Total` shows it
    /// in the paper's Figure 13.
    pub fn sdr_list_line(reading: &IpmiReading) -> String {
        format!("Total_Power      | {} Watts          | ok", reading.total_power_w)
    }
}

/// A fixed-interval IPMI sampler: Chronus's §3.1.2 "keeps sampling the
/// energy usage from the BMC … at a 2-second interval". Collects readings
/// while a node simulation advances and integrates them into energy
/// (trapezoidal rule), exactly as the real Chronus post-processes samples.
#[derive(Debug, Clone)]
pub struct PowerSampler {
    readings: Vec<IpmiReading>,
}

impl PowerSampler {
    /// An empty sample log.
    pub fn new() -> Self {
        PowerSampler { readings: Vec::new() }
    }

    /// Appends a reading.
    pub fn push(&mut self, reading: IpmiReading) {
        self.readings.push(reading);
    }

    /// All readings, in arrival order.
    pub fn readings(&self) -> &[IpmiReading] {
        &self.readings
    }

    /// Number of samples collected.
    pub fn len(&self) -> usize {
        self.readings.len()
    }

    /// True when no samples were collected.
    pub fn is_empty(&self) -> bool {
        self.readings.is_empty()
    }

    /// Trapezoidal integral of the `Total_Power` sensor (joules).
    pub fn system_energy_j(&self) -> f64 {
        trapezoid(&self.readings, |r| r.total_power_w as f64)
    }

    /// Trapezoidal integral of the `CPU_Power` sensor (joules).
    pub fn cpu_energy_j(&self) -> f64 {
        trapezoid(&self.readings, |r| r.cpu_power_w as f64)
    }

    /// Mean of the `Total_Power` sensor (W); 0 when empty.
    pub fn avg_system_power_w(&self) -> f64 {
        mean(&self.readings, |r| r.total_power_w as f64)
    }

    /// Mean of the `CPU_Temp` sensor (°C); 0 when empty.
    pub fn avg_cpu_temp_c(&self) -> f64 {
        mean(&self.readings, |r| r.cpu_temp_c as f64)
    }
}

impl Default for PowerSampler {
    fn default() -> Self {
        Self::new()
    }
}

fn trapezoid(readings: &[IpmiReading], f: impl Fn(&IpmiReading) -> f64) -> f64 {
    readings
        .windows(2)
        .map(|w| {
            let dt = (w[1].time - w[0].time).as_secs_f64();
            dt * (f(&w[0]) + f(&w[1])) / 2.0
        })
        .sum()
}

fn mean(readings: &[IpmiReading], f: impl Fn(&IpmiReading) -> f64) -> f64 {
    if readings.is_empty() {
        return 0.0;
    }
    readings.iter().map(f).sum::<f64>() / readings.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimDuration;
    use crate::cpu::CpuConfig;
    use crate::power::CpuLoad;

    #[test]
    fn reading_tracks_ground_truth_within_noise() {
        let mut node = SimNode::sr650();
        node.set_load(CpuLoad::busy(CpuConfig::new(32, 2_500_000, 1)));
        node.settle_thermals();
        let truth = node.telemetry();
        let mut bmc = Bmc::new(1);
        let r = bmc.read(&node);
        assert!((r.total_power_w as f64 - truth.system_power_w).abs() <= 2.5);
        assert!((r.cpu_power_w as f64 - truth.cpu_power_w).abs() <= 2.0);
        assert!((r.cpu_temp_c as f64 - truth.cpu_temp_c).abs() <= 1.5);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let node = SimNode::sr650();
        let mut a = Bmc::new(7);
        let mut b = Bmc::new(7);
        for _ in 0..10 {
            assert_eq!(a.read(&node), b.read(&node));
        }
    }

    #[test]
    fn different_seeds_give_different_noise() {
        let mut node = SimNode::sr650();
        node.set_load(CpuLoad::busy(CpuConfig::new(32, 2_500_000, 1)));
        node.settle_thermals();
        let mut a = Bmc::new(1);
        let mut b = Bmc::new(2);
        let ra: Vec<_> = (0..20).map(|_| a.read(&node)).collect();
        let rb: Vec<_> = (0..20).map(|_| b.read(&node)).collect();
        assert_ne!(ra, rb);
    }

    #[test]
    fn noiseless_bmc_reports_rounded_truth() {
        let mut node = SimNode::sr650();
        node.set_load(CpuLoad::busy(CpuConfig::new(32, 2_200_000, 1)));
        node.settle_thermals();
        let truth = node.telemetry();
        let mut bmc = Bmc::with_noise(0, BmcNoise { power_jitter_w: 0.0, temp_jitter_c: 0.0, power_gain: 1.0 });
        let r = bmc.read(&node);
        assert_eq!(r.total_power_w, truth.system_power_w.round() as u32);
        assert_eq!(r.cpu_power_w, truth.cpu_power_w.round() as u32);
    }

    #[test]
    fn sdr_list_line_format() {
        let r = IpmiReading { time: SimTime::ZERO, total_power_w: 258, cpu_power_w: 120, cpu_temp_c: 62 };
        assert!(Bmc::sdr_list_line(&r).contains("Total_Power"));
        assert!(Bmc::sdr_list_line(&r).contains("258 Watts"));
    }

    #[test]
    fn sampler_integrates_constant_power_exactly() {
        // constant 100 W for 10 s sampled every 2 s -> 1000 J
        let mut s = PowerSampler::new();
        for k in 0..=5u64 {
            s.push(IpmiReading {
                time: SimTime::from_secs(2 * k),
                total_power_w: 100,
                cpu_power_w: 50,
                cpu_temp_c: 60,
            });
        }
        assert!((s.system_energy_j() - 1000.0).abs() < 1e-9);
        assert!((s.cpu_energy_j() - 500.0).abs() < 1e-9);
        assert!((s.avg_system_power_w() - 100.0).abs() < 1e-9);
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn sampler_empty_behaviour() {
        let s = PowerSampler::new();
        assert!(s.is_empty());
        assert_eq!(s.system_energy_j(), 0.0);
        assert_eq!(s.avg_cpu_temp_c(), 0.0);
    }

    #[test]
    fn sampled_energy_close_to_true_energy() {
        // Drive a node for 60 s, sampling every 2 s; the trapezoidal IPMI
        // integral should agree with the node's exact integral within noise
        // + quantisation error.
        let mut node = SimNode::sr650();
        node.set_load(CpuLoad::busy(CpuConfig::new(32, 2_500_000, 1)));
        node.settle_thermals();
        let mut bmc = Bmc::new(3);
        let mut sampler = PowerSampler::new();
        let before = node.energy().system_j;
        sampler.push(bmc.read(&node));
        for _ in 0..30 {
            node.advance(SimDuration::from_secs(2));
            sampler.push(bmc.read(&node));
        }
        let true_j = node.energy().system_j - before;
        let sampled_j = sampler.system_energy_j();
        let err = (sampled_j - true_j).abs() / true_j;
        assert!(err < 0.02, "relative error {err}");
    }
}
