//! Golden hashes of the deployment set-up arithmetic over the model zoo.
//!
//! RAD calibration runs float forward passes through the circulant and
//! conv kernels, and the accuracy pass runs the quantized reference. Both
//! are optimized under a bit-identity contract: a faster kernel must
//! reproduce every float activation, every calibration divisor and every
//! quantized logit bit for bit. This test pins those bits as FNV-1a-64
//! hashes, so a kernel rewrite that reorders a floating-point sum or
//! drops a saturation count fails here.

use ehdl::ace::reference;
use ehdl::datasets::Dataset;
use ehdl::deployment::{quantize_input, quantized_accuracy};
use ehdl::fixed::OverflowStats;
use ehdl::nn::{zoo, Model};
use ehdl::{CalibrationConfig, Deployment};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f32s(&mut self, values: &[f32]) {
        for v in values {
            self.write(&v.to_bits().to_le_bytes());
        }
    }
}

/// `[forward_trace bits, calibration bits, quantized logits + accuracy]`.
fn hashes(mut model: Model, data: &Dataset) -> [u64; 3] {
    let mut trace = Fnv::new();
    for s in data.samples() {
        for act in model.forward_trace(&s.input).unwrap() {
            trace.f32s(act.as_slice());
        }
    }

    let deployment = Deployment::builder(&mut model, data)
        .calibration(CalibrationConfig {
            samples: 4,
            percentile: 0.9,
        })
        .build()
        .unwrap();
    let mut scales = Fnv::new();
    scales.f32s(&deployment.calibration().scales);
    scales.f32s(&deployment.calibration().observed_max);

    let mut logits = Fnv::new();
    let mut stats = OverflowStats::new();
    for s in data.samples() {
        let x = quantize_input(&s.input);
        for q in reference::forward_with_stats(deployment.quantized(), &x, &mut stats).unwrap() {
            logits.write(&q.raw().to_le_bytes());
        }
    }
    logits.write(&stats.saturations().to_le_bytes());
    logits.write(&stats.tracked_ops().to_le_bytes());
    let accuracy = quantized_accuracy(deployment.quantized(), data).unwrap();
    logits.write(&accuracy.to_bits().to_le_bytes());
    [trace.0, scales.0, logits.0]
}

#[test]
fn zoo_setup_arithmetic_matches_golden_bits() {
    let got = [
        ("mnist", hashes(zoo::mnist(), &ehdl::datasets::mnist(6, 7))),
        ("har", hashes(zoo::har(), &ehdl::datasets::har(6, 7))),
        ("okg", hashes(zoo::okg(), &ehdl::datasets::okg(6, 7))),
    ];
    let want: [(&str, [u64; 3]); 3] = [
        (
            "mnist",
            [0x769924b79ab07c16, 0x7847778697874ad8, 0xe5c8ed70a923b260],
        ),
        (
            "har",
            [0xd8dedb1852486942, 0x617d581f2ec0d0ca, 0x8733e06705c9c7dd],
        ),
        (
            "okg",
            [0x071afd69062acfa8, 0xb5dd7e7fbe6421d7, 0x828bfc3a721637b9],
        ),
    ];
    let hex = |rows: &[(&str, [u64; 3])]| -> Vec<String> {
        rows.iter()
            .map(|(name, h)| format!("{name} {:#018x} {:#018x} {:#018x}", h[0], h[1], h[2]))
            .collect()
    };
    assert_eq!(hex(&got), hex(&want), "name [trace, calibration, logits]");
}
