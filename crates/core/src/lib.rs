//! # ehdl — fast deep learning on tiny energy-harvesting IoT devices
//!
//! A from-scratch Rust reproduction of *"Enabling Fast Deep Learning on
//! Tiny Energy-Harvesting IoT Devices"* (DATE 2022): the **RAD**
//! training/compression framework, the **ACE** accelerator-enabled
//! runtime, and the **FLEX** intermittent-computation support, together
//! with the MSP430FR5994-class device model and energy-harvesting
//! environment they run on.
//!
//! The workspace crates are re-exported here under short names:
//!
//! | Module | Crate | Paper role |
//! |---|---|---|
//! | [`fixed`] | `ehdl-fixed` | Q15 arithmetic (§III-A quantization) |
//! | [`dsp`] | `ehdl-dsp` | FFT/IFFT + circulant algebra (Algorithm 1) |
//! | [`device`] | `ehdl-device` | MSP430FR5994 + LEA + DMA cost model |
//! | [`ehsim`] | `ehdl-ehsim` | capacitor, harvester, intermittent executor |
//! | [`nn`] | `ehdl-nn` | layers, models, Table II zoo |
//! | [`compress`] | `ehdl-compress` | RAD: BCM, pruning, ADMM, normalization |
//! | [`train`] | `ehdl-train` | offline training, ADMM-regularized |
//! | [`datasets`] | `ehdl-datasets` | synthetic MNIST/HAR/OKG |
//! | [`ace`] | `ehdl-ace` | ACE: quantized deploy, programs, Alg 1 |
//! | [`flex`] | `ehdl-flex` | FLEX + BASE/SONIC/TAILS baselines |
//!
//! The `ehdl-fleet` crate builds *on top of* this facade (it is not
//! re-exported here): a parallel scenario-sweep engine that fans
//! [`Deployment`]s and [`DeviceSession`]s out across worker threads —
//! both types are `Send`/`Sync` by contract, checked at compile time in
//! [`session`].
//!
//! The high-level API lives in this crate: [`Deployment`] (RAD's
//! deployment pass with every scenario axis — calibration, board,
//! checkpoint strategy — as a builder parameter) and [`DeviceSession`]
//! (a live board + lowered program, reused across inferences). A
//! session runs intermittently through one entry point per kind of run
//! — [`infer_intermittent_with`](DeviceSession::infer_intermittent_with),
//! [`record_intermittent_with`](DeviceSession::record_intermittent_with)
//! and the op-by-op oracle
//! [`infer_reference_with`](DeviceSession::infer_reference_with) — each
//! taking a [`RunOptions`](ehsim::RunOptions) that carries the optional
//! fault plan and probe.
//!
//! # Quickstart
//!
//! ```
//! use ehdl::prelude::*;
//!
//! // 1. A Table II model and a synthetic dataset.
//! let mut model = ehdl::nn::zoo::har();
//! let data = ehdl::datasets::har(60, 7);
//!
//! // 2. RAD: calibrate, quantize, and compile for the paper's board
//! //    under FLEX checkpointing. Every knob is a builder parameter.
//! let deployment = Deployment::builder(&mut model, &data)
//!     .calibration(CalibrationConfig { samples: 32, percentile: 0.9 })
//!     .board(BoardSpec::Msp430Fr5994)
//!     .strategy(Strategy::Flex)
//!     .build()?;
//!
//! // 3. ACE: open a session (board + program built once) and infer.
//! let mut session = deployment.session();
//! let outcome = session.infer(&data.samples()[0].input)?;
//! assert!(outcome.prediction < 6);
//!
//! // 4. FLEX: the same inference under harvested power.
//! let (harvester, capacitor) = ehdl::flex::compare::paper_supply();
//! let supply = PowerSupply::new(harvester, capacitor);
//! let report = session.infer_intermittent(&supply);
//! assert!(report.completed());
//!
//! // ... and again under a seeded fault storm, watched by an event ring.
//! use ehdl::ehsim::{EventRing, FaultPlan, FaultSpec};
//! let spec = FaultSpec { seed: 7, reset_per_op: 1e-3, ..FaultSpec::none() };
//! let storm = FaultPlan::compile(&spec);
//! let mut ring = EventRing::new(1 << 12);
//! let opts = RunOptions::default().fault(&storm).probe(&mut ring);
//! let executor = IntermittentExecutor::default();
//! let stormy = session.infer_intermittent_with(&executor, &mut supply.clone(), opts);
//! assert!(stormy.faults.injected() > 0);
//! assert_eq!(ring.events().last().map(|e| e.label()), Some("run_end"));
//!
//! // 5. Accuracy of the deployed (compressed + quantized) model.
//! let accuracy = session.accuracy(&data)?;
//! assert!(accuracy >= 0.0);
//! # Ok::<(), ehdl::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ehdl_ace as ace;
pub use ehdl_compress as compress;
pub use ehdl_datasets as datasets;
pub use ehdl_device as device;
pub use ehdl_dsp as dsp;
pub use ehdl_ehsim as ehsim;
pub use ehdl_fixed as fixed;
pub use ehdl_flex as flex;
pub use ehdl_nn as nn;
pub use ehdl_train as train;

pub mod deployment;
mod error;
pub mod session;

pub use deployment::{BoardSpec, CalibrationConfig, Deployment, DeploymentBuilder, Strategy};
pub use error::{ConfigError, Error, ShardError};
pub use session::{DeviceSession, InferenceOutcome};

/// The most commonly used types, one `use` away.
pub mod prelude {
    pub use crate::deployment::{
        BoardSpec, CalibrationConfig, Deployment, DeploymentBuilder, Strategy,
    };
    pub use crate::error::{ConfigError, Error, ShardError};
    pub use crate::session::{DeviceSession, InferenceOutcome};
    pub use ehdl_ace::{AceProgram, QuantizedModel};
    pub use ehdl_compress::quantize::QuantParams;
    pub use ehdl_datasets::{Dataset, Sample};
    pub use ehdl_device::{Board, Component, Cycles, Energy};
    pub use ehdl_ehsim::{
        Capacitor, Harvester, IntermittentExecutor, PowerSupply, RunOptions, RunReport,
    };
    pub use ehdl_fixed::Q15;
    pub use ehdl_nn::{Layer, Model, Tensor};
}
