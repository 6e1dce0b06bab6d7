//! # ehdl-ace — Accelerator-enabled Embedded Software
//!
//! ACE (§III-B) is the on-device half of the paper: it takes the model
//! RAD produced and executes it on the MSP430-class board with every
//! vector operation routed through the LEA and every bulk move through
//! DMA. This crate implements that runtime against the simulated device:
//!
//! * [`QuantizedModel`] — the deployed representation: 16-bit fixed-point
//!   weights, pruning masks, BCM blocks, plus the FRAM footprint
//!   accounting,
//! * [`reference`](mod@reference) — the **bit-exact software forward pass**, including
//!   the on-device BCM pipeline of Algorithm 1 (SCALE-DOWN via the FFT's
//!   per-stage scaling, wide-accumulator complex multiply with mid-chain
//!   scale recovery, SCALE-UP at the end). Every execution strategy in
//!   `ehdl-flex` must reproduce these outputs exactly,
//! * [`AceProgram`] — the compiled device-op stream with **semantic
//!   tags** (loop iterations, BCM chain stages per Figure 6, layer
//!   boundaries) that the checkpointing runtimes translate into commit
//!   points,
//! * [`dataflow`] — DMA-vs-CPU move selection (§III-B "ACE also selects
//!   the right kind of data movement method") and SRAM staging checks,
//! * [`CircularBufferPlan`] — the two-buffer activation scheme of
//!   Figure 5 (`max(L_i)` instead of `Σ L_i`),
//! * [`report`] — per-layer latency/energy breakdown (the Figure 7(c)
//!   analysis).
//!
//! # Example
//!
//! ```
//! use ehdl_ace::{AceProgram, QuantizedModel};
//! use ehdl_nn::zoo;
//!
//! let model = QuantizedModel::from_model(&zoo::mnist())?;
//! let program = AceProgram::compile(&model)?;
//! assert!(program.len() > 0);
//! # Ok::<(), ehdl_ace::AceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod circular;
pub mod dataflow;
mod error;
mod program;
mod quantized;
pub mod reference;
pub mod report;

pub use circular::CircularBufferPlan;
pub use error::AceError;
pub use program::{AceProgram, BcmStage, OpTag, TaggedOp};
pub use quantized::{QBcmDense, QConv2d, QDense, QLayer, QuantizedModel};
