//! The benchmark's [`TrackerBackend`] decorator. It forwards every call
//! to the real backend and, around `detect_edges`, `downsample` and
//! `linearize`, records spans, keeps the edge masks the output checks need,
//! and optionally shadows `linearize` with a second backend that runs
//! the other LM cost path on the same inputs.

use crate::spans::SharedRecorder;
use pimvo::core::{BackendStats, Feature, Keyframe, TrackerBackend};
use pimvo::kernels::{EdgeConfig, EdgeMaps, GrayImage};
use pimvo::pim::{PimArrayPool, PoolHealth};
use pimvo::telemetry::Telemetry;
use pimvo::vomath::{NormalEquations, Pinhole, SE3};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// What the decorator observed; shared with the workload loop.
#[derive(Debug, Default)]
pub struct ProbeLog {
    /// Keep every edge mask (for the output checks).
    pub capture: bool,
    /// Edge masks in call order, while `capture` is set.
    pub masks: Vec<GrayImage>,
    /// Linearizations left to shadow; the workload sets it, and zeroes
    /// it to stop shadowing.
    pub shadow_budget: u64,
    /// Host ns spent shadowing, to be taken out of the frame's time.
    pub shadow_ns: u64,
    /// Linearizations shadowed.
    pub shadowed: u64,
    /// LM cycles charged by the calibrated path on shadowed calls.
    pub calibrated_cycles: u64,
    /// LM cycles charged by the executed (on-machine) path on shadowed
    /// calls.
    pub executed_cycles: u64,
    /// Shadowed calls whose normal equations differed between paths.
    pub shadow_mismatches: u64,
}

/// Shared handle to a [`ProbeLog`].
pub type SharedLog = Rc<RefCell<ProbeLog>>;

/// A second backend that re-runs linearizations on the other LM cost
/// path while [`ProbeLog::shadow_budget`] lasts.
pub struct Shadow {
    /// The shadow backend.
    pub backend: Box<dyn TrackerBackend>,
    /// Whether the shadow is the calibrated path (the decorated backend
    /// then executes on the machine).
    pub is_calibrated: bool,
}

/// The decorator.
pub struct Probe {
    inner: Box<dyn TrackerBackend>,
    rec: SharedRecorder,
    log: SharedLog,
    shadow: Option<Shadow>,
}

impl Probe {
    /// Wraps `inner`.
    pub fn new(
        inner: Box<dyn TrackerBackend>,
        rec: SharedRecorder,
        log: SharedLog,
        shadow: Option<Shadow>,
    ) -> Self {
        Probe {
            inner,
            rec,
            log,
            shadow,
        }
    }
}

impl TrackerBackend for Probe {
    fn detect_edges(&mut self, img: &GrayImage, cfg: &EdgeConfig) -> EdgeMaps {
        let id = self.rec.borrow_mut().begin("backend.detect_edges");
        let maps = self.inner.detect_edges(img, cfg);
        self.rec.borrow_mut().end(id);
        let mut log = self.log.borrow_mut();
        if log.capture {
            log.masks.push(maps.mask.clone());
        }
        maps
    }

    fn detect_edges_fast(&mut self, img: &GrayImage, cfg: &EdgeConfig) -> EdgeMaps {
        self.inner.detect_edges_fast(img, cfg)
    }

    fn downsample(&mut self, img: &GrayImage) -> GrayImage {
        let id = self.rec.borrow_mut().begin("backend.downsample");
        let out = self.inner.downsample(img);
        self.rec.borrow_mut().end(id);
        out
    }

    fn linearize(
        &mut self,
        features: &[Feature],
        keyframe: &Keyframe,
        cam: &Pinhole,
        pose: &SE3,
    ) -> NormalEquations {
        let call_start = Instant::now();
        let shadowing = self.shadow.is_some() && self.log.borrow().shadow_budget > 0;
        let before = shadowing.then(|| self.inner.stats().lm_cycles);
        let id = self.rec.borrow_mut().begin("backend.linearize");
        let main_start = Instant::now();
        let eq = self.inner.linearize(features, keyframe, cam, pose);
        let main_ns = main_start.elapsed().as_nanos() as u64;
        self.rec.borrow_mut().end(id);
        if let (Some(before), Some(sh)) = (before, self.shadow.as_mut()) {
            let main_cycles = self.inner.stats().lm_cycles - before;
            let sb = sh.backend.stats().lm_cycles;
            let seq = sh.backend.linearize(features, keyframe, cam, pose);
            let shadow_cycles = sh.backend.stats().lm_cycles - sb;
            let mut log = self.log.borrow_mut();
            log.shadow_budget -= 1;
            log.shadowed += 1;
            let (cal, exe) = if sh.is_calibrated {
                (shadow_cycles, main_cycles)
            } else {
                (main_cycles, shadow_cycles)
            };
            log.calibrated_cycles += cal;
            log.executed_cycles += exe;
            if seq != eq {
                log.shadow_mismatches += 1;
            }
            log.shadow_ns += (call_start.elapsed().as_nanos() as u64).saturating_sub(main_ns);
        }
        eq
    }

    fn stats(&self) -> BackendStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    fn pool_health(&self) -> Option<PoolHealth> {
        self.inner.pool_health()
    }

    fn pool_mut(&mut self) -> Option<&mut PimArrayPool> {
        self.inner.pool_mut()
    }

    fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.inner.set_telemetry(telemetry);
    }

    fn export_health_telemetry(&self) {
        self.inner.export_health_telemetry();
    }
}
