//! Seeded workload inputs: rendered RGB-D clips of the synthetic
//! sequence profiles. The seed picks each clip's start time on the
//! profile's trajectory and its render-noise seed; the program under
//! test only ever receives the rendered frames.

use pimvo::kernels::{DepthImage, GrayImage};
use pimvo::scene::{ate_rmse, build_scene, pose_at, RenderOptions, SequenceKind, Trajectory};
use pimvo::vomath::{Pinhole, SE3};
use std::time::Instant;

/// SplitMix64: a small, well-mixed generator so one `u64` seed expands
/// into every per-clip choice.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// Generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform sample in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Where on a profile's trajectory a clip starts, and its noise seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClipSpec {
    /// Sequence profile.
    pub kind: SequenceKind,
    /// Start time on the profile's trajectory, seconds.
    pub t0: f64,
    /// Base render-noise seed (frame `i` renders with `noise_seed + i`).
    pub noise_seed: u32,
}

impl ClipSpec {
    /// Draws a clip of `kind` starting within `window_s` seconds after
    /// `offset_s`.
    pub fn draw(rng: &mut SplitMix, kind: SequenceKind, offset_s: f64, window_s: f64) -> Self {
        let t0 = offset_s + window_s * rng.unit();
        let noise_seed = (rng.next_u64() >> 32) as u32;
        ClipSpec {
            kind,
            t0,
            noise_seed,
        }
    }
}

/// One rendered frame with its ground-truth pose.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Timestamp relative to the clip start, seconds (30 Hz).
    pub time: f64,
    /// Grayscale image.
    pub gray: GrayImage,
    /// Depth image, meters.
    pub depth: DepthImage,
    /// Ground-truth camera-to-world pose.
    pub gt_wc: SE3,
}

/// A rendered clip.
#[derive(Debug, Clone)]
pub struct Clip {
    /// What was rendered.
    pub spec: ClipSpec,
    /// Frames in time order.
    pub frames: Vec<Frame>,
}

impl Clip {
    /// Renders `n` frames at 30 Hz; appends each frame's host render
    /// time in ms to `render_ms`.
    pub fn render(spec: ClipSpec, n: usize, render_ms: &mut Vec<f64>) -> Clip {
        let camera = Pinhole::qvga();
        let scene = build_scene(spec.kind);
        let opts = RenderOptions::default();
        let frames = (0..n)
            .map(|i| {
                let start = Instant::now();
                let time = i as f64 / 30.0;
                let gt_wc = pose_at(spec.kind, spec.t0 + time);
                let seed = spec.noise_seed.wrapping_add(i as u32);
                let (gray, depth) = scene.render(&camera, &gt_wc, &opts, seed);
                render_ms.push(start.elapsed().as_secs_f64() * 1e3);
                Frame {
                    time,
                    gray,
                    depth,
                    gt_wc,
                }
            })
            .collect();
        Clip { spec, frames }
    }

    /// ATE RMSE in mm of `poses` (one per frame, from frame 0) against
    /// the rendered ground truth.
    pub fn ate_mm(&self, poses: &[SE3]) -> f64 {
        assert_eq!(poses.len(), self.frames.len(), "one pose per frame");
        let mut est = Trajectory::new();
        let mut gt = Trajectory::new();
        for (f, p) in self.frames.iter().zip(poses) {
            est.push(f.time, *p);
            gt.push(f.time, f.gt_wc);
        }
        ate_rmse(&est, &gt) * 1e3
    }
}
