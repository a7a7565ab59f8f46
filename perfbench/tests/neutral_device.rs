//! The timing device and the traced run must not change what a workload
//! computes or which blocks it moves.
//!
//! Each workload runs at a small size with a pool small enough to evict
//! (except `spmv-resident`, whose point is residency), once over the bare
//! device and once over `TimedDevice`, at one thread and without prefetch
//! so that counted I/O is deterministic and any difference is the
//! wrapper's. Output and the whole `IoSnapshot` must be identical, and the
//! wrapper's own counts must equal the engine's.

use riot_perfbench::ledger;
use riot_perfbench::rig::{self, RigConfig};
use riot_perfbench::workloads::{self, Scale, Spec, WORKLOADS};

fn small(spec: &Spec) -> Spec {
    let frames = match spec.name {
        "ridge-file" => 8,
        "kmeans-pressure" => 12,
        "iot-forcing" => 4,
        _ => spec.frames,
    };
    Spec {
        frames,
        threads: 1,
        prefetch: 0,
        ..*spec
    }
}

#[test]
fn timing_device_is_neutral_on_every_workload() {
    for spec in WORKLOADS.iter().map(small) {
        let inputs = workloads::inputs(&spec, 7, Scale::Small);
        let mut bare = rig::setup(&spec, &inputs, RigConfig::plain()).unwrap();
        let bare = rig::run(&mut bare, spec.script, false).unwrap();
        let timed = RigConfig {
            timed_device: true,
            ..RigConfig::plain()
        };
        let mut wrapped = rig::setup(&spec, &inputs, timed).unwrap();
        let wrapped = rig::run(&mut wrapped, spec.script, false).unwrap();
        assert_eq!(bare.output, wrapped.output, "{}: output", spec.name);
        assert_eq!(bare.io, wrapped.io, "{}: IoSnapshot", spec.name);
        assert_eq!(bare.blocks, wrapped.blocks, "{}: allocation", spec.name);
        let dev = wrapped.device.unwrap();
        assert_eq!(
            (dev.reads, dev.writes),
            (wrapped.io.reads, wrapped.io.writes),
            "{}: wrapper counts",
            spec.name
        );
        if spec.name != "spmv-resident" {
            assert!(bare.io.reads + bare.io.writes > 0, "{}: no I/O", spec.name);
        }
    }
}

#[test]
fn traced_run_is_neutral_and_reconciles() {
    for spec in WORKLOADS.iter().map(small) {
        let inputs = workloads::inputs(&spec, 7, Scale::Small);
        let mut plain = rig::setup(&spec, &inputs, RigConfig::plain()).unwrap();
        let plain = rig::run(&mut plain, spec.script, false).unwrap();
        let traced = RigConfig {
            timed_device: true,
            trace_capacity: Some(spec.ring),
            ..RigConfig::plain()
        };
        let mut r = rig::setup(&spec, &inputs, traced).unwrap();
        let m = rig::run(&mut r, spec.script, true).unwrap();
        assert_eq!(plain.output, m.output, "{}: output", spec.name);
        assert_eq!(plain.io, m.io, "{}: IoSnapshot", spec.name);
        let l = ledger::reconcile(m.profile.as_ref().unwrap(), (m.wall_s * 1e9) as u64, 0)
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        assert_eq!(l.dropped, 0);
        assert!(l.forcing_points > 0, "{}: no forcing points", spec.name);
    }
}

#[test]
fn inputs_repeat_per_seed_and_keep_their_shape_across_seeds() {
    for spec in &WORKLOADS {
        let a = workloads::inputs(spec, 1, Scale::Small);
        let b = workloads::inputs(spec, 1, Scale::Small);
        let c = workloads::inputs(spec, 2, Scale::Small);
        let digest = |inputs: &[workloads::Input]| -> Vec<String> {
            inputs
                .iter()
                .map(|i| match i {
                    workloads::Input::Scalar(n, v) => format!("{n}={v}"),
                    workloads::Input::Vector(n, v) => format!("{n}:{v:?}"),
                    workloads::Input::Matrix(n, r, c, v) => format!("{n}:{r}x{c}:{v:?}"),
                    workloads::Input::Sparse(n, r, c, t) => format!("{n}:{r}x{c}:{t:?}"),
                })
                .collect()
        };
        assert_eq!(
            digest(&a),
            digest(&b),
            "{}: same seed, same inputs",
            spec.name
        );
        assert_ne!(digest(&a), digest(&c), "{}: the seed is used", spec.name);
        assert_eq!(
            workloads::input_blocks(&a),
            workloads::input_blocks(&c),
            "{}: sizes do not depend on the seed",
            spec.name
        );
    }
}
