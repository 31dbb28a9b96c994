//! Replaying a taped inference adds exactly what running it adds.
//!
//! A seeded in-house generator (the workspace has no external crates)
//! draws Tiny configurations for every model over batch size, neighbors,
//! units, overlap, transfer granularity, transfer mode, shards on a
//! four-GPU NVLink platform, GPU or CPU mode, and feature cache on or
//! off. For each draw, three sessions are provisioned alike: the first
//! tapes `infer` on a fresh build, the second replays that tape, and the
//! third runs a second fresh build for real. The second and third also
//! priced one earlier host event, so the replay lands at a later clock
//! than the tape was recorded at. They must then be equal field for
//! field. `tape` must refuse exactly the draws with a feature cache,
//! whose contents change pricing, and every traced session.

use dgnn_bench::{served_zoo, MODEL_NAMES};
use dgnn_datasets::Scale;
use dgnn_device::{ExecMode, Executor, HostWork, PlatformSpec, TransferMode};
use dgnn_models::{DgnnModel, InferenceConfig, TransferGranularity};
use dgnn_tensor::TensorRng;

/// Configurations drawn per model.
const DRAWS: usize = 6;

/// One drawn run: its platform, mode and inference configuration.
#[derive(Debug)]
struct Draw {
    spec: PlatformSpec,
    mode: ExecMode,
    cfg: InferenceConfig,
}

fn draw(rng: &mut TensorRng) -> Draw {
    let pick = |rng: &mut TensorRng, xs: &[usize]| xs[rng.index(xs.len())];
    let mode = if rng.chance(0.75) {
        ExecMode::Gpu
    } else {
        ExecMode::CpuOnly
    };
    let granularity = [
        TransferGranularity::Staged,
        TransferGranularity::PerTensor,
        TransferGranularity::Coalesced,
    ][rng.index(3)];
    let transfer_mode = if rng.chance(0.5) {
        TransferMode::Pinned
    } else {
        TransferMode::Pageable
    };
    let shards = pick(rng, &[1, 2, 4]);
    let mut cfg = InferenceConfig::default()
        .with_batch_size(pick(rng, &[1, 8, 32, 100]))
        .with_neighbors(pick(rng, &[1, 5, 10, 20]))
        .with_max_units(pick(rng, &[1, 2, 3]))
        .with_pipeline_overlap(rng.chance(0.5))
        .with_transfer_granularity(granularity)
        .with_transfer_mode(transfer_mode)
        .with_shards(shards);
    if rng.chance(0.3) {
        cfg = cfg.with_feature_cache(pick(rng, &[16, 4096]));
    }
    let spec = if shards > 1 {
        PlatformSpec::multi_gpu_nvlink(4)
    } else {
        PlatformSpec::default()
    };
    Draw { spec, mode, cfg }
}

/// A session provisioned for `model` as a cold service leaves it: the
/// model's weights and the run's activations allocated. `earlier` adds
/// one host event first, so the session's clock sits past the taping
/// session's.
fn provisioned(d: &Draw, model: &dyn DgnnModel, earlier: bool) -> Executor {
    let mut ex = Executor::new(d.spec.clone(), d.mode);
    if earlier {
        ex.host(HostWork::sequential("earlier request", 10_000, 4096));
    }
    ex.scope("warmup", |ex| {
        ex.model_init(model.param_bytes(), model.param_tensors());
        ex.alloc_warmup(model.activation_bytes(&d.cfg));
    });
    ex
}

#[test]
fn replayed_tapes_equal_real_runs_for_seeded_configs() {
    let mut rng = TensorRng::seed(0x7a9e);
    let (mut replays, mut refusals) = (0, 0);
    for name in MODEL_NAMES {
        let zoo = served_zoo(&[name], Scale::Tiny, 1);
        let handle = &zoo[0].handle;
        for i in 0..DRAWS {
            let d = draw(&mut rng);
            let what = format!("{name} draw {i}: {d:?}");
            let mut taped_model = handle.build();
            let mut taping = provisioned(&d, taped_model.as_ref(), false);
            let (taped, tape) = taping.tape(|ex| taped_model.infer(ex, &d.cfg));
            let taped = taped.unwrap_or_else(|e| panic!("{what} failed: {e}"));
            assert_eq!(
                tape.is_none(),
                d.cfg.feature_cache.is_some(),
                "{what}: tape refused iff the cache is on"
            );
            if i == 0 {
                let mut traced = provisioned(&d, taped_model.as_ref(), false);
                traced.enable_tracing();
                let mut model = handle.build();
                assert!(
                    traced.tape(|ex| model.infer(ex, &d.cfg)).1.is_none(),
                    "{what}: a traced session tapes nothing"
                );
            }
            let Some(tape) = tape else {
                refusals += 1;
                continue;
            };
            replays += 1;

            let mut replayed = provisioned(&d, taped_model.as_ref(), true);
            assert!(replayed.replay(&tape), "{what}: replay refused");
            let mut real_model = handle.build();
            let mut real = provisioned(&d, real_model.as_ref(), true);
            let summary = real_model
                .infer(&mut real, &d.cfg)
                .unwrap_or_else(|e| panic!("{what} failed: {e}"));
            assert_eq!(summary, taped, "{what}: summary");
            assert_eq!(
                replayed.timeline().events(),
                real.timeline().events(),
                "{what}: events"
            );
            assert_eq!(replayed.scopes(), real.scopes(), "{what}: scopes");
            assert_eq!(replayed.now(), real.now(), "{what}: clock");
            assert_eq!(
                (replayed.cpu_memory(), replayed.gpu_memory()),
                (real.cpu_memory(), real.gpu_memory()),
                "{what}: memory"
            );
            assert_eq!(
                replayed.transfer_mode(),
                real.transfer_mode(),
                "{what}: transfer mode"
            );
        }
    }
    assert!(
        replays > 0 && refusals > 0,
        "{replays} replays, {refusals} refusals"
    );
}
