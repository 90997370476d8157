//! Serialization of [`SessionCheckpoint`] — disconnect/resume for live
//! interactive sessions.
//!
//! This module performs *structural* validation only (framing, checksums,
//! well-formed signs and presence bytes, non-degenerate shapes). The
//! dataset-relative validation — lineage primitives inside the domain,
//! vector lengths matching the split sizes, votes within bounds — happens
//! in `nemo_core::Session::restore`, which rejects inconsistent
//! checkpoints with a typed `RestoreError`. Between the two layers, a
//! hostile checkpoint file can neither panic the loader nor corrupt a
//! session.

use std::path::Path;

use nemo_core::{IdpConfig, LabelModelKind, SelectionStrategy, SessionCheckpoint};
use nemo_endmodel::LogRegConfig;
use nemo_lf::{Label, PrimitiveLf, TrackedLf};

use crate::format::{
    to_usize, write_atomic, Enc, FileBuilder, FileParser, PersistError, KIND_SESSION,
};

/// Section ids of a session file, in their fixed on-disk order.
mod section {
    pub const CONFIG: u32 = 1;
    pub const STATE: u32 = 2;
    pub const LINEAGE: u32 = 3;
    pub const MATRIX: u32 = 4;
    pub const OUTPUTS: u32 = 5;
    pub const WARM: u32 = 6;
    pub const ENGINE: u32 = 7;
}

/// On-disk layout version of the ENGINE section.
const ENGINE_VERSION: u32 = 1;

/// Selection-strategy tag (CONFIG) and selector-state tag (ENGINE) of
/// SEU, the only selection strategy. Tag 1 belonged to a retired IWS
/// strategy; files that carry it decode to a typed error.
const SEU_TAG: u8 = 0;

/// Serialize a checkpoint to its file image.
pub fn session_to_bytes(ckpt: &SessionCheckpoint) -> Vec<u8> {
    let mut b = FileBuilder::new(KIND_SESSION);

    let mut cfg = Enc::new();
    cfg.usize(ckpt.config.n_iterations);
    cfg.usize(ckpt.config.eval_every);
    cfg.u8(match ckpt.config.label_model {
        LabelModelKind::Metal => 0,
        LabelModelKind::Majority => 2,
    });
    cfg.f64(ckpt.config.end_model.lr);
    cfg.usize(ckpt.config.end_model.epochs);
    cfg.f64(ckpt.config.end_model.l2);
    cfg.u8(ckpt.config.end_model.fit_intercept as u8);
    cfg.usize(ckpt.config.lfs_per_iteration);
    cfg.u64(ckpt.config.seed);
    cfg.opt_u64(ckpt.config.checkpoint_every.map(|k| k as u64));
    cfg.u8(match ckpt.config.selection {
        SelectionStrategy::Seu => SEU_TAG,
    });
    b.section(section::CONFIG, cfg.into_bytes());

    let mut state = Enc::new();
    state.usize(ckpt.iteration);
    state.opt_u64(ckpt.pending.map(|x| x as u64));
    state.vec_bool(&ckpt.excluded);
    for &w in &ckpt.rng_state {
        state.u64(w);
    }
    state.opt_f64(ckpt.rng_gauss_spare);
    state.opt_f64(ckpt.chosen_p);
    b.section(section::STATE, state.into_bytes());

    let mut lin = Enc::new();
    lin.usize(ckpt.lineage.len());
    for rec in &ckpt.lineage {
        lin.u32(rec.lf.z);
        lin.i8(rec.lf.y.sign());
        lin.u32(rec.dev_example);
        lin.u32(rec.iteration);
    }
    b.section(section::LINEAGE, lin.into_bytes());

    let mut mat = Enc::new();
    mat.usize(ckpt.columns.len());
    for col in &ckpt.columns {
        mat.usize(col.len());
        for &(i, v) in col {
            mat.u32(i);
            mat.i8(v);
        }
    }
    b.section(section::MATRIX, mat.into_bytes());

    let mut out = Enc::new();
    out.vec_f64(&ckpt.train_p_pos);
    out.vec_f64(&ckpt.train_probs);
    out.vec_i8(&ckpt.valid_pred);
    out.vec_i8(&ckpt.test_pred);
    b.section(section::OUTPUTS, out.into_bytes());

    let mut warm = Enc::new();
    warm.usize(ckpt.warm_seeds.len());
    for seeds in &ckpt.warm_seeds {
        warm.vec_f64(seeds);
    }
    b.section(section::WARM, warm.into_bytes());

    // The SEU selector keeps no state outside the session; the section
    // stays so the file layout (and older checkpoints) are unchanged.
    let mut eng = Enc::new();
    eng.u32(ENGINE_VERSION);
    eng.u8(SEU_TAG);
    b.section(section::ENGINE, eng.into_bytes());

    b.into_bytes()
}

/// Deserialize a checkpoint from a file image (structural validation;
/// pass the result to `Session::restore` / `NemoSystem::restore` for
/// dataset-relative validation).
pub fn session_from_bytes(bytes: &[u8]) -> Result<SessionCheckpoint, PersistError> {
    let mut p = FileParser::open(bytes, KIND_SESSION)?;

    let mut cfg = p.section(section::CONFIG, "CONFIG")?;
    let n_iterations = cfg.usize()?;
    let eval_every = cfg.usize()?;
    // Tag 1 belonged to the retired EM label model.
    let label_model = match cfg.u8()? {
        0 => LabelModelKind::Metal,
        2 => LabelModelKind::Majority,
        _ => return Err(PersistError::InvalidValue("label-model tag must be 0 or 2")),
    };
    let lr = cfg.f64()?;
    let epochs = cfg.usize()?;
    let l2 = cfg.f64()?;
    let fit_intercept = cfg.presence()?;
    let lfs_per_iteration = cfg.usize()?;
    let seed = cfg.u64()?;
    let checkpoint_every = cfg.opt_u64()?.map(to_usize).transpose()?;
    let selection = match cfg.u8()? {
        SEU_TAG => SelectionStrategy::Seu,
        _ => return Err(PersistError::InvalidValue("selection-strategy tag must be 0 (SEU)")),
    };
    cfg.finish()?;
    let config = IdpConfig {
        n_iterations,
        eval_every,
        label_model,
        end_model: LogRegConfig { lr, epochs, l2, fit_intercept },
        lfs_per_iteration,
        seed,
        checkpoint_every,
        selection,
    };

    let mut state = p.section(section::STATE, "STATE")?;
    let iteration = state.usize()?;
    let pending = state.opt_u64()?.map(to_usize).transpose()?;
    let excluded = state.vec_bool()?;
    let mut rng_state = [0u64; 4];
    for w in &mut rng_state {
        *w = state.u64()?;
    }
    let rng_gauss_spare = state.opt_f64()?;
    let chosen_p = state.opt_f64()?;
    state.finish()?;

    let mut lin = p.section(section::LINEAGE, "LINEAGE")?;
    let n_lfs = lin.usize()?;
    // Each record is 4 + 1 + 4 + 4 bytes; bound before allocating.
    if n_lfs.checked_mul(13).map_or(true, |b| b > lin.remaining()) {
        return Err(PersistError::LengthOverflow);
    }
    let mut lineage = Vec::with_capacity(n_lfs);
    for _ in 0..n_lfs {
        let z = lin.u32()?;
        let y = Label::from_sign(lin.i8()?)
            .ok_or(PersistError::InvalidValue("LF label sign must be ±1"))?;
        let dev_example = lin.u32()?;
        let iteration = lin.u32()?;
        lineage.push(TrackedLf { lf: PrimitiveLf::new(z, y), dev_example, iteration });
    }
    lin.finish()?;

    let mut mat = p.section(section::MATRIX, "MATRIX")?;
    let n_cols = mat.usize()?;
    if n_cols.checked_mul(8).map_or(true, |b| b > mat.remaining()) {
        return Err(PersistError::LengthOverflow);
    }
    let mut columns = Vec::with_capacity(n_cols);
    for _ in 0..n_cols {
        let n_entries = mat.usize()?;
        if n_entries.checked_mul(5).map_or(true, |b| b > mat.remaining()) {
            return Err(PersistError::LengthOverflow);
        }
        let mut col = Vec::with_capacity(n_entries);
        for _ in 0..n_entries {
            let i = mat.u32()?;
            let v = mat.i8()?;
            col.push((i, v));
        }
        columns.push(col);
    }
    mat.finish()?;

    let mut out = p.section(section::OUTPUTS, "OUTPUTS")?;
    let train_p_pos = out.vec_f64()?;
    let train_probs = out.vec_f64()?;
    let valid_pred = out.vec_i8()?;
    let test_pred = out.vec_i8()?;
    out.finish()?;

    let mut warm = p.section(section::WARM, "WARM")?;
    let n_seeds = warm.usize()?;
    if n_seeds.checked_mul(8).map_or(true, |b| b > warm.remaining()) {
        return Err(PersistError::LengthOverflow);
    }
    let mut warm_seeds = Vec::with_capacity(n_seeds);
    for _ in 0..n_seeds {
        warm_seeds.push(warm.vec_f64()?);
    }
    warm.finish()?;

    let mut eng = p.section(section::ENGINE, "ENGINE")?;
    if eng.u32()? != ENGINE_VERSION {
        return Err(PersistError::InvalidValue("unknown ENGINE section version"));
    }
    if eng.u8()? != SEU_TAG {
        return Err(PersistError::InvalidValue("engine-state tag must be 0 (SEU)"));
    }
    eng.finish()?;
    p.finish()?;

    Ok(SessionCheckpoint {
        config,
        iteration,
        pending,
        lineage,
        columns,
        excluded,
        train_p_pos,
        train_probs,
        valid_pred,
        test_pred,
        chosen_p,
        rng_state,
        rng_gauss_spare,
        warm_seeds,
    })
}

/// Write a checkpoint to `path` crash-safely (temp file + fsync + atomic
/// rename).
pub fn save_session(path: &Path, ckpt: &SessionCheckpoint) -> Result<(), PersistError> {
    write_atomic(path, &session_to_bytes(ckpt))
}

/// Load a checkpoint from `path` (structural validation only; see
/// [`session_from_bytes`]).
pub fn load_session(path: &Path) -> Result<SessionCheckpoint, PersistError> {
    session_from_bytes(&std::fs::read(path)?)
}
