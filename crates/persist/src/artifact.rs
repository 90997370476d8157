//! The immutable dataset artifact store.
//!
//! Serializes the expensive-to-build artifact set of a prepared dataset —
//! feature matrices with their column-major companions and cached row
//! norms, the primitive corpus, and the text pipeline's fitted state
//! (vocabulary + TF-IDF statistics) — into one checksummed file, so a
//! later process can load it near-instantly instead of re-running dataset
//! preparation (tokenization, TF-IDF fitting, CSC construction).
//!
//! Loading is hostile-input-safe: after the container layer verifies
//! framing and checksums, this module re-validates every cross-buffer
//! invariant (via the fallible `from_parts`/`from_raw_parts` importers and
//! a fallible replication of `Dataset::validate`), so a crafted file with
//! consistent CRCs still cannot produce a structurally-broken dataset or a
//! panic.

use std::path::Path;
use std::sync::Arc;

use nemo_core::SharedArtifacts;
use nemo_data::{Backing, Dataset, Features, Split};
use nemo_lf::{Label, Metric, PrimitiveCorpus};
use nemo_sparse::{CscIndex, CsrMatrix, DenseMatrix};
use nemo_text::{TfIdf, TfIdfModel, Vocab};

use crate::format::{write_atomic, Dec, Enc, FileBuilder, FileParser, PersistError, KIND_ARTIFACT};

/// Section ids of an artifact file, in their fixed on-disk order.
mod section {
    pub const META: u32 = 1;
    pub const TRAIN: u32 = 2;
    pub const VALID: u32 = 3;
    pub const TEST: u32 = 4;
    pub const TEXT: u32 = 5;
}

/// Everything the dataset-preparation pipeline produces that is worth
/// persisting: the dataset itself plus the fitted text-pipeline state
/// (present for text tasks, absent for dense-embedding tasks).
#[derive(Debug, Clone)]
pub struct ArtifactBundle {
    /// The prepared dataset (all three splits, features, corpora).
    pub dataset: Dataset,
    /// Token vocabulary, if the dataset came from the text pipeline.
    pub vocab: Option<Vocab>,
    /// Fitted TF-IDF statistics, if the dataset came from the text
    /// pipeline.
    pub tfidf: Option<TfIdfModel>,
}

impl ArtifactBundle {
    /// Move the bundle into the multi-tenant serving shape: the immutable
    /// [`SharedArtifacts`] every concurrent session borrows.
    pub fn into_shared(self) -> SharedArtifacts {
        SharedArtifacts::with_text(self.dataset, self.vocab, self.tfidf)
    }
}

impl From<ArtifactBundle> for SharedArtifacts {
    fn from(bundle: ArtifactBundle) -> Self {
        bundle.into_shared()
    }
}

/// Load an artifact file straight into the [`Arc`] handle a multi-tenant
/// deployment shares: one disk read, zero dataset copies, ready for
/// `nemo_core::pool::SessionPool`.
pub fn load_shared_artifacts(path: &Path) -> Result<Arc<SharedArtifacts>, PersistError> {
    Ok(Arc::new(load_artifact(path)?.into_shared()))
}

fn enc_split(e: &mut Enc, s: &Split) {
    e.vec_i8(&s.labels.iter().map(|l| l.sign()).collect::<Vec<_>>());
    e.vec_u32(&s.clusters);
    e.usize(s.corpus.len());
    for i in 0..s.corpus.len() {
        e.vec_u32(s.corpus.primitives_of(i));
    }
    let f = &s.features;
    let (row_offsets, indices, values) = f.csr().raw_parts();
    match f.backing() {
        Backing::Sparse(csc) => {
            e.u8(0); // sparse-backed
            e.vec_usize(row_offsets);
            e.vec_u32(indices);
            e.vec_f32(values);
            e.usize(f.dim());
            let (offsets, rows, vals) = csc.raw_parts();
            e.vec_usize(offsets);
            e.vec_u32(rows);
            e.vec_f32(vals);
        }
        Backing::Dense(d) => {
            e.u8(1); // dense-backed (CSR mirror persisted alongside)
            e.vec_usize(row_offsets);
            e.vec_u32(indices);
            e.vec_f32(values);
            e.usize(f.dim());
            e.usize(d.n_rows());
            e.usize(d.n_cols());
            e.vec_f32(d.flat());
        }
    }
    e.vec_f64(f.sq_norms());
}

fn dec_split(d: &mut Dec<'_>, n_primitives: usize) -> Result<Split, PersistError> {
    let signs = d.vec_i8()?;
    let labels = signs
        .iter()
        .map(|&s| Label::from_sign(s).ok_or(PersistError::InvalidValue("label sign must be ±1")))
        .collect::<Result<Vec<_>, _>>()?;
    let clusters = d.vec_u32()?;
    let n_docs = d.usize()?;
    // Each doc costs at least a u64 length prefix; bound before allocating.
    if n_docs.checked_mul(8).map_or(true, |b| b > d.remaining()) {
        return Err(PersistError::LengthOverflow);
    }
    let mut docs = Vec::with_capacity(n_docs);
    for _ in 0..n_docs {
        let doc = d.vec_u32()?;
        // Pre-validate so `PrimitiveCorpus::new` cannot hit its domain
        // assertion on hostile input.
        if doc.iter().any(|&z| z as usize >= n_primitives) {
            return Err(PersistError::InvalidValue("corpus primitive id out of domain"));
        }
        docs.push(doc);
    }
    let corpus = PrimitiveCorpus::new(docs, n_primitives);

    let tag = d.u8()?;
    let row_offsets = d.vec_usize()?;
    let indices = d.vec_u32()?;
    let values = d.vec_f32()?;
    let n_cols = d.usize()?;
    let csr = CsrMatrix::from_raw_parts(row_offsets, indices, values, n_cols)
        .map_err(PersistError::InvalidValue)?;
    let n_rows = csr.n_rows();
    let features = match tag {
        0 => {
            let offsets = d.vec_usize()?;
            let rows = d.vec_u32()?;
            let vals = d.vec_f32()?;
            let csc = CscIndex::from_raw_parts(offsets, rows, vals, n_rows)
                .map_err(PersistError::InvalidValue)?;
            if csc.n_cols() != n_cols {
                return Err(PersistError::InvalidValue("CSC width does not match CSR"));
            }
            let sq_norms = d.vec_f64()?;
            Features::from_parts(csr, Backing::Sparse(csc), sq_norms)
                .map_err(PersistError::InvalidValue)?
        }
        1 => {
            let d_rows = d.usize()?;
            let d_cols = d.usize()?;
            let flat = d.vec_f32()?;
            if d_rows.checked_mul(d_cols) != Some(flat.len()) {
                return Err(PersistError::InvalidValue("dense buffer length ≠ rows × cols"));
            }
            let dense = DenseMatrix::from_flat(flat, d_rows, d_cols);
            let sq_norms = d.vec_f64()?;
            Features::from_parts(csr, Backing::Dense(dense), sq_norms)
                .map_err(PersistError::InvalidValue)?
        }
        _ => return Err(PersistError::InvalidValue("feature backing tag must be 0 or 1")),
    };

    // Fallible replication of `Split::validate`.
    if labels.len() != features.n()
        || labels.len() != corpus.len()
        || labels.len() != clusters.len()
    {
        return Err(PersistError::InvalidValue("split field lengths disagree"));
    }
    Ok(Split { labels, features, corpus, clusters })
}

/// Serialize a bundle to its file image.
pub fn artifact_to_bytes(bundle: &ArtifactBundle) -> Vec<u8> {
    let ds = &bundle.dataset;
    let mut b = FileBuilder::new(KIND_ARTIFACT);

    let mut meta = Enc::new();
    meta.str(&ds.name);
    meta.u8(match ds.metric {
        Metric::Accuracy => 0,
        Metric::F1 => 1,
    });
    meta.usize(ds.n_primitives);
    meta.f64(ds.class_prior_pos);
    meta.usize(ds.primitive_names.len());
    for name in &ds.primitive_names {
        meta.str(name);
    }
    meta.vec_u32(&ds.lexicon);
    b.section(section::META, meta.into_bytes());

    for (id, split) in
        [(section::TRAIN, &ds.train), (section::VALID, &ds.valid), (section::TEST, &ds.test)]
    {
        let mut e = Enc::new();
        enc_split(&mut e, split);
        b.section(id, e.into_bytes());
    }

    let mut text = Enc::new();
    match &bundle.vocab {
        Some(v) => {
            text.u8(1);
            text.usize(v.tokens().len());
            for t in v.tokens() {
                text.str(t);
            }
        }
        None => text.u8(0),
    }
    match &bundle.tfidf {
        Some(m) => {
            text.u8(1);
            text.vec_f32(m.idf_weights());
            text.vec_u32(m.df_counts());
            text.u8(m.config().sublinear_tf as u8);
            text.u8(m.config().l2_normalize as u8);
            text.usize(m.n_train_docs());
        }
        None => text.u8(0),
    }
    b.section(section::TEXT, text.into_bytes());

    b.into_bytes()
}

/// Deserialize and fully validate a bundle from a file image.
pub fn artifact_from_bytes(bytes: &[u8]) -> Result<ArtifactBundle, PersistError> {
    let mut p = FileParser::open(bytes, KIND_ARTIFACT)?;

    let mut meta = p.section(section::META, "META")?;
    let name = meta.str()?;
    let metric = match meta.u8()? {
        0 => Metric::Accuracy,
        1 => Metric::F1,
        _ => return Err(PersistError::InvalidValue("metric tag must be 0 or 1")),
    };
    let n_primitives = meta.usize()?;
    let class_prior_pos = meta.f64()?;
    if !(0.0..=1.0).contains(&class_prior_pos) {
        return Err(PersistError::InvalidValue("class prior must lie in [0, 1]"));
    }
    let n_names = meta.usize()?;
    if n_names != n_primitives {
        return Err(PersistError::InvalidValue("primitive name count ≠ domain size"));
    }
    // Each name costs at least its u64 length prefix.
    if n_names.checked_mul(8).map_or(true, |b| b > meta.remaining()) {
        return Err(PersistError::LengthOverflow);
    }
    let mut primitive_names = Vec::with_capacity(n_names);
    for _ in 0..n_names {
        primitive_names.push(meta.str()?);
    }
    let lexicon = meta.vec_u32()?;
    if lexicon.windows(2).any(|w| w[0] >= w[1]) {
        return Err(PersistError::InvalidValue("lexicon must be sorted unique"));
    }
    if lexicon.last().is_some_and(|&max| max as usize >= n_primitives) {
        return Err(PersistError::InvalidValue("lexicon primitive out of domain"));
    }
    meta.finish()?;

    let mut train_dec = p.section(section::TRAIN, "TRAIN")?;
    let train = dec_split(&mut train_dec, n_primitives)?;
    train_dec.finish()?;
    let mut valid_dec = p.section(section::VALID, "VALID")?;
    let valid = dec_split(&mut valid_dec, n_primitives)?;
    valid_dec.finish()?;
    let mut test_dec = p.section(section::TEST, "TEST")?;
    let test = dec_split(&mut test_dec, n_primitives)?;
    test_dec.finish()?;
    if !valid.features.same_space(&train.features) || !test.features.same_space(&train.features) {
        return Err(PersistError::InvalidValue(
            "split feature width or backing differs from train",
        ));
    }

    let mut text = p.section(section::TEXT, "TEXT")?;
    let vocab = if text.presence()? {
        let n_tokens = text.usize()?;
        if n_tokens.checked_mul(8).map_or(true, |b| b > text.remaining()) {
            return Err(PersistError::LengthOverflow);
        }
        let mut tokens = Vec::with_capacity(n_tokens);
        for _ in 0..n_tokens {
            tokens.push(text.str()?);
        }
        Some(Vocab::from_tokens(tokens).map_err(PersistError::InvalidValue)?)
    } else {
        None
    };
    let tfidf = if text.presence()? {
        let idf = text.vec_f32()?;
        let df = text.vec_u32()?;
        let config = TfIdf { sublinear_tf: text.presence()?, l2_normalize: text.presence()? };
        let n_train_docs = text.usize()?;
        Some(
            TfIdfModel::from_parts(idf, df, config, n_train_docs)
                .map_err(PersistError::InvalidValue)?,
        )
    } else {
        None
    };
    text.finish()?;
    p.finish()?;

    let dataset = Dataset {
        name,
        metric,
        train,
        valid,
        test,
        n_primitives,
        primitive_names,
        lexicon,
        class_prior_pos,
    };
    // `dec_split` + the META checks above fallibly replicate everything
    // `Dataset::validate` asserts, so a load never reaches a panic.
    Ok(ArtifactBundle { dataset, vocab, tfidf })
}

/// Write a bundle to `path` crash-safely (temp file + fsync + atomic
/// rename).
pub fn save_artifact(path: &Path, bundle: &ArtifactBundle) -> Result<(), PersistError> {
    write_atomic(path, &artifact_to_bytes(bundle))
}

/// Load and fully validate a bundle from `path`.
pub fn load_artifact(path: &Path) -> Result<ArtifactBundle, PersistError> {
    artifact_from_bytes(&std::fs::read(path)?)
}
