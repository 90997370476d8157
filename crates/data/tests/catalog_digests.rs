//! Catalog datasets, hashed: features (CSR parts, dense mirror and row
//! norms, bit for bit), primitive corpus, labels, clusters, primitive
//! names and lexicon of all three splits. Every dataset is pinned at the
//! smoke profile (seed 1) and at the quick profile (seed 42, the dataset
//! seed of the end-to-end benchmark), and Amazon, Yelp and IMDB at the
//! full profile. The smoke digests were recorded while the text generator
//! still materialized one `String` per token occurrence, the quick and
//! Amazon full ones while it still counted through string maps, and the
//! Yelp and IMDB full ones while indicator tokens were still drawn by a
//! linear scan; any change to what a generator emits shows here, not only
//! in downstream curves. The Yelp and IMDB full builds add about 0.1 s
//! to the suite (2-vCPU host).

use nemo_data::catalog::{self, DatasetName};
use nemo_data::{Dataset, Profile, Split};

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A length-prefixed sequence, so adjacent fields cannot alias.
    fn seq<T: Copy>(&mut self, items: &[T], each: impl Fn(T) -> u64) {
        self.u64(items.len() as u64);
        for &item in items {
            self.u64(each(item));
        }
    }
}

fn hash_split(h: &mut Fnv, split: &Split) {
    h.seq(&split.labels, |l| l.index() as u64);
    h.seq(&split.clusters, u64::from);
    let (indptr, indices, values) = split.features.csr().raw_parts();
    h.u64(split.features.dim() as u64);
    h.seq(indptr, |p| p as u64);
    h.seq(indices, u64::from);
    h.seq(values, |v| u64::from(v.to_bits()));
    h.seq(split.features.sq_norms(), f64::to_bits);
    match split.features.dense() {
        Some(d) => h.seq(d.flat(), |v| u64::from(v.to_bits())),
        None => h.u64(u64::MAX),
    }
    h.u64(split.corpus.n_primitives() as u64);
    for i in 0..split.corpus.len() {
        h.seq(split.corpus.primitives_of(i), u64::from);
    }
}

fn digest(ds: &Dataset) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.bytes(ds.name.as_bytes());
    h.u64(ds.n_primitives as u64);
    h.u64(ds.class_prior_pos.to_bits());
    for split in [&ds.train, &ds.valid, &ds.test] {
        hash_split(&mut h, split);
    }
    h.u64(ds.primitive_names.len() as u64);
    for name in &ds.primitive_names {
        h.u64(name.len() as u64);
        h.bytes(name.as_bytes());
    }
    h.seq(&ds.lexicon, u64::from);
    h.0
}

/// Builds each listed dataset at `profile` and `seed` and compares its
/// digest; a mismatch prints the regenerated table.
fn assert_digests(profile: Profile, seed: u64, expected: &[(DatasetName, u64)]) {
    let got: Vec<(DatasetName, u64)> = expected
        .iter()
        .map(|&(name, _)| (name, digest(&catalog::build(name, profile, seed))))
        .collect();
    let table: String = got
        .iter()
        .map(|(name, d)| format!("        (DatasetName::{name:?}, {d:#018x}),\n"))
        .collect();
    assert_eq!(
        got,
        expected,
        "{} catalog digests changed (seed {seed}); regenerated table:\n{table}",
        profile.name()
    );
}

#[test]
fn smoke_catalog_datasets_match_recorded_digests() {
    assert_digests(
        Profile::Smoke,
        1,
        &[
            (DatasetName::Amazon, 0xc722d6008a47468a),
            (DatasetName::Yelp, 0xd38f193c772689ea),
            (DatasetName::Imdb, 0xcbebff5de9de2342),
            (DatasetName::Youtube, 0xfc2f8e081341e507),
            (DatasetName::Sms, 0x5ababe1c70ac7f07),
            (DatasetName::Vg, 0x2a55abace8aa2fe1),
        ],
    );
}

/// The quick profile at seed 42, the dataset seed of every perfbench
/// workload.
#[test]
fn quick_catalog_datasets_match_recorded_digests() {
    assert_digests(
        Profile::Quick,
        42,
        &[
            (DatasetName::Amazon, 0xc94d184314e9cc4d),
            (DatasetName::Yelp, 0xcb57ba0404a0e2f3),
            (DatasetName::Imdb, 0xc758fc1fdb6dc114),
            (DatasetName::Youtube, 0xdeed5535a63bf166),
            (DatasetName::Sms, 0xbae8ba12d41836d1),
            (DatasetName::Vg, 0xe98383abbf715895),
        ],
    );
}

/// Amazon at the full profile: the amazon-full workload's dataset.
#[test]
fn full_amazon_matches_recorded_digest() {
    assert_digests(Profile::Full, 42, &[(DatasetName::Amazon, 0x77b53c2e6b5477a4)]);
}

/// Yelp and IMDB at the full profile: the two largest generators.
#[test]
fn full_yelp_and_imdb_match_recorded_digests() {
    assert_digests(
        Profile::Full,
        42,
        &[(DatasetName::Yelp, 0xce05835c0ac1ee0b), (DatasetName::Imdb, 0x9305402c58843f08)],
    );
}
