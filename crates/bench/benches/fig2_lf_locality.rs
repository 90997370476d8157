//! Figure 2: LF coverage and accuracy by distance to development data.
//!
//! For 100 simulated-user LFs on Amazon, all training examples are split
//! into four subspaces by the quartile of their distance to the LF's
//! development data point; the LF's coverage and accuracy are computed in
//! each subspace and averaged over LFs — the locality premise the whole
//! paper builds on (higher coverage *and* higher accuracy near the
//! development data).

use nemo_bench::{write_csv, BenchProtocol, Table};
use nemo_core::oracle::SimulatedUser;
use nemo_data::{DatasetName, Rows};
use nemo_sparse::{DetRng, Distance};

fn main() {
    let protocol = BenchProtocol::from_env();
    println!(
        "Figure 2 — LF locality on Amazon (profile: {}; 100 simulated-user LFs)",
        protocol.profile.name()
    );
    let ds = protocol.dataset(DatasetName::Amazon);
    let user = SimulatedUser::default();
    let mut rng = DetRng::new(0xf162);
    let n = ds.train.n();

    let mut cov_q = [0.0f64; 4];
    let mut acc_q = [0.0f64; 4];
    let mut acc_n = [0usize; 4];
    let mut n_lfs = 0usize;
    let mut guard = 0usize;
    while n_lfs < 100 && guard < 2000 {
        guard += 1;
        let x = rng.index(n);
        let candidates = user.candidates(x, &ds);
        let passing: Vec<_> = candidates.iter().filter(|&&(_, a)| a >= 0.5).collect();
        if passing.is_empty() {
            continue;
        }
        let (lf, _) = *passing[rng.index(passing.len())];
        n_lfs += 1;

        let dists = ds.train.features.distances(Distance::Cosine, x, &ds.train.features, Rows::All);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| dists[a].partial_cmp(&dists[b]).expect("finite distances"));
        for q in 0..4 {
            let seg = &order[q * n / 4..(q + 1) * n / 4];
            let covered: Vec<usize> =
                seg.iter().copied().filter(|&i| ds.train.corpus.contains(i, lf.z)).collect();
            cov_q[q] += covered.len() as f64 / seg.len() as f64;
            if !covered.is_empty() {
                let correct = covered.iter().filter(|&&i| ds.train.labels[i] == lf.y).count();
                acc_q[q] += correct as f64 / covered.len() as f64;
                acc_n[q] += 1;
            }
        }
    }

    let mut table = Table::new(&["Distance quartile", "Coverage", "Accuracy"]);
    let mut csv = Vec::new();
    for q in 0..4 {
        let cov = cov_q[q] / n_lfs as f64;
        let acc = if acc_n[q] > 0 { acc_q[q] / acc_n[q] as f64 } else { f64::NAN };
        table.row(vec![
            format!("Q{} ({}–{}%)", q + 1, q * 25, (q + 1) * 25),
            format!("{cov:.4}"),
            if acc.is_nan() { "n/a (no coverage)".into() } else { format!("{acc:.3}") },
        ]);
        csv.push(vec![(q + 1).to_string(), format!("{cov:.5}"), format!("{acc:.4}")]);
    }
    table.print(&format!(
        "Averaged over {n_lfs} LFs (paper Fig. 2: both series decay with distance):"
    ));
    write_csv("fig2_lf_locality", &["quartile", "coverage", "accuracy"], &csv);
}
