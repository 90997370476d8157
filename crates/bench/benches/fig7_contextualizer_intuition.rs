//! Figure 7: conflict resolution via contextualization (toy).
//!
//! Construct the paper's illustration concretely: two LFs created from
//! development points in different clusters conflict on a region where
//! one of them over-generalizes. The standard pipeline must give one LF a
//! single global weight and resolves every conflict the same way; the
//! contextualized pipeline refines each LF to its development
//! neighborhood and resolves the conflicts per-region.

use nemo_bench::{write_csv, Table};
use nemo_core::config::ContextualizerConfig;
use nemo_core::contextualizer::Contextualizer;
use nemo_core::oracle::SimulatedUser;
use nemo_data::catalog::toy_text;
use nemo_labelmodel::{LabelModel, MajorityVote};
use nemo_lf::{Label, LabelMatrix, LfColumn, Lineage};
use nemo_sparse::DetRng;

fn main() {
    println!("Figure 7 — contextualizer conflict resolution (toy)");
    let ds = toy_text(21);
    let user = SimulatedUser::default();
    let _rng = DetRng::new(5);

    // Find a conflicting LF pair developed from different clusters: same
    // primitive polarity mismatch on overlapping coverage.
    let mut found = None;
    'outer: for xa in 0..ds.train.n() {
        let ca = user.candidates(xa, &ds);
        for &(lfa, acc_a) in &ca {
            if acc_a < 0.6 {
                continue;
            }
            for xb in 0..ds.train.n() {
                if ds.train.clusters[xb] == ds.train.clusters[xa] {
                    continue;
                }
                let cb = user.candidates(xb, &ds);
                for &(lfb, acc_b) in &cb {
                    if acc_b < 0.6 || lfb.y == lfa.y {
                        continue;
                    }
                    // Conflict mass: examples covered by both primitives.
                    let cov_a = lfa.coverage(&ds.train.corpus);
                    let conflicts = cov_a
                        .iter()
                        .filter(|&&i| ds.train.corpus.contains(i as usize, lfb.z))
                        .count();
                    if conflicts >= 5 {
                        found = Some((lfa, xa, lfb, xb, conflicts));
                        break 'outer;
                    }
                }
            }
        }
    }
    let Some((lf1, dev1, lf2, dev2, n_conflicts)) = found else {
        println!("no conflicting pair found on this toy draw — regenerate with another seed");
        return;
    };
    println!(
        "λ1 = λ({}, {}) from cluster {}, λ2 = λ({}, {}) from cluster {}, {} conflicting examples",
        ds.primitive_name(lf1.z),
        lf1.y,
        ds.train.clusters[dev1],
        ds.primitive_name(lf2.z),
        lf2.y,
        ds.train.clusters[dev2],
        n_conflicts
    );

    let mut lineage = Lineage::new();
    lineage.record(lf1, dev1 as u32, 0);
    lineage.record(lf2, dev2 as u32, 1);
    let mut matrix = LabelMatrix::new(ds.train.n());
    matrix.push(LfColumn::from_lf(&lf1, &ds.train.corpus));
    matrix.push(LfColumn::from_lf(&lf2, &ds.train.corpus));

    // Conflict examples and how each pipeline labels them.
    let conflict_idx: Vec<u32> = lf1
        .coverage(&ds.train.corpus)
        .iter()
        .copied()
        .filter(|&i| ds.train.corpus.contains(i as usize, lf2.z))
        .collect();

    let model = MajorityVote::default();
    let standard = model.fit(&matrix, [0.5, 0.5]).predict(&matrix);

    let mut ctx = Contextualizer::new(ContextualizerConfig::default());
    ctx.sync(&lineage, &ds);
    // invariant: 50 is a point of the default grid.
    let refined = ctx.refined(50.0).expect("50 is on the default grid").0;
    let contextual = model.fit(refined, [0.5, 0.5]).predict(refined);

    let score = |post: &nemo_labelmodel::Posterior| -> (usize, usize) {
        let mut correct = 0;
        let mut decided = 0;
        for &i in &conflict_idx {
            let p = post.p_pos(i as usize);
            if (p - 0.5).abs() < 1e-9 {
                continue; // unresolved tie
            }
            decided += 1;
            let pred = Label::from_bool(p >= 0.5);
            if pred == ds.train.labels[i as usize] {
                correct += 1;
            }
        }
        (correct, decided)
    };
    let (std_correct, std_decided) = score(&standard);
    let (ctx_correct, ctx_decided) = score(&contextual);

    let mut table = Table::new(&["Pipeline", "conflicts decided", "decided correctly"]);
    table.row(vec![
        "Standard".into(),
        format!("{std_decided}/{}", conflict_idx.len()),
        std_correct.to_string(),
    ]);
    table.row(vec![
        "Contextualized (p=50)".into(),
        format!("{ctx_decided}/{}", conflict_idx.len()),
        ctx_correct.to_string(),
    ]);
    table.print("Conflict resolution on the λ1/λ2 overlap (paper Fig. 7):");
    write_csv(
        "fig7_contextualizer_intuition",
        &["pipeline", "decided", "correct", "total_conflicts"],
        &[
            vec![
                "standard".into(),
                std_decided.to_string(),
                std_correct.to_string(),
                conflict_idx.len().to_string(),
            ],
            vec![
                "contextualized".into(),
                ctx_decided.to_string(),
                ctx_correct.to_string(),
                conflict_idx.len().to_string(),
            ],
        ],
    );
}
