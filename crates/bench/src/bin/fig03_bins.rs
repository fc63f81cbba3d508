//! Figure 3: distribution of contigs across the three bins for the
//! arcticsynth dataset, as a function of the assembly k-mer size.
//!
//! Paper claims: bin 3 consistently gets < 1% of contigs, bin 2 varies
//! between ~10% and ~30%, and larger k leads to more contigs with non-zero
//! candidate reads. We regenerate the distribution by running the real
//! upstream pipeline on the arcticsynth-like preset at several k and
//! binning the resulting extension tasks.

use align::{AlignParams, CandidateParams};
use bench::local_assembly_dump;
use datagen::arcticsynth_like;
use locassm::bin_tasks;
use mhm::report::render_table;
use mhm::PipelineConfig;

fn main() {
    let preset = arcticsynth_like(1.0);
    // MetaHipMer2's alignment phase only reports near-full-length read
    // alignments (ADEPT score cutoffs), so a read hanging far off a contig
    // end is NOT a candidate — which is why most contigs land in bin 1.
    // 130/150 mimics that cutoff.
    let candidates = CandidateParams {
        align: AlignParams { min_overlap: 130, ..Default::default() },
        ..Default::default()
    };
    println!("=== Figure 3: contig distribution across bins vs k ({}) ===\n", preset.name);

    let mut rows = Vec::new();
    for k in [21, 31, 41, 51, 61] {
        let dump = local_assembly_dump(
            &preset,
            &PipelineConfig { k, candidates: candidates.clone(), ..Default::default() },
        );
        let stats = bin_tasks(&dump.tasks);
        let (b1, b2, b3) = stats.percentages();
        let (r1, r2, r3) = stats.read_totals(&dump.tasks);
        rows.push(vec![
            k.to_string(),
            stats.total().to_string(),
            format!("{b1:.1}%"),
            format!("{b2:.1}%"),
            format!("{b3:.2}%"),
            format!("{r1}/{r2}/{r3}"),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["k", "tasks", "bin1 (0 reads)", "bin2 (<10)", "bin3 (>=10)", "reads b1/b2/b3"],
            &rows
        )
    );
    println!("paper: bin3 < 1% of contigs; bin2 10-30%; larger k => fewer zero-read contigs.");
    println!("note: bin3, though rare, can carry the bulk of the candidate reads (last column).");
}
