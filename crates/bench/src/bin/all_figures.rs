//! Runs every experiment and rewrites `EXPERIMENTS.md` with the measured
//! results next to the paper's reported numbers.
//!
//! ```sh
//! cargo run --release -p cohesion-bench --bin all_figures -- \
//!     [--cores N] [--scale tiny|small|medium] [--jobs N] [--out PATH] [--csv DIR]
//! ```
//!
//! Every sweep runs on the `--jobs` / `COHESION_JOBS` worker pool with
//! results returned in input order, so the rewritten `EXPERIMENTS.md` and
//! the `--csv` files are byte-identical regardless of worker count.

use std::fmt::Write as _;

use cohesion_bench::figures::*;
use cohesion_bench::harness::Options;
use cohesion_bench::table::ratio;
use cohesion_runtime::api::CohMode;

/// The committed full-scale Figure 8 table for the appendix, embedded at
/// build time: regenerating it takes hours on a many-core host
/// (docs/performance.md, "Known drift"), with
/// `cargo run --release -p cohesion-bench --bin fig8 -- --cores 1024
///  --scale medium --kernels heat,sobel,kmeans > results/fig8-1024-medium.txt`.
const FIG8_1024_MEDIUM: &str = include_str!("../../../../results/fig8-1024-medium.txt");

fn main() {
    let opts = Options::from_args();
    let out_path = std::env::args()
        .collect::<Vec<_>>()
        .windows(2)
        .find(|w| w[0] == "--out")
        .map(|w| w[1].clone())
        .unwrap_or_else(|| "EXPERIMENTS.md".to_string());

    eprintln!("[all_figures] fig2 ...");
    let f2 = fig2(&opts);
    eprintln!("[all_figures] fig3 ...");
    let f3 = fig3(&opts);
    eprintln!("[all_figures] fig8 ...");
    let f8 = fig8(&opts);
    eprintln!("[all_figures] fig9a ...");
    let f9a = fig9_sweep(&opts, CohMode::HWcc);
    eprintln!("[all_figures] fig9b ...");
    let f9b = fig9_sweep(&opts, CohMode::Cohesion);
    eprintln!("[all_figures] fig9c ...");
    let f9c = fig9c(&opts);
    eprintln!("[all_figures] fig10 ...");
    let f10 = fig10(&opts);
    let summary = summarize(&f8, &f9c);

    if let Some(csv_dir) = std::env::args()
        .collect::<Vec<_>>()
        .windows(2)
        .find(|w| w[0] == "--csv")
        .map(|w| w[1].clone())
    {
        cohesion_bench::csv::export_all(
            std::path::Path::new(&csv_dir),
            &f2,
            &f3,
            &f8,
            &f9a,
            &f9b,
            &f9c,
            &f10,
        )
        .expect("write CSV files");
        eprintln!("[all_figures] wrote CSVs to {csv_dir}");
    }

    let mut md = String::new();
    let w = &mut md;
    writeln!(w, "# EXPERIMENTS — paper vs. measured\n").unwrap();
    writeln!(
        w,
        "Reproduction of every table and figure in the evaluation of \
         *Cohesion: A Hybrid Memory Model for Accelerators* (ISCA 2010).\n"
    )
    .unwrap();
    writeln!(
        w,
        "Generated by `cargo run --release -p cohesion-bench --bin all_figures -- \
         --cores {} --scale {:?}`. The simulated machine is the Table 3 \
         organization scaled to {} cores ({} clusters); quantities are \
         normalized exactly as in the paper, so shapes — who wins, by what \
         factor, where crossovers fall — are the comparison targets, not \
         absolute cycle counts (our substrate is a reconstructed simulator, \
         not the authors' Rigel testbed; see DESIGN.md §2 for the \
         substitutions).\n",
        opts.cores,
        opts.scale,
        opts.cores,
        opts.cores / 8
    )
    .unwrap();

    writeln!(w, "## Headline claims (abstract)\n").unwrap();
    writeln!(w, "| claim | paper | measured |").unwrap();
    writeln!(w, "|---|---|---|").unwrap();
    writeln!(
        w,
        "| message reduction, Cohesion vs optimistic HWcc | ~2x | {} (geomean over the 8 kernels) |",
        ratio(summary.message_reduction)
    )
    .unwrap();
    writeln!(
        w,
        "| directory-utilization reduction | 2.1x | {} (mean entries, unbounded directory) |",
        ratio(summary.directory_reduction)
    )
    .unwrap();
    writeln!(
        w,
        "| robustness to directory capacity | \"performance falls off precipitously\" for HWcc, \
         not Cohesion | see Figures 9a/9b below |\n"
    )
    .unwrap();

    writeln!(w, "## Figure 2 — message overhead of optimistic HWcc vs SWcc\n").unwrap();
    writeln!(
        w,
        "Paper: \"significantly increased message traffic across all benchmarks for \
         HWcc except for kmeans\"; the extra messages come from write misses and \
         read releases. Measured (total L2→L3 messages normalized to SWcc):\n"
    )
    .unwrap();
    writeln!(w, "| kernel | HWcc/SWcc | dominant HWcc additions |").unwrap();
    writeln!(w, "|---|---|---|").unwrap();
    for r in &f2 {
        let base = r.swcc.total_messages() as f64;
        use cohesion_sim::msg::MessageClass::*;
        writeln!(
            w,
            "| {} | {} | write requests {:.2}, read releases {:.2} |",
            r.kernel,
            ratio(r.hwcc.total_messages() as f64 / base),
            r.hwcc.messages.count(WriteRequest) as f64 / base,
            r.hwcc.messages.count(ReadRelease) as f64 / base,
        )
        .unwrap();
    }
    writeln!(w, "\n<details><summary>full per-class table</summary>\n\n```").unwrap();
    writeln!(w, "{}", render_fig2(&f2)).unwrap();
    writeln!(w, "```\n</details>\n").unwrap();

    writeln!(w, "## Figure 3 — usefulness of SWcc coherence instructions vs L2 size\n").unwrap();
    writeln!(
        w,
        "Paper: fractions from 0.03 to 0.77 annotated across the 8K–128K sweep, \
         usefulness increasing with cache size (eagerly-written-back output is \
         mostly useful; lazily-invalidated input often already evicted). Measured:\n"
    )
    .unwrap();
    writeln!(w, "```").unwrap();
    writeln!(w, "{}", render_fig3(&f3)).unwrap();
    writeln!(w, "```\n").unwrap();

    writeln!(w, "## Figure 8 — four configurations, normalized to SWcc\n").unwrap();
    writeln!(
        w,
        "Paper: reduction in messages relative to the HWcc configurations across all \
         benchmarks; kmeans is the only one where SWcc out-messages Cohesion; for \
         heat and stencil, Cohesion is nearly identical to optimistic HWcc... \
         (§4.2). Measured:\n"
    )
    .unwrap();
    writeln!(w, "```").unwrap();
    writeln!(w, "{}", render_fig8(&f8)).unwrap();
    writeln!(w, "```\n").unwrap();

    writeln!(w, "## Figures 9a/9b — slowdown vs directory entries per bank\n").unwrap();
    writeln!(
        w,
        "Paper: HWcc slows up to ~8x as fully-associative directories shrink to 256 \
         entries/bank (9a) while Cohesion's curves stay nearly flat (9b). Measured:\n"
    )
    .unwrap();
    writeln!(w, "```").unwrap();
    writeln!(w, "{}", render_fig9_sweep("a (HWcc)", &f9a)).unwrap();
    writeln!(w, "{}", render_fig9_sweep("b (Cohesion)", &f9b)).unwrap();
    writeln!(w, "```\n").unwrap();

    writeln!(w, "## Figure 9c — directory entries allocated (unbounded directory)\n").unwrap();
    writeln!(
        w,
        "Paper: 2.1x mean reduction; stacks alone are ~15% of HWcc's entries; code \
         is negligible; most savings come from keeping globally-shared data on the \
         incoherent heap. Measured:\n"
    )
    .unwrap();
    writeln!(w, "```").unwrap();
    writeln!(w, "{}", render_fig9c(&f9c)).unwrap();
    writeln!(w, "```\n").unwrap();

    writeln!(w, "## Figure 10 — runtime across the six design points\n").unwrap();
    writeln!(
        w,
        "Paper (values legible in the artifact): sobel HWccReal 3.56x, HWcc(Dir4B) \
         3.88x, SWcc 0.84x, HWccIdeal 1.09x; stencil SWcc 1.03x, HWccReal 1.10x, \
         HWccIdeal 1.03x — i.e. Cohesion is competitive with optimistic HWcc while \
         the realizable HWcc configurations collapse on directory-hostile kernels. \
         Measured:\n"
    )
    .unwrap();
    writeln!(w, "```").unwrap();
    writeln!(w, "{}", render_fig10(&f10)).unwrap();
    writeln!(w, "```\n").unwrap();

    writeln!(w, "## §4.4 — directory area estimates (analytic)\n").unwrap();
    writeln!(w, "```").unwrap();
    writeln!(w, "{}", render_area()).unwrap();
    writeln!(w, "```\n").unwrap();

    writeln!(w, "## Fidelity notes\n").unwrap();
    writeln!(
        w,
        "* **HWccReal / HWcc(Dir4B) collapse.** The paper attributes the realistic \
         configurations' losses to *directory set aliasing* (§4.6) — its 16K-entry, \
         128-way banks are larger than the resident working set, yet still thrash. \
         We reconstruct this with directly-indexed directory sets (low line-address \
         bits), where the bank-select bits are constant per bank and waste index \
         entropy; the exact index function of the authors' RTL is unpublished, so \
         our collapse factors differ in magnitude but not direction."
    )
    .unwrap();
    writeln!(
        w,
        "* **kmeans under Cohesion** applies the §4.2 optimization (per-task HWcc \
         partial accumulators instead of global uncached atomics), which is why its \
         Cohesion bar drops *below* SWcc in both the paper and our Figure 8."
    )
    .unwrap();
    writeln!(
        w,
        "* **cg message counts** wobble a few percent between configurations beyond \
         the protocol differences: the dynamic task queue assigns blocks to \
         different clusters depending on timing, changing halo reuse. The paper's \
         task-queue runtime has the same property."
    )
    .unwrap();
    writeln!(
        w,
        "* **Fine-grain table caching.** With our scaled L3, caching the table in \
         the L3 (the paper's base design) suffers churn the full-size machine \
         would not; the default configuration therefore uses the small dedicated \
         table cache the paper suggests (\"the dense structure of the table is \
         amenable to on-die caching\", §3.4). Set `table_cache_bytes = 0` to \
         measure the base design."
    )
    .unwrap();

    writeln!(w, "## Regenerating these results\n").unwrap();
    writeln!(
        w,
        "Every figure binary shares the same CLI: `--cores N` (8 per cluster; 1024 = \
         the full Table 3 machine), `--scale tiny|small|medium`, `--kernels a,b,c` \
         (validated against the eight kernel names), and `--jobs N` — the worker-pool \
         width for the sweep (default: `COHESION_JOBS` or the machine's available \
         parallelism). Sweeps are lists of independent single-threaded simulations, \
         so `--jobs` changes only wall-clock time: results return in input order and \
         this file, the tables, and the CSVs are byte-identical at any worker count. \
         Progress lines (`[7/40] fig8 heat @ SWcc … 1.8s`) go to stderr.\n"
    )
    .unwrap();
    writeln!(w, "```sh").unwrap();
    writeln!(
        w,
        "# everything at once (rewrites this file; --csv also emits results/*.csv)\n\
         cargo run --release -p cohesion-bench --bin all_figures -- \\\n\
         \x20   --cores {} --scale {:?} --jobs 8 --csv results\n\
         # or figure by figure\n\
         cargo run --release -p cohesion-bench --bin fig2   -- --jobs 8\n\
         cargo run --release -p cohesion-bench --bin fig3   -- --jobs 8\n\
         cargo run --release -p cohesion-bench --bin fig8   -- --jobs 8\n\
         cargo run --release -p cohesion-bench --bin fig9   -- --jobs 8   # --part a|b|c\n\
         cargo run --release -p cohesion-bench --bin fig10  -- --jobs 8\n\
         cargo run --release -p cohesion-bench --bin area\n\
         cargo run --release -p cohesion-bench --bin summary -- --jobs 8",
        opts.cores, opts.scale
    )
    .unwrap();
    writeln!(w, "```\n").unwrap();
    writeln!(
        w,
        "The wall-clock performance of the simulator and of `cohesiond` is measured \
         by the separate `benchmark/` package, with every recorder off; see \
         docs/performance.md. See docs/walkthrough.md §5 for reference wall-clock \
         numbers sequential vs parallel.\n"
    )
    .unwrap();

    writeln!(w, "## Appendix — full-scale (1024-core) spot check\n").unwrap();
    writeln!(
        w,
        "The Table 3 machine without scaling (1024 cores, 128 clusters, 32 L3 banks, \
         8 GDDR5 channels), medium problem sizes, message-based figures only (at \
         medium sizes several kernels have fewer tasks than the 1024 cores, so \
         runtime figures would be parallelism-limited rather than \
         coherence-limited):\n"
    )
    .unwrap();
    writeln!(w, "```\n{FIG8_1024_MEDIUM}```\n").unwrap();
    writeln!(
        w,
        "The 128-core shapes hold at full scale: HWcc pays ~1.8–1.9x message \
         traffic on the streaming kernels (write requests + read releases), \
         Cohesion tracks SWcc within 1%, and kmeans under Cohesion drops to \
         0.14x of SWcc by replacing the global atomic histogramming with \
         directory-combined partial accumulators.\n"
    )
    .unwrap();

    std::fs::write(&out_path, md).expect("write EXPERIMENTS.md");
    eprintln!("[all_figures] wrote {out_path}");
    opts.write_metrics("all_figures");
    opts.write_timeline("all_figures");
}
