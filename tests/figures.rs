//! Every paper figure renders byte-identically to its golden
//! `results/<name>.txt`. The simulator is deterministic (stateless noise,
//! memoised pure simulation) and each figure sends its wall-clock and
//! host-dependent lines to stderr, so any difference here is a behaviour
//! change. Regenerate a golden on purpose with
//! `arcs-sim figure <name> > results/<name>.txt`.

use arcs_bench::figures::{figure, FIGURES};

fn check(name: &str) {
    let path = format!("{}/results/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    let golden =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let rendered = figure(name).unwrap_or_else(|| panic!("no figure named {name}"));
    if rendered == golden {
        return;
    }
    let (line, (want, got)) = golden
        .lines()
        .chain(std::iter::repeat("<end of output>"))
        .zip(rendered.lines().chain(std::iter::repeat("<end of output>")))
        .enumerate()
        .find(|(_, (want, got))| want != got)
        .expect("outputs differ in some line");
    panic!(
        "{name} differs from {path} at line {}:\n  golden:   {want}\n  rendered: {got}",
        line + 1
    );
}

macro_rules! goldens {
    ($($name:ident),* $(,)?) => {
        $(
            #[test]
            fn $name() {
                check(stringify!($name));
            }
        )*

        #[test]
        fn every_figure_is_checked() {
            let checked = [$(stringify!($name)),*];
            let registered: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
            assert_eq!(registered, checked);
        }
    };
}

goldens!(
    table1,
    fig1,
    fig2,
    table2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    overheads,
    xarch,
    ablation,
    extension_dvfs,
    extension_noise,
    extension_suite,
);
