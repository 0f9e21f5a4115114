//! One module per reproduced experiment, and the registry that `repro`,
//! `repro sweep` and the figures bench iterate. See DESIGN.md §2 for the
//! experiment index.

pub mod ablations;
pub mod churn;
pub mod fig8;
pub mod figs13to15;
pub mod figs4to7;
pub mod figs9to12;
pub mod horizon;
pub mod sec5_posting;
pub mod sec7_deploy;

use crate::output::{s, Table};
use crate::sweep::Summary;
use crate::{Outcome, RunCtx};

/// One registered experiment.
pub struct Experiment {
    /// Canonical id: the sweep name, and (with `-` → `_`) the stem of its
    /// CSV, profile and trace files.
    pub name: &'static str,
    /// Other ids `repro` accepts for it (single figures, old names).
    pub aliases: &'static [&'static str],
    /// Whether a seed changes anything, i.e. whether `repro sweep` runs it.
    pub sweepable: bool,
    pub run: fn(&RunCtx) -> Outcome,
}

impl Experiment {
    /// File-name stem: the canonical id with `-` → `_`.
    pub fn stem(&self) -> String {
        self.name.replace('-', "_")
    }
}

/// Every experiment, in `repro all` order. Adding an experiment means
/// adding one row here.
pub const REGISTRY: &[Experiment] = &[
    Experiment {
        name: "figs4to7",
        aliases: &["figs4-7", "fig4", "fig5", "fig6", "fig7"],
        sweepable: true,
        run: figs4to7::run,
    },
    Experiment { name: "horizon", aliases: &["sparse"], sweepable: true, run: horizon::run },
    Experiment { name: "fig8", aliases: &["crawl"], sweepable: true, run: fig8::run },
    Experiment {
        name: "figs9to12",
        aliases: &["figs9-12", "fig9", "fig10", "fig11", "fig12"],
        sweepable: true,
        run: figs9to12::run,
    },
    Experiment {
        name: "figs13to15",
        aliases: &["figs13-15", "fig13", "fig14", "fig15"],
        sweepable: true,
        run: figs13to15::run,
    },
    Experiment { name: "sec5-posting", aliases: &[], sweepable: true, run: sec5_posting::run },
    Experiment { name: "sec7-deploy", aliases: &[], sweepable: true, run: sec7_deploy::run },
    Experiment {
        name: "model-params",
        aliases: &["table1", "table2"],
        sweepable: false,
        run: model_params,
    },
    Experiment {
        name: "ablations",
        aliases: &["ablation-timeout"],
        sweepable: true,
        run: ablations::run,
    },
    Experiment { name: "churn", aliases: &[], sweepable: true, run: churn::run },
];

/// The registered experiment `id` names, by canonical id or alias.
pub fn find(id: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.name == id || e.aliases.contains(&id))
}

/// `repro model-params`: re-emit the paper's Tables 1 and 2 (the model
/// notation) from the implementation, so the glossary and the code cannot
/// drift apart.
pub fn model_params(_ctx: &RunCtx) -> Outcome {
    let mut t = Table::new(
        "Tables 1 & 2: model parameters and variables (defined in pier-model)",
        &["symbol", "meaning"],
    );
    for (sym, meaning) in pier_model::cost::params_glossary() {
        t.row(vec![s(sym), s(meaning)]);
    }
    Outcome::analytic(vec![t], Summary::new())
}
