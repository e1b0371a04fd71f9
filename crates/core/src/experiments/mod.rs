//! Drivers regenerating every table and figure of the paper's
//! evaluation (§4).
//!
//! Each experiment has a `Config` with two constructors — `Default`
//! (paper-scale) and `quick()` (seconds-scale, for CI and smoke tests) —
//! and returns a serializable result type whose `to_markdown` renders
//! the whole artifact. `archdse <artifact> --full` prints exactly that
//! text, and `results/<artifact>_full.txt` is its redirected stdout.
//!
//! | Paper artifact | Driver | Command |
//! |----------------|--------|---------|
//! | Table 2 (application-specific LF/HF regrets) | [`table2`] | `archdse table2 --full` |
//! | Fig. 5 (baseline comparison) | [`fig5`] | `archdse fig5 --full` |
//! | Fig. 6 (initialization study) | [`fig6`] | `archdse fig6 --full` |
//! | Fig. 7 (preference embedding) | [`fig7`] | `archdse fig7 --full` |
//! | §4.3 rule listing | [`ExplorationReport::rules`](crate::ExplorationReport) | `archdse explore --general --lf-episodes 400 --hf-budget 9 --trace-len 30000 --seed 7` |
//! | design-choice ablations (this repo's addition) | [`ablations`] | `archdse ablations --full` |

mod ablations;
mod fig5;
mod fig6;
mod fig7;
mod table2;

pub use ablations::{ablations, AblationConfig, AblationResult, AblationRow};
pub use fig5::{fig5, Fig5Config, Fig5Result, Fig5Row};
pub use fig6::{fig6, Fig6Config, Fig6Curve, Fig6Result};
pub use fig7::{fig7, Fig7Config, Fig7Result, ParamTrajectory};
pub use table2::{table2, Table2Config, Table2Result, Table2Row};
