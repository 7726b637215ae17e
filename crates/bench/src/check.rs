//! A claim as a value: a [`Band`] declared once beside the measurement that
//! feeds it, a [`Check`] once that measurement ran, and [`verdict`] — the
//! one place a reproduced number meets its band.

use std::ops::RangeInclusive;

use crate::util::Report;

/// One claim of the reproduction: what is asserted, the paper's number (or
/// the one pinned when the claim landed) and the inclusive range a
/// reproduced value must fall in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Band {
    pub claim: &'static str,
    pub paper: f64,
    pub lo: f64,
    pub hi: f64,
}

impl Band {
    pub const fn new(claim: &'static str, paper: f64, range: RangeInclusive<f64>) -> Band {
        let (lo, hi) = (*range.start(), *range.end());
        Band {
            claim,
            paper,
            lo,
            hi,
        }
    }

    /// The band together with what was measured for it.
    pub fn check(self, reproduced: f64) -> Check {
        Check {
            band: self,
            reproduced,
        }
    }

    /// [`Band::check`] of a yes/no claim, as 1 or 0.
    pub fn check_flag(self, held: bool) -> Check {
        self.check(f64::from(u8::from(held)))
    }
}

/// A [`Band`] and the value reproduced for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Check {
    pub band: Band,
    pub reproduced: f64,
}

/// The table of `checks` — claim, paper, reproduced, band, verdict — and how
/// many of them hold. Band edges print exactly (`0.05`, `inf`).
fn judge(name: &str, checks: &[Check]) -> (Report, usize) {
    let mut table = Report::new(name, &["claim", "paper", "reproduced", "band", "verdict"]);
    let mut held = 0;
    for Check { band, reproduced } in checks {
        let ok = (band.lo..=band.hi).contains(reproduced);
        held += usize::from(ok);
        table.row(vec![
            band.claim.to_string(),
            format!("{:.2}", band.paper),
            format!("{reproduced:.2}"),
            format!("[{:?}, {:?}]", band.lo, band.hi),
            if ok { "ok" } else { "MISS" }.into(),
        ]);
    }
    (table, held)
}

/// Prints every check of the experiment `name` against its band and returns
/// whether all of them hold (so does an experiment that pins nothing, which
/// prints nothing).
pub fn verdict(name: &str, checks: &[Check]) -> bool {
    if checks.is_empty() {
        return true;
    }
    let (table, held) = judge(&format!("{name} bands"), checks);
    table.print();
    println!("{held} of {} {name} bands hold", checks.len());
    held == checks.len()
}

/// Writes `checks` as `results/<name>.csv`: the scorecard's results file is
/// its checks, while every other experiment's bands follow a table it saved
/// under its own name.
pub fn save(name: &str, checks: &[Check]) {
    judge(name, checks).0.save();
}
