//! The mapping census: the paper's frequency table over PAX/CASPER.
//!
//! | mapping           | phases | % phases | lines | % lines |
//! |-------------------|-------:|---------:|------:|--------:|
//! | universal         |      6 |      27% |   266 |     22% |
//! | identity          |      9 |      41% |   551 |     46% |
//! | null              |      4 |      18% |   262 |     22% |
//! | reverse indirect  |      2 |       9% |    78 |      7% |
//! | forward indirect  |      1 |       5% |    31 |      3% |
//!
//! Experiment E2 regenerates this table by running the automatic
//! classifier over the synthetic CASPER phase pipeline.

use pax_core::mapping::MappingKind;
use std::collections::BTreeMap;
use std::fmt;

/// One census row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CensusRow {
    /// Mapping bucket.
    pub kind: MappingKind,
    /// Number of phase transitions in this bucket.
    pub phases: u32,
    /// Lines of parallel code those phases represent.
    pub lines: u32,
}

/// A complete census over a set of classified phase transitions.
#[derive(Debug, Clone, Default)]
pub struct Census {
    rows: BTreeMap<MappingKind, (u32, u32)>,
}

impl Census {
    /// Empty census.
    pub fn new() -> Census {
        Census::default()
    }

    /// Record one phase transition of `kind` representing `lines` lines.
    pub fn record(&mut self, kind: MappingKind, lines: u32) {
        let e = self.rows.entry(kind).or_insert((0, 0));
        e.0 += 1;
        e.1 += lines;
    }

    /// Build from an iterator of `(kind, lines)`.
    pub fn from_counts(iter: impl IntoIterator<Item = (MappingKind, u32)>) -> Census {
        let mut c = Census::new();
        for (k, l) in iter {
            c.record(k, l);
        }
        c
    }

    /// Total phase transitions counted.
    pub fn total_phases(&self) -> u32 {
        self.rows.values().map(|&(p, _)| p).sum()
    }

    /// Total lines counted.
    pub fn total_lines(&self) -> u32 {
        self.rows.values().map(|&(_, l)| l).sum()
    }

    /// Row for a mapping kind.
    pub fn row(&self, kind: MappingKind) -> CensusRow {
        let (phases, lines) = self.rows.get(&kind).copied().unwrap_or((0, 0));
        CensusRow {
            kind,
            phases,
            lines,
        }
    }

    /// Percentage of phases in this bucket (0–100).
    pub fn phase_pct(&self, kind: MappingKind) -> f64 {
        let t = self.total_phases();
        if t == 0 {
            0.0
        } else {
            self.row(kind).phases as f64 * 100.0 / t as f64
        }
    }

    /// Percentage of lines in this bucket (0–100).
    pub fn line_pct(&self, kind: MappingKind) -> f64 {
        let t = self.total_lines();
        if t == 0 {
            0.0
        } else {
            self.row(kind).lines as f64 * 100.0 / t as f64
        }
    }

    /// Sum of `pct` over the recorded kinds for which `keep` holds.
    fn pct_sum(&self, keep: fn(MappingKind) -> bool, pct: fn(&Self, MappingKind) -> f64) -> f64 {
        let kept = self.rows.keys().filter(|&&k| keep(k));
        kept.map(|&k| pct(self, k)).sum()
    }

    /// Percentage of phases easily overlapped
    /// ([`MappingKind::easily_overlapped`]) — the paper's 68% headline.
    pub fn easily_overlapped_phase_pct(&self) -> f64 {
        self.pct_sum(MappingKind::easily_overlapped, Self::phase_pct)
    }

    /// Percentage of lines easily overlapped — also 68% in the paper.
    pub fn easily_overlapped_line_pct(&self) -> f64 {
        self.pct_sum(MappingKind::easily_overlapped, Self::line_pct)
    }

    /// Percentage of phases amenable to *some* overlap
    /// ([`MappingKind::overlappable`]) — the paper's "more than 90
    /// percent ... with extended effort".
    pub fn amenable_phase_pct(&self) -> f64 {
        self.pct_sum(MappingKind::overlappable, Self::phase_pct)
    }

    /// Iterate rows in taxonomy order.
    pub fn rows(&self) -> impl Iterator<Item = CensusRow> + '_ {
        [
            MappingKind::Universal,
            MappingKind::Identity,
            MappingKind::Null,
            MappingKind::ReverseIndirect,
            MappingKind::ForwardIndirect,
            MappingKind::Seam,
        ]
        .into_iter()
        .filter(|k| self.rows.contains_key(k))
        .map(|k| self.row(k))
    }

    /// The paper's published census, for comparison in reports and tests.
    pub fn paper_reference() -> Census {
        let mut c = Census::new();
        for _ in 0..6 {
            c.record(MappingKind::Universal, 0);
        }
        for _ in 0..9 {
            c.record(MappingKind::Identity, 0);
        }
        for _ in 0..4 {
            c.record(MappingKind::Null, 0);
        }
        for _ in 0..2 {
            c.record(MappingKind::ReverseIndirect, 0);
        }
        c.record(MappingKind::ForwardIndirect, 0);
        // line weights applied in one shot
        c.rows.get_mut(&MappingKind::Universal).unwrap().1 = 266;
        c.rows.get_mut(&MappingKind::Identity).unwrap().1 = 551;
        c.rows.get_mut(&MappingKind::Null).unwrap().1 = 262;
        c.rows.get_mut(&MappingKind::ReverseIndirect).unwrap().1 = 78;
        c.rows.get_mut(&MappingKind::ForwardIndirect).unwrap().1 = 31;
        c
    }
}

impl fmt::Display for Census {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<18} {:>7} {:>9} {:>7} {:>8}",
            "mapping", "phases", "% phases", "lines", "% lines"
        )?;
        for r in self.rows() {
            writeln!(
                f,
                "{:<18} {:>7} {:>8.0}% {:>7} {:>7.0}%",
                r.kind.label(),
                r.phases,
                self.phase_pct(r.kind),
                r.lines,
                self.line_pct(r.kind),
            )?;
        }
        writeln!(
            f,
            "{:<18} {:>7} {:>9} {:>7}",
            "total",
            self.total_phases(),
            "",
            self.total_lines()
        )?;
        writeln!(
            f,
            "easily overlapped: {:.0}% of phases, {:.0}% of lines; amenable: {:.0}%",
            self.easily_overlapped_phase_pct(),
            self.easily_overlapped_line_pct(),
            self.amenable_phase_pct()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_reference_percentages() {
        let c = Census::paper_reference();
        assert_eq!(c.total_phases(), 22);
        assert_eq!(c.total_lines(), 1188);
        assert!((c.phase_pct(MappingKind::Universal) - 27.27).abs() < 0.05);
        assert!((c.phase_pct(MappingKind::Identity) - 40.9).abs() < 0.05);
        assert!((c.phase_pct(MappingKind::Null) - 18.18).abs() < 0.05);
        assert!((c.phase_pct(MappingKind::ReverseIndirect) - 9.09).abs() < 0.05);
        assert!((c.phase_pct(MappingKind::ForwardIndirect) - 4.54).abs() < 0.05);
        assert!((c.line_pct(MappingKind::Universal) - 22.39).abs() < 0.05);
        assert!((c.line_pct(MappingKind::Identity) - 46.38).abs() < 0.05);
        // the 68% / 68% headline
        assert!((c.easily_overlapped_phase_pct() - 68.18).abs() < 0.05);
        assert!((c.easily_overlapped_line_pct() - 68.77).abs() < 0.05);
        // >80% amenable without seam; the paper's >90% claim includes
        // extended-effort forms beyond the five (see E2)
        assert!(c.amenable_phase_pct() > 80.0);
    }

    #[test]
    fn record_and_percentages() {
        let mut c = Census::new();
        c.record(MappingKind::Universal, 10);
        c.record(MappingKind::Null, 30);
        assert_eq!(c.total_phases(), 2);
        assert_eq!(c.total_lines(), 40);
        assert!((c.phase_pct(MappingKind::Universal) - 50.0).abs() < 1e-9);
        assert!((c.line_pct(MappingKind::Null) - 75.0).abs() < 1e-9);
        assert!((c.amenable_phase_pct() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn empty_census_is_zero() {
        let c = Census::new();
        assert_eq!(c.total_phases(), 0);
        assert_eq!(c.phase_pct(MappingKind::Identity), 0.0);
    }

    #[test]
    fn display_contains_rows() {
        let c = Census::paper_reference();
        let s = c.to_string();
        assert!(s.contains("universal"));
        assert!(s.contains("identity"));
        assert!(s.contains("68%"));
    }
}
